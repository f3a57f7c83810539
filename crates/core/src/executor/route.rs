//! Plane 2 — route: released events are classified, key-hashed and framed
//! once per *route group* (queries whose `GROUP-BY` keys coincide share
//! one), frames are flushed to the shard queues, and watermarks follow
//! them at every window-close boundary. Every `GROUP-BY` group goes to
//! the shard its hash picks, in every route group, for the executor's
//! lifetime.

use super::barrier::Msg;
use super::merge::Merge;
use super::worker::Worker;
use super::{ExecutorConfig, ExecutorStats};
use crate::agg::TrendNum;
use crate::graph::EnginePlan;
use crate::window::last_closed;
use crate::EngineError;
use greta_types::codec::{put_u32, put_u64, Reader};
use greta_types::{CodecError, EventRef, Time};
use std::sync::Arc;

/// One routed event plane: queries whose `GROUP-BY` keys coincide share a
/// group, so classification, hashing, and framing are paid once for all of
/// them.
struct RouteGroup {
    /// The plan of the query that founded the group; its routing is the
    /// group's.
    plan: Arc<EnginePlan>,
    /// Per-shard event frames not yet sent.
    batch_bufs: Vec<Vec<EventRef>>,
    /// Active queries routing through this group (0 = the group is
    /// dormant and skipped by the router).
    members: usize,
}

/// The route plane. See the [module docs](self).
#[derive(Default)]
pub(super) struct Route {
    /// Routed event planes, in founding order.
    groups: Vec<RouteGroup>,
    batch_size: usize,
    released: u64,
    broadcasts: u64,
    watermarks: u64,
    frames: u64,
    /// Events delivered per shard, summed over the route groups; its
    /// length is the shard count.
    events_per_shard: Vec<u64>,
    max_occupancy: usize,
}

impl Route {
    /// An empty route plane (no groups yet) over `shards` shards.
    pub(super) fn new(config: &ExecutorConfig, shards: usize) -> Self {
        Route {
            batch_size: config.batch_size.max(1),
            events_per_shard: vec![0; shards],
            ..Default::default()
        }
    }

    pub(super) fn shards(&self) -> usize {
        self.events_per_shard.len()
    }

    /// Join the route group `plan`'s routing coincides with (a new one,
    /// founded on `plan`, if none does); returns its index.
    pub(super) fn join(&mut self, plan: &Arc<EnginePlan>) -> u32 {
        let like = |g: &RouteGroup| g.plan.routing.routes_like(&plan.routing);
        let group = self.groups.iter().position(like).unwrap_or_else(|| {
            self.groups.push(RouteGroup {
                plan: plan.clone(),
                batch_bufs: vec![Vec::new(); self.shards()],
                members: 0,
            });
            self.groups.len() - 1
        });
        self.groups[group].members += 1;
        group as u32
    }

    /// One member query of `group` left.
    pub(super) fn leave(&mut self, group: u32) {
        self.groups[group as usize].members -= 1;
    }

    /// Frame one released event for route group `g` (all of the group's
    /// member queries see the same frame): to the shard its group hashes
    /// to, or to every shard for a broadcast type.
    #[deny(clippy::disallowed_methods, clippy::disallowed_macros)]
    fn route_to_group<N: TrendNum>(
        &mut self,
        g: usize,
        e: &EventRef,
        worker: &mut Worker<N>,
        merge: &mut Merge<N>,
    ) -> Result<(), EngineError> {
        let (first, last) = match self.groups[g].plan.routing.shard_of(e, self.shards()) {
            None => {
                self.broadcasts += 1;
                (0, self.shards())
            }
            Some(shard) => (shard, shard + 1),
        };
        for i in first..last {
            self.events_per_shard[i] += 1;
            #[expect(clippy::disallowed_methods, reason = "EventRef: an Arc refcount bump")]
            self.groups[g].batch_bufs[i].push(e.clone());
            if self.groups[g].batch_bufs[i].len() >= self.batch_size {
                self.flush_group_shard(g, i, worker, merge)?;
            }
        }
        Ok(())
    }

    /// Route a release batch through every live group, watermark by
    /// watermark. Returns how many of id 0's windows the batch closed —
    /// what the cadences count (this plane's own is counted here).
    #[deny(clippy::disallowed_methods, clippy::disallowed_macros)]
    pub(super) fn route_all<N: TrendNum>(
        &mut self,
        released: &[EventRef],
        worker: &mut Worker<N>,
        merge: &mut Merge<N>,
    ) -> Result<u64, EngineError> {
        let mut closed = 0;
        for ev in released {
            self.released += 1;
            for g in 0..self.groups.len() {
                if self.groups[g].members > 0 {
                    self.route_to_group(g, ev, worker, merge)?;
                }
            }
            closed += self.note_watermark(ev.time, worker, merge)?;
        }
        Ok(closed)
    }

    /// React to the released watermark reaching `wm`: if it crossed any
    /// hosted query's window-close boundary since the last broadcast,
    /// flush every buffered frame (the watermark must not overtake its
    /// events) and broadcast the watermark — shards that received no
    /// recent events still close their windows, for every query. Returns
    /// how many of id 0's windows that closed.
    #[deny(clippy::disallowed_methods, clippy::disallowed_macros)]
    fn note_watermark<N: TrendNum>(
        &mut self,
        wm: Time,
        worker: &mut Worker<N>,
        merge: &mut Merge<N>,
    ) -> Result<u64, EngineError> {
        let mut any_closed = false;
        let mut cadence_closed = 0u64;
        for slot in merge.queries.iter_mut().filter(|s| s.active) {
            let Some(close_idx) = last_closed(wm, &slot.plan.query.window) else {
                continue;
            };
            let last = &mut slot.parts.last_close_idx;
            if *last == Some(close_idx) {
                continue;
            }
            if slot.parts.id == 0 {
                cadence_closed = last.map_or(close_idx + 1, |prev| close_idx - prev);
            }
            *last = Some(close_idx);
            any_closed = true;
        }
        if any_closed {
            self.watermarks += 1;
            self.flush_all_batches(worker, merge)?;
            for i in 0..self.shards() {
                worker.send(i, Msg::Watermark(wm), merge)?;
            }
        }
        Ok(cadence_closed)
    }

    /// Send route group `g`'s buffered frame for shard `i`, if any. The
    /// buffer that replaces it is a spent frame the shards handed back
    /// ([`Worker::empty_frame`]); a new one is allocated only while none
    /// has come back.
    #[deny(clippy::disallowed_methods, clippy::disallowed_macros)]
    fn flush_group_shard<N: TrendNum>(
        &mut self,
        g: usize,
        i: usize,
        worker: &mut Worker<N>,
        merge: &mut Merge<N>,
    ) -> Result<(), EngineError> {
        if self.groups[g].batch_bufs[i].is_empty() {
            return Ok(());
        }
        let next = worker.empty_frame(self.batch_size);
        let frame = std::mem::replace(&mut self.groups[g].batch_bufs[i], next);
        self.max_occupancy = self.max_occupancy.max(worker.queued(i) + 1);
        self.frames += 1;
        let group = g as u32;
        worker.send(i, Msg::Events { group, frame }, merge)
    }

    /// Send every buffered frame of every group.
    #[deny(clippy::disallowed_methods, clippy::disallowed_macros)]
    pub(super) fn flush_all_batches<N: TrendNum>(
        &mut self,
        worker: &mut Worker<N>,
        merge: &mut Merge<N>,
    ) -> Result<(), EngineError> {
        for g in 0..self.groups.len() {
            for i in 0..self.shards() {
                self.flush_group_shard(g, i, worker, merge)?;
            }
        }
        Ok(())
    }

    /// This plane's snapshot section: the counters. Buffered frames are
    /// not in it — a checkpoint is taken at a cut, which flushed them.
    pub(super) fn encode(&self, out: &mut Vec<u8>) {
        for v in [
            self.released,
            self.broadcasts,
            self.watermarks,
            self.frames,
            self.max_occupancy as u64,
        ] {
            put_u64(out, v);
        }
        put_u32(out, self.events_per_shard.len() as u32);
        for v in &self.events_per_shard {
            put_u64(out, *v);
        }
    }

    /// Inverse of [`encode`](Self::encode) for a checkpoint taken at
    /// `saved_shards`, resumed at `shards`. A different count restarts
    /// the per-shard picture from zero — the old attribution means
    /// nothing there.
    pub(super) fn decode(
        r: &mut Reader<'_>,
        config: &ExecutorConfig,
        saved_shards: usize,
        shards: usize,
    ) -> Result<Self, CodecError> {
        let mut route = Route::new(config, shards);
        route.released = r.u64()?;
        route.broadcasts = r.u64()?;
        route.watermarks = r.u64()?;
        route.frames = r.u64()?;
        route.max_occupancy = r.u64()? as usize;
        if r.seq_len(8)? != saved_shards {
            return Err(CodecError(format!(
                "route section does not count events for {saved_shards} shard(s)"
            )));
        }
        let events_per_shard: Vec<u64> = (0..saved_shards)
            .map(|_| r.u64())
            .collect::<Result<_, _>>()?;
        if saved_shards == shards {
            route.events_per_shard = events_per_shard;
        }
        Ok(route)
    }

    /// Fill in the counters this plane owns.
    pub(super) fn fill_stats(&self, s: &mut ExecutorStats) {
        s.released = self.released;
        s.broadcasts = self.broadcasts;
        s.watermarks = self.watermarks;
        s.frames = self.frames;
        s.events_per_shard = self.events_per_shard.clone();
        s.max_channel_occupancy = self.max_occupancy;
    }
}

#[cfg(test)]
mod tests {
    use crate::{EmissionMode, ExecutorConfig, StreamExecutor, StreamRouting};
    use greta_query::CompiledQuery;
    use greta_types::{EventBuilder, SchemaRegistry, Time};

    #[test]
    fn events_per_shard_sums_the_deliveries_of_every_route_group() {
        // Two key planes over one stream: each event is delivered once by
        // each route group, to the shard its group hashes to there.
        let mut reg = SchemaRegistry::new();
        reg.register_type("M", &["grp", "host"]).unwrap();
        let by_grp = "RETURN grp, COUNT(*) PATTERN M+ GROUP-BY grp WITHIN 20 SLIDE 10";
        let by_host = "RETURN host, COUNT(*) PATTERN M+ GROUP-BY host WITHIN 20 SLIDE 10";
        let (q0, q1) = (
            CompiledQuery::parse(by_grp, &reg),
            CompiledQuery::parse(by_host, &reg),
        );
        let (q0, q1) = (q0.unwrap(), q1.unwrap());
        let routings = [StreamRouting::new(&q0, &reg), StreamRouting::new(&q1, &reg)];
        let shards = 3;
        let config = ExecutorConfig {
            shards,
            ..Default::default()
        };
        let mut exec = StreamExecutor::<u64>::new(q0, reg.clone(), config).unwrap();
        exec.register_query(by_host, EmissionMode::Unordered)
            .unwrap();
        let mut expect = vec![0u64; shards];
        for t in 0..100u64 {
            let e = EventBuilder::new(&reg, "M").unwrap().at(Time(t));
            let e = e.set("grp", (t % 7) as i64).unwrap();
            let e = e.set("host", (t % 5) as i64).unwrap().build();
            for r in &routings {
                expect[r.shard_of(&e, shards).unwrap()] += 1;
            }
            exec.push(e).unwrap();
        }
        exec.drain().unwrap();
        let stats = exec.stats();
        assert_eq!(stats.queries[1].route_group, 1, "two route groups");
        assert_eq!(stats.released, 100);
        assert_eq!(stats.events_per_shard, expect);
    }

    #[test]
    fn broadcast_frames_are_pointer_identical_across_shards() {
        // The zero-copy event plane: a broadcast event reaches every shard
        // as an `Arc` clone of ONE allocation, never as a deep copy.
        let mut reg = SchemaRegistry::new();
        reg.register_type("Accident", &["segment"]).unwrap();
        reg.register_type("Position", &["vehicle", "segment"])
            .unwrap();
        let q = CompiledQuery::parse(
            "RETURN segment, COUNT(*) PATTERN SEQ(NOT Accident X, Position P+) \
             WHERE [P.vehicle, segment] GROUP-BY segment WITHIN 1000 SLIDE 1000",
            &reg,
        )
        .unwrap();
        let mut exec = StreamExecutor::<u64>::new(
            q,
            reg.clone(),
            ExecutorConfig {
                shards: 3,
                batch_size: 10_000, // keep frames buffered so we can inspect them
                ..Default::default()
            },
        )
        .unwrap();
        let acc = EventBuilder::new(&reg, "Accident")
            .unwrap()
            .at(Time(1))
            .set("segment", 4)
            .unwrap()
            .build();
        let pos = EventBuilder::new(&reg, "Position")
            .unwrap()
            .at(Time(5))
            .set("vehicle", 7)
            .unwrap()
            .set("segment", 4)
            .unwrap()
            .build();
        exec.push(acc).unwrap();
        exec.push(pos).unwrap(); // advances the reorder horizon past t=1
        assert_eq!(exec.stats().broadcasts, 1);
        let bufs = &exec.route.groups[0].batch_bufs;
        assert_eq!(bufs.len(), 3);
        for buf in &bufs[1..] {
            assert!(
                std::sync::Arc::ptr_eq(&bufs[0][0], &buf[0]),
                "broadcast event was copied instead of shared"
            );
        }
        exec.finish().unwrap();
    }
}
