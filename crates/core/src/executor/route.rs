//! Plane 2 — route: released events are classified, key-hashed and framed
//! once per *route group* (queries whose `GROUP-BY` keys coincide share
//! one), frames are flushed to the shard queues, and watermarks follow
//! them at every window-close boundary. The skew detector lives here too:
//! it watches route group 0's traffic and plans the reassignments the
//! executor migrates at a barrier.

use super::barrier::Msg;
use super::merge::Merge;
use super::worker::Worker;
use super::{Cadence, ExecutorConfig, ExecutorStats, RebalanceConfig};
use crate::agg::TrendNum;
use crate::graph::EnginePlan;
use crate::grouping::{group_key_hash, shard_of_hash, PartitionKey, RoutingTable};
use crate::sketch::GroupSketch;
use crate::window::last_closed;
use crate::EngineError;
use greta_types::codec::{put_u32, put_u64, Reader};
use greta_types::{CodecError, EventRef, Time};
use std::collections::HashMap;
use std::sync::Arc;

/// Groups the skew detector tracks: its per-group counters keep this many
/// of the heaviest groups in a top-K + decayed-counter sketch, which
/// bounds its memory on high-cardinality `GROUP-BY` streams.
pub const GROUP_STATS_CAPACITY: usize = 1024;

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
    /// Routed event planes; index 0 (id 0's) is the one skew rebalancing
    /// migrates.
    groups: Vec<RouteGroup>,
    /// Group 0's versioned group → shard overrides; empty = pure hash
    /// routing. Every other group always routes by hash.
    table: RoutingTable,
    batch_size: usize,
    rebalance: Option<RebalanceConfig>,
    /// Per-group counters: events bumped at routing time when rebalancing
    /// is on, vertices filled from worker reports at end of stream.
    /// Bounded to the [`GROUP_STATS_CAPACITY`] heaviest groups.
    group_stats: GroupSketch,
    /// Per-group events since the last skew check (taken and cleared by
    /// every check). The detector works on these interval counts, not the
    /// lifetime totals, so skew that emerges late in a long stream is
    /// seen immediately instead of being averaged away by history.
    recent_events: GroupSketch,
    /// Skew-check cadence, in closed windows of id 0; never due with
    /// rebalancing off or one shard.
    pub(super) rebalance_every: Cadence,
    released: u64,
    broadcasts: u64,
    watermarks: u64,
    frames: u64,
    rebalances: u64,
    groups_moved: u64,
    /// Events delivered per shard by group 0; its length is the shard
    /// count.
    events_per_shard: Vec<u64>,
    max_occupancy: usize,
}

impl Route {
    /// An empty route plane (no groups yet) over `shards` shards.
    pub(super) fn new(config: &ExecutorConfig, shards: usize) -> Self {
        let check_every = config.rebalance.filter(|_| shards > 1);
        Route {
            batch_size: config.batch_size.max(1),
            rebalance: config.rebalance,
            group_stats: GroupSketch::new(GROUP_STATS_CAPACITY),
            recent_events: GroupSketch::new(GROUP_STATS_CAPACITY),
            rebalance_every: Cadence::new(check_every.map(|r| r.check_every_windows)),
            events_per_shard: vec![0; shards],
            ..Default::default()
        }
    }

    pub(super) fn shards(&self) -> usize {
        self.events_per_shard.len()
    }

    /// Version of group 0's routing table.
    pub(super) fn epoch(&self) -> u64 {
        self.table.epoch()
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

    /// Shard owning group 0's `key` under the current routing epoch.
    pub(super) fn owner(&self, key: &PartitionKey) -> usize {
        self.owner_of_hash(group_key_hash(key))
    }

    fn owner_of_hash(&self, h: u64) -> usize {
        let pinned = self.table.shard_for_hash(h);
        pinned.unwrap_or_else(|| shard_of_hash(h, self.shards()))
    }

    /// Shard owning the event's group in route group `g` under the current
    /// routing epoch (`None` = broadcast). For group 0 with
    /// rebalancing on, also bumps the group's event counter — the skew
    /// detector's signal. Every path works off the event's routing hash:
    /// no group key is materialized per event (only once, when a group is
    /// first tracked by the sketch).
    fn group_dest_shard(&mut self, g: usize, e: &EventRef) -> Option<usize> {
        let routing = &self.groups[g].plan.routing;
        if routing.is_broadcast(e.type_id) {
            return None;
        }
        if g != 0 || (self.rebalance.is_none() && self.table.is_empty()) {
            // Static-assignment fast path: hash straight off the event.
            return routing.shard_of(e, self.shards());
        }
        let h = routing.group_hash(e);
        let shard = self.owner_of_hash(h);
        if self.rebalance.is_some() {
            self.recent_events.bump_events(h, || routing.group_key(e));
            self.group_stats.bump_events(h, || routing.group_key(e));
        }
        Some(shard)
    }

    /// Frame one released event for route group `g` (all of the group's
    /// member queries see the same frame).
    #[deny(clippy::disallowed_methods, clippy::disallowed_macros)]
    fn route_to_group<N: TrendNum>(
        &mut self,
        g: usize,
        e: &EventRef,
        worker: &mut Worker<N>,
        merge: &mut Merge<N>,
    ) -> Result<(), EngineError> {
        let (first, last) = match self.group_dest_shard(g, e) {
            None => {
                if g == 0 {
                    self.broadcasts += 1;
                }
                (0, self.shards())
            }
            Some(shard) => (shard, shard + 1),
        };
        for i in first..last {
            if g == 0 {
                self.events_per_shard[i] += 1;
            }
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
        self.rebalance_every.note_closed(closed);
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

    /// Send route group `g`'s buffered frame for shard `i`, if any.
    /// (`Vec::with_capacity` replacing the taken buffer is the one
    /// amortized allocation per frame — deliberately not in the denied
    /// set.)
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
        let frame = std::mem::replace(
            &mut self.groups[g].batch_bufs[i],
            Vec::with_capacity(self.batch_size),
        );
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

    /// Run the skew detector over group 0's traffic since the last check
    /// and, on imbalance, plan a new assignment: the overrides to install
    /// and how many groups they move.
    ///
    /// Detection: the per-group event counts *since the last check* are
    /// summed per shard under the current table; the check fires when the
    /// most-loaded shard carries at least
    /// [`RebalanceConfig::imbalance_ratio`] times the mean. Interval
    /// counts (not lifetime totals) mean skew that emerges late in a long
    /// stream is seen within one check period instead of being averaged
    /// away by balanced history. The plan is a greedy
    /// longest-processing-time pass over the interval's groups (hottest
    /// first onto the least-loaded shard) — deterministic, so a recovered
    /// executor replays identical migrations. Only groups whose planned
    /// shard differs from what the table-plus-hash already yields are
    /// pinned, so the override table stays proportional to actual moves.
    /// A plan that moves no group is dropped (the old pins are kept).
    pub(super) fn plan_rebalance(&mut self) -> Option<(HashMap<PartitionKey, u32>, usize)> {
        let cfg = self.rebalance?;
        let shards = self.shards();
        if shards <= 1 || self.recent_events.is_empty() {
            return None;
        }
        // Hottest-first, key-tie-broken: deterministic across runs (the
        // sketch's evictions are deterministic too, so a recovered
        // executor replays identical plans).
        let groups: Vec<(PartitionKey, u64)> = self.recent_events.take_hottest_first();
        let total: u64 = groups.iter().map(|(_, n)| n).sum();
        if total == 0 {
            return None;
        }
        let mut loads = vec![0u64; shards];
        for (k, n) in &groups {
            loads[self.owner(k)] += n;
        }
        let max_load = loads.iter().copied().max().unwrap_or(0);
        let mean = total as f64 / shards as f64;
        if (max_load as f64) < cfg.imbalance_ratio.max(1.0) * mean {
            return None;
        }
        let mut new_loads = vec![0u64; shards];
        let mut overrides = HashMap::new();
        let mut moves = 0usize;
        for (k, n) in &groups {
            let dest = (0..shards).min_by_key(|&i| (new_loads[i], i)).unwrap_or(0);
            new_loads[dest] += *n;
            if dest != self.owner(k) {
                moves += 1;
            }
            // A pin that agrees with the hash fallback is a no-op: leave
            // it out so the table (and every snapshot carrying it) stays
            // proportional to the groups actually displaced.
            if dest != shard_of_hash(group_key_hash(k), shards) {
                overrides.insert(k.clone(), dest as u32);
            }
        }
        (moves > 0).then_some((overrides, moves))
    }

    /// Route group 0 by `overrides` from now on, under a bumped epoch:
    /// a migration of `moves` groups.
    pub(super) fn install(&mut self, overrides: HashMap<PartitionKey, u32>, moves: usize) {
        self.table.install(overrides);
        self.rebalances += 1;
        self.groups_moved += moves as u64;
    }

    /// End-of-stream vertex counts of group 0's groups.
    pub(super) fn add_vertices(&mut self, group_vertices: &[(PartitionKey, u64)]) {
        for (group, vertices) in group_vertices {
            self.group_stats.add_vertices(group, *vertices);
        }
    }

    /// This plane's snapshot section: the counters, group 0's routing
    /// table, the skew sketches and the rebalance cadence. Buffered frames
    /// are not in it — a checkpoint is taken at a cut, which flushed them.
    pub(super) fn encode(&self, out: &mut Vec<u8>) {
        for v in [
            self.released,
            self.broadcasts,
            self.watermarks,
            self.frames,
            self.rebalances,
            self.groups_moved,
            self.max_occupancy as u64,
            self.rebalance_every.since,
        ] {
            put_u64(out, v);
        }
        put_u32(out, self.events_per_shard.len() as u32);
        for v in &self.events_per_shard {
            put_u64(out, *v);
        }
        self.table.encode(out);
        self.group_stats.encode(out);
        self.recent_events.encode(out);
    }

    /// Inverse of [`encode`](Self::encode) for a checkpoint taken at
    /// `saved_shards`, resumed at `shards`. A different count restarts
    /// routing from the pure hash under a fresh epoch and the load picture
    /// from zero — the old pins and per-shard attribution mean nothing
    /// there.
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
        route.rebalances = r.u64()?;
        route.groups_moved = r.u64()?;
        route.max_occupancy = r.u64()? as usize;
        route.rebalance_every.since = r.u64()?;
        if r.seq_len(8)? != saved_shards {
            return Err(CodecError(format!(
                "route section does not count events for {saved_shards} shard(s)"
            )));
        }
        let events_per_shard: Vec<u64> = (0..saved_shards)
            .map(|_| r.u64())
            .collect::<Result<_, _>>()?;
        route.table = RoutingTable::decode(r, saved_shards)?;
        route.group_stats = GroupSketch::decode(GROUP_STATS_CAPACITY, r)?;
        route.recent_events = GroupSketch::decode(GROUP_STATS_CAPACITY, r)?;
        if saved_shards == shards {
            route.events_per_shard = events_per_shard;
        } else {
            route.table.reset_for_shards();
        }
        Ok(route)
    }

    /// Fill in the counters this plane owns.
    pub(super) fn fill_stats(&self, s: &mut ExecutorStats) {
        s.released = self.released;
        s.broadcasts = self.broadcasts;
        s.watermarks = self.watermarks;
        s.frames = self.frames;
        s.rebalances = self.rebalances;
        s.groups_moved = self.groups_moved;
        s.routing_epoch = self.table.epoch();
        s.group_stats = self.group_stats.top_sorted();
        s.events_per_shard = self.events_per_shard.clone();
        s.max_channel_occupancy = self.max_occupancy;
    }
}

#[cfg(test)]
mod tests {
    use crate::{ExecutorConfig, StreamExecutor};
    use greta_query::CompiledQuery;
    use greta_types::{EventBuilder, SchemaRegistry, Time};

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
