//! Out-of-order adapters for both ends of the pipeline.
//!
//! **Ingestion** ([`ReorderBuffer`]): the paper assumes in-order streams
//! and points to out-of-order processing architectures ([17, 18] in §2)
//! for the general case. This module provides the standard *slack buffer*
//! from that line of work: events are held for `slack` ticks and released
//! in time-stamp order; anything arriving later than the already-released
//! watermark is reported as a [`late event`](ReorderBuffer::push) instead
//! of corrupting the graph.
//!
//! **Emission** ([`ResultMerge`]): the mirror image on the output side.
//! Shard workers emit closed-window rows independently, so the raw result
//! stream interleaves windows across shards. The merge holds each shard's
//! rows until *every* shard's emission frontier (the smallest window it
//! may still emit — [`GretaEngine::emission_frontier`]) has passed the
//! window, then releases the window's rows in canonical `(window, group)`
//! order. Buffering is bounded by the number of open windows, not the
//! stream length — no sort-at-finish, no full materialization.
//!
//! [`GretaEngine::emission_frontier`]: crate::engine::GretaEngine::emission_frontier

use crate::agg::TrendNum;
use crate::results::WindowResult;
use crate::window::WindowId;
use greta_types::{Event, EventRef, Time};
use std::collections::{BTreeMap, VecDeque};

/// Buffering reorderer with a fixed time slack.
#[derive(Debug, Default)]
pub struct ReorderBuffer {
    slack: u64,
    /// Buffered events in release order: sorted by time stamp, arrival
    /// order within a stamp. Released from the front.
    pending: VecDeque<EventRef>,
    /// Highest time stamp already released.
    released: Option<Time>,
    /// Count of events dropped for arriving beyond the slack.
    late: u64,
}

impl ReorderBuffer {
    /// A buffer that tolerates disorder up to `slack` ticks.
    pub fn new(slack: u64) -> ReorderBuffer {
        ReorderBuffer {
            slack,
            ..Default::default()
        }
    }

    /// Offer an event. Returns the events that became safe to release (in
    /// time-stamp order), or `Err(event)` when the event arrived later than
    /// the slack allows (the caller decides whether to drop it or fail).
    pub fn push(&mut self, e: EventRef) -> Result<Vec<EventRef>, EventRef> {
        let mut out = Vec::new();
        self.push_into(e, &mut out).map(|()| out)
    }

    /// [`push`](Self::push) into a caller-provided buffer — the hot path
    /// reuses one scratch vector instead of allocating per event, and the
    /// buffer itself allocates only when it grows past its largest backlog
    /// so far.
    #[deny(clippy::disallowed_methods, clippy::disallowed_macros)]
    pub fn push_into(&mut self, e: EventRef, out: &mut Vec<EventRef>) -> Result<(), EventRef> {
        if let Some(r) = self.released {
            if e.time < r {
                self.late += 1;
                return Err(e);
            }
        }
        self.insert(e);
        // Release everything at least `slack` ticks behind the max seen.
        let max_seen = self.pending.back().expect("just inserted").time;
        let horizon = Time(max_seen.ticks().saturating_sub(self.slack));
        self.release_before(horizon, out);
        Ok(())
    }

    /// File `e` after every buffered event stamped at or before it: an
    /// in-order arrival goes to the back, a disordered one behind its
    /// equals, so events of one stamp keep their arrival order.
    #[deny(clippy::disallowed_methods, clippy::disallowed_macros)]
    fn insert(&mut self, e: EventRef) {
        if self.pending.back().is_none_or(|last| last.time <= e.time) {
            self.pending.push_back(e);
        } else {
            let at = self.pending.partition_point(|b| b.time <= e.time);
            self.pending.insert(at, e);
        }
    }

    /// Flush all buffered events (stream end).
    pub fn flush(&mut self) -> Vec<EventRef> {
        let mut out = Vec::with_capacity(self.pending.len());
        self.release_before(Time::MAX, &mut out);
        out
    }

    #[deny(clippy::disallowed_methods, clippy::disallowed_macros)]
    fn release_before(&mut self, horizon: Time, out: &mut Vec<EventRef>) {
        while let Some(e) = self.pending.front() {
            if e.time >= horizon {
                break;
            }
            self.released = Some(e.time);
            out.extend(self.pending.pop_front());
        }
    }

    /// Highest time stamp released so far (the buffer's output watermark):
    /// any event pushed with a smaller stamp is late.
    pub fn watermark(&self) -> Option<Time> {
        self.released
    }

    /// The configured slack in ticks.
    pub fn slack(&self) -> u64 {
        self.slack
    }

    /// Events currently buffered.
    pub fn buffered(&self) -> usize {
        self.pending.len()
    }

    /// Events rejected as too late so far.
    pub fn late_events(&self) -> u64 {
        self.late
    }

    /// Append the binary encoding of the buffer's mutable state: the
    /// released watermark, the late counter, and every buffered event in
    /// release order (durability snapshots). The slack is configuration
    /// and is supplied again on [`import_state`](Self::import_state).
    pub fn export_state(&self, out: &mut Vec<u8>) {
        greta_types::codec::put_opt_u64(out, self.released.map(Time::ticks));
        greta_types::codec::put_u64(out, self.late);
        greta_types::codec::put_u32(out, self.pending.len() as u32);
        for e in &self.pending {
            e.encode(out);
        }
    }

    /// Rebuild a buffer with the given `slack` from state written by
    /// [`export_state`](Self::export_state).
    pub fn import_state(
        slack: u64,
        r: &mut greta_types::Reader<'_>,
    ) -> Result<ReorderBuffer, greta_types::CodecError> {
        let released = greta_types::codec::get_opt_u64(r)?.map(Time);
        let late = r.u64()?;
        let mut buf = ReorderBuffer {
            slack,
            released,
            late,
            ..Default::default()
        };
        for _ in 0..r.seq_len(11)? {
            buf.insert(Event::decode(r)?.into_ref());
        }
        Ok(buf)
    }
}

/// Cross-shard min-watermark merge for ordered result emission. See the
/// [module docs](self).
///
/// Rows are stamped by their emitting shard; per-shard *frontiers* record
/// the smallest window each shard may still emit. Windows strictly below
/// the minimum frontier across all shards are complete — their rows are
/// released in canonical `(window, group)` order and the released
/// watermark (`released_to`) advances monotonically. Frontier updates
/// arrive from window-close watermark broadcasts and from barrier drains
/// (checkpoint, register, deregister).
#[derive(Debug, Clone)]
pub struct ResultMerge<N: TrendNum> {
    /// Per-shard emission frontier: shard `s` will never emit a row for a
    /// window below `frontiers[s]`. Only ever advances.
    frontiers: Vec<WindowId>,
    /// Windows below this are fully released (the output watermark).
    released_to: WindowId,
    /// Pending rows of still-open windows, keyed by window.
    buffered: BTreeMap<WindowId, Vec<WindowResult<N>>>,
    /// Last per-shard row sequence seen (emission-order sanity check).
    last_seq: Vec<u64>,
}

impl<N: TrendNum> ResultMerge<N> {
    /// A merge over `shards` emitting shards, all frontiers at window 0.
    pub fn new(shards: usize) -> ResultMerge<N> {
        ResultMerge {
            frontiers: vec![0; shards],
            released_to: 0,
            buffered: BTreeMap::new(),
            last_seq: vec![0; shards],
        }
    }

    /// Buffer one stamped row from `shard`. `seq` is the shard's emission
    /// counter (strictly increasing per shard).
    pub fn offer(&mut self, shard: usize, seq: u64, row: WindowResult<N>) {
        debug_assert!(
            row.window >= self.released_to,
            "shard {shard} emitted window {} after it was released (released_to {})",
            row.window,
            self.released_to
        );
        debug_assert!(
            seq > self.last_seq[shard],
            "shard {shard} row seq went backwards ({seq} ≤ {})",
            self.last_seq[shard]
        );
        self.last_seq[shard] = seq;
        self.buffered.entry(row.window).or_default().push(row);
    }

    /// Advance `shard`'s frontier to `next_window` (stale updates are
    /// ignored — frontiers only grow) and append every newly complete
    /// window's rows to `out` in canonical order.
    pub fn advance(&mut self, shard: usize, next_window: WindowId, out: &mut Vec<WindowResult<N>>) {
        if next_window > self.frontiers[shard] {
            self.frontiers[shard] = next_window;
            self.release(out);
        }
    }

    /// End of stream: every shard has terminated, so no window can receive
    /// further rows. Releases everything still buffered, in order.
    pub fn close(&mut self, out: &mut Vec<WindowResult<N>>) {
        for f in &mut self.frontiers {
            *f = WindowId::MAX;
        }
        self.release(out);
    }

    fn release(&mut self, out: &mut Vec<WindowResult<N>>) {
        let min = self.frontiers.iter().copied().min().unwrap_or(0);
        while let Some(entry) = self.buffered.first_entry() {
            if *entry.key() >= min {
                break;
            }
            let mut rows = entry.remove();
            // Groups are disjoint across shards and each shard emits its
            // window's rows group-sorted, so a per-window sort by group
            // yields exactly the canonical order (keys are unique).
            rows.sort_by(|a, b| a.group.cmp(&b.group));
            out.append(&mut rows);
        }
        self.released_to = self.released_to.max(min);
    }

    /// The smallest window any shard may still emit (the output watermark).
    pub fn min_frontier(&self) -> WindowId {
        self.frontiers.iter().copied().min().unwrap_or(0)
    }

    /// Windows strictly below this are fully released to the caller — the
    /// ordered stream's *released watermark*. This is the progress signal a
    /// downstream consumer (a cascaded executor, a network subscription)
    /// needs: everything below it is final and totally ordered.
    pub fn released_to(&self) -> WindowId {
        self.released_to
    }

    /// The per-shard emission frontiers (shard `s` will never emit a row
    /// for a window below `frontiers()[s]`). The spread between the max
    /// and min entry is the merge's buffering pressure: rows of windows
    /// between them are parked waiting for the slowest shard.
    pub fn frontiers(&self) -> &[WindowId] {
        &self.frontiers
    }

    /// Rows currently buffered (bounded by open windows × groups).
    pub fn buffered_rows(&self) -> usize {
        self.buffered.values().map(Vec::len).sum()
    }

    /// Append the binary encoding: per-shard frontiers, the released
    /// watermark, and the buffered rows per window (rows written in
    /// group-sorted order for a deterministic blob). Per-shard sequence
    /// checks restart from zero on import — recovered workers renumber
    /// from scratch.
    pub fn export_state(&self, out: &mut Vec<u8>) {
        use greta_types::codec::{put_u32, put_u64};
        put_u32(out, self.frontiers.len() as u32);
        for f in &self.frontiers {
            put_u64(out, *f);
        }
        put_u64(out, self.released_to);
        put_u32(out, self.buffered.len() as u32);
        for (wid, rows) in &self.buffered {
            put_u64(out, *wid);
            let mut sorted: Vec<&WindowResult<N>> = rows.iter().collect();
            sorted.sort_by(|a, b| a.group.cmp(&b.group));
            put_u32(out, sorted.len() as u32);
            for row in sorted {
                crate::state::encode_window_result(row, out);
            }
        }
    }

    /// Rebuild a merge from state written by
    /// [`export_state`](Self::export_state).
    pub fn import_state(
        r: &mut greta_types::Reader<'_>,
    ) -> Result<ResultMerge<N>, greta_types::CodecError> {
        let n_shards = r.seq_len(8)?;
        let mut frontiers = Vec::with_capacity(n_shards);
        for _ in 0..n_shards {
            frontiers.push(r.u64()?);
        }
        let released_to = r.u64()?;
        let n_windows = r.seq_len(12)?;
        let mut buffered = BTreeMap::new();
        for _ in 0..n_windows {
            let wid = r.u64()?;
            let n_rows = r.seq_len(9)?;
            let mut rows = Vec::with_capacity(n_rows);
            for _ in 0..n_rows {
                rows.push(crate::state::decode_window_result(r)?);
            }
            buffered.insert(wid, rows);
        }
        let last_seq = vec![0; n_shards];
        Ok(ResultMerge {
            frontiers,
            released_to,
            buffered,
            last_seq,
        })
    }

    /// Re-target the merge at a different shard count (resharded
    /// recovery): buffered rows and the released watermark are kept, but
    /// the per-shard frontiers restart at the released watermark — the new
    /// workers report their own frontiers from the repartitioned engines,
    /// which resume at or past every source engine's watermark.
    pub fn reset_for_shards(&mut self, shards: usize) {
        self.frontiers = vec![self.released_to; shards];
        self.last_seq = vec![0; shards];
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use greta_types::{SchemaRegistry, TypeId};

    fn ev(t: u64) -> EventRef {
        Event::new_unchecked(TypeId(0), Time(t), vec![]).into_ref()
    }

    #[test]
    fn reorders_within_slack() {
        let mut buf = ReorderBuffer::new(5);
        let mut out = Vec::new();
        for t in [3u64, 1, 2, 9, 7, 12] {
            out.extend(buf.push(ev(t)).unwrap());
        }
        out.extend(buf.flush());
        let times: Vec<u64> = out.iter().map(|e| e.time.ticks()).collect();
        assert_eq!(times, vec![1, 2, 3, 7, 9, 12]);
        assert_eq!(buf.late_events(), 0);
    }

    #[test]
    fn late_events_rejected_not_reordered() {
        let mut buf = ReorderBuffer::new(2);
        buf.push(ev(10)).unwrap();
        let released = buf.push(ev(20)).unwrap(); // releases t=10
        assert_eq!(released.len(), 1);
        // t=5 is before the released watermark: rejected.
        let rejected = buf.push(ev(5)).unwrap_err();
        assert_eq!(rejected.time, Time(5));
        assert_eq!(buf.late_events(), 1);
    }

    #[test]
    fn same_timestamp_preserves_arrival_order() {
        let mut reg = SchemaRegistry::new();
        let a = reg.register_type("A", &[]).unwrap();
        let b = reg.register_type("B", &[]).unwrap();
        let mut buf = ReorderBuffer::new(0);
        let e1 = Event::new_unchecked(a, Time(1), vec![]).into_ref();
        let e2 = Event::new_unchecked(b, Time(1), vec![]).into_ref();
        buf.push(e1.clone()).unwrap();
        buf.push(e2.clone()).unwrap();
        let out = buf.flush();
        assert_eq!(out[0].type_id, a);
        assert_eq!(out[1].type_id, b);
    }

    #[test]
    fn feeds_engine_correctly() {
        use crate::GretaEngine;
        use greta_query::CompiledQuery;
        let mut reg = SchemaRegistry::new();
        reg.register_type("A", &[]).unwrap();
        let q =
            CompiledQuery::parse("RETURN COUNT(*) PATTERN A+ WITHIN 100 SLIDE 100", &reg).unwrap();
        let mut engine = GretaEngine::<u64>::new(q, reg.clone()).unwrap();
        let mut buf = ReorderBuffer::new(10);
        let tid = reg.type_id("A").unwrap();
        for t in [2u64, 1, 4, 3, 5] {
            for e in buf
                .push(Event::new_unchecked(tid, Time(t), vec![]).into_ref())
                .unwrap()
            {
                engine.process_ref(&e).unwrap();
            }
        }
        for e in buf.flush() {
            engine.process_ref(&e).unwrap();
        }
        let rows = engine.finish();
        assert_eq!(rows[0].values[0].to_f64(), 31.0); // 2^5 - 1
    }

    #[test]
    fn buffered_count() {
        let mut buf = ReorderBuffer::new(100);
        buf.push(ev(1)).unwrap();
        buf.push(ev(2)).unwrap();
        assert_eq!(buf.buffered(), 2);
        buf.flush();
        assert_eq!(buf.buffered(), 0);
    }

    mod model {
        //! The reorder buffer against its specification: what a stable sort
        //! by stamp releases, over arbitrary arrivals.
        use super::super::ReorderBuffer;
        use greta_types::codec::{put_opt_u64, put_u32, put_u64};
        use greta_types::{Event, EventRef, Reader, Time, TypeId, Value};
        use proptest::prelude::*;

        /// Every accepted event in arrival order; the released ones are a
        /// prefix of their stable sort by stamp, since an accepted event is
        /// never stamped below the watermark and sorts after released
        /// events of its own stamp.
        struct Spec {
            slack: u64,
            accepted: Vec<EventRef>,
            released: usize,
            watermark: Option<Time>,
            max_seen: Option<Time>,
            late: u64,
        }

        impl Spec {
            fn new(slack: u64) -> Self {
                Spec {
                    slack,
                    accepted: Vec::new(),
                    released: 0,
                    watermark: None,
                    max_seen: None,
                    late: 0,
                }
            }

            fn sorted(&self) -> Vec<EventRef> {
                let mut sorted = self.accepted.clone();
                sorted.sort_by_key(|e| e.time);
                sorted
            }

            /// Release the sorted events below `horizon` not yet released.
            fn release_before(&mut self, horizon: Time) -> Vec<EventRef> {
                let sorted = self.sorted();
                let out: Vec<EventRef> = sorted[self.released..]
                    .iter()
                    .take_while(|e| e.time < horizon)
                    .cloned()
                    .collect();
                self.released += out.len();
                if let Some(last) = out.last() {
                    self.watermark = Some(last.time);
                }
                out
            }

            fn push(&mut self, e: EventRef) -> Result<Vec<EventRef>, EventRef> {
                if self.watermark.is_some_and(|w| e.time < w) {
                    self.late += 1;
                    return Err(e);
                }
                self.max_seen = self.max_seen.max(Some(e.time));
                self.accepted.push(e);
                let max_seen = self.max_seen.expect("just set").ticks();
                Ok(self.release_before(Time(max_seen.saturating_sub(self.slack))))
            }

            fn encode(&self) -> Vec<u8> {
                let mut out = Vec::new();
                put_opt_u64(&mut out, self.watermark.map(Time::ticks));
                put_u64(&mut out, self.late);
                let pending = &self.sorted()[self.released..];
                put_u32(&mut out, pending.len() as u32);
                for e in pending {
                    e.encode(&mut out);
                }
                out
            }
        }

        /// Arrival `i` at stamp `t`; its attribute tells arrivals apart.
        fn ev(t: u64, i: usize) -> EventRef {
            Event::new_unchecked(TypeId(0), Time(t), vec![Value::Int(i as i64)]).into_ref()
        }

        fn ids(r: &Result<Vec<EventRef>, EventRef>) -> Result<Vec<Value>, Value> {
            let id = |e: &EventRef| e.attrs[0].clone();
            match r {
                Ok(out) => Ok(out.iter().map(id).collect()),
                Err(e) => Err(id(e)),
            }
        }

        proptest! {
            /// Arrivals trail a clock that moves 0-3 ticks at a time by 0-11
            /// ticks, so stamps repeat and land within and beyond any slack
            /// in 0-8. The buffer releases and refuses what the spec does,
            /// exports the spec's bytes at every step, and a buffer
            /// imported from the export at `cut` continues identically.
            #[test]
            fn releases_what_a_stable_sort_by_stamp_releases(
                slack in 0u64..9,
                arrivals in proptest::collection::vec((0u64..4, 0u64..12), 0..60),
                cut in 0usize..60,
            ) {
                let (mut buf, mut spec) = (ReorderBuffer::new(slack), Spec::new(slack));
                let mut resumed: Option<ReorderBuffer> = None;
                let mut clock = 0;
                for (i, &(advance, back)) in arrivals.iter().enumerate() {
                    let mut bytes = Vec::new();
                    buf.export_state(&mut bytes);
                    prop_assert_eq!(&bytes, &spec.encode());
                    if i == cut {
                        let imported = ReorderBuffer::import_state(slack, &mut Reader::new(&bytes));
                        resumed = Some(imported.expect("own export"));
                    }
                    clock += advance;
                    let e = ev(clock.saturating_sub(back), i);
                    let got = ids(&buf.push(e.clone()));
                    prop_assert_eq!(&got, &ids(&spec.push(e.clone())));
                    if let Some(r) = &mut resumed {
                        prop_assert_eq!(&ids(&r.push(e)), &got);
                    }
                    prop_assert_eq!(buf.buffered(), spec.accepted.len() - spec.released);
                    prop_assert_eq!(buf.late_events(), spec.late);
                    prop_assert_eq!(buf.watermark(), spec.watermark);
                }
                let rest = ids(&Ok(buf.flush()));
                prop_assert_eq!(&rest, &ids(&Ok(spec.release_before(Time::MAX))));
                if let Some(mut r) = resumed {
                    prop_assert_eq!(&ids(&Ok(r.flush())), &rest);
                }
                prop_assert_eq!(buf.buffered(), 0);
            }
        }
    }

    mod merge {
        use super::super::ResultMerge;
        use crate::grouping::PartitionKey;
        use crate::results::{OutValue, WindowResult};
        use greta_types::Value;

        fn row(w: u64, g: i64) -> WindowResult<u64> {
            WindowResult {
                window: w,
                group: PartitionKey(vec![Some(Value::Int(g))]),
                values: vec![OutValue::Count(1)],
            }
        }

        #[test]
        fn releases_only_below_min_frontier_in_order() {
            let mut m = ResultMerge::<u64>::new(2);
            let mut out = Vec::new();
            m.offer(0, 1, row(0, 3));
            m.offer(1, 1, row(0, 1));
            m.offer(0, 2, row(1, 3));
            m.advance(0, 2, &mut out);
            assert!(out.is_empty(), "shard 1 still at window 0");
            m.advance(1, 1, &mut out);
            // Window 0 complete: both rows, group-sorted.
            let got: Vec<(u64, i64)> = out
                .iter()
                .map(|r| match &r.group.0[0] {
                    Some(Value::Int(g)) => (r.window, *g),
                    _ => unreachable!(),
                })
                .collect();
            assert_eq!(got, vec![(0, 1), (0, 3)]);
            assert_eq!(m.min_frontier(), 1);
            assert_eq!(m.buffered_rows(), 1);
            m.close(&mut out);
            assert_eq!(out.len(), 3);
            assert_eq!(out[2].window, 1);
        }

        #[test]
        fn stale_frontier_updates_are_ignored() {
            let mut m = ResultMerge::<u64>::new(1);
            let mut out = Vec::new();
            m.advance(0, 5, &mut out);
            m.advance(0, 3, &mut out); // stale: must not rewind
            assert_eq!(m.min_frontier(), 5);
        }

        #[test]
        fn codec_roundtrip_and_reshard_reset() {
            let mut m = ResultMerge::<u64>::new(3);
            let mut out = Vec::new();
            m.offer(0, 1, row(4, 2));
            m.offer(2, 1, row(5, 7));
            m.advance(0, 4, &mut out);
            m.advance(1, 4, &mut out);
            m.advance(2, 4, &mut out);
            let mut buf = Vec::new();
            m.export_state(&mut buf);
            let mut got = ResultMerge::<u64>::import_state(&mut greta_types::Reader::new(&buf))
                .expect("roundtrip");
            assert_eq!(got.min_frontier(), 4);
            assert_eq!(got.buffered_rows(), 2);
            // Resharding restarts frontiers at the released watermark but
            // keeps the buffered rows.
            got.reset_for_shards(5);
            assert_eq!(got.min_frontier(), 4);
            assert_eq!(got.buffered_rows(), 2);
            let mut rest = Vec::new();
            got.close(&mut rest);
            assert_eq!(rest.len(), 2);
            assert_eq!((rest[0].window, rest[1].window), (4, 5));
        }
    }
}
