//! A-Seq-style baseline (paper §1/§11, \[25\]): *online aggregation of
//! fixed-length event sequences*.
//!
//! A-Seq is the only pre-GRETA system with incremental sequence
//! aggregation, but it is restricted to flat, fixed-length patterns such as
//! `SEQ(A, B, C)` with **no Kleene closure and no edge predicates**. Under
//! those restrictions the per-event graph vertex of GRETA collapses into a
//! single running aggregate per *pattern position*: when an event of
//! position `i` arrives, position `i`'s aggregate absorbs position
//! `i−1`'s (prefix counting) — O(L) state instead of O(n).
//!
//! This module exists for two reasons: it reproduces the related-work
//! landscape of the paper, and it is a sharp regression oracle — on the
//! queries it supports it must agree exactly with GRETA while using O(1)
//! memory per group/window.

use crate::common::TrendAgg;
use greta_core::agg::AggLayout;
use greta_core::grouping::{KeyExtractor, PartitionKey};
use greta_core::results::WindowResult;
use greta_core::window::{window_close_time, windows_of, WindowId};
use greta_query::{CompiledQuery, StateId};
use greta_types::{Event, SchemaRegistry, Time, TypeId};
use std::collections::{BTreeMap, HashMap};

/// Why a query is outside A-Seq's supported fragment.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum AseqUnsupported {
    /// Pattern contains Kleene closure (trend length is unbounded).
    Kleene,
    /// Pattern contains negation.
    Negation,
    /// Query has edge predicates (A-Seq predicates are single-event only).
    EdgePredicates,
    /// Pattern desugars into several alternatives.
    Alternatives,
}

impl std::fmt::Display for AseqUnsupported {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let m = match self {
            AseqUnsupported::Kleene => "A-Seq supports no Kleene closure (paper §11)",
            AseqUnsupported::Negation => "A-Seq supports no negation",
            AseqUnsupported::EdgePredicates => "A-Seq predicates are single-event only",
            AseqUnsupported::Alternatives => "A-Seq patterns are a single fixed sequence",
        };
        write!(f, "{m}")
    }
}

/// The A-Seq-style engine: O(L) running aggregates per (partition, window).
pub struct AseqEngine {
    query: CompiledQuery,
    layout: AggLayout,
    extractor: KeyExtractor,
    /// Pattern positions in sequence order: `(state, type)`.
    positions: Vec<(StateId, TypeId)>,
    /// `(partition, window)` → per-position running aggregates.
    state: HashMap<(PartitionKey, WindowId), Vec<TrendAgg>>,
    /// Contributions of the current timestamp, applied once time advances
    /// (trend adjacency requires strictly increasing times, Def. 1).
    pending: Vec<((PartitionKey, WindowId), usize, TrendAgg)>,
    pending_time: Time,
    /// Final aggregate per (window, group).
    results: BTreeMap<WindowId, HashMap<PartitionKey, TrendAgg>>,
    emitted: Vec<WindowResult<f64>>,
    watermark: Time,
}

impl AseqEngine {
    /// Validate the query against A-Seq's fragment and build the engine.
    pub fn new(
        query: CompiledQuery,
        registry: &SchemaRegistry,
    ) -> Result<AseqEngine, AseqUnsupported> {
        if query.alternatives.len() != 1 {
            return Err(AseqUnsupported::Alternatives);
        }
        let alt = &query.alternatives[0];
        if alt.graphs.len() != 1 {
            return Err(AseqUnsupported::Negation);
        }
        if !alt.predicates.edges.is_empty() {
            return Err(AseqUnsupported::EdgePredicates);
        }
        let t = &alt.graphs[0].template;
        // Fixed-length: the template must be a simple chain (each state has
        // at most one predecessor, no loops).
        for s in &t.states {
            let preds = t.predecessors(s.occ);
            if preds.contains(&s.occ) || preds.len() > 1 {
                return Err(AseqUnsupported::Kleene);
            }
        }
        // Order positions start → end along SEQ transitions.
        let mut positions = vec![(t.start, alt.graphs[0].type_of(t.start))];
        let mut cur = t.start;
        while cur != t.end {
            let next = t
                .transitions
                .iter()
                .find(|(from, _, _)| *from == cur)
                .map(|(_, to, _)| *to)
                .ok_or(AseqUnsupported::Kleene)?;
            positions.push((next, alt.graphs[0].type_of(next)));
            cur = next;
        }
        let layout = AggLayout::new(&query.aggregates);
        let extractor = KeyExtractor::new(&query, registry);
        Ok(AseqEngine {
            query,
            layout,
            extractor,
            positions,
            state: HashMap::new(),
            pending: Vec::new(),
            pending_time: Time::ZERO,
            results: BTreeMap::new(),
            emitted: Vec::new(),
            watermark: Time::ZERO,
        })
    }

    fn flush_pending(&mut self) {
        for ((key, wid), pos, contrib) in self.pending.drain(..) {
            let states = self
                .state
                .entry((key, wid))
                .or_insert_with(|| vec![TrendAgg::zero(&self.layout); self.positions.len()]);
            states[pos].merge(&contrib);
        }
    }

    /// Process one in-order event.
    pub fn process(&mut self, e: &Event) {
        if e.time > self.pending_time {
            self.flush_pending();
            self.pending_time = e.time;
        }
        self.watermark = self.watermark.max(e.time);
        self.close_due(e.time);
        let alt = &self.query.alternatives[0];
        let key = self.extractor.key_of(e);
        let n_group = self.query.group_by.len();
        for (pos, (state, ty)) in self.positions.iter().enumerate() {
            if *ty != e.type_id {
                continue;
            }
            if !alt
                .predicates
                .vertex_preds(*state)
                .all(|p| p.expr.eval_bool(None, e))
            {
                continue;
            }
            for wid in windows_of(e.time, &self.query.window) {
                // Prefix step: sequences ending at position `pos` via this
                // event = all prefixes accumulated at position pos−1 (or
                // one fresh sequence when pos == 0). Only strictly earlier
                // events are visible (same-timestamp contributions sit in
                // `pending`).
                let contrib = if pos == 0 {
                    let mut s = TrendAgg::zero(&self.layout);
                    extend(&mut s, e, true, &self.layout);
                    s
                } else {
                    let Some(states) = self.state.get(&(key.clone(), wid)) else {
                        continue;
                    };
                    let prev = states[pos - 1].clone();
                    if prev.count == 0.0 {
                        continue;
                    }
                    let mut s = prev;
                    // Adds counts_e/min/max/sum weighted by `count` —
                    // exactly the Theorem 9.1 step.
                    extend(&mut s, e, false, &self.layout);
                    s
                };
                if pos == self.positions.len() - 1 {
                    let group = key.group_prefix(n_group);
                    self.results
                        .entry(wid)
                        .or_default()
                        .entry(group)
                        .or_insert_with(|| TrendAgg::zero(&self.layout))
                        .merge(&contrib);
                }
                self.pending.push(((key.clone(), wid), pos, contrib));
            }
        }
    }

    fn close_due(&mut self, t: Time) {
        let wspec = self.query.window;
        while let Some((&wid, _)) = self.results.iter().next() {
            if window_close_time(wid, &wspec) > t {
                break;
            }
            let groups = self.results.remove(&wid).unwrap();
            let mut rows: Vec<WindowResult<f64>> = groups
                .into_iter()
                .filter(|(_, st)| st.count != 0.0)
                .map(|(group, st)| WindowResult {
                    window: wid,
                    group,
                    values: st.render(&self.layout),
                })
                .collect();
            rows.sort_by(|a, b| a.group.cmp(&b.group));
            self.emitted.extend(rows);
            self.state.retain(|(_, w), _| *w != wid);
        }
    }

    /// Flush all remaining windows and return every result.
    pub fn finish(&mut self) -> Vec<WindowResult<f64>> {
        self.flush_pending();
        self.close_due(Time::MAX);
        std::mem::take(&mut self.emitted)
    }

    /// Convenience batch API.
    pub fn run(&mut self, events: &[Event]) -> Vec<WindowResult<f64>> {
        for e in events {
            self.process(e);
        }
        self.finish()
    }

    /// Bytes of running state — O(positions × live windows × groups),
    /// independent of the number of events.
    pub fn memory_bytes(&self) -> usize {
        self.state
            .values()
            .map(|v| v.iter().map(TrendAgg::heap_size).sum::<usize>() + 64)
            .sum()
    }
}

/// The Theorem 9.1 step on a prefix aggregate: a sequence starting at `e`
/// adds one to the count (`start`); a tracked target folds its attribute
/// in, weighted by the count.
fn extend(s: &mut TrendAgg, e: &Event, start: bool, layout: &AggLayout) {
    if start {
        s.count += 1.0;
    }
    for (i, t) in layout.count_targets.iter().enumerate() {
        if *t == e.type_id {
            s.counts_e[i] += s.count;
        }
    }
    for (i, (t, a)) in layout.min_targets.iter().enumerate() {
        if *t == e.type_id {
            s.mins[i] = s.mins[i].min(e.attr(*a).as_f64());
        }
    }
    for (i, (t, a)) in layout.max_targets.iter().enumerate() {
        if *t == e.type_id {
            s.maxs[i] = s.maxs[i].max(e.attr(*a).as_f64());
        }
    }
    for (i, (t, a)) in layout.sum_targets.iter().enumerate() {
        if *t == e.type_id {
            s.sums[i] += s.count * e.attr(*a).as_f64();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use greta_core::GretaEngine;
    use greta_types::{EventBuilder, SchemaRegistry};

    fn registry() -> SchemaRegistry {
        let mut reg = SchemaRegistry::new();
        for t in ["A", "B", "C"] {
            reg.register_type(t, &["attr", "g"]).unwrap();
        }
        reg
    }

    fn ev(reg: &SchemaRegistry, ty: &str, t: u64, attr: f64, g: i64) -> Event {
        EventBuilder::new(reg, ty)
            .unwrap()
            .at(Time(t))
            .set("attr", attr)
            .unwrap()
            .set("g", g)
            .unwrap()
            .build()
    }

    fn compare_with_greta(text: &str, events: &[Event], reg: &SchemaRegistry) {
        let q = CompiledQuery::parse(text, reg).unwrap();
        let mut aseq = AseqEngine::new(q.clone(), reg).unwrap();
        let a = aseq.run(events);
        let mut greta = GretaEngine::<f64>::new(q, reg.clone()).unwrap();
        let mut g = greta.run(events).unwrap();
        g.sort_by(|x, y| x.window.cmp(&y.window).then_with(|| x.group.cmp(&y.group)));
        let mut a = a;
        a.sort_by(|x, y| x.window.cmp(&y.window).then_with(|| x.group.cmp(&y.group)));
        assert_eq!(a.len(), g.len(), "{text}");
        for (x, y) in a.iter().zip(&g) {
            assert_eq!(x.window, y.window);
            assert_eq!(x.group, y.group);
            for (u, v) in x.values.iter().zip(&y.values) {
                let (u, v) = (u.to_f64(), v.to_f64());
                if u.is_nan() && v.is_nan() {
                    continue;
                }
                assert!((u - v).abs() < 1e-9, "{text}: {u} vs {v}");
            }
        }
    }

    #[test]
    fn prefix_counting_matches_greta_on_fixed_sequences() {
        let reg = registry();
        let events: Vec<Event> = (0..30u64)
            .map(|t| {
                let ty = ["A", "B", "C"][(t % 3) as usize];
                ev(&reg, ty, t, ((t * 7) % 5) as f64, (t % 2) as i64)
            })
            .collect();
        for text in [
            "RETURN COUNT(*) PATTERN SEQ(A, B) WITHIN 100 SLIDE 100",
            "RETURN COUNT(*) PATTERN SEQ(A, B, C) WITHIN 100 SLIDE 100",
            "RETURN COUNT(*), SUM(A.attr), MIN(B.attr), MAX(B.attr), AVG(A.attr) \
             PATTERN SEQ(A, B, C) WITHIN 100 SLIDE 100",
            "RETURN g, COUNT(*) PATTERN SEQ(A, B) GROUP-BY g WITHIN 100 SLIDE 100",
            "RETURN COUNT(*) PATTERN SEQ(A, B, C) WITHIN 12 SLIDE 4",
            "RETURN COUNT(*) PATTERN SEQ(A, B) WHERE A.attr > 1 WITHIN 100 SLIDE 100",
        ] {
            compare_with_greta(text, &events, &reg);
        }
    }

    #[test]
    fn constant_memory_in_stream_length() {
        let reg = registry();
        let q = CompiledQuery::parse("RETURN COUNT(*) PATTERN SEQ(A, B) WITHIN 50 SLIDE 50", &reg)
            .unwrap();
        let mut engine = AseqEngine::new(q, &reg).unwrap();
        let mut peak_small = 0;
        for t in 0..100u64 {
            engine.process(&ev(&reg, ["A", "B"][(t % 2) as usize], t, 0.0, 0));
            peak_small = peak_small.max(engine.memory_bytes());
        }
        engine.finish();
        let q2 = CompiledQuery::parse("RETURN COUNT(*) PATTERN SEQ(A, B) WITHIN 50 SLIDE 50", &reg)
            .unwrap();
        let mut engine2 = AseqEngine::new(q2, &reg).unwrap();
        let mut peak_large = 0;
        for t in 0..10_000u64 {
            engine2.process(&ev(&reg, ["A", "B"][(t % 2) as usize], t, 0.0, 0));
            peak_large = peak_large.max(engine2.memory_bytes());
        }
        engine2.finish();
        // 100× more events, same per-window state.
        assert_eq!(peak_small, peak_large);
    }

    #[test]
    fn same_timestamp_events_are_not_adjacent() {
        // A and B at the same tick must not form a sequence (Def. 1 needs
        // strictly increasing times) — in both engines.
        let reg = registry();
        let events = vec![
            ev(&reg, "A", 1, 0.0, 0),
            ev(&reg, "B", 1, 0.0, 0),
            ev(&reg, "B", 2, 0.0, 0),
        ];
        compare_with_greta(
            "RETURN COUNT(*) PATTERN SEQ(A, B) WITHIN 100 SLIDE 100",
            &events,
            &reg,
        );
        let q = CompiledQuery::parse(
            "RETURN COUNT(*) PATTERN SEQ(A, B) WITHIN 100 SLIDE 100",
            &reg,
        )
        .unwrap();
        let mut aseq = AseqEngine::new(q, &reg).unwrap();
        let rows = aseq.run(&events);
        assert_eq!(rows[0].values[0].to_f64(), 1.0); // only (a1, b2)
    }

    #[test]
    fn rejects_kleene_negation_and_edge_predicates() {
        let reg = registry();
        let q = |s: &str| CompiledQuery::parse(s, &reg).unwrap();
        assert_eq!(
            AseqEngine::new(q("RETURN COUNT(*) PATTERN A+ WITHIN 1 SLIDE 1"), &reg).err(),
            Some(AseqUnsupported::Kleene)
        );
        assert_eq!(
            AseqEngine::new(
                q("RETURN COUNT(*) PATTERN SEQ(A, NOT B, C) WITHIN 1 SLIDE 1"),
                &reg
            )
            .err(),
            Some(AseqUnsupported::Negation)
        );
        assert_eq!(
            AseqEngine::new(
                q("RETURN COUNT(*) PATTERN SEQ(A X, B Y) WHERE X.attr < NEXT(Y).attr WITHIN 1 SLIDE 1"),
                &reg
            )
            .err(),
            Some(AseqUnsupported::EdgePredicates)
        );
        assert_eq!(
            AseqEngine::new(
                q("RETURN COUNT(*) PATTERN SEQ(A?, B) WITHIN 1 SLIDE 1"),
                &reg
            )
            .err(),
            Some(AseqUnsupported::Alternatives)
        );
    }
}
