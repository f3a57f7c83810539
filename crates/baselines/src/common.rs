//! Shared machinery for the two-step baselines: stream partitioning, the
//! explicit match graph (events + predecessor pointers, as kept by SASE
//! stacks / the CET graph), per-trend aggregation, and the common result
//! shape.
//!
//! The *match semantics* (adjacency, predicates, Definition-5 invalidation,
//! windows) is shared with the GRETA engine by construction — what differs
//! between GRETA and the baselines is purely **how aggregates are obtained**:
//! GRETA propagates them along edges (never enumerating trends), the
//! baselines construct trends first (paper Fig. 1).

use greta_core::agg::{AggLayout, CellsRef};
use greta_core::grouping::{KeyExtractor, PartitionKey};
use greta_core::negation::{
    end_event_valid_at_close, insertion_dropped, predecessor_valid, DepMode, Dependency,
    InvalidationLog,
};
use greta_core::results::{render_aggregates, OutValue, WindowResult};
use greta_core::window::{window_close_time, window_start_time, windows_of, WindowId};
use greta_query::compile::AltPlan;
use greta_query::{CompiledQuery, StateId};
use greta_types::{Event, SchemaRegistry, Time, TypeId};
use std::collections::{BTreeSet, HashMap, HashSet};

/// The stream split into partitions (GROUP-BY + equivalence attributes,
/// §6). Broadcast-typed events (negative-pattern types with sub-keys) are
/// replicated into every matching partition.
#[derive(Debug, Clone)]
pub struct PartitionedStream {
    /// `(partition key, events of that partition in arrival order)`.
    pub partitions: Vec<(PartitionKey, Vec<Event>)>,
}

impl PartitionedStream {
    /// Partition a batch. Unlike the streaming engine, this batch splitter
    /// sees all keys up front, so broadcast events reach every matching
    /// partition regardless of creation order.
    pub fn build(query: &CompiledQuery, registry: &SchemaRegistry, events: &[Event]) -> Self {
        let extractor = KeyExtractor::new(query, registry);
        let mut root_types: HashSet<TypeId> = HashSet::new();
        for alt in &query.alternatives {
            for (_, t) in &alt.graphs[0].state_types {
                root_types.insert(*t);
            }
        }
        let is_partition_owner = |t: TypeId| root_types.contains(&t) && extractor.has_full_key(t);

        // Pass 1: discover partition keys.
        let mut keys: Vec<PartitionKey> = Vec::new();
        let mut seen: HashSet<PartitionKey> = HashSet::new();
        for e in events {
            if is_partition_owner(e.type_id) {
                let k = extractor.key_of(e);
                if seen.insert(k.clone()) {
                    keys.push(k);
                }
            }
        }
        // Pass 2: route.
        let mut parts: Vec<(PartitionKey, Vec<Event>)> =
            keys.iter().map(|k| (k.clone(), Vec::new())).collect();
        let index: HashMap<PartitionKey, usize> = keys
            .iter()
            .enumerate()
            .map(|(i, k)| (k.clone(), i))
            .collect();
        for e in events {
            let k = extractor.key_of(e);
            if is_partition_owner(e.type_id) {
                parts[index[&k]].1.push(e.clone());
            } else {
                for (pk, evs) in parts.iter_mut() {
                    if k.matches(pk) {
                        evs.push(e.clone());
                    }
                }
            }
        }
        PartitionedStream { partitions: parts }
    }
}

/// A vertex of the explicit match graph.
#[derive(Debug, Clone)]
pub struct MVertex {
    /// Index into the partition's event list.
    pub ev: usize,
    /// Template state.
    pub state: StateId,
    /// Graph (0 = positive root) within the alternative.
    pub graph: usize,
    /// Begins trends.
    pub is_start: bool,
    /// May finish trends.
    pub is_end: bool,
    /// Latest trend start time ending here (negation bookkeeping).
    pub latest_start: Time,
}

/// Explicit match graph over one partition for one alternative: events plus
/// predecessor/successor pointers — the structure SASE keeps in its stacks
/// and CET keeps as its graph.
pub struct MatchGraph<'a> {
    /// The alternative this graph instantiates.
    pub plan: &'a AltPlan,
    /// Partition events (arrival order; in-order by time).
    pub events: &'a [Event],
    /// Vertices.
    pub vertices: Vec<MVertex>,
    /// Predecessor pointers.
    pub preds: Vec<Vec<usize>>,
    /// Successor pointers (forward enumeration).
    pub succs: Vec<Vec<usize>>,
    logs: Vec<InvalidationLog>,
    deps: Vec<Vec<Dependency>>,
}

impl<'a> MatchGraph<'a> {
    /// Build the graph (time O(n²·states), the same adjacency relation the
    /// GRETA runtime uses).
    pub fn build(plan: &'a AltPlan, events: &'a [Event], within: u64) -> MatchGraph<'a> {
        let n_graphs = plan.graphs.len();
        let deps: Vec<Vec<Dependency>> = plan
            .graphs
            .iter()
            .map(|spec| {
                plan.graphs
                    .iter()
                    .filter(|g| g.parent == Some(spec.id))
                    .map(|g| Dependency {
                        child: g.id,
                        mode: DepMode::of(g),
                    })
                    .collect()
            })
            .collect();
        let mut g = MatchGraph {
            plan,
            events,
            vertices: Vec::new(),
            preds: Vec::new(),
            succs: Vec::new(),
            logs: vec![InvalidationLog::default(); n_graphs],
            deps,
        };
        // index: per (graph, state) the vertex ids, in arrival order
        let mut by_state: HashMap<(usize, StateId), Vec<usize>> = HashMap::new();
        for (ei, e) in events.iter().enumerate() {
            for (gi, spec) in plan.graphs.iter().enumerate() {
                if insertion_dropped(&g.deps[gi], &g.logs, e.time) {
                    continue;
                }
                let states: Vec<StateId> = spec
                    .state_types
                    .iter()
                    .filter(|(_, t)| *t == e.type_id)
                    .map(|(s, _)| *s)
                    .collect();
                for state in states {
                    if !plan
                        .predicates
                        .vertex_preds(state)
                        .all(|p| p.expr.eval_bool(None, e))
                    {
                        continue;
                    }
                    let is_start = spec.template.is_start(state);
                    let is_end = spec.template.is_end(state);
                    let mut preds: Vec<usize> = Vec::new();
                    for p_state in spec.template.predecessors(state) {
                        let Some(cands) = by_state.get(&(gi, p_state)) else {
                            continue;
                        };
                        for &vid in cands {
                            let pv = &g.vertices[vid];
                            let pe = &events[pv.ev];
                            if pe.time >= e.time || pe.time.ticks() + within <= e.time.ticks() {
                                continue;
                            }
                            let deps = &g.deps[gi];
                            if !predecessor_valid(deps, &g.logs, p_state, state, pe.time, e.time) {
                                continue;
                            }
                            if !plan
                                .predicates
                                .edge_preds(p_state, state)
                                .all(|ep| ep.expr.eval_bool(Some(&pe.attrs), e))
                            {
                                continue;
                            }
                            preds.push(vid);
                        }
                    }
                    if !is_start && preds.is_empty() {
                        continue;
                    }
                    let mut latest_start = if is_start { e.time } else { Time::ZERO };
                    for &p in &preds {
                        latest_start = latest_start.max(g.vertices[p].latest_start);
                    }
                    let vid = g.vertices.len();
                    g.vertices.push(MVertex {
                        ev: ei,
                        state,
                        graph: gi,
                        is_start,
                        is_end,
                        latest_start,
                    });
                    g.succs.push(Vec::new());
                    for &p in &preds {
                        g.succs[p].push(vid);
                    }
                    g.preds.push(preds);
                    by_state.entry((gi, state)).or_default().push(vid);
                    if is_end && gi != 0 {
                        g.logs[gi].push(e.time, latest_start);
                    }
                }
            }
        }
        g
    }

    /// Time of a vertex's event.
    pub fn time(&self, v: usize) -> Time {
        self.events[self.vertices[v].ev].time
    }

    /// True when an END vertex of the root graph still counts at a window
    /// closing at `close_time` (Case-2 negation, Fig. 8(a)).
    pub fn end_valid_at(&self, v: usize, close_time: Time) -> bool {
        end_event_valid_at_close(&self.deps[0], &self.logs, self.time(v), close_time)
    }

    /// Bytes of the pointer graph (events + pointers), the state SASE keeps.
    pub fn graph_bytes(&self) -> usize {
        let ptrs: usize = self
            .preds
            .iter()
            .zip(&self.succs)
            .map(|(p, s)| (p.len() + s.len()) * std::mem::size_of::<usize>())
            .sum();
        self.vertices.len() * std::mem::size_of::<MVertex>()
            + ptrs
            + self.events.iter().map(Event::heap_size).sum::<usize>()
    }

    /// Enumerate every trend of the **root** graph whose events all lie in
    /// window `wid`, invoking `f(path)` per trend, in DFS order. Returns
    /// `false` if `budget` (max trends, `u64::MAX` = unlimited) was
    /// exhausted midway.
    pub fn for_each_trend(
        &self,
        wid: WindowId,
        window: &greta_query::WindowSpec,
        budget: &mut u64,
        f: &mut impl FnMut(&[usize]),
    ) -> bool {
        let ws = window_start_time(wid, window);
        let we = window_close_time(wid, window);
        let close = we;
        let mut path: Vec<usize> = Vec::new();
        for v in 0..self.vertices.len() {
            let mv = &self.vertices[v];
            if mv.graph != 0 || !mv.is_start {
                continue;
            }
            let t = self.time(v);
            if t < ws || t >= we {
                continue;
            }
            path.push(v);
            if !self.dfs(v, ws, we, close, &mut path, budget, f) {
                return false;
            }
            path.pop();
        }
        true
    }

    #[allow(clippy::too_many_arguments)]
    fn dfs(
        &self,
        v: usize,
        ws: Time,
        we: Time,
        close: Time,
        path: &mut Vec<usize>,
        budget: &mut u64,
        f: &mut impl FnMut(&[usize]),
    ) -> bool {
        if self.vertices[v].is_end && self.end_valid_at(v, close) {
            if *budget == 0 {
                return false;
            }
            *budget -= 1;
            f(path);
        }
        for &s in &self.succs[v] {
            let t = self.time(s);
            if t < ws || t >= we {
                continue;
            }
            path.push(s);
            if !self.dfs(s, ws, we, close, path, budget, f) {
                return false;
            }
            path.pop();
        }
        true
    }
}

/// The aggregate of a multiset of trends in plain `f64`: the baselines'
/// own accumulator, folded by the code here and not by the engine's cells.
/// A row renders through the engine's one renderer, which reads the slots
/// laid out as in a cell.
#[derive(Debug, Clone, PartialEq)]
pub struct TrendAgg {
    /// Number of trends.
    pub count: f64,
    /// `COUNT(E)` per layout slot.
    pub counts_e: Box<[f64]>,
    /// `MIN(E.attr)` per layout slot (`+∞` = no occurrence yet).
    pub mins: Box<[f64]>,
    /// `MAX(E.attr)` per layout slot (`-∞`).
    pub maxs: Box<[f64]>,
    /// `SUM(E.attr)` per layout slot.
    pub sums: Box<[f64]>,
}

impl TrendAgg {
    /// The aggregate of no trend.
    pub fn zero(layout: &AggLayout) -> TrendAgg {
        TrendAgg {
            count: 0.0,
            counts_e: vec![0.0; layout.count_targets.len()].into_boxed_slice(),
            mins: vec![f64::INFINITY; layout.min_targets.len()].into_boxed_slice(),
            maxs: vec![f64::NEG_INFINITY; layout.max_targets.len()].into_boxed_slice(),
            sums: vec![0.0; layout.sum_targets.len()].into_boxed_slice(),
        }
    }

    /// Add `other`'s trends: counts and sums add, extrema fold.
    pub fn merge(&mut self, other: &TrendAgg) {
        self.count += other.count;
        for (a, b) in self.counts_e.iter_mut().zip(&other.counts_e) {
            *a += *b;
        }
        for (a, b) in self.mins.iter_mut().zip(&other.mins) {
            *a = a.min(*b);
        }
        for (a, b) in self.maxs.iter_mut().zip(&other.maxs) {
            *a = a.max(*b);
        }
        for (a, b) in self.sums.iter_mut().zip(&other.sums) {
            *a += *b;
        }
    }

    /// Heap bytes (memory accounting).
    pub fn heap_size(&self) -> usize {
        let slots = self.counts_e.len() + self.sums.len() + self.mins.len() + self.maxs.len();
        slots * std::mem::size_of::<f64>()
    }

    /// The query's output values.
    pub fn render(&self, layout: &AggLayout) -> Vec<OutValue<f64>> {
        let nums: Vec<f64> = std::iter::once(self.count)
            .chain(self.counts_e.iter().chain(&self.sums).copied())
            .collect();
        let exts = [&self.mins[..], &self.maxs[..]].concat();
        render_aggregates(CellsRef::new(&nums, &exts), layout)
    }
}

/// Fold one materialized trend into an aggregate state (the "second step"
/// of a two-step engine: aggregation after construction).
pub fn aggregate_trend(
    acc: &mut TrendAgg,
    events: &[Event],
    vertices: &[MVertex],
    path: &[usize],
    layout: &AggLayout,
) {
    acc.count += 1.0;
    for &v in path {
        let e = &events[vertices[v].ev];
        for (i, t) in layout.count_targets.iter().enumerate() {
            if *t == e.type_id {
                acc.counts_e[i] += 1.0;
            }
        }
        for (i, (t, a)) in layout.min_targets.iter().enumerate() {
            if *t == e.type_id {
                acc.mins[i] = acc.mins[i].min(e.attr(*a).as_f64());
            }
        }
        for (i, (t, a)) in layout.max_targets.iter().enumerate() {
            if *t == e.type_id {
                acc.maxs[i] = acc.maxs[i].max(e.attr(*a).as_f64());
            }
        }
        for (i, (t, a)) in layout.sum_targets.iter().enumerate() {
            if *t == e.type_id {
                acc.sums[i] += e.attr(*a).as_f64();
            }
        }
    }
}

/// Cumulative per-trend statistics (one trend, not a multiset of trends):
/// occurrence counts, extrema and sums of the tracked targets. This is what
/// a CET node carries so that aggregation can happen upon construction.
#[derive(Debug, Clone, PartialEq)]
pub struct TrendStats {
    /// `COUNT(E)` occurrences along this trend, per layout slot.
    pub counts_e: Box<[f64]>,
    /// Minima per layout slot.
    pub mins: Box<[f64]>,
    /// Maxima per layout slot.
    pub maxs: Box<[f64]>,
    /// Sums per layout slot.
    pub sums: Box<[f64]>,
}

impl TrendStats {
    /// Stats of a single-event trend.
    pub fn single(e: &Event, layout: &AggLayout) -> TrendStats {
        let mut s = TrendStats {
            counts_e: vec![0.0; layout.count_targets.len()].into_boxed_slice(),
            mins: vec![f64::INFINITY; layout.min_targets.len()].into_boxed_slice(),
            maxs: vec![f64::NEG_INFINITY; layout.max_targets.len()].into_boxed_slice(),
            sums: vec![0.0; layout.sum_targets.len()].into_boxed_slice(),
        };
        s.apply(e, layout);
        s
    }

    /// Stats of this trend extended by one more event.
    pub fn extend(&self, e: &Event, layout: &AggLayout) -> TrendStats {
        let mut s = self.clone();
        s.apply(e, layout);
        s
    }

    fn apply(&mut self, e: &Event, layout: &AggLayout) {
        for (i, t) in layout.count_targets.iter().enumerate() {
            if *t == e.type_id {
                self.counts_e[i] += 1.0;
            }
        }
        for (i, (t, a)) in layout.min_targets.iter().enumerate() {
            if *t == e.type_id {
                self.mins[i] = self.mins[i].min(e.attr(*a).as_f64());
            }
        }
        for (i, (t, a)) in layout.max_targets.iter().enumerate() {
            if *t == e.type_id {
                self.maxs[i] = self.maxs[i].max(e.attr(*a).as_f64());
            }
        }
        for (i, (t, a)) in layout.sum_targets.iter().enumerate() {
            if *t == e.type_id {
                self.sums[i] += e.attr(*a).as_f64();
            }
        }
    }

    /// Fold this completed trend into a multiset aggregate.
    pub fn fold_into(&self, acc: &mut TrendAgg) {
        acc.count += 1.0;
        for (a, b) in acc.counts_e.iter_mut().zip(self.counts_e.iter()) {
            *a += *b;
        }
        for (a, b) in acc.mins.iter_mut().zip(self.mins.iter()) {
            *a = a.min(*b);
        }
        for (a, b) in acc.maxs.iter_mut().zip(self.maxs.iter()) {
            *a = a.max(*b);
        }
        for (a, b) in acc.sums.iter_mut().zip(self.sums.iter()) {
            *a += *b;
        }
    }
}

/// Outcome of a two-step run.
#[derive(Debug, Clone)]
pub struct TwoStepRun {
    /// Result rows (empty groups omitted), sorted by `(window, group)`.
    pub rows: Vec<WindowResult<f64>>,
    /// False when the budget was exhausted ("fails to terminate" in the
    /// paper's experiments). SASE and Flink charge the budget in trends
    /// constructed, CET in sub-trend nodes built.
    pub completed: bool,
    /// Trends constructed, including those built before the budget ran
    /// out.
    pub trends: u64,
    /// Peak bytes of engine state (match graph + per-strategy extras),
    /// including the state built before the budget ran out.
    pub peak_bytes: usize,
}

/// Shared driver for trend-constructing engines. `extra_bytes(graph,
/// trends, sum_len)` models the strategy-specific storage: SASE keeps one
/// path, CET all shared nodes, Flink all materialized sequences.
pub fn run_two_step(
    query: &CompiledQuery,
    registry: &SchemaRegistry,
    events: &[Event],
    budget: u64,
    extra_bytes: impl Fn(&MatchGraph<'_>, u64, u64) -> usize,
    length_stratified: bool,
) -> TwoStepRun {
    let layout = AggLayout::new(&query.aggregates);
    let n_group = query.group_by.len();
    let parts = PartitionedStream::build(query, registry, events);
    let mut results: HashMap<(WindowId, PartitionKey), TrendAgg> = HashMap::new();
    let mut budget_left = budget;
    let mut trends: u64 = 0;
    let mut peak = 0usize;
    let mut completed = true;

    'outer: for (key, evs) in &parts.partitions {
        let group = key.group_prefix(n_group);
        let mut wids: BTreeSet<WindowId> = BTreeSet::new();
        for e in evs {
            wids.extend(windows_of(e.time, &query.window));
        }
        for plan in &query.alternatives {
            let graph = MatchGraph::build(plan, evs, query.window.within);
            for &wid in &wids {
                let acc = results
                    .entry((wid, group.clone()))
                    .or_insert_with(|| TrendAgg::zero(&layout));
                let mut local_trends = 0u64;
                let mut sum_len = 0u64;
                let ok = if length_stratified {
                    enumerate_length_stratified(
                        &graph,
                        wid,
                        &query.window,
                        &mut budget_left,
                        &mut |path| {
                            local_trends += 1;
                            sum_len += path.len() as u64;
                            aggregate_trend(acc, evs, &graph.vertices, path, &layout);
                        },
                    )
                } else {
                    graph.for_each_trend(wid, &query.window, &mut budget_left, &mut |path| {
                        local_trends += 1;
                        sum_len += path.len() as u64;
                        aggregate_trend(acc, evs, &graph.vertices, path, &layout);
                    })
                };
                trends += local_trends;
                peak = peak.max(graph.graph_bytes() + extra_bytes(&graph, local_trends, sum_len));
                if !ok {
                    completed = false;
                    break 'outer;
                }
            }
        }
    }

    let mut rows: Vec<WindowResult<f64>> = results
        .into_iter()
        .filter(|(_, st)| st.count != 0.0)
        .map(|((wid, group), st)| WindowResult {
            window: wid,
            group,
            values: st.render(&layout),
        })
        .collect();
    rows.sort_by(|a, b| a.window.cmp(&b.window).then_with(|| a.group.cmp(&b.group)));
    TwoStepRun {
        rows,
        completed,
        trends,
        peak_bytes: peak,
    }
}

/// Flink-style enumeration: one pass per trend length `l = 1..=L`
/// (flattened fixed-length queries), each re-walking the graph with a depth
/// bound. L is discovered by running until a length yields no trends.
pub fn enumerate_length_stratified(
    graph: &MatchGraph<'_>,
    wid: WindowId,
    window: &greta_query::WindowSpec,
    budget: &mut u64,
    f: &mut impl FnMut(&[usize]),
) -> bool {
    let mut l = 1usize;
    loop {
        let mut found = false;
        let mut any_path_of_len = false;
        let ws = window_start_time(wid, window);
        let we = window_close_time(wid, window);
        let mut path = Vec::new();
        for v in 0..graph.vertices.len() {
            let mv = &graph.vertices[v];
            if mv.graph != 0 || !mv.is_start {
                continue;
            }
            let t = graph.time(v);
            if t < ws || t >= we {
                continue;
            }
            path.push(v);
            if !dfs_exact(
                graph,
                v,
                l,
                ws,
                we,
                &mut path,
                budget,
                &mut found,
                &mut any_path_of_len,
                f,
            ) {
                return false;
            }
            path.pop();
        }
        let _ = found;
        if !any_path_of_len {
            return true; // no paths of this length at all ⇒ L reached
        }
        l += 1;
    }
}

#[allow(clippy::too_many_arguments)]
fn dfs_exact(
    graph: &MatchGraph<'_>,
    v: usize,
    l: usize,
    ws: Time,
    we: Time,
    path: &mut Vec<usize>,
    budget: &mut u64,
    found: &mut bool,
    any_path: &mut bool,
    f: &mut impl FnMut(&[usize]),
) -> bool {
    if path.len() == l {
        *any_path = true;
        if graph.vertices[v].is_end && graph.end_valid_at(v, we) {
            if *budget == 0 {
                return false;
            }
            *budget -= 1;
            *found = true;
            f(path);
        }
        return true;
    }
    for &s in &graph.succs[v] {
        let t = graph.time(s);
        if t < ws || t >= we {
            continue;
        }
        path.push(s);
        if !dfs_exact(graph, s, l, ws, we, path, budget, found, any_path, f) {
            return false;
        }
        path.pop();
    }
    true
}

#[cfg(test)]
mod tests {
    use super::*;
    use greta_types::{EventBuilder, SchemaRegistry};

    fn setup() -> (SchemaRegistry, CompiledQuery, Vec<Event>) {
        let mut reg = SchemaRegistry::new();
        reg.register_type("A", &["attr"]).unwrap();
        reg.register_type("B", &["attr"]).unwrap();
        let q = CompiledQuery::parse(
            "RETURN COUNT(*) PATTERN (SEQ(A+, B))+ WITHIN 100 SLIDE 100",
            &reg,
        )
        .unwrap();
        let evs: Vec<Event> = [("A", 1u64), ("B", 2), ("A", 3), ("A", 4), ("B", 7)]
            .iter()
            .map(|(t, ts)| EventBuilder::new(&reg, t).unwrap().at(Time(*ts)).build())
            .collect();
        (reg, q, evs)
    }

    #[test]
    fn match_graph_builds_figure_6_shape() {
        let (_, q, evs) = setup();
        let g = MatchGraph::build(&q.alternatives[0], &evs, 100);
        assert_eq!(g.vertices.len(), 5);
        // b2 has one predecessor (a1); a4 has three (a1, b2, a3).
        let preds_of = |ev: usize| {
            let v = g.vertices.iter().position(|m| m.ev == ev).unwrap();
            g.preds[v].len()
        };
        assert_eq!(preds_of(1), 1);
        assert_eq!(preds_of(3), 3);
    }

    #[test]
    fn enumeration_counts_example_1() {
        let (_, q, evs) = setup();
        let g = MatchGraph::build(&q.alternatives[0], &evs, 100);
        let mut count = 0u64;
        let mut budget = u64::MAX;
        let ok = g.for_each_trend(0, &q.window, &mut budget, &mut |_| count += 1);
        assert!(ok);
        assert_eq!(count, 11);
    }

    #[test]
    fn budget_exhaustion_reports_incomplete() {
        let (_, q, evs) = setup();
        let g = MatchGraph::build(&q.alternatives[0], &evs, 100);
        let mut count = 0u64;
        let mut budget = 5;
        let ok = g.for_each_trend(0, &q.window, &mut budget, &mut |_| count += 1);
        assert!(!ok);
        assert_eq!(count, 5);
    }

    #[test]
    fn length_stratified_finds_same_trends() {
        let (_, q, evs) = setup();
        let g = MatchGraph::build(&q.alternatives[0], &evs, 100);
        let mut count = 0u64;
        let mut budget = u64::MAX;
        let ok = enumerate_length_stratified(&g, 0, &q.window, &mut budget, &mut |_| count += 1);
        assert!(ok);
        assert_eq!(count, 11);
    }

    #[test]
    fn partitioning_broadcasts_subkey_events() {
        let mut reg = SchemaRegistry::new();
        reg.register_type("Accident", &["segment"]).unwrap();
        reg.register_type("Position", &["vehicle", "segment"])
            .unwrap();
        let q = CompiledQuery::parse(
            "RETURN segment, COUNT(*) PATTERN SEQ(NOT Accident X, Position P+) \
             WHERE [P.vehicle, segment] GROUP-BY segment WITHIN 100 SLIDE 100",
            &reg,
        )
        .unwrap();
        let pos = |t: u64, v: i64, s: i64| {
            EventBuilder::new(&reg, "Position")
                .unwrap()
                .at(Time(t))
                .set("vehicle", v)
                .unwrap()
                .set("segment", s)
                .unwrap()
                .build()
        };
        let acc = |t: u64, s: i64| {
            EventBuilder::new(&reg, "Accident")
                .unwrap()
                .at(Time(t))
                .set("segment", s)
                .unwrap()
                .build()
        };
        let events = vec![pos(1, 1, 1), pos(2, 2, 1), pos(3, 9, 2), acc(4, 1)];
        let parts = PartitionedStream::build(&q, &reg, &events);
        assert_eq!(parts.partitions.len(), 3);
        // Accident(segment=1) lands in both segment-1 partitions, not in 2.
        let with_acc = parts
            .partitions
            .iter()
            .filter(|(_, evs)| {
                evs.iter()
                    .any(|e| e.type_id == reg.type_id("Accident").unwrap())
            })
            .count();
        assert_eq!(with_acc, 2);
    }

    #[test]
    fn per_trend_aggregation_matches_figure_12() {
        let mut reg = SchemaRegistry::new();
        reg.register_type("A", &["attr"]).unwrap();
        reg.register_type("B", &["attr"]).unwrap();
        let q = CompiledQuery::parse(
            "RETURN COUNT(*), COUNT(A), MIN(A.attr), MAX(A.attr), SUM(A.attr), AVG(A.attr) \
             PATTERN (SEQ(A+, B))+ WITHIN 100 SLIDE 100",
            &reg,
        )
        .unwrap();
        let mk = |t: &str, ts: u64, a: f64| {
            EventBuilder::new(&reg, t)
                .unwrap()
                .at(Time(ts))
                .set("attr", a)
                .unwrap()
                .build()
        };
        let evs = vec![
            mk("A", 1, 5.0),
            mk("B", 2, 0.0),
            mk("A", 3, 6.0),
            mk("A", 4, 4.0),
            mk("B", 7, 0.0),
        ];
        let run = run_two_step(&q, &reg, &evs, u64::MAX, |_, _, _| 0, false);
        assert!(run.completed);
        assert_eq!(run.trends, 11);
        let v: Vec<f64> = run.rows[0].values.iter().map(|x| x.to_f64()).collect();
        assert_eq!(v, vec![11.0, 20.0, 4.0, 6.0, 100.0, 5.0]);
    }
}
