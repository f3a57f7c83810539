//! CET-style baseline (paper §10.1, \[24\]).
//!
//! CET optimizes trend **construction** by storing and reusing common
//! sub-trends instead of recomputing them: every (sub-)trend becomes a node
//! pointing at its parent sub-trend (a persistent cons-list), so extending
//! n sub-trends by one event costs n node allocations instead of n path
//! re-walks. Aggregation happens upon construction: each node carries the
//! cumulative per-trend statistics of its prefix.
//!
//! The price is memory proportional to the number of sub-trends —
//! exponential — which is exactly the trade-off the paper measures
//! (≈2× faster than SASE, orders of magnitude more memory).

use crate::common::{PartitionedStream, TrendAgg, TrendStats, TwoStepRun};
use greta_core::agg::AggLayout;
use greta_core::grouping::PartitionKey;
use greta_core::negation::{
    end_event_valid_at_close, insertion_dropped, predecessor_valid, DepMode, Dependency,
    InvalidationLog,
};
use greta_core::results::WindowResult;
use greta_core::window::{window_close_time, window_start_time, windows_of, WindowId};
use greta_query::{CompiledQuery, StateId};
use greta_types::{Event, SchemaRegistry, Time};
use std::collections::{BTreeSet, HashMap};
use std::rc::Rc;

/// One shared sub-trend node (persistent list cell).
struct CNode {
    /// Parent sub-trend (`None` for a trend of length 1). Kept alive so
    /// sharing is real: dropping it would deallocate shared prefixes.
    #[allow(dead_code)]
    parent: Option<Rc<CNode>>,
    /// Cumulative statistics of the prefix ending here.
    stats: TrendStats,
}

/// Estimated bytes per CET node: parent pointer + refcounts + stats payload.
pub const NODE_BYTES: usize = 64;

/// A vertex of the CET construction: the event plus the shared sub-trends
/// ending at it.
struct CVertex {
    time: Time,
    event: Event,
    latest_start: Time,
    nodes: Vec<Rc<CNode>>,
}

/// The CET-style shared-trend engine.
#[derive(Debug, Clone, Copy, Default)]
pub struct CetEngine;

impl CetEngine {
    /// Run on a batch with a node budget (`u64::MAX` = unlimited).
    pub fn run(
        query: &CompiledQuery,
        registry: &SchemaRegistry,
        events: &[Event],
        budget: u64,
    ) -> TwoStepRun {
        let layout = AggLayout::new(&query.aggregates);
        let n_group = query.group_by.len();
        let parts = PartitionedStream::build(query, registry, events);
        let mut results: HashMap<(WindowId, PartitionKey), TrendAgg> = HashMap::new();
        let mut nodes_total = 0u64;
        let mut trends = 0u64;
        let mut peak = 0usize;
        let mut completed = true;

        'outer: for (key, evs) in &parts.partitions {
            let group = key.group_prefix(n_group);
            let mut wids: BTreeSet<WindowId> = BTreeSet::new();
            for e in evs {
                wids.extend(windows_of(e.time, &query.window));
            }
            for plan in &query.alternatives {
                for &wid in &wids {
                    let acc = results
                        .entry((wid, group.clone()))
                        .or_insert_with(|| TrendAgg::zero(&layout));
                    let (nodes, ts, bytes, ok) = build_window_trends(
                        plan,
                        evs,
                        query.window.within,
                        window_start_time(wid, &query.window),
                        window_close_time(wid, &query.window),
                        &layout,
                        budget.saturating_sub(nodes_total),
                        acc,
                    );
                    nodes_total += nodes;
                    trends += ts;
                    peak = peak.max(bytes);
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
}

/// Build all shared sub-trend nodes of the root graph for one window and
/// fold finished trends into `acc`. Returns `(nodes, trends, bytes,
/// completed)`. When the node budget runs out, construction stops and the
/// counts cover what was built so far: every root END node counts as a
/// trend, since none has been validated or folded yet.
#[allow(clippy::too_many_arguments)]
fn build_window_trends(
    plan: &greta_query::compile::AltPlan,
    events: &[Event],
    within: u64,
    ws: Time,
    we: Time,
    layout: &AggLayout,
    budget: u64,
    acc: &mut TrendAgg,
) -> (u64, u64, usize, bool) {
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
    let mut logs: Vec<InvalidationLog> = vec![InvalidationLog::default(); n_graphs];
    let mut by_state: HashMap<(usize, StateId), Vec<CVertex>> = HashMap::new();
    let mut node_count = 0u64;
    let mut trends = 0u64;
    // Root END nodes are folded only at window close: a trailing negation
    // (Case 2) may invalidate their END events after construction.
    let mut end_nodes: Vec<(Time, Rc<CNode>)> = Vec::new();

    for e in events {
        for (gi, spec) in plan.graphs.iter().enumerate() {
            if insertion_dropped(&deps[gi], &logs, e.time) {
                continue;
            }
            // Root-graph trends are window-scoped; negative trends use the
            // same stream-global semantics as the GRETA engine.
            if gi == 0 && (e.time < ws || e.time >= we) {
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
                let mut new_nodes: Vec<Rc<CNode>> = Vec::new();
                let mut latest_start = if is_start { e.time } else { Time::ZERO };
                if is_start {
                    new_nodes.push(Rc::new(CNode {
                        parent: None,
                        stats: TrendStats::single(e, layout),
                    }));
                }
                for p_state in spec.template.predecessors(state) {
                    let Some(cands) = by_state.get(&(gi, p_state)) else {
                        continue;
                    };
                    for pv in cands {
                        if pv.time >= e.time || pv.time.ticks() + within <= e.time.ticks() {
                            continue;
                        }
                        if !predecessor_valid(&deps[gi], &logs, p_state, state, pv.time, e.time) {
                            continue;
                        }
                        if !plan
                            .predicates
                            .edge_preds(p_state, state)
                            .all(|ep| ep.expr.eval_bool(Some(&pv.event.attrs), e))
                        {
                            continue;
                        }
                        latest_start = latest_start.max(pv.latest_start);
                        for t in &pv.nodes {
                            new_nodes.push(Rc::new(CNode {
                                parent: Some(Rc::clone(t)),
                                stats: t.stats.extend(e, layout),
                            }));
                        }
                    }
                }
                if new_nodes.is_empty() {
                    continue;
                }
                node_count += new_nodes.len() as u64;
                if is_end && gi == 0 {
                    for n in &new_nodes {
                        end_nodes.push((e.time, Rc::clone(n)));
                    }
                }
                if node_count > budget {
                    let bytes = node_count as usize * NODE_BYTES;
                    return (node_count, end_nodes.len() as u64, bytes, false);
                }
                if is_end && gi != 0 {
                    logs[gi].push(e.time, latest_start);
                }
                by_state.entry((gi, state)).or_default().push(CVertex {
                    time: e.time,
                    event: e.clone(),
                    latest_start,
                    nodes: new_nodes,
                });
            }
        }
    }
    // Aggregation upon construction, deferred for END validity (Case 2).
    for (t, n) in &end_nodes {
        if end_event_valid_at_close(&deps[0], &logs, *t, we) {
            trends += 1;
            n.stats.fold_into(acc);
        }
    }
    let bytes = node_count as usize * NODE_BYTES;
    (node_count, trends, bytes, true)
}

#[cfg(test)]
mod tests {
    use super::*;
    use greta_types::{EventBuilder, Time};

    fn setup() -> (SchemaRegistry, CompiledQuery, Vec<Event>) {
        let mut reg = SchemaRegistry::new();
        reg.register_type("A", &["x"]).unwrap();
        reg.register_type("B", &["x"]).unwrap();
        let q = CompiledQuery::parse(
            "RETURN COUNT(*) PATTERN (SEQ(A+, B))+ WITHIN 100 SLIDE 100",
            &reg,
        )
        .unwrap();
        let evs: Vec<Event> = [
            ("A", 1u64),
            ("B", 2),
            ("A", 3),
            ("A", 4),
            ("B", 7),
            ("A", 8),
            ("B", 9),
        ]
        .iter()
        .map(|(t, ts)| EventBuilder::new(&reg, t).unwrap().at(Time(*ts)).build())
        .collect();
        (reg, q, evs)
    }

    #[test]
    fn cet_counts_figure_6() {
        let (reg, q, evs) = setup();
        let run = CetEngine::run(&q, &reg, &evs, u64::MAX);
        assert!(run.completed);
        assert_eq!(run.rows[0].values[0].to_f64(), 43.0);
        // Memory proportional to sub-trend count, far above the raw events.
        assert!(run.peak_bytes >= 43 * NODE_BYTES);
    }

    #[test]
    fn cet_respects_budget() {
        let (reg, q, evs) = setup();
        let run = CetEngine::run(&q, &reg, &evs, 10);
        assert!(!run.completed);
    }

    #[test]
    fn cet_reports_the_work_done_before_exhaustion() {
        let mut reg = SchemaRegistry::new();
        reg.register_type("A", &["x"]).unwrap();
        let q = CompiledQuery::parse("RETURN COUNT(*) PATTERN A+ WITHIN 1000 SLIDE 1000", &reg)
            .unwrap();
        let evs: Vec<Event> = (0..10u64)
            .map(|t| EventBuilder::new(&reg, "A").unwrap().at(Time(t)).build())
            .collect();
        // Events 1, 2, 3 build 1 + 2 + 4 nodes; the seventh breaks budget 5.
        let run = CetEngine::run(&q, &reg, &evs, 5);
        assert!(!run.completed);
        assert_eq!(run.trends, 7);
        assert_eq!(run.peak_bytes, 7 * NODE_BYTES);
    }

    #[test]
    fn cet_aggregates_match_example_1() {
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
        let run = CetEngine::run(&q, &reg, &evs, u64::MAX);
        let v: Vec<f64> = run.rows[0].values.iter().map(|x| x.to_f64()).collect();
        assert_eq!(v, vec![11.0, 20.0, 4.0, 6.0, 100.0, 5.0]);
    }
}
