//! What each engine run reports: exact work counters, not wall time.
//!
//! The paper's claims are about growth (§8, §10.2–§10.4): GRETA's work per
//! window is polynomial in the events per window, while the two-step
//! engines grow exponentially or fail to terminate. Growth is counted
//! exactly, so every number here repeats on any machine built with the
//! same Rust toolchain (peak bytes use compiler-chosen type sizes):
//!
//! * **GRETA** — vertices inserted and edges traversed (`EngineStats`;
//!   Theorem 8.1 bounds them by n × states and n(n−1)/2 per window of n
//!   events), and the analytic peak bytes of `MemoryFootprint`.
//! * **Two-step baselines** — trends constructed and analytic peak bytes
//!   (`TwoStepRun`), plus whether the run finished within its budget.
//!
//! Wall-clock throughput and latency are the repo benchmark's business
//! (`benchmark/`), not this crate's.

use greta_baselines::{CetEngine, FlinkEngine, SaseEngine, TwoStepRun};
use greta_core::{
    sort_canonical, EngineConfig, GretaEngine, MemoryFootprint, TrendNum, WindowResult,
};
use greta_query::CompiledQuery;
use greta_types::{Event, SchemaRegistry};

/// One engine run's counters.
#[derive(Debug, Clone)]
pub struct Metrics {
    /// Engine name (`GRETA`, `SASE`, `CET`, `FLINK`, …).
    pub engine: String,
    /// GRETA: vertices inserted (0 for the two-step baselines).
    pub vertices: u64,
    /// GRETA: edges traversed (0 for the two-step baselines).
    pub edges: u64,
    /// Two-step baselines: trends constructed (0 for GRETA).
    pub trends: u64,
    /// Peak engine state in bytes (analytic accounting).
    pub memory_bytes: usize,
    /// False when the engine hit its budget ("fails to terminate").
    pub completed: bool,
    /// Sum over all result values in `(window, group)` order (cross-engine
    /// sanity checksum).
    pub checksum: f64,
    /// Result rows produced.
    pub rows: usize,
}

/// Folds from `0.0`, not with `Sum`: `f64`'s `Sum` of nothing is `-0.0` on
/// some Rust releases and `0.0` on others.
pub(crate) fn checksum_rows<N: TrendNum>(rows: &[WindowResult<N>]) -> f64 {
    rows.iter()
        .flat_map(|r| r.values.iter())
        .map(|v| v.to_f64())
        .filter(|v| v.is_finite())
        .fold(0.0, |sum, v| sum + v)
}

/// Run the GRETA engine over a batch.
pub fn run_greta(
    query: &CompiledQuery,
    registry: &SchemaRegistry,
    events: &[Event],
    config: EngineConfig,
) -> Metrics {
    run_greta_rows::<f64>(query, registry, events, config).0
}

/// [`run_greta`] over the aggregate carrier `N`, also returning the result
/// rows in `(window, group)` order.
pub fn run_greta_rows<N: TrendNum>(
    query: &CompiledQuery,
    registry: &SchemaRegistry,
    events: &[Event],
    config: EngineConfig,
) -> (Metrics, Vec<WindowResult<N>>) {
    let mut engine =
        GretaEngine::<N>::with_config(query.clone(), registry.clone(), config).expect("engine");
    let mut rows = engine.run(events).expect("in-order batch");
    sort_canonical(&mut rows);
    let stats = engine.stats();
    let metrics = Metrics {
        engine: "GRETA".into(),
        vertices: stats.vertices,
        edges: stats.edges,
        trends: 0,
        memory_bytes: engine.peak_memory_bytes().max(engine.memory_bytes()),
        completed: true,
        checksum: checksum_rows(&rows),
        rows: rows.len(),
    };
    (metrics, rows)
}

/// Which two-step baseline to run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TwoStep {
    /// SASE-style stacks + DFS.
    Sase,
    /// CET-style shared sub-trends.
    Cet,
    /// Flink-style flattened fixed-length queries.
    Flink,
}

impl TwoStep {
    /// Engine name used in tables.
    pub fn name(self) -> &'static str {
        match self {
            TwoStep::Sase => "SASE",
            TwoStep::Cet => "CET",
            TwoStep::Flink => "FLINK",
        }
    }
}

/// Run one of the two-step baselines with a budget (see `TwoStepRun` for
/// the unit each engine charges it in).
pub fn run_two_step_engine(
    which: TwoStep,
    query: &CompiledQuery,
    registry: &SchemaRegistry,
    events: &[Event],
    budget: u64,
) -> Metrics {
    let run: TwoStepRun = match which {
        TwoStep::Sase => SaseEngine::run(query, registry, events, budget),
        TwoStep::Cet => CetEngine::run(query, registry, events, budget),
        TwoStep::Flink => FlinkEngine::run(query, registry, events, budget),
    };
    Metrics {
        engine: which.name().into(),
        vertices: 0,
        edges: 0,
        trends: run.trends,
        memory_bytes: run.peak_bytes,
        completed: run.completed,
        checksum: checksum_rows(&run.rows),
        rows: run.rows.len(),
    }
}
