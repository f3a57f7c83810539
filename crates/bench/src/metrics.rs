//! Measurement of the paper's three metrics (§10.1):
//!
//! * **Latency** — time between the arrival of the last contributing event
//!   and the result output. For GRETA that is the final-flush duration
//!   (aggregates are maintained incrementally); for the two-step baselines
//!   it is the whole construct-then-aggregate phase.
//! * **Throughput** — events processed per second.
//! * **Memory** — peak bytes of engine state (analytic accounting via
//!   `MemoryFootprint` / `TwoStepRun::peak_bytes`).

use greta_baselines::{CetEngine, FlinkEngine, SaseEngine, TwoStepRun};
use greta_core::{
    sort_canonical, EngineConfig, ExecutorConfig, GretaEngine, LatePolicy, MemoryFootprint,
    StreamExecutor,
};
use greta_query::CompiledQuery;
use greta_types::{Event, SchemaRegistry};
use std::time::Instant;

/// One engine run's measurements.
#[derive(Debug, Clone)]
pub struct Metrics {
    /// Engine name (`GRETA`, `SASE`, `CET`, `FLINK`, …).
    pub engine: String,
    /// End-to-end wall time in milliseconds.
    pub total_ms: f64,
    /// Result latency in milliseconds (see module docs).
    pub latency_ms: f64,
    /// Events per second.
    pub throughput: f64,
    /// Peak engine state in bytes.
    pub memory_bytes: usize,
    /// False when the engine hit its trend budget ("fails to terminate").
    pub completed: bool,
    /// Sum over all result values (cross-engine sanity checksum).
    pub checksum: f64,
    /// Result rows produced.
    pub rows: usize,
}

fn checksum_rows<N: greta_core::TrendNum>(rows: &[greta_core::WindowResult<N>]) -> f64 {
    rows.iter()
        .flat_map(|r| r.values.iter())
        .map(|v| v.to_f64())
        .filter(|v| v.is_finite())
        .sum()
}

/// Run the GRETA engine over a batch.
pub fn run_greta(
    query: &CompiledQuery,
    registry: &SchemaRegistry,
    events: &[Event],
    config: EngineConfig,
) -> Metrics {
    run_greta_as::<f64>(query, registry, events, config)
}

/// [`run_greta`] over the aggregate carrier `N` (the carrier ablation).
pub(crate) fn run_greta_as<N: greta_core::TrendNum>(
    query: &CompiledQuery,
    registry: &SchemaRegistry,
    events: &[Event],
    config: EngineConfig,
) -> Metrics {
    let mut engine =
        GretaEngine::<N>::with_config(query.clone(), registry.clone(), config).expect("engine");
    let t0 = Instant::now();
    for e in events {
        engine.process_ref(&e.clone().into_ref()).expect("in-order");
    }
    let mid = engine.poll_results();
    let t_flush = Instant::now();
    let mut rows = engine.finish();
    let total = t0.elapsed().as_secs_f64() * 1e3;
    let latency = t_flush.elapsed().as_secs_f64() * 1e3;
    let peak = engine.peak_memory_bytes().max(engine.memory_bytes());
    let n_rows = mid.len() + rows.len();
    let mut all = mid;
    all.append(&mut rows);
    Metrics {
        engine: "GRETA".into(),
        total_ms: total,
        latency_ms: latency,
        throughput: events.len() as f64 / (total / 1e3).max(1e-9),
        memory_bytes: peak,
        completed: true,
        checksum: checksum_rows(&all),
        rows: n_rows,
    }
}

/// Run GRETA with per-group parallelism (§10.4).
pub fn run_greta_parallel(
    query: &CompiledQuery,
    registry: &SchemaRegistry,
    events: &[Event],
    config: EngineConfig,
    threads: usize,
) -> Metrics {
    let t0 = Instant::now();
    let mut exec = StreamExecutor::<f64>::new(
        query.clone(),
        registry.clone(),
        ExecutorConfig {
            shards: threads,
            late_policy: LatePolicy::Error,
            engine: config,
            ..Default::default()
        },
    )
    .expect("executor");
    let mut rows = Vec::new();
    for e in events {
        exec.push(e.clone()).expect("in-order push");
        rows.extend(exec.poll_results());
    }
    rows.extend(exec.finish().expect("finish"));
    sort_canonical(&mut rows);
    let total = t0.elapsed().as_secs_f64() * 1e3;
    Metrics {
        engine: format!("GRETA-par{threads}"),
        total_ms: total,
        latency_ms: total, // batch API: results land at the end
        throughput: events.len() as f64 / (total / 1e3).max(1e-9),
        memory_bytes: 0, // per-worker peaks are not aggregated in batch mode
        completed: true,
        checksum: checksum_rows(&rows),
        rows: rows.len(),
    }
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

/// Run one of the two-step baselines with a trend/node budget.
pub fn run_two_step_engine(
    which: TwoStep,
    query: &CompiledQuery,
    registry: &SchemaRegistry,
    events: &[Event],
    budget: u64,
) -> Metrics {
    let t0 = Instant::now();
    let run: TwoStepRun = match which {
        TwoStep::Sase => SaseEngine::run(query, registry, events, budget),
        TwoStep::Cet => CetEngine::run(query, registry, events, budget),
        TwoStep::Flink => FlinkEngine::run(query, registry, events, budget),
    };
    let total = t0.elapsed().as_secs_f64() * 1e3;
    Metrics {
        engine: which.name().into(),
        total_ms: total,
        latency_ms: total, // two-step: nothing is available before the end
        throughput: events.len() as f64 / (total / 1e3).max(1e-9),
        memory_bytes: run.peak_bytes,
        completed: run.completed,
        checksum: checksum_rows(&run.rows),
        rows: run.rows.len(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use greta_types::{EventBuilder, Time};

    fn setup() -> (SchemaRegistry, CompiledQuery, Vec<Event>) {
        let mut reg = SchemaRegistry::new();
        reg.register_type("A", &["x"]).unwrap();
        let q = CompiledQuery::parse("RETURN COUNT(*) PATTERN A+ WITHIN 1000 SLIDE 1000", &reg)
            .unwrap();
        let evs: Vec<Event> = (0..10u64)
            .map(|t| EventBuilder::new(&reg, "A").unwrap().at(Time(t)).build())
            .collect();
        (reg, q, evs)
    }

    #[test]
    fn engines_agree_on_checksum() {
        let (reg, q, evs) = setup();
        let g = run_greta(&q, &reg, &evs, EngineConfig::default());
        let s = run_two_step_engine(TwoStep::Sase, &q, &reg, &evs, u64::MAX);
        let c = run_two_step_engine(TwoStep::Cet, &q, &reg, &evs, u64::MAX);
        let f = run_two_step_engine(TwoStep::Flink, &q, &reg, &evs, u64::MAX);
        assert_eq!(g.checksum, 1023.0); // 2^10 - 1
        for m in [&s, &c, &f] {
            assert!(m.completed);
            assert_eq!(m.checksum, g.checksum, "{}", m.engine);
        }
        assert!(g.throughput > 0.0);
    }

    #[test]
    fn budget_marks_incomplete() {
        let (reg, q, evs) = setup();
        let m = run_two_step_engine(TwoStep::Sase, &q, &reg, &evs, 5);
        assert!(!m.completed);
    }

    #[test]
    fn parallel_matches() {
        let (reg, q, evs) = setup();
        let g = run_greta(&q, &reg, &evs, EngineConfig::default());
        let p = run_greta_parallel(&q, &reg, &evs, EngineConfig::default(), 2);
        assert_eq!(p.checksum, g.checksum);
    }
}
