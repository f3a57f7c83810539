//! Experiment definitions: one function per paper figure (§10.2–§10.4),
//! plus the §8 complexity check and the design-choice ablations.
//!
//! Event counts are scaled to laptop budgets (the two-step baselines are
//! exponential; the paper itself reports them failing to terminate at
//! larger sizes — our budget mechanism reproduces exactly that behaviour,
//! shown as `DNF` in the tables).

use crate::metrics::{
    run_greta, run_greta_as, run_greta_parallel, run_two_step_engine, Metrics, TwoStep,
};
use greta_core::EngineConfig;
use greta_query::CompiledQuery;
use greta_types::{Event, SchemaRegistry};
use greta_workloads::{
    ClusterConfig, ClusterGen, LinearRoadConfig, LinearRoadGen, StockConfig, StockGen,
};

/// One table row: an engine measured at one sweep point.
#[derive(Debug, Clone)]
pub struct Row {
    /// Experiment id (`fig14`, …).
    pub figure: String,
    /// Name of the swept parameter.
    pub x_name: String,
    /// Swept parameter value.
    pub x: f64,
    /// The measurements.
    pub metrics: Metrics,
}

fn push(rows: &mut Vec<Row>, figure: &str, x_name: &str, x: f64, m: Metrics) {
    rows.push(Row {
        figure: figure.into(),
        x_name: x_name.into(),
        x,
        metrics: m,
    });
}

#[allow(clippy::too_many_arguments)]
fn all_engines(
    rows: &mut Vec<Row>,
    figure: &str,
    x_name: &str,
    x: f64,
    query: &CompiledQuery,
    reg: &SchemaRegistry,
    events: &[Event],
    budget: u64,
) {
    push(
        rows,
        figure,
        x_name,
        x,
        run_greta(query, reg, events, EngineConfig::default()),
    );
    for which in [TwoStep::Sase, TwoStep::Cet, TwoStep::Flink] {
        push(
            rows,
            figure,
            x_name,
            x,
            run_two_step_engine(which, query, reg, events, budget),
        );
    }
}

/// Query Q1 (§1) with a tumbling window of `n` ticks (= `n` events per
/// window under per-event time stamps).
fn q1(reg: &SchemaRegistry, n: usize) -> CompiledQuery {
    CompiledQuery::parse(
        &format!(
            "RETURN sector, COUNT(*) PATTERN Stock S+ \
             WHERE [company, sector] AND S.price > NEXT(S).price \
             GROUP-BY sector WITHIN {n} SLIDE {n}"
        ),
        reg,
    )
    .expect("Q1 compiles")
}

/// **Fig. 14** — positive patterns over the stock stream, varying the
/// number of events per window.
pub fn fig14(sizes: &[usize], budget: u64) -> Vec<Row> {
    let mut rows = Vec::new();
    for &n in sizes {
        let mut reg = SchemaRegistry::new();
        let gen = StockGen::new(
            StockConfig {
                events: n,
                ..Default::default()
            },
            &mut reg,
        )
        .expect("schema");
        let events = gen.generate();
        let query = q1(&reg, n);
        all_engines(
            &mut rows,
            "fig14",
            "events/window",
            n as f64,
            &query,
            &reg,
            &events,
            budget,
        );
    }
    rows
}

/// **Fig. 15** — the same patterns with a trailing negative sub-pattern
/// (`SEQ(Stock S+, NOT Halt H)`), varying the number of events per window.
pub fn fig15(sizes: &[usize], budget: u64) -> Vec<Row> {
    let mut rows = Vec::new();
    for &n in sizes {
        let mut reg = SchemaRegistry::new();
        let gen = StockGen::new(
            StockConfig {
                events: n,
                halt_rate: 0.002,
                ..Default::default()
            },
            &mut reg,
        )
        .expect("schema");
        let events = gen.generate();
        let query = CompiledQuery::parse(
            &format!(
                "RETURN sector, COUNT(*) PATTERN SEQ(Stock S+, NOT Halt H) \
                 WHERE [company, sector] AND S.price > NEXT(S).price \
                 GROUP-BY sector WITHIN {n} SLIDE {n}"
            ),
            &reg,
        )
        .expect("Q1-neg compiles");
        all_engines(
            &mut rows,
            "fig15",
            "events/window",
            n as f64,
            &query,
            &reg,
            &events,
            budget,
        );
    }
    rows
}

/// **Fig. 16** — positive patterns over the Linear Road stream, varying the
/// selectivity of the `P.speed > NEXT(P).speed` edge predicate (driven by
/// the slowdown bias of the speed walks).
pub fn fig16(n: usize, biases: &[f64], budget: u64) -> Vec<Row> {
    let mut rows = Vec::new();
    for &bias in biases {
        let mut reg = SchemaRegistry::new();
        let gen = LinearRoadGen::new(
            LinearRoadConfig {
                events: n,
                slowdown_bias: bias,
                ..Default::default()
            },
            &mut reg,
        )
        .expect("schema");
        let events = gen.generate();
        let query = CompiledQuery::parse(
            &format!(
                "RETURN segment, COUNT(*), AVG(P.speed) PATTERN Position P+ \
                 WHERE [P.vehicle, segment] AND P.speed > NEXT(P).speed \
                 GROUP-BY segment WITHIN {n} SLIDE {n}"
            ),
            &reg,
        )
        .expect("Q3-positive compiles");
        all_engines(
            &mut rows,
            "fig16",
            "selectivity",
            bias,
            &query,
            &reg,
            &events,
            budget,
        );
    }
    rows
}

/// **Fig. 17** — query Q2 over the cluster stream, varying the number of
/// event trend groups (distinct mappers). Includes a parallel-GRETA series
/// for the §10.4 scalability claim.
pub fn fig17(n: usize, groups: &[u32], budget: u64) -> Vec<Row> {
    let mut rows = Vec::new();
    for &g in groups {
        let mut reg = SchemaRegistry::new();
        let gen = ClusterGen::new(
            ClusterConfig {
                events: n,
                mappers: g,
                ..Default::default()
            },
            &mut reg,
        )
        .expect("schema");
        let events = gen.generate();
        let query = CompiledQuery::parse(
            &format!(
                "RETURN mapper, SUM(M.cpu) \
                 PATTERN SEQ(Start S, Measurement M+, End E) \
                 WHERE [job, mapper] AND M.load < NEXT(M).load \
                 GROUP-BY mapper WITHIN {n} SLIDE {n}"
            ),
            &reg,
        )
        .expect("Q2 compiles");
        all_engines(
            &mut rows, "fig17", "groups", g as f64, &query, &reg, &events, budget,
        );
        push(
            &mut rows,
            "fig17",
            "groups",
            g as f64,
            run_greta_parallel(&query, &reg, &events, EngineConfig::default(), 4),
        );
    }
    rows
}

/// **§8 complexity check** — GRETA-only sweep over n; downstream analysis
/// (EXPERIMENTS.md) fits the log–log slope: ≤ 2 for time, ≈ 1 for memory.
pub fn complexity(sizes: &[usize]) -> Vec<Row> {
    let mut rows = Vec::new();
    for &n in sizes {
        let mut reg = SchemaRegistry::new();
        let gen = StockGen::new(
            StockConfig {
                events: n,
                ..Default::default()
            },
            &mut reg,
        )
        .expect("schema");
        let events = gen.generate();
        let query = q1(&reg, n);
        push(
            &mut rows,
            "complexity",
            "events/window",
            n as f64,
            run_greta(&query, &reg, &events, EngineConfig::default()),
        );
    }
    rows
}

/// **Ablations**: Vertex-Tree range index on/off, the
/// aggregate carrier (`f64` / saturating `u64` / exact `BigUint`), and
/// window sharing vs. per-window replication (emulated by running one
/// tumbling engine per slide offset).
pub fn ablations(n: usize) -> Vec<Row> {
    let mut rows = Vec::new();

    // (a) Range index on/off — Linear Road with a selective predicate.
    let mut reg = SchemaRegistry::new();
    let gen = LinearRoadGen::new(
        LinearRoadConfig {
            events: n,
            slowdown_bias: 0.25,
            ..Default::default()
        },
        &mut reg,
    )
    .expect("schema");
    let events = gen.generate();
    let query = CompiledQuery::parse(
        &format!(
            "RETURN segment, COUNT(*) PATTERN Position P+ \
             WHERE [P.vehicle, segment] AND P.speed > NEXT(P).speed \
             GROUP-BY segment WITHIN {n} SLIDE {n}"
        ),
        &reg,
    )
    .expect("compiles");
    let mut m = run_greta(&query, &reg, &events, EngineConfig::default());
    m.engine = "GRETA(tree-index)".into();
    push(&mut rows, "ablation-index", "n", n as f64, m);
    let mut m = run_greta(
        &query,
        &reg,
        &events,
        EngineConfig {
            use_range_index: false,
            ..Default::default()
        },
    );
    m.engine = "GRETA(scan)".into();
    push(&mut rows, "ablation-index", "n", n as f64, m);

    // (b) Aggregate carrier — Q1 over the stock stream in one window.
    // Trend counts grow exponentially, so past a few dozen events per
    // group `u64` saturates and `f64` rounds: their checksums may differ
    // from the exact carrier's, which is the point of the row.
    let mut reg = SchemaRegistry::new();
    let gen = StockGen::new(
        StockConfig {
            events: n,
            ..Default::default()
        },
        &mut reg,
    )
    .expect("schema");
    let events = gen.generate();
    let query = q1(&reg, n);
    let config = EngineConfig::default();
    for (carrier, mut m) in [
        ("f64", run_greta_as::<f64>(&query, &reg, &events, config)),
        ("u64", run_greta_as::<u64>(&query, &reg, &events, config)),
        (
            "BigUint",
            run_greta_as::<greta_bignum::BigUint>(&query, &reg, &events, config),
        ),
    ] {
        m.engine = format!("GRETA({carrier})");
        push(&mut rows, "ablation-carrier", "n", n as f64, m);
    }

    // (c) Window sharing vs replication: WITHIN n/2 SLIDE n/8 — one shared
    // engine vs four shifted tumbling engines (Fig. 9(a) vs 9(b)), over
    // the same stock stream.
    let within = (n / 2).max(8);
    let slide = (n / 8).max(2);
    let shared = CompiledQuery::parse(
        &format!(
            "RETURN sector, COUNT(*) PATTERN Stock S+ \
             WHERE [company, sector] AND S.price > NEXT(S).price \
             GROUP-BY sector WITHIN {within} SLIDE {slide}"
        ),
        &reg,
    )
    .expect("compiles");
    let mut m = run_greta(&shared, &reg, &events, EngineConfig::default());
    m.engine = "GRETA(shared-windows)".into();
    push(&mut rows, "ablation-windows", "n", n as f64, m);

    // Replication: each window offset processed by its own tumbling engine
    // over the events shifted into its phase (the naive Fig. 9(a) plan).
    let t0 = std::time::Instant::now();
    let mut total_mem = 0usize;
    let mut checksum = 0.0;
    let mut n_rows = 0usize;
    let phases = (within / slide).max(1);
    for phase in 0..phases {
        let tumbling = CompiledQuery::parse(
            &format!(
                "RETURN sector, COUNT(*) PATTERN Stock S+ \
                 WHERE [company, sector] AND S.price > NEXT(S).price \
                 GROUP-BY sector WITHIN {within} SLIDE {within}"
            ),
            &reg,
        )
        .expect("compiles");
        // Shift: drop events before this phase offset so tumbling windows
        // align with the shared plan's windows of the same phase.
        let offset = (phase * slide) as u64;
        let shifted: Vec<Event> = events
            .iter()
            .filter(|e| e.time.ticks() >= offset)
            .cloned()
            .collect();
        let m = run_greta(&tumbling, &reg, &shifted, EngineConfig::default());
        total_mem += m.memory_bytes;
        checksum += m.checksum;
        n_rows += m.rows;
    }
    let total = t0.elapsed().as_secs_f64() * 1e3;
    push(
        &mut rows,
        "ablation-windows",
        "n",
        n as f64,
        Metrics {
            engine: "GRETA(replicated-windows)".into(),
            total_ms: total,
            latency_ms: total,
            throughput: (events.len() * phases) as f64 / (total / 1e3).max(1e-9),
            memory_bytes: total_mem,
            completed: true,
            checksum,
            rows: n_rows,
        },
    );
    rows
}

/// Render rows as an aligned, paper-style text table, one block per figure.
pub fn render_table(rows: &[Row]) -> String {
    use std::fmt::Write;
    let mut out = String::new();
    let mut figures: Vec<&str> = rows.iter().map(|r| r.figure.as_str()).collect();
    figures.dedup();
    let mut seen = std::collections::HashSet::new();
    for fig in figures {
        if !seen.insert(fig) {
            continue;
        }
        writeln!(out, "\n== {fig} ==").unwrap();
        writeln!(
            out,
            "{:<14} {:>12} {:<22} {:>12} {:>12} {:>14} {:>12} {:>6}",
            "x-name", "x", "engine", "latency_ms", "total_ms", "throughput", "memory", "ok"
        )
        .unwrap();
        for r in rows.iter().filter(|r| r.figure == fig) {
            writeln!(
                out,
                "{:<14} {:>12} {:<22} {:>12.2} {:>12.2} {:>14.0} {:>12} {:>6}",
                r.x_name,
                r.x,
                r.metrics.engine,
                r.metrics.latency_ms,
                r.metrics.total_ms,
                r.metrics.throughput,
                human_bytes(r.metrics.memory_bytes),
                if r.metrics.completed { "yes" } else { "DNF" }
            )
            .unwrap();
        }
    }
    out
}

/// Render rows as a pretty-printed JSON array with flattened metrics
/// (what `--json` dumps for EXPERIMENTS.md; no external JSON dependency).
pub fn rows_to_json(rows: &[Row]) -> String {
    use greta_workloads::io::json::str_lit;
    fn num(x: f64) -> String {
        if x.is_finite() {
            format!("{x}")
        } else {
            "null".into()
        }
    }
    let mut out = String::from("[\n");
    for (i, r) in rows.iter().enumerate() {
        if i > 0 {
            out.push_str(",\n");
        }
        out.push_str(&format!(
            "  {{\"figure\": {}, \"x_name\": {}, \"x\": {}, \"engine\": {}, \
             \"total_ms\": {}, \"latency_ms\": {}, \"throughput\": {}, \
             \"memory_bytes\": {}, \"completed\": {}, \"checksum\": {}, \"rows\": {}}}",
            str_lit(&r.figure),
            str_lit(&r.x_name),
            num(r.x),
            str_lit(&r.metrics.engine),
            num(r.metrics.total_ms),
            num(r.metrics.latency_ms),
            num(r.metrics.throughput),
            r.metrics.memory_bytes,
            r.metrics.completed,
            num(r.metrics.checksum),
            r.metrics.rows,
        ));
    }
    out.push_str("\n]\n");
    out
}

fn human_bytes(b: usize) -> String {
    if b >= 1 << 30 {
        format!("{:.2}GiB", b as f64 / (1u64 << 30) as f64)
    } else if b >= 1 << 20 {
        format!("{:.2}MiB", b as f64 / (1u64 << 20) as f64)
    } else if b >= 1 << 10 {
        format!("{:.2}KiB", b as f64 / 1024.0)
    } else {
        format!("{b}B")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fig14_small_runs_and_engines_agree() {
        let rows = fig14(&[120], 2_000_000);
        assert_eq!(rows.len(), 4); // GRETA + 3 baselines
        let greta = &rows[0];
        assert_eq!(greta.metrics.engine, "GRETA");
        for r in &rows[1..] {
            assert!(r.metrics.completed, "{} DNF", r.metrics.engine);
            let rel = (r.metrics.checksum - greta.metrics.checksum).abs()
                / greta.metrics.checksum.abs().max(1.0);
            assert!(
                rel < 1e-9,
                "{} checksum {} vs {}",
                r.metrics.engine,
                r.metrics.checksum,
                greta.metrics.checksum
            );
        }
    }

    #[test]
    fn fig15_negation_runs() {
        let rows = fig15(&[120], 2_000_000);
        let greta = &rows[0];
        for r in &rows[1..] {
            if r.metrics.completed {
                let rel = (r.metrics.checksum - greta.metrics.checksum).abs()
                    / greta.metrics.checksum.abs().max(1.0);
                assert!(rel < 1e-9, "{}", r.metrics.engine);
            }
        }
    }

    #[test]
    fn fig16_and_fig17_run_small() {
        let r16 = fig16(150, &[0.3], 2_000_000);
        assert_eq!(r16.len(), 4);
        let r17 = fig17(150, &[3], 2_000_000);
        assert_eq!(r17.len(), 5); // + GRETA-par4
        let greta = &r17[0];
        let par = r17
            .iter()
            .find(|r| r.metrics.engine.starts_with("GRETA-par"))
            .unwrap();
        let rel = (par.metrics.checksum - greta.metrics.checksum).abs()
            / greta.metrics.checksum.abs().max(1.0);
        assert!(rel < 1e-9);
    }

    #[test]
    fn ablations_agree() {
        let rows = ablations(300);
        let tree = rows
            .iter()
            .find(|r| r.metrics.engine.contains("tree"))
            .unwrap();
        let scan = rows
            .iter()
            .find(|r| r.metrics.engine.contains("scan"))
            .unwrap();
        assert_eq!(tree.metrics.checksum, scan.metrics.checksum);
        let table = render_table(&rows);
        assert!(table.contains("ablation-index"));
        assert!(table.contains("ablation-windows"));
        let carriers = rows.iter().filter(|r| r.figure == "ablation-carrier");
        let carriers: Vec<_> = carriers.map(|r| r.metrics.rows).collect();
        assert_eq!(carriers.len(), 3);
        assert!(carriers.iter().all(|&n| n == carriers[0] && n > 0));
    }

    #[test]
    fn complexity_rows() {
        let rows = complexity(&[100, 200]);
        assert_eq!(rows.len(), 2);
        assert!(rows.iter().all(|r| r.metrics.completed));
    }
}
