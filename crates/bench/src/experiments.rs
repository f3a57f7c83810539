//! Experiment definitions: one sweep per paper figure (§10.2–§10.4), plus
//! the §8 complexity sweep and the design-choice ablations.
//!
//! Event counts are scaled to laptop budgets (the two-step baselines are
//! exponential; the paper itself reports them failing to terminate at
//! larger sizes — our budget mechanism reproduces exactly that behaviour,
//! shown as `DNF` in the tables).

use crate::metrics::{
    checksum_rows, run_greta, run_greta_rows, run_two_step_engine, Metrics, TwoStep,
};
use greta_core::{sort_canonical, EngineConfig, WindowResult};
use greta_query::CompiledQuery;
use greta_types::{Event, SchemaRegistry, Time};
use greta_workloads::{
    ClusterConfig, ClusterGen, LinearRoadConfig, LinearRoadGen, StockConfig, StockGen,
};

/// The harness's experiment names, in the order `all` runs them.
pub const EXPERIMENTS: [&str; 6] = [
    "fig14",
    "fig15",
    "fig16",
    "fig17",
    "complexity",
    "ablations",
];

/// Sweep sizes and two-step budget of one harness scale.
#[derive(Debug, Clone)]
pub struct Scale {
    /// Events per window swept by fig. 14.
    pub fig14_sizes: Vec<usize>,
    /// Events per window swept by fig. 15.
    pub fig15_sizes: Vec<usize>,
    /// Events per window of fig. 16.
    pub fig16_n: usize,
    /// Events per window of fig. 17.
    pub fig17_n: usize,
    /// Events per window swept by the §8 complexity check.
    pub complexity_sizes: Vec<usize>,
    /// Events per window of the ablations.
    pub ablation_n: usize,
    /// Budget of each two-step run (trends, or CET nodes).
    pub budget: u64,
}

impl Scale {
    /// The scale called `small`, `medium` or `large`; `None` otherwise.
    pub fn by_name(name: &str) -> Option<Scale> {
        Some(match name {
            "small" => Scale {
                fig14_sizes: vec![100, 200, 400],
                fig15_sizes: vec![100, 200, 400],
                fig16_n: 400,
                fig17_n: 400,
                complexity_sizes: vec![250, 500, 1000, 2000],
                ablation_n: 400,
                budget: 2_000_000,
            },
            "medium" => Scale {
                fig14_sizes: vec![150, 300, 600, 1200, 2400],
                fig15_sizes: vec![150, 300, 600, 1200, 2400],
                fig16_n: 2000,
                fig17_n: 5000,
                complexity_sizes: vec![500, 1000, 2000, 4000, 8000, 16_000],
                ablation_n: 2000,
                budget: 10_000_000,
            },
            "large" => Scale {
                fig14_sizes: vec![250, 500, 1000, 2500, 5000, 10_000, 50_000],
                fig15_sizes: vec![250, 500, 1000, 2500, 5000, 10_000, 50_000],
                fig16_n: 10_000,
                fig17_n: 50_000,
                complexity_sizes: vec![1000, 2000, 4000, 8000, 16_000, 32_000, 64_000],
                ablation_n: 10_000,
                budget: 50_000_000,
            },
            _ => return None,
        })
    }

    /// Run the experiment called `name`, which must be one of
    /// [`EXPERIMENTS`], at this scale.
    pub fn run(&self, name: &str) -> Vec<Row> {
        let (figure, x_name, points) = match name {
            "fig14" => ("fig14", "events/window", fig14_points(&self.fig14_sizes)),
            "fig15" => ("fig15", "events/window", fig15_points(&self.fig15_sizes)),
            "fig16" => (
                "fig16",
                "selectivity",
                fig16_points(self.fig16_n, &FIG16_BIASES),
            ),
            "fig17" => ("fig17", "groups", fig17_points(self.fig17_n, &FIG17_GROUPS)),
            "complexity" => return complexity(&fig14_points(&self.complexity_sizes)),
            "ablations" => return ablations(self.ablation_n),
            _ => unreachable!("unknown experiment `{name}`"),
        };
        let mut rows = Vec::new();
        for p in &points {
            for m in all_engines(p, self.budget) {
                push(&mut rows, figure, x_name, p.x, m);
            }
        }
        rows
    }
}

/// Fig. 16's slowdown biases of the Linear Road speed walks.
pub const FIG16_BIASES: [f64; 4] = [0.1, 0.25, 0.5, 0.75];
/// Fig. 17's trend-group (mapper) counts.
pub const FIG17_GROUPS: [u32; 5] = [1, 5, 10, 25, 50];

/// One table row: an engine measured at one sweep point.
#[derive(Debug, Clone)]
pub struct Row {
    /// Experiment id (`fig14`, …).
    pub figure: String,
    /// Name of the swept parameter.
    pub x_name: String,
    /// Swept parameter value.
    pub x: f64,
    /// The counters.
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

/// One sweep point: a stream and the query every engine runs over it.
pub struct Point {
    /// Swept parameter value.
    pub x: f64,
    /// The stream's schemas.
    pub registry: SchemaRegistry,
    /// The query.
    pub query: CompiledQuery,
    /// The stream, in time order.
    pub events: Vec<Event>,
}

/// Every engine over one point: GRETA, then SASE, CET and Flink.
pub fn all_engines(p: &Point, budget: u64) -> Vec<Metrics> {
    let mut out = vec![run_greta(
        &p.query,
        &p.registry,
        &p.events,
        EngineConfig::default(),
    )];
    for which in [TwoStep::Sase, TwoStep::Cet, TwoStep::Flink] {
        out.push(run_two_step_engine(
            which,
            &p.query,
            &p.registry,
            &p.events,
            budget,
        ));
    }
    out
}

/// Query Q1 (§1) with window `WITHIN within SLIDE slide`.
fn q1(reg: &SchemaRegistry, within: usize, slide: usize) -> CompiledQuery {
    CompiledQuery::parse(
        &format!(
            "RETURN sector, COUNT(*) PATTERN Stock S+ \
             WHERE [company, sector] AND S.price > NEXT(S).price \
             GROUP-BY sector WITHIN {within} SLIDE {slide}"
        ),
        reg,
    )
    .expect("Q1 compiles")
}

fn stock(n: usize, halt_rate: f64) -> (SchemaRegistry, Vec<Event>) {
    let mut reg = SchemaRegistry::new();
    let gen = StockGen::new(
        StockConfig {
            events: n,
            halt_rate,
            ..Default::default()
        },
        &mut reg,
    )
    .expect("schema");
    let events = gen.generate();
    (reg, events)
}

/// **Fig. 14** — Q1's positive pattern over the stock stream, with a
/// tumbling window of `n` ticks (= `n` events per window) for each size.
pub fn fig14_points(sizes: &[usize]) -> Vec<Point> {
    sizes
        .iter()
        .map(|&n| {
            let (registry, events) = stock(n, 0.0);
            Point {
                x: n as f64,
                query: q1(&registry, n, n),
                registry,
                events,
            }
        })
        .collect()
}

/// **Fig. 15** — the same pattern with a trailing negative sub-pattern
/// (`SEQ(Stock S+, NOT Halt H)`), for each size.
pub fn fig15_points(sizes: &[usize]) -> Vec<Point> {
    sizes
        .iter()
        .map(|&n| {
            let (registry, events) = stock(n, 0.002);
            let query = CompiledQuery::parse(
                &format!(
                    "RETURN sector, COUNT(*) PATTERN SEQ(Stock S+, NOT Halt H) \
                     WHERE [company, sector] AND S.price > NEXT(S).price \
                     GROUP-BY sector WITHIN {n} SLIDE {n}"
                ),
                &registry,
            )
            .expect("Q1-neg compiles");
            Point {
                x: n as f64,
                registry,
                query,
                events,
            }
        })
        .collect()
}

/// **Fig. 16** — positive patterns over the Linear Road stream, varying the
/// selectivity of the `P.speed > NEXT(P).speed` edge predicate (driven by
/// the slowdown bias of the speed walks).
pub fn fig16_points(n: usize, biases: &[f64]) -> Vec<Point> {
    biases
        .iter()
        .map(|&bias| {
            let mut registry = SchemaRegistry::new();
            let gen = LinearRoadGen::new(
                LinearRoadConfig {
                    events: n,
                    slowdown_bias: bias,
                    ..Default::default()
                },
                &mut registry,
            )
            .expect("schema");
            let query = CompiledQuery::parse(
                &format!(
                    "RETURN segment, COUNT(*), AVG(P.speed) PATTERN Position P+ \
                     WHERE [P.vehicle, segment] AND P.speed > NEXT(P).speed \
                     GROUP-BY segment WITHIN {n} SLIDE {n}"
                ),
                &registry,
            )
            .expect("Q3-positive compiles");
            Point {
                x: bias,
                events: gen.generate(),
                registry,
                query,
            }
        })
        .collect()
}

/// **Fig. 17** — query Q2 over the cluster stream, varying the number of
/// event trend groups (distinct mappers).
pub fn fig17_points(n: usize, groups: &[u32]) -> Vec<Point> {
    groups
        .iter()
        .map(|&g| {
            let mut registry = SchemaRegistry::new();
            let gen = ClusterGen::new(
                ClusterConfig {
                    events: n,
                    mappers: g,
                    ..Default::default()
                },
                &mut registry,
            )
            .expect("schema");
            let query = CompiledQuery::parse(
                &format!(
                    "RETURN mapper, SUM(M.cpu) \
                     PATTERN SEQ(Start S, Measurement M+, End E) \
                     WHERE [job, mapper] AND M.load < NEXT(M).load \
                     GROUP-BY mapper WITHIN {n} SLIDE {n}"
                ),
                &registry,
            )
            .expect("Q2 compiles");
            Point {
                x: g as f64,
                events: gen.generate(),
                registry,
                query,
            }
        })
        .collect()
}

/// **§8 complexity sweep** — GRETA alone over `points` (the harness passes
/// fig. 14's).
pub fn complexity(points: &[Point]) -> Vec<Row> {
    let mut rows = Vec::new();
    for p in points {
        let m = run_greta(&p.query, &p.registry, &p.events, EngineConfig::default());
        push(&mut rows, "complexity", "events/window", p.x, m);
    }
    rows
}

/// Fig. 9's two plans for Q1 with window `WITHIN within SLIDE slide`
/// (`within` a multiple of `slide`) over `events`. The shared plan (9(b))
/// is one engine whose vertices serve every overlapping window. The
/// replicated plan (9(a)) runs one tumbling engine per slide phase `p`,
/// over the stream from `p · slide` on, shifted to start at 0; its window
/// `j` is the shared plan's window `j · (within / slide) + p`, and its rows
/// are renumbered so. Returns `[shared, replicated]`, rows in `(window,
/// group)` order.
pub fn window_plans(
    reg: &SchemaRegistry,
    events: &[Event],
    within: usize,
    slide: usize,
) -> [(Metrics, Vec<WindowResult<f64>>); 2] {
    let config = EngineConfig::default();
    let (mut shared, shared_rows) = run_greta_rows(&q1(reg, within, slide), reg, events, config);
    shared.engine = "GRETA(shared-windows)".into();

    let tumbling = q1(reg, within, within);
    let phases = within / slide;
    let (mut vertices, mut edges, mut memory_bytes) = (0, 0, 0);
    let mut rows = Vec::new();
    for phase in 0..phases {
        let offset = (phase * slide) as u64;
        let shifted: Vec<Event> = events
            .iter()
            .filter(|e| e.time.ticks() >= offset)
            .map(|e| {
                let mut e = e.clone();
                e.time = Time(e.time.ticks() - offset);
                e
            })
            .collect();
        let (m, mut phase_rows) = run_greta_rows::<f64>(&tumbling, reg, &shifted, config);
        vertices += m.vertices;
        edges += m.edges;
        memory_bytes += m.memory_bytes;
        for r in &mut phase_rows {
            r.window = r.window * phases as u64 + phase as u64;
        }
        rows.append(&mut phase_rows);
    }
    sort_canonical(&mut rows);
    let replicated = Metrics {
        engine: "GRETA(replicated-windows)".into(),
        vertices,
        edges,
        trends: 0,
        memory_bytes,
        completed: true,
        checksum: checksum_rows(&rows),
        rows: rows.len(),
    };
    [(shared, shared_rows), (replicated, rows)]
}

/// **Ablations** of the engine's design choices, GRETA only:
///
/// * the aggregate carrier (`f64` / saturating `u64` / exact `BigUint`) —
///   Q1 over the stock stream in one window. Trend counts grow
///   exponentially, so past a few dozen events per group `u64` saturates
///   and `f64` rounds: their checksums may differ from the exact
///   carrier's, which is the point of the rows;
/// * window sharing against per-window replication ([`window_plans`]) —
///   Q1 with `WITHIN 4·s SLIDE s`, `s = n/8`, over the same stream.
///
/// The range index has no row: with it or without, GRETA traverses the
/// same edges, so no counter differs (`tests/cross_validation.rs` checks
/// that the results are equal too).
pub fn ablations(n: usize) -> Vec<Row> {
    let mut rows = Vec::new();
    let (reg, events) = stock(n, 0.0);
    let query = q1(&reg, n, n);
    let config = EngineConfig::default();
    for (carrier, mut m) in [
        (
            "f64",
            run_greta_rows::<f64>(&query, &reg, &events, config).0,
        ),
        (
            "u64",
            run_greta_rows::<u64>(&query, &reg, &events, config).0,
        ),
        (
            "BigUint",
            run_greta_rows::<greta_bignum::BigUint>(&query, &reg, &events, config).0,
        ),
    ] {
        m.engine = format!("GRETA({carrier})");
        push(&mut rows, "ablation-carrier", "n", n as f64, m);
    }

    let slide = (n / 8).max(2);
    for (m, _) in window_plans(&reg, &events, 4 * slide, slide) {
        push(&mut rows, "ablation-windows", "n", n as f64, m);
    }
    rows
}

/// Render rows as an aligned, paper-style text table, one block per figure.
pub fn render_table(rows: &[Row]) -> String {
    use std::fmt::Write;
    let mut out = String::new();
    let mut figures: Vec<&str> = Vec::new();
    for r in rows {
        if !figures.contains(&r.figure.as_str()) {
            figures.push(&r.figure);
        }
    }
    for fig in figures {
        writeln!(out, "\n== {fig} ==").unwrap();
        writeln!(
            out,
            "{:<14} {:>6} {:<26} {:>9} {:>10} {:>10} {:>10} {:>6} {:>12} {:>4}",
            "x-name",
            "x",
            "engine",
            "vertices",
            "edges",
            "trends",
            "memory",
            "rows",
            "checksum",
            "ok"
        )
        .unwrap();
        for r in rows.iter().filter(|r| r.figure == fig) {
            let m = &r.metrics;
            writeln!(
                out,
                "{:<14} {:>6} {:<26} {:>9} {:>10} {:>10} {:>10} {:>6} {:>12.5e} {:>4}",
                r.x_name,
                r.x,
                m.engine,
                m.vertices,
                m.edges,
                m.trends,
                human_bytes(m.memory_bytes),
                m.rows,
                m.checksum,
                if m.completed { "yes" } else { "DNF" }
            )
            .unwrap();
        }
    }
    out
}

/// Render rows as a pretty-printed JSON array with flattened counters
/// (what `--json` writes; no external JSON dependency). Identical input
/// gives a byte-identical file.
pub fn rows_to_json(rows: &[Row]) -> String {
    let mut out = String::from("[\n");
    for (i, r) in rows.iter().enumerate() {
        if i > 0 {
            out.push_str(",\n");
        }
        let m = &r.metrics;
        // `{:e}` keeps exponential trend counts short; JSON has no inf.
        let checksum = if m.checksum.is_finite() {
            format!("{:e}", m.checksum)
        } else {
            "null".into()
        };
        out.push_str(&format!(
            "  {{\"figure\": {}, \"x_name\": {}, \"x\": {}, \"engine\": {}, \
             \"vertices\": {}, \"edges\": {}, \"trends\": {}, \
             \"memory_bytes\": {}, \"completed\": {}, \"checksum\": {}, \"rows\": {}}}",
            str_lit(&r.figure),
            str_lit(&r.x_name),
            r.x,
            str_lit(&m.engine),
            m.vertices,
            m.edges,
            m.trends,
            m.memory_bytes,
            m.completed,
            checksum,
            m.rows,
        ));
    }
    out.push_str("\n]\n");
    out
}

/// `s` as a JSON string literal (quoted and escaped).
fn str_lit(s: &str) -> String {
    let mut out = String::from('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
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
