//! Property-based cross-validation: for random patterns, predicates,
//! windows and streams, **five independent implementations must agree** on
//! every aggregate of every window of every group:
//!
//! * GRETA (graph DP — the paper's contribution), with all three numeric
//!   carriers (`u64`, `f64`, `BigUint`);
//! * the enumeration oracle (aggregate-per-trend);
//! * SASE-, CET- and Flink-style two-step baselines.
//!
//! This is the strongest defence of Theorems 4.3/4.4/5.1/9.1: the DP
//! propagation and every optimization (panes, pruning, range indexes,
//! invalidation logs, vertices that keep only the attributes their residual
//! edge predicates read) must be observationally equivalent to brute force.

use greta::baselines::{oracle_run, CetEngine, FlinkEngine, SaseEngine};
use greta::core::{EngineConfig, GretaEngine, MemoryFootprint};
use greta::query::CompiledQuery;
use greta::types::{Event, EventBuilder, SchemaRegistry, Time};
use greta_bignum::BigUint;
use proptest::prelude::*;

fn registry() -> SchemaRegistry {
    let mut reg = SchemaRegistry::new();
    for t in ["A", "B", "C", "D", "E"] {
        reg.register_type(t, &["attr", "g"]).unwrap();
    }
    reg
}

/// Curated pattern pool: flat/nested Kleene, sequences, every negation
/// case, multiplicities, star/optional sugar.
const PATTERNS: &[&str] = &[
    "A+",
    "SEQ(A, B)",
    "SEQ(A+, B)",
    "(SEQ(A+, B))+",
    "SEQ(A, B+, C)",
    "SEQ(A+, B+)",
    "(SEQ(A+, B, C+))+",
    "SEQ(A+, NOT C, B)",
    "SEQ(A+, NOT SEQ(C, D), B)",
    "(SEQ(A+, NOT SEQ(C, NOT E, D), B))+",
    "SEQ(A+, NOT C)",
    "SEQ(NOT C, A+)",
    "SEQ(A X1+, B, A X2+)",
    "SEQ(A*, B)",
    "SEQ(A?, B, C*)",
];

const WHERES: &[&str] = &[
    "",
    " WHERE A.attr > NEXT(A).attr",
    " WHERE A.attr < NEXT(A).attr",
    " WHERE [g]",
    " WHERE [g] AND A.attr > NEXT(A).attr",
    " WHERE A.attr > 3",
];

const AGGS: &[&str] = &[
    "COUNT(*)",
    "COUNT(*), COUNT(A)",
    "COUNT(*), MIN(A.attr), MAX(A.attr)",
    "COUNT(*), SUM(A.attr), AVG(A.attr)",
    "COUNT(*), COUNT(A), MIN(A.attr), MAX(A.attr), SUM(A.attr)",
];

fn arb_stream() -> impl Strategy<Value = Vec<(u8, u8, i8, i8)>> {
    // (type 0..5, time-delta 0..3, attr, group)
    prop::collection::vec((0u8..5, 0u8..3, 0i8..6, 0i8..2), 0..14)
}

fn build_events(reg: &SchemaRegistry, raw: &[(u8, u8, i8, i8)]) -> Vec<Event> {
    let names = ["A", "B", "C", "D", "E"];
    let mut t = 0u64;
    raw.iter()
        .map(|(ty, dt, attr, g)| {
            t += *dt as u64; // deltas of 0 exercise same-timestamp handling
            EventBuilder::new(reg, names[*ty as usize])
                .unwrap()
                .at(Time(t))
                .set("attr", *attr as i64)
                .unwrap()
                .set("g", *g as i64)
                .unwrap()
                .build()
        })
        .collect()
}

type Rows = Vec<(u64, Vec<String>, Vec<f64>)>;

fn canon<N: greta::core::TrendNum>(rows: &[greta::core::WindowResult<N>]) -> Rows {
    let mut out: Rows = rows
        .iter()
        .map(|r| {
            (
                r.window,
                r.group
                    .0
                    .iter()
                    .map(|v| v.as_ref().map(|x| x.to_string()).unwrap_or_default())
                    .collect(),
                r.values.iter().map(|v| v.to_f64()).collect(),
            )
        })
        .collect();
    out.sort_by(|a, b| a.0.cmp(&b.0).then_with(|| a.1.cmp(&b.1)));
    out
}

fn rows_eq(a: &Rows, b: &Rows, ctx: &str) -> Result<(), TestCaseError> {
    prop_assert_eq!(a.len(), b.len(), "row count differs: {}", ctx);
    for (x, y) in a.iter().zip(b.iter()) {
        prop_assert_eq!(x.0, y.0, "window differs: {}", ctx);
        prop_assert_eq!(&x.1, &y.1, "group differs: {}", ctx);
        prop_assert_eq!(x.2.len(), y.2.len());
        for (u, v) in x.2.iter().zip(y.2.iter()) {
            if (u.is_nan() && v.is_nan()) || u == v {
                // Covers exact equality including ±∞ (MIN/MAX over a trend
                // set with no occurrences of the tracked type).
                continue;
            }
            prop_assert!(
                (u - v).abs() <= 1e-6 * u.abs().max(1.0),
                "value {} vs {} in {}",
                u,
                v,
                ctx
            );
        }
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 96, ..ProptestConfig::default() })]

    #[test]
    fn all_engines_agree(
        pat_idx in 0..PATTERNS.len(),
        where_idx in 0..WHERES.len(),
        agg_idx in 0..AGGS.len(),
        window in prop_oneof![Just((100u64, 100u64)), Just((10, 5)), Just((8, 3))],
        raw in arb_stream(),
    ) {
        let reg = registry();
        let text = format!(
            "RETURN {} PATTERN {}{} WITHIN {} SLIDE {}",
            AGGS[agg_idx], PATTERNS[pat_idx], WHERES[where_idx], window.0, window.1
        );
        let q = match CompiledQuery::parse(&text, &reg) {
            Ok(q) => q,
            Err(_) => return Ok(()), // some combos invalid (e.g. bad names)
        };
        let events = build_events(&reg, &raw);
        let ctx = format!("{text} over {} events", events.len());

        let mut greta_f = GretaEngine::<f64>::new(q.clone(), reg.clone()).unwrap();
        let rows_f = canon(&greta_f.run(&events).unwrap());
        let oracle = canon(&oracle_run(&q, &reg, &events));
        rows_eq(&rows_f, &oracle, &format!("GRETA(f64) vs oracle: {ctx}"))?;

        let mut greta_u = GretaEngine::<u64>::new(q.clone(), reg.clone()).unwrap();
        let rows_u = canon(&greta_u.run(&events).unwrap());
        rows_eq(&rows_u, &oracle, &format!("GRETA(u64) vs oracle: {ctx}"))?;

        let mut greta_b = GretaEngine::<BigUint>::new(q.clone(), reg.clone()).unwrap();
        let rows_b = canon(&greta_b.run(&events).unwrap());
        rows_eq(&rows_b, &oracle, &format!("GRETA(BigUint) vs oracle: {ctx}"))?;

        let sase = canon(&SaseEngine::run(&q, &reg, &events, u64::MAX).rows);
        rows_eq(&sase, &oracle, &format!("SASE vs oracle: {ctx}"))?;
        let cet = canon(&CetEngine::run(&q, &reg, &events, u64::MAX).rows);
        rows_eq(&cet, &oracle, &format!("CET vs oracle: {ctx}"))?;
        let flink = canon(&FlinkEngine::run(&q, &reg, &events, u64::MAX).rows);
        rows_eq(&flink, &oracle, &format!("FLINK vs oracle: {ctx}"))?;
    }

    #[test]
    fn range_index_ablation_is_observationally_equal(
        pat_idx in 0..PATTERNS.len(),
        raw in arb_stream(),
    ) {
        let reg = registry();
        let text = format!(
            "RETURN COUNT(*), SUM(A.attr) PATTERN {} \
             WHERE A.attr > NEXT(A).attr WITHIN 20 SLIDE 10",
            PATTERNS[pat_idx]
        );
        let Ok(q) = CompiledQuery::parse(&text, &reg) else { return Ok(()) };
        let events = build_events(&reg, &raw);
        let mut with_idx = GretaEngine::<f64>::new(q.clone(), reg.clone()).unwrap();
        let mut without = GretaEngine::<f64>::with_config(
            q,
            reg.clone(),
            EngineConfig { use_range_index: false, ..Default::default() },
        ).unwrap();
        let a = canon(&with_idx.run(&events).unwrap());
        let b = canon(&without.run(&events).unwrap());
        rows_eq(&a, &b, "index vs scan")?;
    }

    #[test]
    fn sharded_executor_matches_sequential(
        raw in arb_stream(),
        shards in 1usize..4,
    ) {
        let reg = registry();
        let q = CompiledQuery::parse(
            "RETURN g, COUNT(*) PATTERN A+ WHERE A.attr > NEXT(A).attr \
             GROUP-BY g WITHIN 50 SLIDE 50",
            &reg,
        ).unwrap();
        let events = build_events(&reg, &raw);
        let mut seq = GretaEngine::<f64>::new(q.clone(), reg.clone()).unwrap();
        let a = canon(&seq.run(&events).unwrap());
        // Push-based sharded path: events fed one at a time with
        // intermediate polls, never as a batch.
        let mut exec = greta::core::StreamExecutor::<f64>::new(
            q,
            reg,
            greta::core::ExecutorConfig {
                shards,
                engine: EngineConfig::default(),
                ..Default::default()
            },
        ).unwrap();
        let mut rows = Vec::new();
        for e in &events {
            exec.push(e.clone()).unwrap();
            rows.extend(exec.poll_results());
        }
        rows.extend(exec.finish().unwrap());
        let b = canon(&rows);
        rows_eq(&a, &b, "sharded executor vs sequential")?;
    }

    #[test]
    fn streaming_equals_batch(raw in arb_stream()) {
        // Processing event-by-event with intermediate polls must equal a
        // single batch run (incremental window lifecycle is transparent).
        let reg = registry();
        let q = CompiledQuery::parse(
            "RETURN COUNT(*), MIN(A.attr) PATTERN (SEQ(A+, B))+ WITHIN 6 SLIDE 2",
            &reg,
        ).unwrap();
        let events = build_events(&reg, &raw);
        let mut batch = GretaEngine::<f64>::new(q.clone(), reg.clone()).unwrap();
        let expect = canon(&batch.run(&events).unwrap());
        let mut stream = GretaEngine::<f64>::new(q, reg.clone()).unwrap();
        let mut got = Vec::new();
        for e in &events {
            stream.process_ref(&e.clone().into_ref()).unwrap();
            got.extend(stream.poll_results());
        }
        got.extend(stream.finish());
        rows_eq(&canon(&got), &expect, "stream vs batch")?;
    }

    #[test]
    fn projected_residual_predicates_agree_with_the_oracle(
        q_idx in 0..PROJECTED.len(),
        agg_idx in 0..AGGS.len(),
        window in prop_oneof![Just((10u64, 5u64)), Just((8, 3)), Just((6, 2))],
        raw in arb_named_stream(),
    ) {
        let reg = named_registry();
        let text = format!(
            "RETURN {} PATTERN {} WITHIN {} SLIDE {}",
            AGGS[agg_idx], PROJECTED[q_idx], window.0, window.1
        );
        let q = CompiledQuery::parse(&text, &reg).unwrap();
        let events = build_named_events(&reg, &raw);
        let ctx = format!("{text} over {} events", events.len());
        let oracle = canon(&oracle_run(&q, &reg, &events));
        let mut greta_f = GretaEngine::<f64>::new(q.clone(), reg.clone()).unwrap();
        let rows_f = canon(&greta_f.run(&events).unwrap());
        rows_eq(&rows_f, &oracle, &format!("GRETA(f64) vs oracle: {ctx}"))?;
        let mut greta_u = GretaEngine::<u64>::new(q.clone(), reg.clone()).unwrap();
        let rows_u = canon(&greta_u.run(&events).unwrap());
        rows_eq(&rows_u, &oracle, &format!("GRETA(u64) vs oracle: {ctx}"))?;
        let mut greta_b = GretaEngine::<BigUint>::new(q.clone(), reg.clone()).unwrap();
        let rows_b = canon(&greta_b.run(&events).unwrap());
        rows_eq(&rows_b, &oracle, &format!("GRETA(BigUint) vs oracle: {ctx}"))?;
        // Without the range index every edge predicate is residual, so the
        // projections widen to the sort attributes too.
        let scan = EngineConfig { use_range_index: false, ..Default::default() };
        let mut without = GretaEngine::<f64>::with_config(q, reg.clone(), scan).unwrap();
        let rows_s = canon(&without.run(&events).unwrap());
        rows_eq(&rows_s, &oracle, &format!("GRETA(f64, no range index) vs oracle: {ctx}"))?;
    }

    #[test]
    fn projected_values_survive_export_import_and_continue(
        q_idx in 0..PROJECTED.len(),
        raw in arb_named_stream(),
        split_at in 0usize..15,
    ) {
        // prefix → export → import → suffix emits what an engine that never
        // stopped emits, and the importer reports the exporter's live
        // bytes: a vertex's charge is its own data, not its sharing.
        let reg = named_registry();
        let text = format!(
            "RETURN COUNT(*), SUM(A.attr) PATTERN {} WITHIN 6 SLIDE 2",
            PROJECTED[q_idx]
        );
        let q = CompiledQuery::parse(&text, &reg).unwrap();
        let events: Vec<_> = build_named_events(&reg, &raw)
            .into_iter()
            .map(Event::into_ref)
            .collect();
        let split = split_at.min(events.len());
        let mut uninterrupted = GretaEngine::<f64>::new(q, reg).unwrap();
        for e in &events[..split] {
            uninterrupted.process_ref(e).unwrap();
        }
        let blob = uninterrupted.export_state();
        let plan = uninterrupted.plan().clone();
        let mut importer = GretaEngine::<f64>::import_state(plan, &blob).unwrap();
        prop_assert_eq!(importer.memory_bytes(), uninterrupted.memory_bytes());
        prop_assert_eq!(importer.export_state(), blob);
        let (mut expect, mut got) = (uninterrupted.poll_results(), importer.poll_results());
        for e in &events[split..] {
            uninterrupted.process_ref(e).unwrap();
            expect.extend(uninterrupted.poll_results());
            importer.process_ref(e).unwrap();
            got.extend(importer.poll_results());
        }
        expect.extend(uninterrupted.finish());
        got.extend(importer.finish());
        prop_assert_eq!(got, expect, "{} split at {}", text, split);
        prop_assert_eq!(importer.stats().edges, uninterrupted.stats().edges);
    }
}

/// Types with a string attribute, for residual predicates over strings.
fn named_registry() -> SchemaRegistry {
    let mut reg = SchemaRegistry::new();
    for t in ["A", "B", "C", "D", "E"] {
        reg.register_type(t, &["attr", "g", "name"]).unwrap();
    }
    reg
}

/// Patterns whose edge predicates the sorted runs cannot answer alone, so
/// vertices keep projected values: a residual over a non-sort attribute, a
/// non-linear one, one over a string, one `!=`, a state whose two
/// successors read different attributes, and residuals inside negative
/// sub-patterns.
const PROJECTED: &[&str] = &[
    "SEQ(A+, B) WHERE A.attr > NEXT(A).attr AND A.g <= NEXT(A).g",
    "A+ WHERE A.attr * A.g < NEXT(A).attr",
    "A+ WHERE A.attr >= NEXT(A).attr AND A.name < NEXT(A).name",
    "A+ WHERE A.attr != NEXT(A).attr",
    "SEQ(A+, B) WHERE A.attr > NEXT(A).attr AND A.g <= NEXT(A).g AND A.name != NEXT(B).name",
    "SEQ(A+, NOT SEQ(C, D), B) WHERE C.attr > NEXT(D).attr AND C.g = NEXT(D).g",
    "(SEQ(A+, NOT SEQ(C, NOT E, D), B))+ WHERE C.name != NEXT(D).name",
    "SEQ(A+, NOT C) WHERE A.attr <= NEXT(A).attr AND A.name = NEXT(A).name",
];

fn arb_named_stream() -> impl Strategy<Value = Vec<(u8, u8, i8, i8, u8)>> {
    // (type 0..5, time-delta 0..3, attr, group, name 0..3)
    prop::collection::vec((0u8..5, 0u8..3, 0i8..6, 0i8..2, 0u8..3), 0..14)
}

fn build_named_events(reg: &SchemaRegistry, raw: &[(u8, u8, i8, i8, u8)]) -> Vec<Event> {
    let names = ["A", "B", "C", "D", "E"];
    let strings = ["x", "yy", "zzz"];
    let mut t = 0u64;
    raw.iter()
        .map(|(ty, dt, attr, g, name)| {
            t += *dt as u64;
            EventBuilder::new(reg, names[*ty as usize])
                .unwrap()
                .at(Time(t))
                .set("attr", *attr as i64)
                .unwrap()
                .set("g", *g as i64)
                .unwrap()
                .set("name", strings[*name as usize])
                .unwrap()
                .build()
        })
        .collect()
}
