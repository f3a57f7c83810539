//! Property checks of the paper's formal claims:
//!
//! * Lemma 1 — no positive pattern matches the empty trend;
//! * Theorem 4.1 — start/end event types are unique and total;
//! * Theorem 4.3/4.4 — monotonicity and window-slicing consistency of the
//!   incremental count;
//! * Theorem 8.1 — vertex count is linear and edge count quadratic in the
//!   number of events.

use greta::core::GretaEngine;
use greta::query::ast::Pattern;
use greta::query::pattern::{desugar, simplify, validate};
use greta::query::template::{LPattern, Template};
use greta::query::CompiledQuery;
use greta::types::{Event, EventBuilder, SchemaRegistry, Time};
use proptest::prelude::*;

fn registry() -> SchemaRegistry {
    let mut reg = SchemaRegistry::new();
    for t in ["A", "B", "C", "D"] {
        reg.register_type(t, &["attr"]).unwrap();
    }
    reg
}

/// Random positive pattern generator (types A–D, depth-limited).
fn arb_pattern() -> impl Strategy<Value = Pattern> {
    let leaf = (0u8..4).prop_map(|i| Pattern::ty(["A", "B", "C", "D"][i as usize]));
    leaf.prop_recursive(3, 12, 3, |inner| {
        prop_oneof![
            inner.clone().prop_map(Pattern::plus),
            inner.clone().prop_map(Pattern::star),
            inner.clone().prop_map(Pattern::optional),
            proptest::collection::vec(inner, 2..4).prop_map(Pattern::seq),
        ]
    })
}

fn arb_stream() -> impl Strategy<Value = Vec<(u8, u8)>> {
    proptest::collection::vec((0u8..4, 1u8..3), 0..12)
}

fn build_events(reg: &SchemaRegistry, raw: &[(u8, u8)]) -> Vec<Event> {
    let names = ["A", "B", "C", "D"];
    let mut t = 0u64;
    raw.iter()
        .map(|(ty, dt)| {
            t += *dt as u64;
            EventBuilder::new(reg, names[*ty as usize])
                .unwrap()
                .at(Time(t))
                .build()
        })
        .collect()
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 128, ..ProptestConfig::default() })]

    /// Lemma 1 + Theorem 4.1: desugared positive patterns build templates
    /// with well-defined unique start/end states, and never an empty
    /// alternative.
    #[test]
    fn lemma_1_and_theorem_4_1(p in arb_pattern()) {
        let p = simplify(p);
        prop_assume!(validate(&p).is_ok());
        let Ok(alts) = desugar(&p) else { return Ok(()) }; // plus-over-star combos are rejected
        prop_assert!(!alts.is_empty());
        for alt in alts {
            let lp = LPattern::locate(&alt).unwrap();
            let t = Template::build(&lp).unwrap();
            prop_assert!(!t.states.is_empty(), "no empty trend alternative (Lemma 1)");
            prop_assert!(t.state(t.start).is_some(), "start total (Thm 4.1)");
            prop_assert!(t.state(t.end).is_some(), "end total (Thm 4.1)");
        }
    }

    /// Theorem 4.3 corollary: for positive patterns, appending an event
    /// never decreases any window's COUNT(*) (trends are only added).
    #[test]
    fn count_is_monotone_in_the_stream(p in arb_pattern(), raw in arb_stream()) {
        let reg = registry();
        let p = simplify(p);
        prop_assume!(validate(&p).is_ok());
        let spec = greta::query::QuerySpec::count_star(p, 1_000);
        let Ok(q) = CompiledQuery::compile(&spec, &reg) else { return Ok(()) };
        let events = build_events(&reg, &raw);
        let mut prev_total = 0.0;
        for cut in 0..=events.len() {
            let mut engine = GretaEngine::<f64>::new(q.clone(), reg.clone()).unwrap();
            let rows = engine.run(&events[..cut]).unwrap();
            let total: f64 = rows.iter().map(|r| r.values[0].to_f64()).sum();
            prop_assert!(total >= prev_total, "count dropped at cut {cut}");
            prev_total = total;
        }
    }

    /// Window-sharing correctness: each window of a sliding run equals an
    /// independent tumbling run over exactly that window's event slice.
    #[test]
    fn shared_windows_equal_independent_windows(raw in arb_stream()) {
        let reg = registry();
        let sliding = CompiledQuery::parse(
            "RETURN COUNT(*) PATTERN (SEQ(A+, B))+ WITHIN 6 SLIDE 2",
            &reg,
        ).unwrap();
        let events = build_events(&reg, &raw);
        let mut engine = GretaEngine::<f64>::new(sliding.clone(), reg.clone()).unwrap();
        let rows = engine.run(&events).unwrap();
        for row in rows {
            let ws = row.window * 2;
            let we = ws + 6;
            // Re-run the window's slice through a fresh huge tumbling window.
            let slice: Vec<Event> = events
                .iter()
                .filter(|e| e.time.ticks() >= ws && e.time.ticks() < we)
                .cloned()
                .collect();
            let tumbling = CompiledQuery::parse(
                "RETURN COUNT(*) PATTERN (SEQ(A+, B))+ WITHIN 1000000 SLIDE 1000000",
                &reg,
            ).unwrap();
            let mut fresh = GretaEngine::<f64>::new(tumbling, reg.clone()).unwrap();
            let expect: f64 = fresh
                .run(&slice)
                .unwrap()
                .iter()
                .map(|r| r.values[0].to_f64())
                .sum();
            prop_assert_eq!(row.values[0].to_f64(), expect, "window {}", row.window);
        }
    }

    /// Theorem 8.1: vertices ≤ events × states (linear space) and edges ≤
    /// (events × states)² (quadratic time), for every random run.
    #[test]
    fn theorem_8_1_resource_bounds(p in arb_pattern(), raw in arb_stream()) {
        let reg = registry();
        let p = simplify(p);
        prop_assume!(validate(&p).is_ok());
        let spec = greta::query::QuerySpec::count_star(p, 1_000);
        let Ok(q) = CompiledQuery::compile(&spec, &reg) else { return Ok(()) };
        let max_states: usize = q
            .alternatives
            .iter()
            .map(|a| a.graphs.iter().map(|g| g.template.states.len()).sum::<usize>())
            .max()
            .unwrap_or(0);
        let events = build_events(&reg, &raw);
        let mut engine = GretaEngine::<f64>::new(q, reg.clone()).unwrap();
        engine.run(&events).unwrap();
        let stats = engine.stats();
        let n = events.len() as u64;
        let s = max_states as u64 * q_alt_count(&engine);
        prop_assert!(stats.vertices <= n * s.max(1), "linear space bound");
        let cap = (n * s.max(1)).pow(2);
        prop_assert!(stats.edges <= cap.max(1), "quadratic edge bound");
    }
}

fn q_alt_count<N: greta::core::TrendNum>(e: &GretaEngine<N>) -> u64 {
    e.query().alternatives.len() as u64
}

#[test]
fn complexity_is_quadratic_not_exponential() {
    // Doubling the (fully compatible) event count must ~4x the edge count,
    // never 2^n it. n=64 vs n=128 under A+.
    let reg = registry();
    let q = CompiledQuery::parse(
        "RETURN COUNT(*) PATTERN A+ WITHIN 100000 SLIDE 100000",
        &reg,
    )
    .unwrap();
    let run = |n: u64| {
        let mut engine = GretaEngine::<f64>::new(q.clone(), reg.clone()).unwrap();
        for t in 0..n {
            engine
                .process_ref(
                    &EventBuilder::new(&reg, "A")
                        .unwrap()
                        .at(Time(t))
                        .build()
                        .into_ref(),
                )
                .unwrap();
        }
        engine.finish();
        engine.stats().edges
    };
    let e64 = run(64);
    let e128 = run(128);
    assert_eq!(e64, 64 * 63 / 2);
    assert_eq!(e128, 128 * 127 / 2);
    assert!(e128 < e64 * 5); // quadratic scaling, not exponential
}
