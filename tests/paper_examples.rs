//! Integration tests reproducing the paper's worked examples exactly:
//!
//! * Example 1 / Fig. 12 — all six aggregates of `(SEQ(A+, B))+`;
//! * Fig. 6(a–c) — graph shapes and counts for `A+`, `SEQ(A+, B)`,
//!   `(SEQ(A+, B))+`;
//! * Fig. 13 — multiple occurrences of an event type in one pattern.

use greta::baselines::oracle_run;
use greta::core::GretaEngine;
use greta::query::CompiledQuery;
use greta::types::{Event, EventBuilder, SchemaRegistry, Time};

fn registry() -> SchemaRegistry {
    let mut reg = SchemaRegistry::new();
    reg.register_type("A", &["attr"]).unwrap();
    reg.register_type("B", &["attr"]).unwrap();
    reg
}

fn ev(reg: &SchemaRegistry, ty: &str, t: u64, attr: f64) -> Event {
    EventBuilder::new(reg, ty)
        .unwrap()
        .at(Time(t))
        .set("attr", attr)
        .unwrap()
        .build()
}

/// Stream of Fig. 12: {a1, b2, a3, a4, b7}, attrs 5/·/6/4/·.
fn figure_12_stream(reg: &SchemaRegistry) -> Vec<Event> {
    vec![
        ev(reg, "A", 1, 5.0),
        ev(reg, "B", 2, 0.0),
        ev(reg, "A", 3, 6.0),
        ev(reg, "A", 4, 4.0),
        ev(reg, "B", 7, 0.0),
    ]
}

/// Stream of Fig. 6: {a1, b2, a3, a4, b7, a8, b9}.
fn figure_6_stream(reg: &SchemaRegistry) -> Vec<Event> {
    let mut evs = figure_12_stream(reg);
    evs.push(ev(reg, "A", 8, 0.0));
    evs.push(ev(reg, "B", 9, 0.0));
    evs
}

fn count_of(pattern: &str, events: &[Event], reg: &SchemaRegistry) -> f64 {
    let q = CompiledQuery::parse(
        &format!("RETURN COUNT(*) PATTERN {pattern} WITHIN 1000 SLIDE 1000"),
        reg,
    )
    .unwrap();
    let mut engine = GretaEngine::<u64>::new(q, reg.clone()).unwrap();
    let rows = engine.run(events).unwrap();
    rows.first().map(|r| r.values[0].to_f64()).unwrap_or(0.0)
}

#[test]
fn example_1_figure_12_all_aggregates() {
    let reg = registry();
    let q = CompiledQuery::parse(
        "RETURN COUNT(*), COUNT(A), MIN(A.attr), MAX(A.attr), SUM(A.attr), AVG(A.attr) \
         PATTERN (SEQ(A+, B))+ WITHIN 1000 SLIDE 1000",
        &reg,
    )
    .unwrap();
    let mut engine = GretaEngine::<u64>::new(q.clone(), reg.clone()).unwrap();
    let rows = engine.run(&figure_12_stream(&reg)).unwrap();
    let values: Vec<f64> = rows[0].values.iter().map(|v| v.to_f64()).collect();
    assert_eq!(values, vec![11.0, 20.0, 4.0, 6.0, 100.0, 5.0]);

    // The oracle (full enumeration) agrees on every aggregate.
    let oracle = oracle_run(&q, &reg, &figure_12_stream(&reg));
    let ovals: Vec<f64> = oracle[0].values.iter().map(|v| v.to_f64()).collect();
    assert_eq!(values, ovals);
}

#[test]
fn figure_6a_flat_kleene() {
    // A+ over the Fig. 6 stream: b's are irrelevant; 4 a's ⇒ 2^4 − 1 = 15.
    let reg = registry();
    assert_eq!(count_of("A+", &figure_6_stream(&reg), &reg), 15.0);
}

#[test]
fn figure_6b_seq_kleene() {
    // SEQ(A+, B): b's may not precede a's in a trend (no loop back).
    // By Thm 4.3: b2←{a1}:1, b7←{a1,a3,a4}: counts 1,3,6 ⇒ 10... but
    // SEQ(A+,B) has no B→A transition, so a3 = 1 + a1 = 2, a4 = 1+a1+a3 = 4,
    // b7 = a1+a3+a4 = 7, a8 = 1+a1+a3+a4 = 8, b9 = a1+a3+a4+a8 = 15.
    // Final = b2 + b7 + b9 = 1 + 7 + 15 = 23.
    let reg = registry();
    assert_eq!(count_of("SEQ(A+, B)", &figure_6_stream(&reg), &reg), 23.0);
}

#[test]
fn figure_6c_nested_kleene_counts_43() {
    let reg = registry();
    assert_eq!(
        count_of("(SEQ(A+, B))+", &figure_6_stream(&reg), &reg),
        43.0
    );
}

#[test]
fn figure_6_counts_match_oracle() {
    let reg = registry();
    let evs = figure_6_stream(&reg);
    for pattern in ["A+", "SEQ(A+, B)", "(SEQ(A+, B))+", "SEQ(A, B)"] {
        let q = CompiledQuery::parse(
            &format!("RETURN COUNT(*) PATTERN {pattern} WITHIN 1000 SLIDE 1000"),
            &reg,
        )
        .unwrap();
        let greta = count_of(pattern, &evs, &reg);
        let oracle = oracle_run(&q, &reg, &evs)
            .first()
            .map(|r| r.values[0].to_f64())
            .unwrap_or(0.0);
        assert_eq!(greta, oracle, "{pattern}");
    }
}

#[test]
fn figure_13_multiple_type_occurrences() {
    // §9 / Fig. 13: SEQ(A1+, B2, A3, A4+, B5+) over {a1, b2, a3, a4, b5}.
    // Hand-computed per the modified insertion rules:
    //  a1→A1 (start, count 1); b2→B2 (count 1);
    //  a3→A1 (count 2: start + a1), a3→A3 (count 1: via b2);
    //  a4→A1 (count 4), a4→A3 (count 1: b2), a4→A4 (count 1: a3@A3);
    //  b5→B2 (count 6: a1+a3@A1+a4@A1), b5→B5 (count 2: a4@A4 + a4? —
    //  A4+ loop: a4@A4 count includes a3@A3→a4@A4 path).
    // Rather than trusting hand arithmetic, require GRETA == oracle and a
    // positive count.
    let reg = registry();
    let evs = vec![
        ev(&reg, "A", 1, 0.0),
        ev(&reg, "B", 2, 0.0),
        ev(&reg, "A", 3, 0.0),
        ev(&reg, "A", 4, 0.0),
        ev(&reg, "B", 5, 0.0),
    ];
    let pattern = "SEQ(A A1+, B B2, A A3, A A4+, B B5+)";
    let q = CompiledQuery::parse(
        &format!("RETURN COUNT(*) PATTERN {pattern} WITHIN 1000 SLIDE 1000"),
        &reg,
    )
    .unwrap();
    // The template has five states over two event types.
    assert_eq!(q.alternatives[0].graphs[0].template.states.len(), 5);
    let greta = count_of(pattern, &evs, &reg);
    let oracle = oracle_run(&q, &reg, &evs)
        .first()
        .map(|r| r.values[0].to_f64())
        .unwrap_or(0.0);
    assert_eq!(greta, oracle);
    // Exactly one trend exists: a1 b2 a3 a4 b5 (each state needs ≥1 event).
    assert_eq!(greta, 1.0);
}

#[test]
fn figure_13_multiplicity_with_more_events() {
    // More events make several interleavings; GRETA must match the oracle.
    let reg = registry();
    let evs = vec![
        ev(&reg, "A", 1, 0.0),
        ev(&reg, "A", 2, 0.0),
        ev(&reg, "B", 3, 0.0),
        ev(&reg, "A", 4, 0.0),
        ev(&reg, "A", 5, 0.0),
        ev(&reg, "B", 6, 0.0),
        ev(&reg, "B", 7, 0.0),
    ];
    for pattern in [
        "SEQ(A A1+, B B2, A A3)",
        "SEQ(A A1, B B2, A A3+)",
        "SEQ(A A1+, B B2, A A3, A A4+, B B5+)",
    ] {
        let q = CompiledQuery::parse(
            &format!("RETURN COUNT(*) PATTERN {pattern} WITHIN 1000 SLIDE 1000"),
            &reg,
        )
        .unwrap();
        let greta = count_of(pattern, &evs, &reg);
        let oracle = oracle_run(&q, &reg, &evs)
            .first()
            .map(|r| r.values[0].to_f64())
            .unwrap_or(0.0);
        assert_eq!(greta, oracle, "{pattern}");
    }
}

#[test]
fn skip_till_any_detects_long_downtrend() {
    // §2's motivating stream: {10, 2, 9, 8, 7, 1, 6, 5, 4, 3} — the
    // down-trend (10,9,8,7,6,5,4,3) of length 8 must be among the matches,
    // i.e. the count must include trends that skip the local fluctuations.
    let reg = registry();
    let prices = [10.0, 2.0, 9.0, 8.0, 7.0, 1.0, 6.0, 5.0, 4.0, 3.0];
    let evs: Vec<Event> = prices
        .iter()
        .enumerate()
        .map(|(i, p)| ev(&reg, "A", i as u64 + 1, *p))
        .collect();
    let q = CompiledQuery::parse(
        "RETURN COUNT(*), MIN(A.attr), MAX(A.attr) PATTERN A S+ \
         WHERE S.attr > NEXT(S).attr WITHIN 1000 SLIDE 1000",
        &reg,
    )
    .unwrap();
    let mut engine = GretaEngine::<u64>::new(q.clone(), reg.clone()).unwrap();
    let rows = engine.run(&evs).unwrap();
    let count = rows[0].values[0].to_f64();
    let oracle = oracle_run(&q, &reg, &evs)[0].values[0].to_f64();
    assert_eq!(count, oracle);
    // There are many down-trends; the longest one implies at least 2^8 - 1
    // sub-trends within its 8 events alone.
    assert!(count >= 255.0, "count={count}");
}
