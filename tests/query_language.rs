//! Query-language integration tests: the three motivating queries of §1
//! parse, compile and execute; the grammar of Fig. 2 round-trips; error
//! paths produce actionable diagnostics.

use greta::query::{parse_query, CompiledQuery, QueryError};
use greta::types::SchemaRegistry;

fn full_registry() -> SchemaRegistry {
    let mut reg = SchemaRegistry::new();
    reg.register_type(
        "Stock",
        &["price", "volume", "company", "sector", "kind", "txn"],
    )
    .unwrap();
    reg.register_type("Start", &["job", "mapper"]).unwrap();
    reg.register_type("Measurement", &["job", "mapper", "cpu", "memory", "load"])
        .unwrap();
    reg.register_type("End", &["job", "mapper"]).unwrap();
    reg.register_type("Accident", &["segment"]).unwrap();
    reg.register_type("Position", &["vehicle", "segment", "position", "speed"])
        .unwrap();
    reg
}

const Q1: &str = "RETURN sector, COUNT(*) PATTERN Stock S+ \
                  WHERE [company, sector] AND S.price > NEXT(S).price \
                  GROUP-BY sector WITHIN 10 minutes SLIDE 10 seconds";
const Q2: &str = "RETURN mapper, SUM(M.cpu) \
                  PATTERN SEQ(Start S, Measurement M+, End E) \
                  WHERE [job, mapper] AND M.load < NEXT(M).load \
                  GROUP-BY mapper WITHIN 1 minute SLIDE 30 seconds";
const Q3: &str = "RETURN segment, COUNT(*), AVG(P.speed) \
                  PATTERN SEQ(NOT Accident A, Position P+) \
                  WHERE [P.vehicle, segment] AND P.speed > NEXT(P).speed \
                  GROUP-BY segment WITHIN 5 minutes SLIDE 1 minute";

#[test]
fn paper_queries_parse_and_compile() {
    let reg = full_registry();
    for (name, text) in [("Q1", Q1), ("Q2", Q2), ("Q3", Q3)] {
        let spec = parse_query(text).unwrap_or_else(|e| panic!("{name}: {e}"));
        assert!(spec.pattern.has_kleene(), "{name} is a Kleene pattern");
        let q = CompiledQuery::compile(&spec, &reg).unwrap_or_else(|e| panic!("{name}: {e}"));
        assert_eq!(q.alternatives.len(), 1);
    }
}

#[test]
fn q1_window_durations_convert_to_ticks() {
    let spec = parse_query(Q1).unwrap();
    assert_eq!(spec.window.within, 600);
    assert_eq!(spec.window.slide, 10);
    // k = within/slide windows per event (Theorem 8.1's k).
    assert_eq!(spec.window.windows_per_event(), 60);
}

#[test]
fn q3_splits_into_positive_and_negative_graphs() {
    let reg = full_registry();
    let q = CompiledQuery::parse(Q3, &reg).unwrap();
    let alt = &q.alternatives[0];
    assert_eq!(alt.graphs.len(), 2);
    assert!(!alt.graphs[0].is_negative());
    assert!(alt.graphs[1].is_negative());
    assert_eq!(alt.graphs[1].previous, None); // leading negation (Case 3)
    assert!(alt.graphs[1].following.is_some());
}

#[test]
fn q1_variations_with_price_factors() {
    // The §10.1 query variations: S.price * X < NEXT(S).price.
    let reg = full_registry();
    for x in ["1", "1.05", "1.1", "1.15", "1.2"] {
        let text = format!(
            "RETURN sector, COUNT(*) PATTERN Stock S+ \
             WHERE [company, sector] AND S.price * {x} < NEXT(S).price \
             GROUP-BY sector WITHIN 600 SLIDE 10"
        );
        let q = CompiledQuery::parse(&text, &reg).unwrap();
        let ep = &q.alternatives[0].predicates.edges[0];
        let rf = ep
            .range
            .as_ref()
            .expect("linear predicate gets a range form");
        assert!((rf.scale - x.parse::<f64>().unwrap()).abs() < 1e-12);
    }
}

#[test]
fn grammar_sugar_round_trips() {
    let reg = full_registry();
    // Star and optional desugar into disjoint alternatives (§9).
    let q = CompiledQuery::parse(
        "RETURN COUNT(*) PATTERN SEQ(Start S?, Measurement M+, End E?) WITHIN 60 SLIDE 60",
        &reg,
    )
    .unwrap();
    assert_eq!(q.alternatives.len(), 4);
}

#[test]
fn error_diagnostics() {
    let reg = full_registry();
    // Unknown event type.
    let err =
        CompiledQuery::parse("RETURN COUNT(*) PATTERN Bond B+ WITHIN 1 SLIDE 1", &reg).unwrap_err();
    assert!(err.to_string().contains("Bond"), "{err}");
    // Unknown attribute in aggregate.
    let err = CompiledQuery::parse(
        "RETURN MIN(S.prize) PATTERN Stock S+ WITHIN 1 SLIDE 1",
        &reg,
    )
    .unwrap_err();
    assert!(err.to_string().contains("prize"), "{err}");
    // Outermost negation.
    let err = CompiledQuery::parse("RETURN COUNT(*) PATTERN NOT Stock WITHIN 1 SLIDE 1", &reg)
        .unwrap_err();
    assert!(matches!(err, QueryError::InvalidPattern(_)), "{err}");
    // Zero window.
    let err = CompiledQuery::parse("RETURN COUNT(*) PATTERN Stock S+ WITHIN 0 SLIDE 1", &reg)
        .unwrap_err();
    assert!(matches!(err, QueryError::InvalidWindow(_)), "{err}");
    // Lex error positions point at the offending byte.
    let err = parse_query("RETURN COUNT(*) PATTERN ☃").unwrap_err();
    assert!(matches!(err, QueryError::Lex { .. }), "{err}");
}

#[test]
fn minimal_trend_length_unrolling() {
    // §9: A+ with minimal length 3 = SEQ(A, A, A+); exercised through the
    // public pattern API and executable end to end.
    use greta::query::ast::Pattern;
    use greta::query::pattern::unroll_plus;
    let p = Pattern::ty("Stock").plus();
    let unrolled = unroll_plus(&p, 3).unwrap();
    let spec = greta::query::QuerySpec::count_star(unrolled, 100);
    let reg = full_registry();
    let q = CompiledQuery::compile(&spec, &reg).unwrap();
    // Three occurrences of Stock — one state each.
    assert_eq!(q.alternatives[0].graphs[0].template.states.len(), 3);

    // Executing: with 4 events, trends of length ≥ 3: C(4,3) + C(4,4) = 5.
    use greta::core::GretaEngine;
    use greta::types::{EventBuilder, Time};
    let mut engine = GretaEngine::<u64>::new(q, reg.clone()).unwrap();
    for t in 1..=4u64 {
        let e = EventBuilder::new(&reg, "Stock")
            .unwrap()
            .at(Time(t))
            .build();
        engine.process_ref(&e.into_ref()).unwrap();
    }
    let rows = engine.finish();
    assert_eq!(rows[0].values[0].to_f64(), 5.0);
}

#[test]
fn disjunction_compiles_for_disjoint_types() {
    let reg = full_registry();
    let q = CompiledQuery::parse(
        "RETURN COUNT(*) PATTERN Stock S+ OR Position P+ WITHIN 100 SLIDE 100",
        &reg,
    )
    .unwrap();
    assert_eq!(q.alternatives.len(), 2);
}
