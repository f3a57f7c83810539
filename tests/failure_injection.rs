//! Failure injection and boundary conditions: out-of-order input, empty
//! streams, same-timestamp floods, degenerate windows, engine lifecycle
//! misuse — the engine must fail loudly (typed errors) or behave exactly
//! per spec, never corrupt state.

use greta::core::{EngineError, GretaEngine, MemoryFootprint, ReorderBuffer};
use greta::query::CompiledQuery;
use greta::types::{Event, EventBuilder, SchemaRegistry, Time};

fn registry() -> SchemaRegistry {
    let mut reg = SchemaRegistry::new();
    reg.register_type("A", &["attr"]).unwrap();
    reg.register_type("B", &["attr"]).unwrap();
    reg.register_type("Z", &["attr"]).unwrap(); // not in any query
    reg
}

fn ev(reg: &SchemaRegistry, ty: &str, t: u64) -> Event {
    EventBuilder::new(reg, ty).unwrap().at(Time(t)).build()
}

fn count_query(reg: &SchemaRegistry) -> CompiledQuery {
    CompiledQuery::parse("RETURN COUNT(*) PATTERN A+ WITHIN 100 SLIDE 100", reg).unwrap()
}

#[test]
fn out_of_order_event_is_rejected_and_engine_survives() {
    let reg = registry();
    let mut engine = GretaEngine::<u64>::new(count_query(&reg), reg.clone()).unwrap();
    engine.process_ref(&ev(&reg, "A", 10).into_ref()).unwrap();
    let err = engine
        .process_ref(&ev(&reg, "A", 5).into_ref())
        .unwrap_err();
    assert!(matches!(
        err,
        EngineError::OutOfOrder {
            watermark: 10,
            got: 5
        }
    ));
    // The engine keeps working for in-order input after the rejection.
    engine.process_ref(&ev(&reg, "A", 11).into_ref()).unwrap();
    let rows = engine.finish();
    assert_eq!(rows[0].values[0].to_f64(), 3.0); // {a10},{a11},(a10,a11)
}

#[test]
fn empty_stream_produces_no_rows() {
    let reg = registry();
    let mut engine = GretaEngine::<u64>::new(count_query(&reg), reg.clone()).unwrap();
    assert!(engine.finish().is_empty());
    assert_eq!(engine.memory_bytes(), 0);
}

#[test]
fn stream_of_only_irrelevant_types_produces_no_rows() {
    let reg = registry();
    let mut engine = GretaEngine::<u64>::new(count_query(&reg), reg.clone()).unwrap();
    for t in 0..50 {
        engine.process_ref(&ev(&reg, "Z", t).into_ref()).unwrap();
    }
    assert!(engine.finish().is_empty());
    assert_eq!(engine.stats().vertices, 0);
}

#[test]
fn same_timestamp_flood_yields_singletons_only() {
    // 100 a's at the same tick: Def. 1 adjacency needs strictly increasing
    // times, so no pair connects — exactly 100 single-event trends.
    let reg = registry();
    let mut engine = GretaEngine::<u64>::new(count_query(&reg), reg.clone()).unwrap();
    for _ in 0..100 {
        engine.process_ref(&ev(&reg, "A", 7).into_ref()).unwrap();
    }
    let rows = engine.finish();
    assert_eq!(rows[0].values[0].to_f64(), 100.0);
    assert_eq!(engine.stats().edges, 0);
}

#[test]
fn window_shorter_than_slide_samples_the_stream() {
    // WITHIN 2 SLIDE 5: only events with t mod 5 < 2 are in any window.
    let reg = registry();
    let q = CompiledQuery::parse("RETURN COUNT(*) PATTERN A+ WITHIN 2 SLIDE 5", &reg).unwrap();
    let mut engine = GretaEngine::<u64>::new(q, reg.clone()).unwrap();
    for t in 0..20u64 {
        engine.process_ref(&ev(&reg, "A", t).into_ref()).unwrap();
    }
    let rows = engine.finish();
    // Windows [0,2), [5,7), [10,12), [15,17): each holds 2 events ⇒ 3 trends.
    assert_eq!(rows.len(), 4);
    assert!(rows.iter().all(|r| r.values[0].to_f64() == 3.0));
}

#[test]
fn finish_is_idempotent() {
    let reg = registry();
    let mut engine = GretaEngine::<u64>::new(count_query(&reg), reg.clone()).unwrap();
    engine.process_ref(&ev(&reg, "A", 1).into_ref()).unwrap();
    let first = engine.finish();
    assert_eq!(first.len(), 1);
    assert!(engine.finish().is_empty()); // already drained
    assert!(engine.poll_results().is_empty());
}

#[test]
fn saturating_u64_carrier_never_wraps() {
    // 80 mutually-compatible events drive counts past 2^64; the u64
    // carrier must saturate at u64::MAX instead of wrapping to nonsense.
    let reg = registry();
    let q =
        CompiledQuery::parse("RETURN COUNT(*) PATTERN A+ WITHIN 1000 SLIDE 1000", &reg).unwrap();
    let mut engine = GretaEngine::<u64>::new(q, reg.clone()).unwrap();
    for t in 0..80u64 {
        engine.process_ref(&ev(&reg, "A", t).into_ref()).unwrap();
    }
    let rows = engine.finish();
    match &rows[0].values[0] {
        greta::core::OutValue::Count(c) => assert_eq!(*c, u64::MAX),
        other => panic!("unexpected {other:?}"),
    }
}

#[test]
fn biguint_carrier_is_exact_past_u64() {
    use greta_bignum::BigUint;
    let reg = registry();
    let q =
        CompiledQuery::parse("RETURN COUNT(*) PATTERN A+ WITHIN 1000 SLIDE 1000", &reg).unwrap();
    let mut engine = GretaEngine::<BigUint>::new(q, reg.clone()).unwrap();
    for t in 0..80u64 {
        engine.process_ref(&ev(&reg, "A", t).into_ref()).unwrap();
    }
    let rows = engine.finish();
    // 2^80 - 1, exactly.
    assert_eq!(rows[0].values[0].to_string(), "1208925819614629174706175");
}

#[test]
fn reorder_buffer_rescues_moderately_disordered_input() {
    let reg = registry();
    let mut engine = GretaEngine::<u64>::new(count_query(&reg), reg.clone()).unwrap();
    let mut buf = ReorderBuffer::new(5);
    let times = [2u64, 1, 3, 6, 4, 8, 7, 12, 10];
    let mut dropped = 0;
    for t in times {
        match buf.push(ev(&reg, "A", t).into_ref()) {
            Ok(ready) => {
                for e in ready {
                    engine.process_ref(&e).unwrap();
                }
            }
            Err(_) => dropped += 1,
        }
    }
    for e in buf.flush() {
        engine.process_ref(&e).unwrap();
    }
    assert_eq!(dropped, 0);
    let rows = engine.finish();
    assert_eq!(rows[0].values[0].to_f64(), (1u64 << 9) as f64 - 1.0);
}

#[test]
fn huge_time_gaps_do_not_blow_memory_or_panic() {
    let reg = registry();
    let q = CompiledQuery::parse("RETURN COUNT(*) PATTERN A+ WITHIN 10 SLIDE 10", &reg).unwrap();
    let mut engine = GretaEngine::<u64>::new(q, reg.clone()).unwrap();
    for t in [0u64, 1_000_000, 2_000_000_000, 4_000_000_000_000] {
        engine.process_ref(&ev(&reg, "A", t).into_ref()).unwrap();
    }
    let rows = engine.finish();
    assert_eq!(rows.len(), 4);
    assert!(engine.memory_bytes() < 64 * 1024);
}

#[test]
fn max_timestamp_does_not_overflow_window_arithmetic() {
    let reg = registry();
    let q = CompiledQuery::parse("RETURN COUNT(*) PATTERN A+ WITHIN 10 SLIDE 10", &reg).unwrap();
    let mut engine = GretaEngine::<u64>::new(q, reg.clone()).unwrap();
    // A very large (but not MAX, to keep wid*slide+within in range) stamp.
    engine
        .process_ref(&ev(&reg, "A", u64::MAX / 4).into_ref())
        .unwrap();
    let rows = engine.finish();
    assert_eq!(rows.len(), 1);
}

#[test]
fn events_with_zero_attributes_work() {
    let mut reg = SchemaRegistry::new();
    reg.register_type("N", &[]).unwrap();
    let q = CompiledQuery::parse("RETURN COUNT(*) PATTERN N+ WITHIN 10 SLIDE 10", &reg).unwrap();
    let mut engine = GretaEngine::<u64>::new(q, reg.clone()).unwrap();
    for t in 0..4u64 {
        let e = EventBuilder::new(&reg, "N").unwrap().at(Time(t)).build();
        engine.process_ref(&e.into_ref()).unwrap();
    }
    let rows = engine.finish();
    assert_eq!(rows[0].values[0].to_f64(), 15.0);
}

#[test]
fn vertex_predicate_that_rejects_everything() {
    let reg = registry();
    let q = CompiledQuery::parse(
        "RETURN COUNT(*) PATTERN A S+ WHERE S.attr > 100 WITHIN 10 SLIDE 10",
        &reg,
    )
    .unwrap();
    let mut engine = GretaEngine::<u64>::new(q, reg.clone()).unwrap();
    for t in 0..10u64 {
        engine.process_ref(&ev(&reg, "A", t).into_ref()).unwrap();
    }
    assert!(engine.finish().is_empty());
    assert_eq!(engine.stats().vertices, 0);
}
