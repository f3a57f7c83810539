//! End-to-end runs of the three paper queries (Q1/Q2/Q3, §1) on their
//! respective generated workloads, plus distribution sanity checks at the
//! integration level.

use greta::core::{GretaEngine, MemoryFootprint};
use greta::query::CompiledQuery;
use greta::types::SchemaRegistry;
use greta::workloads::{
    ClusterConfig, ClusterGen, LinearRoadConfig, LinearRoadGen, StockConfig, StockGen,
};

#[test]
fn q1_on_stock_workload() {
    let mut reg = SchemaRegistry::new();
    let gen = StockGen::new(
        StockConfig {
            events: 2000,
            ..Default::default()
        },
        &mut reg,
    )
    .unwrap();
    let events = gen.generate();
    let q = CompiledQuery::parse(
        "RETURN sector, COUNT(*) PATTERN Stock S+ \
         WHERE [company, sector] AND S.price > NEXT(S).price \
         GROUP-BY sector WITHIN 500 SLIDE 250",
        &reg,
    )
    .unwrap();
    let mut engine = GretaEngine::<f64>::new(q, reg.clone()).unwrap();
    let rows = engine.run(&events).unwrap();
    assert!(!rows.is_empty());
    // 3 sectors × several windows; each row has a positive count.
    let sectors: std::collections::HashSet<String> = rows
        .iter()
        .map(|r| r.group.0[0].as_ref().unwrap().to_string())
        .collect();
    assert_eq!(sectors.len(), 3);
    assert!(rows.iter().all(|r| r.values[0].to_f64() > 0.0));
    assert!(engine.peak_memory_bytes() > 0);
}

#[test]
fn q2_on_cluster_workload() {
    let mut reg = SchemaRegistry::new();
    let gen = ClusterGen::new(
        ClusterConfig {
            events: 4000,
            mappers: 5,
            ..Default::default()
        },
        &mut reg,
    )
    .unwrap();
    let events = gen.generate();
    let q = CompiledQuery::parse(
        "RETURN mapper, SUM(M.cpu) \
         PATTERN SEQ(Start S, Measurement M+, End E) \
         WHERE [job, mapper] AND M.load < NEXT(M).load \
         GROUP-BY mapper WITHIN 2000 SLIDE 1000",
        &reg,
    )
    .unwrap();
    let mut engine = GretaEngine::<f64>::new(q, reg.clone()).unwrap();
    let rows = engine.run(&events).unwrap();
    assert!(!rows.is_empty());
    // SUM(M.cpu) over load-increasing trends is positive.
    assert!(rows.iter().all(|r| r.values[0].to_f64() > 0.0));
    // At most 5 mapper groups.
    let mappers: std::collections::HashSet<String> = rows
        .iter()
        .map(|r| r.group.0[0].as_ref().unwrap().to_string())
        .collect();
    assert!(mappers.len() <= 5);
}

#[test]
fn q3_on_linear_road_workload() {
    let mut reg = SchemaRegistry::new();
    let gen = LinearRoadGen::new(
        LinearRoadConfig {
            events: 3000,
            slowdown_bias: 0.6,
            accident_rate: 0.003,
            ..Default::default()
        },
        &mut reg,
    )
    .unwrap();
    let events = gen.generate();
    let with_neg = CompiledQuery::parse(
        "RETURN segment, COUNT(*), AVG(P.speed) \
         PATTERN SEQ(NOT Accident A, Position P+) \
         WHERE [P.vehicle, segment] AND P.speed > NEXT(P).speed \
         GROUP-BY segment WITHIN 1000 SLIDE 1000",
        &reg,
    )
    .unwrap();
    let without_neg = CompiledQuery::parse(
        "RETURN segment, COUNT(*), AVG(P.speed) \
         PATTERN Position P+ \
         WHERE [P.vehicle, segment] AND P.speed > NEXT(P).speed \
         GROUP-BY segment WITHIN 1000 SLIDE 1000",
        &reg,
    )
    .unwrap();
    let mut e1 = GretaEngine::<f64>::new(with_neg, reg.clone()).unwrap();
    let rows1 = e1.run(&events).unwrap();
    let mut e2 = GretaEngine::<f64>::new(without_neg, reg.clone()).unwrap();
    let rows2 = e2.run(&events).unwrap();
    let total1: f64 = rows1.iter().map(|r| r.values[0].to_f64()).sum();
    let total2: f64 = rows2.iter().map(|r| r.values[0].to_f64()).sum();
    // Accidents can only suppress trends.
    assert!(total1 <= total2, "{total1} > {total2}");
    // AVG speeds are physical.
    for r in rows1.iter().chain(rows2.iter()) {
        let avg = r.values[1].to_f64();
        assert!((1.0..=120.0).contains(&avg), "avg={avg}");
    }
}

#[test]
fn replicated_stock_stream_runs() {
    // The paper replicates the NYSE set 10×; exercise the same path.
    let mut reg = SchemaRegistry::new();
    let gen = StockGen::new(
        StockConfig {
            events: 300,
            ..Default::default()
        },
        &mut reg,
    )
    .unwrap();
    let events = StockGen::replicate(&gen.generate(), 10);
    assert_eq!(events.len(), 3000);
    let q = CompiledQuery::parse(
        "RETURN COUNT(*) PATTERN Stock S+ \
         WHERE [company] AND S.price > NEXT(S).price WITHIN 300 SLIDE 300",
        &reg,
    )
    .unwrap();
    let mut engine = GretaEngine::<f64>::new(q, reg.clone()).unwrap();
    let rows = engine.run(&events).unwrap();
    assert_eq!(rows.len(), 10); // one row per replica window
}

#[test]
fn memory_stays_bounded_across_many_windows() {
    let mut reg = SchemaRegistry::new();
    let gen = StockGen::new(
        StockConfig {
            events: 5000,
            ..Default::default()
        },
        &mut reg,
    )
    .unwrap();
    let events = gen.generate();
    let q = CompiledQuery::parse(
        "RETURN COUNT(*) PATTERN Stock S+ \
         WHERE [company] AND S.price > NEXT(S).price WITHIN 200 SLIDE 200",
        &reg,
    )
    .unwrap();
    let mut engine = GretaEngine::<f64>::new(q, reg.clone()).unwrap();
    for e in &events {
        engine.process_ref(&e.clone().into_ref()).unwrap();
    }
    engine.finish();
    // Peak should be in the order of a couple of windows, not the stream.
    let peak = engine.peak_memory_bytes();
    let total_event_bytes: usize = events.iter().map(|e| e.heap_size()).sum();
    assert!(
        peak < total_event_bytes,
        "peak {peak} should be far below whole-stream {total_event_bytes}"
    );
}
