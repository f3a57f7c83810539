//! Ablation benches for the design choices called out in DESIGN.md:
//!
//! * Vertex-Tree range index vs linear scan with residual predicates
//!   (storage layer of Fig. 11);
//! * aggregate carrier: `f64` vs saturating `u64` vs exact `BigUint`;
//! * window sharing (one graph, per-window counts) vs replication
//!   (one tumbling engine per window phase, Fig. 9(a) vs 9(b)).

use criterion::{criterion_group, criterion_main, Criterion};
use greta_core::{EngineConfig, GretaEngine};
use greta_query::CompiledQuery;
use greta_types::{Event, SchemaRegistry};
use greta_workloads::{LinearRoadConfig, LinearRoadGen, StockConfig, StockGen};

fn lr_setup(n: usize) -> (SchemaRegistry, CompiledQuery, Vec<Event>) {
    let mut reg = SchemaRegistry::new();
    let gen = LinearRoadGen::new(
        LinearRoadConfig {
            events: n,
            slowdown_bias: 0.25,
            ..Default::default()
        },
        &mut reg,
    )
    .unwrap();
    let events = gen.generate();
    let query = CompiledQuery::parse(
        &format!(
            "RETURN segment, COUNT(*) PATTERN Position P+ \
             WHERE [P.vehicle, segment] AND P.speed > NEXT(P).speed \
             GROUP-BY segment WITHIN {n} SLIDE {n}"
        ),
        &reg,
    )
    .unwrap();
    (reg, query, events)
}

fn run<N: greta_core::TrendNum>(
    query: &CompiledQuery,
    reg: &SchemaRegistry,
    events: &[Event],
    config: EngineConfig,
) -> usize {
    let mut e = GretaEngine::<N>::with_config(query.clone(), reg.clone(), config).unwrap();
    for ev in events {
        e.process_ref(&ev.clone().into_ref()).unwrap();
    }
    e.finish().len()
}

fn bench_index(c: &mut Criterion) {
    let (reg, query, events) = lr_setup(2000);
    let mut g = c.benchmark_group("ablation_index");
    g.sample_size(10);
    g.bench_function("tree_index", |b| {
        b.iter(|| run::<f64>(&query, &reg, &events, EngineConfig::default()))
    });
    g.bench_function("linear_scan", |b| {
        b.iter(|| {
            run::<f64>(
                &query,
                &reg,
                &events,
                EngineConfig {
                    use_range_index: false,
                    ..Default::default()
                },
            )
        })
    });
    g.finish();
}

fn bench_carrier(c: &mut Criterion) {
    let mut reg = SchemaRegistry::new();
    let gen = StockGen::new(
        StockConfig {
            events: 1000,
            ..Default::default()
        },
        &mut reg,
    )
    .unwrap();
    let events = gen.generate();
    let query = CompiledQuery::parse(
        "RETURN sector, COUNT(*) PATTERN Stock S+ \
         WHERE [company, sector] AND S.price > NEXT(S).price \
         GROUP-BY sector WITHIN 1000 SLIDE 1000",
        &reg,
    )
    .unwrap();
    let mut g = c.benchmark_group("ablation_carrier");
    g.sample_size(10);
    g.bench_function("f64", |b| {
        b.iter(|| run::<f64>(&query, &reg, &events, EngineConfig::default()))
    });
    g.bench_function("u64_saturating", |b| {
        b.iter(|| run::<u64>(&query, &reg, &events, EngineConfig::default()))
    });
    g.bench_function("biguint_exact", |b| {
        b.iter(|| run::<greta_bignum::BigUint>(&query, &reg, &events, EngineConfig::default()))
    });
    g.finish();
}

fn bench_window_sharing(c: &mut Criterion) {
    let mut reg = SchemaRegistry::new();
    let gen = StockGen::new(
        StockConfig {
            events: 1200,
            ..Default::default()
        },
        &mut reg,
    )
    .unwrap();
    let events = gen.generate();
    let shared = CompiledQuery::parse(
        "RETURN sector, COUNT(*) PATTERN Stock S+ \
         WHERE [company, sector] AND S.price > NEXT(S).price \
         GROUP-BY sector WITHIN 600 SLIDE 150",
        &reg,
    )
    .unwrap();
    let tumbling = CompiledQuery::parse(
        "RETURN sector, COUNT(*) PATTERN Stock S+ \
         WHERE [company, sector] AND S.price > NEXT(S).price \
         GROUP-BY sector WITHIN 600 SLIDE 600",
        &reg,
    )
    .unwrap();
    let mut g = c.benchmark_group("ablation_window_sharing");
    g.sample_size(10);
    g.bench_function("shared_graph", |b| {
        b.iter(|| run::<f64>(&shared, &reg, &events, EngineConfig::default()))
    });
    g.bench_function("replicated_graphs_x4", |b| {
        b.iter(|| {
            // Naive plan of Fig. 9(a): one engine per window phase.
            let mut total = 0usize;
            for phase in 0..4u64 {
                let shifted: Vec<Event> = events
                    .iter()
                    .filter(|e| e.time.ticks() >= phase * 150)
                    .cloned()
                    .collect();
                total += run::<f64>(&tumbling, &reg, &shifted, EngineConfig::default());
            }
            total
        })
    });
    g.finish();
}

criterion_group!(benches, bench_index, bench_carrier, bench_window_sharing);
criterion_main!(benches);
