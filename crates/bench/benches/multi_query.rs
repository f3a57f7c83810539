//! Cost of multi-query fan-out on one shared ingest plane (ISSUE 9
//! acceptance bench).
//!
//! The multi-query executor pays ingest — reorder buffer, routing,
//! framing — once per event no matter how many queries consume it.
//! This group measures the Q1-shaped grouped stream three ways: the
//! first query alone, four queries sharing one executor (one via `new`,
//! three registered at runtime), and the same four queries as four
//! standalone executors each fed the full stream (what fan-out costs
//! without the shared plane). All four queries GROUP-BY the same key, so
//! the shared run classifies, hashes, and frames each event once for
//! the whole set. Correctness is asserted outside the timed loop: every
//! query's shared-run output must equal its standalone run byte for
//! byte.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use greta_core::{EmissionMode, ExecutorConfig, QueryId, StreamExecutor, WindowResult};
use greta_query::CompiledQuery;
use greta_types::{Event, EventBuilder, SchemaRegistry, Time};

const EVENTS: usize = 2000;
const SHARDS: usize = 4;

/// One constructor query plus three runtime-registered ones, all over the same
/// GROUP-BY key so they share one route group.
const QUERIES: [&str; 4] = [
    "RETURN grp, COUNT(*) PATTERN M S+ WHERE S.load < NEXT(S).load \
     GROUP-BY grp WITHIN 500 SLIDE 125",
    "RETURN grp, SUM(S.load) PATTERN M S+ WHERE S.load < NEXT(S).load \
     GROUP-BY grp WITHIN 500 SLIDE 125",
    "RETURN grp, COUNT(*) PATTERN M S+ WHERE S.load > NEXT(S).load \
     GROUP-BY grp WITHIN 500 SLIDE 125",
    "RETURN grp, COUNT(*) PATTERN M S+ WHERE S.load < NEXT(S).load \
     GROUP-BY grp WITHIN 250 SLIDE 125",
];

fn setup() -> (SchemaRegistry, Vec<Event>) {
    let mut reg = SchemaRegistry::new();
    reg.register_type("M", &["grp", "load"]).expect("schema");
    let events: Vec<Event> = (0..EVENTS as u64)
        .map(|t| {
            EventBuilder::new(&reg, "M")
                .expect("type")
                .at(Time(t))
                .set("grp", (t % 24) as i64)
                .expect("grp")
                .set("load", ((t * 31) % 97) as f64)
                .expect("load")
                .build()
        })
        .collect();
    (reg, events)
}

fn config() -> ExecutorConfig {
    ExecutorConfig {
        shards: SHARDS,
        ..Default::default()
    }
}

/// One executor hosting the first `n` queries; returns each query's rows.
fn drive_shared(reg: &SchemaRegistry, events: &[Event], n: usize) -> Vec<Vec<WindowResult<f64>>> {
    let first = CompiledQuery::parse(QUERIES[0], reg).expect("query compiles");
    let mut exec = StreamExecutor::<f64>::new(first, reg.clone(), config()).expect("executor");
    let mut ids = vec![QueryId::PRIMARY];
    for q in &QUERIES[1..n] {
        ids.push(
            exec.register_query(q, EmissionMode::Unordered)
                .expect("register"),
        );
    }
    let mut rows: Vec<Vec<WindowResult<f64>>> = vec![Vec::new(); n];
    for e in events {
        exec.push(e.clone()).expect("in-order");
        for (out, id) in rows.iter_mut().zip(&ids) {
            out.extend(exec.poll_results_of(*id).expect("poll"));
        }
    }
    rows[0].extend(exec.finish().expect("finish"));
    for (out, id) in rows.iter_mut().zip(&ids).skip(1) {
        out.extend(exec.poll_results_of(*id).expect("poll remainder"));
    }
    rows
}

/// The same `n` queries as `n` standalone executors, each fed the full
/// stream — ingest paid `n` times.
fn drive_standalone(
    reg: &SchemaRegistry,
    events: &[Event],
    n: usize,
) -> Vec<Vec<WindowResult<f64>>> {
    QUERIES[..n]
        .iter()
        .map(|q| {
            let query = CompiledQuery::parse(q, reg).expect("query compiles");
            let mut exec =
                StreamExecutor::<f64>::new(query, reg.clone(), config()).expect("executor");
            let mut rows = Vec::new();
            for e in events {
                exec.push(e.clone()).expect("in-order");
                rows.extend(exec.poll_results());
            }
            rows.extend(exec.finish().expect("finish"));
            rows
        })
        .collect()
}

fn bench_multi_query(c: &mut Criterion) {
    let (reg, events) = setup();

    // Acceptance outside the timed loop: each query's shared-plane output
    // is byte-identical to its standalone run.
    {
        let shared = drive_shared(&reg, &events, 4);
        let standalone = drive_standalone(&reg, &events, 4);
        for (i, (mut s, mut a)) in shared.into_iter().zip(standalone).enumerate() {
            greta_core::sort_canonical(&mut s);
            greta_core::sort_canonical(&mut a);
            assert!(!s.is_empty(), "query {i} emitted nothing");
            assert_eq!(s, a, "query {i}: shared run != standalone run");
        }
    }

    let mut g = c.benchmark_group("multi_query");
    g.sample_size(10);
    g.bench_with_input(BenchmarkId::new("queries", "1"), &1usize, |b, &n| {
        b.iter(|| drive_shared(&reg, &events, n))
    });
    g.bench_with_input(BenchmarkId::new("queries", "4-shared"), &4usize, |b, &n| {
        b.iter(|| drive_shared(&reg, &events, n))
    });
    g.bench_with_input(
        BenchmarkId::new("queries", "4-standalone"),
        &4usize,
        |b, &n| b.iter(|| drive_standalone(&reg, &events, n)),
    );
    g.finish();
}

criterion_group!(benches, bench_multi_query);
criterion_main!(benches);
