//! Hadoop cluster monitoring scenario (paper §1, query Q2): total CPU
//! cycles per mapper across jobs with increasing load trends —
//! `SEQ(Start S, Measurement M+, End E)` with the `M.load < NEXT(M).load`
//! edge predicate, grouped by mapper.
//!
//! Demonstrates sequence patterns with MID events, SUM aggregation, and
//! the §10.4 per-group parallel execution.
//!
//! ```sh
//! cargo run --release --example cluster_monitoring
//! ```

use greta::core::{ExecutorConfig, GretaEngine, StreamExecutor};
use greta::query::CompiledQuery;
use greta::workloads::{ClusterConfig, ClusterGen};
use greta_types::SchemaRegistry;
use std::time::Instant;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let mut registry = SchemaRegistry::new();
    let generator = ClusterGen::new(
        ClusterConfig {
            events: 20_000,
            mappers: 8,
            jobs: 10,
            ..Default::default()
        },
        &mut registry,
    )?;
    let events = generator.generate();
    println!(
        "generated {} cluster events (Table 2 distributions)",
        events.len()
    );

    let query = CompiledQuery::parse(
        "RETURN mapper, SUM(M.cpu) \
         PATTERN SEQ(Start S, Measurement M+, End E) \
         WHERE [job, mapper] AND M.load < NEXT(M).load \
         GROUP-BY mapper \
         WITHIN 5000 SLIDE 5000",
        &registry,
    )?;

    // Sequential run.
    let t0 = Instant::now();
    let mut engine = GretaEngine::<f64>::new(query.clone(), registry.clone())?;
    for e in &events {
        engine.process_ref(&e.clone().into_ref())?;
    }
    let rows = engine.finish();
    let seq_ms = t0.elapsed().as_secs_f64() * 1e3;
    println!(
        "\nsequential: {} mapper-window rows in {seq_ms:.1} ms",
        rows.len()
    );
    for row in rows.iter().take(8) {
        println!(
            "  window {:>2} | {} | SUM(M.cpu) = {}",
            row.window,
            row.group.display_with(&query.group_by),
            row.values[0]
        );
    }

    // Sharded executor run (paper §7/§10.4): each mapper group is owned by
    // one shard, events are pushed incrementally, results stream out as
    // windows close.
    for shards in [2usize, 4] {
        let t0 = Instant::now();
        let mut executor = StreamExecutor::<f64>::new(
            query.clone(),
            registry.clone(),
            ExecutorConfig {
                shards,
                ..Default::default()
            },
        )?;
        let mut prows = Vec::new();
        for e in &events {
            executor.push(e.clone())?;
            prows.extend(executor.poll_results());
        }
        prows.extend(executor.finish()?);
        let ms = t0.elapsed().as_secs_f64() * 1e3;
        println!("executor x{shards}: {} rows in {ms:.1} ms", prows.len());
        assert_eq!(prows.len(), rows.len());
    }
    Ok(())
}
