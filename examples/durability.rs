//! Durability demo: run query Q1 over the stock stream with the WAL (and
//! the checkpoint records it holds) enabled, "crash" mid-stream (drop the
//! executor without `finish()`), recover from disk, finish the stream,
//! and verify the combined output is byte-identical to an uninterrupted
//! run.
//!
//! Exits non-zero on any mismatch — CI's `recovery-smoke` job runs it as
//! the recovery smoke test.
//!
//! ```sh
//! cargo run --release --example durability
//! ```

use greta::core::{ExecutorConfig, GretaEngine, StreamExecutor, WindowResult};
use greta::durability::DurabilityConfig;
use greta::query::CompiledQuery;
use greta::types::SchemaRegistry;
use greta::workloads::{StockConfig, StockGen};

fn sorted(mut rows: Vec<WindowResult<u64>>) -> Vec<WindowResult<u64>> {
    rows.sort_by(|a, b| a.window.cmp(&b.window).then_with(|| a.group.cmp(&b.group)));
    rows
}

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let mut registry = SchemaRegistry::new();
    let gen = StockGen::new(
        StockConfig {
            events: 4000,
            companies: 20,
            sectors: 8,
            ..Default::default()
        },
        &mut registry,
    )?;
    let events = gen.generate();
    let query = CompiledQuery::parse(
        "RETURN sector, COUNT(*) PATTERN Stock S+ \
         WHERE [company, sector] AND S.price > NEXT(S).price \
         GROUP-BY sector WITHIN 500 SLIDE 125",
        &registry,
    )?;

    // Uninterrupted oracle run.
    let mut oracle = GretaEngine::<u64>::new(query.clone(), registry.clone())?;
    let expect = sorted(oracle.run(&events)?);

    let dir = std::env::temp_dir().join(format!("greta-durability-demo-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let config = ExecutorConfig {
        shards: 4,
        durability: Some(DurabilityConfig::new(&dir)),
        ..Default::default()
    };

    // Phase 1: ingest 60% of the stream, then crash without finish().
    let crash_at = events.len() * 6 / 10;
    let mut committed = Vec::new();
    {
        let mut executor =
            StreamExecutor::<u64>::new(query.clone(), registry.clone(), config.clone())?;
        for e in &events[..crash_at] {
            executor.push(e.clone())?;
            committed.extend(executor.poll_results());
        }
        executor.checkpoint()?;
        let stats = executor.stats();
        println!(
            "crash after {} events: {} checkpoint(s), {} frames, {} rows already polled",
            crash_at,
            stats.checkpoints,
            stats.frames,
            committed.len()
        );
        // Dropping without finish() simulates the crash.
    }

    // Phase 2: recover from the last checkpoint record and the WAL records
    // after it.
    let mut executor = StreamExecutor::<u64>::recover(query, registry, config)?;
    println!(
        "recovered: {} events restored/replayed from {}",
        executor.stats().pushed,
        dir.display()
    );
    for e in &events[crash_at..] {
        executor.push(e.clone())?;
        committed.extend(executor.poll_results());
    }
    committed.extend(executor.finish()?);

    let got = sorted(committed);
    if got == expect {
        println!(
            "OK: {} result rows byte-identical to the uninterrupted run",
            got.len()
        );
        let _ = std::fs::remove_dir_all(&dir);
        Ok(())
    } else {
        eprintln!(
            "MISMATCH: recovered run produced {} rows, oracle {}",
            got.len(),
            expect.len()
        );
        std::process::exit(1);
    }
}
