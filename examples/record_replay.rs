//! Record & replay: record a generated workload with the binary event
//! codec, reload it, repair a deliberately shuffled copy through the
//! executor's reorder stage, and verify that all three paths produce
//! identical aggregates.
//!
//! Demonstrates `greta_types::codec` (the one event encoding the WAL,
//! snapshots and wire protocol share) and the `StreamExecutor`'s
//! integrated out-of-order ingestion (`slack` + `LatePolicy`, the §2
//! out-of-order delegation).
//!
//! ```sh
//! cargo run --release --example record_replay
//! ```

use greta::core::{ExecutorConfig, GretaEngine, LatePolicy, StreamExecutor};
use greta::query::CompiledQuery;
use greta::types::{Event, Reader};
use greta::workloads::{StockConfig, StockGen};
use greta_types::SchemaRegistry;

fn run(query: &CompiledQuery, reg: &SchemaRegistry, events: &[Event]) -> Vec<f64> {
    let mut engine = GretaEngine::<f64>::new(query.clone(), reg.clone()).unwrap();
    let rows = engine.run(events).unwrap();
    rows.iter().map(|r| r.values[0].to_f64()).collect()
}

fn main() -> Result<(), Box<dyn std::error::Error>> {
    // 1. Generate and record a stock stream.
    let mut reg = SchemaRegistry::new();
    let gen = StockGen::new(
        StockConfig {
            events: 2000,
            ..Default::default()
        },
        &mut reg,
    )?;
    let events = gen.generate();
    let mut recording = Vec::new();
    reg.encode(&mut recording);
    for e in &events {
        e.encode(&mut recording);
    }
    println!(
        "recorded {} events → {} bytes",
        events.len(),
        recording.len()
    );

    // 2. Reload — the registry is decoded from the recording's head.
    let mut r = Reader::new(&recording);
    let reg2 = SchemaRegistry::decode(&mut r)?;
    let mut replayed = Vec::new();
    while !r.is_empty() {
        replayed.push(Event::decode(&mut r)?);
    }
    assert_eq!(events, replayed);
    println!("replayed {} events, {} schemas", replayed.len(), reg2.len());

    let query = CompiledQuery::parse(
        "RETURN sector, COUNT(*) PATTERN Stock S+ \
         WHERE [company, sector] AND S.price > NEXT(S).price \
         GROUP-BY sector WITHIN 500 SLIDE 500",
        &reg2,
    )?;

    let live = run(&query, &reg, &events);
    let from_disk = run(&query, &reg2, &replayed);
    assert_eq!(live, from_disk);
    println!("live == replay ✔  ({} result rows)", live.len());

    // 3. Shuffle the stream locally (swap neighbours within a 16-tick
    //    jitter) and repair it through the executor's ingestion stage: a
    //    16-tick reorder slack, dropping anything later than that.
    let mut shuffled = replayed.clone();
    for i in (0..shuffled.len().saturating_sub(8)).step_by(8) {
        shuffled.swap(i, i + 7);
        shuffled.swap(i + 2, i + 5);
    }
    let mut executor = StreamExecutor::<f64>::new(
        query.clone(),
        reg2.clone(),
        ExecutorConfig {
            shards: 2,
            slack: 16,
            late_policy: LatePolicy::Drop,
            ..Default::default()
        },
    )?;
    let mut rows = Vec::new();
    for e in &shuffled {
        executor.push(e.clone())?;
        rows.extend(executor.poll_results());
    }
    rows.extend(executor.finish()?);
    rows.sort_by(|a, b| a.window.cmp(&b.window).then_with(|| a.group.cmp(&b.group)));
    let repaired: Vec<f64> = rows.iter().map(|r| r.values[0].to_f64()).collect();
    assert_eq!(live, repaired);
    println!(
        "shuffled + executor reorder slack == live ✔  ({} events too late)",
        executor.stats().late_dropped
    );
    Ok(())
}
