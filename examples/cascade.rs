//! Cascade: a two-stage executor DAG wired through `min_frontier`.
//!
//! Stage 1 is a multi-query executor: one shared ingest plane (reorder
//! buffer paid once per event) hosting the trend-count query plus a second
//! query registered at runtime. Stage 2 is a downstream executor that
//! consumes the trend-count query's *finalized* windows as its own input
//! events — the cascaded-DAG pattern.
//!
//! The correctness hinge is [`min_frontier`]: under `WindowOrdered`
//! emission it reports the window id every shard has passed, so rows of
//! windows strictly below it are final — no late row can ever amend
//! them. Forwarding only those rows makes the cascade deterministic: the
//! pipelined run below produces byte-identical stage-2 output to a
//! sequential run (stage 1 to completion, then stage 2).
//!
//! ```sh
//! cargo run --example cascade
//! ```
//!
//! [`min_frontier`]: greta::core::StreamExecutor::min_frontier

use greta::core::{
    sort_canonical, EmissionMode, ExecutorConfig, QueryId, StreamExecutor, WindowResult,
};
use greta::query::CompiledQuery;
use greta::types::{Event, EventBuilder, SchemaRegistry, Time};

/// Stage 1, query 0: per-group count of upward load trends.
const STAGE1: &str = "RETURN grp, COUNT(*) PATTERN M+ WHERE M.load < NEXT(M).load \
                      GROUP-BY grp WITHIN 60 SLIDE 30";
/// Stage 1, registered at runtime on the same stream: total load volume
/// per group over a different window.
const SIDE: &str = "RETURN grp, SUM(M.load) PATTERN M+ WHERE M.load < NEXT(M).load \
                    GROUP-BY grp WITHIN 40 SLIDE 20";
/// Stage 2: trends *of the trend counts* — windows where a group's
/// stage-1 count kept rising.
const STAGE2: &str = "RETURN grp, COUNT(*) PATTERN W+ WHERE W.trends < NEXT(W).trends \
                      GROUP-BY grp WITHIN 6 SLIDE 3";

/// Re-encode one finalized stage-1 row as a stage-2 input event: the
/// window id becomes event time (windows close in order, so times are
/// non-decreasing), the group key and the aggregate become attributes.
fn row_to_event(reg: &SchemaRegistry, row: &WindowResult<f64>) -> Event {
    let grp = match &row.group.0[0] {
        Some(greta::types::Value::Float(g)) => *g,
        Some(greta::types::Value::Int(g)) => *g as f64,
        other => panic!("unexpected group key {other:?}"),
    };
    EventBuilder::new(reg, "W")
        .unwrap()
        .at(Time(row.window))
        .set("grp", grp)
        .unwrap()
        .set("trends", row.values[0].to_f64())
        .unwrap()
        .build()
}

fn main() -> Result<(), Box<dyn std::error::Error>> {
    // Stage 1 schema and executor: 4 shards, ordered emission (the
    // frontier only advances under WindowOrdered).
    let mut reg1 = SchemaRegistry::new();
    reg1.register_type("M", &["grp", "load"])?;
    let q1 = CompiledQuery::parse(STAGE1, &reg1)?;
    let mut up = StreamExecutor::<f64>::new(
        q1,
        reg1.clone(),
        ExecutorConfig {
            shards: 4,
            emission: EmissionMode::WindowOrdered,
            ..Default::default()
        },
    )?;

    // A second query joins the same stream at runtime: one barrier, no
    // second ingest path, no second reorder buffer.
    let side = up.register_query(SIDE, EmissionMode::Unordered)?;
    println!("stage 1 hosts queries {:?}", up.query_ids());

    // Stage 2 consumes stage-1 rows as events.
    let mut reg2 = SchemaRegistry::new();
    reg2.register_type("W", &["grp", "trends"])?;
    let q2 = CompiledQuery::parse(STAGE2, &reg2)?;
    let mut down = StreamExecutor::<f64>::new(
        q2,
        reg2.clone(),
        ExecutorConfig {
            shards: 2,
            emission: EmissionMode::WindowOrdered,
            ..Default::default()
        },
    )?;

    // Pipelined run: push stage 1, forward every finalized stage-1 row
    // (window strictly below the frontier) into stage 2 as it appears.
    // Everything below the cross-shard frontier is final: safe to feed
    // downstream even while stage 1 is still running.
    // Under `WindowOrdered` emission the polled rows arrive in canonical
    // `(window, group)` order, so the finalized rows are a prefix —
    // draining it preserves the order stage 2 sees, which matters
    // because stage-1 rows of one window share an event time and
    // `NEXT(W)` is order-sensitive among ties.
    let forward = |staged: &mut Vec<WindowResult<f64>>,
                   down: &mut StreamExecutor<f64>,
                   frontier: u64|
     -> Result<usize, Box<dyn std::error::Error>> {
        let cut = staged.partition_point(|r| r.window < frontier);
        for row in staged.drain(..cut) {
            down.push(row_to_event(&reg2, &row))?;
        }
        Ok(cut)
    };

    let mut staged: Vec<WindowResult<f64>> = Vec::new();
    let mut forwarded = 0usize;
    let mut side_rows = Vec::new();
    for t in 1..=600u64 {
        let e = EventBuilder::new(&reg1, "M")?
            .at(Time(t))
            .set("grp", (t % 5) as f64)?
            .set("load", ((t * 31) % 17) as f64)?
            .build();
        up.push(e)?;
        staged.extend(up.poll_results());
        side_rows.extend(up.poll_results_of(side)?);
        forwarded += forward(&mut staged, &mut down, up.min_frontier(QueryId::PRIMARY)?)?;
    }
    // Frontier stamps travel asynchronously on the result channel; give
    // the shard workers a bounded moment to report the windows the push
    // loop already closed, so the pipelined hand-off is visible before
    // end-of-stream.
    for _ in 0..10_000 {
        if up.min_frontier(QueryId::PRIMARY)? > 0 {
            break;
        }
        std::thread::yield_now();
    }
    staged.extend(up.poll_results());
    forwarded += forward(&mut staged, &mut down, up.min_frontier(QueryId::PRIMARY)?)?;
    println!("forwarded {forwarded} finalized rows while both stages were live");

    // End of stream: stage 1's remainder is final by definition; keep
    // window order for stage 2's reorder buffer.
    staged.extend(up.finish()?);
    sort_canonical(&mut staged);
    for row in &staged {
        down.push(row_to_event(&reg2, row))?;
        forwarded += 1;
    }
    side_rows.extend(up.poll_results_of(side)?);

    let mut out = down.poll_results();
    out.extend(down.finish()?);
    sort_canonical(&mut out);
    println!(
        "stage 1 emitted {} rows (+{} from the registered side query); stage 2 emitted {}",
        forwarded,
        side_rows.len(),
        out.len()
    );
    for row in out.iter().take(5) {
        println!(
            "  stage-2 window {} group {:?}: {} rising trend-count runs",
            row.window, row.group, row.values[0]
        );
    }

    // Determinism check: a fully sequential run — stage 1 to completion
    // on one shard, then stage 2 on one shard — yields the same stage-2
    // rows as the pipelined cascade above.
    let oracle = sequential_oracle(&reg1, &reg2)?;
    assert_eq!(
        out, oracle,
        "pipelined cascade diverged from sequential run"
    );
    assert!(forwarded > 0 && !out.is_empty());
    println!("cascade matches the sequential oracle ✔");
    Ok(())
}

/// The non-pipelined reference: run each stage to completion on a single
/// shard, in sequence.
fn sequential_oracle(
    reg1: &SchemaRegistry,
    reg2: &SchemaRegistry,
) -> Result<Vec<WindowResult<f64>>, Box<dyn std::error::Error>> {
    let one_shard = |emission| ExecutorConfig {
        shards: 1,
        emission,
        ..Default::default()
    };
    let mut up = StreamExecutor::<f64>::new(
        CompiledQuery::parse(STAGE1, reg1)?,
        reg1.clone(),
        one_shard(EmissionMode::WindowOrdered),
    )?;
    for t in 1..=600u64 {
        up.push(
            EventBuilder::new(reg1, "M")?
                .at(Time(t))
                .set("grp", (t % 5) as f64)?
                .set("load", ((t * 31) % 17) as f64)?
                .build(),
        )?;
    }
    let mut rows = up.poll_results();
    rows.extend(up.finish()?);
    sort_canonical(&mut rows);

    let mut down = StreamExecutor::<f64>::new(
        CompiledQuery::parse(STAGE2, reg2)?,
        reg2.clone(),
        one_shard(EmissionMode::WindowOrdered),
    )?;
    for row in &rows {
        down.push(row_to_event(reg2, row))?;
    }
    let mut out = down.poll_results();
    out.extend(down.finish()?);
    sort_canonical(&mut out);
    Ok(out)
}
