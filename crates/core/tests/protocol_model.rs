//! Exhaustive model checking of the executor's barrier cut protocol
//! (`greta_core::protocol_model`) — plus the checker's own red path:
//! deliberately broken shard variants must be caught, or the checker
//! has lost its teeth.
//!
//! These tests are part of the `static-analysis` CI job. Each clean
//! exploration is required to cover at least 10 000 distinct schedules,
//! so the invariants are not "tested" on one lucky interleaving but
//! proven over the whole space the model can express.

use greta_core::protocol_model::{explore, ExploreReport, Fault, ModelConfig, Op};

fn run(shards: usize, script: Vec<Op>, fault: Fault) -> Result<ExploreReport, String> {
    explore(&ModelConfig {
        shards,
        script,
        fault,
        max_schedules: 5_000_000,
    })
    .map_err(|v| v.to_string())
}

/// The full operation set — register, ingest, checkpoint, deregister —
/// across two shards, in two scripts (~250 k schedules together): a
/// checkpoint between two events with the remainder delivered by the
/// deregistration, and two checkpoints back to back, each taking its own
/// cut, with the remainder delivered at end of stream. Every schedule
/// checks every invariant; each exploration must be genuinely
/// combinatorial (≥10k schedules).
#[test]
fn two_shards_full_protocol_holds_over_all_schedules() {
    use Op::*;
    for script in [
        vec![Register(1), Ingest, Checkpoint, Ingest, Deregister(1)],
        vec![Register(1), Ingest, Checkpoint, Checkpoint, Ingest],
    ] {
        let report = run(2, script.clone(), Fault::None)
            .expect("protocol invariants must hold in every schedule");
        assert!(
            report.schedules >= 10_000,
            "{script:?} is not exhaustive enough: {} schedules",
            report.schedules
        );
    }
}

/// Barrier cut across three shards: the all-shards-cut-at-same-seq
/// invariant has more room to break with more acks in flight.
#[test]
fn three_shards_barrier_cut_holds_over_all_schedules() {
    let report = run(
        3,
        vec![Op::Register(1), Op::Ingest, Op::Checkpoint],
        Fault::None,
    )
    .expect("protocol invariants must hold in every schedule");
    assert!(
        report.schedules >= 10_000,
        "exploration is not exhaustive enough: {} schedules",
        report.schedules
    );
}

/// Red path: a shard whose row reaches the result channel behind the ack
/// of the barrier it was emitted before MUST be caught — a snapshot taken
/// at that cut holds the row neither as state nor as a buffered result.
#[test]
fn row_after_ack_on_one_shard_is_caught() {
    let err = run(
        2,
        vec![Op::Register(1), Op::Ingest, Op::Ingest, Op::Checkpoint],
        Fault::RowAfterAck { shard: 1 },
    )
    .expect_err("the checker failed to catch a row behind its ack");
    assert!(
        err.contains("row-crosses-barrier") || err.contains("exactly-once-delivery"),
        "unexpected violation kind: {err}"
    );
}

/// Red path: a shard that acks a barrier ahead of events queued before
/// it cuts at the wrong sequence — the completed barrier's processed
/// union no longer covers the ingest prefix.
#[test]
fn early_ack_on_one_shard_is_caught() {
    let err = run(
        2,
        vec![Op::Register(1), Op::Ingest, Op::Ingest, Op::Checkpoint],
        Fault::EarlyAck { shard: 0 },
    )
    .expect_err("the checker failed to catch an early barrier ack");
    assert!(
        err.contains("shards-cut-at-different-seqs"),
        "unexpected violation kind: {err}"
    );
}

/// Violations are deterministic: the same config reports the same
/// schedule index and a non-empty replayable trace, twice in a row.
#[test]
fn violations_are_reproducible() {
    let cfg = ModelConfig {
        shards: 2,
        script: vec![Op::Register(1), Op::Ingest, Op::Ingest, Op::Checkpoint],
        fault: Fault::RowAfterAck { shard: 0 },
        max_schedules: 5_000_000,
    };
    let a = explore(&cfg).expect_err("fault must be caught");
    let b = explore(&cfg).expect_err("fault must be caught");
    assert_eq!(a.schedule, b.schedule);
    assert_eq!(a.trace, b.trace);
    assert!(!a.trace.is_empty());
}
