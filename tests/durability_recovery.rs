//! End-to-end durability: checkpoint → crash → recover on the paper's
//! workloads (Q1 stock, Q2 cluster), crash at arbitrary points (proptest
//! against an uninterrupted oracle, and after every single push),
//! recovery onto another shard count, and corrupted-log handling (torn
//! tails recover, checksum corruption and the retired on-disk layout are
//! clean errors).

use greta::core::{
    EmissionMode, EngineError, ExecutorConfig, GretaEngine, LatePolicy, PartitionKey, QueryId,
    StreamExecutor, StreamRouting, WindowResult,
};
use greta::durability::{DurabilityConfig, FsyncPolicy, Wal};
use greta::query::CompiledQuery;
use greta::types::{Event, EventBuilder, SchemaRegistry, Time, Value};
use greta::workloads::{ClusterConfig, ClusterGen, StockConfig, StockGen};
use proptest::prelude::*;
use std::collections::BTreeMap;
use std::path::{Path, PathBuf};

fn tmpdir(name: &str) -> PathBuf {
    let d = std::env::temp_dir().join(format!("greta-durtest-{name}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&d);
    d
}

fn durable(dir: &Path, shards: usize, every: u64) -> ExecutorConfig {
    let mut dcfg = DurabilityConfig::new(dir);
    dcfg.snapshot_every_windows = every;
    dcfg.segment_bytes = 4096; // small segments so truncation is exercised
    ExecutorConfig {
        shards,
        durability: Some(dcfg),
        ..Default::default()
    }
}

fn sorted(mut rows: Vec<WindowResult<u64>>) -> Vec<WindowResult<u64>> {
    rows.sort_by(|a, b| a.window.cmp(&b.window).then_with(|| a.group.cmp(&b.group)));
    rows
}

fn oracle(q: &CompiledQuery, reg: &SchemaRegistry, events: &[Event]) -> Vec<WindowResult<u64>> {
    let mut engine = GretaEngine::<u64>::new(q.clone(), reg.clone()).unwrap();
    sorted(engine.run(events).unwrap())
}

fn stock_q1(events: usize) -> (SchemaRegistry, CompiledQuery, Vec<Event>) {
    let mut reg = SchemaRegistry::new();
    let gen = StockGen::new(
        StockConfig {
            events,
            companies: 12,
            sectors: 5,
            ..Default::default()
        },
        &mut reg,
    )
    .unwrap();
    let evs = gen.generate();
    let q = CompiledQuery::parse(
        "RETURN sector, COUNT(*) PATTERN Stock S+ \
         WHERE [company, sector] AND S.price > NEXT(S).price \
         GROUP-BY sector WITHIN 300 SLIDE 100",
        &reg,
    )
    .unwrap();
    (reg, q, evs)
}

fn cluster_q2(events: usize) -> (SchemaRegistry, CompiledQuery, Vec<Event>) {
    let mut reg = SchemaRegistry::new();
    let gen = ClusterGen::new(
        ClusterConfig {
            events,
            mappers: 6,
            ..Default::default()
        },
        &mut reg,
    )
    .unwrap();
    let evs = gen.generate();
    let q = CompiledQuery::parse(
        "RETURN mapper, SUM(M.cpu) \
         PATTERN SEQ(Start S, Measurement M+, End E) \
         WHERE [job, mapper] AND M.load < NEXT(M).load \
         GROUP-BY mapper WITHIN 400 SLIDE 200",
        &reg,
    )
    .unwrap();
    (reg, q, evs)
}

/// checkpoint → crash → recover must reproduce the uninterrupted run
/// byte-for-byte: rows polled before the checkpoint plus everything the
/// recovered executor emits equal the oracle exactly.
fn assert_crash_recover_exact(
    name: &str,
    reg: &SchemaRegistry,
    q: &CompiledQuery,
    events: &[Event],
    crash_at: usize,
    shards: usize,
) {
    let expect = oracle(q, reg, events);
    let dir = tmpdir(name);
    let mut committed = Vec::new();
    {
        let mut exec =
            StreamExecutor::<u64>::new(q.clone(), reg.clone(), durable(&dir, shards, 2)).unwrap();
        for e in &events[..crash_at] {
            exec.push(e.clone()).unwrap();
            committed.extend(exec.poll_results());
        }
        exec.checkpoint().unwrap();
        // Crash: dropped without finish(); un-polled rows ride the snapshot.
    }
    // new() on a used dir is refused (would shadow recoverable state).
    let err = StreamExecutor::<u64>::new(q.clone(), reg.clone(), durable(&dir, shards, 2))
        .err()
        .expect("new() must refuse a dir with recoverable state");
    assert!(matches!(err, EngineError::Config(_)), "{err}");
    let mut exec =
        StreamExecutor::<u64>::recover(q.clone(), reg.clone(), durable(&dir, shards, 2)).unwrap();
    for e in &events[crash_at..] {
        exec.push(e.clone()).unwrap();
        committed.extend(exec.poll_results());
    }
    committed.extend(exec.finish().unwrap());
    assert_eq!(sorted(committed), expect, "{name}");
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn q1_stock_crash_recover_byte_identical() {
    let (reg, q, events) = stock_q1(1200);
    for (i, crash_at) in [150usize, 600, 1100].into_iter().enumerate() {
        assert_crash_recover_exact(
            &format!("q1-{i}"),
            &reg,
            &q,
            &events,
            crash_at,
            1 + i, // 1, 2, 3 shards
        );
    }
}

#[test]
fn q2_cluster_crash_recover_byte_identical() {
    let (reg, q, events) = cluster_q2(1200);
    for (i, crash_at) in [200usize, 700].into_iter().enumerate() {
        assert_crash_recover_exact(&format!("q2-{i}"), &reg, &q, &events, crash_at, 2 + i);
    }
}

#[test]
fn double_crash_double_recover() {
    // Crash, recover, crash again mid-replay-continuation, recover again.
    let (reg, q, events) = stock_q1(900);
    let expect = oracle(&q, &reg, &events);
    let dir = tmpdir("double-crash");
    let mut committed = Vec::new();
    {
        let mut exec =
            StreamExecutor::<u64>::new(q.clone(), reg.clone(), durable(&dir, 2, 2)).unwrap();
        for e in &events[..300] {
            exec.push(e.clone()).unwrap();
            committed.extend(exec.poll_results());
        }
        exec.checkpoint().unwrap();
    }
    {
        let mut exec =
            StreamExecutor::<u64>::recover(q.clone(), reg.clone(), durable(&dir, 2, 2)).unwrap();
        for e in &events[300..600] {
            exec.push(e.clone()).unwrap();
            committed.extend(exec.poll_results());
        }
        exec.checkpoint().unwrap();
    }
    let mut exec =
        StreamExecutor::<u64>::recover(q.clone(), reg.clone(), durable(&dir, 2, 2)).unwrap();
    for e in &events[600..] {
        exec.push(e.clone()).unwrap();
        committed.extend(exec.poll_results());
    }
    committed.extend(exec.finish().unwrap());
    assert_eq!(sorted(committed), expect);
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn crash_before_first_checkpoint_replays_whole_wal() {
    let (reg, q, events) = stock_q1(400);
    let dir = tmpdir("no-ckpt");
    // Cadence so large no automatic checkpoint fires.
    let config = || durable(&dir, 2, u64::MAX);
    {
        let mut exec = StreamExecutor::<u64>::new(q.clone(), reg.clone(), config()).unwrap();
        for e in &events[..157] {
            exec.push(e.clone()).unwrap();
        }
        // Crash without ever polling: every row must come from recovery.
    }
    let mut exec = StreamExecutor::<u64>::recover(q.clone(), reg.clone(), config()).unwrap();
    let mut rows = Vec::new();
    for e in &events[157..] {
        exec.push(e.clone()).unwrap();
        rows.extend(exec.poll_results());
    }
    rows.extend(exec.finish().unwrap());
    assert_eq!(sorted(rows), oracle(&q, &reg, &events));
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn automatic_cadence_checkpoints_and_wal_truncation() {
    let (reg, q, events) = stock_q1(1200);
    let dir = tmpdir("cadence");
    let mut cfg = durable(&dir, 2, 1);
    // Force rotations so truncation can bite.
    cfg.durability.as_mut().unwrap().segment_bytes = 512;
    let mut exec = StreamExecutor::<u64>::new(q, reg, cfg).unwrap();
    for e in &events {
        exec.push(e.clone()).unwrap();
        exec.poll_results();
    }
    exec.finish().unwrap();
    let stats = exec.stats();
    assert!(
        stats.checkpoints >= 3,
        "expected cadence checkpoints, got {}",
        stats.checkpoints
    );
    // Obsolete segments were truncated: the on-disk WAL no longer reaches
    // back to record 0.
    let mut oldest = None;
    Wal::replay(&dir, |i, _| {
        oldest.get_or_insert(i);
    })
    .unwrap();
    assert!(oldest.unwrap() > 0, "WAL still starts at record 0");
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn recovery_after_graceful_finish_resumes_empty() {
    // finish() takes a final checkpoint; recovering afterwards yields an
    // executor with the full history in its counters and nothing to
    // replay.
    let (reg, q, events) = stock_q1(600);
    let dir = tmpdir("graceful");
    let mut exec = StreamExecutor::<u64>::new(q.clone(), reg.clone(), durable(&dir, 2, 2)).unwrap();
    for e in &events {
        exec.push(e.clone()).unwrap();
        exec.poll_results();
    }
    exec.finish().unwrap();
    let mut recovered = StreamExecutor::<u64>::recover(q, reg, durable(&dir, 2, 2)).unwrap();
    assert_eq!(recovered.stats().pushed, events.len() as u64);
    let rows = recovered.finish().unwrap();
    assert!(rows.is_empty(), "graceful finish left {} rows", rows.len());
    let _ = std::fs::remove_dir_all(&dir);
}

/// A one-group `A+` count over bare ticks, tumbling `within`, for the
/// ingest-side cases below; the closure makes the tick at `t`.
fn tick_q(within: u64) -> (SchemaRegistry, CompiledQuery, impl Fn(u64) -> Event) {
    let mut reg = SchemaRegistry::new();
    reg.register_type("A", &["grp"]).unwrap();
    let text =
        format!("RETURN grp, COUNT(*) PATTERN A+ GROUP-BY grp WITHIN {within} SLIDE {within}");
    let q = CompiledQuery::parse(&text, &reg).unwrap();
    let tid = reg.type_id("A").unwrap();
    let ev = move |t: u64| Event::new_unchecked(tid, Time(t), vec![Value::Int(0)]);
    (reg, q, ev)
}

#[test]
fn logged_then_rejected_late_event_does_not_poison_recovery() {
    // Under LatePolicy::Error the event is WAL-logged before the late
    // check fails the push; replay must skip it the same way the
    // original caller did, not fail recovery forever.
    let (reg, q, ev) = tick_q(100);
    let dir = tmpdir("late-poison");
    let config = || ExecutorConfig {
        slack: 2,
        late_policy: LatePolicy::Error,
        ..durable(&dir, 1, 2)
    };
    {
        let mut exec = StreamExecutor::<u64>::new(q.clone(), reg.clone(), config()).unwrap();
        exec.push(ev(10)).unwrap();
        exec.push(ev(20)).unwrap();
        // Late: logged, then rejected — the caller notes it and goes on.
        assert!(matches!(
            exec.push(ev(5)).unwrap_err(),
            EngineError::Late { got: 5, .. }
        ));
        exec.push(ev(30)).unwrap();
    } // crash
    let mut exec = StreamExecutor::<u64>::recover(q, reg, config()).unwrap();
    assert_eq!(exec.stats().pushed, 4);
    let rows = exec.finish().unwrap();
    // Same result the uninterrupted run produces: trends over {10,20,30}.
    assert_eq!(rows[0].values[0].to_f64(), 7.0);
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn recover_refuses_mismatched_slack_or_late_policy() {
    let (reg, q, events) = stock_q1(300);
    let dir = tmpdir("cfg-mismatch");
    let config = |slack, late_policy| ExecutorConfig {
        slack,
        late_policy,
        ..durable(&dir, 2, 2)
    };
    {
        let mut exec =
            StreamExecutor::<u64>::new(q.clone(), reg.clone(), config(3, LatePolicy::Error))
                .unwrap();
        for e in &events[..150] {
            exec.push(e.clone()).unwrap();
        }
        exec.checkpoint().unwrap();
    }
    for bad in [config(0, LatePolicy::Error), config(3, LatePolicy::Drop)] {
        let err = StreamExecutor::<u64>::recover(q.clone(), reg.clone(), bad)
            .err()
            .expect("recover must refuse result-shaping config changes");
        assert!(matches!(err, EngineError::Config(_)), "{err}");
    }
    // The matching config still works.
    let mut exec = StreamExecutor::<u64>::recover(q, reg, config(3, LatePolicy::Error)).unwrap();
    exec.finish().unwrap();
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn checkpoint_requires_durability() {
    let (reg, q, _) = stock_q1(10);
    let mut exec = StreamExecutor::<u64>::new(q, reg, ExecutorConfig::default()).unwrap();
    assert!(matches!(
        exec.checkpoint().unwrap_err(),
        EngineError::Config(_)
    ));
    exec.finish().unwrap();
}

#[test]
fn recovery_preserves_reorder_slack_state_and_late_drops() {
    // Out-of-order events pending in the reorder buffer at checkpoint
    // time survive the crash via the checkpoint (they are *before* the
    // checkpoint record). So does the late-drop counter: tick 0 comes
    // after tick 2 was released and is dropped before the checkpoint,
    // tick 2 after tick 8 was and is dropped after it.
    let (reg, q, ev) = tick_q(20);
    let times: Vec<u64> = vec![2, 1, 4, 3, 6, 5, 0, 8, 7, 30, 29, 31, 28, 2, 50];
    let dir = tmpdir("reorder-late");
    let config = |late_policy| ExecutorConfig {
        slack: 3,
        late_policy,
        ..durable(&dir, 1, u64::MAX)
    };
    // Oracle: the uninterrupted run, without durability.
    let mut oracle = StreamExecutor::<u64>::new(
        q.clone(),
        reg.clone(),
        ExecutorConfig {
            durability: None,
            ..config(LatePolicy::Drop)
        },
    )
    .unwrap();
    for &t in &times {
        oracle.push(ev(t)).unwrap();
    }
    let expect = sorted(oracle.finish().unwrap());
    assert_eq!(oracle.stats().late_dropped, 2);

    let mut committed = Vec::new();
    {
        let mut exec =
            StreamExecutor::<u64>::new(q.clone(), reg.clone(), config(LatePolicy::Drop)).unwrap();
        for &t in &times[..7] {
            exec.push(ev(t)).unwrap();
            committed.extend(exec.poll_results());
        }
        assert_eq!(exec.stats().late_dropped, 1);
        exec.checkpoint().unwrap();
    } // crash
    let err = StreamExecutor::<u64>::recover(q.clone(), reg.clone(), config(LatePolicy::Error))
        .err()
        .expect("recover must refuse a late-policy change");
    assert!(
        matches!(&err, EngineError::Config(m) if m.contains("late-policy mismatch")),
        "{err}"
    );
    let mut exec = StreamExecutor::<u64>::recover(q, reg, config(LatePolicy::Drop)).unwrap();
    // The checkpoint covers every WAL record, so this count is the
    // snapshot's.
    assert_eq!(exec.stats().late_dropped, 1);
    for &t in &times[7..] {
        exec.push(ev(t)).unwrap();
        committed.extend(exec.poll_results());
    }
    committed.extend(exec.finish().unwrap());
    assert_eq!(sorted(committed), expect);
    assert_eq!(exec.stats().late_dropped, 2);
    let _ = std::fs::remove_dir_all(&dir);
}

/// Union of pre-crash output and post-recovery output, deduplicated by
/// `(window, group)` — the documented idempotent-sink contract for crashes
/// at arbitrary (non-checkpoint-aligned) points.
fn dedup_union(
    committed: Vec<WindowResult<u64>>,
    recovered: Vec<WindowResult<u64>>,
) -> Result<Vec<WindowResult<u64>>, TestCaseError> {
    let mut map: BTreeMap<(u64, PartitionKey), WindowResult<u64>> = BTreeMap::new();
    for row in committed.into_iter().chain(recovered) {
        let key = (row.window, row.group.clone());
        if let Some(prev) = map.get(&key) {
            // Duplicates must be byte-identical (deterministic replay).
            prop_assert_eq!(&prev.values, &row.values, "non-identical duplicate");
        } else {
            map.insert(key, row);
        }
    }
    Ok(map.into_values().collect())
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 12, ..ProptestConfig::default() })]

    /// Kill the executor after N events — no cooperative checkpoint, only
    /// whatever the automatic cadence produced — recover, run the rest,
    /// and compare against the uninterrupted oracle run on Q1.
    #[test]
    fn crash_at_arbitrary_point_recovers(
        crash_at in 1usize..400,
        shards in 1usize..4,
        every in 1u64..5,
    ) {
        let (reg, q, events) = stock_q1(400);
        let expect = oracle(&q, &reg, &events);
        let dir = tmpdir(&format!("prop-{crash_at}-{shards}-{every}"));
        let mut committed = Vec::new();
        {
            let mut exec = StreamExecutor::<u64>::new(
                q.clone(),
                reg.clone(),
                durable(&dir, shards, every),
            )
            .unwrap();
            for e in &events[..crash_at] {
                exec.push(e.clone()).unwrap();
                committed.extend(exec.poll_results());
            }
            // Hard crash: no finish, no checkpoint, rows in flight lost.
        }
        let mut exec = StreamExecutor::<u64>::recover(
            q.clone(),
            reg.clone(),
            durable(&dir, shards, every),
        )
        .unwrap();
        let mut recovered = Vec::new();
        for e in &events[crash_at..] {
            exec.push(e.clone()).unwrap();
            recovered.extend(exec.poll_results());
        }
        recovered.extend(exec.finish().unwrap());
        let got = sorted(dedup_union(committed, recovered)?);
        prop_assert_eq!(got, expect);
        let _ = std::fs::remove_dir_all(&dir);
    }
}

/// Every file of `from` copied into a fresh `to`: what a crash right now
/// would leave on disk.
fn copy_dir(from: &Path, to: &Path) {
    let _ = std::fs::remove_dir_all(to);
    std::fs::create_dir_all(to).unwrap();
    for entry in std::fs::read_dir(from).unwrap() {
        let path = entry.unwrap().path();
        std::fs::copy(&path, to.join(path.file_name().unwrap())).unwrap();
    }
}

/// The recoverability statement for the one log: whatever prefix of the
/// log a crash leaves after any push (synced), recovery yields exactly the
/// rows the sequential engine computes over the events each query saw
/// (all of them for q0, those after its register record for q1) —
/// across cadence checkpoints, segment rotations and truncations, and a
/// query registered mid-stream. The run never polls, so every row comes
/// from recovery.
#[test]
fn a_crash_after_any_push_recovers_exactly() {
    const Q0: &str = "RETURN sector, COUNT(*) PATTERN Stock S+ \
                      WHERE [company, sector] AND S.price > NEXT(S).price \
                      GROUP-BY sector WITHIN 30 SLIDE 10";
    const Q1: &str = "RETURN sector, COUNT(*) PATTERN Stock S+ WHERE [company, sector] \
                      GROUP-BY sector WITHIN 20 SLIDE 20";
    let n = 120;
    let (reg, _, events) = stock_q1(n);
    let q0 = CompiledQuery::parse(Q0, &reg).unwrap();
    let q1 = CompiledQuery::parse(Q1, &reg).unwrap();
    let registered_at = n / 3;
    // q1 sees what the reorder buffer releases after its register barrier:
    // at slack 0 it holds the events of the latest stamp, so those too.
    let last_stamp = events[registered_at - 1].time;
    let seen_from = events.iter().position(|e| e.time == last_stamp).unwrap();
    let (dir, copy) = (tmpdir("any-push"), tmpdir("any-push-copy"));
    let config = |dir: &Path| {
        let mut cfg = durable(dir, 2, 1);
        cfg.durability.as_mut().unwrap().segment_bytes = 512;
        cfg
    };
    let mut live = StreamExecutor::<u64>::new(q0.clone(), reg.clone(), config(&dir)).unwrap();
    for (i, e) in events.iter().enumerate() {
        if i == registered_at {
            live.register_query(Q1, EmissionMode::Unordered).unwrap();
        }
        live.push(e.clone()).unwrap();
        live.sync_wal().unwrap();
        copy_dir(&dir, &copy);
        let mut exec =
            StreamExecutor::<u64>::recover(q0.clone(), reg.clone(), config(&copy)).unwrap();
        let rows = exec.finish().unwrap();
        assert_eq!(
            sorted(rows),
            oracle(&q0, &reg, &events[..=i]),
            "q0 after push {i}"
        );
        if i >= registered_at {
            let rows = exec.poll_results_of(QueryId(1)).unwrap();
            let expect = oracle(&q1, &reg, &events[seen_from..=i]);
            assert_eq!(sorted(rows), expect, "q1 after push {i}");
        }
    }
    assert!(
        live.stats().checkpoints >= 5,
        "{:?}",
        live.stats().checkpoints
    );
    live.finish().unwrap();
    let _ = std::fs::remove_dir_all(&dir);
    let _ = std::fs::remove_dir_all(&copy);
}

// ---------------------------------------------------------------------
// Recovery onto another shard count
// ---------------------------------------------------------------------

/// Q1-shaped grouped query over a synthetic `M` stream.
fn grp_q() -> (SchemaRegistry, CompiledQuery) {
    let mut reg = SchemaRegistry::new();
    reg.register_type("M", &["grp", "load"]).unwrap();
    let q = CompiledQuery::parse(
        "RETURN grp, COUNT(*) PATTERN M+ WHERE M.load < NEXT(M).load \
         GROUP-BY grp WITHIN 40 SLIDE 20",
        &reg,
    )
    .unwrap();
    (reg, q)
}

/// The first `n` group ids whose hash lands on shard 0 of `shards`: hot
/// keys that pin one shard, the skew a recovery at another shard count
/// spreads.
fn colliding_groups(reg: &SchemaRegistry, q: &CompiledQuery, shards: usize, n: usize) -> Vec<i64> {
    let routing = StreamRouting::new(q, reg);
    (0..10_000i64)
        .filter(|g| {
            routing.shard_of_group_key(&PartitionKey(vec![Some(Value::Int(*g))]), shards) == 0
        })
        .take(n)
        .collect()
}

/// 90/10 hot-key stream: 90% of events round-robin the `hot` groups, the
/// rest spread over a `cold`-group tail. One event per tick.
fn skewed_events(reg: &SchemaRegistry, n: usize, hot: &[i64], cold: i64) -> Vec<Event> {
    (0..n as u64)
        .map(|t| {
            let grp = if t % 10 < 9 {
                hot[(t % hot.len() as u64) as usize]
            } else {
                100_000 + (t % cold as u64) as i64
            };
            EventBuilder::new(reg, "M")
                .unwrap()
                .at(Time(t))
                .set("grp", grp)
                .unwrap()
                .set("load", ((t * 31) % 17) as f64)
                .unwrap()
                .build()
        })
        .collect()
}

#[test]
fn recover_into_wider_and_narrower_executors_is_byte_identical() {
    let (reg, q) = grp_q();
    let hot = colliding_groups(&reg, &q, 4, 3);
    let events = skewed_events(&reg, 500, &hot, 29);
    let expect = oracle(&q, &reg, &events);
    for (from, to) in [(2usize, 4usize), (4, 2), (3, 5), (4, 1)] {
        let dir = tmpdir(&format!("reshard-{from}-{to}"));
        let mut committed = Vec::new();
        {
            let mut exec =
                StreamExecutor::<u64>::new(q.clone(), reg.clone(), durable(&dir, from, 4)).unwrap();
            for e in &events[..300] {
                exec.push(e.clone()).unwrap();
                committed.extend(exec.poll_results());
            }
            exec.checkpoint().unwrap();
            // Log a few more events after the checkpoint so the WAL tail
            // is replayed through the *resharded* routing on recovery.
            for e in &events[300..350] {
                exec.push(e.clone()).unwrap();
                committed.extend(exec.poll_results());
            }
        } // crash
        let mut exec =
            StreamExecutor::<u64>::recover(q.clone(), reg.clone(), durable(&dir, to, 4)).unwrap();
        assert_eq!(exec.shards(), to, "{from}→{to}");
        for e in &events[350..] {
            exec.push(e.clone()).unwrap();
            committed.extend(exec.poll_results());
        }
        committed.extend(exec.finish().unwrap());
        // Rows emitted between the checkpoint and the crash are re-emitted
        // deterministically; dedup on (window, group) like an idempotent
        // sink would.
        let mut rows = sorted(committed);
        rows.dedup_by(|a, b| a.window == b.window && a.group == b.group);
        assert_eq!(rows, expect, "{from}→{to}");
        let _ = std::fs::remove_dir_all(&dir);
    }
}

#[test]
fn recover_with_same_shard_count_still_works_unchanged() {
    // Guard against the resharding path regressing the common case.
    let (reg, q) = grp_q();
    let hot = colliding_groups(&reg, &q, 4, 2);
    let events = skewed_events(&reg, 300, &hot, 11);
    let expect = oracle(&q, &reg, &events);
    let dir = tmpdir("same-count");
    let mut committed = Vec::new();
    {
        let mut exec =
            StreamExecutor::<u64>::new(q.clone(), reg.clone(), durable(&dir, 3, 4)).unwrap();
        for e in &events[..150] {
            exec.push(e.clone()).unwrap();
            committed.extend(exec.poll_results());
        }
        exec.checkpoint().unwrap();
    }
    let mut exec =
        StreamExecutor::<u64>::recover(q.clone(), reg.clone(), durable(&dir, 3, 4)).unwrap();
    assert_eq!(exec.shards(), 3);
    for e in &events[150..] {
        exec.push(e.clone()).unwrap();
        committed.extend(exec.poll_results());
    }
    committed.extend(exec.finish().unwrap());
    assert_eq!(sorted(committed), expect);
    let _ = std::fs::remove_dir_all(&dir);
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 16, ..ProptestConfig::default() })]

    /// Mid-stream crash + recovery into a random different shard count
    /// on a skewed stream: byte-identical after idempotent-sink dedup.
    #[test]
    fn resharded_recovery_is_byte_identical(
        spec in proptest::collection::vec((0u8..=255, 0u8..=255), 60..140),
        from in 2usize..5,
        to in 1usize..6,
        cut_pct in 20u8..80,
    ) {
        let (reg, q) = grp_q();
        let mut t = 0u64;
        let events: Vec<Event> = spec.iter().map(|(skew, load)| {
            t += 1;
            let grp = if skew % 10 < 9 { (*skew as i64) % 3 } else { 3 + (*load as i64) % 13 };
            EventBuilder::new(&reg, "M")
                .unwrap()
                .at(Time(t))
                .set("grp", grp).unwrap()
                .set("load", (*load % 16) as f64).unwrap()
                .build()
        }).collect();
        let expect = oracle(&q, &reg, &events);
        let cut = events.len() * cut_pct as usize / 100;
        let dir = tmpdir(&format!("prop-reshard-{from}-{to}-{}", spec.len()));
        let mut committed = Vec::new();
        {
            let mut exec =
                StreamExecutor::<u64>::new(q.clone(), reg.clone(), durable(&dir, from, 4)).unwrap();
            for e in &events[..cut] {
                exec.push(e.clone()).unwrap();
                committed.extend(exec.poll_results());
            }
            exec.checkpoint().unwrap();
        } // crash
        let mut exec =
            StreamExecutor::<u64>::recover(q.clone(), reg.clone(), durable(&dir, to, 4)).unwrap();
        for e in &events[cut..] {
            exec.push(e.clone()).unwrap();
            committed.extend(exec.poll_results());
        }
        committed.extend(exec.finish().unwrap());
        let mut rows = sorted(committed);
        rows.dedup_by(|a, b| a.window == b.window && a.group == b.group);
        prop_assert_eq!(rows, expect);
        let _ = std::fs::remove_dir_all(&dir);
    }
}

// ---------------------------------------------------------------------
// Corrupted logs
// ---------------------------------------------------------------------

fn wal_segments(dir: &Path) -> Vec<PathBuf> {
    let mut segs: Vec<PathBuf> = std::fs::read_dir(dir)
        .unwrap()
        .filter_map(|e| {
            let p = e.unwrap().path();
            let name = p.file_name()?.to_str()?.to_string();
            (name.starts_with("wal-") && name.ends_with(".seg")).then_some(p)
        })
        .collect();
    segs.sort();
    segs
}

/// Write a WAL (no checkpoint) for `n` events, then crash.
fn wal_only_run(dir: &Path, n: usize) -> (SchemaRegistry, CompiledQuery, Vec<Event>) {
    let (reg, q, events) = stock_q1(n);
    let mut cfg = durable(dir, 2, 2);
    cfg.durability.as_mut().unwrap().snapshot_every_windows = u64::MAX;
    cfg.durability.as_mut().unwrap().segment_bytes = 1 << 20; // one segment
    let mut exec = StreamExecutor::<u64>::new(q.clone(), reg.clone(), cfg).unwrap();
    for e in &events {
        exec.push(e.clone()).unwrap();
    }
    drop(exec); // crash
    (reg, q, events)
}

#[test]
fn torn_wal_tail_recovers_without_the_torn_record() {
    let dir = tmpdir("torn-tail");
    let (reg, q, events) = wal_only_run(&dir, 60);
    // Tear the last frame: a crash mid-append.
    let seg = wal_segments(&dir).pop().expect("one segment");
    let len = std::fs::metadata(&seg).unwrap().len();
    let f = std::fs::OpenOptions::new().write(true).open(&seg).unwrap();
    f.set_len(len - 5).unwrap();
    drop(f);
    // Recovery repairs the tail: state is the stream minus the torn-off
    // final event (which was never durable).
    let mut exec =
        StreamExecutor::<u64>::recover(q.clone(), reg.clone(), durable(&dir, 2, 2)).unwrap();
    assert_eq!(exec.stats().pushed, events.len() as u64 - 1);
    let rows = sorted(exec.finish().unwrap());
    assert_eq!(rows, oracle(&q, &reg, &events[..events.len() - 1]));
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn wal_checksum_corruption_is_a_clean_recovery_error() {
    let dir = tmpdir("bad-crc");
    let (reg, q, _) = wal_only_run(&dir, 60);
    // Flip one byte in the middle of the log: data corruption, not a torn
    // write — recovery must refuse rather than replay garbage.
    let seg = wal_segments(&dir).pop().expect("one segment");
    let mut data = std::fs::read(&seg).unwrap();
    let mid = data.len() / 2;
    data[mid] ^= 0x40;
    std::fs::write(&seg, &data).unwrap();
    let err = StreamExecutor::<u64>::recover(q, reg, durable(&dir, 2, 2))
        .err()
        .expect("recover must fail on checksum corruption");
    assert!(matches!(err, EngineError::Durability(_)), "{err}");
    let _ = std::fs::remove_dir_all(&dir);
}

/// WAL record tag of a checkpoint: the blob follows it.
const CHECKPOINT: u8 = 3;

/// Run 200 events of Q1 and checkpoint, then crash.
fn checkpointed_run(dir: &Path) -> (SchemaRegistry, CompiledQuery) {
    let (reg, q, events) = stock_q1(300);
    let mut exec = StreamExecutor::<u64>::new(q.clone(), reg.clone(), durable(dir, 2, 2)).unwrap();
    for e in &events[..200] {
        exec.push(e.clone()).unwrap();
    }
    exec.checkpoint().unwrap();
    drop(exec); // crash
    (reg, q)
}

#[test]
fn snapshot_corruption_is_a_clean_recovery_error() {
    // One flipped byte in the checkpoint record: the frame's checksum no
    // longer matches, and recovery refuses rather than fall back.
    let dir = tmpdir("bad-snap");
    let (reg, q) = checkpointed_run(&dir);
    // The checkpoint is the last record: the end of the last segment that
    // holds anything (its append may have rotated to an empty one).
    let seg = wal_segments(&dir)
        .into_iter()
        .rfind(|p| std::fs::metadata(p).unwrap().len() > 0)
        .unwrap();
    let mut data = std::fs::read(&seg).unwrap();
    let last = data.len() - 1;
    data[last] ^= 0x01;
    std::fs::write(&seg, &data).unwrap();
    let err = StreamExecutor::<u64>::recover(q, reg, durable(&dir, 2, 2))
        .err()
        .expect("recover must fail on checkpoint corruption");
    assert!(matches!(err, EngineError::Durability(_)), "{err}");
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn snapshot_of_an_older_format_version_is_refused_not_misread() {
    // A checksum-valid checkpoint record whose blob's version byte says 8
    // (the layout whose ingest section held a per-window late ledger), 7
    // (the layout that still carried the routing table and skew
    // sketches), 6 (before the blob was regrouped by plane) or 5 (before
    // every query became the same section): recovery must name the
    // version and stop, whatever the bytes behind it say.
    let dir = tmpdir("old-version");
    let (reg, q) = checkpointed_run(&dir);
    let mut record = None;
    Wal::replay(&dir, |_, rec| {
        if rec[0] == CHECKPOINT {
            record = Some(rec.to_vec());
        }
    })
    .unwrap();
    let mut record = record.expect("a checkpoint record");
    for old in [8u8, 7, 6, 5] {
        // Re-frame the log around the altered blob.
        record[1] = old;
        let _ = std::fs::remove_dir_all(&dir);
        let mut wal = Wal::open(&dir, 4096, FsyncPolicy::AtCheckpoint).unwrap();
        wal.append(&record).unwrap();
        drop(wal);
        let err = StreamExecutor::<u64>::recover(q.clone(), reg.clone(), durable(&dir, 2, 2))
            .err()
            .expect("recover must refuse an older snapshot version");
        assert!(
            err.to_string()
                .contains(&format!("unsupported snapshot version {old}")),
            "{err}"
        );
    }
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn a_directory_of_the_snapshot_store_layout_is_refused() {
    // Checkpoints used to live in `snap-<epoch>.bin` files named by a
    // `MANIFEST`. Either file marks a directory this release cannot read:
    // new and recover both refuse it instead of replaying a WAL whose
    // head the old layout had truncated.
    for name in ["MANIFEST", "snap-00000000000000000001.bin"] {
        let dir = tmpdir("old-layout");
        let (reg, q) = checkpointed_run(&dir);
        std::fs::write(dir.join(name), b"GMAN").unwrap();
        let err = StreamExecutor::<u64>::recover(q.clone(), reg.clone(), durable(&dir, 2, 2))
            .err()
            .expect("recover must refuse the old layout");
        assert!(
            matches!(&err, EngineError::Durability(m) if m.contains("retired snapshot-store layout")),
            "{err}"
        );
        let err = StreamExecutor::<u64>::new(q, reg, durable(&dir, 2, 2))
            .err()
            .expect("new must refuse the old layout");
        assert!(matches!(err, EngineError::Durability(_)), "{err}");
        let _ = std::fs::remove_dir_all(&dir);
    }
}

#[test]
fn a_log_that_lost_its_head_without_a_checkpoint_is_refused() {
    // Segments before the first checkpoint record are gone: replaying
    // what is left into fresh state would silently drop a prefix.
    let (reg, q, events) = stock_q1(200);
    let dir = tmpdir("headless");
    let mut cfg = durable(&dir, 2, u64::MAX);
    cfg.durability.as_mut().unwrap().segment_bytes = 256;
    {
        let mut exec = StreamExecutor::<u64>::new(q.clone(), reg.clone(), cfg.clone()).unwrap();
        for e in &events {
            exec.push(e.clone()).unwrap();
        }
    } // crash
    let segs = wal_segments(&dir);
    assert!(segs.len() > 1);
    std::fs::remove_file(&segs[0]).unwrap();
    let err = StreamExecutor::<u64>::recover(q, reg, cfg)
        .err()
        .expect("recover must refuse a headless log");
    assert!(
        matches!(&err, EngineError::Durability(m) if m.contains("holds no checkpoint")),
        "{err}"
    );
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn a_checkpoint_costs_one_wal_sync() {
    // Rotation out of reach: the checkpoint record is appended, the live
    // segment fsynced once, and no segment is left to delete.
    let (reg, q, events) = stock_q1(300);
    let dir = tmpdir("one-sync");
    let mut cfg = durable(&dir, 2, u64::MAX);
    cfg.durability.as_mut().unwrap().segment_bytes = 1 << 30;
    let mut exec = StreamExecutor::<u64>::new(q, reg, cfg).unwrap();
    for e in &events {
        exec.push(e.clone()).unwrap();
    }
    let before = exec.stats();
    assert_eq!(before.checkpoint_bytes, 0);
    exec.checkpoint().unwrap();
    let after = exec.stats();
    assert_eq!(after.wal_syncs, before.wal_syncs + 1);
    assert!(after.checkpoint_bytes > 1);
    // The record is framed (8 bytes) and counted with the events.
    assert_eq!(
        after.wal_bytes,
        before.wal_bytes + 8 + after.checkpoint_bytes
    );
    assert_eq!(
        exec.durable_index(),
        Some(events.len() as u64 + 1),
        "the checkpoint record counts as appended"
    );
    exec.finish().unwrap();
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn recovery_with_a_shorter_cadence_survives_a_second_crash() {
    // Recovered under a cadence that makes checkpoints due inside the
    // replayed tail, then crashed again before the next one: the second
    // recovery must still see every logged event once.
    let (reg, q, events) = stock_q1(900);
    let expect = oracle(&q, &reg, &events);
    let dir = tmpdir("recadence");
    {
        let mut exec =
            StreamExecutor::<u64>::new(q.clone(), reg.clone(), durable(&dir, 2, u64::MAX)).unwrap();
        for e in &events[..600] {
            exec.push(e.clone()).unwrap();
        }
    } // crash, nothing checkpointed
    drop(StreamExecutor::<u64>::recover(q.clone(), reg.clone(), durable(&dir, 2, 1)).unwrap());
    let mut exec =
        StreamExecutor::<u64>::recover(q.clone(), reg.clone(), durable(&dir, 2, 1)).unwrap();
    assert_eq!(exec.stats().pushed, 600);
    let mut rows = Vec::new();
    for e in &events[600..] {
        exec.push(e.clone()).unwrap();
        rows.extend(exec.poll_results());
    }
    rows.extend(exec.finish().unwrap());
    assert_eq!(sorted(rows), expect);
    let _ = std::fs::remove_dir_all(&dir);
}
