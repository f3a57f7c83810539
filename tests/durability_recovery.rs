//! End-to-end durability: checkpoint → crash → recover on the paper's
//! workloads (Q1 stock, Q2 cluster), crash at arbitrary points (proptest
//! against an uninterrupted oracle), recovery onto another shard count,
//! and corrupted-log handling (torn tails recover, checksum corruption is
//! a clean error).

use greta::core::{
    EngineError, ExecutorConfig, GretaEngine, LatePolicy, PartitionKey, StreamExecutor,
    StreamRouting, WindowResult,
};
use greta::durability::{
    DurabilityConfig, DurabilityError, Manifest, SnapshotStore, TailPolicy, Wal,
};
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
    let err = Wal::replay(&dir, 0, TailPolicy::Tolerate, |_, _| {}).unwrap_err();
    assert!(matches!(err, DurabilityError::NothingToRecover(_)), "{err}");
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
            StreamExecutor::<u64>::new(q.clone(), reg.clone(), config(3, LatePolicy::Divert))
                .unwrap();
        for e in &events[..150] {
            exec.push(e.clone()).unwrap();
        }
        exec.checkpoint().unwrap();
    }
    for bad in [config(0, LatePolicy::Divert), config(3, LatePolicy::Drop)] {
        let err = StreamExecutor::<u64>::recover(q.clone(), reg.clone(), bad)
            .err()
            .expect("recover must refuse result-shaping config changes");
        assert!(matches!(err, EngineError::Config(_)), "{err}");
    }
    // The matching config still works.
    let mut exec = StreamExecutor::<u64>::recover(q, reg, config(3, LatePolicy::Divert)).unwrap();
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
fn recovery_preserves_reorder_slack_state_and_diverted() {
    // Out-of-order events pending in the reorder buffer at checkpoint
    // time survive the crash via the snapshot (they are *before* the
    // manifest's WAL cut).
    let (reg, q, ev) = tick_q(20);
    let times: Vec<u64> = vec![2, 1, 4, 3, 6, 5, 8, 7, 30, 29, 31, 28, 50];
    let dir = tmpdir("reorder-divert");
    let config = || ExecutorConfig {
        slack: 3,
        late_policy: LatePolicy::Divert,
        ..durable(&dir, 1, u64::MAX)
    };
    // Oracle without durability.
    let mut oracle = StreamExecutor::<u64>::new(
        q.clone(),
        reg.clone(),
        ExecutorConfig {
            durability: None,
            ..config()
        },
    )
    .unwrap();
    for &t in &times {
        oracle.push(ev(t)).unwrap();
    }
    let expect = sorted(oracle.finish().unwrap());
    let n_div_expect = oracle.take_diverted().len();

    let mut committed = Vec::new();
    {
        let mut exec = StreamExecutor::<u64>::new(q.clone(), reg.clone(), config()).unwrap();
        for &t in &times[..7] {
            exec.push(ev(t)).unwrap();
            committed.extend(exec.poll_results());
        }
        exec.checkpoint().unwrap();
    } // crash
    let mut exec = StreamExecutor::<u64>::recover(q, reg, config()).unwrap();
    for &t in &times[7..] {
        exec.push(ev(t)).unwrap();
        committed.extend(exec.poll_results());
    }
    committed.extend(exec.finish().unwrap());
    assert_eq!(sorted(committed), expect);
    assert_eq!(exec.take_diverted().len(), n_div_expect);
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

#[test]
fn snapshot_corruption_is_a_clean_recovery_error() {
    let dir = tmpdir("bad-snap");
    let (reg, q, events) = stock_q1(300);
    {
        let mut exec =
            StreamExecutor::<u64>::new(q.clone(), reg.clone(), durable(&dir, 2, 2)).unwrap();
        for e in &events[..200] {
            exec.push(e.clone()).unwrap();
        }
        exec.checkpoint().unwrap();
    }
    let snap = std::fs::read_dir(&dir)
        .unwrap()
        .map(|e| e.unwrap().path())
        .find(|p| {
            p.file_name()
                .and_then(|n| n.to_str())
                .is_some_and(|n| n.starts_with("snap-"))
        })
        .expect("snapshot file");
    let mut data = std::fs::read(&snap).unwrap();
    let last = data.len() - 1;
    data[last] ^= 0x01;
    std::fs::write(&snap, &data).unwrap();
    let err = StreamExecutor::<u64>::recover(q, reg, durable(&dir, 2, 2))
        .err()
        .expect("recover must fail on snapshot corruption");
    assert!(matches!(err, EngineError::Durability(_)), "{err}");
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn snapshot_of_an_older_format_version_is_refused_not_misread() {
    // A checksum-valid blob whose executor-format version byte says 7
    // (the layout that still carried the routing table and skew
    // sketches), 6 (before the blob was regrouped by plane) or 5 (before
    // every query became the same section): recovery must name the
    // version and stop, whatever the bytes behind it say.
    let dir = tmpdir("old-version");
    let (reg, q, events) = stock_q1(300);
    {
        let mut exec =
            StreamExecutor::<u64>::new(q.clone(), reg.clone(), durable(&dir, 2, 2)).unwrap();
        for e in &events[..200] {
            exec.push(e.clone()).unwrap();
        }
        exec.checkpoint().unwrap();
    }
    let epoch = Manifest::load(&dir).unwrap().expect("manifest").epoch;
    let store = SnapshotStore::open(&dir).unwrap();
    let mut blob = store.read(epoch).unwrap();
    for old in [7u8, 6, 5] {
        blob[0] = old;
        store.write(epoch, &blob).unwrap();
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
