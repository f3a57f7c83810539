//! End-to-end durability: checkpoint → crash → recover on the paper's
//! workloads (Q1 stock, Q2 cluster), crash at arbitrary points (proptest
//! against an uninterrupted oracle), and corrupted-log handling (torn
//! tails recover, checksum corruption is a clean error).

use greta::core::{
    EngineError, ExecutorConfig, GretaEngine, PartitionKey, StreamExecutor, WindowResult,
};
use greta::durability::{DurabilityConfig, Manifest, SnapshotStore};
use greta::query::CompiledQuery;
use greta::types::{Event, SchemaRegistry};
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
    // A checksum-valid blob whose executor-format version byte says 5
    // (the layout before every query became the same section): recovery
    // must name the version and stop, whatever the bytes behind it say.
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
    blob[0] = 5;
    store.write(epoch, &blob).unwrap();
    let err = StreamExecutor::<u64>::recover(q, reg, durable(&dir, 2, 2))
        .err()
        .expect("recover must refuse a version-5 snapshot");
    assert!(
        err.to_string().contains("unsupported snapshot version 5"),
        "{err}"
    );
    let _ = std::fs::remove_dir_all(&dir);
}
