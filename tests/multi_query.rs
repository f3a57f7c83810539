//! Integration tests for the multi-query executor (ISSUE 9): one ingest
//! plane (reorder buffer + WAL, paid once per event) fanning out to N
//! registered queries, each with its own compiled plan, emission mode, and
//! result channel. Every query's output must be byte-identical to its
//! standalone single-query run — across shard counts, live
//! register/deregister barriers (on a skewed stream), crash/recovery with
//! the registry in the snapshot/WAL, and a two-stage cascaded DAG driven
//! by `min_frontier`.

use greta::core::{
    sort_canonical, EmissionMode, ExecutorConfig, GretaEngine, PartitionKey, QueryId,
    StreamExecutor, StreamRouting, WindowResult,
};
use greta::durability::DurabilityConfig;
use greta::query::CompiledQuery;
use greta::types::{Event, EventBuilder, SchemaRegistry, Time, Value};
use std::path::PathBuf;

fn sorted(mut rows: Vec<WindowResult<f64>>) -> Vec<WindowResult<f64>> {
    sort_canonical(&mut rows);
    rows
}

fn tmpdir(name: &str) -> PathBuf {
    let d = std::env::temp_dir().join(format!("greta-multiq-{name}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&d);
    d
}

fn assert_canonical_order(rows: &[WindowResult<f64>], ctx: &str) {
    for w in rows.windows(2) {
        assert!(
            w[0].order_key() <= w[1].order_key(),
            "{ctx}: out-of-order emission: ({}, {:?}) then ({}, {:?})",
            w[0].window,
            w[0].group,
            w[1].window,
            w[1].group,
        );
    }
}

/// One `M` stream, three query shapes over it: QA and QB share
/// the `grp` key plane (one routed frame feeds both); QC groups by `aux`,
/// its own plane.
const QA: &str = "RETURN grp, COUNT(*), SUM(S.load) PATTERN M S+ \
                  WHERE S.load < NEXT(S).load GROUP-BY grp WITHIN 40 SLIDE 20";
const QB: &str = "RETURN grp, COUNT(*) PATTERN M+ WHERE M.load < NEXT(M).load \
                  GROUP-BY grp WITHIN 60 SLIDE 30";
const QC: &str = "RETURN aux, SUM(M.load) PATTERN M+ WHERE M.load < NEXT(M).load \
                  GROUP-BY aux WITHIN 50 SLIDE 25";

fn setup() -> SchemaRegistry {
    let mut reg = SchemaRegistry::new();
    reg.register_type("M", &["grp", "aux", "load"]).unwrap();
    reg
}

fn events(reg: &SchemaRegistry, n: usize) -> Vec<Event> {
    (0..n as u64)
        .map(|t| {
            EventBuilder::new(reg, "M")
                .unwrap()
                .at(Time(t))
                .set("grp", (t % 5) as i64)
                .unwrap()
                .set("aux", (t % 7) as i64)
                .unwrap()
                .set("load", ((t * 31) % 17) as f64)
                .unwrap()
                .build()
        })
        .collect()
}

/// Single-engine oracle: the canonical output of `text` over `events`.
fn oracle(text: &str, reg: &SchemaRegistry, events: &[Event]) -> Vec<WindowResult<f64>> {
    let q = CompiledQuery::parse(text, reg).unwrap();
    let mut engine = GretaEngine::<f64>::new(q, reg.clone()).unwrap();
    sorted(engine.run(events).unwrap())
}

#[test]
fn three_queries_share_one_stream_byte_identical() {
    let reg = setup();
    let events = events(&reg, 500);
    let expect_a = oracle(QA, &reg, &events);
    let expect_b = oracle(QB, &reg, &events);
    let expect_c = oracle(QC, &reg, &events);
    for shards in [1usize, 2, 4] {
        let qa = CompiledQuery::parse(QA, &reg).unwrap();
        let mut exec = StreamExecutor::<f64>::new(
            qa,
            reg.clone(),
            ExecutorConfig {
                shards,
                ..Default::default()
            },
        )
        .unwrap();
        let qb = exec
            .register_query(QB, EmissionMode::WindowOrdered)
            .unwrap();
        let qc = exec.register_query(QC, EmissionMode::Unordered).unwrap();
        assert_eq!(exec.query_ids(), vec![QueryId::PRIMARY, qb, qc]);
        assert_eq!(exec.query_text(qb), Some(QB));
        let (mut rows_a, mut rows_b, mut rows_c) = (Vec::new(), Vec::new(), Vec::new());
        for e in &events {
            exec.push(e.clone()).unwrap();
            rows_a.extend(exec.poll_results());
            rows_b.extend(exec.poll_results_of(qb).unwrap());
            rows_c.extend(exec.poll_results_of(qc).unwrap());
        }
        rows_a.extend(exec.finish().unwrap());
        rows_b.extend(exec.poll_results_of(qb).unwrap());
        rows_c.extend(exec.poll_results_of(qc).unwrap());
        let stats = exec.stats();
        // One ingest plane: each event was WAL-less here but released and
        // routed exactly once, whatever the query count.
        assert_eq!(stats.pushed, events.len() as u64);
        assert_eq!(stats.released, events.len() as u64);
        let route_group = |id| {
            stats
                .queries
                .iter()
                .find(|q| q.id == id)
                .unwrap()
                .route_group
        };
        assert_eq!(
            route_group(qb),
            route_group(QueryId::PRIMARY),
            "QB groups by grp: must ride QA's routed frames"
        );
        assert_ne!(
            route_group(qc),
            route_group(QueryId::PRIMARY),
            "QC groups by aux: must route on its own key plane"
        );
        // Byte-identity per query vs its standalone run.
        assert_eq!(sorted(rows_a), expect_a, "QA shards={shards}");
        assert_canonical_order(&rows_b, &format!("QB shards={shards}"));
        assert_eq!(rows_b, expect_b, "QB shards={shards}");
        assert_eq!(sorted(rows_c), expect_c, "QC shards={shards}");
    }
}

#[test]
fn register_and_deregister_mid_stream_on_a_skewed_stream() {
    let reg = setup();
    // Skewed stream: the hot grp keys all hash to shard 0 of 4, so one
    // shard carries the load while queries come and go.
    let qa = CompiledQuery::parse(QA, &reg).unwrap();
    let routing = StreamRouting::new(&qa, &reg);
    let hot: Vec<i64> = (0..10_000i64)
        .filter(|g| routing.shard_of_group_key(&PartitionKey(vec![Some(Value::Int(*g))]), 4) == 0)
        .take(3)
        .collect();
    let events: Vec<Event> = (0..600u64)
        .map(|t| {
            let grp = if t % 10 < 9 {
                hot[(t % 3) as usize]
            } else {
                100_000 + (t % 23) as i64
            };
            EventBuilder::new(&reg, "M")
                .unwrap()
                .at(Time(t))
                .set("grp", grp)
                .unwrap()
                .set("aux", (t % 7) as i64)
                .unwrap()
                .set("load", ((t * 31) % 17) as f64)
                .unwrap()
                .build()
        })
        .collect();
    let (reg_at, dereg_at) = (150usize, 450usize);
    // The register/deregister barrier cuts at the *release* frontier: with
    // slack 0 and strictly increasing stamps the reorder buffer still
    // holds the most recently pushed event (its successor has not proven
    // the stamp complete), so a query registered before push k and
    // deregistered before push j observes exactly the slice [k-1, j-1).
    let expect_b = oracle(QB, &reg, &events[reg_at - 1..dereg_at - 1]);
    let expect_a = oracle(QA, &reg, &events);
    let mut exec = StreamExecutor::<f64>::new(
        qa,
        reg.clone(),
        ExecutorConfig {
            shards: 4,
            ..Default::default()
        },
    )
    .unwrap();
    let mut rows_a = Vec::new();
    let mut rows_b = Vec::new();
    let mut qb = None;
    let epoch_before = exec.query_epoch();
    for (i, e) in events.iter().enumerate() {
        if i == reg_at {
            qb = Some(exec.register_query(QB, EmissionMode::Unordered).unwrap());
        }
        if i == dereg_at {
            let id = qb.unwrap();
            rows_b.extend(exec.poll_results_of(id).unwrap());
            rows_b.extend(exec.deregister_query(id).unwrap());
            assert!(!exec.query_ids().contains(&id));
        }
        exec.push(e.clone()).unwrap();
        rows_a.extend(exec.poll_results());
        if let Some(id) = qb {
            if i >= reg_at && i < dereg_at {
                rows_b.extend(exec.poll_results_of(id).unwrap());
            }
        }
    }
    rows_a.extend(exec.finish().unwrap());
    let stats = exec.stats();
    assert!(
        stats.events_per_shard[0] * 10 >= stats.released * 9,
        "the hot keys must pin shard 0: {:?}",
        stats.events_per_shard
    );
    assert_eq!(
        exec.query_epoch(),
        epoch_before + 2,
        "register + deregister"
    );
    assert_eq!(sorted(rows_b), expect_b, "registered window of the stream");
    assert_eq!(sorted(rows_a), expect_a, "QA must be undisturbed");
}

/// A remove barrier's ack queues behind the remainder rows on the one
/// bounded result channel: with a remainder larger than the channel, the
/// shards block on their rows until the coordinator — waiting for acks —
/// absorbs them. Nothing may be dropped, reordered, or deadlock.
#[test]
fn deregister_returns_a_remainder_larger_than_the_result_channel() {
    const WIDE: &str = "RETURN grp, COUNT(*) PATTERN M+ WHERE M.load < NEXT(M).load \
                        GROUP-BY grp WITHIN 200 SLIDE 10";
    let reg = setup();
    let events = events(&reg, 300);
    let result_capacity = 8;
    let mut exec = StreamExecutor::<f64>::new(
        CompiledQuery::parse(QA, &reg).unwrap(),
        reg.clone(),
        ExecutorConfig {
            shards: 4,
            result_capacity,
            ..Default::default()
        },
    )
    .unwrap();
    let id = exec
        .register_query(WIDE, EmissionMode::WindowOrdered)
        .unwrap();
    for e in &events {
        exec.push(e.clone()).unwrap();
    }
    let mut rows = exec.poll_results_of(id).unwrap();
    let remainder = exec.deregister_query(id).unwrap();
    assert!(
        remainder.len() > 4 * result_capacity,
        "remainder of {} rows does not overflow the channel",
        remainder.len()
    );
    rows.extend(remainder);
    // The last pushed event is still in the reorder buffer at the cut.
    assert_eq!(rows, oracle(WIDE, &reg, &events[..events.len() - 1]));
    exec.finish().unwrap();
}

#[test]
fn crash_recovery_restores_all_registered_queries() {
    let reg = setup();
    let events = events(&reg, 500);
    let expect_a = oracle(QA, &reg, &events);
    let expect_b = oracle(QB, &reg, &events);
    let expect_c = oracle(QC, &reg, &events);
    let dir = tmpdir("recover");
    let mk_cfg = || ExecutorConfig {
        shards: 3,
        durability: Some(DurabilityConfig::new(&dir)),
        ..Default::default()
    };
    let qa = CompiledQuery::parse(QA, &reg).unwrap();
    let (mut rows_a, mut rows_b, mut rows_c) = (Vec::new(), Vec::new(), Vec::new());
    let (qb, qc);
    {
        let mut exec = StreamExecutor::<f64>::new(qa.clone(), reg.clone(), mk_cfg()).unwrap();
        qb = exec
            .register_query(QB, EmissionMode::WindowOrdered)
            .unwrap();
        qc = exec.register_query(QC, EmissionMode::Unordered).unwrap();
        for e in &events[..220] {
            exec.push(e.clone()).unwrap();
            rows_a.extend(exec.poll_results());
            rows_b.extend(exec.poll_results_of(qb).unwrap());
            rows_c.extend(exec.poll_results_of(qc).unwrap());
        }
        exec.checkpoint().unwrap();
        // Past the checkpoint, push without polling: these events live
        // only in the WAL and must replay — registry intact — on recovery.
        for e in &events[220..300] {
            exec.push(e.clone()).unwrap();
        }
    } // crash
    let mut exec = StreamExecutor::<f64>::recover(qa, reg.clone(), mk_cfg()).unwrap();
    assert_eq!(
        exec.query_ids(),
        vec![QueryId::PRIMARY, qb, qc],
        "recovery must restore the whole registry"
    );
    assert_eq!(exec.query_text(qb), Some(QB));
    assert_eq!(exec.query_text(qc), Some(QC));
    for e in &events[300..] {
        exec.push(e.clone()).unwrap();
        rows_a.extend(exec.poll_results());
        rows_b.extend(exec.poll_results_of(qb).unwrap());
        rows_c.extend(exec.poll_results_of(qc).unwrap());
    }
    rows_a.extend(exec.finish().unwrap());
    rows_b.extend(exec.poll_results_of(qb).unwrap());
    rows_c.extend(exec.poll_results_of(qc).unwrap());
    assert_eq!(sorted(rows_a), expect_a, "compiled-plan query across crash");
    assert_canonical_order(&rows_b, "ordered registered query across crash");
    assert_eq!(rows_b, expect_b, "ordered registered query across crash");
    assert_eq!(
        sorted(rows_c),
        expect_c,
        "unordered registered query across crash"
    );
    let _ = std::fs::remove_dir_all(&dir);
}

/// Every hosted query's counters and buffers ride the checkpoint the same
/// way: after checkpoint → more events → crash → recover, each query's
/// `rows` counter, released watermark, and un-polled remainder equal an
/// uninterrupted run's at the same stream position. (Before snapshot v6
/// the query passed to `new` lost its `rows` counter across recovery.)
#[test]
fn recovery_restores_every_querys_counters_and_remainder() {
    let reg = setup();
    let events = events(&reg, 300);
    let qa = CompiledQuery::parse(QA, &reg).unwrap();
    let start = |dir: &PathBuf| {
        let cfg = ExecutorConfig {
            shards: 3,
            emission: EmissionMode::WindowOrdered,
            durability: Some(DurabilityConfig::new(dir)),
            ..Default::default()
        };
        let mut exec = StreamExecutor::<f64>::new(qa.clone(), reg.clone(), cfg.clone()).unwrap();
        exec.register_query(QB, EmissionMode::WindowOrdered)
            .unwrap();
        exec.register_query(QC, EmissionMode::Unordered).unwrap();
        (exec, cfg)
    };
    // A checkpoint is a barrier: every row emitted before it has been
    // absorbed, so counters and buffers read right after one are
    // deterministic. Nothing is polled before the comparison.
    let observe = |exec: &mut StreamExecutor<f64>| {
        exec.checkpoint().unwrap();
        let stats = exec.stats();
        let ids = exec.query_ids();
        assert_eq!(ids.len(), 3);
        ids.into_iter()
            .map(|id| {
                let q = stats.queries.iter().find(|q| q.id == id).unwrap();
                let remainder = sorted(exec.poll_results_of(id).unwrap());
                assert_eq!(q.pending_rows, remainder.len());
                (id, q.rows, q.released_to, remainder)
            })
            .collect::<Vec<_>>()
    };

    let dir_a = tmpdir("counters-uninterrupted");
    let (mut uninterrupted, _) = start(&dir_a);
    for e in &events {
        uninterrupted.push(e.clone()).unwrap();
    }
    let expect = observe(&mut uninterrupted);
    assert!(expect.iter().all(|(_, rows, _, _)| *rows > 0));

    let dir_b = tmpdir("counters-crashed");
    let (mut crashed, cfg) = start(&dir_b);
    for e in &events[..220] {
        crashed.push(e.clone()).unwrap();
    }
    crashed.checkpoint().unwrap();
    for e in &events[220..] {
        crashed.push(e.clone()).unwrap();
    }
    drop(crashed); // crash
    let mut recovered = StreamExecutor::<f64>::recover(qa.clone(), reg.clone(), cfg).unwrap();
    assert_eq!(observe(&mut recovered), expect);
    let _ = std::fs::remove_dir_all(&dir_a);
    let _ = std::fs::remove_dir_all(&dir_b);
}

#[test]
fn wal_replays_registration_made_after_the_last_checkpoint() {
    let reg = setup();
    let events = events(&reg, 400);
    // Registration lands at the release frontier: event 259 is still in
    // the reorder buffer at the cut and is released after it, so the
    // query's stream starts at index 259 (see the skewed-stream test).
    let expect_b = oracle(QB, &reg, &events[259..]);
    let dir = tmpdir("wal-register");
    let mk_cfg = || ExecutorConfig {
        shards: 2,
        durability: Some(DurabilityConfig::new(&dir)),
        ..Default::default()
    };
    let qa = CompiledQuery::parse(QA, &reg).unwrap();
    let qb;
    {
        let mut exec = StreamExecutor::<f64>::new(qa.clone(), reg.clone(), mk_cfg()).unwrap();
        for e in &events[..200] {
            exec.push(e.clone()).unwrap();
        }
        exec.checkpoint().unwrap();
        for e in &events[200..260] {
            exec.push(e.clone()).unwrap();
        }
        // Registered *after* the checkpoint: only the WAL knows. Replay
        // must re-run the registration at the same stream position so the
        // query sees exactly the events [260..].
        qb = exec.register_query(QB, EmissionMode::Unordered).unwrap();
        for e in &events[260..300] {
            exec.push(e.clone()).unwrap();
        }
    } // crash without a second checkpoint
    let mut exec = StreamExecutor::<f64>::recover(qa, reg.clone(), mk_cfg()).unwrap();
    assert!(exec.query_ids().contains(&qb));
    let mut rows_b = exec.poll_results_of(qb).unwrap();
    for e in &events[300..] {
        exec.push(e.clone()).unwrap();
        rows_b.extend(exec.poll_results_of(qb).unwrap());
    }
    exec.finish().unwrap();
    rows_b.extend(exec.poll_results_of(qb).unwrap());
    assert_eq!(sorted(rows_b), expect_b);
    let _ = std::fs::remove_dir_all(&dir);
}

/// Two-stage cascaded DAG: stage 1 counts trends per `grp` under ordered
/// emission; its rows become stage 2's input events, gated by
/// `min_frontier` so only final windows flow downstream. Equivalent to
/// running the stages sequentially.
#[test]
fn cascaded_dag_equals_sequential_oracle() {
    let reg = setup();
    let events = events(&reg, 500);
    let stage1 = CompiledQuery::parse(QB, &reg).unwrap();

    // Stage 2 consumes stage-1 rows as `W(grp, trends)` events stamped
    // with their window id.
    let mut reg2 = SchemaRegistry::new();
    reg2.register_type("W", &["grp", "trends"]).unwrap();
    const STAGE2: &str = "RETURN grp, COUNT(*) PATTERN W+ \
                          WHERE W.trends < NEXT(W).trends \
                          GROUP-BY grp WITHIN 6 SLIDE 3";
    let row_to_event = |reg2: &SchemaRegistry, r: &WindowResult<f64>| -> Event {
        let Some(Value::Int(grp)) = r.group.0[0] else {
            panic!("stage 1 groups by an int key");
        };
        EventBuilder::new(reg2, "W")
            .unwrap()
            .at(Time(r.window))
            .set("grp", grp)
            .unwrap()
            .set("trends", r.values[0].to_f64())
            .unwrap()
            .build()
    };

    // Sequential oracle: full stage 1, then full stage 2 over its rows.
    let stage1_rows = oracle(QB, &reg, &events);
    let stage2_input: Vec<Event> = stage1_rows.iter().map(|r| row_to_event(&reg2, r)).collect();
    let expect = oracle(STAGE2, &reg2, &stage2_input);

    // Cascaded deployment: both stages live, stage-1 rows stream into
    // stage 2 as soon as the released watermark proves them final.
    let mut up = StreamExecutor::<f64>::new(
        stage1,
        reg.clone(),
        ExecutorConfig {
            shards: 4,
            emission: EmissionMode::WindowOrdered,
            ..Default::default()
        },
    )
    .unwrap();
    let mut down = StreamExecutor::<f64>::new(
        CompiledQuery::parse(STAGE2, &reg2).unwrap(),
        reg2.clone(),
        ExecutorConfig {
            shards: 2,
            ..Default::default()
        },
    )
    .unwrap();
    let mut staged: Vec<WindowResult<f64>> = Vec::new();
    let mut out = Vec::new();
    let mut forwarded = 0usize;
    for e in &events {
        up.push(e.clone()).unwrap();
        staged.extend(up.poll_results());
        // Ordered emission releases only complete windows, but a window
        // may still release in pieces across polls: `min_frontier` is the
        // watermark below which no further rows can appear — safe to
        // forward.
        let frontier = up.min_frontier(QueryId::PRIMARY).unwrap();
        let mut keep = Vec::new();
        for r in staged.drain(..) {
            if r.window < frontier {
                forwarded += 1;
                down.push(row_to_event(&reg2, &r)).unwrap();
            } else {
                keep.push(r);
            }
        }
        staged = keep;
        out.extend(down.poll_results());
    }
    // Frontier stamps travel on the result channel: give the async
    // workers a moment to land one so the live-cascade path is exercised.
    for _ in 0..2000 {
        staged.extend(up.poll_results());
        if up.min_frontier(QueryId::PRIMARY).unwrap() > 0 {
            break;
        }
        std::thread::sleep(std::time::Duration::from_millis(1));
    }
    let frontier = up.min_frontier(QueryId::PRIMARY).unwrap();
    assert!(frontier > 0, "min_frontier never advanced");
    let mut keep = Vec::new();
    for r in staged.drain(..) {
        if r.window < frontier {
            forwarded += 1;
            down.push(row_to_event(&reg2, &r)).unwrap();
        } else {
            keep.push(r);
        }
    }
    staged = keep;
    assert!(
        forwarded > 0,
        "min_frontier never released a window while both stages were live"
    );
    staged.extend(up.finish().unwrap());
    for r in &staged {
        down.push(row_to_event(&reg2, r)).unwrap();
    }
    out.extend(down.finish().unwrap());
    assert_eq!(sorted(out), expect);
}

#[test]
fn registration_guards_reject_bad_input() {
    let reg = setup();
    let qa = CompiledQuery::parse(QA, &reg).unwrap();
    let mut exec = StreamExecutor::<f64>::new(
        qa,
        reg.clone(),
        ExecutorConfig {
            shards: 2,
            ..Default::default()
        },
    )
    .unwrap();
    // Unparsable text is refused before anything is logged or installed.
    assert!(exec
        .register_query("RETURN nonsense", EmissionMode::Unordered)
        .is_err());
    assert_eq!(exec.query_ids(), vec![QueryId::PRIMARY]);
    // Id 0 cannot be deregistered; unknown ids are errors.
    assert!(exec.deregister_query(QueryId::PRIMARY).is_err());
    assert!(exec.deregister_query(QueryId(99)).is_err());
    assert!(exec.poll_results_of(QueryId(99)).is_err());
    // min_frontier needs an ordered merge.
    assert!(exec.min_frontier(QueryId::PRIMARY).is_err());
    let qb = exec.register_query(QB, EmissionMode::Unordered).unwrap();
    let rows = exec.deregister_query(qb).unwrap();
    assert!(rows.is_empty(), "no events ever flowed");
    // Double deregistration is an error; its (empty) results stay pollable.
    assert!(exec.deregister_query(qb).is_err());
    assert!(exec.poll_results_of(qb).unwrap().is_empty());
    exec.finish().unwrap();
}

mod props {
    use super::*;
    use proptest::prelude::*;

    /// A Q1/Q2-shaped grouped Kleene query over `M`:
    /// `(group by aux?, falling?, SUM?, windows per slide, slide)`.
    type Shape = (bool, bool, bool, u8, u8);

    fn query_text((by_aux, falling, sum, per_slide, slide): Shape) -> String {
        let key = if by_aux { "aux" } else { "grp" };
        let agg = if sum { "SUM(M.load)" } else { "COUNT(*)" };
        let op = if falling { ">" } else { "<" };
        let slide = slide as u64;
        format!(
            "RETURN {key}, {agg} PATTERN M+ WHERE M.load {op} NEXT(M).load \
             GROUP-BY {key} WITHIN {} SLIDE {slide}",
            slide * per_slide as u64
        )
    }

    /// Host `first` via `new` and `second` via `register_query` (before the
    /// first event), push `events` polling both after every push, and return
    /// each query's full row sequence (polls + post-drain remainder). With
    /// `cut`, checkpoint there, crash, and recover before going on.
    fn run_pair(
        reg: &SchemaRegistry,
        [first, second]: [&str; 2],
        emission: EmissionMode,
        shards: usize,
        events: &[Event],
        cut: Option<usize>,
    ) -> [Vec<WindowResult<f64>>; 2] {
        let dir = tmpdir("slot-position");
        let cfg = ExecutorConfig {
            shards,
            emission,
            durability: cut.map(|_| DurabilityConfig::new(&dir)),
            ..Default::default()
        };
        let plan = CompiledQuery::parse(first, reg).unwrap();
        let mut exec = StreamExecutor::<f64>::new(plan.clone(), reg.clone(), cfg.clone()).unwrap();
        let ids = [
            QueryId::PRIMARY,
            exec.register_query(second, emission).unwrap(),
        ];
        let mut rows = [Vec::new(), Vec::new()];
        for (i, e) in events.iter().enumerate() {
            if cut == Some(i) {
                // Nothing is polled between the checkpoint and the crash,
                // so recovery re-emits nothing already seen.
                exec.checkpoint().unwrap();
                drop(exec);
                exec =
                    StreamExecutor::<f64>::recover(plan.clone(), reg.clone(), cfg.clone()).unwrap();
                assert_eq!(exec.query_ids(), ids);
            }
            exec.push(e.clone()).unwrap();
            for (q, id) in ids.iter().enumerate() {
                rows[q].extend(exec.poll_results_of(*id).unwrap());
            }
        }
        exec.drain().unwrap();
        for (q, id) in ids.iter().enumerate() {
            rows[q].extend(exec.poll_results_of(*id).unwrap());
            if emission == EmissionMode::Unordered {
                // Cross-shard interleaving between polls is arbitrary.
                sort_canonical(&mut rows[q]);
            }
        }
        let _ = std::fs::remove_dir_all(&dir);
        rows
    }

    proptest! {
        #![proptest_config(ProptestConfig { cases: 8, ..ProptestConfig::default() })]

        /// No slot is special: which of two queries is handed to `new` and
        /// which to `register_query` changes neither one's output — at any
        /// shard count, under either emission mode, and across a
        /// checkpoint/recover cut.
        #[test]
        fn output_is_independent_of_slot_position(
            a in (any::<bool>(), any::<bool>(), any::<bool>(), 1u8..4, 8u8..40),
            b in (any::<bool>(), any::<bool>(), any::<bool>(), 1u8..4, 8u8..40),
            spec in proptest::collection::vec((0u8..=255, 0u8..=255), 60..160),
            cut_pct in 10u8..90,
        ) {
            let reg = setup();
            let events: Vec<Event> = spec.iter().enumerate().map(|(i, (key, load))| {
                EventBuilder::new(&reg, "M")
                    .unwrap()
                    .at(Time(i as u64 + 1))
                    .set("grp", (*key % 5) as i64).unwrap()
                    .set("aux", (*key % 7) as i64).unwrap()
                    .set("load", (*load % 16) as f64).unwrap()
                    .build()
            }).collect();
            let (qa, qb) = (query_text(a), query_text(b));
            let cut = events.len() * cut_pct as usize / 100;
            for emission in [EmissionMode::Unordered, EmissionMode::WindowOrdered] {
                for shards in [1usize, 2, 4] {
                    for cut in [None, Some(cut)] {
                        let [a_first, b_second] =
                            run_pair(&reg, [&qa, &qb], emission, shards, &events, cut);
                        let [b_first, a_second] =
                            run_pair(&reg, [&qb, &qa], emission, shards, &events, cut);
                        prop_assert_eq!(&a_first, &a_second,
                            "{} {:?} shards={} cut={:?}", qa, emission, shards, cut);
                        prop_assert_eq!(&b_first, &b_second,
                            "{} {:?} shards={} cut={:?}", qb, emission, shards, cut);
                        prop_assert_eq!(&a_first, &oracle(&qa, &reg, &events));
                    }
                }
            }
        }
    }
}
