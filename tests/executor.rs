//! Integration tests for the push-based sharded `StreamExecutor`:
//! shard-count invariance on the paper's grouped queries, incremental
//! `poll_results` equivalence with batch runs, `ReorderBuffer` late-event
//! policies, and watermark-driven window closing.

use greta::core::{
    EmissionMode, EngineError, ExecutorConfig, GretaEngine, LatePolicy, MemoryFootprint, QueryId,
    StreamExecutor, WindowResult,
};
use greta::query::CompiledQuery;
use greta::types::{Event, EventBuilder, EventRef, SchemaRegistry, Time};
use greta::workloads::{
    ClusterConfig, ClusterGen, LinearRoadConfig, LinearRoadGen, StockConfig, StockGen,
};
use std::sync::Arc;

fn sorted(mut rows: Vec<WindowResult<f64>>) -> Vec<WindowResult<f64>> {
    rows.sort_by(|a, b| a.window.cmp(&b.window).then_with(|| a.group.cmp(&b.group)));
    rows
}

/// Feed events one by one, polling between pushes (the push-based path).
fn run_executor(
    query: &CompiledQuery,
    reg: &SchemaRegistry,
    events: &[Event],
    config: ExecutorConfig,
) -> (Vec<WindowResult<f64>>, greta::core::ExecutorStats) {
    let mut exec = StreamExecutor::<f64>::new(query.clone(), reg.clone(), config).unwrap();
    let mut rows = Vec::new();
    for e in events {
        exec.push(e.clone()).unwrap();
        rows.extend(exec.poll_results());
    }
    rows.extend(exec.finish().unwrap());
    (sorted(rows), exec.stats())
}

/// Q1 over the stock workload (paper §1) — grouped by sector.
fn stock_setup(n: usize) -> (SchemaRegistry, CompiledQuery, Vec<Event>) {
    let mut reg = SchemaRegistry::new();
    let gen = StockGen::new(
        StockConfig {
            events: n,
            ..Default::default()
        },
        &mut reg,
    )
    .unwrap();
    let events = gen.generate();
    let q = CompiledQuery::parse(
        &format!(
            "RETURN sector, COUNT(*) PATTERN Stock S+ \
             WHERE [company, sector] AND S.price > NEXT(S).price \
             GROUP-BY sector WITHIN {w} SLIDE {s}",
            w = n / 2,
            s = n / 8
        ),
        &reg,
    )
    .unwrap();
    (reg, q, events)
}

#[test]
fn sharded_executor_is_shard_count_invariant_on_q1() {
    // Acceptance criterion: N>1 shards produce byte-identical sorted
    // results to the single-threaded engine while events are pushed one by
    // one, not as a batch.
    let (reg, q, events) = stock_setup(600);
    let mut engine = GretaEngine::<f64>::new(q.clone(), reg.clone()).unwrap();
    let expect = sorted(engine.run(&events).unwrap());
    assert!(!expect.is_empty());
    for shards in [1, 2, 4, 8] {
        let (rows, stats) = run_executor(
            &q,
            &reg,
            &events,
            ExecutorConfig {
                shards,
                ..Default::default()
            },
        );
        assert_eq!(rows, expect, "shards={shards}");
        assert_eq!(stats.engine.events, events.len() as u64);
    }
}

#[test]
fn sharded_executor_is_shard_count_invariant_on_q2() {
    // Q2 (cluster monitoring): SEQ pattern with MID events and SUM.
    let mut reg = SchemaRegistry::new();
    let gen = ClusterGen::new(
        ClusterConfig {
            events: 800,
            mappers: 7,
            ..Default::default()
        },
        &mut reg,
    )
    .unwrap();
    let events = gen.generate();
    let q = CompiledQuery::parse(
        "RETURN mapper, SUM(M.cpu) PATTERN SEQ(Start S, Measurement M+, End E) \
         WHERE [job, mapper] AND M.load < NEXT(M).load \
         GROUP-BY mapper WITHIN 400 SLIDE 400",
        &reg,
    )
    .unwrap();
    let mut engine = GretaEngine::<f64>::new(q.clone(), reg.clone()).unwrap();
    let expect = sorted(engine.run(&events).unwrap());
    for shards in [2, 5] {
        let (rows, _) = run_executor(
            &q,
            &reg,
            &events,
            ExecutorConfig {
                shards,
                ..Default::default()
            },
        );
        assert_eq!(rows, expect, "shards={shards}");
    }
}

#[test]
fn incremental_polls_equal_finish_only() {
    let (reg, q, events) = stock_setup(400);
    // Path A: poll aggressively while pushing.
    let (polled, _) = run_executor(
        &q,
        &reg,
        &events,
        ExecutorConfig {
            shards: 3,
            ..Default::default()
        },
    );
    // Path B: never poll; collect everything from finish().
    let mut exec = StreamExecutor::<f64>::new(
        q.clone(),
        reg.clone(),
        ExecutorConfig {
            shards: 3,
            ..Default::default()
        },
    )
    .unwrap();
    for e in &events {
        exec.push(e.clone()).unwrap();
    }
    let finished = sorted(exec.finish().unwrap());
    assert_eq!(polled, finished);
}

#[test]
fn results_arrive_before_end_of_stream() {
    let (reg, q, events) = stock_setup(600);
    let mut exec = StreamExecutor::<f64>::new(
        q,
        reg,
        ExecutorConfig {
            shards: 2,
            ..Default::default()
        },
    )
    .unwrap();
    let mut streamed = 0usize;
    for e in &events {
        exec.push(e.clone()).unwrap();
        streamed += exec.poll_results().len();
    }
    // Several windows close mid-stream; allow the workers a brief moment
    // to flush the last of them.
    for _ in 0..200 {
        if streamed > 0 {
            break;
        }
        std::thread::sleep(std::time::Duration::from_millis(1));
        streamed += exec.poll_results().len();
    }
    let tail = exec.finish().unwrap().len();
    assert!(
        streamed > 0,
        "no incremental results (tail came all at once: {tail})"
    );
}

fn tick_setup() -> (SchemaRegistry, CompiledQuery) {
    let mut reg = SchemaRegistry::new();
    reg.register_type("A", &[]).unwrap();
    let q = CompiledQuery::parse("RETURN COUNT(*) PATTERN A+ WITHIN 100 SLIDE 100", &reg).unwrap();
    (reg, q)
}

#[test]
fn late_event_policy_drop_counts_and_excludes() {
    let (reg, q) = tick_setup();
    let tid = reg.type_id("A").unwrap();
    let mut exec = StreamExecutor::<f64>::new(
        q,
        reg,
        ExecutorConfig {
            slack: 3,
            late_policy: LatePolicy::Drop,
            ..Default::default()
        },
    )
    .unwrap();
    for t in [5u64, 4, 6, 20, 2, 21] {
        exec.push(Event::new_unchecked(tid, Time(t), vec![]))
            .unwrap();
    }
    let rows = exec.finish().unwrap();
    // t=2 arrives after the slack released the watermark past it: dropped
    // and counted.
    assert_eq!(exec.stats().late_dropped, 1);
    // Remaining in-order events: 4 5 6 20 21 → 2^5 - 1 trends... but only
    // the 5 surviving events count: 31.
    assert_eq!(rows[0].values[0].to_f64(), 31.0);
}

#[test]
fn late_policy_tag_1_is_a_codec_error() {
    // Two policies, tags 0 and 2; tag 1 names none and is refused like
    // any unknown tag, in a snapshot's ingest section and on the wire.
    for p in [LatePolicy::Drop, LatePolicy::Error] {
        assert_eq!(LatePolicy::from_tag(p.tag()), Ok(p));
    }
    assert_eq!((LatePolicy::Drop.tag(), LatePolicy::Error.tag()), (0, 2));
    for tag in [1, 3, u8::MAX] {
        let err = LatePolicy::from_tag(tag).unwrap_err();
        assert_eq!(
            err.to_string(),
            format!("codec error: bad LatePolicy tag {tag}")
        );
    }
}

#[test]
fn late_event_policy_error_fails_the_push() {
    let (reg, q) = tick_setup();
    let tid = reg.type_id("A").unwrap();
    let mut exec = StreamExecutor::<f64>::new(
        q,
        reg,
        ExecutorConfig {
            slack: 1,
            late_policy: LatePolicy::Error,
            ..Default::default()
        },
    )
    .unwrap();
    exec.push(Event::new_unchecked(tid, Time(10), vec![]))
        .unwrap();
    exec.push(Event::new_unchecked(tid, Time(12), vec![]))
        .unwrap();
    let err = exec
        .push(Event::new_unchecked(tid, Time(3), vec![]))
        .unwrap_err();
    assert!(
        matches!(
            err,
            EngineError::Late {
                slack: 1,
                got: 3,
                ..
            }
        ),
        "{err}"
    );
    // The executor survives the rejection.
    exec.push(Event::new_unchecked(tid, Time(13), vec![]))
        .unwrap();
    let rows = exec.finish().unwrap();
    assert_eq!(rows[0].values[0].to_f64(), 7.0); // {10,12,13} → 2^3 - 1

    // A rejected event is not counted as dropped.
    assert_eq!(exec.stats().late_dropped, 0);
}

#[test]
fn slack_repairs_disorder_to_match_the_sorted_run() {
    let (reg, q, mut events) = stock_setup(300);
    let expect = {
        let mut engine = GretaEngine::<f64>::new(q.clone(), reg.clone()).unwrap();
        sorted(engine.run(&events).unwrap())
    };
    // Jitter: swap neighbours up to 6 positions apart (≤ 6 ticks here).
    for i in (0..events.len().saturating_sub(7)).step_by(7) {
        events.swap(i, i + 6);
        events.swap(i + 2, i + 4);
    }
    let (rows, stats) = run_executor(
        &q,
        &reg,
        &events,
        ExecutorConfig {
            shards: 4,
            slack: 8,
            late_policy: LatePolicy::Error,
            ..Default::default()
        },
    );
    assert_eq!(stats.late_dropped, 0);
    assert_eq!(stats.released, events.len() as u64);
    assert_eq!(rows, expect);
}

#[test]
fn watermarks_close_windows_on_quiet_shards() {
    // Two groups; one goes quiet. The quiet group's shard must still close
    // its windows because the active group's events advance the watermark.
    let mut reg = SchemaRegistry::new();
    reg.register_type("M", &["grp"]).unwrap();
    let q = CompiledQuery::parse(
        "RETURN grp, COUNT(*) PATTERN M+ GROUP-BY grp WITHIN 10 SLIDE 10",
        &reg,
    )
    .unwrap();
    let ev = |t: u64, g: i64| {
        EventBuilder::new(&reg, "M")
            .unwrap()
            .at(Time(t))
            .set("grp", g)
            .unwrap()
            .build()
    };
    let mut exec = StreamExecutor::<f64>::new(
        q,
        reg.clone(),
        ExecutorConfig {
            shards: 4,
            ..Default::default()
        },
    )
    .unwrap();
    // Both groups live in window 0; only group 0 continues.
    exec.push(ev(1, 0)).unwrap();
    exec.push(ev(2, 1)).unwrap();
    for t in 11..200u64 {
        exec.push(ev(t, 0)).unwrap();
    }
    // Wait for window 0 of BOTH groups without finishing the stream.
    let deadline = std::time::Instant::now() + std::time::Duration::from_secs(5);
    let mut got = Vec::new();
    while got.len() < 2 && std::time::Instant::now() < deadline {
        got.extend(exec.poll_results().into_iter().filter(|r| r.window == 0));
        std::thread::sleep(std::time::Duration::from_millis(1));
    }
    assert_eq!(got.len(), 2, "window 0 must close for the quiet group too");
    assert!(exec.stats().watermarks > 0);
    exec.finish().unwrap();
}

#[test]
fn drain_plus_poll_is_byte_identical_to_finish() {
    // `drain()` ends the stream and leaves every query's remainder
    // pollable; `finish()` is the single-query shorthand that also polls
    // query 0. Two two-query executors over the same input must emit the
    // same rows per query — the exact sequence under `WindowOrdered`
    // (delivery order is part of that contract), sorted-equal under
    // `Unordered` (cross-shard interleaving between polls is explicitly
    // arbitrary) — and a second `drain()` must be a no-op.
    let (reg, q, events) = stock_setup(600);
    const SECOND: &str = "RETURN sector, COUNT(*) PATTERN Stock S+ \
                          WHERE [company, sector] AND S.price < NEXT(S).price \
                          GROUP-BY sector WITHIN 200 SLIDE 100";
    for emission in [EmissionMode::Unordered, EmissionMode::WindowOrdered] {
        for shards in [1usize, 4] {
            let config = ExecutorConfig {
                shards,
                emission,
                ..Default::default()
            };
            let mut via_finish =
                StreamExecutor::<f64>::new(q.clone(), reg.clone(), config.clone()).unwrap();
            let mut via_drain = StreamExecutor::<f64>::new(q.clone(), reg.clone(), config).unwrap();
            let second = via_finish.register_query(SECOND, emission).unwrap();
            assert_eq!(via_drain.register_query(SECOND, emission).unwrap(), second);
            let ids = [QueryId::PRIMARY, second];
            let mut finish_rows = [Vec::new(), Vec::new()];
            let mut drain_rows = [Vec::new(), Vec::new()];
            for e in &events {
                via_finish.push(e.clone()).unwrap();
                via_drain.push(e.clone()).unwrap();
                for (i, id) in ids.iter().enumerate() {
                    finish_rows[i].extend(via_finish.poll_results_of(*id).unwrap());
                    drain_rows[i].extend(via_drain.poll_results_of(*id).unwrap());
                }
            }
            finish_rows[0].extend(via_finish.finish().unwrap());
            finish_rows[1].extend(via_finish.poll_results_of(second).unwrap());
            via_drain.drain().unwrap();
            for (i, id) in ids.iter().enumerate() {
                drain_rows[i].extend(via_drain.poll_results_of(*id).unwrap());
            }
            for i in 0..2 {
                assert!(!finish_rows[i].is_empty());
                if emission == EmissionMode::Unordered && shards > 1 {
                    greta::core::sort_canonical(&mut finish_rows[i]);
                    greta::core::sort_canonical(&mut drain_rows[i]);
                }
                assert_eq!(
                    drain_rows[i], finish_rows[i],
                    "query {} emission={emission:?} shards={shards}",
                    ids[i]
                );
            }
            // Idempotent, and the executor stays readable after the stop.
            via_drain.drain().unwrap();
            assert!(via_drain.finish().unwrap().is_empty());
            assert!(via_drain.poll_results_of(second).unwrap().is_empty());
            assert_eq!(via_drain.stats().pushed, events.len() as u64);
        }
    }
}

#[test]
fn batch_sizes_do_not_change_results() {
    let (reg, q, events) = stock_setup(400);
    let mut engine = GretaEngine::<f64>::new(q.clone(), reg.clone()).unwrap();
    let expect = sorted(engine.run(&events).unwrap());
    let mut frames_seen = Vec::new();
    for batch_size in [1usize, 7, 64, 10_000] {
        let (rows, stats) = run_executor(
            &q,
            &reg,
            &events,
            ExecutorConfig {
                shards: 3,
                batch_size,
                ..Default::default()
            },
        );
        assert_eq!(rows, expect, "batch_size={batch_size}");
        frames_seen.push(stats.frames);
    }
    // Bigger batches mean fewer frames.
    assert!(
        frames_seen[0] > frames_seen[2],
        "batch=1 sent {} frames, batch=64 sent {}",
        frames_seen[0],
        frames_seen[2]
    );
}

#[test]
fn zero_shards_rejected_and_push_after_finish_errors() {
    let (reg, q) = tick_setup();
    assert!(StreamExecutor::<f64>::new(
        q.clone(),
        reg.clone(),
        ExecutorConfig {
            shards: 0,
            ..Default::default()
        },
    )
    .is_err());
    let tid = reg.type_id("A").unwrap();
    // No GROUP-BY, nothing to partition by: the shard count clamps to 1.
    let config = ExecutorConfig {
        shards: 8,
        ..Default::default()
    };
    let mut exec = StreamExecutor::<f64>::new(q, reg, config).unwrap();
    assert_eq!(exec.shards(), 1);
    exec.finish().unwrap();
    assert!(exec.finish().unwrap().is_empty()); // idempotent
    assert!(exec
        .push(Event::new_unchecked(tid, Time(1), vec![]))
        .is_err());
}

#[test]
fn poll_free_caller_with_tiny_channels_cannot_deadlock() {
    // Regression: with full shard queues, a caller that never polls used
    // to park forever in push()/finish(). The shards never wait on the
    // caller — their rows queue on the unbounded result channel — so a
    // push blocked on a full queue always resumes.
    let (reg, q, events) = stock_setup(400);
    let mut engine = GretaEngine::<f64>::new(q.clone(), reg.clone()).unwrap();
    let expect = sorted(engine.run(&events).unwrap());
    let mut exec = StreamExecutor::<f64>::new(
        q,
        reg,
        ExecutorConfig {
            shards: 2,
            channel_capacity: 2,
            batch_size: 4,
            ..Default::default()
        },
    )
    .unwrap();
    for e in &events {
        exec.push(e.clone()).unwrap(); // no poll_results() on purpose
    }
    let rows = exec.finish().unwrap();
    assert_eq!(sorted(rows), expect);
    assert!(exec.stats().max_channel_occupancy >= 2);
}

#[test]
fn broadcast_types_reach_all_shards() {
    // Q3-style leading negation with a sub-key type, 3 shards.
    let mut reg = SchemaRegistry::new();
    reg.register_type("Accident", &["segment"]).unwrap();
    reg.register_type("Position", &["vehicle", "segment"])
        .unwrap();
    let q = CompiledQuery::parse(
        "RETURN segment, COUNT(*) PATTERN SEQ(NOT Accident X, Position P+) \
         WHERE [P.vehicle, segment] GROUP-BY segment WITHIN 100 SLIDE 100",
        &reg,
    )
    .unwrap();
    let pos = |t: u64, v: i64, s: i64| {
        EventBuilder::new(&reg, "Position")
            .unwrap()
            .at(Time(t))
            .set("vehicle", v)
            .unwrap()
            .set("segment", s)
            .unwrap()
            .build()
    };
    let acc = |t: u64, s: i64| {
        EventBuilder::new(&reg, "Accident")
            .unwrap()
            .at(Time(t))
            .set("segment", s)
            .unwrap()
            .build()
    };
    let events = vec![
        pos(1, 1, 1),
        pos(1, 2, 2),
        acc(2, 1),
        pos(3, 1, 1),
        pos(3, 2, 2),
    ];
    let mut engine = GretaEngine::<f64>::new(q.clone(), reg.clone()).unwrap();
    let expect = sorted(engine.run(&events).unwrap());
    let (rows, stats) = run_executor(
        &q,
        &reg,
        &events,
        ExecutorConfig {
            shards: 3,
            ..Default::default()
        },
    );
    assert_eq!(rows, expect);
    assert_eq!(stats.broadcasts, 1);
}

#[test]
fn memory_accounting_does_not_depend_on_thread_timing() {
    // Q3's shape: leading negation, and `Accident` broadcast to every
    // shard, where the shards' replay buffers (and, before vertices kept
    // only projected values, their graphs) share each accident's `Arc`.
    // A charge is a function of what the engine holds, never of how many
    // holders an event has at that moment, so two runs at two shards
    // report the same peak, and an engine imported from its own export
    // reports the exporter's bytes.
    let mut reg = SchemaRegistry::new();
    let gen = LinearRoadGen::new(
        LinearRoadConfig {
            events: 6000,
            vehicles: 200,
            segments: 20,
            accident_rate: 0.05,
            ..Default::default()
        },
        &mut reg,
    )
    .unwrap();
    let events = gen.generate();
    let q = CompiledQuery::parse(
        "RETURN segment, COUNT(*) PATTERN SEQ(NOT Accident X, Position P+) \
         WHERE [P.vehicle, segment] GROUP-BY segment WITHIN 1000 SLIDE 250",
        &reg,
    )
    .unwrap();
    let two_shards = || ExecutorConfig {
        shards: 2,
        ..Default::default()
    };
    let (rows, first) = run_executor(&q, &reg, &events, two_shards());
    assert!(first.broadcasts > 0 && first.peak_memory_bytes > 0);
    for _ in 0..2 {
        let (again_rows, again) = run_executor(&q, &reg, &events, two_shards());
        assert_eq!(again_rows, rows);
        assert_eq!(again.peak_memory_bytes, first.peak_memory_bytes);
    }

    let mut exporter = GretaEngine::<f64>::new(q, reg).unwrap();
    for (i, e) in events.iter().enumerate() {
        exporter.process_ref(&e.clone().into_ref()).unwrap();
        if i % 1500 == 1499 {
            let blob = exporter.export_state();
            let plan = exporter.plan().clone();
            let imported = GretaEngine::<f64>::import_state(plan, &blob).unwrap();
            assert!(exporter.memory_bytes() > 0);
            assert_eq!(imported.memory_bytes(), exporter.memory_bytes(), "at {i}");
            assert_eq!(imported.peak_memory_bytes(), exporter.peak_memory_bytes());
        }
    }
}

/// The events of `events`, shared, with the test holding a handle on each.
fn shared(events: &[Event]) -> Vec<EventRef> {
    events.iter().cloned().map(Event::into_ref).collect()
}

/// How many of `held` anyone but the test still holds.
fn still_held(held: &[EventRef]) -> usize {
    held.iter().filter(|e| Arc::strong_count(e) > 1).count()
}

#[test]
fn events_are_released_once_the_stream_has_ended() {
    // Q1's shape: spent frames come back to the pushing thread, which
    // clears them. Once the workers are joined nothing of the executor's
    // holds an event — whether the caller ended with `drain` and one poll,
    // or with `finish`, and whether it polled while pushing or not.
    let (reg, q, events) = stock_setup(2_000);
    let held = shared(&events);
    for shards in [1, 2, 4] {
        for (poll_while_pushing, by_finish) in [(false, false), (true, false), (false, true)] {
            let config = ExecutorConfig {
                shards,
                ..Default::default()
            };
            let mut exec = StreamExecutor::<f64>::new(q.clone(), reg.clone(), config).unwrap();
            for e in &held {
                exec.push_ref(e.clone()).unwrap();
                if poll_while_pushing {
                    exec.poll_results();
                }
            }
            if by_finish {
                exec.finish().unwrap();
            } else {
                exec.drain().unwrap();
                exec.poll_results();
            }
            assert_eq!(
                still_held(&held),
                0,
                "shards={shards} polled={poll_while_pushing} finish={by_finish}"
            );
        }
    }
}

#[test]
fn broadcast_events_are_released_once_the_stream_has_finished() {
    // Q3's shape: every `Accident` is framed for every shard and kept in
    // each shard engine's replay buffer until the engines end with their
    // workers.
    let mut reg = SchemaRegistry::new();
    let gen = LinearRoadGen::new(
        LinearRoadConfig {
            events: 3_000,
            vehicles: 100,
            segments: 10,
            accident_rate: 0.05,
            ..Default::default()
        },
        &mut reg,
    )
    .unwrap();
    let held = shared(&gen.generate());
    let q = CompiledQuery::parse(
        "RETURN segment, COUNT(*) PATTERN SEQ(NOT Accident X, Position P+) \
         WHERE [P.vehicle, segment] GROUP-BY segment WITHIN 1000 SLIDE 250",
        &reg,
    )
    .unwrap();
    for shards in [1, 2, 4] {
        let config = ExecutorConfig {
            shards,
            ..Default::default()
        };
        let mut exec = StreamExecutor::<f64>::new(q.clone(), reg.clone(), config).unwrap();
        for e in &held {
            exec.push_ref(e.clone()).unwrap();
        }
        exec.finish().unwrap();
        assert!(exec.stats().broadcasts > 0);
        assert_eq!(still_held(&held), 0, "shards={shards}");
    }
}

#[test]
fn row_batches_equal_the_sequential_engine_in_both_emission_modes() {
    // A flush's rows cross the result channel as one message. Whatever
    // the shard count or frame size, the ordered stream equals the
    // sequential engine's sorted rows as polled, the unordered one once
    // sorted, and no row is left counted on the channel.
    let (reg, q, events) = stock_setup(1_200);
    let mut engine = GretaEngine::<f64>::new(q.clone(), reg.clone()).unwrap();
    let expect = sorted(engine.run(&events).unwrap());
    for emission in [EmissionMode::Unordered, EmissionMode::WindowOrdered] {
        for shards in [1, 2, 4] {
            for batch_size in [1, 64] {
                let config = ExecutorConfig {
                    shards,
                    batch_size,
                    emission,
                    ..Default::default()
                };
                let mut exec = StreamExecutor::<f64>::new(q.clone(), reg.clone(), config).unwrap();
                let mut rows = Vec::new();
                for e in &events {
                    exec.push(e.clone()).unwrap();
                    rows.extend(exec.poll_results());
                }
                rows.extend(exec.finish().unwrap());
                if emission == EmissionMode::Unordered {
                    rows = sorted(rows);
                }
                let case = format!("{emission:?} shards={shards} batch={batch_size}");
                assert_eq!(rows, expect, "{case}");
                assert_eq!(exec.stats().result_occupancy, 0, "{case}");
            }
        }
    }
}

mod props {
    use super::*;
    use proptest::prelude::*;

    /// Random in-order stock-like stream for the Q1 shape: (price, company,
    /// sector) with monotone times.
    fn stock_events(reg: &SchemaRegistry, spec: &[(u8, u8, u8)]) -> Vec<Event> {
        let mut t = 0u64;
        spec.iter()
            .map(|(dt, price, company)| {
                t += 1 + *dt as u64 % 3;
                EventBuilder::new(reg, "Stock")
                    .unwrap()
                    .at(Time(t))
                    .set("price", (*price % 16) as f64)
                    .unwrap()
                    .set("company", (*company % 6) as i64)
                    .unwrap()
                    .set("sector", (*company % 3) as i64)
                    .unwrap()
                    .build()
            })
            .collect()
    }

    proptest! {
        #![proptest_config(ProptestConfig { cases: 24, ..ProptestConfig::default() })]

        /// The `Arc<Event>` refactor must not change a single output row:
        /// executor output on the Q1 shape is byte-identical to the
        /// sequential engine's, for 1/2/4 shards.
        #[test]
        fn eventref_executor_is_byte_identical_on_q1_shape(
            spec in proptest::collection::vec((0u8..=255, 0u8..=255, 0u8..=255), 1..120),
        ) {
            let mut reg = SchemaRegistry::new();
            reg.register_type("Stock", &["price", "company", "sector"]).unwrap();
            let q = CompiledQuery::parse(
                "RETURN sector, COUNT(*) PATTERN Stock S+ \
                 WHERE [company, sector] AND S.price > NEXT(S).price \
                 GROUP-BY sector WITHIN 40 SLIDE 10",
                &reg,
            )
            .unwrap();
            let events = stock_events(&reg, &spec);
            let mut engine = GretaEngine::<f64>::new(q.clone(), reg.clone()).unwrap();
            let expect = sorted(engine.run(&events).unwrap());
            for shards in [1usize, 2, 4] {
                let (rows, _) = run_executor(
                    &q,
                    &reg,
                    &events,
                    ExecutorConfig { shards, ..Default::default() },
                );
                prop_assert_eq!(&rows, &expect, "shards={}", shards);
            }
        }

        /// Same on the Q2 shape (SEQ with MID events, SUM aggregate, and a
        /// broadcast-free grouped route).
        #[test]
        fn eventref_executor_is_byte_identical_on_q2_shape(
            spec in proptest::collection::vec((0u8..=255, 0u8..=255, 0u8..=255, 0u8..=255), 1..120),
        ) {
            let mut reg = SchemaRegistry::new();
            reg.register_type("Start", &["job", "mapper"]).unwrap();
            reg.register_type("Measurement", &["load", "cpu", "job", "mapper"]).unwrap();
            reg.register_type("End", &["job", "mapper"]).unwrap();
            let q = CompiledQuery::parse(
                "RETURN mapper, SUM(M.cpu) PATTERN SEQ(Start S, Measurement M+, End E) \
                 WHERE [job, mapper] AND M.load < NEXT(M).load \
                 GROUP-BY mapper WITHIN 60 SLIDE 20",
                &reg,
            )
            .unwrap();
            let mut t = 0u64;
            let events: Vec<Event> = spec
                .iter()
                .map(|(dt, kind, v, key)| {
                    t += 1 + *dt as u64 % 3;
                    let (job, mapper) = ((*key % 4) as i64, (*key % 2) as i64);
                    match kind % 4 {
                        0 => EventBuilder::new(&reg, "Start")
                            .unwrap()
                            .at(Time(t))
                            .set("job", job).unwrap()
                            .set("mapper", mapper).unwrap()
                            .build(),
                        3 => EventBuilder::new(&reg, "End")
                            .unwrap()
                            .at(Time(t))
                            .set("job", job).unwrap()
                            .set("mapper", mapper).unwrap()
                            .build(),
                        _ => EventBuilder::new(&reg, "Measurement")
                            .unwrap()
                            .at(Time(t))
                            .set("load", (*v % 8) as f64).unwrap()
                            .set("cpu", (*v % 5) as f64).unwrap()
                            .set("job", job).unwrap()
                            .set("mapper", mapper).unwrap()
                            .build(),
                    }
                })
                .collect();
            let mut engine = GretaEngine::<f64>::new(q.clone(), reg.clone()).unwrap();
            let expect = sorted(engine.run(&events).unwrap());
            for shards in [1usize, 2, 4] {
                let (rows, _) = run_executor(
                    &q,
                    &reg,
                    &events,
                    ExecutorConfig { shards, ..Default::default() },
                );
                prop_assert_eq!(&rows, &expect, "shards={}", shards);
            }
        }
    }
}
