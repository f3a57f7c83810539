//! Integration tests for ordered streaming emission (ISSUE 5):
//! `EmissionMode::WindowOrdered` must stream results window-monotone in
//! canonical `(window, group)` order from `poll_results()` — byte-identical
//! to the sorted `Unordered` output — across shard counts, on a skewed
//! stream, and across a crash/recover cut, with buffering
//! bounded by open windows rather than a sort at `finish()`.

use greta::core::{
    EmissionMode, ExecutorConfig, GretaEngine, PartitionKey, StreamExecutor, StreamRouting,
    WindowResult,
};
use greta::durability::DurabilityConfig;
use greta::query::CompiledQuery;
use greta::types::{Event, EventBuilder, SchemaRegistry, Time, Value};
use std::path::PathBuf;

fn sorted(mut rows: Vec<WindowResult<f64>>) -> Vec<WindowResult<f64>> {
    greta::core::sort_canonical(&mut rows);
    rows
}

fn tmpdir(name: &str) -> PathBuf {
    let d = std::env::temp_dir().join(format!("greta-ordered-{name}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&d);
    d
}

/// Panics unless `rows` are window-monotone in canonical order.
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

/// Q1-shaped grouped down-trend query over a synthetic `M` stream.
fn q1_setup() -> (SchemaRegistry, CompiledQuery) {
    let mut reg = SchemaRegistry::new();
    reg.register_type("M", &["grp", "load"]).unwrap();
    let q = CompiledQuery::parse(
        "RETURN grp, COUNT(*), SUM(S.load) PATTERN M S+ WHERE S.load < NEXT(S).load \
         GROUP-BY grp WITHIN 40 SLIDE 20",
        &reg,
    )
    .unwrap();
    (reg, q)
}

fn q1_events(reg: &SchemaRegistry, n: usize, groups: u64) -> Vec<Event> {
    (0..n as u64)
        .map(|t| {
            EventBuilder::new(reg, "M")
                .unwrap()
                .at(Time(t))
                .set("grp", (t % groups) as i64)
                .unwrap()
                .set("load", ((t * 31) % 17) as f64)
                .unwrap()
                .build()
        })
        .collect()
}

/// Q2/Q3-shaped query with a leading negation over a sub-key broadcast
/// type: `Accident` lacks `vehicle`, so it reaches every shard.
fn q2_setup() -> (SchemaRegistry, CompiledQuery) {
    let mut reg = SchemaRegistry::new();
    reg.register_type("Accident", &["segment"]).unwrap();
    reg.register_type("Position", &["vehicle", "segment"])
        .unwrap();
    let q = CompiledQuery::parse(
        "RETURN segment, COUNT(*) PATTERN SEQ(NOT Accident X, Position P+) \
         WHERE [P.vehicle, segment] GROUP-BY segment WITHIN 60 SLIDE 30",
        &reg,
    )
    .unwrap();
    (reg, q)
}

fn q2_events(reg: &SchemaRegistry, n: usize) -> Vec<Event> {
    (0..n as u64)
        .map(|t| {
            if t % 13 == 7 {
                EventBuilder::new(reg, "Accident")
                    .unwrap()
                    .at(Time(t))
                    .set("segment", (t % 5) as i64)
                    .unwrap()
                    .build()
            } else {
                EventBuilder::new(reg, "Position")
                    .unwrap()
                    .at(Time(t))
                    .set("vehicle", (t % 11) as i64)
                    .unwrap()
                    .set("segment", (t % 5) as i64)
                    .unwrap()
                    .build()
            }
        })
        .collect()
}

/// Drive an executor pushing + polling per event; returns (all polled
/// batches concatenated in drain order, the finish remainder).
fn drive(
    q: &CompiledQuery,
    reg: &SchemaRegistry,
    events: &[Event],
    config: ExecutorConfig,
) -> (Vec<WindowResult<f64>>, greta::core::ExecutorStats) {
    let mut exec = StreamExecutor::<f64>::new(q.clone(), reg.clone(), config).unwrap();
    let mut rows = Vec::new();
    for e in events {
        exec.push(e.clone()).unwrap();
        rows.extend(exec.poll_results());
    }
    rows.extend(exec.finish().unwrap());
    let stats = exec.stats();
    (rows, stats)
}

fn ordered_config(shards: usize) -> ExecutorConfig {
    ExecutorConfig {
        shards,
        emission: EmissionMode::WindowOrdered,
        ..Default::default()
    }
}

#[test]
fn window_ordered_stream_is_monotone_and_byte_identical_q1() {
    let (reg, q) = q1_setup();
    let events = q1_events(&reg, 400, 7);
    let mut engine = GretaEngine::<f64>::new(q.clone(), reg.clone()).unwrap();
    let expect = sorted(engine.run(&events).unwrap());
    for shards in [1usize, 2, 4] {
        let (rows, _) = drive(&q, &reg, &events, ordered_config(shards));
        assert_canonical_order(&rows, &format!("q1 shards={shards}"));
        // No sort anywhere: the raw concatenation IS the canonical output.
        assert_eq!(rows, expect, "q1 shards={shards}");
    }
}

#[test]
fn window_ordered_stream_is_monotone_and_byte_identical_q2_broadcast() {
    let (reg, q) = q2_setup();
    let events = q2_events(&reg, 300);
    let mut engine = GretaEngine::<f64>::new(q.clone(), reg.clone()).unwrap();
    let expect = sorted(engine.run(&events).unwrap());
    for shards in [1usize, 2, 4] {
        let (rows, stats) = drive(&q, &reg, &events, ordered_config(shards));
        assert_canonical_order(&rows, &format!("q2 shards={shards}"));
        assert_eq!(rows, expect, "q2 shards={shards}");
        if shards > 1 {
            assert!(stats.broadcasts > 0, "q2 must exercise broadcast types");
        }
    }
}

#[test]
fn ordered_results_stream_before_finish() {
    // Ordered emission must still be *streaming*: windows whose frontier
    // has passed are released while events are still being pushed, not
    // hoarded until finish().
    let (reg, q) = q1_setup();
    let events = q1_events(&reg, 400, 7);
    let mut exec = StreamExecutor::<f64>::new(q, reg, ordered_config(2)).unwrap();
    let mut streamed = 0usize;
    for e in &events {
        exec.push(e.clone()).unwrap();
        streamed += exec.poll_results().len();
    }
    for _ in 0..200 {
        streamed += exec.poll_results().len();
        if streamed > 0 {
            break;
        }
        std::thread::sleep(std::time::Duration::from_millis(1));
    }
    assert!(
        streamed > 0,
        "ordered mode buffered everything until finish"
    );
    exec.finish().unwrap();
}

#[test]
fn window_ordered_holds_on_a_skewed_stream() {
    // Hot groups colliding on one shard: the merge waits on that shard's
    // frontier while the others run ahead, and the ordered stream must
    // stay monotone and byte-identical.
    let (reg, q) = q1_setup();
    let routing = StreamRouting::new(&q, &reg);
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
                .set("load", ((t * 31) % 17) as f64)
                .unwrap()
                .build()
        })
        .collect();
    let mut engine = GretaEngine::<f64>::new(q.clone(), reg.clone()).unwrap();
    let expect = sorted(engine.run(&events).unwrap());
    let (rows, stats) = drive(
        &q,
        &reg,
        &events,
        ExecutorConfig {
            shards: 4,
            emission: EmissionMode::WindowOrdered,
            ..Default::default()
        },
    );
    assert!(
        stats.events_per_shard[0] * 10 >= stats.released * 9,
        "the hot keys must pin shard 0: {:?}",
        stats.events_per_shard
    );
    assert_canonical_order(&rows, "skewed ordered run");
    assert_eq!(rows, expect);
}

#[test]
fn window_ordered_survives_crash_and_recovery() {
    // Poll up to a checkpoint, crash, recover, poll the rest: the
    // concatenated stream is the canonical output, still monotone across
    // the cut (the snapshot carries the merge frontier).
    let (reg, q) = q1_setup();
    let events = q1_events(&reg, 400, 7);
    let mut engine = GretaEngine::<f64>::new(q.clone(), reg.clone()).unwrap();
    let expect = sorted(engine.run(&events).unwrap());
    let dir = tmpdir("crash");
    let mk_cfg = || ExecutorConfig {
        shards: 3,
        emission: EmissionMode::WindowOrdered,
        durability: Some(DurabilityConfig::new(&dir)),
        ..Default::default()
    };
    let mut committed = Vec::new();
    {
        let mut exec = StreamExecutor::<f64>::new(q.clone(), reg.clone(), mk_cfg()).unwrap();
        for e in &events[..220] {
            exec.push(e.clone()).unwrap();
            committed.extend(exec.poll_results());
        }
        exec.checkpoint().unwrap();
        // Crash without polling further: rows pending at the checkpoint
        // live in the snapshot and resurface through the recovered
        // executor (polling them here too would double-count).
    } // crash
    let mut exec = StreamExecutor::<f64>::recover(q.clone(), reg.clone(), mk_cfg()).unwrap();
    for e in &events[220..] {
        exec.push(e.clone()).unwrap();
        committed.extend(exec.poll_results());
    }
    committed.extend(exec.finish().unwrap());
    assert_canonical_order(&committed, "ordered stream across crash");
    assert_eq!(committed, expect);
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn window_ordered_recovery_into_different_shard_count() {
    // Resharded recovery resets the per-shard frontiers to the released
    // watermark; the resumed stream must stay monotone and complete.
    let (reg, q) = q1_setup();
    let events = q1_events(&reg, 400, 7);
    let mut engine = GretaEngine::<f64>::new(q.clone(), reg.clone()).unwrap();
    let expect = sorted(engine.run(&events).unwrap());
    for (from, to) in [(2usize, 4usize), (4, 2)] {
        let dir = tmpdir(&format!("reshard-{from}-{to}"));
        let cfg = |shards| ExecutorConfig {
            shards,
            emission: EmissionMode::WindowOrdered,
            durability: Some(DurabilityConfig::new(&dir)),
            ..Default::default()
        };
        let mut committed = Vec::new();
        {
            let mut exec = StreamExecutor::<f64>::new(q.clone(), reg.clone(), cfg(from)).unwrap();
            for e in &events[..200] {
                exec.push(e.clone()).unwrap();
                committed.extend(exec.poll_results());
            }
            exec.checkpoint().unwrap();
        } // crash
        let mut exec = StreamExecutor::<f64>::recover(q.clone(), reg.clone(), cfg(to)).unwrap();
        assert_eq!(exec.shards(), to);
        for e in &events[200..] {
            exec.push(e.clone()).unwrap();
            committed.extend(exec.poll_results());
        }
        committed.extend(exec.finish().unwrap());
        assert_canonical_order(&committed, &format!("reshard {from}→{to}"));
        assert_eq!(committed, expect, "{from}→{to}");
        let _ = std::fs::remove_dir_all(&dir);
    }
}

#[test]
fn recover_refuses_emission_mode_mismatch() {
    let (reg, q) = q1_setup();
    let events = q1_events(&reg, 120, 5);
    let dir = tmpdir("mode-mismatch");
    let mk_cfg = |emission| ExecutorConfig {
        shards: 2,
        emission,
        durability: Some(DurabilityConfig::new(&dir)),
        ..Default::default()
    };
    {
        let mut exec =
            StreamExecutor::<f64>::new(q.clone(), reg.clone(), mk_cfg(EmissionMode::WindowOrdered))
                .unwrap();
        for e in &events {
            exec.push(e.clone()).unwrap();
        }
        exec.checkpoint().unwrap();
    }
    // Recovering under a different emission mode would change the stream
    // shape mid-run: refused.
    let err =
        StreamExecutor::<f64>::recover(q.clone(), reg.clone(), mk_cfg(EmissionMode::Unordered))
            .err()
            .expect("mode mismatch must be refused");
    assert!(matches!(err, greta::core::EngineError::Config(_)), "{err}");
    // The matching mode still recovers.
    let mut exec =
        StreamExecutor::<f64>::recover(q, reg, mk_cfg(EmissionMode::WindowOrdered)).unwrap();
    exec.finish().unwrap();
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn ordered_buffering_is_bounded_by_open_windows() {
    // No sort-at-finish: once the workers catch up with the pushed
    // stream, every window the frontier has passed must already be
    // released through poll_results() — finish() may only carry the rows
    // of windows that were still open (bounded by within/slide), not the
    // stream's worth of buffered output.
    let (reg, q) = q1_setup();
    let events = q1_events(&reg, 1000, 7);
    let mut exec = StreamExecutor::<f64>::new(q, reg, ordered_config(4)).unwrap();
    let mut total = Vec::new();
    for e in &events {
        exec.push(e.clone()).unwrap();
        total.extend(exec.poll_results());
    }
    // Let the async workers drain what was already pushed.
    let mut idle = 0;
    for _ in 0..2000 {
        let got = exec.poll_results();
        idle = if got.is_empty() { idle + 1 } else { 0 };
        total.extend(got);
        if idle >= 50 {
            break;
        }
        std::thread::sleep(std::time::Duration::from_millis(1));
    }
    let tail = exec.finish().unwrap();
    // 1000 ticks at WITHIN 40 SLIDE 20 ⇒ ~50 windows, ≤ 2 open at the
    // cut: the finish remainder is a sliver, not the stream.
    assert!(
        total.len() > tail.len() * 5,
        "finish carried {} of {} rows — merge is not streaming",
        tail.len(),
        total.len() + tail.len()
    );
    let last_released = total.last().map(|r| r.window).unwrap_or(0);
    assert!(
        tail.iter().all(|r| r.window >= last_released),
        "finish re-delivered windows already released"
    );
}

mod props {
    use super::*;
    use proptest::prelude::*;

    fn check_ordered_matches_unordered(
        q: &CompiledQuery,
        reg: &SchemaRegistry,
        events: &[Event],
        shards: usize,
    ) -> Result<(), TestCaseError> {
        let base = ExecutorConfig {
            shards,
            ..Default::default()
        };
        let (unordered, _) = drive(q, reg, events, base.clone());
        let (ordered, _) = drive(
            q,
            reg,
            events,
            ExecutorConfig {
                emission: EmissionMode::WindowOrdered,
                ..base
            },
        );
        for w in ordered.windows(2) {
            prop_assert!(
                w[0].order_key() <= w[1].order_key(),
                "ordered stream went backwards"
            );
        }
        prop_assert_eq!(ordered, sorted(unordered));
        Ok(())
    }

    proptest! {
        #![proptest_config(ProptestConfig { cases: 12, ..ProptestConfig::default() })]

        /// Satellite acceptance: on random Q1-shaped streams, the
        /// `WindowOrdered` poll concatenation is byte-identical to the
        /// sorted `Unordered` output at 1/2/4 shards.
        #[test]
        fn ordered_equals_sorted_unordered_q1(
            spec in proptest::collection::vec((0u8..=255, 0u8..=255), 60..160),
        ) {
            let (reg, q) = q1_setup();
            let mut t = 0u64;
            let events: Vec<Event> = spec.iter().map(|(skew, load)| {
                t += 1 + (*load % 3) as u64;
                let grp = if skew % 10 < 9 { (*skew as i64) % 4 } else { 50 + (*skew as i64) % 19 };
                EventBuilder::new(&reg, "M")
                    .unwrap()
                    .at(Time(t))
                    .set("grp", grp).unwrap()
                    .set("load", (*load % 16) as f64).unwrap()
                    .build()
            }).collect();
            for shards in [1usize, 2, 4] {
                check_ordered_matches_unordered(&q, &reg, &events, shards)?;
            }
        }

        /// Same for Q2-shaped streams with broadcast (sub-key negation)
        /// types, which reach every shard.
        #[test]
        fn ordered_equals_sorted_unordered_q2(
            spec in proptest::collection::vec((0u8..=255, 0u8..=255), 50..120),
        ) {
            let (reg, q) = q2_setup();
            let mut t = 0u64;
            let events: Vec<Event> = spec.iter().map(|(a, b)| {
                t += 1 + (*b % 2) as u64;
                if a % 11 == 3 {
                    EventBuilder::new(&reg, "Accident")
                        .unwrap()
                        .at(Time(t))
                        .set("segment", (*b as i64) % 4).unwrap()
                        .build()
                } else {
                    EventBuilder::new(&reg, "Position")
                        .unwrap()
                        .at(Time(t))
                        .set("vehicle", (*a as i64) % 7).unwrap()
                        .set("segment", (*b as i64) % 4).unwrap()
                        .build()
                }
            }).collect();
            for shards in [1usize, 2, 4] {
                check_ordered_matches_unordered(&q, &reg, &events, shards)?;
            }
        }

        /// A crash/recover cut at a random point must resume the ordered
        /// stream exactly: polled-before-checkpoint + polled-after-recovery
        /// is the canonical output, monotone across the cut.
        #[test]
        fn ordered_stream_resumes_across_random_crash_cut(
            spec in proptest::collection::vec((0u8..=255, 0u8..=255), 60..140),
            shards in 1usize..4,
            cut_pct in 20u8..80,
        ) {
            let (reg, q) = q1_setup();
            let mut t = 0u64;
            let events: Vec<Event> = spec.iter().map(|(skew, load)| {
                t += 1;
                EventBuilder::new(&reg, "M")
                    .unwrap()
                    .at(Time(t))
                    .set("grp", (*skew as i64) % 6).unwrap()
                    .set("load", (*load % 16) as f64).unwrap()
                    .build()
            }).collect();
            let mut engine = GretaEngine::<f64>::new(q.clone(), reg.clone()).unwrap();
            let expect = sorted(engine.run(&events).unwrap());
            let cut = events.len() * cut_pct as usize / 100;
            let dir = tmpdir(&format!("prop-cut-{shards}-{}-{cut}", spec.len()));
            let cfg = || ExecutorConfig {
                shards,
                emission: EmissionMode::WindowOrdered,
                durability: Some(DurabilityConfig::new(&dir)),
                ..Default::default()
            };
            let mut committed = Vec::new();
            {
                let mut exec = StreamExecutor::<f64>::new(q.clone(), reg.clone(), cfg()).unwrap();
                for e in &events[..cut] {
                    exec.push(e.clone()).unwrap();
                    committed.extend(exec.poll_results());
                }
                exec.checkpoint().unwrap();
            } // crash
            let mut exec = StreamExecutor::<f64>::recover(q.clone(), reg.clone(), cfg()).unwrap();
            for e in &events[cut..] {
                exec.push(e.clone()).unwrap();
                committed.extend(exec.poll_results());
            }
            committed.extend(exec.finish().unwrap());
            for w in committed.windows(2) {
                prop_assert!(w[0].order_key() <= w[1].order_key(), "stream went backwards across cut");
            }
            prop_assert_eq!(committed, expect);
            let _ = std::fs::remove_dir_all(&dir);
        }
    }
}
