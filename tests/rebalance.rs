//! Integration tests for dynamic shard rebalancing (ISSUE 4):
//! hot-key-skewed streams must trigger the executor's skew detector, the
//! barrier migration must keep per-group counters consistent and results
//! byte-identical to the sequential engine, and recovery must be able to
//! repartition a snapshot onto a different shard count.

use greta::core::executor::GROUP_STATS_CAPACITY;
use greta::core::{
    EngineError, ExecutorConfig, GretaEngine, PartitionKey, RebalanceConfig, StreamExecutor,
    StreamRouting, WindowResult,
};
use greta::durability::DurabilityConfig;
use greta::query::CompiledQuery;
use greta::types::{Event, EventBuilder, SchemaRegistry, Time, Value};
use std::path::PathBuf;

fn sorted(mut rows: Vec<WindowResult<f64>>) -> Vec<WindowResult<f64>> {
    rows.sort_by(|a, b| a.window.cmp(&b.window).then_with(|| a.group.cmp(&b.group)));
    rows
}

fn tmpdir(name: &str) -> PathBuf {
    let d = std::env::temp_dir().join(format!("greta-rebal-{name}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&d);
    d
}

/// Q1-shaped grouped query over a synthetic `M` stream.
fn setup() -> (SchemaRegistry, CompiledQuery) {
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

/// The first `n` group ids whose static hash lands on shard 0 of `shards`
/// — adversarial hot keys that pin one shard, exactly the workload the
/// paper's uniform-groups assumption (§10.4) cannot absorb.
fn colliding_groups(reg: &SchemaRegistry, q: &CompiledQuery, shards: usize, n: usize) -> Vec<i64> {
    let routing = StreamRouting::new(q, reg);
    (0..10_000i64)
        .filter(|g| {
            routing.shard_of_group_key(&PartitionKey(vec![Some(Value::Int(*g))]), shards) == 0
        })
        .take(n)
        .collect()
}

/// 90/10 hot-key stream: 90% of events round-robin the `hot_ids` groups,
/// the rest spread over a `cold`-group tail. One event per tick.
fn skewed_events(reg: &SchemaRegistry, n: usize, hot_ids: &[i64], cold: i64) -> Vec<Event> {
    (0..n as u64)
        .map(|t| {
            let grp = if t % 10 < 9 {
                hot_ids[(t % hot_ids.len() as u64) as usize]
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

fn aggressive() -> RebalanceConfig {
    RebalanceConfig {
        check_every_windows: 2,
        imbalance_ratio: 1.2,
    }
}

fn run(
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
    (sorted(rows), exec.stats())
}

#[test]
fn hot_key_stream_rebalances_and_matches_sequential_engine() {
    let (reg, q) = setup();
    // Hot ids collide on shard 0 of 4 (hence also shard 0 of 2).
    let hot = colliding_groups(&reg, &q, 4, 3);
    let events = skewed_events(&reg, 600, &hot, 29);
    let mut engine = GretaEngine::<f64>::new(q.clone(), reg.clone()).unwrap();
    let expect = sorted(engine.run(&events).unwrap());
    for shards in [2usize, 4] {
        let (rows, stats) = run(
            &q,
            &reg,
            &events,
            ExecutorConfig {
                shards,
                rebalance: Some(aggressive()),
                ..Default::default()
            },
        );
        assert_eq!(rows, expect, "shards={shards}");
        assert!(stats.rebalances >= 1, "shards={shards}: detector was quiet");
        assert_eq!(stats.routing_epoch, stats.rebalances);
        let counted: u64 = stats.group_stats.iter().map(|(_, s)| s.events).sum();
        assert_eq!(counted, stats.released, "shards={shards}");
        assert_eq!(stats.engine.events, events.len() as u64);
        assert!(stats.groups_moved >= 1, "shards={shards}");
        // Engine-side vertex counters are reported per group at finish.
        assert!(stats.group_stats.iter().any(|(_, s)| s.vertices > 0));
        // A lifetime count: 32 groups fit the sketch and nothing is
        // replayed, so the per-group figures add up to the engine's own.
        let vertices: u64 = stats.group_stats.iter().map(|(_, s)| s.vertices).sum();
        assert_eq!(vertices, stats.engine.vertices, "shards={shards}");
    }
}

#[test]
fn balanced_stream_never_rebalances() {
    // One busy group on each of two shards: the detector must stay quiet
    // even with an aggressive cadence (the hot pair splits 50/40 and at
    // worst the 10 % cold tail joins the heavier side: 60/40, a ratio of
    // 1.2).
    let (reg, q) = setup();
    let routing = StreamRouting::new(&q, &reg);
    let on_shard = |shard| {
        let owner =
            |g: &i64| routing.shard_of_group_key(&PartitionKey(vec![Some(Value::Int(*g))]), 2);
        (0..10_000i64).find(|g| owner(g) == shard).unwrap()
    };
    let events = skewed_events(&reg, 400, &[on_shard(0), on_shard(1)], 23);
    let (_, stats) = run(
        &q,
        &reg,
        &events,
        ExecutorConfig {
            shards: 2,
            rebalance: Some(RebalanceConfig {
                imbalance_ratio: 1.5,
                ..aggressive()
            }),
            ..Default::default()
        },
    );
    assert_eq!(stats.rebalances, 0);
    assert_eq!(stats.routing_epoch, 0);
}

#[test]
fn rebalancing_off_and_on_agree_bytewise() {
    let (reg, q) = setup();
    let hot = colliding_groups(&reg, &q, 4, 2);
    let events = skewed_events(&reg, 500, &hot, 17);
    let off = run(
        &q,
        &reg,
        &events,
        ExecutorConfig {
            shards: 4,
            ..Default::default()
        },
    );
    let on = run(
        &q,
        &reg,
        &events,
        ExecutorConfig {
            shards: 4,
            rebalance: Some(aggressive()),
            ..Default::default()
        },
    );
    assert_eq!(off.0, on.0);
    assert_eq!(on.1.rebalances, on.1.routing_epoch);
    assert!(on.1.rebalances >= 1);
    assert_eq!(off.1.rebalances, 0);
}

#[test]
fn late_emerging_skew_is_detected_within_one_check_period() {
    // The detector works on per-interval counts, not lifetime totals: a
    // long balanced prefix must not average away a hot key that appears
    // late. imbalance_ratio 1.5 is chosen so the *cumulative* ratio after
    // the suffix (~1.25) would stay under the bar — only interval counts
    // can fire here.
    let (reg, q) = setup();
    let hot = colliding_groups(&reg, &q, 4, 2);
    let mut events = Vec::new();
    for t in 0..2000u64 {
        events.push(
            EventBuilder::new(&reg, "M")
                .unwrap()
                .at(Time(t))
                .set("grp", 100_000 + (t % 40) as i64)
                .unwrap()
                .set("load", ((t * 31) % 17) as f64)
                .unwrap()
                .build(),
        );
    }
    for t in 2000..2200u64 {
        events.push(
            EventBuilder::new(&reg, "M")
                .unwrap()
                .at(Time(t))
                .set("grp", hot[(t % 2) as usize])
                .unwrap()
                .set("load", ((t * 31) % 17) as f64)
                .unwrap()
                .build(),
        );
    }
    let mut engine = GretaEngine::<f64>::new(q.clone(), reg.clone()).unwrap();
    let expect = sorted(engine.run(&events).unwrap());
    let mut exec = StreamExecutor::<f64>::new(
        q,
        reg,
        ExecutorConfig {
            shards: 4,
            rebalance: Some(RebalanceConfig {
                check_every_windows: 2,
                imbalance_ratio: 1.5,
            }),
            ..Default::default()
        },
    )
    .unwrap();
    let mut rows = Vec::new();
    for e in &events[..2000] {
        exec.push(e.clone()).unwrap();
        rows.extend(exec.poll_results());
    }
    let before = exec.stats().rebalances;
    for e in &events[2000..] {
        exec.push(e.clone()).unwrap();
        rows.extend(exec.poll_results());
    }
    rows.extend(exec.finish().unwrap());
    assert!(
        exec.stats().rebalances > before,
        "hot key appearing after a balanced prefix must still trigger \
         (before={before}, after={})",
        exec.stats().rebalances
    );
    assert_eq!(sorted(rows), expect);
}

#[test]
fn recover_into_wider_and_narrower_executors_is_byte_identical() {
    let (reg, q) = setup();
    let hot = colliding_groups(&reg, &q, 4, 3);
    let events = skewed_events(&reg, 500, &hot, 29);
    let mut engine = GretaEngine::<f64>::new(q.clone(), reg.clone()).unwrap();
    let expect = sorted(engine.run(&events).unwrap());
    for (from, to) in [(2usize, 4usize), (4, 2), (3, 5), (4, 1)] {
        let dir = tmpdir(&format!("reshard-{from}-{to}"));
        let cfg = |shards| ExecutorConfig {
            shards,
            durability: Some(DurabilityConfig::new(&dir)),
            ..Default::default()
        };
        let mut committed = Vec::new();
        {
            let mut exec = StreamExecutor::<f64>::new(q.clone(), reg.clone(), cfg(from)).unwrap();
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
        let mut exec = StreamExecutor::<f64>::recover(q.clone(), reg.clone(), cfg(to)).unwrap();
        assert_eq!(exec.shards(), to, "{from}→{to}");
        assert!(exec.routing_epoch() > 0, "{from}→{to}: epoch must advance");
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
fn rebalanced_run_recovers_into_different_shard_count() {
    // The hardest composition: skew → live migration (epoch > 0) →
    // checkpoint → crash → recovery onto a different shard count (the
    // pinned table is discarded for a fresh epoch) → identical results.
    let (reg, q) = setup();
    let hot = colliding_groups(&reg, &q, 4, 3);
    let events = skewed_events(&reg, 600, &hot, 29);
    let mut engine = GretaEngine::<f64>::new(q.clone(), reg.clone()).unwrap();
    let expect = sorted(engine.run(&events).unwrap());
    let dir = tmpdir("rebal-then-reshard");
    let cfg = |shards| ExecutorConfig {
        shards,
        rebalance: Some(aggressive()),
        durability: Some(DurabilityConfig::new(&dir)),
        ..Default::default()
    };
    let mut committed = Vec::new();
    let epoch_before = {
        let mut exec = StreamExecutor::<f64>::new(q.clone(), reg.clone(), cfg(4)).unwrap();
        for e in &events[..400] {
            exec.push(e.clone()).unwrap();
            committed.extend(exec.poll_results());
        }
        exec.checkpoint().unwrap();
        exec.routing_epoch()
    }; // crash
    assert!(epoch_before >= 1, "prefix must have rebalanced");
    let mut exec = StreamExecutor::<f64>::recover(q.clone(), reg.clone(), cfg(6)).unwrap();
    assert_eq!(exec.shards(), 6);
    assert!(exec.routing_epoch() > epoch_before);
    for e in &events[400..] {
        exec.push(e.clone()).unwrap();
        committed.extend(exec.poll_results());
    }
    committed.extend(exec.finish().unwrap());
    assert_eq!(sorted(committed), expect);
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn recover_with_same_shard_count_still_works_unchanged() {
    // Guard against the resharding path regressing the common case.
    let (reg, q) = setup();
    let hot = colliding_groups(&reg, &q, 4, 2);
    let events = skewed_events(&reg, 300, &hot, 11);
    let mut engine = GretaEngine::<f64>::new(q.clone(), reg.clone()).unwrap();
    let expect = sorted(engine.run(&events).unwrap());
    let dir = tmpdir("same-count");
    let cfg = || ExecutorConfig {
        shards: 3,
        durability: Some(DurabilityConfig::new(&dir)),
        ..Default::default()
    };
    let mut committed = Vec::new();
    {
        let mut exec = StreamExecutor::<f64>::new(q.clone(), reg.clone(), cfg()).unwrap();
        for e in &events[..150] {
            exec.push(e.clone()).unwrap();
            committed.extend(exec.poll_results());
        }
        exec.checkpoint().unwrap();
    }
    let mut exec = StreamExecutor::<f64>::recover(q.clone(), reg.clone(), cfg()).unwrap();
    assert_eq!(exec.shards(), 3);
    assert_eq!(exec.routing_epoch(), 0, "no reshard, no epoch bump");
    for e in &events[150..] {
        exec.push(e.clone()).unwrap();
        committed.extend(exec.poll_results());
    }
    committed.extend(exec.finish().unwrap());
    assert_eq!(sorted(committed), expect);
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn ungrouped_query_ignores_rebalance_config() {
    let mut reg = SchemaRegistry::new();
    reg.register_type("A", &[]).unwrap();
    let q = CompiledQuery::parse("RETURN COUNT(*) PATTERN A+ WITHIN 10 SLIDE 10", &reg).unwrap();
    let tid = reg.type_id("A").unwrap();
    let mut exec = StreamExecutor::<f64>::new(
        q,
        reg,
        ExecutorConfig {
            shards: 8, // clamps to 1: nothing to partition (asserted below)
            rebalance: Some(RebalanceConfig {
                check_every_windows: 1,
                imbalance_ratio: 1.0,
            }),
            ..Default::default()
        },
    )
    .unwrap();
    for t in 0..100u64 {
        exec.push(Event::new_unchecked(tid, Time(t), vec![]))
            .unwrap();
    }
    exec.finish().unwrap();
    assert_eq!(exec.shards(), 1);
    let stats = exec.stats();
    assert_eq!(stats.rebalances, 0);
    assert_eq!(stats.routing_epoch, 0);
}

#[test]
fn coinciding_rebalance_and_checkpoint_barriers_take_one_barrier_each() {
    // A window close that owes both a migration and a cadence checkpoint
    // serves them in turn: the migration's export cut, then — in the same
    // push — the checkpoint's own. `barrier_snapshots` counts export cuts,
    // so it is exactly one per migration plus one per checkpoint (the
    // final finish() checkpoint snapshots the workers' own exports — no
    // barrier at all).
    let (reg, q) = setup();
    let hot = colliding_groups(&reg, &q, 4, 3);
    let events = skewed_events(&reg, 600, &hot, 29);
    let mut engine = GretaEngine::<f64>::new(q.clone(), reg.clone()).unwrap();
    let expect = sorted(engine.run(&events).unwrap());
    let dir = tmpdir("coinciding-barriers");
    let config = || {
        let mut durability = DurabilityConfig::new(&dir);
        durability.snapshot_every_windows = 2; // same cadence as the detector
        ExecutorConfig {
            shards: 4,
            rebalance: Some(RebalanceConfig {
                check_every_windows: 2,
                imbalance_ratio: 1.2,
            }),
            durability: Some(durability),
            ..Default::default()
        }
    };
    let mut exec = StreamExecutor::<f64>::new(q.clone(), reg.clone(), config()).unwrap();
    let mut rows = Vec::new();
    let mut crashed_at = None;
    for (i, e) in events.iter().enumerate() {
        let before = exec.stats();
        exec.push(e.clone()).unwrap();
        let after = exec.stats();
        if after.rebalances > before.rebalances {
            assert_eq!(
                (after.checkpoints, after.barrier_snapshots),
                (before.checkpoints + 1, before.barrier_snapshots + 2),
                "the owed checkpoint follows the migration within the same push"
            );
            // Crash here. Rows polled so far predate that checkpoint, so
            // they are not in it; un-polled ones are.
            crashed_at = Some(i + 1);
            break;
        }
        rows.extend(exec.poll_results());
    }
    let stats = exec.stats();
    assert_eq!(
        stats.barrier_snapshots,
        stats.rebalances + stats.checkpoints
    );
    drop(exec);
    // Recovery from the checkpoint taken right after the migration resumes
    // under the migrated table and stays byte-identical.
    let resume = crashed_at.expect("stream must migrate");
    let mut recovered = StreamExecutor::<f64>::recover(q, reg, config()).unwrap();
    assert_eq!(recovered.routing_epoch(), stats.routing_epoch);
    assert_eq!(recovered.stats().rebalances, stats.rebalances);
    for e in &events[resume..] {
        recovered.push(e.clone()).unwrap();
        rows.extend(recovered.poll_results());
    }
    rows.extend(recovered.finish().unwrap());
    assert_eq!(sorted(rows), expect);
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn group_stats_stay_bounded_on_high_cardinality_streams() {
    // The per-group counters used to grow one map entry per distinct group
    // forever. They are a top-K + decayed-counter sketch bounded by
    // GROUP_STATS_CAPACITY.
    let (reg, q) = setup();
    // 2500 distinct groups, each a handful of events — far past the cap.
    let events: Vec<Event> = (0..5000u64)
        .map(|t| {
            EventBuilder::new(&reg, "M")
                .unwrap()
                .at(Time(t))
                .set("grp", (t % 2500) as i64)
                .unwrap()
                .set("load", ((t * 31) % 17) as f64)
                .unwrap()
                .build()
        })
        .collect();
    let (rows, stats) = run(
        &q,
        &reg,
        &events,
        ExecutorConfig {
            shards: 2,
            rebalance: Some(aggressive()),
            ..Default::default()
        },
    );
    assert!(
        stats.group_stats.len() <= GROUP_STATS_CAPACITY,
        "{} groups reported",
        stats.group_stats.len()
    );
    // Tracked counts never under-estimate (space-saving property), so
    // every survivor has counted at least its own event.
    assert!(stats.group_stats.iter().all(|(_, s)| s.events >= 1));
    // The sketch only shapes the detector's signal, never the rows.
    let mut engine = GretaEngine::<f64>::new(q.clone(), reg.clone()).unwrap();
    assert_eq!(rows, sorted(engine.run(&events).unwrap()));
}

#[test]
fn late_policy_error_still_surfaces_during_rebalanced_runs() {
    // The rebalance hook in push() must not swallow the Late error path.
    let (reg, q) = setup();
    let tid = reg.type_id("M").unwrap();
    let ev = |t: u64| {
        Event::new_unchecked(
            tid,
            Time(t),
            vec![greta::types::Value::Int(0), greta::types::Value::Float(0.0)],
        )
    };
    let mut exec = StreamExecutor::<f64>::new(
        q,
        reg,
        ExecutorConfig {
            shards: 2,
            slack: 1,
            late_policy: greta::core::LatePolicy::Error,
            rebalance: Some(aggressive()),
            ..Default::default()
        },
    )
    .unwrap();
    exec.push(ev(10)).unwrap();
    exec.push(ev(20)).unwrap();
    assert!(matches!(
        exec.push(ev(5)).unwrap_err(),
        EngineError::Late { got: 5, .. }
    ));
    exec.finish().unwrap();
}

mod props {
    use super::*;
    use proptest::prelude::*;

    proptest! {
        #![proptest_config(ProptestConfig { cases: 16, ..ProptestConfig::default() })]

        /// Satellite acceptance: on randomly generated 90/10 hot-key
        /// streams the detector fires, the per-group event counters stay
        /// consistent across migrations (they sum to the released event
        /// count), and executor output is byte-identical to the 1-shard
        /// sequential engine.
        #[test]
        fn skewed_streams_rebalance_and_stay_byte_identical(
            spec in proptest::collection::vec((0u8..=255, 0u8..=255), 80..200),
            hot in 2usize..5,
        ) {
            let (reg, q) = setup();
            // Hot ids that provably collide on one shard of 4: the stream
            // is skewed no matter how the random bytes fall, so the
            // trigger assertion below cannot flake.
            let hot_ids = colliding_groups(&reg, &q, 4, hot);
            let events: Vec<Event> = spec.iter().enumerate().map(|(i, (skew, load))| {
                let t = i as u64 + 1;
                // Exactly 90% of events round-robin the hot groups, 10%
                // fall in a 23-group cold tail; payloads stay random.
                let grp = if i % 10 < 9 {
                    hot_ids[i % hot]
                } else {
                    100_000 + (*skew as i64) % 23
                };
                EventBuilder::new(&reg, "M")
                    .unwrap()
                    .at(Time(t))
                    .set("grp", grp).unwrap()
                    .set("load", (*load % 16) as f64).unwrap()
                    .build()
            }).collect();
            let mut engine = GretaEngine::<f64>::new(q.clone(), reg.clone()).unwrap();
            let expect = sorted(engine.run(&events).unwrap());
            let (rows, stats) = run(
                &q,
                &reg,
                &events,
                ExecutorConfig {
                    shards: 4,
                    rebalance: Some(RebalanceConfig {
                        check_every_windows: 1,
                        imbalance_ratio: 1.2,
                    }),
                    ..Default::default()
                },
            );
            prop_assert_eq!(&rows, &expect);
            // ≥80 in-order ticks close ≥2 windows (WITHIN 40 SLIDE 20)
            // with ≥90% of mass on ≤4 hot groups: the detector must fire.
            prop_assert!(stats.rebalances >= 1, "detector stayed quiet");
            prop_assert_eq!(stats.routing_epoch, stats.rebalances);
            let counted: u64 = stats.group_stats.iter().map(|(_, s)| s.events).sum();
            prop_assert_eq!(counted, stats.released);
        }

        /// Mid-stream crash + recovery into a random different shard count
        /// on a skewed stream: byte-identical after idempotent-sink dedup.
        #[test]
        fn resharded_recovery_is_byte_identical(
            spec in proptest::collection::vec((0u8..=255, 0u8..=255), 60..140),
            from in 2usize..5,
            to in 1usize..6,
            cut_pct in 20u8..80,
        ) {
            let (reg, q) = setup();
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
            let mut engine = GretaEngine::<f64>::new(q.clone(), reg.clone()).unwrap();
            let expect = sorted(engine.run(&events).unwrap());
            let cut = events.len() * cut_pct as usize / 100;
            let dir = tmpdir(&format!("prop-{from}-{to}-{}", spec.len()));
            let cfg = |shards| ExecutorConfig {
                shards,
                rebalance: Some(aggressive()),
                durability: Some(DurabilityConfig::new(&dir)),
                ..Default::default()
            };
            let mut committed = Vec::new();
            {
                let mut exec = StreamExecutor::<f64>::new(q.clone(), reg.clone(), cfg(from)).unwrap();
                for e in &events[..cut] {
                    exec.push(e.clone()).unwrap();
                    committed.extend(exec.poll_results());
                }
                exec.checkpoint().unwrap();
            } // crash
            let mut exec = StreamExecutor::<f64>::recover(q.clone(), reg.clone(), cfg(to)).unwrap();
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
}
