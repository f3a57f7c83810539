//! The engine's partition indexes on every state path, through the public
//! API: a root event probes its partition by the event's own values, and a
//! sub-key broadcast reaches the partitions it matches through an index per
//! key mask. Partitions reach an engine three ways — opened by a root event
//! (replaying the buffered broadcasts that match), decoded by
//! `import_state`, moved by `repartition_states` — and every way must leave
//! both indexes whole, or a later event misses its partition.
//!
//! The stream is Q3-shaped (paper §6): positions partition by a `Str`
//! segment and an `Int` vehicle, vehicles keep joining (so partitions open
//! after broadcasts and replay them), accidents carry the segment only and
//! alerts carry no partition attribute at all.

use greta::core::{ExecutorConfig, GretaEngine, StreamExecutor, StreamRouting, WindowResult};
use greta::query::CompiledQuery;
use greta::types::{Event, EventBuilder, SchemaRegistry, Time};

fn setup() -> (SchemaRegistry, CompiledQuery, Vec<Event>) {
    let mut reg = SchemaRegistry::new();
    reg.register_type("Position", &["vehicle", "segment", "speed"])
        .unwrap();
    reg.register_type("Accident", &["segment"]).unwrap();
    reg.register_type("Alert", &["level"]).unwrap();
    let q = CompiledQuery::parse(
        "RETURN segment, COUNT(*), SUM(P.speed) \
         PATTERN SEQ(NOT Accident A, NOT Alert L, Position P+) \
         WHERE [P.vehicle, segment] GROUP-BY segment WITHIN 40 SLIDE 10",
        &reg,
    )
    .unwrap();
    let events = (0..600u64)
        .map(|i| {
            let t = Time(i / 2);
            let segment = format!("seg-{}", i * 7 % 5);
            let b = |ty| EventBuilder::new(&reg, ty).unwrap().at(t);
            if i % 37 == 11 {
                b("Accident").set("segment", segment).unwrap().build()
            } else if i % 211 == 100 {
                b("Alert").set("level", (i % 3) as i64).unwrap().build()
            } else {
                // Vehicle ids grow with time: new partitions keep opening.
                let vehicle = (i * 13 % (3 + i / 20)) as i64;
                let p = b("Position").set("vehicle", vehicle).unwrap();
                let p = p.set("segment", segment).unwrap();
                p.set("speed", (i * 11 % 17) as f64).unwrap().build()
            }
        })
        .collect();
    (reg, q, events)
}

fn sorted(mut rows: Vec<WindowResult<f64>>) -> Vec<WindowResult<f64>> {
    rows.sort_by(|a, b| a.window.cmp(&b.window).then_with(|| a.group.cmp(&b.group)));
    rows
}

/// Feed `events` to the engines, a root event to the one its group hashes
/// to and a broadcast to all, draining rows as windows close.
fn feed(
    engines: &mut [GretaEngine<f64>],
    routing: &StreamRouting,
    events: &[Event],
) -> Vec<WindowResult<f64>> {
    let mut rows = Vec::new();
    for e in events {
        let e = e.clone().into_ref();
        match routing.shard_of(&e, engines.len()) {
            Some(s) => engines[s].process_ref(&e).unwrap(),
            None => engines.iter_mut().for_each(|g| g.process_ref(&e).unwrap()),
        }
        engines
            .iter_mut()
            .for_each(|g| rows.extend(g.poll_results()));
    }
    rows
}

#[test]
fn cuts_through_export_and_repartition_continue_exactly() {
    let (reg, q, events) = setup();
    let routing = StreamRouting::new(&q, &reg);
    let mut one = GretaEngine::<f64>::new(q.clone(), reg.clone()).unwrap();
    let expect = one.run(&events).unwrap();
    // Recorded with the engine that compared a broadcast with every
    // partition and keyed its partition map by materialized keys: the
    // paths below agree with each other, these figures with that engine.
    let counts: f64 = expect.iter().map(|r| r.values[0].to_f64()).sum();
    let speeds: f64 = expect.iter().map(|r| r.values[1].to_f64()).sum();
    assert_eq!((expect.len(), counts, speeds), (55, 1222.0, 35042.0));
    assert_eq!(one.partition_count(), 124);
    let plan = one.plan().clone();

    for shards in [1, 2, 4] {
        let config = ExecutorConfig {
            shards,
            ..Default::default()
        };
        let mut exec = StreamExecutor::<f64>::new(q.clone(), reg.clone(), config).unwrap();
        let mut rows = Vec::new();
        for e in &events {
            exec.push(e.clone()).unwrap();
            rows.extend(exec.poll_results());
        }
        rows.extend(exec.finish().unwrap());
        assert_eq!(sorted(rows), sorted(expect.clone()), "{shards} shards");
    }

    for cut in [0, 137, 301, 599, 600] {
        let (prefix, suffix) = events.split_at(cut);
        // export_state → import_state on one engine: rows in order.
        let mut a = [GretaEngine::<f64>::new(q.clone(), reg.clone()).unwrap()];
        let mut rows = feed(&mut a, &routing, prefix);
        let blob = a[0].export_state();
        let mut b = [GretaEngine::<f64>::import_state(plan.clone(), &blob).unwrap()];
        rows.extend(feed(&mut b, &routing, suffix));
        rows.extend(b[0].finish());
        assert_eq!(rows, expect, "import at {cut}");

        // Two engines repartitioned onto three.
        let mut two: Vec<_> = (0..2)
            .map(|_| GretaEngine::<f64>::new(q.clone(), reg.clone()).unwrap())
            .collect();
        let mut rows = feed(&mut two, &routing, prefix);
        let blobs: Vec<Vec<u8>> = two.iter().map(GretaEngine::export_state).collect();
        let mut three = GretaEngine::<f64>::repartition_states(&plan, &blobs, 3, |g| {
            routing.shard_of_group_key(g, 3)
        })
        .unwrap();
        let moved: usize = three.iter().map(GretaEngine::partition_count).sum();
        assert_eq!(moved, two.iter().map(GretaEngine::partition_count).sum());
        rows.extend(feed(&mut three, &routing, suffix));
        three.iter_mut().for_each(|g| rows.extend(g.finish()));
        assert_eq!(sorted(rows), sorted(expect.clone()), "repartition at {cut}");
    }
}
