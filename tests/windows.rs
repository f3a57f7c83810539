//! Sliding-window integration tests: Fig. 9's shared sub-graphs between
//! overlapping windows, window close and pane purge behaviour, and the
//! edge-predicate example of Fig. 10 — all cross-validated against the
//! enumeration oracle.

use greta::baselines::oracle_run;
use greta::core::{GretaEngine, MemoryFootprint};
use greta::query::CompiledQuery;
use greta::types::{Event, EventBuilder, SchemaRegistry, Time};

fn registry() -> SchemaRegistry {
    let mut reg = SchemaRegistry::new();
    reg.register_type("A", &["attr"]).unwrap();
    reg.register_type("B", &["attr"]).unwrap();
    reg
}

fn ev(reg: &SchemaRegistry, ty: &str, t: u64, attr: f64) -> Event {
    EventBuilder::new(reg, ty)
        .unwrap()
        .at(Time(t))
        .set("attr", attr)
        .unwrap()
        .build()
}

fn rows_match_oracle(query_text: &str, evs: &[Event], reg: &SchemaRegistry) {
    let q = CompiledQuery::parse(query_text, reg).unwrap();
    let mut engine = GretaEngine::<f64>::new(q.clone(), reg.clone()).unwrap();
    let mut rows = engine.run(evs).unwrap();
    rows.sort_by(|a, b| a.window.cmp(&b.window).then_with(|| a.group.cmp(&b.group)));
    let oracle = oracle_run(&q, reg, evs);
    assert_eq!(rows.len(), oracle.len(), "row count for {query_text}");
    for (g, o) in rows.iter().zip(&oracle) {
        assert_eq!(g.window, o.window);
        assert_eq!(g.group, o.group);
        for (gv, ov) in g.values.iter().zip(&o.values) {
            let (a, b) = (gv.to_f64(), ov.to_f64());
            if a.is_nan() && b.is_nan() {
                continue;
            }
            assert!(
                (a - b).abs() <= 1e-9 * a.abs().max(1.0),
                "{query_text}: window {} {a} vs {b}",
                g.window
            );
        }
    }
}

#[test]
fn figure_9_sliding_window_counts() {
    // WITHIN 10 SLIDE 3 over the Fig. 9 stream (events a1..b9 of Fig. 6).
    let reg = registry();
    let evs = vec![
        ev(&reg, "A", 1, 0.0),
        ev(&reg, "B", 2, 0.0),
        ev(&reg, "A", 3, 0.0),
        ev(&reg, "A", 4, 0.0),
        ev(&reg, "B", 7, 0.0),
        ev(&reg, "A", 8, 0.0),
        ev(&reg, "B", 9, 0.0),
    ];
    rows_match_oracle(
        "RETURN COUNT(*) PATTERN (SEQ(A+, B))+ WITHIN 10 SLIDE 3",
        &evs,
        &reg,
    );
}

#[test]
fn overlapping_windows_share_one_graph() {
    // The shared-graph engine stores each event once regardless of how many
    // windows it falls into (Fig. 9(b)); vertex count == matched events.
    let reg = registry();
    let q = CompiledQuery::parse("RETURN COUNT(*) PATTERN A+ WITHIN 12 SLIDE 3", &reg).unwrap();
    let mut engine = GretaEngine::<f64>::new(q, reg.clone()).unwrap();
    for t in 0..12u64 {
        engine
            .process_ref(&ev(&reg, "A", t, 0.0).into_ref())
            .unwrap();
    }
    assert_eq!(engine.stats().vertices, 12); // k=4 windows, still 12 vertices
    engine.finish();
}

#[test]
fn window_results_stream_incrementally() {
    let reg = registry();
    let q = CompiledQuery::parse("RETURN COUNT(*) PATTERN A+ WITHIN 5 SLIDE 5", &reg).unwrap();
    let mut engine = GretaEngine::<u64>::new(q, reg.clone()).unwrap();
    let mut per_poll = Vec::new();
    for t in 0..20u64 {
        engine
            .process_ref(&ev(&reg, "A", t, 0.0).into_ref())
            .unwrap();
        for r in engine.poll_results() {
            per_poll.push((r.window, r.values[0].to_f64()));
        }
    }
    for r in engine.finish() {
        per_poll.push((r.window, r.values[0].to_f64()));
    }
    // Four windows of five events each: 2^5 - 1 = 31 trends apiece.
    assert_eq!(per_poll, vec![(0, 31.0), (1, 31.0), (2, 31.0), (3, 31.0)]);
}

#[test]
fn pane_purge_bounds_memory() {
    // Tumbling windows: memory must not grow with stream length.
    let reg = registry();
    let q = CompiledQuery::parse("RETURN COUNT(*) PATTERN A+ WITHIN 50 SLIDE 50", &reg).unwrap();
    let mut engine = GretaEngine::<f64>::new(q, reg.clone()).unwrap();
    let mut mem_after_each_window = Vec::new();
    for t in 0..500u64 {
        engine
            .process_ref(&ev(&reg, "A", t, 0.0).into_ref())
            .unwrap();
        if t % 50 == 10 && t > 50 {
            mem_after_each_window.push(engine.memory_bytes());
        }
    }
    engine.finish();
    // Memory right after a window close is roughly flat (same ±2x), never
    // cumulative across the 10 windows.
    let first = *mem_after_each_window.first().unwrap() as f64;
    for &m in &mem_after_each_window {
        assert!((m as f64) < first * 2.5, "memory grew: {m} vs {first}");
    }
}

#[test]
fn figure_10_edge_predicate_prunes_edges() {
    // A+ with attr increasing (Fig. 10): only value-increasing edges form.
    let reg = registry();
    let evs = vec![
        ev(&reg, "A", 1, 5.0),
        ev(&reg, "A", 2, 3.0),
        ev(&reg, "A", 3, 7.0),
        ev(&reg, "A", 4, 4.0),
    ];
    rows_match_oracle(
        "RETURN COUNT(*) PATTERN A S+ WHERE S.attr < NEXT(S).attr WITHIN 100 SLIDE 100",
        &evs,
        &reg,
    );
    // Exact: increasing trends: singletons 4 + (5,7) (3,7) (3,4) = 7.
    let q = CompiledQuery::parse(
        "RETURN COUNT(*) PATTERN A S+ WHERE S.attr < NEXT(S).attr WITHIN 100 SLIDE 100",
        &reg,
    )
    .unwrap();
    let mut engine = GretaEngine::<u64>::new(q, reg.clone()).unwrap();
    let rows = engine.run(&evs).unwrap();
    assert_eq!(rows[0].values[0].to_f64(), 7.0);
}

#[test]
fn sliding_windows_with_predicates_and_groups_match_oracle() {
    let reg = {
        let mut reg = SchemaRegistry::new();
        reg.register_type("A", &["attr", "g"]).unwrap();
        reg
    };
    let mk = |t: u64, attr: f64, g: i64| {
        EventBuilder::new(&reg, "A")
            .unwrap()
            .at(Time(t))
            .set("attr", attr)
            .unwrap()
            .set("g", g)
            .unwrap()
            .build()
    };
    let evs: Vec<Event> = (0..40u64)
        .map(|t| mk(t, ((t * 13) % 7) as f64, (t % 3) as i64))
        .collect();
    rows_match_oracle(
        "RETURN g, COUNT(*), SUM(A.attr) PATTERN A S+ \
         WHERE S.attr > NEXT(S).attr GROUP-BY g WITHIN 12 SLIDE 4",
        &evs,
        &reg,
    );
}

#[test]
fn trend_spanning_window_boundary_counts_in_neither() {
    // Events at t=4 and t=6 with WITHIN 5 SLIDE 5: the pair spans the
    // boundary; only the singletons count per window.
    let reg = registry();
    let evs = vec![ev(&reg, "A", 4, 0.0), ev(&reg, "A", 6, 0.0)];
    let q = CompiledQuery::parse("RETURN COUNT(*) PATTERN A+ WITHIN 5 SLIDE 5", &reg).unwrap();
    let mut engine = GretaEngine::<u64>::new(q, reg.clone()).unwrap();
    let rows = engine.run(&evs).unwrap();
    let counts: Vec<(u64, f64)> = rows
        .iter()
        .map(|r| (r.window, r.values[0].to_f64()))
        .collect();
    assert_eq!(counts, vec![(0, 1.0), (1, 1.0)]);
}

#[test]
fn late_window_gap_is_handled() {
    // A long silent gap: windows in between have no content and emit no rows.
    let reg = registry();
    let evs = vec![ev(&reg, "A", 1, 0.0), ev(&reg, "A", 1000, 0.0)];
    let q = CompiledQuery::parse("RETURN COUNT(*) PATTERN A+ WITHIN 10 SLIDE 10", &reg).unwrap();
    let mut engine = GretaEngine::<u64>::new(q, reg.clone()).unwrap();
    let rows = engine.run(&evs).unwrap();
    assert_eq!(rows.len(), 2);
    assert_eq!(rows[0].window, 0);
    assert_eq!(rows[1].window, 100);
}

#[test]
fn within_not_a_multiple_of_slide_matches_oracle_and_per_window_runs() {
    // WITHIN 10 SLIDE 4: panes of 2 ticks, a vertex in 2 or 3 windows, and
    // consecutive panes that share some, all or none of them — the
    // arithmetic the per-pane aggregate matrix rests on. One range-form
    // edge predicate, one residual, one `Pair` negation (`SEQ(A+, NOT E, B)`).
    use greta::core::{EngineConfig, Semantics, WindowResult};
    let mut reg = registry();
    reg.register_type("E", &["attr"]).unwrap();
    const PATTERN: &str = "RETURN COUNT(*), SUM(S.attr), MIN(S.attr) \
         PATTERN (SEQ(A S+, NOT E, B))+ \
         WHERE S.attr < NEXT(S).attr AND S.attr + 4 > NEXT(S).attr";
    let sliding = format!("{PATTERN} WITHIN 10 SLIDE 4");
    let evs: Vec<Event> = (0..34u64)
        .map(|t| {
            let ty = match t % 7 {
                2 | 5 => "B",
                _ if t % 11 == 8 => "E",
                _ => "A",
            };
            ev(&reg, ty, t, ((t * 5) % 9) as f64)
        })
        .collect();
    // Skip-till-any-match is what the oracle enumerates.
    rows_match_oracle(&sliding, &evs, &reg);

    // Under every semantics: a window's row equals the only row of a
    // one-window run over exactly the window's events, where no vertex
    // shares anything with another pane's windows.
    let run = |text: &str, sem: Semantics, use_range_index: bool, evs: &[Event]| {
        let q = CompiledQuery::parse(text, &reg).unwrap();
        let config = EngineConfig {
            semantics: sem,
            use_range_index,
        };
        let mut engine = GretaEngine::<f64>::with_config(q, reg.clone(), config).unwrap();
        let mut rows = engine.run(evs).unwrap();
        rows.sort_by_key(|r| r.window);
        (rows, engine.stats())
    };
    for sem in [
        Semantics::SkipTillAny,
        Semantics::SkipTillNext,
        Semantics::Contiguous,
    ] {
        let (rows, stats) = run(&sliding, sem, true, &evs);
        assert!(rows.len() >= 6, "{sem:?}: {} rows", rows.len());
        let mut expect: Vec<WindowResult<f64>> = Vec::new();
        for wid in 0..=33 / 4 {
            let inside: Vec<Event> = evs
                .iter()
                .filter(|e| wid * 4 <= e.time.ticks() && e.time.ticks() < wid * 4 + 10)
                .cloned()
                .collect();
            let (alone, _) = run(
                &format!("{PATTERN} WITHIN 1000 SLIDE 1000"),
                sem,
                true,
                &inside,
            );
            assert!(alone.len() <= 1);
            expect.extend(alone.into_iter().map(|r| WindowResult { window: wid, ..r }));
        }
        assert_eq!(rows, expect, "{sem:?}");
        // Scanning whole runs instead of row ranges finds the same edges.
        let (scanned, scan_stats) = run(&sliding, sem, false, &evs);
        assert_eq!(scanned, rows, "{sem:?}");
        assert_eq!(
            (scan_stats.vertices, scan_stats.edges),
            (stats.vertices, stats.edges),
            "{sem:?}"
        );
    }
}
