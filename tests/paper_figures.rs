//! The paper's growth claims (§8 Theorem 8.1, §10 figs 14–17 and the
//! Fig. 9 window-sharing plan), gated on the exact counters the `harness`
//! binary prints, over its `small` scale.
//!
//! Every bound is the theorem's (per window of n events: at most
//! n × states vertices and n(n−1)/2 edges) or a stated shape (monotone,
//! faster than, linear within a factor). None is fitted to a run, so the
//! gates hold on any machine and under any timing noise.

use greta::core::{windows_of, WindowId};
use greta::query::CompiledQuery;
use greta::types::{EventBuilder, SchemaRegistry, Time};
use greta_bench::{
    ablations, all_engines, complexity, fig14_points, fig15_points, fig16_points, fig17_points,
    window_plans, Metrics, Point, Scale, FIG16_BIASES, FIG17_GROUPS,
};
use std::collections::BTreeMap;

fn small() -> Scale {
    Scale::by_name("small").expect("the harness's small scale")
}

/// Theorem 8.1's bounds summed over the point's windows: `(vertices,
/// edges)` at most `(n × states, n(n−1)/2)` for a window of n events.
fn theorem_8_1_bounds(p: &Point) -> (u64, u64) {
    let states: u64 = p
        .query
        .alternatives
        .iter()
        .flat_map(|a| &a.graphs)
        .map(|g| g.template.states.len() as u64)
        .sum();
    let mut per_window: BTreeMap<WindowId, u64> = BTreeMap::new();
    for e in &p.events {
        for w in windows_of(e.time, &p.query.window) {
            *per_window.entry(w).or_default() += 1;
        }
    }
    let vertices = per_window.values().map(|n| n * states).sum();
    let edges = per_window
        .values()
        .map(|n| n * n.saturating_sub(1) / 2)
        .sum();
    (vertices, edges)
}

/// Runs every engine over `p` and checks what holds at any single point:
/// GRETA completes within Theorem 8.1's bounds, and every engine that
/// completes agrees with GRETA's checksum. Returns GRETA, SASE, CET, Flink.
fn run_point(figure: &str, p: &Point, budget: u64) -> Vec<Metrics> {
    let ms = all_engines(p, budget);
    let greta = &ms[0];
    let (max_vertices, max_edges) = theorem_8_1_bounds(p);
    assert!(greta.completed);
    assert!(
        greta.vertices <= max_vertices,
        "{figure} x={}: {} vertices > {max_vertices}",
        p.x,
        greta.vertices
    );
    assert!(
        greta.edges <= max_edges,
        "{figure} x={}: {} edges > {max_edges}",
        p.x,
        greta.edges
    );
    for m in ms.iter().filter(|m| m.completed) {
        let rel = (m.checksum - greta.checksum).abs() / greta.checksum.abs().max(1.0);
        assert!(
            rel < 1e-9,
            "{figure} x={}: {} checksum {} vs GRETA {}",
            p.x,
            m.engine,
            m.checksum,
            greta.checksum
        );
        assert_eq!(m.rows, greta.rows, "{figure} x={}: {}", p.x, m.engine);
    }
    ms
}

/// Asserts that every engine finished within its budget at `x`, so that
/// [`run_point`]'s agreement check compared all four of them there.
fn assert_all_completed(figure: &str, x: f64, ms: &[Metrics]) {
    for m in ms {
        assert!(m.completed, "{figure} x={x}: {} did not finish", m.engine);
    }
}

/// Figs. 14–15: every engine completes, and so agrees, at the sweep's first
/// point. GRETA's space is linear (peak bytes per event stay within
/// a factor 1.5 across a sweep that quadruples n — quadratic space would
/// quadruple them), and each two-step engine's trends grow faster than
/// GRETA's edges from one point to the next, or the engine stops at its
/// budget.
fn polynomial_against_exponential(figure: &str, points: &[Point], budget: u64) {
    let runs: Vec<Vec<Metrics>> = points
        .iter()
        .map(|p| run_point(figure, p, budget))
        .collect();
    assert_all_completed(figure, points[0].x, &runs[0]);
    let per_event: Vec<f64> = runs
        .iter()
        .zip(points)
        .map(|(ms, p)| ms[0].memory_bytes as f64 / p.events.len() as f64)
        .collect();
    let (lo, hi) = per_event
        .iter()
        .fold((f64::MAX, 0.0f64), |(lo, hi), &b| (lo.min(b), hi.max(b)));
    assert!(
        hi <= 1.5 * lo,
        "{figure}: peak bytes per event {per_event:?}"
    );
    for pair in runs.windows(2) {
        let (a, b) = (&pair[0], &pair[1]);
        for i in 1..a.len() {
            if !b[i].completed {
                continue;
            }
            assert!(
                a[i].completed,
                "{figure}: {} finished after a DNF",
                b[i].engine
            );
            assert!(
                u128::from(b[i].trends) * u128::from(a[0].edges)
                    > u128::from(a[i].trends) * u128::from(b[0].edges),
                "{figure}: {} trends {} -> {} grew slower than GRETA edges {} -> {}",
                b[i].engine,
                a[i].trends,
                b[i].trends,
                a[0].edges,
                b[0].edges
            );
        }
    }
}

#[test]
fn fig14_greta_is_polynomial_and_two_step_engines_are_not() {
    let s = small();
    polynomial_against_exponential("fig14", &fig14_points(&s.fig14_sizes), s.budget);
}

#[test]
fn fig15_trailing_negation_keeps_the_same_shape() {
    let s = small();
    polynomial_against_exponential("fig15", &fig15_points(&s.fig15_sizes), s.budget);
}

/// Fig. 16: GRETA's edges rise with the bias; at the low biases, where few
/// trends exist, every engine completes and agrees.
#[test]
fn fig16_greta_edges_rise_with_the_slowdown_bias() {
    let s = small();
    let edges: Vec<u64> = fig16_points(s.fig16_n, &FIG16_BIASES)
        .iter()
        .map(|p| {
            let ms = run_point("fig16", p, s.budget);
            if p.x <= 0.25 {
                assert_all_completed("fig16", p.x, &ms);
            }
            ms[0].edges
        })
        .collect();
    assert!(
        edges.windows(2).all(|w| w[0] < w[1]),
        "fig16 edges {edges:?}"
    );
}

/// Fig. 17: GRETA's edges fall as the groups rise; from 10 groups on, where
/// each group's trends are few, every engine completes and agrees.
#[test]
fn fig17_greta_edges_fall_as_groups_rise() {
    let s = small();
    let edges: Vec<u64> = fig17_points(s.fig17_n, &FIG17_GROUPS)
        .iter()
        .map(|p| {
            let ms = run_point("fig17", p, s.budget);
            if p.x >= 10.0 {
                assert_all_completed("fig17", p.x, &ms);
            }
            ms[0].edges
        })
        .collect();
    assert!(
        edges.windows(2).all(|w| w[0] > w[1]),
        "fig17 edges {edges:?}"
    );
}

/// The 10-event `A+` stream has 2¹⁰ − 1 trends; every engine builds them
/// all and agrees.
#[test]
fn a_plus_over_ten_events_has_1023_trends() {
    let mut registry = SchemaRegistry::new();
    registry.register_type("A", &["x"]).unwrap();
    let query = CompiledQuery::parse(
        "RETURN COUNT(*) PATTERN A+ WITHIN 1000 SLIDE 1000",
        &registry,
    )
    .unwrap();
    let events = (0..10u64)
        .map(|t| {
            EventBuilder::new(&registry, "A")
                .unwrap()
                .at(Time(t))
                .build()
        })
        .collect();
    let p = Point {
        x: 10.0,
        registry,
        query,
        events,
    };
    let ms = run_point("A+", &p, u64::MAX);
    assert_eq!(ms[0].checksum, 1023.0);
    assert_eq!((ms[0].vertices, ms[0].edges), (10, 45));
    assert_all_completed("A+", p.x, &ms);
    for m in &ms[1..] {
        assert_eq!(m.trends, 1023, "{}", m.engine);
    }
}

/// Theorem 8.1 over the §8 sweep: the exact bounds at every point, and
/// log–log slopes of edges and peak bytes within 0.25 of the theorem's
/// exponents 2 and 1 (a quarter of the way to the next degree).
#[test]
fn theorem_8_1_over_the_complexity_sweep() {
    let s = small();
    let points = fig14_points(&s.complexity_sizes);
    let rows = complexity(&points);
    for (p, r) in points.iter().zip(&rows) {
        let (max_vertices, max_edges) = theorem_8_1_bounds(p);
        assert!(r.metrics.vertices <= max_vertices && r.metrics.edges <= max_edges);
    }
    let slope = |y: fn(&Metrics) -> f64| {
        let xs: Vec<f64> = rows.iter().map(|r| r.x.ln()).collect();
        let ys: Vec<f64> = rows.iter().map(|r| y(&r.metrics).ln()).collect();
        let n = xs.len() as f64;
        let (sx, sy): (f64, f64) = (xs.iter().sum(), ys.iter().sum());
        let sxy: f64 = xs.iter().zip(&ys).map(|(a, b)| a * b).sum();
        let sxx: f64 = xs.iter().map(|a| a * a).sum();
        (n * sxy - sx * sy) / (n * sxx - sx * sx)
    };
    let edges = slope(|m| m.edges as f64);
    let space = slope(|m| m.memory_bytes as f64);
    assert!((edges - 2.0).abs() <= 0.25, "edge slope {edges}");
    assert!((space - 1.0).abs() <= 0.25, "space slope {space}");
}

/// Fig. 9: the shared plan computes exactly the replicated plan's rows, with
/// fewer vertices + edges and fewer peak bytes. The carrier ablation's
/// rows differ only in their values.
#[test]
fn ablations_share_windows_and_swap_carriers() {
    let s = small();
    let p = &fig14_points(&[s.ablation_n])[0];
    let slide = s.ablation_n / 8;
    let [(shared, shared_rows), (replicated, replicated_rows)] =
        window_plans(&p.registry, &p.events, 4 * slide, slide);
    assert!(!shared_rows.is_empty());
    assert_eq!(shared_rows, replicated_rows);
    assert!(shared.vertices + shared.edges < replicated.vertices + replicated.edges);
    assert!(shared.memory_bytes < replicated.memory_bytes);

    let carriers: Vec<Metrics> = ablations(s.ablation_n)
        .into_iter()
        .filter(|r| r.figure == "ablation-carrier")
        .map(|r| r.metrics)
        .collect();
    assert_eq!(carriers.len(), 3);
    for m in &carriers {
        assert!(m.rows > 0);
        let work = (m.rows, m.vertices, m.edges);
        assert_eq!(
            work,
            (carriers[0].rows, carriers[0].vertices, carriers[0].edges)
        );
    }
}
