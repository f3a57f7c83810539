//! # greta-bench
//!
//! Harness regenerating **every figure** of the GRETA evaluation (paper
//! §10) plus ablations of the engine's own design choices, as exact work
//! counters (see [`metrics`]): the same numbers on every machine built
//! with the same Rust toolchain.
//!
//! | experiment | paper artifact | sweep | counters |
//! |------------|----------------|-------|----------|
//! | `fig14`    | Fig. 14 (positive patterns, stock) | events per window | GRETA vertices / edges, two-step trends, peak bytes |
//! | `fig15`    | Fig. 15 (trailing negative sub-pattern, stock) | events per window | same |
//! | `fig16`    | Fig. 16 (edge-predicate selectivity, Linear Road) | slowdown bias | same |
//! | `fig17`    | Fig. 17 (number of trend groups, cluster) | groups | same |
//! | `complexity` | Theorem 8.1 (§8) | events per window | GRETA only |
//! | `ablations` | engine design choices | aggregate carrier, window sharing | GRETA only |
//!
//! `cargo run --release -p greta-bench --bin harness -- all --scale medium
//! --json BENCH_paper.json` regenerates the committed counter table;
//! `tests/paper_figures.rs` gates the paper's claims on these counters.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod experiments;
pub mod metrics;

pub use experiments::{
    ablations, all_engines, complexity, fig14_points, fig15_points, fig16_points, fig17_points,
    render_table, rows_to_json, window_plans, Point, Row, Scale, EXPERIMENTS, FIG16_BIASES,
    FIG17_GROUPS,
};
pub use metrics::{run_greta, run_greta_rows, run_two_step_engine, Metrics, TwoStep};
