//! # greta-bench
//!
//! Benchmark harness regenerating **every figure** of the GRETA evaluation
//! (paper §10) plus ablations of the engine's own design choices:
//!
//! | experiment | paper artifact | sweep |
//! |------------|----------------|-------|
//! | `fig14`    | Fig. 14 (latency/memory/throughput, positive patterns, stock) | events per window |
//! | `fig15`    | Fig. 15 (same, with negative sub-patterns) | events per window |
//! | `fig16`    | Fig. 16 (edge-predicate selectivity, Linear Road) | selectivity |
//! | `fig17`    | Fig. 17 (number of trend groups, cluster) | groups |
//! | `complexity` | §8 claims | n (GRETA only; slope check) |
//! | `ablations` | engine design choices | index/carrier/window sharing |
//!
//! Run `cargo run --release -p greta-bench --bin harness -- all` for the
//! paper-style tables.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod experiments;
pub mod metrics;

pub use experiments::{
    ablations, complexity, fig14, fig15, fig16, fig17, render_table, rows_to_json, Row,
};
pub use metrics::{run_greta, run_greta_parallel, run_two_step_engine, Metrics, TwoStep};
