//! # greta-workloads
//!
//! Synthetic workload generators reproducing the three data sets of the
//! GRETA evaluation (paper §10.1):
//!
//! * [`stock`] — NYSE-like financial transactions (the real data set \[5\] is
//!   no longer freely available; the generator reproduces the properties
//!   GRETA is sensitive to: events per window, price-comparison selectivity,
//!   company/sector grouping).
//! * [`linear_road`] — position reports in the spirit of the Linear Road
//!   benchmark \[7\], with a configurable accident process for query Q3.
//! * [`cluster`] — Hadoop cluster measurements exactly per Table 2
//!   (uniform mapper/job ids 0–10, uniform CPU/memory 0–1k, Poisson(λ=100)
//!   load).
//!
//! All generators are seeded (deterministic), emit in-order events, and let
//! the caller choose the time-stamp granularity via [`Timestamps`].

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod cluster;
pub mod linear_road;
pub mod rng;
pub mod stock;

pub use cluster::{ClusterConfig, ClusterGen};
pub use linear_road::{LinearRoadConfig, LinearRoadGen};
pub use stock::{StockConfig, StockGen};

/// Time-stamp assignment policy.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Timestamps {
    /// One tick per event (strictly increasing — maximal adjacency; the
    /// default for benchmarks since Definition 1 requires strictly
    /// increasing times within a trend).
    PerEvent,
    /// `n` events share each tick (models a wall-clock rate with
    /// second-resolution stamps like the paper's data sets).
    PerTick(u32),
}

impl Timestamps {
    /// Time stamp of the `i`-th generated event.
    pub fn time_of(self, i: u64) -> greta_types::Time {
        match self {
            Timestamps::PerEvent => greta_types::Time(i),
            Timestamps::PerTick(n) => greta_types::Time(i / n.max(1) as u64),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn timestamp_policies() {
        assert_eq!(Timestamps::PerEvent.time_of(7), greta_types::Time(7));
        assert_eq!(Timestamps::PerTick(3).time_of(7), greta_types::Time(2));
        assert_eq!(Timestamps::PerTick(0).time_of(7), greta_types::Time(7));
    }
}
