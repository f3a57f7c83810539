//! # greta-core
//!
//! The GRETA runtime (paper §4–§8): given a [`greta_query::CompiledQuery`]
//! and an in-order event stream, maintains one GRETA graph per pattern
//! alternative × stream partition, propagates aggregates along graph edges
//! in dynamic-programming fashion, and emits per-window per-group results —
//! **without ever enumerating event trends**.
//!
//! Entry point: [`GretaEngine`].
//!
//! ```
//! use greta_types::{SchemaRegistry, EventBuilder, Time};
//! use greta_query::CompiledQuery;
//! use greta_core::GretaEngine;
//!
//! let mut reg = SchemaRegistry::new();
//! reg.register_type("A", &["attr"]).unwrap();
//! reg.register_type("B", &["attr"]).unwrap();
//! let q = CompiledQuery::parse(
//!     "RETURN COUNT(*) PATTERN (SEQ(A+, B))+ WITHIN 100 SLIDE 100", &reg).unwrap();
//! let mut engine = GretaEngine::<f64>::new(q, reg).unwrap();
//! for (ty, t) in [("A", 1), ("B", 2), ("A", 3), ("A", 4), ("B", 7)] {
//!     let reg = engine.registry().clone();
//!     let e = EventBuilder::new(&reg, ty).unwrap().at(Time(t)).build();
//!     engine.process_ref(&e.into_ref()).unwrap();
//! }
//! let results = engine.finish();
//! assert_eq!(results[0].values[0].to_f64(), 11.0); // Example 1: 11 trends
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod agg;
pub mod engine;
pub mod error;
pub mod executor;
pub mod graph;
pub mod grouping;
pub mod memory;
pub mod negation;
pub mod reorder;
pub mod results;
pub mod semantics;
mod state;
pub mod storage;
pub mod window;

pub use agg::{AggLayout, TrendNum};
pub use engine::{EngineConfig, EngineStats, GretaEngine};
pub use error::EngineError;
pub use executor::{
    EmissionMode, ExecutorConfig, ExecutorStats, LatePolicy, QueryId, QueryStreamStats,
    StreamExecutor,
};
pub use grouping::{PartitionKey, StreamRouting};
pub use memory::MemoryFootprint;
pub use reorder::{ReorderBuffer, ResultMerge};
pub use results::{sort_canonical, OutValue, WindowResult};
pub use semantics::Semantics;
pub use window::{window_close_time, windows_of, WindowId};
