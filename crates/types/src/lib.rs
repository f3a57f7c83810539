//! # greta-types
//!
//! Data model for the GRETA event trend aggregation system (paper §2):
//!
//! * [`Time`] — application time stamps from a linearly ordered domain.
//! * [`Value`] — dynamically typed attribute values carried by events.
//! * [`Schema`] / [`SchemaRegistry`] — event types and their attributes,
//!   interned to small integer ids for cheap comparisons.
//! * [`Event`] — a time-stamped, typed tuple of attribute values.
//! * [`stream`] — the in-order check on event streams.
//!
//! All higher layers (query compilation, the GRETA runtime, the two-step
//! baselines and the workload generators) are built on this crate.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod codec;
pub mod error;
pub mod event;
pub mod schema;
pub mod stream;
pub mod time;
pub mod value;

pub use codec::{CodecError, Reader};
pub use error::TypeError;
pub use event::{shared_heap_size, Event, EventBuilder, EventRef};
pub use schema::{AttrId, Schema, SchemaRegistry, TypeId};
pub use stream::check_in_order;
pub use time::Time;
pub use value::Value;
