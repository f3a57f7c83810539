//! GRETA network front-end: serve the [`greta_core::StreamExecutor`]
//! over TCP.
//!
//! One [`GretaServer`] listens on a single port and speaks two
//! protocols, sniffed from each connection's first bytes:
//!
//! - **Binary** (preamble `b"GRTA"` + version): length-prefixed frames
//!   over [`greta_types::codec`] — submit a query, ingest events with
//!   explicit backpressure acks (WAL-durable watermark + `busy` credit
//!   signal), subscribe to streaming results (window-ordered by
//!   default), drain, shut down. See [`protocol`].
//! - **HTTP** (`GET /metrics`, `GET /healthz`): every
//!   [`greta_core::ExecutorStats`] counter in Prometheus text format.
//!
//! Threading model: no async runtime — one thread per connection, one
//! executor-owning thread per session, `std::net` throughout (the
//! workspace is offline and vendored-deps-only).

#![forbid(unsafe_code)]
#![warn(missing_docs)]
// The panic rule (see clippy.toml): fail through typed errors.
#![cfg_attr(
    not(test),
    deny(
        clippy::unwrap_used,
        clippy::expect_used,
        clippy::panic,
        clippy::unreachable,
        clippy::todo,
        clippy::unimplemented,
        clippy::indexing_slicing,
        clippy::disallowed_macros
    )
)]

pub mod client;
mod http;
mod metrics;
pub mod protocol;
mod server;
mod session;

pub use client::{Client, ClientError, Subscription};
pub use protocol::{IngestAck, ProtoError, Request, Response, SessionOptions};
pub use server::GretaServer;
