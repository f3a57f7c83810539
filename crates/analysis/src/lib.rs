//! # greta-analysis
//!
//! `greta-lint`: the workspace invariant analyzer. Two static passes
//! protect properties clippy cannot express, so they survive refactors
//! that example-driven tests and the ±15 % bench band would miss:
//!
//! | pass | invariant | scope |
//! |------|-----------|-------|
//! | `codec` | every encoder has a decoder; every format version is stamped *and* dispatched | codec modules |
//! | `lock` | declared lock order; no lock held across a socket write | `server.rs`, `session.rs` |
//!
//! The other two workspace rules are clippy lints, run by CI's
//! `cargo clippy --workspace --all-targets -- -D warnings`:
//!
//! * **hot path** — a per-event function of `greta-core` carries
//!   `#[deny(clippy::disallowed_methods, clippy::disallowed_macros)]`, and
//!   `crates/core/clippy.toml` bans the allocating calls (`clone`,
//!   `to_vec`, `collect`, `Vec::new`, `format!`, …). A failure reads
//!   ``use of a disallowed method `std::clone::Clone::clone` `` at the call
//!   site: remove the allocation, or, when it is a refcount bump, put
//!   `#[expect(clippy::disallowed_methods, reason = "…")]` on the
//!   statement;
//! * **panic-freedom** — `greta-server`, `greta-durability` and
//!   `tools/load_client.rs` deny `unwrap_used`, `expect_used`, `panic`,
//!   `unreachable`, `todo`, `unimplemented`, `indexing_slicing` and (via
//!   their `clippy.toml`) `assert!` / `assert_eq!` / `assert_ne!` outside
//!   test code.
//!
//! Everything is hand-rolled on a small Rust lexer ([`lexer`]) — the
//! workspace is offline, so no syn/proc-macro stack. The passes are
//! lexical and conservative: they can flag code that is actually fine
//! (then you narrow the code or add a justified
//! `// lint:allow(<pass>): <reason>`), but a clean run means the
//! invariant holds *as written* everywhere in scope.
//!
//! The runtime twin of the `codec` pass lives in
//! `tests/codec_roundtrip.rs` (proptest round-trips), and the barrier
//! protocol these passes guard is model-checked in
//! `greta_core::protocol_model`.
//!
//! Entry points: [`workspace::lint_workspace`] for the real tree,
//! [`workspace::lint_source`] for one buffer. The CLI is
//! `tools/greta_lint.rs` (`cargo run -p greta-analysis --bin greta_lint`).

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod lexer;
pub mod passes;
pub mod report;
pub mod source;
pub mod workspace;

pub use report::{Finding, Pass};
