//! # greta-analysis
//!
//! The workspace line counter: for every first-party crate, the lines of
//! its own source (`crates/<name>/src/`) that carry a token outside every
//! `#[cfg(test)]` / `#[test]` item — non-blank, non-comment, non-test. A
//! "less code" PR quotes this figure for parent and change, so nobody
//! counts by hand. The CLI is `tools/greta_loc.rs`
//! (`cargo run --release -p greta-analysis --bin greta_loc`).
//!
//! It is hand-rolled on a small Rust lexer ([`lexer`]) because the
//! workspace is offline, so there is no syn / proc-macro stack.
//!
//! The workspace's rules are enforced elsewhere, by the compiler and by
//! tests that run:
//!
//! * **hot path** and **panic-freedom** are clippy lints
//!   (`crates/{core,server,durability}/clippy.toml` plus `#[deny]`
//!   attributes in the code), run by CI's
//!   `cargo clippy --workspace --all-targets -- -D warnings`;
//!   `tools/clippy_red_path.sh` proves they still bite;
//! * **codec symmetry** is round-trip and refusal tests: the proptests of
//!   `crates/core/tests/codec_roundtrip.rs`, and unit tests next to each
//!   codec that decode what it encodes and refuse an unknown version;
//! * **lock discipline** is the structure of `greta-server`: three
//!   private mutexes, each locked once inside a short method of the struct
//!   that owns it and released before that method returns.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod lexer;
pub mod source;
pub mod workspace;
