//! # greta-durability
//!
//! Log-structured durability for the GRETA streaming runtime: one
//! segmented [write-ahead log](wal::Wal) holds both the stream and its
//! checkpoints.
//!
//! ```text
//!  push(event) ──▶ WAL append (framed: len + crc32 + payload)
//!                    │ segments wal-<base>.seg, fsync on rotation
//!                    ▼
//!  every K closed windows: one more record, the checkpoint blob
//!                    │ append, fsync once
//!                    ▼
//!  segments wholly before the checkpoint record are deleted
//! ```
//!
//! Recovery is one pass over the log: the last complete checkpoint record
//! is the state, and the records after it are replayed (a torn final frame
//! — the expected artifact of a crash mid-append — ends the log; checksum
//! mismatches are corruption). This crate stores opaque byte payloads; the
//! record tags and the engine-state encoding live in `greta-core`, the
//! event encoding in [`greta_types::codec`].

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

pub mod crc;
pub mod error;
pub mod wal;

pub use error::DurabilityError;
pub use wal::{FsyncPolicy, Wal};

use std::path::PathBuf;

/// Tuning knobs for the durability layer (all state lives in the WAL
/// segments of one directory).
#[derive(Debug, Clone)]
pub struct DurabilityConfig {
    /// Directory holding the WAL segments.
    pub dir: PathBuf,
    /// Checkpoint cadence: append a checkpoint record after this many
    /// closed windows (per the executor's watermark). Must be ≥ 1.
    pub snapshot_every_windows: u64,
    /// Rotate WAL segments once they exceed this many bytes. Rotation
    /// fsyncs the sealed segment; appends never sync, checkpoints and
    /// [`Wal::sync`] do ([`FsyncPolicy`]).
    pub segment_bytes: u64,
}

impl DurabilityConfig {
    /// Defaults rooted at `dir`: checkpoint every 4 closed windows, 4 MiB
    /// segments, fsync at checkpoints/rotations only.
    pub fn new(dir: impl Into<PathBuf>) -> DurabilityConfig {
        DurabilityConfig {
            dir: dir.into(),
            snapshot_every_windows: 4,
            segment_bytes: 4 << 20,
        }
    }
}
