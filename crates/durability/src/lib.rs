//! # greta-durability
//!
//! Log-structured durability for the GRETA streaming runtime: a segmented
//! [write-ahead log](wal::Wal), an atomic [snapshot store](snapshot::SnapshotStore),
//! and a [recovery manifest](manifest::Manifest). The layering follows the
//! classic LSM / replication-log shape:
//!
//! ```text
//!  push(event) ──▶ WAL append (framed: len + crc32 + payload)
//!                    │ segments wal-<base>.seg, fsync on rotation
//!                    ▼
//!  every K closed windows: snapshot all shard engines + ingest state
//!                    │ snap-<epoch>.bin (atomic tmp+rename, crc32)
//!                    ▼
//!  MANIFEST {epoch, wal_index, shards}  (atomic rewrite)
//!                    │
//!                    ▼
//!  segments fully below wal_index are deleted, old snapshots purged
//! ```
//!
//! Recovery is the reverse: load the manifest, restore the snapshot of
//! `epoch`, replay WAL records from `wal_index` (tolerating a torn final
//! frame — the expected artifact of a crash mid-append; flagging checksum
//! mismatches as corruption). This crate stores opaque byte payloads; the
//! engine-state encoding lives in `greta-core`, the event encoding in
//! [`greta_types::codec`].

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
pub mod manifest;
pub mod snapshot;
pub mod wal;

pub use error::DurabilityError;
pub use manifest::Manifest;
pub use snapshot::SnapshotStore;
pub use wal::{FsyncPolicy, TailPolicy, Wal};

use std::path::PathBuf;

/// Tuning knobs for the durability layer (all state lives under one
/// directory: WAL segments, snapshots, and the manifest).
#[derive(Debug, Clone)]
pub struct DurabilityConfig {
    /// Directory holding WAL segments, snapshots, and the manifest.
    pub dir: PathBuf,
    /// Snapshot cadence: checkpoint after this many closed windows (per
    /// the executor's watermark). Must be ≥ 1.
    pub snapshot_every_windows: u64,
    /// Rotate WAL segments once they exceed this many bytes. Rotation
    /// fsyncs the sealed segment.
    pub segment_bytes: u64,
    /// When the WAL fsyncs appended records (see [`FsyncPolicy`]). The
    /// default, [`FsyncPolicy::AtCheckpoint`], syncs only at rotation and
    /// checkpoints: events since then may be lost on power failure, never
    /// corrupted.
    pub fsync: FsyncPolicy,
}

impl DurabilityConfig {
    /// Defaults rooted at `dir`: snapshot every 4 closed windows, 4 MiB
    /// segments, fsync at checkpoints/rotations only.
    pub fn new(dir: impl Into<PathBuf>) -> DurabilityConfig {
        DurabilityConfig {
            dir: dir.into(),
            snapshot_every_windows: 4,
            segment_bytes: 4 << 20,
            fsync: FsyncPolicy::AtCheckpoint,
        }
    }
}
