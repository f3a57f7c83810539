//! Durability-layer errors.

use greta_types::CodecError;
use std::fmt;
use std::path::PathBuf;

/// Errors raised by the write-ahead log and by recovery from it.
#[derive(Debug)]
pub enum DurabilityError {
    /// Underlying file-system failure.
    Io {
        /// What was being done.
        context: String,
        /// The OS error.
        source: std::io::Error,
    },
    /// A frame's checksum did not match its payload: on-disk corruption
    /// (distinct from a torn tail, which is a crash artifact).
    BadChecksum {
        /// File containing the bad frame.
        file: PathBuf,
        /// Byte offset of the frame header.
        offset: u64,
    },
    /// A file ends mid-frame. For the **last** WAL segment this is the
    /// expected artifact of a crash mid-append; anywhere else it is
    /// corruption.
    TruncatedFrame {
        /// File containing the partial frame.
        file: PathBuf,
        /// Byte offset of the frame header.
        offset: u64,
    },
    /// Structurally invalid file (bad magic, impossible lengths, …).
    Corrupt {
        /// File concerned.
        file: PathBuf,
        /// Description.
        msg: String,
    },
    /// Payload (de)serialization failure.
    Codec(CodecError),
    /// The WAL writer was disabled after an earlier write failure left its
    /// in-memory buffer in an unknown state; reopen the log (which repairs
    /// the on-disk tail) to continue.
    Poisoned(String),
    /// The log cannot be recovered: its oldest record is past record 0 and
    /// no checkpoint record covers what came before.
    NothingToRecover(String),
    /// [`Wal::append`](crate::Wal::append) refused a record longer than
    /// [`MAX_RECORD`](crate::wal::MAX_RECORD); nothing was written.
    RecordTooLarge {
        /// The refused payload's length.
        len: usize,
    },
    /// The directory holds a file of the retired layout (a `MANIFEST` or a
    /// `snap-*.bin` snapshot), which this release does not read.
    OldLayout {
        /// The file concerned.
        file: PathBuf,
    },
}

impl fmt::Display for DurabilityError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            DurabilityError::Io { context, source } => write!(f, "{context}: {source}"),
            DurabilityError::BadChecksum { file, offset } => write!(
                f,
                "checksum mismatch in {} at offset {offset}",
                file.display()
            ),
            DurabilityError::TruncatedFrame { file, offset } => write!(
                f,
                "truncated frame in {} at offset {offset}",
                file.display()
            ),
            DurabilityError::Corrupt { file, msg } => {
                write!(f, "corrupt file {}: {msg}", file.display())
            }
            DurabilityError::Codec(e) => write!(f, "{e}"),
            DurabilityError::Poisoned(m) => write!(f, "WAL writer poisoned: {m}"),
            DurabilityError::NothingToRecover(m) => write!(f, "nothing to recover: {m}"),
            DurabilityError::RecordTooLarge { len } => write!(
                f,
                "WAL record of {len} bytes exceeds the {}-byte maximum",
                crate::wal::MAX_RECORD
            ),
            DurabilityError::OldLayout { file } => write!(
                f,
                "{} belongs to the retired snapshot-store layout; \
                 this release keeps checkpoints in the WAL and cannot read it",
                file.display()
            ),
        }
    }
}

impl std::error::Error for DurabilityError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            DurabilityError::Io { source, .. } => Some(source),
            DurabilityError::Codec(e) => Some(e),
            _ => None,
        }
    }
}

impl From<CodecError> for DurabilityError {
    fn from(e: CodecError) -> Self {
        DurabilityError::Codec(e)
    }
}

pub(crate) fn io_err(context: impl Into<String>) -> impl FnOnce(std::io::Error) -> DurabilityError {
    let context = context.into();
    move |source| DurabilityError::Io { context, source }
}
