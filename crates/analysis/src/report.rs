//! Findings: what a pass reports, and how the CLI renders them.

use std::fmt;

/// The two lint passes (names double as `lint:allow(<pass>)` keys).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum Pass {
    /// Encode/decode + version-constant symmetry.
    Codec,
    /// Lock ordering and no-lock-across-socket-write.
    Lock,
    /// Meta findings about the annotations themselves (malformed
    /// directives, empty `allow` reasons, unknown pass names).
    Annotation,
}

impl Pass {
    /// The `lint:allow(...)` key for this pass.
    pub fn key(self) -> &'static str {
        match self {
            Pass::Codec => "codec",
            Pass::Lock => "lock",
            Pass::Annotation => "annotation",
        }
    }

    /// Parse an `allow(...)` key.
    pub fn from_key(s: &str) -> Option<Pass> {
        Some(match s {
            "codec" => Pass::Codec,
            "lock" => Pass::Lock,
            "annotation" => Pass::Annotation,
            _ => return None,
        })
    }
}

impl fmt::Display for Pass {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.key())
    }
}

/// One unsuppressed lint violation.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Finding {
    /// Which pass produced it.
    pub pass: Pass,
    /// Repo-relative file path.
    pub path: String,
    /// 1-based line.
    pub line: u32,
    /// Human-readable description, including the remedy.
    pub message: String,
}

impl fmt::Display for Finding {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{}:{}: [{}] {}",
            self.path, self.line, self.pass, self.message
        )
    }
}
