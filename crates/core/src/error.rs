//! Runtime errors.

use greta_types::TypeError;
use std::fmt;

/// Errors raised by the GRETA engine.
#[derive(Debug, Clone, PartialEq)]
pub enum EngineError {
    /// Events must arrive in-order by time stamp (paper §2).
    OutOfOrder {
        /// High-water mark already processed.
        watermark: u64,
        /// Offending event time.
        got: u64,
    },
    /// A partition attribute is missing from a root-graph event type.
    PartitionAttr {
        /// Attribute name.
        attr: String,
        /// Event type name.
        ty: String,
    },
    /// Query references an event type the engine's registry does not know.
    Type(TypeError),
    /// Configuration problem (e.g. parallelism of zero).
    Config(String),
    /// An event arrived later than the executor's reorder slack allows and
    /// the late-event policy is [`LatePolicy::Error`](crate::executor::LatePolicy::Error).
    Late {
        /// Configured slack in ticks.
        slack: u64,
        /// Watermark already released to the shards.
        watermark: u64,
        /// Offending event time.
        got: u64,
    },
    /// A shard worker terminated abnormally.
    Worker(String),
    /// Durability failure: WAL I-O, corruption or an unreadable layout, or an
    /// undecodable state blob.
    Durability(String),
}

impl fmt::Display for EngineError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            EngineError::OutOfOrder { watermark, got } => write!(
                f,
                "out-of-order event: time {got} after watermark {watermark} \
                 (GRETA assumes in-order streams, paper §2)"
            ),
            EngineError::PartitionAttr { attr, ty } => write!(
                f,
                "partition attribute `{attr}` missing on root-pattern event type `{ty}`"
            ),
            EngineError::Type(e) => write!(f, "{e}"),
            EngineError::Config(m) => write!(f, "configuration error: {m}"),
            EngineError::Late {
                slack,
                watermark,
                got,
            } => write!(
                f,
                "late event: time {got} behind released watermark {watermark} \
                 (reorder slack {slack}) under LatePolicy::Error"
            ),
            EngineError::Worker(m) => write!(f, "shard worker failed: {m}"),
            EngineError::Durability(m) => write!(f, "durability error: {m}"),
        }
    }
}

impl std::error::Error for EngineError {}

impl From<TypeError> for EngineError {
    fn from(e: TypeError) -> Self {
        EngineError::Type(e)
    }
}

impl From<greta_types::CodecError> for EngineError {
    fn from(e: greta_types::CodecError) -> Self {
        EngineError::Durability(e.to_string())
    }
}

impl From<greta_durability::DurabilityError> for EngineError {
    fn from(e: greta_durability::DurabilityError) -> Self {
        EngineError::Durability(e.to_string())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn messages() {
        let e = EngineError::OutOfOrder {
            watermark: 10,
            got: 5,
        };
        assert!(e.to_string().contains("10") && e.to_string().contains('5'));
    }
}
