//! Property-based roundtrips for every persisted codec: data-model values
//! (`greta_types::codec`) and — last in the file, example-based — the
//! executor snapshot as a whole.
//!
//! Two properties per codec, mirroring the codec-symmetry lint's contract:
//!
//! 1. `decode(encode(x)) == x` for arbitrary `x` — checked on re-encoded
//!    bytes, so float payloads compare by bit pattern (NaN-safe) and the
//!    check covers the *encoder* determinism too.
//! 2. Truncated or corrupted input decodes to a clean [`CodecError`] (or a
//!    different value, for single-byte corruption that stays in-format) —
//!    never a panic. Proptest turns any panic into a test failure.
//!
//! The vendored `proptest` is a trimmed re-implementation (integer ranges,
//! tuples, `vec`, `prop_oneof!`, `prop_map`): floats are generated from
//! arbitrary bit patterns and strings from an explicit charset.

use greta_types::codec::Reader;
use greta_types::{Event, Schema, SchemaRegistry, Time, TypeId, Value};
use proptest::prelude::*;
use proptest::BoxedStrategy;
use std::collections::BTreeSet;

// ---------------------------------------------------------------- strategies

/// Arbitrary float from an arbitrary bit pattern: covers NaN payloads,
/// infinities, subnormals, and -0.0 — exactly what the codec stores.
fn float() -> BoxedStrategy<f64> {
    any::<u64>().prop_map(f64::from_bits)
}

/// Short string over a charset with multi-byte UTF-8 in it.
fn name() -> BoxedStrategy<String> {
    const CHARS: [char; 8] = ['a', 'Z', '_', '0', 'é', '·', 'q', '9'];
    proptest::collection::vec(0usize..CHARS.len(), 0..8)
        .prop_map(|ix| ix.into_iter().map(|i| CHARS[i]).collect())
}

/// Arbitrary value, including non-finite floats and empty/unicode strings.
fn value() -> BoxedStrategy<Value> {
    prop_oneof![
        any::<i64>().prop_map(Value::Int),
        float().prop_map(Value::Float),
        name().prop_map(|s| Value::from(s.as_str())),
        any::<bool>().prop_map(Value::Bool),
    ]
    .boxed()
}

fn event() -> BoxedStrategy<Event> {
    (
        any::<u64>(),
        any::<u16>(),
        proptest::collection::vec(value(), 0..6),
    )
        .prop_map(|(t, ty, attrs)| Event::new_unchecked(TypeId(ty), Time(t), attrs))
}

fn schema() -> BoxedStrategy<Schema> {
    (name(), proptest::collection::vec(name(), 0..5))
        .prop_map(|(name, attributes)| Schema { name, attributes })
}

/// Registry input: names and attributes are deduplicated at build time
/// (decode registers each schema and rejects duplicates, so a duplicating
/// strategy would only test the error path).
fn registry() -> BoxedStrategy<SchemaRegistry> {
    proptest::collection::vec((name(), proptest::collection::vec(name(), 0..4)), 0..6).prop_map(
        |raw| {
            let mut reg = SchemaRegistry::new();
            let mut seen = BTreeSet::new();
            for (name, attributes) in raw {
                if name.is_empty() || !seen.insert(name.clone()) {
                    continue;
                }
                let attributes: Vec<String> = attributes
                    .into_iter()
                    .filter(|a| !a.is_empty())
                    .collect::<BTreeSet<_>>()
                    .into_iter()
                    .collect();
                let attr_refs: Vec<&str> = attributes.iter().map(String::as_str).collect();
                reg.register_type(&name, &attr_refs).expect("unique names");
            }
            reg
        },
    )
}

fn encode_value(v: &Value) -> Vec<u8> {
    let mut out = Vec::new();
    v.encode(&mut out);
    out
}

fn encode_event(e: &Event) -> Vec<u8> {
    let mut out = Vec::new();
    e.encode(&mut out);
    out
}

// --------------------------------------------------------------- roundtrips

proptest! {
    /// `Value` roundtrips byte-exactly: decoding and re-encoding arbitrary
    /// values (NaN bit patterns and -0.0 included) reproduces the original
    /// buffer and consumes it fully.
    #[test]
    fn value_roundtrips(v in value()) {
        let buf = encode_value(&v);
        let mut r = Reader::new(&buf);
        let got = Value::decode(&mut r).expect("decode of valid encoding");
        prop_assert!(r.is_empty(), "decode left {} bytes unread", r.remaining());
        prop_assert_eq!(encode_value(&got), buf);
    }

    /// `Event` roundtrips byte-exactly, including events whose attribute
    /// arity matches no schema (the codec is schema-agnostic by contract).
    #[test]
    fn event_roundtrips(e in event()) {
        let buf = encode_event(&e);
        let mut r = Reader::new(&buf);
        let got = Event::decode(&mut r).expect("decode of valid encoding");
        prop_assert!(r.is_empty());
        prop_assert_eq!(encode_event(&got), buf);
    }

    /// `Schema` roundtrips field-for-field.
    #[test]
    fn schema_roundtrips(s in schema()) {
        let mut buf = Vec::new();
        s.encode(&mut buf);
        let mut r = Reader::new(&buf);
        let got = Schema::decode(&mut r).expect("decode of valid encoding");
        prop_assert!(r.is_empty());
        prop_assert_eq!(got, s);
    }

    /// `SchemaRegistry` roundtrips with dense ids preserved: every name
    /// resolves to the same `TypeId` before and after.
    #[test]
    fn registry_roundtrips(reg in registry()) {
        let mut buf = Vec::new();
        reg.encode(&mut buf);
        let mut r = Reader::new(&buf);
        let got = SchemaRegistry::decode(&mut r).expect("decode of valid encoding");
        prop_assert!(r.is_empty());
        prop_assert_eq!(got.len(), reg.len());
        for (id, s) in reg.iter() {
            prop_assert_eq!(got.type_id(&s.name).expect("name survives"), id);
            prop_assert_eq!(&got.schema(id).attributes, &s.attributes);
        }
    }
}

// ------------------------------------------------- truncation and corruption

proptest! {
    /// Every strict prefix of a valid `Value` encoding fails with a clean
    /// error: the decoder consumes a fixed span, so a shorter buffer can
    /// never decode successfully — and must never panic.
    #[test]
    fn truncated_value_is_clean_error(v in value(), cut_sel in any::<u64>()) {
        let buf = encode_value(&v);
        let cut = (cut_sel % buf.len() as u64) as usize; // strict prefix
        prop_assert!(Value::decode(&mut Reader::new(&buf[..cut])).is_err());
    }

    /// Every strict prefix of a valid `Event` encoding fails cleanly.
    #[test]
    fn truncated_event_is_clean_error(e in event(), cut_sel in any::<u64>()) {
        let buf = encode_event(&e);
        let cut = (cut_sel % buf.len() as u64) as usize;
        prop_assert!(Event::decode(&mut Reader::new(&buf[..cut])).is_err());
    }

    /// Single-byte corruption anywhere in an `Event` encoding never
    /// panics: it decodes to some event or fails with a `CodecError`. If
    /// it decodes, the result must itself re-encode without panicking.
    #[test]
    fn corrupted_event_never_panics(e in event(), idx_sel in any::<u64>(), flip in 1u8..=255) {
        let mut buf = encode_event(&e);
        let i = (idx_sel % buf.len() as u64) as usize;
        buf[i] ^= flip;
        if let Ok(got) = Event::decode(&mut Reader::new(&buf)) {
            let _ = encode_event(&got);
        }
    }

}

// ---------------------------------------------------- executor snapshot (v9)
//
// A checkpoint is a WAL record (tag 3) whose blob is a version byte and
// the four plane sections. The planes are private to
// `greta_core::executor`, so section by section (`encode` → `decode` →
// `encode`, truncation at every prefix) they are checked beside the code,
// in `executor/snapshot.rs`; here the same properties are held for the
// whole blob through the public API: `recover` is the decoder,
// `checkpoint` the encoder.

mod executor_snapshot {
    use greta_core::{
        EmissionMode, EngineError, ExecutorConfig, LatePolicy, PartitionKey, StreamExecutor,
        StreamRouting,
    };
    use greta_durability::{DurabilityConfig, FsyncPolicy, Wal};
    use greta_query::CompiledQuery;
    use greta_types::{Event, SchemaRegistry, Time, Value};
    use std::path::{Path, PathBuf};

    const Q0: &str = "RETURN grp, COUNT(*) PATTERN M+ WHERE M.load < NEXT(M).load \
                      GROUP-BY grp WITHIN 40 SLIDE 20";
    const Q1: &str = "RETURN grp, COUNT(*) PATTERN M+ GROUP-BY grp WITHIN 30 SLIDE 30";

    fn config(dir: &Path) -> ExecutorConfig {
        let mut durability = DurabilityConfig::new(dir);
        durability.snapshot_every_windows = u64::MAX; // checkpoints on request only
        ExecutorConfig {
            shards: 3,
            slack: 3,
            late_policy: LatePolicy::Drop,
            emission: EmissionMode::WindowOrdered,
            durability: Some(durability),
            ..Default::default()
        }
    }

    /// Run a two-query durable executor until every section of its
    /// checkpoint holds something — buffered reorder events, a dropped late
    /// event, per-shard counts skewed onto one shard, un-polled rows — then
    /// checkpoint and crash. Returns what `recover` needs and the blob.
    fn checkpointed(name: &str) -> (PathBuf, SchemaRegistry, CompiledQuery, Vec<u8>) {
        let dir = std::env::temp_dir().join(format!("greta-codec-{name}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let mut reg = SchemaRegistry::new();
        reg.register_type("M", &["grp", "load"]).unwrap();
        let q0 = CompiledQuery::parse(Q0, &reg).unwrap();
        let routing = StreamRouting::new(&q0, &reg);
        let on_shard_0 =
            |g: &i64| routing.shard_of_group_key(&PartitionKey(vec![Some(Value::Int(*g))]), 3) == 0;
        let hot: Vec<i64> = (0..10_000).filter(on_shard_0).take(3).collect();
        let tid = reg.type_id("M").unwrap();
        let ev = |t: u64, grp: i64| {
            let load = Value::Float(((t * 31) % 17) as f64);
            Event::new_unchecked(tid, Time(t), vec![Value::Int(grp), load])
        };
        let mut exec = StreamExecutor::<u64>::new(q0.clone(), reg.clone(), config(&dir)).unwrap();
        exec.register_query(Q1, EmissionMode::Unordered).unwrap();
        for t in 0..300u64 {
            let cold = t % 10 == 9;
            let grp = if cold {
                100_000 + (t % 29) as i64
            } else {
                hot[(t % 3) as usize]
            };
            exec.push(ev(t, grp)).unwrap();
        }
        exec.push(ev(100, hot[0])).unwrap(); // far behind the slack: dropped
        exec.checkpoint().unwrap();
        let stats = exec.stats();
        assert_eq!(stats.late_dropped, 1);
        assert!(stats.events_per_shard[0] > stats.events_per_shard[1]);
        assert!(stats.pushed - stats.late_dropped > stats.released);
        assert!(stats.queries.iter().all(|q| q.pending_rows > 0));
        drop(exec); // crash
        let blob = last_checkpoint(&dir);
        (dir, reg, q0, blob)
    }

    /// WAL record tag of a checkpoint: the blob follows it.
    const CHECKPOINT: u8 = 3;

    /// The blob of the last checkpoint record in the log at `dir`.
    fn last_checkpoint(dir: &Path) -> Vec<u8> {
        let mut last = None;
        Wal::replay(dir, |_, rec| {
            if rec[0] == CHECKPOINT {
                last = Some(rec[1..].to_vec());
            }
        })
        .unwrap();
        last.expect("a checkpoint record")
    }

    /// Replace the log at `dir` by one holding only a checkpoint record
    /// of `blob`, framed and checksummed afresh.
    fn reframe(dir: &Path, blob: &[u8]) {
        let _ = std::fs::remove_dir_all(dir);
        let mut wal = Wal::open(dir, 4 << 20, FsyncPolicy::AtCheckpoint).unwrap();
        wal.append(&[&[CHECKPOINT], blob].concat()).unwrap();
        wal.sync().unwrap();
    }

    /// Decode the whole blob (`recover`), encode it again at once
    /// (`checkpoint`): nothing was pushed in between, so the second blob is
    /// the first, byte for byte.
    #[test]
    fn decode_then_encode_reproduces_the_blob() {
        let (dir, reg, q0, first) = checkpointed("reencode");
        assert_eq!(first[0], 9, "snapshot format version");
        let mut exec = StreamExecutor::<u64>::recover(q0, reg, config(&dir)).unwrap();
        assert_eq!(exec.stats().late_dropped, 1);
        exec.checkpoint().unwrap();
        drop(exec);
        let second = last_checkpoint(&dir);
        assert_eq!(second, first);
        let _ = std::fs::remove_dir_all(&dir);
    }

    /// A strict prefix of the blob — checksummed afresh, so only the
    /// executor's own decoder can object — is refused with a clean codec
    /// error: never a panic, never a half-restored executor. Each probe
    /// rewrites the log and fsyncs it, so this walks every prefix near
    /// both ends and every 13th in between; `executor/snapshot.rs` walks
    /// them all, section by section.
    #[test]
    fn truncation_is_a_clean_recovery_error() {
        let (dir, reg, q0, blob) = checkpointed("truncate");
        let probed = |cut: &usize| *cut < 64 || blob.len() - cut <= 64 || cut % 13 == 0;
        for cut in (0..blob.len()).filter(probed) {
            reframe(&dir, &blob[..cut]);
            let err = StreamExecutor::<u64>::recover(q0.clone(), reg.clone(), config(&dir))
                .err()
                .unwrap_or_else(|| panic!("recovered from a {cut}-byte prefix"));
            assert!(matches!(err, EngineError::Durability(_)), "@{cut}: {err}");
        }
        // And the untruncated blob still recovers.
        reframe(&dir, &blob);
        let mut exec = StreamExecutor::<u64>::recover(q0, reg, config(&dir)).unwrap();
        exec.finish().unwrap();
        let _ = std::fs::remove_dir_all(&dir);
    }

    /// The previous format is refused by its version byte, whatever
    /// follows it.
    #[test]
    fn a_v8_blob_is_refused_by_version() {
        let (dir, reg, q0, mut blob) = checkpointed("v8");
        blob[0] = 8;
        reframe(&dir, &blob);
        let err = StreamExecutor::<u64>::recover(q0, reg, config(&dir))
            .err()
            .unwrap();
        assert!(
            err.to_string().contains("unsupported snapshot version 8"),
            "{err}"
        );
        let _ = std::fs::remove_dir_all(&dir);
    }
}
