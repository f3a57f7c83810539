//! Plane 1 — ingest, paid once per event however many queries consume it:
//! the write-ahead log (which holds the checkpoints too), the reorder
//! buffer, and the late-event policy with its counter.

use super::{Cadence, EmissionMode, ExecutorConfig, ExecutorStats, LatePolicy};
use crate::reorder::ReorderBuffer;
use crate::EngineError;
use greta_durability::{DurabilityConfig, DurabilityError, FsyncPolicy, Wal};
use greta_types::codec::{put_str, put_u32, put_u64, Reader};
use greta_types::{CodecError, Event, EventRef, Time};

/// WAL record tags (first byte of every record). Replay dispatches on
/// them; an event record is the tag followed by the plain event encoding.
const WAL_EVENT: u8 = 0;
/// `[tag, u32 query id, u8 emission, str query text]`.
const WAL_REGISTER: u8 = 1;
/// `[tag, u32 query id]`.
const WAL_DEREGISTER: u8 = 2;
/// `[tag, snapshot blob]`: the executor's state as of this record's
/// position in the log (see `snapshot.rs`).
const WAL_CHECKPOINT: u8 = 3;

/// One WAL record, over however it holds an event (`E`), a query's text
/// (`S`) and a checkpoint blob (`B`).
pub(super) enum TailRecord<E, S, B> {
    Event(E),
    Register {
        id: u32,
        emission: EmissionMode,
        text: S,
    },
    Deregister(u32),
    Checkpoint(B),
}

/// A decoded record owns its payload.
pub(super) type TailRec = TailRecord<EventRef, String, Vec<u8>>;
/// WAL appends encode from live references.
pub(super) type TailRecRef<'a> = TailRecord<&'a Event, &'a str, &'a [u8]>;

/// Encode one WAL record into `buf` (cleared first). Symmetric with
/// [`decode_tail_record`]: same tag dispatch, same field order.
fn encode_tail_record(buf: &mut Vec<u8>, rec: TailRecRef<'_>) {
    buf.clear();
    match rec {
        TailRecRef::Event(e) => {
            buf.push(WAL_EVENT);
            e.encode(buf);
        }
        TailRecRef::Register { id, emission, text } => {
            buf.push(WAL_REGISTER);
            put_u32(buf, id);
            buf.push(emission.tag());
            put_str(buf, text);
        }
        TailRecRef::Deregister(id) => {
            buf.push(WAL_DEREGISTER);
            put_u32(buf, id);
        }
        TailRecRef::Checkpoint(blob) => {
            buf.push(WAL_CHECKPOINT);
            buf.extend_from_slice(blob);
        }
    }
}

fn decode_tail_record(payload: &[u8]) -> Result<TailRec, CodecError> {
    let r = &mut Reader::new(payload);
    match r.u8()? {
        WAL_EVENT => Ok(TailRec::Event(Event::decode(r)?.into_ref())),
        WAL_REGISTER => {
            let id = r.u32()?;
            let emission = EmissionMode::from_tag(r.u8()?)?;
            let text = r.str()?.to_string();
            Ok(TailRec::Register { id, emission, text })
        }
        WAL_DEREGISTER => Ok(TailRec::Deregister(r.u32()?)),
        // The blob is the rest of the record: its own decoder checks it.
        WAL_CHECKPOINT => Ok(TailRec::Checkpoint(payload[1..].to_vec())),
        t => Err(CodecError(format!("bad WAL record tag {t}"))),
    }
}

/// The open durability directory: one WAL, checkpoints included.
pub(super) struct Log {
    config: DurabilityConfig,
    wal: Wal,
    /// Payload size of the latest checkpoint record, read or appended.
    checkpoint_bytes: u64,
    /// Reused WAL-record encode buffer.
    record_buf: Vec<u8>,
}

impl Log {
    /// Open the directory (repairing a torn WAL tail).
    pub(super) fn open(dcfg: &DurabilityConfig) -> Result<Self, EngineError> {
        Ok(Log {
            config: dcfg.clone(),
            wal: Wal::open(&dcfg.dir, dcfg.segment_bytes, FsyncPolicy::AtCheckpoint)?,
            checkpoint_bytes: 0,
            record_buf: Vec::new(),
        })
    }

    /// No record was ever appended here.
    pub(super) fn is_empty(&self) -> bool {
        self.wal.next_index() == 0
    }

    /// One pass over the log: the blob of the last checkpoint record
    /// (`None` before the first) and the records after it, decoded. A log
    /// that no longer reaches back to record 0 must hold a checkpoint.
    pub(super) fn read(&mut self) -> Result<(Option<Vec<u8>>, Vec<TailRec>), EngineError> {
        let (mut oldest, mut checkpoint, mut tail) = (None, None, Vec::new());
        let end = Wal::replay(&self.config.dir, |index, payload| {
            oldest.get_or_insert(index);
            match decode_tail_record(payload) {
                Ok(TailRec::Checkpoint(blob)) => {
                    checkpoint = Some(blob);
                    tail.clear();
                }
                rec => tail.push(rec),
            }
        })?;
        let oldest = oldest.unwrap_or(end);
        if checkpoint.is_none() && oldest > 0 {
            return Err(DurabilityError::NothingToRecover(format!(
                "the WAL starts at record {oldest} and holds no checkpoint"
            ))
            .into());
        }
        self.checkpoint_bytes = checkpoint.as_ref().map_or(0, |b| 1 + b.len() as u64);
        Ok((checkpoint, tail.into_iter().collect::<Result<_, _>>()?))
    }
}

/// The ingest plane. See the [module docs](self).
#[derive(Default)]
pub(super) struct Ingest {
    reorder: ReorderBuffer,
    late_policy: LatePolicy,
    /// Reused scratch for reorder-buffer releases (no per-event alloc).
    released: Vec<EventRef>,
    log: Option<Log>,
    /// Checkpoint cadence, in closed windows of id 0; never due without
    /// a log.
    pub(super) checkpoint_every: Cadence,
    pushed: u64,
    checkpoints: u64,
    /// Events later than the slack, dropped under [`LatePolicy::Drop`].
    late_dropped: u64,
}

impl Ingest {
    /// An empty ingest plane, not logging.
    pub(super) fn new(config: &ExecutorConfig) -> Self {
        Ingest {
            reorder: ReorderBuffer::new(config.slack),
            late_policy: config.late_policy,
            ..Default::default()
        }
    }

    /// Log to `log` from now on, checkpointing at its configured cadence.
    pub(super) fn attach_log(&mut self, log: Log) {
        self.checkpoint_every = Cadence::new(Some(log.config.snapshot_every_windows));
        self.log = Some(log);
    }

    /// Whether a log is open.
    pub(super) fn durable(&self) -> bool {
        self.log.is_some()
    }

    /// Records appended to the WAL so far, checkpoint records included;
    /// `None` without a log.
    pub(super) fn durable_index(&self) -> Option<u64> {
        self.log.as_ref().map(|l| l.wal.next_index())
    }

    /// Flush and fsync the WAL; the durable record index afterwards.
    pub(super) fn sync_wal(&mut self) -> Result<Option<u64>, EngineError> {
        let Some(l) = &mut self.log else {
            return Ok(None);
        };
        l.wal.sync()?;
        Ok(Some(l.wal.next_index()))
    }

    /// Append one record to the WAL (a no-op without a log).
    pub(super) fn log(&mut self, rec: TailRecRef<'_>) -> Result<(), EngineError> {
        if let Some(l) = &mut self.log {
            encode_tail_record(&mut l.record_buf, rec);
            l.wal.append(&l.record_buf)?;
        }
        Ok(())
    }

    /// Offer one event to the reorder buffer and return what it released,
    /// in order (nothing, for a buffered or late event). An event later
    /// than the slack goes to the [`LatePolicy`].
    pub(super) fn admit(&mut self, e: EventRef) -> Result<&[EventRef], EngineError> {
        self.pushed += 1;
        self.released.clear();
        if let Err(late) = self.reorder.push_into(e, &mut self.released) {
            match self.late_policy {
                LatePolicy::Drop => self.late_dropped += 1,
                LatePolicy::Error => {
                    return Err(EngineError::Late {
                        slack: self.reorder.slack(),
                        watermark: self.reorder.watermark().map(Time::ticks).unwrap_or(0),
                        got: late.time.ticks(),
                    })
                }
            }
        }
        Ok(&self.released)
    }

    /// End of stream: everything still buffered, in order. The scratch
    /// of the last release lets go of its events too.
    pub(super) fn flush(&mut self) -> Vec<EventRef> {
        self.released.clear();
        self.reorder.flush()
    }

    /// Highest time stamp released so far.
    pub(super) fn watermark(&self) -> Option<Time> {
        self.reorder.watermark()
    }

    /// Append `blob` as the next checkpoint record and make it durable.
    /// Its position in the log is where replay resumes, so segments wholly
    /// before it are obsolete and go.
    pub(super) fn persist(&mut self, blob: &[u8]) -> Result<(), EngineError> {
        let l = self.log.as_mut().expect("durability configured");
        let mut record = Vec::with_capacity(1 + blob.len());
        encode_tail_record(&mut record, TailRecRef::Checkpoint(blob));
        let index = l.wal.append(&record)?;
        l.wal.sync()?;
        l.wal.truncate_segments_before(index)?;
        l.checkpoint_bytes = record.len() as u64;
        self.checkpoints += 1;
        Ok(())
    }

    /// This plane's snapshot section: the result-shaping knobs (recovery
    /// under different values would silently diverge from the original
    /// run, so they are recorded and checked), the counters, then the
    /// reorder buffer.
    pub(super) fn encode(&self, out: &mut Vec<u8>) {
        put_u64(out, self.reorder.slack());
        out.push(self.late_policy.tag());
        put_u64(out, self.pushed);
        put_u64(out, self.checkpoints);
        put_u64(out, self.late_dropped);
        self.reorder.export_state(out);
    }

    /// Inverse of [`encode`](Self::encode). Refuses a `config` whose
    /// slack or late policy differ from the checkpointed run's —
    /// recovering under different values would silently break the
    /// byte-identical-replay guarantee.
    pub(super) fn decode(r: &mut Reader<'_>, config: &ExecutorConfig) -> Result<Self, EngineError> {
        let slack = r.u64()?;
        if slack != config.slack {
            return Err(EngineError::Config(format!(
                "slack mismatch: checkpoint was taken with slack {slack}, \
                 config asks for {}",
                config.slack
            )));
        }
        let late_policy = LatePolicy::from_tag(r.u8()?)?;
        if late_policy != config.late_policy {
            return Err(EngineError::Config(format!(
                "late-policy mismatch: checkpoint was taken with {late_policy:?}, \
                 config asks for {:?}",
                config.late_policy
            )));
        }
        let mut ingest = Ingest::new(config);
        ingest.pushed = r.u64()?;
        ingest.checkpoints = r.u64()?;
        ingest.late_dropped = r.u64()?;
        ingest.reorder = ReorderBuffer::import_state(slack, r)?;
        Ok(ingest)
    }

    /// Fill in the counters this plane owns.
    pub(super) fn fill_stats(&self, s: &mut ExecutorStats) {
        s.pushed = self.pushed;
        s.checkpoints = self.checkpoints;
        s.late_dropped = self.late_dropped;
        if let Some(l) = &self.log {
            s.wal_syncs = l.wal.syncs();
            s.wal_bytes = l.wal.bytes();
            s.checkpoint_bytes = l.checkpoint_bytes;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use greta_types::{TypeId, Value};

    #[test]
    fn tail_records_round_trip() {
        // One buffer for all four: encoding clears what is already there.
        let mut buf = Vec::new();
        let mut roundtrip = |rec: TailRecRef<'_>| {
            encode_tail_record(&mut buf, rec);
            decode_tail_record(&buf).unwrap()
        };
        let e = Event::new_unchecked(TypeId(3), Time(42), vec![Value::Int(-7), Value::Float(2.5)]);
        let decoded = roundtrip(TailRecord::Event(&e));
        assert!(matches!(decoded, TailRecord::Event(d) if *d == e));
        let text = "RETURN COUNT(*) PATTERN A+ WITHIN 10 SLIDE 10";
        let emission = EmissionMode::WindowOrdered;
        let decoded = roundtrip(TailRecord::Register {
            id: 9,
            emission,
            text,
        });
        assert!(matches!(
            decoded,
            TailRecord::Register { id: 9, emission: m, text: t } if m == emission && t == text
        ));
        let decoded = roundtrip(TailRecord::Deregister(5));
        assert!(matches!(decoded, TailRecord::Deregister(5)));
        let blob = [9u8, 0, 1, 2];
        let decoded = roundtrip(TailRecord::Checkpoint(&blob));
        assert!(matches!(decoded, TailRecord::Checkpoint(b) if b == blob));
    }

    #[test]
    fn an_unknown_tail_record_tag_is_a_codec_error() {
        let mut buf = Vec::new();
        encode_tail_record(&mut buf, TailRecord::Deregister(5));
        buf[0] = WAL_CHECKPOINT + 1;
        let err = decode_tail_record(&buf).map(|_| ()).unwrap_err();
        let tag = WAL_CHECKPOINT + 1;
        assert_eq!(err, CodecError(format!("bad WAL record tag {tag}")));
    }
}
