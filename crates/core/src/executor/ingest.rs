//! Plane 1 — ingest, paid once per event however many queries consume it:
//! the write-ahead log (and the snapshot store it is truncated against),
//! the reorder buffer, and the late-event policy with its ledgers.

use super::{Cadence, EmissionMode, ExecutorConfig, ExecutorStats, LatePolicy, WindowLateCounts};
use crate::reorder::ReorderBuffer;
use crate::state::{decode_events, encode_events};
use crate::window::WindowId;
use crate::EngineError;
use greta_durability::{DurabilityConfig, Manifest, SnapshotStore, TailPolicy, Wal};
use greta_types::codec::{put_str, put_u32, put_u64, Reader};
use greta_types::{CodecError, Event, EventRef, Time};
use std::collections::BTreeMap;

/// WAL record tags (first byte of every record). Replay dispatches on
/// them; an event record is the tag followed by the plain event encoding.
const WAL_EVENT: u8 = 0;
/// `[tag, u32 query id, u8 emission, str query text]`.
const WAL_REGISTER: u8 = 1;
/// `[tag, u32 query id]`.
const WAL_DEREGISTER: u8 = 2;

/// One WAL record, over however it holds an event (`E`) and a query's
/// text (`S`).
pub(super) enum TailRecord<E, S> {
    Event(E),
    Register {
        id: u32,
        emission: EmissionMode,
        text: S,
    },
    Deregister(u32),
}

/// A decoded record owns its payload.
pub(super) type TailRec = TailRecord<EventRef, String>;
/// WAL appends encode from live references.
pub(super) type TailRecRef<'a> = TailRecord<&'a Event, &'a str>;

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
        t => Err(CodecError(format!("bad WAL record tag {t}"))),
    }
}

/// The open durability directory: WAL + snapshot store + which snapshot
/// is live.
pub(super) struct Log {
    config: DurabilityConfig,
    wal: Wal,
    snapshots: SnapshotStore,
    /// Epoch of the last written snapshot (0 = none yet).
    epoch: u64,
    /// Reused WAL-record encode buffer.
    record_buf: Vec<u8>,
}

impl Log {
    /// Open the directory (repairing a torn WAL tail). Also returns the
    /// manifest of the live checkpoint, `None` when there is none yet.
    pub(super) fn open(dcfg: &DurabilityConfig) -> Result<(Self, Option<Manifest>), EngineError> {
        let manifest = Manifest::load(&dcfg.dir)?;
        let log = Log {
            config: dcfg.clone(),
            wal: Wal::open(&dcfg.dir, dcfg.segment_bytes, dcfg.fsync)?,
            snapshots: SnapshotStore::open(&dcfg.dir)?,
            epoch: manifest.as_ref().map_or(0, |m| m.epoch),
            record_buf: Vec::new(),
        };
        Ok((log, manifest))
    }

    /// No record was ever appended here.
    pub(super) fn is_empty(&self) -> bool {
        self.wal.next_index() == 0
    }

    /// The blob of the live checkpoint `manifest` names.
    pub(super) fn read_snapshot(&self, manifest: &Manifest) -> Result<Vec<u8>, EngineError> {
        Ok(self.snapshots.read(manifest.epoch)?)
    }

    /// Decode every WAL record from index `from` on.
    pub(super) fn read_tail(&self, from: u64) -> Result<Vec<TailRec>, EngineError> {
        let mut tail = Vec::new();
        Wal::replay(
            &self.config.dir,
            from,
            TailPolicy::Tolerate,
            |_, payload| tail.push(decode_tail_record(payload)),
        )?;
        Ok(tail.into_iter().collect::<Result<_, _>>()?)
    }
}

/// The ingest plane. See the [module docs](self).
#[derive(Default)]
pub(super) struct Ingest {
    reorder: ReorderBuffer,
    late_policy: LatePolicy,
    /// Late drop/divert counts keyed by the event's latest window
    /// (`⌊t / late_slide⌋`); the executor-wide totals are their sums.
    late_windows: BTreeMap<WindowId, WindowLateCounts>,
    /// Slide of id 0, the query whose windows bucket the late ledger.
    late_slide: u64,
    diverted: Vec<EventRef>,
    /// Reused scratch for reorder-buffer releases (no per-event alloc).
    released: Vec<EventRef>,
    log: Option<Log>,
    /// Checkpoint cadence, in closed windows of id 0; never due without
    /// a log.
    pub(super) checkpoint_every: Cadence,
    pushed: u64,
    checkpoints: u64,
}

impl Ingest {
    /// An empty ingest plane, not logging; `late_slide` is id 0's slide.
    pub(super) fn new(config: &ExecutorConfig, late_slide: u64) -> Self {
        Ingest {
            reorder: ReorderBuffer::new(config.slack),
            late_policy: config.late_policy,
            late_slide: late_slide.max(1),
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

    /// Records appended to the WAL so far; `None` without a log.
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
            let window = late.time.ticks() / self.late_slide;
            let row = WindowLateCounts {
                window,
                ..Default::default()
            };
            match self.late_policy {
                LatePolicy::Drop => self.late_windows.entry(window).or_insert(row).dropped += 1,
                LatePolicy::Divert => {
                    self.late_windows.entry(window).or_insert(row).diverted += 1;
                    self.diverted.push(late);
                }
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

    /// End of stream: everything still buffered, in order.
    pub(super) fn flush(&mut self) -> Vec<EventRef> {
        self.reorder.flush()
    }

    /// Highest time stamp released so far.
    pub(super) fn watermark(&self) -> Option<Time> {
        self.reorder.watermark()
    }

    /// Take the events diverted under [`LatePolicy::Divert`] so far.
    pub(super) fn take_diverted(&mut self) -> Vec<EventRef> {
        std::mem::take(&mut self.diverted)
    }

    /// Write and commit `blob` as the next checkpoint: fsync the WAL,
    /// write the blob, advance the manifest, drop WAL segments and
    /// snapshots it made obsolete. The manifest records the WAL's next
    /// record index (events *and* registry records), so replay resumes
    /// exactly past the records the snapshot covers.
    pub(super) fn persist(&mut self, blob: &[u8], shards: usize) -> Result<(), EngineError> {
        let l = self.log.as_mut().expect("durability configured");
        // Order matters: WAL records covered by the manifest must be
        // durable before the manifest points past them.
        l.wal.sync()?;
        let wal_index = l.wal.next_index();
        l.epoch += 1;
        l.snapshots.write(l.epoch, blob)?;
        Manifest {
            epoch: l.epoch,
            wal_index,
            shards: shards as u32,
        }
        .store(&l.config.dir)?;
        l.wal.truncate_segments_before(wal_index)?;
        l.snapshots.purge_before(l.epoch)?;
        self.checkpoints += 1;
        Ok(())
    }

    /// This plane's snapshot section: the result-shaping knobs (recovery
    /// under different values would silently diverge from the original
    /// run, so they are recorded and checked), the counters, the late
    /// ledger (v6 also stored its two sums), the reorder buffer and the
    /// diverted events.
    pub(super) fn encode(&self, out: &mut Vec<u8>) {
        put_u64(out, self.reorder.slack());
        out.push(self.late_policy.tag());
        put_u64(out, self.pushed);
        put_u64(out, self.checkpoints);
        put_u32(out, self.late_windows.len() as u32);
        for c in self.late_windows.values() {
            put_u64(out, c.window);
            put_u64(out, c.dropped);
            put_u64(out, c.diverted);
        }
        self.reorder.export_state(out);
        encode_events(self.diverted.iter(), out);
    }

    /// Inverse of [`encode`](Self::encode). Refuses a `config` whose
    /// slack or late policy differ from the checkpointed run's —
    /// recovering under different values would silently break the
    /// byte-identical-replay guarantee.
    pub(super) fn decode(
        r: &mut Reader<'_>,
        config: &ExecutorConfig,
        late_slide: u64,
    ) -> Result<Self, EngineError> {
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
        let mut ingest = Ingest::new(config, late_slide);
        ingest.pushed = r.u64()?;
        ingest.checkpoints = r.u64()?;
        for _ in 0..r.seq_len(24)? {
            let counts = WindowLateCounts {
                window: r.u64()?,
                dropped: r.u64()?,
                diverted: r.u64()?,
            };
            ingest.late_windows.insert(counts.window, counts);
        }
        ingest.reorder = ReorderBuffer::import_state(slack, r)?;
        ingest.diverted = decode_events(r)?;
        Ok(ingest)
    }

    /// Fill in the counters this plane owns.
    pub(super) fn fill_stats(&self, s: &mut ExecutorStats) {
        s.pushed = self.pushed;
        s.checkpoints = self.checkpoints;
        s.late_by_window = self.late_windows.values().copied().collect();
        s.late_dropped = s.late_by_window.iter().map(|c| c.dropped).sum();
        s.late_diverted = s.late_by_window.iter().map(|c| c.diverted).sum();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use greta_types::{TypeId, Value};

    #[test]
    fn tail_records_round_trip() {
        // One buffer for all three: encoding clears what is already there.
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
    }

    #[test]
    fn an_unknown_tail_record_tag_is_a_codec_error() {
        let mut buf = Vec::new();
        encode_tail_record(&mut buf, TailRecord::Deregister(5));
        buf[0] = WAL_DEREGISTER + 1;
        let err = decode_tail_record(&buf).map(|_| ()).unwrap_err();
        let tag = WAL_DEREGISTER + 1;
        assert_eq!(err, CodecError(format!("bad WAL record tag {tag}")));
    }
}
