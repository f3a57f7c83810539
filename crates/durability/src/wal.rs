//! Segmented write-ahead log.
//!
//! Records are opaque byte payloads framed as
//! `[len: u32 LE][crc32(payload): u32 LE][payload]` and appended to segment
//! files named `wal-<base>.seg`, where `<base>` is the global index of the
//! segment's first record. A segment is rotated once it exceeds the
//! configured size; rotation fsyncs the finished segment (and the
//! directory), so every record before the live segment is durable. Frames
//! never span segments.
//!
//! Crash anatomy (mirroring the segmented-log layout of LSM stores):
//!
//! * a crash mid-append leaves a **torn tail** — a partial frame at the end
//!   of the *last* segment. [`Wal::open`] repairs it by truncating to the
//!   last whole frame; [`Wal::replay`] stops in front of it.
//! * a frame whose checksum does not match is **corruption**, reported as
//!   [`DurabilityError::BadChecksum`] — never silently skipped. So is a
//!   partial frame anywhere but the end, and a gap between segments.
//!
//! The directory holds segments and nothing else: a `MANIFEST` or
//! `snap-*.bin` file marks the retired snapshot-store layout, which
//! [`Wal::open`] and [`Wal::replay`] refuse as
//! [`DurabilityError::OldLayout`] rather than misread.

use crate::crc::crc32;
use crate::error::{io_err, DurabilityError};
use std::fs::{self, File, OpenOptions};
use std::io::{BufWriter, Write};
use std::path::{Path, PathBuf};
use std::time::{Duration, Instant};

const FRAME_HEADER: usize = 8; // len + crc

/// When appended records are fsynced (the durability/throughput dial).
///
/// Independent of the policy, rotation always fsyncs the sealed segment
/// and [`Wal::sync`] can be called explicitly (checkpoints do).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum FsyncPolicy {
    /// fsync after **every** append: durable up to the last record, at a
    /// large throughput cost.
    EachAppend,
    /// Group commit: an append fsyncs only when at least this many
    /// milliseconds passed since the last sync, so bursts share one fsync.
    /// While appends keep arriving, at most ~one interval of records is
    /// unsynced; if the stream then goes idle, the tail stays buffered
    /// until the next append, checkpoint, or rotation — there is no idle
    /// timer. `GroupCommit(0)` degenerates to [`FsyncPolicy::EachAppend`].
    GroupCommit(u64),
    /// fsync only at segment rotation and explicit [`Wal::sync`] calls
    /// (checkpoints). Loses at most a segment/checkpoint interval of
    /// records on power failure — or on a process kill, since appends
    /// buffer in user space until the next flush. The default.
    #[default]
    AtCheckpoint,
}

/// Upper bound on a single record: [`Wal::append`] refuses a longer one,
/// and a scan treats a longer frame length as corruption.
pub const MAX_RECORD: u32 = 1 << 30;

fn segment_path(dir: &Path, base: u64) -> PathBuf {
    dir.join(format!("wal-{base:020}.seg"))
}

fn parse_segment_base(path: &Path) -> Option<u64> {
    let name = path.file_name()?.to_str()?;
    let base = name.strip_prefix("wal-")?.strip_suffix(".seg")?;
    base.parse().ok()
}

/// A file of the retired layout, which kept checkpoints in
/// `snap-<epoch>.bin` files named by a `MANIFEST`.
fn is_old_layout(path: &Path) -> bool {
    let name = path.file_name().and_then(|n| n.to_str()).unwrap_or("");
    name == "MANIFEST" || (name.starts_with("snap-") && name.ends_with(".bin"))
}

/// Sorted `(base_index, path)` of every segment in `dir`; refuses a
/// directory of the retired layout.
fn list_segments(dir: &Path) -> Result<Vec<(u64, PathBuf)>, DurabilityError> {
    let mut segs = Vec::new();
    for entry in fs::read_dir(dir).map_err(io_err(format!("read dir {}", dir.display())))? {
        let entry = entry.map_err(io_err("read dir entry"))?;
        let path = entry.path();
        if is_old_layout(&path) {
            return Err(DurabilityError::OldLayout { file: path });
        }
        if let Some(base) = parse_segment_base(&path) {
            segs.push((base, path));
        }
    }
    segs.sort_unstable_by_key(|(b, _)| *b);
    Ok(segs)
}

/// Outcome of scanning one segment file.
struct SegmentScan {
    /// Number of whole, checksummed frames.
    records: u64,
    /// Byte offset just past the last whole frame.
    valid_len: u64,
    /// A partial frame follows `valid_len`.
    torn: bool,
}

/// Scan a segment, verifying every frame checksum. `f` is called with each
/// payload. Stops at a torn tail (reported in the result); fails on a bad
/// checksum or an absurd length.
fn scan_segment(path: &Path, mut f: impl FnMut(&[u8])) -> Result<SegmentScan, DurabilityError> {
    let data = fs::read(path).map_err(io_err(format!("read segment {}", path.display())))?;
    let mut rest: &[u8] = &data;
    let mut records = 0u64;
    loop {
        // Byte offset of the frame being examined (frames already
        // consumed have been split off the front of `rest`).
        let pos = data.len() - rest.len();
        let scan = |torn| SegmentScan {
            records,
            valid_len: pos as u64,
            torn,
        };
        if rest.is_empty() {
            return Ok(scan(false));
        }
        let Some((len_bytes, after_len)) = rest.split_first_chunk::<4>() else {
            return Ok(scan(true));
        };
        let Some((crc_bytes, body)) = after_len.split_first_chunk::<4>() else {
            return Ok(scan(true));
        };
        let len = u32::from_le_bytes(*len_bytes);
        let crc = u32::from_le_bytes(*crc_bytes);
        if len > MAX_RECORD {
            return Err(DurabilityError::Corrupt {
                file: path.to_path_buf(),
                msg: format!("frame length {len} at offset {pos} exceeds maximum"),
            });
        }
        let Some((payload, next)) = body.split_at_checked(len as usize) else {
            return Ok(scan(true));
        };
        if crc32(payload) != crc {
            return Err(DurabilityError::BadChecksum {
                file: path.to_path_buf(),
                offset: pos as u64,
            });
        }
        f(payload);
        records += 1;
        rest = next;
    }
}

/// Append handle over a segmented WAL directory.
#[derive(Debug)]
pub struct Wal {
    dir: PathBuf,
    writer: BufWriter<File>,
    /// Base record index of the live segment.
    segment_base: u64,
    /// Bytes written to the live segment.
    segment_len: u64,
    /// Global index the next appended record will get.
    next_index: u64,
    segment_bytes: u64,
    fsync: FsyncPolicy,
    /// Completion time of the last fsync (group-commit bookkeeping).
    last_sync: Instant,
    /// Set after any write/flush failure: the BufWriter may hold a partial
    /// frame, so further appends could corrupt the log mid-segment. All
    /// subsequent writes fail until the WAL is reopened (which truncates
    /// the on-disk tail to the last whole frame).
    poisoned: bool,
    /// The live segment may hold bytes no fsync has covered: records
    /// appended since the last sync, or — until the first sync after
    /// opening — whatever an earlier process left in the page cache.
    unsynced: bool,
    /// fsyncs issued by this handle, segments and directory alike.
    syncs: u64,
    /// Bytes appended by this handle, frame headers included.
    bytes: u64,
}

impl Wal {
    /// Open (or create) the WAL in `dir`. Repairs a torn tail left by a
    /// crash mid-append by truncating the last segment to its last whole
    /// frame. Fails on checksum corruption.
    pub fn open(
        dir: impl Into<PathBuf>,
        segment_bytes: u64,
        fsync: FsyncPolicy,
    ) -> Result<Wal, DurabilityError> {
        let dir = dir.into();
        fs::create_dir_all(&dir).map_err(io_err(format!("create dir {}", dir.display())))?;
        let segs = list_segments(&dir)?;
        let (segment_base, next_index, segment_len, path) = match segs.last() {
            None => (0, 0, 0, segment_path(&dir, 0)),
            Some((base, path)) => {
                let scan = scan_segment(path, |_| {})?;
                if scan.torn {
                    // Crash artifact: drop the partial frame.
                    let f = OpenOptions::new()
                        .write(true)
                        .open(path)
                        .map_err(io_err(format!("open {}", path.display())))?;
                    f.set_len(scan.valid_len)
                        .map_err(io_err(format!("truncate {}", path.display())))?;
                    f.sync_all()
                        .map_err(io_err(format!("fsync {}", path.display())))?;
                }
                (*base, base + scan.records, scan.valid_len, path.clone())
            }
        };
        let file = OpenOptions::new()
            .create(true)
            .append(true)
            .open(&path)
            .map_err(io_err(format!("open segment {}", path.display())))?;
        Ok(Wal {
            dir,
            writer: BufWriter::new(file),
            segment_base,
            segment_len,
            next_index,
            segment_bytes: segment_bytes.max(FRAME_HEADER as u64 + 1),
            fsync,
            last_sync: Instant::now(),
            poisoned: false,
            unsynced: true,
            syncs: 0,
            bytes: 0,
        })
    }

    /// Global index the next appended record will receive.
    pub fn next_index(&self) -> u64 {
        self.next_index
    }

    /// fsyncs this handle has issued (segments and directory).
    pub fn syncs(&self) -> u64 {
        self.syncs
    }

    /// Bytes this handle has appended, frame headers included.
    pub fn bytes(&self) -> u64 {
        self.bytes
    }

    /// Append one record, returning its global index. The record is durable
    /// once the segment rotates, [`sync`](Self::sync) is called, or the
    /// [`FsyncPolicy`] forces a sync (every append, or the group-commit
    /// interval elapsing). A payload longer than [`MAX_RECORD`] is refused
    /// before anything is written, and the log stays usable.
    pub fn append(&mut self, payload: &[u8]) -> Result<u64, DurabilityError> {
        let len = u32::try_from(payload.len())
            .ok()
            .filter(|&len| len <= MAX_RECORD)
            .ok_or(DurabilityError::RecordTooLarge { len: payload.len() })?;
        self.check_poisoned()?;
        let idx = self.next_index;
        self.writer
            .write_all(&len.to_le_bytes())
            .and_then(|_| self.writer.write_all(&crc32(payload).to_le_bytes()))
            .and_then(|_| self.writer.write_all(payload))
            .map_err(|e| {
                self.poisoned = true;
                io_err("append WAL record")(e)
            })?;
        let framed = FRAME_HEADER as u64 + u64::from(len);
        self.unsynced = true;
        self.next_index += 1;
        self.segment_len += framed;
        self.bytes += framed;
        match self.fsync {
            FsyncPolicy::EachAppend => self.sync()?,
            FsyncPolicy::GroupCommit(ms) => {
                if self.last_sync.elapsed() >= Duration::from_millis(ms) {
                    self.sync()?;
                }
            }
            FsyncPolicy::AtCheckpoint => {}
        }
        if self.segment_len >= self.segment_bytes {
            self.rotate()?;
        }
        Ok(idx)
    }

    /// Flush and fsync the live segment; free when nothing was appended
    /// since the last sync (a rotation syncs the segment it seals).
    pub fn sync(&mut self) -> Result<(), DurabilityError> {
        self.check_poisoned()?;
        if !self.unsynced {
            return Ok(());
        }
        self.writer.flush().map_err(|e| {
            self.poisoned = true;
            io_err("flush WAL")(e)
        })?;
        self.writer
            .get_ref()
            .sync_all()
            .map_err(io_err("fsync WAL segment"))?;
        self.unsynced = false;
        self.syncs += 1;
        self.last_sync = Instant::now();
        Ok(())
    }

    fn sync_dir(&mut self) -> Result<(), DurabilityError> {
        File::open(&self.dir)
            .and_then(|d| d.sync_all())
            .map_err(io_err(format!("fsync dir {}", self.dir.display())))?;
        self.syncs += 1;
        Ok(())
    }

    fn check_poisoned(&self) -> Result<(), DurabilityError> {
        if self.poisoned {
            return Err(DurabilityError::Poisoned(format!(
                "an earlier write to {} failed; reopen the WAL to repair and continue",
                self.dir.display()
            )));
        }
        Ok(())
    }

    /// Seal the live segment (fsync) and start a new one.
    fn rotate(&mut self) -> Result<(), DurabilityError> {
        self.sync()?;
        self.segment_base = self.next_index;
        self.segment_len = 0;
        let path = segment_path(&self.dir, self.segment_base);
        let file = OpenOptions::new()
            .create(true)
            .append(true)
            .open(&path)
            .map_err(io_err(format!("open segment {}", path.display())))?;
        self.writer = BufWriter::new(file);
        self.sync_dir()
    }

    /// Delete every sealed segment whose records all have index < `index`
    /// (they are covered by the checkpoint record at `index`). The live
    /// segment always survives.
    pub fn truncate_segments_before(&mut self, index: u64) -> Result<usize, DurabilityError> {
        self.writer.flush().map_err(io_err("flush WAL"))?;
        let segs = list_segments(&self.dir)?;
        let mut removed = 0;
        for w in segs.windows(2) {
            let [(base, path), (next_base, _)] = w else {
                continue;
            };
            // Segment covers [base, next_base).
            if *next_base <= index && *base < self.segment_base {
                fs::remove_file(path)
                    .map_err(io_err(format!("remove segment {}", path.display())))?;
                removed += 1;
            }
        }
        if removed > 0 {
            self.sync_dir()?;
        }
        Ok(removed)
    }

    /// Visit every record from the oldest segment on, in order, calling
    /// `f(index, payload)` for each. Returns the index one past the last
    /// record (the oldest segment's base when there is none). A partial
    /// final frame — a crash mid-append — ends the log; a partial frame
    /// anywhere else, a bad checksum or a gap between segments is an error.
    pub fn replay(
        dir: impl AsRef<Path>,
        mut f: impl FnMut(u64, &[u8]),
    ) -> Result<u64, DurabilityError> {
        let segs = list_segments(dir.as_ref())?;
        let mut idx = segs.first().map_or(0, |(base, _)| *base);
        for (si, (base, path)) in segs.iter().enumerate() {
            if *base != idx {
                return Err(DurabilityError::Corrupt {
                    file: path.clone(),
                    msg: format!("segment gap: expected base {idx}, found {base}"),
                });
            }
            let scan = scan_segment(path, |payload| {
                f(idx, payload);
                idx += 1;
            })?;
            if scan.torn && si + 1 != segs.len() {
                return Err(DurabilityError::TruncatedFrame {
                    file: path.clone(),
                    offset: scan.valid_len,
                });
            }
        }
        Ok(idx)
    }
}

impl Drop for Wal {
    fn drop(&mut self) {
        let _ = self.writer.flush();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tmpdir(name: &str) -> PathBuf {
        let d = std::env::temp_dir().join(format!("greta-wal-{name}-{}", std::process::id()));
        let _ = fs::remove_dir_all(&d);
        d
    }

    fn collect(dir: &Path) -> Result<Vec<(u64, Vec<u8>)>, DurabilityError> {
        let mut out = Vec::new();
        Wal::replay(dir, |i, p| out.push((i, p.to_vec())))?;
        Ok(out)
    }

    #[test]
    fn append_replay_roundtrip() {
        let dir = tmpdir("roundtrip");
        let mut wal = Wal::open(&dir, 1 << 20, FsyncPolicy::AtCheckpoint).unwrap();
        for i in 0..100u64 {
            let idx = wal.append(format!("rec-{i}").as_bytes()).unwrap();
            assert_eq!(idx, i);
        }
        wal.sync().unwrap();
        let recs = collect(&dir).unwrap();
        assert_eq!(recs.len(), 100);
        assert_eq!(recs[42], (42, b"rec-42".to_vec()));
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn rotation_creates_segments_and_reopen_continues_indices() {
        let dir = tmpdir("rotate");
        {
            let mut wal = Wal::open(&dir, 64, FsyncPolicy::AtCheckpoint).unwrap(); // tiny segments
            for i in 0..50u64 {
                wal.append(format!("payload-{i:04}").as_bytes()).unwrap();
            }
        }
        let segs = list_segments(&dir).unwrap();
        assert!(
            segs.len() > 1,
            "expected rotation, got {} segment(s)",
            segs.len()
        );
        // Reopen continues where it left off.
        let mut wal = Wal::open(&dir, 64, FsyncPolicy::AtCheckpoint).unwrap();
        assert_eq!(wal.next_index(), 50);
        wal.append(b"after-reopen").unwrap();
        wal.sync().unwrap();
        let recs = collect(&dir).unwrap();
        assert_eq!(recs.len(), 51);
        assert_eq!(recs[50].1, b"after-reopen");
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn a_torn_final_frame_ends_the_log_and_reopen_repairs_it() {
        let dir = tmpdir("torn");
        {
            let mut wal = Wal::open(&dir, 1 << 20, FsyncPolicy::AtCheckpoint).unwrap();
            for i in 0..10u64 {
                wal.append(format!("rec-{i}").as_bytes()).unwrap();
            }
            wal.sync().unwrap();
        }
        // Chop bytes off the tail: a torn frame.
        let (_, path) = list_segments(&dir).unwrap().pop().unwrap();
        let len = fs::metadata(&path).unwrap().len();
        let f = OpenOptions::new().write(true).open(&path).unwrap();
        f.set_len(len - 3).unwrap();
        drop(f);
        // The whole frames before the tear replay fine.
        let recs = collect(&dir).unwrap();
        assert_eq!(recs.len(), 9);
        // Reopen repairs the tail and appends continue at the right index.
        let mut wal = Wal::open(&dir, 1 << 20, FsyncPolicy::AtCheckpoint).unwrap();
        assert_eq!(wal.next_index(), 9);
        wal.append(b"after-repair").unwrap();
        wal.sync().unwrap();
        let recs = collect(&dir).unwrap();
        assert_eq!(recs.len(), 10);
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn bad_checksum_is_a_clean_error_everywhere() {
        let dir = tmpdir("crc");
        {
            let mut wal = Wal::open(&dir, 1 << 20, FsyncPolicy::AtCheckpoint).unwrap();
            for i in 0..5u64 {
                wal.append(format!("rec-{i}").as_bytes()).unwrap();
            }
            wal.sync().unwrap();
        }
        let (_, path) = list_segments(&dir).unwrap().pop().unwrap();
        // Flip one payload byte of the second record.
        let mut data = fs::read(&path).unwrap();
        let second = (FRAME_HEADER + 5) + FRAME_HEADER + 2;
        data[second] ^= 0xFF;
        fs::write(&path, &data).unwrap();
        let err = collect(&dir).unwrap_err();
        assert!(matches!(err, DurabilityError::BadChecksum { .. }), "{err}");
        // Opening for append also refuses.
        assert!(Wal::open(&dir, 1 << 20, FsyncPolicy::AtCheckpoint).is_err());
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn group_commit_zero_syncs_every_append() {
        // GroupCommit(0): the interval has always elapsed, so every append
        // flushes + fsyncs — records are replayable with no explicit sync.
        let dir = tmpdir("group-commit");
        let mut wal = Wal::open(&dir, 1 << 20, FsyncPolicy::GroupCommit(0)).unwrap();
        for i in 0..5u64 {
            wal.append(format!("rec-{i}").as_bytes()).unwrap();
        }
        // No wal.sync(), no drop: the frames must already be on disk.
        let recs = collect(&dir).unwrap();
        assert_eq!(recs.len(), 5);
        drop(wal);
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn group_commit_long_interval_defers_to_checkpoint_sync() {
        // A very long interval behaves like AtCheckpoint until sync().
        let dir = tmpdir("group-commit-long");
        let mut wal = Wal::open(&dir, 1 << 20, FsyncPolicy::GroupCommit(3_600_000)).unwrap();
        for i in 0..5u64 {
            wal.append(format!("rec-{i}").as_bytes()).unwrap();
        }
        // Records may still sit in the BufWriter; an explicit sync (what a
        // checkpoint does) makes them all replayable.
        wal.sync().unwrap();
        let recs = collect(&dir).unwrap();
        assert_eq!(recs.len(), 5);
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn each_append_policy_is_durable_per_record() {
        let dir = tmpdir("each-append");
        let mut wal = Wal::open(&dir, 1 << 20, FsyncPolicy::EachAppend).unwrap();
        wal.append(b"one").unwrap();
        let recs = collect(&dir).unwrap();
        assert_eq!(recs.len(), 1);
        drop(wal);
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn truncate_segments_before_keeps_needed_tail() {
        let dir = tmpdir("truncate");
        let mut wal = Wal::open(&dir, 64, FsyncPolicy::AtCheckpoint).unwrap();
        for i in 0..60u64 {
            wal.append(format!("payload-{i:04}").as_bytes()).unwrap();
        }
        wal.sync().unwrap();
        let before = list_segments(&dir).unwrap().len();
        let removed = wal.truncate_segments_before(30).unwrap();
        assert!(removed > 0);
        assert_eq!(list_segments(&dir).unwrap().len(), before - removed);
        // Replay starts at the oldest surviving record, at or below 30,
        // and still reaches the last one.
        let recs = collect(&dir).unwrap();
        assert!(recs[0].0 > 0 && recs[0].0 <= 30, "{}", recs[0].0);
        assert_eq!(recs.last().unwrap().0, 59);
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn a_torn_frame_before_the_last_segment_is_an_error() {
        let dir = tmpdir("torn-sealed");
        {
            let mut wal = Wal::open(&dir, 64, FsyncPolicy::AtCheckpoint).unwrap();
            for i in 0..20u64 {
                wal.append(format!("payload-{i:04}").as_bytes()).unwrap();
            }
        }
        let (_, path) = list_segments(&dir).unwrap().remove(0);
        let len = fs::metadata(&path).unwrap().len();
        OpenOptions::new()
            .write(true)
            .open(&path)
            .unwrap()
            .set_len(len - 3)
            .unwrap();
        let err = collect(&dir).unwrap_err();
        assert!(
            matches!(err, DurabilityError::TruncatedFrame { .. }),
            "{err}"
        );
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn an_oversized_record_is_refused_before_anything_is_written() {
        let dir = tmpdir("oversized");
        let mut wal = Wal::open(&dir, 1 << 20, FsyncPolicy::AtCheckpoint).unwrap();
        wal.append(b"before").unwrap();
        wal.sync().unwrap();
        let (_, path) = list_segments(&dir).unwrap().pop().unwrap();
        let len = fs::metadata(&path).unwrap().len();
        // Zero-allocated and never touched: no resident memory.
        let huge = vec![0u8; MAX_RECORD as usize + 1];
        let err = wal.append(&huge).unwrap_err();
        assert!(
            matches!(err, DurabilityError::RecordTooLarge { len } if len == huge.len()),
            "{err}"
        );
        drop(huge);
        wal.sync().unwrap();
        assert_eq!(fs::metadata(&path).unwrap().len(), len);
        assert_eq!(wal.bytes(), (FRAME_HEADER + 6) as u64);
        // Not poisoned: the log still appends and replays.
        assert_eq!(wal.append(b"after").unwrap(), 1);
        wal.sync().unwrap();
        let recs = collect(&dir).unwrap();
        assert_eq!(recs, vec![(0, b"before".to_vec()), (1, b"after".to_vec())]);
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn syncs_and_bytes_are_counted() {
        let dir = tmpdir("counters");
        let mut wal = Wal::open(&dir, 1 << 20, FsyncPolicy::AtCheckpoint).unwrap();
        wal.append(b"one").unwrap();
        wal.append(b"three").unwrap();
        assert_eq!(
            (wal.syncs(), wal.bytes()),
            (0, (2 * FRAME_HEADER + 8) as u64)
        );
        wal.sync().unwrap();
        assert_eq!(wal.syncs(), 1);
        // Nothing new since: no second fsync.
        wal.sync().unwrap();
        assert_eq!(wal.syncs(), 1);
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn a_directory_of_the_old_layout_is_refused() {
        for name in ["MANIFEST", "snap-00000000000000000001.bin"] {
            let dir = tmpdir("old-layout");
            Wal::open(&dir, 1 << 20, FsyncPolicy::AtCheckpoint).unwrap();
            fs::write(dir.join(name), b"x").unwrap();
            let err = Wal::open(&dir, 1 << 20, FsyncPolicy::AtCheckpoint).unwrap_err();
            assert!(matches!(err, DurabilityError::OldLayout { .. }), "{err}");
            let err = collect(&dir).unwrap_err();
            assert!(matches!(err, DurabilityError::OldLayout { .. }), "{err}");
            let _ = fs::remove_dir_all(&dir);
        }
    }
}
