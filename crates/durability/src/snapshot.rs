//! Snapshot store: one checksummed, atomically-written file per epoch.
//!
//! Files are named `snap-<epoch>.bin` and written via temp-file + fsync +
//! rename (+ directory fsync), so a crash mid-write never leaves a readable
//! half-snapshot — either the old epoch or the new one is present, which is
//! what lets the manifest point at snapshots unconditionally.

use crate::crc::crc32;
use crate::error::{io_err, DurabilityError};
use std::fs::{self, File};
use std::io::Write;
use std::path::{Path, PathBuf};

const MAGIC: &[u8; 4] = b"GSNP";
const VERSION: u8 = 1;

fn snapshot_path(dir: &Path, epoch: u64) -> PathBuf {
    dir.join(format!("snap-{epoch:020}.bin"))
}

fn parse_epoch(path: &Path) -> Option<u64> {
    let name = path.file_name()?.to_str()?;
    name.strip_prefix("snap-")?
        .strip_suffix(".bin")?
        .parse()
        .ok()
}

/// Store of per-epoch snapshot blobs in one directory.
#[derive(Debug)]
pub struct SnapshotStore {
    dir: PathBuf,
}

impl SnapshotStore {
    /// Open (creating the directory if needed).
    pub fn open(dir: impl Into<PathBuf>) -> Result<SnapshotStore, DurabilityError> {
        let dir = dir.into();
        fs::create_dir_all(&dir).map_err(io_err(format!("create dir {}", dir.display())))?;
        Ok(SnapshotStore { dir })
    }

    /// Write the snapshot for `epoch` atomically and durably.
    pub fn write(&self, epoch: u64, payload: &[u8]) -> Result<(), DurabilityError> {
        let path = snapshot_path(&self.dir, epoch);
        let tmp = path.with_extension("tmp");
        let mut buf = Vec::with_capacity(payload.len() + 17);
        buf.extend_from_slice(MAGIC);
        buf.push(VERSION);
        buf.extend_from_slice(&crc32(payload).to_le_bytes());
        buf.extend_from_slice(&(payload.len() as u64).to_le_bytes());
        buf.extend_from_slice(payload);
        let mut f = File::create(&tmp).map_err(io_err(format!("create {}", tmp.display())))?;
        f.write_all(&buf)
            .and_then(|_| f.sync_all())
            .map_err(io_err(format!("write {}", tmp.display())))?;
        drop(f);
        fs::rename(&tmp, &path).map_err(io_err(format!(
            "rename {} -> {}",
            tmp.display(),
            path.display()
        )))?;
        File::open(&self.dir)
            .and_then(|d| d.sync_all())
            .map_err(io_err(format!("fsync dir {}", self.dir.display())))
    }

    /// Read and verify the snapshot of `epoch`.
    pub fn read(&self, epoch: u64) -> Result<Vec<u8>, DurabilityError> {
        let path = snapshot_path(&self.dir, epoch);
        let data = fs::read(&path).map_err(io_err(format!("read {}", path.display())))?;
        let corrupt = |msg: &str| DurabilityError::Corrupt {
            file: path.clone(),
            msg: msg.to_string(),
        };
        let Some((magic, rest)) = data.split_first_chunk::<4>() else {
            return Err(corrupt("missing snapshot header"));
        };
        if magic != MAGIC {
            return Err(corrupt("missing snapshot header"));
        }
        let Some((&[version], rest)) = rest.split_first_chunk::<1>() else {
            return Err(corrupt("missing snapshot header"));
        };
        if version != VERSION {
            return Err(corrupt(&format!("unsupported snapshot version {version}")));
        }
        let Some((crc_bytes, rest)) = rest.split_first_chunk::<4>() else {
            return Err(corrupt("missing snapshot header"));
        };
        let crc = u32::from_le_bytes(*crc_bytes);
        let Some((len_bytes, payload)) = rest.split_first_chunk::<8>() else {
            return Err(corrupt("missing snapshot header"));
        };
        let len = u64::from_le_bytes(*len_bytes) as usize;
        if payload.len() != len {
            return Err(corrupt(&format!(
                "payload length mismatch: header says {len}, file has {}",
                payload.len()
            )));
        }
        if crc32(payload) != crc {
            return Err(DurabilityError::BadChecksum {
                file: path,
                offset: 17,
            });
        }
        Ok(payload.to_vec())
    }

    /// Highest epoch with a snapshot file present, if any.
    pub fn latest_epoch(&self) -> Result<Option<u64>, DurabilityError> {
        let mut latest = None;
        for entry in
            fs::read_dir(&self.dir).map_err(io_err(format!("read dir {}", self.dir.display())))?
        {
            let entry = entry.map_err(io_err("read dir entry"))?;
            if let Some(e) = parse_epoch(&entry.path()) {
                latest = latest.max(Some(e));
            }
        }
        Ok(latest)
    }

    /// Delete snapshots with epoch < `epoch` (superseded by a newer one the
    /// manifest already points at).
    pub fn purge_before(&self, epoch: u64) -> Result<usize, DurabilityError> {
        let mut removed = 0;
        for entry in
            fs::read_dir(&self.dir).map_err(io_err(format!("read dir {}", self.dir.display())))?
        {
            let entry = entry.map_err(io_err("read dir entry"))?;
            let path = entry.path();
            if parse_epoch(&path).is_some_and(|e| e < epoch) {
                fs::remove_file(&path).map_err(io_err(format!("remove {}", path.display())))?;
                removed += 1;
            }
        }
        Ok(removed)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tmpdir(name: &str) -> PathBuf {
        let d = std::env::temp_dir().join(format!("greta-snap-{name}-{}", std::process::id()));
        let _ = fs::remove_dir_all(&d);
        d
    }

    #[test]
    fn write_read_latest_purge() {
        let dir = tmpdir("rw");
        let store = SnapshotStore::open(&dir).unwrap();
        assert_eq!(store.latest_epoch().unwrap(), None);
        store.write(1, b"one").unwrap();
        store.write(2, b"two").unwrap();
        assert_eq!(store.latest_epoch().unwrap(), Some(2));
        assert_eq!(store.read(2).unwrap(), b"two");
        assert_eq!(store.purge_before(2).unwrap(), 1);
        assert!(store.read(1).is_err());
        assert_eq!(store.read(2).unwrap(), b"two");
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn corruption_detected() {
        let dir = tmpdir("corrupt");
        let store = SnapshotStore::open(&dir).unwrap();
        store.write(7, b"precious state").unwrap();
        let path = snapshot_path(&dir, 7);
        let mut data = fs::read(&path).unwrap();
        let last = data.len() - 1;
        data[last] ^= 0x01;
        fs::write(&path, &data).unwrap();
        assert!(matches!(
            store.read(7).unwrap_err(),
            DurabilityError::BadChecksum { .. }
        ));
        // Truncation is also caught (length mismatch).
        fs::write(&path, &data[..data.len() - 3]).unwrap();
        assert!(matches!(
            store.read(7).unwrap_err(),
            DurabilityError::Corrupt { .. }
        ));
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn an_unknown_version_is_refused() {
        let dir = tmpdir("version");
        let store = SnapshotStore::open(&dir).unwrap();
        store.write(3, b"state").unwrap();
        let path = snapshot_path(&dir, 3);
        let mut data = fs::read(&path).unwrap();
        assert_eq!(data[MAGIC.len()], VERSION);
        data[MAGIC.len()] = VERSION + 1;
        fs::write(&path, &data).unwrap();
        let err = store.read(3).unwrap_err().to_string();
        let expect = format!("unsupported snapshot version {}", VERSION + 1);
        assert!(err.contains(&expect), "{err}");
        let _ = fs::remove_dir_all(&dir);
    }
}
