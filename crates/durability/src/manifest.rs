//! Recovery manifest: the single source of truth for "where to restart".
//!
//! One fixed-size record `{snapshot epoch, WAL record index, shard count}`,
//! rewritten atomically (temp + rename) after every checkpoint. Recovery
//! loads the manifest, restores the snapshot of `epoch`, and replays WAL
//! records with index ≥ `wal_index`. Until the first checkpoint there is no
//! manifest, and recovery replays the WAL from record 0 into fresh state.

use crate::crc::crc32;
use crate::error::{io_err, DurabilityError};
use std::fs::{self, File};
use std::io::Write;
use std::path::{Path, PathBuf};

const MAGIC: &[u8; 4] = b"GMAN";
const VERSION: u8 = 1;
const BODY_LEN: usize = 20; // epoch + wal_index + shards

/// The durable recovery point.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Manifest {
    /// Snapshot epoch to restore.
    pub epoch: u64,
    /// First WAL record index *not* covered by the snapshot.
    pub wal_index: u64,
    /// Shard count the snapshot was taken with. Descriptive, not binding:
    /// recovery may repartition the snapshot's per-group state onto a
    /// different shard count (`StreamExecutor::recover` resharding); the
    /// field tells it how many per-shard state blobs the snapshot holds.
    pub shards: u32,
}

fn manifest_path(dir: &Path) -> PathBuf {
    dir.join("MANIFEST")
}

impl Manifest {
    /// Atomically persist this manifest in `dir`.
    pub fn store(&self, dir: &Path) -> Result<(), DurabilityError> {
        let mut body = Vec::with_capacity(BODY_LEN);
        body.extend_from_slice(&self.epoch.to_le_bytes());
        body.extend_from_slice(&self.wal_index.to_le_bytes());
        body.extend_from_slice(&self.shards.to_le_bytes());
        let mut buf = Vec::with_capacity(9 + BODY_LEN);
        buf.extend_from_slice(MAGIC);
        buf.push(VERSION);
        buf.extend_from_slice(&crc32(&body).to_le_bytes());
        buf.extend_from_slice(&body);

        let path = manifest_path(dir);
        let tmp = path.with_extension("tmp");
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
        File::open(dir)
            .and_then(|d| d.sync_all())
            .map_err(io_err(format!("fsync dir {}", dir.display())))
    }

    /// Load the manifest from `dir`, `Ok(None)` when none was written yet.
    pub fn load(dir: &Path) -> Result<Option<Manifest>, DurabilityError> {
        let path = manifest_path(dir);
        let data = match fs::read(&path) {
            Ok(d) => d,
            Err(e) if e.kind() == std::io::ErrorKind::NotFound => return Ok(None),
            Err(e) => return Err(io_err(format!("read {}", path.display()))(e)),
        };
        let corrupt = |msg: &str| DurabilityError::Corrupt {
            file: path.clone(),
            msg: msg.to_string(),
        };
        if data.len() != 9 + BODY_LEN {
            return Err(corrupt("malformed manifest"));
        }
        let Some((magic, rest)) = data.split_first_chunk::<4>() else {
            return Err(corrupt("malformed manifest"));
        };
        if magic != MAGIC {
            return Err(corrupt("malformed manifest"));
        }
        let Some((&[version], rest)) = rest.split_first_chunk::<1>() else {
            return Err(corrupt("malformed manifest"));
        };
        if version != VERSION {
            return Err(corrupt(&format!("unsupported manifest version {version}")));
        }
        let Some((crc_bytes, body)) = rest.split_first_chunk::<4>() else {
            return Err(corrupt("malformed manifest"));
        };
        if crc32(body) != u32::from_le_bytes(*crc_bytes) {
            return Err(DurabilityError::BadChecksum {
                file: path,
                offset: 9,
            });
        }
        let Some((epoch, body)) = body.split_first_chunk::<8>() else {
            return Err(corrupt("manifest body too short"));
        };
        let Some((wal_index, body)) = body.split_first_chunk::<8>() else {
            return Err(corrupt("manifest body too short"));
        };
        let Some((shards, _)) = body.split_first_chunk::<4>() else {
            return Err(corrupt("manifest body too short"));
        };
        Ok(Some(Manifest {
            epoch: u64::from_le_bytes(*epoch),
            wal_index: u64::from_le_bytes(*wal_index),
            shards: u32::from_le_bytes(*shards),
        }))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn roundtrip_and_overwrite() {
        let dir = std::env::temp_dir().join(format!("greta-manifest-{}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        fs::create_dir_all(&dir).unwrap();
        assert_eq!(Manifest::load(&dir).unwrap(), None);
        let m1 = Manifest {
            epoch: 1,
            wal_index: 100,
            shards: 4,
        };
        m1.store(&dir).unwrap();
        assert_eq!(Manifest::load(&dir).unwrap(), Some(m1));
        let m2 = Manifest {
            epoch: 2,
            wal_index: 250,
            shards: 4,
        };
        m2.store(&dir).unwrap();
        assert_eq!(Manifest::load(&dir).unwrap(), Some(m2));
        // Corruption is a clean error.
        let mut data = fs::read(manifest_path(&dir)).unwrap();
        data[12] ^= 0xFF;
        fs::write(manifest_path(&dir), &data).unwrap();
        assert!(Manifest::load(&dir).is_err());
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn an_unknown_version_is_refused() {
        let dir = std::env::temp_dir().join(format!("greta-manifest-v-{}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        fs::create_dir_all(&dir).unwrap();
        let m = Manifest {
            epoch: 3,
            wal_index: 7,
            shards: 2,
        };
        m.store(&dir).unwrap();
        let mut data = fs::read(manifest_path(&dir)).unwrap();
        assert_eq!(data[MAGIC.len()], VERSION);
        data[MAGIC.len()] = VERSION + 1;
        fs::write(manifest_path(&dir), &data).unwrap();
        let err = Manifest::load(&dir).unwrap_err().to_string();
        let expect = format!("unsupported manifest version {}", VERSION + 1);
        assert!(err.contains(&expect), "{err}");
        let _ = fs::remove_dir_all(&dir);
    }
}
