//! The executor snapshot blob, carried by a WAL checkpoint record: a
//! version byte, then the four plane sections in plane order — ingest,
//! route, worker, merge — each written and read back by the plane that
//! owns the state. Format notes and the
//! upgrade policy are in `ARCHITECTURE.md` ("On-disk formats and
//! versioning").

use super::ingest::Ingest;
use super::merge::{Merge, QueryParts};
use super::route::Route;
use super::worker::Worker;
use super::{ExecutorConfig, QueryBlobs, StreamExecutor};
use crate::agg::TrendNum;
use crate::EngineError;
use greta_types::codec::Reader;
use greta_types::CodecError;

/// Bumped to 9 when the ingest section lost its diverted events and its
/// per-window late ledger, keeping one `late_dropped` counter (v8 had
/// dropped live rebalancing's state from the route and worker sections).
/// Snapshots taken by older revisions are rejected instead of being
/// silently misread.
const SNAPSHOT_VERSION: u8 = 9;

/// A decoded checkpoint: the ingest, route and merge planes as they were
/// at the cut (the worker plane's threads are respawned), and per query
/// the part and engine blobs to bring it up from.
pub(super) type Planes<N> = (Ingest, Route, Merge<N>, Vec<(QueryParts<N>, Vec<Vec<u8>>)>);

impl<N: TrendNum> StreamExecutor<N> {
    /// Serialize the current cut; `per_shard` are its engine blobs, and
    /// `terminal` marks the checkpoint `drain` takes.
    fn encode_snapshot(&self, per_shard: &[QueryBlobs], terminal: bool) -> Vec<u8> {
        let mut out = vec![SNAPSHOT_VERSION];
        self.ingest.encode(&mut out);
        self.route.encode(&mut out);
        self.worker.encode(&mut out);
        self.merge.encode(per_shard, terminal, &mut out);
        out
    }

    /// Serialize the current cut and commit it as the next checkpoint.
    pub(super) fn persist_snapshot(
        &mut self,
        per_shard: &[QueryBlobs],
        terminal: bool,
    ) -> Result<(), EngineError> {
        let blob = self.encode_snapshot(per_shard, terminal);
        self.ingest.persist(&blob)
    }

    /// Inverse of [`encode_snapshot`](Self::encode_snapshot), to be resumed
    /// on `shards`; the blob's worker section says how many it was taken
    /// at. Refuses a `config` whose result-shaping knobs differ from the
    /// checkpointed run's.
    pub(super) fn decode_snapshot(
        bytes: &[u8],
        config: &ExecutorConfig,
        shards: usize,
    ) -> Result<Planes<N>, EngineError> {
        let r = &mut Reader::new(bytes);
        let version = r.u8()?;
        if version != SNAPSHOT_VERSION {
            return Err(CodecError(format!("unsupported snapshot version {version}")).into());
        }
        let ingest = Ingest::decode(r, config)?;
        let route = Route::decode(r, config, shards)?;
        let saved_shards = Worker::<N>::decode(r)?;
        let (merge, queries) = Merge::decode(r, saved_shards)?;
        if !r.is_empty() {
            return Err(
                CodecError(format!("{} trailing bytes after snapshot", r.remaining())).into(),
            );
        }
        Ok((ingest, route, merge, queries))
    }
}

#[cfg(test)]
mod tests {
    //! Section-level codec checks: they need the planes themselves, which
    //! nothing outside `executor` can name. The whole-blob checks through
    //! the public API are in `tests/codec_roundtrip.rs`.

    use super::super::barrier::BarrierKind;
    use super::super::merge::QuerySlot;
    use super::super::{EmissionMode, LatePolicy};
    use super::*;
    use crate::graph::EnginePlan;
    use crate::grouping::{PartitionKey, StreamRouting};
    use greta_query::CompiledQuery;
    use greta_types::{Event, SchemaRegistry, Time, Value};

    const Q0: &str = "RETURN grp, COUNT(*) PATTERN M+ WHERE M.load < NEXT(M).load \
                      GROUP-BY grp WITHIN 40 SLIDE 20";
    const Q1: &str = "RETURN grp, COUNT(*) PATTERN M+ GROUP-BY grp WITHIN 30 SLIDE 30";
    const SHARDS: usize = 3;

    fn config() -> ExecutorConfig {
        ExecutorConfig {
            shards: SHARDS,
            slack: 3,
            late_policy: LatePolicy::Drop,
            emission: EmissionMode::WindowOrdered,
            ..Default::default()
        }
    }

    /// A two-query executor stopped at a cut with something in every
    /// corner a checkpoint covers: events parked in the reorder buffer, a
    /// dropped late event, per-shard counts skewed
    /// onto one shard, un-polled rows and an ordered merge that has
    /// released some.
    fn populated() -> (SchemaRegistry, StreamExecutor<u64>, Vec<QueryBlobs>) {
        let mut reg = SchemaRegistry::new();
        reg.register_type("M", &["grp", "load"]).unwrap();
        let q0 = CompiledQuery::parse(Q0, &reg).unwrap();
        let routing = StreamRouting::new(&q0, &reg);
        let on_shard_0 = |g: &i64| {
            routing.shard_of_group_key(&PartitionKey(vec![Some(Value::Int(*g))]), SHARDS) == 0
        };
        let hot: Vec<i64> = (0..10_000).filter(on_shard_0).take(3).collect();
        let tid = reg.type_id("M").unwrap();
        let ev = |t: u64, grp: i64| {
            let load = Value::Float(((t * 31) % 17) as f64);
            Event::new_unchecked(tid, Time(t), vec![Value::Int(grp), load])
        };
        let mut exec = StreamExecutor::<u64>::new(q0, reg.clone(), config()).unwrap();
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
        let blobs = exec.cut(|_| BarrierKind::Export).unwrap();
        let stats = exec.stats();
        let busiest = stats.events_per_shard.iter().max();
        assert_eq!(busiest, Some(&stats.events_per_shard[0]), "not skewed");
        assert_eq!(stats.late_dropped, 1);
        assert!(
            stats.pushed - stats.late_dropped > stats.released,
            "nothing buffered"
        );
        assert!(stats.queries.iter().all(|q| q.pending_rows > 0));
        assert!(stats.queries[0].released_to > 0, "ordered merge is idle");
        (reg, exec, blobs)
    }

    /// The four plane sections of `exec` at its current cut, in plane order.
    fn sections(exec: &StreamExecutor<u64>, blobs: &[QueryBlobs]) -> [Vec<u8>; 4] {
        let mut out = [Vec::new(), Vec::new(), Vec::new(), Vec::new()];
        exec.ingest.encode(&mut out[0]);
        exec.route.encode(&mut out[1]);
        exec.worker.encode(&mut out[2]);
        exec.merge.encode(blobs, false, &mut out[3]);
        out
    }

    /// Decode section `i` of a checkpoint taken (and resumed) at `SHARDS`
    /// shards and encode what came back.
    fn reencode(i: usize, bytes: &[u8], reg: &SchemaRegistry) -> Result<Vec<u8>, EngineError> {
        let r = &mut Reader::new(bytes);
        let mut out = Vec::new();
        match i {
            0 => Ingest::decode(r, &config())?.encode(&mut out),
            1 => Route::decode(r, &config(), SHARDS)?.encode(&mut out),
            2 => {
                // The rest of the plane is threads; its section is small
                // enough to spell out.
                let shards = Worker::<u64>::decode(r)?;
                out.extend((shards as u32).to_le_bytes());
            }
            _ => {
                // What bring-up does with the parts, minus the engines.
                let (mut merge, parts) = Merge::<u64>::decode(r, SHARDS)?;
                let mut per_shard = vec![QueryBlobs::new(); SHARDS];
                for (parts, saved) in parts {
                    for (blobs, blob) in per_shard.iter_mut().zip(saved) {
                        blobs.push((parts.id, blob));
                    }
                    let text = parts.text.clone().unwrap_or(Q0.to_string());
                    let query = CompiledQuery::parse(&text, reg).unwrap();
                    merge.host(QuerySlot {
                        plan: EnginePlan::new(query, reg.clone(), Default::default()).unwrap(),
                        group: 0,
                        active: true,
                        parts,
                    });
                }
                merge.encode(&per_shard, false, &mut out);
            }
        }
        assert!(
            r.is_empty(),
            "section {i} left {} bytes unread",
            r.remaining()
        );
        Ok(out)
    }

    #[test]
    fn every_plane_section_round_trips_byte_identically() {
        let (reg, mut exec, blobs) = populated();
        for (i, bytes) in sections(&exec, &blobs).iter().enumerate() {
            assert_eq!(&reencode(i, bytes, &reg).unwrap(), bytes, "section {i}");
        }
        exec.finish().unwrap();
    }

    #[test]
    fn every_truncation_of_every_section_is_a_clean_error() {
        let (reg, mut exec, blobs) = populated();
        for (i, bytes) in sections(&exec, &blobs).iter().enumerate() {
            for cut in 0..bytes.len() {
                let err = reencode(i, &bytes[..cut], &reg).err();
                let err = err.unwrap_or_else(|| panic!("section {i} decoded from {cut} bytes"));
                assert!(
                    matches!(err, EngineError::Durability(_)),
                    "{i}@{cut}: {err}"
                );
            }
        }
        exec.finish().unwrap();
    }
}
