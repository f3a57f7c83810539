//! The executor snapshot blob: an ingest-plane header followed by one
//! identical section per hosted query. Format notes and the upgrade policy
//! are in `ARCHITECTURE.md` ("On-disk formats and versioning").

use super::{
    decode_emission, encode_emission, EmissionMode, ExecutorConfig, ExecutorStats, LatePolicy,
    QueryBlobs, StreamExecutor,
};
use crate::agg::TrendNum;
use crate::grouping::RoutingTable;
use crate::reorder::{ReorderBuffer, ResultMerge};
use crate::results::WindowResult;
use crate::sketch::GroupSketch;
use crate::state::{
    decode_events, decode_window_result, encode_events, encode_window_result, get_opt_u64,
    put_opt_u64,
};
use crate::window::WindowId;
use crate::EngineError;
use greta_types::codec::{put_str, put_u32, put_u64, Reader};
use greta_types::{CodecError, EventRef};
use std::collections::BTreeMap;

/// Bumped to 6 when every hosted query became the same section: the v5
/// layout (a section for the constructor query inlined into the header,
/// a second one for registered queries) is gone. Snapshots taken by older
/// revisions are rejected instead of being silently misread.
const SNAPSHOT_VERSION: u8 = 6;

/// One query's checkpointed state — the repeated section of a snapshot.
/// With no shard states it describes a query that starts fresh.
pub(super) struct QueryParts<N: TrendNum> {
    pub(super) id: u32,
    /// `None` = the query `new`/`recover` are handed as a compiled plan.
    pub(super) text: Option<String>,
    pub(super) emission: EmissionMode,
    pub(super) last_close_idx: Option<u64>,
    pub(super) rows: u64,
    pub(super) pending: Vec<WindowResult<N>>,
    pub(super) merge: Option<ResultMerge<N>>,
    /// Per-shard engine blobs at the checkpoint's shard count; empty =
    /// never checkpointed.
    pub(super) shard_states: Vec<Vec<u8>>,
}

impl<N: TrendNum> QueryParts<N> {
    /// A query that has produced nothing yet.
    pub(super) fn fresh(id: u32, text: Option<String>, emission: EmissionMode) -> Self {
        QueryParts {
            id,
            text,
            emission,
            last_close_idx: None,
            rows: 0,
            pending: Vec::new(),
            merge: None,
            shard_states: Vec::new(),
        }
    }
}

/// Everything a snapshot blob holds: the ingest plane's state, then the
/// hosted queries ascending by id.
pub(super) struct SnapshotParts<N: TrendNum> {
    pub(super) stats: ExecutorStats,
    pub(super) max_occupancy: usize,
    pub(super) late_windows: BTreeMap<WindowId, (u64, u64)>,
    pub(super) table: RoutingTable,
    pub(super) group_stats: GroupSketch,
    pub(super) recent_events: GroupSketch,
    pub(super) windows_since_rebalance: u64,
    pub(super) reorder: ReorderBuffer,
    pub(super) diverted: Vec<EventRef>,
    pub(super) next_query_id: u32,
    pub(super) query_epoch: u64,
    pub(super) queries: Vec<QueryParts<N>>,
}

impl<N: TrendNum> StreamExecutor<N> {
    /// Serialize the current cut: the ingest-plane header, then one
    /// section per active query carrying its entry of every shard's
    /// `per_shard` blobs.
    pub(super) fn encode_snapshot(&self, per_shard: &[QueryBlobs]) -> Vec<u8> {
        let mut out = Vec::new();
        out.push(SNAPSHOT_VERSION);
        put_u32(&mut out, self.shards as u32);
        // Result-shaping configuration the snapshot depends on: recovery
        // with different values would silently diverge from the original
        // run, so it is recorded and checked instead.
        put_u64(&mut out, self.reorder.slack());
        out.push(match self.late_policy {
            LatePolicy::Drop => 0,
            LatePolicy::Divert => 1,
            LatePolicy::Error => 2,
        });
        for v in [
            self.stats.pushed,
            self.stats.released,
            self.stats.late_dropped,
            self.stats.late_diverted,
            self.stats.broadcasts,
            self.stats.watermarks,
            self.stats.frames,
            self.stats.checkpoints,
            self.stats.barrier_snapshots,
            self.stats.fused_barriers,
            self.stats.rebalances,
            self.stats.groups_moved,
            self.max_occupancy as u64,
        ] {
            put_u64(&mut out, v);
        }
        put_u32(&mut out, self.late_windows.len() as u32);
        for (&wid, &(dropped, diverted)) in &self.late_windows {
            put_u64(&mut out, wid);
            put_u64(&mut out, dropped);
            put_u64(&mut out, diverted);
        }
        self.groups[0].table.encode(&mut out);
        self.group_stats.encode(&mut out);
        put_u64(&mut out, self.windows_since_rebalance);
        self.recent_events.encode(&mut out);
        put_u32(&mut out, self.stats.events_per_shard.len() as u32);
        for v in &self.stats.events_per_shard {
            put_u64(&mut out, *v);
        }
        self.reorder.export_state(&mut out);
        encode_events(self.diverted.iter(), &mut out);
        put_u32(&mut out, self.next_query_id);
        put_u64(&mut out, self.query_epoch);
        let active = || self.queries.iter().filter(|s| s.active);
        put_u32(&mut out, active().count() as u32);
        for slot in active() {
            put_u32(&mut out, slot.id);
            put_str(&mut out, slot.text.as_deref().unwrap_or(""));
            out.push(encode_emission(slot.emission));
            put_opt_u64(&mut out, slot.last_close_idx);
            put_u64(&mut out, slot.rows);
            put_u32(&mut out, slot.pending.len() as u32);
            for row in &slot.pending {
                encode_window_result(row, &mut out);
            }
            if let Some(m) = &slot.merge {
                m.export_state(&mut out);
            }
            put_u32(&mut out, per_shard.len() as u32);
            for blobs in per_shard {
                let blob = blobs
                    .iter()
                    .find(|(q, _)| *q == slot.id)
                    .map_or(&[][..], |(_, b)| b);
                put_u32(&mut out, blob.len() as u32);
                out.extend_from_slice(blob);
            }
        }
        out
    }

    /// Inverse of [`encode_snapshot`](Self::encode_snapshot). Refuses a
    /// `config` whose ingest-side result-shaping knobs (slack, late
    /// policy) differ from the checkpointed run's — recovering under
    /// different values would silently break the byte-identical-replay
    /// guarantee.
    pub(super) fn decode_snapshot(
        bytes: &[u8],
        expect_shards: usize,
        config: &ExecutorConfig,
    ) -> Result<SnapshotParts<N>, EngineError> {
        let r = &mut Reader::new(bytes);
        let version = r.u8()?;
        if version != SNAPSHOT_VERSION {
            return Err(CodecError(format!("unsupported snapshot version {version}")).into());
        }
        let shards = r.u32()? as usize;
        if shards != expect_shards {
            return Err(CodecError(format!(
                "snapshot has {shards} shard state(s), manifest says {expect_shards}"
            ))
            .into());
        }
        let slack = r.u64()?;
        if slack != config.slack {
            return Err(EngineError::Config(format!(
                "slack mismatch: checkpoint was taken with slack {slack}, \
                 config asks for {}",
                config.slack
            )));
        }
        let late_policy = match r.u8()? {
            0 => LatePolicy::Drop,
            1 => LatePolicy::Divert,
            2 => LatePolicy::Error,
            t => return Err(CodecError(format!("bad LatePolicy tag {t}")).into()),
        };
        if late_policy != config.late_policy {
            return Err(EngineError::Config(format!(
                "late-policy mismatch: checkpoint was taken with {late_policy:?}, \
                 config asks for {:?}",
                config.late_policy
            )));
        }
        let mut stats = ExecutorStats {
            pushed: r.u64()?,
            released: r.u64()?,
            late_dropped: r.u64()?,
            late_diverted: r.u64()?,
            broadcasts: r.u64()?,
            watermarks: r.u64()?,
            frames: r.u64()?,
            checkpoints: r.u64()?,
            barrier_snapshots: r.u64()?,
            fused_barriers: r.u64()?,
            rebalances: r.u64()?,
            groups_moved: r.u64()?,
            ..Default::default()
        };
        let max_occupancy = r.u64()? as usize;
        let n_late = r.seq_len(24)?;
        let mut late_windows = BTreeMap::new();
        for _ in 0..n_late {
            let wid = r.u64()?;
            let dropped = r.u64()?;
            let diverted = r.u64()?;
            late_windows.insert(wid, (dropped, diverted));
        }
        let table = RoutingTable::decode(r, expect_shards)?;
        let group_stats = GroupSketch::decode(config.group_stats_capacity, r)?;
        let windows_since_rebalance = r.u64()?;
        let recent_events = GroupSketch::decode(config.group_stats_capacity, r)?;
        let n_shard_loads = r.seq_len(8)?;
        stats.events_per_shard = Vec::with_capacity(n_shard_loads);
        for _ in 0..n_shard_loads {
            stats.events_per_shard.push(r.u64()?);
        }
        let reorder = ReorderBuffer::import_state(slack, r)?;
        let diverted = decode_events(r)?;
        let next_query_id = r.u32()?;
        let query_epoch = r.u64()?;
        let n_queries = r.seq_len(22)?;
        let mut queries = Vec::with_capacity(n_queries);
        for _ in 0..n_queries {
            let id = r.u32()?;
            let text = r.str()?;
            let text = (!text.is_empty()).then(|| text.to_string());
            let emission = decode_emission(r.u8()?)?;
            let last_close_idx = get_opt_u64(r)?;
            let rows = r.u64()?;
            let n_pending = r.seq_len(9)?;
            let mut pending = Vec::with_capacity(n_pending);
            for _ in 0..n_pending {
                pending.push(decode_window_result(r)?);
            }
            let merge = match emission {
                EmissionMode::Unordered => None,
                EmissionMode::WindowOrdered => Some(ResultMerge::import_state(r)?),
            };
            let n_states = r.seq_len(4)?;
            if n_states != shards {
                return Err(CodecError(format!(
                    "query q{id} carries {n_states} state blobs, expected {shards}"
                ))
                .into());
            }
            let mut shard_states = Vec::with_capacity(n_states);
            for _ in 0..n_states {
                shard_states.push(r.bytes()?.to_vec());
            }
            queries.push(QueryParts {
                id,
                text,
                emission,
                last_close_idx,
                rows,
                pending,
                merge,
                shard_states,
            });
        }
        if !r.is_empty() {
            return Err(
                CodecError(format!("{} trailing bytes after snapshot", r.remaining())).into(),
            );
        }
        Ok(SnapshotParts {
            stats,
            max_occupancy,
            late_windows,
            table,
            group_stats,
            recent_events,
            windows_since_rebalance,
            reorder,
            diverted,
            next_query_id,
            query_epoch,
            queries,
        })
    }
}
