//! Plane 4 — per-query merge: the query registry. Every hosted query is
//! one slot carrying its (shared) plan, its [`EmissionMode`], the rows ready for
//! its caller and — when ordered — the cross-shard [`ResultMerge`] that
//! releases them window by window.

use super::barrier::{Cut, OutMsg, QueryBlobs};
use super::{EmissionMode, ExecutorStats, QueryId, QueryStreamStats};
use crate::agg::TrendNum;
use crate::graph::EnginePlan;
use crate::reorder::ResultMerge;
use crate::results::{sort_canonical, WindowResult};
use crate::state::{decode_window_result, encode_window_result};
use crate::EngineError;
use greta_types::codec::{get_opt_u64, put_opt_u64, put_str, put_u32, put_u64, Reader};
use greta_types::CodecError;
use std::sync::Arc;

/// One query's checkpointed state — the repeated part of the merge
/// plane's snapshot section, minus the engine blobs that travel with it.
pub(super) struct QueryParts<N: TrendNum> {
    pub(super) id: u32,
    /// Source text; `None` for the query `new`/`recover` were handed as
    /// an already-compiled plan. Registered queries always carry it — it
    /// is what WAL replay and snapshots recompile from.
    pub(super) text: Option<String>,
    pub(super) emission: EmissionMode,
    /// Window-close boundary already broadcast for this query
    /// ([`last_closed`](crate::window::last_closed) of that watermark).
    pub(super) last_close_idx: Option<u64>,
    /// Rows produced for the caller so far (drained + pending).
    pub(super) rows: u64,
    /// Rows ready for this query's caller: under unordered emission,
    /// whatever was drained off the result channel; under
    /// [`EmissionMode::WindowOrdered`], rows the merge released — in
    /// canonical order.
    pub(super) pending: Vec<WindowResult<N>>,
    /// Cross-shard min-watermark merge; `Some` iff this query's emission
    /// mode is [`EmissionMode::WindowOrdered`] (and it has been hosted).
    pub(super) merge: Option<ResultMerge<N>>,
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
        }
    }
}

/// One hosted query: its checkpointed state plus what bring-up derived
/// for it.
pub(super) struct QuerySlot<N: TrendNum> {
    pub(super) parts: QueryParts<N>,
    /// What the query fixes, compiled once at bring-up: the one value the
    /// slot, the route group it founded and every shard engine share.
    /// Resharded recovery rebuilds engines around it.
    pub(super) plan: Arc<EnginePlan>,
    /// Index into the route plane's groups.
    pub(super) group: u32,
    /// False once deregistered (pending rows may still be polled).
    pub(super) active: bool,
}

impl<N: TrendNum> QuerySlot<N> {
    /// No engine of this query will emit again (deregistered, or every
    /// worker terminated): release what the ordered merge still holds, or
    /// put an unordered backlog into canonical order — either way
    /// `pending` ends up sorted by `(window, group)`.
    pub(super) fn close_remainder(&mut self) {
        let q = &mut self.parts;
        match &mut q.merge {
            Some(m) => {
                let before = q.pending.len();
                m.close(&mut q.pending);
                q.rows += (q.pending.len() - before) as u64;
                debug_assert!(
                    q.pending
                        .windows(2)
                        .all(|w| w[0].order_key() <= w[1].order_key()),
                    "ordered emission produced an out-of-order remainder"
                );
            }
            None => sort_canonical(&mut q.pending),
        }
    }
}

/// The merge plane. See the [module docs](self).
pub(super) struct Merge<N: TrendNum> {
    /// Hosted queries, ascending by id. Deregistered queries stay
    /// (inactive) so their ids are never reused and their drained rows
    /// stay pollable.
    pub(super) queries: Vec<QuerySlot<N>>,
    /// Next id a registration is handed.
    pub(super) next_query_id: u32,
    /// Bumped by every register/deregister barrier.
    pub(super) query_epoch: u64,
}

impl<N: TrendNum> Merge<N> {
    /// An empty registry.
    pub(super) fn new() -> Self {
        Merge {
            queries: Vec::new(),
            next_query_id: 0,
            query_epoch: 0,
        }
    }

    pub(super) fn slot(&self, id: u32) -> Option<&QuerySlot<N>> {
        self.queries.iter().find(|s| s.parts.id == id)
    }

    pub(super) fn slot_mut(&mut self, id: u32) -> Option<&mut QuerySlot<N>> {
        self.queries.iter_mut().find(|s| s.parts.id == id)
    }

    /// Host `slot` (ids ascend, so it goes last) and never hand out its
    /// id again.
    pub(super) fn host(&mut self, slot: QuerySlot<N>) {
        self.next_query_id = self.next_query_id.max(slot.parts.id + 1);
        self.queries.push(slot);
    }

    /// Absorb one worker message into the owning query's buffers: under
    /// unordered emission rows go straight to that query's ready buffer
    /// (frontier stamps are dropped); under
    /// [`EmissionMode::WindowOrdered`] rows park in the query's merge and
    /// frontier advances release complete windows into its ready buffer in
    /// canonical order. A barrier ack goes to the `cut` ledger, which
    /// refuses one nobody is waiting for. A worker's `Gone` carries
    /// nothing to merge: outside a cut, the next send to that worker or
    /// the end of the stream reports how it ended.
    pub(super) fn absorb(
        &mut self,
        msg: OutMsg<WindowResult<N>>,
        cut: &mut Cut,
    ) -> Result<(), EngineError> {
        match msg {
            OutMsg::Rows {
                query,
                shard,
                first_seq,
                mut rows,
            } => {
                let Some(slot) = self.slot_mut(query) else {
                    return Ok(());
                };
                let q = &mut slot.parts;
                match &mut q.merge {
                    None => {
                        q.rows += rows.len() as u64;
                        if q.pending.is_empty() {
                            q.pending = rows;
                        } else {
                            q.pending.append(&mut rows);
                        }
                    }
                    Some(m) => {
                        for (seq, row) in (first_seq..).zip(rows) {
                            m.offer(shard as usize, seq, row);
                        }
                    }
                }
            }
            OutMsg::Frontier {
                query,
                shard,
                next_window,
            } => {
                let Some(slot) = self.slot_mut(query) else {
                    return Ok(());
                };
                let q = &mut slot.parts;
                if let Some(m) = &mut q.merge {
                    let before = q.pending.len();
                    m.advance(shard as usize, next_window, &mut q.pending);
                    q.rows += (q.pending.len() - before) as u64;
                }
            }
            OutMsg::Ack { shard, blobs } => cut.ack(shard, blobs)?,
            OutMsg::Gone { .. } => {}
        }
        Ok(())
    }

    /// This plane's snapshot section: the id counter, the registry epoch,
    /// then one part per active query, all alike, each followed by its
    /// entry of every shard's `per_shard` engine blobs. A `terminal`
    /// checkpoint — the one `drain` takes — records every row as
    /// delivered, because `drain` hands all remainders to its caller.
    pub(super) fn encode(&self, per_shard: &[QueryBlobs], terminal: bool, out: &mut Vec<u8>) {
        put_u32(out, self.next_query_id);
        put_u64(out, self.query_epoch);
        let active = || self.queries.iter().filter(|s| s.active);
        put_u32(out, active().count() as u32);
        for q in active().map(|s| &s.parts) {
            put_u32(out, q.id);
            put_str(out, q.text.as_deref().unwrap_or(""));
            out.push(q.emission.tag());
            put_opt_u64(out, q.last_close_idx);
            put_u64(out, q.rows);
            let pending = if terminal { &[][..] } else { &q.pending[..] };
            put_u32(out, pending.len() as u32);
            for row in pending {
                encode_window_result(row, out);
            }
            if let Some(m) = &q.merge {
                m.export_state(out);
            }
            put_u32(out, per_shard.len() as u32);
            for blobs in per_shard {
                let blob = blobs.iter().find(|(id, _)| *id == q.id);
                let blob = blob.map_or(&[][..], |(_, b)| b);
                put_u32(out, blob.len() as u32);
                out.extend_from_slice(blob);
            }
        }
    }

    /// Inverse of [`encode`](Self::encode) for a checkpoint taken at
    /// `shards`: the plane without its slots, and per query the part and
    /// engine blobs bring-up turns into one.
    #[allow(clippy::type_complexity, reason = "the plane and its parts")]
    pub(super) fn decode(
        r: &mut Reader<'_>,
        shards: usize,
    ) -> Result<(Self, Vec<(QueryParts<N>, Vec<Vec<u8>>)>), CodecError> {
        let mut plane = Merge::new();
        plane.next_query_id = r.u32()?;
        plane.query_epoch = r.u64()?;
        let n_queries = r.seq_len(22)?;
        let mut parts = Vec::with_capacity(n_queries);
        for _ in 0..n_queries {
            let id = r.u32()?;
            let text = r.str()?;
            let text = (!text.is_empty()).then(|| text.to_string());
            let mut q = QueryParts::fresh(id, text, EmissionMode::from_tag(r.u8()?)?);
            q.last_close_idx = get_opt_u64(r)?;
            q.rows = r.u64()?;
            for _ in 0..r.seq_len(9)? {
                q.pending.push(decode_window_result(r)?);
            }
            if q.emission == EmissionMode::WindowOrdered {
                q.merge = Some(ResultMerge::import_state(r)?);
            }
            let n_states = r.seq_len(4)?;
            if n_states != shards {
                return Err(CodecError(format!(
                    "query q{id} carries {n_states} state blobs, expected {shards}"
                )));
            }
            let blobs = (0..shards).map(|_| r.bytes().map(<[u8]>::to_vec));
            parts.push((q, blobs.collect::<Result<_, _>>()?));
        }
        Ok((plane, parts))
    }

    /// Fill in the counters this plane owns.
    pub(super) fn fill_stats(&self, s: &mut ExecutorStats) {
        s.query_epoch = self.query_epoch;
        s.queries = self
            .queries
            .iter()
            .map(|slot| {
                let merge = slot.parts.merge.as_ref();
                let frontiers = merge.map_or(&[][..], ResultMerge::frontiers);
                let max = frontiers.iter().copied().max().unwrap_or(0);
                QueryStreamStats {
                    id: QueryId(slot.parts.id),
                    rows: slot.parts.rows,
                    pending_rows: slot.parts.pending.len(),
                    released_to: merge.map_or(0, ResultMerge::released_to),
                    min_frontier: merge.map_or(0, ResultMerge::min_frontier),
                    frontier_lag: frontiers.iter().map(|&f| max - f).collect(),
                    buffered_rows: merge.map_or(0, ResultMerge::buffered_rows),
                    route_group: slot.group,
                    active: slot.active,
                }
            })
            .collect();
    }
}
