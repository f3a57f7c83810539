//! Crash recovery: latest checkpoint + WAL tail → a running executor.

use super::snapshot::{QueryParts, SnapshotParts};
use super::{decode_tail_record, DurabilityState, ExecutorConfig, StreamExecutor, TailRec};
use crate::agg::TrendNum;
use crate::EngineError;
use greta_durability::{Manifest, SnapshotStore, TailPolicy, Wal};
use greta_query::CompiledQuery;
use greta_types::{CodecError, SchemaRegistry};

/// Recompile a registered query from its recorded source text (snapshot
/// section or WAL register record).
fn recompile(id: u32, text: &str, registry: &SchemaRegistry) -> Result<CompiledQuery, EngineError> {
    CompiledQuery::parse(text, registry)
        .map_err(|e| EngineError::Config(format!("registered query {id} failed to recompile: {e}")))
}

impl<N: TrendNum> StreamExecutor<N> {
    /// Restore an executor from the durability directory in
    /// `config.durability` and replay the WAL tail.
    ///
    /// `query` and `registry` must match what the original run passed to
    /// [`new`](Self::new) (as must `config.emission`), but `config.shards`
    /// may differ from the checkpoint's: every query's per-group engine
    /// state is then repartitioned onto the new shard count under a fresh
    /// routing epoch, so a stream can be recovered into a wider (or
    /// narrower) executor with byte-identical results. Every query hosted
    /// at the time of the checkpoint is restored byte-identically — plan
    /// (recompiled from its recorded source text), engine state, result
    /// buffers, counters — and register/deregister records in the WAL tail
    /// are replayed in their original stream positions, so the recovered
    /// registry matches the pre-crash one exactly. The recovered executor
    /// continues the stream exactly where the WAL ends: rows for windows
    /// that closed after the last checkpoint are (re-)emitted through
    /// [`poll_results_of`](Self::poll_results_of), rows for earlier
    /// windows are not repeated. If the process crashed before the first
    /// checkpoint, the whole WAL is replayed into fresh state. A torn
    /// final WAL frame (crash mid-append) is repaired; checksum corruption
    /// anywhere is a clean [`EngineError::Durability`].
    pub fn recover(
        query: CompiledQuery,
        registry: SchemaRegistry,
        config: ExecutorConfig,
    ) -> Result<Self, EngineError> {
        let dcfg = config.durability.clone().ok_or_else(|| {
            EngineError::Config("recover requires ExecutorConfig::durability".into())
        })?;
        // Opening the WAL first repairs a torn tail before replay.
        let wal = Wal::open(&dcfg.dir, dcfg.segment_bytes, dcfg.fsync)?;
        let snapshots = SnapshotStore::open(&dcfg.dir)?;
        let shards = Self::shard_count(&query, &config)?;
        // No manifest = crash before the first checkpoint: the registry is
        // what `new` built, and the whole WAL replays into it.
        let manifest = Manifest::load(&dcfg.dir)?;
        let mut saved: Option<SnapshotParts<N>> = match &manifest {
            None => None,
            Some(m) => Some(Self::decode_snapshot(
                &snapshots.read(m.epoch)?,
                m.shards as usize,
                &config,
            )?),
        };
        let queries = match &mut saved {
            None => vec![QueryParts::fresh(0, None, config.emission)],
            Some(parts) => std::mem::take(&mut parts.queries),
        };
        let mut groups = Vec::new();
        let mut hosted = Vec::with_capacity(queries.len());
        for q in queries {
            // A section without source text is the query this call was
            // handed compiled; every other plan comes from recorded text.
            let plan = match &q.text {
                Some(text) => recompile(q.id, text, &registry)?,
                None if q.emission != config.emission => {
                    return Err(EngineError::Config(format!(
                        "emission-mode mismatch: checkpoint was taken with {:?}, \
                         config asks for {:?}",
                        q.emission, config.emission
                    )))
                }
                None => query.clone(),
            };
            hosted.push(Self::bring_up(
                &registry,
                config.engine,
                shards,
                &mut groups,
                plan,
                q,
            )?);
        }
        let durability = DurabilityState {
            config: dcfg.clone(),
            wal,
            snapshots,
            epoch: manifest.as_ref().map_or(0, |m| m.epoch),
            record_buf: Vec::new(),
        };
        let mut exec = Self::assemble(registry, &config, shards, groups, hosted, Some(durability))?;
        if let (Some(m), Some(parts)) = (&manifest, saved) {
            exec.restore_ingest(parts, m.shards as usize != shards);
        }

        // Replay the WAL tail through the normal ingest path (without
        // re-appending): events flow through reorder + routing, register /
        // deregister records re-run their barriers at the original stream
        // positions. A torn final frame was already repaired by open.
        let mut tail: Vec<TailRec> = Vec::new();
        let mut decode_err: Option<CodecError> = None;
        Wal::replay(
            &dcfg.dir,
            manifest.map_or(0, |m| m.wal_index),
            TailPolicy::Tolerate,
            |_, payload| {
                if decode_err.is_some() {
                    return;
                }
                match decode_tail_record(payload) {
                    Ok(rec) => tail.push(rec),
                    Err(e) => decode_err = Some(e),
                }
            },
        )
        .map_err(EngineError::from)?;
        if let Some(e) = decode_err {
            return Err(e.into());
        }
        for rec in tail {
            match rec {
                TailRec::Event(e) => {
                    exec.stats.pushed += 1;
                    match exec.ingest(e) {
                        // Under LatePolicy::Error the original push() surfaced
                        // the Late error to the caller *after* logging the
                        // event, and the pipeline stayed usable — mirror that
                        // here so one logged-then-rejected record cannot
                        // poison recovery.
                        Err(EngineError::Late { .. }) => {}
                        other => other?,
                    }
                    if exec.rebalance_due {
                        exec.run_rebalance_check()?;
                    }
                    if exec.checkpoint_due {
                        exec.checkpoint()?;
                    }
                }
                TailRec::Register { id, emission, text } => {
                    let q = recompile(id, &text, &exec.registry)?;
                    exec.apply_register(id, text, emission, q)?;
                }
                TailRec::Deregister(id) => {
                    // Rows the live run handed back at deregistration stay
                    // in the inactive slot's pending buffer — like every
                    // other post-checkpoint row, the caller re-reads them
                    // via poll_results_of.
                    exec.apply_deregister(id)?;
                }
            }
        }
        Ok(exec)
    }

    /// Put the checkpointed ingest-plane state back (the per-query
    /// sections were consumed by bring-up).
    fn restore_ingest(&mut self, parts: SnapshotParts<N>, resharded: bool) {
        self.stats = parts.stats;
        self.max_occupancy = parts.max_occupancy;
        self.late_windows = parts.late_windows;
        self.groups[0].table = parts.table;
        self.group_stats = parts.group_stats;
        self.recent_events = parts.recent_events;
        self.windows_since_rebalance = parts.windows_since_rebalance;
        self.reorder = parts.reorder;
        self.diverted = parts.diverted;
        self.next_query_id = parts.next_query_id;
        self.query_epoch = parts.query_epoch;
        if resharded {
            // The old epoch's pinned assignment and per-shard attribution
            // are meaningless for a different count: routing restarts from
            // the pure hash under a fresh epoch, the load picture from 0.
            self.groups[0].table.reset_for_shards();
            self.stats.events_per_shard = vec![0; self.shards];
        }
    }
}
