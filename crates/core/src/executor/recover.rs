//! Bring-up of a whole executor: fresh, or — crash recovery — from the
//! last checkpoint record in the WAL plus the records after it.

use super::ingest::{Ingest, Log, TailRec};
use super::merge::{Merge, QueryParts};
use super::route::Route;
use super::worker::Worker;
use super::{ExecutorConfig, StreamExecutor};
use crate::agg::TrendNum;
use crate::graph::EnginePlan;
use crate::EngineError;
use greta_query::CompiledQuery;
use greta_types::SchemaRegistry;

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
    /// state is then repartitioned onto the new shard count by the groups'
    /// hashes, so a stream can be recovered into a wider (or narrower)
    /// executor with byte-identical results — the way to spread a hot
    /// shard. Every query hosted at the time of the checkpoint is restored
    /// byte-identically — plan (recompiled from its recorded source text),
    /// engine state, result buffers, counters — and register/deregister
    /// records in the WAL tail are replayed in their original stream
    /// positions, so the recovered registry matches the pre-crash one
    /// exactly. The recovered executor continues the stream exactly where
    /// the WAL ends: rows for windows
    /// that closed after the last checkpoint are (re-)emitted through
    /// [`poll_results_of`](Self::poll_results_of), rows for earlier
    /// windows are not repeated. If the process crashed before the first
    /// checkpoint, the whole WAL is replayed into fresh state. A torn
    /// final WAL frame (crash mid-append) is repaired; checksum corruption
    /// anywhere, a log that lost its head without a checkpoint to stand
    /// in for it, and a directory of the retired snapshot-store layout are
    /// clean [`EngineError::Durability`] errors.
    pub fn recover(
        query: CompiledQuery,
        registry: SchemaRegistry,
        config: ExecutorConfig,
    ) -> Result<Self, EngineError> {
        Self::open(query, registry, config, true)
    }

    /// The one way an executor comes to be. [`new`](Self::new) is the
    /// case with nothing on disk: the planes start empty around `query`
    /// and there is no WAL tail. With `recover` the planes are the latest
    /// checkpoint's (if there is one) and the tail is replayed into them.
    pub(super) fn open(
        query: CompiledQuery,
        registry: SchemaRegistry,
        config: ExecutorConfig,
        recover: bool,
    ) -> Result<Self, EngineError> {
        if config.shards == 0 {
            return Err(EngineError::Config("shards must be ≥ 1".into()));
        }
        // Id 0 anchors the shard count for the executor's lifetime: without
        // a `GROUP-BY` there is nothing to partition by.
        let ungrouped = query.group_by.is_empty();
        let shards = if ungrouped { 1 } else { config.shards };
        let mut log = match &config.durability {
            None if recover => {
                let why = "recover requires ExecutorConfig::durability";
                return Err(EngineError::Config(why.into()));
            }
            None => None,
            // Opening the log repairs a torn WAL tail before it is read.
            Some(dcfg) => {
                let log = Log::open(dcfg)?;
                if !recover && !log.is_empty() {
                    return Err(EngineError::Config(format!(
                        "durability dir {} already contains WAL records; \
                         use StreamExecutor::recover or a fresh directory",
                        dcfg.dir.display()
                    )));
                }
                Some(log)
            }
        };
        let (checkpoint, tail) = match &mut log {
            Some(log) if recover => log.read()?,
            _ => (None, Vec::new()),
        };
        let (ingest, mut route, mut merge, queries) = match checkpoint {
            Some(blob) => Self::decode_snapshot(&blob, &config, shards)?,
            // Nothing checkpointed (yet): empty planes around `query`.
            None => (
                Ingest::new(&config),
                Route::new(&config, shards),
                Merge::new(),
                vec![(QueryParts::fresh(0, None, config.emission), Vec::new())],
            ),
        };

        let mut per_shard: Vec<_> = (0..shards).map(|_| Vec::new()).collect();
        for (parts, saved) in queries {
            // A part without source text is the query this call was handed
            // compiled; every other one comes from recorded text.
            let query = match &parts.text {
                Some(text) => recompile(parts.id, text, &registry)?,
                None if parts.emission != config.emission => {
                    return Err(EngineError::Config(format!(
                        "emission-mode mismatch: checkpoint was taken with {:?}, \
                         config asks for {:?}",
                        parts.emission, config.emission
                    )))
                }
                None => query.clone(),
            };
            let plan = EnginePlan::new(query, registry.clone(), config.engine)?;
            let (slot, hosted) = Self::bring_up(&mut route, plan, parts, &saved)?;
            per_shard
                .iter_mut()
                .zip(hosted)
                .for_each(|(s, e)| s.push(e));
            merge.host(slot);
        }
        let worker = Worker::spawn(per_shard, &config, log.is_some())?;
        let mut exec = StreamExecutor {
            ingest,
            route,
            worker,
            merge,
        };

        // Replay the WAL tail through the path a live event takes once it
        // is logged: events flow through reorder + routing, register /
        // deregister records re-run their barriers at the original stream
        // positions. The log is attached only afterwards: a checkpoint
        // record's position in the log is its cut, so none may be appended
        // behind records the state has not reached yet.
        for rec in tail {
            match rec {
                // Under LatePolicy::Error the original push() surfaced the
                // Late error to the caller *after* logging the event, and
                // the pipeline stayed usable — mirror that here so one
                // logged-then-rejected record cannot poison recovery.
                TailRec::Event(e) => match exec.accept(e) {
                    Err(EngineError::Late { .. }) => {}
                    other => other?,
                },
                TailRec::Register { id, emission, text } => {
                    let q = recompile(id, &text, &registry)?;
                    let plan = EnginePlan::new(q, registry.clone(), config.engine)?;
                    exec.apply_register(id, text, emission, plan)?;
                }
                // Rows the live run handed back at deregistration stay in
                // the inactive slot's pending buffer — like every other
                // post-checkpoint row, the caller re-reads them via
                // poll_results_of.
                TailRec::Deregister(id) => exec.apply_deregister(id)?,
                // `Log::read` keeps only what follows the last one.
                TailRec::Checkpoint(_) => {}
            }
        }
        if let Some(log) = log {
            exec.ingest.attach_log(log);
        }
        Ok(exec)
    }
}
