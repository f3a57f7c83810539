//! Push-based, sharded, multi-query stream execution (paper §7 / §10.4
//! turned into a long-lived serving layer).
//!
//! [`StreamExecutor`] is the one pipeline behind every entry point — the
//! batch [`GretaEngine::run`] is its inline single-shard case, and the
//! [`ReorderBuffer`] is its ingest stage — and one ingest plane serves N
//! hosted queries:
//!
//! ```text
//!                 ┌────────────┐  per route group   ┌──────────────────┐
//!  push(event) ─▶ │ ReorderBuf │ ─▶ shard router ─▶ │ shard 0..N       │──┐
//!       │         │ (slack,    │    (hash of the    │ one GretaEngine  │  │ tagged
//!       ▼         │  late      │     group's key;   │ per (shard,query)│  │ result
//!  WAL append     │  policy)   │     broadcast for  └──────────────────┘  │ channel
//!  (tagged,       └────────────┘     negative types)┌──────────────────┐  │
//!   optional)           └────── watermarks ───────▶ │ shard N-1        │──┤
//!                                                   └──────────────────┘  ▼
//!                                     per-query merge ─▶ poll_results_of(q)
//! ```
//!
//! * **Ingestion** (paid once, not once per query): events may arrive out
//!   of order up to a configurable `slack`; later than that, the
//!   [`LatePolicy`] decides — drop (count), divert (keep for the caller),
//!   or error. With durability on, each event is WAL-appended exactly once
//!   no matter how many queries consume it.
//! * **Multi-query fan-out**: every hosted query is the same kind of
//!   registry slot, keyed by a [`QueryId`] and carrying its plan (what the
//!   query fixes, compiled once when it is hosted and shared by `Arc` with
//!   its shard engines), [`EmissionMode`], result buffer, and (when
//!   ordered) [`ResultMerge`]. [`new`](StreamExecutor::new) hosts the first one;
//!   further queries join at runtime via
//!   [`register_query`](StreamExecutor::register_query) and leave via
//!   [`deregister_query`](StreamExecutor::deregister_query). Queries whose
//!   `GROUP-BY` keys coincide ([`StreamRouting::routes_like`]) share one
//!   *route group*: the event is classified, hashed, and framed once for
//!   the whole set. Each shard worker hosts one [`GretaEngine`] per
//!   (shard, query).
//! * **Sharding** (§7): each `GROUP-BY` group is owned by exactly one shard
//!   worker, so per-shard results are disjoint and concatenate without
//!   merging. Events of broadcast types (negative-pattern / sub-key types)
//!   are delivered to every shard. Routing is deterministic: every query's
//!   results are independent of the shard count and byte-identical to its
//!   standalone single-query run over the same event suffix.
//! * **Batching**: events are accumulated into per-(group, shard)
//!   `Vec<EventRef>` frames ([`ExecutorConfig::batch_size`]) so channel
//!   synchronization is paid per frame, not per event, and a shard sends
//!   the rows one flush polled as one message, not one per row. Frames are
//!   flushed whenever full and at every window-close boundary, so results
//!   still stream incrementally.
//! * **Zero-copy event plane**: an event is allocated once, when it enters
//!   [`push`](StreamExecutor::push) (or arrives pre-shared via
//!   [`push_ref`](StreamExecutor::push_ref)); the reorder buffer, shard
//!   frames, the broadcast fan-out, a shard engine's broadcast replay
//!   buffer and the divert buffer hold `Arc` clones of that one
//!   allocation, and a graph vertex keeps only the attribute values its
//!   edge predicates read. A broadcast to N shards (or a fan-out to M
//!   route groups) costs pointer bumps, not deep copies. A shard hands
//!   each frame it has run back to the pushing thread, which clears it
//!   for its next frame: events are released on the thread that
//!   allocated them, as the caller polls or the stream drains.
//! * **Watermarks**: whenever the released watermark crosses any
//!   registered query's window-close boundary, buffered frames are flushed
//!   and the watermark is broadcast so shards that received no recent
//!   events still close their windows.
//! * **Barrier protocol**: checkpoint, register, and deregister all use
//!   the same cut — flush buffered frames, send a barrier message down
//!   every FIFO shard channel, wait for every shard's ack;
//!   register/deregister barriers bump
//!   [`query_epoch`](StreamExecutor::query_epoch).
//! * **Durability** (off by default): with
//!   [`ExecutorConfig::durability`] set, every pushed event is appended to
//!   a write-ahead log *before* routing (tagged records — event /
//!   register / deregister — so the query registry itself is replayable),
//!   and every `snapshot_every_windows` closed windows the executor
//!   checkpoints — each shard serializes every engine it hosts
//!   ([`GretaEngine::export_state`]), the ingest side serializes the
//!   reorder buffer and counters, every hosted query adds one identical
//!   section, the blob goes to the snapshot store, the manifest advances,
//!   and obsolete WAL segments are deleted. [`StreamExecutor::recover`]
//!   restores the latest checkpoint — every hosted query, byte-identically — and
//!   replays the WAL tail: the recovered executor emits exactly the rows
//!   an uninterrupted run would have emitted after that checkpoint (rows
//!   already emitted for earlier windows are not repeated; rows emitted
//!   between the checkpoint and the crash are re-emitted — results are
//!   deterministic, so an idempotent sink keyed on `(window, group)`
//!   yields exactly-once output).
//! * **Emission**: closed-window results flow through one bounded channel,
//!   a batch per flush of one query on one shard, tagged by query; [`poll_results_of`](StreamExecutor::poll_results_of)
//!   drains any hosted query, [`StreamExecutor::drain`] flushes the
//!   pipeline and joins the workers
//!   ([`poll_results`](StreamExecutor::poll_results) and
//!   [`finish`](StreamExecutor::finish) are the single-query shorthands
//!   for [`QueryId::PRIMARY`]). With [`EmissionMode::WindowOrdered`], a per-query
//!   cross-shard min-watermark merge ([`ResultMerge`]) makes that query's
//!   polled stream window-monotone in canonical `(window, group)` order —
//!   byte-identical to the sorted unordered output — and
//!   [`min_frontier`](StreamExecutor::min_frontier) exposes the released
//!   watermark so one executor's ordered output can feed another
//!   executor's input (cascaded DAGs; see `ARCHITECTURE.md`).
//!
//! The code follows the planes of `ARCHITECTURE.md`, one struct per
//! module, each owning its state, its counters and its snapshot section:
//! `ingest` (WAL, reorder buffer, late policy), `route` (route groups,
//! hash routing, framing), `worker` (shard channels, threads, the ack
//! ledger; the shard's own step is in `barrier`) and `merge` (the query
//! registry and its result buffers). What is left in this file is the
//! sequencing between them: an event's way through, the barrier cut, and
//! the end of the stream.

use crate::agg::TrendNum;
use crate::engine::GretaEngine;
use crate::graph::EnginePlan;
use crate::grouping::PartitionKey;
#[cfg(doc)]
use crate::grouping::StreamRouting;
#[cfg(doc)]
use crate::reorder::ReorderBuffer;
use crate::reorder::ResultMerge;
use crate::results::WindowResult;
use crate::window::WindowId;
use crate::EngineError;
use barrier::{BarrierKind, EngineSlot, Msg, QueryBlobs};
use greta_query::CompiledQuery;
use greta_types::{Event, EventRef, SchemaRegistry, Time};
use ingest::{Ingest, TailRecRef};
use merge::{Merge, QueryParts, QuerySlot};
use route::Route;
use std::sync::Arc;
use worker::Worker;

pub(crate) mod barrier;
mod config;
mod ingest;
mod merge;
mod recover;
mod route;
mod snapshot;
mod worker;

pub use config::{
    EmissionMode, ExecutorConfig, ExecutorStats, LatePolicy, QueryId, QueryStreamStats,
    WindowLateCounts,
};

/// "Every `every` closed windows of id 0, a checkpoint is owed". The
/// checkpoint is taken after the routing pass that made it due, so a cut
/// never splits a reorder release batch.
#[derive(Debug, Default)]
struct Cadence {
    /// 0 = never due.
    every: u64,
    /// Windows closed since the barrier was last taken.
    since: u64,
}

impl Cadence {
    fn new(every: Option<u64>) -> Self {
        let every = every.map_or(0, |n| n.max(1));
        Cadence { every, since: 0 }
    }

    fn note_closed(&mut self, windows: u64) {
        if self.every > 0 {
            self.since += windows;
        }
    }

    /// Whether the barrier is owed; if so it is the caller's to take, and
    /// the count restarts.
    fn take_due(&mut self) -> bool {
        let due = self.every > 0 && self.since >= self.every;
        if due {
            self.since = 0;
        }
        due
    }
}

/// The push-based, sharded, multi-query GRETA runtime. See the
/// [module docs](self).
///
/// Results are emitted per query as windows close. Rows drained by one
/// [`poll_results`](Self::poll_results) /
/// [`poll_results_of`](Self::poll_results_of) call arrive in per-shard
/// order but may interleave across shards; [`drain`](Self::drain) leaves
/// every query's remainder sorted by `(window, group)`. Sorting the
/// concatenation of all drains yields byte-identical output for any shard
/// count — for every hosted query.
pub struct StreamExecutor<N: TrendNum = f64> {
    ingest: Ingest,
    route: Route,
    worker: Worker<N>,
    merge: Merge<N>,
}

impl<N: TrendNum> StreamExecutor<N> {
    /// Spawn the shard workers and host `query` as [`QueryId::PRIMARY`]
    /// under `config`.
    ///
    /// With [`ExecutorConfig::durability`] set, the directory must be
    /// fresh: reusing a directory that already holds a manifest or WAL
    /// records is refused so that state from a previous run is never
    /// silently overwritten — use [`recover`](Self::recover) (or point at
    /// a new directory) instead.
    pub fn new(
        query: CompiledQuery,
        registry: SchemaRegistry,
        config: ExecutorConfig,
    ) -> Result<Self, EngineError> {
        Self::open(query, registry, config, false)
    }

    /// The one way a query comes to be hosted, whatever its id and
    /// whichever of `new`, `recover`, or `register_query` asks — each
    /// having compiled `plan` once, which validated its routing: build one
    /// engine per shard around it — fresh when no state was `saved` for
    /// it, imported when that was checkpointed at this shard count,
    /// repartitioned onto `route`'s otherwise — and join the route group
    /// its routing coincides with (a new one if none does). Joining is the
    /// last step, so a refused query leaves `route` untouched. Returns the
    /// registry slot and what each shard is to host for it.
    #[allow(clippy::type_complexity, reason = "a slot and its engines")]
    fn bring_up(
        route: &mut Route,
        plan: Arc<EnginePlan>,
        mut parts: QueryParts<N>,
        saved: &[Vec<u8>],
    ) -> Result<(QuerySlot<N>, Vec<EngineSlot<GretaEngine<N>>>), EngineError> {
        let shards = route.shards();
        let resharded = !saved.is_empty() && saved.len() != shards;
        let engines: Vec<GretaEngine<N>> = if saved.is_empty() {
            let fresh = |_| GretaEngine::with_plan(plan.clone());
            (0..shards).map(fresh).collect()
        } else if resharded {
            let owner = |g: &PartitionKey| plan.routing.shard_of_group_key(g, shards);
            GretaEngine::repartition_states(&plan, saved, shards, owner)?
        } else {
            let import = |bytes: &Vec<u8>| GretaEngine::import_state(plan.clone(), bytes);
            saved.iter().map(import).collect::<Result<_, _>>()?
        };
        parts.merge = match (parts.emission, parts.merge) {
            (EmissionMode::Unordered, _) => None,
            (EmissionMode::WindowOrdered, None) => Some(ResultMerge::new(shards)),
            (EmissionMode::WindowOrdered, Some(mut m)) => {
                if resharded {
                    // Fresh workers report their own frontiers; the
                    // released watermark (and buffered rows) carry over so
                    // the ordered stream resumes without repeats.
                    m.reset_for_shards(shards);
                }
                Some(m)
            }
        };
        let (id, ordered) = (parts.id, parts.merge.is_some());
        let group = route.join(&plan);
        let hosted = engines.into_iter();
        let hosted = hosted.map(|engine| EngineSlot::new(id, group, ordered, engine));
        let slot = QuerySlot {
            parts,
            group,
            plan,
            active: true,
        };
        Ok((slot, hosted.collect()))
    }

    /// Number of shard workers actually running.
    pub fn shards(&self) -> usize {
        self.worker.shards
    }

    /// Version of the query registry: bumped by every successful
    /// [`register_query`](Self::register_query) /
    /// [`deregister_query`](Self::deregister_query) barrier (0 = nothing
    /// has joined or left since [`new`](Self::new)).
    pub fn query_epoch(&self) -> u64 {
        self.merge.query_epoch
    }

    /// Ids of the currently active queries, ascending.
    pub fn query_ids(&self) -> Vec<QueryId> {
        let active = self.merge.queries.iter().filter(|s| s.active);
        active.map(|s| QueryId(s.parts.id)).collect()
    }

    /// Source text of a registered query (`None` for the query handed to
    /// [`new`](Self::new) as an already-compiled plan, and for unknown
    /// ids).
    pub fn query_text(&self, id: QueryId) -> Option<&str> {
        self.merge.slot(id.0).and_then(|s| s.parts.text.as_deref())
    }

    /// Refuse `what` once the stream has ended.
    fn refuse_if_finished(&self, what: &str) -> Result<(), EngineError> {
        if self.worker.closed() {
            return Err(EngineError::Config(format!(
                "{what} after finish() on StreamExecutor"
            )));
        }
        Ok(())
    }

    /// Register another query on this executor's ingest plane at runtime.
    ///
    /// The query is compiled from `text` against the executor's schema
    /// registry and validated first — an invalid query is rejected before
    /// anything is logged or installed. It then joins via a barrier (the
    /// same machinery as a checkpoint): buffered frames are flushed, every
    /// shard installs a fresh engine for the query under a bumped
    /// [`query_epoch`](Self::query_epoch), and FIFO channels guarantee the
    /// new engines see exactly the events released after the cut — so the
    /// query's results are byte-identical to a standalone single-query run
    /// over the same event suffix, at any shard count. If its `GROUP-BY`
    /// key plane coincides with an already-hosted query's, the two share
    /// one route group (the event is classified and hashed once for both).
    /// With durability on, the registration is WAL-logged so
    /// [`recover`](Self::recover) re-runs it at the same stream position.
    ///
    /// Results are drained per query:
    /// [`poll_results_of`](Self::poll_results_of) with the returned id.
    ///
    /// ```
    /// use greta_core::{EmissionMode, ExecutorConfig, QueryId, StreamExecutor};
    /// use greta_query::CompiledQuery;
    /// use greta_types::{EventBuilder, SchemaRegistry, Time};
    ///
    /// let mut reg = SchemaRegistry::new();
    /// reg.register_type("M", &["grp", "load"]).unwrap();
    /// let count_q = "RETURN grp, COUNT(*) PATTERN M+ WHERE M.load < NEXT(M).load \
    ///                GROUP-BY grp WITHIN 100 SLIDE 50";
    /// let q = CompiledQuery::parse(count_q, &reg).unwrap();
    /// let mut exec = StreamExecutor::<u64>::new(
    ///     q,
    ///     reg.clone(),
    ///     ExecutorConfig { shards: 2, ..Default::default() },
    /// )
    /// .unwrap();
    ///
    /// // A second query joins the shared ingest plane at runtime: same
    /// // GROUP-BY key, so routing is shared; different window shape.
    /// let id = exec
    ///     .register_query(
    ///         "RETURN grp, COUNT(*) PATTERN M+ WHERE M.load < NEXT(M).load \
    ///          GROUP-BY grp WITHIN 50 SLIDE 50",
    ///         EmissionMode::Unordered,
    ///     )
    ///     .unwrap();
    /// assert_eq!(id, QueryId(1));
    ///
    /// for t in 0..200u64 {
    ///     let e = EventBuilder::new(&reg, "M")
    ///         .unwrap()
    ///         .at(Time(t))
    ///         .set("grp", (t % 3) as i64)
    ///         .unwrap()
    ///         .set("load", ((t * 31) % 17) as f64)
    ///         .unwrap()
    ///         .build();
    ///     exec.push(e).unwrap();
    /// }
    /// exec.drain().unwrap();
    /// for q in [QueryId(0), id] {
    ///     assert!(!exec.poll_results_of(q).unwrap().is_empty());
    /// }
    /// ```
    pub fn register_query(
        &mut self,
        text: &str,
        emission: EmissionMode,
    ) -> Result<QueryId, EngineError> {
        self.refuse_if_finished("register_query")?;
        // Id 0 never leaves the registry: its plan holds the schemas and
        // the engine config every query of this executor is compiled with.
        let base = &self.merge.queries[0].plan;
        let query = CompiledQuery::parse(text, &base.registry)
            .map_err(|e| EngineError::Config(format!("query error: {e}")))?;
        // Compiling the plan validates it — before WAL-logging: an invalid
        // registration must never enter the log (replay would fail at the
        // same spot forever).
        let plan = EnginePlan::new(query, base.registry.clone(), base.config)?;
        let id = self.merge.next_query_id;
        self.ingest
            .log(TailRecRef::Register { id, emission, text })?;
        self.apply_register(id, text.to_string(), emission, plan)?;
        Ok(QueryId(id))
    }

    /// Host a registered query (shared by `register_query` and WAL
    /// replay — the latter must not re-append to the log): bring it up,
    /// then hand every shard its engine at a barrier. Buffered frames are
    /// flushed first and channels are FIFO, so the new engines see exactly
    /// the events released after the cut.
    fn apply_register(
        &mut self,
        id: u32,
        text: String,
        emission: EmissionMode,
        plan: Arc<EnginePlan>,
    ) -> Result<(), EngineError> {
        let parts = QueryParts::fresh(id, Some(text), emission);
        let (slot, hosted) = Self::bring_up(&mut self.route, plan, parts, &[])?;
        let mut hosted = hosted.into_iter();
        self.cut(|_| BarrierKind::Add(Box::new(hosted.next().expect("one per shard"))))?;
        self.merge.host(slot);
        self.merge.query_epoch += 1;
        Ok(())
    }

    /// Remove a registered query from the executor and return its
    /// remaining rows.
    ///
    /// The removal is a barrier: buffered frames are flushed, every shard
    /// finishes the query's engine (closing its open windows and emitting
    /// their rows), and the registry drops the query under a bumped
    /// [`query_epoch`](Self::query_epoch). The returned rows are the
    /// query's not-yet-polled remainder in canonical `(window, group)`
    /// order — together with everything previously drained via
    /// [`poll_results_of`](Self::poll_results_of) they are byte-identical
    /// to a standalone run of the query over the same events, ended at the
    /// deregistration point. [`QueryId::PRIMARY`] cannot be deregistered —
    /// it anchors the shard count, the checkpoint cadence and the late
    /// ledger; [`drain`](Self::drain) stops the stream. With durability
    /// on, the removal is WAL-logged so [`recover`](Self::recover) re-runs
    /// it at the same stream position.
    ///
    /// ```
    /// use greta_core::{EmissionMode, ExecutorConfig, QueryId, StreamExecutor};
    /// use greta_query::CompiledQuery;
    /// use greta_types::{EventBuilder, SchemaRegistry, Time};
    ///
    /// let mut reg = SchemaRegistry::new();
    /// reg.register_type("M", &["grp", "load"]).unwrap();
    /// let text = "RETURN grp, COUNT(*) PATTERN M+ WHERE M.load < NEXT(M).load \
    ///             GROUP-BY grp WITHIN 100 SLIDE 50";
    /// let q = CompiledQuery::parse(text, &reg).unwrap();
    /// let mut exec = StreamExecutor::<u64>::new(
    ///     q,
    ///     reg.clone(),
    ///     ExecutorConfig { shards: 2, ..Default::default() },
    /// )
    /// .unwrap();
    /// let id = exec.register_query(text, EmissionMode::Unordered).unwrap();
    /// for t in 0..120u64 {
    ///     let e = EventBuilder::new(&reg, "M")
    ///         .unwrap()
    ///         .at(Time(t))
    ///         .set("grp", (t % 3) as i64)
    ///         .unwrap()
    ///         .set("load", ((t * 31) % 17) as f64)
    ///         .unwrap()
    ///         .build();
    ///     exec.push(e).unwrap();
    /// }
    /// // Mid-stream removal: open windows close, remaining rows come back.
    /// let rows = exec.deregister_query(id).unwrap();
    /// assert!(!rows.is_empty());
    /// assert!(!exec.query_ids().contains(&id));
    /// exec.finish().unwrap();
    /// ```
    pub fn deregister_query(&mut self, id: QueryId) -> Result<Vec<WindowResult<N>>, EngineError> {
        self.refuse_if_finished("deregister_query")?;
        self.deregister_guard(id.0)?;
        self.ingest.log(TailRecRef::Deregister(id.0))?;
        self.apply_deregister(id.0)?;
        self.poll_results_of(id)
    }

    /// Only an active query other than id 0 can leave: id 0 anchors the
    /// shard count, the checkpoint cadence and the late ledger.
    fn deregister_guard(&self, id: u32) -> Result<(), EngineError> {
        if id == QueryId::PRIMARY.0 {
            return Err(EngineError::Config(
                "q0 cannot be deregistered; drain() the executor instead".into(),
            ));
        }
        match self.merge.slot(id) {
            None => Err(EngineError::Config(format!("unknown query q{id}"))),
            Some(s) if !s.active => Err(EngineError::Config(format!(
                "query q{id} is already deregistered"
            ))),
            Some(_) => Ok(()),
        }
    }

    /// Tear down a registered query (shared by `deregister_query` and WAL
    /// replay). The slot stays, inactive, with its remaining rows in
    /// `pending` — canonical order either way (the ordered merge releases
    /// canonically; unordered remainders are sorted here).
    fn apply_deregister(&mut self, id: u32) -> Result<(), EngineError> {
        self.deregister_guard(id)?;
        self.cut(|_| BarrierKind::Remove(id))?;
        let slot = self.merge.slot_mut(id).expect("slot checked by the guard");
        slot.active = false;
        slot.close_remainder();
        self.route.leave(slot.group);
        self.merge.query_epoch += 1;
        Ok(())
    }

    /// Offer one event. Events may arrive out of order within the
    /// configured slack; beyond it the [`LatePolicy`] applies. With
    /// durability on, the event is WAL-logged before anything else — once,
    /// no matter how many queries are registered. When a shard's input
    /// queue is full, the call drains ready results into the per-query
    /// buffers while it waits (so a caller that never polls cannot
    /// deadlock the pipeline) and returns once the event is queued.
    pub fn push(&mut self, e: Event) -> Result<(), EngineError> {
        self.push_ref(e.into_ref())
    }

    /// [`push`](Self::push) without the allocation: the caller hands over a
    /// shared event, and the executor never copies the payload again — the
    /// reorder buffer, shard frames, broadcast fan-out and a broadcast
    /// type's replay buffers hold clones of this `Arc`; graph vertices copy
    /// only the attribute values their edge predicates read. The
    /// executor's clones are dropped on this thread, as spent frames come
    /// back to [`poll_results_of`](Self::poll_results_of) or the next
    /// frame; once [`drain`](Self::drain) has returned it holds none but
    /// the events it diverted.
    pub fn push_ref(&mut self, e: EventRef) -> Result<(), EngineError> {
        self.refuse_if_finished("push")?;
        self.ingest.log(TailRecRef::Event(&e))?;
        self.accept(e)
    }

    /// One event's way through the planes, once it is logged (WAL replay
    /// enters here): ingest reorders it, route frames whatever that
    /// released and broadcasts the watermarks it crossed, and the
    /// checkpoint the closed windows made due is taken.
    fn accept(&mut self, e: EventRef) -> Result<(), EngineError> {
        let released = self.ingest.admit(e)?;
        let closed = self
            .route
            .route_all(released, &mut self.worker, &mut self.merge)?;
        self.ingest.checkpoint_every.note_closed(closed);
        if self.ingest.checkpoint_every.take_due() {
            self.checkpoint()?;
        }
        Ok(())
    }

    /// [`poll_results_of`](Self::poll_results_of)`(`[`QueryId::PRIMARY`]`)` —
    /// the single-query shorthand.
    pub fn poll_results(&mut self) -> Vec<WindowResult<N>> {
        self.poll_results_of(QueryId::PRIMARY)
            .expect("id 0 never leaves the registry, and acks arrive only inside a cut")
    }

    /// Drain every result row query `id` emitted so far, without
    /// blocking. Windows are emitted as the watermark passes their end, so
    /// results stream while events are still being pushed. Under
    /// [`EmissionMode::WindowOrdered`] the drained rows are
    /// window-monotone in canonical `(window, group)` order, across calls:
    /// concatenating every drain with the post-[`drain`](Self::drain)
    /// remainder reproduces the sorted unordered output byte for byte.
    /// Rows of a deregistered query remain pollable here — including
    /// after [`recover`](Self::recover) replayed the deregistration.
    /// Errors on an id this executor never hosted.
    pub fn poll_results_of(&mut self, id: QueryId) -> Result<Vec<WindowResult<N>>, EngineError> {
        self.worker.drain_ready(&mut self.merge)?;
        let slot = self
            .merge
            .slot_mut(id.0)
            .ok_or_else(|| EngineError::Config(format!("unknown query {id}")))?;
        Ok(std::mem::take(&mut slot.parts.pending))
    }

    /// The released watermark of query `id`'s ordered merge: the smallest
    /// emission frontier across its shard engines. Windows strictly below
    /// it have been fully released in canonical order — everything below
    /// is final, which is exactly the progress signal a cascaded
    /// downstream executor (or any exactly-once sink) needs before it
    /// consumes the query's output as its own input. See
    /// `examples/cascade.rs` for the wiring. Errors unless the query runs
    /// under [`EmissionMode::WindowOrdered`].
    ///
    /// ```
    /// use greta_core::{EmissionMode, ExecutorConfig, QueryId, StreamExecutor};
    /// use greta_query::CompiledQuery;
    /// use greta_types::{EventBuilder, SchemaRegistry, Time};
    ///
    /// let mut reg = SchemaRegistry::new();
    /// reg.register_type("M", &["grp", "load"]).unwrap();
    /// let q = CompiledQuery::parse(
    ///     "RETURN grp, COUNT(*) PATTERN M+ WHERE M.load < NEXT(M).load \
    ///      GROUP-BY grp WITHIN 100 SLIDE 50",
    ///     &reg,
    /// )
    /// .unwrap();
    /// let mut exec = StreamExecutor::<u64>::new(
    ///     q,
    ///     reg.clone(),
    ///     ExecutorConfig {
    ///         shards: 2,
    ///         emission: EmissionMode::WindowOrdered,
    ///         ..Default::default()
    ///     },
    /// )
    /// .unwrap();
    /// for t in 0..300u64 {
    ///     let e = EventBuilder::new(&reg, "M")
    ///         .unwrap()
    ///         .at(Time(t))
    ///         .set("grp", (t % 3) as i64)
    ///         .unwrap()
    ///         .set("load", ((t * 31) % 17) as f64)
    ///         .unwrap()
    ///         .build();
    ///     exec.push(e).unwrap();
    /// }
    /// // Frontier stamps travel on the result channel; poll until the
    /// // workers' watermark round trip lands. Every window below the
    /// // frontier is final: safe to hand to a downstream executor.
    /// let mut frontier = exec.min_frontier(QueryId::PRIMARY).unwrap();
    /// while frontier == 0 {
    ///     let _rows = exec.poll_results();
    ///     frontier = exec.min_frontier(QueryId::PRIMARY).unwrap();
    /// }
    /// exec.finish().unwrap();
    /// ```
    pub fn min_frontier(&self, id: QueryId) -> Result<WindowId, EngineError> {
        let slot = self
            .merge
            .slot(id.0)
            .ok_or_else(|| EngineError::Config(format!("unknown query {id}")))?;
        match &slot.parts.merge {
            Some(m) => Ok(m.min_frontier()),
            None => Err(EngineError::Config(format!(
                "min_frontier requires EmissionMode::WindowOrdered (query {id} is unordered)"
            ))),
        }
    }

    /// [`drain`](Self::drain), then
    /// [`poll_results_of`](Self::poll_results_of)`(`[`QueryId::PRIMARY`]`)` —
    /// the single-query shorthand for ending a stream.
    pub fn finish(&mut self) -> Result<Vec<WindowResult<N>>, EngineError> {
        self.drain()?;
        self.poll_results_of(QueryId::PRIMARY)
    }

    /// End of stream: stop accepting input, flush the reorder buffer,
    /// close all remaining windows of every hosted query (flushing each
    /// ordered merge), take a terminal checkpoint (durability on), and
    /// join the workers — without consuming `self`. Every query's
    /// remaining rows are left in canonical `(window, group)` order for
    /// [`poll_results_of`](Self::poll_results_of) (under
    /// [`EmissionMode::WindowOrdered`] they come straight off the merge,
    /// already ordered; an unordered backlog is sorted here), and
    /// [`stats`](Self::stats) and [`take_diverted`](Self::take_diverted)
    /// stay readable. Idempotent.
    ///
    /// With durability on, the terminal checkpoint is taken *after* every
    /// window closed and records every row as delivered — the remainders
    /// are handed over by this call: [`recover`](Self::recover) from the
    /// same directory resumes with the full history in its counters and
    /// nothing to re-emit (regression-tested).
    pub fn drain(&mut self) -> Result<(), EngineError> {
        if self.worker.closed() {
            return Ok(());
        }
        let tail = self.ingest.flush();
        let routed = self
            .route
            .route_all(&tail, &mut self.worker, &mut self.merge)
            .and_then(|_| {
                self.route
                    .flush_all_batches(&mut self.worker, &mut self.merge)
            });
        // Close the inputs regardless, so workers always terminate, and
        // absorb concurrently with their final flush.
        let failed = self.worker.finish(&mut self.merge);
        for slot in &mut self.merge.queries {
            slot.close_remainder();
        }
        let final_states = std::mem::take(&mut self.worker.ended.final_states);
        let mut first_err = routed.err().or(failed);
        if first_err.is_none() && self.ingest.durable() && final_states.len() == self.worker.shards
        {
            // Terminal checkpoint *after* the workers closed every window:
            // a graceful shutdown leaves a truncated log and a snapshot
            // from which recovery resumes with nothing to re-emit.
            first_err = self.persist_snapshot(&final_states, true).err();
        }
        first_err.map_or(Ok(()), Err)
    }

    /// Executor counters. Engine aggregates and peak memory are only
    /// populated once [`finish`](Self::finish) has run; channel occupancy
    /// is sampled at the moment of the call. Per-query stream counters are
    /// in [`ExecutorStats::queries`].
    pub fn stats(&self) -> ExecutorStats {
        let mut s = ExecutorStats::default();
        self.ingest.fill_stats(&mut s);
        self.route.fill_stats(&mut s);
        self.worker.fill_stats(&mut s);
        self.merge.fill_stats(&mut s);
        s
    }

    /// Highest time stamp released from the reorder buffer so far (the
    /// ingest watermark): any event pushed with a smaller stamp is late.
    /// `None` until the first release.
    pub fn watermark(&self) -> Option<Time> {
        self.ingest.watermark()
    }

    /// Number of records appended to the WAL so far (events plus
    /// register/deregister records). Appended is not yet durable under
    /// [`greta_durability::FsyncPolicy`]s that buffer between syncs — use
    /// [`sync_wal`](Self::sync_wal) for the watermark an ingest
    /// acknowledgement can carry. `None` without durability.
    pub fn durable_index(&self) -> Option<u64> {
        self.ingest.durable_index()
    }

    /// Flush and fsync the WAL, then return the durable record index:
    /// every event whose `push` returned before the call is now
    /// recoverable by [`recover`](Self::recover) regardless of the
    /// configured [`greta_durability::FsyncPolicy`]. This is the
    /// group-commit point a
    /// server acknowledges a batch at. `Ok(None)` without durability.
    pub fn sync_wal(&mut self) -> Result<Option<u64>, EngineError> {
        self.ingest.sync_wal()
    }

    /// Take the events diverted under [`LatePolicy::Divert`] so far.
    pub fn take_diverted(&mut self) -> Vec<EventRef> {
        self.ingest.take_diverted()
    }

    /// Force a checkpoint now (durability must be configured): flush all
    /// frames, barrier-snapshot every hosted engine, persist the blob
    /// (query registry included), advance the manifest, and drop WAL
    /// segments and snapshots it made obsolete.
    ///
    /// Output-commit contract: rows already polled before the checkpoint
    /// are *not* in the snapshot and will never be re-emitted; rows not
    /// yet polled are carried inside the snapshot and re-delivered by the
    /// recovered executor. Rows polled *after* the last checkpoint are
    /// re-emitted on recovery — results are deterministic, so a sink
    /// keyed on `(window, group)` deduplicates them into exactly-once.
    pub fn checkpoint(&mut self) -> Result<(), EngineError> {
        if !self.ingest.durable() {
            return Err(EngineError::Config(
                "checkpoint requires ExecutorConfig::durability".into(),
            ));
        }
        self.refuse_if_finished("checkpoint")?;
        self.ingest.checkpoint_every.since = 0;
        let per_shard = self.cut(|_| BarrierKind::Export)?;
        self.persist_snapshot(&per_shard, false)
    }

    /// The one barrier. Flush every route group's buffered frames, send
    /// `kind_for(shard)` down every shard channel, absorb the result
    /// channel until every shard has acked, and return the acks' blobs by
    /// shard. Channels are FIFO, so a shard takes the barrier after exactly
    /// the frames routed before this call, and its rows from those frames
    /// are absorbed before its ack: on return the stream is cut at
    /// `stats.pushed` — no event is between the router and an engine, no
    /// row between an engine and its query's buffer (events still in the
    /// reorder buffer live on the ingest side). Checkpoint, register and
    /// deregister differ only in the [`BarrierKind`].
    ///
    /// [`barrier::worker_step`] is the shard's side, and the
    /// model checker in `barrier`'s tests drives that function and the
    /// [`barrier::Cut`] ledger through every interleaving, checking that
    /// all shards cut at the same sequence, no row crosses a barrier, and
    /// remainders are delivered exactly once.
    fn cut(
        &mut self,
        mut kind_for: impl FnMut(usize) -> BarrierKind<GretaEngine<N>>,
    ) -> Result<Vec<QueryBlobs>, EngineError> {
        self.route
            .flush_all_batches(&mut self.worker, &mut self.merge)?;
        self.worker.cut.open();
        for i in 0..self.worker.shards {
            let kind = kind_for(i);
            self.worker
                .send(i, Msg::Barrier { kind }, &mut self.merge)?;
        }
        self.worker.wait_acks(&mut self.merge)
    }
}

impl<N: TrendNum> Drop for StreamExecutor<N> {
    fn drop(&mut self) {
        // Dropped mid-stream: close the inputs and reap the workers; their
        // rows, and any error, go nowhere. (With durability on, the WAL
        // flushes via its own Drop — a subsequent `recover` replays it.)
        if !self.worker.closed() {
            self.worker.finish(&mut self.merge);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use greta_durability::DurabilityConfig;
    use greta_types::Value;

    #[test]
    fn one_plan_per_hosted_query_shared_by_its_slot_group_and_engines() {
        // A hosted query is compiled once: its registry slot, the route
        // group it founded and its shard engines hold the same
        // `Arc<EnginePlan>`, so the count is `shards + 1` (+1 for a
        // founder) — after bring-up, after a registration and after a
        // recovery onto another shard count. A second compilation anywhere
        // would show up as a plan with fewer holders.
        let mut reg = SchemaRegistry::new();
        let m = reg.register_type("M", &["grp", "host", "load"]).unwrap();
        let by_grp = "RETURN grp, COUNT(*) PATTERN M+ GROUP-BY grp WITHIN 20 SLIDE 10";
        let by_host = "RETURN host, COUNT(*) PATTERN M+ GROUP-BY host WITHIN 20 SLIDE 20";
        let q0 = CompiledQuery::parse(by_grp, &reg).unwrap();
        let dir = std::env::temp_dir().join(format!("greta-one-plan-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let config = |shards| ExecutorConfig {
            shards,
            durability: Some(DurabilityConfig::new(&dir)),
            ..Default::default()
        };
        let holders = |exec: &StreamExecutor<u64>| -> Vec<usize> {
            let plans = exec.merge.queries.iter().map(|s| &s.plan);
            plans.map(Arc::strong_count).collect()
        };

        let mut exec = StreamExecutor::<u64>::new(q0.clone(), reg.clone(), config(3)).unwrap();
        assert_eq!(holders(&exec), [3 + 2]);
        // Same key plane: joins group 0. Another key plane: founds group 1.
        exec.register_query(by_grp, EmissionMode::Unordered)
            .unwrap();
        exec.register_query(by_host, EmissionMode::WindowOrdered)
            .unwrap();
        assert_eq!(holders(&exec), [3 + 2, 3 + 1, 3 + 2]);

        let ev = |t: u64| {
            let attrs = vec![
                Value::Int((t % 7) as i64),
                Value::Int((t % 5) as i64),
                Value::Float(t as f64),
            ];
            Event::new_unchecked(m, Time(t), attrs)
        };
        for t in 0..80 {
            exec.push(ev(t)).unwrap();
        }
        exec.checkpoint().unwrap();
        drop(exec);
        let mut exec = StreamExecutor::<u64>::recover(q0, reg, config(2)).unwrap();
        assert_eq!(exec.shards(), 2);
        assert_eq!(holders(&exec), [2 + 2, 2 + 1, 2 + 2]);
        for t in 80..120 {
            exec.push(ev(t)).unwrap();
        }
        exec.drain().unwrap();
        for id in exec.query_ids() {
            assert!(!exec.poll_results_of(id).unwrap().is_empty());
        }
        // The engines went with the workers.
        assert_eq!(holders(&exec), [2, 1, 2]);
        let _ = std::fs::remove_dir_all(&dir);
    }
}
