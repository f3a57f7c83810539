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
//!   registry slot, keyed by a [`QueryId`] and carrying its own compiled
//!   plan, [`EmissionMode`], result buffer, and (when ordered)
//!   [`ResultMerge`]. [`new`](StreamExecutor::new) hosts the first one;
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
//!   synchronization is paid per frame, not per event. Frames are flushed
//!   whenever full and at every window-close boundary, so results still
//!   stream incrementally.
//! * **Zero-copy event plane**: an event is allocated once, when it enters
//!   [`push`](StreamExecutor::push) (or arrives pre-shared via
//!   [`push_ref`](StreamExecutor::push_ref)); everything downstream — the
//!   reorder buffer, shard frames, the broadcast fan-out, graph vertices,
//!   the divert buffer — holds `Arc` clones of that one allocation. A
//!   broadcast to N shards (or a fan-out to M route groups) costs pointer
//!   bumps, not deep copies.
//! * **Watermarks**: whenever the released watermark crosses any
//!   registered query's window-close boundary, buffered frames are flushed
//!   and the watermark is broadcast so shards that received no recent
//!   events still close their windows.
//! * **Barrier protocol**: checkpoint, rebalance, register, and deregister
//!   all use the same cut — flush buffered frames, send a barrier message
//!   down every FIFO shard channel, install the change under a bumped
//!   epoch. Coinciding rebalance + checkpoint barriers fuse into one
//!   drain; register/deregister barriers bump
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
//!   tagged by query; [`poll_results_of`](StreamExecutor::poll_results_of)
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

use crate::agg::TrendNum;
use crate::engine::{EngineConfig, EngineStats, GretaEngine};
use crate::grouping::{group_key_hash, shard_of_hash, PartitionKey, RoutingTable, StreamRouting};
use crate::reorder::{ReorderBuffer, ResultMerge};
use crate::results::{sort_canonical, WindowResult};
use crate::sketch::GroupSketch;
use crate::window::WindowId;
use crate::EngineError;
use crate::MemoryFootprint;
use barrier::{worker_finish, worker_step, BarrierKind, Cut, EngineSlot, Msg, OutMsg, QueryBlobs};
use crossbeam::channel::{self, Receiver, Sender, TrySendError};
use greta_durability::{DurabilityConfig, Manifest, SnapshotStore, Wal};
use greta_query::CompiledQuery;
use greta_types::codec::{put_str, put_u32, Reader};
use greta_types::{CodecError, Event, EventRef, GroupStats, SchemaRegistry, Time};
use snapshot::QueryParts;
use std::collections::{BTreeMap, HashMap};
use std::thread::JoinHandle;

pub(crate) mod barrier;
mod recover;
mod snapshot;

/// What to do with an event that arrives later than the reorder slack
/// allows.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum LatePolicy {
    /// Silently drop the event (counted in [`ExecutorStats::late_dropped`]).
    #[default]
    Drop,
    /// Keep the event for the caller ([`StreamExecutor::take_diverted`]) —
    /// e.g. to route into a correction stream.
    Divert,
    /// Fail the `push` with [`EngineError::Late`].
    Error,
}

/// Ordering guarantee of one query's result stream.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum EmissionMode {
    /// Rows stream out as shards close windows: per-shard order, arbitrary
    /// interleaving across shards. Lowest latency; sort the concatenation
    /// of all drains (or rely on [`finish`](StreamExecutor::finish), which
    /// sorts its remainder) for the canonical order.
    #[default]
    Unordered,
    /// Rows stream out **window-monotone** in canonical `(window, group)`
    /// order: a cross-shard min-watermark merge
    /// ([`ResultMerge`]) holds each window's
    /// rows until every shard's emission frontier has passed it. Buffering
    /// is bounded by the number of open windows; the concatenation of all
    /// [`poll_results`](StreamExecutor::poll_results) drains plus the
    /// [`finish`](StreamExecutor::finish) remainder is byte-identical to
    /// the sorted `Unordered` output, with no sort-at-finish. Latency cost:
    /// a window's rows wait for the slowest shard to pass it (at most one
    /// window-close boundary behind `Unordered`).
    WindowOrdered,
}

/// Knobs of the executor's skew detector (dynamic shard rebalancing).
///
/// Real trend workloads are hot-key skewed: one hot sector/segment can pin
/// a single shard while the rest idle, capping throughput no matter how
/// many shards exist (the paper's §10.4 scaling model assumes uniform
/// groups). With rebalancing on, the executor counts routed events per
/// `GROUP-BY` group and, every `check_every_windows` closed windows,
/// compares the most-loaded shard against the mean. On imbalance it plans
/// a greedy longest-processing-time reassignment of the observed groups
/// and migrates state at a window-close barrier — results stay
/// byte-identical to any static assignment. The detector watches the
/// first route group (the one [`QueryId::PRIMARY`] routes through);
/// queries that share it migrate with it, queries with their own key stay
/// on the static hash.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RebalanceConfig {
    /// Run the skew check every this many closed windows.
    pub check_every_windows: u64,
    /// Trigger when `max shard load ≥ imbalance_ratio × mean shard load`
    /// (values ≤ 1.0 behave like 1.0; 2.0 means "one shard does double its
    /// fair share").
    pub imbalance_ratio: f64,
    /// Skip the migration when fewer than this many groups would move
    /// (suppresses churn from marginal plans).
    pub min_moves: usize,
}

impl Default for RebalanceConfig {
    fn default() -> Self {
        RebalanceConfig {
            check_every_windows: 4,
            imbalance_ratio: 2.0,
            min_moves: 1,
        }
    }
}

/// Tuning knobs for [`StreamExecutor`].
#[derive(Debug, Clone)]
pub struct ExecutorConfig {
    /// Shard workers. Clamped to 1 when the query passed to
    /// [`new`](StreamExecutor::new) has no `GROUP-BY` (nothing to
    /// partition by — the paper's scaling model). Must be ≥ 1.
    pub shards: usize,
    /// Reorder slack in ticks: events may arrive up to this much behind the
    /// maximum time stamp seen and still be processed in order.
    pub slack: u64,
    /// Policy for events later than `slack`.
    pub late_policy: LatePolicy,
    /// Per-shard input queue capacity (frames; backpressure beyond it).
    pub channel_capacity: usize,
    /// Result channel capacity (rows; callers that never poll get
    /// backpressure once this many rows are waiting).
    pub result_capacity: usize,
    /// Events accumulated per (route group, shard) before a frame is sent
    /// (1 = a frame per event, the pre-batching behaviour). Frames are
    /// also flushed at every window-close boundary, so results never wait
    /// on a lazy batch.
    pub batch_size: usize,
    /// Configuration for the per-shard engines (every hosted query's).
    pub engine: EngineConfig,
    /// Write-ahead log + snapshot configuration; `None` (the default) runs
    /// without any persistence.
    pub durability: Option<DurabilityConfig>,
    /// Dynamic shard rebalancing for skewed groups; `None` (the default)
    /// keeps the static hash assignment.
    pub rebalance: Option<RebalanceConfig>,
    /// Result-stream ordering guarantee of the query passed to
    /// [`new`](StreamExecutor::new) (default: [`EmissionMode::Unordered`]);
    /// registered queries pick theirs at
    /// [`register_query`](StreamExecutor::register_query) time.
    pub emission: EmissionMode,
    /// Maximum groups tracked in [`ExecutorStats::group_stats`] (top-K +
    /// decayed-counter sketch; `0` = unbounded exact counting). Bounds the
    /// skew detector's memory on high-cardinality `GROUP-BY` streams.
    pub group_stats_capacity: usize,
}

impl Default for ExecutorConfig {
    fn default() -> Self {
        ExecutorConfig {
            shards: std::thread::available_parallelism()
                .map(|n| n.get())
                .unwrap_or(1),
            slack: 0,
            late_policy: LatePolicy::Drop,
            channel_capacity: 4096,
            result_capacity: 1 << 16,
            batch_size: 64,
            engine: EngineConfig::default(),
            durability: None,
            rebalance: None,
            emission: EmissionMode::default(),
            group_stats_capacity: 1024,
        }
    }
}

/// Identifier of one query hosted by a [`StreamExecutor`].
///
/// [`StreamExecutor::new`] assigns [`QueryId::PRIMARY`]; every
/// [`register_query`](StreamExecutor::register_query) call allocates the
/// next id. Ids are never reused within one executor (or across its
/// recoveries — the counter is checkpointed and WAL-replayed).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Default)]
pub struct QueryId(pub u32);

impl QueryId {
    /// The id [`StreamExecutor::new`] assigns.
    pub const PRIMARY: QueryId = QueryId(0);
}

impl std::fmt::Display for QueryId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "q{}", self.0)
    }
}

/// Per-query counters inside [`ExecutorStats::queries`].
#[derive(Debug, Clone, Default)]
pub struct QueryStreamStats {
    /// The query's id.
    pub id: QueryId,
    /// Rows produced for this query's caller so far (drained or waiting).
    pub rows: u64,
    /// Rows currently buffered for
    /// [`poll_results_of`](StreamExecutor::poll_results_of).
    pub pending_rows: usize,
    /// Ordered-merge released watermark: windows strictly below this id
    /// have been fully released in canonical order (0 under
    /// [`EmissionMode::Unordered`]). This is the progress signal a
    /// downstream consumer — a cascaded executor DAG, a network
    /// subscription — can rely on: everything below it is final.
    pub released_to: WindowId,
    /// Minimum cross-shard emission frontier — the window id every shard
    /// has passed (0 under [`EmissionMode::Unordered`]).
    pub min_frontier: WindowId,
    /// Per-shard ordered-merge frontier lag: how many windows each
    /// shard's emission frontier trails the *most advanced* shard's. A
    /// persistently laggy entry is the shard holding the ordered stream
    /// back (rows of windows between the frontiers are parked in the
    /// merge). Empty under [`EmissionMode::Unordered`].
    pub frontier_lag: Vec<u64>,
    /// Rows parked in the ordered merge waiting for slow shards (bounded
    /// by open windows × groups). 0 under [`EmissionMode::Unordered`].
    pub buffered_rows: usize,
    /// Index of the route group this query's events are framed for.
    /// Queries with the same value share one `GROUP-BY` key plane — one
    /// classification and hash per event serves them all; group 0 is the
    /// one skew rebalancing migrates.
    pub route_group: u32,
    /// False once the query has been deregistered (its drained rows may
    /// still be pollable).
    pub active: bool,
}

/// Late-event counters of one window (backpressure / data-quality metric:
/// which windows lost input).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct WindowLateCounts {
    /// The latest window that would have contained the late event
    /// (`⌊t / slide⌋`, under [`QueryId::PRIMARY`]'s slide).
    pub window: WindowId,
    /// Events dropped under [`LatePolicy::Drop`].
    pub dropped: u64,
    /// Events kept under [`LatePolicy::Divert`].
    pub diverted: u64,
}

/// Executor counters.
#[derive(Debug, Clone, Default)]
pub struct ExecutorStats {
    /// Events offered to [`StreamExecutor::push`].
    pub pushed: u64,
    /// Events released (in order) to the shards.
    pub released: u64,
    /// Late events dropped under [`LatePolicy::Drop`].
    pub late_dropped: u64,
    /// Late events kept under [`LatePolicy::Divert`].
    pub late_diverted: u64,
    /// Events delivered to every shard of route group 0 (broadcast
    /// types).
    pub broadcasts: u64,
    /// Watermark messages broadcast to the shards.
    pub watermarks: u64,
    /// `Vec<EventRef>` frames sent to shard queues (all route groups).
    pub frames: u64,
    /// Durability checkpoints completed.
    pub checkpoints: u64,
    /// Barrier snapshots taken across the shard workers (checkpoint cuts
    /// and migration cuts; a fused rebalance + checkpoint barrier counts
    /// once).
    pub barrier_snapshots: u64,
    /// Coinciding rebalance + checkpoint barriers served by one fused
    /// snapshot (each saved a full extra barrier drain).
    pub fused_barriers: u64,
    /// Barrier migrations performed by the skew detector.
    pub rebalances: u64,
    /// Groups whose shard assignment changed across all rebalances.
    pub groups_moved: u64,
    /// Version of the group → shard routing table (0 = the static hash
    /// assignment, bumped by every rebalance / resharded recovery).
    pub routing_epoch: u64,
    /// Version of the query registry: bumped by every successful
    /// [`register_query`](StreamExecutor::register_query) /
    /// [`deregister_query`](StreamExecutor::deregister_query) barrier.
    pub query_epoch: u64,
    /// Per-query stream counters, ascending by [`QueryId`] — one entry per
    /// hosted query, deregistered ones included (marked inactive).
    pub queries: Vec<QueryStreamStats>,
    /// Per-group load counters, sorted by group key: events are counted at
    /// routing time (only when [`ExecutorConfig::rebalance`] is set — this
    /// is the skew detector's signal), live graph vertices are filled in by
    /// [`finish`](StreamExecutor::finish) from the shard engines. Bounded
    /// to the [`ExecutorConfig::group_stats_capacity`] heaviest groups
    /// (space-saving sketch: counts of tracked groups never under-estimate,
    /// light groups may be evicted on high-cardinality streams).
    pub group_stats: Vec<(PartitionKey, GroupStats)>,
    /// Events delivered per shard by route group 0 (broadcasts count
    /// once per shard): the load-balance picture. On a skewed stream
    /// the pre-rebalance max of this vector is the parallel-throughput
    /// bottleneck; a successful migration flattens it.
    pub events_per_shard: Vec<u64>,
    /// Late drops/diverts per window, ascending by window id.
    pub late_by_window: Vec<WindowLateCounts>,
    /// Frames queued per shard input channel when
    /// [`stats`](StreamExecutor::stats) was called (empty after `finish`).
    pub channel_occupancy: Vec<usize>,
    /// Highest shard-queue occupancy (frames) observed at any flush.
    pub max_channel_occupancy: usize,
    /// Rows waiting in the result channel when
    /// [`stats`](StreamExecutor::stats) was called.
    pub result_occupancy: usize,
    /// Aggregated per-shard engine counters, summed over every hosted
    /// query's engines (populated by `finish`).
    pub engine: EngineStats,
    /// Summed per-shard peak memory in bytes (populated by `finish`).
    pub peak_memory_bytes: usize,
}

struct WorkerReport {
    stats: EngineStats,
    peak_bytes: usize,
    /// Live graph vertices per group of id 0's engine (skew reporting
    /// covers the rebalanced route group).
    group_vertices: Vec<(PartitionKey, u64)>,
    /// Post-`finish` engine states per hosted query, exported when
    /// durability is on so the terminal checkpoint reflects a
    /// fully-closed stream.
    final_states: Option<QueryBlobs>,
}

/// Durability runtime: open WAL + snapshot store + checkpoint bookkeeping.
struct DurabilityState {
    config: DurabilityConfig,
    wal: Wal,
    snapshots: SnapshotStore,
    /// Epoch of the last written snapshot (0 = none yet).
    epoch: u64,
    /// Reused WAL-record encode buffer.
    record_buf: Vec<u8>,
}

/// WAL record tags (first byte of every record since WAL format 2 — the
/// multi-query registry). `replay` dispatches on them; an event record is
/// the tag followed by the plain event encoding.
const WAL_EVENT: u8 = 0;
/// `[tag, u32 query id, u8 emission, str query text]`.
const WAL_REGISTER: u8 = 1;
/// `[tag, u32 query id]`.
const WAL_DEREGISTER: u8 = 2;

/// One hosted query: its plan, result shaping, and caller-facing buffers.
struct QuerySlot<N: TrendNum> {
    id: u32,
    /// Source text; `None` for the query `new`/`recover` were handed as
    /// an already-compiled plan. Registered queries always carry it — it
    /// is what WAL replay and snapshots recompile from.
    text: Option<String>,
    /// Plan + schemas, kept to rebuild shard engines during barrier
    /// migrations and resharded recovery.
    query: CompiledQuery,
    emission: EmissionMode,
    /// Index into the executor's route groups.
    group: u32,
    /// Rows ready for this query's caller: under unordered emission,
    /// whatever was drained off the result channel; under
    /// [`EmissionMode::WindowOrdered`], rows the merge released — in
    /// canonical order.
    pending: Vec<WindowResult<N>>,
    /// Cross-shard min-watermark merge; `Some` iff this query's emission
    /// mode is [`EmissionMode::WindowOrdered`].
    merge: Option<ResultMerge<N>>,
    /// Window-close boundary index already broadcast for this query
    /// (⌊(wm−within)/slide⌋).
    last_close_idx: Option<u64>,
    window_within: u64,
    window_slide: u64,
    /// Rows produced for the caller so far (drained + pending).
    rows: u64,
    /// False once deregistered (pending rows may still be polled).
    active: bool,
}

impl<N: TrendNum> QuerySlot<N> {
    /// No engine of this query will emit again (deregistered, or every
    /// worker terminated): release what the ordered merge still holds, or
    /// put an unordered backlog into canonical order — either way
    /// `pending` ends up sorted by `(window, group)`.
    fn close_remainder(&mut self) {
        match &mut self.merge {
            Some(m) => {
                let before = self.pending.len();
                m.close(&mut self.pending);
                self.rows += (self.pending.len() - before) as u64;
                debug_assert!(
                    self.pending
                        .windows(2)
                        .all(|w| w[0].order_key() <= w[1].order_key()),
                    "ordered emission produced an out-of-order remainder"
                );
            }
            None => sort_canonical(&mut self.pending),
        }
    }
}

/// One routed event plane: queries whose `GROUP-BY` keys coincide share a
/// group, so classification, hashing, and framing are paid once for all of
/// them.
struct RouteGroup {
    routing: StreamRouting,
    /// Versioned group → shard overrides; empty = pure hash routing. Only
    /// group 0 is ever rebalanced.
    table: RoutingTable,
    /// Per-shard event frames not yet sent.
    batch_bufs: Vec<Vec<EventRef>>,
    /// Active queries routing through this group (0 = the group is
    /// dormant and skipped by the router).
    members: usize,
}

/// What [`StreamExecutor::bring_up`] hands back: the registry slot (already
/// joined to its route group) plus one engine per shard, ready to be hosted
/// by the workers.
struct SlotInit<N: TrendNum> {
    slot: QuerySlot<N>,
    engines: Vec<GretaEngine<N>>,
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
    shards: usize,
    registry: SchemaRegistry,
    engine_config: EngineConfig,
    /// Hosted queries, ascending by id. Deregistered queries stay
    /// (inactive) so their ids are never reused and their drained rows
    /// stay pollable.
    queries: Vec<QuerySlot<N>>,
    /// Routed event planes; queries whose routings coincide share an
    /// entry. Index 0 (id 0's) is the one skew rebalancing migrates.
    groups: Vec<RouteGroup>,
    /// Next id [`register_query`](Self::register_query) hands out.
    next_query_id: u32,
    /// Bumped by every register/deregister barrier.
    query_epoch: u64,
    rebalance: Option<RebalanceConfig>,
    /// Per-group counters: events bumped at routing time when rebalancing
    /// is on, vertices filled from worker reports at `finish`. Bounded to
    /// the `group_stats_capacity` heaviest groups.
    group_stats: GroupSketch,
    /// Per-group events since the last skew check (taken and cleared by
    /// every check). The detector works on these interval counts, not the
    /// lifetime totals, so skew that emerges late in a long stream is
    /// seen immediately instead of being averaged away by history.
    recent_events: GroupSketch,
    /// Windows closed since the last skew check (cadence counter).
    windows_since_rebalance: u64,
    /// A skew check is owed; run after the current routing pass so a
    /// migration barrier never splits a reorder release batch.
    rebalance_due: bool,
    reorder: ReorderBuffer,
    late_policy: LatePolicy,
    senders: Vec<Sender<Msg<GretaEngine<N>>>>,
    results_rx: Receiver<OutMsg<WindowResult<N>>>,
    /// Ack ledger of the barrier in flight, if any (see [`cut`](Self::cut)).
    cut: Cut,
    workers: Vec<JoinHandle<Result<WorkerReport, EngineError>>>,
    diverted: Vec<EventRef>,
    stats: ExecutorStats,
    /// Reused scratch for reorder-buffer releases (no per-event alloc).
    release_scratch: Vec<EventRef>,
    batch_size: usize,
    /// Late drop/divert counts keyed by the event's latest window
    /// (`⌊t / late_slide⌋`).
    late_windows: BTreeMap<WindowId, (u64, u64)>,
    /// Slide of id 0, the query whose window closes drive the cadences.
    late_slide: u64,
    max_occupancy: usize,
    durability: Option<DurabilityState>,
    /// Windows closed since the last checkpoint (cadence counter, driven
    /// by id 0's window-close boundaries).
    windows_since_checkpoint: u64,
    /// A cadence checkpoint is owed; taken after the current routing pass
    /// so the snapshot cut never splits a reorder release batch.
    checkpoint_due: bool,
    finished: bool,
}

/// One decoded WAL record (tag-dispatched).
enum TailRec {
    Event(EventRef),
    Register {
        id: u32,
        emission: EmissionMode,
        text: String,
    },
    Deregister(u32),
}

fn encode_emission(e: EmissionMode) -> u8 {
    match e {
        EmissionMode::Unordered => 0,
        EmissionMode::WindowOrdered => 1,
    }
}

fn decode_emission(tag: u8) -> Result<EmissionMode, CodecError> {
    match tag {
        0 => Ok(EmissionMode::Unordered),
        1 => Ok(EmissionMode::WindowOrdered),
        t => Err(CodecError(format!("bad EmissionMode tag {t}"))),
    }
}

/// Borrowing twin of [`TailRec`] for the encode side: WAL appends encode
/// from live references, so the record view never owns its payload.
enum TailRecRef<'a> {
    Event(&'a Event),
    Register {
        id: u32,
        emission: EmissionMode,
        text: &'a str,
    },
    Deregister(u32),
}

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
            buf.push(encode_emission(emission));
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
            let emission = decode_emission(r.u8()?)?;
            let text = r.str()?.to_string();
            Ok(TailRec::Register { id, emission, text })
        }
        WAL_DEREGISTER => Ok(TailRec::Deregister(r.u32()?)),
        t => Err(CodecError(format!("bad WAL record tag {t}"))),
    }
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
        let shards = Self::shard_count(&query, &config)?;
        let durability = match &config.durability {
            None => None,
            Some(dcfg) => {
                if Manifest::load(&dcfg.dir)?.is_some() {
                    return Err(EngineError::Config(format!(
                        "durability dir {} already contains a manifest; \
                         use StreamExecutor::recover or a fresh directory",
                        dcfg.dir.display()
                    )));
                }
                let wal = Wal::open(&dcfg.dir, dcfg.segment_bytes, dcfg.fsync)?;
                if wal.next_index() > 0 {
                    return Err(EngineError::Config(format!(
                        "durability dir {} already contains WAL records; \
                         use StreamExecutor::recover or a fresh directory",
                        dcfg.dir.display()
                    )));
                }
                let snapshots = SnapshotStore::open(&dcfg.dir)?;
                Some(DurabilityState {
                    config: dcfg.clone(),
                    wal,
                    snapshots,
                    epoch: 0,
                    record_buf: Vec::new(),
                })
            }
        };
        let mut groups = Vec::new();
        let fresh = QueryParts::fresh(0, None, config.emission);
        let init = Self::bring_up(&registry, config.engine, shards, &mut groups, query, fresh)?;
        Self::assemble(registry, &config, shards, groups, vec![init], durability)
    }

    /// Shard workers to run: `config.shards`, clamped to 1 when `query` —
    /// id 0, which anchors the count for the executor's lifetime — has no
    /// `GROUP-BY` to partition by.
    fn shard_count(query: &CompiledQuery, config: &ExecutorConfig) -> Result<usize, EngineError> {
        if config.shards == 0 {
            return Err(EngineError::Config("shards must be ≥ 1".into()));
        }
        Ok(if query.group_by.is_empty() {
            1
        } else {
            config.shards
        })
    }

    /// The one way a query comes to be hosted, whatever its id and
    /// whichever of `new`, `recover`, or `register_query` asks: validate
    /// `plan`'s routing, build one engine per shard — fresh when `parts`
    /// carries no checkpointed state, imported when it was checkpointed at
    /// this shard count, repartitioned onto `shards` otherwise — and join
    /// the route group its routing coincides with (a new one if none
    /// does). Joining is the last, infallible step, so a refused query
    /// leaves `groups` untouched.
    fn bring_up(
        registry: &SchemaRegistry,
        engine_config: EngineConfig,
        shards: usize,
        groups: &mut Vec<RouteGroup>,
        plan: CompiledQuery,
        parts: QueryParts<N>,
    ) -> Result<SlotInit<N>, EngineError> {
        let routing = StreamRouting::new(&plan, registry);
        routing.validate(&plan, registry)?;
        let saved = parts.shard_states;
        let resharded = !saved.is_empty() && saved.len() != shards;
        let engines = if saved.is_empty() {
            (0..shards)
                .map(|_| GretaEngine::with_config(plan.clone(), registry.clone(), engine_config))
                .collect::<Result<Vec<_>, _>>()?
        } else if resharded {
            GretaEngine::<N>::repartition_states(
                &plan,
                registry,
                engine_config,
                &saved,
                shards,
                |g| routing.shard_of_group_key(g, shards),
            )?
        } else {
            saved
                .iter()
                .map(|bytes| {
                    GretaEngine::import_state(plan.clone(), registry.clone(), engine_config, bytes)
                })
                .collect::<Result<Vec<_>, _>>()?
        };
        let merge = (parts.emission == EmissionMode::WindowOrdered).then(|| match parts.merge {
            Some(mut m) => {
                if resharded {
                    // Fresh workers report their own frontiers; the
                    // released watermark (and buffered rows) carry over so
                    // the ordered stream resumes without repeats.
                    m.reset_for_shards(shards);
                }
                m
            }
            None => ResultMerge::new(shards),
        });
        let group = match groups.iter().position(|g| g.routing.routes_like(&routing)) {
            Some(g) => {
                groups[g].members += 1;
                g
            }
            None => {
                groups.push(RouteGroup {
                    routing,
                    table: RoutingTable::default(),
                    batch_bufs: (0..shards).map(|_| Vec::new()).collect(),
                    members: 1,
                });
                groups.len() - 1
            }
        };
        Ok(SlotInit {
            slot: QuerySlot {
                id: parts.id,
                text: parts.text,
                emission: parts.emission,
                group: group as u32,
                pending: parts.pending,
                merge,
                last_close_idx: parts.last_close_idx,
                window_within: plan.window.within,
                window_slide: plan.window.slide,
                rows: parts.rows,
                active: true,
                query: plan,
            },
            engines,
        })
    }

    /// Wire channels and spawn one worker per shard, each hosting one
    /// engine per query in `hosted` (ascending by id, id 0 first).
    fn assemble(
        registry: SchemaRegistry,
        config: &ExecutorConfig,
        shards: usize,
        groups: Vec<RouteGroup>,
        hosted: Vec<SlotInit<N>>,
        durability: Option<DurabilityState>,
    ) -> Result<Self, EngineError> {
        let (results_tx, results_rx) = channel::bounded(config.result_capacity.max(1));
        let mut slots: Vec<QuerySlot<N>> = Vec::with_capacity(hosted.len());
        let mut per_shard: Vec<Vec<EngineSlot<GretaEngine<N>>>> =
            (0..shards).map(|_| Vec::new()).collect();
        for SlotInit { slot, engines } in hosted {
            debug_assert_eq!(engines.len(), shards);
            for (shard, engine) in engines.into_iter().enumerate() {
                per_shard[shard].push(EngineSlot::new(
                    slot.id,
                    slot.group,
                    slot.merge.is_some(),
                    engine,
                ));
            }
            slots.push(slot);
        }
        let export_final = durability.is_some();
        let mut senders = Vec::with_capacity(shards);
        let mut workers = Vec::with_capacity(shards);
        for (shard, engine_slots) in per_shard.into_iter().enumerate() {
            let (tx, rx) = channel::bounded(config.channel_capacity.max(1));
            senders.push(tx);
            let results_tx = results_tx.clone();
            workers.push(
                std::thread::Builder::new()
                    .name(format!("greta-shard-{shard}"))
                    .spawn(move || {
                        worker_loop::<N>(engine_slots, shard, rx, results_tx, export_final)
                    })
                    .map_err(|e| EngineError::Worker(e.to_string()))?,
            );
        }
        drop(results_tx); // workers hold the only senders now
        Ok(StreamExecutor {
            shards,
            registry,
            engine_config: config.engine,
            next_query_id: slots.last().map_or(0, |s| s.id + 1),
            query_epoch: 0,
            late_slide: slots.first().map_or(1, |s| s.window_slide.max(1)),
            queries: slots,
            groups,
            rebalance: config.rebalance,
            group_stats: GroupSketch::new(config.group_stats_capacity),
            recent_events: GroupSketch::new(config.group_stats_capacity),
            windows_since_rebalance: 0,
            rebalance_due: false,
            reorder: ReorderBuffer::new(config.slack),
            late_policy: config.late_policy,
            senders,
            results_rx,
            cut: Cut::new(shards),
            workers,
            diverted: Vec::new(),
            stats: ExecutorStats {
                events_per_shard: vec![0; shards],
                ..Default::default()
            },
            release_scratch: Vec::new(),
            batch_size: config.batch_size.max(1),
            late_windows: BTreeMap::new(),
            max_occupancy: 0,
            durability,
            windows_since_checkpoint: 0,
            checkpoint_due: false,
            finished: false,
        })
    }

    /// Number of shard workers actually running.
    pub fn shards(&self) -> usize {
        self.shards
    }

    /// Version of the group → shard routing table: 0 while the static hash
    /// assignment is in effect, bumped by every barrier migration (and by a
    /// resharded recovery).
    pub fn routing_epoch(&self) -> u64 {
        self.groups[0].table.epoch()
    }

    /// Version of the query registry: bumped by every successful
    /// [`register_query`](Self::register_query) /
    /// [`deregister_query`](Self::deregister_query) barrier (0 = nothing
    /// has joined or left since [`new`](Self::new)).
    pub fn query_epoch(&self) -> u64 {
        self.query_epoch
    }

    /// Ids of the currently active queries, ascending.
    pub fn query_ids(&self) -> Vec<QueryId> {
        self.queries
            .iter()
            .filter(|s| s.active)
            .map(|s| QueryId(s.id))
            .collect()
    }

    /// Source text of a registered query (`None` for the query handed to
    /// [`new`](Self::new) as an already-compiled plan, and for unknown
    /// ids).
    pub fn query_text(&self, id: QueryId) -> Option<&str> {
        self.queries
            .iter()
            .find(|s| s.id == id.0)
            .and_then(|s| s.text.as_deref())
    }

    fn slot(&self, id: u32) -> Option<&QuerySlot<N>> {
        self.queries.iter().find(|s| s.id == id)
    }

    fn slot_mut(&mut self, id: u32) -> Option<&mut QuerySlot<N>> {
        self.queries.iter_mut().find(|s| s.id == id)
    }

    /// Register another query on this executor's ingest plane at runtime.
    ///
    /// The query is compiled from `text` against the executor's schema
    /// registry and validated first — an invalid query is rejected before
    /// anything is logged or installed. It then joins via a barrier (the
    /// same machinery as rebalancing): buffered frames are flushed, every
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
        if self.finished {
            return Err(EngineError::Config(
                "register_query after finish() on StreamExecutor".into(),
            ));
        }
        let query = CompiledQuery::parse(text, &self.registry)
            .map_err(|e| EngineError::Config(format!("query error: {e}")))?;
        // Validate before WAL-logging: an invalid registration must never
        // enter the log (replay would fail at the same spot forever).
        let probe = StreamRouting::new(&query, &self.registry);
        probe.validate(&query, &self.registry)?;
        let id = self.next_query_id;
        if let Some(d) = &mut self.durability {
            encode_tail_record(
                &mut d.record_buf,
                TailRecRef::Register { id, emission, text },
            );
            d.wal.append(&d.record_buf).map_err(EngineError::from)?;
        }
        self.apply_register(id, text.to_string(), emission, query)?;
        Ok(QueryId(id))
    }

    /// Install a registered query (shared by `register_query` and WAL
    /// replay — the latter must not re-append to the log).
    fn apply_register(
        &mut self,
        id: u32,
        text: String,
        emission: EmissionMode,
        query: CompiledQuery,
    ) -> Result<(), EngineError> {
        let SlotInit { slot, engines } = Self::bring_up(
            &self.registry,
            self.engine_config,
            self.shards,
            &mut self.groups,
            query,
            QueryParts::fresh(id, Some(text), emission),
        )?;
        let (group, ordered) = (slot.group, slot.merge.is_some());
        let mut engines = engines.into_iter();
        self.cut(|_| {
            let engine = engines
                .next()
                .expect("bring_up builds one engine per shard");
            BarrierKind::Add(Box::new(EngineSlot::new(id, group, ordered, engine)))
        })?;
        self.queries.push(slot);
        self.next_query_id = self.next_query_id.max(id + 1);
        self.query_epoch += 1;
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
    /// it anchors the shard count, the checkpoint/rebalance cadence, and
    /// the rebalanced route group; [`drain`](Self::drain) stops the
    /// stream. With durability on, the removal is WAL-logged so
    /// [`recover`](Self::recover) re-runs it at the same stream position.
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
        if self.finished {
            return Err(EngineError::Config(
                "deregister_query after finish() on StreamExecutor".into(),
            ));
        }
        self.deregister_guard(id.0)?;
        if let Some(d) = &mut self.durability {
            encode_tail_record(&mut d.record_buf, TailRecRef::Deregister(id.0));
            d.wal.append(&d.record_buf).map_err(EngineError::from)?;
        }
        self.apply_deregister(id.0)?;
        self.poll_results_of(id)
    }

    /// Only an active query other than id 0 can leave: id 0 anchors the
    /// shard count, the checkpoint/rebalance cadence, and the rebalanced
    /// route group.
    fn deregister_guard(&self, id: u32) -> Result<(), EngineError> {
        if id == QueryId::PRIMARY.0 {
            return Err(EngineError::Config(
                "q0 cannot be deregistered; drain() the executor instead".into(),
            ));
        }
        match self.slot(id) {
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
        let slot = self.slot_mut(id).expect("slot checked by the guard");
        slot.active = false;
        slot.close_remainder();
        let group = slot.group as usize;
        self.groups[group].members -= 1;
        self.query_epoch += 1;
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
    /// reorder buffer, shard frames, broadcast fan-out, and graph vertices
    /// all hold clones of this `Arc`.
    pub fn push_ref(&mut self, e: EventRef) -> Result<(), EngineError> {
        if self.finished {
            return Err(EngineError::Config(
                "push after finish() on StreamExecutor".into(),
            ));
        }
        if let Some(d) = &mut self.durability {
            encode_tail_record(&mut d.record_buf, TailRecRef::Event(&e));
            d.wal.append(&d.record_buf).map_err(EngineError::from)?;
        }
        self.stats.pushed += 1;
        self.ingest(e)?;
        if self.rebalance_due {
            // Before a due checkpoint, so the checkpoint records the
            // post-migration table and state.
            self.run_rebalance_check()?;
        }
        if self.checkpoint_due {
            self.checkpoint()?;
        }
        Ok(())
    }

    /// Reorder + route one event (shared by `push` and WAL replay).
    fn ingest(&mut self, e: EventRef) -> Result<(), EngineError> {
        let mut released = std::mem::take(&mut self.release_scratch);
        match self.reorder.push_into(e, &mut released) {
            Ok(()) => {
                let r = self.route_all(&mut released);
                released.clear();
                self.release_scratch = released;
                r
            }
            Err(late) => {
                self.release_scratch = released;
                let wid = late.time.ticks() / self.late_slide;
                let slot = self.late_windows.entry(wid).or_default();
                match self.late_policy {
                    LatePolicy::Drop => {
                        self.stats.late_dropped += 1;
                        slot.0 += 1;
                    }
                    LatePolicy::Divert => {
                        self.stats.late_diverted += 1;
                        slot.1 += 1;
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
                Ok(())
            }
        }
    }

    /// Absorb one worker message into the owning query's buffers: under
    /// unordered emission rows go straight to that query's ready buffer
    /// (frontier stamps are dropped); under
    /// [`EmissionMode::WindowOrdered`] rows park in the query's merge and
    /// frontier advances release complete windows into its ready buffer in
    /// canonical order. A barrier ack goes to the [`Cut`] ledger, which
    /// refuses one nobody is waiting for.
    fn absorb(&mut self, msg: OutMsg<WindowResult<N>>) -> Result<(), EngineError> {
        match msg {
            OutMsg::Row {
                query,
                shard,
                seq,
                row,
            } => {
                let Some(slot) = self.queries.iter_mut().find(|s| s.id == query) else {
                    return Ok(());
                };
                match &mut slot.merge {
                    None => {
                        slot.pending.push(row);
                        slot.rows += 1;
                    }
                    Some(m) => m.offer(shard as usize, seq, row),
                }
            }
            OutMsg::Frontier {
                query,
                shard,
                next_window,
            } => {
                let Some(slot) = self.queries.iter_mut().find(|s| s.id == query) else {
                    return Ok(());
                };
                if let Some(m) = &mut slot.merge {
                    let before = slot.pending.len();
                    m.advance(shard as usize, next_window, &mut slot.pending);
                    slot.rows += (slot.pending.len() - before) as u64;
                }
            }
            OutMsg::Ack { shard, blobs } => self.cut.ack(shard, blobs)?,
        }
        Ok(())
    }

    /// Drain the result channel without blocking; true if anything came.
    fn drain_ready(&mut self) -> Result<bool, EngineError> {
        let mut any = false;
        while let Ok(msg) = self.results_rx.try_recv() {
            self.absorb(msg)?;
            any = true;
        }
        Ok(any)
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
        self.drain_ready()?;
        let slot = self
            .slot_mut(id.0)
            .ok_or_else(|| EngineError::Config(format!("unknown query {id}")))?;
        Ok(std::mem::take(&mut slot.pending))
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
            .slot(id.0)
            .ok_or_else(|| EngineError::Config(format!("unknown query {id}")))?;
        match &slot.merge {
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
        if self.finished {
            return Ok(());
        }
        let mut tail = self.reorder.flush();
        let route_result = self
            .route_all(&mut tail)
            .and_then(|()| self.flush_all_batches());
        self.finished = true;
        // Close the input channels regardless, so workers always terminate.
        self.senders.clear();
        for g in &mut self.groups {
            g.batch_bufs.clear();
        }
        // Drain concurrently with the workers' final flush: recv() ends
        // when every worker has dropped its result sender — no window of
        // any query can receive further rows after that.
        let mut first_err = route_result.err();
        while let Ok(msg) = self.results_rx.recv() {
            first_err = first_err.or(self.absorb(msg).err());
        }
        for slot in &mut self.queries {
            slot.close_remainder();
        }
        let mut final_states: Vec<Option<QueryBlobs>> = Vec::with_capacity(self.workers.len());
        for w in self.workers.drain(..) {
            match w.join() {
                Ok(Ok(report)) => {
                    let s = &mut self.stats.engine;
                    s.events += report.stats.events;
                    s.vertices += report.stats.vertices;
                    s.edges += report.stats.edges;
                    s.results += report.stats.results;
                    self.stats.peak_memory_bytes += report.peak_bytes;
                    for (group, vertices) in report.group_vertices {
                        self.group_stats.add_vertices(&group, vertices);
                    }
                    final_states.push(report.final_states);
                }
                Ok(Err(e)) => first_err = first_err.or(Some(e)),
                Err(_) => {
                    first_err =
                        first_err.or(Some(EngineError::Worker("shard worker panicked".into())))
                }
            }
        }
        if first_err.is_none() && self.durability.is_some() {
            // Terminal checkpoint *after* the workers closed every window:
            // a graceful shutdown leaves a truncated log and a snapshot
            // from which recovery resumes with nothing to re-emit, so the
            // remainders stay out of it.
            let per_shard: Vec<QueryBlobs> = final_states.into_iter().flatten().collect();
            if per_shard.len() == self.shards {
                let remainders: Vec<_> = self
                    .queries
                    .iter_mut()
                    .map(|slot| std::mem::take(&mut slot.pending))
                    .collect();
                first_err = self.persist_snapshot(&per_shard).err();
                for (slot, rows) in self.queries.iter_mut().zip(remainders) {
                    slot.pending = rows;
                }
            }
        }
        first_err.map_or(Ok(()), Err)
    }

    /// Executor counters. Engine aggregates and peak memory are only
    /// populated once [`finish`](Self::finish) has run; channel occupancy
    /// is sampled at the moment of the call. Per-query stream counters are
    /// in [`ExecutorStats::queries`].
    pub fn stats(&self) -> ExecutorStats {
        let mut s = self.stats.clone();
        s.routing_epoch = self.groups[0].table.epoch();
        s.query_epoch = self.query_epoch;
        s.group_stats = self.group_stats.top_sorted();
        s.late_by_window = self
            .late_windows
            .iter()
            .map(|(&window, &(dropped, diverted))| WindowLateCounts {
                window,
                dropped,
                diverted,
            })
            .collect();
        s.channel_occupancy = self.senders.iter().map(Sender::len).collect();
        s.max_channel_occupancy = self.max_occupancy;
        s.result_occupancy = self.results_rx.len();
        s.queries = self
            .queries
            .iter()
            .map(|slot| {
                let frontiers = slot.merge.as_ref().map_or(&[][..], ResultMerge::frontiers);
                let max = frontiers.iter().copied().max().unwrap_or(0);
                QueryStreamStats {
                    id: QueryId(slot.id),
                    rows: slot.rows,
                    pending_rows: slot.pending.len(),
                    released_to: slot.merge.as_ref().map_or(0, ResultMerge::released_to),
                    min_frontier: slot.merge.as_ref().map_or(0, ResultMerge::min_frontier),
                    frontier_lag: frontiers.iter().map(|&f| max - f).collect(),
                    buffered_rows: slot.merge.as_ref().map_or(0, ResultMerge::buffered_rows),
                    route_group: slot.group,
                    active: slot.active,
                }
            })
            .collect();
        s
    }

    /// Highest time stamp released from the reorder buffer so far (the
    /// ingest watermark): any event pushed with a smaller stamp is late.
    /// `None` until the first release.
    pub fn watermark(&self) -> Option<Time> {
        self.reorder.watermark()
    }

    /// Whether this executor runs with a write-ahead log
    /// ([`ExecutorConfig::durability`]): when true, every event accepted
    /// by [`push`](Self::push) was appended to the WAL before routing.
    pub fn durability_enabled(&self) -> bool {
        self.durability.is_some()
    }

    /// Number of records appended to the WAL so far (events plus
    /// register/deregister records). Appended is not yet durable under
    /// [`greta_durability::FsyncPolicy`]s that buffer between syncs — use
    /// [`sync_wal`](Self::sync_wal) for the watermark an ingest
    /// acknowledgement can carry. `None` without durability.
    pub fn durable_index(&self) -> Option<u64> {
        self.durability.as_ref().map(|d| d.wal.next_index())
    }

    /// Flush and fsync the WAL, then return the durable record index:
    /// every event whose `push` returned before the call is now
    /// recoverable by [`recover`](Self::recover) regardless of the
    /// configured [`greta_durability::FsyncPolicy`]. This is the
    /// group-commit point a
    /// server acknowledges a batch at. `Ok(None)` without durability.
    pub fn sync_wal(&mut self) -> Result<Option<u64>, EngineError> {
        match self.durability.as_mut() {
            None => Ok(None),
            Some(d) => {
                d.wal.sync().map_err(EngineError::from)?;
                Ok(Some(d.wal.next_index()))
            }
        }
    }

    /// Take the events diverted under [`LatePolicy::Divert`] so far.
    pub fn take_diverted(&mut self) -> Vec<EventRef> {
        std::mem::take(&mut self.diverted)
    }

    /// Shard owning the event's group in route group `g` under the current
    /// routing epoch (`None` = broadcast). For group 0 with
    /// rebalancing on, also bumps the group's event counter — the skew
    /// detector's signal. Every path works off the event's routing hash:
    /// no group key is materialized per event (only once, when a group is
    /// first tracked by the sketch).
    fn group_dest_shard(&mut self, g: usize, e: &EventRef) -> Option<usize> {
        if self.groups[g].routing.is_broadcast(e.type_id) {
            return None;
        }
        if (g != 0 || self.rebalance.is_none()) && self.groups[g].table.is_empty() {
            // Static-assignment fast path: hash straight off the event.
            return self.groups[g].routing.shard_of(e, self.shards);
        }
        let h = self.groups[g].routing.group_hash(e);
        let shard = self.groups[g]
            .table
            .shard_for_hash(h)
            .unwrap_or_else(|| shard_of_hash(h, self.shards));
        if g == 0 && self.rebalance.is_some() {
            let routing = &self.groups[g].routing;
            self.recent_events.bump_events(h, || routing.group_key(e));
            self.group_stats.bump_events(h, || routing.group_key(e));
        }
        Some(shard)
    }

    /// Frame one released event for route group `g` (all of the group's
    /// member queries see the same frame).
    // lint:hot-path
    fn route_to_group(&mut self, g: usize, e: &EventRef) -> Result<(), EngineError> {
        match self.group_dest_shard(g, e) {
            None => {
                if g == 0 {
                    self.stats.broadcasts += 1;
                }
                for i in 0..self.shards {
                    if g == 0 {
                        self.stats.events_per_shard[i] += 1;
                    }
                    // lint:allow(hot-path): EventRef is an Arc — clone() is a refcount bump, not a payload copy
                    self.groups[g].batch_bufs[i].push(e.clone());
                    if self.groups[g].batch_bufs[i].len() >= self.batch_size {
                        self.flush_group_shard(g, i)?;
                    }
                }
            }
            Some(shard) => {
                if g == 0 {
                    self.stats.events_per_shard[shard] += 1;
                }
                // lint:allow(hot-path): EventRef is an Arc — clone() is a refcount bump, not a payload copy
                self.groups[g].batch_bufs[shard].push(e.clone());
                if self.groups[g].batch_bufs[shard].len() >= self.batch_size {
                    self.flush_group_shard(g, shard)?;
                }
            }
        }
        Ok(())
    }

    // lint:hot-path
    fn route_all(&mut self, released: &mut Vec<EventRef>) -> Result<(), EngineError> {
        for ev in released.iter() {
            self.stats.released += 1;
            let wm = ev.time;
            for g in 0..self.groups.len() {
                if self.groups[g].members == 0 {
                    continue;
                }
                self.route_to_group(g, ev)?;
            }
            self.note_watermark(wm)?;
        }
        released.clear();
        Ok(())
    }

    /// React to the released watermark reaching `wm`: if it crossed any
    /// hosted query's window-close boundary since the last broadcast,
    /// flush every buffered frame (the watermark must not overtake its
    /// events) and broadcast the watermark — shards that received no
    /// recent events still close their windows, for every query. Id 0's
    /// closed windows drive the checkpoint and rebalance cadences.
    // lint:hot-path
    fn note_watermark(&mut self, wm: Time) -> Result<(), EngineError> {
        let t = wm.ticks();
        let mut any_closed = false;
        let mut cadence_closed = 0u64;
        for slot in &mut self.queries {
            if !slot.active || t < slot.window_within {
                continue;
            }
            let close_idx = (t - slot.window_within) / slot.window_slide.max(1);
            if slot.last_close_idx == Some(close_idx) {
                continue;
            }
            let closed = match slot.last_close_idx {
                Some(prev) => close_idx - prev,
                None => close_idx + 1,
            };
            slot.last_close_idx = Some(close_idx);
            any_closed = true;
            if slot.id == 0 {
                cadence_closed = closed;
            }
        }
        if !any_closed {
            return Ok(());
        }
        self.stats.watermarks += 1;
        self.flush_all_batches()?;
        for i in 0..self.senders.len() {
            self.send(i, Msg::Watermark(wm))?;
        }
        if cadence_closed > 0 {
            if let Some(d) = &self.durability {
                self.windows_since_checkpoint += cadence_closed;
                if self.windows_since_checkpoint >= d.config.snapshot_every_windows.max(1) {
                    // Defer to the end of the current routing pass: a
                    // snapshot cut mid-release would lose the
                    // not-yet-routed remainder.
                    self.checkpoint_due = true;
                }
            }
            if let Some(r) = &self.rebalance {
                if self.shards > 1 {
                    self.windows_since_rebalance += cadence_closed;
                    if self.windows_since_rebalance >= r.check_every_windows.max(1) {
                        // Deferred like checkpoints: the migration barrier
                        // must not split a reorder release batch.
                        self.rebalance_due = true;
                    }
                }
            }
        }
        Ok(())
    }

    /// Send route group `g`'s buffered frame for shard `i`, if any.
    /// (`Vec::with_capacity` replacing the taken buffer is the one
    /// amortized allocation per frame — deliberately not in the denied
    /// set.)
    // lint:hot-path
    fn flush_group_shard(&mut self, g: usize, i: usize) -> Result<(), EngineError> {
        if self.groups[g].batch_bufs[i].is_empty() {
            return Ok(());
        }
        let frame = std::mem::replace(
            &mut self.groups[g].batch_bufs[i],
            Vec::with_capacity(self.batch_size),
        );
        self.max_occupancy = self.max_occupancy.max(self.senders[i].len() + 1);
        self.stats.frames += 1;
        self.send(
            i,
            Msg::Events {
                group: g as u32,
                frame,
            },
        )
    }

    // lint:hot-path
    fn flush_all_batches(&mut self) -> Result<(), EngineError> {
        for g in 0..self.groups.len() {
            for i in 0..self.shards {
                self.flush_group_shard(g, i)?;
            }
        }
        Ok(())
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
        if self.durability.is_none() {
            return Err(EngineError::Config(
                "checkpoint requires ExecutorConfig::durability".into(),
            ));
        }
        if self.finished {
            return Err(EngineError::Config(
                "checkpoint after finish() on StreamExecutor".into(),
            ));
        }
        self.checkpoint_due = false;
        self.windows_since_checkpoint = 0;
        let per_shard = self.export_cut()?;
        self.persist_snapshot(&per_shard)
    }

    /// The one barrier. Flush every route group's buffered frames, send
    /// `kind_for(shard)` down every shard channel, absorb the result
    /// channel until every shard has acked, and return the acks' blobs by
    /// shard. Channels are FIFO, so a shard takes the barrier after exactly
    /// the frames routed before this call, and its rows from those frames
    /// are absorbed before its ack: on return the stream is cut at
    /// `stats.pushed` — no event is between the router and an engine, no
    /// row between an engine and its query's buffer (events still in the
    /// reorder buffer live on the ingest side). Checkpoint, rebalance,
    /// register and deregister differ only in the [`BarrierKind`].
    ///
    /// [`worker_step`] is the shard's side, and [`crate::protocol_model`]
    /// drives that function and the [`Cut`] ledger through every
    /// interleaving, checking that all shards cut at the same sequence, no
    /// row crosses a barrier, and remainders are delivered exactly once.
    fn cut(
        &mut self,
        mut kind_for: impl FnMut(usize) -> BarrierKind<GretaEngine<N>>,
    ) -> Result<Vec<QueryBlobs>, EngineError> {
        self.flush_all_batches()?;
        self.cut.open();
        for i in 0..self.shards {
            self.send(i, Msg::Barrier { kind: kind_for(i) })?;
        }
        while !self.cut.done() {
            if !self.drain_ready()? {
                // A worker that exits while its input is open has failed,
                // and its ack will never come.
                if self.workers.iter().any(JoinHandle::is_finished) {
                    return Err(self.reap_after_failure());
                }
                std::thread::yield_now();
            }
        }
        Ok(self.cut.take())
    }

    /// [`cut`](Self::cut) with [`BarrierKind::Export`]: every hosted
    /// engine's state at the cut, one `(query, blob)` per hosted query per
    /// shard.
    fn export_cut(&mut self) -> Result<Vec<QueryBlobs>, EngineError> {
        self.stats.barrier_snapshots += 1;
        self.cut(|_| BarrierKind::Export)
    }

    /// Run the skew detector and, on imbalance, migrate group state to a
    /// new assignment at the current window-close barrier.
    ///
    /// Detection: the per-group event counts *since the last check* are
    /// summed per shard under the current table; the check fires when the
    /// most-loaded shard carries at least
    /// [`RebalanceConfig::imbalance_ratio`] times the mean. Interval
    /// counts (not lifetime totals) mean skew that emerges late in a long
    /// stream is seen within one check period instead of being averaged
    /// away by balanced history. The plan is a greedy
    /// longest-processing-time pass over the interval's groups (hottest
    /// first onto the least-loaded shard) — deterministic, so a recovered
    /// executor replays identical migrations. Only groups whose planned
    /// shard differs from what the table-plus-hash already yields are
    /// pinned, so the override table stays proportional to actual moves.
    /// Plans moving fewer than [`RebalanceConfig::min_moves`] groups are
    /// discarded (the old pins are kept).
    fn run_rebalance_check(&mut self) -> Result<(), EngineError> {
        self.rebalance_due = false;
        self.windows_since_rebalance = 0;
        let Some(cfg) = self.rebalance else {
            return Ok(());
        };
        if self.shards <= 1 || self.recent_events.is_empty() {
            return Ok(());
        }
        // Hottest-first, key-tie-broken: deterministic across runs (the
        // sketch's evictions are deterministic too, so a recovered
        // executor replays identical plans).
        let groups: Vec<(PartitionKey, u64)> = self.recent_events.take_hottest_first();
        let total: u64 = groups.iter().map(|(_, n)| n).sum();
        if total == 0 {
            return Ok(());
        }
        let table = &self.groups[0].table;
        let shards = self.shards;
        let current = |k: &PartitionKey| {
            let h = group_key_hash(k);
            table
                .shard_for_hash(h)
                .unwrap_or_else(|| shard_of_hash(h, shards))
        };
        let mut loads = vec![0u64; shards];
        for (k, n) in &groups {
            loads[current(k)] += n;
        }
        let max_load = loads.iter().copied().max().unwrap_or(0);
        let mean = total as f64 / shards as f64;
        if (max_load as f64) < cfg.imbalance_ratio.max(1.0) * mean {
            return Ok(());
        }
        let mut new_loads = vec![0u64; shards];
        let mut overrides = HashMap::new();
        let mut moves = 0usize;
        for (k, n) in &groups {
            let dest = new_loads
                .iter()
                .enumerate()
                .min_by_key(|&(i, &l)| (l, i))
                .map(|(i, _)| i)
                .unwrap_or(0);
            new_loads[dest] += *n;
            if dest != current(k) {
                moves += 1;
            }
            // A pin that agrees with the hash fallback is a no-op: leave
            // it out so the table (and every snapshot carrying it) stays
            // proportional to the groups actually displaced.
            if dest != shard_of_hash(group_key_hash(k), shards) {
                overrides.insert(k.clone(), dest as u32);
            }
        }
        if moves < cfg.min_moves.max(1) {
            return Ok(());
        }
        self.migrate(overrides, moves)
    }

    /// Barrier migration to a new group → shard assignment for route
    /// group 0:
    ///
    /// 1. export every hosted engine's state at a [`cut`](Self::cut);
    /// 2. install the new table under a bumped routing epoch;
    /// 3. repartition the snapshots of every query routed through
    ///    group 0 so each group's graphs, incremental aggregates,
    ///    and replay context follow it to its new owner (queries on their
    ///    own key plane keep their engines);
    /// 4. hand each shard its rebuilt engines at a second cut. Nothing is
    ///    routed between the two, so every frame routed under epoch `e+1`
    ///    is processed by an epoch-`e+1` engine — results stay
    ///    byte-identical to any static assignment.
    ///
    /// When a cadence checkpoint is owed at the same window close, the two
    /// barriers are **fused**: the repartitioned engine states *are* the
    /// post-migration cut, so they are serialized and persisted directly
    /// instead of running a second back-to-back barrier snapshot right
    /// after the install.
    fn migrate(
        &mut self,
        overrides: HashMap<PartitionKey, u32>,
        moves: usize,
    ) -> Result<(), EngineError> {
        let per_shard = self.export_cut()?;
        self.groups[0].table.install(overrides);
        let table = self.groups[0].table.clone();
        let shards = self.shards;
        let members: Vec<(u32, CompiledQuery)> = self
            .queries
            .iter()
            .filter(|s| s.active && s.group == 0)
            .map(|s| (s.id, s.query.clone()))
            .collect();
        let member_ids: Vec<u32> = members.iter().map(|(id, _)| *id).collect();
        // Fused rebalance + checkpoint barrier: the repartitioned engines
        // *are* the exact post-migration cut (the new table and counters
        // are already in `self`), so when a cadence checkpoint is owed
        // they are serialized directly — no second barrier drain.
        let mut fused_states: Option<Vec<QueryBlobs>> =
            (self.checkpoint_due && self.durability.is_some()).then(|| {
                per_shard
                    .iter()
                    .map(|blobs| {
                        blobs
                            .iter()
                            .filter(|(q, _)| !member_ids.contains(q))
                            .cloned()
                            .collect()
                    })
                    .collect()
            });
        let mut installs: Vec<Vec<(u32, GretaEngine<N>)>> =
            (0..shards).map(|_| Vec::new()).collect();
        for (qid, query) in &members {
            let states: Vec<Vec<u8>> = per_shard
                .iter()
                .map(|blobs| {
                    blobs
                        .iter()
                        .find(|(q, _)| q == qid)
                        .map(|(_, b)| b.clone())
                        .unwrap_or_default()
                })
                .collect();
            let t = table.clone();
            let engines = GretaEngine::<N>::repartition_states(
                query,
                &self.registry,
                self.engine_config,
                &states,
                shards,
                move |g| {
                    let h = group_key_hash(g);
                    t.shard_for_hash(h)
                        .unwrap_or_else(|| shard_of_hash(h, shards))
                },
            )?;
            for (i, engine) in engines.into_iter().enumerate() {
                if let Some(fs) = &mut fused_states {
                    fs[i].push((*qid, engine.export_state()));
                }
                installs[i].push((*qid, engine));
            }
        }
        self.cut(|i| BarrierKind::Install(std::mem::take(&mut installs[i])))?;
        self.stats.rebalances += 1;
        self.stats.groups_moved += moves as u64;
        if let Some(blobs) = fused_states {
            // Persist only after every install is acked: a snapshot I/O
            // failure then surfaces as a plain checkpoint error against a
            // fully committed migration, never a half-installed table. The
            // blobs predate the installs' `close_overdue`, which is sound
            // because at a cut it closes nothing (see `worker_step`).
            self.checkpoint_due = false;
            self.windows_since_checkpoint = 0;
            self.stats.fused_barriers += 1;
            self.persist_snapshot(&blobs)?;
        }
        Ok(())
    }

    /// Serialize, write, and commit a snapshot of the current cut: fsync
    /// the WAL, write the blob, advance the manifest, drop WAL segments
    /// and snapshots it made obsolete. The manifest records the WAL's
    /// next record index (events *and* registry records), so replay
    /// resumes exactly past the records the snapshot covers.
    fn persist_snapshot(&mut self, per_shard: &[QueryBlobs]) -> Result<(), EngineError> {
        let blob = self.encode_snapshot(per_shard);
        let d = self.durability.as_mut().expect("durability configured");
        // Order matters: WAL records covered by the manifest must be
        // durable before the manifest points past them.
        d.wal.sync().map_err(EngineError::from)?;
        let wal_index = d.wal.next_index();
        d.epoch += 1;
        d.snapshots
            .write(d.epoch, &blob)
            .map_err(EngineError::from)?;
        Manifest {
            epoch: d.epoch,
            wal_index,
            shards: self.shards as u32,
        }
        .store(&d.config.dir)
        .map_err(EngineError::from)?;
        d.wal
            .truncate_segments_before(wal_index)
            .map_err(EngineError::from)?;
        d.snapshots
            .purge_before(d.epoch)
            .map_err(EngineError::from)?;
        self.stats.checkpoints += 1;
        Ok(())
    }

    /// Deliver `msg` to a shard without ever blocking this thread for good:
    /// while the shard's input queue is full, drain the result channel into
    /// the per-query buffers (the pushing thread is the only result
    /// consumer, so parking in a blocking `send` while workers wait to
    /// emit rows would deadlock the pipeline).
    fn send(&mut self, shard: usize, msg: Msg<GretaEngine<N>>) -> Result<(), EngineError> {
        let mut msg = msg;
        loop {
            match self.senders[shard].try_send(msg) {
                Ok(()) => return Ok(()),
                Err(TrySendError::Full(back)) => {
                    msg = back;
                    if !self.drain_ready()? {
                        std::thread::yield_now();
                    }
                }
                Err(TrySendError::Disconnected(_)) => return Err(self.reap_after_failure()),
            }
        }
    }

    /// A worker vanished: close all inputs, drain results while the
    /// surviving workers flush (joining a worker that is blocked sending
    /// rows would hang), and surface the first real worker error.
    fn reap_after_failure(&mut self) -> EngineError {
        self.senders.clear();
        self.finished = true;
        let mut err = EngineError::Worker("shard input channel closed".into());
        let mut found = false;
        let workers: Vec<_> = self.workers.drain(..).collect();
        for w in workers {
            while !w.is_finished() {
                // The worker's own error is the one to report.
                let _ = self.drain_ready();
                std::thread::yield_now();
            }
            match w.join() {
                Ok(Err(e)) if !found => {
                    err = e;
                    found = true;
                }
                Ok(_) => {}
                Err(_) if !found => {
                    err = EngineError::Worker("shard worker panicked".into());
                }
                Err(_) => {}
            }
        }
        err
    }
}

impl<N: TrendNum> Drop for StreamExecutor<N> {
    fn drop(&mut self) {
        if self.finished {
            return;
        }
        // Close inputs, discard pending results, reap the workers. (With
        // durability on, the WAL flushes via its own Drop — a subsequent
        // `recover` replays it.)
        self.senders.clear();
        while self.results_rx.try_recv().is_ok() {}
        for w in self.workers.drain(..) {
            // Workers may be blocked sending results; keep draining while
            // they flush so the join cannot deadlock.
            while !w.is_finished() {
                let _ = self.results_rx.try_recv();
                std::thread::yield_now();
            }
            let _ = w.join();
        }
    }
}

/// One shard worker: [`worker_step`] per message until the input channel
/// closes, then the end-of-stream finish and the report.
fn worker_loop<N: TrendNum>(
    mut slots: Vec<EngineSlot<GretaEngine<N>>>,
    shard: usize,
    rx: Receiver<Msg<GretaEngine<N>>>,
    results_tx: Sender<OutMsg<WindowResult<N>>>,
    export_final: bool,
) -> Result<WorkerReport, EngineError> {
    // The result channel closes only when the executor is dropped without
    // drain(); nobody reads the error that then ends this worker.
    let mut emit = |m| {
        results_tx
            .send(m)
            .map_err(|_| EngineError::Worker("result channel closed".into()))
    };
    for msg in rx.iter() {
        worker_step(&mut slots, shard, msg, &mut emit)?;
    }
    worker_finish(&mut slots, shard, &mut emit)?;
    let mut report = WorkerReport {
        stats: EngineStats::default(),
        peak_bytes: 0,
        group_vertices: Vec::new(),
        final_states: export_final.then(|| {
            slots
                .iter()
                .map(|s| (s.query, s.engine.export_state()))
                .collect()
        }),
    };
    for s in &slots {
        let es = s.engine.stats();
        report.stats.events += es.events;
        report.stats.vertices += es.vertices;
        report.stats.edges += es.edges;
        report.stats.results += es.results;
        report.peak_bytes += s.engine.peak_memory_bytes().max(s.engine.memory_bytes());
        if s.query == 0 {
            report.group_vertices = s.engine.group_vertices();
        }
    }
    Ok(report)
}

/// Inline batch driver: the single-shard, zero-thread execution path that
/// [`GretaEngine::run`] wraps. Processing an in-order batch through an
/// engine and draining incrementally is exactly what one shard worker does.
pub(crate) fn drive_batch<N: TrendNum>(
    engine: &mut GretaEngine<N>,
    events: &[Event],
) -> Result<Vec<WindowResult<N>>, EngineError> {
    let mut out = Vec::new();
    for e in events {
        engine.process_ref(&e.clone().into_ref())?;
        out.extend(engine.poll_results());
    }
    out.extend(engine.finish());
    Ok(out)
}
#[cfg(test)]
mod tests {
    use super::*;
    use greta_durability::TailPolicy;
    use greta_types::EventBuilder;
    use std::path::PathBuf;

    fn grouped_setup() -> (SchemaRegistry, CompiledQuery, Vec<Event>) {
        let mut reg = SchemaRegistry::new();
        reg.register_type("M", &["grp", "load"]).unwrap();
        let q = CompiledQuery::parse(
            "RETURN grp, COUNT(*) PATTERN M+ WHERE M.load < NEXT(M).load \
             GROUP-BY grp WITHIN 100 SLIDE 50",
            &reg,
        )
        .unwrap();
        let events: Vec<Event> = (0..240u64)
            .map(|t| {
                EventBuilder::new(&reg, "M")
                    .unwrap()
                    .at(Time(t))
                    .set("grp", (t % 7) as i64)
                    .unwrap()
                    .set("load", ((t * 31) % 17) as f64)
                    .unwrap()
                    .build()
            })
            .collect();
        (reg, q, events)
    }

    fn sorted<N: TrendNum>(mut rows: Vec<WindowResult<N>>) -> Vec<WindowResult<N>> {
        rows.sort_by(|a, b| a.window.cmp(&b.window).then_with(|| a.group.cmp(&b.group)));
        rows
    }

    fn tmpdir(name: &str) -> PathBuf {
        let d = std::env::temp_dir().join(format!("greta-exec-{name}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&d);
        d
    }

    #[test]
    fn sharded_executor_matches_sequential_engine() {
        let (reg, q, events) = grouped_setup();
        let mut engine = GretaEngine::<u64>::new(q.clone(), reg.clone()).unwrap();
        let expect = sorted(engine.run(&events).unwrap());
        for shards in [1, 2, 4] {
            let mut exec = StreamExecutor::<u64>::new(
                q.clone(),
                reg.clone(),
                ExecutorConfig {
                    shards,
                    ..Default::default()
                },
            )
            .unwrap();
            let mut rows = Vec::new();
            for e in &events {
                exec.push(e.clone()).unwrap();
                rows.extend(exec.poll_results());
            }
            rows.extend(exec.finish().unwrap());
            assert_eq!(sorted(rows), expect, "shards={shards}");
            let stats = exec.stats();
            assert_eq!(stats.pushed, events.len() as u64);
            assert_eq!(stats.engine.events, events.len() as u64);
        }
    }

    #[test]
    fn batch_sizes_do_not_change_results() {
        let (reg, q, events) = grouped_setup();
        let mut engine = GretaEngine::<u64>::new(q.clone(), reg.clone()).unwrap();
        let expect = sorted(engine.run(&events).unwrap());
        let mut frames_seen = Vec::new();
        for batch_size in [1usize, 7, 64, 10_000] {
            let mut exec = StreamExecutor::<u64>::new(
                q.clone(),
                reg.clone(),
                ExecutorConfig {
                    shards: 3,
                    batch_size,
                    ..Default::default()
                },
            )
            .unwrap();
            let mut rows = Vec::new();
            for e in &events {
                exec.push(e.clone()).unwrap();
                rows.extend(exec.poll_results());
            }
            rows.extend(exec.finish().unwrap());
            assert_eq!(sorted(rows), expect, "batch_size={batch_size}");
            frames_seen.push(exec.stats().frames);
        }
        // Bigger batches mean fewer frames.
        assert!(
            frames_seen[0] > frames_seen[2],
            "batch=1 sent {} frames, batch=64 sent {}",
            frames_seen[0],
            frames_seen[2]
        );
    }

    #[test]
    fn results_stream_incrementally_not_only_at_finish() {
        let (reg, q, events) = grouped_setup();
        let mut exec = StreamExecutor::<u64>::new(
            q,
            reg,
            ExecutorConfig {
                shards: 2,
                ..Default::default()
            },
        )
        .unwrap();
        let mut streamed = 0usize;
        for e in &events {
            exec.push(e.clone()).unwrap();
            streamed += exec.poll_results().len();
        }
        // Workers flush asynchronously; give the last close a moment.
        for _ in 0..100 {
            streamed += exec.poll_results().len();
            if streamed > 0 {
                break;
            }
            std::thread::sleep(std::time::Duration::from_millis(1));
        }
        assert!(streamed > 0, "no rows before finish()");
        exec.finish().unwrap();
    }

    #[test]
    fn late_policies() {
        let mk = |policy| {
            let mut reg = SchemaRegistry::new();
            reg.register_type("A", &[]).unwrap();
            let q = CompiledQuery::parse("RETURN COUNT(*) PATTERN A+ WITHIN 100 SLIDE 100", &reg)
                .unwrap();
            let tid = reg.type_id("A").unwrap();
            let exec = StreamExecutor::<u64>::new(
                q,
                reg,
                ExecutorConfig {
                    shards: 1,
                    slack: 2,
                    late_policy: policy,
                    ..Default::default()
                },
            )
            .unwrap();
            (exec, tid)
        };
        let ev = |tid, t| Event::new_unchecked(tid, Time(t), vec![]);

        // Drop: the late event vanishes but is counted, globally and per
        // window.
        let (mut exec, tid) = mk(LatePolicy::Drop);
        for t in [10u64, 20, 5] {
            exec.push(ev(tid, t)).unwrap();
        }
        let rows = exec.finish().unwrap();
        let stats = exec.stats();
        assert_eq!(stats.late_dropped, 1);
        assert_eq!(
            stats.late_by_window,
            vec![WindowLateCounts {
                window: 0,
                dropped: 1,
                diverted: 0
            }]
        );
        assert_eq!(rows[0].values[0].to_f64(), 3.0); // {10},{20},{10,20}

        // Divert: the late event is handed back.
        let (mut exec, tid) = mk(LatePolicy::Divert);
        for t in [10u64, 20, 5] {
            exec.push(ev(tid, t)).unwrap();
        }
        exec.finish().unwrap();
        let diverted = exec.take_diverted();
        let stats = exec.stats();
        assert_eq!(stats.late_diverted, 1);
        assert_eq!(stats.late_by_window[0].diverted, 1);
        assert_eq!(diverted.len(), 1);
        assert_eq!(diverted[0].time, Time(5));

        // Error: push fails loudly.
        let (mut exec, tid) = mk(LatePolicy::Error);
        exec.push(ev(tid, 10)).unwrap();
        exec.push(ev(tid, 20)).unwrap();
        let err = exec.push(ev(tid, 5)).unwrap_err();
        assert!(matches!(err, EngineError::Late { got: 5, .. }), "{err}");
        exec.finish().unwrap();
    }

    #[test]
    fn slack_reorders_disordered_input() {
        let mut reg = SchemaRegistry::new();
        reg.register_type("A", &[]).unwrap();
        let q =
            CompiledQuery::parse("RETURN COUNT(*) PATTERN A+ WITHIN 100 SLIDE 100", &reg).unwrap();
        let tid = reg.type_id("A").unwrap();
        let mut exec = StreamExecutor::<u64>::new(
            q,
            reg,
            ExecutorConfig {
                shards: 1,
                slack: 5,
                late_policy: LatePolicy::Error,
                ..Default::default()
            },
        )
        .unwrap();
        for t in [2u64, 1, 4, 3, 5] {
            exec.push(Event::new_unchecked(tid, Time(t), vec![]))
                .unwrap();
        }
        let rows = exec.finish().unwrap();
        assert_eq!(rows[0].values[0].to_f64(), 31.0); // 2^5 - 1
        assert_eq!(exec.stats().released, 5);
    }

    #[test]
    fn ungrouped_query_clamps_to_one_shard() {
        let mut reg = SchemaRegistry::new();
        reg.register_type("A", &[]).unwrap();
        let q =
            CompiledQuery::parse("RETURN COUNT(*) PATTERN A+ WITHIN 10 SLIDE 10", &reg).unwrap();
        let exec = StreamExecutor::<u64>::new(
            q,
            reg,
            ExecutorConfig {
                shards: 8,
                ..Default::default()
            },
        )
        .unwrap();
        assert_eq!(exec.shards(), 1);
    }

    #[test]
    fn zero_shards_rejected_and_push_after_finish_errors() {
        let mut reg = SchemaRegistry::new();
        reg.register_type("A", &[]).unwrap();
        let q =
            CompiledQuery::parse("RETURN COUNT(*) PATTERN A+ WITHIN 10 SLIDE 10", &reg).unwrap();
        assert!(StreamExecutor::<u64>::new(
            q.clone(),
            reg.clone(),
            ExecutorConfig {
                shards: 0,
                ..Default::default()
            },
        )
        .is_err());
        let tid = reg.type_id("A").unwrap();
        let mut exec = StreamExecutor::<u64>::new(q, reg, ExecutorConfig::default()).unwrap();
        exec.finish().unwrap();
        assert!(exec.finish().unwrap().is_empty()); // idempotent
        assert!(exec
            .push(Event::new_unchecked(tid, Time(1), vec![]))
            .is_err());
    }

    #[test]
    fn poll_free_caller_with_tiny_channels_cannot_deadlock() {
        // Regression: with a full result channel and full shard queues, a
        // caller that never polls used to park forever in push()/finish().
        // The sender now drains results into an internal buffer instead.
        let (reg, q, events) = grouped_setup();
        let mut engine = GretaEngine::<u64>::new(q.clone(), reg.clone()).unwrap();
        let expect = sorted(engine.run(&events).unwrap());
        let mut exec = StreamExecutor::<u64>::new(
            q,
            reg,
            ExecutorConfig {
                shards: 2,
                channel_capacity: 2,
                result_capacity: 1,
                batch_size: 4,
                ..Default::default()
            },
        )
        .unwrap();
        for e in &events {
            exec.push(e.clone()).unwrap(); // no poll_results() on purpose
        }
        let rows = exec.finish().unwrap();
        assert_eq!(sorted(rows), expect);
        assert!(exec.stats().max_channel_occupancy >= 2);
    }

    #[test]
    fn broadcast_frames_are_pointer_identical_across_shards() {
        // The zero-copy event plane: a broadcast event reaches every shard
        // as an `Arc` clone of ONE allocation, never as a deep copy.
        let mut reg = SchemaRegistry::new();
        reg.register_type("Accident", &["segment"]).unwrap();
        reg.register_type("Position", &["vehicle", "segment"])
            .unwrap();
        let q = CompiledQuery::parse(
            "RETURN segment, COUNT(*) PATTERN SEQ(NOT Accident X, Position P+) \
             WHERE [P.vehicle, segment] GROUP-BY segment WITHIN 1000 SLIDE 1000",
            &reg,
        )
        .unwrap();
        let mut exec = StreamExecutor::<u64>::new(
            q,
            reg.clone(),
            ExecutorConfig {
                shards: 3,
                batch_size: 10_000, // keep frames buffered so we can inspect them
                ..Default::default()
            },
        )
        .unwrap();
        let acc = EventBuilder::new(&reg, "Accident")
            .unwrap()
            .at(Time(1))
            .set("segment", 4)
            .unwrap()
            .build();
        let pos = EventBuilder::new(&reg, "Position")
            .unwrap()
            .at(Time(5))
            .set("vehicle", 7)
            .unwrap()
            .set("segment", 4)
            .unwrap()
            .build();
        exec.push(acc).unwrap();
        exec.push(pos).unwrap(); // advances the reorder horizon past t=1
        assert_eq!(exec.stats().broadcasts, 1);
        assert_eq!(exec.groups[0].batch_bufs.len(), 3);
        let first = &exec.groups[0].batch_bufs[0][0];
        for buf in &exec.groups[0].batch_bufs[1..] {
            assert!(
                std::sync::Arc::ptr_eq(first, &buf[0]),
                "broadcast event was copied instead of shared"
            );
        }
        exec.finish().unwrap();
    }

    #[test]
    fn broadcast_types_reach_all_shards() {
        // Q3-style leading negation with a sub-key type, 3 shards.
        let mut reg = SchemaRegistry::new();
        reg.register_type("Accident", &["segment"]).unwrap();
        reg.register_type("Position", &["vehicle", "segment"])
            .unwrap();
        let q = CompiledQuery::parse(
            "RETURN segment, COUNT(*) PATTERN SEQ(NOT Accident X, Position P+) \
             WHERE [P.vehicle, segment] GROUP-BY segment WITHIN 100 SLIDE 100",
            &reg,
        )
        .unwrap();
        let pos = |t: u64, v: i64, s: i64| {
            EventBuilder::new(&reg, "Position")
                .unwrap()
                .at(Time(t))
                .set("vehicle", v)
                .unwrap()
                .set("segment", s)
                .unwrap()
                .build()
        };
        let acc = |t: u64, s: i64| {
            EventBuilder::new(&reg, "Accident")
                .unwrap()
                .at(Time(t))
                .set("segment", s)
                .unwrap()
                .build()
        };
        let events = vec![
            pos(1, 1, 1),
            pos(1, 2, 2),
            acc(2, 1),
            pos(3, 1, 1),
            pos(3, 2, 2),
        ];
        let mut engine = GretaEngine::<u64>::new(q.clone(), reg.clone()).unwrap();
        let expect = sorted(engine.run(&events).unwrap());
        let mut exec = StreamExecutor::<u64>::new(
            q,
            reg,
            ExecutorConfig {
                shards: 3,
                ..Default::default()
            },
        )
        .unwrap();
        for e in &events {
            exec.push(e.clone()).unwrap();
        }
        let rows = exec.finish().unwrap();
        assert_eq!(sorted(rows), expect);
        assert_eq!(exec.stats().broadcasts, 1);
    }

    // ------------------------------------------------------------------
    // Dynamic rebalancing
    // ------------------------------------------------------------------

    /// A 90/10 hot-key stream over `hot` hot groups and a tail of cold
    /// ones: 90% of events round-robin the hot groups, 10% spread wide.
    fn skewed_setup(n: usize, hot: i64, cold: i64) -> (SchemaRegistry, CompiledQuery, Vec<Event>) {
        let mut reg = SchemaRegistry::new();
        reg.register_type("M", &["grp", "load"]).unwrap();
        let q = CompiledQuery::parse(
            "RETURN grp, COUNT(*) PATTERN M+ WHERE M.load < NEXT(M).load \
             GROUP-BY grp WITHIN 40 SLIDE 20",
            &reg,
        )
        .unwrap();
        let events: Vec<Event> = (0..n as u64)
            .map(|t| {
                let grp = if t % 10 < 9 {
                    (t % hot as u64) as i64 // hot minority
                } else {
                    hot + (t % cold as u64) as i64 // cold tail
                };
                EventBuilder::new(&reg, "M")
                    .unwrap()
                    .at(Time(t))
                    .set("grp", grp)
                    .unwrap()
                    .set("load", ((t * 31) % 17) as f64)
                    .unwrap()
                    .build()
            })
            .collect();
        (reg, q, events)
    }

    fn aggressive_rebalance() -> RebalanceConfig {
        RebalanceConfig {
            check_every_windows: 2,
            imbalance_ratio: 1.2,
            min_moves: 1,
        }
    }

    #[test]
    fn skewed_stream_triggers_rebalance_and_results_stay_identical() {
        let (reg, q, events) = skewed_setup(400, 3, 23);
        let mut engine = GretaEngine::<u64>::new(q.clone(), reg.clone()).unwrap();
        let expect = sorted(engine.run(&events).unwrap());
        let mut exec = StreamExecutor::<u64>::new(
            q,
            reg,
            ExecutorConfig {
                shards: 4,
                rebalance: Some(aggressive_rebalance()),
                ..Default::default()
            },
        )
        .unwrap();
        let mut rows = Vec::new();
        for e in &events {
            exec.push(e.clone()).unwrap();
            rows.extend(exec.poll_results());
        }
        rows.extend(exec.finish().unwrap());
        assert_eq!(sorted(rows), expect);
        let stats = exec.stats();
        assert!(
            stats.rebalances >= 1,
            "3 hot groups over 4 shards must trigger the detector"
        );
        assert_eq!(stats.routing_epoch, stats.rebalances);
        assert!(stats.groups_moved >= 1);
        // Per-group event counters survive the migrations: they must sum
        // to exactly the non-broadcast events released.
        let counted: u64 = stats.group_stats.iter().map(|(_, s)| s.events).sum();
        assert_eq!(counted, stats.released);
        // Engine-side vertex counters are reported per group at finish.
        assert!(stats.group_stats.iter().any(|(_, s)| s.vertices > 0));
    }

    #[test]
    fn balanced_stream_never_rebalances() {
        // Uniform groups: the detector must stay quiet even with an
        // aggressive cadence.
        let (reg, q, events) = grouped_setup();
        let mut exec = StreamExecutor::<u64>::new(
            q,
            reg,
            ExecutorConfig {
                shards: 2,
                rebalance: Some(RebalanceConfig {
                    check_every_windows: 1,
                    imbalance_ratio: 3.0,
                    min_moves: 1,
                }),
                ..Default::default()
            },
        )
        .unwrap();
        for e in &events {
            exec.push(e.clone()).unwrap();
        }
        exec.finish().unwrap();
        let stats = exec.stats();
        assert_eq!(stats.rebalances, 0);
        assert_eq!(stats.routing_epoch, 0);
    }

    #[test]
    fn min_moves_suppresses_marginal_migrations() {
        let (reg, q, events) = skewed_setup(400, 3, 23);
        let mut exec = StreamExecutor::<u64>::new(
            q,
            reg,
            ExecutorConfig {
                shards: 4,
                rebalance: Some(RebalanceConfig {
                    min_moves: usize::MAX, // no plan can clear this bar
                    ..aggressive_rebalance()
                }),
                ..Default::default()
            },
        )
        .unwrap();
        for e in &events {
            exec.push(e.clone()).unwrap();
        }
        exec.finish().unwrap();
        assert_eq!(exec.stats().rebalances, 0);
    }

    #[test]
    fn rebalance_composes_with_durability_and_recovery() {
        // Crash after a rebalance: the snapshot carries the routing table
        // and group counters, and the recovered run stays byte-identical.
        let (reg, q, events) = skewed_setup(400, 3, 23);
        let mut engine = GretaEngine::<u64>::new(q.clone(), reg.clone()).unwrap();
        let expect = sorted(engine.run(&events).unwrap());
        let dir = tmpdir("rebalance-recover");
        let mk_cfg = || ExecutorConfig {
            shards: 4,
            rebalance: Some(aggressive_rebalance()),
            durability: Some(DurabilityConfig::new(&dir)),
            ..Default::default()
        };
        let mut committed = Vec::new();
        let (rebalances_before, epoch_before) = {
            let mut exec = StreamExecutor::<u64>::new(q.clone(), reg.clone(), mk_cfg()).unwrap();
            for e in &events[..250] {
                exec.push(e.clone()).unwrap();
                committed.extend(exec.poll_results());
            }
            exec.checkpoint().unwrap();
            let s = exec.stats();
            (s.rebalances, s.routing_epoch)
        }; // crash
        assert!(rebalances_before >= 1, "prefix must already have migrated");
        let mut exec = StreamExecutor::<u64>::recover(q.clone(), reg.clone(), mk_cfg()).unwrap();
        assert_eq!(exec.routing_epoch(), epoch_before);
        for e in &events[250..] {
            exec.push(e.clone()).unwrap();
            committed.extend(exec.poll_results());
        }
        committed.extend(exec.finish().unwrap());
        assert_eq!(sorted(committed), expect);
        assert!(exec.stats().rebalances >= rebalances_before);
        let _ = std::fs::remove_dir_all(&dir);
    }

    // ------------------------------------------------------------------
    // Durability
    // ------------------------------------------------------------------

    fn durable_config(dir: &std::path::Path, shards: usize) -> ExecutorConfig {
        ExecutorConfig {
            shards,
            durability: Some(DurabilityConfig::new(dir)),
            ..Default::default()
        }
    }

    #[test]
    fn checkpoint_then_crash_then_recover_is_byte_identical() {
        let (reg, q, events) = grouped_setup();
        let mut engine = GretaEngine::<u64>::new(q.clone(), reg.clone()).unwrap();
        let expect = sorted(engine.run(&events).unwrap());
        let dir = tmpdir("ckpt-recover");
        let mut committed = Vec::new();
        {
            let mut exec =
                StreamExecutor::<u64>::new(q.clone(), reg.clone(), durable_config(&dir, 3))
                    .unwrap();
            for e in &events[..150] {
                exec.push(e.clone()).unwrap();
                committed.extend(exec.poll_results());
            }
            exec.checkpoint().unwrap();
            assert!(exec.stats().checkpoints >= 1);
            // Crash: drop without finish(). Rows polled before the
            // checkpoint are kept (`committed`); un-polled rows live in
            // the snapshot and resurface through the recovered executor.
            // (Rows polled *after* a checkpoint would be re-emitted on
            // recovery — deterministic duplicates for an idempotent sink.)
        }
        let mut exec =
            StreamExecutor::<u64>::recover(q.clone(), reg.clone(), durable_config(&dir, 3))
                .unwrap();
        let mut rows = Vec::new();
        for e in &events[150..] {
            exec.push(e.clone()).unwrap();
            rows.extend(exec.poll_results());
        }
        rows.extend(exec.finish().unwrap());
        committed.extend(rows);
        assert_eq!(sorted(committed), expect);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn crash_before_first_checkpoint_replays_whole_wal() {
        let (reg, q, events) = grouped_setup();
        let mut engine = GretaEngine::<u64>::new(q.clone(), reg.clone()).unwrap();
        let expect = sorted(engine.run(&events).unwrap());
        let dir = tmpdir("no-ckpt");
        {
            let mut cfg = durable_config(&dir, 2);
            // Cadence so large no automatic checkpoint fires.
            cfg.durability.as_mut().unwrap().snapshot_every_windows = u64::MAX;
            let mut exec = StreamExecutor::<u64>::new(q.clone(), reg.clone(), cfg).unwrap();
            for e in &events[..57] {
                exec.push(e.clone()).unwrap();
            }
            // Crash without ever polling: every row must come from recovery.
        }
        let mut exec =
            StreamExecutor::<u64>::recover(q.clone(), reg.clone(), durable_config(&dir, 2))
                .unwrap();
        let mut rows = Vec::new();
        for e in &events[57..] {
            exec.push(e.clone()).unwrap();
            rows.extend(exec.poll_results());
        }
        rows.extend(exec.finish().unwrap());
        assert_eq!(sorted(rows), expect);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn automatic_cadence_checkpoints_and_wal_truncation() {
        let (reg, q, events) = grouped_setup();
        let dir = tmpdir("cadence");
        let mut cfg = durable_config(&dir, 2);
        {
            let d = cfg.durability.as_mut().unwrap();
            d.snapshot_every_windows = 1;
            d.segment_bytes = 512; // force rotations so truncation can bite
        }
        let mut exec = StreamExecutor::<u64>::new(q.clone(), reg.clone(), cfg).unwrap();
        for e in &events {
            exec.push(e.clone()).unwrap();
            exec.poll_results();
        }
        exec.finish().unwrap();
        let stats = exec.stats();
        assert!(
            stats.checkpoints >= 3,
            "expected cadence checkpoints, got {}",
            stats.checkpoints
        );
        // Obsolete segments were truncated: the on-disk WAL no longer
        // reaches back to record 0.
        let err = Wal::replay(&dir, 0, TailPolicy::Tolerate, |_, _| {}).unwrap_err();
        assert!(matches!(
            err,
            greta_durability::DurabilityError::NothingToRecover(_)
        ));
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn recovery_after_graceful_finish_resumes_empty() {
        // finish() takes a final checkpoint; recovering afterwards yields a
        // executor with the full history in its counters and nothing to
        // replay.
        let (reg, q, events) = grouped_setup();
        let dir = tmpdir("graceful");
        let mut exec =
            StreamExecutor::<u64>::new(q.clone(), reg.clone(), durable_config(&dir, 2)).unwrap();
        for e in &events {
            exec.push(e.clone()).unwrap();
            exec.poll_results();
        }
        exec.finish().unwrap();
        let mut recovered =
            StreamExecutor::<u64>::recover(q.clone(), reg.clone(), durable_config(&dir, 2))
                .unwrap();
        assert_eq!(recovered.stats().pushed, events.len() as u64);
        let rows = recovered.finish().unwrap();
        assert!(rows.is_empty(), "graceful finish left {} rows", rows.len());
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn new_refuses_dir_with_existing_state_and_recover_reshards() {
        let (reg, q, events) = grouped_setup();
        let mut engine = GretaEngine::<u64>::new(q.clone(), reg.clone()).unwrap();
        let expect = sorted(engine.run(&events).unwrap());
        let dir = tmpdir("refuse");
        let mut committed = Vec::new();
        {
            let mut exec =
                StreamExecutor::<u64>::new(q.clone(), reg.clone(), durable_config(&dir, 2))
                    .unwrap();
            for e in &events[..120] {
                exec.push(e.clone()).unwrap();
                committed.extend(exec.poll_results());
            }
            exec.checkpoint().unwrap();
        }
        // new() on a used dir is refused (would shadow recoverable state).
        let err = StreamExecutor::<u64>::new(q.clone(), reg.clone(), durable_config(&dir, 2))
            .err()
            .expect("new() must refuse a dir with recoverable state");
        assert!(matches!(err, EngineError::Config(_)), "{err}");
        // recover() into a *different* shard count repartitions the
        // snapshot's per-group state under a fresh routing epoch — results
        // stay byte-identical to the uninterrupted run.
        let mut exec =
            StreamExecutor::<u64>::recover(q.clone(), reg.clone(), durable_config(&dir, 5))
                .unwrap();
        assert_eq!(exec.shards(), 5);
        assert!(exec.routing_epoch() > 0, "resharding bumps the epoch");
        for e in &events[120..] {
            exec.push(e.clone()).unwrap();
            committed.extend(exec.poll_results());
        }
        committed.extend(exec.finish().unwrap());
        assert_eq!(sorted(committed), expect);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn logged_then_rejected_late_event_does_not_poison_recovery() {
        // Under LatePolicy::Error the event is WAL-logged before the late
        // check fails the push; replay must skip it the same way the
        // original caller did, not fail recovery forever.
        let mut reg = SchemaRegistry::new();
        reg.register_type("A", &[]).unwrap();
        let q =
            CompiledQuery::parse("RETURN COUNT(*) PATTERN A+ WITHIN 100 SLIDE 100", &reg).unwrap();
        let tid = reg.type_id("A").unwrap();
        let dir = tmpdir("late-poison");
        let mk_cfg = || ExecutorConfig {
            shards: 1,
            slack: 2,
            late_policy: LatePolicy::Error,
            durability: Some(DurabilityConfig::new(&dir)),
            ..Default::default()
        };
        {
            let mut exec = StreamExecutor::<u64>::new(q.clone(), reg.clone(), mk_cfg()).unwrap();
            let ev = |t| Event::new_unchecked(tid, Time(t), vec![]);
            exec.push(ev(10)).unwrap();
            exec.push(ev(20)).unwrap();
            // Late: logged, then rejected — the caller notes it and goes on.
            assert!(matches!(
                exec.push(ev(5)).unwrap_err(),
                EngineError::Late { got: 5, .. }
            ));
            exec.push(ev(30)).unwrap();
        } // crash
        let mut exec = StreamExecutor::<u64>::recover(q, reg, mk_cfg()).unwrap();
        assert_eq!(exec.stats().pushed, 4);
        let rows = exec.finish().unwrap();
        // Same result the uninterrupted run produces: trends over {10,20,30}.
        assert_eq!(rows[0].values[0].to_f64(), 7.0);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn recover_refuses_mismatched_slack_or_late_policy() {
        let (reg, q, events) = grouped_setup();
        let dir = tmpdir("cfg-mismatch");
        let mk_cfg = |slack, late_policy| ExecutorConfig {
            shards: 2,
            slack,
            late_policy,
            durability: Some(DurabilityConfig::new(&dir)),
            ..Default::default()
        };
        {
            let mut exec =
                StreamExecutor::<u64>::new(q.clone(), reg.clone(), mk_cfg(3, LatePolicy::Divert))
                    .unwrap();
            for e in &events[..150] {
                exec.push(e.clone()).unwrap();
            }
            exec.checkpoint().unwrap();
        }
        for bad in [mk_cfg(0, LatePolicy::Divert), mk_cfg(3, LatePolicy::Drop)] {
            let err = StreamExecutor::<u64>::recover(q.clone(), reg.clone(), bad)
                .err()
                .expect("recover must refuse result-shaping config changes");
            assert!(matches!(err, EngineError::Config(_)), "{err}");
        }
        // The matching config still works.
        let mut exec =
            StreamExecutor::<u64>::recover(q.clone(), reg.clone(), mk_cfg(3, LatePolicy::Divert))
                .unwrap();
        exec.finish().unwrap();
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn checkpoint_requires_durability() {
        let (reg, q, _) = grouped_setup();
        let mut exec = StreamExecutor::<u64>::new(
            q,
            reg,
            ExecutorConfig {
                shards: 1,
                ..Default::default()
            },
        )
        .unwrap();
        assert!(matches!(
            exec.checkpoint().unwrap_err(),
            EngineError::Config(_)
        ));
        exec.finish().unwrap();
    }

    #[test]
    fn recovery_preserves_reorder_slack_state_and_diverted() {
        // Out-of-order events pending in the reorder buffer at checkpoint
        // time survive the crash via the snapshot (they are *before* the
        // manifest's WAL cut).
        let mut reg = SchemaRegistry::new();
        reg.register_type("A", &["grp"]).unwrap();
        let q = CompiledQuery::parse(
            "RETURN grp, COUNT(*) PATTERN A+ GROUP-BY grp WITHIN 20 SLIDE 20",
            &reg,
        )
        .unwrap();
        let tid = reg.type_id("A").unwrap();
        let ev = |t: u64| Event::new_unchecked(tid, Time(t), vec![greta_types::Value::Int(0)]);
        let times: Vec<u64> = vec![2, 1, 4, 3, 6, 5, 8, 7, 30, 29, 31, 28, 50];
        let mk_cfg = |dir: &std::path::Path| ExecutorConfig {
            shards: 1,
            slack: 3,
            late_policy: LatePolicy::Divert,
            durability: Some(DurabilityConfig::new(dir)),
            ..Default::default()
        };
        // Oracle without durability.
        let mut oracle = StreamExecutor::<u64>::new(
            q.clone(),
            reg.clone(),
            ExecutorConfig {
                durability: None,
                ..mk_cfg(std::path::Path::new("/unused"))
            },
        )
        .unwrap();
        let mut expect = Vec::new();
        for &t in &times {
            oracle.push(ev(t)).unwrap();
        }
        expect.extend(oracle.finish().unwrap());
        let n_div_expect = {
            let d = oracle.take_diverted();
            d.len()
        };

        let dir = tmpdir("reorder-divert");
        let mut committed = Vec::new();
        {
            let mut exec =
                StreamExecutor::<u64>::new(q.clone(), reg.clone(), mk_cfg(&dir)).unwrap();
            for &t in &times[..7] {
                exec.push(ev(t)).unwrap();
                committed.extend(exec.poll_results());
            }
            exec.checkpoint().unwrap();
        } // crash
        let mut exec =
            StreamExecutor::<u64>::recover(q.clone(), reg.clone(), mk_cfg(&dir)).unwrap();
        for &t in &times[7..] {
            exec.push(ev(t)).unwrap();
            committed.extend(exec.poll_results());
        }
        committed.extend(exec.finish().unwrap());
        assert_eq!(sorted(committed), sorted(expect));
        assert_eq!(exec.take_diverted().len(), n_div_expect);
        let _ = std::fs::remove_dir_all(&dir);
    }
}
