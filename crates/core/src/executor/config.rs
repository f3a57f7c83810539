//! The executor's public value types: configuration, query ids, and the
//! counters [`StreamExecutor::stats`](super::StreamExecutor::stats)
//! assembles from the planes.

#[cfg(doc)]
use super::StreamExecutor;
use crate::engine::{EngineConfig, EngineStats};
#[cfg(doc)]
use crate::reorder::ResultMerge;
use crate::window::WindowId;
#[cfg(doc)]
use crate::EngineError;
use greta_durability::DurabilityConfig;
use greta_types::CodecError;

/// What to do with an event that arrives later than the reorder slack
/// allows.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum LatePolicy {
    /// Silently drop the event (counted in [`ExecutorStats::late_dropped`]).
    #[default]
    Drop = 0,
    /// Keep the event for the caller ([`StreamExecutor::take_diverted`]) —
    /// e.g. to route into a correction stream.
    Divert = 1,
    /// Fail the `push` with [`EngineError::Late`].
    Error = 2,
}

impl LatePolicy {
    /// The policy's one-byte code (its discriminant) — the same in a
    /// snapshot's ingest section and in the wire protocol's session
    /// options.
    pub fn tag(self) -> u8 {
        self as u8
    }

    /// Inverse of [`tag`](Self::tag).
    pub fn from_tag(tag: u8) -> Result<Self, CodecError> {
        let all = [LatePolicy::Drop, LatePolicy::Divert, LatePolicy::Error];
        let found = all.into_iter().find(|p| p.tag() == tag);
        found.ok_or_else(|| CodecError(format!("bad LatePolicy tag {tag}")))
    }
}

/// Ordering guarantee of one query's result stream.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum EmissionMode {
    /// Rows stream out as shards close windows: per-shard order, arbitrary
    /// interleaving across shards. Lowest latency; sort the concatenation
    /// of all drains (or rely on [`finish`](StreamExecutor::finish), which
    /// sorts its remainder) for the canonical order.
    #[default]
    Unordered = 0,
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
    WindowOrdered = 1,
}

impl EmissionMode {
    /// The mode's one-byte code (its discriminant) — the same in a WAL
    /// register record, a snapshot's per-query section, and the wire
    /// protocol's session options.
    pub fn tag(self) -> u8 {
        self as u8
    }

    /// Inverse of [`tag`](Self::tag).
    pub fn from_tag(tag: u8) -> Result<Self, CodecError> {
        let all = [EmissionMode::Unordered, EmissionMode::WindowOrdered];
        let found = all.into_iter().find(|m| m.tag() == tag);
        found.ok_or_else(|| CodecError(format!("bad EmissionMode tag {tag}")))
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
    /// The channel on which shards hand spent frames back holds `shards ×
    /// channel_capacity` frames; a shard that finds it full drops the
    /// frame itself rather than wait.
    pub channel_capacity: usize,
    /// Result channel capacity, in messages: each holds the rows one
    /// flush of one query on one shard polled (a shard whose message does
    /// not fit waits for the coordinator to absorb one).
    /// [`ExecutorStats::result_occupancy`] counts the rows in them.
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
    /// Result-stream ordering guarantee of the query passed to
    /// [`new`](StreamExecutor::new) (default: [`EmissionMode::Unordered`]);
    /// registered queries pick theirs at
    /// [`register_query`](StreamExecutor::register_query) time.
    pub emission: EmissionMode,
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
            emission: EmissionMode::default(),
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
    /// classification and hash per event serves them all.
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
    /// Events delivered to every shard (broadcast types), counted once
    /// per route group that framed them.
    pub broadcasts: u64,
    /// Watermark messages broadcast to the shards.
    pub watermarks: u64,
    /// `Vec<EventRef>` frames sent to shard queues (all route groups).
    pub frames: u64,
    /// Durability checkpoints completed.
    pub checkpoints: u64,
    /// Version of the query registry: bumped by every successful
    /// [`register_query`](StreamExecutor::register_query) /
    /// [`deregister_query`](StreamExecutor::deregister_query) barrier.
    pub query_epoch: u64,
    /// Per-query stream counters, ascending by [`QueryId`] — one entry per
    /// hosted query, deregistered ones included (marked inactive).
    pub queries: Vec<QueryStreamStats>,
    /// Events delivered per shard, summed over the route groups
    /// (broadcasts count once per shard): the load-balance picture. Its
    /// max is the parallel-throughput bottleneck on a skewed stream.
    pub events_per_shard: Vec<u64>,
    /// Late drops/diverts per window, ascending by window id.
    pub late_by_window: Vec<WindowLateCounts>,
    /// Frames queued per shard input channel when
    /// [`stats`](StreamExecutor::stats) was called (empty after `finish`).
    pub channel_occupancy: Vec<usize>,
    /// Highest shard-queue occupancy (frames) observed at any flush.
    pub max_channel_occupancy: usize,
    /// Rows waiting in the result channel when
    /// [`stats`](StreamExecutor::stats) was called (in however many
    /// messages; [`ExecutorConfig::result_capacity`] bounds those).
    pub result_occupancy: usize,
    /// Aggregated per-shard engine counters, summed over every hosted
    /// query's engines (populated by `finish`).
    pub engine: EngineStats,
    /// Summed per-shard peak memory in bytes (populated by `finish`).
    pub peak_memory_bytes: usize,
}
