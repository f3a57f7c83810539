//! What one timed phase (saturation or paced) of one workload yields,
//! whichever way the program was driven.

use greta_core::WindowResult;

/// One result row and when the benchmark first saw it.
pub struct Observed {
    /// Index into the workload's query list.
    pub query: usize,
    /// Nanoseconds since the phase's first push / ingest.
    pub at_ns: u64,
    pub row: WindowResult<f64>,
}

/// Counters the executor reports about itself once the stream has ended.
#[derive(Debug, Clone, Copy, Default)]
pub struct ProgramStats {
    pub late_dropped: u64,
    pub frames: u64,
    pub watermarks: u64,
    pub max_channel_occupancy: u64,
    pub peak_memory_bytes: u64,
}

#[derive(Default)]
pub struct Phase {
    /// Events offered.
    pub events: u64,
    /// First push → `finish()` returned (in-process); first `Client::ingest`
    /// → subscription ended after `drain` (served). Never the push loop
    /// alone: the shard queues hold hundreds of thousands of events.
    pub wall_ns: u64,
    /// The `finish()` / `drain` call alone.
    pub finish_ns: u64,
    /// Process CPU over `wall_ns`; `None` when `/proc` is unreadable.
    pub cpu_ns: Option<u64>,
    pub rows: Vec<Observed>,
    /// Calls that can fail: pushes, or ingest batches.
    pub ops: u64,
    /// Calls that returned `Err` or were refused.
    pub failed_ops: u64,
    pub program: ProgramStats,
    /// Paced phases: how far behind its schedule the generator sent the
    /// first event of each tick (or each batch), in nanoseconds.
    pub generator_late_ns: Vec<u64>,
    /// Traced runs: duration of every `push` / `Client::ingest` call.
    pub send_ns: Vec<u32>,
    /// Traced in-process runs: duration of every round of `poll_results`
    /// calls (one per hosted query) after a push.
    pub poll_ns: Vec<u32>,
    /// Served runs: acks that carried the busy bit.
    pub busy_acks: u64,
    /// Served runs: rows in each received frame.
    pub rows_per_frame: Vec<u32>,
}

impl Phase {
    /// Rows of one query, in the order they were observed.
    pub fn rows_of(&self, query: usize) -> impl Iterator<Item = &WindowResult<f64>> {
        self.rows
            .iter()
            .filter(move |o| o.query == query)
            .map(|o| &o.row)
    }
}
