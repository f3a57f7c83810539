//! Plane 3 — shard engines, seen from the coordinator: one input channel
//! and one thread per shard, the shared result channel, the return
//! channel for spent event frames, and the ack ledger of the barrier in
//! flight. What a shard does with a message is [`worker_step`]; this
//! module is how messages get there, how answers and spent frames come
//! back, and how the threads end.

use super::barrier::{worker_finish, worker_step, Cut, EngineSlot, Msg, OutMsg, QueryBlobs};
use super::merge::Merge;
use super::{ExecutorConfig, ExecutorStats};
use crate::agg::TrendNum;
use crate::engine::{EngineStats, GretaEngine};
use crate::results::WindowResult;
use crate::EngineError;
use crate::MemoryFootprint;
use crossbeam::channel::{self, Receiver, Sender, TrySendError};
use greta_types::codec::{put_u32, Reader};
use greta_types::{CodecError, EventRef};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;

/// Empty frame buffers kept per shard for the route plane's next frames;
/// spent frames beyond that are freed as they come back.
const SPARE_FRAMES_PER_SHARD: usize = 4;

/// What a shard worker hands back when it ends — and, summed over the
/// shards, what the end of the stream leaves behind.
#[derive(Default)]
pub(super) struct Report {
    /// Engine counters and peak memory, summed over the engines.
    stats: EngineStats,
    peak_bytes: usize,
    /// Post-`finish` engine states per hosted query, one entry per shard,
    /// exported when durability is on so the terminal checkpoint reflects
    /// a fully-closed stream.
    pub(super) final_states: Vec<QueryBlobs>,
}

/// The worker plane. See the [module docs](self).
pub(super) struct Worker<N: TrendNum> {
    pub(super) shards: usize,
    /// One input channel per shard; empty once the inputs are closed.
    senders: Vec<Sender<Msg<GretaEngine<N>>>>,
    results_rx: Receiver<OutMsg<WindowResult<N>>>,
    /// Rows on the result channel: the shards add a batch's rows before
    /// they send it, the coordinator subtracts them as it absorbs it. A
    /// statistic that publishes nothing else, hence `Relaxed`; the channel
    /// orders each add before its subtraction.
    result_rows: Arc<AtomicUsize>,
    /// Event frames the shards have run through their engines, handed
    /// back so that their events are released, and their buffers reused,
    /// on this thread.
    spent_rx: Receiver<Vec<EventRef>>,
    /// Cleared spent frames kept for the route plane's next frames.
    spare: Vec<Vec<EventRef>>,
    /// Ack ledger of the barrier in flight, if any.
    pub(super) cut: Cut,
    handles: Vec<JoinHandle<Result<Report, EngineError>>>,
    /// The workers' reports, summed; empty until the stream has ended.
    pub(super) ended: Report,
}

impl<N: TrendNum> Worker<N> {
    /// Wire the channels and spawn one worker per entry of `per_shard`,
    /// each hosting that entry's engines from the start (nothing waits on
    /// a thread that is still starting up).
    pub(super) fn spawn(
        per_shard: Vec<Vec<EngineSlot<GretaEngine<N>>>>,
        config: &ExecutorConfig,
        export_final: bool,
    ) -> Result<Self, EngineError> {
        let shards = per_shard.len();
        let channel_capacity = config.channel_capacity.max(1);
        let (results_tx, results_rx) = channel::bounded(config.result_capacity.max(1));
        let (spent_tx, spent_rx) = channel::bounded(shards * channel_capacity);
        let result_rows = Arc::new(AtomicUsize::new(0));
        let mut senders = Vec::with_capacity(shards);
        let mut handles = Vec::with_capacity(shards);
        for (shard, slots) in per_shard.into_iter().enumerate() {
            let (tx, rx) = channel::bounded(channel_capacity);
            senders.push(tx);
            let out = ShardOut {
                results: results_tx.clone(),
                result_rows: result_rows.clone(),
                spent: spent_tx.clone(),
            };
            handles.push(
                std::thread::Builder::new()
                    .name(format!("greta-shard-{shard}"))
                    .spawn(move || worker_loop::<N>(slots, shard, rx, out, export_final))
                    .map_err(|e| EngineError::Worker(e.to_string()))?,
            );
        }
        // `results_tx` and `spent_tx` drop here: the workers hold the only
        // senders.
        Ok(Worker {
            shards,
            senders,
            results_rx,
            result_rows,
            spent_rx,
            spare: Vec::new(),
            cut: Cut::new(shards),
            handles,
            ended: Report::default(),
        })
    }

    /// The inputs are closed: the stream has ended or a worker failed.
    pub(super) fn closed(&self) -> bool {
        self.senders.is_empty()
    }

    /// Frames queued on `shard`'s input channel.
    pub(super) fn queued(&self, shard: usize) -> usize {
        self.senders[shard].len()
    }

    /// An empty buffer for the route plane's next frame: a spent frame the
    /// shards handed back, else a new one.
    #[deny(clippy::disallowed_methods, clippy::disallowed_macros)]
    pub(super) fn empty_frame(&mut self, batch_size: usize) -> Vec<EventRef> {
        self.reclaim_frames();
        self.spare
            .pop()
            .unwrap_or_else(|| Vec::with_capacity(batch_size))
    }

    /// Clear every spent frame the shards have handed back — which
    /// releases its events on the thread that allocated them — keeping a
    /// bounded number as spares: whoever polls holds no processed event.
    #[deny(clippy::disallowed_methods, clippy::disallowed_macros)]
    fn reclaim_frames(&mut self) {
        while let Ok(mut frame) = self.spent_rx.try_recv() {
            frame.clear();
            if self.spare.len() < self.shards * SPARE_FRAMES_PER_SHARD {
                self.spare.push(frame);
            }
        }
    }

    /// Absorb one message off the result channel into `merge`.
    fn absorb(
        &mut self,
        msg: OutMsg<WindowResult<N>>,
        merge: &mut Merge<N>,
    ) -> Result<(), EngineError> {
        if let OutMsg::Rows { rows, .. } = &msg {
            self.result_rows.fetch_sub(rows.len(), Ordering::Relaxed);
        }
        merge.absorb(msg, &mut self.cut)
    }

    /// Drain the result channel into `merge` without blocking, and reclaim
    /// the spent frames; true if any result message came.
    pub(super) fn drain_ready(&mut self, merge: &mut Merge<N>) -> Result<bool, EngineError> {
        self.reclaim_frames();
        let mut any = false;
        while let Ok(msg) = self.results_rx.try_recv() {
            self.absorb(msg, merge)?;
            any = true;
        }
        Ok(any)
    }

    /// Deliver `msg` to a shard without ever blocking this thread for good:
    /// while the shard's input queue is full, drain the result channel into
    /// the per-query buffers (the pushing thread is the only result
    /// consumer, so parking in a blocking `send` while workers wait to
    /// emit rows would deadlock the pipeline).
    pub(super) fn send(
        &mut self,
        shard: usize,
        mut msg: Msg<GretaEngine<N>>,
        merge: &mut Merge<N>,
    ) -> Result<(), EngineError> {
        loop {
            match self.senders[shard].try_send(msg) {
                Ok(()) => return Ok(()),
                Err(TrySendError::Full(back)) => {
                    msg = back;
                    if !self.drain_ready(merge)? {
                        std::thread::yield_now();
                    }
                }
                Err(TrySendError::Disconnected(_)) => return Err(self.reap(merge)),
            }
        }
    }

    /// Absorb the result channel until every shard has acked the open
    /// cut; the acks' blobs, by shard.
    pub(super) fn wait_acks(
        &mut self,
        merge: &mut Merge<N>,
    ) -> Result<Vec<QueryBlobs>, EngineError> {
        while !self.cut.done() {
            if !self.drain_ready(merge)? {
                // A worker that exits while its input is open has failed,
                // and its ack will never come.
                if self.handles.iter().any(JoinHandle::is_finished) {
                    return Err(self.reap(merge));
                }
                std::thread::yield_now();
            }
        }
        Ok(self.cut.take())
    }

    /// The end of every worker, wanted or not: close the inputs, absorb
    /// what the workers still emit while they finish (joining one that is
    /// blocked sending rows would hang) and clear the frames they hand
    /// back, and join them into [`ended`](Self::ended). Returns the first
    /// failure, if any worker (or the absorbing side) had one.
    pub(super) fn finish(&mut self, merge: &mut Merge<N>) -> Option<EngineError> {
        self.senders.clear();
        let mut error = None;
        // recv() ends when every worker has dropped its result sender —
        // no window of any query can receive further rows after that.
        while let Ok(msg) = self.results_rx.recv() {
            self.reclaim_frames();
            let absorbed = self.absorb(msg, merge);
            error = error.or(absorbed.err());
        }
        for w in self.handles.drain(..) {
            let panicked = |_| Err(EngineError::Worker("shard worker panicked".into()));
            match w.join().unwrap_or_else(panicked) {
                Ok(report) => {
                    add_stats(&mut self.ended.stats, &report.stats);
                    self.ended.peak_bytes += report.peak_bytes;
                    self.ended.final_states.extend(report.final_states);
                }
                Err(e) => error = error.or(Some(e)),
            }
        }
        // The workers are gone: every frame they handed back is queued.
        self.reclaim_frames();
        error
    }

    /// A worker vanished mid-stream: end them all and report the first
    /// error among them (a vanished worker's own, normally).
    fn reap(&mut self, merge: &mut Merge<N>) -> EngineError {
        let closed = || EngineError::Worker("shard input channel closed".into());
        self.finish(merge).unwrap_or_else(closed)
    }

    /// This plane's snapshot section: the shard count the engine blobs of
    /// the merge section are partitioned for. Threads, channels and the
    /// (idle, at a cut) ack ledger are rebuilt by [`spawn`](Self::spawn).
    pub(super) fn encode(&self, out: &mut Vec<u8>) {
        put_u32(out, self.shards as u32);
    }

    /// Inverse of [`encode`](Self::encode): the shard count the
    /// checkpoint was taken at.
    pub(super) fn decode(r: &mut Reader<'_>) -> Result<usize, CodecError> {
        Ok(r.u32()? as usize)
    }

    /// Fill in the counters this plane owns.
    pub(super) fn fill_stats(&self, s: &mut ExecutorStats) {
        s.channel_occupancy = self.senders.iter().map(Sender::len).collect();
        s.result_occupancy = self.result_rows.load(Ordering::Relaxed);
        s.engine = self.ended.stats;
        s.peak_memory_bytes = self.ended.peak_bytes;
    }
}

fn add_stats(sum: &mut EngineStats, s: &EngineStats) {
    sum.events += s.events;
    sum.vertices += s.vertices;
    sum.edges += s.edges;
    sum.results += s.results;
}

/// A shard's ends of the channels back to the coordinator.
struct ShardOut<N: TrendNum> {
    results: Sender<OutMsg<WindowResult<N>>>,
    /// The coordinator's count of rows on the result channel.
    result_rows: Arc<AtomicUsize>,
    spent: Sender<Vec<EventRef>>,
}

impl<N: TrendNum> ShardOut<N> {
    /// Put `msg` on the result channel, counting its rows first so the
    /// coordinator never subtracts rows it has not been told of.
    fn emit(&self, msg: OutMsg<WindowResult<N>>) -> Result<(), EngineError> {
        if let OutMsg::Rows { rows, .. } = &msg {
            self.result_rows.fetch_add(rows.len(), Ordering::Relaxed);
        }
        // The result channel closes only when the executor is dropped
        // without drain(); nobody reads the error that then ends this
        // worker.
        self.results
            .send(msg)
            .map_err(|_| EngineError::Worker("result channel closed".into()))
    }

    /// Hand a spent frame back to the coordinator, which allocated its
    /// events and reuses its buffer. Never blocks: when the return channel
    /// is full, the frame and its events are dropped here instead.
    #[deny(clippy::disallowed_methods, clippy::disallowed_macros)]
    fn give_back(&self, frame: Option<Vec<EventRef>>) {
        if let Some(frame) = frame {
            let _full_or_gone = self.spent.try_send(frame);
        }
    }
}

/// One shard worker: [`worker_step`] per message until the input channel
/// closes, then the end-of-stream finish and the report.
fn worker_loop<N: TrendNum>(
    mut slots: Vec<EngineSlot<GretaEngine<N>>>,
    shard: usize,
    rx: Receiver<Msg<GretaEngine<N>>>,
    out: ShardOut<N>,
    export_final: bool,
) -> Result<Report, EngineError> {
    let mut emit = |m| out.emit(m);
    for msg in rx.iter() {
        let spent = worker_step(&mut slots, shard, msg, &mut emit)?;
        out.give_back(spent);
    }
    worker_finish(&mut slots, shard, &mut emit)?;
    let mut report = Report::default();
    if export_final {
        let states = slots.iter().map(|s| (s.query, s.engine.export_state()));
        report.final_states.push(states.collect());
    }
    for s in &slots {
        add_stats(&mut report.stats, &s.engine.stats());
        report.peak_bytes += s.engine.peak_memory_bytes().max(s.engine.memory_bytes());
    }
    Ok(report)
}
