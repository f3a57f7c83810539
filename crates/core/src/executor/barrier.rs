//! The barrier plane: the messages that cross the shard channels, the one
//! step a shard worker takes per message, and the coordinator's ack ledger.
//!
//! Everything here is generic over [`ShardEngine`] so that the model
//! checker in this file's tests (`model`) can drive [`worker_step`],
//! [`worker_finish`] and [`Cut`] — this code, not a restatement of it —
//! over a toy engine under every interleaving.

use crate::agg::TrendNum;
use crate::engine::GretaEngine;
use crate::results::WindowResult;
use crate::window::WindowId;
use crate::EngineError;
use greta_types::{EventRef, Time};

/// One shard's serialized engine states: one `(query id, blob)` per
/// hosted query, in registry order.
pub(crate) type QueryBlobs = Vec<(u32, Vec<u8>)>;

/// What [`worker_step`] needs from an engine. [`GretaEngine`] is the only
/// shipped implementor; the trait exists so the model checker can
/// substitute a fake.
pub(crate) trait ShardEngine {
    /// A result row.
    type Row;
    fn process_ref(&mut self, e: &EventRef) -> Result<(), EngineError>;
    fn advance_watermark(&mut self, t: Time);
    fn poll_results(&mut self) -> Vec<Self::Row>;
    fn finish(&mut self) -> Vec<Self::Row>;
    fn export_state(&self) -> Vec<u8>;
    fn emission_frontier(&self) -> WindowId;
}

impl<N: TrendNum> ShardEngine for GretaEngine<N> {
    type Row = WindowResult<N>;
    fn process_ref(&mut self, e: &EventRef) -> Result<(), EngineError> {
        GretaEngine::process_ref(self, e)
    }
    fn advance_watermark(&mut self, t: Time) {
        GretaEngine::advance_watermark(self, t)
    }
    fn poll_results(&mut self) -> Vec<Self::Row> {
        GretaEngine::poll_results(self)
    }
    fn finish(&mut self) -> Vec<Self::Row> {
        GretaEngine::finish(self)
    }
    fn export_state(&self) -> Vec<u8> {
        GretaEngine::export_state(self)
    }
    fn emission_frontier(&self) -> WindowId {
        GretaEngine::emission_frontier(self)
    }
}

/// Worker-side pairing of one hosted query with its engine.
pub(crate) struct EngineSlot<E> {
    pub(crate) query: u32,
    pub(crate) group: u32,
    ordered: bool,
    pub(crate) engine: E,
    /// Per-(query, shard) emission counter (rows are stamped with it).
    seq: u64,
    /// Last emission frontier sent for this slot.
    frontier: WindowId,
}

impl<E> EngineSlot<E> {
    pub(crate) fn new(query: u32, group: u32, ordered: bool, engine: E) -> Self {
        EngineSlot {
            query,
            group,
            ordered,
            engine,
            seq: 0,
            frontier: 0,
        }
    }
}

/// What a barrier asks of the shard it reaches. Whatever the kind, the
/// shard answers with exactly one [`OutMsg::Ack`], sent after every row
/// the messages queued ahead of the barrier (and the barrier itself)
/// produced.
pub(crate) enum BarrierKind<E> {
    /// Serialize every hosted engine; the ack carries the blobs. They
    /// cover exactly the messages queued before the barrier.
    Export,
    /// Host one more query: the engine sees exactly the frames queued
    /// after the barrier.
    Add(Box<EngineSlot<E>>),
    /// Finish and drop one query's engine; its remaining rows precede the
    /// ack.
    Remove(u32),
}

/// Coordinator → shard, over one FIFO channel per shard.
pub(crate) enum Msg<E> {
    /// A batch of in-order shared events for one shard, tagged with the
    /// route group it was framed for (broadcast frames carry `Arc` clones
    /// of the same allocations). Only engines of queries in that group
    /// process it.
    Events { group: u32, frame: Vec<EventRef> },
    /// Close every window ending at or before this time (all queries).
    Watermark(Time),
    /// The cut: see [`BarrierKind`].
    Barrier { kind: BarrierKind<E> },
}

/// Shard → coordinator, all shards over one channel (FIFO per sender).
pub(crate) enum OutMsg<R> {
    /// The rows one flush of one (query, shard) polled, in emission order,
    /// stamped with the owning query, the emitting shard, and the first
    /// row's emission sequence number; the following rows take the next
    /// numbers (strictly increasing per (query, shard); the ordered merge's
    /// sanity check). Never empty.
    Rows {
        query: u32,
        shard: u32,
        first_seq: u64,
        rows: Vec<R>,
    },
    /// One (query, shard)'s emission frontier advanced: that engine will
    /// never emit a row for a window below `next_window`. Sent after the
    /// rows it covers, so the merge never releases a window ahead of its
    /// rows.
    Frontier {
        query: u32,
        shard: u32,
        next_window: WindowId,
    },
    /// This shard has taken the barrier. Per-sender FIFO puts every row it
    /// emitted before the barrier ahead of this message.
    Ack { shard: usize, blobs: QueryBlobs },
    /// This shard's worker has ended — failed, panicked or reached the end
    /// of the stream — and sends nothing more: the last message of every
    /// worker. One that comes before the ack of an open cut means the ack
    /// never will.
    Gone { shard: usize },
}

/// The coordinator's ledger of one cut in flight: which shards have acked
/// and with what. An ack it did not ask for is a protocol error, not a
/// message to drop.
pub(crate) struct Cut {
    acks: Vec<Option<QueryBlobs>>,
    /// Shards still to ack; 0 = no cut in flight.
    waiting: usize,
}

impl Cut {
    pub(crate) fn new(shards: usize) -> Self {
        Cut {
            acks: (0..shards).map(|_| None).collect(),
            waiting: 0,
        }
    }

    /// A barrier is about to go down every shard channel.
    pub(crate) fn open(&mut self) {
        debug_assert!(self.done(), "a cut is already in flight");
        self.waiting = self.acks.len();
    }

    pub(crate) fn ack(&mut self, shard: usize, blobs: QueryBlobs) -> Result<(), EngineError> {
        let refuse = |why: &str| {
            Err(EngineError::Worker(format!(
                "barrier ack from shard {shard}: {why}"
            )))
        };
        if self.done() {
            return refuse("no cut in flight");
        }
        match self.acks.get_mut(shard) {
            None => refuse("no such shard"),
            Some(Some(_)) => refuse("acked this cut already"),
            Some(slot) => {
                *slot = Some(blobs);
                self.waiting -= 1;
                Ok(())
            }
        }
    }

    /// Every shard has acked (or no cut was opened).
    pub(crate) fn done(&self) -> bool {
        self.waiting == 0
    }

    /// The open cut still waits for `shard`'s ack.
    pub(crate) fn awaits(&self, shard: usize) -> bool {
        !self.done() && self.acks.get(shard).is_some_and(Option::is_none)
    }

    /// The completed cut's blobs, by shard.
    pub(crate) fn take(&mut self) -> Vec<QueryBlobs> {
        debug_assert!(self.done(), "cut taken before every shard acked");
        self.acks
            .iter_mut()
            .map(|a| a.take().unwrap_or_default())
            .collect()
    }
}

/// Emit `rows` as this slot's next rows: one message for the whole batch
/// (none for an empty one), so the result channel is crossed once per
/// flush, not once per row.
#[deny(clippy::disallowed_methods, clippy::disallowed_macros)]
fn emit_rows<E: ShardEngine>(
    slot: &mut EngineSlot<E>,
    shard: usize,
    rows: Vec<E::Row>,
    emit: &mut impl FnMut(OutMsg<E::Row>) -> Result<(), EngineError>,
) -> Result<(), EngineError> {
    if rows.is_empty() {
        return Ok(());
    }
    let first_seq = slot.seq + 1;
    slot.seq += rows.len() as u64;
    emit(OutMsg::Rows {
        query: slot.query,
        shard: shard as u32,
        first_seq,
        rows,
    })
}

/// Emit one slot's ready rows and, when ordered, its advanced emission
/// frontier.
fn flush_slot<E: ShardEngine>(
    slot: &mut EngineSlot<E>,
    shard: usize,
    emit: &mut impl FnMut(OutMsg<E::Row>) -> Result<(), EngineError>,
) -> Result<(), EngineError> {
    let rows = slot.engine.poll_results();
    emit_rows(slot, shard, rows, emit)?;
    if slot.ordered {
        let next = slot.engine.emission_frontier();
        if next > slot.frontier {
            slot.frontier = next;
            emit(OutMsg::Frontier {
                query: slot.query,
                shard: shard as u32,
                next_window: next,
            })?;
        }
    }
    Ok(())
}

/// Everything one shard worker does with one message. `emit` puts a
/// message on the result channel; its error (the executor hung up) and an
/// engine's error both end the worker, in which case no ack is sent and
/// the coordinator finds the worker gone. Returns the spent frame of an
/// [`Msg::Events`], which every engine of its group has run through, so
/// the caller can hand it back to the thread that allocated its events.
pub(crate) fn worker_step<E: ShardEngine>(
    slots: &mut Vec<EngineSlot<E>>,
    shard: usize,
    msg: Msg<E>,
    emit: &mut impl FnMut(OutMsg<E::Row>) -> Result<(), EngineError>,
) -> Result<Option<Vec<EventRef>>, EngineError> {
    let spent = match msg {
        Msg::Events { group, frame } => {
            for s in slots.iter_mut().filter(|s| s.group == group) {
                for e in &frame {
                    s.engine.process_ref(e)?;
                }
            }
            Some(frame)
        }
        Msg::Watermark(t) => {
            for s in slots.iter_mut() {
                s.engine.advance_watermark(t);
            }
            None
        }
        Msg::Barrier { kind } => {
            // Every earlier step ended by flushing its rows, so nothing
            // an engine emitted before the barrier can follow the ack.
            let mut blobs = QueryBlobs::new();
            match kind {
                BarrierKind::Export => {
                    blobs = slots
                        .iter()
                        .map(|s| (s.query, s.engine.export_state()))
                        .collect();
                }
                BarrierKind::Add(slot) => slots.push(*slot),
                BarrierKind::Remove(query) => {
                    if let Some(pos) = slots.iter().position(|s| s.query == query) {
                        let mut s = slots.remove(pos);
                        let rest = s.engine.finish();
                        emit_rows(&mut s, shard, rest, emit)?;
                        if s.ordered {
                            emit(OutMsg::Frontier {
                                query,
                                shard: shard as u32,
                                next_window: WindowId::MAX,
                            })?;
                        }
                    }
                }
            }
            emit(OutMsg::Ack { shard, blobs })?;
            return Ok(None);
        }
    };
    slots
        .iter_mut()
        .try_for_each(|s| flush_slot(s, shard, emit))?;
    Ok(spent)
}

/// End of stream (the shard's input channel closed): close every engine's
/// remaining windows. No final frontier is sent — the executor treats the
/// worker's disconnect as frontier = ∞.
pub(crate) fn worker_finish<E: ShardEngine>(
    slots: &mut [EngineSlot<E>],
    shard: usize,
    emit: &mut impl FnMut(OutMsg<E::Row>) -> Result<(), EngineError>,
) -> Result<(), EngineError> {
    for s in slots {
        let rest = s.engine.finish();
        emit_rows(s, shard, rest, emit)?;
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::model::{toy_event, ToyEngine};
    use super::*;

    fn is_worker_error(r: Result<(), EngineError>) -> bool {
        matches!(r, Err(EngineError::Worker(_)))
    }

    /// An engine error on the frame just ahead of a barrier ends the worker
    /// with that error and without an ack: the coordinator is left to find
    /// the worker gone, and reports the worker's own error.
    #[test]
    fn engine_error_ahead_of_a_barrier_is_propagated_and_never_acked() {
        let mut slots = vec![EngineSlot::new(7, 0, false, ToyEngine::default())];
        let mut out = Vec::new();
        let queue = [
            Msg::Events {
                group: 0,
                frame: vec![toy_event(2)],
            },
            // Not later than event 2: the engine refuses it.
            Msg::Events {
                group: 0,
                frame: vec![toy_event(1)],
            },
            Msg::Barrier {
                kind: BarrierKind::Export,
            },
        ];
        let ended = queue.into_iter().try_for_each(|msg| {
            let spent = worker_step(&mut slots, 0, msg, &mut |m| {
                out.push(m);
                Ok(())
            });
            spent.map(drop)
        });
        assert_eq!(
            ended,
            Err(EngineError::OutOfOrder {
                watermark: 2,
                got: 1
            })
        );
        assert!(matches!(out[..], [OutMsg::Rows { query: 7, .. }]));
    }

    #[test]
    fn cut_refuses_acks_it_did_not_ask_for() {
        let mut cut = Cut::new(2);
        assert!(is_worker_error(cut.ack(0, Vec::new())), "unsolicited");
        cut.open();
        assert!(is_worker_error(cut.ack(2, Vec::new())), "out of range");
        cut.ack(1, vec![(0, vec![1])]).unwrap();
        assert!(is_worker_error(cut.ack(1, Vec::new())), "duplicate");
        assert!(!cut.done());
        assert!(cut.awaits(0) && !cut.awaits(1) && !cut.awaits(2));
        cut.ack(0, Vec::new()).unwrap();
        assert!(cut.done());
        assert!(!cut.awaits(0));
        assert_eq!(cut.take(), vec![vec![], vec![(0, vec![1])]]);
        assert!(is_worker_error(cut.ack(0, Vec::new())), "after the cut");
    }
}

#[cfg(test)]
mod model {
    //! An exhaustive checker for the executor's barrier protocol that runs the
    //! shipped code. It is test code, compiled only for tests; the shipped
    //! library carries none of it.
    //!
    //! [`crate::executor::StreamExecutor`] coordinates its shard workers
    //! over FIFO channels: events are routed as frames, and checkpoints and
    //! query registration changes travel **in-band** on the same channels as
    //! one barrier message. Every shard answers every barrier with one ack on
    //! the result channel, behind the rows it emitted before the barrier, and
    //! the coordinator absorbs that channel until all shards have acked.
    //!
    //! Which interleaving of shard progress and coordinator progress a real
    //! run takes is up to the OS scheduler, so example tests cannot cover the
    //! protocol. This module **explores every interleaving** with a
    //! deterministic scheduler (a loom-lite: depth-first replay over a choice
    //! stack, no threads involved). What runs under that scheduler is the
    //! executor's own code:
    //!
    //! * a shard's step is [`worker_step`] (and [`worker_finish`] at end of
    //!   stream), taking the executor's [`Msg`] and emitting its [`OutMsg`];
    //! * the coordinator's acks go through [`Cut`].
    //!
    //! What is model: the scheduler, the coordinator's [`Op`] script, the
    //! FIFO queues standing in for the channels (one per shard each way — a
    //! result channel shared by all shards promises order per sender only),
    //! a toy engine behind `ShardEngine`, and a delivery ledger. The result
    //! queues are unbounded, as the shipped result channel is: a shard's
    //! emit never waits. The input queues are unbounded too; the shipped
    //! ones are bounded, but a full one only holds the coordinator back
    //! until its shard takes a message, which is a schedule explored here.
    //! Three invariants are checked in every schedule:
    //!
    //! 1. **All shards cut at the same sequence** — when an export cut
    //!    completes, the shards' exported states together hold exactly the
    //!    events ingested since each query registered, each event at exactly
    //!    one shard.
    //! 2. **No row crosses a barrier** — when a shard's ack is absorbed, every
    //!    row its engines emitted before the barrier has been absorbed already
    //!    (it is in neither the exported state nor, otherwise, the
    //!    coordinator's buffers: a snapshot at that cut would lose it), and
    //!    after a shard acked a query's removal it delivers no row of it.
    //! 3. **Exactly-once delivery** — every expected `(query, row)` is
    //!    delivered exactly once across all paths: normal emission,
    //!    deregister remainders, and the end-of-stream finish.
    //!
    //! The checker also has a red path ([`Fault`]): a shard whose row slips
    //! out behind its ack, or whose barrier jumps its queue, must produce a
    //! [`Violation`] — a model checker that stops seeing broken protocols
    //! fails CI (the tests at the end of this module, which the
    //! `static-analysis` job runs on their own).

    use super::{
        worker_finish, worker_step, BarrierKind, Cut, EngineSlot, Msg, OutMsg, QueryBlobs,
        ShardEngine,
    };
    use crate::window::WindowId;
    use crate::EngineError;
    use greta_types::{Event, EventRef, Time, TypeId};
    use std::collections::BTreeMap;
    use std::collections::VecDeque;
    use std::fmt;

    /// One scripted coordinator operation (the model's ingest plane).
    #[derive(Debug, Clone, Copy, PartialEq, Eq)]
    enum Op {
        /// Ingest the next event; it is routed to shard `seq % shards`.
        Ingest,
        /// Cut an export barrier across every shard.
        Checkpoint,
        /// Register query `id` on every shard (an add barrier).
        Register(u32),
        /// Deregister query `id` (a remove barrier); each shard must deliver
        /// the query's remainder rows exactly once, ahead of its ack.
        Deregister(u32),
    }

    /// A deliberately broken shard variant, used to prove the checker still
    /// catches protocol violations (the model checker's red-path self-test).
    #[derive(Debug, Clone, Copy, PartialEq, Eq)]
    enum Fault {
        /// Faithful protocol.
        None,
        /// The shard's output is reordered so that a row it emitted before a
        /// barrier reaches the result channel *behind* that barrier's ack
        /// (violates invariant 2).
        RowAfterAck {
            /// Index of the misbehaving shard.
            shard: usize,
        },
        /// The shard takes a barrier ahead of events queued before it — its
        /// exported state misses part of the prefix (violates invariant 1).
        EarlyAck {
            /// Index of the misbehaving shard.
            shard: usize,
        },
    }

    /// Hard cap on explored schedules; exceeding it is an error (the
    /// configuration is too large to explore exhaustively).
    const MAX_SCHEDULES: u64 = 2_000_000;

    /// Result of a complete exhaustive exploration.
    #[derive(Debug)]
    struct ExploreReport {
        /// Number of distinct complete schedules executed.
        schedules: u64,
        /// Longest schedule, in scheduler decisions (branching points only).
        max_decisions: usize,
        /// Longest schedule, in total model steps (including forced moves).
        max_steps: usize,
    }

    /// An invariant violation, with the schedule that produced it.
    #[derive(Debug)]
    struct Violation {
        /// 1-based index of the violating schedule in exploration order.
        schedule: u64,
        /// Which invariant broke (short stable name).
        invariant: &'static str,
        /// Human-readable description of the broken state.
        detail: String,
        /// The full action trace of the violating schedule.
        trace: Vec<String>,
    }

    /// The failure message of a test that expected another outcome.
    impl fmt::Display for Violation {
        fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
            write!(
                f,
                "schedule {}: [{}] {} (trace: {} steps)",
                self.schedule,
                self.invariant,
                self.detail,
                self.trace.len()
            )
        }
    }

    /// The fake behind [`ShardEngine`]. Event `k` yields row `2k` at once (a
    /// window it closes) and row `2k + 1` when the engine sees its next event
    /// or is finished (a window it leaves open); the exported state is the
    /// events seen. Like the real engine it refuses an event that is not
    /// later than the last.
    #[derive(Default)]
    pub(super) struct ToyEngine {
        seen: Vec<u64>,
        ready: Vec<u64>,
    }

    impl ToyEngine {
        /// The events recorded in an exported state.
        fn seen_in(blob: &[u8]) -> Vec<u64> {
            blob.chunks_exact(8)
                .map(|c| u64::from_le_bytes(c.try_into().expect("chunk of 8")))
                .collect()
        }
    }

    impl ShardEngine for ToyEngine {
        type Row = u64;
        fn process_ref(&mut self, e: &EventRef) -> Result<(), EngineError> {
            let got = e.time.ticks();
            if let Some(&last) = self.seen.last() {
                if got <= last {
                    return Err(EngineError::OutOfOrder {
                        watermark: last,
                        got,
                    });
                }
                self.ready.push(2 * last + 1);
            }
            self.ready.push(2 * got);
            self.seen.push(got);
            Ok(())
        }
        fn advance_watermark(&mut self, _: Time) {}
        fn poll_results(&mut self) -> Vec<u64> {
            std::mem::take(&mut self.ready)
        }
        fn finish(&mut self) -> Vec<u64> {
            self.ready.extend(self.seen.last().map(|k| 2 * k + 1));
            self.poll_results()
        }
        fn export_state(&self) -> Vec<u8> {
            self.seen.iter().flat_map(|k| k.to_le_bytes()).collect()
        }
        fn emission_frontier(&self) -> WindowId {
            0
        }
    }

    /// The event with sequence number (and time stamp) `seq`.
    pub(super) fn toy_event(seq: u64) -> EventRef {
        Event {
            time: Time(seq),
            type_id: TypeId(0),
            attrs: Box::new([]),
        }
        .into_ref()
    }

    /// One scheduler decision, kept compact so traces are cheap to record.
    #[derive(Debug, Clone, Copy)]
    enum Action {
        ShardProcess(usize),
        Absorb(usize),
        Advance,
    }

    impl Action {
        fn describe(self) -> String {
            match self {
                Action::ShardProcess(s) => format!("shard {s}: worker_step on its next message"),
                Action::Absorb(s) => format!("coordinator: absorb the next message from shard {s}"),
                Action::Advance => "coordinator: advance script".to_string(),
            }
        }
    }

    #[derive(Default)]
    struct Shard {
        /// The shard's input channel.
        queue: VecDeque<Msg<ToyEngine>>,
        /// The worker's state, as `worker_step` keeps it.
        slots: Vec<EngineSlot<ToyEngine>>,
        /// This sender's messages on the result channel, not yet absorbed.
        out: VecDeque<OutMsg<u64>>,
        /// [`Fault::RowAfterAck`]: the rows held back until the next ack.
        late: Option<OutMsg<u64>>,
        /// The end-of-stream finish has run.
        finished: bool,
        /// Queries whose removal this shard has acked.
        gone: Vec<u32>,
    }

    /// What the cut in flight is for.
    enum Pending {
        Export,
        Remove(u32),
        Other,
    }

    type Broken = (&'static str, String);

    /// One execution of the model under a scheduler choice prefix.
    struct Run<'a> {
        /// The coordinator's operation script, executed in order.
        script: &'a [Op],
        /// Fault injection for the checker's own red path.
        fault: Fault,
        shards: Vec<Shard>,
        script_pos: usize,
        seq: u64,
        /// Registered queries with the sequence number they registered at.
        actives: Vec<(u32, u64)>,
        cut: Cut,
        pending: Pending,
        /// The input channels are closed (script done).
        closed: bool,
        /// Delivery ledger: `(query, row)` → `(expected, deliveries)`.
        ledger: BTreeMap<(u32, u64), (bool, u32)>,
        trace: Vec<Action>,
        steps: usize,
    }

    /// The outcome of a single run: executed `(choice, branching factor)`
    /// pairs at every *branching* point (forced moves are not recorded).
    struct RunOutcome {
        decisions: Vec<(usize, usize)>,
        steps: usize,
        violation: Option<Broken>,
    }

    impl<'a> Run<'a> {
        fn new(shards: usize, script: &'a [Op], fault: Fault) -> Run<'a> {
            Run {
                script,
                fault,
                shards: (0..shards).map(|_| Shard::default()).collect(),
                script_pos: 0,
                seq: 0,
                actives: Vec::new(),
                cut: Cut::new(shards),
                pending: Pending::Other,
                closed: false,
                ledger: BTreeMap::new(),
                trace: Vec::new(),
                steps: 0,
            }
        }

        /// Deterministically ordered enabled actions at the current state.
        fn enabled(&self) -> Vec<Action> {
            let mut acts = Vec::new();
            for (s, shard) in self.shards.iter().enumerate() {
                if !shard.queue.is_empty() || (self.closed && !shard.finished) {
                    acts.push(Action::ShardProcess(s));
                }
            }
            for (s, shard) in self.shards.iter().enumerate() {
                if !shard.out.is_empty() {
                    acts.push(Action::Absorb(s));
                }
            }
            // Inside a cut the coordinator only absorbs.
            if self.cut.done() && !self.closed {
                acts.push(Action::Advance);
            }
            acts
        }

        /// The coordinator's side of a cut, minus the wait: open the ledger
        /// and send the barrier down every shard channel.
        fn start_cut(
            &mut self,
            pending: Pending,
            mut kind_for: impl FnMut(usize) -> BarrierKind<ToyEngine>,
        ) {
            self.cut.open();
            self.pending = pending;
            for (s, shard) in self.shards.iter_mut().enumerate() {
                shard.queue.push_back(Msg::Barrier { kind: kind_for(s) });
            }
        }

        /// Coordinator: execute the next scripted op, or end the stream.
        fn advance(&mut self) {
            let Some(&op) = self.script.get(self.script_pos) else {
                self.closed = true;
                return;
            };
            self.script_pos += 1;
            match op {
                Op::Ingest => {
                    self.seq += 1;
                    let seq = self.seq;
                    for &(q, _) in &self.actives {
                        for row in [2 * seq, 2 * seq + 1] {
                            self.ledger.entry((q, row)).or_insert((false, 0)).0 = true;
                        }
                    }
                    let dest = (seq % self.shards.len() as u64) as usize;
                    self.shards[dest].queue.push_back(Msg::Events {
                        group: 0,
                        frame: vec![toy_event(seq)],
                    });
                }
                Op::Checkpoint => self.start_cut(Pending::Export, |_| BarrierKind::Export),
                Op::Register(q) => {
                    self.actives.push((q, self.seq));
                    self.start_cut(Pending::Other, |_| {
                        BarrierKind::Add(Box::new(EngineSlot::new(
                            q,
                            0,
                            false,
                            ToyEngine::default(),
                        )))
                    });
                }
                Op::Deregister(q) => {
                    self.actives.retain(|&(a, _)| a != q);
                    self.start_cut(Pending::Remove(q), |_| BarrierKind::Remove(q));
                }
            }
        }

        /// Shard `s`: one `worker_step` on a queued message, or the
        /// end-of-stream finish once the queue is closed and empty. A faithful
        /// shard takes the queue head (FIFO); a [`Fault::EarlyAck`] shard lets
        /// a queued barrier jump the events in front of it.
        fn shard_process(&mut self, s: usize) -> Result<(), Broken> {
            let early_ack = self.fault == Fault::EarlyAck { shard: s };
            let row_after_ack = self.fault == Fault::RowAfterAck { shard: s };
            let Shard {
                queue,
                slots,
                out,
                late,
                finished,
                ..
            } = &mut self.shards[s];
            let jump = early_ack
                .then(|| queue.iter().position(|m| matches!(m, Msg::Barrier { .. })))
                .flatten();
            let mut emit = |m: OutMsg<u64>| {
                match m {
                    OutMsg::Rows { .. } if row_after_ack && late.is_none() => *late = Some(m),
                    OutMsg::Ack { .. } => {
                        out.push_back(m);
                        out.extend(late.take());
                    }
                    m => out.push_back(m),
                }
                Ok(())
            };
            let stepped = match queue.remove(jump.unwrap_or(0)) {
                Some(msg) => worker_step(slots, s, msg, &mut emit).map(drop),
                None => {
                    *finished = true;
                    worker_finish(slots, s, &mut emit)
                }
            };
            stepped.map_err(|e| ("worker-failed", format!("shard {s}: {e}")))
        }

        /// Coordinator: absorb the next message shard `s` sent, checking
        /// invariants as it arrives.
        fn absorb(&mut self, s: usize) -> Result<(), Broken> {
            match self.shards[s].out.pop_front() {
                Some(OutMsg::Rows { query, rows, .. }) => rows.into_iter().try_for_each(|row| {
                    if self.shards[s].gone.contains(&query) {
                        return Err((
                            "row-crosses-barrier",
                            format!(
                                "shard {s} delivered row (q{query}, r{row}) after acking q{query}'s \
                                 removal; the remainder was already closed"
                            ),
                        ));
                    }
                    self.record_delivery(query, row)
                }),
                Some(OutMsg::Ack { shard, blobs }) => {
                    self.check_ack(shard, &blobs)?;
                    self.cut
                        .ack(shard, blobs)
                        .map_err(|e| ("barrier-protocol", e.to_string()))?;
                    if self.cut.done() {
                        self.complete_cut()?;
                    }
                    Ok(())
                }
                Some(OutMsg::Frontier { .. } | OutMsg::Gone { .. }) | None => Ok(()),
            }
        }

        /// Invariant 2, at the moment `shard`'s ack arrives.
        fn check_ack(&mut self, shard: usize, blobs: &QueryBlobs) -> Result<(), Broken> {
            if let Pending::Remove(q) = self.pending {
                self.shards[shard].gone.push(q);
            }
            for (q, blob) in blobs {
                let seen = ToyEngine::seen_in(blob);
                // The exported state still owes the open row of its last
                // event; every other row of its events has left the engine.
                let emitted = seen
                    .iter()
                    .flat_map(|k| [2 * k, 2 * k + 1])
                    .take((2 * seen.len()).saturating_sub(1));
                for row in emitted {
                    if self.ledger.get(&(*q, row)).map_or(0, |e| e.1) == 0 {
                        return Err((
                            "row-crosses-barrier",
                            format!(
                                "shard {shard} acked while row (q{q}, r{row}), emitted before the \
                                 barrier, was still behind the ack; a snapshot at this cut loses it"
                            ),
                        ));
                    }
                }
            }
            Ok(())
        }

        /// Every shard has acked: invariant 1 on an export.
        fn complete_cut(&mut self) -> Result<(), Broken> {
            let per_shard = self.cut.take();
            let Pending::Export = std::mem::replace(&mut self.pending, Pending::Other) else {
                return Ok(());
            };
            for &(q, since) in &self.actives {
                let mut union: Vec<u64> = per_shard
                    .iter()
                    .flatten()
                    .filter(|(id, _)| *id == q)
                    .flat_map(|(_, blob)| ToyEngine::seen_in(blob))
                    .collect();
                union.sort_unstable();
                if union != (since + 1..=self.seq).collect::<Vec<u64>>() {
                    return Err((
                        "shards-cut-at-different-seqs",
                        format!(
                            "export cut completed with q{q}'s states holding events {union:?}, \
                             expected exactly {}..={}",
                            since + 1,
                            self.seq
                        ),
                    ));
                }
            }
            Ok(())
        }

        fn record_delivery(&mut self, query: u32, row: u64) -> Result<(), Broken> {
            let entry = self.ledger.entry((query, row)).or_insert((false, 0));
            entry.1 += 1;
            if !entry.0 {
                return Err((
                    "exactly-once-delivery",
                    format!("row (q{query}, r{row}) was delivered but never expected"),
                ));
            }
            if entry.1 > 1 {
                return Err((
                    "exactly-once-delivery",
                    format!("row (q{query}, r{row}) delivered {} times", entry.1),
                ));
            }
            Ok(())
        }

        /// End-of-run checks (every queue drained, every worker finished).
        fn final_checks(&self) -> Result<(), Broken> {
            if !self.cut.done() {
                return Err((
                    "barrier-protocol",
                    "execution ended with a cut still in flight".into(),
                ));
            }
            for (&(query, row), &(expected, deliveries)) in &self.ledger {
                if expected && deliveries != 1 {
                    return Err((
                        "exactly-once-delivery",
                        format!("row (q{query}, r{row}) delivered {deliveries} times, expected 1"),
                    ));
                }
            }
            Ok(())
        }

        /// Execute one schedule guided by `prefix` (choices beyond the prefix
        /// default to 0, i.e. the first enabled action).
        fn execute(mut self, prefix: &[usize]) -> (RunOutcome, Vec<Action>) {
            let mut decisions: Vec<(usize, usize)> = Vec::new();
            loop {
                let acts = self.enabled();
                let violation = if acts.is_empty() {
                    self.final_checks().err()
                } else {
                    let choice = if acts.len() == 1 {
                        0
                    } else {
                        let c = prefix.get(decisions.len()).copied().unwrap_or(0);
                        decisions.push((c, acts.len()));
                        c
                    };
                    let act = acts[choice.min(acts.len() - 1)];
                    self.trace.push(act);
                    self.steps += 1;
                    let stepped = match act {
                        Action::ShardProcess(s) => self.shard_process(s),
                        Action::Absorb(s) => self.absorb(s),
                        Action::Advance => {
                            self.advance();
                            Ok(())
                        }
                    };
                    match stepped {
                        Ok(()) => continue,
                        Err(v) => Some(v),
                    }
                };
                return (
                    RunOutcome {
                        decisions,
                        steps: self.steps,
                        violation,
                    },
                    self.trace,
                );
            }
        }
    }

    /// Exhaustively explore every schedule of `shards` shard workers (1..=4;
    /// the state space is exponential) running `script`, with `fault`
    /// injected for the checker's own red path, checking the three barrier-protocol invariants in each. Returns the
    /// exploration statistics, or the first [`Violation`] found.
    ///
    /// The exploration is a depth-first replay: each complete execution is
    /// re-run from the initial state under a choice prefix, and the prefix
    /// is advanced lexicographically until the whole tree is covered. State
    /// is never cloned mid-run, so the model stays a plain single-threaded
    /// state machine — schedules are reproducible by construction.
    fn explore(
        shards: usize,
        script: &[Op],
        fault: Fault,
    ) -> Result<ExploreReport, Box<Violation>> {
        assert!(
            (1..=4).contains(&shards),
            "model supports 1..=4 shards (state space is exponential)"
        );
        assert!(
            script.len() <= 32,
            "scripts longer than 32 ops do not explore exhaustively"
        );
        let mut prefix: Vec<usize> = Vec::new();
        let mut schedules = 0u64;
        let mut max_decisions = 0usize;
        let mut max_steps = 0usize;
        loop {
            schedules += 1;
            if schedules > MAX_SCHEDULES {
                return Err(Box::new(Violation {
                    schedule: schedules,
                    invariant: "exploration-budget",
                    detail: format!(
                        "more than {MAX_SCHEDULES} schedules; shrink the script or shard count"
                    ),
                    trace: Vec::new(),
                }));
            }
            let (outcome, trace) = Run::new(shards, script, fault).execute(&prefix);
            if let Some((invariant, detail)) = outcome.violation {
                return Err(Box::new(Violation {
                    schedule: schedules,
                    invariant,
                    detail,
                    trace: trace.into_iter().map(Action::describe).collect(),
                }));
            }
            max_decisions = max_decisions.max(outcome.decisions.len());
            max_steps = max_steps.max(outcome.steps);
            // Advance the choice prefix lexicographically (next sibling of
            // the deepest branch; pop exhausted levels).
            let mut next: Vec<(usize, usize)> = outcome.decisions;
            while let Some((choice, factor)) = next.pop() {
                if choice + 1 < factor {
                    next.push((choice + 1, factor));
                    break;
                }
            }
            if next.is_empty() {
                return Ok(ExploreReport {
                    schedules,
                    max_decisions,
                    max_steps,
                });
            }
            prefix = next.into_iter().map(|(c, _)| c).collect();
        }
    }

    // The checker's tests. The `static-analysis` CI job runs exactly these
    // (by module path) and fails unless all of them ran. Clean explorations
    // pin the explored space exactly — schedule count, longest schedule in
    // decisions and in steps — so a change that silently shrinks it fails
    // here, not only a change that breaks an invariant.

    #[test]
    fn empty_script_only_finishes() {
        let r = explore(2, &[], Fault::None).unwrap();
        // Closing the stream is forced; the two finishes commute.
        assert_eq!(r.schedules, 2);
    }

    #[test]
    fn single_ingest_is_clean() {
        let r = explore(
            2,
            &[Op::Register(1), Op::Ingest, Op::Checkpoint],
            Fault::None,
        )
        .unwrap();
        assert!(r.schedules > 1);
    }

    #[test]
    fn row_after_ack_fault_is_caught() {
        let v = explore(
            2,
            &[Op::Register(1), Op::Ingest, Op::Ingest, Op::Checkpoint],
            Fault::RowAfterAck { shard: 0 },
        )
        .unwrap_err();
        assert_eq!(v.invariant, "row-crosses-barrier", "{v}");
        assert!(!v.trace.is_empty());
    }

    /// The full operation set — register, ingest, checkpoint, deregister —
    /// across two shards, in two scripts: a checkpoint between two events
    /// with the remainder delivered by the deregistration, and two
    /// checkpoints back to back, each taking its own cut, with the remainder
    /// delivered at end of stream. Every schedule checks every invariant.
    #[test]
    fn two_shards_full_protocol_holds_over_all_schedules() {
        use Op::*;
        for (script, explored) in [
            (
                vec![Register(1), Ingest, Checkpoint, Ingest, Deregister(1)],
                (135_744, 18, 26),
            ),
            (
                vec![Register(1), Ingest, Checkpoint, Checkpoint, Ingest],
                (112_896, 18, 26),
            ),
        ] {
            let r = explore(2, &script, Fault::None)
                .expect("protocol invariants must hold in every schedule");
            assert_eq!(
                (r.schedules, r.max_decisions, r.max_steps),
                explored,
                "{script:?} explored a different space"
            );
        }
    }

    /// Barrier cut across three shards: the all-shards-cut-at-same-seq
    /// invariant has more room to break with more acks in flight.
    #[test]
    fn three_shards_barrier_cut_holds_over_all_schedules() {
        let r = explore(
            3,
            &[Op::Register(1), Op::Ingest, Op::Checkpoint],
            Fault::None,
        )
        .expect("protocol invariants must hold in every schedule");
        assert_eq!(
            (r.schedules, r.max_decisions, r.max_steps),
            (1_458_000, 16, 22)
        );
    }

    /// Red path: a shard whose row reaches the result channel behind the ack
    /// of the barrier it was emitted before MUST be caught — a snapshot taken
    /// at that cut holds the row neither as state nor as a buffered result.
    #[test]
    fn row_after_ack_on_one_shard_is_caught() {
        let v = explore(
            2,
            &[Op::Register(1), Op::Ingest, Op::Ingest, Op::Checkpoint],
            Fault::RowAfterAck { shard: 1 },
        )
        .expect_err("the checker failed to catch a row behind its ack");
        assert!(
            matches!(v.invariant, "row-crosses-barrier" | "exactly-once-delivery"),
            "unexpected violation kind: {v}"
        );
    }

    /// Red path: a shard that acks a barrier ahead of events queued before
    /// it cuts at the wrong sequence — the completed barrier's processed
    /// union no longer covers the ingest prefix.
    #[test]
    fn early_ack_on_one_shard_is_caught() {
        let v = explore(
            2,
            &[Op::Register(1), Op::Ingest, Op::Ingest, Op::Checkpoint],
            Fault::EarlyAck { shard: 0 },
        )
        .expect_err("the checker failed to catch an early barrier ack");
        assert_eq!(v.invariant, "shards-cut-at-different-seqs", "{v}");
    }

    /// Violations are deterministic: the same config reports the same
    /// schedule index and a non-empty replayable trace, twice in a row.
    #[test]
    fn violations_are_reproducible() {
        let script = [Op::Register(1), Op::Ingest, Op::Ingest, Op::Checkpoint];
        let fault = Fault::RowAfterAck { shard: 0 };
        let a = explore(2, &script, fault).expect_err("fault must be caught");
        let b = explore(2, &script, fault).expect_err("fault must be caught");
        assert_eq!(a.schedule, b.schedule);
        assert_eq!(a.trace, b.trace);
        assert!(!a.trace.is_empty());
    }
}
