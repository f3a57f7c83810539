//! The barrier plane: the messages that cross the shard channels, the one
//! step a shard worker takes per message, and the coordinator's ack ledger.
//!
//! Everything here is generic over [`ShardEngine`] so that
//! [`crate::protocol_model`] can drive [`worker_step`], [`worker_finish`]
//! and [`Cut`] — this code, not a restatement of it — over a toy engine
//! under every interleaving.

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
    /// One result row, stamped with the owning query, the emitting shard,
    /// and that (query, shard)'s emission sequence number (strictly
    /// increasing; the ordered merge's sanity check).
    Row {
        query: u32,
        shard: u32,
        seq: u64,
        row: R,
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

    /// The completed cut's blobs, by shard.
    pub(crate) fn take(&mut self) -> Vec<QueryBlobs> {
        debug_assert!(self.done(), "cut taken before every shard acked");
        self.acks
            .iter_mut()
            .map(|a| a.take().unwrap_or_default())
            .collect()
    }
}

/// Emit `rows` as this slot's next rows.
fn emit_rows<E: ShardEngine>(
    slot: &mut EngineSlot<E>,
    shard: usize,
    rows: Vec<E::Row>,
    emit: &mut impl FnMut(OutMsg<E::Row>) -> Result<(), EngineError>,
) -> Result<(), EngineError> {
    for row in rows {
        slot.seq += 1;
        emit(OutMsg::Row {
            query: slot.query,
            shard: shard as u32,
            seq: slot.seq,
            row,
        })?;
    }
    Ok(())
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
/// the coordinator finds the worker gone.
pub(crate) fn worker_step<E: ShardEngine>(
    slots: &mut Vec<EngineSlot<E>>,
    shard: usize,
    msg: Msg<E>,
    emit: &mut impl FnMut(OutMsg<E::Row>) -> Result<(), EngineError>,
) -> Result<(), EngineError> {
    match msg {
        Msg::Events { group, frame } => {
            for s in slots.iter_mut().filter(|s| s.group == group) {
                for e in &frame {
                    s.engine.process_ref(e)?;
                }
            }
        }
        Msg::Watermark(t) => {
            for s in slots.iter_mut() {
                s.engine.advance_watermark(t);
            }
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
            return emit(OutMsg::Ack { shard, blobs });
        }
    }
    slots
        .iter_mut()
        .try_for_each(|s| flush_slot(s, shard, emit))
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
    use super::*;
    use crate::protocol_model::{toy_event, ToyEngine};

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
            worker_step(&mut slots, 0, msg, &mut |m| {
                out.push(m);
                Ok(())
            })
        });
        assert_eq!(
            ended,
            Err(EngineError::OutOfOrder {
                watermark: 2,
                got: 1
            })
        );
        assert!(matches!(out[..], [OutMsg::Row { query: 7, .. }]));
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
        cut.ack(0, Vec::new()).unwrap();
        assert!(cut.done());
        assert_eq!(cut.take(), vec![vec![], vec![(0, vec![1])]]);
        assert!(is_worker_error(cut.ack(0, Vec::new())), "after the cut");
    }
}
