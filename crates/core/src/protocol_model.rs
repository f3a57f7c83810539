//! An exhaustive checker for the executor's barrier protocol that runs the
//! shipped code.
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
//! * a shard's step is `executor::barrier::worker_step` (and
//!   `worker_finish` at end of stream), taking the executor's `Msg` and
//!   emitting its `OutMsg`;
//! * the coordinator's acks go through `executor::barrier::Cut`.
//!
//! What is model: the scheduler, the coordinator's [`Op`] script, the
//! FIFO queues standing in for the channels (one per shard each way — a
//! result channel shared by all shards promises order per sender only),
//! a toy engine behind `ShardEngine`, and a delivery ledger. Three
//! invariants are checked in every schedule:
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
//! fails CI (see `tests/protocol_model.rs` and the `static-analysis`
//! job).

use crate::executor::barrier::{
    worker_finish, worker_step, BarrierKind, Cut, EngineSlot, Msg, OutMsg, QueryBlobs, ShardEngine,
};
use crate::window::WindowId;
use crate::EngineError;
use greta_types::{Event, EventRef, Time, TypeId};
use std::collections::BTreeMap;
use std::collections::VecDeque;
use std::fmt;

/// One scripted coordinator operation (the model's ingest plane).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Op {
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
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum Fault {
    /// Faithful protocol.
    #[default]
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

/// What to explore: shard count, coordinator script, optional fault.
#[derive(Debug, Clone)]
pub struct ModelConfig {
    /// Number of shard workers (1..=4; the state space is exponential).
    pub shards: usize,
    /// The coordinator's operation script, executed in order.
    pub script: Vec<Op>,
    /// Fault injection for the checker's own red path.
    pub fault: Fault,
    /// Hard cap on explored schedules; exceeding it is an error (the
    /// configuration is too large to explore exhaustively).
    pub max_schedules: u64,
}

impl Default for ModelConfig {
    fn default() -> Self {
        ModelConfig {
            shards: 2,
            script: Vec::new(),
            fault: Fault::None,
            max_schedules: 2_000_000,
        }
    }
}

/// Result of a complete exhaustive exploration.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ExploreReport {
    /// Number of distinct complete schedules executed.
    pub schedules: u64,
    /// Longest schedule, in scheduler decisions (branching points only).
    pub max_decisions: usize,
    /// Longest schedule, in total model steps (including forced moves).
    pub max_steps: usize,
}

/// An invariant violation, with the schedule that produced it.
#[derive(Debug, Clone)]
pub struct Violation {
    /// 1-based index of the violating schedule in exploration order.
    pub schedule: u64,
    /// Which invariant broke (short stable name).
    pub invariant: &'static str,
    /// Human-readable description of the broken state.
    pub detail: String,
    /// The full action trace of the violating schedule.
    pub trace: Vec<String>,
}

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

impl std::error::Error for Violation {}

/// The fake behind [`ShardEngine`]. Event `k` yields row `2k` at once (a
/// window it closes) and row `2k + 1` when the engine sees its next event
/// or is finished (a window it leaves open); the exported state is the
/// events seen. Like the real engine it refuses an event that is not
/// later than the last.
#[derive(Default)]
pub(crate) struct ToyEngine {
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
pub(crate) fn toy_event(seq: u64) -> EventRef {
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
    /// [`Fault::RowAfterAck`]: the row held back until the next ack.
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
    cfg: &'a ModelConfig,
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
    fn new(cfg: &'a ModelConfig) -> Run<'a> {
        Run {
            cfg,
            shards: (0..cfg.shards).map(|_| Shard::default()).collect(),
            script_pos: 0,
            seq: 0,
            actives: Vec::new(),
            cut: Cut::new(cfg.shards),
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
        let Some(&op) = self.cfg.script.get(self.script_pos) else {
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
                let dest = (seq % self.cfg.shards as u64) as usize;
                self.shards[dest].queue.push_back(Msg::Events {
                    group: 0,
                    frame: vec![toy_event(seq)],
                });
            }
            Op::Checkpoint => self.start_cut(Pending::Export, |_| BarrierKind::Export),
            Op::Register(q) => {
                self.actives.push((q, self.seq));
                self.start_cut(Pending::Other, |_| {
                    BarrierKind::Add(Box::new(EngineSlot::new(q, 0, false, ToyEngine::default())))
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
        let early_ack = self.cfg.fault == Fault::EarlyAck { shard: s };
        let row_after_ack = self.cfg.fault == Fault::RowAfterAck { shard: s };
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
                OutMsg::Row { .. } if row_after_ack && late.is_none() => *late = Some(m),
                OutMsg::Ack { .. } => {
                    out.push_back(m);
                    out.extend(late.take());
                }
                m => out.push_back(m),
            }
            Ok(())
        };
        let stepped = match queue.remove(jump.unwrap_or(0)) {
            Some(msg) => worker_step(slots, s, msg, &mut emit),
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
            Some(OutMsg::Row { query, row, .. }) => {
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
            }
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
            Some(OutMsg::Frontier { .. }) | None => Ok(()),
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

/// Exhaustively explore every schedule of the configured model,
/// checking the three barrier-protocol invariants in each. Returns the
/// exploration statistics, or the first [`Violation`] found.
///
/// The exploration is a depth-first replay: each complete execution is
/// re-run from the initial state under a choice prefix, and the prefix
/// is advanced lexicographically until the whole tree is covered. State
/// is never cloned mid-run, so the model stays a plain single-threaded
/// state machine — schedules are reproducible by construction.
pub fn explore(cfg: &ModelConfig) -> Result<ExploreReport, Box<Violation>> {
    assert!(
        (1..=4).contains(&cfg.shards),
        "model supports 1..=4 shards (state space is exponential)"
    );
    assert!(
        cfg.script.len() <= 32,
        "scripts longer than 32 ops do not explore exhaustively"
    );
    let mut prefix: Vec<usize> = Vec::new();
    let mut schedules = 0u64;
    let mut max_decisions = 0usize;
    let mut max_steps = 0usize;
    loop {
        schedules += 1;
        if schedules > cfg.max_schedules {
            return Err(Box::new(Violation {
                schedule: schedules,
                invariant: "exploration-budget",
                detail: format!(
                    "more than {} schedules; shrink the script or shard count",
                    cfg.max_schedules
                ),
                trace: Vec::new(),
            }));
        }
        let (outcome, trace) = Run::new(cfg).execute(&prefix);
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

#[cfg(test)]
mod tests {
    use super::*;

    fn cfg(shards: usize, script: Vec<Op>) -> ModelConfig {
        ModelConfig {
            shards,
            script,
            ..ModelConfig::default()
        }
    }

    #[test]
    fn empty_script_only_finishes() {
        let r = explore(&cfg(2, vec![])).unwrap();
        // Closing the stream is forced; the two finishes commute.
        assert_eq!(r.schedules, 2);
    }

    #[test]
    fn single_ingest_is_clean() {
        let r = explore(&cfg(2, vec![Op::Register(1), Op::Ingest, Op::Checkpoint])).unwrap();
        assert!(r.schedules > 1);
    }

    #[test]
    fn row_after_ack_fault_is_caught() {
        let mut c = cfg(
            2,
            vec![Op::Register(1), Op::Ingest, Op::Ingest, Op::Checkpoint],
        );
        c.fault = Fault::RowAfterAck { shard: 0 };
        let v = explore(&c).unwrap_err();
        assert_eq!(v.invariant, "row-crosses-barrier", "{v}");
        assert!(!v.trace.is_empty());
    }

    #[test]
    fn early_ack_fault_is_caught() {
        let mut c = cfg(
            2,
            vec![Op::Register(1), Op::Ingest, Op::Ingest, Op::Checkpoint],
        );
        c.fault = Fault::EarlyAck { shard: 0 };
        let v = explore(&c).unwrap_err();
        assert_eq!(v.invariant, "shards-cut-at-different-seqs", "{v}");
    }
}
