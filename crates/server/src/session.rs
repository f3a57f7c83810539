//! One session = one shared ingest stream = one [`StreamExecutor`] owned
//! by a dedicated thread, hosting the submitted query (id 0) plus any
//! number of queries registered at runtime. Connections talk to it through a
//! bounded command channel; each query's subscribers get its result rows
//! fanned out over bounded channels.
//!
//! Backpressure is layered: the command channel bounds in-flight ingest
//! batches, the session stops polling `poll_results_of()` once a pending
//! buffer hits the high-water mark (so the executor's result channel
//! fills and `result_occupancy` rises), and every ingest ack carries a
//! `busy` bit computed from those occupancies — the credit signal the
//! wire protocol's backpressure contract is built on.
//!
//! The session thread wakes the moment a command arrives: after a pass in
//! which nothing moved it waits on the command channel for at most
//! [`ROW_POLL`], then pumps result rows again. Rows released while an
//! ingest is applied go out before its ack; rows the shard workers release
//! while no command arrives wait at most that long. The executor's result
//! channel is not a second wake source.
//!
//! Locks: a handle owns two private mutexes, the [`Published`] state the
//! session thread writes for `/metrics` and the thread's join slot. Each
//! is taken only inside a short method of the struct that owns it, which
//! locks once and releases before returning. No guard leaves a method and
//! none is held while another is taken, so lock order and "no lock across
//! a socket write" hold by construction.

use crate::protocol::{IngestAck, SessionOptions, MAX_BATCH_SIZE, MAX_SHARDS};
use crossbeam::channel::{bounded, Receiver, RecvTimeoutError, Sender};
use greta_core::{
    EmissionMode, ExecutorConfig, ExecutorStats, QueryId, StreamExecutor, WindowResult,
};
use greta_durability::DurabilityConfig;
use greta_query::compile::CompiledQuery;
use greta_types::{Event, SchemaRegistry};
use std::collections::VecDeque;
use std::ops::ControlFlow;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex, PoisonError};
use std::thread::JoinHandle;
use std::time::Duration;

/// How many in-flight ingest batches the command channel admits before
/// connection threads block — the outermost backpressure layer.
const CMD_CHANNEL_CAPACITY: usize = 16;
/// Longest an idle session waits for a command before it polls the
/// executor for result rows again: the delivery delay of a row released
/// while no command arrives.
const ROW_POLL: Duration = Duration::from_millis(1);
/// Capacity of each subscriber's row channel, in row batches.
const SUB_CHANNEL_CAPACITY: usize = 64;
/// Rows per `Rows` frame handed to a subscriber.
const SUB_BATCH_ROWS: usize = 256;

/// Commands a connection thread can send to a session thread.
pub(crate) enum SessionCmd {
    /// Push events; reply with the ack (or a fatal error message).
    Ingest {
        /// Events in stream order.
        events: Vec<Event>,
        /// Ack channel (capacity 1).
        reply: Sender<Result<IngestAck, String>>,
    },
    /// Register a subscriber for one query's result rows; reply `true`
    /// once it is registered, `false` for an unknown query id (nothing
    /// will ever arrive).
    Subscribe {
        /// Query within the session (`0` = the submitted one).
        query: u32,
        /// Row fan-out channel owned by the subscribing connection.
        tx: Sender<SubMsg>,
        /// Reply channel (capacity 1).
        reply: Sender<bool>,
    },
    /// Register an additional query on the shared ingest stream
    /// (barrier cut); reply with its assigned query id.
    Register {
        /// Query-language text, compiled against the session's registry.
        text: String,
        /// Result emission mode for the new query's stream.
        emission: EmissionMode,
        /// Reply channel (capacity 1).
        reply: Sender<Result<u32, String>>,
    },
    /// Deregister a query (barrier cut); reply with its undelivered
    /// remainder after its subscribers received everything pending.
    Deregister {
        /// Query to remove (the executor refuses `0` — drain the session).
        query: u32,
        /// Reply channel (capacity 1).
        reply: Sender<Result<Vec<WindowResult<f64>>, String>>,
    },
    /// Graceful drain; reply once the terminal checkpoint is on disk.
    Drain {
        /// Completion channel (capacity 1).
        reply: Sender<Result<(), String>>,
    },
}

/// Messages delivered to a subscriber.
pub(crate) enum SubMsg {
    /// A batch of result rows (canonically ordered under
    /// [`EmissionMode::WindowOrdered`]).
    Rows(Vec<WindowResult<f64>>),
    /// The session drained; no more rows will follow.
    End,
}

/// How an ingest batch failed.
///
/// A recoverable failure rejects the batch but leaves the executor
/// intact — the session keeps serving and the client gets an `Error`
/// frame. A fatal failure (I/O, WAL sync, internal engine error) means
/// the executor can no longer uphold its guarantees, so the session
/// thread ends all subscriptions and exits.
pub(crate) enum IngestError {
    /// The batch was rejected; the session stays usable.
    Recoverable(String),
    /// The executor is wedged; the session must stop.
    Fatal(String),
}

impl IngestError {
    fn into_msg(self) -> String {
        match self {
            IngestError::Recoverable(m) | IngestError::Fatal(m) => m,
        }
    }
}

/// Server-side handle to a running session.
pub(crate) struct SessionHandle {
    pub(crate) id: u64,
    pub(crate) query_text: String,
    pub(crate) cmd_tx: Sender<SessionCmd>,
    published: Arc<Published>,
    /// Set once the session has drained (terminal checkpoint taken).
    pub(crate) drained: Arc<AtomicBool>,
    join: Mutex<Option<JoinHandle<()>>>,
}

/// What the session thread publishes for `/metrics`, so a scrape never
/// blocks on a busy executor. A poisoned lock is recovered: every write
/// replaces the stats wholesale and appends whole tuples, so a writer that
/// panicked cannot leave torn state behind — and the stats must not
/// freeze for the rest of the session's life.
struct Published {
    state: Mutex<PublishedState>,
}

struct PublishedState {
    /// Stats snapshot refreshed after every command.
    stats: ExecutorStats,
    /// Query texts by id, ascending — the submitted query plus every
    /// query ever registered (deregistered ones stay for metrics
    /// continuity; `ExecutorStats::queries` marks them inactive).
    queries: Vec<(u32, String)>,
}

impl Published {
    /// Replace the stats, and add the text of a query just registered.
    fn set(&self, stats: ExecutorStats, registered: Option<(u32, String)>) {
        let mut p = self.state.lock().unwrap_or_else(PoisonError::into_inner);
        p.stats = stats;
        p.queries.extend(registered);
    }

    /// Copies of the stats and the query texts.
    fn get(&self) -> (ExecutorStats, Vec<(u32, String)>) {
        let p = self.state.lock().unwrap_or_else(PoisonError::into_inner);
        (p.stats.clone(), p.queries.clone())
    }
}

/// Build the [`ExecutorConfig`] a [`SessionOptions`] describes, refusing
/// options that would have it allocate or start more than the caps allow.
pub(crate) fn executor_config(opts: &SessionOptions) -> Result<ExecutorConfig, String> {
    let (shards, batch) = (opts.shards, opts.batch_size);
    if shards > MAX_SHARDS {
        return Err(format!("shards {shards} exceeds the cap of {MAX_SHARDS}"));
    }
    if batch > MAX_BATCH_SIZE {
        return Err(format!(
            "batch_size {batch} exceeds the cap of {MAX_BATCH_SIZE}"
        ));
    }
    Ok(ExecutorConfig {
        shards: (opts.shards.max(1)) as usize,
        slack: opts.slack,
        late_policy: opts.late_policy,
        emission: opts.emission,
        batch_size: (opts.batch_size.max(1)) as usize,
        channel_capacity: (opts.channel_capacity.max(1)) as usize,
        result_capacity: (opts.result_capacity.max(1)) as usize,
        durability: opts.durability_dir.as_ref().map(|d| {
            let mut dcfg = DurabilityConfig::new(d);
            if opts.snapshot_every_windows > 0 {
                dcfg.snapshot_every_windows = opts.snapshot_every_windows;
            }
            dcfg
        }),
        ..ExecutorConfig::default()
    })
}

/// Start a session: compile nothing here — the caller already compiled
/// `query` — just spawn the owning thread and hand back the handle.
pub(crate) fn spawn_session(
    id: u64,
    query_text: String,
    query: CompiledQuery,
    registry: SchemaRegistry,
    opts: SessionOptions,
) -> Result<SessionHandle, String> {
    let config = executor_config(&opts)?;
    let exec = if opts.recover {
        StreamExecutor::<f64>::recover(query, registry.clone(), config)
    } else {
        StreamExecutor::<f64>::new(query, registry.clone(), config)
    }
    .map_err(|e| e.to_string())?;

    let (cmd_tx, cmd_rx) = bounded(CMD_CHANNEL_CAPACITY);
    // A recovered executor may come back hosting queries registered in a
    // previous run; seed the text table from its registry, and give each
    // such query its own result stream.
    let ids = exec.query_ids();
    let queries: Vec<(u32, String)> = ids
        .iter()
        .map(|q| (q.0, exec.query_text(*q).unwrap_or(&query_text).to_string()))
        .collect();
    let state = Mutex::new(PublishedState {
        stats: exec.stats(),
        queries,
    });
    let published = Arc::new(Published { state });
    let drained = Arc::new(AtomicBool::new(false));
    let session = SessionLoop {
        id,
        exec,
        registry,
        streams: ids.iter().map(|q| QueryStream::new(q.0)).collect(),
        pending_high: (opts.result_capacity.max(1)) as usize,
        channel_capacity: (opts.channel_capacity.max(1)) as usize,
        result_capacity: (opts.result_capacity.max(1)) as usize,
        published: Arc::clone(&published),
        drained: Arc::clone(&drained),
    };
    let join = std::thread::Builder::new()
        .name(format!("greta-session-{id}"))
        .spawn(move || session.run(cmd_rx))
        .map_err(|e| format!("failed to spawn session thread: {e}"))?;

    Ok(SessionHandle {
        id,
        query_text,
        cmd_tx,
        published,
        drained,
        join: Mutex::new(Some(join)),
    })
}

/// One result subscriber with its own delivery cursor, so subscribers
/// of unequal speed each receive every row exactly once.
struct Subscriber {
    tx: Sender<SubMsg>,
    /// Absolute index (rows ever polled from the executor) of the next
    /// row this subscriber has not yet been sent.
    next: u64,
}

/// One hosted query's result stream: its own pending backlog and its
/// own subscribers, fed from `poll_results_of(query)`.
struct QueryStream {
    /// Query id within the session's executor.
    query: u32,
    subs: Vec<Subscriber>,
    /// Rows polled from the executor but not yet accepted by every
    /// subscriber (or never subscribed for — they also feed the final
    /// drain flush and the detach reply).
    pending: VecDeque<WindowResult<f64>>,
    /// Absolute index of `pending[0]`: the head advances only past rows
    /// the slowest subscriber has already received.
    pending_base: u64,
}

impl QueryStream {
    fn new(query: u32) -> QueryStream {
        QueryStream {
            query,
            subs: Vec::new(),
            pending: VecDeque::new(),
            pending_base: 0,
        }
    }
}

struct SessionLoop {
    id: u64,
    exec: StreamExecutor<f64>,
    registry: SchemaRegistry,
    /// One stream per hosted query, ascending by query id.
    streams: Vec<QueryStream>,
    /// Stop polling results past this many pending rows (per query) so
    /// the executor's result channel backs up and `busy` trips.
    pending_high: usize,
    channel_capacity: usize,
    result_capacity: usize,
    // Shared with the `SessionHandle`: what this thread publishes.
    published: Arc<Published>,
    drained: Arc<AtomicBool>,
}

impl SessionLoop {
    /// Serve commands until a drain, a fatal ingest error or a hang-up.
    /// Each pass takes at most one command and then pumps rows. After a
    /// pass that moved something the next command is taken without
    /// waiting; after an idle one the thread waits for a command for at
    /// most [`ROW_POLL`].
    fn run(mut self, cmd_rx: Receiver<SessionCmd>) {
        let mut idle = false;
        loop {
            let wait = if idle { ROW_POLL } else { Duration::ZERO };
            let handled = match cmd_rx.recv_timeout(wait) {
                Ok(cmd) => {
                    if self.handle(cmd).is_break() {
                        return;
                    }
                    true
                }
                Err(RecvTimeoutError::Timeout) => false,
                // Server dropped the handle without draining (abort /
                // crash path): drop the executor as-is. With durability
                // the WAL stays on disk for recovery.
                Err(RecvTimeoutError::Disconnected) => return,
            };
            let moved = self.pump();
            idle = !handled && !moved;
        }
    }

    /// Carry out one command and answer it; `Break` once the session has
    /// stopped serving (drained, or its executor is wedged).
    fn handle(&mut self, cmd: SessionCmd) -> ControlFlow<()> {
        match cmd {
            SessionCmd::Ingest { events, reply } => {
                // Publishes before acking, so a metrics scrape issued
                // right after the ack sees the events it covers.
                let ack = self.ingest(events);
                let fatal = matches!(ack, Err(IngestError::Fatal(_)));
                let _ = reply.send(ack.map_err(IngestError::into_msg));
                if fatal {
                    // The executor is wedged (I/O or internal error): end
                    // subscriptions and stop serving commands. Recoverable
                    // rejections (validation, late events under
                    // LatePolicy::Error) already replied with an error and
                    // the session keeps serving.
                    self.broadcast_end();
                    return ControlFlow::Break(());
                }
            }
            SessionCmd::Subscribe { query, tx, reply } => {
                // A new subscriber starts at the head of the retained
                // backlog, like every one before it. An unknown (or
                // already-detached) query gets none: nothing will ever
                // arrive.
                let st = self.streams.iter_mut().find(|st| st.query == query);
                let known = st.is_some();
                if let Some(st) = st {
                    let next = st.pending_base;
                    st.subs.push(Subscriber { tx, next });
                }
                let _ = reply.send(known);
            }
            SessionCmd::Register {
                text,
                emission,
                reply,
            } => {
                let res = self.register(&text, emission);
                let registered = res.as_ref().ok().map(|q| (*q, text));
                self.published.set(self.exec.stats(), registered);
                let _ = reply.send(res);
            }
            SessionCmd::Deregister { query, reply } => {
                let res = self.deregister(query);
                self.published.set(self.exec.stats(), None);
                let _ = reply.send(res);
            }
            SessionCmd::Drain { reply } => {
                let res = self.drain();
                self.published.set(self.exec.stats(), None);
                self.drained.store(true, Ordering::SeqCst);
                let _ = reply.send(res);
                return ControlFlow::Break(());
            }
        }
        ControlFlow::Continue(())
    }

    /// Validate and push one batch, then build the ack and publish the
    /// executor's stats — whatever the batch's fate, and from one
    /// [`ExecutorStats`] value: it is assembled once per batch.
    fn ingest(&mut self, events: Vec<Event>) -> Result<IngestAck, IngestError> {
        let durable = self.push_batch(events);
        let stats = self.exec.stats();
        let ack = durable.map(|durable| IngestAck {
            session: self.id,
            pushed: stats.pushed,
            durable,
            watermark: self.exec.watermark().map(|t| t.0),
            busy: self.busy(&stats),
        });
        self.published.set(stats, None);
        ack
    }

    /// Push one batch and group-commit it; the durable WAL index, if there
    /// is a WAL.
    fn push_batch(&mut self, events: Vec<Event>) -> Result<Option<u64>, IngestError> {
        for e in events {
            self.validate(&e).map_err(IngestError::Recoverable)?;
            match self.exec.push(e) {
                Ok(()) => {}
                // Per-event admission rejections poison the batch but not
                // the session: the executor stays usable, so report the
                // failure and keep serving.
                Err(greta_core::EngineError::Late { .. }) => {
                    return Err(IngestError::Recoverable(
                        "late event rejected (LatePolicy::Error)".into(),
                    ))
                }
                Err(e @ greta_core::EngineError::OutOfOrder { .. }) => {
                    return Err(IngestError::Recoverable(format!("ingest rejected: {e}")))
                }
                Err(e) => return Err(IngestError::Fatal(format!("ingest failed: {e}"))),
            }
        }
        self.pump();
        // Group commit: one WAL sync per acknowledged batch, so the
        // `durable` watermark in the ack is true even across a crash.
        self.exec
            .sync_wal()
            .map_err(|e| IngestError::Fatal(format!("wal sync failed: {e}")))
    }

    /// Arity/type checks the engine's compiled accessors rely on: a frame
    /// from the network is untrusted even when it decoded cleanly.
    fn validate(&self, e: &Event) -> Result<(), String> {
        if (e.type_id.0 as usize) >= self.registry.len() {
            return Err(format!("unknown event type id {}", e.type_id.0));
        }
        let arity = self.registry.schema(e.type_id).attributes.len();
        if e.attrs.len() != arity {
            return Err(format!(
                "event of type {} has {} attributes, schema expects {arity}",
                self.registry.schema(e.type_id).name,
                e.attrs.len()
            ));
        }
        Ok(())
    }

    /// The credit signal: busy when any executor channel (or any
    /// query stream's own pending buffer) is at least half full.
    fn busy(&self, stats: &ExecutorStats) -> bool {
        stats.result_occupancy * 2 >= self.result_capacity
            || self
                .streams
                .iter()
                .any(|st| st.pending.len() * 2 >= self.pending_high)
            || stats
                .channel_occupancy
                .iter()
                .any(|&o| o * 2 >= self.channel_capacity)
    }

    /// Poll every query's results (up to the per-query high-water mark)
    /// and fan batches out to its subscribers. Returns true if anything
    /// moved.
    fn pump(&mut self) -> bool {
        let mut moved = false;
        for st in &mut self.streams {
            if st.pending.len() < self.pending_high {
                if let Ok(polled) = self.exec.poll_results_of(QueryId(st.query)) {
                    if !polled.is_empty() {
                        moved = true;
                        st.pending.extend(polled);
                    }
                }
            }
            moved |= flush_stream(st, false);
        }
        moved
    }

    /// Register a new query on the shared stream (barrier cut at the
    /// current release frontier).
    fn register(&mut self, text: &str, emission: EmissionMode) -> Result<u32, String> {
        let q = self
            .exec
            .register_query(text, emission)
            .map_err(|e| e.to_string())?;
        self.streams.push(QueryStream::new(q.0));
        Ok(q.0)
    }

    /// Deregister a query: catch its subscribers up (blocking), end
    /// their streams, and return the undelivered remainder — rows the
    /// detach barrier released, plus the whole backlog when nothing ever
    /// subscribed. Streamed rows and returned rows are disjoint: their
    /// union is the query's exactly-once output.
    fn deregister(&mut self, query: u32) -> Result<Vec<WindowResult<f64>>, String> {
        let pos = self
            .streams
            .iter()
            .position(|st| st.query == query)
            .ok_or_else(|| format!("unknown query {query}"))?;
        let barrier_rows = self
            .exec
            .deregister_query(QueryId(query))
            .map_err(|e| e.to_string())?;
        let mut st = self.streams.remove(pos);
        flush_stream(&mut st, true);
        for sub in st.subs.drain(..) {
            let _ = sub.tx.send(SubMsg::End);
        }
        // After the blocking flush anything still pending was not
        // delivered to any live subscriber (no subscribers, or they all
        // disconnected) — it belongs in the reply.
        let mut rows: Vec<WindowResult<f64>> = st.pending.drain(..).collect();
        rows.extend(barrier_rows);
        Ok(rows)
    }

    /// Graceful drain: flush ordered output of every hosted query, take
    /// the terminal checkpoint, deliver every remaining row, end all
    /// subscriptions.
    fn drain(&mut self) -> Result<(), String> {
        let res = self.exec.drain();
        if res.is_ok() {
            // Every query's remainder is pollable after the drain.
            for st in &mut self.streams {
                if let Ok(polled) = self.exec.poll_results_of(QueryId(st.query)) {
                    st.pending.extend(polled);
                }
                flush_stream(st, true);
            }
        }
        self.broadcast_end();
        res.map_err(|e| format!("drain failed: {e}"))
    }

    fn broadcast_end(&mut self) {
        for st in &mut self.streams {
            for sub in st.subs.drain(..) {
                let _ = sub.tx.send(SubMsg::End);
            }
        }
    }
}

/// Push one stream's pending rows to every one of its subscribers, each
/// from its own cursor, so a fast subscriber never sees a row twice
/// while a slow one catches up. With `block` the sends wait for room
/// (drain/detach path); otherwise a full subscriber just stops advancing
/// its cursor (slow-consumer backpressure propagates to the `busy` bit
/// instead of dropping rows). Rows leave `pending` only once the slowest
/// subscriber has received them.
fn flush_stream(st: &mut QueryStream, block: bool) -> bool {
    if st.subs.is_empty() {
        return false;
    }
    let mut moved = false;
    let base = st.pending_base;
    let end = base + st.pending.len() as u64;
    let mut alive = Vec::with_capacity(st.subs.len());
    for mut sub in st.subs.drain(..) {
        let mut dead = false;
        while sub.next < end {
            let start = (sub.next - base) as usize;
            let n = (st.pending.len() - start).min(SUB_BATCH_ROWS);
            let batch: Vec<WindowResult<f64>> =
                st.pending.iter().skip(start).take(n).cloned().collect();
            let sent = if block {
                sub.tx.send(SubMsg::Rows(batch)).map_err(|_| true)
            } else {
                sub.tx
                    .try_send(SubMsg::Rows(batch))
                    .map_err(|e| matches!(e, crossbeam::channel::TrySendError::Disconnected(_)))
            };
            match sent {
                Ok(()) => {
                    sub.next += n as u64;
                    moved = true;
                }
                Err(disconnected) => {
                    dead = disconnected;
                    break;
                }
            }
        }
        if !dead {
            alive.push(sub);
        }
    }
    st.subs = alive;
    // Advance the shared head past everything the slowest live
    // subscriber has received. With no subscribers left, the backlog
    // stays for late subscribers, the final drain flush, and the
    // detach reply.
    if let Some(min_next) = st.subs.iter().map(|s| s.next).min() {
        let consumed = (min_next - base) as usize;
        if consumed > 0 {
            st.pending.drain(..consumed);
            st.pending_base = min_next;
        }
    }
    moved
}

impl SessionHandle {
    /// Subscriber channel factory (bounded: slow consumers backpressure).
    pub(crate) fn subscriber_channel() -> (Sender<SubMsg>, Receiver<SubMsg>) {
        bounded(SUB_CHANNEL_CAPACITY)
    }

    /// Send the command `make` builds around a fresh reply channel and
    /// wait for the session's answer; `Err` means it never answered. A
    /// drained session answers nothing any more, so it is refused here;
    /// a command still queued when the session thread ends goes down with
    /// its command channel, which hangs up the reply channel.
    pub(crate) fn call<T>(
        &self,
        what: &str,
        make: impl FnOnce(Sender<T>) -> SessionCmd,
    ) -> Result<T, String> {
        let id = self.id;
        if self.drained.load(Ordering::SeqCst) {
            return Err(format!("session {id} is drained"));
        }
        let (reply_tx, reply_rx) = bounded(1);
        self.cmd_tx
            .send(make(reply_tx))
            .map_err(|_| format!("session {id} is gone"))?;
        reply_rx
            .recv()
            .map_err(|_| format!("session {id} died during {what}"))
    }

    /// Send a drain command and wait for the terminal checkpoint. A
    /// second drain of an already-drained session succeeds immediately.
    pub(crate) fn drain_blocking(&self) -> Result<(), String> {
        match self.call("drain", |reply| SessionCmd::Drain { reply }) {
            Ok(answer) => {
                if let Some(j) = self.take_join() {
                    let _ = j.join();
                }
                answer
            }
            // It never answered, having drained before or meanwhile.
            Err(_) if self.drained.load(Ordering::SeqCst) => Ok(()),
            Err(e) => Err(e),
        }
    }

    /// The session thread's join handle, the first time it is asked for.
    pub(crate) fn take_join(&self) -> Option<JoinHandle<()>> {
        // Poison recovery: the slot holds only an Option — taking it
        // after a panic elsewhere is always sound, and skipping the join
        // would leak the thread.
        let mut join = self.join.lock().unwrap_or_else(PoisonError::into_inner);
        join.take()
    }

    /// Copies of what the session thread last published: its stats and
    /// its query texts by id.
    pub(crate) fn published(&self) -> (ExecutorStats, Vec<(u32, String)>) {
        self.published.get()
    }
}
