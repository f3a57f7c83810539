//! The TCP front-end: a nonblocking accept loop, protocol sniffing, and
//! the binary request/response connection loop.
//!
//! One port serves three protocols, told apart by peeking the first
//! bytes of each connection: the 6-byte `GRTA` preamble selects the
//! binary protocol, an HTTP verb selects the metrics endpoint, and `{`
//! selects newline-delimited JSON. Each connection gets its own thread
//! (the workspace is offline/vendored-deps-only, so no async runtime);
//! each session gets its own executor-owning thread (see
//! [`crate::session`]).
//!
//! Lock discipline (checked by `greta-lint`): registry locks are
//! acquired in the declared order below and never held across a socket
//! write — a stalled peer must not be able to freeze the registry.

// lint:lock-order: sessions < drained_tail < last_stats < query_texts < join

use crate::metrics::{self, ServerMetrics, SessionMetrics};
use crate::protocol::{self, ProtoError, Request, Response, SessionOptions};
use crate::session::{spawn_session, SessionCmd, SessionHandle, SubMsg};
use crate::{http, jsonl};
use greta_query::compile::CompiledQuery;
use greta_types::{Event, SchemaRegistry};
use std::collections::{HashMap, VecDeque};
use std::io;
use std::net::{SocketAddr, TcpListener, TcpStream, ToSocketAddrs};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// Drained sessions kept findable (idempotent drain, post-drain error
/// messages, `/metrics` observability) before the oldest is forgotten —
/// bounds the registry and the metrics page on a long-running server.
const DRAINED_TAIL_MAX: usize = 16;
/// A fresh connection must present a recognizable protocol (4 sniffable
/// bytes) within this deadline or it is closed — no thread is pinned by
/// a peer that connects and stalls.
const SNIFF_DEADLINE: Duration = Duration::from_secs(2);
/// Per-read timeout on established connections: a peer that stalls
/// mid-frame (or idles this long between requests) is disconnected.
const READ_IDLE_TIMEOUT: Duration = Duration::from_secs(600);

/// Shared server state: the session registry and page-level counters.
pub(crate) struct Shared {
    sessions: Mutex<HashMap<u64, Arc<SessionHandle>>>,
    /// Most recent drained sessions, oldest first (see
    /// [`DRAINED_TAIL_MAX`]).
    drained_tail: Mutex<VecDeque<Arc<SessionHandle>>>,
    next_session: AtomicU64,
    /// Stops the accept loop.
    stop: AtomicBool,
    /// Refuses new sessions and ingest while a shutdown drain runs.
    draining: AtomicBool,
    pub(crate) connections: AtomicU64,
    pub(crate) frames: AtomicU64,
    pub(crate) protocol_errors: AtomicU64,
    pub(crate) http_requests: AtomicU64,
}

impl Shared {
    fn new() -> Shared {
        Shared {
            sessions: Mutex::new(HashMap::new()),
            drained_tail: Mutex::new(VecDeque::new()),
            next_session: AtomicU64::new(1),
            stop: AtomicBool::new(false),
            draining: AtomicBool::new(false),
            connections: AtomicU64::new(0),
            frames: AtomicU64::new(0),
            protocol_errors: AtomicU64::new(0),
            http_requests: AtomicU64::new(0),
        }
    }

    fn session(&self, id: u64) -> Result<Arc<SessionHandle>, String> {
        if let Some(h) = self
            .sessions
            .lock()
            .map_err(|_| "session registry poisoned".to_string())?
            .get(&id)
        {
            return Ok(Arc::clone(h));
        }
        self.drained_tail
            .lock()
            .ok()
            .and_then(|g| g.iter().find(|h| h.id == id).cloned())
            .ok_or_else(|| format!("unknown session {id}"))
    }

    /// Move a session whose thread has ended out of the live registry
    /// into the bounded drained tail, evicting the oldest entry. Without
    /// this a long-running server would leak one handle (query text,
    /// stats, metrics series) per session forever.
    fn retire(&self, id: u64) {
        let Some(h) = self.sessions.lock().ok().and_then(|mut g| g.remove(&id)) else {
            return;
        };
        if let Ok(mut tail) = self.drained_tail.lock() {
            tail.push_back(h);
            while tail.len() > DRAINED_TAIL_MAX {
                tail.pop_front();
            }
        }
    }

    /// Compile the query and start a session — or, with `attach_to`,
    /// register it as an additional query on an existing session's
    /// shared ingest stream. Returns `(session, query)`; the query id is
    /// `0` for a new session. Refused while draining.
    pub(crate) fn submit(
        &self,
        query_text: &str,
        registry: SchemaRegistry,
        options: SessionOptions,
        attach_to: Option<u64>,
    ) -> Result<(u64, u32), String> {
        if self.draining.load(Ordering::SeqCst) {
            return Err("server is draining; no new sessions".into());
        }
        if let Some(sid) = attach_to {
            // The session thread compiles against its own registry — one
            // stream, one schema set — and runs the register barrier.
            let q = self
                .session(sid)?
                .call("register", |reply| SessionCmd::Register {
                    text: query_text.to_string(),
                    emission: options.emission,
                    reply,
                })??;
            return Ok((sid, q));
        }
        let compiled =
            CompiledQuery::parse(query_text, &registry).map_err(|e| format!("query error: {e}"))?;
        let id = self.next_session.fetch_add(1, Ordering::SeqCst);
        let handle = spawn_session(id, query_text.to_string(), compiled, registry, options)?;
        self.sessions
            .lock()
            .map_err(|_| "session registry poisoned".to_string())?
            .insert(id, Arc::new(handle));
        Ok((id, 0))
    }

    /// Deregister a query from a live session; returns its undelivered
    /// remainder (see [`SessionCmd::Deregister`]).
    pub(crate) fn detach(
        &self,
        id: u64,
        query: u32,
    ) -> Result<Vec<greta_core::WindowResult<f64>>, String> {
        let h = self.session(id)?;
        h.call("detach", |reply| SessionCmd::Deregister { query, reply })?
    }

    /// Check a session id exists (the `Attach` frame).
    pub(crate) fn attach(&self, id: u64) -> Result<u64, String> {
        self.session(id).map(|h| h.id)
    }

    /// Forward one ingest batch and wait for the ack.
    pub(crate) fn ingest(
        &self,
        id: u64,
        events: Vec<Event>,
    ) -> Result<protocol::IngestAck, String> {
        if self.draining.load(Ordering::SeqCst) {
            return Err("server is draining; ingest refused".into());
        }
        let h = self.session(id)?;
        h.call("ingest", |reply| SessionCmd::Ingest { events, reply })?
    }

    /// Register a subscriber channel on one query of a session. Returns
    /// `None` when the session already drained (the caller should send
    /// `End`). An unknown query id yields a live channel that receives
    /// an immediate `End` from the session thread.
    pub(crate) fn subscribe(
        &self,
        id: u64,
        query: u32,
    ) -> Result<Option<crossbeam::channel::Receiver<SubMsg>>, String> {
        let h = self.session(id)?;
        let (tx, rx) = SessionHandle::subscriber_channel();
        // A subscription queued behind a drain ends with the session
        // thread: its command channel drops `tx`, which ends `rx`.
        if h.drained.load(Ordering::SeqCst)
            || h.cmd_tx.send(SessionCmd::Subscribe { query, tx }).is_err()
        {
            return Ok(None);
        }
        Ok(Some(rx))
    }

    /// Drain one session (idempotent), then retire it to the bounded
    /// drained tail.
    pub(crate) fn drain_session(&self, id: u64) -> Result<(), String> {
        let res = self.session(id)?.drain_blocking();
        // The session thread has ended (cleanly or not) — either way it
        // no longer serves commands, so it leaves the live registry.
        self.retire(id);
        res
    }

    /// Drain every session and refuse new work from now on.
    pub(crate) fn drain_all(&self) -> Result<(), String> {
        self.draining.store(true, Ordering::SeqCst);
        let handles: Vec<Arc<SessionHandle>> = match self.sessions.lock() {
            Ok(g) => g.values().cloned().collect(),
            Err(_) => return Err("session registry poisoned".into()),
        };
        let mut first_err = None;
        for h in handles {
            if let Err(e) = h.drain_blocking() {
                first_err.get_or_insert(e);
            }
            self.retire(h.id);
        }
        match first_err {
            None => Ok(()),
            Some(e) => Err(e),
        }
    }

    /// Render the Prometheus metrics page: live sessions plus the
    /// bounded tail of recently drained ones.
    pub(crate) fn metrics_text(&self) -> String {
        let mut handles: Vec<Arc<SessionHandle>> = self
            .sessions
            .lock()
            .map(|g| g.values().cloned().collect())
            .unwrap_or_default();
        let live = handles.len();
        if let Ok(tail) = self.drained_tail.lock() {
            handles.extend(tail.iter().cloned());
        }
        type SessionRow = (
            u64,
            String,
            bool,
            greta_core::ExecutorStats,
            Vec<(u32, String)>,
        );
        let mut rows: Vec<SessionRow> = handles
            .iter()
            .map(|h| {
                let stats = h.last_stats.lock().map(|g| g.clone()).unwrap_or_default();
                let texts = h.query_texts.lock().map(|g| g.clone()).unwrap_or_default();
                (
                    h.id,
                    h.query_text.clone(),
                    h.drained.load(Ordering::SeqCst),
                    stats,
                    texts,
                )
            })
            .collect();
        rows.sort_by_key(|r| r.0);
        let sessions: Vec<SessionMetrics<'_>> = rows
            .iter()
            .map(|(id, query, drained, stats, texts)| SessionMetrics {
                id: *id,
                query,
                drained: *drained,
                stats: stats.clone(),
                queries: texts,
            })
            .collect();
        metrics::render(
            &ServerMetrics {
                connections: self.connections.load(Ordering::Relaxed),
                frames: self.frames.load(Ordering::Relaxed),
                protocol_errors: self.protocol_errors.load(Ordering::Relaxed),
                http_requests: self.http_requests.load(Ordering::Relaxed),
                sessions: live,
                draining: self.draining.load(Ordering::SeqCst),
            },
            &sessions,
        )
    }
}

/// A running GRETA network front-end bound to a local address.
///
/// Dropping the server aborts it (sessions are dropped without a drain —
/// the crash path; with durability the WAL allows full recovery). Call
/// [`shutdown`](Self::shutdown) for the graceful path.
pub struct GretaServer {
    shared: Arc<Shared>,
    accept: Option<JoinHandle<()>>,
    addr: SocketAddr,
}

impl GretaServer {
    /// Bind `addr` (e.g. `"127.0.0.1:0"`) and start accepting.
    pub fn bind(addr: impl ToSocketAddrs) -> io::Result<GretaServer> {
        let listener = TcpListener::bind(addr)?;
        listener.set_nonblocking(true)?;
        let local = listener.local_addr()?;
        let shared = Arc::new(Shared::new());
        let accept_shared = Arc::clone(&shared);
        let accept = std::thread::Builder::new()
            .name("greta-accept".into())
            .spawn(move || accept_loop(listener, accept_shared))?;
        Ok(GretaServer {
            shared,
            accept: Some(accept),
            addr: local,
        })
    }

    /// The bound address (useful with port 0).
    pub fn local_addr(&self) -> SocketAddr {
        self.addr
    }

    /// Graceful shutdown: stop accepting, drain every session (flush
    /// ordered output, terminal checkpoint, end subscriptions).
    pub fn shutdown(mut self) -> Result<(), String> {
        let res = self.shared.drain_all();
        self.stop_accept();
        res
    }

    /// Abrupt stop for crash testing: drop every session without a
    /// drain. Durable sessions leave only their WAL + last checkpoint
    /// behind, exactly like a process kill.
    pub fn abort(mut self) {
        self.abort_in_place();
    }

    fn abort_in_place(&mut self) {
        let handles: Vec<Arc<SessionHandle>> = match self.shared.sessions.lock() {
            Ok(mut g) => g.drain().map(|(_, h)| h).collect(),
            Err(_) => Vec::new(),
        };
        let joins: Vec<_> = handles
            .iter()
            .filter_map(|h| h.join.lock().ok().and_then(|mut g| g.take()))
            .collect();
        // Dropping the handles drops the command senders; session
        // threads observe the disconnect and exit without draining.
        // Joining afterwards makes the on-disk WAL state settled by the
        // time abort returns — nothing mutates the durability dir later.
        drop(handles);
        for j in joins {
            let _ = j.join();
        }
        self.stop_accept();
    }

    fn stop_accept(&mut self) {
        self.shared.stop.store(true, Ordering::SeqCst);
        if let Some(j) = self.accept.take() {
            let _ = j.join();
        }
    }
}

impl Drop for GretaServer {
    fn drop(&mut self) {
        self.abort_in_place();
    }
}

fn accept_loop(listener: TcpListener, shared: Arc<Shared>) {
    loop {
        if shared.stop.load(Ordering::SeqCst) {
            return;
        }
        match listener.accept() {
            Ok((stream, _peer)) => {
                shared.connections.fetch_add(1, Ordering::Relaxed);
                let conn_shared = Arc::clone(&shared);
                let _ = std::thread::Builder::new()
                    .name("greta-conn".into())
                    .spawn(move || handle_connection(stream, conn_shared));
            }
            Err(e) if e.kind() == io::ErrorKind::WouldBlock => {
                std::thread::sleep(Duration::from_millis(2));
            }
            Err(_) => std::thread::sleep(Duration::from_millis(10)),
        }
    }
}

/// Peek the first bytes to pick a protocol, then run its loop. A peer
/// that fails to present 4 bytes within [`SNIFF_DEADLINE`] is dropped,
/// and established connections carry [`READ_IDLE_TIMEOUT`] so a peer
/// stalling mid-frame cannot pin a thread forever.
fn handle_connection(stream: TcpStream, shared: Arc<Shared>) {
    let _ = stream.set_nodelay(true);
    let _ = stream.set_nonblocking(false);
    let _ = stream.set_read_timeout(Some(Duration::from_millis(100)));
    let deadline = Instant::now() + SNIFF_DEADLINE;
    let mut first = [0u8; 4];
    loop {
        match stream.peek(&mut first) {
            Ok(0) => return, // closed before a byte arrived
            Ok(n) if n < 4 => std::thread::sleep(Duration::from_millis(1)),
            Ok(_) => break,
            Err(e)
                if e.kind() == io::ErrorKind::WouldBlock || e.kind() == io::ErrorKind::TimedOut => {
            }
            Err(_) => return,
        }
        if Instant::now() >= deadline {
            shared.protocol_errors.fetch_add(1, Ordering::Relaxed);
            return;
        }
    }
    let _ = stream.set_read_timeout(Some(READ_IDLE_TIMEOUT));
    if first == protocol::MAGIC {
        binary_connection(stream, &shared);
    } else if matches!(&first, b"GET " | b"HEAD" | b"POST" | b"PUT ") {
        http::handle(stream, &shared);
    } else if matches!(first, [b'{', ..]) {
        jsonl::handle(stream, &shared);
    } else {
        shared.protocol_errors.fetch_add(1, Ordering::Relaxed);
        // Consume the peeked bytes so closing sends a clean FIN instead
        // of an RST (unread receive-buffer data turns close into reset).
        let mut sink = [0u8; 4];
        let mut reader = &stream;
        let _ = std::io::Read::read(&mut reader, &mut sink);
    }
}

fn binary_connection(mut stream: TcpStream, shared: &Arc<Shared>) {
    if protocol::read_preamble(&mut stream).is_err() {
        shared.protocol_errors.fetch_add(1, Ordering::Relaxed);
        return;
    }
    loop {
        let req = match protocol::read_request(&mut stream) {
            Ok(r) => r,
            Err(ProtoError::Closed) => return,
            Err(e) => {
                shared.protocol_errors.fetch_add(1, Ordering::Relaxed);
                let _ =
                    protocol::write_response(&mut stream, &Response::Error { msg: e.to_string() });
                return;
            }
        };
        shared.frames.fetch_add(1, Ordering::Relaxed);
        let mut write = |resp: &Response| protocol::write_response(&mut stream, resp).is_ok();
        if !serve_request(shared, req, &mut write) {
            return;
        }
    }
}

/// Serve one decoded request, whichever protocol it arrived in: `write`
/// puts one [`Response`] on the connection. Returns false when the
/// connection should close (write failure).
pub(crate) fn serve_request(
    shared: &Shared,
    req: Request,
    write: &mut impl FnMut(&Response) -> bool,
) -> bool {
    let done = |res: Result<Response, String>| res.unwrap_or_else(|msg| Response::Error { msg });
    let resp = done(match req {
        Request::Submit {
            query,
            registry,
            options,
            attach_to,
        } => shared
            .submit(&query, registry, options, attach_to)
            .map(|(session, query)| Response::SubmitOk { session, query }),
        Request::Attach { session } => shared
            .attach(session)
            .map(|session| Response::SubmitOk { session, query: 0 }),
        Request::Ingest { session, events } => shared.ingest(session, events).map(Response::Ack),
        // Stream the query's `Rows` until it detaches or the session
        // drains, then answer `End` — at once when there is no channel:
        // the session had drained already, nothing more will ever arrive.
        Request::Subscribe { session, query } => shared.subscribe(session, query).map(|rx| {
            for msg in rx.iter().flat_map(|rx| rx.iter()) {
                let SubMsg::Rows(rows) = msg else { break };
                let rows = Response::Rows {
                    session,
                    query,
                    rows,
                };
                if !write(&rows) {
                    break;
                }
            }
            Response::End { session, query }
        }),
        Request::Detach { session, query } => {
            shared
                .detach(session, query)
                .map(|rows| Response::DetachOk {
                    session,
                    query,
                    rows,
                })
        }
        Request::Drain { session } => shared
            .drain_session(session)
            .map(|()| Response::DrainOk { session }),
        Request::Shutdown => shared.drain_all().map(|()| Response::ShutdownOk),
        Request::Stats => Ok(Response::StatsText {
            text: shared.metrics_text(),
        }),
        Request::Ping => Ok(Response::Pong),
    });
    write(&resp)
}
