//! The TCP front-end: a blocking accept loop, protocol sniffing, and the
//! binary request/response connection loop.
//!
//! One port serves two protocols, told apart by peeking the first bytes
//! of each connection: the 6-byte `GRTA` preamble selects the binary
//! protocol and an HTTP verb selects the metrics endpoint; anything else
//! is a protocol error and is closed. Each connection gets its own thread
//! (the workspace is offline/vendored-deps-only, so no async runtime);
//! each session gets its own executor-owning thread (see
//! [`crate::session`]).
//!
//! Locks: the session registry is one private mutex inside [`Registry`],
//! taken only by its own short methods, each of which locks once and
//! releases before returning. No guard leaves a method and none is held
//! while another is taken, so the code that writes to sockets (the
//! connection loops here, `http.rs`) cannot hold one: a stalled peer
//! cannot freeze the registry.

use crate::http;
use crate::metrics::{self, ServerMetrics, SessionMetrics};
use crate::protocol::{self, ProtoError, Request, Response, SessionOptions};
use crate::session::{spawn_session, SessionCmd, SessionHandle, SubMsg};
use greta_query::compile::CompiledQuery;
use greta_types::{Event, SchemaRegistry};
use std::collections::{HashMap, VecDeque};
use std::io;
use std::net::{Ipv4Addr, Ipv6Addr, SocketAddr, TcpListener, TcpStream, ToSocketAddrs};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex, PoisonError};
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

/// The session registry: live sessions and the bounded tail of drained
/// ones, under one lock, so a session moves from one to the other in one
/// critical section and a lookup or a metrics page finds it in exactly
/// one place. Each method locks once and releases before returning. A
/// poisoned lock is recovered rather than failing every later request:
/// only these methods hold it, and their collection updates do not panic
/// part-way.
#[derive(Default)]
struct Registry {
    sessions: Mutex<Sessions>,
}

#[derive(Default)]
struct Sessions {
    live: HashMap<u64, Arc<SessionHandle>>,
    /// Most recent drained sessions, oldest first (see
    /// [`DRAINED_TAIL_MAX`]).
    drained: VecDeque<Arc<SessionHandle>>,
}

impl Registry {
    /// A live or recently drained session.
    fn get(&self, id: u64) -> Option<Arc<SessionHandle>> {
        let s = self.sessions.lock().unwrap_or_else(PoisonError::into_inner);
        let drained = || s.drained.iter().find(|h| h.id == id);
        s.live.get(&id).or_else(drained).cloned()
    }

    /// A session just started.
    fn insert(&self, h: Arc<SessionHandle>) {
        let mut s = self.sessions.lock().unwrap_or_else(PoisonError::into_inner);
        s.live.insert(h.id, h);
    }

    /// Move a session whose thread has ended out of the live map into the
    /// drained tail, evicting the oldest entry. Without this a
    /// long-running server would leak one handle (query text, stats,
    /// metrics series) per session forever.
    fn retire(&self, id: u64) {
        let mut s = self.sessions.lock().unwrap_or_else(PoisonError::into_inner);
        if let Some(h) = s.live.remove(&id) {
            s.drained.push_back(h);
            while s.drained.len() > DRAINED_TAIL_MAX {
                s.drained.pop_front();
            }
        }
    }

    /// The live sessions, then the drained tail.
    fn all(&self) -> (Vec<Arc<SessionHandle>>, Vec<Arc<SessionHandle>>) {
        let s = self.sessions.lock().unwrap_or_else(PoisonError::into_inner);
        let live = s.live.values().cloned().collect();
        (live, s.drained.iter().cloned().collect())
    }

    /// Empty the live map, handing back its sessions.
    fn take_live(&self) -> Vec<Arc<SessionHandle>> {
        let mut s = self.sessions.lock().unwrap_or_else(PoisonError::into_inner);
        s.live.drain().map(|(_, h)| h).collect()
    }
}

/// Shared server state: the session registry and page-level counters.
pub(crate) struct Shared {
    registry: Registry,
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
            registry: Registry::default(),
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
        let unknown = || format!("unknown session {id}");
        self.registry.get(id).ok_or_else(unknown)
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
        self.registry.insert(Arc::new(handle));
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

    /// Register a subscriber channel on one query of a session and wait
    /// until the session has. Returns `None` when nothing will ever arrive
    /// (the caller should send `End`): the query is unknown, or the
    /// session drained — before the command, or with it still queued.
    pub(crate) fn subscribe(
        &self,
        id: u64,
        query: u32,
    ) -> Result<Option<crossbeam::channel::Receiver<SubMsg>>, String> {
        let h = self.session(id)?;
        let (tx, rx) = SessionHandle::subscriber_channel();
        let make = |reply| SessionCmd::Subscribe { query, tx, reply };
        Ok(h.call("subscribe", make).unwrap_or(false).then_some(rx))
    }

    /// Drain one session (idempotent), then retire it to the bounded
    /// drained tail.
    pub(crate) fn drain_session(&self, id: u64) -> Result<(), String> {
        let res = self.session(id)?.drain_blocking();
        // The session thread has ended (cleanly or not) — either way it
        // no longer serves commands, so it leaves the live registry.
        self.registry.retire(id);
        res
    }

    /// Drain every session and refuse new work from now on.
    pub(crate) fn drain_all(&self) -> Result<(), String> {
        self.draining.store(true, Ordering::SeqCst);
        let (live, _) = self.registry.all();
        let mut first_err = None;
        for h in live {
            if let Err(e) = h.drain_blocking() {
                first_err.get_or_insert(e);
            }
            self.registry.retire(h.id);
        }
        match first_err {
            None => Ok(()),
            Some(e) => Err(e),
        }
    }

    /// Render the Prometheus metrics page: live sessions plus the
    /// bounded tail of recently drained ones.
    pub(crate) fn metrics_text(&self) -> String {
        let (live, drained) = self.registry.all();
        let mut handles: Vec<_> = live.iter().chain(&drained).collect();
        handles.sort_by_key(|h| h.id);
        let published: Vec<_> = handles.iter().map(|h| h.published()).collect();
        let sessions: Vec<SessionMetrics<'_>> = handles
            .iter()
            .zip(&published)
            .map(|(h, (stats, texts))| SessionMetrics {
                id: h.id,
                query: &h.query_text,
                drained: h.drained.load(Ordering::SeqCst),
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
                sessions: live.len(),
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
        let handles = self.shared.registry.take_live();
        let joins: Vec<_> = handles.iter().filter_map(|h| h.take_join()).collect();
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

    /// Stop the accept loop. It blocks in `accept`, so a connection of
    /// our own wakes it to see the flag; should that connection fail, the
    /// thread is left to end at the next connection rather than joined.
    fn stop_accept(&mut self) {
        self.shared.stop.store(true, Ordering::SeqCst);
        if let Some(j) = self.accept.take() {
            let mut wake = self.addr;
            if wake.ip().is_unspecified() {
                wake.set_ip(match wake {
                    SocketAddr::V4(_) => Ipv4Addr::LOCALHOST.into(),
                    SocketAddr::V6(_) => Ipv6Addr::LOCALHOST.into(),
                });
            }
            if TcpStream::connect_timeout(&wake, SNIFF_DEADLINE).is_ok() {
                let _ = j.join();
            }
        }
    }
}

impl Drop for GretaServer {
    fn drop(&mut self) {
        self.abort_in_place();
    }
}

/// Accept connections, each on a thread of its own, until the stop flag
/// is seen: a connection is taken the moment it arrives.
fn accept_loop(listener: TcpListener, shared: Arc<Shared>) {
    for stream in listener.incoming() {
        if shared.stop.load(Ordering::SeqCst) {
            return;
        }
        match stream {
            Ok(stream) => {
                shared.connections.fetch_add(1, Ordering::Relaxed);
                let conn_shared = Arc::clone(&shared);
                let _ = std::thread::Builder::new()
                    .name("greta-conn".into())
                    .spawn(move || handle_connection(stream, conn_shared));
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

/// Serve one decoded request: `write` puts one [`Response`] on the
/// connection. Returns false when the connection should close (write
/// failure).
fn serve_request(shared: &Shared, req: Request, write: &mut impl FnMut(&Response) -> bool) -> bool {
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
        // Acknowledge the registered subscription, stream the query's
        // `Rows` until it detaches or the session drains, then answer
        // `End` — at once when there is no channel: nothing will ever
        // arrive.
        Request::Subscribe { session, query } => shared.subscribe(session, query).map(|rx| {
            let acked = rx.filter(|_| write(&Response::Subscribed { session, query }));
            for msg in acked.iter().flat_map(|rx| rx.iter()) {
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

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashSet;
    use std::sync::atomic::AtomicUsize;

    /// Retiring a session moves it from the live map to the drained tail
    /// in one step: a concurrent lookup always finds it (until the tail
    /// evicts it), and a concurrent metrics page lists it once.
    #[test]
    fn retiring_sessions_never_hides_or_duplicates_them() {
        let shared = Shared::new();
        let mut registry = SchemaRegistry::new();
        registry.register_type("A", &["x"]).unwrap();
        let options = SessionOptions::default();
        let query = "RETURN COUNT(*) PATTERN A+ WITHIN 10 SLIDE 10";
        let submit = |_| shared.submit(query, registry.clone(), options.clone(), None);
        let ids: Vec<u64> = (0..32).map(|i| submit(i).unwrap().0).collect();
        let retired = AtomicUsize::new(0);
        let stop = AtomicBool::new(false);
        std::thread::scope(|s| {
            for _ in 0..4 {
                s.spawn(|| {
                    while !stop.load(Ordering::SeqCst) {
                        for (i, &id) in ids.iter().enumerate() {
                            // Session `i` leaves the drained tail when the
                            // one `DRAINED_TAIL_MAX` after it is retired.
                            let evicted = || retired.load(Ordering::SeqCst) >= i + DRAINED_TAIL_MAX;
                            let found = shared.session(id);
                            assert!(found.is_ok() || evicted(), "lookup of session {id} failed");
                        }
                    }
                });
            }
            s.spawn(|| {
                while !stop.load(Ordering::SeqCst) {
                    let page = shared.metrics_text();
                    let mut seen = HashSet::new();
                    for line in page.lines().filter(|l| l.contains("session=\"")) {
                        let series = line.rsplit_once(' ').map_or(line, |(s, _)| s);
                        assert!(seen.insert(series), "series listed twice: {series}");
                    }
                }
            });
            for (i, &id) in ids.iter().enumerate() {
                shared.drain_session(id).unwrap();
                retired.store(i + 1, Ordering::SeqCst);
            }
            stop.store(true, Ordering::SeqCst);
        });
    }
}
