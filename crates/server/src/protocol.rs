//! The length-prefixed binary wire protocol.
//!
//! Every frame is `u32` little-endian payload length, then a one-byte
//! frame kind, then a kind-specific payload encoded with
//! [`greta_types::codec`] primitives — the same codec durability
//! snapshots and result rows already use, so events and rows cross the
//! wire byte-identical to their on-disk form. A connection opens with the
//! 6-byte preamble `b"GRTA"` + `u16` protocol version; the server sniffs
//! it to tell binary clients apart from HTTP clients on the same port.
//!
//! Frames larger than [`MAX_FRAME_BYTES`] are refused before the payload
//! is read, so a hostile length prefix cannot make the server allocate.

use greta_core::{EmissionMode, LatePolicy, WindowResult};
use greta_types::codec::{get_opt_u64, put_opt_u64, put_str, put_u32, put_u64};
use greta_types::{CodecError, Event, Reader, SchemaRegistry};
use std::io::{self, Read, Write};

/// Connection preamble magic for the binary protocol.
pub const MAGIC: [u8; 4] = *b"GRTA";
/// Binary protocol version carried after [`MAGIC`].
///
/// Version 2 made sessions multi-query: `Submit` can attach a query to
/// an existing session, `SubmitOk` carries the assigned query id,
/// `Subscribe`/`Rows`/`End` are query-scoped, and `Detach` deregisters
/// a query mid-stream, returning its final rows. Version 3 acknowledges a
/// subscription: its first frame is `Subscribed`, sent once the session
/// has registered the subscriber, or `End` / `Error` when there is none.
pub const VERSION: u16 = 3;
/// Hard cap on a single frame's payload (16 MiB). The length prefix is
/// validated against this before any payload allocation.
pub const MAX_FRAME_BYTES: usize = 16 << 20;

/// Wire protocol failures: transport, framing, or payload decoding.
#[derive(Debug)]
pub enum ProtoError {
    /// The peer closed the connection at a frame boundary.
    Closed,
    /// Socket-level failure.
    Io(io::Error),
    /// A frame's length prefix exceeded [`MAX_FRAME_BYTES`].
    FrameTooLarge(u64),
    /// The payload did not decode as the declared frame kind.
    Codec(CodecError),
    /// Unknown frame kind, bad preamble, or other framing violation.
    Malformed(String),
}

impl std::fmt::Display for ProtoError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ProtoError::Closed => write!(f, "connection closed"),
            ProtoError::Io(e) => write!(f, "io error: {e}"),
            ProtoError::FrameTooLarge(n) => {
                write!(f, "frame of {n} bytes exceeds limit of {MAX_FRAME_BYTES}")
            }
            ProtoError::Codec(e) => write!(f, "frame decode error: {e}"),
            ProtoError::Malformed(m) => write!(f, "malformed frame: {m}"),
        }
    }
}

impl std::error::Error for ProtoError {}

impl From<io::Error> for ProtoError {
    fn from(e: io::Error) -> Self {
        if e.kind() == io::ErrorKind::UnexpectedEof {
            ProtoError::Closed
        } else {
            ProtoError::Io(e)
        }
    }
}

impl From<CodecError> for ProtoError {
    fn from(e: CodecError) -> Self {
        ProtoError::Codec(e)
    }
}

/// Most shards (worker threads) a session may ask for.
pub const MAX_SHARDS: u32 = 256;
/// Largest router batch a session may ask for, in events.
pub const MAX_BATCH_SIZE: u32 = 1 << 16;

/// Per-session executor options carried by [`Request::Submit`].
///
/// The wire default emission mode is [`EmissionMode::WindowOrdered`]:
/// a remote subscriber sees rows in the canonical `(window, group)`
/// order without trusting shard interleaving. The options come from the
/// network: a `Submit` whose options ask for more than the caps below is
/// refused with an `Error` frame before anything is allocated or started,
/// and one whose late-policy tag is unknown does not decode.
#[derive(Debug, Clone, PartialEq)]
pub struct SessionOptions {
    /// Shard (worker thread) count; `0` is normalised to 1, above
    /// [`MAX_SHARDS`] is refused.
    pub shards: u32,
    /// Reorder-buffer slack in time units.
    pub slack: u64,
    /// Policy for events older than the watermark.
    pub late_policy: LatePolicy,
    /// Result emission mode.
    pub emission: EmissionMode,
    /// Router batch size; `0` is normalised to 1, above
    /// [`MAX_BATCH_SIZE`] is refused.
    pub batch_size: u32,
    /// Per-shard input channel capacity (frames).
    pub channel_capacity: u32,
    /// Result channel capacity (rows); also the session's pending-row
    /// high-water mark that drives the `busy` ack bit.
    pub result_capacity: u32,
    /// Durability directory; `None` runs without a WAL.
    pub durability_dir: Option<String>,
    /// Recover from `durability_dir` instead of requiring it fresh.
    pub recover: bool,
    /// Checkpoint cadence in closed windows; `0` keeps the durability
    /// default. Large values defer all checkpointing to the terminal
    /// one taken at drain.
    pub snapshot_every_windows: u64,
}

impl Default for SessionOptions {
    fn default() -> Self {
        SessionOptions {
            shards: 1,
            slack: 0,
            late_policy: LatePolicy::Drop,
            emission: EmissionMode::WindowOrdered,
            batch_size: 64,
            channel_capacity: 4096,
            result_capacity: 1 << 16,
            durability_dir: None,
            recover: false,
            snapshot_every_windows: 0,
        }
    }
}

/// Acknowledgement for one [`Request::Ingest`] frame — the backpressure
/// contract: `durable` tells the client how much of the stream survives
/// a crash, `busy` tells it to back off before the reorder buffer or
/// result channel overruns.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct IngestAck {
    /// Session the ack belongs to.
    pub session: u64,
    /// Total events accepted by the session so far.
    pub pushed: u64,
    /// WAL records appended so far (the durable watermark); `None`
    /// without durability.
    pub durable: Option<u64>,
    /// Event-time ingest watermark; `None` before the first release.
    pub watermark: Option<u64>,
    /// Credit signal: when set, the executor's channels are at least
    /// half full and the client should pause before the next batch.
    pub busy: bool,
}

/// Client → server frames.
#[derive(Debug, Clone, PartialEq)]
pub enum Request {
    /// Compile `query` and either start a session or, with `attach_to`,
    /// register it as an additional query on an existing session's
    /// shared ingest stream.
    Submit {
        /// Query-language text (see `greta-query`).
        query: String,
        /// Event schemas the query and its events refer to. Ignored when
        /// `attach_to` is set — an attached query compiles against the
        /// target session's registry (one stream, one schema set).
        registry: SchemaRegistry,
        /// Executor options. For an attached query only
        /// [`SessionOptions::emission`] applies (the session's executor
        /// already fixed sharding, slack, and durability).
        options: SessionOptions,
        /// `None` starts a new session; `Some(id)` registers the query
        /// on session `id`, sharing its ingest plane.
        attach_to: Option<u64>,
    },
    /// Bind this connection to an existing session.
    Attach {
        /// Session id from a previous `Submit`.
        session: u64,
    },
    /// Push a batch of events into a session.
    Ingest {
        /// Target session.
        session: u64,
        /// Events in stream order.
        events: Vec<Event>,
    },
    /// Stream one query's results over this connection until the query
    /// detaches or the session drains.
    Subscribe {
        /// Target session.
        session: u64,
        /// Target query within the session (`0` = the submitted one).
        query: u32,
    },
    /// Deregister a query from a session mid-stream (barrier cut). The
    /// reply carries the query's final rows; its subscriptions end.
    Detach {
        /// Target session.
        session: u64,
        /// Query to deregister (query `0` cannot detach — drain the
        /// session instead).
        query: u32,
    },
    /// Gracefully drain one session: flush ordered output, take a
    /// terminal checkpoint, end its subscriptions.
    Drain {
        /// Target session.
        session: u64,
    },
    /// Drain every session and stop accepting new work.
    Shutdown,
    /// Fetch the Prometheus metrics text over the binary protocol.
    Stats,
    /// Liveness probe.
    Ping,
}

/// Server → client frames.
#[derive(Debug, Clone, PartialEq)]
pub enum Response {
    /// Session created (or attached, or a query registered).
    SubmitOk {
        /// The session id to use in subsequent frames.
        session: u64,
        /// The query id within the session: `0` for a new session, the
        /// assigned id for a `Submit` with `attach_to`.
        query: u32,
    },
    /// Ingest acknowledgement.
    Ack(IngestAck),
    /// A batch of result rows for a subscription.
    Rows {
        /// Source session.
        session: u64,
        /// Source query within the session.
        query: u32,
        /// Result rows; under `WindowOrdered` these arrive in canonical
        /// `(window, group)` order across all `Rows` frames.
        rows: Vec<WindowResult<f64>>,
    },
    /// First frame of a subscription: the session registered the
    /// subscriber, so it gets every row from the query's retained backlog
    /// on.
    Subscribed {
        /// Source session.
        session: u64,
        /// Source query within the session.
        query: u32,
    },
    /// Subscription terminator: the query detached or the session
    /// drained; no more rows.
    End {
        /// Source session.
        session: u64,
        /// Source query within the session.
        query: u32,
    },
    /// Detach finished; the query is deregistered.
    DetachOk {
        /// The session the query detached from.
        session: u64,
        /// The deregistered query.
        query: u32,
        /// The query's undelivered remainder: rows released by the
        /// detach barrier (plus everything still pending when nothing
        /// ever subscribed). Disjoint from rows already streamed to
        /// subscribers — union is exactly-once.
        rows: Vec<WindowResult<f64>>,
    },
    /// Drain finished; the durability directory (if any) holds a
    /// terminal checkpoint.
    DrainOk {
        /// Drained session.
        session: u64,
    },
    /// All sessions drained; the server stops accepting new work.
    ShutdownOk,
    /// Prometheus metrics text.
    StatsText {
        /// The `/metrics` document.
        text: String,
    },
    /// Liveness reply.
    Pong,
    /// Request failed; the connection stays usable.
    Error {
        /// Human-readable failure description.
        msg: String,
    },
}

const K_SUBMIT: u8 = 0x01;
const K_ATTACH: u8 = 0x02;
const K_INGEST: u8 = 0x03;
const K_SUBSCRIBE: u8 = 0x04;
const K_DRAIN: u8 = 0x05;
const K_SHUTDOWN: u8 = 0x06;
const K_STATS: u8 = 0x07;
const K_PING: u8 = 0x08;
const K_DETACH: u8 = 0x09;

const K_SUBMIT_OK: u8 = 0x81;
const K_ACK: u8 = 0x82;
const K_ROWS: u8 = 0x83;
const K_DRAIN_OK: u8 = 0x84;
const K_ERROR: u8 = 0x85;
const K_STATS_TEXT: u8 = 0x86;
const K_PONG: u8 = 0x87;
const K_SHUTDOWN_OK: u8 = 0x88;
const K_END: u8 = 0x89;
const K_DETACH_OK: u8 = 0x8A;
const K_SUBSCRIBED: u8 = 0x8B;

impl SessionOptions {
    fn encode(&self, out: &mut Vec<u8>) {
        put_u32(out, self.shards);
        put_u64(out, self.slack);
        out.push(self.late_policy.tag());
        out.push(self.emission.tag());
        put_u32(out, self.batch_size);
        put_u32(out, self.channel_capacity);
        put_u32(out, self.result_capacity);
        match &self.durability_dir {
            None => out.push(0),
            Some(d) => {
                out.push(1);
                put_str(out, d);
            }
        }
        out.push(self.recover as u8);
        put_u64(out, self.snapshot_every_windows);
    }

    fn decode(r: &mut Reader<'_>) -> Result<SessionOptions, CodecError> {
        Ok(SessionOptions {
            shards: r.u32()?,
            slack: r.u64()?,
            late_policy: LatePolicy::from_tag(r.u8()?)?,
            emission: EmissionMode::from_tag(r.u8()?)?,
            batch_size: r.u32()?,
            channel_capacity: r.u32()?,
            result_capacity: r.u32()?,
            durability_dir: match r.u8()? {
                0 => None,
                1 => Some(r.str()?.to_string()),
                t => return Err(CodecError(format!("bad option tag {t}"))),
            },
            recover: r.u8()? != 0,
            snapshot_every_windows: r.u64()?,
        })
    }
}

impl Request {
    /// Append this frame's kind byte and payload to `out`.
    pub fn encode(&self, out: &mut Vec<u8>) {
        match self {
            Request::Submit {
                query,
                registry,
                options,
                attach_to,
            } => {
                out.push(K_SUBMIT);
                put_str(out, query);
                registry.encode(out);
                options.encode(out);
                put_opt_u64(out, *attach_to);
            }
            Request::Attach { session } => {
                out.push(K_ATTACH);
                put_u64(out, *session);
            }
            Request::Ingest { session, events } => {
                out.push(K_INGEST);
                put_u64(out, *session);
                put_u32(out, events.len() as u32);
                for e in events {
                    e.encode(out);
                }
            }
            Request::Subscribe { session, query } => {
                out.push(K_SUBSCRIBE);
                put_u64(out, *session);
                put_u32(out, *query);
            }
            Request::Detach { session, query } => {
                out.push(K_DETACH);
                put_u64(out, *session);
                put_u32(out, *query);
            }
            Request::Drain { session } => {
                out.push(K_DRAIN);
                put_u64(out, *session);
            }
            Request::Shutdown => out.push(K_SHUTDOWN),
            Request::Stats => out.push(K_STATS),
            Request::Ping => out.push(K_PING),
        }
    }

    /// Decode a frame payload (kind byte first) written by
    /// [`encode`](Self::encode).
    pub fn decode(payload: &[u8]) -> Result<Request, ProtoError> {
        let mut r = Reader::new(payload);
        let kind = r.u8()?;
        let req = match kind {
            K_SUBMIT => Request::Submit {
                query: r.str()?.to_string(),
                registry: SchemaRegistry::decode(&mut r)?,
                options: SessionOptions::decode(&mut r)?,
                attach_to: get_opt_u64(&mut r)?,
            },
            K_ATTACH => Request::Attach { session: r.u64()? },
            K_INGEST => {
                let session = r.u64()?;
                let n = r.seq_len(10)?;
                let mut events = Vec::with_capacity(n);
                for _ in 0..n {
                    events.push(Event::decode(&mut r)?);
                }
                Request::Ingest { session, events }
            }
            K_SUBSCRIBE => Request::Subscribe {
                session: r.u64()?,
                query: r.u32()?,
            },
            K_DETACH => Request::Detach {
                session: r.u64()?,
                query: r.u32()?,
            },
            K_DRAIN => Request::Drain { session: r.u64()? },
            K_SHUTDOWN => Request::Shutdown,
            K_STATS => Request::Stats,
            K_PING => Request::Ping,
            k => {
                return Err(ProtoError::Malformed(format!(
                    "unknown request kind {k:#x}"
                )))
            }
        };
        if !r.is_empty() {
            return Err(ProtoError::Malformed(format!(
                "{} trailing bytes after request kind {kind:#x}",
                r.remaining()
            )));
        }
        Ok(req)
    }
}

impl Response {
    /// Append this frame's kind byte and payload to `out`.
    pub fn encode(&self, out: &mut Vec<u8>) {
        match self {
            Response::SubmitOk { session, query } => {
                out.push(K_SUBMIT_OK);
                put_u64(out, *session);
                put_u32(out, *query);
            }
            Response::Ack(a) => {
                out.push(K_ACK);
                put_u64(out, a.session);
                put_u64(out, a.pushed);
                put_opt_u64(out, a.durable);
                put_opt_u64(out, a.watermark);
                out.push(a.busy as u8);
            }
            Response::Rows {
                session,
                query,
                rows,
            } => {
                out.push(K_ROWS);
                put_u64(out, *session);
                put_u32(out, *query);
                put_u32(out, rows.len() as u32);
                for row in rows {
                    row.encode(out);
                }
            }
            Response::Subscribed { session, query } => {
                out.push(K_SUBSCRIBED);
                put_u64(out, *session);
                put_u32(out, *query);
            }
            Response::End { session, query } => {
                out.push(K_END);
                put_u64(out, *session);
                put_u32(out, *query);
            }
            Response::DetachOk {
                session,
                query,
                rows,
            } => {
                out.push(K_DETACH_OK);
                put_u64(out, *session);
                put_u32(out, *query);
                put_u32(out, rows.len() as u32);
                for row in rows {
                    row.encode(out);
                }
            }
            Response::DrainOk { session } => {
                out.push(K_DRAIN_OK);
                put_u64(out, *session);
            }
            Response::ShutdownOk => out.push(K_SHUTDOWN_OK),
            Response::StatsText { text } => {
                out.push(K_STATS_TEXT);
                put_str(out, text);
            }
            Response::Pong => out.push(K_PONG),
            Response::Error { msg } => {
                out.push(K_ERROR);
                put_str(out, msg);
            }
        }
    }

    /// Decode a frame payload (kind byte first) written by
    /// [`encode`](Self::encode).
    pub fn decode(payload: &[u8]) -> Result<Response, ProtoError> {
        let mut r = Reader::new(payload);
        let kind = r.u8()?;
        let resp = match kind {
            K_SUBMIT_OK => Response::SubmitOk {
                session: r.u64()?,
                query: r.u32()?,
            },
            K_ACK => Response::Ack(IngestAck {
                session: r.u64()?,
                pushed: r.u64()?,
                durable: get_opt_u64(&mut r)?,
                watermark: get_opt_u64(&mut r)?,
                busy: r.u8()? != 0,
            }),
            K_ROWS => {
                let session = r.u64()?;
                let query = r.u32()?;
                let n = r.seq_len(8)?;
                let mut rows = Vec::with_capacity(n);
                for _ in 0..n {
                    rows.push(WindowResult::decode(&mut r)?);
                }
                Response::Rows {
                    session,
                    query,
                    rows,
                }
            }
            K_SUBSCRIBED => Response::Subscribed {
                session: r.u64()?,
                query: r.u32()?,
            },
            K_END => Response::End {
                session: r.u64()?,
                query: r.u32()?,
            },
            K_DETACH_OK => {
                let session = r.u64()?;
                let query = r.u32()?;
                let n = r.seq_len(8)?;
                let mut rows = Vec::with_capacity(n);
                for _ in 0..n {
                    rows.push(WindowResult::decode(&mut r)?);
                }
                Response::DetachOk {
                    session,
                    query,
                    rows,
                }
            }
            K_DRAIN_OK => Response::DrainOk { session: r.u64()? },
            K_SHUTDOWN_OK => Response::ShutdownOk,
            K_STATS_TEXT => Response::StatsText {
                text: r.str()?.to_string(),
            },
            K_PONG => Response::Pong,
            K_ERROR => Response::Error {
                msg: r.str()?.to_string(),
            },
            k => {
                return Err(ProtoError::Malformed(format!(
                    "unknown response kind {k:#x}"
                )))
            }
        };
        if !r.is_empty() {
            return Err(ProtoError::Malformed(format!(
                "{} trailing bytes after response kind {kind:#x}",
                r.remaining()
            )));
        }
        Ok(resp)
    }
}

/// Write the binary connection preamble (`b"GRTA"` + version).
pub fn write_preamble(w: &mut impl Write) -> io::Result<()> {
    w.write_all(&MAGIC)?;
    w.write_all(&VERSION.to_le_bytes())
}

/// Consume and validate the preamble written by [`write_preamble`].
pub fn read_preamble(r: &mut impl Read) -> Result<(), ProtoError> {
    let mut magic = [0u8; 4];
    r.read_exact(&mut magic)?;
    if magic != MAGIC {
        return Err(ProtoError::Malformed("bad magic".into()));
    }
    let mut version_bytes = [0u8; 2];
    r.read_exact(&mut version_bytes)?;
    let version = u16::from_le_bytes(version_bytes);
    if version != VERSION {
        return Err(ProtoError::Malformed(format!(
            "unsupported protocol version {version} (expected {VERSION})"
        )));
    }
    Ok(())
}

fn write_payload(w: &mut impl Write, payload: &[u8]) -> Result<(), ProtoError> {
    // Refuse before writing anything: the peer would reject the frame
    // anyway, and past u32::MAX the length prefix would silently wrap
    // and desync the stream. Nothing has touched the socket on error,
    // so callers may split and retry (see `Client::ingest`).
    if payload.len() > MAX_FRAME_BYTES {
        return Err(ProtoError::FrameTooLarge(payload.len() as u64));
    }
    w.write_all(&(payload.len() as u32).to_le_bytes())?;
    w.write_all(payload)?;
    w.flush()?;
    Ok(())
}

/// Read one length-prefixed frame payload. Fails fast on a length prefix
/// beyond [`MAX_FRAME_BYTES`] without reading (or allocating) the body.
pub fn read_payload(r: &mut impl Read) -> Result<Vec<u8>, ProtoError> {
    let mut len4 = [0u8; 4];
    if let Err(e) = r.read_exact(&mut len4) {
        return Err(if e.kind() == io::ErrorKind::UnexpectedEof {
            ProtoError::Closed
        } else {
            ProtoError::Io(e)
        });
    }
    let len = u32::from_le_bytes(len4) as usize;
    if len == 0 {
        return Err(ProtoError::Malformed("empty frame".into()));
    }
    if len > MAX_FRAME_BYTES {
        return Err(ProtoError::FrameTooLarge(len as u64));
    }
    let mut payload = vec![0u8; len];
    r.read_exact(&mut payload)?;
    Ok(payload)
}

/// Write one request frame (length prefix + kind + payload).
pub fn write_request(w: &mut impl Write, req: &Request) -> Result<(), ProtoError> {
    let mut payload = Vec::new();
    req.encode(&mut payload);
    write_payload(w, &payload)
}

/// Read one request frame.
pub fn read_request(r: &mut impl Read) -> Result<Request, ProtoError> {
    Request::decode(&read_payload(r)?)
}

/// Write one response frame (length prefix + kind + payload).
pub fn write_response(w: &mut impl Write, resp: &Response) -> Result<(), ProtoError> {
    let mut payload = Vec::new();
    resp.encode(&mut payload);
    write_payload(w, &payload)
}

/// Read one response frame.
pub fn read_response(r: &mut impl Read) -> Result<Response, ProtoError> {
    Response::decode(&read_payload(r)?)
}

#[cfg(test)]
mod tests {
    use super::*;
    use greta_core::{OutValue, PartitionKey};
    use greta_types::{Time, TypeId, Value};

    fn sample_registry() -> SchemaRegistry {
        let mut reg = SchemaRegistry::new();
        reg.register_type("Stock", &["id", "price"]).unwrap();
        reg
    }

    fn roundtrip_request(req: Request) {
        let mut buf = Vec::new();
        write_request(&mut buf, &req).unwrap();
        let got = read_request(&mut buf.as_slice()).unwrap();
        assert_eq!(got, req);
    }

    fn roundtrip_response(resp: Response) {
        let mut buf = Vec::new();
        write_response(&mut buf, &resp).unwrap();
        let got = read_response(&mut buf.as_slice()).unwrap();
        assert_eq!(got, resp);
    }

    #[test]
    fn request_roundtrips() {
        roundtrip_request(Request::Submit {
            query: "RETURN COUNT(*) PATTERN SEQ(Stock s)".into(),
            registry: sample_registry(),
            options: SessionOptions {
                shards: 4,
                slack: 16,
                late_policy: LatePolicy::Error,
                emission: EmissionMode::Unordered,
                durability_dir: Some("/tmp/x".into()),
                recover: true,
                ..SessionOptions::default()
            },
            attach_to: None,
        });
        roundtrip_request(Request::Submit {
            query: "RETURN COUNT(*) PATTERN SEQ(Stock s)".into(),
            registry: sample_registry(),
            options: SessionOptions::default(),
            attach_to: Some(12),
        });
        roundtrip_request(Request::Attach { session: 7 });
        roundtrip_request(Request::Ingest {
            session: 3,
            events: vec![
                Event::new_unchecked(TypeId(0), Time(1), vec![Value::Int(5), Value::Float(2.5)]),
                Event::new_unchecked(
                    TypeId(0),
                    Time(2),
                    vec![Value::Str("a".into()), Value::Bool(true)],
                ),
            ],
        });
        roundtrip_request(Request::Subscribe {
            session: 3,
            query: 2,
        });
        roundtrip_request(Request::Detach {
            session: 3,
            query: 1,
        });
        roundtrip_request(Request::Drain { session: 3 });
        roundtrip_request(Request::Shutdown);
        roundtrip_request(Request::Stats);
        roundtrip_request(Request::Ping);
    }

    #[test]
    fn response_roundtrips() {
        roundtrip_response(Response::SubmitOk {
            session: 9,
            query: 0,
        });
        roundtrip_response(Response::SubmitOk {
            session: 9,
            query: 3,
        });
        roundtrip_response(Response::Ack(IngestAck {
            session: 9,
            pushed: 100,
            durable: Some(42),
            watermark: None,
            busy: true,
        }));
        roundtrip_response(Response::Rows {
            session: 9,
            query: 1,
            rows: vec![WindowResult {
                window: 2,
                group: PartitionKey(vec![Some(Value::Int(1))]),
                values: vec![OutValue::Count(3.0), OutValue::Float(1.5)],
            }],
        });
        roundtrip_response(Response::Subscribed {
            session: 9,
            query: 1,
        });
        roundtrip_response(Response::End {
            session: 9,
            query: 1,
        });
        roundtrip_response(Response::DetachOk {
            session: 9,
            query: 2,
            rows: vec![WindowResult {
                window: 4,
                group: PartitionKey(vec![None]),
                values: vec![OutValue::Count(1.0)],
            }],
        });
        roundtrip_response(Response::DrainOk { session: 9 });
        roundtrip_response(Response::ShutdownOk);
        roundtrip_response(Response::StatsText {
            text: "# HELP x\n".into(),
        });
        roundtrip_response(Response::Pong);
        roundtrip_response(Response::Error { msg: "nope".into() });
    }

    #[test]
    fn oversized_length_prefix_rejected_without_allocation() {
        let mut buf = Vec::new();
        buf.extend_from_slice(&(u32::MAX).to_le_bytes());
        buf.extend_from_slice(&[0u8; 8]);
        match read_payload(&mut buf.as_slice()) {
            Err(ProtoError::FrameTooLarge(n)) => assert_eq!(n, u32::MAX as u64),
            other => panic!("expected FrameTooLarge, got {other:?}"),
        }
    }

    #[test]
    fn oversized_outbound_frame_refused_before_writing() {
        let huge = Event::new_unchecked(
            TypeId(0),
            Time(1),
            vec![Value::Str("x".repeat(MAX_FRAME_BYTES + 1).into())],
        );
        let req = Request::Ingest {
            session: 1,
            events: vec![huge],
        };
        let mut buf = Vec::new();
        match write_request(&mut buf, &req) {
            Err(ProtoError::FrameTooLarge(n)) => assert!(n as usize > MAX_FRAME_BYTES),
            other => panic!("expected FrameTooLarge, got {other:?}"),
        }
        assert!(buf.is_empty(), "nothing must reach the stream on refusal");
    }

    #[test]
    fn zero_length_frame_rejected() {
        let buf = 0u32.to_le_bytes();
        assert!(matches!(
            read_payload(&mut buf.as_slice()),
            Err(ProtoError::Malformed(_))
        ));
    }

    #[test]
    fn trailing_bytes_rejected() {
        let mut payload = Vec::new();
        Request::Ping.encode(&mut payload);
        payload.push(0xFF);
        assert!(matches!(
            Request::decode(&payload),
            Err(ProtoError::Malformed(_))
        ));
    }

    #[test]
    fn unknown_kind_rejected() {
        assert!(matches!(
            Request::decode(&[0x7F]),
            Err(ProtoError::Malformed(_))
        ));
        assert!(matches!(
            Response::decode(&[0x10]),
            Err(ProtoError::Malformed(_))
        ));
    }

    #[test]
    fn preamble_roundtrip_and_rejection() {
        let mut buf = Vec::new();
        write_preamble(&mut buf).unwrap();
        assert_eq!(buf.len(), 6);
        read_preamble(&mut buf.as_slice()).unwrap();

        let bad = b"HTTP/1";
        assert!(read_preamble(&mut bad.as_slice()).is_err());
        let mut wrong_ver = Vec::new();
        wrong_ver.extend_from_slice(&MAGIC);
        wrong_ver.extend_from_slice(&99u16.to_le_bytes());
        assert!(read_preamble(&mut wrong_ver.as_slice()).is_err());
    }
}
