//! Blocking binary-protocol client: the counterpart of the server's
//! connection loop, used by the integration tests, the load-test
//! binary, and any embedding that wants to talk to a remote executor.

use crate::protocol::{self, IngestAck, ProtoError, Request, Response, SessionOptions};
use greta_core::{EmissionMode, WindowResult};
use greta_types::{Event, SchemaRegistry};
use std::io;
use std::net::{TcpStream, ToSocketAddrs};

/// Client-side failures: transport/protocol errors or an `Error` frame
/// from the server.
#[derive(Debug)]
pub enum ClientError {
    /// Wire-level failure.
    Proto(ProtoError),
    /// The server answered with an `Error` frame.
    Server(String),
    /// The server answered with a frame the request does not expect.
    Unexpected(String),
}

impl std::fmt::Display for ClientError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ClientError::Proto(e) => write!(f, "protocol error: {e}"),
            ClientError::Server(m) => write!(f, "server error: {m}"),
            ClientError::Unexpected(m) => write!(f, "unexpected response: {m}"),
        }
    }
}

impl std::error::Error for ClientError {}

impl From<ProtoError> for ClientError {
    fn from(e: ProtoError) -> Self {
        ClientError::Proto(e)
    }
}

impl From<io::Error> for ClientError {
    fn from(e: io::Error) -> Self {
        ClientError::Proto(ProtoError::from(e))
    }
}

/// One binary-protocol connection.
pub struct Client {
    stream: TcpStream,
}

impl Client {
    /// Connect and send the protocol preamble.
    pub fn connect(addr: impl ToSocketAddrs) -> Result<Client, ClientError> {
        let mut stream = TcpStream::connect(addr)?;
        stream.set_nodelay(true).ok();
        protocol::write_preamble(&mut stream).map_err(ProtoError::from)?;
        Ok(Client { stream })
    }

    fn call(&mut self, req: &Request) -> Result<Response, ClientError> {
        protocol::write_request(&mut self.stream, req)?;
        let resp = protocol::read_response(&mut self.stream)?;
        if let Response::Error { msg } = resp {
            return Err(ClientError::Server(msg));
        }
        Ok(resp)
    }

    /// Submit a query; returns the new session id (the query gets id `0`
    /// within it).
    pub fn submit(
        &mut self,
        query: &str,
        registry: &SchemaRegistry,
        options: SessionOptions,
    ) -> Result<u64, ClientError> {
        match self.call(&Request::Submit {
            query: query.to_string(),
            registry: registry.clone(),
            options,
            attach_to: None,
        })? {
            Response::SubmitOk { session, .. } => Ok(session),
            other => Err(ClientError::Unexpected(format!("{other:?}"))),
        }
    }

    /// Register an additional query on an existing session's shared
    /// ingest stream (compiled server-side against the session's
    /// registry); returns the assigned query id for `subscribe_query` /
    /// `detach`.
    pub fn register(
        &mut self,
        session: u64,
        query: &str,
        emission: EmissionMode,
    ) -> Result<u32, ClientError> {
        match self.call(&Request::Submit {
            query: query.to_string(),
            registry: SchemaRegistry::new(),
            options: SessionOptions {
                emission,
                ..SessionOptions::default()
            },
            attach_to: Some(session),
        })? {
            Response::SubmitOk { query, .. } => Ok(query),
            other => Err(ClientError::Unexpected(format!("{other:?}"))),
        }
    }

    /// Deregister a query from a session mid-stream; returns its
    /// undelivered remainder (rows its subscribers had not received —
    /// disjoint from, and completing, the subscribed stream).
    pub fn detach(
        &mut self,
        session: u64,
        query: u32,
    ) -> Result<Vec<WindowResult<f64>>, ClientError> {
        match self.call(&Request::Detach { session, query })? {
            Response::DetachOk { rows, .. } => Ok(rows),
            other => Err(ClientError::Unexpected(format!("{other:?}"))),
        }
    }

    /// Bind this connection to an existing session.
    pub fn attach(&mut self, session: u64) -> Result<u64, ClientError> {
        match self.call(&Request::Attach { session })? {
            Response::SubmitOk { session, .. } => Ok(session),
            other => Err(ClientError::Unexpected(format!("{other:?}"))),
        }
    }

    /// Push one batch of events; the ack carries the backpressure
    /// signal — callers should pause when [`IngestAck::busy`] is set.
    ///
    /// A batch that would encode past the protocol's frame cap is split
    /// in half and sent as multiple frames (nothing reaches the socket
    /// before the size check, so the split is safe); the returned ack is
    /// the last sub-batch's, whose counters cover the whole batch.
    pub fn ingest(&mut self, session: u64, events: Vec<Event>) -> Result<IngestAck, ClientError> {
        let req = Request::Ingest { session, events };
        let res = self.call(&req);
        // Take the batch back out of `req` (constructed as `Ingest` just
        // above) so the frame-split path below can halve it without a
        // clone; the fallback arm exists only to keep this panic-free.
        let Request::Ingest { events, .. } = req else {
            return Err(ClientError::Unexpected(
                "ingest request changed shape mid-call".into(),
            ));
        };
        match res {
            Ok(Response::Ack(a)) => Ok(a),
            Ok(other) => Err(ClientError::Unexpected(format!("{other:?}"))),
            Err(ClientError::Proto(ProtoError::FrameTooLarge(n))) => {
                if events.len() <= 1 {
                    // A single event that cannot fit in a frame.
                    return Err(ClientError::Proto(ProtoError::FrameTooLarge(n)));
                }
                let mut right = events;
                let left: Vec<Event> = right.drain(..right.len() / 2).collect();
                self.ingest(session, left)?;
                self.ingest(session, right)
            }
            Err(e) => Err(e),
        }
    }

    /// Gracefully drain a session (terminal checkpoint, subscriptions
    /// ended).
    pub fn drain(&mut self, session: u64) -> Result<(), ClientError> {
        match self.call(&Request::Drain { session })? {
            Response::DrainOk { .. } => Ok(()),
            other => Err(ClientError::Unexpected(format!("{other:?}"))),
        }
    }

    /// Drain every session and stop the server accepting new work.
    pub fn shutdown(&mut self) -> Result<(), ClientError> {
        match self.call(&Request::Shutdown)? {
            Response::ShutdownOk => Ok(()),
            other => Err(ClientError::Unexpected(format!("{other:?}"))),
        }
    }

    /// Fetch the Prometheus metrics text over the binary protocol.
    pub fn stats(&mut self) -> Result<String, ClientError> {
        match self.call(&Request::Stats)? {
            Response::StatsText { text } => Ok(text),
            other => Err(ClientError::Unexpected(format!("{other:?}"))),
        }
    }

    /// Liveness probe.
    pub fn ping(&mut self) -> Result<(), ClientError> {
        match self.call(&Request::Ping)? {
            Response::Pong => Ok(()),
            other => Err(ClientError::Unexpected(format!("{other:?}"))),
        }
    }

    /// Turn this connection into a result subscription on the session's
    /// query `0`. Rows stream in wire order (canonical
    /// `(window, group)` order under the default `WindowOrdered`
    /// emission) until the session drains.
    pub fn subscribe(self, session: u64) -> Result<Subscription, ClientError> {
        self.subscribe_query(session, 0)
    }

    /// Turn this connection into a result subscription on one query of a
    /// multi-query session (`0` = the submitted one; registered queries use the id
    /// from [`register`](Self::register)). Returns once the session has
    /// registered the subscriber, which then receives every row the query
    /// has not yet handed to all earlier subscribers; an unknown query or
    /// a drained session gives a stream that has already ended. The stream
    /// ends when the query detaches or the session drains.
    pub fn subscribe_query(
        mut self,
        session: u64,
        query: u32,
    ) -> Result<Subscription, ClientError> {
        let done = match self.call(&Request::Subscribe { session, query })? {
            Response::Subscribed { .. } => false,
            Response::End { .. } => true,
            other => return Err(ClientError::Unexpected(format!("{other:?}"))),
        };
        Ok(Subscription {
            stream: self.stream,
            done,
        })
    }
}

/// A streaming result subscription (see [`Client::subscribe`]).
pub struct Subscription {
    stream: TcpStream,
    done: bool,
}

impl Subscription {
    /// Receive the next batch of rows; `Ok(None)` once the session has
    /// drained and the stream ended.
    pub fn next_rows(&mut self) -> Result<Option<Vec<WindowResult<f64>>>, ClientError> {
        if self.done {
            return Ok(None);
        }
        match protocol::read_response(&mut self.stream)? {
            Response::Rows { rows, .. } => Ok(Some(rows)),
            Response::End { .. } => {
                self.done = true;
                Ok(None)
            }
            Response::Error { msg } => Err(ClientError::Server(msg)),
            other => Err(ClientError::Unexpected(format!("{other:?}"))),
        }
    }

    /// Collect every remaining row until the stream ends.
    pub fn collect_rows(mut self) -> Result<Vec<WindowResult<f64>>, ClientError> {
        let mut all = Vec::new();
        while let Some(batch) = self.next_rows()? {
            all.extend(batch);
        }
        Ok(all)
    }
}
