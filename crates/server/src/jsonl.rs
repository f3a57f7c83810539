//! Newline-delimited JSON mode: one request object per line in, one
//! response object per line out. Reuses `greta_workloads::io::json` for
//! event/schema/value encoding so a JSON client and a JSONL file replay
//! produce byte-identical events.
//!
//! Requests:
//! `{"submit":{"query":…,"schemas":[…],"options":{…}}}` ·
//! `{"register":{"session":N,"query":…,"emission":…}}` ·
//! `{"attach":{"session":N}}` · `{"ingest":{"session":N,"events":[…]}}` ·
//! `{"subscribe":{"session":N,"query":Q}}` (`query` optional, default
//! query 0) · `{"detach":{"session":N,"query":Q}}` ·
//! `{"drain":{"session":N}}` · `{"stats":{}}` · `{"shutdown":{}}` ·
//! `{"ping":{}}`
//!
//! Responses: `{"submitted":{"session":N,"query":Q}}` · `{"ack":{…}}` ·
//! a stream of `{"rows":{…}}` then `{"end":{…}}` for subscriptions ·
//! `{"detached":{"session":N,"query":Q,"rows":[…]}}` ·
//! `{"drained":{…}}` · `{"stats":{"text":…}}` · `{"shutdown":"ok"}` ·
//! `{"pong":{}}` · `{"error":"…"}`.

use crate::protocol::{IngestAck, Request, Response, SessionOptions};
use crate::server::{serve_request, Shared};
use greta_core::{EmissionMode, LatePolicy, OutValue, WindowResult};
use greta_types::{Event, Schema, SchemaRegistry, Value};
use greta_workloads::io::json::{self, Json};
use std::fmt::Write as _;
use std::io::{BufRead, BufReader, Write};
use std::net::TcpStream;
use std::sync::atomic::Ordering;
use std::sync::Arc;

/// Serve a JSON-line connection until it closes: each line decodes to the
/// [`Request`] the binary protocol would carry, is served by the one
/// dispatcher, and every [`Response`] goes back as one line.
pub(crate) fn handle(stream: TcpStream, shared: &Arc<Shared>) {
    let reader = match stream.try_clone() {
        Ok(s) => BufReader::new(s),
        Err(_) => return,
    };
    let mut writer = stream;
    let mut write = |resp: &Response| {
        writeln!(writer, "{}", response_to_json(resp)).is_ok() && writer.flush().is_ok()
    };
    for line in reader.lines() {
        let Ok(line) = line else { return };
        if line.trim().is_empty() {
            continue;
        }
        shared.frames.fetch_add(1, Ordering::Relaxed);
        let keep_going = match request_from_json(&line) {
            Ok(req) => serve_request(shared, req, &mut write),
            Err(msg) => {
                shared.protocol_errors.fetch_add(1, Ordering::Relaxed);
                write(&Response::Error { msg })
            }
        };
        if !keep_going {
            return;
        }
    }
}

/// Decode one request line.
fn request_from_json(line: &str) -> Result<Request, String> {
    let req = json::parse(line)?;
    let obj = req.as_object().ok_or("request must be an object")?;
    let (verb, body) = obj.first().ok_or("empty request object")?;
    let query_text = || {
        let text = body.get("query").and_then(Json::as_str);
        text.ok_or_else(|| format!("{verb} lacks `query`"))
    };
    Ok(match verb.as_str() {
        "submit" => {
            let schemas = body
                .get("schemas")
                .and_then(Json::as_array)
                .ok_or("submit lacks `schemas`")?;
            let mut registry = SchemaRegistry::new();
            for s in schemas {
                let schema: Schema = json::schema_from_json(s)?;
                registry.register(schema).map_err(|e| e.to_string())?;
            }
            Request::Submit {
                query: query_text()?.to_string(),
                registry,
                options: body
                    .get("options")
                    .map_or(Ok(SessionOptions::default()), options_from_json)?,
                attach_to: None,
            }
        }
        // A `Submit` attached to a live session, which brings the schemas.
        "register" => {
            let mut options = SessionOptions::default();
            if let Some(e) = body.get("emission").and_then(Json::as_str) {
                options.emission = emission_from_json(e)?;
            }
            Request::Submit {
                query: query_text()?.to_string(),
                registry: SchemaRegistry::new(),
                options,
                attach_to: Some(session_of(body)?),
            }
        }
        "attach" => Request::Attach {
            session: session_of(body)?,
        },
        "ingest" => {
            let events = body
                .get("events")
                .and_then(Json::as_array)
                .ok_or("ingest lacks `events`")?;
            let events: Vec<Event> = events
                .iter()
                .map(json::event_from_json)
                .collect::<Result<_, _>>()?;
            Request::Ingest {
                session: session_of(body)?,
                events,
            }
        }
        "subscribe" => Request::Subscribe {
            session: session_of(body)?,
            query: query_of(body)?,
        },
        "detach" => {
            let query = body
                .get("query")
                .and_then(Json::as_u64)
                .ok_or("detach lacks a numeric `query`")?;
            Request::Detach {
                session: session_of(body)?,
                query: u32::try_from(query).map_err(|_| "query id out of range")?,
            }
        }
        "drain" => Request::Drain {
            session: session_of(body)?,
        },
        "stats" => Request::Stats,
        "shutdown" => Request::Shutdown,
        "ping" => Request::Ping,
        v => return Err(format!("unknown request `{v}`")),
    })
}

/// Encode one response line.
fn response_to_json(resp: &Response) -> String {
    match resp {
        Response::SubmitOk { session, query } => {
            format!("{{\"submitted\":{{\"session\":{session},\"query\":{query}}}}}")
        }
        Response::Ack(ack) => encode_ack(ack),
        Response::Rows {
            session,
            query,
            rows,
        } => encode_rows("rows", *session, *query, rows),
        Response::End { session, query } => {
            format!("{{\"end\":{{\"session\":{session},\"query\":{query}}}}}")
        }
        Response::DetachOk {
            session,
            query,
            rows,
        } => encode_rows("detached", *session, *query, rows),
        Response::DrainOk { session } => format!("{{\"drained\":{{\"session\":{session}}}}}"),
        Response::ShutdownOk => "{\"shutdown\":\"ok\"}".to_string(),
        Response::StatsText { text } => {
            format!("{{\"stats\":{{\"text\":{}}}}}", json::str_lit(text))
        }
        Response::Pong => "{\"pong\":{}}".to_string(),
        Response::Error { msg } => format!("{{\"error\":{}}}", json::str_lit(msg)),
    }
}

fn session_of(body: &Json) -> Result<u64, String> {
    body.get("session")
        .and_then(Json::as_u64)
        .ok_or_else(|| "request lacks a numeric `session`".to_string())
}

/// Optional `query` field, defaulting to query 0.
fn query_of(body: &Json) -> Result<u32, String> {
    match body.get("query") {
        None => Ok(0),
        Some(q) => q
            .as_u64()
            .and_then(|n| u32::try_from(n).ok())
            .ok_or_else(|| "`query` must be a query id".to_string()),
    }
}

fn emission_from_json(e: &str) -> Result<EmissionMode, String> {
    match e {
        "unordered" => Ok(EmissionMode::Unordered),
        "ordered" => Ok(EmissionMode::WindowOrdered),
        e => Err(format!("unknown emission `{e}`")),
    }
}

fn options_from_json(o: &Json) -> Result<SessionOptions, String> {
    let mut opts = SessionOptions::default();
    if let Some(n) = o.get("shards").and_then(Json::as_u64) {
        opts.shards = u32::try_from(n).map_err(|_| "shards out of range")?;
    }
    if let Some(n) = o.get("slack").and_then(Json::as_u64) {
        opts.slack = n;
    }
    if let Some(p) = o.get("late_policy").and_then(Json::as_str) {
        opts.late_policy = match p {
            "drop" => LatePolicy::Drop,
            "divert" => LatePolicy::Divert,
            "error" => LatePolicy::Error,
            p => return Err(format!("unknown late_policy `{p}`")),
        };
    }
    if let Some(e) = o.get("emission").and_then(Json::as_str) {
        opts.emission = emission_from_json(e)?;
    }
    if let Some(n) = o.get("batch_size").and_then(Json::as_u64) {
        opts.batch_size = u32::try_from(n).map_err(|_| "batch_size out of range")?;
    }
    if let Some(n) = o.get("channel_capacity").and_then(Json::as_u64) {
        opts.channel_capacity = u32::try_from(n).map_err(|_| "channel_capacity out of range")?;
    }
    if let Some(n) = o.get("result_capacity").and_then(Json::as_u64) {
        opts.result_capacity = u32::try_from(n).map_err(|_| "result_capacity out of range")?;
    }
    if let Some(d) = o.get("durability_dir").and_then(Json::as_str) {
        opts.durability_dir = Some(d.to_string());
    }
    if let Some(b) = o.get("recover").and_then(Json::as_bool) {
        opts.recover = b;
    }
    if let Some(n) = o.get("snapshot_every_windows").and_then(Json::as_u64) {
        opts.snapshot_every_windows = n;
    }
    Ok(opts)
}

fn encode_ack(a: &IngestAck) -> String {
    let mut out = String::new();
    let _ = write!(
        out,
        "{{\"ack\":{{\"session\":{},\"pushed\":{}",
        a.session, a.pushed
    );
    match a.durable {
        Some(d) => {
            let _ = write!(out, ",\"durable\":{d}");
        }
        None => out.push_str(",\"durable\":null"),
    }
    match a.watermark {
        Some(w) => {
            let _ = write!(out, ",\"watermark\":{w}");
        }
        None => out.push_str(",\"watermark\":null"),
    }
    let _ = write!(out, ",\"busy\":{}}}}}", a.busy);
    out
}

/// `{"<verb>":{"session":N,"query":Q,"rows":[{"window":…,"group":[…],"values":[…]},…]}}`
fn encode_rows(verb: &str, session: u64, query: u32, rows: &[WindowResult<f64>]) -> String {
    let mut out = String::new();
    let _ = write!(
        out,
        "{{\"{verb}\":{{\"session\":{session},\"query\":{query},\"rows\":"
    );
    push_rows_array(&mut out, rows);
    out.push_str("}}");
    out
}

/// `[{"window":…,"group":[…],"values":[…]},…]`
fn push_rows_array(out: &mut String, rows: &[WindowResult<f64>]) {
    out.push('[');
    for (i, row) in rows.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        let _ = write!(out, "{{\"window\":{},\"group\":[", row.window);
        for (j, g) in row.group.0.iter().enumerate() {
            if j > 0 {
                out.push(',');
            }
            match g {
                None => out.push_str("null"),
                Some(v) => push_wire_value(out, v),
            }
        }
        out.push_str("],\"values\":[");
        for (j, v) in row.values.iter().enumerate() {
            if j > 0 {
                out.push(',');
            }
            match v {
                OutValue::Count(n) => push_num_field(out, "Count", *n),
                OutValue::Float(x) => push_num_field(out, "Float", *x),
            }
        }
        out.push_str("]}");
    }
    out.push(']');
}

fn push_wire_value(out: &mut String, v: &Value) {
    json::push_value(out, v);
}

fn push_num_field(out: &mut String, tag: &str, x: f64) {
    if x.is_finite() {
        let _ = write!(out, "{{\"{tag}\":{x}}}");
    } else {
        let _ = write!(out, "{{\"{tag}\":null}}");
    }
}
