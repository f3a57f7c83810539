//! Loopback integration tests for the `greta-server` network front-end:
//! binary wire ingest byte-identical to the in-process executor,
//! ordered subscription monotonicity, backpressure under a
//! slow consumer, graceful-drain-vs-crash recovery, the Prometheus
//! endpoint, malformed-frame handling, multi-query sessions (runtime
//! register/detach on a shared ingest stream), and how a session thread
//! wakes (acks not paced by a clock, rows delivered while idle).

use greta::core::window::last_closed;
use greta::core::{EmissionMode, ExecutorConfig, LatePolicy, StreamExecutor, WindowResult};
use greta::durability::DurabilityConfig;
use greta::query::CompiledQuery;
use greta::server::protocol::{read_response, write_preamble, Request, Response, MAX_SHARDS};
use greta::server::{Client, GretaServer, SessionOptions};
use greta::types::{Event, SchemaRegistry, Time, TypeId, Value};
use greta::workloads::{ClusterConfig, ClusterGen, StockConfig, StockGen};
use std::io::{Read, Write};
use std::net::TcpStream;
use std::path::PathBuf;
use std::time::{Duration, Instant};

const Q1: &str = "RETURN sector, COUNT(*) PATTERN Stock S+ \
                  WHERE [company, sector] AND S.price > NEXT(S).price \
                  GROUP-BY sector WITHIN 500 SLIDE 250";
const Q2: &str = "RETURN mapper, SUM(M.cpu) \
                  PATTERN SEQ(Start S, Measurement M+, End E) \
                  WHERE [job, mapper] AND M.load < NEXT(M).load \
                  GROUP-BY mapper WITHIN 2000 SLIDE 1000";

fn stock(events: usize) -> (SchemaRegistry, Vec<Event>) {
    let mut reg = SchemaRegistry::new();
    let gen = StockGen::new(
        StockConfig {
            events,
            ..Default::default()
        },
        &mut reg,
    )
    .unwrap();
    let events = gen.generate();
    (reg, events)
}

fn cluster(events: usize) -> (SchemaRegistry, Vec<Event>) {
    let mut reg = SchemaRegistry::new();
    let gen = ClusterGen::new(
        ClusterConfig {
            events,
            mappers: 5,
            ..Default::default()
        },
        &mut reg,
    )
    .unwrap();
    let events = gen.generate();
    (reg, events)
}

/// The in-process oracle: same query, same shard count, same ordered
/// emission — rows collected across poll_results() + finish().
fn in_process(
    query: &str,
    reg: &SchemaRegistry,
    events: &[Event],
    shards: usize,
) -> Vec<WindowResult<f64>> {
    let q = CompiledQuery::parse(query, reg).unwrap();
    let mut exec = StreamExecutor::<f64>::new(
        q,
        reg.clone(),
        ExecutorConfig {
            shards,
            emission: EmissionMode::WindowOrdered,
            ..Default::default()
        },
    )
    .unwrap();
    let mut rows = Vec::new();
    for e in events {
        exec.push(e.clone()).unwrap();
        rows.extend(exec.poll_results());
    }
    rows.extend(exec.finish().unwrap());
    rows
}

fn encode_rows(rows: &[WindowResult<f64>]) -> Vec<u8> {
    let mut out = Vec::new();
    for r in rows {
        r.encode(&mut out);
    }
    out
}

fn tmpdir(name: &str) -> PathBuf {
    let d = std::env::temp_dir().join(format!("greta-srvtest-{name}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&d);
    d
}

/// Runs `query` over the binary wire protocol and asserts that the rows a
/// subscriber collects are byte-identical to the in-process executor's.
fn assert_binary_ingest_byte_identical(
    query: &str,
    reg: SchemaRegistry,
    events: Vec<Event>,
    shards: u32,
) {
    let server = GretaServer::bind("127.0.0.1:0").unwrap();
    let addr = server.local_addr();

    let mut client = Client::connect(addr).unwrap();
    let session = client
        .submit(
            query,
            &reg,
            SessionOptions {
                shards,
                ..SessionOptions::default()
            },
        )
        .unwrap();
    // `subscribe` returns once the session has registered the subscriber,
    // so it sees every row of the ingest below.
    let sub = Client::connect(addr).unwrap().subscribe(session).unwrap();
    let collector = std::thread::spawn(move || sub.collect_rows().unwrap());

    for chunk in events.chunks(1024) {
        let ack = client.ingest(session, chunk.to_vec()).unwrap();
        assert!(ack.pushed > 0);
        assert!(ack.durable.is_none()); // no durability configured
    }
    client.drain(session).unwrap();
    let wire_rows = collector.join().unwrap();

    let oracle = in_process(query, &reg, &events, shards as usize);
    assert!(!oracle.is_empty());
    assert_eq!(
        encode_rows(&wire_rows),
        encode_rows(&oracle),
        "wire rows must be byte-identical to the in-process executor"
    );
    server.shutdown().unwrap();
}

#[test]
fn binary_ingest_byte_identical_to_in_process_q1() {
    let (reg, events) = stock(100_000);
    assert_binary_ingest_byte_identical(Q1, reg, events, 4);
}

#[test]
fn binary_ingest_byte_identical_to_in_process_q2() {
    let (reg, events) = cluster(4000);
    assert_binary_ingest_byte_identical(Q2, reg, events, 2);
}

#[test]
fn ordered_subscription_is_monotonic_across_batches() {
    let (reg, events) = stock(20_000);
    let server = GretaServer::bind("127.0.0.1:0").unwrap();
    let addr = server.local_addr();
    let mut client = Client::connect(addr).unwrap();
    let session = client
        .submit(
            Q1,
            &reg,
            SessionOptions {
                shards: 4,
                ..SessionOptions::default()
            },
        )
        .unwrap();
    let mut sub = Client::connect(addr).unwrap().subscribe(session).unwrap();
    let collector = std::thread::spawn(move || {
        let mut batches = Vec::new();
        while let Some(batch) = sub.next_rows().unwrap() {
            batches.push(batch);
        }
        batches
    });
    for chunk in events.chunks(256) {
        client.ingest(session, chunk.to_vec()).unwrap();
    }
    client.drain(session).unwrap();
    let batches = collector.join().unwrap();
    assert!(batches.len() > 1, "want streaming, not one final batch");
    let rows: Vec<WindowResult<f64>> = batches.into_iter().flatten().collect();
    assert!(!rows.is_empty());
    for pair in rows.windows(2) {
        let a = (pair[0].window, pair[0].group.clone());
        let b = (pair[1].window, pair[1].group.clone());
        assert!(a < b, "rows out of canonical order: {a:?} !< {b:?}");
    }
    server.shutdown().unwrap();
}

/// Passes over the 30 000-event stream the slow consumer's ingest may
/// take before its acks must have said busy: 1.2 M events.
const MAX_PASSES: u64 = 40;

#[test]
fn slow_consumer_trips_the_busy_signal() {
    let (reg, events) = stock(30_000);
    let server = GretaServer::bind("127.0.0.1:0").unwrap();
    let addr = server.local_addr();
    let mut client = Client::connect(addr).unwrap();
    // A row-dense query (per-company groups over short windows) and a
    // subscriber that never reads: pending rows hit the session's
    // high-water mark and rows pile up on the executor's result channel,
    // so acks must start carrying busy=true at the session's fixed
    // thresholds.
    let dense = "RETURN company, COUNT(*) PATTERN Stock S+ \
                 WHERE [company] AND S.price > NEXT(S).price \
                 GROUP-BY company WITHIN 50 SLIDE 25";
    let session = client
        .submit(
            dense,
            &reg,
            SessionOptions {
                shards: 2,
                ..SessionOptions::default()
            },
        )
        .unwrap();
    let _stalled = Client::connect(addr).unwrap().subscribe(session).unwrap();
    // How many rows the socket buffers and channels absorb before they
    // back up depends on the box and its load: one pass of the stream has
    // gone through without a busy ack. So keep ingesting it, each pass
    // shifted past the end of the last, until an ack says busy — under a
    // cap far above what any buffer holds.
    let span = events.last().unwrap().time.ticks() + 1;
    let mut saw_busy = false;
    'ingest: for pass in 0..MAX_PASSES {
        for chunk in events.chunks(512) {
            let shifted = chunk.iter().map(|e| Event {
                time: Time(e.time.ticks() + pass * span),
                ..e.clone()
            });
            if client.ingest(session, shifted.collect()).unwrap().busy {
                saw_busy = true;
                break 'ingest;
            }
        }
    }
    assert!(saw_busy, "backpressure signal never tripped");
    // The server survives: a fresh consumer can still make progress.
    server.abort();
}

#[test]
fn graceful_drain_leaves_recoverable_checkpoint() {
    let (reg, events) = stock(8_000);
    let dir = tmpdir("graceful");
    let server = GretaServer::bind("127.0.0.1:0").unwrap();
    let addr = server.local_addr();
    let mut client = Client::connect(addr).unwrap();
    let session = client
        .submit(
            Q1,
            &reg,
            SessionOptions {
                shards: 2,
                durability_dir: Some(dir.to_string_lossy().into_owned()),
                ..SessionOptions::default()
            },
        )
        .unwrap();
    let sub = Client::connect(addr).unwrap().subscribe(session).unwrap();
    let collector = std::thread::spawn(move || sub.collect_rows().unwrap());
    for chunk in events.chunks(1024) {
        let ack = client.ingest(session, chunk.to_vec()).unwrap();
        assert!(ack.durable.is_some(), "durable watermark missing from ack");
    }
    client.drain(session).unwrap();
    let wire_rows = collector.join().unwrap();
    server.shutdown().unwrap();

    // The terminal checkpoint is recoverable and complete: recovery
    // resumes an empty stream tail (every row was already emitted).
    let q = CompiledQuery::parse(Q1, &reg).unwrap();
    let mut recovered = StreamExecutor::<f64>::recover(
        q,
        reg.clone(),
        ExecutorConfig {
            shards: 2,
            emission: EmissionMode::WindowOrdered,
            durability: Some(DurabilityConfig::new(&dir)),
            ..Default::default()
        },
    )
    .unwrap();
    let tail = recovered.finish().unwrap();
    assert!(
        tail.is_empty(),
        "graceful drain checkpointed everything; recovery re-emitted {} rows",
        tail.len()
    );
    let oracle = in_process(Q1, &reg, &events, 2);
    assert_eq!(encode_rows(&wire_rows), encode_rows(&oracle));
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn crash_without_drain_recovers_from_wal() {
    let (reg, events) = stock(8_000);
    let dir = tmpdir("crash");
    let server = GretaServer::bind("127.0.0.1:0").unwrap();
    let addr = server.local_addr();
    let mut client = Client::connect(addr).unwrap();
    // Defer every checkpoint to the terminal one (which the crash then
    // skips): recovery must replay the entire WAL and re-emit all rows.
    let session = client
        .submit(
            Q1,
            &reg,
            SessionOptions {
                shards: 2,
                durability_dir: Some(dir.to_string_lossy().into_owned()),
                snapshot_every_windows: u64::MAX,
                ..SessionOptions::default()
            },
        )
        .unwrap();
    let mut last_durable = 0;
    for chunk in events.chunks(1024) {
        let ack = client.ingest(session, chunk.to_vec()).unwrap();
        last_durable = ack.durable.expect("durable watermark");
    }
    assert_eq!(last_durable, events.len() as u64);
    // Kill the server without draining: no terminal checkpoint, the WAL
    // holds the whole stream.
    server.abort();

    let q = CompiledQuery::parse(Q1, &reg).unwrap();
    let mut recovered = StreamExecutor::<f64>::recover(
        q,
        reg.clone(),
        ExecutorConfig {
            shards: 2,
            emission: EmissionMode::WindowOrdered,
            durability: Some(DurabilityConfig::new(&dir)),
            ..Default::default()
        },
    )
    .unwrap();
    let mut rows = recovered.poll_results();
    rows.extend(recovered.finish().unwrap());
    let oracle = in_process(Q1, &reg, &events, 2);
    assert_eq!(
        encode_rows(&rows),
        encode_rows(&oracle),
        "crash recovery must replay the WAL to the same rows"
    );
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn metrics_endpoint_serves_prometheus_text() {
    let (reg, events) = stock(5_000);
    let server = GretaServer::bind("127.0.0.1:0").unwrap();
    let addr = server.local_addr();
    let mut client = Client::connect(addr).unwrap();
    let session = client
        .submit(
            Q1,
            &reg,
            SessionOptions {
                shards: 2,
                ..SessionOptions::default()
            },
        )
        .unwrap();
    for chunk in events.chunks(1024) {
        client.ingest(session, chunk.to_vec()).unwrap();
    }

    let mut http = TcpStream::connect(addr).unwrap();
    write!(http, "GET /metrics HTTP/1.1\r\nHost: x\r\n\r\n").unwrap();
    let mut body = String::new();
    http.read_to_string(&mut body).unwrap();
    assert!(body.starts_with("HTTP/1.1 200 OK"), "{body}");
    let text = body.split("\r\n\r\n").nth(1).unwrap();

    // Valid exposition format: every series line's name has HELP + TYPE.
    let mut typed = std::collections::HashSet::new();
    for line in text.lines() {
        if let Some(rest) = line.strip_prefix("# TYPE ") {
            typed.insert(rest.split(' ').next().unwrap().to_string());
        } else if !line.starts_with('#') && !line.is_empty() {
            let name = line.split(['{', ' ']).next().unwrap();
            assert!(typed.contains(name), "series {name} lacks a TYPE header");
            let value = line.rsplit(' ').next().unwrap();
            value
                .parse::<f64>()
                .unwrap_or_else(|_| panic!("series {name} has non-numeric value {value}"));
        }
    }
    // ≥ 12 distinct ExecutorStats-backed families with a session label.
    let executor_families = text
        .lines()
        .filter(|l| l.starts_with("# TYPE greta_") && !l.starts_with("# TYPE greta_server_"))
        .count();
    assert!(
        executor_families >= 12,
        "only {executor_families} executor stat families"
    );
    assert!(text.contains("greta_events_pushed_total{session=\"1\"} 5000"));
    assert!(text.contains("greta_query_released_watermark{session=\"1\",query=\"0\"}"));
    assert!(
        text.contains("greta_query_frontier_lag_windows{session=\"1\",query=\"0\",shard=\"1\"}")
    );
    assert!(
        !text.contains("greta_merge_"),
        "per-session merge duplicates are gone"
    );

    let mut http = TcpStream::connect(addr).unwrap();
    write!(http, "GET /healthz HTTP/1.1\r\nHost: x\r\n\r\n").unwrap();
    let mut body = String::new();
    http.read_to_string(&mut body).unwrap();
    assert!(body.starts_with("HTTP/1.1 200 OK"));
    assert!(body.ends_with("ok\n"));

    // The binary Stats frame serves the same document.
    let stats = client.stats().unwrap();
    assert!(stats.contains("greta_events_pushed_total"));
    server.shutdown().unwrap();
}

/// Read until EOF, tolerating a reset (the peer may close hard after an
/// error) — returns whatever arrived first.
fn read_all_tolerant(s: &mut TcpStream) -> Vec<u8> {
    let mut out = Vec::new();
    let mut buf = [0u8; 4096];
    loop {
        match s.read(&mut buf) {
            Ok(0) | Err(_) => return out,
            Ok(n) => out.extend_from_slice(&buf[..n]),
        }
    }
}

#[test]
fn malformed_and_oversized_frames_are_rejected() {
    let server = GretaServer::bind("127.0.0.1:0").unwrap();
    let addr = server.local_addr();

    // Oversized length prefix after a valid preamble: Error frame, no
    // 4 GiB allocation, connection closed.
    let mut s = TcpStream::connect(addr).unwrap();
    write_preamble(&mut s).unwrap();
    s.write_all(&u32::MAX.to_le_bytes()).unwrap();
    s.flush().unwrap();
    let reply = read_all_tolerant(&mut s);
    let text = String::from_utf8_lossy(&reply);
    assert!(text.contains("exceeds limit"), "got: {text}");

    // Garbage payload under a sane length: decode error reported.
    let mut s = TcpStream::connect(addr).unwrap();
    write_preamble(&mut s).unwrap();
    s.write_all(&8u32.to_le_bytes()).unwrap();
    s.write_all(&[0xFFu8; 8]).unwrap();
    s.flush().unwrap();
    let reply = read_all_tolerant(&mut s);
    assert!(!reply.is_empty(), "server must answer before closing");

    // A wrong protocol version — v3, the one before this — is refused at
    // the preamble.
    let mut s = TcpStream::connect(addr).unwrap();
    s.write_all(b"GRTA\x03\x00").unwrap();
    s.flush().unwrap();
    read_all_tolerant(&mut s); // connection just closes

    // Unknown first bytes (neither GRTA nor an HTTP verb), a JSON line
    // among them: closed with nothing sent back.
    for first in [b"\x00\x01\x02\x03".as_slice(), b"{\"ping\":{}}\n"] {
        let mut s = TcpStream::connect(addr).unwrap();
        s.write_all(first).unwrap();
        s.flush().unwrap();
        assert!(read_all_tolerant(&mut s).is_empty());
    }

    // The server is still healthy afterwards, and counted each of the
    // five connections above as a protocol error.
    let mut client = Client::connect(addr).unwrap();
    client.ping().unwrap();
    let stats = client.stats().unwrap();
    assert!(
        stats.contains("greta_server_protocol_errors_total 5\n"),
        "{stats}"
    );
    server.shutdown().unwrap();
}

#[test]
fn recoverable_ingest_errors_do_not_kill_the_session() {
    let (reg, events) = stock(10_000);
    let server = GretaServer::bind("127.0.0.1:0").unwrap();
    let addr = server.local_addr();
    let mut client = Client::connect(addr).unwrap();
    let session = client
        .submit(
            Q1,
            &reg,
            SessionOptions {
                shards: 2,
                late_policy: LatePolicy::Error,
                ..SessionOptions::default()
            },
        )
        .unwrap();
    let sub = Client::connect(addr).unwrap().subscribe(session).unwrap();
    let collector = std::thread::spawn(move || sub.collect_rows().unwrap());

    let (first, second) = events.split_at(events.len() / 2);
    for chunk in first.chunks(1024) {
        client.ingest(session, chunk.to_vec()).unwrap();
    }

    // A malformed event (unknown type id) is rejected with an Error
    // frame, not by tearing the session down.
    let bad = Event::new_unchecked(TypeId(99), Time(0), vec![]);
    let err = client.ingest(session, vec![bad]).unwrap_err();
    assert!(err.to_string().contains("unknown event type"), "{err}");

    // So is a late event under LatePolicy::Error: it poisons its batch
    // but the executor stays usable.
    let err = client.ingest(session, vec![first[0].clone()]).unwrap_err();
    assert!(err.to_string().contains("late"), "{err}");

    // The session keeps serving: the rest of the stream flows, drain
    // works, and the results match the clean in-process run.
    for chunk in second.chunks(1024) {
        client.ingest(session, chunk.to_vec()).unwrap();
    }
    client.drain(session).unwrap();
    let wire_rows = collector.join().unwrap();
    let oracle = in_process(Q1, &reg, &events, 2);
    assert!(!oracle.is_empty());
    assert_eq!(encode_rows(&wire_rows), encode_rows(&oracle));
    server.shutdown().unwrap();
}

#[test]
fn unequal_subscribers_each_get_every_row_exactly_once() {
    let (reg, events) = stock(20_000);
    let server = GretaServer::bind("127.0.0.1:0").unwrap();
    let addr = server.local_addr();
    let mut client = Client::connect(addr).unwrap();
    // Row-dense query so the fan-out runs far ahead of a slow reader.
    let dense = "RETURN company, COUNT(*) PATTERN Stock S+ \
                 WHERE [company] AND S.price > NEXT(S).price \
                 GROUP-BY company WITHIN 50 SLIDE 25";
    let session = client
        .submit(
            dense,
            &reg,
            SessionOptions {
                shards: 2,
                ..SessionOptions::default()
            },
        )
        .unwrap();
    // A subscriber that joins after rows have gone out to the others
    // starts behind them; `subscribe` returns once the session has
    // registered it, so both are in place before the first ingest.
    let subscriber = || Client::connect(addr).unwrap().subscribe(session).unwrap();
    let fast = subscriber();
    let fast_t = std::thread::spawn(move || fast.collect_rows().unwrap());
    let mut slow = subscriber();
    let slow_t = std::thread::spawn(move || {
        let mut all = Vec::new();
        while let Some(batch) = slow.next_rows().unwrap() {
            all.extend(batch);
            std::thread::sleep(Duration::from_millis(1));
        }
        all
    });
    for chunk in events.chunks(256) {
        client.ingest(session, chunk.to_vec()).unwrap();
    }
    client.drain(session).unwrap();
    let fast_rows = fast_t.join().unwrap();
    let slow_rows = slow_t.join().unwrap();
    let oracle = in_process(dense, &reg, &events, 2);
    assert!(!oracle.is_empty());
    assert_eq!(
        encode_rows(&fast_rows),
        encode_rows(&oracle),
        "fast subscriber must see every row exactly once, no duplicates"
    );
    assert_eq!(
        encode_rows(&slow_rows),
        encode_rows(&oracle),
        "slow subscriber must see every row exactly once"
    );
    server.shutdown().unwrap();
}

#[test]
fn oversized_ingest_batch_is_split_by_the_client() {
    // Same schema shape the stock generator registers; the blob rides in
    // the `kind` attribute Q1 never touches.
    let mut reg = SchemaRegistry::new();
    let stock_tid = reg
        .register_type(
            "Stock",
            &["price", "volume", "company", "sector", "kind", "txn"],
        )
        .unwrap();
    let events: Vec<Event> = (0..9u64)
        .map(|i| {
            Event::new_unchecked(
                stock_tid,
                Time(i + 1),
                vec![
                    Value::Float(i as f64),
                    Value::Int(0),
                    Value::Int(0),
                    Value::Int(0),
                    Value::Str("x".repeat(3 << 20).into()),
                    Value::Int(i as i64),
                ],
            )
        })
        .collect();

    let server = GretaServer::bind("127.0.0.1:0").unwrap();
    let addr = server.local_addr();
    let mut client = Client::connect(addr).unwrap();
    let session = client.submit(Q1, &reg, SessionOptions::default()).unwrap();
    // ~27 MiB encoded, beyond the 16 MiB frame cap: one ingest call must
    // arrive as multiple frames, not a wrapped/oversized one.
    let ack = client.ingest(session, events).unwrap();
    assert_eq!(ack.pushed, 9);
    client.drain(session).unwrap();
    server.shutdown().unwrap();
}

#[test]
fn stalled_preamble_is_disconnected_at_the_sniff_deadline() {
    let server = GretaServer::bind("127.0.0.1:0").unwrap();
    let addr = server.local_addr();
    let mut s = TcpStream::connect(addr).unwrap();
    s.write_all(b"GR").unwrap(); // 2 of the 4 sniff bytes, then stall
    s.flush().unwrap();
    s.set_read_timeout(Some(Duration::from_secs(30))).unwrap();
    let start = Instant::now();
    let mut buf = [0u8; 16];
    match s.read(&mut buf) {
        Ok(0) | Err(_) => {}
        Ok(n) => panic!("unexpected {n} bytes from a stalled connection"),
    }
    assert!(
        start.elapsed() < Duration::from_secs(20),
        "server held a stalled connection past the sniff deadline"
    );
    // The server is healthy afterwards.
    let mut client = Client::connect(addr).unwrap();
    client.ping().unwrap();
    server.shutdown().unwrap();
}

#[test]
fn drained_sessions_age_out_of_the_registry() {
    let (reg, events) = stock(100);
    let server = GretaServer::bind("127.0.0.1:0").unwrap();
    let addr = server.local_addr();
    let mut client = Client::connect(addr).unwrap();
    for _ in 0..18 {
        let s = client.submit(Q1, &reg, SessionOptions::default()).unwrap();
        client.ingest(s, events.clone()).unwrap();
        client.drain(s).unwrap();
    }
    let stats = client.stats().unwrap();
    // Recently drained sessions stay observable (bounded tail)...
    assert!(stats.contains("drained=\"true\""), "{stats}");
    assert!(stats.contains("session=\"18\"}"));
    assert!(stats.contains("session=\"3\"}"));
    // ...but the oldest are gone, so the page cannot grow forever.
    assert!(
        !stats.contains("session=\"1\"}"),
        "session 1 should have been evicted from the drained tail"
    );
    assert!(!stats.contains("session=\"2\"}"));
    let err = client.ingest(1, events).unwrap_err();
    assert!(err.to_string().contains("unknown session"), "{err}");
    server.shutdown().unwrap();
}

/// A second query registered on a live session shares its ingest
/// stream: both queries' wire output is byte-identical to an in-process
/// executor running the same register/detach sequence, and the detach
/// reply completes the subscribed stream exactly once.
#[test]
fn registered_query_shares_the_session_stream_and_detaches_cleanly() {
    let (reg, events) = stock(20_000);
    let dense = "RETURN company, COUNT(*) PATTERN Stock S+ \
                 WHERE [company] AND S.price > NEXT(S).price \
                 GROUP-BY company WITHIN 200 SLIDE 100";
    let half = events.len() / 2;

    // In-process oracle running the identical sequence: register before
    // the first event, deregister after `half` events.
    let q = CompiledQuery::parse(Q1, &reg).unwrap();
    let mut oracle = StreamExecutor::<f64>::new(
        q,
        reg.clone(),
        ExecutorConfig {
            shards: 2,
            emission: EmissionMode::WindowOrdered,
            ..Default::default()
        },
    )
    .unwrap();
    let oq = oracle
        .register_query(dense, EmissionMode::WindowOrdered)
        .unwrap();
    let mut oracle_dense = Vec::new();
    let mut oracle_q0 = Vec::new();
    for (i, e) in events.iter().enumerate() {
        if i == half {
            oracle_dense.extend(oracle.deregister_query(oq).unwrap());
        }
        oracle.push(e.clone()).unwrap();
        oracle_q0.extend(oracle.poll_results());
        if i < half {
            oracle_dense.extend(oracle.poll_results_of(oq).unwrap());
        }
    }
    oracle_q0.extend(oracle.finish().unwrap());
    assert!(!oracle_q0.is_empty());
    assert!(!oracle_dense.is_empty());

    // The same sequence over the wire.
    let server = GretaServer::bind("127.0.0.1:0").unwrap();
    let addr = server.local_addr();
    let mut client = Client::connect(addr).unwrap();
    let session = client
        .submit(
            Q1,
            &reg,
            SessionOptions {
                shards: 2,
                ..SessionOptions::default()
            },
        )
        .unwrap();
    let dense_q = client
        .register(session, dense, EmissionMode::WindowOrdered)
        .unwrap();
    assert_eq!(dense_q, 1, "first registered query gets id 1");
    let q0_sub = Client::connect(addr).unwrap().subscribe(session).unwrap();
    let q0_t = std::thread::spawn(move || q0_sub.collect_rows().unwrap());
    let dense_sub = Client::connect(addr)
        .unwrap()
        .subscribe_query(session, dense_q)
        .unwrap();
    let dense_t = std::thread::spawn(move || dense_sub.collect_rows().unwrap());

    for chunk in events[..half].chunks(512) {
        client.ingest(session, chunk.to_vec()).unwrap();
    }
    // Mid-stream detach: subscribers got everything polled so far, the
    // reply carries the barrier remainder — disjoint, exactly-once.
    let detach_rows = client.detach(session, dense_q).unwrap();
    let dense_streamed = dense_t.join().unwrap();
    // Query 0 refuses to detach: drain the session instead.
    let err = client.detach(session, 0).unwrap_err().to_string();
    assert!(err.contains("cannot be deregistered"), "{err}");
    let mut dense_rows = dense_streamed;
    dense_rows.extend(detach_rows);

    for chunk in events[half..].chunks(512) {
        client.ingest(session, chunk.to_vec()).unwrap();
    }

    // Per-query metrics are live before the drain.
    let stats = client.stats().unwrap();
    assert!(
        stats.contains("greta_query_rows_total{session=\"1\",query=\"1\"}"),
        "{stats}"
    );
    assert!(
        stats.contains("greta_query_epoch{session=\"1\"} 2"),
        "{stats}"
    );
    assert!(
        stats.contains("greta_query_active{session=\"1\",query=\"1\"} 0"),
        "{stats}"
    );

    client.drain(session).unwrap();
    let q0_rows = q0_t.join().unwrap();

    assert_eq!(
        encode_rows(&q0_rows),
        encode_rows(&oracle_q0),
        "query 0 must be unaffected by the registered query"
    );
    assert_eq!(
        encode_rows(&dense_rows),
        encode_rows(&oracle_dense),
        "streamed + detach rows must equal the in-process register/deregister run"
    );

    // A subscription to the detached query ends immediately.
    let late = Client::connect(addr)
        .unwrap()
        .subscribe_query(session, dense_q)
        .unwrap();
    assert!(late.collect_rows().unwrap().is_empty());
    server.shutdown().unwrap();
}

/// A `Subscribe` that reaches the session's command queue behind a
/// `Drain` must still be answered: the session used to exit with it
/// queued, and the subscriber waited forever for an `End`.
#[test]
fn subscribe_queued_behind_drain_gets_end_of_stream() {
    let (reg, events) = stock(30_000);
    let server = GretaServer::bind("127.0.0.1:0").unwrap();
    let addr = server.local_addr();
    let mut client = Client::connect(addr).unwrap();
    // Wide windows mean many edges per event: the ingest is acknowledged
    // once the events are queued, but the shard worker needs seconds to
    // work them off — and the drain below waits for it on the session
    // thread, which is when the subscription arrives. (The sleep only
    // steers towards that interleaving; the assertion holds for all.)
    let heavy = Q1.replace("WITHIN 500 SLIDE 250", "WITHIN 8000 SLIDE 4000");
    let session = client
        .submit(&heavy, &reg, SessionOptions::default())
        .unwrap();
    client.ingest(session, events).unwrap();
    let drainer = std::thread::spawn(move || client.drain(session));
    std::thread::sleep(Duration::from_millis(100));
    let (done_tx, done_rx) = std::sync::mpsc::channel();
    std::thread::spawn(move || {
        let mut sub = Client::connect(addr).unwrap().subscribe(session).unwrap();
        let mut last = sub.next_rows();
        while let Ok(Some(_)) = last {
            last = sub.next_rows();
        }
        let _ = done_tx.send(last.map(|end| end.is_none()));
    });
    let ended = done_rx
        .recv_timeout(Duration::from_secs(30))
        .expect("subscription racing a drain never saw end-of-stream");
    assert!(matches!(ended, Ok(true)), "{ended:?}");
    drainer.join().unwrap().unwrap();
    server.shutdown().unwrap();
}

/// Options a `Submit` carries come from the network. A shard count past
/// [`MAX_SHARDS`] is refused with an `Error` before any executor exists:
/// no session starts and the connection keeps serving. (No other option
/// sizes anything.)
#[test]
fn session_options_past_their_caps_are_refused_at_submit() {
    let (reg, _) = stock(10);
    let server = GretaServer::bind("127.0.0.1:0").unwrap();
    let mut client = Client::connect(server.local_addr()).unwrap();
    let options = SessionOptions {
        shards: MAX_SHARDS + 1,
        ..SessionOptions::default()
    };
    let err = client.submit(Q1, &reg, options).unwrap_err().to_string();
    assert!(err.contains("shards"), "{err}");
    let stats = client.stats().unwrap();
    assert!(stats.contains("\ngreta_server_sessions 0\n"), "{stats}");
    server.shutdown().unwrap();
}

/// Late-policy tag 1 names no policy. A `Submit` carrying it does not
/// decode, so it is answered like any malformed frame: one `Error` frame,
/// a protocol error counted, the connection closed, and no session (nor
/// any shard thread) started.
#[test]
fn a_submit_with_late_policy_tag_1_is_a_decode_error() {
    let (reg, _) = stock(10);
    let server = GretaServer::bind("127.0.0.1:0").unwrap();
    let addr = server.local_addr();
    let submit = |late_policy| {
        let mut payload = Vec::new();
        Request::Submit {
            query: Q1.into(),
            registry: reg.clone(),
            options: SessionOptions {
                late_policy,
                ..SessionOptions::default()
            },
            attach_to: None,
        }
        .encode(&mut payload);
        payload
    };
    // The policy's byte is the one where Drop's and Error's frames differ.
    let (mut payload, error) = (submit(LatePolicy::Drop), submit(LatePolicy::Error));
    let at: Vec<usize> = (0..payload.len())
        .filter(|&i| payload[i] != error[i])
        .collect();
    assert_eq!(at.len(), 1, "{at:?}");
    payload[at[0]] = 1;

    let mut s = TcpStream::connect(addr).unwrap();
    write_preamble(&mut s).unwrap();
    s.write_all(&(payload.len() as u32).to_le_bytes()).unwrap();
    s.write_all(&payload).unwrap();
    s.flush().unwrap();
    match read_response(&mut s).unwrap() {
        Response::Error { msg } => assert!(msg.contains("bad LatePolicy tag 1"), "{msg}"),
        other => panic!("expected an Error frame, got {other:?}"),
    }
    s.set_read_timeout(Some(Duration::from_secs(30))).unwrap();
    assert_eq!(s.read(&mut [0u8; 1]).unwrap(), 0, "the connection closes");

    let stats = Client::connect(addr).unwrap().stats().unwrap();
    assert!(
        stats.contains("\ngreta_server_protocol_errors_total 1\n"),
        "{stats}"
    );
    assert!(stats.contains("\ngreta_server_sessions 0\n"), "{stats}");
    server.shutdown().unwrap();
}

/// A subscription to an unknown session is an `Error` at `subscribe`, one
/// to an unknown query of a live session an already ended stream.
#[test]
fn subscribe_answers_at_once_when_there_is_nothing_to_stream() {
    let (reg, _) = stock(10);
    let server = GretaServer::bind("127.0.0.1:0").unwrap();
    let addr = server.local_addr();
    let mut client = Client::connect(addr).unwrap();
    let session = client.submit(Q1, &reg, SessionOptions::default()).unwrap();
    let err = Client::connect(addr)
        .unwrap()
        .subscribe(session + 1)
        .err()
        .unwrap();
    assert!(err.to_string().contains("unknown session"), "{err}");
    let sub = Client::connect(addr)
        .unwrap()
        .subscribe_query(session, 7)
        .unwrap();
    assert!(sub.collect_rows().unwrap().is_empty());
    server.shutdown().unwrap();
}

#[test]
fn drain_is_idempotent_and_refuses_post_drain_ingest() {
    let (reg, events) = stock(2_000);
    let server = GretaServer::bind("127.0.0.1:0").unwrap();
    let addr = server.local_addr();
    let mut client = Client::connect(addr).unwrap();
    let session = client.submit(Q1, &reg, SessionOptions::default()).unwrap();
    client.ingest(session, events.clone()).unwrap();
    client.drain(session).unwrap();
    client.drain(session).unwrap(); // second drain: still DrainOk
    let err = client.ingest(session, events).unwrap_err();
    assert!(err.to_string().contains("drained"), "{err}");
    // A late subscriber gets an immediate, clean end-of-stream.
    let sub = Client::connect(addr).unwrap().subscribe(session).unwrap();
    assert!(sub.collect_rows().unwrap().is_empty());
    server.shutdown().unwrap();
}

/// An ack goes out as soon as its batch is in, and the session takes the
/// next batch the moment it arrives: a closed-loop client is not paced by
/// a session clock.
#[test]
fn acks_are_not_paced_by_a_clock() {
    let (reg, events) = stock(300);
    let server = GretaServer::bind("127.0.0.1:0").unwrap();
    let mut client = Client::connect(server.local_addr()).unwrap();
    let session = client.submit(Q1, &reg, SessionOptions::default()).unwrap();
    // A 1 ms tick per ack would cost 100 ms a round; the best of three
    // rounds keeps a busy machine from failing the test.
    let fastest = events
        .chunks(100)
        .map(|round| {
            let started = Instant::now();
            for e in round {
                client.ingest(session, vec![e.clone()]).unwrap();
            }
            started.elapsed()
        })
        .min()
        .unwrap();
    assert!(
        fastest < Duration::from_millis(50),
        "100 single-event acks took {fastest:?}"
    );
    client.drain(session).unwrap();
    server.shutdown().unwrap();
}

/// Rows a shard releases after the last command still reach the
/// subscriber: a session with no command to serve keeps polling the
/// executor instead of blocking on its command channel.
#[test]
fn an_idle_session_still_delivers_rows() {
    // Time stamps 1..=1500 under WITHIN 500 SLIDE 250: windows 0–4 close
    // before the stream ends.
    let (reg, events) = stock(1_500);
    let window = CompiledQuery::parse(Q1, &reg).unwrap().window;
    let frontier = last_closed(events.last().unwrap().time, &window).unwrap() + 1;
    assert!(frontier >= 4, "the prefix must span four windows");
    // Under ordered emission the in-process executor releases exactly
    // the windows below its frontier before `finish`.
    let expected: Vec<WindowResult<f64>> = in_process(Q1, &reg, &events, 1)
        .into_iter()
        .filter(|r| r.window < frontier)
        .collect();
    assert!(!expected.is_empty());

    let server = GretaServer::bind("127.0.0.1:0").unwrap();
    let addr = server.local_addr();
    let mut client = Client::connect(addr).unwrap();
    let session = client
        .submit(
            Q1,
            &reg,
            SessionOptions {
                shards: 1,
                emission: EmissionMode::WindowOrdered,
                ..SessionOptions::default()
            },
        )
        .unwrap();
    // Registered before the ingest: `subscribe` waits for the session.
    let mut sub = Client::connect(addr).unwrap().subscribe(session).unwrap();
    let (rows_tx, rows_rx) = std::sync::mpsc::channel();
    std::thread::spawn(move || {
        while let Ok(Some(rows)) = sub.next_rows() {
            if rows_tx.send(rows).is_err() {
                break;
            }
        }
    });
    client.ingest(session, events).unwrap();

    // No further command: only the session's own polling moves the rows
    // the shard releases after the ack.
    let deadline = Instant::now() + Duration::from_secs(5);
    let mut got = Vec::new();
    while got.len() < expected.len() {
        let left = deadline.saturating_duration_since(Instant::now());
        match rows_rx.recv_timeout(left) {
            Ok(rows) => got.extend(rows),
            Err(_) => panic!(
                "{} of {} rows arrived within 5 s of the last command",
                got.len(),
                expected.len()
            ),
        }
    }
    assert_eq!(encode_rows(&got), encode_rows(&expected));
    client.drain(session).unwrap();
    server.shutdown().unwrap();
}
