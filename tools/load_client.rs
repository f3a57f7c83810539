//! Network load-test client: replay `greta-workloads` generators over
//! the binary wire protocol with N concurrent connections and report
//! achieved events/sec, or send one operator verb and print the reply.
//!
//! ```text
//! load_client [--addr HOST:PORT | --spawn] [--workload stock|linear-road]
//!             [--events N] [--connections N] [--batch N] [--shards N]
//!             [--slack N] [--emission ordered|unordered] [--subscribe]
//! load_client --addr HOST:PORT drain N | shutdown | detach N Q
//!             | register N '<query>' [--emission ordered|unordered]
//! ```
//!
//! With `--spawn` the tool starts an in-process [`GretaServer`] on a
//! loopback port, so a single command exercises the full network stack.
//! Each connection attaches to one shared session and pushes the stream's
//! next batch whenever its previous one is acked, honouring the
//! backpressure contract: when an ack carries `busy`, the connection
//! pauses before its next batch.

// The panic rule (see crates/server/clippy.toml): fail through typed errors.
#![cfg_attr(
    not(test),
    deny(
        clippy::unwrap_used,
        clippy::expect_used,
        clippy::panic,
        clippy::unreachable,
        clippy::todo,
        clippy::unimplemented,
        clippy::indexing_slicing,
        clippy::disallowed_macros
    )
)]

use greta_core::EmissionMode;
use greta_server::{Client, ClientError, GretaServer, SessionOptions};
use greta_types::{Event, SchemaRegistry};
use greta_workloads::{LinearRoadConfig, LinearRoadGen, StockConfig, StockGen};
use std::process::ExitCode;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

#[derive(Debug, Clone, PartialEq)]
struct Args {
    addr: Option<String>,
    spawn: bool,
    workload: Workload,
    events: usize,
    connections: usize,
    batch: usize,
    shards: u32,
    slack: u64,
    emission: EmissionMode,
    subscribe: bool,
    verb: Option<Verb>,
}

/// One operator request (see the module doc).
#[derive(Debug, Clone, PartialEq)]
enum Verb {
    Drain(u64),
    Shutdown,
    Detach(u64, u32),
    Register(u64, String),
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Workload {
    Stock,
    LinearRoad,
}

impl Default for Args {
    fn default() -> Self {
        Args {
            addr: None,
            spawn: false,
            workload: Workload::Stock,
            events: 100_000,
            connections: 4,
            batch: 512,
            shards: 4,
            slack: 4096,
            emission: EmissionMode::WindowOrdered,
            subscribe: false,
            verb: None,
        }
    }
}

fn parse_args(argv: &[String]) -> Result<Args, String> {
    let mut args = Args::default();
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        let mut value = |name: &str| {
            it.next()
                .cloned()
                .ok_or_else(|| format!("{name} needs a value"))
        };
        match flag.as_str() {
            "--addr" => args.addr = Some(value("--addr")?),
            "--spawn" => args.spawn = true,
            "--workload" => {
                args.workload = match value("--workload")?.as_str() {
                    "stock" => Workload::Stock,
                    "linear-road" => Workload::LinearRoad,
                    w => return Err(format!("unknown workload `{w}`")),
                }
            }
            "--events" => args.events = value("--events")?.parse().map_err(|e| format!("{e}"))?,
            "--connections" => {
                args.connections = value("--connections")?
                    .parse()
                    .map_err(|e| format!("{e}"))?
            }
            "--batch" => args.batch = value("--batch")?.parse().map_err(|e| format!("{e}"))?,
            "--shards" => args.shards = value("--shards")?.parse().map_err(|e| format!("{e}"))?,
            "--slack" => args.slack = value("--slack")?.parse().map_err(|e| format!("{e}"))?,
            "--emission" => {
                args.emission = match value("--emission")?.as_str() {
                    "ordered" => EmissionMode::WindowOrdered,
                    "unordered" => EmissionMode::Unordered,
                    e => return Err(format!("unknown emission `{e}`")),
                }
            }
            "--subscribe" => args.subscribe = true,
            "--help" | "-h" => return Err("help".into()),
            v if !v.starts_with('-') && args.verb.is_none() => {
                args.verb = Some(parse_verb(v, &mut it)?)
            }
            f => return Err(format!("unknown flag `{f}`")),
        }
    }
    if args.addr.is_none() && (!args.spawn || args.verb.is_some()) {
        return Err("need --addr HOST:PORT or --spawn (a verb needs --addr)".into());
    }
    if args.connections == 0 || args.batch == 0 || args.events == 0 {
        return Err("--events, --connections, and --batch must be positive".into());
    }
    Ok(args)
}

fn parse_verb(verb: &str, it: &mut std::slice::Iter<'_, String>) -> Result<Verb, String> {
    let mut next = |what: &str| it.next().ok_or_else(|| format!("{verb} needs {what}"));
    Ok(match verb {
        "drain" => Verb::Drain(num(next("a session id")?)?),
        "shutdown" => Verb::Shutdown,
        "detach" => Verb::Detach(num(next("a session id")?)?, num(next("a query id")?)?),
        "register" => Verb::Register(num(next("a session id")?)?, next("a query")?.clone()),
        v => return Err(format!("unknown verb `{v}`")),
    })
}

fn num<T: std::str::FromStr<Err = std::num::ParseIntError>>(s: &str) -> Result<T, String> {
    s.parse().map_err(|e| format!("`{s}`: {e}"))
}

fn generate(
    workload: Workload,
    events: usize,
) -> Result<(SchemaRegistry, Vec<Event>, &'static str), String> {
    let mut reg = SchemaRegistry::new();
    match workload {
        Workload::Stock => {
            let gen = StockGen::new(
                StockConfig {
                    events,
                    ..Default::default()
                },
                &mut reg,
            )
            .map_err(|e| format!("stock generator: {e}"))?;
            Ok((
                reg,
                gen.generate(),
                "RETURN sector, COUNT(*) PATTERN Stock S+ \
                 WHERE [company, sector] AND S.price > NEXT(S).price \
                 GROUP-BY sector WITHIN 500 SLIDE 250",
            ))
        }
        Workload::LinearRoad => {
            let gen = LinearRoadGen::new(
                LinearRoadConfig {
                    events,
                    ..Default::default()
                },
                &mut reg,
            )
            .map_err(|e| format!("linear road generator: {e}"))?;
            Ok((
                reg,
                gen.generate(),
                "RETURN segment, COUNT(*), AVG(P.speed) \
                 PATTERN Position P+ \
                 WHERE [P.vehicle, segment] AND P.speed > NEXT(P).speed \
                 GROUP-BY segment WITHIN 1000 SLIDE 1000",
            ))
        }
    }
}

struct ConnReport {
    sent: u64,
    busy_acks: u64,
}

fn run(args: &Args) -> Result<(), String> {
    if let (Some(verb), Some(addr)) = (&args.verb, &args.addr) {
        return run_verb(addr, verb, args.emission).map_err(|e| e.to_string());
    }
    let server = if args.spawn {
        Some(GretaServer::bind("127.0.0.1:0").map_err(|e| format!("bind: {e}"))?)
    } else {
        None
    };
    let addr = match (&server, &args.addr) {
        (Some(s), _) => s.local_addr().to_string(),
        (None, Some(a)) => a.clone(),
        // parse_args rejects this combination; keep the arm typed so a
        // future refactor of the validation cannot introduce a panic.
        (None, None) => return Err("need --addr HOST:PORT or --spawn".into()),
    };

    let (reg, events, query) = generate(args.workload, args.events)?;
    eprintln!(
        "workload {:?}: {} events, {} connections to {addr}",
        args.workload,
        events.len(),
        args.connections
    );

    let options = SessionOptions {
        shards: args.shards,
        slack: args.slack,
        emission: args.emission,
        ..SessionOptions::default()
    };
    let mut control = Client::connect(&addr).map_err(|e| format!("connect: {e}"))?;
    let session = control
        .submit(query, &reg, options)
        .map_err(|e| format!("submit: {e}"))?;

    // Row-draining subscriber, so result channels never become the
    // bottleneck we are not measuring.
    let sub_handle = if args.subscribe {
        let sub = Client::connect(&addr)
            .map_err(|e| format!("connect: {e}"))?
            .subscribe(session)
            .map_err(|e| format!("subscribe: {e}"))?;
        Some(std::thread::spawn(move || {
            sub.collect_rows().map(|rows| rows.len()).unwrap_or(0)
        }))
    } else {
        None
    };

    // Connections take the stream's batch-sized chunks in order from one
    // shared cursor, so at most one chunk per connection is in flight out
    // of order and the reorder slack restores time order.
    let chunks: Arc<Vec<Vec<Event>>> =
        Arc::new(events.chunks(args.batch).map(|c| c.to_vec()).collect());
    let cursor = Arc::new(AtomicUsize::new(0));
    let started = Instant::now();
    let mut workers = Vec::new();
    for _ in 0..args.connections {
        let chunks = Arc::clone(&chunks);
        let cursor = Arc::clone(&cursor);
        let addr = addr.clone();
        workers.push(std::thread::spawn(move || -> Result<ConnReport, String> {
            let mut client = Client::connect(&addr).map_err(|e| format!("connect: {e}"))?;
            client.attach(session).map_err(|e| format!("attach: {e}"))?;
            let mut report = ConnReport {
                sent: 0,
                busy_acks: 0,
            };
            while let Some(chunk) = chunks.get(cursor.fetch_add(1, Ordering::Relaxed)) {
                let ack = client
                    .ingest(session, chunk.clone())
                    .map_err(|e| format!("ingest: {e}"))?;
                report.sent += chunk.len() as u64;
                if ack.busy {
                    report.busy_acks += 1;
                    std::thread::sleep(Duration::from_millis(1));
                }
            }
            Ok(report)
        }));
    }

    let mut sent = 0u64;
    let mut busy_acks = 0u64;
    for w in workers {
        let report = w.join().map_err(|_| "worker panicked".to_string())??;
        sent += report.sent;
        busy_acks += report.busy_acks;
    }
    let ingest_secs = started.elapsed().as_secs_f64();

    control.drain(session).map_err(|e| format!("drain: {e}"))?;
    let rows = match sub_handle {
        Some(h) => h.join().map_err(|_| "subscriber panicked".to_string())?,
        None => 0,
    };
    let total_secs = started.elapsed().as_secs_f64();

    let stats = control.stats().map_err(|e| format!("stats: {e}"))?;
    let late = prom_value(&stats, "greta_events_late_dropped_total").unwrap_or(0.0);

    println!(
        "sent {sent} events over {} connections in {ingest_secs:.3}s = {:.0} events/sec",
        args.connections,
        sent as f64 / ingest_secs.max(1e-9)
    );
    println!(
        "busy acks: {busy_acks}; late dropped: {late}; rows received: {rows}; \
         total (incl. drain): {total_secs:.3}s"
    );
    if let Some(s) = server {
        s.shutdown().map_err(|e| format!("shutdown: {e}"))?;
    }
    Ok(())
}

/// Send one operator request and print the server's reply.
fn run_verb(addr: &str, verb: &Verb, emission: EmissionMode) -> Result<(), ClientError> {
    let mut client = Client::connect(addr)?;
    match verb {
        Verb::Drain(s) => client.drain(*s).map(|()| println!("drained session {s}")),
        Verb::Shutdown => client.shutdown().map(|()| println!("shut down")),
        Verb::Detach(s, q) => client.detach(*s, *q).map(|rows| {
            println!("detached query {q}: {} remainder rows", rows.len());
            rows.iter().for_each(|row| println!("{row:?}"));
        }),
        Verb::Register(s, q) => client
            .register(*s, q, emission)
            .map(|id| println!("registered query {id} on session {s}")),
    }
}

/// Extract the (summed) value of a Prometheus series by metric name.
fn prom_value(text: &str, name: &str) -> Option<f64> {
    let mut sum = None;
    for line in text.lines() {
        if line.starts_with('#') {
            continue;
        }
        let (metric, value) = line.rsplit_once(' ')?;
        let metric_name = metric.split('{').next().unwrap_or(metric);
        if metric_name == name {
            if let Ok(v) = value.parse::<f64>() {
                *sum.get_or_insert(0.0) += v;
            }
        }
    }
    sum
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let args = match parse_args(&argv) {
        Ok(a) => a,
        Err(e) if e == "help" => {
            eprintln!(
                "usage: load_client [--addr HOST:PORT | --spawn] \
                 [--workload stock|linear-road] [--events N] [--connections N] \
                 [--batch N] [--shards N] [--slack N] \
                 [--emission ordered|unordered] [--subscribe]\n       \
                 load_client --addr HOST:PORT drain N | shutdown | detach N Q \
                 | register N '<query>' [--emission ordered|unordered]"
            );
            return ExitCode::SUCCESS;
        }
        Err(e) => {
            eprintln!("error: {e}");
            return ExitCode::from(2);
        }
    };
    match run(&args) {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("error: {e}");
            ExitCode::FAILURE
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(s: &[&str]) -> Result<Args, String> {
        parse_args(&s.iter().map(|s| s.to_string()).collect::<Vec<_>>())
    }

    #[test]
    fn parses_full_flag_set() {
        let args = parse(&[
            "--addr",
            "127.0.0.1:9999",
            "--workload",
            "linear-road",
            "--events",
            "5000",
            "--connections",
            "8",
            "--batch",
            "128",
            "--shards",
            "2",
            "--slack",
            "64",
            "--emission",
            "unordered",
            "--subscribe",
        ])
        .unwrap();
        assert_eq!(args.addr.as_deref(), Some("127.0.0.1:9999"));
        assert_eq!(args.workload, Workload::LinearRoad);
        assert_eq!(args.events, 5000);
        assert_eq!(args.connections, 8);
        assert_eq!(args.batch, 128);
        assert_eq!(args.shards, 2);
        assert_eq!(args.slack, 64);
        assert_eq!(args.emission, EmissionMode::Unordered);
        assert!(args.subscribe);
    }

    #[test]
    fn requires_a_target() {
        assert!(parse(&["--events", "10"]).is_err());
        assert!(parse(&["--spawn"]).is_ok());
    }

    #[test]
    fn rejects_unknown_flags_and_zero_counts() {
        assert!(parse(&["--spawn", "--bogus"]).is_err());
        assert!(parse(&["--spawn", "--connections", "0"]).is_err());
    }

    #[test]
    fn parses_each_verb() {
        let verb = |s: &[&str]| parse(s).map(|a| a.verb);
        assert_eq!(
            verb(&["--addr", "h:1", "drain", "3"]),
            Ok(Some(Verb::Drain(3)))
        );
        assert_eq!(
            verb(&["--addr", "h:1", "shutdown"]),
            Ok(Some(Verb::Shutdown))
        );
        assert_eq!(
            verb(&["--addr", "h:1", "detach", "3", "1"]),
            Ok(Some(Verb::Detach(3, 1)))
        );
        let args = parse(&[
            "--addr",
            "h:1",
            "register",
            "3",
            "RETURN …",
            "--emission",
            "unordered",
        ])
        .unwrap();
        assert_eq!(args.verb, Some(Verb::Register(3, "RETURN …".into())));
        assert_eq!(args.emission, EmissionMode::Unordered);
    }

    #[test]
    fn rejects_bad_verbs() {
        let err = |s: &[&str]| parse(s).unwrap_err();
        assert!(err(&["--addr", "h:1", "drain"]).contains("needs a session id"));
        assert!(err(&["--addr", "h:1", "drain", "x"]).contains("`x`: invalid digit"));
        assert!(err(&["--addr", "h:1", "detach", "3"]).contains("needs a query id"));
        assert!(err(&["--addr", "h:1", "register"]).contains("needs a session id"));
        assert!(err(&["--addr", "h:1", "register", "3"]).contains("needs a query"));
        assert!(err(&["--addr", "h:1", "stats"]).contains("unknown verb `stats`"));
        assert!(err(&["--addr", "h:1", "drain", "3", "shutdown"]).contains("unknown flag"));
        assert!(err(&["--spawn", "shutdown"]).contains("needs --addr"));
    }

    #[test]
    fn verbs_drive_a_live_server() {
        let server = GretaServer::bind("127.0.0.1:0").unwrap();
        let addr = server.local_addr().to_string();
        let (reg, events, query) = generate(Workload::Stock, 2000).unwrap();
        let mut client = Client::connect(&addr).unwrap();
        let session = client
            .submit(query, &reg, SessionOptions::default())
            .unwrap();
        client.ingest(session, events).unwrap();

        let verb = |v: Verb| run_verb(&addr, &v, EmissionMode::WindowOrdered);
        verb(Verb::Register(session, query.into())).unwrap();
        verb(Verb::Detach(session, 1)).unwrap();
        let err = verb(Verb::Detach(session, 0)).unwrap_err().to_string();
        assert!(err.contains("cannot be deregistered"), "{err}");
        verb(Verb::Drain(session)).unwrap();
        verb(Verb::Shutdown).unwrap();
        assert!(client.ingest(session, Vec::new()).is_err());
        server.shutdown().unwrap();
    }

    #[test]
    fn prom_value_sums_labelled_series() {
        let text = "# HELP x y\nfoo{a=\"1\"} 2\nfoo{a=\"2\"} 3\nbar 7\n";
        assert_eq!(prom_value(text, "foo"), Some(5.0));
        assert_eq!(prom_value(text, "bar"), Some(7.0));
        assert_eq!(prom_value(text, "baz"), None);
    }
}
