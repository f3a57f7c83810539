//! Driving `greta-server` over loopback TCP with the binary protocol: one
//! ingest connection (batches of 256, an ack per batch) and one subscriber
//! connection, WAL on.

use crate::cpu;
use crate::pacer::Pacer;
use crate::phase::{Observed, Phase, ProgramStats};
use crate::trace::Tracer;
use crate::workloads::Workload;
use greta_core::WindowResult;
use greta_server::{Client, GretaServer, SessionOptions};
use greta_types::{Event, SchemaRegistry};
use std::path::{Path, PathBuf};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// Events per `Client::ingest` call.
pub const INGEST_BATCH: usize = 256;

/// What the subscriber thread hands back: every frame with its arrival time.
struct Received {
    frames: Vec<(Instant, Vec<WindowResult<f64>>)>,
    ended: Instant,
    tracer: Tracer,
    error: Option<String>,
}

pub struct Session {
    server: GretaServer,
    ingest: Client,
    session: u64,
    subscriber: JoinHandle<Received>,
    wal_dir: PathBuf,
}

/// Bind a server on a free loopback port, submit the workload's query with
/// durability on, and attach the subscriber — everything up to "ready to
/// ingest". `wal_dir` must not exist yet; [`drive`] removes it.
pub fn start(
    w: &Workload,
    registry: &SchemaRegistry,
    wal_dir: &Path,
    traced: bool,
    origin: Instant,
) -> Result<Session, String> {
    let server = GretaServer::bind("127.0.0.1:0").map_err(|e| format!("bind: {e}"))?;
    let addr = server.local_addr();
    let mut ingest = Client::connect(addr).map_err(|e| format!("connect: {e}"))?;
    let options = SessionOptions {
        shards: w.shards as u32,
        slack: w.slack,
        emission: w.emission,
        durability_dir: Some(wal_dir.to_string_lossy().into_owned()),
        snapshot_every_windows: 64,
        ..SessionOptions::default()
    };
    let session = ingest
        .submit(w.queries[0], registry, options)
        .map_err(|e| format!("submit: {e}"))?;
    let mut subscription = Client::connect(addr)
        .and_then(|c| c.subscribe(session))
        .map_err(|e| format!("subscribe: {e}"))?;
    let subscriber = std::thread::spawn(move || {
        let mut got = Received {
            frames: Vec::new(),
            ended: origin,
            tracer: Tracer::new(traced, origin),
            error: None,
        };
        loop {
            got.tracer
                .enter("Subscription::next_rows", got.frames.len() as u64);
            let next = subscription.next_rows();
            got.tracer.exit();
            match next {
                Ok(Some(rows)) => got.frames.push((Instant::now(), rows)),
                Ok(None) => break,
                Err(e) => {
                    got.error = Some(e.to_string());
                    break;
                }
            }
        }
        got.ended = Instant::now();
        got
    });
    Ok(Session {
        server,
        ingest,
        session,
        subscriber,
        wal_dir: wal_dir.to_path_buf(),
    })
}

/// Value of one series on the server's metrics page.
fn prom_value(text: &str, name: &str) -> Option<f64> {
    text.lines()
        .filter(|l| !l.starts_with('#'))
        .filter_map(|l| l.rsplit_once(' '))
        .find(|(series, _)| series.split('{').next() == Some(name))
        .and_then(|(_, v)| v.parse().ok())
}

/// Ingest `events` in batches (flat out, or each batch when its last event
/// is due), drain, and time first `Client::ingest` → subscription ended.
pub fn drive(
    mut s: Session,
    events: Vec<Event>,
    pacer: Option<Pacer>,
    tracer: &mut Tracer,
) -> Result<Phase, String> {
    let mut phase = Phase {
        events: events.len() as u64,
        ..Phase::default()
    };
    let traced = tracer.enabled();
    let cpu0 = cpu::process_cpu();
    let started = Instant::now();
    tracer.enter_at("phase", 0, started);
    let mut events = events.into_iter();
    let mut sent = 0u64;
    loop {
        let batch: Vec<Event> = events.by_ref().take(INGEST_BATCH).collect();
        if batch.is_empty() {
            break;
        }
        sent += batch.len() as u64;
        if let Some(p) = pacer {
            // A batch can go once its last event is due.
            let due = started + Duration::from_nanos(p.due_ns(sent - 1));
            let now = Instant::now();
            if now < due {
                std::thread::sleep(due - now);
            }
            phase
                .generator_late_ns
                .push(Instant::now().saturating_duration_since(due).as_nanos() as u64);
        }
        let id = phase.ops;
        phase.ops += 1;
        let t0 = Instant::now();
        let ack = s.ingest.ingest(s.session, batch);
        let t1 = Instant::now();
        if traced {
            phase.send_ns.push((t1 - t0).as_nanos() as u32);
            tracer.leaf("Client::ingest", id, t0, t1);
        }
        match ack {
            Ok(ack) if ack.pushed == sent => {
                if ack.busy {
                    // The backpressure contract: pause before the next batch.
                    phase.busy_acks += 1;
                    std::thread::sleep(Duration::from_millis(1));
                }
            }
            Ok(_) | Err(_) => phase.failed_ops += 1,
        }
    }
    let drain_started = Instant::now();
    tracer.enter_at("drain", phase.ops, drain_started);
    if s.ingest.drain(s.session).is_err() {
        phase.failed_ops += 1;
    }
    tracer.exit();
    phase.finish_ns = drain_started.elapsed().as_nanos() as u64;
    let got = s
        .subscriber
        .join()
        .map_err(|_| "subscriber thread panicked".to_string())?;
    let ended = got.ended.max(Instant::now());
    phase.wall_ns = (ended - started).as_nanos() as u64;
    tracer.exit_at(ended);
    phase.cpu_ns = cpu0
        .zip(cpu::process_cpu())
        .map(|(a, b)| (b - a).as_nanos() as u64);
    if let Some(e) = got.error {
        return Err(format!("subscription failed: {e}"));
    }
    tracer.absorb(got.tracer);
    for (at, rows) in got.frames {
        phase.rows_per_frame.push(rows.len() as u32);
        let at_ns = at.saturating_duration_since(started).as_nanos() as u64;
        phase.rows.extend(rows.into_iter().map(|row| Observed {
            query: 0,
            at_ns,
            row,
        }));
    }
    let page = s.ingest.stats().map_err(|e| format!("stats: {e}"))?;
    let value = |name| prom_value(&page, name).unwrap_or(0.0) as u64;
    phase.program = ProgramStats {
        late_dropped: value("greta_events_late_dropped_total"),
        frames: value("greta_frames_sent_total"),
        watermarks: value("greta_watermarks_total"),
        max_channel_occupancy: value("greta_max_channel_occupancy_frames"),
        peak_memory_bytes: value("greta_peak_memory_bytes"),
    };
    drop(s.ingest);
    s.server.shutdown().map_err(|e| format!("shutdown: {e}"))?;
    std::fs::remove_dir_all(&s.wal_dir).map_err(|e| format!("remove WAL dir: {e}"))?;
    Ok(phase)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn reads_one_series_from_a_metrics_page() {
        let page = "# HELP greta_frames_sent_total Frames.\n\
                    # TYPE greta_frames_sent_total counter\n\
                    greta_frames_sent_total{session=\"1\"} 42\n\
                    greta_frames_sent_total_extra{session=\"1\"} 7\n\
                    greta_server_sessions 1\n";
        assert_eq!(prom_value(page, "greta_frames_sent_total"), Some(42.0));
        assert_eq!(prom_value(page, "greta_server_sessions"), Some(1.0));
        assert_eq!(prom_value(page, "greta_missing"), None);
    }
}
