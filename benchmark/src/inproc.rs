//! Driving an in-process `StreamExecutor`: build it (set-up), then feed it a
//! stream flat out (saturation, a closed loop) or on a schedule (paced, an
//! open loop).

use crate::cpu;
use crate::pacer::Pacer;
use crate::phase::{Observed, Phase, ProgramStats};
use crate::trace::Tracer;
use crate::workloads::Workload;
use greta_core::{ExecutorConfig, QueryId, StreamExecutor};
use greta_durability::DurabilityConfig;
use greta_query::CompiledQuery;
use greta_types::{Event, SchemaRegistry};
use std::path::PathBuf;
use std::time::{Duration, Instant};

/// Events per `batch` span of a trace (and per batch id).
pub const TRACE_BATCH: u64 = 256;
/// One batch in this many also records a span per `push` / `poll_results`
/// call; every call's duration is kept regardless.
pub const TRACE_SAMPLE: u64 = 64;

pub struct Executor {
    pub exec: StreamExecutor<f64>,
    pub ids: Vec<QueryId>,
}

pub fn compile(w: &Workload, registry: &SchemaRegistry) -> Result<Vec<CompiledQuery>, String> {
    w.queries
        .iter()
        .map(|q| CompiledQuery::parse(q, registry).map_err(|e| format!("{}: {e}", w.name)))
        .collect()
}

/// Construct the workload's executor: primary query, then every further
/// query registered before the first event. `durability_dir` is only set by
/// the barrier probe.
pub fn build(
    w: &Workload,
    registry: &SchemaRegistry,
    primary: CompiledQuery,
    durability_dir: Option<PathBuf>,
    tracer: &mut Tracer,
) -> Result<Executor, String> {
    let config = ExecutorConfig {
        shards: w.shards,
        slack: w.slack,
        emission: w.emission,
        durability: durability_dir.map(|dir| DurabilityConfig {
            // The probe asks for its checkpoint itself.
            snapshot_every_windows: u64::MAX,
            ..DurabilityConfig::new(dir)
        }),
        ..ExecutorConfig::default()
    };
    let mut exec =
        StreamExecutor::<f64>::new(primary, registry.clone(), config).map_err(|e| e.to_string())?;
    let mut ids = vec![QueryId::PRIMARY];
    for text in &w.queries[1..] {
        tracer.enter("register_query", 0);
        let id = exec.register_query(text, w.emission);
        tracer.exit();
        ids.push(id.map_err(|e| e.to_string())?);
    }
    Ok(Executor { exec, ids })
}

fn poll(x: &mut Executor, started: Instant, rows: &mut Vec<Observed>) {
    for (query, id) in x.ids.iter().enumerate() {
        let polled = if query == 0 {
            x.exec.poll_results()
        } else {
            // The id came from this executor's own `register_query`.
            x.exec.poll_results_of(*id).unwrap_or_default()
        };
        if !polled.is_empty() {
            let at_ns = started.elapsed().as_nanos() as u64;
            rows.extend(polled.into_iter().map(|row| Observed { query, at_ns, row }));
        }
    }
}

/// Feed `events` (moved in, never cloned) and time first push → `finish()`
/// returned. With a pacer, the first event of each 1 ms tick waits for the
/// tick's scheduled time, polling for rows while it waits.
pub fn drive(
    mut x: Executor,
    events: Vec<Event>,
    pacer: Option<Pacer>,
    tracer: &mut Tracer,
) -> Phase {
    let mut phase = Phase {
        events: events.len() as u64,
        ops: events.len() as u64,
        ..Phase::default()
    };
    let traced = tracer.enabled();
    if traced {
        phase.send_ns.reserve(events.len());
        phase.poll_ns.reserve(events.len());
    }
    let cpu0 = cpu::process_cpu();
    let started = Instant::now();
    tracer.enter_at("phase", 0, started);
    for (i, e) in (0u64..).zip(events) {
        if let Some(p) = pacer.filter(|p| p.starts_tick(i)) {
            let due = started + Duration::from_nanos(p.due_ns(i));
            loop {
                let now = Instant::now();
                if now >= due {
                    phase.generator_late_ns.push((now - due).as_nanos() as u64);
                    break;
                }
                // Short naps, so a row that lands between ticks is seen
                // within ~0.1 ms without spinning a core the shards need.
                std::thread::sleep((due - now).min(Duration::from_micros(100)));
                poll(&mut x, started, &mut phase.rows);
            }
        }
        let batch = i / TRACE_BATCH;
        if traced && i % TRACE_BATCH == 0 {
            if i > 0 {
                tracer.exit();
            }
            tracer.enter("batch", batch);
        }
        let t0 = traced.then(Instant::now);
        if x.exec.push(e).is_err() {
            phase.failed_ops += 1;
        }
        let t1 = traced.then(Instant::now);
        poll(&mut x, started, &mut phase.rows);
        if let (Some(t0), Some(t1)) = (t0, t1) {
            let t2 = Instant::now();
            phase.send_ns.push((t1 - t0).as_nanos() as u32);
            phase.poll_ns.push((t2 - t1).as_nanos() as u32);
            if batch % TRACE_SAMPLE == 0 {
                tracer.leaf("push", batch, t0, t1);
                tracer.leaf("poll_results", batch, t1, t2);
            }
        }
    }
    if traced && phase.events > 0 {
        tracer.exit();
    }
    let finish_started = Instant::now();
    tracer.enter_at("finish", phase.events / TRACE_BATCH, finish_started);
    let rest = x.exec.finish();
    tracer.exit();
    let at_ns = started.elapsed().as_nanos() as u64;
    phase.finish_ns = finish_started.elapsed().as_nanos() as u64;
    match rest {
        Ok(rest) => phase.rows.extend(rest.into_iter().map(|row| Observed {
            query: 0,
            at_ns,
            row,
        })),
        Err(_) => phase.failed_ops += 1,
    }
    for (query, id) in x.ids.iter().enumerate().skip(1) {
        let rest = x.exec.poll_results_of(*id).unwrap_or_default();
        phase
            .rows
            .extend(rest.into_iter().map(|row| Observed { query, at_ns, row }));
    }
    phase.wall_ns = started.elapsed().as_nanos() as u64;
    tracer.exit();
    phase.cpu_ns = cpu0
        .zip(cpu::process_cpu())
        .map(|(a, b)| (b - a).as_nanos() as u64);
    let s = x.exec.stats();
    phase.program = ProgramStats {
        late_dropped: s.late_dropped,
        frames: s.frames,
        watermarks: s.watermarks,
        max_channel_occupancy: s.max_channel_occupancy as u64,
        peak_memory_bytes: s.peak_memory_bytes as u64,
    };
    phase
}
