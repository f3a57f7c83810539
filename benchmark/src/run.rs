//! One workload, one process. The run is a series of identical *rounds*:
//! set up from scratch, then a saturation phase on the fresh executor. Every
//! round feeds the same stream, so every round must emit the same rows, and
//! the time-based metrics are medians over the rounds: the box this runs on
//! drifts by tens of per cent within seconds, and a median of short phases
//! holds still where one long phase does not. Then output checks, shape
//! guards, metrics. The traced run's rounds add the traced saturation phase
//! and the paced phases; after them come the layer ladder and the barrier
//! probe.

use crate::check;
use crate::inproc;
use crate::ladder::{self, EngineRung, ReorderRung};
use crate::metrics::Reading;
use crate::pacer::Pacer;
use crate::phase::Phase;
use crate::served;
use crate::stats;
use crate::trace::Tracer;
use crate::workloads::{Generated, Workload};
use crate::{alloc, out_dir};
use greta_core::{sort_canonical, EmissionMode, OutValue, StreamRouting, WindowResult};
use greta_query::CompiledQuery;
use greta_types::{Event, EventRef};
use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Instant;

/// Rounds of an untraced run; `--seconds` is split evenly over their
/// saturation phases.
const ROUNDS: usize = 14;
/// Rounds of a traced run, whose rounds hold four or five phases of the same
/// length.
const TRACED_ROUNDS: usize = 3;
/// Events the barrier probe feeds before it checkpoints and registers.
const PROBE_EVENTS: usize = 50_000;
/// The oracle enumerates trends: at most this many events per partition.
const ORACLE_PER_GROUP: usize = 16;

pub struct Options {
    pub seed: u64,
    pub seconds: f64,
    pub traced: bool,
    /// One round only: a sanity run, not a measurement.
    pub smoke: bool,
    /// Red path: damage one observed row before the checks.
    pub corrupt_row: bool,
}

pub struct Outcome {
    pub readings: Vec<Reading>,
    /// Pushes / batches offered plus rows checked.
    pub attempted: u64,
    /// Of those, calls that failed and rows that differ from the reference.
    pub failed: u64,
    pub notes: Vec<String>,
}

/// A workload's stream and compiled queries, plus what set-up cost.
struct Prepared {
    stream: Generated,
    queries: Vec<CompiledQuery>,
    generate_ms: f64,
    compile_ms: f64,
}

/// The program, ready to be fed.
enum Pipeline {
    InProcess(Box<inproc::Executor>),
    Served(served::Session),
}

fn fresh_wal_dir() -> PathBuf {
    static NEXT: AtomicU64 = AtomicU64::new(0);
    out_dir().join(format!(
        "wal-{}-{}",
        std::process::id(),
        NEXT.fetch_add(1, Ordering::Relaxed)
    ))
}

fn prepare(w: &Workload, seed: u64, events: usize) -> Result<Prepared, String> {
    let t = Instant::now();
    let stream = w.generate(seed, events);
    let generate_ms = t.elapsed().as_secs_f64() * 1e3;
    let t = Instant::now();
    let queries = inproc::compile(w, &stream.registry)?;
    Ok(Prepared {
        stream,
        queries,
        generate_ms,
        compile_ms: t.elapsed().as_secs_f64() * 1e3,
    })
}

fn pipeline(w: &Workload, p: &Prepared, tracer: &mut Tracer) -> Result<Pipeline, String> {
    if w.served {
        std::fs::create_dir_all(out_dir()).map_err(|e| e.to_string())?;
        served::start(
            w,
            &p.stream.registry,
            &fresh_wal_dir(),
            tracer.enabled(),
            tracer.origin(),
        )
        .map(Pipeline::Served)
    } else {
        inproc::build(w, &p.stream.registry, p.queries[0].clone(), None, tracer)
            .map(|x| Pipeline::InProcess(Box::new(x)))
    }
}

fn drive(
    pipeline: Pipeline,
    events: Vec<Event>,
    pacer: Option<Pacer>,
    tracer: &mut Tracer,
) -> Result<Phase, String> {
    match pipeline {
        Pipeline::InProcess(x) => Ok(inproc::drive(*x, events, pacer, tracer)),
        Pipeline::Served(s) => served::drive(s, events, pacer, tracer),
    }
}

fn refs(events: &[Event]) -> Vec<EventRef> {
    events.iter().map(|e| e.clone().into_ref()).collect()
}

/// The single-threaded reference: reorder rung, then engine rung.
fn reference(
    w: &Workload,
    p: &Prepared,
    arrivals: &[EventRef],
    count_allocations: bool,
) -> Result<(ReorderRung, EngineRung), String> {
    let reordered = ladder::reorder(arrivals, w.slack);
    let mut engines = ladder::engine(
        &p.queries,
        &p.stream.registry,
        &reordered.released,
        count_allocations,
    )?;
    for rows in &mut engines.rows {
        sort_canonical(rows);
    }
    Ok((reordered, engines))
}

/// Digests of one query's rows below a window bound, in observation order.
fn digests_below<'a>(rows: impl Iterator<Item = &'a WindowResult<f64>>, below: u64) -> Vec<u64> {
    rows.filter(|r| r.window < below)
        .map(check::row_digest)
        .collect()
}

/// Rows expected, rows wrong.
#[derive(Default, Clone, Copy)]
struct Verdict {
    expected: u64,
    wrong: u64,
}

impl Verdict {
    fn add(&mut self, other: Verdict) {
        self.expected += other.expected;
        self.wrong += other.wrong;
    }
}

/// Compare what the program emitted against the reference, per query, for
/// windows below each query's bound. Ordered emission must match as a
/// sequence; unordered emission as a set.
fn rows_against(
    w: &Workload,
    got: &Phase,
    expected: &[Vec<WindowResult<f64>>],
    below: &[u64],
) -> Verdict {
    let mut v = Verdict::default();
    for (q, (want, &bound)) in expected.iter().zip(below).enumerate() {
        let want = digests_below(want.iter(), bound);
        let mut have = digests_below(got.rows_of(q), bound);
        v.expected += want.len() as u64;
        v.wrong += if w.emission == EmissionMode::WindowOrdered {
            check::sequence_mismatches(&want, &have)
        } else {
            let mut want = want;
            want.sort_unstable();
            have.sort_unstable();
            check::mismatches(&want, &have)
        };
    }
    v
}

/// Per query, for each window closable inside `arrivals`, the arrival that
/// made it so.
fn closing_per_query(w: &Workload, p: &Prepared, arrivals: &[Event]) -> Vec<Vec<u32>> {
    p.queries
        .iter()
        .map(|q| {
            check::closing_arrivals(
                arrivals.iter().map(|e| e.time.ticks()),
                w.slack,
                q.window.within,
                q.window.slide,
            )
        })
        .collect()
}

/// Row latencies of a paced phase, in milliseconds, in observation order:
/// first sight of the row minus the due time of the arrival that made its
/// window closable. Rows of windows only the final flush closed have none.
fn row_latencies_ms(paced: &Phase, closing: &[Vec<u32>], pacer: Pacer) -> Vec<f64> {
    paced
        .rows
        .iter()
        .filter_map(|o| {
            let arrival = *closing[o.query].get(o.row.window as usize)?;
            let due = pacer.due_ns(u64::from(arrival));
            Some(o.at_ns.saturating_sub(due) as f64 / 1e6)
        })
        .collect()
}

/// One number for everything a phase emitted, whatever the order.
fn rows_digest(phase: &Phase) -> u64 {
    check::fold(&check::digests(phase.rows.iter().map(|o| &o.row)))
}

fn damage_one_row(phase: &mut Phase) {
    if let Some(o) = phase
        .rows
        .iter_mut()
        .min_by_key(|o| (o.query, o.row.window))
    {
        o.row.values[0] = OutValue::Count(o.row.values[0].to_f64() + 1.0);
    }
}

fn oracle_verdict(p: &Prepared, released: &[EventRef]) -> Result<Verdict, String> {
    let mut v = Verdict::default();
    for q in &p.queries {
        let routing = StreamRouting::new(q, &p.stream.registry);
        let n = check::oracle_prefix(released, &routing, ORACLE_PER_GROUP, q.window.within);
        let (expected, wrong) = check::against_oracle(q, &p.stream.registry, &released[..n])?;
        v.add(Verdict { expected, wrong });
    }
    Ok(v)
}

/// Deterministic properties of the generated stream, read off the reference.
struct Shape {
    events: f64,
    edges_per_event: f64,
    vertices_per_event: f64,
    rows_per_event: f64,
    broadcast_share_pct: f64,
    late_share_pct: f64,
    shard_skew: f64,
    route_ns: u64,
}

fn shape(
    w: &Workload,
    p: &Prepared,
    reordered: &ReorderRung,
    engines: &EngineRung,
    arrivals: usize,
) -> Shape {
    let routing = StreamRouting::new(&p.queries[0], &p.stream.registry);
    let routed = ladder::route(&reordered.released, &routing, w.shards);
    let released = reordered.released.len().max(1) as f64;
    let owned: u64 = routed.per_shard.iter().sum();
    let busiest = routed.per_shard.iter().copied().max().unwrap_or(0);
    Shape {
        events: arrivals as f64,
        edges_per_event: engines.stats.edges as f64 / released,
        vertices_per_event: engines.stats.vertices as f64 / released,
        rows_per_event: engines.rows.iter().map(Vec::len).sum::<usize>() as f64 / released,
        broadcast_share_pct: 100.0 * routed.broadcasts as f64 / released,
        late_share_pct: 100.0 * reordered.late as f64 / arrivals.max(1) as f64,
        shard_skew: if owned == 0 {
            1.0
        } else {
            busiest as f64 * w.shards as f64 / owned as f64
        },
        route_ns: routed.ns,
    }
}

/// Refuse to report a run whose stream is not the workload it claims to be.
fn guard(w: &Workload, counters: &[(&str, f64)]) -> Result<(), String> {
    for band in w.bands {
        let Some((_, value)) = counters.iter().find(|(name, _)| *name == band.counter) else {
            continue;
        };
        if !(band.lo..=band.hi).contains(value) {
            return Err(format!(
                "shape guard: {} {} = {value} is outside [{}, {}]; the generated stream is no \
                 longer this workload, nothing is reported",
                w.name, band.counter, band.lo, band.hi
            ));
        }
    }
    Ok(())
}

pub fn run(w: &Workload, o: &Options, process_started: Instant) -> Result<Outcome, String> {
    if o.traced {
        traced(w, o)
    } else {
        untraced(w, o, process_started)
    }
}

fn ms(ns: &[u64]) -> Vec<f64> {
    let mut v: Vec<f64> = ns.iter().map(|&n| n as f64 / 1e6).collect();
    stats::sort(&mut v);
    v
}

fn percentile_or_zero(sorted: &[f64], p: f64) -> f64 {
    if sorted.is_empty() {
        0.0
    } else {
        stats::percentile(sorted, p)
    }
}

fn median_of(mut values: Vec<f64>) -> f64 {
    stats::sort(&mut values);
    stats::median(&values)
}

/// Everything the checks need from the first round; later rounds only have
/// to reproduce its digest.
struct FirstRound {
    p: Prepared,
    arrivals: Vec<EventRef>,
    sat: Phase,
}

/// The full output check of one round: saturation rows against the
/// single-threaded reference, a small prefix against the oracle, late drops
/// against the plan — and, where the round had one, the paced phase's rows
/// against the saturation rows for every window closable inside it.
struct Checked {
    verdict: Verdict,
    unplanned_late: u64,
    reordered: ReorderRung,
    engines: EngineRung,
}

fn check_round(
    w: &Workload,
    first: &FirstRound,
    paced: Option<(&Phase, &[Vec<u32>])>,
    count_allocations: bool,
) -> Result<Checked, String> {
    let (reordered, engines) = reference(w, &first.p, &first.arrivals, count_allocations)?;
    let everything = vec![u64::MAX; first.p.queries.len()];
    let mut verdict = rows_against(w, &first.sat, &engines.rows, &everything);
    if let Some((paced, closing)) = paced {
        let closable: Vec<u64> = closing.iter().map(|c| c.len() as u64).collect();
        let sat_rows: Vec<Vec<WindowResult<f64>>> = (0..first.p.queries.len())
            .map(|q| {
                let mut rows: Vec<_> = first.sat.rows_of(q).cloned().collect();
                sort_canonical(&mut rows);
                rows
            })
            .collect();
        verdict.add(rows_against(w, paced, &sat_rows, &closable));
    }
    verdict.add(oracle_verdict(&first.p, &reordered.released)?);
    Ok(Checked {
        verdict,
        unplanned_late: first
            .sat
            .program
            .late_dropped
            .abs_diff(first.p.stream.planned_late),
        reordered,
        engines,
    })
}

fn untraced(w: &Workload, o: &Options, process_started: Instant) -> Result<Outcome, String> {
    let mut off = Tracer::new(false, process_started);
    let n = w.saturation_events(o.seconds / ROUNDS as f64);

    let (mut setups, mut eps, mut cpu_us, mut rows_per_s, mut drain_share) =
        (Vec::new(), Vec::new(), Vec::new(), Vec::new(), Vec::new());
    let (mut attempted, mut failed) = (0u64, 0u64);
    let mut first: Option<FirstRound> = None;
    let mut first_digest = 0;
    for round in 0..if o.smoke { 1 } else { ROUNDS } {
        // Set-up: generate, compile, construct. The first is timed from
        // process start.
        let t = if round == 0 {
            process_started
        } else {
            Instant::now()
        };
        let mut p = prepare(w, o.seed, n)?;
        let pipe = pipeline(w, &p, &mut off)?;
        setups.push(t.elapsed().as_secs_f64());

        let arrivals = first.is_none().then(|| refs(&p.stream.events));
        let mut sat = drive(pipe, std::mem::take(&mut p.stream.events), None, &mut off)?;
        let sat_s = sat.wall_ns as f64 / 1e9;
        eps.push(sat.events as f64 / sat_s);
        rows_per_s.push(sat.rows.len() as f64 / sat_s);
        cpu_us.extend(
            sat.cpu_ns
                .map(|c| c as f64 / 1e3 / sat.events.max(1) as f64),
        );
        drain_share.push(100.0 * sat.finish_ns as f64 / sat.wall_ns.max(1) as f64);
        attempted += sat.ops;
        failed += sat.failed_ops;
        // Same stream, same rows: a later round is checked by digest, the
        // first one in full below (after any damage asked for).
        let digest = rows_digest(&sat);
        match arrivals {
            Some(arrivals) => {
                if o.corrupt_row {
                    damage_one_row(&mut sat);
                }
                first_digest = digest;
                first = Some(FirstRound { p, arrivals, sat });
            }
            None => {
                attempted += 1;
                failed += u64::from(digest != first_digest);
            }
        }
    }
    let first = first.expect("at least one round");
    let checked = check_round(w, &first, None, false)?;
    attempted += checked.verdict.expected;
    failed += checked.verdict.wrong + checked.unplanned_late;

    let s = shape(w, &first.p, &checked.reordered, &checked.engines, n);
    guard(
        w,
        &[
            ("engine.edges_per_event", s.edges_per_event),
            ("shape.rows_per_event", s.rows_per_event),
            ("grouping.broadcast_share", s.broadcast_share_pct),
            ("shape.late_share", s.late_share_pct),
        ],
    )?;

    let per_round = |v: &[f64]| {
        v.iter()
            .map(|x| format!("{x:.4}"))
            .collect::<Vec<_>>()
            .join(" ")
    };
    let notes = vec![
        format!("each round: {n} events flat out"),
        format!(
            "drain share: finish() was {:.1} % of saturation time (median)",
            median_of(drain_share)
        ),
        format!(
            "rows checked {} wrong {} unplanned late {}",
            checked.verdict.expected, checked.verdict.wrong, checked.unplanned_late
        ),
        format!(
            "rows digest {:016x} over {} saturation rows",
            rows_digest(&first.sat),
            first.sat.rows.len()
        ),
        format!(
            "shape edges/event {:.4} rows/event {:.5} broadcast {:.3} % late {:.4} %",
            s.edges_per_event, s.rows_per_event, s.broadcast_share_pct, s.late_share_pct
        ),
        format!("per round throughput_eps: {}", per_round(&eps)),
        format!("per round cpu_us_per_event: {}", per_round(&cpu_us)),
    ];
    let mut readings = vec![
        Reading {
            name: "setup_s",
            value: median_of(setups),
        },
        Reading {
            name: "throughput_eps",
            value: median_of(eps),
        },
        Reading {
            name: "state_peak_kib",
            value: first.sat.program.peak_memory_bytes as f64 / 1024.0,
        },
        Reading {
            name: "rows_per_s",
            value: median_of(rows_per_s),
        },
    ];
    if !cpu_us.is_empty() {
        readings.push(Reading {
            name: "cpu_us_per_event",
            value: median_of(cpu_us),
        });
    }
    Ok(Outcome {
        readings,
        attempted,
        failed,
        notes,
    })
}

fn per_event(ns: u64, events: usize) -> f64 {
    ns as f64 / events.max(1) as f64
}

fn percentile_u32(values: &[u32], p: f64) -> f64 {
    let mut v: Vec<f64> = values.iter().map(|&x| f64::from(x)).collect();
    stats::sort(&mut v);
    percentile_or_zero(&v, p)
}

/// Checkpoint and register barriers, timed on a throwaway durable executor
/// that has seen the head of the stream.
fn barrier_probe(
    w: &Workload,
    p: &Prepared,
    head: &[EventRef],
    tracer: &mut Tracer,
) -> Result<(f64, f64), String> {
    std::fs::create_dir_all(out_dir()).map_err(|e| e.to_string())?;
    let dir = fresh_wal_dir();
    let mut x = inproc::build(
        w,
        &p.stream.registry,
        p.queries[0].clone(),
        Some(dir.clone()),
        tracer,
    )?;
    for e in head {
        x.exec
            .push_ref(EventRef::clone(e))
            .map_err(|e| e.to_string())?;
        x.exec.poll_results();
    }
    // Let the shard queues run dry first: the probe times the barrier, not
    // the backlog in front of it.
    while x
        .exec
        .stats()
        .channel_occupancy
        .iter()
        .any(|&frames| frames > 0)
    {
        std::thread::sleep(std::time::Duration::from_millis(1));
        x.exec.poll_results();
    }
    let t = Instant::now();
    tracer.enter_at("checkpoint", 0, t);
    let done = x.exec.checkpoint();
    tracer.exit();
    let checkpoint_ms = t.elapsed().as_secs_f64() * 1e3;
    done.map_err(|e| e.to_string())?;
    let t = Instant::now();
    tracer.enter_at("register_query", 0, t);
    let id = x.exec.register_query(w.queries[0], w.emission);
    tracer.exit();
    let register_ms = t.elapsed().as_secs_f64() * 1e3;
    id.map_err(|e| e.to_string())?;
    x.exec.finish().map_err(|e| e.to_string())?;
    drop(x);
    std::fs::remove_dir_all(&dir).map_err(|e| e.to_string())?;
    Ok((checkpoint_ms, register_ms))
}

/// One paced phase at `rate` on a fresh pipeline; returns the phase, its
/// sorted row latencies, and whether a backlog was growing.
fn paced_at(
    w: &Workload,
    p: &Prepared,
    events: &[Event],
    phase_seconds: f64,
    rate: u64,
) -> Result<(Phase, Vec<f64>, bool), String> {
    let mut off = Tracer::new(false, Instant::now());
    let pacer = Pacer { rate_eps: rate };
    let events = events[..w.paced_events(phase_seconds, rate)].to_vec();
    let closing = closing_per_query(w, p, &events);
    let phase = drive(pipeline(w, p, &mut off)?, events, Some(pacer), &mut off)?;
    let mut latencies = row_latencies_ms(&phase, &closing, pacer);
    let growing = backlog_growing(&latencies);
    stats::sort(&mut latencies);
    Ok((phase, latencies, growing))
}

/// Is the backlog growing? In observation order, the last third's median
/// latency stands clear of the first third's.
fn backlog_growing(in_order: &[f64]) -> bool {
    let third = in_order.len() / 3;
    third >= 20
        && median_of(in_order[in_order.len() - third..].to_vec())
            > 2.0 * median_of(in_order[..third].to_vec()) + 5.0
}

fn traced(w: &Workload, o: &Options) -> Result<Outcome, String> {
    // Phases as long as the untraced run's; fewer rounds, more phases each.
    let phase_seconds = o.seconds / ROUNDS as f64;
    let n = w.saturation_events(phase_seconds);
    let origin = Instant::now();
    let mut off = Tracer::new(false, origin);
    let mut tracer = Tracer::new(true, origin);
    let p = prepare(w, o.seed, n)?;
    let events = &p.stream.events;

    // Rounds of: saturation untraced, saturation traced, paced at the frozen
    // rate (25 % of seed saturation) and at twice it — and for the served
    // workload at three times it, the top step of its rate ladder.
    let (mut plain_eps, mut traced_eps, mut traced_cpu_ns) = (Vec::new(), Vec::new(), Vec::new());
    let mut latencies = [Vec::new(), Vec::new(), Vec::new()];
    let (mut generator_late, mut growing) = (Vec::new(), 0.0);
    let (mut attempted, mut failed) = (0u64, 0u64);
    let mut first: Option<(Phase, Option<alloc::Counts>)> = None;
    let mut first_digest: Option<u64> = None;
    let mut first_paced: Option<Phase> = None;
    for round in 0..if o.smoke { 1 } else { TRACED_ROUNDS } {
        let plain = drive(pipeline(w, &p, &mut off)?, events.clone(), None, &mut off)?;
        // Spans are kept for the first round only; the later rounds trace
        // into a throwaway recorder so they pay the same overhead.
        let mut spare = Tracer::new(true, origin);
        let recorder = if round == 0 { &mut tracer } else { &mut spare };
        let pipe = pipeline(w, &p, recorder)?;
        let counting = alloc::start();
        let mut sat = drive(pipe, events.clone(), None, recorder)?;
        let allocated = counting.map(alloc::since);
        alloc::stop();
        plain_eps.push(plain.events as f64 / (plain.wall_ns as f64 / 1e9));
        traced_eps.push(sat.events as f64 / (sat.wall_ns as f64 / 1e9));
        traced_cpu_ns.extend(sat.cpu_ns.map(|c| per_event(c, n)));
        attempted += plain.ops + sat.ops + 2;
        failed += plain.failed_ops + sat.failed_ops;
        // Every saturation phase must reproduce the first traced one's
        // rows; that one is checked in full below (after any damage asked
        // for).
        let digest = *first_digest.get_or_insert_with(|| rows_digest(&sat));
        failed += u64::from(rows_digest(&plain) != digest) + u64::from(rows_digest(&sat) != digest);
        if first.is_none() {
            if o.corrupt_row {
                damage_one_row(&mut sat);
            }
            first = Some((sat, allocated));
        }
        let steps: &[u64] = if w.served { &[1, 2, 3] } else { &[1, 2] };
        for &quarters in steps {
            let rate = w.rate_eps * quarters;
            let (phase, lat, grew) = paced_at(w, &p, events, phase_seconds, rate)?;
            attempted += phase.ops;
            failed += phase.failed_ops;
            latencies[quarters as usize - 1].extend(lat);
            if quarters == 1 {
                generator_late.extend(&phase.generator_late_ns);
            }
            growing += f64::from(u8::from(grew));
            if quarters == 1 && first_paced.is_none() {
                first_paced = Some(phase);
            }
        }
    }
    let (sat, allocated) = first.expect("at least one round");
    let n_paced = w.paced_events(phase_seconds, w.rate_eps);
    let closing = closing_per_query(w, &p, &events[..n_paced]);
    let first_paced = first_paced.expect("at least one round");
    let first = FirstRound {
        arrivals: refs(events),
        sat,
        p,
    };
    let (p, arrivals, sat) = (&first.p, &first.arrivals, &first.sat);

    // The ladder; its reorder and engine rungs are the reference.
    let checked = check_round(w, &first, Some((&first_paced, &closing)), true)?;
    attempted += checked.verdict.expected;
    failed += checked.verdict.wrong + checked.unplanned_late;
    let (reordered, engines) = (&checked.reordered, &checked.engines);
    let s = shape(w, p, reordered, engines, n);
    let codec = ladder::codec(arrivals)?;
    let routing = StreamRouting::new(&p.queries[0], &p.stream.registry);
    // Rungs of layers the workload does not cross stay at zero.
    let merged = if w.emission == EmissionMode::WindowOrdered {
        ladder::merge(&engines.rows[0], &routing, w.shards)
    } else {
        ladder::MergeRung::default()
    };
    let (mut wal, protocol) = if w.served {
        std::fs::create_dir_all(out_dir()).map_err(|e| e.to_string())?;
        (
            ladder::wal(arrivals, &fresh_wal_dir(), served::INGEST_BATCH)?,
            ladder::protocol(arrivals, served::INGEST_BATCH)?,
        )
    } else {
        Default::default()
    };
    stats::sort(&mut wal.sync_us);
    let (checkpoint_ms, register_ms) =
        barrier_probe(w, p, &arrivals[..n.min(PROBE_EVENTS)], &mut tracer)?;

    let pipeline_cpu_ns = (!traced_cpu_ns.is_empty()).then(|| median_of(traced_cpu_ns));
    let engine_ns = per_event(engines.ns, n);
    let engine_share_pct = pipeline_cpu_ns.map(|c| 100.0 * engine_ns / c);
    let mut counters = vec![
        ("engine.edges_per_event", s.edges_per_event),
        ("shape.rows_per_event", s.rows_per_event),
        ("grouping.broadcast_share", s.broadcast_share_pct),
        ("shape.late_share", s.late_share_pct),
        ("reorder.max_buffered", reordered.max_buffered as f64),
    ];
    counters.extend(engine_share_pct.map(|v| ("engine.cpu_share", v)));
    guard(w, &counters)?;

    let mut r: Vec<Reading> = Vec::new();
    let mut put = |name: &'static str, value: f64| r.push(Reading { name, value });
    put("codec.encode_ns_per_event", per_event(codec.encode_ns, n));
    put("codec.decode_ns_per_event", per_event(codec.decode_ns, n));
    put("codec.bytes_per_event", per_event(codec.bytes, n));
    put("wal.append_ns_per_event", per_event(wal.append_ns, n));
    put("wal.sync_p50_us", percentile_or_zero(&wal.sync_us, 0.5));
    put("wal.syncs", wal.sync_us.len() as f64);
    put("wal.bytes_per_event", per_event(wal.bytes, n));
    put("reorder.push_ns_per_event", per_event(reordered.ns, n));
    put("reorder.max_buffered", reordered.max_buffered as f64);
    put("reorder.late_events", reordered.late as f64);
    put("grouping.route_ns_per_event", per_event(s.route_ns, n));
    put("grouping.broadcast_share", s.broadcast_share_pct);
    put("grouping.shard_skew", s.shard_skew);
    put("engine.inline_ns_per_event", engine_ns);
    put("engine.vertices_per_event", s.vertices_per_event);
    put("engine.edges_per_event", s.edges_per_event);
    put(
        "engine.rows",
        engines.rows.iter().map(Vec::len).sum::<usize>() as f64,
    );
    put("engine.state_peak_bytes", engines.state_peak_bytes as f64);
    put("engine.export_state_ms", engines.export_ns as f64 / 1e6);
    put("engine.snapshot_bytes", engines.snapshot_bytes as f64);
    if let Some(share) = engine_share_pct {
        put("engine.cpu_share", share);
    }
    put(
        "merge.ns_per_row",
        per_event(merged.ns, merged.rows as usize),
    );
    put("merge.max_buffered_rows", merged.max_buffered_rows as f64);
    if w.served {
        // Behind a socket no `push` is the benchmark's to time.
        put("executor.push_p50_ns", 0.0);
        put("executor.push_p99_ns", 0.0);
        put("executor.poll_ns_per_call", 0.0);
    } else {
        put("executor.push_p50_ns", percentile_u32(&sat.send_ns, 0.5));
        put("executor.push_p99_ns", percentile_u32(&sat.send_ns, 0.99));
        let polls: u64 = sat.poll_ns.iter().map(|&x| u64::from(x)).sum();
        put(
            "executor.poll_ns_per_call",
            per_event(polls, sat.poll_ns.len()),
        );
    }
    put(
        "executor.frames_per_kevent",
        1000.0 * sat.program.frames as f64 / n.max(1) as f64,
    );
    put("executor.watermarks", sat.program.watermarks as f64);
    put(
        "executor.max_channel_occupancy",
        sat.program.max_channel_occupancy as f64,
    );
    put(
        "executor.drain_share",
        100.0 * sat.finish_ns as f64 / sat.wall_ns.max(1) as f64,
    );
    put("executor.finish_ms", sat.finish_ns as f64 / 1e6);
    if let Some(cpu) = pipeline_cpu_ns {
        put(
            "executor.overhead_ns_per_event",
            cpu - per_event(reordered.ns, n) - per_event(s.route_ns, n) - engine_ns,
        );
    }
    put("executor.checkpoint_ms", checkpoint_ms);
    put("executor.register_ms", register_ms);
    if let Some(a) = allocated {
        put("alloc.count_per_event", per_event(a.count, n));
        put("alloc.bytes_per_event", per_event(a.bytes, n));
    }
    if let Some(a) = engines.allocations {
        put("alloc.engine.count_per_event", per_event(a, n));
    }
    put(
        "protocol.encode_ns_per_event",
        per_event(protocol.encode_ns, n),
    );
    put(
        "protocol.decode_ns_per_event",
        per_event(protocol.decode_ns, n),
    );
    put("protocol.bytes_per_event", per_event(protocol.bytes, n));
    if w.served {
        put(
            "serve.ack_rtt_p50_us",
            percentile_u32(&sat.send_ns, 0.5) / 1e3,
        );
        put(
            "serve.ack_rtt_p99_us",
            percentile_u32(&sat.send_ns, 0.99) / 1e3,
        );
        put(
            "serve.busy_ack_share",
            100.0 * sat.busy_acks as f64 / sat.ops.max(1) as f64,
        );
        put(
            "serve.rows_per_frame_p50",
            percentile_u32(&sat.rows_per_frame, 0.5),
        );
    } else {
        for name in [
            "serve.ack_rtt_p50_us",
            "serve.ack_rtt_p99_us",
            "serve.busy_ack_share",
            "serve.rows_per_frame_p50",
        ] {
            put(name, 0.0);
        }
    }
    for l in &mut latencies {
        stats::sort(l);
    }
    let tail = |l: &[f64]| {
        stats::highest_supported(l.len()).map_or(0.0, |q| stats::percentile(l, q.min(0.99)))
    };
    let served_only = |v: f64| if w.served { v } else { 0.0 };
    put(
        "serve.generator_late_p99_ms",
        served_only(percentile_or_zero(&ms(&generator_late), 0.99)),
    );
    put("serve.rate25.p99_ms", served_only(tail(&latencies[0])));
    put("serve.rate50.p99_ms", served_only(tail(&latencies[1])));
    put("serve.rate75.p99_ms", tail(&latencies[2]));
    put("serve.backlog_growing", served_only(growing));
    put(
        "paced.row_latency_p50_ms",
        percentile_or_zero(&latencies[0], 0.5),
    );
    put("paced.row_latency_p99_ms", tail(&latencies[0]));
    put(
        "paced.rate50.p50_ms",
        percentile_or_zero(&latencies[1], 0.5),
    );
    put("paced.rate50.p99_ms", tail(&latencies[1]));
    put("query.compile_ms", p.compile_ms);
    put("workloads.generate_ms", p.generate_ms);
    let (plain_eps, traced_eps) = (median_of(plain_eps), median_of(traced_eps));
    put(
        "trace.overhead_pct",
        100.0 * (plain_eps - traced_eps) / plain_eps,
    );
    put("traced.throughput_eps", traced_eps);
    if let Some(cpu) = pipeline_cpu_ns {
        put("traced.cpu_us_per_event", cpu / 1e3);
    }
    put("shape.rows_per_event", s.rows_per_event);
    put("shape.late_share", s.late_share_pct);
    put("shape.events", s.events);

    std::fs::create_dir_all(out_dir()).map_err(|e| e.to_string())?;
    let trace_path = out_dir().join(format!("trace-{}.jsonl", w.name));
    tracer
        .write_jsonl(&trace_path)
        .map_err(|e| format!("{}: {e}", trace_path.display()))?;
    let mut notes = vec![
        format!("each phase: {n} events; the ladder walks the same {n}"),
        format!(
            "rows checked {} wrong {} unplanned late {}",
            checked.verdict.expected, checked.verdict.wrong, checked.unplanned_late
        ),
        format!(
            "rows digest {:016x} over {} saturation rows",
            rows_digest(sat),
            sat.rows.len()
        ),
        format!(
            "trace {} spans in {}",
            tracer.spans().len(),
            trace_path.display()
        ),
    ];
    for (name, self_ns, count) in crate::trace::self_time_by_name(tracer.spans()) {
        notes.push(format!(
            "span {name}: {count} spans, self time {:.3} ms",
            self_ns as f64 / 1e6
        ));
    }
    Ok(Outcome {
        readings: r,
        attempted,
        failed,
        notes,
    })
}
