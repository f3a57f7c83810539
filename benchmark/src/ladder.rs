//! The layer ladder: the workload's own stream fed, single-threaded, through
//! each layer's public functions in isolation. Per-layer cost is then a
//! measurement, and what the executor adds on top (framing, channel hop,
//! thread hand-off) a subtraction.
//!
//! The reorder and engine rungs double as the reference computation every
//! run's output is checked against.

use crate::alloc;
use greta_core::{
    EngineStats, GretaEngine, MemoryFootprint, ReorderBuffer, ResultMerge, StreamRouting, WindowId,
    WindowResult,
};
use greta_durability::{FsyncPolicy, Wal};
use greta_query::CompiledQuery;
use greta_server::Request;
use greta_types::{Event, EventRef, Reader, SchemaRegistry};
use std::hint::black_box;
use std::path::Path;
use std::time::Instant;

fn ns_since(t: Instant) -> u64 {
    t.elapsed().as_nanos() as u64
}

/// `greta_types::codec`: encode every event into one reused buffer, then
/// decode it back.
pub struct CodecRung {
    pub encode_ns: u64,
    pub decode_ns: u64,
    pub bytes: u64,
}

pub fn codec(events: &[EventRef]) -> Result<CodecRung, String> {
    let mut buf = Vec::new();
    let t = Instant::now();
    for e in events {
        e.encode(&mut buf);
    }
    let encode_ns = ns_since(t);
    let t = Instant::now();
    let mut r = Reader::new(black_box(&buf));
    for _ in events {
        black_box(Event::decode(&mut r).map_err(|e| e.to_string())?);
    }
    Ok(CodecRung {
        encode_ns,
        decode_ns: ns_since(t),
        bytes: buf.len() as u64,
    })
}

/// `greta_durability::wal`: append every event's record under
/// `FsyncPolicy::AtCheckpoint`, with an explicit `sync` per `sync_every`
/// records — the group commit the session thread performs per ingest batch.
#[derive(Default)]
pub struct WalRung {
    /// Time in `append`, syncs excluded.
    pub append_ns: u64,
    pub sync_us: Vec<f64>,
    /// Bytes the segments hold afterwards (frames included).
    pub bytes: u64,
}

pub fn wal(events: &[EventRef], dir: &Path, sync_every: usize) -> Result<WalRung, String> {
    let err = |e: greta_durability::DurabilityError| e.to_string();
    let mut log = Wal::open(dir, 4 << 20, FsyncPolicy::AtCheckpoint).map_err(err)?;
    let mut record = Vec::new();
    let mut sync_us = Vec::new();
    let mut sync_ns = 0u64;
    let t = Instant::now();
    for (i, e) in events.iter().enumerate() {
        record.clear();
        // The executor's record: a tag byte, then the event.
        record.push(0u8);
        e.encode(&mut record);
        log.append(&record).map_err(err)?;
        if (i + 1) % sync_every == 0 || i + 1 == events.len() {
            let s = Instant::now();
            log.sync().map_err(err)?;
            let took = ns_since(s);
            sync_ns += took;
            sync_us.push(took as f64 / 1e3);
        }
    }
    let append_ns = ns_since(t).saturating_sub(sync_ns);
    drop(log);
    let mut bytes = 0;
    for entry in std::fs::read_dir(dir).map_err(|e| e.to_string())? {
        bytes += entry
            .and_then(|e| e.metadata())
            .map_err(|e| e.to_string())?
            .len();
    }
    std::fs::remove_dir_all(dir).map_err(|e| e.to_string())?;
    Ok(WalRung {
        append_ns,
        sync_us,
        bytes,
    })
}

/// `greta_core::reorder::ReorderBuffer`: push every arrival, collect what it
/// releases (the in-order stream every later rung consumes), flush at the end.
pub struct ReorderRung {
    pub ns: u64,
    pub max_buffered: u64,
    pub late: u64,
    pub released: Vec<EventRef>,
}

pub fn reorder(arrivals: &[EventRef], slack: u64) -> ReorderRung {
    let mut buffer = ReorderBuffer::new(slack);
    let mut released = Vec::with_capacity(arrivals.len());
    let mut max_buffered = 0;
    // `buffered()` walks the whole buffer; sampling it keeps the rung's time
    // the buffer's own.
    let sample_every = (slack as usize).max(1);
    let mut ns = 0u64;
    for chunk in arrivals.chunks(sample_every) {
        let t = Instant::now();
        for e in chunk {
            // A late event is handed back; dropping it is the workload's
            // late policy.
            let _ = buffer.push_into(EventRef::clone(e), &mut released);
        }
        ns += ns_since(t);
        max_buffered = max_buffered.max(buffer.buffered());
    }
    let t = Instant::now();
    released.extend(buffer.flush());
    ns += ns_since(t);
    ReorderRung {
        ns,
        max_buffered: max_buffered as u64,
        late: buffer.late_events(),
        released,
    }
}

/// `greta_core::grouping::StreamRouting`: the shard decision per event.
pub struct RouteRung {
    pub ns: u64,
    pub broadcasts: u64,
    pub per_shard: Vec<u64>,
}

pub fn route(released: &[EventRef], routing: &StreamRouting, shards: usize) -> RouteRung {
    let mut per_shard = vec![0u64; shards];
    let mut broadcasts = 0;
    let t = Instant::now();
    for e in released {
        match routing.shard_of(e, shards) {
            Some(s) => per_shard[s] += 1,
            None => broadcasts += 1,
        }
    }
    RouteRung {
        ns: ns_since(t),
        broadcasts,
        per_shard,
    }
}

/// `greta_core::engine`: one `GretaEngine` per query, `process_ref` over the
/// whole in-order stream on this thread — the single-threaded baseline, and
/// the reference rows.
pub struct EngineRung {
    /// `process_ref` + `poll_results` + `finish`, the state export excluded.
    pub ns: u64,
    /// Summed over the queries' engines.
    pub stats: EngineStats,
    pub state_peak_bytes: u64,
    /// Per query, in emission order.
    pub rows: Vec<Vec<WindowResult<f64>>>,
    /// `export_state` of every engine, taken mid-stream.
    pub export_ns: u64,
    pub snapshot_bytes: u64,
    /// Allocations inside the engines' calls; `None` if not counted.
    pub allocations: Option<u64>,
}

pub fn engine(
    queries: &[CompiledQuery],
    registry: &SchemaRegistry,
    released: &[EventRef],
    count_allocations: bool,
) -> Result<EngineRung, String> {
    let mut engines = queries
        .iter()
        .map(|q| GretaEngine::<f64>::new(q.clone(), registry.clone()).map_err(|e| e.to_string()))
        .collect::<Result<Vec<_>, _>>()?;
    let mut rows: Vec<Vec<WindowResult<f64>>> = vec![Vec::new(); engines.len()];
    let counting = if count_allocations {
        alloc::start()
    } else {
        None
    };
    let mut allocations = 0u64;
    let (mut export_ns, mut snapshot_bytes) = (0u64, 0u64);
    let t = Instant::now();
    for (i, e) in released.iter().enumerate() {
        if i == released.len() / 2 {
            let s = Instant::now();
            for engine in &engines {
                snapshot_bytes += black_box(engine.export_state()).len() as u64;
            }
            export_ns = ns_since(s);
        }
        for (engine, out) in engines.iter_mut().zip(&mut rows) {
            let before = counting.map(alloc::since);
            engine.process_ref(e).map_err(|e| e.to_string())?;
            let polled = engine.poll_results();
            if let (Some(c), Some(before)) = (counting, before) {
                allocations += alloc::since(c).count - before.count;
            }
            out.extend(polled);
        }
    }
    let mut stats = EngineStats::default();
    let mut state_peak_bytes = 0;
    for (engine, out) in engines.iter_mut().zip(&mut rows) {
        out.extend(engine.finish());
        let s = engine.stats();
        stats.events += s.events;
        stats.vertices += s.vertices;
        stats.edges += s.edges;
        stats.results += s.results;
        state_peak_bytes += engine.peak_memory_bytes() as u64;
    }
    let ns = ns_since(t).saturating_sub(export_ns);
    if count_allocations {
        alloc::stop();
    }
    Ok(EngineRung {
        ns,
        stats,
        state_peak_bytes,
        rows,
        export_ns,
        snapshot_bytes,
        allocations: counting.map(|_| allocations),
    })
}

/// `greta_core::reorder::ResultMerge`: the reference rows, dealt to the
/// shards that own their groups, offered window by window and released by
/// frontier advances.
#[derive(Default)]
pub struct MergeRung {
    pub ns: u64,
    pub rows: u64,
    pub max_buffered_rows: u64,
}

pub fn merge(canonical: &[WindowResult<f64>], routing: &StreamRouting, shards: usize) -> MergeRung {
    let dealt: Vec<(usize, WindowResult<f64>)> = canonical
        .iter()
        .map(|r| (routing.shard_of_group_key(&r.group, shards), r.clone()))
        .collect();
    let mut m = ResultMerge::<f64>::new(shards);
    let mut seq = vec![0u64; shards];
    let mut out = Vec::with_capacity(dealt.len());
    let mut max_buffered = 0;
    let mut open: Option<WindowId> = None;
    let t = Instant::now();
    for (shard, row) in dealt {
        if open.is_some_and(|w| w != row.window) {
            max_buffered = max_buffered.max(m.buffered_rows());
            for s in 0..shards {
                m.advance(s, row.window, &mut out);
            }
        }
        open = Some(row.window);
        seq[shard] += 1;
        m.offer(shard, seq[shard], row);
    }
    max_buffered = max_buffered.max(m.buffered_rows());
    m.close(&mut out);
    MergeRung {
        ns: ns_since(t),
        rows: black_box(out).len() as u64,
        max_buffered_rows: max_buffered as u64,
    }
}

/// `greta_server::protocol`: an `Ingest` request per batch, encoded and
/// decoded.
#[derive(Default)]
pub struct ProtocolRung {
    pub encode_ns: u64,
    pub decode_ns: u64,
    pub bytes: u64,
}

pub fn protocol(events: &[EventRef], batch: usize) -> Result<ProtocolRung, String> {
    let mut rung = ProtocolRung::default();
    let mut buf = Vec::new();
    for chunk in events.chunks(batch) {
        let request = Request::Ingest {
            session: 1,
            events: chunk.iter().map(|e| Event::clone(e)).collect(),
        };
        buf.clear();
        let t = Instant::now();
        request.encode(&mut buf);
        rung.encode_ns += ns_since(t);
        rung.bytes += buf.len() as u64;
        let t = Instant::now();
        black_box(Request::decode(black_box(&buf)).map_err(|e| e.to_string())?);
        rung.decode_ns += ns_since(t);
    }
    Ok(rung)
}
