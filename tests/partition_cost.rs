//! What a *new partition* costs on the heap, through the public API only.
//!
//! A partition is graph state: its storages, invalidation logs, counters
//! and `GROUP-BY` prefix. Everything derived from the query alone
//! (dispatch tables, predicate trees, dependencies, sort attributes, pane
//! length) is built once per engine — see ARCHITECTURE "Inside a shard
//! engine". This file pins that split with a counting allocator on the
//! Q1-sparse shape (one partition per company, all companies in one
//! sector so the per-group result slot is created once): the heap an event
//! costs when it opens a partition, beyond what an event costs that only
//! adds a vertex to an existing one.
//!
//! The counting allocator is process-wide, so this file holds exactly one
//! test (the harness would run two concurrently).

use greta::core::{GretaEngine, MemoryFootprint};
use greta::query::CompiledQuery;
use greta::types::{Event, EventRef, SchemaRegistry, Time, Value};
use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};

struct Counting;

/// Calls that obtain memory (`alloc` + `realloc`).
static CALLS: AtomicU64 = AtomicU64::new(0);
/// Bytes currently held: requested minus released (wraps through zero).
static LIVE: AtomicU64 = AtomicU64::new(0);

// SAFETY: every call is forwarded unchanged to `System`; the counters are
// statistics and publish no other data.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, l: Layout) -> *mut u8 {
        CALLS.fetch_add(1, Ordering::Relaxed);
        LIVE.fetch_add(l.size() as u64, Ordering::Relaxed);
        System.alloc(l)
    }
    unsafe fn dealloc(&self, p: *mut u8, l: Layout) {
        LIVE.fetch_sub(l.size() as u64, Ordering::Relaxed);
        System.dealloc(p, l)
    }
    unsafe fn realloc(&self, p: *mut u8, l: Layout, new: usize) -> *mut u8 {
        CALLS.fetch_add(1, Ordering::Relaxed);
        LIVE.fetch_add(
            (new as u64).wrapping_sub(l.size() as u64),
            Ordering::Relaxed,
        );
        System.realloc(p, l, new)
    }
}

#[global_allocator]
static ALLOC: Counting = Counting;

/// (allocator calls, growth of the live heap in bytes) per event while `f`
/// runs.
fn per_event(n: u64, f: impl FnOnce()) -> (f64, f64) {
    let (c0, b0) = (CALLS.load(Ordering::Relaxed), LIVE.load(Ordering::Relaxed));
    f();
    let (c1, b1) = (CALLS.load(Ordering::Relaxed), LIVE.load(Ordering::Relaxed));
    let grown = b1.wrapping_sub(b0) as i64;
    ((c1 - c0) as f64 / n as f64, grown as f64 / n as f64)
}

/// Measured at the parent commit (86deefa) with this file: opening a
/// partition cost 18 allocator calls and 1 783 B of live heap beyond a
/// vertex-only event (5 calls, 320 B), and the analytic accounting read
/// `PARENT_MEMORY_BYTES` after the run. Amortised growth of the partition
/// map adds 0.01 calls per event on both sides; calls are compared whole.
const PARENT_CALLS: f64 = 18.0;
const PARENT_BYTES: f64 = 1783.2;
const PARENT_MEMORY_BYTES: usize = 790_616;
/// Of the parent's figure, 11 calls / 740 B were copies of the plan (the
/// dispatch tables, the cloned predicate trees, `sort_attr`) and are gone.
/// The other 1 043 B are not plan: the first vertex's index structures
/// (slab 256 B, pane deque 160 B, per-pane tree vector 24 B, B-tree leaf
/// 232 B), the map entry and key, and the partition's own containers — so
/// "half the parent's bytes" (891 B), which ISSUE 19 asked for on the
/// strength of counting the 192 B vector of graph state among the copies,
/// is below what a partition must hold. The bound is the parent less nine
/// tenths of its plan copies; the tenth pays for the stored `GROUP-BY`
/// prefix (24 B + 24 B of map entry at the map's load factor of 1/2).
const PARENT_PLAN_COPY_BYTES: f64 = 740.0;

#[test]
fn a_new_partition_carries_no_copy_of_the_plan() {
    const COMPANIES: u64 = 1024;
    let mut reg = SchemaRegistry::new();
    let stock = reg
        .register_type("Stock", &["price", "company", "sector"])
        .unwrap();
    let q = CompiledQuery::parse(
        "RETURN sector, COUNT(*) PATTERN Stock S+ \
         WHERE [company, sector] AND S.price > NEXT(S).price \
         GROUP-BY sector WITHIN 100000 SLIDE 100000",
        &reg,
    )
    .unwrap();
    // Round `r` visits every company once; prices rise from round to round,
    // so a later event has no predecessor under `S.price > NEXT(S).price`
    // and the later rounds traverse no edge: they cost a vertex, nothing else.
    let round = |r: u64| -> Vec<EventRef> {
        (0..COMPANIES)
            .map(|c| {
                let attrs = vec![
                    Value::Float((r + 1) as f64),
                    Value::Int(c as i64),
                    Value::Int(0),
                ];
                Event::new_unchecked(stock, Time(r * COMPANIES + c), attrs).into_ref()
            })
            .collect()
    };
    let (open, again, settle) = (round(0), round(1), round(2));
    let mut eng = GretaEngine::<f64>::new(q, reg).unwrap();
    let mut feed = |events: &[EventRef]| {
        per_event(COMPANIES, || {
            for e in events {
                eng.process_ref(e).unwrap();
            }
        })
    };
    let with_partition = feed(&open);
    // The second vertex of a partition still grows first-use buffers (the
    // slab's free list aside, nothing is sized yet); the third is steady.
    feed(&again);
    let vertex_only = feed(&settle);
    let calls = with_partition.0 - vertex_only.0;
    let bytes = with_partition.1 - vertex_only.1;
    println!(
        "new partition: {calls:.2} calls / {bytes:.1} B beyond a vertex-only event \
         ({:.2} calls / {:.1} B); memory_bytes {}",
        vertex_only.0,
        vertex_only.1,
        eng.memory_bytes()
    );
    assert_eq!(eng.stats().vertices, 3 * COMPANIES);
    assert_eq!(eng.stats().edges, 0);
    assert_eq!(eng.partition_count() as u64, COMPANIES);
    assert!(
        calls.round() <= PARENT_CALLS / 2.0,
        "{calls} calls, parent {PARENT_CALLS}"
    );
    assert!(
        bytes <= PARENT_BYTES - 0.9 * PARENT_PLAN_COPY_BYTES,
        "{bytes} B, parent {PARENT_BYTES}"
    );
    // What the engine reports did not move: the copies were never counted.
    assert_eq!(eng.memory_bytes(), PARENT_MEMORY_BYTES);
}
