//! What a *new partition* costs on the heap, through the public API only.
//!
//! A partition is graph state: its storages (panes of sorted runs),
//! invalidation logs, counters and `GROUP-BY` prefix. Everything derived
//! from the query alone (dispatch tables, predicate trees, dependencies,
//! sort attributes, pane length, routing) is built once per hosted query
//! and shared by every engine running it — see ARCHITECTURE "Inside a
//! shard engine". This file pins that split and what the storage layout
//! costs a partition, with a counting allocator on the Q1-sparse shape (one
//! partition per company, all companies in one sector so the per-group
//! result slot is created once): the heap an event costs when it opens a
//! partition, beyond what an event costs that only adds a vertex to an
//! existing one — and that neither an event of a type the query does not
//! mention nor one that only adds a vertex costs any heap at all.
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

/// Measured at the parent commit (b7ea7c9: slab + B-tree storage) with this
/// file: opening a partition cost 9 allocator calls and 1 091 B of live heap
/// beyond a vertex-only event (2 calls, 320 B), and the analytic accounting
/// read 790 616 B after the run. Amortised growth of the partition map adds
/// 0.01 calls per event on both sides; calls are compared whole.
///
/// None of that is plan (the copies went in b7ea7c9's own change: 18 calls /
/// 1 783 B before it). It is the map entry and key, the partition's own
/// containers, and what the first vertex sets up. Under the run layout that
/// is the pane deque (4 × 64 B), the pane's run vector (48 B per state) and
/// the run's two vectors at their first capacity of four (rows 192 B,
/// aggregates 288 B) — in place of the slab (256 B), a 160 B deque, the tree
/// vector (24 B) and a B-tree leaf (232 B). The vectors are sized by their
/// first `push`, not ahead of it: a partition may cost a tenth more live
/// heap than the parent's, and no more calls. (Since the partition map is
/// probed once, by `entry`, the key moves into it instead of being cloned:
/// 8 calls, same bytes.)
///
/// Since partitions live in a slab probed by a hash read straight off the
/// event, a vertex-only event builds no key: it costs 0 calls and 0 B, down
/// from 1 call (the key vector, built and dropped). Only an opening event
/// still builds its key, which the slab keeps. An opening event makes 9.04
/// calls in all (9.01 before: the slab's key and partition vectors and its
/// index grow by doubling where one map did), and the difference to a
/// vertex-only event reads 9.04 calls / 1 119 B, against 8.01 / 1 155 B.
const PARENT_CALLS: f64 = 9.0;
const PARENT_BYTES: f64 = 1091.2;
/// What the engine reports after the run: 3 072 vertices at 48 B of row,
/// 72 B of aggregate and their event share, 1 024 panes at 64 B. The parent
/// read 790 616: a vertex stopped paying for a slab slot, a tree entry and
/// a window id per aggregate (64 B less), a pane holds its windows (24 B
/// more).
const MEMORY_BYTES: usize = 618_584;

#[test]
fn a_new_partition_carries_no_copy_of_the_plan() {
    const COMPANIES: u64 = 1024;
    let mut reg = SchemaRegistry::new();
    let stock = reg
        .register_type("Stock", &["price", "company", "sector"])
        .unwrap();
    let news = reg.register_type("News", &["company"]).unwrap();
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
    // The second and third vertex of a partition fit the capacity its runs
    // took at the first; neither grows anything.
    feed(&again);
    let vertex_only = feed(&settle);
    // The probe hashes and compares the event's own values: no key is built.
    assert_eq!(vertex_only, (0.0, 0.0), "a vertex-only event allocated");
    // A type outside the query is classified before any key is built: the
    // engine advances time, and the allocator is not called once.
    let foreign: Vec<EventRef> = (0..COMPANIES)
        .map(|c| {
            let t = Time(3 * COMPANIES + c);
            Event::new_unchecked(news, t, vec![Value::Int(c as i64)]).into_ref()
        })
        .collect();
    assert_eq!(feed(&foreign), (0.0, 0.0), "a foreign event allocated");
    let calls = with_partition.0 - vertex_only.0;
    let bytes = with_partition.1 - vertex_only.1;
    println!(
        "new partition: {calls:.2} calls / {bytes:.1} B beyond a vertex-only event \
         ({:.2} calls / {:.1} B); memory_bytes {}",
        vertex_only.0,
        vertex_only.1,
        eng.memory_bytes()
    );
    assert_eq!(eng.stats().events, 4 * COMPANIES);
    assert_eq!(eng.stats().vertices, 3 * COMPANIES);
    assert_eq!(eng.stats().edges, 0);
    assert_eq!(eng.partition_count() as u64, COMPANIES);
    assert!(
        calls.round() <= PARENT_CALLS,
        "{calls} calls, parent {PARENT_CALLS}"
    );
    assert!(
        bytes <= 1.1 * PARENT_BYTES,
        "{bytes} B, parent {PARENT_BYTES}"
    );
    assert_eq!(eng.memory_bytes(), MEMORY_BYTES);
}
