//! What the reorder buffer allocates per event, through the public API
//! only, with a counting allocator: nothing, once it has grown to its
//! backlog — in order at slack 0, and disordered within a slack of 256.
//!
//! `push_into` is a hot-path function (`#[deny(clippy::disallowed_methods,
//! …)]`), but the ban list names calls, not allocations: a `Vec` created
//! per stamp inside a map entry passes the lint. This file counts instead.
//!
//! The counting allocator is process-wide, so this file holds exactly one
//! test (the harness would run two concurrently).

use greta::core::ReorderBuffer;
use greta::types::{Event, EventRef, Time, TypeId, Value};
use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};

struct Counting;

/// Calls that obtain memory (`alloc` + `realloc`).
static CALLS: AtomicU64 = AtomicU64::new(0);

// SAFETY: every call is forwarded unchanged to `System`; the counter is a
// statistic and publishes no other data.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, l: Layout) -> *mut u8 {
        CALLS.fetch_add(1, Ordering::Relaxed);
        System.alloc(l)
    }
    unsafe fn dealloc(&self, p: *mut u8, l: Layout) {
        System.dealloc(p, l)
    }
    unsafe fn realloc(&self, p: *mut u8, l: Layout, new: usize) -> *mut u8 {
        CALLS.fetch_add(1, Ordering::Relaxed);
        System.realloc(p, l, new)
    }
}

#[global_allocator]
static ALLOC: Counting = Counting;

/// Events stamped `stamps`, allocated before anything is counted.
fn events(stamps: impl Iterator<Item = u64>) -> Vec<EventRef> {
    let ev = |(i, t)| Event::new_unchecked(TypeId(0), Time(t), vec![Value::Int(i)]).into_ref();
    (0..).zip(stamps).map(ev).collect()
}

/// Allocator calls while `buf` takes `arrivals`, each release batch
/// collected into one scratch vector the caller reuses (the executor's
/// pattern), after a warm-up on the first `warm` arrivals.
fn calls_once_warm(mut buf: ReorderBuffer, arrivals: Vec<EventRef>, warm: usize) -> u64 {
    let mut out = Vec::with_capacity(1024);
    let mut arrivals = arrivals.into_iter();
    for e in arrivals.by_ref().take(warm) {
        out.clear();
        buf.push_into(e, &mut out).expect("within slack");
    }
    let before = CALLS.load(Ordering::Relaxed);
    for e in arrivals {
        out.clear();
        buf.push_into(e, &mut out).expect("within slack");
    }
    CALLS.load(Ordering::Relaxed) - before
}

#[test]
fn a_warm_reorder_buffer_allocates_nothing_per_event() {
    const N: u64 = 40_000;
    // In order at slack 0, three events per stamp: each push releases the
    // stamp before it.
    let in_order = events((0..N).map(|i| i / 3));
    let calls = calls_once_warm(ReorderBuffer::new(0), in_order, 3_000);
    assert_eq!(
        calls, 0,
        "in order at slack 0: {calls} calls over 37 000 events"
    );

    // Blocks of 128 consecutive stamps arrive in reverse, so every event
    // but a block's first goes in ahead of what is buffered, at most 127
    // ticks behind the highest stamp seen: none is late at slack 256, and
    // the backlog stays under 256 + 128 events.
    let disordered = events((0..N).map(|i| (i / 128) * 128 + 127 - i % 128));
    let calls = calls_once_warm(ReorderBuffer::new(256), disordered, 3_000);
    assert_eq!(
        calls, 0,
        "disordered within slack 256: {calls} calls over 37 000 events"
    );
}
