//! A counting global allocator: the dynamic twin of the `hot-path` lint.
//!
//! Installed as the process allocator in `main.rs`. Until [`start`] is
//! called it adds one relaxed load per allocation and counts nothing, so the
//! untraced run pays (almost) nothing for it.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering::Relaxed};

pub struct Counting;

// Relaxed throughout: the counters are statistics and publish no other data.
static ON: AtomicBool = AtomicBool::new(false);
static COUNT: AtomicU64 = AtomicU64::new(0);
static BYTES: AtomicU64 = AtomicU64::new(0);

fn note(bytes: usize) {
    if ON.load(Relaxed) {
        COUNT.fetch_add(1, Relaxed);
        BYTES.fetch_add(bytes as u64, Relaxed);
    }
}

// SAFETY: every method forwards its arguments unchanged to `System`, which
// upholds the `GlobalAlloc` contract; the counters touch no allocator state.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        note(layout.size());
        // SAFETY: the caller's obligations are passed on as they are.
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        note(layout.size());
        // SAFETY: as above.
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        note(new_size);
        // SAFETY: as above.
        unsafe { System.realloc(ptr, layout, new_size) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: as above.
        unsafe { System.dealloc(ptr, layout) }
    }
}

/// Allocations and bytes requested, process-wide, since [`start`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Counts {
    pub count: u64,
    pub bytes: u64,
}

/// Start counting and return the current totals, or `None` when this
/// allocator is not the one serving the process (a probe allocation does not
/// move the counter): the caller then omits the metric.
pub fn start() -> Option<Counts> {
    ON.store(true, Relaxed);
    let before = COUNT.load(Relaxed);
    drop(std::hint::black_box(Box::new(0u64)));
    (COUNT.load(Relaxed) > before).then(now)
}

pub fn stop() {
    ON.store(false, Relaxed);
}

fn now() -> Counts {
    Counts {
        count: COUNT.load(Relaxed),
        bytes: BYTES.load(Relaxed),
    }
}

/// Totals accumulated since `since` (a value [`start`] returned).
pub fn since(since: Counts) -> Counts {
    let n = now();
    Counts {
        count: n.count - since.count,
        bytes: n.bytes - since.bytes,
    }
}
