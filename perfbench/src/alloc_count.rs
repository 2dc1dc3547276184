//! A counting global allocator, attributed per thread.
//!
//! Counting is off until [`set_counting`] turns it on; until then every
//! call is one relaxed load and a call into `System`, so runs that do not
//! read the counts measure an uninstrumented server. While it is on,
//! every allocation made by a thread that has not called
//! [`exclude_current_thread`] is counted. The benchmark excludes its own
//! load-generating thread, so a delta across a load phase counts the
//! server's allocations only.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};

/// The system allocator plus two relaxed counters (statistics only: they
/// publish no other data).
pub struct Counting;

static ON: AtomicBool = AtomicBool::new(false);
static ALLOCS: AtomicU64 = AtomicU64::new(0);
static BYTES: AtomicU64 = AtomicU64::new(0);

thread_local! {
    // A `const` Cell<bool> has no destructor and needs no lazy set-up, so
    // reading it from inside the allocator never allocates or re-enters.
    static EXCLUDED: Cell<bool> = const { Cell::new(false) };
}

/// Whether counting is on and the calling thread's work is counted.
pub fn counts_current_thread() -> bool {
    ON.load(Ordering::Relaxed) && !EXCLUDED.with(Cell::get)
}

fn count(size: usize) {
    if counts_current_thread() {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        BYTES.fetch_add(size as u64, Ordering::Relaxed);
    }
}

// SAFETY: every method forwards the caller's pointer and layout unchanged
// to `System`, which upholds the `GlobalAlloc` contract; counting touches
// only atomics and a destructor-free thread-local.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count(layout.size());
        // SAFETY: forwarded verbatim; the caller upholds `alloc`'s contract.
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        count(layout.size());
        // SAFETY: forwarded verbatim; the caller upholds `alloc_zeroed`'s contract.
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count(new_size);
        // SAFETY: forwarded verbatim; the caller upholds `realloc`'s contract.
        unsafe { System.realloc(ptr, layout, new_size) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: forwarded verbatim; the caller upholds `dealloc`'s contract.
        unsafe { System.dealloc(ptr, layout) }
    }
}

/// Turns counting on or off for every thread (and the socket-call
/// counts of [`crate::syscalls`] with it).
pub fn set_counting(on: bool) {
    ON.store(on, Ordering::Relaxed);
}

/// Stops counting allocations made by the calling thread.
pub fn exclude_current_thread() {
    EXCLUDED.with(|e| e.set(true));
}

/// Allocations and requested bytes counted so far.
pub fn totals() -> (u64, u64) {
    (
        ALLOCS.load(Ordering::Relaxed),
        BYTES.load(Ordering::Relaxed),
    )
}
