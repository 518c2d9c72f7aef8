//! Peak-allocation tracking for the fuzz harness.
//!
//! Corrupt input must never cost more memory than a small multiple of
//! its own size: a decoder that trusts a length field enough to
//! pre-allocate gigabytes is a denial-of-service bug even if it later
//! returns `Err`. The harness enforces this with a counting global
//! allocator: the `fuzz_smoke` and `store_stress` test binaries install
//! [`PeakAlloc`] via `#[global_allocator]`, and the layer runner resets
//! the peak before every decode call and checks the high-water mark
//! after. Beside the live size and its peak, the allocator counts
//! allocation calls and the bytes they asked for, which do not depend
//! on when another thread frees.
//!
//! The counters are module-level statics so measurement works from any
//! binary that installed the allocator; when it is not installed (for
//! example in the library's own unit tests) [`installed`] reports
//! `false` and callers skip the bound check. They are process-global,
//! so a test that reads them must not overlap another test of the same
//! binary: each test of those two binaries holds its file's one lock.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering::Relaxed};

static CURRENT: AtomicUsize = AtomicUsize::new(0);
static PEAK: AtomicUsize = AtomicUsize::new(0);
static CALLS: AtomicUsize = AtomicUsize::new(0);
static ALLOCATED: AtomicUsize = AtomicUsize::new(0);
static INSTALLED: AtomicBool = AtomicBool::new(false);

/// A [`System`]-backed allocator that maintains the number of live
/// heap bytes and their high-water mark since the last [`reset_peak`],
/// and counts every `alloc` and `realloc` call with the bytes it asked
/// for (a `realloc`'s new size).
pub struct PeakAlloc;

unsafe impl GlobalAlloc for PeakAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        INSTALLED.store(true, Relaxed);
        let ptr = unsafe { System.alloc(layout) };
        if !ptr.is_null() {
            bump(layout.size());
        }
        ptr
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        unsafe { System.dealloc(ptr, layout) };
        CURRENT.fetch_sub(layout.size(), Relaxed);
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        let ptr = unsafe { System.realloc(ptr, layout, new_size) };
        if !ptr.is_null() {
            CURRENT.fetch_sub(layout.size(), Relaxed);
            bump(new_size);
        }
        ptr
    }
}

fn bump(size: usize) {
    CALLS.fetch_add(1, Relaxed);
    ALLOCATED.fetch_add(size, Relaxed);
    let now = CURRENT.fetch_add(size, Relaxed) + size;
    PEAK.fetch_max(now, Relaxed);
}

/// Live heap bytes right now.
pub fn current() -> usize {
    CURRENT.load(Relaxed)
}

/// High-water mark of live heap bytes since the last [`reset_peak`].
pub fn peak() -> usize {
    PEAK.load(Relaxed)
}

/// Allocation calls (`alloc` and `realloc`) since the process started.
pub fn calls() -> usize {
    CALLS.load(Relaxed)
}

/// Bytes asked for by those calls since the process started.
pub fn allocated() -> usize {
    ALLOCATED.load(Relaxed)
}

/// Restart peak tracking from the current live size.
pub fn reset_peak() {
    PEAK.store(CURRENT.load(Relaxed), Relaxed);
}

/// Whether [`PeakAlloc`] is this process's global allocator (detected
/// by having seen at least one allocation).
pub fn installed() -> bool {
    INSTALLED.load(Relaxed)
}
