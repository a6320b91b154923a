//! A counting global allocator: live and peak heap bytes per thread, so a
//! run's host memory can be measured as the growth of the peak over the
//! run.
//!
//! Heap accounting is used rather than resident-set growth because the
//! system allocator keeps freed pages: once one run has finished, later
//! runs reuse its pages, and their peak-RSS growth reads 0–1 MB where the
//! heap peak rises by about 200 MB (`pr-evict`).

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

/// The process allocator: [`System`] plus per-thread byte counters.
pub struct Counting;

// Per thread, so that concurrent sweep cells each see their own peak.
// Memory freed on another thread than it was allocated on can drive a
// thread's live count below zero; only growth over a baseline is read.
thread_local! {
    static LIVE: Cell<isize> = const { Cell::new(0) };
    static PEAK: Cell<isize> = const { Cell::new(0) };
}

fn grew(bytes: usize) {
    // `try_with` rather than `with`: never panic inside the allocator.
    let _ = LIVE.try_with(|live| {
        let now = live.get() + bytes as isize;
        live.set(now);
        let _ = PEAK.try_with(|peak| peak.set(peak.get().max(now)));
    });
}

fn shrank(bytes: usize) {
    let _ = LIVE.try_with(|live| live.set(live.get() - bytes as isize));
}

// SAFETY: every method forwards its arguments unchanged to `System`, which
// upholds the `GlobalAlloc` contract; the counter updates touch no memory
// the allocator hands out.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        // SAFETY: the caller's obligations on `layout` pass through.
        let p = unsafe { System.alloc(layout) };
        if !p.is_null() {
            grew(layout.size());
        }
        p
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        // SAFETY: as for `alloc`.
        let p = unsafe { System.alloc_zeroed(layout) };
        if !p.is_null() {
            grew(layout.size());
        }
        p
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` came from this allocator, hence from `System`,
        // with this `layout`.
        unsafe { System.dealloc(ptr, layout) };
        shrank(layout.size());
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        // SAFETY: as for `dealloc`; `new_size` is the caller's.
        let p = unsafe { System.realloc(ptr, layout, new_size) };
        if !p.is_null() {
            shrank(layout.size());
            grew(new_size);
        }
        p
    }
}

/// Resets this thread's peak to its current live bytes and returns them:
/// the baseline for [`peak_growth_mb`].
pub fn reset_peak() -> isize {
    let live = LIVE.with(Cell::get);
    PEAK.with(|peak| peak.set(live));
    live
}

/// Megabytes (2^20 bytes) by which this thread's peak rose above
/// `baseline`.
pub fn peak_growth_mb(baseline: isize) -> f64 {
    (PEAK.with(Cell::get) - baseline).max(0) as f64 / f64::from(1 << 20)
}
