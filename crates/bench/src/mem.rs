//! Memory accounting for the workload binaries: peak RSS plus heap
//! allocation counters, reported into `--bench-out` records so the
//! scale benchmarks (`BENCH_scale.json`, `BENCH_evolution.json`) carry
//! a memory budget next to their wall-clock numbers.
//!
//! Two independent sources feed one [`MemoryReport`]:
//!
//! - **Peak RSS** comes from the kernel (`VmHWM` in
//!   `/proc/self/status`), so it covers everything the process ever
//!   held resident — heap, stacks, mapped files. On non-Linux hosts it
//!   reads as zero rather than failing.
//! - **Allocation counts** come from [`CountingAllocator`], a thin
//!   [`GlobalAlloc`] shim over [`System`] that a binary opts into with
//!   `#[global_allocator]`. The counters make "allocation-free rounds"
//!   checkable: a steady-state round that mallocs shows up as a
//!   non-flat `allocations` delta, which is how the allocation-free
//!   claim of the raw-speed pass is validated rather than asserted.
//!
//! This is the one module in the workspace allowed to use `unsafe`
//! (the crate is `deny(unsafe_code)`, the workspace `forbid`s it):
//! [`GlobalAlloc`] is an unsafe trait by definition. The shim adds no
//! invariants of its own — every method delegates verbatim to
//! [`System`] after bumping two relaxed atomics.
#![allow(unsafe_code)]

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};

use serde::Serialize;

static ALLOCATIONS: AtomicU64 = AtomicU64::new(0);
static ALLOCATED_BYTES: AtomicU64 = AtomicU64::new(0);

/// Counting [`GlobalAlloc`] over [`System`]: every `alloc`/`realloc`
/// bumps a process-wide allocation counter and a cumulative byte
/// counter (both relaxed — the counters are telemetry, not
/// synchronization). Install in a binary with:
///
/// ```ignore
/// #[global_allocator]
/// static ALLOC: pan_bench::CountingAllocator = pan_bench::CountingAllocator;
/// ```
#[derive(Debug, Clone, Copy, Default)]
pub struct CountingAllocator;

unsafe impl GlobalAlloc for CountingAllocator {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        ALLOCATED_BYTES.fetch_add(layout.size() as u64, Ordering::Relaxed);
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        ALLOCATED_BYTES.fetch_add(layout.size() as u64, Ordering::Relaxed);
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        ALLOCATED_BYTES.fetch_add(
            new_size.saturating_sub(layout.size()) as u64,
            Ordering::Relaxed,
        );
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

/// Heap counters since process start: `(allocations, cumulative bytes
/// requested)`. Both read zero unless the binary installed
/// [`CountingAllocator`] as its `#[global_allocator]`.
#[must_use]
pub fn allocation_counts() -> (u64, u64) {
    (
        ALLOCATIONS.load(Ordering::Relaxed),
        ALLOCATED_BYTES.load(Ordering::Relaxed),
    )
}

/// Peak resident set size of this process in bytes — `VmHWM` from
/// `/proc/self/status` on Linux, `0` where the procfs field is
/// unavailable (the record stays well-formed off-Linux; consumers
/// treat zero as "not measured").
#[must_use]
pub fn peak_rss_bytes() -> u64 {
    let Ok(status) = std::fs::read_to_string("/proc/self/status") else {
        return 0;
    };
    for line in status.lines() {
        if let Some(rest) = line.strip_prefix("VmHWM:") {
            let kib: u64 = rest
                .trim()
                .trim_end_matches("kB")
                .trim()
                .parse()
                .unwrap_or(0);
            return kib * 1024;
        }
    }
    0
}

/// The memory section of a bench record: kernel peak RSS plus the heap
/// counters at capture time. Captured once, right after the timed work,
/// so `BENCH_*.json` carries the budget the run actually needed.
#[derive(Debug, Clone, Copy, Serialize)]
pub struct MemoryReport {
    /// Peak resident set size in bytes (`VmHWM`; 0 = not measured).
    pub peak_rss_bytes: u64,
    /// Heap allocations since process start (0 unless the binary
    /// installed [`CountingAllocator`]).
    pub allocations: u64,
    /// Cumulative bytes requested from the heap since process start
    /// (same caveat).
    pub allocated_bytes: u64,
}

impl MemoryReport {
    /// Snapshots both sources now.
    #[must_use]
    pub fn capture() -> MemoryReport {
        let (allocations, allocated_bytes) = allocation_counts();
        MemoryReport {
            peak_rss_bytes: peak_rss_bytes(),
            allocations,
            allocated_bytes,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Serializes the tests that read the process-wide allocation
    /// counters: the test harness runs tests on parallel threads, and
    /// one test bumping the counters between another's two reads made
    /// that one fail at random.
    static COUNTERS: std::sync::Mutex<()> = std::sync::Mutex::new(());

    #[test]
    fn peak_rss_is_measured_on_linux() {
        let peak = peak_rss_bytes();
        if cfg!(target_os = "linux") {
            // A running test process has certainly held a page.
            assert!(peak > 0, "VmHWM should parse to a positive figure");
        }
    }

    #[test]
    fn capture_is_coherent() {
        let _counters = COUNTERS
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner);
        let report = MemoryReport::capture();
        // The test harness does not install the counting allocator, so
        // the counters stay at zero — the capture must still be
        // well-formed and serializable.
        assert_eq!(report.allocations, allocation_counts().0);
        let json = serde_json::to_string(&report).unwrap();
        assert!(json.contains("peak_rss_bytes"), "{json}");
    }

    #[test]
    fn counting_allocator_counts_what_it_serves() {
        let alloc = CountingAllocator;
        let layout = Layout::from_size_align(64, 8).unwrap();
        let _counters = COUNTERS
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner);
        let before = allocation_counts();
        // Drive the shim directly (it is not the harness's global
        // allocator): one alloc must bump the counter by exactly one
        // and the byte counter by the layout size.
        unsafe {
            let ptr = alloc.alloc(layout);
            assert!(!ptr.is_null());
            alloc.dealloc(ptr, layout);
        }
        let after = allocation_counts();
        assert_eq!(after.0, before.0 + 1);
        assert_eq!(after.1, before.1 + 64);
    }
}
