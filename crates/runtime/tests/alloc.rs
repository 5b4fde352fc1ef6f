//! Zero-allocation assertion for the warm dispatch path.
//!
//! The dispatch arena exists so that a warm `taskloop` — one whose pool has
//! already executed a loop of the same shape — performs **no heap
//! allocation** on the dispatching thread: chunk table, cursors, sleep
//! tokens, latch and report are all reused. This test installs a counting
//! global allocator and proves it.
//!
//! Counting is thread-scoped (const-initialised TLS, so the counter itself
//! never allocates): worker threads may allocate freely without tripping the
//! assertion, but the dispatch path runs on this test's thread and must stay
//! clean — including the chunks this thread executes as the primary thread
//! of each team (its cursor claims and remote steal sweeps).

use ilan_runtime::{ExecMode, LoopReport, PinMode, PoolConfig, StealPolicy, ThreadPool};
use ilan_topology::presets;
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::sync::atomic::{AtomicUsize, Ordering};

thread_local! {
    static TRACKING: Cell<bool> = const { Cell::new(false) };
    static ALLOCS: Cell<usize> = const { Cell::new(0) };
}

struct CountingAlloc;

impl CountingAlloc {
    fn note(&self) {
        if TRACKING.with(Cell::get) {
            ALLOCS.with(|a| a.set(a.get() + 1));
        }
    }
}

// SAFETY: delegates verbatim to `System`; the TLS bookkeeping does not
// allocate (const-initialised cells).
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        self.note();
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        self.note();
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        self.note();
        unsafe { System.realloc(ptr, layout, new_size) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static ALLOCATOR: CountingAlloc = CountingAlloc;

/// Runs `f` with this thread's allocations counted, returning the count.
fn count_allocs(f: impl FnOnce()) -> usize {
    ALLOCS.with(|a| a.set(0));
    TRACKING.with(|t| t.set(true));
    f();
    TRACKING.with(|t| t.set(false));
    ALLOCS.with(Cell::get)
}

#[test]
fn warm_taskloop_dispatch_path_does_not_allocate() {
    let p = ThreadPool::new(PoolConfig::new(presets::tiny_2x4()).pin(PinMode::Never)).unwrap();
    let mask = p.topology().all_nodes();
    let sum = AtomicUsize::new(0);
    let modes = [
        ExecMode::Flat,
        ExecMode::WorkSharing,
        ExecMode::Hierarchical {
            mask,
            threads: 0,
            strict_fraction: 1.0,
            policy: StealPolicy::Strict,
        },
        ExecMode::Hierarchical {
            mask,
            threads: 0,
            strict_fraction: 0.5,
            policy: StealPolicy::Full,
        },
        // One worker per node: the dispatcher works node 0's share itself,
        // stealing across nodes once its own cursor runs dry.
        ExecMode::Hierarchical {
            mask,
            threads: 2,
            strict_fraction: 0.5,
            policy: StealPolicy::Full,
        },
    ];
    let mut report = LoopReport::default();
    let body = |r: std::ops::Range<usize>| {
        sum.fetch_add(r.len(), Ordering::Relaxed);
    };

    // Warm-up: every mode once, same loop shape as the measured runs, so
    // the arena's chunk table, trace rings and report vectors reach
    // their steady-state capacity.
    for mode in &modes {
        p.taskloop_into(0..4096, 16, mode.clone(), body, &mut report);
    }

    for mode in &modes {
        sum.store(0, Ordering::Relaxed);
        let allocs = count_allocs(|| {
            p.taskloop_into(0..4096, 16, mode.clone(), body, &mut report);
        });
        assert_eq!(sum.load(Ordering::Relaxed), 4096, "mode {mode:?} lost work");
        assert_eq!(report.tasks_executed(), 256);
        assert_eq!(
            allocs, 0,
            "warm dispatch allocated {allocs} times under {mode:?}"
        );
    }
}

#[test]
fn warm_inline_fast_path_does_not_allocate() {
    let p = ThreadPool::new(PoolConfig::new(presets::tiny_2x4()).pin(PinMode::Never)).unwrap();
    let sum = AtomicUsize::new(0);
    let mut report = LoopReport::default();
    let body = |r: std::ops::Range<usize>| {
        sum.fetch_add(r.len(), Ordering::Relaxed);
    };
    // One warm-up to size the report's node vector.
    p.taskloop_into(0..16, 4, ExecMode::Flat, body, &mut report);

    sum.store(0, Ordering::Relaxed);
    let allocs = count_allocs(|| {
        p.taskloop_into(0..16, 4, ExecMode::Flat, body, &mut report);
    });
    assert_eq!(sum.load(Ordering::Relaxed), 16);
    assert_eq!(report.threads, 1, "small loop must take the inline path");
    assert_eq!(allocs, 0, "inline fast path allocated {allocs} times");
}
