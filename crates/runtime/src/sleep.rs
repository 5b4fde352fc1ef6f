//! Per-worker sleep slots and bounded exponential backoff.
//!
//! The pool's dispatch path used to wake workers through one global
//! `Mutex`/`Condvar` broadcast: every invocation woke *every* worker, even
//! those outside the invocation's node mask, and each of them fought over
//! the same mutex just to learn it had nothing to do. A taskloop confined
//! to 2 of 8 nodes on the EPYC preset paid 48 futile wakeups per launch.
//!
//! [`SleepSlot`] replaces that with an eventcount per worker: the
//! dispatcher publishes the new epoch into exactly the slots of the
//! workers it activates and unparks only those that are actually parked.
//! Workers spin briefly with [`Backoff`] before parking, since
//! back-to-back taskloops (the common case in iterative workloads) re-wake
//! them within microseconds.

use crossbeam_utils::CachePadded;
use std::sync::OnceLock;

// Under `--cfg loom` the slot's atomics and park/unpark run on the loom
// model-checker shims so the protocol can be exhaustively explored; see the
// `loom_model` test module. Outside a loom model the shims delegate to std,
// so a `--cfg loom` build still behaves normally.
#[cfg(not(loom))]
pub(crate) mod sys {
    pub(crate) use std::sync::atomic::{AtomicU32, AtomicU64, Ordering};
    pub(crate) use std::thread::{current, park, Thread};
}
#[cfg(loom)]
pub(crate) mod sys {
    pub(crate) use loom::sync::atomic::{AtomicU32, AtomicU64, Ordering};
    pub(crate) use loom::thread::{current, park, Thread};
}

use sys::{AtomicU32, AtomicU64, Ordering, Thread};

/// The current thread's parkable handle (std's, or loom's inside a model).
pub(crate) fn thread_current() -> Thread {
    sys::current()
}

/// Bounded exponential backoff for contended retry loops.
///
/// Spins with exponentially growing pause counts, then falls back to
/// `yield_now`, and reports completion so callers can escalate to parking.
/// Replaces the raw `spin_loop` retry loops the runtime used to run —
/// unbounded spinning burns the very cores the loop body needs, which on
/// an oversubscribed machine turns nanoseconds of contention into
/// milliseconds of scheduler thrash.
pub(crate) struct Backoff {
    step: u32,
}

impl Backoff {
    const SPIN_LIMIT: u32 = 6;
    const YIELD_LIMIT: u32 = 10;

    pub(crate) fn new() -> Self {
        Backoff { step: 0 }
    }

    /// One wait step: `2^step` pause instructions while spinning is cheap,
    /// a scheduler yield once it is not.
    pub(crate) fn snooze(&mut self) {
        if self.step <= Self::SPIN_LIMIT {
            for _ in 0..(1u32 << self.step) {
                std::hint::spin_loop();
            }
        } else {
            std::thread::yield_now();
        }
        if self.step <= Self::YIELD_LIMIT {
            self.step += 1;
        }
    }

    /// Whether the caller should stop snoozing and park instead.
    pub(crate) fn is_completed(&self) -> bool {
        // Under loom, spinning only multiplies the interleavings to
        // explore without changing reachability: park immediately.
        #[cfg(loom)]
        {
            true
        }
        #[cfg(not(loom))]
        {
            self.step > Self::YIELD_LIMIT
        }
    }
}

const AWAKE: u32 = 0;
const PARKED: u32 = 1;

/// One worker's wakeup slot: a published epoch plus park/unpark plumbing.
///
/// Protocol: the dispatcher writes all run state, then calls
/// [`post`](Self::post) with a fresh epoch on each slot it wants running.
/// The release store of the epoch paired with the worker's acquire load in
/// [`wait`](Self::wait) makes every prior write visible to the woken
/// worker. Workers the dispatcher skips sleep through the entire
/// invocation; their slot epoch simply jumps several steps the next time
/// they participate.
pub(crate) struct SleepSlot {
    /// Epoch this worker was last told to run. Padded: slots sit in one
    /// array and are written by the dispatcher while workers poll their
    /// own — sharing a line would ping-pong it across every wakeup.
    epoch: CachePadded<AtomicU64>,
    /// AWAKE / PARKED, owned by the worker, swapped by the dispatcher.
    state: AtomicU32,
    /// The worker's thread handle, registered once at startup.
    thread: OnceLock<Thread>,
}

impl SleepSlot {
    pub(crate) fn new() -> Self {
        SleepSlot {
            epoch: CachePadded::new(AtomicU64::new(0)),
            state: AtomicU32::new(AWAKE),
            thread: OnceLock::new(),
        }
    }

    /// Records the owning worker's thread handle. Must be called by the
    /// worker before the pool constructor returns (the ready latch orders
    /// this against the first dispatch).
    pub(crate) fn register(&self, thread: Thread) {
        let _ = self.thread.set(thread);
    }

    /// Publishes `epoch` and wakes the worker if it is parked.
    ///
    /// The epoch store is the publication point for all run state written
    /// before it; `SeqCst` also orders it against the worker's
    /// `state`-then-recheck sequence so a worker can never park after
    /// missing the new epoch.
    pub(crate) fn post(&self, epoch: u64) {
        self.epoch.store(epoch, Ordering::SeqCst);
        if self.state.swap(AWAKE, Ordering::SeqCst) == PARKED {
            if let Some(t) = self.thread.get() {
                t.unpark();
            }
        }
    }

    /// The currently published epoch (used by fault-injected stall loops to
    /// notice that a new invocation superseded the one they slept through).
    pub(crate) fn epoch(&self) -> u64 {
        self.epoch.load(Ordering::Acquire)
    }

    /// Blocks until the slot's epoch differs from `seen`, returning the new
    /// epoch. Spins with backoff first, then parks.
    pub(crate) fn wait(&self, seen: u64) -> u64 {
        let mut backoff = Backoff::new();
        loop {
            let e = self.epoch.load(Ordering::Acquire);
            if e != seen {
                return e;
            }
            if backoff.is_completed() {
                // Announce intent to park, then recheck: if the dispatcher
                // posted between the load above and here, its swap(AWAKE)
                // either sees PARKED (and unparks us — the token makes the
                // park below return immediately) or we see the new epoch in
                // the recheck and skip parking entirely.
                self.state.store(PARKED, Ordering::SeqCst);
                if self.epoch.load(Ordering::SeqCst) != seen {
                    self.state.store(AWAKE, Ordering::Relaxed);
                    continue;
                }
                sys::park();
                self.state.store(AWAKE, Ordering::SeqCst);
            } else {
                backoff.snooze();
            }
        }
    }
}

/// Exhaustive model of the eventcount protocol under targeted wakeups.
///
/// Run with `RUSTFLAGS="--cfg loom" cargo test -p ilan-runtime loom_model`.
/// The model is the exact code production uses — `post` racing `wait` —
/// not a transcription: a lost wakeup in any interleaving deadlocks the
/// join and fails the model with a deadlock report.
#[cfg(all(loom, test))]
mod loom_model {
    use super::*;
    use std::sync::Arc;

    #[test]
    fn targeted_post_never_loses_a_wakeup() {
        loom::model(|| {
            let slot = Arc::new(SleepSlot::new());
            let s2 = Arc::clone(&slot);
            let waiter = loom::thread::spawn(move || {
                s2.register(thread_current());
                s2.wait(0)
            });
            // The dispatcher side of a targeted wakeup: publish the new
            // epoch, then wake the worker iff it already parked.
            slot.post(1);
            assert_eq!(waiter.join().unwrap(), 1);
        });
    }

    #[test]
    fn back_to_back_posts_reach_a_slow_waiter() {
        // A worker that sat out an invocation must still observe the
        // latest epoch, whichever point of the protocol it parked at.
        loom::model(|| {
            let slot = Arc::new(SleepSlot::new());
            let s2 = Arc::clone(&slot);
            let waiter = loom::thread::spawn(move || {
                s2.register(thread_current());
                let e = s2.wait(0);
                assert!(e == 1 || e == 2, "stale epoch {e}");
                s2.wait(e.wrapping_sub(1)) // already-new epoch: no block
            });
            slot.post(1);
            slot.post(2);
            let last = waiter.join().unwrap();
            assert!(last == 1 || last == 2);
        });
    }
}

#[cfg(all(test, not(loom)))]
mod tests {
    use super::*;
    use std::sync::Arc;

    #[test]
    fn backoff_terminates() {
        let mut b = Backoff::new();
        for _ in 0..20 {
            if b.is_completed() {
                break;
            }
            b.snooze();
        }
        assert!(b.is_completed());
    }

    #[test]
    fn post_wakes_parked_waiter() {
        let slot = Arc::new(SleepSlot::new());
        let s2 = Arc::clone(&slot);
        let h = std::thread::spawn(move || {
            s2.register(std::thread::current());
            s2.wait(0)
        });
        // Give the waiter time to park, then post.
        std::thread::sleep(std::time::Duration::from_millis(20));
        slot.post(7);
        assert_eq!(h.join().unwrap(), 7);
    }

    #[test]
    fn wait_returns_immediately_on_stale_seen() {
        let slot = SleepSlot::new();
        slot.register(std::thread::current());
        slot.post(3);
        assert_eq!(slot.wait(0), 3);
        // Epochs may jump several steps for workers that sat out runs.
        slot.post(9);
        assert_eq!(slot.wait(3), 9);
    }

    #[test]
    fn post_before_park_is_not_lost() {
        // Post racing the waiter's park announcement must never deadlock.
        for round in 0..50u64 {
            let slot = Arc::new(SleepSlot::new());
            let s2 = Arc::clone(&slot);
            let h = std::thread::spawn(move || {
                s2.register(std::thread::current());
                s2.wait(0)
            });
            slot.post(round + 1);
            assert_eq!(h.join().unwrap(), round + 1);
        }
    }
}
