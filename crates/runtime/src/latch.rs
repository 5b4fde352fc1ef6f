//! A counting completion latch.
//!
//! The caller of a taskloop, once its own share of the chunks is done,
//! blocks on the latch until every other team member has finished. Each
//! member — the caller included — decrements once; the final decrement
//! wakes the waiter. Uses a bounded-backoff spin phase before parking,
//! since taskloop tails are usually short. The latch is resettable so one
//! instance can serve every invocation of a pool's lifetime (the dispatch
//! arena owns exactly one).

use crate::sleep::Backoff;
use parking_lot::{Condvar, Mutex};
use std::sync::atomic::{AtomicUsize, Ordering};

/// Counts outstanding chunks; wakes waiters when the count reaches zero.
pub(crate) struct CountLatch {
    remaining: AtomicUsize,
    mutex: Mutex<()>,
    cond: Condvar,
}

impl CountLatch {
    pub(crate) fn new(count: usize) -> Self {
        CountLatch {
            remaining: AtomicUsize::new(count),
            mutex: Mutex::new(()),
            cond: Condvar::new(),
        }
    }

    /// Re-arms a released latch to `count`. Must only be called when no
    /// waiter is blocked and no decrement is in flight (the dispatcher
    /// resets between invocations, after the previous wait returned).
    pub(crate) fn reset(&self, count: usize) {
        debug_assert!(
            self.is_released(),
            "resetting a latch that still has outstanding counts"
        );
        self.remaining.store(count, Ordering::Release);
    }

    /// Decrements the counter by one; the decrement that reaches zero
    /// notifies all waiters.
    pub(crate) fn count_down(&self) {
        let prev = self.remaining.fetch_sub(1, Ordering::AcqRel);
        debug_assert!(prev > 0, "latch decremented below zero");
        if prev == 1 {
            // Take the lock to pair with the waiter's check-then-sleep.
            let _guard = self.mutex.lock();
            self.cond.notify_all();
        }
    }

    /// Whether the latch has already released.
    pub(crate) fn is_released(&self) -> bool {
        self.remaining.load(Ordering::Acquire) == 0
    }

    /// Blocks until the counter reaches zero.
    pub(crate) fn wait(&self) {
        // Fast path + bounded backoff: most loops finish while the caller
        // is hot, but unbounded spinning would steal cycles from the very
        // workers being waited on.
        let mut backoff = Backoff::new();
        while !backoff.is_completed() {
            if self.is_released() {
                return;
            }
            backoff.snooze();
        }
        let mut guard = self.mutex.lock();
        while !self.is_released() {
            self.cond.wait(&mut guard);
        }
    }

    /// Blocks until the counter reaches zero or `timeout` elapses. Returns
    /// whether the latch released — `false` means the deadline fired first
    /// (the watchdog's cue to inspect progress and escalate).
    pub(crate) fn wait_for(&self, timeout: std::time::Duration) -> bool {
        let mut backoff = Backoff::new();
        while !backoff.is_completed() {
            if self.is_released() {
                return true;
            }
            backoff.snooze();
        }
        let deadline = std::time::Instant::now() + timeout;
        let mut guard = self.mutex.lock();
        while !self.is_released() {
            let now = std::time::Instant::now();
            if now >= deadline {
                return self.is_released();
            }
            if self.cond.wait_for(&mut guard, deadline - now).timed_out() {
                return self.is_released();
            }
        }
        true
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;

    #[test]
    fn zero_count_is_released_immediately() {
        let l = CountLatch::new(0);
        assert!(l.is_released());
        l.wait(); // must not block
    }

    #[test]
    fn releases_after_n_decrements() {
        let l = CountLatch::new(3);
        l.count_down();
        l.count_down();
        assert!(!l.is_released());
        l.count_down();
        assert!(l.is_released());
    }

    #[test]
    fn reset_rearms_released_latch() {
        let l = CountLatch::new(1);
        l.count_down();
        assert!(l.is_released());
        l.reset(2);
        assert!(!l.is_released());
        l.count_down();
        l.count_down();
        assert!(l.is_released());
        l.wait();
    }

    #[test]
    fn wait_for_times_out_then_succeeds() {
        let l = CountLatch::new(1);
        assert!(!l.wait_for(std::time::Duration::from_millis(5)));
        l.count_down();
        assert!(l.wait_for(std::time::Duration::from_millis(5)));
    }

    #[test]
    fn cross_thread_wait() {
        let l = Arc::new(CountLatch::new(4));
        let l2 = Arc::clone(&l);
        let h = std::thread::spawn(move || {
            for _ in 0..4 {
                std::thread::yield_now();
                l2.count_down();
            }
        });
        l.wait();
        assert!(l.is_released());
        h.join().unwrap();
    }
}
