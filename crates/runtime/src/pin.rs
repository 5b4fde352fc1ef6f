//! Thread-to-core pinning.
//!
//! ILAN requires 1:1 thread-to-core pinning so that its Performance Trace
//! Table can attribute timing differences to physical compute domains
//! (paper §3.5). On Linux we use `sched_setaffinity`; elsewhere, or when the
//! requested core does not exist (e.g. simulating a 64-core machine on a
//! laptop), pinning degrades gracefully according to the [`PinMode`].

use ilan_topology::CoreId;

/// Pinning behaviour of a thread pool.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Default)]
pub enum PinMode {
    /// Pin each worker to its core when the OS exposes that core; silently
    /// leave workers unpinned otherwise. The default, and the right choice
    /// for functional testing on small machines.
    #[default]
    Auto,
    /// Never pin. Useful for benchmarking the runtime's scheduling logic in
    /// isolation from placement effects.
    Never,
    /// Require pinning: pool construction fails if any worker cannot be
    /// pinned. Use on the real target machine.
    Require,
}

/// Attempts to pin the calling thread to `core`. Returns whether the pin
/// took effect.
pub fn pin_current_thread(core: CoreId) -> bool {
    pin_impl(core)
}

thread_local! {
    /// The core this thread last bound itself to as a taskloop's caller.
    static CALLER_CORE: std::cell::Cell<Option<usize>> = const { std::cell::Cell::new(None) };
}

/// Binds the calling thread to `core` for its share of a taskloop, like an
/// OpenMP primary thread bound to its place. The binding is kept after the
/// loop, so back-to-back loops from the same slot pay no system call; a
/// failed attempt is remembered too and not retried for the same core.
pub(crate) fn bind_caller(core: CoreId) {
    CALLER_CORE.with(|bound| {
        if bound.get() != Some(core.index()) {
            pin_impl(core);
            bound.set(Some(core.index()));
        }
    });
}

#[cfg(target_os = "linux")]
fn pin_impl(core: CoreId) -> bool {
    // SAFETY: cpu_set_t is a plain bitmask struct; CPU_* are the glibc
    // macros re-exported by libc as inline functions. sched_setaffinity with
    // pid 0 affects only the calling thread.
    unsafe {
        let mut set: libc::cpu_set_t = std::mem::zeroed();
        if core.index() >= libc::CPU_SETSIZE as usize {
            return false;
        }
        libc::CPU_SET(core.index(), &mut set);
        libc::sched_setaffinity(0, std::mem::size_of::<libc::cpu_set_t>(), &set) == 0
    }
}

#[cfg(not(target_os = "linux"))]
fn pin_impl(_core: CoreId) -> bool {
    false
}

/// Number of CPUs the OS will let us pin to (0 if undeterminable).
#[cfg_attr(not(test), allow(dead_code))]
pub(crate) fn online_cpus() -> usize {
    std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pin_to_core_zero_succeeds_on_linux() {
        if cfg!(target_os = "linux") {
            assert!(pin_current_thread(CoreId::new(0)));
        }
    }

    #[test]
    fn pin_to_absent_core_fails() {
        // Core 100000 exceeds CPU_SETSIZE and any real machine.
        assert!(!pin_current_thread(CoreId::new(100_000)));
    }

    #[test]
    fn online_cpus_positive() {
        assert!(online_cpus() >= 1);
    }

    #[test]
    fn default_mode_is_auto() {
        assert_eq!(PinMode::default(), PinMode::Auto);
    }
}
