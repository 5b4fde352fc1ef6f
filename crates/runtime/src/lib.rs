//! A native work-stealing task runtime with NUMA-hierarchical scheduling.
//!
//! This crate re-implements, in Rust, the scheduler-visible behaviour of the
//! LLVM OpenMP tasking layer that the ILAN paper extends:
//!
//! * a pool of worker threads pinned 1:1 to cores (when the OS allows),
//! * `taskloop`-style execution: an iteration range is partitioned into
//!   chunks, each chunk becomes a task,
//! * three execution modes matching the paper's comparison points:
//!   - [`ExecMode::Flat`] — the default LLVM tasking baseline: one shared
//!     cursor, every worker takes any chunk (random placement in effect);
//!   - [`ExecMode::Hierarchical`] — ILAN's mode: chunks are pre-assigned to
//!     NUMA nodes, each node's share one contiguous range behind a per-node
//!     cursor; an initial fraction is NUMA-strict, the tail may be stolen by
//!     fully idle remote nodes (`full` steal policy) or not at all
//!     (`strict`);
//!   - [`ExecMode::WorkSharing`] — OpenMP `for schedule(static)`: fixed
//!     contiguous slices per worker, no queues, no stealing.
//!
//! A loop runs through one of three entry points — [`ThreadPool::taskloop`],
//! [`ThreadPool::taskloop_into`] (reusing the caller's report) and
//! [`ThreadPool::taskloop_traced`] (returning the event log) — each taking
//! a plain `grainsize`. A dispatched invocation is four phases of the
//! dispatcher: fill the arena, post the wakeups, wait (working its own
//! slot), collect.
//!
//! The runtime reports per-invocation statistics ([`LoopReport`]) — makespan,
//! per-node busy time, scheduling overhead, migrations — which is exactly the
//! feedback ILAN's Performance Trace Table consumes. Each chunk is counted
//! once, when it is acquired: a local pop on its home node or an
//! inter-node steal. The report and the acquisition counters of
//! [`PoolMetrics`] both derive from that one tally. The placement itself —
//! [`ExecMode`] and the rules that resolve it into active cores, per-node
//! chunk ranges and strict prefixes — is defined in
//! [`ilan_topology::placement`], which the simulator executes from too. The policy
//! side (choosing thread counts, node masks and steal policies) lives in
//! the `ilan` crate; this crate only executes.
//!
//! # Example
//!
//! ```
//! use ilan_runtime::{ThreadPool, PoolConfig, ExecMode};
//! use ilan_topology::presets;
//! use std::sync::atomic::{AtomicUsize, Ordering};
//!
//! // A small pool (oversubscription is fine for functional use).
//! let pool = ThreadPool::new(PoolConfig::new(presets::smp(4))).unwrap();
//! let sum = AtomicUsize::new(0);
//! let report = pool.taskloop(0..1000, 16, ExecMode::Flat, |range| {
//!     sum.fetch_add(range.sum::<usize>(), Ordering::Relaxed);
//! });
//! assert_eq!(sum.load(Ordering::Relaxed), 999 * 1000 / 2);
//! assert_eq!(report.tasks_executed(), 63); // ceil(1000/16)
//! ```

#![warn(missing_docs)]

mod chunk;
mod latch;
pub mod metrics;
mod pin;
mod pool;
mod report;
mod sleep;

pub use chunk::chunk_ranges;
/// The placement description a taskloop takes, defined with its rules in
/// [`ilan_topology::placement`].
pub use ilan_topology::{ExecMode, StealPolicy};
pub use metrics::{PoolMetrics, TAIL_FACTOR, TAIL_MIN_SAMPLES};
pub use pin::{pin_current_thread, PinMode};
pub use pool::{PoolConfig, PoolError, ThreadPool, DEFAULT_INLINE_THRESHOLD, DEFAULT_WATCHDOG};
pub use report::{LoopReport, NodeReport};

/// Event-tracing layer (re-exported): [`trace::EventLog`] is what the traced
/// taskloop variants return.
pub use ilan_trace as trace;

/// Metrics layer (re-exported): counters, histograms, registries and the
/// flight-recorder types the pool's [`PoolMetrics`] is built from.
pub use ilan_metrics as metrics_core;
