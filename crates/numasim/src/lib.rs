//! A deterministic simulator of a NUMA machine for scheduler research.
//!
//! The ILAN paper evaluates on a 64-core AMD EPYC 9354 node. This environment
//! has one core and one NUMA node, so the repository substitutes a *fluid-rate
//! discrete-event simulation* of that machine: tasks progress at rates derived
//! from a roofline-style cost model, and the rates are recomputed whenever the
//! machine state changes (a task starts or finishes, a noise window opens).
//!
//! The simulator reproduces the first-order phenomena the ILAN scheduler
//! exploits:
//!
//! * **Locality** — a task accessing memory on a remote NUMA node pays a
//!   latency factor derived from the topology's SLIT distance matrix
//!   (damped by the workload's latency sensitivity, since hardware
//!   prefetching hides part of the latency for streaming access).
//! * **Interference** — each NUMA node's memory controller and each
//!   inter-socket link has finite bandwidth; when aggregate demand exceeds it,
//!   all tasks sharing the resource slow down proportionally, *plus* an
//!   overload penalty modelling queueing and row-buffer thrash. This creates
//!   an interior-optimum thread count for bandwidth-bound loops — the effect
//!   moldability exploits.
//! * **Cache reuse** — a chunk that executes on the NUMA node holding its data
//!   enjoys an L3 reuse discount when its per-node working set fits in the
//!   node's aggregate L3, modelling the cross-timestep reuse that makes
//!   deterministic hierarchical placement profitable.
//! * **Dynamic asymmetry** — seeded per-core frequency jitter and rare
//!   node-wide outlier windows reproduce the variance mechanisms the paper
//!   names (DVFS, external system noise).
//!
//! [`SimMachine`] executes one *taskloop invocation* at a time: the caller
//! provides the loop's [`ExecMode`](ilan_topology::ExecMode) — the
//! placement description the native runtime executes too (flat baseline
//! pool, hierarchical per-node pools with a NUMA-strict fraction, or static
//! work-sharing slices), resolved by the same rules of
//! [`ilan_topology::placement`] — the nodes a flat or work-sharing loop
//! spans, and the task chunks; it returns a [`LoopOutcome`] with the
//! makespan, per-node performance, and accumulated scheduling overhead.
//! [`ColoMachine`] runs several tenants' invocations concurrently on one
//! machine. There is one event loop: a `SimMachine` is a `ColoMachine` with
//! a single lane. Scheduling *policy* (which mode, how many threads) lives
//! in the `ilan` crate — this crate is purely the machine.
//!
//! # Example
//!
//! ```
//! use ilan_numasim::{MachineParams, SimMachine, TaskSpec, Locality};
//! use ilan_topology::{presets, ExecMode};
//!
//! let topo = presets::tiny_2x4();
//! let params = MachineParams::for_topology(&topo);
//! let mut machine = SimMachine::new(params, 42);
//!
//! // 64 identical chunks, data blocked across both nodes.
//! let tasks: Vec<TaskSpec> = (0..64)
//!     .map(|i| TaskSpec {
//!         compute_ns: 10_000.0,
//!         mem_bytes: 100_000.0,
//!         home_node: ilan_topology::NodeId::new(if i < 32 { 0 } else { 1 }),
//!         locality: Locality::Chunked,
//!         data_mask: machine.topology().all_nodes(),
//!         cache_reuse: 0.3,
//!         fits_l3: true,
//!     })
//!     .collect();
//!
//! let all = machine.topology().all_nodes();
//! let outcome = machine.run_taskloop(all, &ExecMode::Flat, &tasks);
//! assert!(outcome.makespan_ns > 0.0);
//! assert_eq!(outcome.tasks_executed(), 64);
//! ```

#![warn(missing_docs)]

mod colo;
mod exec;
mod machine;
pub mod metrics;
mod noise;
mod outcome;
mod params;
mod rates;
mod task;

pub use colo::{ColoMachine, EventCounts};
pub use machine::SimMachine;
pub use metrics::SimMetrics;
pub use noise::NoiseParams;
pub use outcome::{LoopOutcome, NodeOutcome, TaskRecord};
pub use params::MachineParams;
pub use task::{Locality, TaskSpec};

/// Event-tracing layer (re-exported): [`LoopOutcome::events`] is an
/// [`trace::EventLog`] when a run is traced.
pub use ilan_trace as trace;
