//! **ILAN** — the Interference- and Locality-Aware NUMA taskloop scheduler.
//!
//! This crate is the paper's primary contribution (Mellberg, Carlsson, Chen,
//! Pericàs, *ILAN: The Interference- and Locality-Aware NUMA Scheduler*,
//! SC Workshops '25). For every taskloop *site* the scheduler controls three
//! parameters:
//!
//! 1. **`num_threads`** — the *moldability* knob. Chosen by the binary-search
//!    style exploration of the paper's Algorithm 1 ([`algorithm1`]) over a
//!    [Performance Trace Table](ptt::Ptt) of past executions, at a
//!    thread-count granularity `g` (default: the NUMA node size).
//! 2. **`node_mask`** — which NUMA nodes execute the loop. The fastest node
//!    observed in the PTT seeds the mask; further nodes are added
//!    topology-near-first (same socket before cross-socket) — [`nodemask`].
//! 3. **`steal_policy`** — `strict` (intra-node stealing only) during the
//!    search; once the search finishes, `full` (inter-node stealing of a
//!    stealable tail) is trialled once and the faster policy is kept.
//!
//! Task *distribution* is hierarchical (§3.3): chunks map deterministically
//! to the mask's nodes by logical iteration index, so adjacent iterations
//! stay collocated; distribution inside a node is work-stealing.
//!
//! The policy is a pure state machine ([`Policy`]): `decide` returns a
//! [`Decision`] — the placement description both execution substrates take,
//! [`ilan_topology::ExecMode`] — and `record` feeds back a normalized
//! [`TaskloopReport`]. Two drivers execute decisions: [`driver::run_sim_invocation`] on the
//! simulated NUMA machine (`ilan-numasim`) and
//! [`driver::run_native_invocation`] on the native work-stealing runtime
//! (`ilan-runtime`). Baselines ship alongside: [`BaselinePolicy`] (default
//! LLVM-style flat tasking), [`WorkSharingPolicy`] (OpenMP static
//! work-sharing) and [`FixedPolicy`]. The ablation of the paper's Figure 4
//! (ILAN without moldability) is [`IlanParams::no_moldability`].
//!
//! # Example: the policy state machine on its own
//!
//! ```
//! use ilan::{IlanScheduler, IlanParams, Policy, Decision, SiteId, TaskloopReport};
//! use ilan_topology::presets;
//!
//! let topo = presets::epyc_9354_2s();
//! let mut ilan = IlanScheduler::new(IlanParams::for_topology(&topo));
//! let site = SiteId::new(0);
//!
//! // First decision always uses the whole machine.
//! let d = ilan.decide(site);
//! assert!(matches!(d, Decision::Hierarchical { threads: 64, .. }));
//! // Feed a report back; the second decision explores half the machine.
//! let report = TaskloopReport::synthetic(1_000_000.0, 64);
//! ilan.record(site, &d, &report);
//! let d = ilan.decide(site);
//! assert!(matches!(d, Decision::Hierarchical { threads: 32, .. }));
//! ```

#![warn(missing_docs)]

pub mod algorithm1;
pub mod driver;
pub mod metrics;
pub mod nodemask;
mod objective;
mod policy;
pub mod ptt;
mod report;
mod scheduler;
mod site;
pub mod stats;
pub mod trace;

/// What a [`Policy`] decided for one taskloop invocation: the placement
/// both execution substrates take. ILAN's hierarchical decision carries the
/// paper's `(num_threads, node_mask, steal_policy)` triple.
pub use ilan_topology::ExecMode as Decision;
pub use ilan_topology::StealPolicy;
pub use metrics::SchedulerMetrics;
pub use objective::Objective;
pub use policy::{BaselinePolicy, FixedPolicy, Policy, WorkSharingPolicy};
pub use report::TaskloopReport;
pub use scheduler::{IlanParams, IlanScheduler, SearchPhase};
pub use site::{SiteId, SiteRegistry};
pub use stats::RunStats;
pub use trace::RecordingPolicy;
