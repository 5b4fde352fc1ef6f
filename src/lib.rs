//! **ilan-suite** — umbrella crate for the ILAN NUMA scheduler reproduction.
//!
//! This crate re-exports the whole workspace so examples and downstream
//! users need a single dependency:
//!
//! * [`topology`] — hardware model: sockets → NUMA nodes → CCDs → cores,
//!   distance matrices, node masks ([`ilan_topology`]).
//! * [`sim`] — the deterministic fluid-rate NUMA machine simulator
//!   ([`ilan_numasim`]).
//! * [`runtime`] — the native work-stealing task runtime with hierarchical
//!   NUMA scheduling ([`ilan_runtime`]).
//! * [`scheduler`] — the ILAN policy itself: Performance Trace Table,
//!   Algorithm-1 moldability search, node-mask selection, steal-policy trial
//!   ([`ilan`]).
//! * [`workloads`] — the seven evaluation benchmarks in native and simulated
//!   form ([`ilan_workloads`]).
//! * [`trace`] — the scheduler event-tracing layer: per-worker lock-free
//!   rings, invariant auditor, Chrome-trace exporter ([`ilan_trace`]).
//!
//! # Quickstart
//!
//! ```
//! use ilan_suite::prelude::*;
//!
//! // Simulate the paper's 64-core EPYC 9354 machine.
//! let topo = presets::epyc_9354_2s();
//! let mut machine = SimMachine::new(MachineParams::for_topology(&topo), 1);
//!
//! // Run the CG benchmark under the ILAN scheduler.
//! let app = Workload::Cg.sim_app(&topo, Scale::Quick);
//! let mut ilan = IlanScheduler::new(IlanParams::for_topology(&topo));
//! let stats = app.run(&mut machine, &mut ilan);
//!
//! assert!(stats.total_time_ns > 0.0);
//! // CG molds: ILAN settles well below the 64 available cores.
//! assert!(stats.weighted_avg_threads() < 60.0);
//! ```

pub use ilan as scheduler;
pub use ilan_numasim as sim;
pub use ilan_runtime as runtime;
pub use ilan_topology as topology;
pub use ilan_trace as trace;
pub use ilan_workloads as workloads;

/// One-stop imports for examples and tests.
pub mod prelude {
    pub use ilan::driver::{run_native_invocation, run_sim_invocation};
    pub use ilan::{
        BaselinePolicy, Decision, FixedPolicy, IlanParams, IlanScheduler, Policy, RunStats, SiteId,
        SiteRegistry, StealPolicy, TaskloopReport, WorkSharingPolicy,
    };
    pub use ilan_numasim::{
        Locality, LoopOutcome, MachineParams, NoiseParams, SimMachine, TaskSpec,
    };
    pub use ilan_runtime::{ExecMode, LoopReport, PinMode, PoolConfig, ThreadPool};
    pub use ilan_topology::{presets, ChunkAssignment, CoreId, CpuSet, NodeId, NodeMask, Topology};
    pub use ilan_trace::{audit, AuditExpect, AuditReport, Event, EventKind, EventLog, NodeTally};
    pub use ilan_workloads::{Scale, SimApp, Workload, ALL_WORKLOADS};
}

#[cfg(test)]
mod tests {
    use super::prelude::*;

    #[test]
    fn prelude_compiles_and_links_all_crates() {
        let topo = presets::tiny_2x4();
        let _machine = SimMachine::new(MachineParams::for_topology(&topo), 0);
        let _pool = ThreadPool::new(PoolConfig::new(presets::smp(2)).pin(PinMode::Never));
        let _policy = IlanScheduler::new(IlanParams::for_topology(&topo));
        assert_eq!(ALL_WORKLOADS.len(), 7);
    }
}
