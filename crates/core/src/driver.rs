//! Drivers: connect a [`Policy`] to an execution backend.
//!
//! A driver performs one decide → execute → record round per taskloop
//! invocation. Two backends exist:
//!
//! * [`run_sim_invocation`] — the simulated NUMA machine (`ilan-numasim`),
//!   used by the paper-reproduction harness (the evaluation platform, a
//!   64-core EPYC 9354, is simulated in this repository);
//! * [`run_native_invocation`] — the native work-stealing runtime
//!   (`ilan-runtime`), used by the examples and functional tests.
//!
//! Both hand the decision to their backend as it is — a [`Decision`] is the
//! placement description both substrates execute — and both charge the
//! policy's decision cost to the invocation's critical path and overhead
//! accounting, mirroring where configuration selection sits in the LLVM
//! implementation.

use crate::policy::Policy;
use crate::report::TaskloopReport;
use crate::site::SiteId;
use crate::Decision;
use ilan_numasim::{SimMachine, TaskSpec};
use ilan_runtime::ThreadPool;
use std::ops::Range;

/// One decide → simulate → record round on the simulated machine.
///
/// Returns the decision taken and the normalized report (after the policy
/// recorded it).
pub fn run_sim_invocation(
    machine: &mut SimMachine,
    policy: &mut dyn Policy,
    site: SiteId,
    tasks: &[TaskSpec],
) -> (Decision, TaskloopReport) {
    let decision = policy.decide(site);
    // A flat or work-sharing decision spans the whole machine.
    let span = machine.topology().all_nodes();
    let outcome = machine.run_taskloop(span, &decision, tasks);
    let mut report = TaskloopReport::from(&outcome);
    let decision_cost = policy.decision_overhead_ns();
    report.time_ns += decision_cost;
    report.sched_overhead_ns += decision_cost;
    machine.advance_serial(decision_cost);
    policy.record(site, &decision, &report);
    (decision, report)
}

/// One decide → execute → record round on the native runtime.
pub fn run_native_invocation<F>(
    pool: &ThreadPool,
    policy: &mut dyn Policy,
    site: SiteId,
    range: Range<usize>,
    grainsize: usize,
    body: F,
) -> (Decision, TaskloopReport)
where
    F: Fn(Range<usize>) + Sync,
{
    let decision = policy.decide(site);
    let native = pool.taskloop(range, grainsize, decision.clone(), body);
    let mut report = TaskloopReport::from(&native);
    let decision_cost = policy.decision_overhead_ns();
    report.time_ns += decision_cost;
    report.sched_overhead_ns += decision_cost;
    policy.record(site, &decision, &report);
    (decision, report)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::policy::{BaselinePolicy, WorkSharingPolicy};
    use crate::scheduler::{IlanParams, IlanScheduler};
    use ilan_numasim::{Locality, MachineParams};
    use ilan_runtime::{PinMode, PoolConfig};
    use ilan_topology::{presets, ChunkAssignment, NodeMask};
    use std::sync::atomic::{AtomicUsize, Ordering};

    fn sim_tasks(n: usize, nodes: usize) -> Vec<TaskSpec> {
        let blocked = ChunkAssignment::new(NodeMask::first_n(nodes), n);
        (0..n)
            .map(|i| TaskSpec {
                compute_ns: 10_000.0,
                mem_bytes: 100_000.0,
                home_node: blocked.node_of_chunk(i),
                locality: Locality::Chunked,
                data_mask: NodeMask::first_n(nodes),
                cache_reuse: 0.3,
                fits_l3: true,
            })
            .collect()
    }

    #[test]
    fn sim_driver_runs_baseline_and_worksharing() {
        let topo = presets::tiny_2x4();
        let mut m = SimMachine::new(MachineParams::for_topology(&topo).noiseless(), 1);
        let tasks = sim_tasks(32, 2);
        let mut base = BaselinePolicy;
        let (d, r) = run_sim_invocation(&mut m, &mut base, SiteId::new(0), &tasks);
        assert_eq!(d, Decision::Flat);
        assert!(r.time_ns > 0.0);
        let mut ws = WorkSharingPolicy;
        let (d, r2) = run_sim_invocation(&mut m, &mut ws, SiteId::new(0), &tasks);
        assert_eq!(d, Decision::WorkSharing);
        assert!(r2.sched_overhead_ns < r.sched_overhead_ns);
    }

    #[test]
    fn sim_driver_advances_ilan_lifecycle() {
        let topo = presets::tiny_2x4();
        let mut m = SimMachine::new(MachineParams::for_topology(&topo).noiseless(), 1);
        let tasks = sim_tasks(64, 2);
        let mut ilan = IlanScheduler::new(IlanParams::for_topology(&topo));
        let site = SiteId::new(0);
        let (d1, _) = run_sim_invocation(&mut m, &mut ilan, site, &tasks);
        assert!(matches!(d1, Decision::Hierarchical { threads: 8, .. }));
        let (d2, _) = run_sim_invocation(&mut m, &mut ilan, site, &tasks);
        assert!(matches!(d2, Decision::Hierarchical { threads: 4, .. }));
        // Run the site to settlement.
        for _ in 0..6 {
            run_sim_invocation(&mut m, &mut ilan, site, &tasks);
        }
        assert_eq!(ilan.phase(site), crate::scheduler::SearchPhase::Settled);
        assert_eq!(ilan.ptt().invocations(site), 8);
    }

    #[test]
    fn native_driver_executes_all_iterations() {
        let topo = presets::tiny_2x4();
        let pool = ThreadPool::new(PoolConfig::new(topo.clone()).pin(PinMode::Never)).unwrap();
        let mut ilan = IlanScheduler::new(IlanParams::for_topology(&topo));
        let site = SiteId::new(0);
        for _ in 0..4 {
            let count = AtomicUsize::new(0);
            let (_, report) = run_native_invocation(&pool, &mut ilan, site, 0..400, 10, |r| {
                count.fetch_add(r.len(), Ordering::Relaxed);
            });
            assert_eq!(count.load(Ordering::Relaxed), 400);
            assert!(report.time_ns > 0.0);
        }
        assert_eq!(ilan.ptt().invocations(site), 4);
    }
}
