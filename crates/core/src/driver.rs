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
//! Both charge the policy's decision cost to the invocation's critical path
//! and overhead accounting, mirroring where configuration selection sits in
//! the LLVM implementation.

use crate::config::Decision;
use crate::policy::Policy;
use crate::report::TaskloopReport;
use crate::site::SiteId;
use ilan_numasim::{NodeAssignment, PlacementPlan, SimMachine, TaskSpec};
use ilan_runtime::{strict_count, ChunkAssignment, ThreadPool};
use ilan_topology::{CpuSet, NodeMask, Topology};
use std::ops::Range;

/// Resolves the active core set for a hierarchical decision: `threads`
/// cores spread evenly over the mask's nodes, lowest cores first in each
/// node — the native runtime's own rule, [`ilan_runtime::active_cores`].
///
/// # Panics
/// Panics if `mask` is empty, or if `threads` is neither 0 nor at least
/// the mask's node count.
pub fn active_cores(topology: &Topology, mask: NodeMask, threads: usize) -> CpuSet {
    ilan_runtime::active_cores(topology, mask, threads).collect()
}

/// Builds the simulator placement plan realizing a decision over
/// `num_tasks` chunks.
pub fn build_plan(decision: &Decision, num_tasks: usize) -> PlacementPlan {
    match decision {
        Decision::Flat => PlacementPlan::Flat,
        Decision::WorkSharing => PlacementPlan::Static,
        Decision::Hierarchical {
            mask,
            steal,
            strict_fraction,
            ..
        } => {
            let assignment = ChunkAssignment::new(*mask, num_tasks.max(1));
            let assignments = assignment
                .per_node()
                .into_iter()
                .map(|(node, tasks)| NodeAssignment {
                    node,
                    strict_count: strict_count(tasks.len(), *steal, *strict_fraction),
                    tasks,
                })
                .collect();
            PlacementPlan::Hierarchical { assignments }
        }
    }
}

/// The simulator placement realizing `decision` over `num_tasks` chunks:
/// its active cores and its plan. A flat or work-sharing decision runs on
/// every core of `span` (the whole machine for a single application, the
/// tenant's partition on a shared one); a hierarchical decision carries its
/// own mask and thread count.
pub fn sim_placement(
    topology: &Topology,
    decision: &Decision,
    span: NodeMask,
    num_tasks: usize,
) -> (CpuSet, PlacementPlan) {
    let cores = match decision {
        Decision::Flat | Decision::WorkSharing => topology.cpuset_of_mask(span),
        Decision::Hierarchical { mask, threads, .. } => active_cores(topology, *mask, *threads),
    };
    (cores, build_plan(decision, num_tasks))
}

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
    let topo = machine.topology();
    let (cores, plan) = sim_placement(topo, &decision, topo.all_nodes(), tasks.len());
    let outcome = machine.run_taskloop(&cores, &plan, tasks);
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
    let native = pool.taskloop(range, grainsize, decision.to_exec_mode(), body);
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
    use ilan_runtime::{PinMode, PoolConfig, StealPolicy};
    use ilan_topology::{presets, NodeId};
    use std::sync::atomic::{AtomicUsize, Ordering};

    fn sim_tasks(n: usize, nodes: usize) -> Vec<TaskSpec> {
        (0..n)
            .map(|i| TaskSpec {
                compute_ns: 10_000.0,
                mem_bytes: 100_000.0,
                home_node: NodeId::new(i * nodes / n),
                locality: Locality::Chunked,
                data_mask: NodeMask::first_n(nodes),
                cache_reuse: 0.3,
                fits_l3: true,
            })
            .collect()
    }

    #[test]
    fn active_cores_even_spread() {
        let t = presets::epyc_9354_2s();
        let set = active_cores(&t, NodeMask::first_n(4), 16);
        assert_eq!(set.count(), 16);
        // 4 cores per node, the lowest of each.
        assert!(set.contains(ilan_topology::CoreId::new(0)));
        assert!(set.contains(ilan_topology::CoreId::new(11)));
        assert!(!set.contains(ilan_topology::CoreId::new(4)));
    }

    #[test]
    fn active_cores_uneven_remainder() {
        let t = presets::epyc_9354_2s();
        let set = active_cores(&t, NodeMask::first_n(3), 10);
        assert_eq!(set.count(), 10);
        // 4 + 3 + 3.
        let per_node: Vec<usize> = (0..3)
            .map(|n| {
                t.cores_of_node(NodeId::new(n))
                    .filter(|c| set.contains(*c))
                    .count()
            })
            .collect();
        assert_eq!(per_node, vec![4, 3, 3]);
    }

    #[test]
    fn active_cores_zero_means_all() {
        let t = presets::tiny_2x4();
        assert_eq!(active_cores(&t, t.all_nodes(), 0).count(), 8);
    }

    #[test]
    fn active_cores_clamps_excess_threads() {
        // More threads than the mask can host: clamp to its capacity.
        let t = presets::epyc_9354_2s();
        let mask = NodeMask::first_n(2); // 16 cores
        assert_eq!(active_cores(&t, mask, 1000).count(), 16);
        assert_eq!(active_cores(&t, t.all_nodes(), usize::MAX).count(), 64);
    }

    #[test]
    #[should_panic(expected = "needs an active core")]
    fn active_cores_rejects_fewer_threads_than_mask_nodes() {
        let t = presets::epyc_9354_2s();
        active_cores(&t, NodeMask::first_n(4), 3);
    }

    #[test]
    fn active_cores_single_node_mask() {
        let t = presets::epyc_9354_2s();
        let mask = NodeMask::single(NodeId::new(5));
        let set = active_cores(&t, mask, 3);
        assert_eq!(set.count(), 3);
        // All three cores live on node 5.
        for core in set.iter() {
            assert_eq!(t.node_of_core(core), NodeId::new(5));
        }
        // Requesting the whole node (or more) yields exactly its cores.
        assert_eq!(active_cores(&t, mask, 8).count(), 8);
        assert_eq!(active_cores(&t, mask, 9).count(), 8);
    }

    #[test]
    fn build_plan_strict_fraction() {
        let d = Decision::Hierarchical {
            threads: 8,
            mask: NodeMask::first_n(2),
            steal: StealPolicy::Full,
            strict_fraction: 0.5,
        };
        match build_plan(&d, 8) {
            PlacementPlan::Hierarchical { assignments } => {
                assert_eq!(assignments.len(), 2);
                for a in &assignments {
                    assert_eq!(a.tasks.len(), 4);
                    assert_eq!(a.strict_count, 2);
                }
            }
            other => panic!("wrong plan {other:?}"),
        }
    }

    #[test]
    fn sim_placement_spans_only_flat_decisions() {
        let t = presets::epyc_9354_2s();
        let span = NodeMask::first_n(2);
        for d in [Decision::Flat, Decision::WorkSharing] {
            let (cores, plan) = sim_placement(&t, &d, span, 100);
            assert_eq!(cores, t.cpuset_of_mask(span));
            plan.validate(100);
        }
        // A hierarchical decision brings its own mask and thread count.
        let d = Decision::Hierarchical {
            threads: 12,
            mask: NodeMask::first_n(4),
            steal: StealPolicy::Strict,
            strict_fraction: 1.0,
        };
        let (cores, plan) = sim_placement(&t, &d, span, 100);
        assert_eq!(cores, active_cores(&t, NodeMask::first_n(4), 12));
        plan.validate(100);
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
        assert_eq!(d1.threads(), Some(8));
        let (d2, _) = run_sim_invocation(&mut m, &mut ilan, site, &tasks);
        assert_eq!(d2.threads(), Some(4));
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
