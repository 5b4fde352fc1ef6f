//! Exhaustive decision × machine matrix through the simulator driver:
//! every combination a policy can legally emit must execute cleanly and
//! report consistent numbers.

use ilan::driver::run_sim_invocation;
use ilan::{Decision, FixedPolicy, SiteId, StealPolicy};
use ilan_numasim::{Locality, MachineParams, SimMachine, TaskSpec};
use ilan_topology::{active_cores, presets, ChunkAssignment, NodeId, NodeMask, Topology};

fn tasks(topo: &Topology, n: usize) -> Vec<TaskSpec> {
    let blocked = ChunkAssignment::new(topo.all_nodes(), n);
    (0..n)
        .map(|i| TaskSpec {
            compute_ns: 20_000.0 + (i % 5) as f64 * 7_000.0,
            mem_bytes: 300_000.0,
            home_node: blocked.node_of_chunk(i),
            locality: if i % 3 == 0 {
                Locality::Scattered { spread: 0.6 }
            } else {
                Locality::Chunked
            },
            data_mask: topo.all_nodes(),
            cache_reuse: 0.2,
            fits_l3: true,
        })
        .collect()
}

/// All hierarchical decisions over masks × thread counts × policies ×
/// strict fractions execute every chunk exactly once on the paper machine.
#[test]
fn hierarchical_decision_matrix() {
    let topo = presets::epyc_9354_2s();
    let specs = tasks(&topo, 96);
    for mask in [
        topo.all_nodes(),
        NodeMask::first_n(4),
        NodeMask::first_n(1),
        NodeMask::from_bits(0b1010_0101), // sparse, both sockets
    ] {
        for threads in [0usize, 8, 24, 64] {
            for policy in [StealPolicy::Strict, StealPolicy::Full] {
                for strict_fraction in [0.0, 0.5, 1.0] {
                    let decision = Decision::Hierarchical {
                        threads,
                        mask,
                        strict_fraction,
                        policy,
                    };
                    let mut machine =
                        SimMachine::new(MachineParams::for_topology(&topo).noiseless(), 1);
                    let mut fixed = FixedPolicy::new(decision.clone());
                    let (d, report) =
                        run_sim_invocation(&mut machine, &mut fixed, SiteId::new(0), &specs);
                    assert_eq!(d, decision);
                    assert!(
                        report.time_ns.is_finite() && report.time_ns > 0.0,
                        "mask {mask:?} threads {threads} {policy:?} sf {strict_fraction}"
                    );
                    // Threads reported == cores activated.
                    assert_eq!(report.threads, active_cores(&topo, mask, threads).count());
                    // Strict policy must never migrate.
                    if policy == StealPolicy::Strict {
                        assert_eq!(report.migrations, 0);
                    }
                }
            }
        }
    }
}

/// Every mode executes every chunk exactly once, for any task count.
#[test]
fn every_mode_covers_every_chunk() {
    let topo = presets::epyc_9354_2s();
    let mut machine = SimMachine::new(MachineParams::for_topology(&topo).noiseless(), 1);
    for n in [0usize, 1, 7, 63, 64, 65, 255, 1024] {
        let specs = tasks(&topo, n);
        let hier = |mask| Decision::Hierarchical {
            threads: 0,
            mask,
            strict_fraction: 0.5,
            policy: StealPolicy::Full,
        };
        for mode in [
            hier(topo.all_nodes()),
            hier(NodeMask::first_n(3)),
            Decision::Flat,
            Decision::WorkSharing,
        ] {
            let out = machine.run_taskloop_traced(topo.all_nodes(), &mode, &specs);
            let mut runs = vec![0; n];
            for r in &out.trace {
                runs[r.task] += 1;
            }
            assert!(runs.iter().all(|&k| k == 1), "{mode:?}: {runs:?}");
        }
    }
}

/// One chunk, sixty-four workers: the degenerate wide-machine case.
#[test]
fn single_chunk_on_full_machine() {
    let topo = presets::epyc_9354_2s();
    let specs = tasks(&topo, 1);
    let mut machine = SimMachine::new(MachineParams::for_topology(&topo).noiseless(), 1);
    let mut policy = FixedPolicy::new(Decision::Flat);
    let (_, report) = run_sim_invocation(&mut machine, &mut policy, SiteId::new(0), &specs);
    assert!(report.time_ns > 0.0);
    assert_eq!(report.threads, 64);
}

/// Reports keep per-node speeds consistent with the mask: inactive nodes
/// never report speed.
#[test]
fn inactive_nodes_report_zero_speed() {
    let topo = presets::epyc_9354_2s();
    let specs = tasks(&topo, 64);
    let mask = NodeMask::first_n(2);
    let d = Decision::Hierarchical {
        threads: 16,
        mask,
        strict_fraction: 1.0,
        policy: StealPolicy::Strict,
    };
    let mut machine = SimMachine::new(MachineParams::for_topology(&topo).noiseless(), 1);
    let mut policy = FixedPolicy::new(d);
    let (_, report) = run_sim_invocation(&mut machine, &mut policy, SiteId::new(0), &specs);
    for (i, &speed) in report.node_speed.iter().enumerate() {
        if mask.contains(NodeId::new(i)) {
            assert!(speed > 0.0, "active node {i} reported no speed");
        } else {
            assert_eq!(speed, 0.0, "inactive node {i} reported speed");
        }
    }
}
