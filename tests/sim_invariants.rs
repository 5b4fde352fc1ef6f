//! Cross-crate invariants of the simulated evaluation pipeline.

use ilan_suite::prelude::*;

/// Full application runs are exactly reproducible from the machine seed.
#[test]
fn full_runs_are_deterministic_per_seed() {
    let topo = presets::epyc_9354_2s();
    let app = Workload::Bt.sim_app(&topo, Scale::Quick);
    let mut small = app.clone();
    small.steps = 3;

    let run = |seed: u64| {
        let mut machine = SimMachine::new(MachineParams::for_topology(&topo), seed);
        let mut ilan = IlanScheduler::new(IlanParams::for_topology(&topo));
        small.run(&mut machine, &mut ilan).wall_time_ns()
    };
    assert_eq!(run(9), run(9));
    assert_ne!(run(9), run(10));
}

/// Every invocation executes exactly the app's chunk count, whatever the
/// policy decides.
#[test]
fn every_chunk_executes_under_every_policy() {
    let topo = presets::epyc_9354_2s();
    let app = Workload::Lulesh.sim_app(&topo, Scale::Quick);
    let mut policies: Vec<Box<dyn Policy>> = vec![
        Box::new(BaselinePolicy),
        Box::new(WorkSharingPolicy),
        Box::new(IlanScheduler::new(IlanParams::for_topology(&topo))),
    ];
    for policy in policies.iter_mut() {
        let mut machine = SimMachine::new(MachineParams::for_topology(&topo), 1);
        for (idx, site) in app.sites.iter().enumerate() {
            for _ in 0..3 {
                let (_, report) = run_sim_invocation(
                    &mut machine,
                    policy.as_mut(),
                    SiteId::new(idx as u64),
                    &site.tasks,
                );
                assert!(report.time_ns > 0.0);
            }
        }
    }
}

/// The moldability headline: on the simulated paper machine, CG and SP
/// reduce their thread counts while the compute-bound benchmarks keep all
/// 64 cores (paper Figure 3).
#[test]
fn moldability_molds_the_right_benchmarks() {
    let topo = presets::epyc_9354_2s();
    let run = |w: Workload| {
        let app = w.sim_app(&topo, Scale::Quick);
        let mut machine = SimMachine::new(MachineParams::for_topology(&topo).noiseless(), 5);
        let mut ilan = IlanScheduler::new(IlanParams::for_topology(&topo));
        app.run(&mut machine, &mut ilan).weighted_avg_threads()
    };
    let cg = run(Workload::Cg);
    let sp = run(Workload::Sp);
    let matmul = run(Workload::Matmul);
    let ft = run(Workload::Ft);
    assert!(cg < 52.0, "CG must mold well below 64, got {cg}");
    assert!(sp < 56.0, "SP must reduce cores, got {sp}");
    assert!(matmul > 58.0, "Matmul must keep the machine, got {matmul}");
    assert!(ft > 58.0, "FT must keep the machine, got {ft}");
}

/// ILAN never loses badly: across all seven benchmarks the worst case stays
/// within a few percent of the baseline (paper: "little-to-no performance
/// degradation in the worst case").
#[test]
fn ilan_worst_case_is_bounded() {
    let topo = presets::epyc_9354_2s();
    for w in ALL_WORKLOADS {
        let app = w.sim_app(&topo, Scale::Quick);
        let mut machine = SimMachine::new(MachineParams::for_topology(&topo).noiseless(), 2);
        let mut base = BaselinePolicy;
        let tb = app.run(&mut machine, &mut base).wall_time_ns();
        let mut machine = SimMachine::new(MachineParams::for_topology(&topo).noiseless(), 2);
        let mut ilan = IlanScheduler::new(IlanParams::for_topology(&topo));
        let ti = app.run(&mut machine, &mut ilan).wall_time_ns();
        // Quick scale runs ~10× fewer invocations than the paper, so the
        // exploration phase weighs ~10× heavier here; 10% covers Matmul's
        // expected slight regression under that magnification.
        assert!(
            ti < tb * 1.10,
            "{}: ILAN {}s vs baseline {}s",
            w.name(),
            ti * 1e-9,
            tb * 1e-9
        );
    }
}

/// Hierarchical execution preserves locality; the flat baseline destroys it.
#[test]
fn locality_contrast_between_schedulers() {
    let topo = presets::epyc_9354_2s();
    let app = Workload::Bt.sim_app(&topo, Scale::Quick);
    let mut small = app.clone();
    small.steps = 3;

    let mut machine = SimMachine::new(MachineParams::for_topology(&topo), 3);
    let mut base = BaselinePolicy;
    let flat = small.run(&mut machine, &mut base).weighted_avg_locality();

    let mut machine = SimMachine::new(MachineParams::for_topology(&topo), 3);
    let mut nomold = IlanScheduler::new(IlanParams::no_moldability(&topo));
    let hier = small.run(&mut machine, &mut nomold).weighted_avg_locality();

    assert!(flat < 0.3, "flat locality should be ~1/8, got {flat}");
    assert!(hier > 0.9, "hierarchical locality should be ~1, got {hier}");
}

/// The steal-policy trial picks `full` when the workload is imbalanced
/// enough that inter-node stealing pays.
#[test]
fn steal_trial_responds_to_imbalance() {
    let topo = presets::epyc_9354_2s();
    let site = SiteId::new(0);
    // Severely imbalanced chunks: node-level strict placement must lose.
    let tasks: Vec<TaskSpec> = (0..256)
        .map(|i| TaskSpec {
            compute_ns: if i < 32 { 2_000_000.0 } else { 100_000.0 },
            mem_bytes: 200_000.0,
            home_node: NodeId::new(i * 8 / 256),
            locality: Locality::Chunked,
            data_mask: topo.all_nodes(),
            cache_reuse: 0.2,
            fits_l3: true,
        })
        .collect();
    let mut machine = SimMachine::new(MachineParams::for_topology(&topo).noiseless(), 1);
    let mut ilan = IlanScheduler::new(IlanParams::for_topology(&topo));
    for _ in 0..12 {
        run_sim_invocation(&mut machine, &mut ilan, site, &tasks);
    }
    let settled = ilan.settled_decision(site).expect("must settle in 12");
    assert!(
        matches!(
            settled,
            Decision::Hierarchical {
                policy: StealPolicy::Full,
                ..
            }
        ),
        "imbalance this deep must enable inter-node stealing: {settled:?}"
    );
}

/// Simulated platform study: ILAN also helps on other NUMA machines.
#[test]
fn portability_across_topologies() {
    for topo in [presets::epyc_7742_1s_nps4(), presets::xeon_8280_2s()] {
        let app = Workload::Sp.sim_app(&topo, Scale::Quick);
        let mut small = app.clone();
        small.steps = 6;
        let mut machine = SimMachine::new(MachineParams::for_topology(&topo).noiseless(), 4);
        let mut base = BaselinePolicy;
        let tb = small.run(&mut machine, &mut base).wall_time_ns();
        let mut machine = SimMachine::new(MachineParams::for_topology(&topo).noiseless(), 4);
        let mut ilan = IlanScheduler::new(IlanParams::for_topology(&topo));
        let ti = small.run(&mut machine, &mut ilan).wall_time_ns();
        assert!(
            ti < tb,
            "SP on {}: ILAN {} vs baseline {}",
            topo.summary(),
            ti,
            tb
        );
    }
}
