//! Property-based tests of the simulator's physical invariants.

use ilan_numasim::{Locality, MachineParams, SimMachine, TaskSpec};
use ilan_topology::{presets, ChunkAssignment, ExecMode, NodeId, NodeMask, StealPolicy};
use proptest::prelude::*;

fn arb_tasks(max: usize) -> impl Strategy<Value = Vec<TaskSpec>> {
    proptest::collection::vec(
        (
            1_000.0f64..200_000.0, // compute
            0.0f64..1_000_000.0,   // bytes
            0usize..2,             // home node (tiny_2x4 has 2)
            0.0f64..=1.0,          // spread
            0.0f64..=0.9,          // reuse
            any::<bool>(),         // fits
        )
            .prop_map(|(c, m, home, spread, reuse, fits)| TaskSpec {
                compute_ns: c,
                mem_bytes: m,
                home_node: NodeId::new(home),
                locality: if spread < 0.05 {
                    Locality::Chunked
                } else {
                    Locality::Scattered { spread }
                },
                data_mask: NodeMask::first_n(2),
                cache_reuse: reuse,
                fits_l3: fits,
            }),
        1..max,
    )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Work conservation and causality for arbitrary task sets under the
    /// flat plan: every task runs once, busy time fits in workers × makespan,
    /// and busy time is at least the aggregate ideal time (all penalties are
    /// ≥ 1).
    #[test]
    fn conservation_flat(tasks in arb_tasks(80), seed in 0u64..1000) {
        let topo = presets::tiny_2x4();
        let mut m = SimMachine::new(MachineParams::for_topology(&topo).noiseless(), seed);
        let out = m.run_taskloop(topo.all_nodes(), &ExecMode::Flat, &tasks);
        prop_assert_eq!(out.tasks_executed(), tasks.len());
        prop_assert!(out.makespan_ns.is_finite());
        prop_assert!(out.total_busy_ns() <= 8.0 * out.makespan_ns + 1e-3);
        // Lower bound: every chunk takes at least its compute plus its
        // *reuse-discounted* memory time (the only mechanism that can beat
        // the cold-cache ideal is the L3 reuse discount).
        let floor: f64 = tasks
            .iter()
            .map(|t| {
                let min_bytes = if t.fits_l3 {
                    t.mem_bytes * (1.0 - t.cache_reuse)
                } else {
                    t.mem_bytes
                };
                t.compute_ns + min_bytes / 22.0
            })
            .sum();
        prop_assert!(
            out.total_busy_ns() + 1e-6 >= floor * 0.999,
            "busy {} below floor {}",
            out.total_busy_ns(),
            floor
        );
        // Makespan is bounded below by the critical path of one chunk
        // (reuse-discounted, as above).
        let longest = tasks
            .iter()
            .map(|t| {
                let min_bytes = if t.fits_l3 {
                    t.mem_bytes * (1.0 - t.cache_reuse)
                } else {
                    t.mem_bytes
                };
                t.compute_ns + min_bytes / 22.0
            })
            .fold(0.0, f64::max);
        prop_assert!(out.makespan_ns + 1e-6 >= longest * 0.999);
    }

    /// A strict hierarchical loop runs each node's `chunks_of_rank` share
    /// there and nowhere else, whatever the mask, thread count and task
    /// count.
    #[test]
    fn strict_plan_is_respected(tasks in arb_tasks(60), bits in 1u64..256, extra in 0usize..64) {
        let topo = presets::epyc_9354_2s();
        let mask = NodeMask::from_bits(bits);
        // 0 means every core of the mask; otherwise one core per node at
        // least, clamped to the mask's cores.
        let threads = if extra == 0 { 0 } else { mask.count() + extra - 1 };
        let mode = ExecMode::Hierarchical {
            mask,
            threads,
            strict_fraction: 0.0, // ignored under Strict
            policy: StealPolicy::Strict,
        };
        let mut m = SimMachine::new(MachineParams::for_topology(&topo).noiseless(), 1);
        let out = m.run_taskloop(topo.all_nodes(), &mode, &tasks);
        prop_assert_eq!(out.migrations, 0);
        let blocked = ChunkAssignment::new(mask, tasks.len());
        let mut expected = vec![0; topo.num_nodes()];
        for (rank, node) in mask.iter().enumerate() {
            expected[node.index()] = blocked.chunks_of_rank(rank).len();
        }
        let ran: Vec<usize> = out.nodes.iter().map(|n| n.tasks).collect();
        prop_assert_eq!(ran, expected);
    }

    /// Determinism: the same seed replays the exact makespan; noiseless
    /// hierarchical runs are seed-independent.
    #[test]
    fn determinism(tasks in arb_tasks(40), seed in 0u64..100) {
        let topo = presets::tiny_2x4();
        let run = |s: u64| {
            let mut m = SimMachine::new(MachineParams::for_topology(&topo), s);
            m.run_taskloop(topo.all_nodes(), &ExecMode::Flat, &tasks).makespan_ns
        };
        prop_assert_eq!(run(seed), run(seed));
    }

    /// Adding compute work never speeds a loop up (monotonicity).
    #[test]
    fn monotone_in_work(tasks in arb_tasks(30), factor in 1.1f64..3.0) {
        let topo = presets::tiny_2x4();
        let all = topo.all_nodes();
        let heavier: Vec<TaskSpec> = tasks
            .iter()
            .map(|t| TaskSpec {
                compute_ns: t.compute_ns * factor,
                ..t.clone()
            })
            .collect();
        let mut m1 = SimMachine::new(MachineParams::for_topology(&topo).noiseless(), 0);
        let t1 = m1.run_taskloop(all, &ExecMode::WorkSharing, &tasks).makespan_ns;
        let mut m2 = SimMachine::new(MachineParams::for_topology(&topo).noiseless(), 0);
        let t2 = m2.run_taskloop(all, &ExecMode::WorkSharing, &heavier).makespan_ns;
        prop_assert!(t2 >= t1 - 1e-6, "heavier work finished earlier: {t1} vs {t2}");
    }

    /// One worker executes every chunk serially: its makespan is its busy
    /// time plus the fixed overheads.
    #[test]
    fn single_worker_is_serial(tasks in arb_tasks(25)) {
        let topo = presets::tiny_2x4();
        let node0 = NodeMask::single(NodeId::new(0));
        let one_core = ExecMode::Hierarchical {
            mask: node0,
            threads: 1,
            strict_fraction: 1.0,
            policy: StealPolicy::Strict,
        };
        let mut m = SimMachine::new(MachineParams::for_topology(&topo).noiseless(), 0);
        let out = m.run_taskloop(node0, &one_core, &tasks);
        // One worker executes everything; busy time ≈ makespan − overheads.
        prop_assert_eq!(out.tasks_executed(), tasks.len());
        prop_assert!(out.nodes[0].busy_ns <= out.makespan_ns);
        prop_assert!(out.nodes[0].busy_ns >= 0.9 * (out.makespan_ns - out.sched_overhead_ns) - 1.0);
    }
}
