//! Differential oracle: the same taskloop through the native runtime and
//! the simulator, both traced, must tell the same scheduling story.
//!
//! Both backends take the same [`ExecMode`] and resolve it with the same
//! placement rules, but share nothing else — queues, clocks and steal
//! machinery are fully independent implementations. For every mode of a
//! matrix (whole machine, a 2-node mask, a non-contiguous mask, thread
//! counts below the mask's cores; `Strict` and `Full` at strict fractions
//! 1.0 and 0.6) their audited event logs must agree on everything the mode
//! determines: the chunk → node assignment with its strict flags, and
//! strict-chunk confinement. Timing-dependent facts (who stole what, when)
//! are left to the auditor's internal invariants.

use ilan_suite::prelude::*;

const RANGE: usize = 512;
const GRAIN: usize = 4; // 128 chunks
const CHUNKS: usize = RANGE / GRAIN;

/// Every hierarchical mode of the matrix under `policy`.
fn modes(topo: &Topology, policy: StealPolicy) -> Vec<ExecMode> {
    let two = NodeMask::first_n(2);
    let gapped = NodeMask::from_bits(0b0011_1100);
    let mut out = Vec::new();
    // Threads 0 is every core of the mask; 5 and 12 are fewer than the
    // 16 and 32 cores of the two- and four-node masks.
    for (mask, threads) in [
        (topo.all_nodes(), 0),
        (two, 0),
        (two, 5),
        (gapped, 0),
        (gapped, 12),
    ] {
        for strict_fraction in [1.0, 0.6] {
            out.push(ExecMode::Hierarchical {
                mask,
                threads,
                strict_fraction,
                policy,
            });
        }
    }
    out
}

fn native_run(pool: &ThreadPool, mode: &ExecMode) -> (LoopReport, EventLog) {
    pool.taskloop_traced(0..RANGE, GRAIN, mode.clone(), |r| {
        std::hint::black_box(r.sum::<usize>());
    })
}

fn sim_run(topo: &Topology, mode: &ExecMode) -> LoopOutcome {
    // The chunks' data lies blocked over the whole machine.
    let blocked = ChunkAssignment::new(topo.all_nodes(), CHUNKS);
    let tasks: Vec<TaskSpec> = (0..CHUNKS)
        .map(|i| TaskSpec {
            compute_ns: 20_000.0,
            mem_bytes: 60_000.0,
            home_node: blocked.node_of_chunk(i),
            locality: Locality::Chunked,
            data_mask: topo.all_nodes(),
            cache_reuse: 0.2,
            fits_l3: true,
        })
        .collect();
    let mut machine = SimMachine::new(MachineParams::for_topology(topo).noiseless(), 17);
    machine.run_taskloop_traced(topo.all_nodes(), mode, &tasks)
}

fn audit_native(report: &LoopReport, log: &EventLog) -> AuditReport {
    let expect = AuditExpect {
        migrations: Some(report.migrations),
        latch_releases: Some(report.threads),
        per_node: Some(
            report
                .nodes
                .iter()
                .map(|n| NodeTally {
                    tasks: n.tasks,
                    local_tasks: Some(n.local_tasks),
                })
                .collect(),
        ),
    };
    audit(log, &expect)
}

fn audit_sim(out: &LoopOutcome) -> AuditReport {
    let expect = AuditExpect {
        migrations: Some(out.migrations),
        latch_releases: Some(out.threads),
        per_node: Some(
            out.nodes
                .iter()
                .map(|n| NodeTally {
                    tasks: n.tasks,
                    local_tasks: None,
                })
                .collect(),
        ),
    };
    audit(&out.events, &expect)
}

/// Runs every mode of `policy`'s matrix through both backends and checks
/// that they agree on the placement, that every home lies in the mask, and
/// that strict chunks stay home; then hands `check` the mode, the shared
/// `(chunk, home, strict)` assignment and both backends' migration counts.
fn run_matrix(policy: StealPolicy, check: impl Fn(&ExecMode, &[(u32, u32, bool)], [usize; 2])) {
    let topo = presets::epyc_9354_2s();
    let pool = ThreadPool::new(PoolConfig::new(topo.clone()).pin(PinMode::Never)).expect("pool");
    for mode in modes(&topo, policy) {
        let (report, native_log) = native_run(&pool, &mode);
        let sim_out = sim_run(&topo, &mode);
        let na = audit_native(&report, &native_log);
        assert!(na.ok(), "{mode:?}: native audit failed: {na}");
        let sa = audit_sim(&sim_out);
        assert!(sa.ok(), "{mode:?}: sim audit failed: {sa}");

        let assign = native_log.chunk_assignment();
        assert_eq!(assign.len(), CHUNKS, "{mode:?}");
        assert_eq!(assign, sim_out.events.chunk_assignment(), "{mode:?}");
        let ExecMode::Hierarchical { mask, .. } = mode else {
            unreachable!()
        };
        assert!(
            assign
                .iter()
                .all(|&(_, h, _)| mask.contains(NodeId::new(h as usize))),
            "{mode:?}: a chunk homed outside the mask"
        );

        // Strict chunks never leave their assigned node, in either
        // backend.
        for log in [&native_log, &sim_out.events] {
            for (chunk, node) in log.exec_nodes() {
                let (_, home, strict) = assign[chunk as usize];
                assert!(
                    !strict || node == home,
                    "{mode:?}: strict chunk {chunk} escaped"
                );
            }
        }
        check(&mode, &assign, [report.migrations, sim_out.migrations]);
    }
}

#[test]
fn strict_runs_agree_on_assignment_and_confinement() {
    run_matrix(StealPolicy::Strict, |mode, assign, migrations| {
        // Strict ignores the fraction: every chunk is strict and none
        // migrates.
        assert!(assign.iter().all(|&(_, _, strict)| strict), "{mode:?}");
        assert_eq!(migrations, [0, 0], "{mode:?}");
    });
}

#[test]
fn full_runs_agree_on_assignment() {
    run_matrix(StealPolicy::Full, |mode, assign, _| {
        let ExecMode::Hierarchical {
            strict_fraction, ..
        } = *mode
        else {
            unreachable!()
        };
        let strict = assign.iter().filter(|&&(_, _, s)| s).count();
        if strict_fraction == 1.0 {
            assert_eq!(strict, CHUNKS, "{mode:?}");
        } else {
            // 60% of 128 chunks, rounded per node: off by at most half a
            // chunk on each of at most eight nodes.
            assert!((73..=80).contains(&strict), "{mode:?}: {strict} strict");
        }
    });
}
