//! Golden determinism digests of single-application runs on [`SimMachine`]
//! and of a multi-lane, faulty, traced run on [`ColoMachine`].
//!
//! The simulator's outputs are pure functions of (machine seed, workload,
//! policy). These digests pin them bit for bit: any change to the event
//! loop, the cost model or the worker state machine that alters a single
//! float of a run's statistics moves the digest. A refactor that claims to be
//! behaviour-preserving must leave them untouched; a deliberate model
//! change updates them together with EXPERIMENTS.md.

use ilan::{BaselinePolicy, IlanParams, IlanScheduler, Policy, RunStats};
use ilan_faults::{FaultConfig, FaultPlan};
use ilan_numasim::{
    ColoMachine, Locality, LoopOutcome, MachineParams, NodeAssignment, PlacementPlan, SimMachine,
    TaskSpec,
};
use ilan_topology::{presets, NodeId, NodeMask};
use ilan_workloads::{Scale, Workload};

/// FNV-1a over the bytes of `text`.
fn fnv1a(text: &str) -> u64 {
    text.bytes().fold(0xcbf2_9ce4_8422_2325, |h, b| {
        (h ^ b as u64).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

fn run(policy: &mut dyn Policy, seed: u64) -> RunStats {
    let topo = presets::epyc_9354_2s();
    let app = Workload::Cg.sim_app(&topo, Scale::Quick);
    let mut machine = SimMachine::new(MachineParams::for_topology(&topo), seed);
    app.run(&mut machine, policy)
}

/// `Debug` prints every float with all its digits, so the digest is over
/// the exact bits of every statistic.
fn digest(stats: &RunStats) -> u64 {
    fnv1a(&format!("{stats:?}"))
}

#[test]
fn baseline_run_stats_are_bitwise_pinned() {
    let stats = run(&mut BaselinePolicy, 7);
    assert_eq!(
        digest(&stats),
        BASELINE_DIGEST,
        "baseline RunStats moved: {stats:?}"
    );
}

#[test]
fn ilan_run_stats_are_bitwise_pinned() {
    let topo = presets::epyc_9354_2s();
    let mut policy = IlanScheduler::new(IlanParams::for_topology(&topo));
    let stats = run(&mut policy, 7);
    assert_eq!(
        digest(&stats),
        ILAN_DIGEST,
        "ILAN RunStats moved: {stats:?}"
    );
}

/// Chunks homed round-robin over `nodes` blocks, every `scatter_every`-th
/// one scattered so both traffic shapes meet in the field.
fn colo_tasks(n: usize, nodes: usize, scatter_every: usize) -> Vec<TaskSpec> {
    (0..n)
        .map(|i| TaskSpec {
            compute_ns: 8_000.0 + 1_000.0 * (i % 7) as f64,
            mem_bytes: 300_000.0 + 50_000.0 * (i % 5) as f64,
            home_node: NodeId::new(i * nodes / n),
            locality: if i % scatter_every == 0 {
                Locality::Scattered { spread: 0.6 }
            } else {
                Locality::Chunked
            },
            data_mask: NodeMask::first_n(nodes),
            cache_reuse: 0.1,
            fits_l3: i % 3 == 0,
        })
        .collect()
}

/// A hierarchical plan over `nodes`: contiguous blocks, the first
/// `strict_frac` of each block NUMA-strict, the rest stealable.
fn hier_plan(tasks: usize, nodes: usize, strict_frac: f64) -> PlacementPlan {
    let assignments = (0..nodes)
        .map(|node| {
            let ts: Vec<usize> = (0..tasks).filter(|i| i * nodes / tasks == node).collect();
            let strict_count = (ts.len() as f64 * strict_frac) as usize;
            NodeAssignment {
                node: NodeId::new(node),
                tasks: ts,
                strict_count,
            }
        })
        .collect();
    PlacementPlan::Hierarchical { assignments }
}

/// Every outcome of a traced three-lane run on the paper's machine under a
/// fault plan with one stall and one slow node. Lanes overlap on cores
/// (occupancy above 1), start behind serial leads, and one arrives while
/// the others run, so the digest pins the multi-lane paths — timeshared
/// demand, stall expiries, slowed nodes, event logs — that the
/// single-application digests never reach.
fn colo_faulty_traced_outcomes() -> String {
    let topo = presets::epyc_9354_2s();
    let plan = (0..10_000u64)
        .map(|s| FaultPlan::new(s, 32, topo.num_nodes() as u32, FaultConfig::sim_safe()))
        .find(|p| p.stalls().len() == 1 && p.slow_nodes().len() == 1)
        .expect("some seed draws one stall and one slow node");
    let mut colo = ColoMachine::new(MachineParams::for_topology(&topo), 5);
    colo.set_fault_plan(plan);
    colo.set_tracing(true);
    let (a, b, c) = (colo.add_lane(), colo.add_lane(), colo.add_lane());
    // A: the whole machine, strict prefixes with stealable tails.
    colo.start_loop(
        a,
        &topo.cpuset_of_mask(topo.all_nodes()),
        &hier_plan(384, 8, 0.6),
        colo_tasks(384, 8, 4),
        2_000.0,
    );
    // B: socket 0 under the flat baseline, sharing A's cores.
    colo.start_loop(
        b,
        &topo.cpuset_of_mask(NodeMask::first_n(4)),
        &PlacementPlan::flat(),
        colo_tasks(256, 4, 3),
        15_000.0,
    );
    let mut lines = Vec::new();
    let mut record = |lane: usize, out: LoopOutcome| {
        lines.push(format!(
            "{lane} {:?} {:?} {:?} {} {:?}",
            out.makespan_ns, out.sched_overhead_ns, out.nodes, out.migrations, out.events
        ));
    };
    if let Some((lane, out)) = colo.run_until_ns(60_000.0) {
        record(lane, out);
    }
    // C arrives mid-run: nodes 2..6 work-shared, overlapping both.
    let mid = NodeMask::from_bits(0b0011_1100);
    colo.start_loop(
        c,
        &topo.cpuset_of_mask(mid),
        &PlacementPlan::worksharing(),
        colo_tasks(128, 8, 2),
        5_000.0,
    );
    while let Some((lane, out)) = colo.run_until_next_completion() {
        record(lane, out);
    }
    assert_eq!(lines.len(), 3, "every lane completes once");
    lines.join("\n")
}

#[test]
fn colo_faulty_traced_outcomes_are_bitwise_pinned() {
    let text = colo_faulty_traced_outcomes();
    assert_eq!(fnv1a(&text), COLO_DIGEST, "colo outcomes moved:\n{text}");
}

const BASELINE_DIGEST: u64 = 3_096_612_523_318_914_655;
const ILAN_DIGEST: u64 = 13_153_250_096_401_497_142;
const COLO_DIGEST: u64 = 4_891_907_866_105_324_103;
