//! Focused tests of the memory-system model's individual mechanisms.
//!
//! Each test isolates one term of the cost model by constructing task sets
//! where only that term differs, so a regression in one mechanism cannot
//! hide behind another.

use ilan_numasim::{Locality, MachineParams, NoiseParams, SimMachine, TaskSpec};
use ilan_topology::{presets, ExecMode, NodeId, NodeMask, StealPolicy};

fn machine(params: MachineParams, seed: u64) -> SimMachine {
    SimMachine::new(params, seed)
}

/// Every chunk NUMA-strict on node 0, `threads` of its cores active (0 for
/// all of them).
fn on_node0(threads: usize) -> ExecMode {
    ExecMode::Hierarchical {
        mask: NodeMask::single(NodeId::new(0)),
        threads,
        strict_fraction: 1.0,
        policy: StealPolicy::Strict,
    }
}

fn chunked_task(home: usize, compute: f64, bytes: f64) -> TaskSpec {
    TaskSpec {
        compute_ns: compute,
        mem_bytes: bytes,
        home_node: NodeId::new(home),
        locality: Locality::Chunked,
        data_mask: NodeMask::first_n(8),
        cache_reuse: 0.0,
        fits_l3: false,
    }
}

/// All work on one node's cores with local data vs the same cores with all
/// data remote (cross-socket): the remote run must be slower by roughly the
/// latency factor on the memory share.
#[test]
fn distance_latency_penalty() {
    let topo = presets::epyc_9354_2s();
    let params = MachineParams::for_topology(&topo).noiseless();
    let node0 = on_node0(0);
    // Local: homes on node 0. Remote: homes on node 7 (other socket).
    let local: Vec<TaskSpec> = (0..32)
        .map(|_| chunked_task(0, 10_000.0, 400_000.0))
        .collect();
    let remote: Vec<TaskSpec> = (0..32)
        .map(|_| chunked_task(7, 10_000.0, 400_000.0))
        .collect();
    let t_local = machine(params.clone(), 1)
        .run_taskloop(topo.all_nodes(), &node0, &local)
        .makespan_ns;
    let t_remote = machine(params, 1)
        .run_taskloop(topo.all_nodes(), &node0, &remote)
        .makespan_ns;
    assert!(
        t_remote > 1.1 * t_local,
        "cross-socket access must cost: local {t_local} remote {t_remote}"
    );
    assert!(
        t_remote < 3.0 * t_local,
        "prefetch damping must bound the penalty: {t_remote} vs {t_local}"
    );
}

/// The L3 reuse discount applies only at home with a fitting footprint.
#[test]
fn cache_reuse_discount() {
    let topo = presets::epyc_9354_2s();
    let params = MachineParams::for_topology(&topo).noiseless();
    let node0 = on_node0(0);
    let make = |reuse: f64, fits: bool| -> Vec<TaskSpec> {
        (0..16)
            .map(|_| TaskSpec {
                cache_reuse: reuse,
                fits_l3: fits,
                ..chunked_task(0, 5_000.0, 600_000.0)
            })
            .collect()
    };
    let cold = machine(params.clone(), 1)
        .run_taskloop(topo.all_nodes(), &node0, &make(0.0, true))
        .makespan_ns;
    let warm = machine(params.clone(), 1)
        .run_taskloop(topo.all_nodes(), &node0, &make(0.5, true))
        .makespan_ns;
    let no_fit = machine(params, 1)
        .run_taskloop(topo.all_nodes(), &node0, &make(0.5, false))
        .makespan_ns;
    assert!(warm < cold, "reuse must speed up: {warm} vs {cold}");
    assert!(
        (no_fit - cold).abs() < 1e-3 * cold,
        "reuse without fit must not apply: {no_fit} vs {cold}"
    );
}

/// Stream-concurrency penalty: many concurrent streaming flows into one
/// controller are slower than the same bytes moved by few flows.
#[test]
fn stream_concurrency_penalty() {
    let topo = presets::epyc_9354_2s();
    let mut params = MachineParams::for_topology(&topo).noiseless();
    params.stream_kappa = 0.10; // exaggerate for a crisp signal
    let tasks: Vec<TaskSpec> = (0..8)
        .map(|_| chunked_task(0, 1_000.0, 500_000.0))
        .collect();
    // 8 concurrent streams (all node-0 cores) vs 2 at a time (2 cores).
    let node0 = NodeMask::single(NodeId::new(0));
    let busy8 = machine(params.clone(), 1)
        .run_taskloop(node0, &on_node0(0), &tasks)
        .total_busy_ns();
    let busy2 = machine(params, 1)
        .run_taskloop(node0, &on_node0(2), &tasks)
        .total_busy_ns();
    // Same total bytes; with 8 concurrent flows each chunk runs slower, so
    // aggregate busy time is strictly larger.
    assert!(
        busy8 > 1.1 * busy2,
        "8 streams must thrash more than 2: {busy8} vs {busy2}"
    );
}

/// Scattered access pays no stream penalty (no row locality to destroy):
/// with a generous kappa, chunked traffic slows while scattered barely moves.
#[test]
fn scattered_traffic_is_stream_exempt() {
    let topo = presets::epyc_9354_2s();
    let base = MachineParams::for_topology(&topo).noiseless();
    let mut punishing = base.clone();
    punishing.stream_kappa = 0.25;

    let all = topo.all_nodes();
    let chunked: Vec<TaskSpec> = (0..64)
        .map(|i| chunked_task(i / 8, 1_000.0, 400_000.0))
        .collect();
    let scattered: Vec<TaskSpec> = (0..64)
        .map(|i| TaskSpec {
            locality: Locality::Scattered { spread: 1.0 },
            ..chunked_task(i / 8, 1_000.0, 400_000.0)
        })
        .collect();
    let ws = ExecMode::WorkSharing;

    let slowdown = |tasks: &[TaskSpec]| {
        let t0 = machine(base.clone(), 1)
            .run_taskloop(all, &ws, tasks)
            .makespan_ns;
        let t1 = machine(punishing.clone(), 1)
            .run_taskloop(all, &ws, tasks)
            .makespan_ns;
        t1 / t0
    };
    let chunked_slowdown = slowdown(&chunked);
    let scattered_slowdown = slowdown(&scattered);
    assert!(
        chunked_slowdown > 1.05,
        "kappa must bite streaming traffic: {chunked_slowdown}"
    );
    assert!(
        scattered_slowdown < chunked_slowdown,
        "gathers must be exempt: {scattered_slowdown} vs {chunked_slowdown}"
    );
}

/// An outlier window slows the whole invocation on the affected node.
#[test]
fn outlier_window_slows_a_node() {
    let topo = presets::tiny_2x4();
    let mut params = MachineParams::for_topology(&topo);
    // Force an outlier on every invocation.
    params.noise = NoiseParams {
        freq_jitter_sd: 0.0,
        outlier_prob: 1.0,
        outlier_factor: 0.5,
    };
    let clean = params.clone().noiseless();

    let tasks: Vec<TaskSpec> = (0..16)
        .map(|i| TaskSpec {
            compute_ns: 100_000.0,
            mem_bytes: 0.1,
            home_node: NodeId::new(i / 8),
            locality: Locality::Chunked,
            data_mask: NodeMask::first_n(2),
            cache_reuse: 0.0,
            fits_l3: false,
        })
        .collect();
    let all = topo.all_nodes();
    let t_clean = machine(clean, 3)
        .run_taskloop(all, &ExecMode::WorkSharing, &tasks)
        .makespan_ns;
    let t_outlier = machine(params, 3)
        .run_taskloop(all, &ExecMode::WorkSharing, &tasks)
        .makespan_ns;
    // Half-speed node with static slices ⇒ makespan roughly doubles.
    assert!(
        t_outlier > 1.5 * t_clean,
        "outlier must slow the run: {t_outlier} vs {t_clean}"
    );
}

/// Idle-tail accounting: a deliberately imbalanced static split produces
/// large accumulated overhead (parked workers spinning), while a balanced
/// one does not.
#[test]
fn idle_tails_are_charged_as_overhead() {
    let topo = presets::tiny_2x4();
    let params = MachineParams::for_topology(&topo).noiseless();
    let all = topo.all_nodes();
    let balanced: Vec<TaskSpec> = (0..8)
        .map(|i| chunked_task(i / 4, 500_000.0, 0.1))
        .collect();
    let mut imbalanced = balanced.clone();
    imbalanced[0].compute_ns = 5_000_000.0; // one 10× chunk
    let ovh_bal = machine(params.clone(), 1)
        .run_taskloop(all, &ExecMode::WorkSharing, &balanced)
        .sched_overhead_ns;
    let ovh_imb = machine(params, 1)
        .run_taskloop(all, &ExecMode::WorkSharing, &imbalanced)
        .sched_overhead_ns;
    assert!(
        ovh_imb > 5.0 * ovh_bal.max(1.0),
        "seven workers idling behind one straggler must dominate overhead: \
         {ovh_imb} vs {ovh_bal}"
    );
}

/// Link congestion: saturating cross-socket traffic is slower than the same
/// traffic within sockets.
#[test]
fn link_congestion_costs() {
    let topo = presets::epyc_9354_2s();
    let params = MachineParams::for_topology(&topo).noiseless();
    // All 64 cores; data homed so that execution is either aligned (local)
    // or fully cross-socket (socket 0 cores read socket 1 homes and vice
    // versa — maximal link pressure).
    let all = topo.all_nodes();
    let aligned: Vec<TaskSpec> = (0..64)
        .map(|i| chunked_task(i / 8, 2_000.0, 1_500_000.0))
        .collect();
    let crossed: Vec<TaskSpec> = (0..64)
        .map(|i| chunked_task((i / 8 + 4) % 8, 2_000.0, 1_500_000.0))
        .collect();
    let ws = ExecMode::WorkSharing;
    let t_aligned = machine(params.clone(), 1)
        .run_taskloop(all, &ws, &aligned)
        .makespan_ns;
    let t_crossed = machine(params, 1)
        .run_taskloop(all, &ws, &crossed)
        .makespan_ns;
    assert!(
        t_crossed > 1.2 * t_aligned,
        "saturated xGMI must cost: {t_crossed} vs {t_aligned}"
    );
}
