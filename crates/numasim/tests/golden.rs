//! Golden determinism digests of single-application runs on [`SimMachine`].
//!
//! The simulator's outputs are pure functions of (machine seed, workload,
//! policy). These digests pin them bit for bit: any change to the event
//! loop, the cost model or the worker state machine that alters a single
//! float of a run's statistics moves the digest. A refactor that claims to be
//! behaviour-preserving must leave them untouched; a deliberate model
//! change updates them together with EXPERIMENTS.md.

use ilan::{BaselinePolicy, IlanParams, IlanScheduler, Policy, RunStats};
use ilan_numasim::{MachineParams, SimMachine};
use ilan_topology::presets;
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

const BASELINE_DIGEST: u64 = 3_096_612_523_318_914_655;
const ILAN_DIGEST: u64 = 13_153_250_096_401_497_142;
