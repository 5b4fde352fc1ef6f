//! Running the benchmark × scheduler × seed matrix.

use ilan::{BaselinePolicy, IlanParams, IlanScheduler, Policy, RunStats, WorkSharingPolicy};
use ilan_numasim::{MachineParams, SimMachine};
use ilan_topology::Topology;
use ilan_workloads::{Scale, Workload, ALL_WORKLOADS};
use std::collections::HashMap;

/// The schedulers compared in the paper.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum Scheduler {
    /// Default LLVM-style flat tasking (the paper's baseline).
    Baseline,
    /// Full ILAN: hierarchical distribution + moldability + steal trial.
    Ilan,
    /// ILAN without moldability (Figure 4 ablation).
    IlanNoMold,
    /// OpenMP static work-sharing (Figure 6 comparison).
    WorkSharing,
}

/// All four schedulers in presentation order.
pub const ALL_SCHEDULERS: [Scheduler; 4] = [
    Scheduler::Baseline,
    Scheduler::Ilan,
    Scheduler::IlanNoMold,
    Scheduler::WorkSharing,
];

impl Scheduler {
    /// Display name.
    pub fn name(self) -> &'static str {
        match self {
            Scheduler::Baseline => "baseline",
            Scheduler::Ilan => "ilan",
            Scheduler::IlanNoMold => "ilan-nomold",
            Scheduler::WorkSharing => "worksharing",
        }
    }

    /// Instantiates the policy for a topology.
    pub fn make_policy(self, topology: &Topology) -> Box<dyn Policy> {
        match self {
            Scheduler::Baseline => Box::new(BaselinePolicy),
            Scheduler::Ilan => Box::new(IlanScheduler::new(IlanParams::for_topology(topology))),
            Scheduler::IlanNoMold => {
                Box::new(IlanScheduler::new(IlanParams::no_moldability(topology)))
            }
            Scheduler::WorkSharing => Box::new(WorkSharingPolicy),
        }
    }
}

/// Outcome of one complete application run.
#[derive(Clone, Debug)]
pub struct RunResult {
    /// Total wall time (taskloops + serial), seconds.
    pub wall_s: f64,
    /// Accumulated scheduling overhead, seconds.
    pub overhead_s: f64,
    /// Time-weighted average thread count.
    pub weighted_threads: f64,
    /// Time-weighted average locality fraction.
    pub locality: f64,
    /// Total inter-node migrations.
    pub migrations: u64,
    /// Average delivered DRAM bandwidth over taskloop time, bytes/ns (GB/s).
    pub bandwidth_gbps: f64,
}

impl RunResult {
    fn from_stats(stats: &RunStats) -> RunResult {
        RunResult {
            wall_s: stats.wall_time_ns() * 1e-9,
            overhead_s: stats.total_overhead_ns * 1e-9,
            weighted_threads: stats.weighted_avg_threads(),
            locality: stats.weighted_avg_locality(),
            migrations: stats.migrations,
            bandwidth_gbps: stats.avg_bandwidth(),
        }
    }
}

/// Executes one run: one workload, one scheduler, one machine seed.
pub fn run_once(
    workload: Workload,
    scheduler: Scheduler,
    topology: &Topology,
    scale: Scale,
    seed: u64,
) -> RunResult {
    let app = workload.sim_app(topology, scale);
    let mut machine = SimMachine::new(MachineParams::for_topology(topology), seed);
    let mut policy = scheduler.make_policy(topology);
    let stats = app.run(&mut machine, policy.as_mut());
    RunResult::from_stats(&stats)
}

/// All runs of the evaluation matrix.
pub struct Collection {
    /// Results per (workload, scheduler), one entry per seed, same order.
    pub runs: HashMap<(Workload, Scheduler), Vec<RunResult>>,
    /// Number of seeds per cell.
    pub num_runs: usize,
    /// Workloads included, in presentation order.
    pub workloads: Vec<Workload>,
    /// Core count of the collected machine (64 on the paper's platform).
    pub machine_cores: usize,
}

impl Collection {
    /// The runs for one cell (panics if the cell was not collected — a
    /// harness bug).
    pub fn cell(&self, w: Workload, s: Scheduler) -> &[RunResult] {
        &self.runs[&(w, s)]
    }

    /// Wall-time samples of one cell, seconds.
    pub fn wall_times(&self, w: Workload, s: Scheduler) -> Vec<f64> {
        self.cell(w, s).iter().map(|r| r.wall_s).collect()
    }

    /// Mean wall time of one cell, seconds.
    pub fn mean_wall(&self, w: Workload, s: Scheduler) -> f64 {
        let t = self.wall_times(w, s);
        t.iter().sum::<f64>() / t.len() as f64
    }

    /// Normalized speedup of `s` over the baseline for workload `w`
    /// (>1 = faster than baseline), as plotted in Figures 2/4/6.
    pub fn speedup(&self, w: Workload, s: Scheduler) -> f64 {
        self.mean_wall(w, Scheduler::Baseline) / self.mean_wall(w, s)
    }
}

/// Runs the full matrix: every workload × the given schedulers × `num_runs`
/// seeds. Progress goes to stderr (this is minutes of work at paper scale).
pub fn collect(
    topology: &Topology,
    schedulers: &[Scheduler],
    scale: Scale,
    num_runs: usize,
) -> Collection {
    let mut runs = HashMap::new();
    for &w in ALL_WORKLOADS.iter() {
        for &s in schedulers {
            let mut cell = Vec::with_capacity(num_runs);
            for seed in 0..num_runs as u64 {
                cell.push(run_once(w, s, topology, scale, 0x11A4 + seed));
            }
            eprintln!(
                "  collected {:>7} / {:<12} {} runs, mean {:.3}s",
                w.name(),
                s.name(),
                num_runs,
                cell.iter().map(|r| r.wall_s).sum::<f64>() / num_runs as f64
            );
            runs.insert((w, s), cell);
        }
    }
    Collection {
        runs,
        num_runs,
        workloads: ALL_WORKLOADS.to_vec(),
        machine_cores: topology.num_cores(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ilan_topology::presets;

    #[test]
    fn run_once_is_deterministic_per_seed() {
        let topo = presets::epyc_9354_2s();
        let a = run_once(
            Workload::Matmul,
            Scheduler::Baseline,
            &topo,
            Scale::Quick,
            3,
        );
        let b = run_once(
            Workload::Matmul,
            Scheduler::Baseline,
            &topo,
            Scale::Quick,
            3,
        );
        assert_eq!(a.wall_s, b.wall_s);
        let c = run_once(
            Workload::Matmul,
            Scheduler::Baseline,
            &topo,
            Scale::Quick,
            4,
        );
        assert_ne!(a.wall_s, c.wall_s);
    }

    #[test]
    fn scheduler_policies_have_expected_names() {
        let topo = presets::tiny_2x4();
        for s in ALL_SCHEDULERS {
            let p = s.make_policy(&topo);
            assert!(!p.name().is_empty());
        }
        assert_eq!(Scheduler::Ilan.make_policy(&topo).name(), "ilan");
        assert_eq!(
            Scheduler::IlanNoMold.make_policy(&topo).name(),
            "ilan-nomold"
        );
    }
}
