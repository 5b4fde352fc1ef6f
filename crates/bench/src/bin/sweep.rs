//! `sweep` — scheduler-response diagnostics and ablation sweeps.
//!
//! For each benchmark, prints the per-run wall time under:
//! * the four schedulers of the paper (baseline / ILAN / no-mold / static),
//! * fixed hierarchical configurations across the thread-count range
//!   (8, 16, …, 64 threads, strict policy) — the response curve the
//!   moldability search navigates.
//!
//! This is the tool used to calibrate the simulator profiles (DESIGN.md) and
//! doubles as the granularity/threads ablation for the extended evaluation.
//!
//! ```text
//! cargo run --release -p ilan-bench --bin sweep -- [--quick] [bench ...]
//! ```

use ilan::{Decision, FixedPolicy, StealPolicy};
use ilan_numasim::{MachineParams, SimMachine};
use ilan_topology::presets;
use ilan_workloads::{Scale, Workload, ALL_WORKLOADS};

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let quick = args.iter().any(|a| a == "--quick");
    let scale = if quick { Scale::Quick } else { Scale::Paper };
    let names: Vec<&str> = args
        .iter()
        .filter(|a| !a.starts_with("--"))
        .map(|s| s.as_str())
        .collect();

    let topo = presets::epyc_9354_2s();
    let workloads: Vec<Workload> = ALL_WORKLOADS
        .into_iter()
        .filter(|w| names.is_empty() || names.iter().any(|n| n.eq_ignore_ascii_case(w.name())))
        .collect();

    for w in workloads {
        let app = w.sim_app(&topo, scale);
        println!(
            "### {} ({} sites, {} steps)",
            w.name(),
            app.sites.len(),
            app.steps
        );

        for s in ilan_bench::ALL_SCHEDULERS {
            let mut machine = SimMachine::new(MachineParams::for_topology(&topo).noiseless(), 1);
            let mut policy = s.make_policy(&topo);
            let stats = app.run(&mut machine, policy.as_mut());
            println!(
                "  {:<12} wall {:>8.4}s  ovh {:>7.4}s  thr {:>5.1}  loc {:>5.2}  migr {}",
                s.name(),
                stats.wall_time_ns() * 1e-9,
                stats.total_overhead_ns * 1e-9,
                stats.weighted_avg_threads(),
                stats.weighted_avg_locality(),
                stats.migrations,
            );
        }

        // Fixed-thread response curve (strict hierarchical).
        print!("  response: ");
        for threads in [8usize, 16, 24, 32, 40, 48, 56, 64] {
            let mask = ilan::nodemask::select_mask(&topo, None, threads);
            let mut machine = SimMachine::new(MachineParams::for_topology(&topo).noiseless(), 1);
            let mut policy = FixedPolicy::new(Decision::Hierarchical {
                threads,
                mask,
                strict_fraction: 1.0,
                policy: StealPolicy::Strict,
            });
            let stats = app.run(&mut machine, &mut policy);
            print!("{}t={:.4}s ", threads, stats.wall_time_ns() * 1e-9);
        }
        println!("\n");
    }
}
