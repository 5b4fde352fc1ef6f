//! Probe: single-site diagnostics under the four execution shapes.
use ilan::{Decision, StealPolicy};
use ilan_numasim::{MachineParams, SimMachine};
use ilan_topology::presets;
use ilan_workloads::{Scale, ALL_WORKLOADS};

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let topo = presets::epyc_9354_2s();
    for w in ALL_WORKLOADS {
        if !args.is_empty() && !args.iter().any(|n| n.eq_ignore_ascii_case(w.name())) {
            continue;
        }
        let app = w.sim_app(&topo, Scale::Paper);
        println!("### {}", w.name());
        for (si, site) in app.sites.iter().enumerate() {
            let tasks = &site.tasks;
            let ideal: f64 = tasks.iter().map(|t| t.ideal_ns(22.0)).sum::<f64>() / 64.0;
            print!(
                "  site{si} {:<16} ideal64={:>8.0}us |",
                site.name,
                ideal / 1e3
            );
            for (label, mode) in [("flat", Decision::Flat), ("static", Decision::WorkSharing)] {
                let mut m = SimMachine::new(MachineParams::for_topology(&topo).noiseless(), 1);
                let out = m.run_taskloop(topo.all_nodes(), &mode, tasks);
                print!(" {label}={:.0}us", out.makespan_ns / 1e3);
            }
            for threads in [64usize, 48, 40, 32, 24] {
                let mask = ilan::nodemask::select_mask(&topo, None, threads);
                let d = Decision::Hierarchical {
                    threads,
                    mask,
                    strict_fraction: 0.5,
                    policy: StealPolicy::Full,
                };
                let mut m = SimMachine::new(MachineParams::for_topology(&topo).noiseless(), 1);
                let out = m.run_taskloop(topo.all_nodes(), &d, tasks);
                print!(" h{threads}={:.0}us", out.makespan_ns / 1e3);
            }
            println!();
        }
    }
}
