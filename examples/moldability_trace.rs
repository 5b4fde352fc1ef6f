//! Trace ILAN's configuration search over every paper benchmark.
//!
//! ```text
//! cargo run --release --example moldability_trace [bench ...]
//! ```
//!
//! For each benchmark (on the simulated EPYC 9354), prints the decision ILAN
//! takes at each of the first invocations of the dominant taskloop site —
//! the priming runs, the binary-search exploration of Algorithm 1, the
//! steal-policy trial, and the settled configuration. This is Figure 1 of
//! the paper come to life.

use ilan_suite::prelude::*;

fn main() {
    let names: Vec<String> = std::env::args().skip(1).collect();
    let topo = presets::epyc_9354_2s();

    for workload in ALL_WORKLOADS {
        if !names.is_empty()
            && !names
                .iter()
                .any(|n| n.eq_ignore_ascii_case(workload.name()))
        {
            continue;
        }
        let app = workload.sim_app(&topo, Scale::Quick);
        // Trace the heaviest site (most total ideal work).
        let (dominant, site_spec) = app
            .sites
            .iter()
            .enumerate()
            .max_by(|(_, a), (_, b)| {
                let wa: f64 = a.tasks.iter().map(|t| t.ideal_ns(22.0)).sum();
                let wb: f64 = b.tasks.iter().map(|t| t.ideal_ns(22.0)).sum();
                wa.partial_cmp(&wb).unwrap()
            })
            .expect("app has sites");
        println!(
            "\n=== {} — site `{}` ({} chunks) ===",
            workload.name(),
            site_spec.name,
            site_spec.tasks.len()
        );

        let mut machine = SimMachine::new(MachineParams::for_topology(&topo), 7);
        let mut ilan = IlanScheduler::new(IlanParams::for_topology(&topo));
        let site = SiteId::new(dominant as u64);
        let mut last_threads = 0;
        for k in 1..=14 {
            let (decision, report) =
                run_sim_invocation(&mut machine, &mut ilan, site, &site_spec.tasks);
            let Decision::Hierarchical {
                threads,
                mask,
                policy,
                ..
            } = decision
            else {
                unreachable!("ILAN decides hierarchically")
            };
            // Phase *after* the invocation was recorded.
            let phase = format!("{:?}", ilan.phase(site));
            println!(
                "  k={k:>2} threads={threads:<3} steal={:<6} mask={:<22} time={:>8.2}ms → {phase}",
                format!("{policy:?}"),
                format!("{mask:?}"),
                report.time_ns / 1e6
            );
            if ilan.settled_decision(site).is_some() && threads == last_threads && k > 6 {
                println!("  … settled");
                break;
            }
            last_threads = threads;
        }
    }
}
