//! Execution timelines: watch where chunks actually run.
//!
//! ```text
//! cargo run --release --example timeline
//! ```
//!
//! Simulates one imbalanced taskloop on a small two-node machine under the
//! three execution shapes and renders a per-core Gantt chart of each. The
//! contrast makes the schedulers' behaviour tangible: static slices strand
//! cores behind stragglers, the flat baseline balances but scatters chunks
//! across nodes, and the hierarchical plan keeps chunks home while stealing
//! fills the tail.

use ilan_suite::prelude::*;

fn main() {
    let topo = presets::tiny_2x4();
    println!("{}", ilan_suite::topology::render_tree(&topo));

    // 24 chunks, node-blocked data, with two heavy stragglers.
    let tasks: Vec<TaskSpec> = (0..24)
        .map(|i| TaskSpec {
            compute_ns: if i % 11 == 3 { 900_000.0 } else { 160_000.0 },
            mem_bytes: 600_000.0,
            home_node: NodeId::new(i / 12),
            locality: Locality::Chunked,
            data_mask: topo.all_nodes(),
            cache_reuse: 0.25,
            fits_l3: true,
        })
        .collect();
    let shapes = [
        ("static work-sharing", ExecMode::WorkSharing),
        ("flat work-stealing (baseline)", ExecMode::Flat),
        (
            "hierarchical + full stealing (ILAN)",
            ExecMode::Hierarchical {
                mask: topo.all_nodes(),
                threads: 8,
                strict_fraction: 0.5,
                policy: StealPolicy::Full,
            },
        ),
    ];

    for (name, mode) in shapes {
        let mut machine = SimMachine::new(MachineParams::for_topology(&topo).noiseless(), 7);
        let out = machine.run_taskloop_traced(topo.all_nodes(), &mode, &tasks);
        println!(
            "== {name} ==  makespan {:.2}ms, locality {:.2}, migrations {}",
            out.makespan_ns / 1e6,
            out.locality_fraction(),
            out.migrations
        );
        print!("{}", out.gantt(64));
        println!();
    }
    println!("(letters = chunks a–x; cores 0–3 are NUMA node 0, 4–7 node 1)");
}
