//! Quickstart: run a taskloop under the ILAN scheduler, natively and in
//! simulation.
//!
//! ```text
//! cargo run --release --example quickstart
//! ```
//!
//! Part 1 executes a real parallel loop on this machine through the native
//! work-stealing runtime, letting ILAN pick the configuration per
//! invocation. Part 2 simulates the paper's 64-core EPYC 9354 and shows the
//! moldability search converging on a bandwidth-saturated loop.

use ilan_suite::prelude::*;
use std::sync::atomic::{AtomicU64, Ordering};

fn main() {
    native_part();
    simulated_part();
}

/// A real taskloop on the current machine: sum of square roots.
fn native_part() {
    println!("== native runtime ==");
    // Model this machine (flat SMP if no NUMA is visible).
    let topo = ilan_suite::topology::detect::detect();
    println!("detected: {}", topo.summary());

    let pool = ThreadPool::new(PoolConfig::new(topo.clone())).expect("pool");
    let mut ilan = IlanScheduler::new(IlanParams::for_topology(&topo));
    let mut sites = SiteRegistry::new();
    let site = sites.site("quickstart/sqrt-sum");

    let n = 4_000_000usize;
    for iteration in 0..6 {
        let sum_bits = AtomicU64::new(0f64.to_bits());
        let (decision, report) =
            run_native_invocation(&pool, &mut ilan, site, 0..n, n / 256, |range| {
                let partial: f64 = range.map(|i| (i as f64).sqrt()).sum();
                // Atomic f64 accumulation.
                let mut cur = sum_bits.load(Ordering::Relaxed);
                loop {
                    let new = f64::from_bits(cur) + partial;
                    match sum_bits.compare_exchange_weak(
                        cur,
                        new.to_bits(),
                        Ordering::AcqRel,
                        Ordering::Relaxed,
                    ) {
                        Ok(_) => break,
                        Err(c) => cur = c,
                    }
                }
            });
        let threads = match decision {
            Decision::Hierarchical { threads, .. } => threads,
            Decision::Flat | Decision::WorkSharing => 0,
        };
        println!(
            "  iter {iteration}: threads={threads:<3} time={:>8.3}ms locality={:.2} sum={:.1}",
            report.time_ns / 1e6,
            report.locality,
            f64::from_bits(sum_bits.load(Ordering::Acquire)),
        );
    }
}

/// The paper's machine in simulation: watch moldability converge.
fn simulated_part() {
    println!("\n== simulated EPYC 9354 (8 NUMA nodes × 8 cores) ==");
    let topo = presets::epyc_9354_2s();
    print!("{}", ilan_suite::topology::render_tree(&topo));
    let mut machine = SimMachine::new(MachineParams::for_topology(&topo), 42);
    let mut ilan = IlanScheduler::new(IlanParams::for_topology(&topo));
    let site = SiteId::new(0);

    // A bandwidth-saturated loop (CG-like): 256 chunks, mostly memory.
    let tasks: Vec<TaskSpec> = (0..256)
        .map(|i| TaskSpec {
            compute_ns: 40_000.0,
            mem_bytes: 3_500_000.0,
            home_node: NodeId::new(i * 8 / 256),
            locality: Locality::Scattered { spread: 1.0 },
            data_mask: topo.all_nodes(),
            cache_reuse: 0.0,
            fits_l3: false,
        })
        .collect();

    for k in 1..=10 {
        let (decision, report) = run_sim_invocation(&mut machine, &mut ilan, site, &tasks);
        let Decision::Hierarchical {
            threads,
            mask,
            policy,
            ..
        } = decision
        else {
            unreachable!("ILAN decides hierarchically")
        };
        println!(
            "  invocation {k:>2}: threads={threads:<3} mask={mask:?} steal={policy:?} time={:>7.2}ms",
            report.time_ns / 1e6,
        );
    }
    println!("  settled: {:?}", ilan.settled_decision(site));
}
