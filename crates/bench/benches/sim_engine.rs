//! Micro-benchmarks of the simulator engine itself (real wall time): how
//! fast the fluid-rate event loop processes events. Useful when extending
//! the memory model — regressions here multiply across the whole
//! reproduction harness.
//!
//! Every case reports its throughput in simulator events (counted by the
//! machine on an untimed run of the same case), so `1e9 / (elem/s)` is the
//! cost per event in ns — the figure that carries over between machines.
//! The cases cover a one-lane flat loop (chunked and scattered traffic), a
//! hierarchical loop whose strict prefixes leave a stealable tail, and two
//! lanes timesharing cores. Machines draw their usual per-core frequency
//! noise (seed 7), so identical chunks do not all finish on one event.

use criterion::{criterion_group, criterion_main, Criterion, Throughput};
use ilan_numasim::{
    ColoMachine, Locality, MachineParams, NodeAssignment, PlacementPlan, SimMachine, TaskSpec,
};
use ilan_topology::{presets, CpuSet, NodeId, NodeMask, Topology};
use std::time::Duration;

fn tasks(n: usize, nodes: usize, scattered: bool) -> Vec<TaskSpec> {
    (0..n)
        .map(|i| TaskSpec {
            compute_ns: 20_000.0,
            mem_bytes: 400_000.0,
            home_node: NodeId::new(i * nodes / n),
            locality: if scattered {
                Locality::Scattered { spread: 0.8 }
            } else {
                Locality::Chunked
            },
            data_mask: NodeMask::first_n(nodes),
            cache_reuse: 0.2,
            fits_l3: true,
        })
        .collect()
}

/// Contiguous per-node blocks, the first `strict` of each block NUMA-strict.
fn hier_plan(n: usize, nodes: usize, strict: f64) -> PlacementPlan {
    let assignments = (0..nodes)
        .map(|node| {
            let ts: Vec<usize> = (0..n).filter(|i| i * nodes / n == node).collect();
            NodeAssignment {
                node: NodeId::new(node),
                strict_count: (ts.len() as f64 * strict) as usize,
                tasks: ts,
            }
        })
        .collect();
    PlacementPlan::Hierarchical { assignments }
}

/// Times `$run` (a closure returning the events it processed) with the
/// events of one untimed run as the group's throughput.
macro_rules! bench_events {
    ($group:expr, $name:expr, $run:expr) => {{
        let mut run = $run;
        $group.throughput(Throughput::Elements(run()));
        $group.bench_function($name, |b| b.iter(&mut run));
    }};
}

fn one_lane(topo: &Topology, cores: &CpuSet, plan: &PlacementPlan, specs: &[TaskSpec]) -> u64 {
    let mut m = SimMachine::new(MachineParams::for_topology(topo), 7);
    m.run_taskloop(cores, plan, specs);
    m.event_counts().events
}

fn engine_throughput(c: &mut Criterion) {
    let topo = presets::epyc_9354_2s();
    let nodes = topo.num_nodes();
    let all = topo.cpuset_of_mask(topo.all_nodes());
    let mut group = c.benchmark_group("sim-engine");
    group
        .sample_size(20)
        .measurement_time(Duration::from_secs(4));
    for (name, scattered) in [("chunked", false), ("scattered", true)] {
        for chunks in [256usize, 2048] {
            let specs = tasks(chunks, nodes, scattered);
            bench_events!(group, format!("{name}/{chunks}-chunks"), || {
                one_lane(&topo, &all, &PlacementPlan::flat(), &specs)
            });
        }
    }

    // Hierarchical: the first 60% of each node's block is strict, so idle
    // nodes steal the tails of the busy ones (every fourth node's chunks
    // are four times heavier).
    let mut specs = tasks(2048, nodes, false);
    for (i, t) in specs.iter_mut().enumerate() {
        if (i * nodes / 2048).is_multiple_of(4) {
            t.compute_ns *= 4.0;
        }
    }
    let plan = hier_plan(2048, nodes, 0.6);
    bench_events!(group, "hier-stealable-tail/2048-chunks", || {
        one_lane(&topo, &all, &plan, &specs)
    });

    // Two lanes timesharing socket 0: the whole machine under a
    // hierarchical plan, and socket 0 under the flat baseline.
    let socket0 = topo.cpuset_of_mask(NodeMask::first_n(nodes / 2));
    let a_specs = tasks(1024, nodes, false);
    let b_specs = tasks(1024, nodes / 2, true);
    let a_plan = hier_plan(1024, nodes, 0.6);
    bench_events!(group, "two-lanes-shared-cores/2x1024-chunks", || {
        let mut colo = ColoMachine::new(MachineParams::for_topology(&topo), 7);
        let (a, b) = (colo.add_lane(), colo.add_lane());
        colo.start_loop(a, &all, &a_plan, a_specs.clone(), 0.0);
        colo.start_loop(
            b,
            &socket0,
            &PlacementPlan::flat(),
            b_specs.clone(),
            5_000.0,
        );
        while colo.run_until_next_completion().is_some() {}
        colo.event_counts().events
    });
    group.finish();
}

criterion_group!(benches, engine_throughput);
criterion_main!(benches);
