//! [`SimMachine`]: one simulated machine for the duration of one run.

use crate::colo::{ColoMachine, EventCounts};
use crate::metrics::SimMetrics;
use crate::outcome::LoopOutcome;
use crate::params::MachineParams;
use crate::task::TaskSpec;
use ilan_topology::{ExecMode, NodeMask, Topology};

/// The lane of the machine's [`ColoMachine`] that runs every invocation.
const LANE: usize = 0;

/// A simulated NUMA machine.
///
/// Created per run with a seed; the seed fixes the run's noise (per-core
/// frequency factors, outlier windows) so any run can be replayed exactly.
/// Taskloop invocations execute one at a time — the paper's model, where a
/// `taskloop` is followed by an implicit barrier — on a one-lane
/// [`ColoMachine`], and the machine keeps a global clock across invocations
/// ([`now_ns`](Self::now_ns)).
pub struct SimMachine {
    colo: ColoMachine,
    now_ns: f64,
    metrics: Option<SimMetrics>,
}

impl SimMachine {
    /// Builds a machine and draws its per-run noise from `seed`.
    ///
    /// # Panics
    /// Panics if `params` fails validation.
    pub fn new(params: MachineParams, seed: u64) -> Self {
        let mut colo = ColoMachine::new(params, seed);
        assert_eq!(colo.add_lane(), LANE);
        SimMachine {
            colo,
            now_ns: 0.0,
            metrics: None,
        }
    }

    /// Attaches lane instruments: every subsequent invocation folds its
    /// [`LoopOutcome`] into the given [`SimMetrics`]. Opt-in and free of
    /// side effects on the simulation — the seeded noise, the clock and all
    /// outcomes are byte-identical with or without metrics attached.
    pub fn attach_metrics(&mut self, metrics: SimMetrics) {
        self.metrics = Some(metrics);
    }

    /// The attached instruments, if any.
    pub fn metrics(&self) -> Option<&SimMetrics> {
        self.metrics.as_ref()
    }

    /// The machine's topology.
    pub fn topology(&self) -> &Topology {
        self.colo.topology()
    }

    /// The machine's performance parameters.
    pub fn params(&self) -> &MachineParams {
        self.colo.params()
    }

    /// Global simulated clock: total time elapsed across all invocations and
    /// serial sections, ns.
    pub fn now_ns(&self) -> f64 {
        self.now_ns
    }

    /// Events processed and chunk re-pricings done and skipped over every
    /// invocation so far.
    pub fn event_counts(&self) -> EventCounts {
        self.colo.event_counts()
    }

    /// The per-core frequency factors drawn for this run (1.0 = nominal).
    pub fn core_freqs(&self) -> &[f64] {
        self.colo.core_freqs()
    }

    /// Advances the clock over a serial (non-taskloop) section.
    pub fn advance_serial(&mut self, ns: f64) {
        assert!(
            ns >= 0.0 && ns.is_finite(),
            "serial time must be finite and >= 0"
        );
        self.now_ns += ns;
    }

    /// Executes one taskloop invocation under `mode`, advancing the global
    /// clock by its makespan. A flat or work-sharing loop runs on every core
    /// of `span`; a hierarchical one on its own mask and thread count (see
    /// [`ColoMachine::start_loop`]).
    ///
    /// # Panics
    /// Panics on any [`ColoMachine::start_loop`] precondition.
    pub fn run_taskloop(
        &mut self,
        span: NodeMask,
        mode: &ExecMode,
        tasks: &[TaskSpec],
    ) -> LoopOutcome {
        self.invoke(span, mode, tasks, false)
    }

    /// Like [`run_taskloop`](Self::run_taskloop), additionally collecting a
    /// per-chunk execution trace (see [`LoopOutcome::trace`] and
    /// [`LoopOutcome::gantt`]) and the scheduler event log
    /// ([`LoopOutcome::events`]) consumed by `ilan-trace`'s auditor and
    /// Chrome-trace exporter. Tracing allocates per chunk, so it is off by
    /// default.
    pub fn run_taskloop_traced(
        &mut self,
        span: NodeMask,
        mode: &ExecMode,
        tasks: &[TaskSpec],
    ) -> LoopOutcome {
        self.invoke(span, mode, tasks, true)
    }

    fn invoke(
        &mut self,
        span: NodeMask,
        mode: &ExecMode,
        tasks: &[TaskSpec],
        traced: bool,
    ) -> LoopOutcome {
        let before = self.colo.event_counts();
        let outcome = self.colo.run_alone(LANE, span, mode, tasks, traced);
        self.now_ns += outcome.makespan_ns;
        if let Some(m) = &self.metrics {
            m.record_outcome(&outcome);
            m.record_events(self.colo.event_counts().since(before));
        }
        outcome
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::noise::NoiseParams;
    use crate::task::Locality;
    use ilan_topology::{presets, ChunkAssignment, NodeId, StealPolicy};

    fn tasks(n: usize) -> Vec<TaskSpec> {
        uniform_tasks(n, 2, 50_000.0)
            .into_iter()
            .map(|t| TaskSpec {
                compute_ns: 5_000.0,
                cache_reuse: 0.2,
                fits_l3: true,
                ..t
            })
            .collect()
    }

    /// Hierarchical over the first `nodes` nodes, every core active, the
    /// first `strict_fraction` of each node's chunks NUMA-strict.
    fn hier(nodes: usize, strict_fraction: f64) -> ExecMode {
        ExecMode::Hierarchical {
            mask: NodeMask::first_n(nodes),
            threads: 0,
            strict_fraction,
            policy: StealPolicy::Full,
        }
    }

    #[test]
    fn same_seed_same_outcome() {
        let topo = presets::tiny_2x4();
        let run = |seed| {
            let mut m = SimMachine::new(MachineParams::for_topology(&topo), seed);
            let all = m.topology().all_nodes();
            m.run_taskloop(all, &ExecMode::Flat, &tasks(32)).makespan_ns
        };
        assert_eq!(run(5), run(5));
        assert_ne!(run(5), run(6), "different seeds should differ under noise");
    }

    #[test]
    fn noiseless_hierarchical_is_seed_independent() {
        // The flat baseline's block permutation is intentionally seed-driven
        // (random placement is part of the modelled scheduler), but ILAN's
        // deterministic distribution must not depend on the seed when the
        // machine is noiseless.
        let topo = presets::tiny_2x4();
        let run = |seed| {
            let mut m = SimMachine::new(MachineParams::for_topology(&topo).noiseless(), seed);
            m.run_taskloop(topo.all_nodes(), &hier(2, 1.0), &tasks(32))
                .makespan_ns
        };
        assert_eq!(run(1), run(99));
    }

    #[test]
    fn flat_placement_varies_with_seed_even_noiseless() {
        let topo = presets::tiny_2x4();
        let run = |seed| {
            let mut m = SimMachine::new(MachineParams::for_topology(&topo).noiseless(), seed);
            let all = m.topology().all_nodes();
            m.run_taskloop(all, &ExecMode::Flat, &tasks(32))
                .locality_fraction()
        };
        // Different permutations land different chunks locally. Any two
        // particular seeds may collide on the locality statistic (distinct
        // permutations often tie), so assert variation across a seed set.
        let fractions: Vec<f64> = (1..=16).map(run).collect();
        assert!(
            fractions.iter().any(|&f| f != fractions[0]),
            "flat placement ignored the seed: {fractions:?}"
        );
    }

    #[test]
    fn clock_accumulates() {
        let topo = presets::tiny_2x4();
        let mut m = SimMachine::new(MachineParams::for_topology(&topo).noiseless(), 1);
        let all = topo.all_nodes();
        assert_eq!(m.now_ns(), 0.0);
        let o1 = m.run_taskloop(all, &ExecMode::Flat, &tasks(16));
        assert!((m.now_ns() - o1.makespan_ns).abs() < 1e-9);
        m.advance_serial(1_000.0);
        let o2 = m.run_taskloop(all, &ExecMode::Flat, &tasks(16));
        assert!((m.now_ns() - (o1.makespan_ns + 1_000.0 + o2.makespan_ns)).abs() < 1e-6);
    }

    #[test]
    #[should_panic(expected = "serial time")]
    fn rejects_negative_serial() {
        let topo = presets::tiny_2x4();
        let mut m = SimMachine::new(MachineParams::for_topology(&topo), 1);
        m.advance_serial(-1.0);
    }

    /// Differential check, simulator half: the lane counters and the
    /// migration counter must agree with the traced event log and the
    /// outcome of the same invocation — and attaching metrics must not
    /// perturb the simulation.
    #[test]
    fn metrics_match_traced_event_log() {
        use crate::metrics::SimMetrics;

        let topo = presets::tiny_2x4();
        // Node 0's chunks are forty times node 1's and wholly stealable:
        // node 1's idle workers must batch-steal, so migrations are
        // guaranteed.
        let mut work = tasks(32);
        for t in &mut work[..16] {
            t.compute_ns *= 40.0;
        }
        let run = |metrics: Option<SimMetrics>| {
            let mut m = SimMachine::new(MachineParams::for_topology(&topo).noiseless(), 3);
            if let Some(metrics) = metrics {
                m.attach_metrics(metrics);
            }
            m.run_taskloop_traced(topo.all_nodes(), &hier(2, 0.0), &work)
        };

        let metrics = SimMetrics::new();
        let outcome = run(Some(metrics.clone()));
        assert!(outcome.migrations > 0, "the stealable tail must migrate");

        let snap = metrics.registry().snapshot();
        assert_eq!(
            snap.counter_total("ilan_sim_migrations") as usize,
            outcome.migrations
        );
        // The traced event log tells the same story.
        assert_eq!(outcome.events.inter_node_steals(), outcome.migrations);
        // Lane task counters sum to the chunks executed, split per node.
        assert_eq!(
            snap.counter_total("ilan_sim_node_tasks") as usize,
            outcome.tasks_executed()
        );
        for (i, node) in outcome.nodes.iter().enumerate() {
            use ilan_metrics::SampleValue;
            let label = i.to_string();
            let local = match snap.get_with(
                "ilan_sim_node_tasks",
                &[("node", label.as_str()), ("locality", "local")],
            ) {
                Some(SampleValue::Counter(v)) => *v as usize,
                None => 0,
                other => panic!("node {i}: {other:?}"),
            };
            assert_eq!(local, node.local_tasks, "node {i} locality split");
        }
        assert_eq!(snap.counter_total("ilan_sim_loops"), 1);

        // Metrics are purely observational: same seed, same outcome.
        let bare = run(None);
        assert_eq!(bare.makespan_ns, outcome.makespan_ns);
        assert_eq!(bare.migrations, outcome.migrations);
    }

    /// The engine's event counts fold into the metrics, and attaching
    /// metrics changes no outcome by a bit.
    #[test]
    fn event_counts_fold_into_metrics_without_perturbing_outcomes() {
        use crate::metrics::SimMetrics;

        let topo = presets::epyc_9354_2s();
        let run = |metrics: Option<SimMetrics>| {
            let mut m = SimMachine::new(MachineParams::for_topology(&topo), 5);
            if let Some(metrics) = metrics {
                m.attach_metrics(metrics);
            }
            let work = uniform_tasks(256, 8, 400_000.0);
            let outcomes: Vec<String> = [ExecMode::Flat, hier(8, 0.5), ExecMode::WorkSharing]
                .iter()
                .map(|mode| format!("{:?}", m.run_taskloop_traced(topo.all_nodes(), mode, &work)))
                .collect();
            (outcomes, m.event_counts())
        };
        let metrics = SimMetrics::new();
        let (with, counts) = run(Some(metrics.clone()));
        let (without, bare_counts) = run(None);
        assert_eq!(with, without, "metrics perturbed an outcome");
        assert_eq!(counts, bare_counts);

        let snap = metrics.registry().snapshot();
        assert_eq!(snap.counter_total("ilan_sim_events"), counts.events);
        assert_eq!(
            snap.counter_total("ilan_sim_chunk_events"),
            counts.chunk_events
        );
        assert_eq!(
            snap.counter_total("ilan_sim_repriced_chunks"),
            counts.repriced_chunks
        );
        assert!(counts.events > 0);
        // Every chunk is priced when it starts; none more often than it is
        // running at an event.
        assert!(counts.repriced_chunks >= 3 * 256);
        assert!(counts.repriced_chunks <= counts.chunk_events);
    }

    #[test]
    fn freqs_match_core_count() {
        let topo = presets::epyc_9354_2s();
        let m = SimMachine::new(MachineParams::for_topology(&topo), 11);
        assert_eq!(m.core_freqs().len(), 64);
    }

    /// `n` chunks whose data lives where the blocked assignment over the
    /// first `nodes` nodes places them.
    fn uniform_tasks(n: usize, nodes: usize, per_node_bytes: f64) -> Vec<TaskSpec> {
        let blocked = ChunkAssignment::new(NodeMask::first_n(nodes), n);
        (0..n)
            .map(|i| TaskSpec {
                compute_ns: 20_000.0,
                mem_bytes: per_node_bytes,
                home_node: blocked.node_of_chunk(i),
                locality: Locality::Chunked,
                data_mask: NodeMask::first_n(nodes),
                cache_reuse: 0.0,
                fits_l3: false,
            })
            .collect()
    }

    fn machine() -> SimMachine {
        let topo = presets::tiny_2x4();
        SimMachine::new(MachineParams::for_topology(&topo).noiseless(), 1)
    }

    #[test]
    fn executes_every_task_exactly_once_flat() {
        let mut m = machine();
        let tasks = uniform_tasks(40, 2, 50_000.0);
        let all = m.topology().all_nodes();
        let out = m.run_taskloop(all, &ExecMode::Flat, &tasks);
        assert_eq!(out.tasks_executed(), 40);
        assert_eq!(out.threads, 8);
    }

    #[test]
    fn executes_every_task_hier_and_static() {
        let mut m = machine();
        let tasks = uniform_tasks(40, 2, 50_000.0);
        let all = m.topology().all_nodes();
        for mode in [hier(2, 1.0), ExecMode::WorkSharing] {
            let out = m.run_taskloop(all, &mode, &tasks);
            assert_eq!(out.tasks_executed(), 40);
        }
    }

    #[test]
    fn hierarchical_beats_flat_on_locality() {
        let mut m = machine();
        let tasks = uniform_tasks(64, 2, 200_000.0);
        let all = m.topology().all_nodes();
        let flat = m.run_taskloop(all, &ExecMode::Flat, &tasks);
        let hier = m.run_taskloop(all, &hier(2, 1.0), &tasks);
        assert!(
            hier.locality_fraction() > flat.locality_fraction(),
            "hier locality {} vs flat {}",
            hier.locality_fraction(),
            flat.locality_fraction()
        );
        assert!(
            hier.makespan_ns < flat.makespan_ns,
            "hier {} vs flat {}",
            hier.makespan_ns,
            flat.makespan_ns
        );
        // Strict hierarchical placement achieves perfect locality here.
        assert!((hier.locality_fraction() - 1.0).abs() < 1e-12);
    }

    #[test]
    fn strict_policy_never_migrates() {
        let mut m = machine();
        // Imbalanced: all heavy tasks on node 0.
        let mut tasks = uniform_tasks(32, 2, 50_000.0);
        for (i, t) in tasks.iter_mut().enumerate() {
            if i < 16 {
                t.compute_ns *= 8.0;
            }
        }
        let all = m.topology().all_nodes();
        let strict = m.run_taskloop(all, &hier(2, 1.0), &tasks);
        assert_eq!(strict.migrations, 0);
        // Full policy may migrate and should not be slower by much — with this
        // much imbalance it should win.
        let full = m.run_taskloop(all, &hier(2, 0.5), &tasks);
        assert!(full.migrations > 0, "expected inter-node steals");
        assert!(full.makespan_ns < strict.makespan_ns);
    }

    #[test]
    fn static_has_lowest_overhead() {
        let mut m = machine();
        let tasks = uniform_tasks(64, 2, 50_000.0);
        let all = m.topology().all_nodes();
        let ws = m.run_taskloop(all, &ExecMode::WorkSharing, &tasks);
        let flat = m.run_taskloop(all, &ExecMode::Flat, &tasks);
        assert!(ws.sched_overhead_ns < flat.sched_overhead_ns);
        assert_eq!(ws.migrations, 0);
    }

    #[test]
    fn empty_taskloop_is_just_overheads() {
        let mut m = machine();
        let all = m.topology().all_nodes();
        let out = m.run_taskloop(all, &ExecMode::Flat, &[]);
        assert_eq!(out.tasks_executed(), 0);
        assert!(out.makespan_ns > 0.0); // barrier still costs
        assert_eq!(out.total_busy_ns(), 0.0);
        // Overhead (summed across workers) covers at least the critical path.
        assert!(out.sched_overhead_ns >= out.makespan_ns - 1e-6);
    }

    #[test]
    fn single_worker_runs_serially() {
        let mut m = machine();
        let tasks = uniform_tasks(10, 2, 22_000.0);
        let node0 = NodeMask::single(NodeId::new(0));
        let one_core = ExecMode::Hierarchical {
            mask: node0,
            threads: 1,
            strict_fraction: 1.0,
            policy: StealPolicy::Strict,
        };
        let out = m.run_taskloop(node0, &one_core, &tasks);
        assert_eq!(out.tasks_executed(), 10);
        assert_eq!(out.threads, 1);
        // All work on node 0.
        assert_eq!(out.nodes[0].tasks, 10);
        assert_eq!(out.nodes[1].tasks, 0);
    }

    #[test]
    fn bandwidth_contention_creates_interior_optimum() {
        // A severely bandwidth-bound loop: per-chunk traffic far beyond what
        // the node controllers can serve when all cores run. Fewer active
        // cores must then beat the full machine.
        let topo = presets::epyc_9354_2s();
        let mut m = SimMachine::new(MachineParams::for_topology(&topo).noiseless(), 3);
        let nodes = topo.num_nodes();
        let blocked = ChunkAssignment::new(topo.all_nodes(), 512);
        let tasks: Vec<TaskSpec> = (0..512)
            .map(|i| TaskSpec {
                compute_ns: 500.0,
                mem_bytes: 2_000_000.0,
                home_node: blocked.node_of_chunk(i),
                locality: Locality::Scattered { spread: 0.8 },
                data_mask: NodeMask::first_n(nodes),
                cache_reuse: 0.0,
                fits_l3: false,
            })
            .collect();
        let t_full = m
            .run_taskloop(topo.all_nodes(), &ExecMode::Flat, &tasks)
            .makespan_ns;
        // Half the machine: nodes 0..4 (one socket).
        let t_half = m
            .run_taskloop(NodeMask::first_n(4), &ExecMode::Flat, &tasks)
            .makespan_ns;
        assert!(
            t_half < t_full,
            "molding should help a saturated loop: half={t_half} full={t_full}"
        );
    }

    #[test]
    fn compute_bound_loop_scales_with_cores() {
        let topo = presets::epyc_9354_2s();
        let mut m = SimMachine::new(MachineParams::for_topology(&topo).noiseless(), 3);
        let nodes = topo.num_nodes();
        let blocked = ChunkAssignment::new(topo.all_nodes(), 512);
        let tasks: Vec<TaskSpec> = (0..512)
            .map(|i| TaskSpec {
                compute_ns: 400_000.0,
                mem_bytes: 10_000.0,
                home_node: blocked.node_of_chunk(i),
                locality: Locality::Chunked,
                data_mask: NodeMask::first_n(nodes),
                cache_reuse: 0.0,
                fits_l3: true,
            })
            .collect();
        let t_full = m
            .run_taskloop(topo.all_nodes(), &ExecMode::Flat, &tasks)
            .makespan_ns;
        let t_half = m
            .run_taskloop(NodeMask::first_n(4), &ExecMode::Flat, &tasks)
            .makespan_ns;
        assert!(
            t_full < 0.6 * t_half,
            "compute-bound loop must scale: full={t_full} half={t_half}"
        );
    }

    #[test]
    fn work_conservation_busy_time_bounded_by_makespan() {
        let mut m = machine();
        let tasks = uniform_tasks(48, 2, 80_000.0);
        let all = m.topology().all_nodes();
        let out = m.run_taskloop(all, &hier(2, 0.75), &tasks);
        // 8 workers: total busy time can never exceed 8 × makespan.
        assert!(out.total_busy_ns() <= 8.0 * out.makespan_ns + 1e-6);
        // And busy time is at least the ideal aggregate (penalties ≥ 1).
        assert!(out.total_busy_ns() + 1e-6 >= out.total_ideal_ns());
    }

    #[test]
    fn zero_cost_pops_and_barriers_complete() {
        let topo = presets::tiny_2x4();
        let zeroes: [fn(&mut MachineParams); 2] =
            [|p| p.pop_cost_ns = 0.0, |p| p.barrier_base_ns = 0.0];
        for zero in zeroes {
            let mut params = MachineParams::for_topology(&topo).noiseless();
            zero(&mut params);
            let mut m = SimMachine::new(params, 1);
            let all = m.topology().all_nodes();
            let out = m.run_taskloop(all, &ExecMode::Flat, &tasks(32));
            assert_eq!(out.tasks_executed(), 32);
            assert!(out.makespan_ns > 0.0);
        }
    }

    #[test]
    fn outlier_window_slows_every_chunk_on_the_drawn_node() {
        // Light, strictly placed chunks: no congestion, so a chunk's
        // duration depends only on its own node's speed.
        let topo = presets::tiny_2x4();
        let factor = 0.5;
        let work = uniform_tasks(32, 2, 1_000.0);
        let durations = |noise: NoiseParams| {
            let mut params = MachineParams::for_topology(&topo);
            params.noise = noise;
            let mut m = SimMachine::new(params, 9);
            let out = m.run_taskloop_traced(topo.all_nodes(), &hier(2, 1.0), &work);
            let mut by_task = vec![(0, 0.0); work.len()];
            for r in &out.trace {
                by_task[r.task] = (topo.node_of_core(r.core).index(), r.end_ns - r.start_ns);
            }
            by_task
        };
        let healthy = durations(NoiseParams::none());
        let slowed = durations(NoiseParams {
            freq_jitter_sd: 0.0,
            outlier_prob: 1.0,
            outlier_factor: factor,
        });
        let mut slow_nodes = Vec::new();
        for ((node, before), (same_node, after)) in healthy.iter().zip(&slowed) {
            assert_eq!(node, same_node, "strict placement moved a chunk");
            let ratio = after / before;
            if (ratio - 1.0 / factor).abs() < 1e-9 {
                slow_nodes.push(*node);
            } else {
                assert!((ratio - 1.0).abs() < 1e-9, "node {node}: ratio {ratio}");
            }
        }
        slow_nodes.dedup();
        assert_eq!(slow_nodes.len(), 1, "one drawn node: {slow_nodes:?}");
        let drawn = slow_nodes[0];
        let on_drawn = healthy.iter().filter(|(n, _)| *n == drawn).count();
        assert_eq!(on_drawn, 16, "every chunk on the drawn node slows");
    }

    #[test]
    fn traced_task_records_match_the_event_log() {
        use ilan_trace::EventKind;
        let mut m = machine();
        let tasks = uniform_tasks(40, 2, 50_000.0);
        let all = m.topology().all_nodes();
        let cores = m.topology().cpuset_of_mask(all);
        let out = m.run_taskloop_traced(all, &hier(2, 0.5), &tasks);
        assert_eq!(out.trace.len(), 40, "one record per chunk");
        let mut record = vec![None; tasks.len()];
        for r in &out.trace {
            assert!(record[r.task].is_none(), "chunk {} recorded twice", r.task);
            assert!(
                cores.contains(r.core),
                "chunk {} on inactive {}",
                r.task,
                r.core
            );
            assert!(r.start_ns < r.end_ns, "chunk {}: {r:?}", r.task);
            record[r.task] = Some(*r);
        }
        let (mut starts, mut ends) = (0, 0);
        for e in out.events.iter() {
            let (chunk, is_start) = match e.kind {
                EventKind::ChunkStart { chunk } => (chunk, true),
                EventKind::ChunkEnd { chunk } => (chunk, false),
                _ => continue,
            };
            let r = record[chunk as usize].expect("event for a recorded chunk");
            assert_eq!(e.worker, r.core.index() as u32);
            if is_start {
                // The record's start is the end minus the summed steps.
                assert!((r.start_ns - e.time_ns as f64).abs() < 1.0 + 1e-6);
                starts += 1;
            } else {
                assert_eq!(e.time_ns, r.end_ns as u64);
                ends += 1;
            }
        }
        assert_eq!((starts, ends), (40, 40));
    }
}
