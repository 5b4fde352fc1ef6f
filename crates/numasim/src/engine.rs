//! The fluid-rate event engine executing one taskloop invocation.
//!
//! Between events every running chunk progresses linearly at a rate computed
//! from the machine state; an event is a chunk completing, a worker finishing
//! a scheduling action, or the pool state changing. On each event the engine
//! re-prices every running chunk against the current congestion
//! (memory-controller and inter-socket-link congestion are global state), so
//! contention is always consistent with the set of running chunks. A
//! chunk's own pricing inputs are fixed when it starts.
//!
//! The engine is fully deterministic: worker iteration order, victim
//! selection and tie-breaking are all fixed. Run-to-run variance enters only
//! through the per-run frequency factors and outlier windows drawn by
//! [`SimMachine`](crate::SimMachine) from its seed.
//!
//! The worker/pool state machine lives in [`exec`](crate::exec) and the cost
//! model in [`rates`](crate::rates), both shared with the multi-lane
//! colocation engine ([`ColoMachine`](crate::ColoMachine)).

use crate::exec::{begin_chunk, make_workers, seek, PoolSet, Worker, WorkerState, EPS};
use crate::outcome::{LoopOutcome, NodeOutcome, TaskRecord};
use crate::params::MachineParams;
use crate::plan::PlacementPlan;
use crate::rates::CongestionField;
use crate::task::TaskSpec;
use ilan_topology::{CpuSet, NodeId};
use ilan_trace::{EventKind, Recorder};

pub(crate) struct Engine<'a> {
    params: &'a MachineParams,
    freqs: &'a [f64],
    outlier_node: Option<usize>,
    tasks: &'a [TaskSpec],
    pools: PoolSet,
    workers: Vec<Worker>,
    /// Active workers per node (for pop-contention estimates and wakeups).
    node_worker_count: Vec<usize>,
    now: f64,
    overhead_ns: f64,
    nodes_out: Vec<NodeOutcome>,
    migrations: usize,
    /// Shared congestion state, recomputed at every event.
    field: CongestionField,
    /// Per-invocation randomness for flat-mode victim selection.
    rng_state: u64,
    /// Per-chunk execution records (empty unless tracing).
    trace: Option<Vec<TaskRecord>>,
    /// Scheduler event recorder (present only for traced runs).
    recorder: Option<Recorder>,
}

impl<'a> Engine<'a> {
    #[allow(clippy::too_many_arguments)] // invocation-time facts, used once
    pub(crate) fn new(
        params: &'a MachineParams,
        freqs: &'a [f64],
        outlier_node: Option<usize>,
        perm_seed: u64,
        active: &CpuSet,
        plan: &PlacementPlan,
        tasks: &'a [TaskSpec],
        traced: bool,
    ) -> Self {
        let topo = &params.topology;
        let num_nodes = topo.num_nodes();
        let (workers, node_worker_count) = make_workers(topo, active);
        let mut recorder = traced.then(Recorder::new);
        let pools = PoolSet::build(
            plan,
            tasks.len(),
            &workers,
            &node_worker_count,
            num_nodes,
            perm_seed,
            recorder.as_mut(),
            0.0,
        );

        Engine {
            params,
            freqs,
            outlier_node,
            tasks,
            pools,
            workers,
            node_worker_count,
            now: 0.0,
            overhead_ns: 0.0,
            nodes_out: vec![NodeOutcome::default(); num_nodes],
            migrations: 0,
            field: CongestionField::new(num_nodes, topo.num_sockets()),
            rng_state: perm_seed ^ 0xD1B54A32D192ED03,
            trace: traced.then(|| Vec::with_capacity(tasks.len())),
            recorder,
        }
    }

    pub(crate) fn run(mut self) -> LoopOutcome {
        // Serial dispatch by the encountering thread.
        let dispatch = self.pools.dispatch_ns(self.params, self.tasks.len());
        self.now += dispatch;
        self.overhead_ns += dispatch;

        loop {
            // Let every idle worker acquire work. Acquisitions can wake parked
            // workers (batch steals), so iterate to a fixed point.
            loop {
                let mut any = false;
                for i in 0..self.workers.len() {
                    if matches!(self.workers[i].state, WorkerState::Idle) {
                        seek(
                            &mut self.pools,
                            &mut self.workers,
                            i,
                            self.now,
                            self.params,
                            &self.node_worker_count,
                            &mut self.rng_state,
                            &mut self.overhead_ns,
                            &mut self.migrations,
                            self.recorder.as_mut(),
                        );
                        any = true;
                    }
                }
                if !any {
                    break;
                }
            }

            self.recompute_rates();

            // Next event: smallest time-to-completion across busy workers.
            let mut dt = f64::INFINITY;
            for w in &self.workers {
                let t = match &w.state {
                    WorkerState::Overhead { remaining_ns, .. } => *remaining_ns,
                    WorkerState::Running {
                        remaining, rate, ..
                    } if *rate > 0.0 => remaining / rate,
                    _ => f64::INFINITY,
                };
                dt = dt.min(t);
            }

            if !dt.is_finite() {
                // No busy workers left: either done, or the plan stranded
                // strict tasks on nodes without active workers (a scheduler
                // bug — plan validation should have caught it).
                assert!(
                    self.pools.is_empty(),
                    "deadlock: tasks remain but every worker is parked"
                );
                break;
            }

            self.advance(dt);
        }

        // Idle-loop tails: workers that parked keep spinning in the
        // scheduler until the last chunk completes (`self.now`).
        for w in &self.workers {
            if let WorkerState::Parked { since } = w.state {
                self.overhead_ns += self.now - since;
            }
        }

        // Closing barrier; each worker releases the exit latch as it enters.
        if let Some(recorder) = &mut self.recorder {
            for w in &self.workers {
                recorder.push(
                    w.core.index() as u32,
                    w.node as u32,
                    self.now as u64,
                    EventKind::LatchRelease,
                );
            }
        }
        let threads = self.workers.len();
        let barrier = self.params.barrier_base_ns * (threads.max(2) as f64).log2();
        self.now += barrier;
        self.overhead_ns += barrier;

        let num_cores = self.params.topology.num_cores();
        let num_nodes = self.nodes_out.len();
        LoopOutcome {
            makespan_ns: self.now,
            sched_overhead_ns: self.overhead_ns,
            nodes: self.nodes_out,
            migrations: self.migrations,
            threads,
            trace: self.trace.unwrap_or_default(),
            events: self
                .recorder
                .map(|r| r.into_log(num_cores, num_nodes))
                .unwrap_or_default(),
        }
    }

    /// Re-prices every running chunk against the current congestion:
    /// demands, congestion factors, then rates. Each chunk's own pricing
    /// inputs were fixed when it started.
    fn recompute_rates(&mut self) {
        self.field.clear();

        // Pass 1: aggregate desired bandwidth per memory controller and link,
        // plus the streaming-flow count per controller (row-buffer model).
        for w in &self.workers {
            if matches!(w.state, WorkerState::Running { .. }) {
                self.field.add_flow(&w.pricing, 1.0);
            }
        }

        // Pass 2: congestion factor per resource.
        self.field.finalize(self.params);

        // Pass 3: per-chunk rates.
        for w in &mut self.workers {
            if let WorkerState::Running { rate, .. } = &mut w.state {
                let penalty = self.field.penalty(&w.pricing.traffic);
                let mut duration = w.pricing.duration(penalty);
                if Some(w.node) == self.outlier_node {
                    duration /= self.params.noise.outlier_factor;
                }
                *rate = if duration > 0.0 {
                    1.0 / duration
                } else {
                    f64::INFINITY
                };
            }
        }
    }

    /// Advances simulated time by `dt`, completing whatever finishes.
    fn advance(&mut self, dt: f64) {
        self.now += dt;
        let core_bw = self.params.core_bw;
        for i in 0..self.workers.len() {
            let w = &mut self.workers[i];
            match &mut w.state {
                WorkerState::Overhead { remaining_ns, next } => {
                    *remaining_ns -= dt;
                    if *remaining_ns <= EPS {
                        let t = *next;
                        if let Some(recorder) = &mut self.recorder {
                            recorder.push(
                                w.core.index() as u32,
                                w.node as u32,
                                self.now as u64,
                                EventKind::ChunkStart { chunk: t as u32 },
                            );
                        }
                        let freq = self.freqs[w.core.index()];
                        begin_chunk(
                            w,
                            &self.params.topology,
                            self.params,
                            t,
                            &self.tasks[t],
                            freq,
                        );
                    }
                }
                WorkerState::Running {
                    task,
                    remaining,
                    rate,
                    elapsed_ns,
                    ..
                } => {
                    *remaining -= *rate * dt;
                    *elapsed_ns += dt;
                    if *remaining <= EPS {
                        let spec = &self.tasks[*task];
                        if let Some(trace) = &mut self.trace {
                            trace.push(TaskRecord {
                                task: *task,
                                core: w.core,
                                start_ns: self.now - *elapsed_ns,
                                end_ns: self.now,
                            });
                        }
                        if let Some(recorder) = &mut self.recorder {
                            recorder.push(
                                w.core.index() as u32,
                                w.node as u32,
                                self.now as u64,
                                EventKind::ChunkEnd {
                                    chunk: *task as u32,
                                },
                            );
                        }
                        let node = &mut self.nodes_out[w.node];
                        node.tasks += 1;
                        node.busy_ns += *elapsed_ns;
                        node.ideal_ns += spec.ideal_ns(core_bw);
                        node.dram_bytes += spec.effective_bytes(NodeId::new(w.node));
                        if spec.home_node.index() == w.node {
                            node.local_tasks += 1;
                        }
                        w.state = WorkerState::Idle;
                    }
                }
                _ => {}
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use crate::machine::SimMachine;
    use crate::params::MachineParams;
    use crate::plan::{NodeAssignment, PlacementPlan};
    use crate::task::{Locality, TaskSpec};
    use ilan_topology::{presets, CoreId, CpuSet, NodeId, NodeMask};

    fn uniform_tasks(n: usize, nodes: usize, per_node_bytes: f64) -> Vec<TaskSpec> {
        (0..n)
            .map(|i| TaskSpec {
                compute_ns: 20_000.0,
                mem_bytes: per_node_bytes,
                home_node: NodeId::new(i * nodes / n),
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

    fn hier_plan(tasks: usize, nodes: usize, strict_frac: f64) -> PlacementPlan {
        let mut assignments = Vec::new();
        for node in 0..nodes {
            let ts: Vec<usize> = (0..tasks).filter(|i| i * nodes / tasks == node).collect();
            let strict_count = (ts.len() as f64 * strict_frac).round() as usize;
            assignments.push(NodeAssignment {
                node: NodeId::new(node),
                tasks: ts,
                strict_count,
            });
        }
        PlacementPlan::Hierarchical { assignments }
    }

    #[test]
    fn executes_every_task_exactly_once_flat() {
        let mut m = machine();
        let tasks = uniform_tasks(40, 2, 50_000.0);
        let cores = m.topology().cpuset_of_mask(m.topology().all_nodes());
        let out = m.run_taskloop(&cores, &PlacementPlan::flat(), &tasks);
        assert_eq!(out.tasks_executed(), 40);
        assert_eq!(out.threads, 8);
    }

    #[test]
    fn executes_every_task_hier_and_static() {
        let mut m = machine();
        let tasks = uniform_tasks(40, 2, 50_000.0);
        let cores = m.topology().cpuset_of_mask(m.topology().all_nodes());
        for plan in [hier_plan(40, 2, 1.0), PlacementPlan::worksharing()] {
            let out = m.run_taskloop(&cores, &plan, &tasks);
            assert_eq!(out.tasks_executed(), 40);
        }
    }

    #[test]
    fn hierarchical_beats_flat_on_locality() {
        let mut m = machine();
        let tasks = uniform_tasks(64, 2, 200_000.0);
        let cores = m.topology().cpuset_of_mask(m.topology().all_nodes());
        let flat = m.run_taskloop(&cores, &PlacementPlan::flat(), &tasks);
        let hier = m.run_taskloop(&cores, &hier_plan(64, 2, 1.0), &tasks);
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
        let cores = m.topology().cpuset_of_mask(m.topology().all_nodes());
        let strict = m.run_taskloop(&cores, &hier_plan(32, 2, 1.0), &tasks);
        assert_eq!(strict.migrations, 0);
        // Full policy may migrate and should not be slower by much — with this
        // much imbalance it should win.
        let full = m.run_taskloop(&cores, &hier_plan(32, 2, 0.5), &tasks);
        assert!(full.migrations > 0, "expected inter-node steals");
        assert!(full.makespan_ns < strict.makespan_ns);
    }

    #[test]
    fn static_has_lowest_overhead() {
        let mut m = machine();
        let tasks = uniform_tasks(64, 2, 50_000.0);
        let cores = m.topology().cpuset_of_mask(m.topology().all_nodes());
        let ws = m.run_taskloop(&cores, &PlacementPlan::worksharing(), &tasks);
        let flat = m.run_taskloop(&cores, &PlacementPlan::flat(), &tasks);
        assert!(ws.sched_overhead_ns < flat.sched_overhead_ns);
        assert_eq!(ws.migrations, 0);
    }

    #[test]
    fn empty_taskloop_is_just_overheads() {
        let mut m = machine();
        let cores = m.topology().cpuset_of_mask(m.topology().all_nodes());
        let out = m.run_taskloop(&cores, &PlacementPlan::flat(), &[]);
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
        let mut cores = CpuSet::new();
        cores.insert(CoreId::new(0));
        let out = m.run_taskloop(&cores, &PlacementPlan::flat(), &tasks);
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
        let tasks: Vec<TaskSpec> = (0..512)
            .map(|i| TaskSpec {
                compute_ns: 500.0,
                mem_bytes: 2_000_000.0,
                home_node: NodeId::new(i * nodes / 512),
                locality: Locality::Scattered { spread: 0.8 },
                data_mask: NodeMask::first_n(nodes),
                cache_reuse: 0.0,
                fits_l3: false,
            })
            .collect();
        let all = topo.cpuset_of_mask(topo.all_nodes());
        let t_full = m
            .run_taskloop(&all, &PlacementPlan::flat(), &tasks)
            .makespan_ns;
        // Half the machine: nodes 0..4 (one socket).
        let half_mask = NodeMask::first_n(4);
        let half = topo.cpuset_of_mask(half_mask);
        let t_half = m
            .run_taskloop(&half, &PlacementPlan::flat(), &tasks)
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
        let tasks: Vec<TaskSpec> = (0..512)
            .map(|i| TaskSpec {
                compute_ns: 400_000.0,
                mem_bytes: 10_000.0,
                home_node: NodeId::new(i * nodes / 512),
                locality: Locality::Chunked,
                data_mask: NodeMask::first_n(nodes),
                cache_reuse: 0.0,
                fits_l3: true,
            })
            .collect();
        let all = topo.cpuset_of_mask(topo.all_nodes());
        let t_full = m
            .run_taskloop(&all, &PlacementPlan::flat(), &tasks)
            .makespan_ns;
        let half = topo.cpuset_of_mask(NodeMask::first_n(4));
        let t_half = m
            .run_taskloop(&half, &PlacementPlan::flat(), &tasks)
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
        let cores = m.topology().cpuset_of_mask(m.topology().all_nodes());
        let out = m.run_taskloop(&cores, &hier_plan(48, 2, 0.75), &tasks);
        // 8 workers: total busy time can never exceed 8 × makespan.
        assert!(out.total_busy_ns() <= 8.0 * out.makespan_ns + 1e-6);
        // And busy time is at least the ideal aggregate (penalties ≥ 1).
        assert!(out.total_busy_ns() + 1e-6 >= out.total_ideal_ns());
    }

    #[test]
    #[should_panic(expected = "no active core")]
    fn plan_targeting_inactive_node_panics() {
        let mut m = machine();
        let tasks = uniform_tasks(8, 2, 10_000.0);
        // Only node 0 cores active, but the plan targets both nodes.
        let cores = m
            .topology()
            .cpuset_of_mask(NodeMask::single(NodeId::new(0)));
        m.run_taskloop(&cores, &hier_plan(8, 2, 1.0), &tasks);
    }
}
