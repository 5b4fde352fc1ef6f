//! The fluid-rate machine: one or more concurrent taskloops on one machine.
//!
//! [`ColoMachine`] is the crate's event loop. Between events every running
//! chunk progresses linearly at a rate computed from the machine state; an
//! event is a chunk completing, a worker finishing a scheduling action, a
//! serial lead or closing barrier expiring, or an injected stall ending. On
//! each event the machine re-prices every running chunk against the current
//! congestion (memory-controller and inter-socket-link congestion are global
//! state), so contention is always consistent with the set of running
//! chunks. A chunk's own pricing inputs are fixed when it starts.
//!
//! Loops run on *lanes* (tenants), at most one loop per lane at a time, and
//! loops of different lanes run concurrently. All lanes share one
//! [`CongestionField`]: the per-node memory controllers, the inter-socket
//! links and the row-buffer stream budget are priced across every running
//! chunk on the machine, regardless of which lane issued it. That shared
//! field *is* the interference channel a co-scheduler must manage.
//! [`SimMachine`](crate::SimMachine) — the paper's single-application model
//! — is a machine with one lane.
//!
//! Three mechanisms shape a loop's execution beyond the cost model:
//!
//! * **Oversubscription** — when two lanes activate the same core, its
//!   running chunks timeshare it: each progresses at `1/occupancy` of its
//!   rate and issues `1/occupancy` of its DRAM traffic (a round-robin OS
//!   scheduler in the fluid limit). Scheduling actions (pops/steals) are not
//!   slowed, only chunk execution is. Disjoint partitions have occupancy 1,
//!   and a single live lane skips the occupancy count altogether.
//! * **Lead time** — each loop may start with a serial lead (scheduler
//!   decision cost plus any serial section of the tenant's program) during
//!   which its workers are not yet active.
//! * **Outlier windows** — a [`SimMachine`](crate::SimMachine) invocation
//!   may draw one node that runs every chunk at the noise model's
//!   [`outlier_factor`](crate::NoiseParams::outlier_factor) of its speed for
//!   the whole loop. Per-core frequency jitter applies to every lane; it is
//!   drawn once per machine.
//!
//! **Tracing** — after [`set_tracing`](ColoMachine::set_tracing), every
//! completed loop's [`LoopOutcome::events`] carries its auditable scheduler
//! event log and [`LoopOutcome::trace`] its per-chunk
//! [`TaskRecord`]s, timestamped on the machine clock.
//!
//! **Live lanes** — lane ids come from [`add_lane`](ColoMachine::add_lane)
//! and are never reused (a server opens one per admitted job), but the
//! machine keeps only the lanes with a loop in flight: a dense set sorted by
//! lane id, entered by [`start_loop`](ColoMachine::start_loop) and left when
//! the loop's closing barrier expires. Every per-event scan (acquisition,
//! occupancy, congestion, rates, next event, advance) therefore touches only
//! live work, however many lanes were ever handed out.
//!
//! Determinism: worker iteration order, victim selection and tie-breaking
//! are fixed, and live lanes are iterated in lane-id order at every event,
//! so a given machine seed and call sequence replays exactly, and loops
//! whose barriers expire on the same event complete in lane-id order.
//!
//! **Fault injection** — [`set_fault_plan`](ColoMachine::set_fault_plan)
//! applies an [`ilan_faults::FaultPlan`] to every loop started afterwards,
//! modelling the fault classes that make sense in a fluid-rate simulation:
//! temporary worker stalls (the worker sits out of the acquire loop until
//! its stall expires) and slow nodes (every chunk executing there is
//! stretched by the plan's multiplier). Wakeup drops, steal refusals and
//! permanent stalls are native-pool mechanics with no fluid analogue;
//! permanent stalls are rejected outright. Use
//! [`FaultConfig::sim_safe`](ilan_faults::FaultConfig::sim_safe) to draw
//! plans restricted to the shared classes — the differential oracle runs the
//! native pool and this machine under the *same* plan and compares
//! placements. Without a plan, no event tests for stalls or slow nodes.

use crate::exec::{begin_chunk, make_workers, seek, PoolSet, Worker, WorkerState, EPS};
use crate::outcome::{LoopOutcome, NodeOutcome, TaskRecord};
use crate::params::MachineParams;
use crate::plan::PlacementPlan;
use crate::rates::CongestionField;
use crate::task::TaskSpec;
use ilan_faults::FaultPlan;
use ilan_topology::{CoreId, CpuSet, NodeId, Topology};
use ilan_trace::{EventKind, Recorder};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::collections::VecDeque;

/// One lane's in-flight taskloop invocation.
struct LaneRun {
    tasks: Vec<TaskSpec>,
    pools: PoolSet,
    workers: Vec<Worker>,
    node_worker_count: Vec<usize>,
    /// Machine time when the loop was submitted.
    started_ns: f64,
    /// Remaining serial lead (caller-provided lead plus dispatch cost);
    /// workers stay inactive until it reaches zero.
    lead_remaining_ns: f64,
    /// Remaining closing-barrier time once all chunks have completed.
    barrier_remaining_ns: Option<f64>,
    overhead_ns: f64,
    nodes_out: Vec<NodeOutcome>,
    migrations: usize,
    rng_state: u64,
    /// Node slowed by an outlier window for the whole loop, if any.
    outlier_node: Option<usize>,
    /// Scheduler event recorder (present only when the machine traces).
    recorder: Option<Recorder>,
    /// Per-chunk execution records (present only when the machine traces).
    records: Option<Vec<TaskRecord>>,
}

impl LaneRun {
    /// Whether the lane is past its lead and still has chunks in flight.
    fn executing(&self) -> bool {
        self.lead_remaining_ns <= 0.0 && self.barrier_remaining_ns.is_none()
    }

    /// Every worker has parked at `now`, so the work phase is over: closes
    /// the idle tails and enters the closing barrier.
    fn enter_barrier(&mut self, now: f64, params: &MachineParams) {
        assert!(
            self.pools.is_empty(),
            "deadlock: tasks remain but every worker is parked"
        );
        for w in &self.workers {
            if let WorkerState::Parked { since } = w.state {
                self.overhead_ns += now - since;
            }
        }
        // Each worker releases the exit latch at barrier entry.
        if let Some(recorder) = &mut self.recorder {
            for w in &self.workers {
                recorder.push(
                    w.core.index() as u32,
                    w.node as u32,
                    now as u64,
                    EventKind::LatchRelease,
                );
            }
        }
        let threads = self.workers.len();
        let barrier = params.barrier_base_ns * (threads.max(2) as f64).log2();
        self.overhead_ns += barrier;
        self.barrier_remaining_ns = Some(barrier);
    }
}

/// A simulated NUMA machine shared by several concurrent taskloops.
///
/// Lanes are created up front with [`add_lane`](Self::add_lane); a lane runs
/// at most one loop at a time ([`start_loop`](Self::start_loop)), mirroring
/// the one-loop-then-barrier structure of the tenants' programs. Progress is
/// driven by [`run_until_next_completion`](Self::run_until_next_completion)
/// or, for arrival-driven callers, [`run_until_ns`](Self::run_until_ns).
pub struct ColoMachine {
    params: MachineParams,
    freqs: Vec<f64>,
    rng: StdRng,
    now_ns: f64,
    /// Lane ids handed out so far (`0..num_lanes`).
    num_lanes: usize,
    /// The in-flight loops, sorted by lane id. Idle lanes have no entry, so
    /// every per-event scan touches only live work.
    lanes: Vec<(usize, LaneRun)>,
    field: CongestionField,
    /// Scratch: number of running chunks per core, across all lanes.
    core_load: Vec<usize>,
    finished: VecDeque<(usize, LoopOutcome)>,
    /// Whether loops started from now on are traced.
    tracing: bool,
    /// Fault plan applied to loops started from now on.
    faults: Option<FaultPlan>,
}

impl ColoMachine {
    /// Builds a machine and draws its per-run noise (per-core frequency
    /// factors) from `seed`.
    ///
    /// # Panics
    /// Panics if `params` fails validation.
    pub fn new(params: MachineParams, seed: u64) -> Self {
        params.validate();
        let mut rng = StdRng::seed_from_u64(seed);
        let freqs = params
            .noise
            .draw_freqs(&mut rng, params.topology.num_cores());
        let num_nodes = params.topology.num_nodes();
        let num_sockets = params.topology.num_sockets();
        let num_cores = params.topology.num_cores();
        ColoMachine {
            params,
            freqs,
            rng,
            now_ns: 0.0,
            num_lanes: 0,
            lanes: Vec::new(),
            field: CongestionField::new(num_nodes, num_sockets),
            core_load: vec![0; num_cores],
            finished: VecDeque::new(),
            tracing: false,
            faults: None,
        }
    }

    /// Enables (or disables) tracing for loops started from now on: a
    /// completed traced loop reports its scheduler event log in
    /// [`LoopOutcome::events`] and its per-chunk records in
    /// [`LoopOutcome::trace`]. Loops already in flight are unaffected.
    pub fn set_tracing(&mut self, on: bool) {
        self.tracing = on;
    }
    /// Applies `plan` to the machine: temporary worker stalls (by
    /// lane-worker index, anchored at each subsequently started loop's
    /// execution start) and slow-node multipliers (machine-level — a slow
    /// memory node stretches every chunk executing there, including loops
    /// already in flight). See the module docs for the modelled subset.
    ///
    /// # Panics
    /// Panics if the plan contains a permanent stall — a fluid lane with a
    /// permanently absent worker either completes on its peers or deadlocks
    /// on strict work; the graceful-degradation story (watchdog, dispatcher
    /// drain) belongs to the native pool, not the simulator.
    pub fn set_fault_plan(&mut self, plan: FaultPlan) {
        assert!(
            !plan.has_permanent_stall(),
            "permanent stalls are out of simulation scope (draw plans with FaultConfig::sim_safe)"
        );
        self.faults = Some(plan);
    }

    /// The fault plan applied to newly started loops, if any.
    pub fn fault_plan(&self) -> Option<&FaultPlan> {
        self.faults.as_ref()
    }

    /// The machine's topology.
    pub fn topology(&self) -> &Topology {
        &self.params.topology
    }

    /// The machine's performance parameters.
    pub fn params(&self) -> &MachineParams {
        &self.params
    }

    /// Global simulated clock, ns.
    pub fn now_ns(&self) -> f64 {
        self.now_ns
    }

    /// Registers a new (idle) lane and returns its id. Ids are never
    /// reused; an idle lane costs nothing per event.
    pub fn add_lane(&mut self) -> usize {
        self.num_lanes += 1;
        self.num_lanes - 1
    }

    /// Position of `lane` in the live set (`Err`: insertion point, idle).
    ///
    /// # Panics
    /// Panics if `lane` was never handed out by [`add_lane`](Self::add_lane).
    fn find_lane(&self, lane: usize) -> Result<usize, usize> {
        assert!(
            lane < self.num_lanes,
            "lane {lane} was never handed out by add_lane ({} lanes exist)",
            self.num_lanes
        );
        self.lanes.binary_search_by_key(&lane, |(id, _)| *id)
    }

    /// Whether `lane` currently has a loop in flight.
    ///
    /// # Panics
    /// Panics if `lane` was never handed out by [`add_lane`](Self::add_lane).
    pub fn lane_busy(&self, lane: usize) -> bool {
        self.find_lane(lane).is_ok()
    }

    /// Whether any lane has a loop in flight.
    pub fn any_busy(&self) -> bool {
        !self.finished.is_empty() || !self.lanes.is_empty()
    }

    /// Submits one taskloop invocation on `lane`: `lead_ns` of serial time
    /// (decision cost + the tenant's serial section), then dispatch, then
    /// parallel execution on `active` cores under `plan`.
    ///
    /// # Panics
    /// Panics if the lane was never handed out or is already busy, the plan
    /// does not cover `tasks`, or `active` is empty / outside the topology.
    pub fn start_loop(
        &mut self,
        lane: usize,
        active: &CpuSet,
        plan: &PlacementPlan,
        tasks: Vec<TaskSpec>,
        lead_ns: f64,
    ) {
        let Err(slot) = self.find_lane(lane) else {
            panic!("lane {lane} already has a loop in flight");
        };
        assert!(
            lead_ns >= 0.0 && lead_ns.is_finite(),
            "lead time must be finite and >= 0"
        );
        let topo = &self.params.topology;
        let (mut workers, node_worker_count) = make_workers(topo, active);
        let perm_seed: u64 = rand::Rng::random(&mut self.rng);
        let mut recorder = self.tracing.then(Recorder::new);
        let pools = PoolSet::build(
            plan,
            tasks.len(),
            &workers,
            &node_worker_count,
            topo.num_nodes(),
            perm_seed,
            recorder.as_mut(),
            self.now_ns,
        );
        let dispatch = pools.dispatch_ns(&self.params, tasks.len());
        if let Some(plan) = &self.faults {
            // Stalls are anchored to the moment workers would first acquire
            // work: submission plus the serial lead plus dispatch.
            let exec_start = self.now_ns + lead_ns + dispatch;
            for (i, w) in workers.iter_mut().enumerate() {
                if let Some(stall) = plan.stall_of(i as u32) {
                    w.stall_until_ns = exec_start + stall.delay_ns as f64;
                }
            }
        }
        let run = LaneRun {
            records: self.tracing.then(|| Vec::with_capacity(tasks.len())),
            tasks,
            pools,
            workers,
            node_worker_count,
            started_ns: self.now_ns,
            lead_remaining_ns: lead_ns + dispatch,
            barrier_remaining_ns: None,
            overhead_ns: dispatch,
            nodes_out: vec![NodeOutcome::default(); topo.num_nodes()],
            migrations: 0,
            rng_state: perm_seed ^ 0xD1B54A32D192ED03,
            outlier_node: None,
            recorder,
        };
        self.lanes.insert(slot, (lane, run));
    }

    /// Runs one loop alone on an idle machine, as
    /// [`SimMachine`](crate::SimMachine) invokes it: the invocation's
    /// outlier window is drawn before the loop's permutation seed, the
    /// clock restarts at zero, and the loop runs on `lane` with no lead.
    ///
    /// # Panics
    /// Panics if a loop is in flight, or on any [`start_loop`](Self::start_loop)
    /// precondition.
    pub(crate) fn run_alone(
        &mut self,
        lane: usize,
        active: &CpuSet,
        plan: &PlacementPlan,
        tasks: &[TaskSpec],
        traced: bool,
    ) -> LoopOutcome {
        assert!(!self.any_busy(), "run_alone needs an idle machine");
        let outlier = self
            .params
            .noise
            .draw_outlier(&mut self.rng, self.params.topology.num_nodes());
        self.now_ns = 0.0;
        self.tracing = traced;
        self.start_loop(lane, active, plan, tasks.to_vec(), 0.0);
        // The machine was idle, so the new loop is the only live one.
        self.lanes[0].1.outlier_node = outlier;
        let (_, outcome) = self
            .run_until_next_completion()
            .expect("a started loop completes");
        outcome
    }

    /// The per-core frequency factors drawn for this machine (1.0 =
    /// nominal).
    pub(crate) fn core_freqs(&self) -> &[f64] {
        &self.freqs
    }

    /// Runs until some lane's loop completes, returning `(lane, outcome)`.
    /// Returns `None` if no lane has a loop in flight. The outcome's
    /// makespan spans submission (including the lead) to barrier exit.
    pub fn run_until_next_completion(&mut self) -> Option<(usize, LoopOutcome)> {
        self.step_until(f64::INFINITY)
    }

    /// Runs until some lane's loop completes (`Some`) or the clock reaches
    /// `t_end` (`None`, with `now_ns() == t_end`). An idle machine jumps
    /// straight to `t_end`.
    ///
    /// # Panics
    /// Panics if `t_end` is not finite or lies in the past.
    pub fn run_until_ns(&mut self, t_end: f64) -> Option<(usize, LoopOutcome)> {
        assert!(t_end.is_finite(), "run_until_ns needs a finite deadline");
        assert!(
            t_end >= self.now_ns - EPS,
            "deadline {t_end} is before now {}",
            self.now_ns
        );
        self.step_until(t_end)
    }

    fn step_until(&mut self, t_end: f64) -> Option<(usize, LoopOutcome)> {
        loop {
            if let Some(done) = self.finished.pop_front() {
                return Some(done);
            }
            if self.lanes.is_empty() {
                if t_end.is_finite() {
                    self.now_ns = self.now_ns.max(t_end);
                }
                return None;
            }

            self.acquire();
            let next = self.reprice();

            // Step to the next event, capped by the caller's deadline. A
            // zero-length step is an event like any other (a free pop, an
            // empty barrier); only the deadline stops the loop.
            let horizon = t_end - self.now_ns;
            let dt = next.min(horizon);
            assert!(
                dt.is_finite(),
                "colocation machine has busy lanes but no next event"
            );
            if horizon <= 0.0 {
                // Deadline already reached.
                return None;
            }

            self.advance(dt);

            if self.finished.is_empty() && self.now_ns >= t_end - EPS {
                return None;
            }
        }
    }

    /// Lets every idle worker of every executing lane acquire work, then
    /// moves each lane whose workers have all parked into its closing
    /// barrier.
    fn acquire(&mut self) {
        let now = self.now_ns;
        let stalls = self.faults.is_some();
        for (_, lane) in &mut self.lanes {
            if !lane.executing() {
                continue;
            }
            // Fixed point: a batch steal can wake parked peers, which need
            // another pass. A pass that wakes no one leaves no idle worker
            // behind, so its census of parked workers is final.
            let all_parked = loop {
                let mut woke = false;
                let mut all_parked = true;
                for i in 0..lane.workers.len() {
                    if stalls && lane.workers[i].stall_until_ns > now + EPS {
                        // Stalled: sits out of the acquire loop; the event
                        // scan bounds dt by the expiry.
                        all_parked = false;
                        continue;
                    }
                    if matches!(lane.workers[i].state, WorkerState::Idle) {
                        woke |= seek(
                            &mut lane.pools,
                            &mut lane.workers,
                            i,
                            now,
                            &self.params,
                            &lane.node_worker_count,
                            &mut lane.rng_state,
                            &mut lane.overhead_ns,
                            &mut lane.migrations,
                            lane.recorder.as_mut(),
                        );
                    }
                    all_parked &= matches!(lane.workers[i].state, WorkerState::Parked { .. });
                }
                if !woke {
                    break all_parked;
                }
            };
            if all_parked {
                lane.enter_barrier(now, &self.params);
            }
        }
    }

    /// Re-prices every running chunk across all live lanes (core
    /// occupancy, then the shared congestion field, then rates; each
    /// chunk's own pricing inputs were fixed when it started) and returns
    /// the time to the next event: a lead or barrier expiring, a stall
    /// ending, a scheduling action finishing, or a chunk completing.
    fn reprice(&mut self) -> f64 {
        // One live lane's workers sit on distinct cores: occupancy 1.
        let shared = self.lanes.len() > 1;
        if shared {
            self.core_load.iter_mut().for_each(|c| *c = 0);
            for (_, lane) in &self.lanes {
                for w in &lane.workers {
                    if matches!(w.state, WorkerState::Running { .. }) {
                        self.core_load[w.core.index()] += 1;
                    }
                }
            }
        }
        let core_load = &self.core_load;
        let occupancy = |core: CoreId| {
            if shared {
                core_load[core.index()].max(1) as f64
            } else {
                1.0
            }
        };

        self.field.clear();
        for (_, lane) in &self.lanes {
            for w in &lane.workers {
                if matches!(w.state, WorkerState::Running { .. }) {
                    self.field.add_flow(&w.pricing, 1.0 / occupancy(w.core));
                }
            }
        }
        self.field.finalize(&self.params);

        let now = self.now_ns;
        let faults = self.faults.as_ref();
        let mut next = f64::INFINITY;
        for (_, lane) in &mut self.lanes {
            if lane.lead_remaining_ns > 0.0 {
                next = next.min(lane.lead_remaining_ns);
                continue;
            }
            if let Some(b) = lane.barrier_remaining_ns {
                next = next.min(b);
                continue;
            }
            for w in &mut lane.workers {
                let t = match &mut w.state {
                    WorkerState::Overhead { remaining_ns, .. } => *remaining_ns,
                    WorkerState::Running {
                        remaining, rate, ..
                    } => {
                        let penalty = self.field.penalty(&w.pricing.traffic);
                        let mut duration = w.pricing.duration(penalty) * occupancy(w.core);
                        if let Some(plan) = faults {
                            duration *= plan.node_slowdown(w.node as u32);
                        }
                        if lane.outlier_node == Some(w.node) {
                            duration /= self.params.noise.outlier_factor;
                        }
                        *rate = if duration > 0.0 {
                            1.0 / duration
                        } else {
                            f64::INFINITY
                        };
                        if *rate > 0.0 {
                            *remaining / *rate
                        } else {
                            f64::INFINITY
                        }
                    }
                    _ => f64::INFINITY,
                };
                if faults.is_some() && w.stall_until_ns > now + EPS {
                    next = next.min(w.stall_until_ns - now);
                } else {
                    next = next.min(t);
                }
            }
        }
        next
    }

    /// Advances simulated time by `dt`, completing whatever finishes. A
    /// lane whose barrier expires leaves the live set; completions queue in
    /// lane-id order.
    fn advance(&mut self, dt: f64) {
        self.now_ns += dt;
        let core_bw = self.params.core_bw;
        let mut i = 0;
        while i < self.lanes.len() {
            let (_, lane) = &mut self.lanes[i];
            if lane.lead_remaining_ns > 0.0 {
                lane.lead_remaining_ns -= dt;
                if lane.lead_remaining_ns <= EPS {
                    lane.lead_remaining_ns = 0.0;
                }
                i += 1;
                continue;
            }
            if let Some(b) = &mut lane.barrier_remaining_ns {
                *b -= dt;
                if *b > EPS {
                    i += 1;
                    continue;
                }
                let (id, lane) = self.lanes.remove(i);
                let num_cores = self.params.topology.num_cores();
                let num_nodes = lane.nodes_out.len();
                self.finished.push_back((
                    id,
                    LoopOutcome {
                        makespan_ns: self.now_ns - lane.started_ns,
                        sched_overhead_ns: lane.overhead_ns,
                        nodes: lane.nodes_out,
                        migrations: lane.migrations,
                        threads: lane.workers.len(),
                        trace: lane.records.unwrap_or_default(),
                        events: lane
                            .recorder
                            .map(|r| r.into_log(num_cores, num_nodes))
                            .unwrap_or_default(),
                    },
                ));
                continue;
            }
            for w in &mut lane.workers {
                match &mut w.state {
                    WorkerState::Overhead { remaining_ns, next } => {
                        *remaining_ns -= dt;
                        if *remaining_ns <= EPS {
                            let t = *next;
                            if let Some(recorder) = &mut lane.recorder {
                                recorder.push(
                                    w.core.index() as u32,
                                    w.node as u32,
                                    self.now_ns as u64,
                                    EventKind::ChunkStart { chunk: t as u32 },
                                );
                            }
                            let freq = self.freqs[w.core.index()];
                            begin_chunk(
                                w,
                                &self.params.topology,
                                &self.params,
                                t,
                                &lane.tasks[t],
                                freq,
                            );
                        }
                    }
                    WorkerState::Running {
                        task,
                        remaining,
                        rate,
                        elapsed_ns,
                    } => {
                        *remaining -= *rate * dt;
                        *elapsed_ns += dt;
                        if *remaining <= EPS {
                            let spec = &lane.tasks[*task];
                            if let Some(records) = &mut lane.records {
                                records.push(TaskRecord {
                                    task: *task,
                                    core: w.core,
                                    start_ns: self.now_ns - *elapsed_ns,
                                    end_ns: self.now_ns,
                                });
                            }
                            if let Some(recorder) = &mut lane.recorder {
                                recorder.push(
                                    w.core.index() as u32,
                                    w.node as u32,
                                    self.now_ns as u64,
                                    EventKind::ChunkEnd {
                                        chunk: *task as u32,
                                    },
                                );
                            }
                            let node = &mut lane.nodes_out[w.node];
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
            i += 1;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::plan::NodeAssignment;
    use crate::task::Locality;
    use ilan_topology::{presets, NodeMask};

    fn chunked_tasks(n: usize, home: usize, compute: f64, bytes: f64) -> Vec<TaskSpec> {
        (0..n)
            .map(|_| TaskSpec {
                compute_ns: compute,
                mem_bytes: bytes,
                home_node: NodeId::new(home),
                locality: Locality::Chunked,
                data_mask: NodeMask::single(NodeId::new(home)),
                cache_reuse: 0.0,
                fits_l3: false,
            })
            .collect()
    }

    fn node_plan(tasks: usize, node: usize) -> PlacementPlan {
        PlacementPlan::Hierarchical {
            assignments: vec![NodeAssignment {
                node: NodeId::new(node),
                tasks: (0..tasks).collect(),
                strict_count: tasks,
            }],
        }
    }

    fn split_plan(tasks: usize, nodes: usize) -> PlacementPlan {
        let mut assignments = Vec::new();
        for node in 0..nodes {
            let ts: Vec<usize> = (0..tasks).filter(|i| i * nodes / tasks == node).collect();
            let strict = ts.len();
            assignments.push(NodeAssignment {
                node: NodeId::new(node),
                tasks: ts,
                strict_count: strict,
            });
        }
        PlacementPlan::Hierarchical { assignments }
    }

    fn both_home_tasks(n: usize, nodes: usize) -> Vec<TaskSpec> {
        (0..n)
            .map(|i| TaskSpec {
                compute_ns: 5_000.0,
                mem_bytes: 50_000.0,
                home_node: NodeId::new(i * nodes / n),
                locality: Locality::Chunked,
                data_mask: NodeMask::first_n(nodes),
                cache_reuse: 0.2,
                fits_l3: true,
            })
            .collect()
    }

    #[test]
    fn zero_cost_pops_and_barriers_complete() {
        // A free pop or an empty barrier is a zero-length step, not a
        // deadline: the loop must still complete.
        let topo = presets::tiny_2x4();
        let cores = topo.cpuset_of_mask(topo.all_nodes());
        let zeroes: [fn(&mut MachineParams); 2] =
            [|p| p.pop_cost_ns = 0.0, |p| p.barrier_base_ns = 0.0];
        for zero in zeroes {
            let mut params = MachineParams::for_topology(&topo).noiseless();
            zero(&mut params);
            let mut colo = ColoMachine::new(params, 7);
            let lane = colo.add_lane();
            colo.start_loop(
                lane,
                &cores,
                &PlacementPlan::flat(),
                both_home_tasks(32, 2),
                0.0,
            );
            let (done, out) = colo
                .run_until_next_completion()
                .expect("the loop completes");
            assert_eq!(done, lane);
            assert_eq!(out.tasks_executed(), 32);
            assert!(!colo.any_busy());
        }
    }

    #[test]
    fn remote_tenant_congests_shared_controller() {
        // Lane A runs bandwidth-heavy chunks homed on node 0 from node-0
        // cores. Lane B runs on node-1 cores but its data also lives on
        // node 0: its traffic crosses into node 0's controller. A must get
        // slower when B co-runs — the shared interference channel.
        let topo = presets::tiny_2x4();
        let cores0 = topo.cpuset_of_mask(NodeMask::single(NodeId::new(0)));
        let cores1 = topo.cpuset_of_mask(NodeMask::single(NodeId::new(1)));
        let a_tasks = || chunked_tasks(64, 0, 500.0, 800_000.0);
        // B's chunks are homed on node 0 (its data lives there) but a plan
        // pins their execution to node 1: all of B's traffic is remote.
        let b_plan = node_plan(64, 1);
        let b_tasks = || chunked_tasks(64, 0, 500.0, 800_000.0);

        let t_alone = {
            let mut colo = ColoMachine::new(MachineParams::for_topology(&topo).noiseless(), 1);
            let a = colo.add_lane();
            colo.start_loop(a, &cores0, &node_plan(64, 0), a_tasks(), 0.0);
            colo.run_until_next_completion().unwrap().1.makespan_ns
        };
        let t_shared = {
            let mut colo = ColoMachine::new(MachineParams::for_topology(&topo).noiseless(), 1);
            let a = colo.add_lane();
            let b = colo.add_lane();
            colo.start_loop(a, &cores0, &node_plan(64, 0), a_tasks(), 0.0);
            colo.start_loop(b, &cores1, &b_plan, b_tasks(), 0.0);
            loop {
                let (lane, out) = colo.run_until_next_completion().unwrap();
                if lane == a {
                    break out.makespan_ns;
                }
            }
        };
        assert!(
            t_shared > 1.2 * t_alone,
            "co-runner on the same controller must slow lane A: alone={t_alone} shared={t_shared}"
        );
    }

    #[test]
    fn disjoint_partitions_do_not_interfere() {
        // Same co-runner, but B's data and execution are fully on node 1:
        // no shared controller, no shared link, no shared cores ⇒ lane A is
        // unaffected (tiny tolerance for float noise).
        let topo = presets::tiny_2x4();
        let cores0 = topo.cpuset_of_mask(NodeMask::single(NodeId::new(0)));
        let cores1 = topo.cpuset_of_mask(NodeMask::single(NodeId::new(1)));

        let t_alone = {
            let mut colo = ColoMachine::new(MachineParams::for_topology(&topo).noiseless(), 1);
            let a = colo.add_lane();
            colo.start_loop(
                a,
                &cores0,
                &node_plan(64, 0),
                chunked_tasks(64, 0, 500.0, 800_000.0),
                0.0,
            );
            colo.run_until_next_completion().unwrap().1.makespan_ns
        };
        let t_partitioned = {
            let mut colo = ColoMachine::new(MachineParams::for_topology(&topo).noiseless(), 1);
            let a = colo.add_lane();
            let b = colo.add_lane();
            colo.start_loop(
                a,
                &cores0,
                &node_plan(64, 0),
                chunked_tasks(64, 0, 500.0, 800_000.0),
                0.0,
            );
            colo.start_loop(
                b,
                &cores1,
                &node_plan(64, 1),
                chunked_tasks(64, 1, 500.0, 800_000.0),
                0.0,
            );
            loop {
                let (lane, out) = colo.run_until_next_completion().unwrap();
                if lane == a {
                    break out.makespan_ns;
                }
            }
        };
        assert!(
            (t_partitioned - t_alone).abs() < 1e-6 * t_alone,
            "disjoint partitions must isolate: alone={t_alone} partitioned={t_partitioned}"
        );
    }

    #[test]
    fn oversubscribed_cores_timeshare() {
        // Two compute-bound lanes on the same cores: each runs at roughly
        // half speed, so the pair takes roughly twice as long as one alone.
        let topo = presets::tiny_2x4();
        let cores0 = topo.cpuset_of_mask(NodeMask::single(NodeId::new(0)));
        let work = || chunked_tasks(64, 0, 200_000.0, 1_000.0);

        let t_alone = {
            let mut colo = ColoMachine::new(MachineParams::for_topology(&topo).noiseless(), 1);
            let a = colo.add_lane();
            colo.start_loop(a, &cores0, &node_plan(64, 0), work(), 0.0);
            colo.run_until_next_completion().unwrap().1.makespan_ns
        };
        let t_both = {
            let mut colo = ColoMachine::new(MachineParams::for_topology(&topo).noiseless(), 1);
            let a = colo.add_lane();
            let b = colo.add_lane();
            colo.start_loop(a, &cores0, &node_plan(64, 0), work(), 0.0);
            colo.start_loop(b, &cores0, &node_plan(64, 0), work(), 0.0);
            let mut last = 0.0f64;
            while let Some((_, out)) = colo.run_until_next_completion() {
                last = last.max(out.makespan_ns);
            }
            last
        };
        assert!(
            t_both > 1.6 * t_alone && t_both < 2.4 * t_alone,
            "timesharing should roughly double the makespan: alone={t_alone} both={t_both}"
        );
    }

    #[test]
    fn lead_time_delays_execution() {
        let topo = presets::tiny_2x4();
        let cores = topo.cpuset_of_mask(topo.all_nodes());
        let run = |lead: f64| {
            let mut colo = ColoMachine::new(MachineParams::for_topology(&topo).noiseless(), 3);
            let a = colo.add_lane();
            colo.start_loop(a, &cores, &split_plan(32, 2), both_home_tasks(32, 2), lead);
            colo.run_until_next_completion().unwrap().1.makespan_ns
        };
        let base = run(0.0);
        let delayed = run(50_000.0);
        assert!(
            (delayed - base - 50_000.0).abs() < 1e-6,
            "lead must shift completion 1:1: base={base} delayed={delayed}"
        );
    }

    #[test]
    fn run_until_deadline_stops_short() {
        let topo = presets::tiny_2x4();
        let cores = topo.cpuset_of_mask(topo.all_nodes());
        let mut colo = ColoMachine::new(MachineParams::for_topology(&topo).noiseless(), 3);
        let a = colo.add_lane();
        colo.start_loop(a, &cores, &split_plan(32, 2), both_home_tasks(32, 2), 0.0);
        // A deadline far before completion: no outcome, clock at deadline.
        assert!(colo.run_until_ns(10.0).is_none());
        assert!((colo.now_ns() - 10.0).abs() < 1e-9);
        assert!(colo.lane_busy(a));
        // Finish it.
        let (lane, _) = colo.run_until_next_completion().unwrap();
        assert_eq!(lane, a);
        // Idle machine jumps to the deadline.
        let t = colo.now_ns() + 500.0;
        assert!(colo.run_until_ns(t).is_none());
        assert!((colo.now_ns() - t).abs() < 1e-9);
    }

    #[test]
    fn traced_lanes_audit_clean() {
        let topo = presets::tiny_2x4();
        let cores = topo.cpuset_of_mask(topo.all_nodes());
        let mut colo = ColoMachine::new(MachineParams::for_topology(&topo).noiseless(), 5);
        colo.set_tracing(true);
        let a = colo.add_lane();
        let b = colo.add_lane();
        colo.start_loop(a, &cores, &split_plan(32, 2), both_home_tasks(32, 2), 0.0);
        colo.start_loop(
            b,
            &cores,
            &PlacementPlan::flat(),
            both_home_tasks(24, 2),
            500.0,
        );
        let mut seen = 0;
        while let Some((_, out)) = colo.run_until_next_completion() {
            seen += 1;
            assert!(!out.events.is_empty(), "traced lane must carry events");
            let expect = ilan_trace::AuditExpect {
                migrations: Some(out.migrations),
                latch_releases: Some(out.threads),
                per_node: Some(
                    out.nodes
                        .iter()
                        .map(|n| ilan_trace::NodeTally {
                            tasks: n.tasks,
                            // Sim locality is defined against data homes,
                            // which the placement-plan event log cannot see.
                            local_tasks: None,
                        })
                        .collect(),
                ),
            };
            let audit = ilan_trace::audit(&out.events, &expect);
            assert!(audit.ok(), "audit violations: {audit}");
        }
        assert_eq!(seen, 2);
    }

    #[test]
    fn untraced_lanes_carry_no_events() {
        let topo = presets::tiny_2x4();
        let cores = topo.cpuset_of_mask(topo.all_nodes());
        let mut colo = ColoMachine::new(MachineParams::for_topology(&topo).noiseless(), 5);
        let a = colo.add_lane();
        colo.start_loop(a, &cores, &split_plan(32, 2), both_home_tasks(32, 2), 0.0);
        let (_, out) = colo.run_until_next_completion().unwrap();
        assert!(out.events.is_empty());
    }

    #[test]
    fn slow_node_stretches_the_lane_running_there() {
        use ilan_faults::{FaultConfig, FaultPlan};
        // Find a seed whose plan slows node 0 and stalls nobody.
        let config = FaultConfig {
            max_slow_nodes: 1,
            max_node_slowdown: 4.0,
            ..FaultConfig::none()
        };
        let plan = (0..10_000u64)
            .map(|s| FaultPlan::new(s, 8, 2, config))
            .find(|p| p.node_slowdown(0) > 1.5 && p.stalls().is_empty())
            .expect("some seed slows node 0");
        let factor = plan.node_slowdown(0);

        let topo = presets::tiny_2x4();
        let cores0 = topo.cpuset_of_mask(NodeMask::single(NodeId::new(0)));
        let run = |plan: Option<FaultPlan>| {
            let mut colo = ColoMachine::new(MachineParams::for_topology(&topo).noiseless(), 1);
            if let Some(p) = plan {
                colo.set_fault_plan(p);
            }
            let a = colo.add_lane();
            colo.start_loop(
                a,
                &cores0,
                &node_plan(64, 0),
                chunked_tasks(64, 0, 200_000.0, 1_000.0),
                0.0,
            );
            colo.run_until_next_completion().unwrap().1
        };
        let healthy = run(None);
        let slowed = run(Some(plan));
        assert_eq!(healthy.tasks_executed(), slowed.tasks_executed());
        // Compute-bound chunks on a dedicated node: makespan scales almost
        // exactly with the slowdown (overheads are unscaled, hence "almost").
        let ratio = slowed.makespan_ns / healthy.makespan_ns;
        assert!(
            ratio > 0.9 * factor && ratio < 1.1 * factor,
            "slowdown x{factor} should stretch the lane ~x{factor}, got x{ratio}"
        );
    }

    #[test]
    fn stalled_worker_delays_completion_but_loses_no_chunks() {
        use ilan_faults::{FaultConfig, FaultPlan};
        let config = FaultConfig {
            max_worker_stalls: 1,
            max_stall_ns: 500_000,
            ..FaultConfig::none()
        };
        let plan = (0..10_000u64)
            .map(|s| FaultPlan::new(s, 8, 2, config))
            .find(|p| p.stalls().len() == 1 && p.slow_nodes().is_empty())
            .expect("some seed stalls one worker");

        let topo = presets::tiny_2x4();
        let cores = topo.cpuset_of_mask(topo.all_nodes());
        let run = |plan: Option<FaultPlan>| {
            let mut colo = ColoMachine::new(MachineParams::for_topology(&topo).noiseless(), 3);
            if let Some(p) = plan {
                colo.set_fault_plan(p);
            }
            let a = colo.add_lane();
            colo.start_loop(a, &cores, &split_plan(32, 2), both_home_tasks(32, 2), 0.0);
            colo.run_until_next_completion().unwrap().1
        };
        let healthy = run(None);
        let stalled = run(Some(plan.clone()));
        assert_eq!(healthy.tasks_executed(), stalled.tasks_executed());
        assert!(
            stalled.makespan_ns >= healthy.makespan_ns,
            "losing a worker for a while cannot speed the loop up: healthy={} stalled={}",
            healthy.makespan_ns,
            stalled.makespan_ns
        );
        // Same plan, same seed: the faulty run replays exactly.
        let replay = run(Some(plan));
        assert_eq!(stalled.makespan_ns, replay.makespan_ns);
        assert_eq!(stalled.migrations, replay.migrations);
    }

    #[test]
    #[should_panic(expected = "out of simulation scope")]
    fn permanent_stalls_are_rejected() {
        use ilan_faults::{FaultConfig, FaultPlan};
        let config = FaultConfig {
            max_worker_stalls: 1,
            permanent_stalls: true,
            max_stall_ns: 1_000,
            ..FaultConfig::none()
        };
        let plan = (0..10_000u64)
            .map(|s| FaultPlan::new(s, 8, 2, config))
            .find(FaultPlan::has_permanent_stall)
            .expect("some seed draws a permanent stall");
        let topo = presets::tiny_2x4();
        let mut colo = ColoMachine::new(MachineParams::for_topology(&topo).noiseless(), 1);
        colo.set_fault_plan(plan);
    }

    #[test]
    fn lane_ids_stay_valid_after_many_lanes() {
        let topo = presets::tiny_2x4();
        let cores0 = topo.cpuset_of_mask(NodeMask::single(NodeId::new(0)));
        let mut colo = ColoMachine::new(MachineParams::for_topology(&topo).noiseless(), 1);
        let ids: Vec<usize> = (0..300).map(|_| colo.add_lane()).collect();
        assert_eq!(ids, (0..300).collect::<Vec<_>>());
        // Idle lanes are valid ids, not live work.
        assert!(ids.iter().all(|&l| !colo.lane_busy(l)));
        assert!(!colo.any_busy());
        for lane in [299, 0, 150] {
            colo.start_loop(
                lane,
                &cores0,
                &node_plan(8, 0),
                chunked_tasks(8, 0, 1_000.0, 1_000.0),
                0.0,
            );
            assert!(colo.lane_busy(lane));
            let (done, out) = colo.run_until_next_completion().unwrap();
            assert_eq!(done, lane);
            assert_eq!(out.tasks_executed(), 8);
        }
    }

    #[test]
    fn lane_is_idle_once_its_loop_completes() {
        let topo = presets::tiny_2x4();
        let cores = topo.cpuset_of_mask(topo.all_nodes());
        let mut colo = ColoMachine::new(MachineParams::for_topology(&topo).noiseless(), 3);
        let a = colo.add_lane();
        colo.start_loop(a, &cores, &split_plan(32, 2), both_home_tasks(32, 2), 0.0);
        assert!(colo.lane_busy(a));
        let (done, _) = colo.run_until_next_completion().unwrap();
        assert_eq!(done, a);
        assert!(!colo.lane_busy(a));
        assert!(!colo.any_busy());
        // The idle lane accepts its next loop.
        colo.start_loop(a, &cores, &split_plan(32, 2), both_home_tasks(32, 2), 0.0);
        assert!(colo.lane_busy(a));
    }

    #[test]
    fn simultaneous_completions_come_back_in_lane_id_order() {
        // Mirror-image loops on the two nodes of a noiseless machine finish
        // on the same event. The higher id starts first, so only the live
        // set's ordering — not submission order — decides the report order.
        let topo = presets::tiny_2x4();
        let mut colo = ColoMachine::new(MachineParams::for_topology(&topo).noiseless(), 1);
        let lanes: Vec<usize> = (0..4).map(|_| colo.add_lane()).collect();
        for (lane, node) in [(lanes[3], 1), (lanes[1], 0)] {
            let cores = topo.cpuset_of_mask(NodeMask::single(NodeId::new(node)));
            colo.start_loop(
                lane,
                &cores,
                &node_plan(16, node),
                chunked_tasks(16, node, 20_000.0, 100_000.0),
                0.0,
            );
        }
        let (first, a) = colo.run_until_next_completion().unwrap();
        let t_first = colo.now_ns();
        let (second, b) = colo.run_until_next_completion().unwrap();
        assert_eq!(colo.now_ns(), t_first, "both barriers expire on one event");
        assert_eq!(a.makespan_ns, b.makespan_ns);
        assert_eq!((first, second), (lanes[1], lanes[3]));
    }

    #[test]
    #[should_panic(expected = "lane 2 was never handed out by add_lane")]
    fn starting_an_unknown_lane_panics_clearly() {
        let topo = presets::tiny_2x4();
        let cores = topo.cpuset_of_mask(topo.all_nodes());
        let mut colo = ColoMachine::new(MachineParams::for_topology(&topo).noiseless(), 1);
        colo.add_lane();
        colo.add_lane();
        colo.start_loop(2, &cores, &split_plan(8, 2), both_home_tasks(8, 2), 0.0);
    }

    #[test]
    fn deterministic_across_replays() {
        let topo = presets::tiny_2x4();
        let cores = topo.cpuset_of_mask(topo.all_nodes());
        let replay = |seed: u64| {
            let mut colo = ColoMachine::new(MachineParams::for_topology(&topo), seed);
            let a = colo.add_lane();
            let b = colo.add_lane();
            colo.start_loop(
                a,
                &cores,
                &PlacementPlan::flat(),
                both_home_tasks(40, 2),
                0.0,
            );
            colo.start_loop(
                b,
                &cores,
                &PlacementPlan::flat(),
                both_home_tasks(24, 2),
                1_000.0,
            );
            let mut trace = Vec::new();
            while let Some((lane, out)) = colo.run_until_next_completion() {
                trace.push((lane, out.makespan_ns, colo.now_ns()));
            }
            trace
        };
        assert_eq!(replay(11), replay(11));
        assert_ne!(replay(11), replay(12), "seed must matter under noise");
    }
}
