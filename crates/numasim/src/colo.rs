//! The fluid-rate machine: one or more concurrent taskloops on one machine.
//!
//! [`ColoMachine`] is the crate's event loop. Between events every running
//! chunk progresses linearly at a rate computed from the machine state; an
//! event is a chunk completing, a worker finishing a scheduling action, a
//! serial lead or closing barrier expiring, or an injected stall ending. On
//! each event the machine rebuilds the congestion (memory-controller and
//! inter-socket-link congestion are global state) from every running chunk
//! and prices each chunk against it, so contention is always consistent with
//! the set of running chunks. A chunk's own pricing inputs are fixed when it
//! starts.
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
//!   slowed, only chunk execution is. Disjoint partitions have occupancy 1.
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
//! the loop's closing barrier expires, so an event touches only live work,
//! however many lanes were ever handed out.
//!
//! **Per-event work** — an event runs dense passes over each live lane's
//! worker arrays (see [`Workers`]), and each pass does only what can have
//! changed:
//!
//! * *acquisition* visits a lane's idle workers, and skips a lane with none
//!   (unless a fault plan may have let a stall expire);
//! * *occupancy* is an integer count per core, updated when a chunk starts
//!   or ends; the workers' core shares are refreshed only when some count
//!   above one moved;
//! * *congestion* re-sums only the entries whose rows moved (a chunk
//!   started, ended or was rescaled): node demand and streams as columns of
//!   the lanes' pricing rows, link rows link by link, in lane-then-worker
//!   order, bitwise as a chunk-by-chunk pass would (see
//!   [`rates`](crate::rates)); debug builds check the kept sums against a
//!   full recompute at every event;
//! * *rates* are recomputed only for chunks that just started, whose core's
//!   occupancy moved, that read a field entry whose factor changed bitwise,
//!   or that ran when a fault plan was installed — any other chunk's inputs
//!   are bitwise those of its last pricing, so its rate is too;
//! * the *next event* is `min(remaining / rate)` over every worker, and
//!   *advance* is `remaining -= rate * dt` over every worker, which also
//!   collects the workers that finished as a bitset.
//!
//! Every float operation and its order are those of the chunk-by-chunk
//! model, so outputs are bitwise independent of which work was skipped.
//! [`event_counts`](ColoMachine::event_counts) reports how much was.
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

use crate::exec::{seek, Phase, PoolSet, WorkerInfo, Workers, EPS};
use crate::outcome::{LoopOutcome, NodeOutcome, TaskRecord};
use crate::params::MachineParams;
use crate::rates::CongestionField;
use crate::task::TaskSpec;
use ilan_faults::FaultPlan;
use ilan_topology::{active_cores, CoreId, CpuSet, ExecMode, NodeId, NodeMask, Topology};
use ilan_trace::{EventKind, Recorder};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::collections::VecDeque;

/// One lane's in-flight taskloop invocation.
struct LaneRun {
    tasks: Vec<TaskSpec>,
    pools: PoolSet,
    workers: Workers,
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

    /// Re-prices the running chunks that are due: stale ones and those that
    /// read a field entry whose bit is set in `changed`. Returns how many
    /// were re-priced. In debug builds, every chunk skipped is re-priced
    /// too and must come out bitwise unchanged.
    fn reprice(
        &mut self,
        field: &CongestionField,
        changed: u64,
        faults: Option<&FaultPlan>,
        params: &MachineParams,
    ) -> u64 {
        let ws = &mut self.workers;
        let rate_of = |ws: &Workers, i: usize| {
            let node = ws.info[i].node;
            let penalty = field.penalty(&ws.pricing, i);
            let mut duration = ws.pricing.duration(i, penalty) * ws.occupancy[i];
            if let Some(plan) = faults {
                duration *= plan.node_slowdown(node as u32);
            }
            if self.outlier_node == Some(node) {
                duration /= params.noise.outlier_factor;
            }
            // A zero duration runs at +∞ (1 / +0.0).
            debug_assert!(duration >= 0.0 && duration.is_sign_positive());
            1.0 / duration
        };
        let mut repriced = 0;
        for block in 0..ws.blocks() {
            let base = 64 * block;
            let mut due = ws.stale[block] | ws.pricing.readers_of(changed, block);
            ws.stale[block] = 0;
            if cfg!(debug_assertions) {
                for i in base..ws.len().min(base + 64) {
                    if due >> (i - base) & 1 == 0 && ws.phase[i] == Phase::Running {
                        assert_eq!(
                            rate_of(ws, i).to_bits(),
                            ws.rate[i].to_bits(),
                            "a skipped re-pricing would have changed the rate"
                        );
                    }
                }
            }
            repriced += due.count_ones() as u64;
            while due != 0 {
                let i = base + due.trailing_zeros() as usize;
                due &= due - 1;
                debug_assert_eq!(ws.phase[i], Phase::Running);
                ws.rate[i] = rate_of(ws, i);
            }
        }
        repriced
    }

    /// Worker `w`'s scheduling action ended at `now`: its chunk starts.
    fn start_chunk(
        &mut self,
        w: usize,
        now: f64,
        load: &mut CoreLoad,
        params: &MachineParams,
        freqs: &[f64],
    ) {
        let WorkerInfo {
            core, node, task, ..
        } = self.workers.info[w];
        if let Some(recorder) = &mut self.recorder {
            recorder.push(
                core.index() as u32,
                node as u32,
                now as u64,
                EventKind::ChunkStart { chunk: task as u32 },
            );
        }
        let occupancy = load.start(core);
        self.workers
            .begin_chunk(w, params, &self.tasks[task], freqs[core.index()], occupancy);
    }

    /// Worker `w`'s chunk completed at `now`.
    fn complete_chunk(&mut self, w: usize, now: f64, load: &mut CoreLoad, core_bw: f64) {
        let WorkerInfo {
            core, node, task, ..
        } = self.workers.info[w];
        let elapsed_ns = self.workers.elapsed_ns[w];
        let spec = &self.tasks[task];
        if let Some(records) = &mut self.records {
            records.push(TaskRecord {
                task,
                core,
                start_ns: now - elapsed_ns,
                end_ns: now,
            });
        }
        if let Some(recorder) = &mut self.recorder {
            recorder.push(
                core.index() as u32,
                node as u32,
                now as u64,
                EventKind::ChunkEnd { chunk: task as u32 },
            );
        }
        let out = &mut self.nodes_out[node];
        out.tasks += 1;
        out.busy_ns += elapsed_ns;
        out.ideal_ns += spec.ideal_ns(core_bw);
        out.dram_bytes += spec.effective_bytes(NodeId::new(node));
        if spec.home_node.index() == node {
            out.local_tasks += 1;
        }
        load.end(core);
        self.workers.end_chunk(w);
    }

    /// Every worker has parked at `now`, so the work phase is over: closes
    /// the idle tails and enters the closing barrier.
    fn enter_barrier(&mut self, now: f64, params: &MachineParams) {
        assert!(
            self.pools.is_empty(),
            "deadlock: tasks remain but every worker is parked"
        );
        debug_assert_eq!(self.workers.parked, self.workers.len());
        for w in &self.workers.info {
            self.overhead_ns += now - w.parked_since;
        }
        // Each worker releases the exit latch at barrier entry.
        if let Some(recorder) = &mut self.recorder {
            for w in &self.workers.info {
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

/// Running chunks per core, across all lanes.
struct CoreLoad {
    per_core: Vec<usize>,
    /// Running chunks on the machine.
    running: usize,
    /// Whether some core's occupancy moved since the workers' shares were
    /// last refreshed.
    moved: bool,
}

impl CoreLoad {
    /// A chunk starts on `core`; returns the core's new occupancy.
    fn start(&mut self, core: CoreId) -> f64 {
        let n = &mut self.per_core[core.index()];
        *n += 1;
        self.moved |= *n > 1;
        self.running += 1;
        *n as f64
    }

    /// A chunk ends on `core`.
    fn end(&mut self, core: CoreId) {
        let n = &mut self.per_core[core.index()];
        self.moved |= *n > 1;
        *n -= 1;
        self.running -= 1;
    }

    /// The core's occupancy: its running chunks, at least 1. Chunks on one
    /// core timeshare it, each at `1 / occupancy` of its speed.
    fn occupancy(&self, core: CoreId) -> f64 {
        self.per_core[core.index()].max(1) as f64
    }
}

/// How much work a [`ColoMachine`] has done and skipped since it was built
/// (see [`ColoMachine::event_counts`]).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct EventCounts {
    /// Events processed.
    pub events: u64,
    /// Running chunks summed over events: the re-pricings a machine that
    /// re-priced every running chunk at every event would do.
    pub chunk_events: u64,
    /// Chunk re-pricings actually done.
    pub repriced_chunks: u64,
}

impl EventCounts {
    /// The counts accumulated since `earlier` was taken.
    pub fn since(self, earlier: EventCounts) -> EventCounts {
        EventCounts {
            events: self.events - earlier.events,
            chunk_events: self.chunk_events - earlier.chunk_events,
            repriced_chunks: self.repriced_chunks - earlier.repriced_chunks,
        }
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
    /// Debug builds recompute the whole field here at every event and
    /// compare it with `field`.
    full_field: CongestionField,
    load: CoreLoad,
    counts: EventCounts,
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
        let num_cores = params.topology.num_cores();
        ColoMachine {
            field: CongestionField::new(&params.topology),
            full_field: CongestionField::new(&params.topology),
            params,
            freqs,
            rng,
            now_ns: 0.0,
            num_lanes: 0,
            lanes: Vec::new(),
            load: CoreLoad {
                per_core: vec![0; num_cores],
                running: 0,
                moved: false,
            },
            counts: EventCounts::default(),
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
        // Slow nodes apply to chunks in flight: re-price them all.
        for (_, lane) in &mut self.lanes {
            let ws = &mut lane.workers;
            for i in 0..ws.len() {
                if ws.phase[i] == Phase::Running {
                    ws.mark_stale(i);
                }
            }
        }
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

    /// Events processed and chunk re-pricings done and skipped since the
    /// machine was built.
    pub fn event_counts(&self) -> EventCounts {
        self.counts
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
    /// parallel execution under `mode`. A flat or work-sharing loop runs on
    /// every core of `span` (the whole machine for a single application,
    /// the tenant's partition on a shared one); a hierarchical loop runs on
    /// the [`active_cores`] of its own mask and thread count.
    ///
    /// # Panics
    /// Panics if the lane was never handed out or is already busy, a task
    /// fails [`TaskSpec::validate`] or has its home node outside the
    /// topology, a flat or work-sharing loop's `span` is empty or outside
    /// the topology, or a hierarchical `mode` fails [`active_cores`]'
    /// preconditions.
    pub fn start_loop(
        &mut self,
        lane: usize,
        span: NodeMask,
        mode: &ExecMode,
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
        // The pricing rows are exact only for valid specs: demands and
        // stream weights >= +0.0, and the home inside the topology.
        for t in &tasks {
            t.validate();
            assert!(
                t.home_node.index() < topo.num_nodes(),
                "task home {} outside topology",
                t.home_node
            );
        }
        let active: CpuSet = match mode {
            ExecMode::Flat | ExecMode::WorkSharing => topo.cpuset_of_mask(span),
            ExecMode::Hierarchical { mask, threads, .. } => {
                active_cores(topo, *mask, *threads).collect()
            }
        };
        let mut workers = Workers::new(topo, &active);
        let perm_seed: u64 = rand::Rng::random(&mut self.rng);
        let mut recorder = self.tracing.then(Recorder::new);
        let pools = PoolSet::build(
            mode,
            tasks.len(),
            &workers,
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
            for (i, w) in workers.info.iter_mut().enumerate() {
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
        span: NodeMask,
        mode: &ExecMode,
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
        self.start_loop(lane, span, mode, tasks.to_vec(), 0.0);
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
                // Deadline already reached: no event is processed.
                return None;
            }
            self.counts.events += 1;
            self.counts.chunk_events += self.load.running as u64;

            self.advance(dt);

            if self.finished.is_empty() && self.now_ns >= t_end - EPS {
                return None;
            }
        }
    }

    /// Lets every idle worker of every executing lane acquire work, then
    /// moves each lane whose workers have all parked into its closing
    /// barrier. Without a fault plan, a lane none of whose workers is idle
    /// is skipped: its census of parked workers cannot have changed since
    /// its last pass, which left no idle worker behind.
    fn acquire(&mut self) {
        let now = self.now_ns;
        let stalls = self.faults.is_some();
        for (_, lane) in &mut self.lanes {
            if !lane.executing() || (!stalls && !lane.workers.any_idle()) {
                continue;
            }
            // Fixed point: a batch steal can wake parked peers, which need
            // another pass. A pass that wakes no one leaves no idle worker
            // behind (stalled ones aside), so its census is final.
            loop {
                let mut woke = false;
                let mut from = 0;
                while let Some(i) = lane.workers.next_idle(from) {
                    from = i + 1;
                    if stalls && lane.workers.info[i].stall_until_ns > now + EPS {
                        // Stalled: sits out of the acquire loop; the event
                        // scan bounds dt by the expiry.
                        continue;
                    }
                    woke |= seek(
                        &mut lane.pools,
                        &mut lane.workers,
                        i,
                        now,
                        &self.params,
                        &mut lane.rng_state,
                        &mut lane.overhead_ns,
                        &mut lane.migrations,
                        lane.recorder.as_mut(),
                    );
                }
                if !woke {
                    break;
                }
            }
            if lane.workers.parked == lane.workers.len() {
                lane.enter_barrier(now, &self.params);
            }
        }
    }

    /// Re-prices the running chunks whose inputs moved (see the module
    /// docs) against the congestion of every running chunk on the machine,
    /// and returns the time to the next event: a lead or barrier expiring,
    /// a stall ending, a scheduling action finishing, or a chunk completing.
    fn reprice(&mut self) -> f64 {
        if self.load.moved {
            self.load.moved = false;
            for (_, lane) in &mut self.lanes {
                lane.workers
                    .refresh_occupancy(|core| self.load.occupancy(core));
            }
        }

        // Rows move in every live lane (a lane's last chunk ends just before
        // its barrier), but only executing lanes have running chunks.
        let moved =
            (self.lanes.iter_mut()).fold(0, |m, (_, lane)| m | lane.workers.pricing.take_moved());
        self.field.begin(moved);
        for (_, lane) in &self.lanes {
            if lane.executing() {
                self.field.add(&lane.workers.pricing, &lane.workers.share);
            }
        }
        if cfg!(debug_assertions) {
            // The sums kept from earlier events equal a full recompute.
            self.full_field.begin(u64::MAX);
            for (_, lane) in &self.lanes {
                if lane.executing() {
                    self.full_field
                        .add(&lane.workers.pricing, &lane.workers.share);
                }
            }
            assert!(
                self.field.same_sums(&self.full_field),
                "incrementally kept congestion sums differ from a full recompute"
            );
        }
        let changed = self.field.finalize(&self.params);

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
            self.counts.repriced_chunks += lane.reprice(&self.field, changed, faults, &self.params);
            next = next.min(lane.workers.next_event());
            if faults.is_some() {
                // A stalled worker is idle (it has never sought work), so
                // its own event time is +∞ and the stall bounds dt.
                for w in &lane.workers.info {
                    if w.stall_until_ns > now + EPS {
                        next = next.min(w.stall_until_ns - now);
                    }
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
        let now = self.now_ns;
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
                        makespan_ns: now - lane.started_ns,
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
            lane.workers.progress(dt);
            for block in 0..lane.workers.blocks() {
                let mut done = lane.workers.done[block];
                while done != 0 {
                    let w = 64 * block + done.trailing_zeros() as usize;
                    done &= done - 1;
                    if lane.workers.phase[w] == Phase::Overhead {
                        lane.start_chunk(w, now, &mut self.load, &self.params, &self.freqs);
                    } else {
                        lane.complete_chunk(w, now, &mut self.load, self.params.core_bw);
                    }
                }
            }
            i += 1;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::task::Locality;
    use ilan_topology::{presets, ChunkAssignment, StealPolicy};

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

    /// Strict hierarchical over the first `nodes` nodes, every core active.
    fn split(nodes: usize) -> ExecMode {
        strict_on(NodeMask::first_n(nodes))
    }

    /// Every chunk strict on `node`, every core of it active.
    fn on_node(node: usize) -> ExecMode {
        strict_on(NodeMask::single(NodeId::new(node)))
    }

    fn strict_on(mask: NodeMask) -> ExecMode {
        ExecMode::Hierarchical {
            mask,
            threads: 0,
            strict_fraction: 1.0,
            policy: StealPolicy::Strict,
        }
    }

    fn both_home_tasks(n: usize, nodes: usize) -> Vec<TaskSpec> {
        let blocked = ChunkAssignment::new(NodeMask::first_n(nodes), n);
        (0..n)
            .map(|i| TaskSpec {
                compute_ns: 5_000.0,
                mem_bytes: 50_000.0,
                home_node: blocked.node_of_chunk(i),
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
        let all = topo.all_nodes();
        let zeroes: [fn(&mut MachineParams); 2] =
            [|p| p.pop_cost_ns = 0.0, |p| p.barrier_base_ns = 0.0];
        for zero in zeroes {
            let mut params = MachineParams::for_topology(&topo).noiseless();
            zero(&mut params);
            let mut colo = ColoMachine::new(params, 7);
            let lane = colo.add_lane();
            colo.start_loop(lane, all, &ExecMode::Flat, both_home_tasks(32, 2), 0.0);
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
        let node0 = NodeMask::single(NodeId::new(0));
        let node1 = NodeMask::single(NodeId::new(1));
        let a_tasks = || chunked_tasks(64, 0, 500.0, 800_000.0);
        // B's chunks are homed on node 0 (its data lives there) but its
        // placement pins their execution to node 1: all of B's traffic is
        // remote.
        let b_mode = on_node(1);
        let b_tasks = || chunked_tasks(64, 0, 500.0, 800_000.0);

        let t_alone = {
            let mut colo = ColoMachine::new(MachineParams::for_topology(&topo).noiseless(), 1);
            let a = colo.add_lane();
            colo.start_loop(a, node0, &on_node(0), a_tasks(), 0.0);
            colo.run_until_next_completion().unwrap().1.makespan_ns
        };
        let t_shared = {
            let mut colo = ColoMachine::new(MachineParams::for_topology(&topo).noiseless(), 1);
            let a = colo.add_lane();
            let b = colo.add_lane();
            colo.start_loop(a, node0, &on_node(0), a_tasks(), 0.0);
            colo.start_loop(b, node1, &b_mode, b_tasks(), 0.0);
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
        let node0 = NodeMask::single(NodeId::new(0));
        let node1 = NodeMask::single(NodeId::new(1));

        let t_alone = {
            let mut colo = ColoMachine::new(MachineParams::for_topology(&topo).noiseless(), 1);
            let a = colo.add_lane();
            colo.start_loop(
                a,
                node0,
                &on_node(0),
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
                node0,
                &on_node(0),
                chunked_tasks(64, 0, 500.0, 800_000.0),
                0.0,
            );
            colo.start_loop(
                b,
                node1,
                &on_node(1),
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
        let node0 = NodeMask::single(NodeId::new(0));
        let work = || chunked_tasks(64, 0, 200_000.0, 1_000.0);

        let t_alone = {
            let mut colo = ColoMachine::new(MachineParams::for_topology(&topo).noiseless(), 1);
            let a = colo.add_lane();
            colo.start_loop(a, node0, &on_node(0), work(), 0.0);
            colo.run_until_next_completion().unwrap().1.makespan_ns
        };
        let t_both = {
            let mut colo = ColoMachine::new(MachineParams::for_topology(&topo).noiseless(), 1);
            let a = colo.add_lane();
            let b = colo.add_lane();
            colo.start_loop(a, node0, &on_node(0), work(), 0.0);
            colo.start_loop(b, node0, &on_node(0), work(), 0.0);
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
        let all = topo.all_nodes();
        let run = |lead: f64| {
            let mut colo = ColoMachine::new(MachineParams::for_topology(&topo).noiseless(), 3);
            let a = colo.add_lane();
            colo.start_loop(a, all, &split(2), both_home_tasks(32, 2), lead);
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
        let all = topo.all_nodes();
        let mut colo = ColoMachine::new(MachineParams::for_topology(&topo).noiseless(), 3);
        let a = colo.add_lane();
        colo.start_loop(a, all, &split(2), both_home_tasks(32, 2), 0.0);
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
        let all = topo.all_nodes();
        let mut colo = ColoMachine::new(MachineParams::for_topology(&topo).noiseless(), 5);
        colo.set_tracing(true);
        let a = colo.add_lane();
        let b = colo.add_lane();
        colo.start_loop(a, all, &split(2), both_home_tasks(32, 2), 0.0);
        colo.start_loop(b, all, &ExecMode::Flat, both_home_tasks(24, 2), 500.0);
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
                            // which the log's placement events cannot see.
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
        let all = topo.all_nodes();
        let mut colo = ColoMachine::new(MachineParams::for_topology(&topo).noiseless(), 5);
        let a = colo.add_lane();
        colo.start_loop(a, all, &split(2), both_home_tasks(32, 2), 0.0);
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
        let node0 = NodeMask::single(NodeId::new(0));
        let run = |plan: Option<FaultPlan>| {
            let mut colo = ColoMachine::new(MachineParams::for_topology(&topo).noiseless(), 1);
            if let Some(p) = plan {
                colo.set_fault_plan(p);
            }
            let a = colo.add_lane();
            colo.start_loop(
                a,
                node0,
                &on_node(0),
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
        let all = topo.all_nodes();
        let run = |plan: Option<FaultPlan>| {
            let mut colo = ColoMachine::new(MachineParams::for_topology(&topo).noiseless(), 3);
            if let Some(p) = plan {
                colo.set_fault_plan(p);
            }
            let a = colo.add_lane();
            colo.start_loop(a, all, &split(2), both_home_tasks(32, 2), 0.0);
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
        let node0 = NodeMask::single(NodeId::new(0));
        let mut colo = ColoMachine::new(MachineParams::for_topology(&topo).noiseless(), 1);
        let ids: Vec<usize> = (0..300).map(|_| colo.add_lane()).collect();
        assert_eq!(ids, (0..300).collect::<Vec<_>>());
        // Idle lanes are valid ids, not live work.
        assert!(ids.iter().all(|&l| !colo.lane_busy(l)));
        assert!(!colo.any_busy());
        for lane in [299, 0, 150] {
            colo.start_loop(
                lane,
                node0,
                &on_node(0),
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
        let all = topo.all_nodes();
        let mut colo = ColoMachine::new(MachineParams::for_topology(&topo).noiseless(), 3);
        let a = colo.add_lane();
        colo.start_loop(a, all, &split(2), both_home_tasks(32, 2), 0.0);
        assert!(colo.lane_busy(a));
        let (done, _) = colo.run_until_next_completion().unwrap();
        assert_eq!(done, a);
        assert!(!colo.lane_busy(a));
        assert!(!colo.any_busy());
        // The idle lane accepts its next loop.
        colo.start_loop(a, all, &split(2), both_home_tasks(32, 2), 0.0);
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
            colo.start_loop(
                lane,
                NodeMask::single(NodeId::new(node)),
                &on_node(node),
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
        let all = topo.all_nodes();
        let mut colo = ColoMachine::new(MachineParams::for_topology(&topo).noiseless(), 1);
        colo.add_lane();
        colo.add_lane();
        colo.start_loop(2, all, &split(2), both_home_tasks(8, 2), 0.0);
    }

    #[test]
    #[should_panic(expected = "task home node5 outside topology")]
    fn starting_a_task_homed_outside_the_topology_panics() {
        // Two nodes: a home of 5 would land in the padding of a pricing row.
        let topo = presets::tiny_2x4();
        let all = topo.all_nodes();
        let mut colo = ColoMachine::new(MachineParams::for_topology(&topo).noiseless(), 1);
        let a = colo.add_lane();
        colo.start_loop(
            a,
            all,
            &split(1),
            chunked_tasks(4, 5, 1_000.0, 1_000.0),
            0.0,
        );
    }

    #[test]
    #[should_panic(expected = "spread must be in [0,1]")]
    fn starting_an_invalid_task_panics() {
        let topo = presets::tiny_2x4();
        let all = topo.all_nodes();
        let mut colo = ColoMachine::new(MachineParams::for_topology(&topo).noiseless(), 1);
        let a = colo.add_lane();
        let mut tasks = both_home_tasks(4, 2);
        tasks[1].locality = Locality::Scattered { spread: 1.5 };
        colo.start_loop(a, all, &split(2), tasks, 0.0);
    }

    #[test]
    fn uncongested_chunks_are_priced_once() {
        // Compute-bound chunks never congest a controller, so no field entry
        // moves: each chunk is priced when it starts and never again.
        let topo = presets::tiny_2x4();
        let mut colo = ColoMachine::new(MachineParams::for_topology(&topo), 1);
        let a = colo.add_lane();
        let node0 = NodeMask::single(NodeId::new(0));
        let work = chunked_tasks(64, 0, 200_000.0, 1_000.0);
        colo.start_loop(a, node0, &on_node(0), work, 0.0);
        colo.run_until_next_completion().unwrap();
        let counts = colo.event_counts();
        assert_eq!(counts.repriced_chunks, 64);
        assert!(counts.chunk_events > 64, "{counts:?}");
    }

    #[test]
    fn repricings_stay_within_running_chunk_events_under_sharing_and_faults() {
        use ilan_faults::{FaultConfig, FaultPlan};
        let plan = (0..10_000u64)
            .map(|s| FaultPlan::new(s, 8, 2, FaultConfig::sim_safe()))
            .find(|p| !p.stalls().is_empty() && !p.slow_nodes().is_empty())
            .expect("some seed stalls a worker and slows a node");
        let topo = presets::tiny_2x4();
        let all = topo.all_nodes();
        let mut colo = ColoMachine::new(MachineParams::for_topology(&topo), 4);
        let (a, b) = (colo.add_lane(), colo.add_lane());
        colo.start_loop(a, all, &split(2), both_home_tasks(48, 2), 0.0);
        colo.start_loop(b, all, &ExecMode::Flat, both_home_tasks(40, 2), 700.0);
        // A plan installed mid-run re-prices every chunk in flight.
        assert!(colo.run_until_ns(20_000.0).is_none());
        let before = colo.event_counts();
        colo.set_fault_plan(plan);
        let running = colo.load.running as u64;
        while colo.run_until_next_completion().is_some() {}
        let counts = colo.event_counts();
        let since = counts.since(before);
        assert!(running > 0 && since.repriced_chunks >= running);
        assert!(counts.repriced_chunks <= counts.chunk_events, "{counts:?}");
        assert!(
            counts.repriced_chunks < counts.chunk_events,
            "nothing skipped: {counts:?}"
        );
    }

    #[test]
    fn lanes_wider_than_one_bitset_word_run_every_chunk() {
        // 96 workers per lane: the worker bitsets span two words.
        let topo = Topology::builder()
            .sockets(2)
            .nodes_per_socket(2)
            .cores_per_node(24)
            .cores_per_ccd(8)
            .build()
            .expect("valid topology");
        let all = topo.all_nodes();
        let mut colo = ColoMachine::new(MachineParams::for_topology(&topo), 2);
        let (a, b) = (colo.add_lane(), colo.add_lane());
        colo.start_loop(a, all, &split(4), both_home_tasks(400, 4), 0.0);
        colo.start_loop(b, all, &ExecMode::Flat, both_home_tasks(300, 4), 0.0);
        let mut executed = 0;
        while let Some((_, out)) = colo.run_until_next_completion() {
            assert_eq!(out.threads, 96);
            executed += out.tasks_executed();
        }
        assert_eq!(executed, 700);
    }

    #[test]
    fn deterministic_across_replays() {
        let topo = presets::tiny_2x4();
        let all = topo.all_nodes();
        let replay = |seed: u64| {
            let mut colo = ColoMachine::new(MachineParams::for_topology(&topo), seed);
            let a = colo.add_lane();
            let b = colo.add_lane();
            colo.start_loop(a, all, &ExecMode::Flat, both_home_tasks(40, 2), 0.0);
            colo.start_loop(b, all, &ExecMode::Flat, both_home_tasks(24, 2), 1_000.0);
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
