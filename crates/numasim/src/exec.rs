//! The worker/pool state machine of the fluid-rate machine.
//!
//! [`ColoMachine`](crate::ColoMachine) drives every loop through the pieces
//! kept here: per-node (or per-worker) task pools, pop/steal acquisition
//! with its modelled costs, and the Idle → Overhead → Running → Idle worker
//! lifecycle. The event loop decides *when* a worker acts; this module
//! decides *what* it does.
//!
//! A loop's [`Workers`] are parallel arrays. The fields every event reads
//! or writes — phase tag, remaining work, rate, elapsed time, core share,
//! and the running chunks' pricing rows — are dense, so the event loop's
//! passes are plain loops over slices that the compiler vectorizes; the
//! rest (core, node, chunk index, park time, stall) stays per worker. Every
//! phase keeps `remaining / rate` equal to the time to the worker's next
//! event and `remaining - rate * dt` equal to its progress: a scheduling
//! action stores its nanoseconds left with rate 1.0 (`x / 1.0 == x`,
//! `x - 1.0 * dt == x - dt`), and an idle or parked worker stores +∞.
//! Sets of workers (idle, stale, finished) are bitsets, 64 workers a word.

use crate::params::MachineParams;
use crate::plan::PlacementPlan;
use crate::rates::ChunkPricing;
use crate::task::TaskSpec;
use ilan_topology::{CoreId, CpuSet, Topology};
use ilan_trace::{EventKind, Recorder, DISPATCHER};
use std::collections::VecDeque;

/// Numerical slack for "remaining work is zero" tests.
pub(crate) const EPS: f64 = 1e-9;

/// SplitMix64 — deterministic per-invocation randomness for the flat
/// baseline's block permutation and victim order.
pub(crate) fn splitmix64(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9E3779B97F4A7C15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58476D1CE4E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D049BB133111EB);
    z ^ (z >> 31)
}

/// One per-node task pool of a hierarchical plan.
pub(crate) struct NodePool {
    /// Chunk indices in execution order. Strict chunks are at the front.
    pub(crate) queue: VecDeque<usize>,
    /// How many chunks at the front of `queue` are NUMA-strict.
    pub(crate) strict_remaining: usize,
}

impl NodePool {
    pub(crate) fn stealable(&self) -> usize {
        self.queue.len().saturating_sub(self.strict_remaining)
    }

    pub(crate) fn pop(&mut self) -> Option<usize> {
        let t = self.queue.pop_front()?;
        self.strict_remaining = self.strict_remaining.saturating_sub(1);
        Some(t)
    }

    /// Removes up to half of the stealable tail (at least one), returning the
    /// stolen chunk indices in order.
    pub(crate) fn steal_batch(&mut self) -> Vec<usize> {
        let stealable = self.stealable();
        if stealable == 0 {
            return Vec::new();
        }
        let k = (stealable / 2).max(1);
        let split = self.queue.len() - k;
        self.queue.split_off(split).into()
    }
}

pub(crate) enum PoolSet {
    /// LLVM-default tasking: recursive taskloop splitting hands each worker
    /// a contiguous block of chunks at a pseudo-random position (placement is
    /// effectively random w.r.t. data homes), and idle workers steal half a
    /// victim's remaining deque, like `splittable` taskloop tasks.
    Flat(Vec<VecDeque<usize>>),
    Hier(Vec<NodePool>),
    Static(Vec<VecDeque<usize>>),
}

impl PoolSet {
    /// Materializes a plan into pools for the given worker set. When a
    /// `tracer` is supplied, one [`EventKind::ChunkEnqueue`] is recorded per
    /// chunk (home = the node whose pool — or whose worker's deque — receives
    /// it) at dispatch time `now_ns`.
    pub(crate) fn build(
        plan: &PlacementPlan,
        num_tasks: usize,
        workers: &Workers,
        num_nodes: usize,
        perm_seed: u64,
        mut tracer: Option<&mut Recorder>,
        now_ns: f64,
    ) -> PoolSet {
        plan.validate(num_tasks);
        let enqueue =
            |tracer: &mut Option<&mut Recorder>, chunk: usize, home: usize, strict: bool| {
                if let Some(tr) = tracer.as_deref_mut() {
                    tr.push(
                        DISPATCHER,
                        home as u32,
                        now_ns as u64,
                        EventKind::ChunkEnqueue {
                            chunk: chunk as u32,
                            home: home as u32,
                            strict,
                        },
                    );
                }
            };
        match plan {
            PlacementPlan::Flat => {
                // Contiguous blocks (taskloop splitting) assigned to workers
                // by a seeded permutation (random initial placement).
                let w = workers.len();
                let mut order: Vec<usize> = (0..w).collect();
                let mut st = perm_seed;
                for i in (1..w).rev() {
                    let j = (splitmix64(&mut st) as usize) % (i + 1);
                    order.swap(i, j);
                }
                let mut per_worker: Vec<VecDeque<usize>> =
                    (0..w).map(|_| VecDeque::new()).collect();
                for (slot, &wi) in order.iter().enumerate() {
                    let lo = slot * num_tasks / w;
                    let hi = (slot + 1) * num_tasks / w;
                    for c in lo..hi {
                        enqueue(&mut tracer, c, workers.info[wi].node, false);
                    }
                    per_worker[wi].extend(lo..hi);
                }
                PoolSet::Flat(per_worker)
            }
            PlacementPlan::Hierarchical { assignments } => {
                let mut per_node: Vec<NodePool> = (0..num_nodes)
                    .map(|_| NodePool {
                        queue: VecDeque::new(),
                        strict_remaining: 0,
                    })
                    .collect();
                for a in assignments {
                    let pool = &mut per_node[a.node.index()];
                    assert!(
                        a.tasks.is_empty() || workers.per_node[a.node.index()] > 0,
                        "plan assigns tasks to {} but no active core lives there",
                        a.node
                    );
                    for (j, &c) in a.tasks.iter().enumerate() {
                        enqueue(&mut tracer, c, a.node.index(), j < a.strict_count);
                    }
                    pool.queue.extend(a.tasks.iter().copied());
                    pool.strict_remaining += a.strict_count;
                }
                PoolSet::Hier(per_node)
            }
            PlacementPlan::Static => {
                let w = workers.len();
                let mut per_worker: Vec<VecDeque<usize>> =
                    (0..w).map(|_| VecDeque::new()).collect();
                for (i, q) in per_worker.iter_mut().enumerate() {
                    let lo = i * num_tasks / w;
                    let hi = (i + 1) * num_tasks / w;
                    for c in lo..hi {
                        enqueue(&mut tracer, c, workers.info[i].node, false);
                    }
                    q.extend(lo..hi);
                }
                PoolSet::Static(per_worker)
            }
        }
    }

    pub(crate) fn is_empty(&self) -> bool {
        match self {
            PoolSet::Flat(qs) => qs.iter().all(|q| q.is_empty()),
            PoolSet::Hier(ps) => ps.iter().all(|p| p.queue.is_empty()),
            PoolSet::Static(qs) => qs.iter().all(|q| q.is_empty()),
        }
    }

    /// Serial dispatch cost paid by the encountering thread before any
    /// worker starts. Work-sharing creates no task objects: each worker just
    /// computes its slice bounds.
    pub(crate) fn dispatch_ns(&self, params: &MachineParams, num_tasks: usize) -> f64 {
        match self {
            PoolSet::Static(qs) => params.static_chunk_ns * qs.len() as f64,
            _ => params.task_create_ns * num_tasks as f64,
        }
    }
}

/// What a worker is doing.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
#[repr(u8)]
pub(crate) enum Phase {
    /// Needs to acquire work at the current time.
    Idle,
    /// Performing a scheduling action (pop / steal), then starts its
    /// [`task`](WorkerInfo::task).
    Overhead,
    /// Executing its [`task`](WorkerInfo::task).
    Running,
    /// No work is reachable for this worker; it spins in the scheduler's
    /// idle loop until the taskloop completes (that waiting is scheduler
    /// time — LLVM's baseline burns it in `__kmp_execute_tasks`).
    Parked,
}

/// The per-worker fields no per-event pass reads densely.
pub(crate) struct WorkerInfo {
    pub(crate) core: CoreId,
    pub(crate) node: usize,
    /// The chunk an Overhead worker starts next, or a Running worker's chunk.
    pub(crate) task: usize,
    /// When a Parked worker entered the idle loop.
    pub(crate) parked_since: f64,
    /// Machine time before which an injected stall keeps this worker out of
    /// the acquire loop (0 = healthy). Time still advances past a stalled
    /// worker — it just does not pop or steal until the stall expires.
    pub(crate) stall_until_ns: f64,
}

/// One loop's workers, one per active core, as parallel arrays (see the
/// module docs).
pub(crate) struct Workers {
    pub(crate) phase: Vec<Phase>,
    /// Running: fraction of the chunk still to execute; Overhead: ns left
    /// in the scheduling action; Idle and Parked: +∞.
    pub(crate) remaining: Vec<f64>,
    /// Running: progress per ns under the current machine state; otherwise
    /// 1.0.
    pub(crate) rate: Vec<f64>,
    /// Wall time spent on the current chunk so far.
    pub(crate) elapsed_ns: Vec<f64>,
    /// The running chunks' fixed pricing inputs (zero rows for workers
    /// not running).
    pub(crate) pricing: ChunkPricing,
    /// Bitset of the workers (64 per word) whose running chunk must be
    /// re-priced at the next event whatever the field does: it just
    /// started, its core's occupancy moved, or a fault plan was installed.
    pub(crate) stale: Vec<u64>,
    /// Running chunks on the worker's core (across all lanes) when its
    /// chunk was last priced, at least 1.
    pub(crate) occupancy: Vec<f64>,
    /// `1 / occupancy`: the share of the core, and of its chunk's traffic,
    /// that the worker gets.
    pub(crate) share: Vec<f64>,
    pub(crate) info: Vec<WorkerInfo>,
    /// Workers per node.
    pub(crate) per_node: Vec<usize>,
    /// Bitset of the workers in [`Phase::Idle`] (64 per word).
    idle: Vec<u64>,
    /// Bitset of the workers whose action or chunk ended in the last
    /// [`progress`](Self::progress).
    pub(crate) done: Vec<u64>,
    /// Workers in [`Phase::Parked`].
    pub(crate) parked: usize,
}

impl Workers {
    /// One idle worker per active core.
    pub(crate) fn new(topo: &Topology, active: &CpuSet) -> Workers {
        assert!(
            !active.is_empty(),
            "taskloop needs at least one active core"
        );
        let info: Vec<WorkerInfo> = active
            .iter()
            .map(|core| {
                assert!(
                    core.index() < topo.num_cores(),
                    "active core {core} outside topology"
                );
                WorkerInfo {
                    core,
                    node: topo.node_of_core(core).index(),
                    task: 0,
                    parked_since: 0.0,
                    stall_until_ns: 0.0,
                }
            })
            .collect();
        let n = info.len();
        let mut per_node = vec![0usize; topo.num_nodes()];
        for w in &info {
            per_node[w.node] += 1;
        }
        Workers {
            phase: vec![Phase::Idle; n],
            remaining: vec![f64::INFINITY; n],
            rate: vec![1.0; n],
            elapsed_ns: vec![0.0; n],
            pricing: ChunkPricing::new(topo, info.iter().map(|w| w.node)),
            stale: vec![0; n.div_ceil(64)],
            done: vec![0; n.div_ceil(64)],
            occupancy: vec![1.0; n],
            share: vec![1.0; n],
            info,
            per_node,
            idle: (0..n.div_ceil(64))
                .map(|b| u64::MAX >> (64 * (b + 1)).saturating_sub(n))
                .collect(),
            parked: 0,
        }
    }

    pub(crate) fn len(&self) -> usize {
        self.info.len()
    }

    /// Time to the earliest worker event: a scheduling action ending or a
    /// chunk completing (+∞ if every worker is idle or parked).
    pub(crate) fn next_event(&self) -> f64 {
        // Every candidate is non-NaN and >= +0.0, so `min` is exact in any
        // order and four accumulators may split the reduction.
        let mut acc = [f64::INFINITY; 4];
        let rem = self.remaining.chunks_exact(4);
        let rate = self.rate.chunks_exact(4);
        let (rem_tail, rate_tail) = (rem.remainder(), rate.remainder());
        for (r, q) in rem.zip(rate) {
            for k in 0..4 {
                let t = r[k] / q[k];
                debug_assert!(t >= 0.0 && t.is_sign_positive(), "event time {t}");
                acc[k] = acc[k].min(t);
            }
        }
        for (r, q) in rem_tail.iter().zip(rate_tail) {
            let t = r / q;
            debug_assert!(t >= 0.0 && t.is_sign_positive(), "event time {t}");
            acc[0] = acc[0].min(t);
        }
        acc[0].min(acc[1]).min(acc[2].min(acc[3]))
    }

    /// Advances every worker by `dt`, and sets [`done`](Self::done) to the
    /// workers whose `remaining` fell to [`EPS`]: their scheduling action
    /// or chunk just ended, and the caller completes them.
    pub(crate) fn progress(&mut self, dt: f64) {
        for e in &mut self.elapsed_ns {
            *e += dt;
        }
        let blocks = self.remaining.chunks_mut(64).zip(self.rate.chunks(64));
        for ((remaining, rate), done) in blocks.zip(&mut self.done) {
            *done = 0;
            for (j, (r, &q)) in remaining.iter_mut().zip(rate).enumerate() {
                *r -= q * dt;
                if *r <= EPS {
                    *done |= 1 << j;
                }
            }
        }
    }

    /// 64-worker blocks of the worker bitsets.
    pub(crate) fn blocks(&self) -> usize {
        self.stale.len()
    }

    /// Whether any worker is idle.
    pub(crate) fn any_idle(&self) -> bool {
        self.idle.iter().any(|&word| word != 0)
    }

    /// The first idle worker at index `from` or above.
    pub(crate) fn next_idle(&self, from: usize) -> Option<usize> {
        let mut block = from / 64;
        let mut word = *self.idle.get(block)? & (u64::MAX << (from % 64));
        loop {
            if word != 0 {
                return Some(64 * block + word.trailing_zeros() as usize);
            }
            block += 1;
            word = *self.idle.get(block)?;
        }
    }

    fn set_idle(&mut self, i: usize, idle: bool) {
        let bit = 1 << (i % 64);
        if idle {
            self.idle[i / 64] |= bit;
        } else {
            self.idle[i / 64] &= !bit;
        }
    }

    /// Idle worker `i` starts a scheduling action of `cost_ns` that ends by
    /// starting chunk `task`.
    fn start_action(&mut self, i: usize, cost_ns: f64, task: usize) {
        debug_assert_eq!(self.phase[i], Phase::Idle);
        self.phase[i] = Phase::Overhead;
        self.remaining[i] = cost_ns;
        self.rate[i] = 1.0;
        self.info[i].task = task;
        self.set_idle(i, false);
    }

    /// Idle worker `i` enters the idle loop at `now`.
    fn park(&mut self, i: usize, now: f64) {
        debug_assert_eq!(self.phase[i], Phase::Idle);
        self.phase[i] = Phase::Parked;
        self.info[i].parked_since = now;
        self.set_idle(i, false);
        self.parked += 1;
    }

    /// Parked worker `i` leaves the idle loop: new work exists.
    fn wake(&mut self, i: usize) {
        debug_assert_eq!(self.phase[i], Phase::Parked);
        self.phase[i] = Phase::Idle;
        self.parked -= 1;
        self.set_idle(i, true);
    }

    /// The Overhead → Running transition: fixes the chunk's pricing inputs
    /// for the worker's node, its core's frequency factor `freq` and its
    /// core's `occupancy`. The chunk is priced at the next event.
    pub(crate) fn begin_chunk(
        &mut self,
        i: usize,
        params: &MachineParams,
        spec: &TaskSpec,
        freq: f64,
        occupancy: f64,
    ) {
        debug_assert_eq!(self.phase[i], Phase::Overhead);
        self.pricing.fill(i, params, spec, self.info[i].node, freq);
        self.phase[i] = Phase::Running;
        self.remaining[i] = 1.0;
        self.rate[i] = 0.0;
        self.elapsed_ns[i] = 0.0;
        self.mark_stale(i);
        self.occupancy[i] = occupancy;
        self.share[i] = 1.0 / occupancy;
    }

    /// Refreshes the running chunks' occupancy and share from their core's
    /// `occupancy`, marking those that moved stale.
    pub(crate) fn refresh_occupancy(&mut self, occupancy: impl Fn(CoreId) -> f64) {
        for i in 0..self.len() {
            if self.phase[i] != Phase::Running {
                continue;
            }
            let occupancy = occupancy(self.info[i].core);
            if occupancy != self.occupancy[i] {
                self.occupancy[i] = occupancy;
                self.share[i] = 1.0 / occupancy;
                self.mark_stale(i);
                self.pricing.rescaled(i);
            }
        }
    }

    /// Worker `i`'s running chunk must be re-priced at the next event.
    pub(crate) fn mark_stale(&mut self, i: usize) {
        self.stale[i / 64] |= 1 << (i % 64);
    }

    /// The Running → Idle transition: the worker's demand leaves the field.
    pub(crate) fn end_chunk(&mut self, i: usize) {
        debug_assert_eq!(self.phase[i], Phase::Running);
        self.pricing.clear(i);
        self.stale[i / 64] &= !(1 << (i % 64));
        self.phase[i] = Phase::Idle;
        self.remaining[i] = f64::INFINITY;
        self.rate[i] = 1.0;
        self.set_idle(i, true);
    }
}

/// Worker `i` (currently Idle) tries to acquire a chunk: the pop/steal state
/// machine. Mutates the worker's state (to Overhead or Parked), accumulates
/// scheduling overhead and migrations, and — on a hierarchical batch steal —
/// wakes parked peers on the thief's node. Returns whether it woke any: a
/// woken peer is Idle again and must seek in turn.
///
/// With a `tracer`, every acquisition is recorded: pops as
/// [`EventKind::LocalPop`], batch transfers element-wise as
/// [`EventKind::InterNodeSteal`] (cross-node, matching the machine's
/// at-steal-time migration accounting) or [`EventKind::IntraNodeSteal`].
#[allow(clippy::too_many_arguments)] // internal hot path
pub(crate) fn seek(
    pools: &mut PoolSet,
    workers: &mut Workers,
    i: usize,
    now: f64,
    params: &MachineParams,
    rng_state: &mut u64,
    overhead_ns: &mut f64,
    migrations: &mut usize,
    mut tracer: Option<&mut Recorder>,
) -> bool {
    let node = workers.info[i].node;
    let me = workers.info[i].core.index() as u32;
    let my_node = node as u32;
    let record = |tracer: &mut Option<&mut Recorder>, kind: EventKind| {
        if let Some(tr) = tracer.as_deref_mut() {
            tr.push(me, my_node, now as u64, kind);
        }
    };
    let mut woke = false;
    let (task, cost) = match pools {
        PoolSet::Flat(qs) => {
            if let Some(t) = qs[i].pop_front() {
                record(&mut tracer, EventKind::LocalPop { chunk: t as u32 });
                (Some(t), params.pop_cost_ns)
            } else {
                // Steal half of a pseudo-random victim's deque —
                // NUMA-oblivious, like the default LLVM scheduler.
                let w = qs.len();
                let start = (splitmix64(rng_state) as usize) % w;
                let victim = (0..w)
                    .map(|k| (start + k) % w)
                    .find(|&v| v != i && !qs[v].is_empty());
                match victim {
                    Some(v) => {
                        let keep = qs[v].len() / 2;
                        let batch = qs[v].split_off(keep);
                        let victim = &workers.info[v];
                        let cross = victim.node != node;
                        if cross {
                            *migrations += batch.len();
                        }
                        for &c in &batch {
                            let kind = if cross {
                                EventKind::InterNodeSteal {
                                    chunk: c as u32,
                                    from: victim.node as u32,
                                }
                            } else {
                                EventKind::IntraNodeSteal {
                                    chunk: c as u32,
                                    victim: victim.core.index() as u32,
                                }
                            };
                            record(&mut tracer, kind);
                        }
                        qs[i] = batch;
                        let t = qs[i].pop_front().expect("stolen batch non-empty");
                        let cost = if cross {
                            params.remote_steal_cost_ns
                        } else {
                            params.pop_cost_ns + params.pop_contention_ns
                        };
                        (Some(t), cost)
                    }
                    None => (None, params.failed_steal_cost_ns),
                }
            }
        }
        PoolSet::Hier(pools) => {
            if let Some(t) = pools[node].pop() {
                record(&mut tracer, EventKind::LocalPop { chunk: t as u32 });
                let sharers = workers.per_node[node];
                (
                    Some(t),
                    params.pop_cost_ns
                        + params.pop_contention_ns * sharers.saturating_sub(1) as f64,
                )
            } else {
                // Own node exhausted: the node is "fully idle" in the
                // paper's sense, so inter-node stealing of the stealable
                // tail is permitted. Victim: most stealable work, ties to
                // the lowest node id.
                let victim = (0..pools.len())
                    .filter(|&n| n != node && pools[n].stealable() > 0)
                    .max_by_key(|&n| (pools[n].stealable(), usize::MAX - n));
                match victim {
                    Some(v) => {
                        let batch = pools[v].steal_batch();
                        *migrations += batch.len();
                        for &c in &batch {
                            record(
                                &mut tracer,
                                EventKind::InterNodeSteal {
                                    chunk: c as u32,
                                    from: v as u32,
                                },
                            );
                        }
                        let pool = &mut pools[node];
                        // Stolen chunks arrive unstrict: they may move on.
                        pool.queue.extend(batch);
                        let t = pool.pop().expect("batch steal is non-empty");
                        // Wake parked peers on this node: new work exists.
                        for j in 0..workers.len() {
                            let peer = &workers.info[j];
                            if workers.phase[j] == Phase::Parked && j != i && peer.node == node {
                                *overhead_ns += now - peer.parked_since;
                                workers.wake(j);
                                woke = true;
                            }
                        }
                        (Some(t), params.remote_steal_cost_ns + params.pop_cost_ns)
                    }
                    None => (None, params.failed_steal_cost_ns),
                }
            }
        }
        PoolSet::Static(qs) => match qs[i].pop_front() {
            Some(t) => {
                record(&mut tracer, EventKind::LocalPop { chunk: t as u32 });
                (Some(t), params.static_chunk_ns)
            }
            None => (None, 0.0),
        },
    };

    *overhead_ns += cost;
    match task {
        Some(t) => workers.start_action(i, cost, t),
        None => workers.park(i, now),
    }
    woke
}
