//! The worker/pool state machine of the fluid-rate machine.
//!
//! [`ColoMachine`](crate::ColoMachine) drives every loop through the pieces
//! kept here: per-node (or per-worker) task pools, pop/steal acquisition
//! with its modelled costs, and the Idle → Overhead → Running → Idle worker
//! lifecycle. The event loop decides *when* a worker acts; this module
//! decides *what* it does.

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
    #[allow(clippy::too_many_arguments)] // internal, one call per loop start
    pub(crate) fn build(
        plan: &PlacementPlan,
        num_tasks: usize,
        workers: &[Worker],
        node_worker_count: &[usize],
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
                        enqueue(&mut tracer, c, workers[wi].node, false);
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
                        a.tasks.is_empty() || node_worker_count[a.node.index()] > 0,
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
                        enqueue(&mut tracer, c, workers[i].node, false);
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

#[derive(Clone, Debug)]
pub(crate) enum WorkerState {
    /// Needs to acquire work at the current time.
    Idle,
    /// Performing a scheduling action (pop / steal), then starts `next`.
    Overhead { remaining_ns: f64, next: usize },
    /// Executing chunk `task`.
    Running {
        task: usize,
        /// Fraction of the chunk still to execute, in `[0, 1]`.
        remaining: f64,
        /// Progress per ns under the current machine state.
        rate: f64,
        /// Wall time spent on this chunk so far.
        elapsed_ns: f64,
    },
    /// No work is reachable for this worker; it spins in the scheduler's
    /// idle loop until the taskloop completes (that waiting is scheduler
    /// time — LLVM's baseline burns it in `__kmp_execute_tasks`).
    Parked {
        /// When the worker entered the idle loop.
        since: f64,
    },
}

pub(crate) struct Worker {
    pub(crate) core: CoreId,
    pub(crate) node: usize,
    pub(crate) state: WorkerState,
    /// The running chunk's fixed pricing inputs (valid while `state` is
    /// `Running`; the row buffer is reused from chunk to chunk).
    pub(crate) pricing: ChunkPricing,
    /// Machine time before which an injected stall keeps this worker out of
    /// the acquire loop (0 = healthy). Time still advances past a stalled
    /// worker — it just does not pop or steal until the stall expires.
    pub(crate) stall_until_ns: f64,
}

/// Builds one worker per active core, plus the per-node worker census.
pub(crate) fn make_workers(topo: &Topology, active: &CpuSet) -> (Vec<Worker>, Vec<usize>) {
    assert!(
        !active.is_empty(),
        "taskloop needs at least one active core"
    );
    let workers: Vec<Worker> = active
        .iter()
        .map(|core| {
            assert!(
                core.index() < topo.num_cores(),
                "active core {core} outside topology"
            );
            Worker {
                core,
                node: topo.node_of_core(core).index(),
                state: WorkerState::Idle,
                pricing: ChunkPricing::default(),
                stall_until_ns: 0.0,
            }
        })
        .collect();
    let mut node_worker_count = vec![0usize; topo.num_nodes()];
    for w in &workers {
        node_worker_count[w.node] += 1;
    }
    (workers, node_worker_count)
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
    workers: &mut [Worker],
    i: usize,
    now: f64,
    params: &MachineParams,
    node_worker_count: &[usize],
    rng_state: &mut u64,
    overhead_ns: &mut f64,
    migrations: &mut usize,
    mut tracer: Option<&mut Recorder>,
) -> bool {
    let node = workers[i].node;
    let me = workers[i].core.index() as u32;
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
                        let cross = workers[v].node != node;
                        if cross {
                            *migrations += batch.len();
                        }
                        for &c in &batch {
                            let kind = if cross {
                                EventKind::InterNodeSteal {
                                    chunk: c as u32,
                                    from: workers[v].node as u32,
                                }
                            } else {
                                EventKind::IntraNodeSteal {
                                    chunk: c as u32,
                                    victim: workers[v].core.index() as u32,
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
                let sharers = node_worker_count[node];
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
                        for (j, w) in workers.iter_mut().enumerate() {
                            if let WorkerState::Parked { since } = w.state {
                                if j != i && w.node == node {
                                    *overhead_ns += now - since;
                                    w.state = WorkerState::Idle;
                                    woke = true;
                                }
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

    match task {
        Some(t) => {
            *overhead_ns += cost;
            workers[i].state = WorkerState::Overhead {
                remaining_ns: cost,
                next: t,
            };
        }
        None => {
            *overhead_ns += cost;
            workers[i].state = WorkerState::Parked { since: now };
        }
    }
    woke
}

/// The Overhead → Running transition: fixes the chunk's pricing inputs for
/// the worker's node and its core's frequency factor `freq`.
pub(crate) fn begin_chunk(
    worker: &mut Worker,
    topo: &Topology,
    params: &MachineParams,
    task: usize,
    spec: &TaskSpec,
    freq: f64,
) {
    worker.pricing.fill(topo, params, spec, worker.node, freq);
    worker.state = WorkerState::Running {
        task,
        remaining: 1.0,
        rate: 0.0,
        elapsed_ns: 0.0,
    };
}
