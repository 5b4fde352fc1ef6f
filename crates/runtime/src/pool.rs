//! The worker pool and taskloop execution engine.
//!
//! # Hot-path architecture
//!
//! The pool executes one taskloop at a time. All per-invocation state lives
//! in a persistent **dispatch arena** owned by the pool ([`RunData`] inside
//! [`Shared`]): the chunk table, the per-node injector set, the active-worker
//! flags and the completion latch are allocated once and reused, so a warm
//! invocation performs no heap allocation on the dispatch path.
//!
//! Workers sleep on private [`SleepSlot`]s (an eventcount each) instead of a
//! global mutex/condvar. The dispatcher publishes a fresh epoch token into
//! exactly the slots of the workers a loop activates, so a taskloop confined
//! to a 2-node mask never wakes the other nodes' workers at all. The token
//! encodes participation in its low bit — a worker woken without it (only
//! possible under [`WakeMode::Broadcast`]) goes straight back to sleep
//! without ever dereferencing the arena.
//!
//! # The caller works
//!
//! As in OpenMP, the thread that reaches a taskloop is the primary thread of
//! the team it launches. The dispatcher holds the slot of the primary core
//! of the placement mask's first node (worker 0 under [`ExecMode::Flat`]
//! and [`ExecMode::WorkSharing`]), posts wakeups to the other N−1 members
//! only, and then runs the same `work` loop as a worker — its static slice,
//! or pops and steals as the policy allows — out of a private deque the
//! pool keeps for it. The slot's own worker thread sits out the invocation,
//! so the slot's trace ring keeps a single producer. The dispatcher is
//! accounted on its slot's node (its chunks count as local there), and
//! where the slot's worker is pinned it binds itself to the slot's core,
//! as an OpenMP primary thread is bound to its place; the binding outlives
//! the loop, so only a change of slot costs a system call. A decision that
//! resolves to one worker on one node is sequential: like OpenMP's
//! `num_threads(1)`, it runs inline on the calling thread with no wakeup at
//! all.
//!
//! Synchronisation protocol (the safety story for the `UnsafeCell` arena):
//!
//! 1. the dispatcher, holding the dispatch lock, mutates [`RunData`] while no
//!    worker is active (the previous invocation's exit latch has released);
//! 2. it then posts epoch tokens — the `SeqCst` epoch store in
//!    [`SleepSlot::post`] publishes every arena write to the workers' acquire
//!    loads in [`SleepSlot::wait`];
//! 3. a participating worker reads the arena only between receiving its
//!    token and decrementing the exit latch; the dispatcher, working its own
//!    slot, holds `&RunData` from publication until its own latch
//!    decrement, and keeps it while it waits for the others;
//! 4. the dispatcher blocks on the exit latch before touching the arena
//!    again (the latch decrement/`wait` pair is the closing AcqRel edge, so
//!    workers may flush their statistics with relaxed stores).

use crate::chunk::{ChunkAssignment, Grain};
use crate::latch::CountLatch;
use crate::metrics::PoolMetrics;
use crate::pin::{bind_caller, pin_current_thread, PinMode};
use crate::report::{LoopReport, NodeReport};
use crate::sleep::sys::AtomicU64 as ClaimWord;
use crate::sleep::{Backoff, SleepSlot};
use crossbeam_deque::{Injector, Steal, Stealer, Worker as Deque};
use crossbeam_utils::CachePadded;
use ilan_faults::FaultPlan;
use ilan_metrics::{FlightDump, FlightReason, ShardedCounter};
use ilan_topology::{NodeId, NodeMask, Topology};
use ilan_trace::{EventKind, EventLog, FaultTag, TraceSet, DISPATCHER};
use parking_lot::Mutex;
use std::cell::UnsafeCell;
use std::ops::Range;
use std::panic::AssertUnwindSafe;
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Inter-node steal policy of a hierarchical taskloop (paper §3.1).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum StealPolicy {
    /// Work-stealing confined to the chunk's assigned NUMA node.
    Strict,
    /// The stealable tail of each node's chunks may migrate to another node
    /// once that node has exhausted its own queues.
    Full,
}

/// How one taskloop invocation is executed.
#[derive(Clone, Debug)]
pub enum ExecMode {
    /// LLVM-default tasking baseline: one shared queue, every worker takes
    /// any chunk. Uses all workers.
    Flat,
    /// OpenMP `for schedule(static)` work-sharing: fixed contiguous slices,
    /// no queues, no stealing. Uses all workers.
    WorkSharing,
    /// ILAN hierarchical distribution: chunks pre-assigned to the nodes of
    /// `mask`, an initial fraction NUMA-strict, optional inter-node stealing
    /// of the tail.
    Hierarchical {
        /// Nodes eligible to execute the loop.
        mask: NodeMask,
        /// Total active threads, distributed evenly over the mask's nodes
        /// (each node activates its lowest cores first). Clamped to the
        /// cores available in the mask; 0 means "all cores of the mask".
        threads: usize,
        /// Fraction of each node's chunks that are NUMA-strict under
        /// [`StealPolicy::Full`]; ignored under `Strict` (everything is
        /// strict then).
        strict_fraction: f64,
        /// Whether the stealable tail may migrate across nodes.
        policy: StealPolicy,
    },
}

/// How the dispatcher wakes workers for a new invocation.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub enum WakeMode {
    /// Post the new epoch only to the workers the invocation activates;
    /// everyone else sleeps through it. The default.
    #[default]
    Targeted,
    /// Post to every worker, participating or not (the non-participants wake
    /// only to go back to sleep). This reproduces the wakeup cost of the old
    /// global-condvar broadcast and exists as an in-tree baseline for the
    /// overhead benchmarks; it is never faster than `Targeted`.
    Broadcast,
}

/// Loops of at most this many iterations (or resolving to a single chunk,
/// or to a team of one worker on one node) run inline on the calling thread
/// by default: below this size the fixed dispatch cost — wakeups, queue
/// traffic, the implicit barrier — dwarfs any parallel speedup. Tune per
/// pool with [`PoolConfig::inline_threshold`].
pub const DEFAULT_INLINE_THRESHOLD: usize = 32;

/// Watchdog deadline armed automatically when a fault plan is installed
/// without an explicit [`PoolConfig::watchdog`] — long enough that a healthy
/// invocation (or one with only the plan's bounded temporary stalls) never
/// trips it, short enough that chaos tests stay fast.
pub const DEFAULT_WATCHDOG: Duration = Duration::from_millis(25);

/// Per-worker participation claims (armed watchdog only): the low two bits
/// hold the state, the rest the invocation epoch. The epoch tag is what
/// makes the protocol safe against late wakers — a worker that slept through
/// its whole invocation finds the claim word re-tagged for a newer epoch and
/// its compare-exchange fails, so it can never wander into an arena that is
/// being rewritten.
const CLAIM_OPEN: u64 = 0;
const CLAIM_WORKER: u64 = 1;
const CLAIM_DISPATCHER: u64 = 2;

#[inline]
fn claim_word(epoch: u64, state: u64) -> u64 {
    (epoch << 2) | state
}

/// Claims a slot's participation for `epoch` on behalf of `who`
/// (`CLAIM_WORKER` for the slot's worker thread or the dispatcher working
/// the slot, `CLAIM_DISPATCHER` for a stage-2 drain). At most one claimant
/// per epoch wins; the winner owns the slot's latch decrement.
#[inline]
fn claim(word: &ClaimWord, epoch: u64, who: u64) -> bool {
    word.compare_exchange(
        claim_word(epoch, CLAIM_OPEN),
        claim_word(epoch, who),
        Ordering::AcqRel,
        Ordering::Acquire,
    )
    .is_ok()
}

/// Pool construction parameters.
#[derive(Clone, Debug)]
pub struct PoolConfig {
    /// Machine model: one worker is spawned per topology core.
    pub topology: Topology,
    /// Pinning behaviour.
    pub pin: PinMode,
    /// Wakeup strategy for new invocations.
    pub wake: WakeMode,
    /// Loops with at most this many iterations execute inline on the caller
    /// (see [`DEFAULT_INLINE_THRESHOLD`]). Set to 0 to dispatch everything
    /// except single-chunk loops and teams of one.
    pub inline_threshold: usize,
    /// Watchdog deadline per invocation: when the exit latch has not
    /// released and no chunk has completed for this long, the dispatcher
    /// escalates — first re-broadcasting wakeups, then claiming
    /// never-started workers and draining their chunks itself. `None`
    /// disarms the watchdog unless [`faults`](Self::faults) is set (a fault
    /// plan with dropped wakeups or permanent stalls *requires* one, so it
    /// auto-arms [`DEFAULT_WATCHDOG`]).
    pub watchdog: Option<Duration>,
    /// Deterministic fault plan for chaos testing (see `ilan-faults`).
    pub faults: Option<FaultPlan>,
    /// Whether the pool carries its always-on instrument panel
    /// ([`PoolMetrics`]): counters, histograms and the flight recorder.
    /// Default `true`; disabling exists for the overhead benchmark's
    /// metrics-off baseline.
    pub metrics: bool,
    /// Whether the flight recorder keeps the per-worker trace rings filled
    /// on untraced dispatched invocations, so an anomaly can dump the
    /// complete invocation retrospectively. Default `true`; requires
    /// [`metrics`](Self::metrics). Ring writes are the only cost until an
    /// anomaly actually fires.
    pub flight: bool,
}

impl PoolConfig {
    /// Configuration with default (auto) pinning, targeted wakeups and the
    /// default inline threshold.
    pub fn new(topology: Topology) -> Self {
        PoolConfig {
            topology,
            pin: PinMode::Auto,
            wake: WakeMode::default(),
            inline_threshold: DEFAULT_INLINE_THRESHOLD,
            watchdog: None,
            faults: None,
            metrics: true,
            flight: true,
        }
    }

    /// Sets the pinning mode.
    pub fn pin(mut self, pin: PinMode) -> Self {
        self.pin = pin;
        self
    }

    /// Sets the wakeup strategy.
    pub fn wake(mut self, wake: WakeMode) -> Self {
        self.wake = wake;
        self
    }

    /// Sets the sequential-inline threshold.
    pub fn inline_threshold(mut self, iters: usize) -> Self {
        self.inline_threshold = iters;
        self
    }

    /// Arms the watchdog with an explicit escalation deadline.
    pub fn watchdog(mut self, deadline: Duration) -> Self {
        self.watchdog = Some(deadline);
        self
    }

    /// Installs a deterministic fault plan (arming the watchdog with
    /// [`DEFAULT_WATCHDOG`] if no explicit deadline was set).
    pub fn faults(mut self, plan: FaultPlan) -> Self {
        self.faults = Some(plan);
        self
    }

    /// Enables or disables the instrument panel (default on). Disabling
    /// also disables the flight recorder.
    pub fn metrics(mut self, on: bool) -> Self {
        self.metrics = on;
        self
    }

    /// Enables or disables the flight recorder's always-on rings
    /// (default on).
    pub fn flight(mut self, on: bool) -> Self {
        self.flight = on;
        self
    }
}

/// Errors from pool construction.
#[derive(Debug)]
pub enum PoolError {
    /// [`PinMode::Require`] was set and some worker could not be pinned.
    PinFailed {
        /// Index of the first core that could not be pinned.
        core: usize,
    },
}

impl std::fmt::Display for PoolError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            PoolError::PinFailed { core } => {
                write!(f, "required pinning failed for core {core}")
            }
        }
    }
}

impl std::error::Error for PoolError {}

/// Erased pointer to the loop body closure.
///
/// Validity: the dispatching call does not return until every active worker
/// has left the loop (worker-exit latch), so the pointee outlives all
/// dereferences. Between invocations the arena parks a pointer to a static
/// no-op so it never dangles into a returned stack frame.
struct BodyPtr(*const (dyn Fn(Range<usize>) + Sync));
// SAFETY: the pointee is `Sync` and only shared for the duration of the
// dispatch call, which outlives all uses (see struct docs).
unsafe impl Send for BodyPtr {}
unsafe impl Sync for BodyPtr {}

fn noop_body(_: Range<usize>) {}

impl BodyPtr {
    fn noop() -> BodyPtr {
        static NOOP: fn(Range<usize>) = noop_body;
        BodyPtr(&NOOP as &(dyn Fn(Range<usize>) + Sync) as *const _)
    }
}

/// One chunk of a taskloop.
struct Chunk {
    range: Range<usize>,
    /// The node this chunk is assigned to (its data home under blocked
    /// first-touch initialisation; the mask assignment in hierarchical
    /// mode — matching the paper's definition of a migration).
    home: NodeId,
}

/// Which acquisition discipline the current invocation uses. The queues
/// themselves are persistent ([`QueueSet`]); this only selects among them.
#[derive(Clone, Copy)]
enum QueueKind {
    Flat,
    Hier { policy: StealPolicy },
    Static,
}

/// The pool's persistent injector set, reused by every invocation. Queues
/// are fully drained by the invocation that filled them (exactly-once
/// execution), so reuse needs no cleanup — a debug assertion checks.
struct QueueSet {
    flat: Injector<usize>,
    /// Per-node queue of NUMA-strict chunk indices.
    strict: Vec<Injector<usize>>,
    /// Per-node queue of chunks stealable across nodes.
    shared: Vec<Injector<usize>>,
}

impl QueueSet {
    fn new(num_nodes: usize) -> Self {
        QueueSet {
            flat: Injector::new(),
            strict: (0..num_nodes).map(|_| Injector::new()).collect(),
            shared: (0..num_nodes).map(|_| Injector::new()).collect(),
        }
    }

    #[cfg(debug_assertions)]
    fn is_empty(&self) -> bool {
        self.flat.is_empty()
            && self.strict.iter().all(Injector::is_empty)
            && self.shared.iter().all(Injector::is_empty)
    }
}

/// Per-node statistic counters. Each instance is wrapped in `CachePadded`
/// inside [`Shared::node_stats`] so two nodes' counters never share a cache
/// line (workers of different nodes would otherwise false-share on flush).
struct NodeAtomics {
    tasks: AtomicUsize,
    local_tasks: AtomicUsize,
    busy_ns: AtomicU64,
}

impl NodeAtomics {
    fn new() -> Self {
        NodeAtomics {
            tasks: AtomicUsize::new(0),
            local_tasks: AtomicUsize::new(0),
            busy_ns: AtomicU64::new(0),
        }
    }

    fn reset(&self) {
        self.tasks.store(0, Ordering::Relaxed);
        self.local_tasks.store(0, Ordering::Relaxed);
        self.busy_ns.store(0, Ordering::Relaxed);
    }
}

/// The dispatch arena: all mutable per-invocation state, reused across the
/// pool's lifetime. Mutated only by the dispatcher between invocations (see
/// the module-level protocol); read by participating workers during one.
struct RunData {
    body: BodyPtr,
    kind: QueueKind,
    chunks: Vec<Chunk>,
    /// Which workers participate in this invocation. Only the dispatcher
    /// reads this (to decide whom to wake); workers learn of participation
    /// from their epoch token's low bit.
    active: Vec<bool>,
    /// Per-worker contiguous chunk-index slices (work-sharing mode only).
    static_slices: Vec<Range<usize>>,
    threads: usize,
    /// The slot the dispatcher works this invocation; `None` when a fault
    /// planned on that slot leaves it to its worker thread.
    caller: Option<usize>,
    /// Per-worker event rings; `None` outside traced invocations.
    trace: Option<TraceSet>,
    /// Rings kept from the previous traced invocation, reused when large
    /// enough so back-to-back traced loops do not reallocate.
    trace_cache: Option<TraceSet>,
    /// Trace epoch: event timestamps are nanoseconds since this instant.
    t0: Instant,
}

impl RunData {
    /// Records a worker event when tracing is on; a single predictable
    /// branch otherwise.
    #[inline]
    fn emit(&self, worker: usize, node: NodeId, kind: EventKind) {
        self.emit_at(worker, node, Instant::now(), kind);
    }

    /// Like [`emit`](Self::emit), but stamped with an [`Instant`] the caller
    /// already holds — the hot path reuses the clock reads it takes anyway
    /// (chunk timing, acquisition overhead) instead of paying one more per
    /// event.
    #[inline]
    fn emit_at(&self, worker: usize, node: NodeId, at: Instant, kind: EventKind) {
        if let Some(trace) = &self.trace {
            trace.ring(worker).push(
                worker as u32,
                node.index() as u32,
                at.duration_since(self.t0).as_nanos() as u64,
                kind,
            );
        }
    }
}

struct Shared {
    topology: Topology,
    shutdown: AtomicBool,
    /// Monotone invocation counter; `(epoch << 1) | participate` is the
    /// token posted into sleep slots.
    epoch: AtomicU64,
    /// One sleep slot per worker (each internally cache-padded).
    slots: Vec<SleepSlot>,
    /// Stealer handles onto every worker's private deque, indexed by worker
    /// (== core) id. Intra-node peers steal through these; remote steals go
    /// through the shared injectors only, so NUMA-strict chunks never leave
    /// their node once they reach a private deque.
    stealers: Vec<Stealer<usize>>,
    /// Stealer onto the dispatcher's private deque, which stands in for
    /// the deque of the slot it works (see [`Shared::stealer`]).
    caller_stealer: Stealer<usize>,
    /// Per node, the other nodes nearest-first: the remote-steal sweep
    /// order, computed once so an idle sweep allocates nothing.
    remote_order: Vec<Vec<NodeId>>,
    queues: QueueSet,
    /// The dispatch arena (see module docs for the access protocol).
    run: UnsafeCell<RunData>,
    /// Per-node counters, one cache line each.
    node_stats: Vec<CachePadded<NodeAtomics>>,
    migrations: CachePadded<AtomicUsize>,
    overhead_ns: CachePadded<AtomicU64>,
    /// Released when every active worker has left the loop; reset by the
    /// dispatcher between invocations.
    exit_latch: CountLatch,
    panic: Mutex<Option<Box<dyn std::any::Any + Send>>>,
    /// Armed watchdog deadline; `None` disables all claim bookkeeping.
    watchdog: Option<Duration>,
    /// Installed fault plan, consulted on the dispatch and worker paths.
    faults: Option<FaultPlan>,
    /// Chunks completed in the current invocation; the watchdog re-arms its
    /// deadline while this is still advancing.
    progress: CachePadded<AtomicU64>,
    /// Per-worker participation claims, `claim_word(epoch, state)` (see the
    /// CLAIM_* constants). Only meaningful while the watchdog is armed.
    claims: Vec<ClaimWord>,
    /// The instrument panel; `None` only when `PoolConfig::metrics(false)`.
    metrics: Option<PoolMetrics>,
    /// Whether untraced dispatched invocations keep the trace rings filled
    /// for the flight recorder.
    flight: bool,
}

// SAFETY: the `UnsafeCell<RunData>` is governed by the epoch/latch protocol
// documented at module level — the dispatcher only takes `&mut` while no
// other thread holds `&` (before posting tokens / after the exit latch
// releases), and workers only take `&` inside their participation window.
// Every other field is inherently Sync.
unsafe impl Sync for Shared {}

impl Shared {
    /// The stealer onto slot `v`'s private deque: the dispatcher's own while
    /// it works that slot (the slot's worker thread, sitting out, holds
    /// nothing).
    #[inline]
    fn stealer(&self, run: &RunData, v: usize) -> &Stealer<usize> {
        if run.caller == Some(v) {
            &self.caller_stealer
        } else {
            &self.stealers[v]
        }
    }
}

/// A pool of worker threads, one per topology core.
///
/// The pool executes one taskloop at a time (taskloops end with an implicit
/// barrier in the paper's execution model); concurrent [`taskloop`] calls
/// from different threads serialize on an internal lock.
///
/// [`taskloop`]: ThreadPool::taskloop
pub struct ThreadPool {
    shared: Arc<Shared>,
    handles: Vec<std::thread::JoinHandle<()>>,
    /// Serializes invocations and holds the dispatcher's private deque,
    /// which it works out of as its slot's member of the team.
    dispatch_lock: Mutex<Deque<usize>>,
    /// Per core, whether its worker thread was pinned to it; the caller
    /// binds itself to its slot's core only where the worker could be.
    pinned: Vec<bool>,
    wake: WakeMode,
    inline_threshold: usize,
}

impl ThreadPool {
    /// Spawns one worker per topology core.
    pub fn new(config: PoolConfig) -> Result<Self, PoolError> {
        let cores = config.topology.num_cores();
        let num_nodes = config.topology.num_nodes();
        // One private deque per worker; the Worker end moves into its
        // thread, the Stealer ends are shared.
        let mut deques: Vec<Deque<usize>> = (0..cores).map(|_| Deque::new_fifo()).collect();
        let stealers: Vec<Stealer<usize>> = deques.iter().map(|d| d.stealer()).collect();
        let caller_deque: Deque<usize> = Deque::new_fifo();
        let shared = Arc::new(Shared {
            topology: config.topology.clone(),
            shutdown: AtomicBool::new(false),
            epoch: AtomicU64::new(0),
            slots: (0..cores).map(|_| SleepSlot::new()).collect(),
            stealers,
            caller_stealer: caller_deque.stealer(),
            remote_order: (0..num_nodes)
                .map(|n| {
                    config
                        .topology
                        .distances()
                        .neighbors_by_distance(NodeId::new(n))
                })
                .collect(),
            queues: QueueSet::new(num_nodes),
            run: UnsafeCell::new(RunData {
                body: BodyPtr::noop(),
                kind: QueueKind::Flat,
                chunks: Vec::new(),
                active: Vec::new(),
                static_slices: Vec::new(),
                threads: 0,
                caller: None,
                trace: None,
                trace_cache: None,
                t0: Instant::now(),
            }),
            node_stats: (0..num_nodes)
                .map(|_| CachePadded::new(NodeAtomics::new()))
                .collect(),
            migrations: CachePadded::new(AtomicUsize::new(0)),
            overhead_ns: CachePadded::new(AtomicU64::new(0)),
            exit_latch: CountLatch::new(0),
            panic: Mutex::new(None),
            // A fault plan without an explicit deadline auto-arms the
            // default watchdog: dropped wakeups and permanent stalls are
            // unrecoverable without one.
            watchdog: config
                .watchdog
                .or_else(|| config.faults.is_some().then_some(DEFAULT_WATCHDOG)),
            faults: config.faults.clone(),
            progress: CachePadded::new(AtomicU64::new(0)),
            claims: (0..cores).map(|_| ClaimWord::new(0)).collect(),
            metrics: config.metrics.then(|| PoolMetrics::new(cores)),
            flight: config.metrics && config.flight,
        });

        let pin_results: Arc<Vec<AtomicBool>> =
            Arc::new((0..cores).map(|_| AtomicBool::new(false)).collect());
        let ready = Arc::new(CountLatch::new(cores));

        let mut handles = Vec::with_capacity(cores);
        for (i, deque) in deques.drain(..).enumerate() {
            let shared = Arc::clone(&shared);
            let pin_results = Arc::clone(&pin_results);
            let ready = Arc::clone(&ready);
            let pin_mode = config.pin;
            let handle = std::thread::Builder::new()
                .name(format!("ilan-worker-{i}"))
                .spawn(move || {
                    if pin_mode != PinMode::Never {
                        let ok = pin_current_thread(ilan_topology::CoreId::new(i));
                        pin_results[i].store(ok, Ordering::Release);
                    }
                    // Register the thread handle before signalling ready: the
                    // ready latch orders it against the first post().
                    shared.slots[i].register(crate::sleep::thread_current());
                    ready.count_down();
                    worker_main(&shared, i, &deque);
                })
                .expect("failed to spawn worker thread");
            handles.push(handle);
        }
        ready.wait();

        let pinned: Vec<bool> = pin_results
            .iter()
            .map(|r| r.load(Ordering::Acquire))
            .collect();
        if config.pin == PinMode::Require {
            if let Some(core) = pinned.iter().position(|&ok| !ok) {
                // Tear the pool down before reporting failure.
                shutdown_workers(&shared);
                for h in handles {
                    let _ = h.join();
                }
                return Err(PoolError::PinFailed { core });
            }
        }

        Ok(ThreadPool {
            shared,
            handles,
            dispatch_lock: Mutex::new(caller_deque),
            pinned,
            wake: config.wake,
            inline_threshold: config.inline_threshold,
        })
    }

    /// The pool's topology.
    pub fn topology(&self) -> &Topology {
        &self.shared.topology
    }

    /// Number of workers successfully pinned to their cores.
    pub fn pinned_workers(&self) -> usize {
        self.pinned.iter().filter(|&&ok| ok).count()
    }

    /// Total worker count (== topology cores).
    pub fn num_workers(&self) -> usize {
        self.handles.len()
    }

    /// The pool's instrument panel, unless built with
    /// [`PoolConfig::metrics(false)`](PoolConfig::metrics).
    pub fn metrics(&self) -> Option<&PoolMetrics> {
        self.shared.metrics.as_ref()
    }

    /// Takes the flight recorder's parked anomaly dump, if one fired.
    pub fn take_flight_dump(&self) -> Option<FlightDump> {
        self.shared.metrics.as_ref()?.take_flight_dump()
    }

    /// The current OpenMetrics exposition (empty-but-valid when metrics
    /// are disabled).
    pub fn metrics_text(&self) -> String {
        self.shared
            .metrics
            .as_ref()
            .map_or_else(|| "# EOF\n".to_string(), |m| m.render())
    }

    /// Executes a taskloop over `range` with chunks of at most `grainsize`
    /// iterations, under the given execution mode. Blocks until every chunk
    /// has executed and all participating workers have quiesced (the
    /// taskloop's implicit barrier), then returns the invocation report.
    ///
    /// # Panics
    /// Re-raises any panic from the body, and panics if a hierarchical mode
    /// references an empty node mask.
    pub fn taskloop<F>(
        &self,
        range: Range<usize>,
        grainsize: usize,
        mode: ExecMode,
        body: F,
    ) -> LoopReport
    where
        F: Fn(Range<usize>) + Sync,
    {
        self.taskloop_with(range, Grain::Size(grainsize), mode, body)
    }

    /// Like [`taskloop`](Self::taskloop) with an OpenMP-style [`Grain`]
    /// specification (`grainsize` / `num_tasks` / implementation default).
    pub fn taskloop_with<F>(
        &self,
        range: Range<usize>,
        grain: Grain,
        mode: ExecMode,
        body: F,
    ) -> LoopReport
    where
        F: Fn(Range<usize>) + Sync,
    {
        let mut report = LoopReport::default();
        self.run_loop(range, grain, mode, &body, false, &mut report);
        report
    }

    /// Like [`taskloop_with`](Self::taskloop_with), writing the statistics
    /// into a caller-provided report instead of returning a fresh one. The
    /// report's node vector is reused (cleared and refilled), so an
    /// iterative caller invoking many loops allocates nothing per
    /// invocation once warm.
    pub fn taskloop_into<F>(
        &self,
        range: Range<usize>,
        grain: Grain,
        mode: ExecMode,
        body: F,
        report: &mut LoopReport,
    ) where
        F: Fn(Range<usize>) + Sync,
    {
        self.run_loop(range, grain, mode, &body, false, report);
    }

    /// Like [`taskloop`](Self::taskloop), additionally recording every
    /// scheduler action (enqueues, pops, steals, chunk start/end, latch
    /// releases) into per-worker lock-free rings and returning the merged
    /// [`EventLog`] alongside the report. Traced loops always take the full
    /// dispatch path (never the sequential inline shortcut), since the
    /// point of tracing is to observe the scheduler.
    pub fn taskloop_traced<F>(
        &self,
        range: Range<usize>,
        grainsize: usize,
        mode: ExecMode,
        body: F,
    ) -> (LoopReport, EventLog)
    where
        F: Fn(Range<usize>) + Sync,
    {
        self.taskloop_with_traced(range, Grain::Size(grainsize), mode, body)
    }

    /// Traced variant of [`taskloop_with`](Self::taskloop_with).
    pub fn taskloop_with_traced<F>(
        &self,
        range: Range<usize>,
        grain: Grain,
        mode: ExecMode,
        body: F,
    ) -> (LoopReport, EventLog)
    where
        F: Fn(Range<usize>) + Sync,
    {
        let mut report = LoopReport::default();
        let log = self.run_loop(range, grain, mode, &body, true, &mut report);
        (report, log.expect("traced run always yields a log"))
    }

    fn run_loop(
        &self,
        range: Range<usize>,
        grain: Grain,
        mode: ExecMode,
        body: &(dyn Fn(Range<usize>) + Sync),
        traced: bool,
        report: &mut LoopReport,
    ) -> Option<EventLog> {
        let all_workers = self.num_workers();
        let len = range.len();
        let grainsize = grain.resolve(len, all_workers);
        let num_chunks = len.div_ceil(grainsize);

        // Validate hierarchical parameters before choosing a path, so the
        // inline shortcut rejects exactly what the dispatch path rejects.
        if let ExecMode::Hierarchical {
            mask,
            strict_fraction,
            ..
        } = &mode
        {
            assert!(!mask.is_empty(), "hierarchical mode needs a non-empty mask");
            assert!(
                (0.0..=1.0).contains(strict_fraction),
                "strict_fraction must be in [0,1]"
            );
        }

        // Sequential inline fast path: a loop too small to amortize a
        // dispatch — or one that is sequential anyway, being a single chunk
        // or a team of one — runs on the calling thread with no wakeups, no
        // queue traffic and no trace-ring writes.
        if !traced && (len <= self.inline_threshold || num_chunks <= 1 || self.team_of_one(&mode)) {
            self.run_inline(range, grainsize, num_chunks, &mode, body, report);
            if let Some(m) = &self.shared.metrics {
                m.loops_inline.inc();
            }
            return None;
        }

        let caller_deque = self.dispatch_lock.lock();
        let dispatch_start = Instant::now();
        let shared = &*self.shared;
        let topo = &shared.topology;
        let num_nodes = topo.num_nodes();

        // Chunks are placed on the mask's nodes in hierarchical mode (that
        // assignment defines a migration, per the paper); on the blocked
        // first-touch layout over all nodes otherwise, so locality
        // statistics are comparable across modes.
        let home_mask = placement_mask(topo, &mode);
        let assignment = ChunkAssignment::new(home_mask, num_chunks.max(1));
        let epoch = shared.epoch.fetch_add(1, Ordering::Relaxed) + 1;

        {
            // SAFETY: dispatch lock held, and every worker of the previous
            // invocation has passed its exit-latch decrement (the previous
            // run_loop waited on the latch before returning), so no other
            // thread references the arena.
            let rd = unsafe { &mut *shared.run.get() };
            rd.t0 = Instant::now();

            // Rings are installed for traced runs and — the flight recorder's
            // always-on stance — for plain dispatched runs too, so an anomaly
            // can dump the complete invocation it occurred in. The cache
            // makes warm invocations allocation-free either way.
            rd.trace = if traced || shared.flight {
                // Generous ring bounds: a worker emits at most one
                // acquisition, one start, and one end per chunk, plus its
                // latch release and a possible steal-refusal marker; the
                // dispatcher one enqueue per chunk — plus, under an armed
                // watchdog, fault markers, degradation events and a full
                // drain (acquire+start+end per chunk) in the worst case.
                let need_worker = 3 * num_chunks + 8;
                let need_disp = if shared.watchdog.is_some() {
                    4 * num_chunks + 2 * all_workers + num_nodes + 8
                } else {
                    num_chunks + 4
                };
                let mut t = match rd.trace_cache.take() {
                    Some(t)
                        if t.num_rings() == all_workers
                            && t.worker_capacity() >= need_worker
                            && t.dispatcher_capacity() >= need_disp =>
                    {
                        t
                    }
                    _ => TraceSet::new(all_workers, need_worker, need_disp),
                };
                t.reset();
                Some(t)
            } else {
                None
            };

            rd.chunks.clear();
            let mut lo = range.start;
            let mut i = 0usize;
            while lo < range.end {
                let hi = (lo + grainsize).min(range.end);
                rd.chunks.push(Chunk {
                    range: lo..hi,
                    home: assignment.node_of_chunk(i),
                });
                lo = hi;
                i += 1;
            }
            debug_assert_eq!(rd.chunks.len(), num_chunks);

            rd.active.clear();
            rd.active.resize(all_workers, false);
            #[cfg(debug_assertions)]
            debug_assert!(
                shared.queues.is_empty(),
                "queues left dirty by the previous invocation"
            );

            // One timestamp for the whole placement loop: the enqueues span
            // a few microseconds and ring order already fixes their sequence,
            // so per-chunk clock reads buy nothing on the dispatch path.
            let enq_ns = rd.t0.elapsed().as_nanos() as u64;
            rd.kind = match &mode {
                ExecMode::Flat => {
                    rd.active.iter_mut().for_each(|a| *a = true);
                    for (idx, c) in rd.chunks.iter().enumerate() {
                        shared.queues.flat.push(idx);
                        emit_enqueue(&rd.trace, enq_ns, idx, c.home, false);
                    }
                    QueueKind::Flat
                }
                ExecMode::WorkSharing => {
                    rd.active.iter_mut().for_each(|a| *a = true);
                    rd.static_slices.clear();
                    for w in 0..all_workers {
                        let lo = w * num_chunks / all_workers;
                        let hi = (w + 1) * num_chunks / all_workers;
                        rd.static_slices.push(lo..hi);
                    }
                    for (idx, c) in rd.chunks.iter().enumerate() {
                        emit_enqueue(&rd.trace, enq_ns, idx, c.home, false);
                    }
                    QueueKind::Static
                }
                ExecMode::Hierarchical {
                    mask,
                    threads,
                    strict_fraction,
                    policy,
                } => {
                    // Distribute threads over the mask's nodes, lowest cores
                    // first within each node.
                    let k = mask.count();
                    let want = hier_threads(topo, *mask, *threads);
                    for (rank, node) in mask.iter().enumerate() {
                        let per = want / k + usize::from(rank < want % k);
                        for core in topo.cores_of_node(node).take(per) {
                            rd.active[core.index()] = true;
                        }
                    }
                    // Ensure at least the primary of the first node is active.
                    if !rd.active.iter().any(|&a| a) {
                        rd.active[topo.primary_core(mask.first().unwrap()).index()] = true;
                    }

                    // Enqueue each node's contiguous chunk slice: the first
                    // `strict_count` stay NUMA-strict, the tail is stealable.
                    for (rank, node) in mask.iter().enumerate() {
                        let idxs = assignment.chunks_of_rank(rank);
                        let strict_count = match policy {
                            StealPolicy::Strict => idxs.len(),
                            StealPolicy::Full => {
                                ((idxs.len() as f64) * strict_fraction).round() as usize
                            }
                        };
                        for (j, idx) in idxs.enumerate() {
                            let strict = j < strict_count;
                            if strict {
                                shared.queues.strict[node.index()].push(idx);
                            } else {
                                shared.queues.shared[node.index()].push(idx);
                            }
                            emit_enqueue(&rd.trace, enq_ns, idx, node, strict);
                        }
                    }
                    QueueKind::Hier { policy: *policy }
                }
            };

            rd.threads = rd.active.iter().filter(|&&a| a).count();
            // The dispatcher works the slot of the placement's primary core,
            // which every mode activates — unless this epoch's plan stalls
            // that slot or drops its wakeup: the slot then stays with its
            // worker thread, so each fault hits the thread it was planned for.
            let slot = topo
                .primary_core(home_mask.first().expect("validated non-empty"))
                .index();
            debug_assert!(rd.active[slot], "the caller's slot must be active");
            let faulted = shared.faults.as_ref().is_some_and(|p| {
                p.stall_of(slot as u32).is_some() || p.drops_wakeup(epoch, slot as u32)
            });
            rd.caller = (!faulted).then_some(slot);
            // SAFETY: lifetime extension only; validity argued on BodyPtr.
            rd.body = BodyPtr(unsafe {
                std::mem::transmute::<
                    *const (dyn Fn(Range<usize>) + Sync),
                    *const (dyn Fn(Range<usize>) + Sync),
                >(body as *const _)
            });

            for s in &shared.node_stats {
                s.reset();
            }
            shared.migrations.store(0, Ordering::Relaxed);
            shared.overhead_ns.store(0, Ordering::Relaxed);
            shared.exit_latch.reset(rd.threads);
        }

        // Publication: the arena is complete; from here only shared
        // references exist until the exit latch releases.
        // SAFETY: the `&mut` above has ended; workers also only take `&`.
        let rd = unsafe { &*shared.run.get() };
        let start = Instant::now();
        let run_token = (epoch << 1) | 1;
        let idle_token = epoch << 1;
        if shared.watchdog.is_some() {
            // Claim/progress bookkeeping for this epoch. At this point every
            // active worker's claim holds WORKER or DISPATCHER of an older
            // epoch (an invocation only ends once each active slot was
            // claimed one way or the other), so re-opening for this epoch
            // races nothing; the token posts below publish these stores.
            shared.progress.store(0, Ordering::Relaxed);
            for (i, &a) in rd.active.iter().enumerate() {
                if a {
                    shared.claims[i].store(claim_word(epoch, CLAIM_OPEN), Ordering::Relaxed);
                }
            }
        }
        // Chaos: record the plan's scheduled faults for this invocation on
        // the dispatcher ring, then post wakeups — skipping any the plan
        // drops (the watchdog's broadcast escalation repairs those). The
        // count feeds the faults-injected counter and (as an anomaly) the
        // flight recorder, whether or not rings are installed.
        let mut faults_this_run: u64 = 0;
        if let Some(plan) = &shared.faults {
            for &w in plan.stalls().keys() {
                if (w as usize) < rd.active.len() && rd.active[w as usize] {
                    faults_this_run += 1;
                    if rd.trace.is_some() {
                        let node = topo.node_of_core(ilan_topology::CoreId::new(w as usize));
                        emit_dispatcher(
                            rd,
                            node.index() as u32,
                            EventKind::FaultInjected {
                                fault: FaultTag::WorkerStall,
                                target: w,
                            },
                        );
                    }
                }
            }
            for &n in plan.slow_nodes().keys() {
                if (n as usize) < num_nodes {
                    faults_this_run += 1;
                    if rd.trace.is_some() {
                        emit_dispatcher(
                            rd,
                            n,
                            EventKind::FaultInjected {
                                fault: FaultTag::SlowNode,
                                target: n,
                            },
                        );
                    }
                }
            }
        }
        let drops_wakeup = |i: usize| {
            shared
                .faults
                .as_ref()
                .is_some_and(|p| p.drops_wakeup(epoch, i as u32))
        };
        let mut wakeup_posts: u64 = 0;
        for (i, &a) in rd.active.iter().enumerate() {
            if a && rd.caller != Some(i) {
                if drops_wakeup(i) {
                    faults_this_run += 1;
                    let node = topo.node_of_core(ilan_topology::CoreId::new(i));
                    emit_dispatcher(
                        rd,
                        node.index() as u32,
                        EventKind::FaultInjected {
                            fault: FaultTag::DroppedWakeup,
                            target: i as u32,
                        },
                    );
                    continue;
                }
                shared.slots[i].post(run_token);
                wakeup_posts += 1;
            } else if self.wake == WakeMode::Broadcast {
                shared.slots[i].post(idle_token);
                wakeup_posts += 1;
            }
        }
        let dispatch_ns = dispatch_start.elapsed().as_nanos() as u64;
        // The dispatcher's share, through the same claim a worker makes: a
        // stage-1 re-post that wakes the slot's thread then finds the slot
        // taken and stays out.
        if let Some(slot) = rd.caller {
            if self.pinned[slot] {
                bind_caller(ilan_topology::CoreId::new(slot));
            }
            if shared.watchdog.is_none() || claim(&shared.claims[slot], epoch, CLAIM_WORKER) {
                participate(shared, slot, &caller_deque, None);
            }
        }
        let degraded_stage = match shared.watchdog {
            None => {
                shared.exit_latch.wait();
                0
            }
            Some(deadline) => guarded_wait(shared, rd, epoch, run_token, idle_token, deadline),
        };
        let makespan = start.elapsed();

        if let Some(payload) = shared.panic.lock().take() {
            std::panic::resume_unwind(payload);
        }

        report.makespan = makespan;
        report.sched_overhead = Duration::from_nanos(shared.overhead_ns.load(Ordering::Acquire));
        report.nodes.clear();
        report
            .nodes
            .extend(shared.node_stats.iter().map(|s| NodeReport {
                tasks: s.tasks.load(Ordering::Acquire),
                local_tasks: s.local_tasks.load(Ordering::Acquire),
                busy: Duration::from_nanos(s.busy_ns.load(Ordering::Acquire)),
            }));
        report.migrations = shared.migrations.load(Ordering::Acquire);
        report.threads = rd.threads;
        report.degraded = degraded_stage > 0;
        // The report's defining relation: a chunk is either local to the
        // node that ran it or it migrated there, never both, never neither.
        debug_assert_eq!(
            report.nodes.iter().map(|n| n.tasks).sum::<usize>(),
            report.nodes.iter().map(|n| n.local_tasks).sum::<usize>() + report.migrations,
            "LoopReport inconsistent: tasks != local_tasks + migrations"
        );

        // Dispatcher-side metrics: a few relaxed counter bumps and two
        // histogram samples per dispatched invocation. The tail tracker
        // owns `loop_ns`, so observing the makespan also records it.
        let mut tail_breach: Option<(u64, u64)> = None;
        if let Some(m) = &shared.metrics {
            m.loops_dispatched.inc();
            m.dispatch_ns.record(dispatch_ns);
            match self.wake {
                WakeMode::Targeted => m.wakeups_targeted.add(wakeup_posts),
                WakeMode::Broadcast => m.wakeups_broadcast.add(wakeup_posts),
            }
            match degraded_stage {
                1 => m.degraded_stage1.inc(),
                2 => m.degraded_stage2.inc(),
                _ => {}
            }
            if faults_this_run > 0 {
                m.faults_injected.add(faults_this_run);
            }
            let mk = makespan.as_nanos() as u64;
            if let Some(threshold_ns) = m.tail.observe(mk) {
                tail_breach = Some((mk, threshold_ns));
            }
        }

        // SAFETY: all workers have quiesced (latch released above); the
        // shared reborrow `rd` is dead past this point.
        let rd = unsafe { &mut *shared.run.get() };
        rd.body = BodyPtr::noop();
        let collected = rd.trace.take();
        if traced {
            return collected.map(|t| {
                let log = t.collect(num_nodes);
                rd.trace_cache = Some(t);
                log
            });
        }

        // Flight recorder: on an anomalous untraced invocation, collect the
        // rings retrospectively (the only time an untraced run pays for log
        // collection) and park the dump. Reason priority mirrors severity:
        // a degradation outranks the injected fault that caused it, which
        // outranks a mere slow tail.
        if let Some(m) = &shared.metrics {
            let reason = if degraded_stage > 0 {
                Some(FlightReason::Degraded {
                    stage: degraded_stage,
                })
            } else if faults_this_run > 0 {
                Some(FlightReason::FaultInjected {
                    count: faults_this_run,
                })
            } else {
                tail_breach.map(|(observed_ns, threshold_ns)| FlightReason::TailBreach {
                    observed_ns,
                    threshold_ns,
                })
            };
            if let Some(reason) = reason {
                m.flight_triggers.inc();
                match collected {
                    Some(t) => {
                        if m.flight.wants_capture() {
                            let log = t.collect(num_nodes);
                            m.flight.capture(reason, log, m.registry().render());
                        } else {
                            m.flight.note_trigger();
                        }
                        rd.trace_cache = Some(t);
                    }
                    None => m.flight.note_trigger(),
                }
                return None;
            }
        }
        if let Some(t) = collected {
            rd.trace_cache = Some(t);
        }
        None
    }

    /// The sequential fast path: executes every chunk on the calling thread,
    /// attributing each to its assigned home node (which it trivially
    /// executes "on", so the loop is fully local and migration-free).
    fn run_inline(
        &self,
        range: Range<usize>,
        grainsize: usize,
        num_chunks: usize,
        mode: &ExecMode,
        body: &(dyn Fn(Range<usize>) + Sync),
        report: &mut LoopReport,
    ) {
        let topo = self.topology();
        report.nodes.clear();
        report.nodes.resize(topo.num_nodes(), NodeReport::default());

        let mask = placement_mask(topo, mode);
        let assignment = ChunkAssignment::new(mask, num_chunks);

        let start = Instant::now();
        let mut lo = range.start;
        for i in 0..num_chunks {
            let hi = (lo + grainsize).min(range.end);
            let body_start = Instant::now();
            body(lo..hi);
            let n = &mut report.nodes[assignment.node_of_chunk(i).index()];
            n.tasks += 1;
            n.local_tasks += 1;
            n.busy += body_start.elapsed();
            lo = hi;
        }
        report.makespan = start.elapsed();
        report.sched_overhead = Duration::ZERO;
        report.migrations = 0;
        report.threads = 1;
        report.degraded = false;
    }

    /// Whether `mode` resolves to one worker on one node: a team of one,
    /// which runs sequentially on the caller like OpenMP's `num_threads(1)`.
    fn team_of_one(&self, mode: &ExecMode) -> bool {
        match mode {
            ExecMode::Hierarchical { mask, threads, .. } => {
                mask.count() == 1 && hier_threads(self.topology(), *mask, *threads) == 1
            }
            ExecMode::Flat | ExecMode::WorkSharing => self.num_workers() == 1,
        }
    }
}

/// The nodes an invocation's chunks are assigned to: the mask in
/// hierarchical mode, every node otherwise.
fn placement_mask(topo: &Topology, mode: &ExecMode) -> NodeMask {
    match mode {
        ExecMode::Hierarchical { mask, .. } => *mask,
        ExecMode::Flat | ExecMode::WorkSharing => topo.all_nodes(),
    }
}

/// Threads a hierarchical decision activates: `threads` clamped to the
/// mask's cores, 0 meaning all of them.
fn hier_threads(topo: &Topology, mask: NodeMask, threads: usize) -> usize {
    let max = mask.count() * topo.cores_per_node();
    if threads == 0 {
        max
    } else {
        threads.min(max)
    }
}

/// Wakes every worker for shutdown: the posted token has the participate
/// bit clear, so woken workers check the shutdown flag and exit.
fn shutdown_workers(shared: &Shared) {
    shared.shutdown.store(true, Ordering::Release);
    let epoch = shared.epoch.fetch_add(1, Ordering::Relaxed) + 1;
    for slot in &shared.slots {
        slot.post(epoch << 1);
    }
}

impl Drop for ThreadPool {
    fn drop(&mut self) {
        shutdown_workers(&self.shared);
        for h in self.handles.drain(..) {
            let _ = h.join();
        }
    }
}

/// Records one chunk-placement event on the dispatcher ring, if tracing.
/// `at_ns` is a timestamp the dispatch loop read once for all placements.
fn emit_enqueue(trace: &Option<TraceSet>, at_ns: u64, chunk: usize, home: NodeId, strict: bool) {
    if let Some(trace) = trace {
        trace.dispatcher().push(
            DISPATCHER,
            home.index() as u32,
            at_ns,
            EventKind::ChunkEnqueue {
                chunk: chunk as u32,
                home: home.index() as u32,
                strict,
            },
        );
    }
}

/// Records an event on the dispatcher's ring, if tracing.
fn emit_dispatcher(rd: &RunData, node: u32, kind: EventKind) {
    if let Some(trace) = &rd.trace {
        trace
            .dispatcher()
            .push(DISPATCHER, node, rd.t0.elapsed().as_nanos() as u64, kind);
    }
}

/// Deadline-bounded latch wait with two escalation stages. Returns the
/// highest escalation stage reached (0 = finished without help).
///
/// Stage 0 waits out `deadline`, re-arming while chunks keep completing —
/// slow progress is not a stall. Stage 1 degrades `WakeMode::Targeted` to a
/// broadcast re-post of the same tokens (repairing dropped wakeups;
/// re-posting is idempotent because `SleepSlot::wait` only returns on an
/// epoch *change*). Stage 2 claims every active worker that never started
/// participating and executes their chunks on the dispatcher, counting the
/// latch down on their behalf, then waits unboundedly for the workers that
/// did start.
fn guarded_wait(
    shared: &Shared,
    rd: &RunData,
    epoch: u64,
    run_token: u64,
    idle_token: u64,
    deadline: Duration,
) -> u8 {
    let mut last_progress = shared.progress.load(Ordering::Relaxed);
    loop {
        if shared.exit_latch.wait_for(deadline) {
            return 0;
        }
        let now = shared.progress.load(Ordering::Relaxed);
        if now == last_progress {
            break;
        }
        last_progress = now;
    }

    // Stage 1: broadcast re-post.
    emit_dispatcher(rd, 0, EventKind::Degraded { stage: 1, count: 0 });
    for (i, &a) in rd.active.iter().enumerate() {
        shared.slots[i].post(if a { run_token } else { idle_token });
    }
    let mut last_progress = shared.progress.load(Ordering::Relaxed);
    loop {
        if shared.exit_latch.wait_for(deadline) {
            return 1;
        }
        let now = shared.progress.load(Ordering::Relaxed);
        if now == last_progress {
            break;
        }
        last_progress = now;
    }

    // Stage 2: claim-and-drain. The compare-exchange races the claimed
    // worker's own participation CAS; whoever wins owns that slot's latch
    // decrement, so the count stays exact either way.
    let mut claimed: Vec<usize> = Vec::new();
    for (i, &a) in rd.active.iter().enumerate() {
        if a && claim(&shared.claims[i], epoch, CLAIM_DISPATCHER) {
            claimed.push(i);
        }
    }
    if !claimed.is_empty() {
        emit_dispatcher(
            rd,
            0,
            EventKind::Degraded {
                stage: 2,
                count: claimed.len() as u32,
            },
        );
        drain_on_dispatcher(shared, rd, &claimed);
        for _ in &claimed {
            shared.exit_latch.count_down();
        }
    }
    // Whoever remains did start participating and will finish: wait them out.
    shared.exit_latch.wait();
    2
}

/// Executes all work reachable from the dispatcher on behalf of `claimed`
/// (never-started) workers. In work-sharing mode that is exactly their
/// static slices; in the queued modes the claimed workers own nothing yet,
/// so the drain empties every injector and private deque it can reach —
/// healthy workers racing it is fine, the queues are exactly-once.
fn drain_on_dispatcher(shared: &Shared, rd: &RunData, claimed: &[usize]) {
    if let QueueKind::Static = rd.kind {
        for &i in claimed {
            for chunk_idx in rd.static_slices[i].clone() {
                execute_chunk_on_dispatcher(shared, rd, chunk_idx);
            }
        }
        return;
    }
    // A deque of its own, out of every peer's reach: the dispatcher's working
    // deque is stealable as its slot's, and a drained chunk taken from there
    // by a peer of another node would leave its strict queue's node.
    let deque: Deque<usize> = Deque::new_fifo();
    loop {
        let next = deque.pop().or_else(|| {
            if let Some(i) = batch_steal_until(&shared.queues.flat, &deque) {
                return Some(i);
            }
            for q in shared
                .queues
                .strict
                .iter()
                .chain(shared.queues.shared.iter())
            {
                if let Some(i) = batch_steal_until(q, &deque) {
                    return Some(i);
                }
            }
            for s in &shared.stealers {
                if let Some(i) = peer_steal_until(s, &deque) {
                    return Some(i);
                }
            }
            None
        });
        let Some(chunk_idx) = next else { break };
        execute_chunk_on_dispatcher(shared, rd, chunk_idx);
    }
}

/// Executes one chunk on the dispatcher, attributed to the chunk's home node
/// (the drain substitutes for that node's claimed worker, so the chunk
/// counts as local there and the audit's confinement rules keep holding).
fn execute_chunk_on_dispatcher(shared: &Shared, rd: &RunData, chunk_idx: usize) {
    let chunk = &rd.chunks[chunk_idx];
    let node = chunk.home.index() as u32;
    if let Some(m) = &shared.metrics {
        // The drain substitutes for the claimed worker on the chunk's home
        // node, so the acquisition counts as a local pop — keeping the
        // counters equal to the trace's steal matrix even in degraded runs.
        m.acq_local_pop.add(0, 1);
    }
    emit_dispatcher(
        rd,
        node,
        EventKind::LocalPop {
            chunk: chunk_idx as u32,
        },
    );
    emit_dispatcher(
        rd,
        node,
        EventKind::ChunkStart {
            chunk: chunk_idx as u32,
        },
    );
    let body_start = Instant::now();
    // SAFETY: same argument as `execute_chunk` — the dispatch call keeps the
    // body alive until this very function's caller finishes the invocation.
    let body = unsafe { &*rd.body.0 };
    let result = std::panic::catch_unwind(AssertUnwindSafe(|| body(chunk.range.clone())));
    let elapsed = body_start.elapsed();
    if let Err(payload) = result {
        let mut slot = shared.panic.lock();
        if slot.is_none() {
            *slot = Some(payload);
        }
    }
    let stats = &shared.node_stats[chunk.home.index()];
    stats.tasks.fetch_add(1, Ordering::Relaxed);
    stats.local_tasks.fetch_add(1, Ordering::Relaxed);
    stats
        .busy_ns
        .fetch_add(elapsed.as_nanos() as u64, Ordering::Relaxed);
    emit_dispatcher(
        rd,
        node,
        EventKind::ChunkEnd {
            chunk: chunk_idx as u32,
        },
    );
}

/// Parks a permanently stalled worker until the dispatcher claims its slot
/// (stage-2 degradation), the invocation is superseded, or shutdown.
fn wait_out_permanent_stall(shared: &Shared, index: usize, epoch: u64, seen: u64) {
    let released = claim_word(epoch, CLAIM_DISPATCHER);
    loop {
        if shared.shutdown.load(Ordering::Acquire) {
            return;
        }
        if shared.claims[index].load(Ordering::Acquire) == released {
            return;
        }
        if shared.slots[index].epoch() != seen {
            // A newer token was posted: the old invocation is over (its
            // latch could only release once this slot was claimed).
            return;
        }
        std::thread::sleep(Duration::from_micros(50));
    }
}

fn worker_main(shared: &Shared, index: usize, deque: &Deque<usize>) {
    let mut seen = 0u64;
    loop {
        let park_start = Instant::now();
        seen = shared.slots[index].wait(seen);
        let park_ns = park_start.elapsed().as_nanos() as u64;
        if shared.shutdown.load(Ordering::Acquire) {
            return;
        }
        if seen & 1 == 0 {
            // Woken without the participate bit (broadcast mode, or a spurious
            // epoch bump): this invocation is not ours — and crucially we must
            // not read the arena, whose contents we were never published.
            continue;
        }
        let epoch = seen >> 1;
        // Chaos: scheduled stalls fire before any arena access.
        if let Some(plan) = &shared.faults {
            if let Some(spec) = plan.stall_of(index as u32) {
                if spec.permanent {
                    // Never participate; the watchdog claims this slot and
                    // drains on our behalf, so touching the latch here would
                    // double-count.
                    wait_out_permanent_stall(shared, index, epoch, seen);
                    continue;
                }
                std::thread::sleep(Duration::from_nanos(spec.delay_ns));
            }
        }
        // Claim participation for this epoch. Losing the race means the
        // dispatcher holds the slot (it is working it, or drained for us
        // because we woke too late) — or the claim word was re-tagged for a
        // newer epoch entirely, in which case the arena may be mid-rewrite
        // and must not be read.
        if shared.watchdog.is_some() && !claim(&shared.claims[index], epoch, CLAIM_WORKER) {
            continue;
        }
        participate(shared, index, deque, Some(park_ns));
    }
}

/// One team member's share of an invocation: the `work` loop over slot
/// `index`, then its latch release. Run by the slot's worker thread, or by
/// the dispatcher when it works the slot — under an armed watchdog, only by
/// whichever of them won the slot's claim. `park_ns` is `None` for the
/// dispatcher, which never parked.
fn participate(shared: &Shared, index: usize, deque: &Deque<usize>, park_ns: Option<u64>) {
    {
        // SAFETY: the arena is published to this member — by the slot's
        // epoch token for a worker (release via the slot epoch store), by
        // program order for the dispatcher, which wrote it — and the
        // dispatcher takes no `&mut` until every member has passed the
        // exit-latch decrement below.
        let run = unsafe { &*shared.run.get() };
        let done_at = work(shared, run, index, deque, park_ns);
        let node = shared
            .topology
            .node_of_core(ilan_topology::CoreId::new(index));
        run.emit_at(index, node, done_at, EventKind::LatchRelease);
    }
    shared.exit_latch.count_down();
    debug_assert!(deque.pop().is_none(), "worker left chunks in its deque");
}

/// Statistics a worker accumulates privately during one invocation and
/// flushes exactly once at the end — the hot loop touches no shared counter,
/// so workers never contend (or false-share) on statistics cache lines.
#[derive(Default)]
struct WorkerTally {
    tasks: usize,
    local_tasks: usize,
    busy_ns: u64,
    migrations: usize,
    overhead_ns: u64,
    /// Sleep before this invocation; `None` for the dispatcher.
    park_ns: Option<u64>,
    local_pops: u64,
    intra_steals: u64,
    inter_steals: u64,
    attempts_local: u64,
    attempts_remote: u64,
    hits_local: u64,
    hits_remote: u64,
}

impl WorkerTally {
    /// Mirrors [`acquisition_kind`]'s classification, so the metrics
    /// counters and the trace's steal matrix agree by construction.
    fn count_acquisition(&mut self, migrated: bool, from_peer: bool) {
        if migrated {
            self.inter_steals += 1;
        } else if from_peer {
            self.intra_steals += 1;
        } else {
            self.local_pops += 1;
        }
    }

    /// Relaxed stores suffice: the exit-latch decrement (AcqRel) that
    /// follows the flush is what the dispatcher's latch wait synchronises
    /// with before reading.
    fn flush(self, shared: &Shared, my_node: NodeId, worker: usize) {
        let stats = &shared.node_stats[my_node.index()];
        stats.tasks.fetch_add(self.tasks, Ordering::Relaxed);
        stats
            .local_tasks
            .fetch_add(self.local_tasks, Ordering::Relaxed);
        stats.busy_ns.fetch_add(self.busy_ns, Ordering::Relaxed);
        shared
            .migrations
            .fetch_add(self.migrations, Ordering::Relaxed);
        shared
            .overhead_ns
            .fetch_add(self.overhead_ns, Ordering::Relaxed);
        if let Some(m) = &shared.metrics {
            if let Some(ns) = self.park_ns {
                m.park_ns.record(ns);
            }
            // Zero tallies stay unflushed: on the common no-steal invocation
            // this is one RMW (the local pops), not seven.
            let add = |c: &ShardedCounter, n: u64| {
                if n > 0 {
                    c.add(worker, n);
                }
            };
            add(&m.acq_local_pop, self.local_pops);
            add(&m.acq_intra_steal, self.intra_steals);
            add(&m.acq_inter_steal, self.inter_steals);
            add(&m.steal_attempts_local, self.attempts_local);
            add(&m.steal_attempts_remote, self.attempts_remote);
            add(&m.steal_hits_local, self.hits_local);
            add(&m.steal_hits_remote, self.hits_remote);
        }
    }
}

/// Executes one chunk and records its statistics into the worker's tally.
fn execute_chunk(
    shared: &Shared,
    run: &RunData,
    chunk_idx: usize,
    worker: usize,
    my_node: NodeId,
    migrated: bool,
    tally: &mut WorkerTally,
) {
    let chunk = &run.chunks[chunk_idx];
    let body_start = Instant::now();
    run.emit_at(
        worker,
        my_node,
        body_start,
        EventKind::ChunkStart {
            chunk: chunk_idx as u32,
        },
    );
    // SAFETY: the dispatcher keeps the body alive until exit_latch releases,
    // which happens after this call returns.
    let body = unsafe { &*run.body.0 };
    let result = std::panic::catch_unwind(AssertUnwindSafe(|| body(chunk.range.clone())));
    let mut elapsed = body_start.elapsed();

    if let Err(payload) = result {
        let mut slot = shared.panic.lock();
        if slot.is_none() {
            *slot = Some(payload);
        }
    }

    // Chaos: a slowed node pads each chunk to `elapsed × factor`, modelling
    // a degraded memory/compute path. Spinning (not sleeping) keeps the pad
    // precise at microsecond scales.
    if let Some(plan) = &shared.faults {
        let factor = plan.node_slowdown(my_node.index() as u32);
        if factor > 1.0 {
            let target = elapsed.mul_f64(factor);
            while body_start.elapsed() < target {
                std::hint::spin_loop();
            }
            elapsed = target;
        }
    }

    tally.busy_ns += elapsed.as_nanos() as u64;
    tally.tasks += 1;
    if chunk.home == my_node {
        tally.local_tasks += 1;
    }
    if migrated {
        tally.migrations += 1;
    }
    run.emit_at(
        worker,
        my_node,
        body_start + elapsed,
        EventKind::ChunkEnd {
            chunk: chunk_idx as u32,
        },
    );
    if shared.watchdog.is_some() {
        // Progress heartbeat: the watchdog re-arms its deadline while this
        // advances, so slow invocations are never mistaken for stalled ones.
        shared.progress.fetch_add(1, Ordering::Relaxed);
    }
}

/// Pops or steals chunk indices until no work is reachable for this worker.
/// Returns the instant the worker observed no more reachable work, so the
/// caller can stamp its latch-release event without another clock read.
fn work(
    shared: &Shared,
    run: &RunData,
    index: usize,
    deque: &Deque<usize>,
    park_ns: Option<u64>,
) -> Instant {
    let topo = &shared.topology;
    let my_core = ilan_topology::CoreId::new(index);
    let my_node = topo.node_of_core(my_core);
    let mut tally = WorkerTally {
        park_ns,
        ..WorkerTally::default()
    };

    if let QueueKind::Static = run.kind {
        // Work-sharing: drain the private slice, nothing to steal.
        for chunk_idx in run.static_slices[index].clone() {
            let migrated = run.chunks[chunk_idx].home != my_node;
            tally.count_acquisition(migrated, false);
            if run.trace.is_some() {
                run.emit(
                    index,
                    my_node,
                    acquisition_kind(run, chunk_idx, my_node, None),
                );
            }
            execute_chunk(shared, run, chunk_idx, index, my_node, migrated, &mut tally);
        }
        tally.flush(shared, my_node, index);
        return Instant::now();
    }

    let done_at;
    loop {
        let acquire_start = Instant::now();
        // Fast path: the private deque (filled by earlier batch steals).
        let acquired = match deque.pop() {
            Some(i) => Some((i, None)),
            None => acquire(shared, run, index, my_node, topo, deque, &mut tally),
        };
        let acquire_elapsed = acquire_start.elapsed();
        tally.overhead_ns += acquire_elapsed.as_nanos() as u64;
        let Some((chunk_idx, victim)) = acquired else {
            done_at = acquire_start + acquire_elapsed;
            break;
        };
        // A chunk migrated iff it executes away from its assigned node —
        // regardless of which queue it physically travelled through (a peer's
        // deque may hold chunks that were batch-stolen from a remote node).
        let migrated = run.chunks[chunk_idx].home != my_node;
        tally.count_acquisition(migrated, victim.is_some());
        if run.trace.is_some() {
            run.emit_at(
                index,
                my_node,
                acquire_start + acquire_elapsed,
                acquisition_kind(run, chunk_idx, my_node, victim),
            );
        }
        execute_chunk(shared, run, chunk_idx, index, my_node, migrated, &mut tally);
    }

    tally.flush(shared, my_node, index);
    done_at
}

/// Classifies an acquisition by its locality outcome: crossing nodes is an
/// inter-node steal (== one migration), a same-node peer-deque grab is an
/// intra-node steal, anything else is a local pop.
fn acquisition_kind(
    run: &RunData,
    chunk_idx: usize,
    my_node: NodeId,
    victim: Option<usize>,
) -> EventKind {
    let chunk = chunk_idx as u32;
    let home = run.chunks[chunk_idx].home;
    if home != my_node {
        EventKind::InterNodeSteal {
            chunk,
            from: home.index() as u32,
        }
    } else if let Some(v) = victim {
        EventKind::IntraNodeSteal {
            chunk,
            victim: v as u32,
        }
    } else {
        EventKind::LocalPop { chunk }
    }
}

/// One acquisition sweep when the private deque is empty. Batch steals from
/// injectors refill the deque (amortizing synchronization, like LLVM's
/// taskloop splitting); peer-deque steals stay within the NUMA node so
/// strict chunks never migrate. Returns the chunk index plus the worker it
/// was taken from, for peer-deque steals; the caller derives migration from
/// the chunk's assigned home (a peer's deque can hold chunks it had itself
/// batch-stolen from a remote node).
fn acquire(
    shared: &Shared,
    run: &RunData,
    index: usize,
    my_node: NodeId,
    topo: &Topology,
    deque: &Deque<usize>,
    tally: &mut WorkerTally,
) -> Option<(usize, Option<usize>)> {
    match run.kind {
        QueueKind::Flat => {
            tally.attempts_local += 1;
            if let Some(i) = batch_steal_until(&shared.queues.flat, deque) {
                tally.hits_local += 1;
                return Some((i, None));
            }
            // Steal from peer deques anywhere (the flat baseline is
            // NUMA-oblivious), scanning from the next worker around. Probe
            // scope follows the victim's node, not the queue the chunk was
            // assigned to — it measures where the probe traffic lands.
            let n = shared.stealers.len();
            for k in 1..n {
                let v = (index + k) % n;
                let remote = topo.node_of_core(ilan_topology::CoreId::new(v)) != my_node;
                if remote {
                    tally.attempts_remote += 1;
                } else {
                    tally.attempts_local += 1;
                }
                if let Some(i) = peer_steal_until(shared.stealer(run, v), deque) {
                    if remote {
                        tally.hits_remote += 1;
                    } else {
                        tally.hits_local += 1;
                    }
                    return Some((i, Some(v)));
                }
            }
            None
        }
        QueueKind::Hier { policy } => {
            tally.attempts_local += 1;
            if let Some(i) = batch_steal_until(&shared.queues.strict[my_node.index()], deque) {
                tally.hits_local += 1;
                return Some((i, None));
            }
            tally.attempts_local += 1;
            if let Some(i) = batch_steal_until(&shared.queues.shared[my_node.index()], deque) {
                tally.hits_local += 1;
                return Some((i, None));
            }
            // Intra-node peer deques (chunks there stay on this node unless
            // the peer had already pulled them across).
            for peer in topo.cores_of_node(my_node) {
                if peer.index() != index {
                    tally.attempts_local += 1;
                    if let Some(i) = peer_steal_until(shared.stealer(run, peer.index()), deque) {
                        tally.hits_local += 1;
                        return Some((i, Some(peer.index())));
                    }
                }
            }
            if policy == StealPolicy::Full {
                // Chaos: a refusing worker declines the whole remote sweep
                // and idles instead, shifting its share onto its peers.
                if shared
                    .faults
                    .as_ref()
                    .is_some_and(|p| p.refuses_remote_steal(index as u32))
                {
                    run.emit(
                        index,
                        my_node,
                        EventKind::FaultInjected {
                            fault: FaultTag::StealRefusal,
                            target: index as u32,
                        },
                    );
                    return None;
                }
                // Own node fully idle: visit other nodes' *shared injectors*
                // nearest-first. Never their private deques — those may hold
                // NUMA-strict chunks.
                for victim in &shared.remote_order[my_node.index()] {
                    tally.attempts_remote += 1;
                    if let Some(i) = batch_steal_until(&shared.queues.shared[victim.index()], deque)
                    {
                        tally.hits_remote += 1;
                        return Some((i, None));
                    }
                }
            }
            None
        }
        QueueKind::Static => unreachable!("static slices are drained directly in `work`"),
    }
}

/// Steals a batch from an injector into the private deque and pops one.
/// `Retry` (a lost race in the upstream lock-free implementation) backs off
/// with bounded exponential delay instead of raw-spinning on the contended
/// line.
fn batch_steal_until(q: &Injector<usize>, deque: &Deque<usize>) -> Option<usize> {
    let mut backoff = Backoff::new();
    loop {
        match q.steal_batch_and_pop(deque) {
            Steal::Success(i) => return Some(i),
            Steal::Empty => return None,
            Steal::Retry => backoff.snooze(),
        }
    }
}

/// Steals up to half of a peer's deque into ours and pops one, with the
/// same bounded backoff on `Retry`.
fn peer_steal_until(victim: &Stealer<usize>, deque: &Deque<usize>) -> Option<usize> {
    let mut backoff = Backoff::new();
    loop {
        match victim.steal_batch_and_pop(deque) {
            Steal::Success(i) => return Some(i),
            Steal::Empty => return None,
            Steal::Retry => backoff.snooze(),
        }
    }
}

/// Exhaustive models of the slot claim under an armed watchdog.
///
/// Run with `RUSTFLAGS="--cfg loom" cargo test -p ilan-runtime --lib
/// loom_model`. The claimants call the production [`claim`] on a loom
/// atomic. The exit latch is modelled as an `AtomicUsize` (the vendored
/// loom has no mutex): its count-down is the same `fetch_sub` as
/// [`CountLatch::count_down`], and the decrement that takes it from 1 to 0
/// is the release.
#[cfg(all(loom, test))]
mod loom_model {
    use super::*;
    use loom::sync::atomic::AtomicUsize;
    use loom::sync::Arc;

    const EPOCH: u64 = 7;

    /// One claimant: on winning, owns the slot's latch decrement. Returns
    /// whether it won and whether its decrement released the latch.
    fn party(word: &ClaimWord, latch: &AtomicUsize, epoch: u64, who: u64) -> (bool, bool) {
        if !claim(word, epoch, who) {
            return (false, false);
        }
        (true, latch.fetch_sub(1, Ordering::AcqRel) == 1)
    }

    #[test]
    fn exactly_one_party_owns_the_callers_slot() {
        loom::model(|| {
            // A team of one member — the dispatcher's slot — so the latch
            // counts that slot alone.
            let word = Arc::new(ClaimWord::new(claim_word(EPOCH, CLAIM_OPEN)));
            let latch = Arc::new(AtomicUsize::new(1));
            let spawn = |who: u64| {
                let (word, latch) = (Arc::clone(&word), Arc::clone(&latch));
                loom::thread::spawn(move || party(&word, &latch, EPOCH, who))
            };
            // The slot's worker woken by a stage-1 re-post, and the stage-2
            // drain, racing the dispatcher's own claim.
            let reposted = spawn(CLAIM_WORKER);
            let drain = spawn(CLAIM_DISPATCHER);
            let caller = party(&word, &latch, EPOCH, CLAIM_WORKER);
            let outcomes = [caller, reposted.join().unwrap(), drain.join().unwrap()];
            assert_eq!(outcomes.iter().filter(|o| o.0).count(), 1, "slot owners");
            assert_eq!(outcomes.iter().filter(|o| o.1).count(), 1, "latch releases");
            assert_eq!(latch.load(Ordering::Acquire), 0);
            let owner = word.load(Ordering::Acquire);
            assert!(
                owner == claim_word(EPOCH, CLAIM_WORKER)
                    || owner == claim_word(EPOCH, CLAIM_DISPATCHER)
            );
        });
    }

    #[test]
    fn a_late_waker_never_claims_a_newer_epoch() {
        loom::model(|| {
            // The previous epoch's slot was drained for its sleeping worker;
            // the dispatcher re-opens the word for the next epoch and works
            // the slot while that worker finally wakes with its old token.
            let word = Arc::new(ClaimWord::new(claim_word(EPOCH - 1, CLAIM_DISPATCHER)));
            let latch = Arc::new(AtomicUsize::new(1));
            let late = {
                let (word, latch) = (Arc::clone(&word), Arc::clone(&latch));
                loom::thread::spawn(move || party(&word, &latch, EPOCH - 1, CLAIM_WORKER))
            };
            word.store(claim_word(EPOCH, CLAIM_OPEN), Ordering::Relaxed);
            let caller = party(&word, &latch, EPOCH, CLAIM_WORKER);
            assert_eq!(late.join().unwrap(), (false, false));
            assert_eq!(caller, (true, true));
        });
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ilan_topology::presets;
    use std::sync::atomic::AtomicUsize;

    fn pool(topo: Topology) -> ThreadPool {
        ThreadPool::new(PoolConfig::new(topo).pin(PinMode::Never)).unwrap()
    }

    #[test]
    fn flat_executes_all_iterations_once() {
        let p = pool(presets::tiny_2x4());
        let flags: Vec<AtomicUsize> = (0..1000).map(|_| AtomicUsize::new(0)).collect();
        let report = p.taskloop(0..1000, 7, ExecMode::Flat, |r| {
            for i in r {
                flags[i].fetch_add(1, Ordering::Relaxed);
            }
        });
        assert!(flags.iter().all(|f| f.load(Ordering::Relaxed) == 1));
        assert_eq!(report.tasks_executed(), 1000_usize.div_ceil(7));
        assert_eq!(report.threads, 8);
    }

    #[test]
    fn hierarchical_strict_executes_all_and_never_migrates() {
        let p = pool(presets::tiny_2x4());
        let count = AtomicUsize::new(0);
        let mode = ExecMode::Hierarchical {
            mask: p.topology().all_nodes(),
            threads: 0,
            strict_fraction: 1.0,
            policy: StealPolicy::Strict,
        };
        let report = p.taskloop(0..512, 8, mode, |r| {
            count.fetch_add(r.len(), Ordering::Relaxed);
        });
        assert_eq!(count.load(Ordering::Relaxed), 512);
        assert_eq!(report.migrations, 0);
        assert!((report.locality_fraction() - 1.0).abs() < 1e-12);
    }

    #[test]
    fn worksharing_executes_all() {
        let p = pool(presets::tiny_2x4());
        let count = AtomicUsize::new(0);
        let report = p.taskloop(0..999, 10, ExecMode::WorkSharing, |r| {
            count.fetch_add(r.len(), Ordering::Relaxed);
        });
        assert_eq!(count.load(Ordering::Relaxed), 999);
        assert_eq!(report.tasks_executed(), 100);
        assert_eq!(report.migrations, 0);
    }

    #[test]
    fn hierarchical_reduced_threads() {
        let p = pool(presets::tiny_2x4());
        let count = AtomicUsize::new(0);
        let mode = ExecMode::Hierarchical {
            mask: NodeMask::first_n(1),
            threads: 2,
            strict_fraction: 1.0,
            policy: StealPolicy::Strict,
        };
        let report = p.taskloop(0..100, 5, mode, |r| {
            count.fetch_add(r.len(), Ordering::Relaxed);
        });
        assert_eq!(count.load(Ordering::Relaxed), 100);
        assert_eq!(report.threads, 2);
        // Everything ran on node 0.
        assert_eq!(report.nodes[0].tasks, 20);
        assert_eq!(report.nodes[1].tasks, 0);
    }

    #[test]
    fn full_policy_migrates_under_imbalance() {
        let p = pool(presets::tiny_2x4());
        // All the heavy work lands in node 0's chunks.
        let mode = ExecMode::Hierarchical {
            mask: p.topology().all_nodes(),
            threads: 0,
            strict_fraction: 0.0,
            policy: StealPolicy::Full,
        };
        let report = p.taskloop(0..64, 1, mode, |r| {
            if r.start < 32 {
                // Node-0 chunks are slow.
                std::thread::sleep(Duration::from_micros(300));
            }
        });
        assert_eq!(report.tasks_executed(), 64);
        // With a fully stealable tail and this much imbalance, at least one
        // chunk must have migrated.
        assert!(report.migrations > 0, "expected migrations");
    }

    #[test]
    fn empty_range_is_fine() {
        let p = pool(presets::tiny_2x4());
        let report = p.taskloop(10..10, 4, ExecMode::Flat, |_| {
            panic!("body must not run");
        });
        assert_eq!(report.tasks_executed(), 0);
    }

    #[test]
    fn body_panic_propagates() {
        let p = pool(presets::tiny_2x4());
        let result = std::panic::catch_unwind(AssertUnwindSafe(|| {
            p.taskloop(0..10, 1, ExecMode::Flat, |r| {
                if r.start == 5 {
                    panic!("boom in chunk");
                }
            });
        }));
        assert!(result.is_err());
        // Pool is still usable afterwards.
        let count = AtomicUsize::new(0);
        p.taskloop(0..10, 1, ExecMode::Flat, |r| {
            count.fetch_add(r.len(), Ordering::Relaxed);
        });
        assert_eq!(count.load(Ordering::Relaxed), 10);
    }

    #[test]
    fn body_panic_propagates_on_dispatch_path() {
        // Same as above but past the inline threshold, exercising the
        // worker-side catch_unwind + dispatcher resume.
        let p = pool(presets::tiny_2x4());
        let result = std::panic::catch_unwind(AssertUnwindSafe(|| {
            p.taskloop(0..100, 1, ExecMode::Flat, |r| {
                if r.start == 50 {
                    panic!("boom in chunk");
                }
            });
        }));
        assert!(result.is_err());
        let count = AtomicUsize::new(0);
        let report = p.taskloop(0..100, 1, ExecMode::Flat, |r| {
            count.fetch_add(r.len(), Ordering::Relaxed);
        });
        assert_eq!(count.load(Ordering::Relaxed), 100);
        assert_eq!(report.tasks_executed(), 100);
    }

    #[test]
    fn sequential_loops_reuse_pool() {
        let p = pool(presets::tiny_2x4());
        for n in [1usize, 17, 256, 33] {
            let count = AtomicUsize::new(0);
            p.taskloop(0..n, 4, ExecMode::Flat, |r| {
                count.fetch_add(r.len(), Ordering::Relaxed);
            });
            assert_eq!(count.load(Ordering::Relaxed), n);
        }
    }

    #[test]
    fn single_core_topology_works() {
        let p = pool(presets::smp(1));
        let count = AtomicUsize::new(0);
        let report = p.taskloop(0..50, 8, ExecMode::Flat, |r| {
            count.fetch_add(r.len(), Ordering::Relaxed);
        });
        assert_eq!(count.load(Ordering::Relaxed), 50);
        assert_eq!(report.threads, 1);
    }

    #[test]
    fn require_pin_fails_for_oversized_topology() {
        // 64 cores cannot be pinned on this machine unless it really has 64.
        if crate::pin::online_cpus() < 64 {
            let r = ThreadPool::new(PoolConfig::new(presets::epyc_9354_2s()).pin(PinMode::Require));
            assert!(matches!(r, Err(PoolError::PinFailed { .. })));
        }
    }

    #[test]
    fn reports_are_consistent() {
        let p = pool(presets::tiny_2x4());
        let report = p.taskloop(0..256, 4, ExecMode::Flat, |r| {
            std::hint::black_box(r.sum::<usize>());
        });
        assert_eq!(report.tasks_executed(), 64);
        let per_node: usize = report.nodes.iter().map(|n| n.tasks).sum();
        assert_eq!(per_node, 64);
        assert!(report.makespan > Duration::ZERO);
    }

    /// The audit expectations implied by a report.
    fn expect_from(report: &LoopReport) -> ilan_trace::AuditExpect {
        ilan_trace::AuditExpect {
            migrations: Some(report.migrations),
            latch_releases: Some(report.threads),
            per_node: Some(
                report
                    .nodes
                    .iter()
                    .map(|n| ilan_trace::NodeTally {
                        tasks: n.tasks,
                        local_tasks: Some(n.local_tasks),
                    })
                    .collect(),
            ),
        }
    }

    #[test]
    fn traced_strict_run_audits_clean() {
        let p = pool(presets::tiny_2x4());
        let mode = ExecMode::Hierarchical {
            mask: p.topology().all_nodes(),
            threads: 0,
            strict_fraction: 1.0,
            policy: StealPolicy::Strict,
        };
        let (report, log) = p.taskloop_traced(0..256, 4, mode, |r| {
            std::hint::black_box(r.sum::<usize>());
        });
        assert_eq!(log.dropped, 0);
        let audit = ilan_trace::audit(&log, &expect_from(&report));
        assert!(audit.ok(), "audit violations: {audit}");
        assert_eq!(audit.chunks, 64);
        assert_eq!(audit.inter_node_steals, 0);
        assert_eq!(audit.latch_releases, 8);
    }

    #[test]
    fn traced_flat_run_audits_clean() {
        let p = pool(presets::tiny_2x4());
        let (report, log) = p.taskloop_traced(0..500, 5, ExecMode::Flat, |r| {
            std::hint::black_box(r.sum::<usize>());
        });
        let audit = ilan_trace::audit(&log, &expect_from(&report));
        assert!(audit.ok(), "audit violations: {audit}");
        assert_eq!(audit.chunks, 100);
    }

    /// Regression for the report relation `tasks == local_tasks +
    /// migrations`: chunks that reach a worker's private deque via a remote
    /// batch steal and are then taken by an intra-node peer used to be
    /// counted as local, undercounting migrations.
    #[test]
    fn full_policy_report_relation_holds() {
        let p = pool(presets::tiny_2x4());
        for _ in 0..5 {
            let mode = ExecMode::Hierarchical {
                mask: p.topology().all_nodes(),
                threads: 0,
                strict_fraction: 0.0,
                policy: StealPolicy::Full,
            };
            let (report, log) = p.taskloop_traced(0..64, 1, mode, |r| {
                if r.start < 32 {
                    std::thread::sleep(Duration::from_micros(200));
                }
            });
            let tasks: usize = report.nodes.iter().map(|n| n.tasks).sum();
            let local: usize = report.nodes.iter().map(|n| n.local_tasks).sum();
            assert_eq!(
                tasks,
                local + report.migrations,
                "tasks != local + migrations"
            );
            let audit = ilan_trace::audit(&log, &expect_from(&report));
            assert!(audit.ok(), "audit violations: {audit}");
        }
    }

    #[test]
    fn inline_fast_path_runs_small_loops_on_caller() {
        let p = pool(presets::tiny_2x4());
        let caller = std::thread::current().id();
        let off_thread = AtomicBool::new(false);
        let count = AtomicUsize::new(0);
        let report = p.taskloop(0..32, 4, ExecMode::Flat, |r| {
            if std::thread::current().id() != caller {
                off_thread.store(true, Ordering::Relaxed);
            }
            count.fetch_add(r.len(), Ordering::Relaxed);
        });
        assert_eq!(count.load(Ordering::Relaxed), 32);
        assert!(
            !off_thread.load(Ordering::Relaxed),
            "inline loop left the calling thread"
        );
        assert_eq!(report.threads, 1);
        assert_eq!(report.tasks_executed(), 8);
        assert_eq!(report.migrations, 0);
        assert!((report.locality_fraction() - 1.0).abs() < 1e-12);
        assert_eq!(report.sched_overhead, Duration::ZERO);
    }

    #[test]
    fn inline_threshold_boundary() {
        let p = pool(presets::tiny_2x4());
        // At the threshold: inline (single caller thread).
        let at = p.taskloop(0..DEFAULT_INLINE_THRESHOLD, 4, ExecMode::Flat, |_| {});
        assert_eq!(at.threads, 1);
        // One past it: full dispatch (all workers).
        let past = p.taskloop(0..DEFAULT_INLINE_THRESHOLD + 1, 4, ExecMode::Flat, |_| {});
        assert_eq!(past.threads, 8);
    }

    #[test]
    fn single_chunk_loops_inline_regardless_of_length() {
        let p = pool(presets::tiny_2x4());
        let count = AtomicUsize::new(0);
        let report = p.taskloop(0..10_000, 10_000, ExecMode::Flat, |r| {
            count.fetch_add(r.len(), Ordering::Relaxed);
        });
        assert_eq!(count.load(Ordering::Relaxed), 10_000);
        assert_eq!(report.threads, 1);
        assert_eq!(report.tasks_executed(), 1);
    }

    #[test]
    fn inline_threshold_zero_dispatches_tiny_loops() {
        let p = ThreadPool::new(
            PoolConfig::new(presets::tiny_2x4())
                .pin(PinMode::Never)
                .inline_threshold(0),
        )
        .unwrap();
        let report = p.taskloop(0..8, 1, ExecMode::Flat, |_| {});
        assert_eq!(report.threads, 8);
        assert_eq!(report.tasks_executed(), 8);
    }

    #[test]
    fn inline_hierarchical_attributes_to_mask_nodes() {
        let p = pool(presets::tiny_2x4());
        let mode = ExecMode::Hierarchical {
            mask: NodeMask::first_n(1),
            threads: 0,
            strict_fraction: 1.0,
            policy: StealPolicy::Strict,
        };
        let report = p.taskloop(0..16, 4, mode, |_| {});
        assert_eq!(report.threads, 1);
        assert_eq!(report.nodes[0].tasks, 4);
        assert_eq!(report.nodes[1].tasks, 0);
        assert_eq!(report.migrations, 0);
    }

    #[test]
    #[should_panic(expected = "non-empty mask")]
    fn inline_path_still_validates_mask() {
        let p = pool(presets::tiny_2x4());
        let mode = ExecMode::Hierarchical {
            mask: NodeMask::EMPTY,
            threads: 0,
            strict_fraction: 1.0,
            policy: StealPolicy::Strict,
        };
        p.taskloop(0..4, 1, mode, |_| {});
    }

    #[test]
    fn traced_small_loop_takes_dispatch_path() {
        let p = pool(presets::tiny_2x4());
        let (report, log) = p.taskloop_traced(0..8, 1, ExecMode::Flat, |r| {
            std::hint::black_box(r.sum::<usize>());
        });
        assert_eq!(report.threads, 8, "traced loops must not inline");
        let audit = ilan_trace::audit(&log, &expect_from(&report));
        assert!(audit.ok(), "audit violations: {audit}");
        assert_eq!(audit.chunks, 8);
    }

    /// Targeted wakeups posted so far.
    fn wakeups(p: &ThreadPool) -> u64 {
        p.metrics().unwrap().wakeups_targeted.get()
    }

    #[test]
    fn caller_takes_a_slot_so_a_team_of_n_posts_n_minus_one_wakeups() {
        let p = pool(presets::tiny_2x4());
        for threads in [2usize, 3, 5, 8] {
            let mode = ExecMode::Hierarchical {
                mask: p.topology().all_nodes(),
                threads,
                strict_fraction: 1.0,
                policy: StealPolicy::Strict,
            };
            let before = wakeups(&p);
            let report = p.taskloop(0..400, 4, mode, |_| {});
            assert_eq!(report.threads, threads);
            assert_eq!(
                wakeups(&p) - before,
                threads as u64 - 1,
                "{threads} threads"
            );
        }
        for mode in [ExecMode::Flat, ExecMode::WorkSharing] {
            let before = wakeups(&p);
            let report = p.taskloop(0..400, 4, mode.clone(), |_| {});
            assert_eq!(report.tasks_executed(), 100);
            assert_eq!(wakeups(&p) - before, 7, "{mode:?}");
        }
    }

    #[test]
    fn team_of_one_runs_sequentially_on_the_caller() {
        let caller = std::thread::current().id();
        let one_core_of_one_node = ExecMode::Hierarchical {
            mask: NodeMask::first_n(1),
            threads: 1,
            strict_fraction: 0.5,
            policy: StealPolicy::Full,
        };
        let one_worker_pool = pool(presets::smp(1));
        let cases = [
            (pool(presets::tiny_2x4()), one_core_of_one_node),
            (one_worker_pool, ExecMode::Flat),
        ];
        for (p, mode) in cases {
            let m = p.metrics().unwrap();
            let (inline, posts) = (m.loops_inline.get(), wakeups(&p));
            let off_thread = AtomicBool::new(false);
            let count = AtomicUsize::new(0);
            // Far past the inline threshold, many chunks: only the team
            // size makes this loop sequential.
            let report = p.taskloop(0..4096, 4, mode.clone(), |r| {
                if std::thread::current().id() != caller {
                    off_thread.store(true, Ordering::Relaxed);
                }
                count.fetch_add(r.len(), Ordering::Relaxed);
            });
            assert_eq!(count.load(Ordering::Relaxed), 4096);
            assert!(
                !off_thread.load(Ordering::Relaxed),
                "{mode:?} left the caller"
            );
            assert_eq!(report.threads, 1);
            assert_eq!(report.tasks_executed(), 1024);
            assert_eq!(report.migrations, 0);
            assert_eq!(m.loops_inline.get(), inline + 1, "{mode:?} did not inline");
            assert_eq!(m.loops_dispatched.get(), 0);
            assert_eq!(wakeups(&p), posts, "{mode:?} posted a wakeup");
        }
    }

    /// The CPUs the calling thread may run on, as the kernel lists them
    /// ("0", "0-1", ...).
    #[cfg(target_os = "linux")]
    fn affinity() -> String {
        let status = std::fs::read_to_string("/proc/thread-self/status").unwrap();
        status
            .lines()
            .find_map(|l| l.strip_prefix("Cpus_allowed_list:"))
            .expect("Linux reports Cpus_allowed_list")
            .trim()
            .to_string()
    }

    #[cfg(target_os = "linux")]
    #[test]
    fn caller_binds_to_its_slots_core_where_the_worker_is_pinned() {
        // A thread of its own, so the binding cannot leak into other tests.
        std::thread::spawn(|| {
            let start = affinity();
            pool(presets::smp(2)).taskloop(0..400, 4, ExecMode::Flat, |_| {});
            assert_eq!(affinity(), start, "unpinned workers: caller left alone");

            let topo = ilan_topology::parse_spec("2x1x1").unwrap();
            let p = ThreadPool::new(PoolConfig::new(topo)).unwrap();
            let second_node = ExecMode::Hierarchical {
                mask: NodeMask::single(NodeId::new(1)),
                threads: 1,
                strict_fraction: 1.0,
                policy: StealPolicy::Strict,
            };
            let mut expected = start;
            // Flat works slot 0; a (traced, so dispatched) team of one on
            // node 1 works slot 1; back to slot 0.
            for (mode, slot) in [(ExecMode::Flat, 0), (second_node, 1), (ExecMode::Flat, 0)] {
                let (report, _) = p.taskloop_traced(0..400, 4, mode.clone(), |_| {});
                assert_eq!(report.tasks_executed(), 100);
                if p.pinned[slot] {
                    expected = slot.to_string();
                }
                assert_eq!(affinity(), expected, "{mode:?}");
            }
        })
        .join()
        .unwrap();
    }

    #[test]
    fn a_one_worker_decision_on_two_nodes_is_not_a_team_of_one() {
        // One thread, but chunks placed on two nodes: the caller runs them
        // all through the dispatch path, migrating node 1's tail.
        let p = pool(presets::tiny_2x4());
        let mode = ExecMode::Hierarchical {
            mask: p.topology().all_nodes(),
            threads: 1,
            strict_fraction: 0.0,
            policy: StealPolicy::Full,
        };
        let before = wakeups(&p);
        let report = p.taskloop(0..400, 4, mode, |_| {});
        assert_eq!(report.threads, 1);
        assert_eq!(report.tasks_executed(), 100);
        assert_eq!(report.migrations, 50);
        assert_eq!(p.metrics().unwrap().loops_dispatched.get(), 1);
        assert_eq!(wakeups(&p), before);
    }

    /// Checks that the caller's chunks are exactly the ones on `slot`'s
    /// ring and that the ring ends with its latch release.
    fn assert_caller_owns_ring(log: &EventLog, slot: u32, caller_chunks: &[usize]) {
        let ring: Vec<&ilan_trace::Event> = log.iter().filter(|e| e.worker == slot).collect();
        let mut started: Vec<usize> = ring
            .iter()
            .filter_map(|e| match e.kind {
                EventKind::ChunkStart { chunk } => Some(chunk as usize),
                _ => None,
            })
            .collect();
        let ended = ring
            .iter()
            .filter(|e| matches!(e.kind, EventKind::ChunkEnd { .. }))
            .count();
        started.sort_unstable();
        assert_eq!(
            started, caller_chunks,
            "slot {slot}'s ring vs the caller's chunks"
        );
        assert_eq!(ended, started.len());
        let last = ring
            .iter()
            .max_by_key(|e| e.seq)
            .expect("slot ring is empty");
        assert_eq!(last.kind, EventKind::LatchRelease);
    }

    #[test]
    fn traced_caller_events_land_on_its_slot_ring() {
        let p = pool(presets::tiny_2x4());
        let caller = std::thread::current().id();
        let one = ExecMode::Hierarchical {
            mask: NodeMask::first_n(1),
            threads: 1,
            strict_fraction: 1.0,
            policy: StealPolicy::Strict,
        };
        let second_node = ExecMode::Hierarchical {
            mask: NodeMask::single(NodeId::new(1)),
            threads: 2,
            strict_fraction: 1.0,
            policy: StealPolicy::Strict,
        };
        // (mode, the caller's slot, team size)
        for (mode, slot, threads) in [
            (one, 0u32, 1usize),
            (ExecMode::WorkSharing, 0, 8),
            (second_node, 4, 2),
        ] {
            let before = wakeups(&p);
            let mine: Vec<AtomicBool> = (0..100).map(|_| AtomicBool::new(false)).collect();
            let (report, log) = p.taskloop_traced(0..400, 4, mode.clone(), |r| {
                if std::thread::current().id() == caller {
                    mine[r.start / 4].store(true, Ordering::Relaxed);
                }
            });
            assert_eq!(report.threads, threads);
            assert_eq!(wakeups(&p) - before, threads as u64 - 1, "{mode:?}");
            let audit = ilan_trace::audit(&log, &expect_from(&report));
            assert!(audit.ok(), "{mode:?}: audit violations: {audit}");
            assert_eq!(audit.chunks, 100);
            let caller_chunks: Vec<usize> = (0..100)
                .filter(|&c| mine[c].load(Ordering::Relaxed))
                .collect();
            if threads == 1 {
                assert_eq!(caller_chunks.len(), 100, "a team of one runs every chunk");
            }
            if let ExecMode::WorkSharing = mode {
                // Worker 0's static slice is the caller's.
                assert_eq!(caller_chunks, (0..12).collect::<Vec<_>>());
            }
            assert_caller_owns_ring(&log, slot, &caller_chunks);
        }
    }

    #[test]
    fn broadcast_wake_mode_is_equivalent() {
        let p = ThreadPool::new(
            PoolConfig::new(presets::tiny_2x4())
                .pin(PinMode::Never)
                .wake(WakeMode::Broadcast),
        )
        .unwrap();
        let flags: Vec<AtomicUsize> = (0..500).map(|_| AtomicUsize::new(0)).collect();
        let report = p.taskloop(0..500, 5, ExecMode::Flat, |r| {
            for i in r {
                flags[i].fetch_add(1, Ordering::Relaxed);
            }
        });
        assert!(flags.iter().all(|f| f.load(Ordering::Relaxed) == 1));
        assert_eq!(report.tasks_executed(), 100);
        assert_eq!(report.threads, 8);
        // A masked loop under broadcast: non-participants wake but stay out.
        let count = AtomicUsize::new(0);
        let mode = ExecMode::Hierarchical {
            mask: NodeMask::first_n(1),
            threads: 2,
            strict_fraction: 1.0,
            policy: StealPolicy::Strict,
        };
        let report = p.taskloop(0..100, 5, mode, |r| {
            count.fetch_add(r.len(), Ordering::Relaxed);
        });
        assert_eq!(count.load(Ordering::Relaxed), 100);
        assert_eq!(report.threads, 2);
        assert_eq!(report.nodes[1].tasks, 0);
    }

    #[test]
    fn taskloop_into_reuses_caller_report() {
        let p = pool(presets::tiny_2x4());
        let mut report = LoopReport::default();
        let count = AtomicUsize::new(0);
        p.taskloop_into(
            0..256,
            Grain::Size(4),
            ExecMode::Flat,
            |r| {
                count.fetch_add(r.len(), Ordering::Relaxed);
            },
            &mut report,
        );
        assert_eq!(count.load(Ordering::Relaxed), 256);
        assert_eq!(report.tasks_executed(), 64);
        assert_eq!(report.threads, 8);
        // Stale contents are fully overwritten by the next invocation.
        p.taskloop_into(
            0..100,
            Grain::Size(5),
            ExecMode::WorkSharing,
            |_| {},
            &mut report,
        );
        assert_eq!(report.tasks_executed(), 20);
        assert_eq!(report.migrations, 0);
    }

    /// A plan whose only fault is a permanent stall of worker `w`.
    fn permanent_stall_plan(topo: &Topology, w: u32) -> FaultPlan {
        use ilan_faults::FaultConfig;
        // Scan seeds for one that permanently stalls exactly `w`; the plan
        // space is dense enough that a handful of seeds always suffices.
        let config = FaultConfig {
            max_worker_stalls: 1,
            permanent_stalls: true,
            max_stall_ns: 1_000_000,
            ..FaultConfig::none()
        };
        for seed in 0..10_000u64 {
            let p = FaultPlan::new(
                seed,
                topo.num_cores() as u32,
                topo.num_nodes() as u32,
                config,
            );
            if p.stalls().len() == 1 && p.stall_of(w).is_some_and(|s| s.permanent) {
                return p;
            }
        }
        panic!("no seed permanently stalls worker {w}");
    }

    #[test]
    fn permanently_stalled_worker_degrades_but_completes() {
        let topo = presets::tiny_2x4();
        let plan = permanent_stall_plan(&topo, 5);
        let p = ThreadPool::new(
            PoolConfig::new(topo)
                .pin(PinMode::Never)
                .watchdog(Duration::from_millis(10))
                .faults(plan),
        )
        .unwrap();
        for _ in 0..3 {
            let flags: Vec<AtomicUsize> = (0..500).map(|_| AtomicUsize::new(0)).collect();
            let start = Instant::now();
            let (report, log) = p.taskloop_traced(0..500, 5, ExecMode::Flat, |r| {
                for i in r {
                    flags[i].fetch_add(1, Ordering::Relaxed);
                }
            });
            // Degradation is bounded: two deadline windows plus the drain.
            assert!(
                start.elapsed() < Duration::from_secs(5),
                "degraded completion took {:?}",
                start.elapsed()
            );
            assert!(flags.iter().all(|f| f.load(Ordering::Relaxed) == 1));
            assert_eq!(report.tasks_executed(), 100);
            assert!(report.degraded, "a permanent stall must degrade the run");
            let audit = ilan_trace::audit(&log, &expect_from(&report));
            assert!(audit.ok(), "audit violations: {audit}");
        }
    }

    #[test]
    fn permanently_stalled_caller_slot_degrades_but_completes() {
        // Worker 0's slot is the caller's under Flat; a permanent stall
        // planned there leaves the slot to its (stalled) worker thread, so
        // the watchdog must rescue it exactly as for any other worker.
        let topo = presets::tiny_2x4();
        let plan = permanent_stall_plan(&topo, 0);
        let p = ThreadPool::new(
            PoolConfig::new(topo)
                .pin(PinMode::Never)
                .watchdog(Duration::from_millis(10))
                .faults(plan),
        )
        .unwrap();
        for _ in 0..3 {
            let flags: Vec<AtomicUsize> = (0..500).map(|_| AtomicUsize::new(0)).collect();
            let (report, log) = p.taskloop_traced(0..500, 5, ExecMode::Flat, |r| {
                for i in r {
                    flags[i].fetch_add(1, Ordering::Relaxed);
                }
            });
            assert!(flags.iter().all(|f| f.load(Ordering::Relaxed) == 1));
            assert_eq!(report.tasks_executed(), 100);
            assert!(report.degraded, "a permanent stall must degrade the run");
            let audit = ilan_trace::audit(&log, &expect_from(&report));
            assert!(audit.ok(), "audit violations: {audit}");
            assert_eq!(audit.claimed_workers, 1);
            assert!(
                !log.iter()
                    .any(|e| e.worker == 0 && matches!(e.kind, EventKind::ChunkStart { .. })),
                "the stalled slot must not run chunks"
            );
        }
    }

    #[test]
    fn permanently_stalled_worker_in_worksharing_mode() {
        let topo = presets::tiny_2x4();
        let plan = permanent_stall_plan(&topo, 2);
        let p = ThreadPool::new(
            PoolConfig::new(topo)
                .pin(PinMode::Never)
                .watchdog(Duration::from_millis(10))
                .faults(plan),
        )
        .unwrap();
        let flags: Vec<AtomicUsize> = (0..300).map(|_| AtomicUsize::new(0)).collect();
        let (report, log) = p.taskloop_traced(0..300, 3, ExecMode::WorkSharing, |r| {
            for i in r {
                flags[i].fetch_add(1, Ordering::Relaxed);
            }
        });
        assert!(flags.iter().all(|f| f.load(Ordering::Relaxed) == 1));
        assert!(report.degraded);
        let audit = ilan_trace::audit(&log, &expect_from(&report));
        assert!(audit.ok(), "audit violations: {audit}");
    }

    #[test]
    fn watchdog_without_faults_stays_quiet() {
        let p = ThreadPool::new(
            PoolConfig::new(presets::tiny_2x4())
                .pin(PinMode::Never)
                .watchdog(Duration::from_millis(200)),
        )
        .unwrap();
        let (report, log) = p.taskloop_traced(0..400, 4, ExecMode::Flat, |r| {
            std::hint::black_box(r.sum::<usize>());
        });
        assert!(!report.degraded);
        let audit = ilan_trace::audit(&log, &expect_from(&report));
        assert!(audit.ok(), "audit violations: {audit}");
        assert_eq!(audit.claimed_workers, 0);
    }

    #[test]
    fn slow_invocation_does_not_trip_the_watchdog() {
        // Each chunk outlasts the deadline, but progress keeps advancing:
        // the watchdog must keep re-arming instead of escalating.
        let p = ThreadPool::new(
            PoolConfig::new(presets::smp(2))
                .pin(PinMode::Never)
                .watchdog(Duration::from_millis(5)),
        )
        .unwrap();
        let report = p.taskloop(0..40, 1, ExecMode::Flat, |_| {
            std::thread::sleep(Duration::from_millis(2));
        });
        assert!(!report.degraded, "steady progress was mistaken for a stall");
        assert_eq!(report.tasks_executed(), 40);
    }

    #[test]
    fn chaos_plan_runs_audit_clean_across_seeds() {
        use ilan_faults::FaultConfig;
        // A fast chaos sweep at the pool level: every fault class the
        // runtime implements, several seeds, full invariant audit each run.
        let config = FaultConfig {
            max_stall_ns: 200_000, // keep temporary stalls test-fast
            ..FaultConfig::chaos()
        };
        for seed in 0..6u64 {
            let topo = presets::tiny_2x4();
            let plan = FaultPlan::new(
                seed,
                topo.num_cores() as u32,
                topo.num_nodes() as u32,
                config,
            );
            let p = ThreadPool::new(
                PoolConfig::new(topo)
                    .pin(PinMode::Never)
                    .watchdog(Duration::from_millis(10))
                    .faults(plan),
            )
            .unwrap();
            let mode = ExecMode::Hierarchical {
                mask: p.topology().all_nodes(),
                threads: 0,
                strict_fraction: 0.5,
                policy: StealPolicy::Full,
            };
            let flags: Vec<AtomicUsize> = (0..400).map(|_| AtomicUsize::new(0)).collect();
            let (report, log) = p.taskloop_traced(0..400, 4, mode, |r| {
                for i in r {
                    flags[i].fetch_add(1, Ordering::Relaxed);
                }
            });
            assert!(
                flags.iter().all(|f| f.load(Ordering::Relaxed) == 1),
                "seed {seed}: lost or repeated iterations"
            );
            let audit = ilan_trace::audit(&log, &expect_from(&report));
            assert!(audit.ok(), "seed {seed}: audit violations: {audit}");
        }
    }

    #[test]
    fn traced_runs_reuse_rings_across_invocations() {
        let p = pool(presets::tiny_2x4());
        let mode = ExecMode::Hierarchical {
            mask: p.topology().all_nodes(),
            threads: 0,
            strict_fraction: 1.0,
            policy: StealPolicy::Strict,
        };
        let (first_report, first_log) = p.taskloop_traced(0..256, 4, mode.clone(), |_| {});
        for _ in 0..3 {
            let (report, log) = p.taskloop_traced(0..256, 4, mode.clone(), |_| {});
            let audit = ilan_trace::audit(&log, &expect_from(&report));
            assert!(audit.ok(), "audit violations: {audit}");
            assert_eq!(audit.chunks, 64);
        }
        // The first log is an owned snapshot, unaffected by ring reuse.
        let audit = ilan_trace::audit(&first_log, &expect_from(&first_report));
        assert!(audit.ok(), "first log corrupted by reuse: {audit}");
    }
}
