//! The worker pool and taskloop execution engine.
//!
//! # Hot-path architecture
//!
//! The pool executes one taskloop at a time. All per-invocation state lives
//! in a persistent **dispatch arena** owned by the pool ([`RunData`] inside
//! [`Shared`]): the chunk table, the active-worker flags and the completion
//! latch are allocated once and reused, so a warm invocation performs no
//! heap allocation on the dispatch path.
//!
//! # Range cursors
//!
//! Every chunk of a taskloop is known at dispatch and no chunk spawns
//! another, so a node's share is one contiguous run of chunk indices:
//! its NUMA-strict chunks first, then the stealable tail
//! ([`ChunkAssignment::chunks_of_rank`]). Each node holds that run in one
//! [`Cursor`] word packing `(head, tail)`. The node's workers claim from the
//! head with a `fetch_add`; under [`StealPolicy::Full`] a worker whose own
//! cursor is exhausted walks the other nodes nearest-first and claims one
//! chunk at a time off a tail with a compare-exchange, only while the tail
//! lies past both the head and the node's strict end. [`ExecMode::Flat`]
//! uses one global cursor over every chunk; [`ExecMode::WorkSharing`] keeps
//! fixed per-worker slices. This is the locality-queue design of Wittmann
//! & Hager: no queue, no lock and no per-chunk push on any path.
//!
//! Workers sleep on private [`SleepSlot`]s (an eventcount each) instead of a
//! global mutex/condvar. The dispatcher publishes a fresh epoch token into
//! exactly the slots of the workers a loop activates, so a taskloop confined
//! to a 2-node mask never wakes the other nodes' workers at all. The token
//! encodes participation in its low bit — a worker woken without it (by the
//! watchdog's stage-1 re-post or at shutdown) goes straight back to sleep
//! without ever dereferencing the arena.
//!
//! # The caller works
//!
//! As in OpenMP, the thread that reaches a taskloop is the primary thread of
//! the team it launches. The dispatcher holds the slot of the primary core
//! of the placement mask's first node (worker 0 under [`ExecMode::Flat`]
//! and [`ExecMode::WorkSharing`]), posts wakeups to the other N−1 members
//! only, and then runs the same `work` loop as a worker — its static slice,
//! or claims from its node's cursor and steals as the policy allows. The
//! slot's own worker thread sits out the invocation, so the slot's trace
//! ring keeps a single producer. The dispatcher is
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
//! 1. the dispatcher, holding the dispatch lock, mutates [`RunData`] and
//!    rewrites every cursor while no worker is active (the previous
//!    invocation's exit latch has released);
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
//!
//! # Phases
//!
//! A dispatched invocation is four steps of the dispatcher: **fill** the
//! arena (chunk table, cursors, team, trace rings), **post** the epoch
//! tokens, **wait** (work its own slot, then block on the exit latch under
//! the watchdog), and **collect** the report, the metrics and the trace.
//!
//! # Accounting
//!
//! Every chunk runs through one executor, [`execute_chunk`], which counts
//! it once: as a local pop when it runs on its home node, as an inter-node
//! steal (one migration) otherwise. A team member keeps that count in its
//! private `WorkerTally` and flushes it into its node's counters once per
//! invocation. The [`LoopReport`] is read from those counters alone —
//! `tasks` is pops plus steals, `local_tasks` the pops, `migrations` the
//! steals — and the dispatcher adds the acquisition counters of
//! [`PoolMetrics`] from the finished report. The stage-2 drain runs the
//! same executor on the dispatcher ring, attributing each chunk to its
//! home node. The trace, when recorded, stays the independent check.

use crate::latch::CountLatch;
use crate::metrics::PoolMetrics;
use crate::pin::{bind_caller, pin_current_thread, PinMode};
use crate::report::{LoopReport, NodeReport};
use crate::sleep::sys::AtomicU64 as ClaimWord;
use crate::sleep::SleepSlot;
use crossbeam_utils::CachePadded;
use ilan_faults::FaultPlan;
use ilan_metrics::{FlightDump, FlightReason, ShardedCounter};
use ilan_topology::{
    active_cores, strict_count, ChunkAssignment, CoreId, ExecMode, NodeId, NodeMask, StealPolicy,
    Topology,
};
use ilan_trace::{EventKind, EventLog, FaultTag, TraceSet, DISPATCHER};
use parking_lot::Mutex;
use std::cell::UnsafeCell;
use std::ops::Range;
use std::panic::AssertUnwindSafe;
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Loops of at most this many iterations (or resolving to a single chunk,
/// or to a team of one worker on one node) run inline on the calling thread
/// by default: below this size the fixed dispatch cost — wakeups, cursor
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
    /// ([`PoolMetrics`]): counters, histograms and the flight recorder,
    /// which keeps the per-worker trace rings filled on untraced dispatched
    /// invocations so an anomaly can dump the complete invocation
    /// retrospectively (ring writes are its only cost until one fires).
    /// Default `true`; `repro metrics` turns it off to measure what the
    /// panel costs.
    pub metrics: bool,
}

impl PoolConfig {
    /// Configuration with default (auto) pinning and the default inline
    /// threshold.
    pub fn new(topology: Topology) -> Self {
        PoolConfig {
            topology,
            pin: PinMode::Auto,
            inline_threshold: DEFAULT_INLINE_THRESHOLD,
            watchdog: None,
            faults: None,
            metrics: true,
        }
    }

    /// Sets the pinning mode.
    pub fn pin(mut self, pin: PinMode) -> Self {
        self.pin = pin;
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

    /// Enables or disables the instrument panel, flight recorder included
    /// (default on).
    pub fn metrics(mut self, on: bool) -> Self {
        self.metrics = on;
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

/// Which acquisition discipline the current invocation uses.
#[derive(Clone, Copy)]
enum Discipline {
    /// Every worker claims from the global cursor.
    Flat,
    /// Each worker claims from its node's cursor, then steals as `policy`
    /// allows.
    Hier { policy: StealPolicy },
    /// Each worker runs its fixed slice.
    Static,
}

/// What the post and wait phases saw of one invocation, for `collect`.
struct Observed {
    /// Arena fill plus wakeup posting, ns.
    dispatch_ns: u64,
    /// Epoch tokens posted.
    wakeups: u64,
    /// Fault-plan injections that hit the invocation.
    faults: u64,
    /// Watchdog escalation stage reached (0: none).
    stage: u8,
    /// Publication of the arena to exit-latch release.
    makespan: Duration,
}

/// Largest chunk count a dispatched invocation may have. A claimant that
/// finds a cursor exhausted still advances its head once, and every cursor
/// is rewritten at dispatch, so a head never passes `num_chunks` plus one
/// step per claimant (the workers and the stage-2 drain). Indices up to
/// 2^31 leave the head's 32-bit half that much room, so a head overshoot
/// can never carry into the tail.
const MAX_CHUNKS: usize = 1 << 31;

/// A run of unclaimed chunk indices `head..tail`, packed into one word
/// (head in the low half) so that a claim from either end is a single
/// atomic operation.
///
/// The word only hands out indices. The chunk table they index is
/// published by the epoch token like the rest of the arena, so relaxed
/// orderings suffice: each chunk is claimed exactly once because every
/// claim is a read-modify-write of the same word.
struct Cursor(ClaimWord);

impl Cursor {
    fn new() -> Self {
        Cursor(ClaimWord::new(0))
    }

    #[inline]
    fn pack(head: usize, tail: usize) -> u64 {
        ((tail as u64) << 32) | head as u64
    }

    #[inline]
    fn unpack(word: u64) -> (usize, usize) {
        ((word & u64::from(u32::MAX)) as usize, (word >> 32) as usize)
    }

    /// Hands out `range`: written by the dispatcher before the epoch
    /// tokens publish it.
    fn set(&self, range: Range<usize>) {
        self.0
            .store(Self::pack(range.start, range.end), Ordering::Relaxed);
    }

    /// Whether every chunk has been claimed.
    fn is_exhausted(&self) -> bool {
        let (head, tail) = Self::unpack(self.0.load(Ordering::Relaxed));
        head >= tail
    }

    /// Claims the chunk at the head: a local acquisition. An exhausted
    /// cursor still advances its head (see [`MAX_CHUNKS`]).
    #[inline]
    fn claim_head(&self) -> Option<usize> {
        let (head, tail) = Self::unpack(self.0.fetch_add(1, Ordering::Relaxed));
        (head < tail).then_some(head)
    }

    /// Claims the chunk at the tail, only while the tail lies past both the
    /// head and `strict_end`: a remote steal, which never takes one of the
    /// NUMA-strict chunks below `strict_end`.
    fn steal_tail(&self, strict_end: usize) -> Option<usize> {
        let mut word = self.0.load(Ordering::Relaxed);
        loop {
            let (head, tail) = Self::unpack(word);
            if tail <= head.max(strict_end) {
                return None;
            }
            match self.0.compare_exchange(
                word,
                Self::pack(head, tail - 1),
                Ordering::Relaxed,
                Ordering::Relaxed,
            ) {
                Ok(_) => return Some(tail - 1),
                Err(now) => word = now,
            }
        }
    }
}

/// One node's share of the invocation's tally: the chunks its members
/// acquired locally and by inter-node steal, and their body time. Every
/// [`NodeReport`] field and the report's migrations derive from these.
/// Each instance is wrapped in `CachePadded` inside [`Shared::node_stats`]
/// so two nodes' counters never share a cache line (workers of different
/// nodes would otherwise false-share on flush).
#[derive(Default)]
struct NodeAtomics {
    local_pops: AtomicUsize,
    inter_steals: AtomicUsize,
    busy_ns: AtomicU64,
}

impl NodeAtomics {
    fn reset(&self) {
        self.local_pops.store(0, Ordering::Relaxed);
        self.inter_steals.store(0, Ordering::Relaxed);
        self.busy_ns.store(0, Ordering::Relaxed);
    }

    /// The node's report, read after the exit latch released.
    fn report(&self) -> NodeReport {
        let local_tasks = self.local_pops.load(Ordering::Acquire);
        NodeReport {
            tasks: local_tasks + self.inter_steals.load(Ordering::Acquire),
            local_tasks,
            busy: Duration::from_nanos(self.busy_ns.load(Ordering::Acquire)),
        }
    }
}

/// The dispatch arena: all mutable per-invocation state, reused across the
/// pool's lifetime. Mutated only by the dispatcher between invocations (see
/// the module-level protocol); read by participating workers during one.
struct RunData {
    body: BodyPtr,
    kind: Discipline,
    chunks: Vec<Chunk>,
    /// Per node, the end of its NUMA-strict chunks: remote thieves stop
    /// there (hierarchical mode only).
    strict_end: Vec<usize>,
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

/// The trace ring an event goes to: a team member's slot, or the
/// dispatcher's own ring (placements, faults, degradation and the stage-2
/// drain).
#[derive(Clone, Copy)]
enum Ring {
    Worker(usize),
    Dispatcher,
}

impl RunData {
    /// Records an event when tracing is on; a single predictable branch
    /// otherwise.
    #[inline]
    fn emit(&self, ring: Ring, node: NodeId, kind: EventKind) {
        self.emit_at(ring, node, Instant::now(), kind);
    }

    /// Like [`emit`](Self::emit), but stamped with an [`Instant`] the caller
    /// already holds — the hot path reuses the clock reads it takes anyway
    /// (chunk timing, acquisition overhead) instead of paying one more per
    /// event.
    #[inline]
    fn emit_at(&self, ring: Ring, node: NodeId, at: Instant, kind: EventKind) {
        if let Some(trace) = &self.trace {
            let (ring, id) = match ring {
                Ring::Worker(w) => (trace.ring(w), w as u32),
                Ring::Dispatcher => (trace.dispatcher(), DISPATCHER),
            };
            ring.push(
                id,
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
    /// Per node, the other nodes nearest-first: the remote-steal sweep
    /// order, computed once so an idle sweep allocates nothing.
    remote_order: Vec<Vec<NodeId>>,
    /// The global cursor of [`ExecMode::Flat`].
    flat: CachePadded<Cursor>,
    /// One cursor per node, each on its own cache line.
    cursors: Vec<CachePadded<Cursor>>,
    /// The dispatch arena (see module docs for the access protocol).
    run: UnsafeCell<RunData>,
    /// Per-node tallies, one cache line each.
    node_stats: Vec<CachePadded<NodeAtomics>>,
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
    /// With it, untraced dispatched invocations keep the trace rings filled
    /// for the flight recorder.
    metrics: Option<PoolMetrics>,
}

// SAFETY: the `UnsafeCell<RunData>` is governed by the epoch/latch protocol
// documented at module level — the dispatcher only takes `&mut` while no
// other thread holds `&` (before posting tokens / after the exit latch
// releases), and workers only take `&` inside their participation window.
// Every other field is inherently Sync.
unsafe impl Sync for Shared {}

impl Shared {
    /// Every cursor, the global one first.
    fn all_cursors(&self) -> impl Iterator<Item = &Cursor> {
        std::iter::once(&*self.flat).chain(self.cursors.iter().map(|c| &**c))
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
    /// Serializes invocations.
    dispatch_lock: Mutex<()>,
    /// Per core, whether its worker thread was pinned to it; the caller
    /// binds itself to its slot's core only where the worker could be.
    pinned: Vec<bool>,
    inline_threshold: usize,
}

impl ThreadPool {
    /// Spawns one worker per topology core.
    pub fn new(config: PoolConfig) -> Result<Self, PoolError> {
        let cores = config.topology.num_cores();
        let num_nodes = config.topology.num_nodes();
        let shared = Arc::new(Shared {
            topology: config.topology.clone(),
            shutdown: AtomicBool::new(false),
            epoch: AtomicU64::new(0),
            slots: (0..cores).map(|_| SleepSlot::new()).collect(),
            remote_order: (0..num_nodes)
                .map(|n| {
                    config
                        .topology
                        .distances()
                        .neighbors_by_distance(NodeId::new(n))
                })
                .collect(),
            flat: CachePadded::new(Cursor::new()),
            cursors: (0..num_nodes)
                .map(|_| CachePadded::new(Cursor::new()))
                .collect(),
            run: UnsafeCell::new(RunData {
                body: BodyPtr::noop(),
                kind: Discipline::Flat,
                chunks: Vec::new(),
                strict_end: vec![0; num_nodes],
                active: Vec::new(),
                static_slices: Vec::new(),
                threads: 0,
                caller: None,
                trace: None,
                trace_cache: None,
                t0: Instant::now(),
            }),
            node_stats: (0..num_nodes)
                .map(|_| CachePadded::new(NodeAtomics::default()))
                .collect(),
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
        });

        let pin_results: Arc<Vec<AtomicBool>> =
            Arc::new((0..cores).map(|_| AtomicBool::new(false)).collect());
        let ready = Arc::new(CountLatch::new(cores));

        let mut handles = Vec::with_capacity(cores);
        for i in 0..cores {
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
                    worker_main(&shared, i);
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
            dispatch_lock: Mutex::new(()),
            pinned,
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
    /// iterations (0 counts as 1), under the given execution mode. Blocks
    /// until every chunk has executed and all participating workers have
    /// quiesced (the taskloop's implicit barrier), then returns the
    /// invocation report.
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
        let mut report = LoopReport::default();
        self.run_loop(range, grainsize, mode, &body, false, &mut report);
        report
    }

    /// Like [`taskloop`](Self::taskloop), writing the statistics into a
    /// caller-provided report instead of returning a fresh one. The
    /// report's node vector is reused (cleared and refilled), so an
    /// iterative caller invoking many loops allocates nothing per
    /// invocation once warm.
    pub fn taskloop_into<F>(
        &self,
        range: Range<usize>,
        grainsize: usize,
        mode: ExecMode,
        body: F,
        report: &mut LoopReport,
    ) where
        F: Fn(Range<usize>) + Sync,
    {
        self.run_loop(range, grainsize, mode, &body, false, report);
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
        let mut report = LoopReport::default();
        let log = self.run_loop(range, grainsize, mode, &body, true, &mut report);
        (report, log.expect("traced run always yields a log"))
    }

    fn run_loop(
        &self,
        range: Range<usize>,
        grainsize: usize,
        mode: ExecMode,
        body: &(dyn Fn(Range<usize>) + Sync),
        traced: bool,
        report: &mut LoopReport,
    ) -> Option<EventLog> {
        let grainsize = grainsize.max(1);
        let len = range.len();
        let num_chunks = len.div_ceil(grainsize);

        // Validate hierarchical parameters before choosing a path, so the
        // inline shortcut rejects exactly what the dispatch path rejects.
        // A team of one — one worker, hence one node — runs sequentially on
        // the caller, like OpenMP's `num_threads(1)`.
        let team_of_one = match &mode {
            ExecMode::Hierarchical {
                mask,
                threads,
                strict_fraction,
                ..
            } => {
                let mut team = active_cores(self.topology(), *mask, *threads);
                assert!(
                    (0.0..=1.0).contains(strict_fraction),
                    "strict_fraction must be in [0,1]"
                );
                team.nth(1).is_none()
            }
            ExecMode::Flat | ExecMode::WorkSharing => self.num_workers() == 1,
        };

        // Sequential inline fast path: a loop too small to amortize a
        // dispatch — or one that is sequential anyway, being a single chunk
        // or a team of one — runs on the calling thread with no wakeups, no
        // cursor traffic and no trace-ring writes.
        if !traced && (len <= self.inline_threshold || num_chunks <= 1 || team_of_one) {
            self.run_inline(range, grainsize, num_chunks, &mode, body, report);
            if let Some(m) = &self.shared.metrics {
                m.loops_inline.inc();
            }
            return None;
        }

        assert!(
            num_chunks <= MAX_CHUNKS,
            "{num_chunks} chunks exceed the dispatch limit of {MAX_CHUNKS}"
        );
        let _serial = self.dispatch_lock.lock();
        let dispatch_start = Instant::now();
        let epoch = self.fill(range, grainsize, &mode, body, traced);
        // Publication: the arena is complete; from here only shared
        // references exist until the exit latch releases.
        // SAFETY: `fill`'s `&mut` has ended; workers also only take `&`.
        let rd = unsafe { &*self.shared.run.get() };
        let start = Instant::now();
        let (wakeups, faults) = self.post(rd, epoch);
        let dispatch_ns = dispatch_start.elapsed().as_nanos() as u64;
        let stage = self.wait(rd, epoch);
        let seen = Observed {
            dispatch_ns,
            wakeups,
            faults,
            stage,
            makespan: start.elapsed(),
        };
        self.collect(seen, traced, report)
    }

    /// Fill: writes the invocation into the arena — trace rings, chunk
    /// table, cursors, team, the dispatcher's slot and the body — and
    /// resets the tallies and the exit latch. Returns the invocation's
    /// epoch.
    fn fill(
        &self,
        range: Range<usize>,
        grainsize: usize,
        mode: &ExecMode,
        body: &(dyn Fn(Range<usize>) + Sync),
        traced: bool,
    ) -> u64 {
        let shared = &*self.shared;
        let topo = &shared.topology;
        let all_workers = self.num_workers();
        let num_chunks = range.len().div_ceil(grainsize);

        // Chunks are placed on the mask's nodes in hierarchical mode (that
        // assignment defines a migration, per the paper); on the blocked
        // first-touch layout over all nodes otherwise, so locality
        // statistics are comparable across modes.
        let home_mask = placement_mask(topo, mode);
        let assignment = ChunkAssignment::new(home_mask, num_chunks.max(1));
        let epoch = shared.epoch.fetch_add(1, Ordering::Relaxed) + 1;

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
        rd.trace = if traced || shared.metrics.is_some() {
            // Generous ring bounds: a worker emits at most one
            // acquisition, one start, and one end per chunk, plus its
            // latch release and a possible steal-refusal marker; the
            // dispatcher one enqueue per chunk — plus, under an armed
            // watchdog, fault markers, degradation events and a full
            // drain (acquire+start+end per chunk) in the worst case.
            let need_worker = 3 * num_chunks + 8;
            let need_disp = if shared.watchdog.is_some() {
                4 * num_chunks + 2 * all_workers + topo.num_nodes() + 8
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
        // Every cursor restarts empty, so a head overshoots by at most
        // one step per claimant of this invocation (see `MAX_CHUNKS`).
        for cursor in shared.all_cursors() {
            debug_assert!(
                cursor.is_exhausted(),
                "the previous invocation left chunks unclaimed"
            );
            cursor.set(0..0);
        }

        rd.kind = match mode {
            ExecMode::Flat => {
                rd.active.iter_mut().for_each(|a| *a = true);
                shared.flat.set(0..num_chunks);
                Discipline::Flat
            }
            ExecMode::WorkSharing => {
                rd.active.iter_mut().for_each(|a| *a = true);
                rd.static_slices.clear();
                for w in 0..all_workers {
                    let lo = w * num_chunks / all_workers;
                    let hi = (w + 1) * num_chunks / all_workers;
                    rd.static_slices.push(lo..hi);
                }
                Discipline::Static
            }
            ExecMode::Hierarchical {
                mask,
                threads,
                strict_fraction,
                policy,
            } => {
                for core in active_cores(topo, *mask, *threads) {
                    rd.active[core.index()] = true;
                }
                // Hand each node its contiguous run of chunks: the first
                // `strict_count` stay NUMA-strict, the tail is stealable.
                for (rank, node) in mask.iter().enumerate() {
                    let idxs = assignment.chunks_of_rank(rank);
                    rd.strict_end[node.index()] =
                        idxs.start + strict_count(idxs.len(), *policy, *strict_fraction);
                    shared.cursors[node.index()].set(idxs);
                }
                Discipline::Hier { policy: *policy }
            }
        };
        if let Some(trace) = &rd.trace {
            // One timestamp for every placement: the enqueues span a few
            // microseconds and ring order already fixes their sequence, so
            // per-chunk clock reads buy nothing on the dispatch path.
            let at_ns = rd.t0.elapsed().as_nanos() as u64;
            let ring = trace.dispatcher();
            let hier = matches!(rd.kind, Discipline::Hier { .. });
            for (idx, c) in rd.chunks.iter().enumerate() {
                let home = c.home.index();
                let enqueue = EventKind::ChunkEnqueue {
                    chunk: idx as u32,
                    home: home as u32,
                    strict: hier && idx < rd.strict_end[home],
                };
                ring.push(DISPATCHER, home as u32, at_ns, enqueue);
            }
        }

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
        shared.overhead_ns.store(0, Ordering::Relaxed);
        shared.exit_latch.reset(rd.threads);
        epoch
    }

    /// Post: re-opens the team's claims under an armed watchdog, records
    /// the fault plan's injections for this invocation, and posts the epoch
    /// token to every team member but the dispatcher's own slot, skipping
    /// the wakeups the plan drops. Returns the tokens posted and the faults
    /// that hit the invocation.
    fn post(&self, rd: &RunData, epoch: u64) -> (u64, u64) {
        let shared = &*self.shared;
        let topo = &shared.topology;
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
        let node_of = |w: usize| topo.node_of_core(CoreId::new(w));
        let mut faults: u64 = 0;
        if let Some(plan) = &shared.faults {
            for &w in plan.stalls().keys() {
                if (w as usize) < rd.active.len() && rd.active[w as usize] {
                    faults += 1;
                    rd.emit(
                        Ring::Dispatcher,
                        node_of(w as usize),
                        EventKind::FaultInjected {
                            fault: FaultTag::WorkerStall,
                            target: w,
                        },
                    );
                }
            }
            for &n in plan.slow_nodes().keys() {
                if (n as usize) < topo.num_nodes() {
                    faults += 1;
                    rd.emit(
                        Ring::Dispatcher,
                        NodeId::new(n as usize),
                        EventKind::FaultInjected {
                            fault: FaultTag::SlowNode,
                            target: n,
                        },
                    );
                }
            }
        }
        let run_token = (epoch << 1) | 1;
        let mut wakeups: u64 = 0;
        for (i, &a) in rd.active.iter().enumerate() {
            if !a || rd.caller == Some(i) {
                continue;
            }
            if shared
                .faults
                .as_ref()
                .is_some_and(|p| p.drops_wakeup(epoch, i as u32))
            {
                faults += 1;
                rd.emit(
                    Ring::Dispatcher,
                    node_of(i),
                    EventKind::FaultInjected {
                        fault: FaultTag::DroppedWakeup,
                        target: i as u32,
                    },
                );
                continue;
            }
            shared.slots[i].post(run_token);
            wakeups += 1;
        }
        (wakeups, faults)
    }

    /// Wait: works the dispatcher's slot through the same claim a worker
    /// makes (a stage-1 re-post that wakes the slot's thread then finds the
    /// slot taken and stays out), then blocks on the exit latch, under the
    /// watchdog when one is armed. Returns the escalation stage reached.
    fn wait(&self, rd: &RunData, epoch: u64) -> u8 {
        let shared = &*self.shared;
        if let Some(slot) = rd.caller {
            if self.pinned[slot] {
                bind_caller(CoreId::new(slot));
            }
            if shared.watchdog.is_none() || claim(&shared.claims[slot], epoch, CLAIM_WORKER) {
                participate(shared, slot, None);
            }
        }
        match shared.watchdog {
            None => {
                shared.exit_latch.wait();
                0
            }
            Some(deadline) => guarded_wait(shared, rd, epoch, deadline),
        }
    }

    /// Collect: reads the report off the node tallies, records the
    /// dispatcher's metrics and hands back the trace: the caller's log when
    /// traced, a flight dump when an untraced invocation was anomalous.
    fn collect(&self, seen: Observed, traced: bool, report: &mut LoopReport) -> Option<EventLog> {
        let shared = &*self.shared;
        let num_nodes = shared.topology.num_nodes();
        // SAFETY: all workers have quiesced (the exit latch released), and
        // the dispatcher's shared reborrow of the arena is dead.
        let rd = unsafe { &mut *shared.run.get() };
        rd.body = BodyPtr::noop();

        report.nodes.clear();
        report
            .nodes
            .extend(shared.node_stats.iter().map(|s| s.report()));
        report.migrations = report.nodes.iter().map(|n| n.tasks - n.local_tasks).sum();
        if let Some(m) = &shared.metrics {
            let local_pops: usize = report.nodes.iter().map(|n| n.local_tasks).sum();
            m.acq_local_pop.add(local_pops as u64);
            m.acq_inter_steal.add(report.migrations as u64);
        }
        if let Some(payload) = shared.panic.lock().take() {
            std::panic::resume_unwind(payload);
        }
        report.makespan = seen.makespan;
        report.sched_overhead = Duration::from_nanos(shared.overhead_ns.load(Ordering::Acquire));
        report.threads = rd.threads;
        report.degraded = seen.stage > 0;

        // Dispatcher-side metrics: a few relaxed counter bumps and two
        // histogram samples per dispatched invocation. The tail tracker
        // owns `loop_ns`, so observing the makespan also records it.
        let mut tail_breach: Option<(u64, u64)> = None;
        if let Some(m) = &shared.metrics {
            m.loops_dispatched.inc();
            m.dispatch_ns.record(seen.dispatch_ns);
            m.wakeups.add(seen.wakeups);
            match seen.stage {
                1 => m.degraded_stage1.inc(),
                2 => m.degraded_stage2.inc(),
                _ => {}
            }
            if seen.faults > 0 {
                m.faults_injected.add(seen.faults);
            }
            let mk = seen.makespan.as_nanos() as u64;
            if let Some(threshold_ns) = m.tail.observe(mk) {
                tail_breach = Some((mk, threshold_ns));
            }
        }

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
            let reason = if seen.stage > 0 {
                Some(FlightReason::Degraded { stage: seen.stage })
            } else if seen.faults > 0 {
                Some(FlightReason::FaultInjected { count: seen.faults })
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
}

/// The nodes an invocation's chunks are assigned to: the mask in
/// hierarchical mode, every node otherwise.
fn placement_mask(topo: &Topology, mode: &ExecMode) -> NodeMask {
    match mode {
        ExecMode::Hierarchical { mask, .. } => *mask,
        ExecMode::Flat | ExecMode::WorkSharing => topo.all_nodes(),
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

/// Deadline-bounded latch wait with two escalation stages. Returns the
/// highest escalation stage reached (0 = finished without help).
///
/// Stage 0 waits out `deadline`, re-arming while chunks keep completing —
/// slow progress is not a stall. Stage 1 degrades the targeted wakeups to a
/// broadcast re-post of the same tokens (repairing dropped wakeups;
/// re-posting is idempotent because `SleepSlot::wait` only returns on an
/// epoch *change*). Stage 2 claims every active worker that never started
/// participating and executes their chunks on the dispatcher, counting the
/// latch down on their behalf, then waits unboundedly for the workers that
/// did start.
fn guarded_wait(shared: &Shared, rd: &RunData, epoch: u64, deadline: Duration) -> u8 {
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
    let degraded = |stage, count| EventKind::Degraded { stage, count };
    rd.emit(Ring::Dispatcher, NodeId::new(0), degraded(1, 0));
    for (i, &a) in rd.active.iter().enumerate() {
        shared.slots[i].post((epoch << 1) | u64::from(a));
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
        let count = claimed.len() as u32;
        rd.emit(Ring::Dispatcher, NodeId::new(0), degraded(2, count));
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
/// static slices; otherwise the claimed workers own nothing, so the drain
/// claims from the head of every cursor until each is exhausted — healthy
/// workers racing it is fine, every claim is exactly-once.
///
/// Each chunk runs on the dispatcher ring attributed to its home node: the
/// drain substitutes for that node's claimed worker, so the chunk counts as
/// a local pop there and the audit's confinement rules keep holding.
fn drain_on_dispatcher(shared: &Shared, rd: &RunData, claimed: &[usize]) {
    let drain = |chunk_idx: usize| {
        let home = rd.chunks[chunk_idx].home;
        let mut tally = WorkerTally::default();
        execute_chunk(
            shared,
            rd,
            chunk_idx,
            Ring::Dispatcher,
            home,
            Instant::now(),
            &mut tally,
        );
        tally.flush(shared, home, 0);
    };
    if let Discipline::Static = rd.kind {
        for &i in claimed {
            for chunk_idx in rd.static_slices[i].clone() {
                drain(chunk_idx);
            }
        }
        return;
    }
    for cursor in shared.all_cursors() {
        while let Some(chunk_idx) = cursor.claim_head() {
            drain(chunk_idx);
        }
    }
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

fn worker_main(shared: &Shared, index: usize) {
    let mut seen = 0u64;
    loop {
        let park_start = Instant::now();
        seen = shared.slots[index].wait(seen);
        let park_ns = park_start.elapsed().as_nanos() as u64;
        if shared.shutdown.load(Ordering::Acquire) {
            return;
        }
        if seen & 1 == 0 {
            // Woken without the participate bit (a stage-1 re-post to an
            // inactive worker, or shutdown): this invocation is not ours — and crucially we must
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
        participate(shared, index, Some(park_ns));
    }
}

/// One team member's share of an invocation: the `work` loop over slot
/// `index`, then its latch release. Run by the slot's worker thread, or by
/// the dispatcher when it works the slot — under an armed watchdog, only by
/// whichever of them won the slot's claim. `park_ns` is `None` for the
/// dispatcher, which never parked.
fn participate(shared: &Shared, index: usize, park_ns: Option<u64>) {
    {
        // SAFETY: the arena is published to this member — by the slot's
        // epoch token for a worker (release via the slot epoch store), by
        // program order for the dispatcher, which wrote it — and the
        // dispatcher takes no `&mut` until every member has passed the
        // exit-latch decrement below.
        let run = unsafe { &*shared.run.get() };
        let done_at = work(shared, run, index, park_ns);
        let node = shared.topology.node_of_core(CoreId::new(index));
        run.emit_at(Ring::Worker(index), node, done_at, EventKind::LatchRelease);
    }
    shared.exit_latch.count_down();
}

/// Statistics a team member accumulates privately during one invocation
/// and flushes exactly once at the end — the hot loop touches no shared
/// counter, so workers never contend (or false-share) on statistics cache
/// lines. Each chunk is one acquisition, a local pop or an inter-node
/// steal; the report derives its task, locality and migration counts from
/// those two. The probe counts feed only the steal metrics.
#[derive(Default)]
struct WorkerTally {
    local_pops: usize,
    inter_steals: usize,
    busy_ns: u64,
    overhead_ns: u64,
    /// Sleep before this invocation; `None` for the dispatcher.
    park_ns: Option<u64>,
    attempts_remote: u64,
    hits_remote: u64,
}

impl WorkerTally {
    /// Adds the tally to `node`'s counters, and its park time and steal
    /// probes to the metrics (`shard` picks the counters' shard). Relaxed
    /// stores suffice: the exit-latch decrement (AcqRel) that follows the
    /// flush is what the dispatcher's latch wait synchronises with before
    /// reading.
    fn flush(self, shared: &Shared, node: NodeId, shard: usize) {
        let stats = &shared.node_stats[node.index()];
        stats
            .local_pops
            .fetch_add(self.local_pops, Ordering::Relaxed);
        stats
            .inter_steals
            .fetch_add(self.inter_steals, Ordering::Relaxed);
        stats.busy_ns.fetch_add(self.busy_ns, Ordering::Relaxed);
        shared
            .overhead_ns
            .fetch_add(self.overhead_ns, Ordering::Relaxed);
        if let Some(m) = &shared.metrics {
            if let Some(ns) = self.park_ns {
                m.park_ns.record(ns);
            }
            // Zero tallies stay unflushed: the common no-steal invocation
            // does no RMW here at all.
            let add = |c: &ShardedCounter, n: u64| {
                if n > 0 {
                    c.add(shard, n);
                }
            };
            add(&m.steal_attempts_remote, self.attempts_remote);
            add(&m.steal_hits_remote, self.hits_remote);
        }
    }
}

/// The one chunk executor, for team members and the stage-2 drain alike:
/// counts the acquisition (a local pop when `node` is the chunk's home, an
/// inter-node steal — one migration — otherwise), runs the body, captures a
/// panic, and records the acquisition, start and end on `ring`.
/// `acquired_at` stamps the acquisition event.
fn execute_chunk(
    shared: &Shared,
    run: &RunData,
    chunk_idx: usize,
    ring: Ring,
    node: NodeId,
    acquired_at: Instant,
    tally: &mut WorkerTally,
) {
    let chunk = &run.chunks[chunk_idx];
    let idx = chunk_idx as u32;
    if chunk.home == node {
        tally.local_pops += 1;
        run.emit_at(ring, node, acquired_at, EventKind::LocalPop { chunk: idx });
    } else {
        tally.inter_steals += 1;
        let from = chunk.home.index() as u32;
        let steal = EventKind::InterNodeSteal { chunk: idx, from };
        run.emit_at(ring, node, acquired_at, steal);
    }
    let body_start = Instant::now();
    run.emit_at(ring, node, body_start, EventKind::ChunkStart { chunk: idx });
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
        let factor = plan.node_slowdown(node.index() as u32);
        if factor > 1.0 {
            let target = elapsed.mul_f64(factor);
            while body_start.elapsed() < target {
                std::hint::spin_loop();
            }
            elapsed = target;
        }
    }

    tally.busy_ns += elapsed.as_nanos() as u64;
    let end = EventKind::ChunkEnd { chunk: idx };
    run.emit_at(ring, node, body_start + elapsed, end);
    if shared.watchdog.is_some() {
        // Progress heartbeat: the watchdog re-arms its deadline while this
        // advances, so slow invocations are never mistaken for stalled ones.
        shared.progress.fetch_add(1, Ordering::Relaxed);
    }
}

/// Claims and runs chunks until no work is reachable for this worker.
/// Returns the instant the worker observed no more reachable work, so the
/// caller can stamp its latch-release event without another clock read.
fn work(shared: &Shared, run: &RunData, index: usize, park_ns: Option<u64>) -> Instant {
    let my_node = shared.topology.node_of_core(CoreId::new(index));
    let ring = Ring::Worker(index);
    let mut tally = WorkerTally {
        park_ns,
        ..WorkerTally::default()
    };

    let (mut own, steal) = match run.kind {
        Discipline::Static => {
            // Work-sharing: drain the private slice, nothing to steal.
            for chunk_idx in run.static_slices[index].clone() {
                execute_chunk(
                    shared,
                    run,
                    chunk_idx,
                    ring,
                    my_node,
                    Instant::now(),
                    &mut tally,
                );
            }
            tally.flush(shared, my_node, index);
            return Instant::now();
        }
        Discipline::Flat => (Some(&*shared.flat), false),
        Discipline::Hier { policy } => (
            Some(&*shared.cursors[my_node.index()]),
            policy == StealPolicy::Full,
        ),
    };

    let done_at;
    loop {
        let acquire_start = Instant::now();
        let acquired = acquire(shared, run, index, my_node, &mut own, steal, &mut tally);
        let acquired_at = Instant::now();
        tally.overhead_ns += acquired_at.duration_since(acquire_start).as_nanos() as u64;
        let Some(chunk_idx) = acquired else {
            done_at = acquired_at;
            break;
        };
        execute_chunk(
            shared,
            run,
            chunk_idx,
            ring,
            my_node,
            acquired_at,
            &mut tally,
        );
    }

    tally.flush(shared, my_node, index);
    done_at
}

/// One acquisition: the head of the worker's own cursor while it lasts
/// (`own` becomes `None` once it is exhausted, so a thief's repeated sweeps
/// never advance its own head again), then, when `steal`, one chunk off
/// the tail of the nearest remote node that still has stealable work.
fn acquire(
    shared: &Shared,
    run: &RunData,
    index: usize,
    my_node: NodeId,
    own: &mut Option<&Cursor>,
    steal: bool,
    tally: &mut WorkerTally,
) -> Option<usize> {
    if let Some(cursor) = *own {
        if let Some(i) = cursor.claim_head() {
            return Some(i);
        }
        *own = None;
    }
    if !steal {
        return None;
    }
    // Chaos: a refusing worker declines the whole remote sweep and idles
    // instead, shifting its share onto its peers.
    if shared
        .faults
        .as_ref()
        .is_some_and(|p| p.refuses_remote_steal(index as u32))
    {
        run.emit(
            Ring::Worker(index),
            my_node,
            EventKind::FaultInjected {
                fault: FaultTag::StealRefusal,
                target: index as u32,
            },
        );
        return None;
    }
    for victim in &shared.remote_order[my_node.index()] {
        tally.attempts_remote += 1;
        if let Some(i) = shared.cursors[victim.index()].steal_tail(run.strict_end[victim.index()]) {
            tally.hits_remote += 1;
            return Some(i);
        }
    }
    None
}

/// Exhaustive models of the slot claim under an armed watchdog, and of the
/// range cursor.
///
/// Run with `RUSTFLAGS="--cfg loom" cargo test -p ilan-runtime --lib
/// loom_model`. The claimants call the production [`claim`] on a loom
/// atomic, and the cursor's claimants the production [`Cursor`] methods.
/// The exit latch is modelled as an `AtomicUsize` (the vendored loom has
/// no mutex): its count-down is the same `fetch_sub` as
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

    #[test]
    fn a_cursor_hands_out_each_chunk_once_and_never_steals_a_strict_one() {
        // Chunk 0 is NUMA-strict; chunks 1 and 2 form the stealable tail.
        const STRICT_END: usize = 1;
        loom::model(|| {
            let cursor = Arc::new(Cursor::new());
            cursor.set(0..3);
            let claim_all = |cursor: &Cursor, thief: bool| {
                let mut got = Vec::new();
                while let Some(i) = if thief {
                    cursor.steal_tail(STRICT_END)
                } else {
                    cursor.claim_head()
                } {
                    got.push(i);
                }
                got
            };
            let spawn = |thief: bool| {
                let cursor = Arc::clone(&cursor);
                loom::thread::spawn(move || claim_all(&cursor, thief))
            };
            // The dispatcher is the second local claimer, as it is when it
            // works its slot.
            let (local, thief) = (spawn(false), spawn(true));
            let mut all = claim_all(&cursor, false);
            let stolen = thief.join().unwrap();
            assert!(
                stolen.iter().all(|&i| i >= STRICT_END),
                "stole a strict chunk: {stolen:?}"
            );
            all.extend(stolen);
            all.extend(local.join().unwrap());
            all.sort_unstable();
            assert_eq!(all, [0, 1, 2], "each chunk claimed exactly once");
            assert!(cursor.is_exhausted());
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

    /// Wakeups posted so far.
    fn wakeups(p: &ThreadPool) -> u64 {
        p.metrics().unwrap().wakeups.get()
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

    /// One worker on a two-node mask left node 1's strict chunks unclaimed:
    /// the loop returned after 200 of 400 iterations, and a later loop ran
    /// the stale chunks again. Such a decision is now rejected up front.
    #[test]
    #[should_panic(expected = "every node that holds chunks needs an active core")]
    fn fewer_threads_than_mask_nodes_is_rejected() {
        let p = pool(presets::tiny_2x4());
        let mode = ExecMode::Hierarchical {
            mask: p.topology().all_nodes(),
            threads: 1,
            strict_fraction: 1.0,
            policy: StealPolicy::Strict,
        };
        p.taskloop(0..400, 4, mode, |_| {});
    }

    #[test]
    fn the_inline_path_rejects_it_too_and_the_pool_stays_whole() {
        let p = pool(presets::tiny_2x4());
        let one_thread_two_nodes = ExecMode::Hierarchical {
            mask: p.topology().all_nodes(),
            threads: 1,
            strict_fraction: 0.0,
            policy: StealPolicy::Full,
        };
        let rejected = std::panic::catch_unwind(AssertUnwindSafe(|| {
            p.taskloop(0..8, 4, one_thread_two_nodes, |_| {});
        }));
        assert!(rejected.is_err(), "an inline-sized loop slipped through");
        let count = AtomicUsize::new(0);
        let all = ExecMode::Hierarchical {
            mask: p.topology().all_nodes(),
            threads: 0,
            strict_fraction: 1.0,
            policy: StealPolicy::Strict,
        };
        let report = p.taskloop(0..400, 4, all, |r| {
            count.fetch_add(r.len(), Ordering::Relaxed);
        });
        assert_eq!(count.load(Ordering::Relaxed), 400);
        assert_eq!(report.tasks_executed(), 100);
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
    fn taskloop_into_reuses_caller_report() {
        let p = pool(presets::tiny_2x4());
        let mut report = LoopReport::default();
        let count = AtomicUsize::new(0);
        p.taskloop_into(
            0..256,
            4,
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
        p.taskloop_into(0..100, 5, ExecMode::WorkSharing, |_| {}, &mut report);
        assert_eq!(report.tasks_executed(), 20);
        assert_eq!(report.migrations, 0);
    }

    #[test]
    fn zero_grainsize_counts_as_one() {
        let p = pool(presets::tiny_2x4());
        let report = p.taskloop(0..100, 0, ExecMode::Flat, |r| assert_eq!(r.len(), 1));
        assert_eq!(report.tasks_executed(), 100);
        let (report, _) = p.taskloop_traced(0..8, 0, ExecMode::Flat, |_| {});
        assert_eq!(report.tasks_executed(), 8);
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
