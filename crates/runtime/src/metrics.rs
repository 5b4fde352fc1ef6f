//! The pool's always-on instrument panel.
//!
//! One [`PoolMetrics`] is built per [`ThreadPool`](crate::ThreadPool)
//! (unless disabled via [`PoolConfig::metrics`](crate::PoolConfig::metrics))
//! and owns every instrument the pool records into, its registry, the
//! flight recorder, and the tail tracker that drives anomaly detection.
//!
//! Cost discipline: workers accumulate into their private `WorkerTally` and
//! flush once per invocation into per-worker sharded counters (relaxed
//! stores, closed by the exit-latch edge); the dispatcher records a handful
//! of counters and two histogram samples per dispatched invocation, the
//! acquisition counters among them, read off the finished report. Nothing
//! here allocates on the warm dispatch path — the zero-allocation test
//! covers a metrics-on pool.

use ilan_metrics::{
    Counter, FlightDump, FlightRecorder, Histogram, Registry, ShardedCounter, TailTracker,
};

/// Tail-breach factor: an invocation slower than `median × TAIL_FACTOR`
/// trips the flight recorder.
pub const TAIL_FACTOR: u64 = 8;

/// Dispatched invocations observed before the tail threshold arms.
pub const TAIL_MIN_SAMPLES: u64 = 32;

/// All instruments of one pool, plus its registry and flight recorder.
///
/// Metric families (all prefixed `ilan_pool_`):
///
/// | family | kind | meaning |
/// |---|---|---|
/// | `loops` | counter (`path`=`inline`/`dispatched`) | invocations by execution path |
/// | `dispatch_ns` | histogram | arena fill + wakeup posting latency |
/// | `loop_ns` | histogram | dispatched-invocation makespan (drives the tail tracker) |
/// | `wakeups` | counter | sleep-slot posts that start a team member |
/// | `park_ns` | histogram | worker sleep duration per invocation (none for the dispatcher, which never parks) |
/// | `acquisitions` | counter (`kind`) | chunk acquisitions: `local_pop` / `inter_steal` |
/// | `steal_attempts`, `steal_hits` | counter (`scope`=`local`/`remote`) | cursor claims: own cursor's head (`local`), remote tails (`remote`) |
/// | `degraded` | counter (`stage`) | watchdog escalations |
/// | `faults_injected` | counter | chaos-layer injections seen by the dispatcher |
/// | `flight_triggers` | counter | anomalies seen by the flight recorder |
pub struct PoolMetrics {
    registry: Registry,
    pub(crate) loops_inline: Counter,
    pub(crate) loops_dispatched: Counter,
    pub(crate) dispatch_ns: Histogram,
    pub(crate) loop_ns: Histogram,
    pub(crate) wakeups: Counter,
    pub(crate) park_ns: Histogram,
    pub(crate) acq_local_pop: Counter,
    pub(crate) acq_inter_steal: Counter,
    pub(crate) steal_attempts_local: ShardedCounter,
    pub(crate) steal_attempts_remote: ShardedCounter,
    pub(crate) steal_hits_local: ShardedCounter,
    pub(crate) steal_hits_remote: ShardedCounter,
    pub(crate) degraded_stage1: Counter,
    pub(crate) degraded_stage2: Counter,
    pub(crate) faults_injected: Counter,
    pub(crate) flight_triggers: Counter,
    pub(crate) flight: FlightRecorder,
    pub(crate) tail: TailTracker,
}

impl PoolMetrics {
    pub(crate) fn new(workers: usize) -> Self {
        let r = Registry::new();
        let loop_ns = r.histogram(
            "ilan_pool_loop_ns",
            "Dispatched taskloop invocation makespan, ns",
        );
        let acq = |kind: &str| {
            r.counter_with(
                "ilan_pool_acquisitions",
                "Chunk acquisitions by locality outcome",
                &[("kind", kind)],
            )
        };
        let steal = |name: &str, help: &str, scope: &str| {
            r.sharded_counter_with(name, help, &[("scope", scope)], workers)
        };
        let degraded = |stage: &str| {
            r.counter_with(
                "ilan_pool_degraded",
                "Watchdog escalations by stage",
                &[("stage", stage)],
            )
        };
        PoolMetrics {
            loops_inline: r.counter_with(
                "ilan_pool_loops",
                "Taskloop invocations by execution path",
                &[("path", "inline")],
            ),
            loops_dispatched: r.counter_with(
                "ilan_pool_loops",
                "Taskloop invocations by execution path",
                &[("path", "dispatched")],
            ),
            dispatch_ns: r.histogram(
                "ilan_pool_dispatch_ns",
                "Dispatch latency (arena fill + wakeup posting), ns",
            ),
            wakeups: r.counter(
                "ilan_pool_wakeups",
                "Sleep-slot posts that start a team member",
            ),
            park_ns: r.histogram("ilan_pool_park_ns", "Worker sleep duration per wakeup, ns"),
            acq_local_pop: acq("local_pop"),
            acq_inter_steal: acq("inter_steal"),
            steal_attempts_local: steal(
                "ilan_pool_steal_attempts",
                "Steal probes by NUMA scope",
                "local",
            ),
            steal_attempts_remote: steal(
                "ilan_pool_steal_attempts",
                "Steal probes by NUMA scope",
                "remote",
            ),
            steal_hits_local: steal(
                "ilan_pool_steal_hits",
                "Successful steal probes by NUMA scope",
                "local",
            ),
            steal_hits_remote: steal(
                "ilan_pool_steal_hits",
                "Successful steal probes by NUMA scope",
                "remote",
            ),
            degraded_stage1: degraded("1"),
            degraded_stage2: degraded("2"),
            faults_injected: r.counter(
                "ilan_pool_faults_injected",
                "Chaos-layer fault injections observed by the dispatcher",
            ),
            flight_triggers: r.counter(
                "ilan_pool_flight_triggers",
                "Anomalies reported to the flight recorder",
            ),
            flight: FlightRecorder::new(),
            tail: TailTracker::new(loop_ns.clone(), TAIL_FACTOR, TAIL_MIN_SAMPLES),
            loop_ns,
            registry: r,
        }
    }

    /// The pool's registry: snapshot it, delta it, render it.
    pub fn registry(&self) -> &Registry {
        &self.registry
    }

    /// The dispatch-latency histogram (arena fill + wakeup posting, ns).
    pub fn dispatch_ns(&self) -> &Histogram {
        &self.dispatch_ns
    }

    /// The dispatched-invocation makespan histogram (ns) — the one the
    /// tail tracker watches.
    pub fn loop_ns(&self) -> &Histogram {
        &self.loop_ns
    }

    /// The flight recorder holding (at most) the last anomaly dump.
    pub fn flight(&self) -> &FlightRecorder {
        &self.flight
    }

    /// Takes the parked flight dump, if an anomaly has fired.
    pub fn take_flight_dump(&self) -> Option<FlightDump> {
        self.flight.take()
    }

    /// The current OpenMetrics exposition.
    pub fn render(&self) -> String {
        self.registry.render()
    }
}
