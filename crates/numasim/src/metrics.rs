//! Simulator lane instruments: per-invocation outcome series.
//!
//! A [`SimMetrics`] is a cheap-clone handle over an `ilan-metrics`
//! [`Registry`]. Attach one to a [`SimMachine`](crate::SimMachine) with
//! [`attach_metrics`](crate::SimMachine::attach_metrics) and every
//! subsequent invocation folds its [`crate::LoopOutcome`] into
//! the registry — the machine itself stays deterministic (metrics never
//! touch the seeded RNG or the clock).
//!
//! Metric families (all prefixed `ilan_sim_`):
//!
//! | family | kind | meaning |
//! |---|---|---|
//! | `loops` | counter | taskloop invocations simulated |
//! | `makespan_ns` | histogram | invocation makespans |
//! | `sched_overhead_ns` | histogram | accumulated scheduler time per invocation (Figure 5's quantity) |
//! | `migrations` | counter | inter-node task migrations |
//! | `node_tasks` | counter (`node`, `locality`=`local`/`remote`) | chunks per lane by locality outcome |
//! | `node_busy_ns` | counter (`node`) | busy time per lane, ns |
//! | `dram_bytes` | counter | DRAM traffic after L3 discounts |
//! | `events` | counter | simulator events processed |
//! | `chunk_events` | counter | running chunks summed over events (the re-pricings a full pass per event would do) |
//! | `repriced_chunks` | counter | chunk re-pricings done |

use crate::colo::EventCounts;
use crate::outcome::LoopOutcome;
use ilan_metrics::{Counter, Histogram, Registry};

/// Instruments for one simulated machine (see module docs). Clones alias
/// the same underlying series.
#[derive(Clone)]
pub struct SimMetrics {
    registry: Registry,
    loops: Counter,
    makespan_ns: Histogram,
    sched_overhead_ns: Histogram,
    migrations: Counter,
    dram_bytes: Counter,
    events: Counter,
    chunk_events: Counter,
    repriced_chunks: Counter,
}

impl SimMetrics {
    /// Instruments registered into a fresh registry.
    pub fn new() -> Self {
        Self::with_registry(Registry::new())
    }

    /// Instruments registered into `registry` — share one registry across
    /// layers to render a single exposition.
    pub fn with_registry(registry: Registry) -> Self {
        SimMetrics {
            loops: registry.counter("ilan_sim_loops", "Taskloop invocations simulated"),
            makespan_ns: registry.histogram("ilan_sim_makespan_ns", "Invocation makespan, ns"),
            sched_overhead_ns: registry.histogram(
                "ilan_sim_sched_overhead_ns",
                "Accumulated scheduler time per invocation, ns",
            ),
            migrations: registry.counter("ilan_sim_migrations", "Inter-node task migrations"),
            dram_bytes: registry.counter(
                "ilan_sim_dram_bytes",
                "DRAM traffic after L3 reuse discounts, bytes",
            ),
            events: registry.counter("ilan_sim_events", "Simulator events processed"),
            chunk_events: registry.counter(
                "ilan_sim_chunk_events",
                "Running chunks summed over simulator events",
            ),
            repriced_chunks: registry.counter(
                "ilan_sim_repriced_chunks",
                "Chunk re-pricings done by the simulator",
            ),
            registry,
        }
    }

    /// The underlying registry: snapshot it, delta it, render it.
    pub fn registry(&self) -> &Registry {
        &self.registry
    }

    /// The current OpenMetrics exposition.
    pub fn render(&self) -> String {
        self.registry.render()
    }

    /// Folds one invocation outcome into the series. The per-node lane
    /// counters are registered on first use per node id (registration is
    /// idempotent, so repeat invocations reuse the same series).
    pub fn record_outcome(&self, outcome: &LoopOutcome) {
        self.loops.inc();
        self.makespan_ns.record(outcome.makespan_ns.max(0.0) as u64);
        self.sched_overhead_ns
            .record(outcome.sched_overhead_ns.max(0.0) as u64);
        self.migrations.add(outcome.migrations as u64);
        self.dram_bytes
            .add(outcome.total_dram_bytes().max(0.0) as u64);
        for (i, node) in outcome.nodes.iter().enumerate() {
            if node.tasks == 0 && node.busy_ns == 0.0 {
                continue;
            }
            let label = i.to_string();
            let lane = |locality: &str| {
                self.registry.counter_with(
                    "ilan_sim_node_tasks",
                    "Chunks executed per simulated lane, by locality outcome",
                    &[("node", label.as_str()), ("locality", locality)],
                )
            };
            lane("local").add(node.local_tasks as u64);
            lane("remote").add((node.tasks - node.local_tasks) as u64);
            self.registry
                .counter_with(
                    "ilan_sim_node_busy_ns",
                    "Busy time per simulated lane, ns",
                    &[("node", label.as_str())],
                )
                .add(node.busy_ns.max(0.0) as u64);
        }
    }
}

impl SimMetrics {
    /// Folds one invocation's engine work (the machine's
    /// [`EventCounts`] delta) into the series.
    pub fn record_events(&self, delta: EventCounts) {
        self.events.add(delta.events);
        self.chunk_events.add(delta.chunk_events);
        self.repriced_chunks.add(delta.repriced_chunks);
    }
}

impl Default for SimMetrics {
    fn default() -> Self {
        Self::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::outcome::NodeOutcome;
    use ilan_metrics::SampleValue;

    #[test]
    fn outcome_folds_into_lane_series() {
        let m = SimMetrics::new();
        let outcome = LoopOutcome {
            makespan_ns: 1_000.0,
            sched_overhead_ns: 50.0,
            nodes: vec![
                NodeOutcome {
                    tasks: 4,
                    busy_ns: 800.0,
                    ideal_ns: 700.0,
                    local_tasks: 3,
                    dram_bytes: 1_000.0,
                },
                NodeOutcome::default(), // idle lane: no series registered
            ],
            migrations: 2,
            threads: 8,
            trace: Vec::new(),
            events: ilan_trace::EventLog::default(),
        };
        m.record_outcome(&outcome);
        m.record_outcome(&outcome);
        let snap = m.registry().snapshot();
        assert_eq!(snap.counter_total("ilan_sim_loops"), 2);
        assert_eq!(snap.counter_total("ilan_sim_migrations"), 4);
        assert_eq!(
            snap.get_with(
                "ilan_sim_node_tasks",
                &[("node", "0"), ("locality", "local")]
            ),
            Some(&SampleValue::Counter(6))
        );
        assert_eq!(
            snap.get_with(
                "ilan_sim_node_tasks",
                &[("node", "0"), ("locality", "remote")]
            ),
            Some(&SampleValue::Counter(2))
        );
        // The idle lane never registered a series.
        assert_eq!(
            snap.get_with("ilan_sim_node_busy_ns", &[("node", "1")]),
            None
        );
        assert_eq!(snap.histogram("ilan_sim_makespan_ns").unwrap().count, 2);
        assert!(m.render().ends_with("# EOF\n"));
    }
}
