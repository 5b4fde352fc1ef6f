//! Per-invocation execution reports.
//!
//! A [`LoopReport`] is the native runtime's equivalent of the simulator's
//! `LoopOutcome`: everything the ILAN Performance Trace Table needs to judge
//! a taskloop configuration — wall time, per-node busy time (for detecting
//! performance asymmetry between nodes), scheduling overhead, and migration
//! counts.

use ilan_topology::NodeId;
use std::time::Duration;

/// Statistics for one NUMA node in one invocation.
#[derive(Clone, Debug, Default)]
pub struct NodeReport {
    /// Chunks executed by workers of this node.
    pub tasks: usize,
    /// Wall time spent inside chunk bodies by this node's workers.
    pub busy: Duration,
    /// Chunks that executed on their assigned home node.
    pub local_tasks: usize,
}

/// Statistics for one taskloop invocation.
#[derive(Clone, Debug, Default)]
pub struct LoopReport {
    /// Dispatch-to-barrier wall time.
    pub makespan: Duration,
    /// Accumulated scheduler time across workers: cursor claims, steal
    /// attempts, dispatch and completion bookkeeping.
    pub sched_overhead: Duration,
    /// Per-node statistics, indexed by node id.
    pub nodes: Vec<NodeReport>,
    /// Chunks that migrated across NUMA nodes (executed away from their
    /// assigned node).
    pub migrations: usize,
    /// Number of workers eligible to run chunks in this invocation.
    pub threads: usize,
    /// Whether the pool's watchdog escalated during this invocation
    /// (broadcast re-wake and/or dispatcher drain). The loop still executed
    /// every chunk exactly once; `true` only flags that it needed help.
    pub degraded: bool,
}

impl LoopReport {
    /// Total chunks executed.
    pub fn tasks_executed(&self) -> usize {
        self.nodes.iter().map(|n| n.tasks).sum()
    }

    /// Fraction of chunks that ran on their assigned node (1.0 when no
    /// chunk migrated). Returns 0 for an empty loop.
    pub fn locality_fraction(&self) -> f64 {
        let total = self.tasks_executed();
        if total == 0 {
            return 0.0;
        }
        let local: usize = self.nodes.iter().map(|n| n.local_tasks).sum();
        local as f64 / total as f64
    }

    /// The node with the highest throughput (tasks per busy second);
    /// `None` if no node executed anything.
    pub fn fastest_node(&self) -> Option<NodeId> {
        self.nodes
            .iter()
            .enumerate()
            .filter(|(_, n)| n.tasks > 0 && !n.busy.is_zero())
            .max_by(|(ia, a), (ib, b)| {
                let ta = a.tasks as f64 / a.busy.as_secs_f64();
                let tb = b.tasks as f64 / b.busy.as_secs_f64();
                ta.partial_cmp(&tb)
                    .unwrap_or(std::cmp::Ordering::Equal)
                    .then(ib.cmp(ia))
            })
            .map(|(i, _)| NodeId::new(i))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn totals_and_locality() {
        let r = LoopReport {
            makespan: Duration::from_millis(10),
            sched_overhead: Duration::from_micros(50),
            nodes: vec![
                NodeReport {
                    tasks: 6,
                    busy: Duration::from_millis(30),
                    local_tasks: 6,
                },
                NodeReport {
                    tasks: 2,
                    busy: Duration::from_millis(20),
                    local_tasks: 0,
                },
            ],
            migrations: 2,
            threads: 8,
            degraded: false,
        };
        assert_eq!(r.tasks_executed(), 8);
        assert!((r.locality_fraction() - 0.75).abs() < 1e-12);
        // Node 0: 200 tasks/s, node 1: 100 tasks/s.
        assert_eq!(r.fastest_node(), Some(NodeId::new(0)));
    }

    #[test]
    fn empty_report() {
        let r = LoopReport::default();
        assert_eq!(r.tasks_executed(), 0);
        assert_eq!(r.locality_fraction(), 0.0);
        assert_eq!(r.fastest_node(), None);
    }
}
