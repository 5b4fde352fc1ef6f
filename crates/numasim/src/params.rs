//! Machine performance parameters.
//!
//! [`MachineParams`] couples a [`Topology`] (structure) with the quantitative
//! knobs of the cost model: bandwidths, overload behaviour, and the costs of
//! runtime operations. Defaults are calibrated to the paper's EPYC 9354 node.

use crate::noise::NoiseParams;
use ilan_topology::Topology;

/// Quantitative description of a simulated machine.
#[derive(Clone, Debug)]
pub struct MachineParams {
    /// Structural description (sockets / nodes / CCDs / cores, distances).
    pub topology: Topology,
    /// Peak achievable DRAM bandwidth of one core's memory pipeline, in
    /// bytes per nanosecond (GB/s). Limits how fast a single task can stream
    /// even on an idle machine (bounded by MLP, not controller bandwidth).
    pub core_bw: f64,
    /// Per-NUMA-node memory-controller bandwidth in bytes per nanosecond.
    /// On the EPYC 9354 each NPS4 node owns 3 DDR5-4800 channels:
    /// roughly 80 GB/s usable.
    pub node_bw: f64,
    /// Aggregate inter-socket link bandwidth between a socket pair, bytes/ns.
    /// Four xGMI-3 links carry roughly 300 GB/s usable on this platform.
    pub link_bw: f64,
    /// Overload degradation coefficient β: when aggregate demand on a
    /// resource reaches `u > 1` times its bandwidth, delivered bandwidth drops
    /// to `bw / (1 + β·(u−1))`, modelling queueing delay and row-buffer
    /// conflicts beyond pure fair sharing. β = 0 gives ideal proportional
    /// sharing (no benefit from moldability); measured systems behave like
    /// β ≈ 0.5–0.8 once queueing and row-buffer thrash set in.
    pub overload_beta: f64,
    /// Cost in ns of one pop from a shared task pool, before the contention
    /// multiplier.
    pub pop_cost_ns: f64,
    /// Additional pop cost per worker sharing the pool (CAS retries,
    /// cache-line ping-pong on the pool head).
    pub pop_contention_ns: f64,
    /// Cost in ns of one inter-node batch steal (acquire remote pool lock,
    /// move task descriptors, cache misses on remote metadata).
    pub remote_steal_cost_ns: f64,
    /// Cost in ns charged to a worker each time it scans all pools and finds
    /// nothing runnable (a failed steal sweep).
    pub failed_steal_cost_ns: f64,
    /// Per-task creation/enqueue cost paid serially by the encountering
    /// thread when the taskloop is dispatched.
    pub task_create_ns: f64,
    /// Base cost of the end-of-loop barrier; total barrier cost is
    /// `barrier_base_ns · log2(active_threads)` charged once to the makespan.
    pub barrier_base_ns: f64,
    /// Per-pop cost of a static work-sharing slice (no shared pool, only a
    /// chunk-index increment — close to free).
    pub static_chunk_ns: f64,
    /// Row-buffer interference: each memory controller loses efficiency as
    /// the number of concurrent *streaming* flows it serves grows beyond
    /// [`stream_base`](Self::stream_base) — each extra stream multiplies the
    /// controller's congestion by `1 + stream_kappa`. Irregular gathers have
    /// no row locality to destroy and contribute (almost) nothing.
    pub stream_kappa: f64,
    /// Number of concurrent streams a controller interleaves without loss.
    pub stream_base: f64,
    /// Noise model (frequency jitter, outliers).
    pub noise: NoiseParams,
}

impl MachineParams {
    /// Parameters calibrated for the given topology, with EPYC-9354-like
    /// bandwidths and runtime costs.
    pub fn for_topology(topology: &Topology) -> Self {
        MachineParams {
            topology: topology.clone(),
            core_bw: 22.0,  // 22 GB/s single-core streaming
            node_bw: 80.0,  // 3×DDR5-4800 ≈ 80 GB/s usable per NPS4 node
            link_bw: 300.0, // aggregate xGMI between a socket pair (4 wide links)
            overload_beta: 0.7,
            pop_cost_ns: 60.0,
            pop_contention_ns: 14.0,
            remote_steal_cost_ns: 1_500.0,
            failed_steal_cost_ns: 400.0,
            task_create_ns: 110.0,
            barrier_base_ns: 350.0,
            static_chunk_ns: 12.0,
            stream_kappa: 0.05,
            stream_base: 4.0,
            noise: NoiseParams::default(),
        }
    }

    /// A noiseless copy (deterministic across seeds) — used by unit tests and
    /// by exploration-logic tests where reproducibility down to the nanosecond
    /// matters.
    pub fn noiseless(mut self) -> Self {
        self.noise = NoiseParams::none();
        self
    }

    /// Validates internal consistency; called by [`ColoMachine::new`] and so
    /// by [`SimMachine::new`] (panics on nonsensical parameters, which
    /// indicate a programming error). Every runtime cost must be finite and
    /// non-negative: a negative cost would step the clock backwards.
    ///
    /// [`ColoMachine::new`]: crate::ColoMachine::new
    /// [`SimMachine::new`]: crate::SimMachine::new
    pub(crate) fn validate(&self) {
        assert!(self.core_bw > 0.0, "core bandwidth must be positive");
        assert!(self.node_bw > 0.0, "node bandwidth must be positive");
        assert!(self.link_bw > 0.0, "link bandwidth must be positive");
        assert!(
            self.overload_beta >= 0.0,
            "overload beta must be non-negative"
        );
        for (name, cost) in [
            ("pop_cost_ns", self.pop_cost_ns),
            ("pop_contention_ns", self.pop_contention_ns),
            ("remote_steal_cost_ns", self.remote_steal_cost_ns),
            ("failed_steal_cost_ns", self.failed_steal_cost_ns),
            ("task_create_ns", self.task_create_ns),
            ("barrier_base_ns", self.barrier_base_ns),
            ("static_chunk_ns", self.static_chunk_ns),
        ] {
            assert!(
                cost.is_finite() && cost >= 0.0,
                "{name} must be finite and >= 0, got {cost}"
            );
        }
        assert!(
            self.stream_kappa >= 0.0,
            "stream kappa must be non-negative"
        );
        assert!(self.stream_base >= 0.0, "stream base must be non-negative");
        self.noise.validate();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ilan_topology::presets;

    #[test]
    fn defaults_are_valid() {
        let p = MachineParams::for_topology(&presets::epyc_9354_2s());
        p.validate();
        assert_eq!(p.topology.num_cores(), 64);
    }

    #[test]
    fn noiseless_strips_noise() {
        let p = MachineParams::for_topology(&presets::tiny_2x4()).noiseless();
        assert_eq!(p.noise.freq_jitter_sd, 0.0);
        assert_eq!(p.noise.outlier_prob, 0.0);
    }

    /// One cost field of [`MachineParams`], by accessor.
    type CostField = fn(&mut MachineParams) -> &mut f64;

    #[test]
    fn rejects_negative_or_non_finite_costs() {
        let fields: [(&str, CostField); 7] = [
            ("pop_cost_ns", |p| &mut p.pop_cost_ns),
            ("pop_contention_ns", |p| &mut p.pop_contention_ns),
            ("remote_steal_cost_ns", |p| &mut p.remote_steal_cost_ns),
            ("failed_steal_cost_ns", |p| &mut p.failed_steal_cost_ns),
            ("task_create_ns", |p| &mut p.task_create_ns),
            ("barrier_base_ns", |p| &mut p.barrier_base_ns),
            ("static_chunk_ns", |p| &mut p.static_chunk_ns),
        ];
        for (name, field) in fields {
            for bad in [-1.0, f64::NAN, f64::INFINITY] {
                let mut p = MachineParams::for_topology(&presets::tiny_2x4());
                *field(&mut p) = bad;
                let panic = std::panic::catch_unwind(|| p.validate())
                    .expect_err(&format!("{name} = {bad} must be rejected"));
                let message = panic
                    .downcast_ref::<String>()
                    .expect("formatted panic message");
                assert!(message.starts_with(name), "{name} = {bad}: {message}");
            }
            // Zero is a valid cost.
            let mut p = MachineParams::for_topology(&presets::tiny_2x4());
            *field(&mut p) = 0.0;
            p.validate();
        }
    }

    #[test]
    #[should_panic(expected = "core bandwidth")]
    fn rejects_zero_bandwidth() {
        let mut p = MachineParams::for_topology(&presets::tiny_2x4());
        p.core_bw = 0.0;
        p.validate();
    }
}
