//! Task chunk descriptions consumed by the simulator.

use ilan_topology::{NodeId, NodeMask};

/// How a chunk's memory accesses are distributed across NUMA nodes.
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum Locality {
    /// All traffic goes to the chunk's home node — contiguous, blocked data
    /// (structured grids, dense rows). Running the chunk on its home node
    /// makes every access local.
    Chunked,
    /// A fraction `spread` of the traffic is distributed uniformly over all
    /// nodes in [`TaskSpec::data_mask`] (irregular gathers: CG's sparse
    /// matrix–vector products, FT's transposes); the remaining `1 − spread`
    /// goes to the home node. `spread = 0` degenerates to [`Chunked`];
    /// `spread = 1` means fully scattered access with no local preference.
    ///
    /// [`Chunked`]: Locality::Chunked
    Scattered {
        /// Fraction of traffic scattered uniformly over `data_mask`.
        spread: f64,
    },
}

impl Locality {
    /// Fraction of traffic that targets node `to`, for a chunk homed at
    /// `home` with data distributed over `data_mask`.
    pub fn traffic_fraction(self, home: NodeId, data_mask: NodeMask, to: NodeId) -> f64 {
        match self {
            Locality::Chunked => {
                if to == home {
                    1.0
                } else {
                    0.0
                }
            }
            Locality::Scattered { spread } => {
                let n = data_mask.count().max(1) as f64;
                let scattered = if data_mask.contains(to) {
                    spread / n
                } else {
                    0.0
                };
                let local = if to == home { 1.0 - spread } else { 0.0 };
                scattered + local
            }
        }
    }

    /// How strongly latency (as opposed to bandwidth) determines this access
    /// pattern's remote penalty. Scattered (pointer-chasing-like) access is
    /// latency-sensitive because prefetchers cannot hide the misses;
    /// contiguous streaming is mostly bandwidth-bound.
    pub fn latency_sensitivity(self) -> f64 {
        match self {
            // Streaming access: prefetchers hide most of the extra latency.
            Locality::Chunked => 0.18,
            // Gathers expose progressively more of the raw latency.
            Locality::Scattered { spread } => 0.22 + 0.38 * spread,
        }
    }
}

/// One task: a chunk of a taskloop's iteration space.
///
/// All quantities are *per chunk*. `compute_ns` is the chunk's pure-compute
/// time at nominal frequency; `mem_bytes` is the DRAM traffic it generates
/// with a cold cache. The effective execution time emerges from the machine
/// state (contention, distance, cache reuse) at simulation time.
#[derive(Clone, Debug)]
pub struct TaskSpec {
    /// Pure compute time at nominal frequency, in ns.
    pub compute_ns: f64,
    /// DRAM traffic with a cold cache, in bytes.
    pub mem_bytes: f64,
    /// The NUMA node holding the chunk's (majority of) data, as established
    /// by first-touch initialisation.
    pub home_node: NodeId,
    /// Access-pattern model.
    pub locality: Locality,
    /// Nodes over which the enclosing data structure is distributed.
    pub data_mask: NodeMask,
    /// Fraction of `mem_bytes` served from L3 instead of DRAM when the chunk
    /// executes on `home_node` *and* the per-node working set fits
    /// ([`fits_l3`](Self::fits_l3)). Models cross-timestep reuse under
    /// deterministic placement.
    pub cache_reuse: f64,
    /// Whether the per-node working set of the enclosing loop fits in one
    /// node's aggregate L3 (precomputed by the workload).
    pub fits_l3: bool,
}

impl TaskSpec {
    /// The chunk's ideal (uncontended, all-local, cold-cache) duration on a
    /// nominal-frequency core: compute plus memory streamed at the single-core
    /// bandwidth `core_bw` (bytes/ns).
    pub fn ideal_ns(&self, core_bw: f64) -> f64 {
        self.compute_ns + self.mem_bytes / core_bw
    }

    /// Effective DRAM bytes after the L3 reuse discount, given the node the
    /// chunk actually executes on.
    pub fn effective_bytes(&self, exec_node: NodeId) -> f64 {
        if exec_node == self.home_node && self.fits_l3 {
            self.mem_bytes * (1.0 - self.cache_reuse)
        } else {
            self.mem_bytes
        }
    }

    /// Panics if the spec contains non-physical values (programming error in
    /// a workload generator).
    pub fn validate(&self) {
        assert!(
            self.compute_ns.is_finite() && self.compute_ns >= 0.0,
            "compute_ns must be finite and non-negative"
        );
        assert!(
            self.mem_bytes.is_finite() && self.mem_bytes >= 0.0,
            "mem_bytes must be finite and non-negative"
        );
        assert!(
            (0.0..=1.0).contains(&self.cache_reuse),
            "cache_reuse must be in [0,1]"
        );
        // Checked at the home node, where the L3 discount can take every
        // byte away: a chunk with no work there would be priced at an
        // infinite rate and never complete.
        assert!(
            self.compute_ns > 0.0 || self.effective_bytes(self.home_node) > 0.0,
            "task must have some work at its home node"
        );
        if let Locality::Scattered { spread } = self.locality {
            assert!((0.0..=1.0).contains(&spread), "spread must be in [0,1]");
            assert!(
                !self.data_mask.is_empty(),
                "scattered task needs a data mask"
            );
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn spec(locality: Locality) -> TaskSpec {
        TaskSpec {
            compute_ns: 1000.0,
            mem_bytes: 22_000.0,
            home_node: NodeId::new(1),
            locality,
            data_mask: NodeMask::first_n(4),
            cache_reuse: 0.5,
            fits_l3: true,
        }
    }

    #[test]
    fn chunked_traffic_all_home() {
        let s = spec(Locality::Chunked);
        let f = |to| {
            s.locality
                .traffic_fraction(s.home_node, s.data_mask, NodeId::new(to))
        };
        assert_eq!(f(1), 1.0);
        assert_eq!(f(0), 0.0);
        assert_eq!(f(3), 0.0);
    }

    #[test]
    fn scattered_traffic_sums_to_one() {
        let s = spec(Locality::Scattered { spread: 0.6 });
        let total: f64 = (0..4)
            .map(|to| {
                s.locality
                    .traffic_fraction(s.home_node, s.data_mask, NodeId::new(to))
            })
            .sum();
        assert!((total - 1.0).abs() < 1e-12);
        // Home gets the non-scattered part plus its uniform share.
        let home = s
            .locality
            .traffic_fraction(s.home_node, s.data_mask, NodeId::new(1));
        assert!((home - (0.4 + 0.15)).abs() < 1e-12);
    }

    #[test]
    fn scattered_zero_equals_chunked() {
        let s = spec(Locality::Scattered { spread: 0.0 });
        for to in 0..4 {
            let a = s
                .locality
                .traffic_fraction(s.home_node, s.data_mask, NodeId::new(to));
            let b = Locality::Chunked.traffic_fraction(s.home_node, s.data_mask, NodeId::new(to));
            assert!((a - b).abs() < 1e-12);
        }
    }

    #[test]
    fn latency_sensitivity_grows_with_spread() {
        assert!(
            Locality::Scattered { spread: 1.0 }.latency_sensitivity()
                > Locality::Scattered { spread: 0.2 }.latency_sensitivity()
        );
        assert!(
            Locality::Chunked.latency_sensitivity()
                < Locality::Scattered { spread: 0.5 }.latency_sensitivity()
        );
    }

    #[test]
    fn ideal_time_includes_memory() {
        let s = spec(Locality::Chunked);
        assert!((s.ideal_ns(22.0) - (1000.0 + 1000.0)).abs() < 1e-9);
    }

    #[test]
    fn cache_discount_applies_only_at_home() {
        let s = spec(Locality::Chunked);
        assert_eq!(s.effective_bytes(NodeId::new(1)), 11_000.0);
        assert_eq!(s.effective_bytes(NodeId::new(0)), 22_000.0);
        let mut s2 = s.clone();
        s2.fits_l3 = false;
        assert_eq!(s2.effective_bytes(NodeId::new(1)), 22_000.0);
    }

    #[test]
    #[should_panic(expected = "some work")]
    fn validate_rejects_empty_task() {
        let mut s = spec(Locality::Chunked);
        s.compute_ns = 0.0;
        s.mem_bytes = 0.0;
        s.validate();
    }

    #[test]
    #[should_panic(expected = "some work at its home node")]
    fn validate_rejects_task_whose_bytes_all_hit_l3_at_home() {
        let mut s = spec(Locality::Chunked);
        s.compute_ns = 0.0;
        s.cache_reuse = 1.0;
        s.validate();
    }

    #[test]
    #[should_panic(expected = "data mask")]
    fn validate_rejects_scattered_without_mask() {
        let mut s = spec(Locality::Scattered { spread: 0.5 });
        s.data_mask = NodeMask::EMPTY;
        s.validate();
    }
}
