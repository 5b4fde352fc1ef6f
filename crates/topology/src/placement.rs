//! Taskloop placement: the one description both execution substrates take.
//!
//! In the paper (§3.3) a taskloop's placement is a function of its
//! configuration — the `(num_threads, node_mask, steal_policy)` triple,
//! here an [`ExecMode`] — and its chunk count. This module holds that
//! description and the three rules that resolve it: which cores run the
//! loop ([`active_cores`]), which node each chunk goes to
//! ([`ChunkAssignment`]) and how many of a node's chunks are NUMA-strict
//! ([`strict_count`]). The native pool (`ilan-runtime`) and the simulator
//! (`ilan-numasim`) both take an `ExecMode` and both call these rules, so
//! the two substrates place every chunk the same way.

use crate::{CoreId, NodeId, NodeMask, Topology};
use std::ops::Range;

/// Inter-node steal policy of a hierarchical taskloop (paper §3.1).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum StealPolicy {
    /// Work-stealing confined to the chunk's assigned NUMA node.
    Strict,
    /// The stealable tail of each node's chunks may migrate to another node
    /// once that node has exhausted its own chunks.
    Full,
}

/// How one taskloop invocation is executed.
#[derive(Clone, Debug, PartialEq)]
pub enum ExecMode {
    /// LLVM-default tasking baseline: one shared pool, every worker takes
    /// any chunk. Uses every core available to the loop.
    Flat,
    /// OpenMP `for schedule(static)` work-sharing: fixed contiguous slices,
    /// no queues, no stealing. Uses every core available to the loop.
    WorkSharing,
    /// ILAN hierarchical distribution: chunks pre-assigned to the nodes of
    /// `mask` ([`ChunkAssignment`]), an initial fraction NUMA-strict
    /// ([`strict_count`]), optional inter-node stealing of the tail.
    Hierarchical {
        /// Nodes eligible to execute the loop (`node_mask`).
        mask: NodeMask,
        /// Total active threads (`num_threads`), distributed evenly over
        /// the mask's nodes (see [`active_cores`]). Clamped to the cores
        /// available in the mask; 0 means "all cores of the mask".
        /// Otherwise it must be at least the mask's node count, so every
        /// node that holds chunks has a worker to run them.
        threads: usize,
        /// Fraction of each node's chunks that are NUMA-strict under
        /// [`StealPolicy::Full`]; ignored under `Strict` (everything is
        /// strict then).
        strict_fraction: f64,
        /// Whether the stealable tail may migrate across nodes
        /// (`steal_policy`).
        policy: StealPolicy,
    },
}

/// Deterministic blocked assignment of chunks to the nodes of a mask:
/// chunk *i* of *N* goes to the node of rank `⌊i · nodes / N⌋` within the
/// mask, so adjacent iterations — which tend to share data — stay
/// collocated.
#[derive(Clone, Debug)]
pub struct ChunkAssignment {
    mask: NodeMask,
    num_chunks: usize,
}

impl ChunkAssignment {
    /// Creates the assignment of `num_chunks` chunks over the nodes in
    /// `mask`.
    ///
    /// # Panics
    /// Panics if `mask` is empty.
    pub fn new(mask: NodeMask, num_chunks: usize) -> Self {
        assert!(
            !mask.is_empty(),
            "cannot assign chunks to an empty node mask"
        );
        ChunkAssignment { mask, num_chunks }
    }

    /// The node executing chunk `i`.
    ///
    /// # Panics
    /// Panics (in debug) if `i >= num_chunks`.
    pub fn node_of_chunk(&self, i: usize) -> NodeId {
        debug_assert!(i < self.num_chunks, "chunk index out of range");
        let k = self.mask.count();
        let rank = i * k / self.num_chunks.max(1);
        self.mask.nth(rank).expect("rank < mask count")
    }

    /// The contiguous range of chunk indices assigned to the node of mask
    /// rank `rank`: exactly the chunks `i` whose
    /// [`node_of_chunk`](Self::node_of_chunk) is that node, computed
    /// without a scan or an allocation.
    ///
    /// # Panics
    /// Panics (in debug) if `rank >= mask.count()`.
    pub fn chunks_of_rank(&self, rank: usize) -> Range<usize> {
        let k = self.mask.count();
        debug_assert!(rank < k, "rank out of mask");
        let n = self.num_chunks;
        (rank * n).div_ceil(k)..((rank + 1) * n).div_ceil(k)
    }
}

/// The cores a hierarchical loop on `mask` with `threads` threads
/// activates, in mask order: `threads` (0 meaning every core of the mask,
/// and clamped to the mask's cores) spread evenly over the mask's nodes,
/// the first `threads % k` of its `k` nodes taking one core more, each node
/// its lowest cores first. Every node of the mask gets at least one core,
/// so the first core is the primary core of the mask's first node. It
/// allocates nothing.
///
/// # Panics
/// Panics if `mask` is empty, or if `threads` is neither 0 nor at least
/// the mask's node count: a node without an active core could not run the
/// chunks placed on it.
pub fn active_cores(
    topology: &Topology,
    mask: NodeMask,
    threads: usize,
) -> impl Iterator<Item = CoreId> + '_ {
    let k = mask.count();
    assert!(k > 0, "hierarchical mode needs a non-empty mask");
    assert!(
        threads == 0 || threads >= k,
        "{threads} threads cannot cover the {k} nodes of {mask:?}: \
         every node that holds chunks needs an active core"
    );
    let max = k * topology.cores_per_node();
    let want = if threads == 0 { max } else { threads.min(max) };
    mask.iter().enumerate().flat_map(move |(rank, node)| {
        topology
            .cores_of_node(node)
            .take(want / k + usize::from(rank < want % k))
    })
}

/// How many of a node's `len` chunks are NUMA-strict: all of them under
/// [`StealPolicy::Strict`], `len × strict_fraction` rounded to the nearest
/// under [`StealPolicy::Full`]. The node keeps these first chunks; only the
/// rest may be stolen.
pub fn strict_count(len: usize, policy: StealPolicy, strict_fraction: f64) -> usize {
    match policy {
        StealPolicy::Strict => len,
        StealPolicy::Full => ((len as f64) * strict_fraction).round() as usize,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::presets;

    #[test]
    fn strict_count_rounds_under_full_and_keeps_all_under_strict() {
        assert_eq!(strict_count(48, StealPolicy::Full, 0.6), 29);
        assert_eq!(strict_count(48, StealPolicy::Full, 28.0 / 48.0), 28);
        assert_eq!(strict_count(7, StealPolicy::Full, 0.0), 0);
        assert_eq!(strict_count(7, StealPolicy::Strict, 0.0), 7);
    }

    fn per_node(t: &Topology, mask: NodeMask, threads: usize) -> Vec<usize> {
        let cores: Vec<CoreId> = active_cores(t, mask, threads).collect();
        mask.iter()
            .map(|n| cores.iter().filter(|&&c| t.node_of_core(c) == n).count())
            .collect()
    }

    #[test]
    fn active_cores_even_spread() {
        let t = presets::epyc_9354_2s();
        let cores: Vec<usize> = active_cores(&t, NodeMask::first_n(4), 16)
            .map(CoreId::index)
            .collect();
        // 4 cores per node, the lowest of each.
        assert_eq!(cores.len(), 16);
        assert!(cores.contains(&0) && cores.contains(&11));
        assert!(!cores.contains(&4));
    }

    #[test]
    fn active_cores_uneven_remainder() {
        let t = presets::epyc_9354_2s();
        assert_eq!(per_node(&t, NodeMask::first_n(3), 10), vec![4, 3, 3]);
    }

    #[test]
    fn active_cores_zero_means_all() {
        let t = presets::tiny_2x4();
        assert_eq!(active_cores(&t, t.all_nodes(), 0).count(), 8);
    }

    #[test]
    fn active_cores_clamps_excess_threads() {
        // More threads than the mask can host: clamp to its capacity.
        let t = presets::epyc_9354_2s();
        assert_eq!(active_cores(&t, NodeMask::first_n(2), 1000).count(), 16);
        assert_eq!(active_cores(&t, t.all_nodes(), usize::MAX).count(), 64);
    }

    #[test]
    #[should_panic(expected = "needs an active core")]
    fn active_cores_rejects_fewer_threads_than_mask_nodes() {
        let t = presets::epyc_9354_2s();
        active_cores(&t, NodeMask::first_n(4), 3).count();
    }

    #[test]
    fn active_cores_single_node_mask() {
        let t = presets::epyc_9354_2s();
        let mask = NodeMask::single(NodeId::new(5));
        assert_eq!(per_node(&t, mask, 3), vec![3]);
        // Requesting the whole node (or more) yields exactly its cores.
        assert_eq!(active_cores(&t, mask, 8).count(), 8);
        assert_eq!(active_cores(&t, mask, 9).count(), 8);
    }
}
