//! Iteration-range chunking for taskloops.
//!
//! An OpenMP `taskloop` partitions `0..n` iterations into chunks of at most
//! `grainsize` iterations; each chunk becomes one task. [`chunk_ranges`]
//! performs that partition, and [`ChunkAssignment`] implements ILAN's
//! deterministic chunk→node mapping (§3.3 of the paper): chunk *i* of *N*
//! goes to the node with rank `⌊i · nodes / N⌋` within the node mask, so
//! adjacent iterations — which tend to share data — stay collocated.

use ilan_topology::{NodeId, NodeMask};
use std::ops::Range;

/// Splits `range` into chunks of at most `grainsize` iterations.
///
/// Every iteration appears in exactly one chunk; chunks are in ascending
/// order; all chunks except possibly the last have exactly `grainsize`
/// iterations.
///
/// # Panics
/// Panics if `grainsize == 0`.
pub fn chunk_ranges(range: Range<usize>, grainsize: usize) -> Vec<Range<usize>> {
    assert!(grainsize > 0, "grainsize must be positive");
    let mut out = Vec::with_capacity(range.len().div_ceil(grainsize).max(1));
    let mut lo = range.start;
    while lo < range.end {
        let hi = (lo + grainsize).min(range.end);
        out.push(lo..hi);
        lo = hi;
    }
    out
}

/// Deterministic blocked assignment of chunks to the nodes of a mask.
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

    /// The chunk indices assigned to each node of the mask, in mask order.
    /// Chunks within a node are in ascending (adjacent-iteration) order.
    pub fn per_node(&self) -> Vec<(NodeId, Vec<usize>)> {
        let mut out: Vec<(NodeId, Vec<usize>)> =
            self.mask.iter().map(|n| (n, Vec::new())).collect();
        for i in 0..self.num_chunks {
            let node = self.node_of_chunk(i);
            let rank = self.mask.rank_of(node).expect("node in mask");
            out[rank].1.push(i);
        }
        out
    }

    /// The contiguous range of chunk indices assigned to the node of mask
    /// rank `rank` — the allocation-free inverse of
    /// [`node_of_chunk`](Self::node_of_chunk) the dispatch hot path uses
    /// instead of materialising [`per_node`](Self::per_node).
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

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn chunks_of_rank_matches_per_node() {
        for (nodes, chunks) in [(1, 1), (2, 7), (3, 10), (4, 16), (8, 3), (5, 64)] {
            let a = ChunkAssignment::new(NodeMask::first_n(nodes), chunks);
            for (rank, (_, idxs)) in a.per_node().into_iter().enumerate() {
                let range = a.chunks_of_rank(rank);
                assert_eq!(
                    range.clone().collect::<Vec<_>>(),
                    idxs,
                    "nodes={nodes} chunks={chunks} rank={rank}"
                );
            }
        }
    }

    #[test]
    fn chunks_cover_range_exactly() {
        let chunks = chunk_ranges(0..100, 16);
        assert_eq!(chunks.len(), 7);
        let mut covered = [false; 100];
        for c in &chunks {
            for i in c.clone() {
                assert!(!covered[i], "iteration {i} covered twice");
                covered[i] = true;
            }
        }
        assert!(covered.iter().all(|&c| c));
        assert_eq!(chunks.last().unwrap().len(), 4);
    }

    #[test]
    fn chunking_nonzero_start() {
        let chunks = chunk_ranges(10..26, 8);
        assert_eq!(chunks, vec![10..18, 18..26]);
    }

    #[test]
    fn empty_range_no_chunks() {
        assert!(chunk_ranges(5..5, 4).is_empty());
    }

    #[test]
    #[should_panic(expected = "grainsize")]
    fn zero_grainsize_panics() {
        chunk_ranges(0..10, 0);
    }

    #[test]
    fn blocked_assignment_is_monotone() {
        let a = ChunkAssignment::new(NodeMask::first_n(4), 16);
        let nodes: Vec<usize> = (0..16).map(|i| a.node_of_chunk(i).index()).collect();
        // Non-decreasing, each node gets 4 consecutive chunks.
        assert_eq!(nodes, [0, 0, 0, 0, 1, 1, 1, 1, 2, 2, 2, 2, 3, 3, 3, 3]);
    }

    #[test]
    fn assignment_respects_sparse_mask() {
        let mask = NodeMask::from_bits(0b0101_0000); // nodes {4, 6}
        let a = ChunkAssignment::new(mask, 6);
        let nodes: Vec<usize> = (0..6).map(|i| a.node_of_chunk(i).index()).collect();
        assert_eq!(nodes, vec![4, 4, 4, 6, 6, 6]);
    }

    #[test]
    fn uneven_division_balanced_within_one() {
        let a = ChunkAssignment::new(NodeMask::first_n(3), 10);
        let per = a.per_node();
        let counts: Vec<usize> = per.iter().map(|(_, c)| c.len()).collect();
        assert_eq!(counts.iter().sum::<usize>(), 10);
        let max = counts.iter().max().unwrap();
        let min = counts.iter().min().unwrap();
        assert!(max - min <= 1, "counts {counts:?}");
    }

    #[test]
    fn fewer_chunks_than_nodes() {
        let a = ChunkAssignment::new(NodeMask::first_n(8), 3);
        let per = a.per_node();
        let nonempty = per.iter().filter(|(_, c)| !c.is_empty()).count();
        assert_eq!(nonempty, 3);
        assert_eq!(per.iter().map(|(_, c)| c.len()).sum::<usize>(), 3);
    }

    #[test]
    #[should_panic(expected = "empty node mask")]
    fn empty_mask_panics() {
        ChunkAssignment::new(NodeMask::EMPTY, 4);
    }
}
