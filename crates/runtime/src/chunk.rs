//! Iteration-range chunking for taskloops.
//!
//! An OpenMP `taskloop` partitions `0..n` iterations into chunks of at most
//! `grainsize` iterations; each chunk becomes one task. [`chunk_ranges`]
//! performs that partition, and [`ilan_topology::ChunkAssignment`] maps each
//! chunk to its node; the tests below pin both halves as the pool uses them.

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

#[cfg(test)]
mod tests {
    use super::*;
    use ilan_topology::{ChunkAssignment, NodeMask};

    #[test]
    fn chunks_of_rank_matches_node_of_chunk() {
        for (nodes, chunks) in [(1, 1), (2, 7), (3, 10), (4, 16), (8, 3), (5, 64)] {
            let mask = NodeMask::first_n(nodes);
            let a = ChunkAssignment::new(mask, chunks);
            for (rank, node) in mask.iter().enumerate() {
                let scanned: Vec<usize> = (0..chunks)
                    .filter(|&i| a.node_of_chunk(i) == node)
                    .collect();
                assert_eq!(
                    a.chunks_of_rank(rank).collect::<Vec<_>>(),
                    scanned,
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
        let counts: Vec<usize> = (0..3).map(|r| a.chunks_of_rank(r).len()).collect();
        assert_eq!(counts.iter().sum::<usize>(), 10);
        let max = counts.iter().max().unwrap();
        let min = counts.iter().min().unwrap();
        assert!(max - min <= 1, "counts {counts:?}");
    }

    #[test]
    fn fewer_chunks_than_nodes() {
        let a = ChunkAssignment::new(NodeMask::first_n(8), 3);
        let counts: Vec<usize> = (0..8).map(|r| a.chunks_of_rank(r).len()).collect();
        assert_eq!(counts.iter().filter(|&&c| c > 0).count(), 3);
        assert_eq!(counts.iter().sum::<usize>(), 3);
    }

    #[test]
    #[should_panic(expected = "empty node mask")]
    fn empty_mask_panics() {
        ChunkAssignment::new(NodeMask::EMPTY, 4);
    }
}
