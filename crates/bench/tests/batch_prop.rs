//! Property test: chunk acquisition through the range cursors preserves
//! the runtime's execution invariants.
//!
//! Workers claim chunks one at a time off the head of their node's cursor,
//! and idle remote nodes claim them off its tail. For randomized
//! hierarchical shapes (including ones with hundreds of chunks) this must
//! never break:
//!
//! * **exactly-once** — every chunk starts exactly once, every iteration of
//!   the range runs exactly once;
//! * **strict confinement** — NUMA-strict chunks never cross nodes, no
//!   matter how imbalanced the schedule gets;
//! * **placement determinism** — the chunk→node fingerprint of a shape is
//!   independent of the thread schedule.
//!
//! The `ilan-trace` auditor checks the first two from the event log; this
//! test additionally recounts them by hand so a bug in the auditor cannot
//! mask a bug in the runtime.

use ilan_bench::stress::{assignment_fingerprint, audit_invocation};
use ilan_runtime::trace::EventKind;
use ilan_runtime::{ExecMode, PinMode, PoolConfig, StealPolicy, ThreadPool};
use ilan_topology::{presets, NodeMask};
use proptest::prelude::*;
use std::collections::HashMap;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::OnceLock;

fn pool() -> &'static ThreadPool {
    static POOL: OnceLock<ThreadPool> = OnceLock::new();
    POOL.get_or_init(|| {
        ThreadPool::new(PoolConfig::new(presets::tiny_2x4()).pin(PinMode::Never)).expect("pool")
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(40))]

    #[test]
    fn batched_acquisition_is_exactly_once_and_strict_confined(
        len in 64usize..2048,
        grain in 1usize..8,
        mask_bits in 1u64..4, // tiny_2x4 has 2 nodes
        strict_idx in 0usize..5,
        full in any::<bool>(),
        threads_idx in 0usize..3,
    ) {
        let strict_fraction = [0.0, 0.25, 0.5, 0.75, 1.0][strict_idx];
        let policy = if full { StealPolicy::Full } else { StealPolicy::Strict };
        let threads = [0, 2, 4][threads_idx];
        let mode = ExecMode::Hierarchical {
            mask: NodeMask::from_bits(mask_bits),
            threads,
            strict_fraction,
            policy,
        };
        let num_chunks = len.div_ceil(grain);
        let count = AtomicUsize::new(0);
        let (report, log) = pool().taskloop_traced(0..len, grain, mode.clone(), |r| {
            count.fetch_add(r.len(), Ordering::Relaxed);
        });

        // Every iteration ran (the body tally is the ground truth the trace
        // cannot fake) and the report agrees on the chunk count.
        prop_assert_eq!(count.load(Ordering::Relaxed), len);
        prop_assert_eq!(report.tasks_executed(), num_chunks);

        // Full replay through the auditor: exactly-once start/end pairing,
        // strict confinement, migrations == inter-node steals, per-node
        // tallies matching the report.
        let audit = audit_invocation(&report, &log);
        prop_assert!(audit.ok(), "{}", audit);

        // Recount by hand, independent of the auditor. First pass: the
        // placement; second pass: starts and cross-node steals.
        let mut strict_of: HashMap<u32, bool> = HashMap::new();
        for e in log.iter() {
            if let EventKind::ChunkEnqueue { chunk, strict, .. } = e.kind {
                prop_assert!(
                    strict_of.insert(chunk, strict).is_none(),
                    "chunk {} enqueued twice", chunk
                );
            }
        }
        prop_assert_eq!(strict_of.len(), num_chunks);
        let mut started: HashMap<u32, usize> = HashMap::new();
        for e in log.iter() {
            match e.kind {
                EventKind::ChunkStart { chunk } => {
                    *started.entry(chunk).or_insert(0) += 1;
                }
                EventKind::InterNodeSteal { chunk, .. } => {
                    prop_assert!(
                        !strict_of[&chunk],
                        "strict chunk {} crossed nodes in a steal", chunk
                    );
                }
                _ => {}
            }
        }
        prop_assert_eq!(started.len(), num_chunks);
        prop_assert!(started.values().all(|&c| c == 1), "a chunk started twice");

        // Placement determinism: re-running the same shape yields the same
        // chunk→node fingerprint regardless of how the schedule unfolded.
        let (_, log2) = pool().taskloop_traced(0..len, grain, mode, |_| {});
        prop_assert_eq!(assignment_fingerprint(&log), assignment_fingerprint(&log2));
    }
}
