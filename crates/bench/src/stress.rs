//! Randomized stress-audit harness for the native runtime.
//!
//! Each iteration draws a taskloop shape from a seeded RNG — ragged range
//! lengths, skewed body weights, every execution mode, every steal policy
//! and strict fraction, and (halfway through the run) a mid-run topology
//! restriction to a single node — executes it traced on a shared
//! [`ThreadPool`], and replays the event log through the `ilan-trace`
//! auditor against the invocation's [`LoopReport`].
//!
//! The summary is **deterministic for a given seed**: it records only the
//! drawn shapes and the audit verdicts, never wall-clock quantities or
//! schedule-dependent counters (which worker stole what varies run to run;
//! whether the log is *consistent* does not). The `stress` binary prints it
//! and exits non-zero on any violation; a test byte-compares two runs.

use ilan_runtime::trace::{audit, AuditExpect, AuditReport, EventKind, EventLog, NodeTally};
use ilan_runtime::{ExecMode, LoopReport, PinMode, PoolConfig, StealPolicy, ThreadPool};
use ilan_topology::{presets, NodeMask};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::fmt;
use std::sync::atomic::{AtomicUsize, Ordering};

/// Configuration for one stress run.
#[derive(Clone, Debug)]
pub struct StressConfig {
    /// RNG seed; fixes every drawn shape.
    pub seed: u64,
    /// Number of randomized taskloop iterations.
    pub iters: usize,
}

impl StressConfig {
    /// A stress run with `iters` iterations from `seed`.
    pub fn new(seed: u64, iters: usize) -> Self {
        StressConfig { seed, iters }
    }
}

/// One iteration's drawn shape and audit verdict.
pub struct IterOutcome {
    /// The shape line (deterministic for the seed).
    pub shape: String,
    /// Chunks the invocation executed.
    pub chunks: usize,
    /// Audit violations (empty on a clean iteration).
    pub violations: Vec<String>,
}

/// Deterministic summary of a whole stress run (see module docs).
pub struct StressSummary {
    /// The run's configuration.
    pub config: StressConfig,
    /// Per-iteration outcomes, in order.
    pub iterations: Vec<IterOutcome>,
}

impl StressSummary {
    /// Total audit violations across all iterations.
    pub fn violations(&self) -> usize {
        self.iterations.iter().map(|i| i.violations.len()).sum()
    }

    /// Total chunks executed across all iterations.
    pub fn chunks(&self) -> usize {
        self.iterations.iter().map(|i| i.chunks).sum()
    }

    /// Whether every iteration audited clean.
    pub fn ok(&self) -> bool {
        self.violations() == 0
    }
}

impl fmt::Display for StressSummary {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "stress seed={} iters={}",
            self.config.seed, self.config.iters
        )?;
        for (i, it) in self.iterations.iter().enumerate() {
            let verdict = if it.violations.is_empty() {
                "ok".to_string()
            } else {
                format!("FAIL({})", it.violations.len())
            };
            writeln!(
                f,
                "  [{i:03}] {} chunks={} audit={verdict}",
                it.shape, it.chunks
            )?;
            for v in &it.violations {
                writeln!(f, "        ! {v}")?;
            }
        }
        write!(
            f,
            "total: {} chunks, {} violations",
            self.chunks(),
            self.violations()
        )
    }
}

/// The audit expectations implied by a [`LoopReport`].
pub fn expect_from(report: &LoopReport) -> AuditExpect {
    AuditExpect {
        migrations: Some(report.migrations),
        latch_releases: Some(report.threads),
        per_node: Some(
            report
                .nodes
                .iter()
                .map(|n| NodeTally {
                    tasks: n.tasks,
                    local_tasks: Some(n.local_tasks),
                })
                .collect(),
        ),
    }
}

/// Audits a traced native invocation against its report.
pub fn audit_invocation(report: &LoopReport, log: &EventLog) -> AuditReport {
    audit(log, &expect_from(report))
}

/// FNV-1a fingerprint of an invocation's chunk→node assignment, taken from
/// the dispatcher's `ChunkEnqueue` events (chunk index, home node, strict
/// flag, in chunk order). The assignment is a pure function of the loop
/// shape — §3.3's deterministic blocked mapping — so the fingerprint must be
/// identical across runs, schedules, wake modes and refactors; only the
/// *placement policy itself* changing may move it.
pub fn assignment_fingerprint(log: &EventLog) -> u64 {
    let mut placed: Vec<(u32, u32, bool)> = log
        .iter()
        .filter_map(|e| match e.kind {
            EventKind::ChunkEnqueue {
                chunk,
                home,
                strict,
            } => Some((chunk, home, strict)),
            _ => None,
        })
        .collect();
    placed.sort_unstable();
    placement_fingerprint(&placed)
}

/// The fingerprint over an explicit `(chunk, home, strict)` placement list
/// (which must be sorted by chunk index). Exposed so tests can recompute the
/// expected value from [`ChunkAssignment`](ilan_runtime::ChunkAssignment)
/// independently of the runtime's dispatch path.
pub fn placement_fingerprint(placed: &[(u32, u32, bool)]) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    let mut mix = |v: u64| {
        h ^= v;
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    };
    for &(chunk, home, strict) in placed {
        mix(u64::from(chunk));
        mix(u64::from(home));
        mix(u64::from(strict));
    }
    h
}

/// Runs the randomized stress-audit loop (see module docs).
pub fn run_stress(config: &StressConfig) -> StressSummary {
    let topo = presets::tiny_2x4();
    let num_nodes = topo.num_nodes();
    let pool = ThreadPool::new(PoolConfig::new(topo).pin(PinMode::Never)).expect("pool");
    let mut rng = StdRng::seed_from_u64(config.seed);
    let mut iterations = Vec::with_capacity(config.iters);

    for iter in 0..config.iters {
        // Ragged shapes: lengths that don't divide evenly into chunks.
        let mut len = rng.random_range(1usize..2_000);
        let mut grain = rng.random_range(1usize..40);
        // Chunk-heavy shapes: single-iteration chunks over a long range put
        // maximum pressure on the cursor claims (thousands of one-chunk
        // claims and tail steals racing each other). The summary tags them
        // `batch `.
        let batchy = rng.random_range(0u32..4) == 0;
        if batchy {
            len = rng.random_range(1_000usize..3_000);
            grain = 1;
        }
        let tag = if batchy { "batch " } else { "" };
        // Mid-run topology restriction: the second half of the run confines
        // hierarchical invocations to node 0.
        let restricted = iter >= config.iters / 2;
        let mask = if restricted {
            NodeMask::first_n(1)
        } else {
            NodeMask::from_bits(rng.random_range(1u64..(1 << num_nodes)))
        };
        let strict_fraction = [0.0, 0.25, 0.5, 0.75, 1.0][rng.random_range(0usize..5)];
        let policy = if rng.random_range(0u32..2) == 0 {
            StealPolicy::Strict
        } else {
            StealPolicy::Full
        };
        let threads = [0, 0, 2, 4][rng.random_range(0usize..4)];
        let (mode, shape) = match rng.random_range(0u32..4) {
            0 => (ExecMode::Flat, format!("{tag}flat len={len} grain={grain}")),
            1 => (
                ExecMode::WorkSharing,
                format!("{tag}worksharing len={len} grain={grain}"),
            ),
            _ => (
                ExecMode::Hierarchical {
                    mask,
                    threads,
                    strict_fraction,
                    policy,
                },
                format!(
                    "{tag}hier mask={mask:?} threads={threads} strict={strict_fraction} \
                     policy={policy:?} len={len} grain={grain}"
                ),
            ),
        };
        // Skewed bodies: a seeded subset of iterations spin ~50× longer,
        // manufacturing imbalance that provokes steals.
        let skew_stride = rng.random_range(3usize..17);
        let count = AtomicUsize::new(0);
        let (report, log) = pool.taskloop_traced(0..len, grain, mode, |r| {
            count.fetch_add(r.len(), Ordering::Relaxed);
            let spins = if r.start % skew_stride == 0 {
                50_000
            } else {
                1_000
            };
            let mut acc = 0u64;
            for i in 0..spins {
                acc = acc.wrapping_add(std::hint::black_box(i));
            }
            std::hint::black_box(acc);
        });
        let mut violations = audit_invocation(&report, &log).violations;
        if count.load(Ordering::Relaxed) != len {
            violations.push(format!(
                "body coverage: {} of {len} iterations ran",
                count.load(Ordering::Relaxed)
            ));
        }
        // The chunk→node assignment is deterministic for the shape, so its
        // fingerprint belongs in the byte-compared summary.
        let shape = format!("{shape} assign={:#018x}", assignment_fingerprint(&log));
        iterations.push(IterOutcome {
            shape,
            chunks: report.tasks_executed(),
            violations,
        });
    }

    StressSummary {
        config: config.clone(),
        iterations,
    }
}

/// A workload engineered to make node 1 finish early and (policy permitting)
/// steal node 0's slow chunks across the socket: all chunks stealable, node
/// 0's chunks ~100× heavier. Under [`StealPolicy::Full`] the event log shows
/// inter-node steals; under [`StealPolicy::Strict`] it cannot.
pub fn forced_steal_demo(policy: StealPolicy) -> (LoopReport, EventLog) {
    let topo = presets::tiny_2x4();
    let pool = ThreadPool::new(PoolConfig::new(topo.clone()).pin(PinMode::Never)).expect("pool");
    let mode = ExecMode::Hierarchical {
        mask: topo.all_nodes(),
        threads: 0,
        strict_fraction: 0.0,
        policy,
    };
    // 64 chunks of one iteration each; chunks 0..32 are homed on node 0 by
    // the blocked assignment and carry the heavy bodies.
    pool.taskloop_traced(0..64, 1, mode, |r| {
        let spins = if r.start < 32 { 400_000 } else { 4_000 };
        let mut acc = 0u64;
        for i in 0..spins {
            acc = acc.wrapping_add(std::hint::black_box(i));
        }
        std::hint::black_box(acc);
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn stress_seeded_runs_are_byte_identical() {
        let a = run_stress(&StressConfig::new(42, 12)).to_string();
        let b = run_stress(&StressConfig::new(42, 12)).to_string();
        assert_eq!(a, b, "same seed must give byte-identical summaries");
        assert!(a.contains("0 violations"), "clean run expected:\n{a}");
        let c = run_stress(&StressConfig::new(43, 12)).to_string();
        assert_ne!(a, c, "different seeds should draw different shapes");
    }

    /// The exact placement `run_stress` shapes rely on: chunk→node via the
    /// blocked assignment, strict prefix per node via the policy's strict
    /// fraction. Mirrors the dispatcher's enqueue loop.
    fn expected_placement(
        mask: ilan_topology::NodeMask,
        num_chunks: usize,
        strict_fraction: f64,
    ) -> Vec<(u32, u32, bool)> {
        let assignment = ilan_runtime::ChunkAssignment::new(mask, num_chunks);
        let mut placed = Vec::new();
        for (rank, node) in mask.iter().enumerate() {
            let idxs = assignment.chunks_of_rank(rank);
            let strict_count = ((idxs.len() as f64) * strict_fraction).round() as usize;
            for (j, idx) in idxs.enumerate() {
                placed.push((idx as u32, node.index() as u32, j < strict_count));
            }
        }
        placed.sort_unstable();
        placed
    }

    #[test]
    fn chunk_assignment_fingerprint_is_deterministic_and_golden() {
        let topo = presets::tiny_2x4();
        let pool =
            ThreadPool::new(PoolConfig::new(topo.clone()).pin(PinMode::Never)).expect("pool");
        let mode = ExecMode::Hierarchical {
            mask: topo.all_nodes(),
            threads: 0,
            strict_fraction: 0.5,
            policy: StealPolicy::Full,
        };
        // 130 iterations at grain 2 → 65 chunks: odd count, so the blocked
        // split and the strict-fraction rounding both exercise remainders.
        let (_, log_a) = pool.taskloop_traced(0..130, 2, mode.clone(), |_| {});
        let (_, log_b) = pool.taskloop_traced(0..130, 2, mode, |_| {});
        let fp = assignment_fingerprint(&log_a);
        assert_eq!(
            fp,
            assignment_fingerprint(&log_b),
            "assignment must not depend on the thread schedule"
        );

        // The same fingerprint recomputed from ChunkAssignment alone, without
        // running anything: the runtime's enqueue order is pure policy.
        let expected = expected_placement(topo.all_nodes(), 65, 0.5);
        assert_eq!(fp, placement_fingerprint(&expected));

        // Golden value: pins the §3.3 blocked mapping itself. If this moves,
        // the placement policy changed — not just the schedule.
        assert_eq!(
            fp, 0xcdc0_a445_4a8e_29b4,
            "chunk→node placement policy changed"
        );
    }

    #[test]
    fn forced_steal_demo_matches_policy() {
        // Full: node 1 drains its light chunks and must cross the socket.
        // Retry a few times — the thread schedule decides *when* node 1's
        // workers go idle, not whether crossing is permitted.
        let mut crossed = 0;
        for _ in 0..5 {
            let (report, log) = forced_steal_demo(StealPolicy::Full);
            let audit = audit_invocation(&report, &log);
            assert!(audit.ok(), "{audit}");
            crossed = log.inter_node_steals();
            if crossed > 0 {
                break;
            }
        }
        assert!(
            crossed > 0,
            "Full policy never produced an inter-node steal"
        );

        // Strict: crossing is forbidden regardless of imbalance.
        let (report, log) = forced_steal_demo(StealPolicy::Strict);
        let audit = audit_invocation(&report, &log);
        assert!(audit.ok(), "{audit}");
        assert_eq!(log.inter_node_steals(), 0);
        assert_eq!(report.migrations, 0);
    }
}
