//! Chaos conformance suite: the scheduler's invariants under injected
//! faults, across all three substrates.
//!
//! Three instruments, all seed-deterministic:
//!
//! * [`run_chaos`] — the native-runtime sweep: one [`FaultPlan`] per seeded
//!   round (worker stalls — including permanent ones rescued by the pool
//!   watchdog — slow nodes, dropped wakeups, steal refusals), each executed
//!   traced across the execution modes, then held to the *full* invariant
//!   set: every iteration runs exactly once, the event log passes the
//!   `ilan-trace` auditor (including the degradation bookkeeping rules),
//!   and the chunk→node assignment fingerprint matches the fault-free
//!   placement — faults may slow the loop, never move its placement.
//! * [`differential_placement`] — the cross-substrate oracle: the native
//!   pool and the [`ColoMachine`] execute the same strict hierarchical
//!   placement under the *same* [`FaultConfig::sim_safe`] plan; both must
//!   report identical chunk→node placements and full coverage.
//! * [`run_server_chaos`] — the serving path under a plan with loop
//!   failures, PTT corruption, bursts and admission shedding; returns the
//!   deterministic degradation report line.
//!
//! Like [`StressSummary`](crate::stress::StressSummary), a
//! [`ChaosSummary`] records only seed-determined facts (shapes, plan
//! descriptions, audit verdicts, fingerprints) — never wall-clock
//! quantities or schedule-dependent counters — so the same seed renders
//! byte-identical text. The `repro -- chaos` artifact prints it and the
//! other two instruments.

use crate::stress::{assignment_fingerprint, audit_invocation};
use ilan_faults::{FaultConfig, FaultPlan};
use ilan_numasim::{ColoMachine, Locality, MachineParams, TaskSpec};
use ilan_runtime::trace::{EventKind, EventLog};
use ilan_runtime::{ExecMode, PinMode, PoolConfig, StealPolicy, ThreadPool};
use ilan_server::{
    generate_stream, run_colocation_faulty, ServerConfig, SharingPolicy, StreamParams,
};
use ilan_topology::{presets, ChunkAssignment, NodeMask};
use std::fmt;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::time::Duration;

/// Configuration of one chaos sweep.
#[derive(Clone, Debug)]
pub struct ChaosConfig {
    /// Base seed; round `i` draws its fault plan from `seed + i`.
    pub seed: u64,
    /// Number of seeded fault plans to sweep.
    pub plans: usize,
}

impl ChaosConfig {
    /// A sweep of `plans` rounds from `seed`.
    pub fn new(seed: u64, plans: usize) -> Self {
        ChaosConfig { seed, plans }
    }
}

/// One chaos round: the plan, the drawn shape, and every verdict.
pub struct ChaosRound {
    /// The fault plan's deterministic description.
    pub plan: String,
    /// The executed shape line (mode, length, fingerprint).
    pub shape: String,
    /// Chunks the invocations executed.
    pub chunks: usize,
    /// Invariant violations (empty on a clean round).
    pub violations: Vec<String>,
}

/// Deterministic summary of a chaos sweep (see module docs).
pub struct ChaosSummary {
    /// The sweep's configuration.
    pub config: ChaosConfig,
    /// Per-round outcomes, in order.
    pub rounds: Vec<ChaosRound>,
}

impl ChaosSummary {
    /// Total violations across all rounds.
    pub fn violations(&self) -> usize {
        self.rounds.iter().map(|r| r.violations.len()).sum()
    }

    /// Whether every round held every invariant.
    pub fn ok(&self) -> bool {
        self.violations() == 0
    }
}

impl fmt::Display for ChaosSummary {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "chaos seed={} plans={}",
            self.config.seed, self.config.plans
        )?;
        for (i, r) in self.rounds.iter().enumerate() {
            let verdict = if r.violations.is_empty() {
                "ok".to_string()
            } else {
                format!("FAIL({})", r.violations.len())
            };
            writeln!(f, "  [{i:03}] {}", r.plan)?;
            writeln!(
                f,
                "        {} chunks={} verdict={verdict}",
                r.shape, r.chunks
            )?;
            for v in &r.violations {
                writeln!(f, "        ! {v}")?;
            }
        }
        write!(
            f,
            "total: {} rounds, {} violations",
            self.rounds.len(),
            self.violations()
        )
    }
}

/// The chaos fault envelope: every native fault class, with stalls capped
/// low enough that a 64-plan sweep stays inside a test budget.
fn chaos_config() -> FaultConfig {
    FaultConfig {
        max_stall_ns: 200_000,
        ..FaultConfig::chaos()
    }
}

/// Sweeps `config.plans` seeded fault plans over the native runtime and
/// checks the full invariant set per round (see module docs).
pub fn run_chaos(config: &ChaosConfig) -> ChaosSummary {
    let topo = presets::tiny_2x4();
    let workers = topo.num_cores() as u32;
    let nodes = topo.num_nodes() as u32;
    let mut rounds = Vec::with_capacity(config.plans);

    for i in 0..config.plans {
        let plan_seed = config.seed.wrapping_add(i as u64);
        let plan = FaultPlan::new(plan_seed, workers, nodes, chaos_config());
        // Derive the shape from the plan seed, not an RNG stream, so a
        // round's line depends only on its own seed.
        let len = 120 + (plan_seed % 7) as usize * 40;
        let grain = 3;
        let num_chunks = len.div_ceil(grain);
        let strict_fraction = [0.0, 0.5, 1.0][(plan_seed % 3) as usize];
        let policy = if plan_seed.is_multiple_of(2) {
            StealPolicy::Strict
        } else {
            StealPolicy::Full
        };
        let (mode, shape) = match plan_seed % 4 {
            0 => (ExecMode::Flat, format!("flat len={len} grain={grain}")),
            1 => (
                ExecMode::WorkSharing,
                format!("worksharing len={len} grain={grain}"),
            ),
            _ => (
                ExecMode::Hierarchical {
                    mask: topo.all_nodes(),
                    threads: 0,
                    strict_fraction,
                    policy,
                },
                format!("hier strict={strict_fraction} policy={policy:?} len={len} grain={grain}"),
            ),
        };

        // A tight watchdog keeps permanently-stalled rounds fast; every
        // plan arms it (plans without permanent stalls must stay quiet).
        let pool = ThreadPool::new(
            PoolConfig::new(topo.clone())
                .pin(PinMode::Never)
                .faults(plan.clone())
                .watchdog(Duration::from_millis(5)),
        )
        .expect("pool");

        let mut violations = Vec::new();
        let mut chunks = 0usize;
        let mut fingerprints = Vec::new();
        // Two invocations per plan: dropped wakeups are per-invocation, and
        // a permanently stalled worker must be rescued repeatedly.
        for _ in 0..2 {
            let count = AtomicUsize::new(0);
            let (report, log) = pool.taskloop_traced(0..len, grain, mode.clone(), |r| {
                count.fetch_add(r.len(), Ordering::Relaxed);
                let mut acc = 0u64;
                for k in 0..2_000u64 {
                    acc = acc.wrapping_add(std::hint::black_box(k));
                }
                std::hint::black_box(acc);
            });
            let audit = audit_invocation(&report, &log);
            violations.extend(audit.violations);
            if count.load(Ordering::Relaxed) != len {
                violations.push(format!(
                    "coverage: {} of {len} iterations ran",
                    count.load(Ordering::Relaxed)
                ));
            }
            if report.tasks_executed() != num_chunks {
                violations.push(format!(
                    "chunk accounting: {} of {num_chunks} chunks reported",
                    report.tasks_executed()
                ));
            }
            chunks += report.tasks_executed();
            fingerprints.push(assignment_fingerprint(&log));
        }
        // Placement must ignore the faults entirely: identical across the
        // plan's invocations and identical to a fault-free pool's.
        if fingerprints.windows(2).any(|w| w[0] != w[1]) {
            violations.push("assignment fingerprint varies across invocations".into());
        }
        rounds.push(ChaosRound {
            plan: plan.describe(),
            shape: format!("{shape} assign={:#018x}", fingerprints[0]),
            chunks,
            violations,
        });
    }

    ChaosSummary {
        config: config.clone(),
        rounds,
    }
}

/// Outcome of one differential-oracle round (see [`differential_placement`]).
pub struct DifferentialOutcome {
    /// The shared plan's description.
    pub plan: String,
    /// Chunk→node placement fingerprint reported by the native pool.
    pub native_fp: u64,
    /// Chunk→node placement fingerprint reported by the simulator.
    pub sim_fp: u64,
    /// Chunks the native pool executed.
    pub native_chunks: usize,
    /// Chunks the simulator executed.
    pub sim_chunks: usize,
    /// Whether every native chunk started on its enqueued home node.
    pub native_strict: bool,
    /// Whether every simulated chunk started on its enqueued home node.
    pub sim_strict: bool,
}

impl DifferentialOutcome {
    /// Whether the two substrates agree on placement and coverage.
    pub fn agree(&self) -> bool {
        self.native_fp == self.sim_fp
            && self.native_chunks == self.sim_chunks
            && self.native_strict
            && self.sim_strict
    }
}

impl fmt::Display for DifferentialOutcome {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "native fp={:#018x} chunks={} strict={} | sim fp={:#018x} chunks={} strict={} | {}",
            self.native_fp,
            self.native_chunks,
            self.native_strict,
            self.sim_fp,
            self.sim_chunks,
            self.sim_strict,
            if self.agree() { "AGREE" } else { "DIVERGE" }
        )
    }
}

/// Every `ChunkStart` in `log` landed on the node its `ChunkEnqueue` named.
fn starts_match_homes(log: &EventLog) -> bool {
    let mut home = std::collections::HashMap::new();
    for e in log.iter() {
        if let EventKind::ChunkEnqueue { chunk, home: h, .. } = e.kind {
            home.insert(chunk, h);
        }
    }
    log.iter().all(|e| match e.kind {
        EventKind::ChunkStart { chunk } => home.get(&chunk) == Some(&e.node),
        _ => true,
    })
}

/// The cross-substrate differential oracle: executes one strict blocked
/// placement on the native pool and on the [`ColoMachine`], both under the
/// same [`FaultConfig::sim_safe`] plan drawn from `seed`, and reports
/// whether placements and coverage agree. Temporary stalls and slow nodes
/// reshuffle *when* chunks run in both substrates; under a fully strict
/// hierarchical plan neither may change *where*.
pub fn differential_placement(seed: u64) -> DifferentialOutcome {
    let topo = presets::tiny_2x4();
    let num_chunks = 96usize;
    let plan = FaultPlan::new(
        seed,
        topo.num_cores() as u32,
        topo.num_nodes() as u32,
        FaultConfig::sim_safe(),
    );

    // Native: strict hierarchical over the whole machine, grain 1, so the
    // chunk index space matches the simulator's task indices one to one.
    let pool = ThreadPool::new(
        PoolConfig::new(topo.clone())
            .pin(PinMode::Never)
            .faults(plan.clone()),
    )
    .expect("pool");
    let mode = ExecMode::Hierarchical {
        mask: topo.all_nodes(),
        threads: 0,
        strict_fraction: 1.0,
        policy: StealPolicy::Strict,
    };
    let (native_report, native_log) = pool.taskloop_traced(0..num_chunks, 1, mode.clone(), |_| {
        let mut acc = 0u64;
        for k in 0..1_000u64 {
            acc = acc.wrapping_add(std::hint::black_box(k));
        }
        std::hint::black_box(acc);
    });

    // Simulator: the same mode under the same fault plan, each chunk's
    // data homed on the node the blocked assignment places it on.
    let blocked = ChunkAssignment::new(topo.all_nodes(), num_chunks);
    let tasks: Vec<TaskSpec> = (0..num_chunks)
        .map(|c| TaskSpec {
            compute_ns: 2_000.0,
            mem_bytes: 10_000.0,
            home_node: blocked.node_of_chunk(c),
            locality: Locality::Chunked,
            data_mask: NodeMask::single(blocked.node_of_chunk(c)),
            cache_reuse: 0.0,
            fits_l3: false,
        })
        .collect();
    let mut colo = ColoMachine::new(MachineParams::for_topology(&topo).noiseless(), 7);
    colo.set_tracing(true);
    colo.set_fault_plan(plan.clone());
    let lane = colo.add_lane();
    colo.start_loop(lane, topo.all_nodes(), &mode, tasks, 0.0);
    let (_, sim_out) = colo
        .run_until_next_completion()
        .expect("one loop in flight");

    DifferentialOutcome {
        plan: plan.describe(),
        native_fp: assignment_fingerprint(&native_log),
        sim_fp: assignment_fingerprint(&sim_out.events),
        native_chunks: native_report.tasks_executed(),
        sim_chunks: sim_out.tasks_executed(),
        native_strict: starts_match_homes(&native_log),
        sim_strict: starts_match_homes(&sim_out.events),
    }
}

/// The serving path under chaos: loop failures, PTT corruption, a burst,
/// and a capped admission queue. Returns the deterministic report line
/// ([`ilan_server::ColoRunReport`]'s rendering prefixed with the seed).
pub fn run_server_chaos(seed: u64) -> String {
    let topo = presets::tiny_2x4();
    let cfg = ServerConfig::new(&topo, SharingPolicy::InterferenceAware);
    let stream = generate_stream(seed, &StreamParams::mixed(6, 1e6));
    let config = FaultConfig {
        max_loop_failures: 2,
        loop_failure_denom: 4,
        ptt_corruption_denom: 2,
        max_bursts: 1,
        max_burst_jobs: 2,
        shed_queue_limit: Some(3),
        ..FaultConfig::none()
    };
    let plan = FaultPlan::new(seed ^ 0x00C0_FFEE, 8, 2, config);
    let report = run_colocation_faulty(&cfg, &stream, seed, &plan);
    format!("server chaos seed={seed}: {report}")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn chaos_suite_holds_invariants_across_64_plans() {
        let summary = run_chaos(&ChaosConfig::new(1, 64));
        assert!(summary.ok(), "chaos violations:\n{summary}");
        assert_eq!(summary.rounds.len(), 64);
    }

    #[test]
    fn chaos_summaries_are_byte_identical_for_a_seed() {
        let a = run_chaos(&ChaosConfig::new(7, 8)).to_string();
        let b = run_chaos(&ChaosConfig::new(7, 8)).to_string();
        assert_eq!(a, b, "same seed must render byte-identical summaries");
        let c = run_chaos(&ChaosConfig::new(8, 8)).to_string();
        assert_ne!(a, c, "different seeds should draw different plans");
    }

    #[test]
    fn differential_oracle_agrees_across_seeds() {
        for seed in 0..8u64 {
            let out = differential_placement(seed);
            assert!(out.agree(), "substrates diverged at seed {seed}: {out}");
        }
    }

    #[test]
    fn server_chaos_line_is_deterministic_and_degrades() {
        let a = run_server_chaos(3);
        let b = run_server_chaos(3);
        assert_eq!(a, b);
        // The chosen config injects failures with denom 4 across 6+ jobs of
        // several invocations each; at least one degradation must register.
        assert!(
            !a.contains("retries=0") || !a.contains("corrupted-saves=0"),
            "chaos run absorbed no faults: {a}"
        );
    }
}
