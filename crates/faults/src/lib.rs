//! Seeded, deterministic fault-injection plans.
//!
//! A [`FaultPlan`] is derived from a single `u64` seed plus a [`FaultConfig`]
//! describing which fault classes are armed. The same `(seed, workers, nodes,
//! config)` tuple always yields the same plan, and every per-event query
//! (`drops_wakeup`, `corrupts_ptt`, `loop_failures`, …) is a pure function of
//! the plan — no interior state, no wall-clock, no global RNG. That makes a
//! chaos run replayable byte-for-byte and lets the native pool and the
//! simulator consume *the same* plan for differential checking.
//!
//! Fault classes:
//!
//! - **Worker stalls** ([`FaultPlan::stall_of`]): a worker sleeps for a fixed
//!   delay at the start of an invocation before touching any run state; a
//!   *permanent* stall never participates and must be force-released by the
//!   pool's watchdog.
//! - **Slow nodes** ([`FaultPlan::node_slowdown`]): a multiplier ≥ 1 applied
//!   to chunk execution on a node, modelling asymmetric degradation.
//! - **Dropped wakeups** ([`FaultPlan::drops_wakeup`]): the dispatcher skips
//!   posting a worker's run token; the watchdog's broadcast escalation must
//!   repair it.
//! - **Steal refusals** ([`FaultPlan::refuses_remote_steal`]): a worker
//!   declines to steal from remote nodes' cursors, stressing the drain path.
//! - **PTT corruption** ([`FaultPlan::corrupts_ptt`] /
//!   [`FaultPlan::corrupt_text`]): flips bytes in a persisted PTT so the
//!   server must fall back to cold-start exploration.
//! - **Tenant loop failures** ([`FaultPlan::loop_failures`]): a tenant's
//!   taskloop invocation fails N times before succeeding; the server retries
//!   with exponential backoff.
//! - **Job bursts + shedding** ([`FaultPlan::bursts`],
//!   [`FaultPlan::shed_queue_limit`]): extra tenant jobs arrive in a burst
//!   while the admission queue is capped, forcing overload shedding.

#![warn(missing_docs)]
#![forbid(unsafe_code)]

use std::collections::BTreeMap;
use std::fmt::Write as _;

/// SplitMix64: the finalizer used for all stateless per-event hashing.
fn splitmix64(mut z: u64) -> u64 {
    z = z.wrapping_add(0x9e37_79b9_7f4a_7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// Domain tags keep the fault streams independent of each other.
mod domain {
    pub const STALL: u64 = 0x01;
    pub const STALL_DELAY: u64 = 0x02;
    pub const STALL_PERM: u64 = 0x03;
    pub const SLOW_NODE: u64 = 0x04;
    pub const SLOW_FACTOR: u64 = 0x05;
    pub const WAKEUP: u64 = 0x06;
    pub const REFUSAL: u64 = 0x07;
    pub const PTT: u64 = 0x08;
    pub const PTT_BYTE: u64 = 0x09;
    pub const LOOP_FAIL: u64 = 0x0a;
    pub const BURST: u64 = 0x0b;
}

/// One scheduled worker stall.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct StallSpec {
    /// How long the worker sleeps before participating, ns.
    pub delay_ns: u64,
    /// Permanent stalls never participate at all; the watchdog must
    /// force-release them.
    pub permanent: bool,
}

/// One scheduled burst of extra tenant jobs.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct BurstSpec {
    /// The burst arrives together with the stream job of this index.
    pub after_job: usize,
    /// Number of extra jobs injected.
    pub jobs: usize,
}

/// Which fault classes a plan may draw from, and how hard.
///
/// All rates are expressed as denominators: an event fires when its hash is
/// divisible by the denominator, so `0` disables the class and `1` fires it
/// every time.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct FaultConfig {
    /// Maximum number of stalled workers (actual count is seed-derived).
    pub max_worker_stalls: usize,
    /// Whether stalls may be permanent (requires a pool watchdog).
    pub permanent_stalls: bool,
    /// Upper bound on a temporary stall's delay, ns.
    pub max_stall_ns: u64,
    /// Maximum number of slowed nodes.
    pub max_slow_nodes: usize,
    /// Upper bound on the slow-node multiplier (≥ 1.0).
    pub max_node_slowdown: f64,
    /// Drop a wakeup when `hash(invocation, worker) % denom == 0`; 0 = never.
    pub wakeup_drop_denom: u64,
    /// Maximum number of workers refusing remote steals.
    pub max_steal_refusals: usize,
    /// Corrupt a PTT save when `hash(save_index) % denom == 0`; 0 = never.
    pub ptt_corruption_denom: u64,
    /// Fail a tenant loop invocation up to this many times before success.
    pub max_loop_failures: u32,
    /// Fail a loop when `hash(job, invocation) % denom == 0`; 0 = never.
    pub loop_failure_denom: u64,
    /// Maximum number of job bursts.
    pub max_bursts: usize,
    /// Jobs per burst (actual count is seed-derived, in `1..=max`).
    pub max_burst_jobs: usize,
    /// Admission-queue length above which new arrivals are shed.
    pub shed_queue_limit: Option<usize>,
}

impl Default for FaultConfig {
    fn default() -> Self {
        FaultConfig::chaos()
    }
}

impl FaultConfig {
    /// Everything armed: the configuration the chaos conformance suite uses.
    pub fn chaos() -> Self {
        FaultConfig {
            max_worker_stalls: 2,
            permanent_stalls: true,
            max_stall_ns: 2_000_000, // 2 ms
            max_slow_nodes: 2,
            max_node_slowdown: 8.0,
            wakeup_drop_denom: 3,
            max_steal_refusals: 2,
            ptt_corruption_denom: 2,
            max_loop_failures: 2,
            loop_failure_denom: 3,
            max_bursts: 1,
            max_burst_jobs: 3,
            shed_queue_limit: Some(6),
        }
    }

    /// Faults the fluid simulator can express exactly: slow nodes and
    /// *temporary* worker stalls only. Used by the differential oracle,
    /// where native and simulated runs must agree on placement.
    pub fn sim_safe() -> Self {
        FaultConfig {
            max_worker_stalls: 2,
            permanent_stalls: false,
            max_stall_ns: 500_000, // 0.5 ms
            max_slow_nodes: 2,
            max_node_slowdown: 6.0,
            wakeup_drop_denom: 0,
            max_steal_refusals: 0,
            ptt_corruption_denom: 0,
            max_loop_failures: 0,
            loop_failure_denom: 0,
            max_bursts: 0,
            max_burst_jobs: 0,
            shed_queue_limit: None,
        }
    }

    /// No faults at all; `FaultPlan` under this config is a no-op plan.
    pub fn none() -> Self {
        FaultConfig {
            max_worker_stalls: 0,
            permanent_stalls: false,
            max_stall_ns: 0,
            max_slow_nodes: 0,
            max_node_slowdown: 1.0,
            wakeup_drop_denom: 0,
            max_steal_refusals: 0,
            ptt_corruption_denom: 0,
            max_loop_failures: 0,
            loop_failure_denom: 0,
            max_bursts: 0,
            max_burst_jobs: 0,
            shed_queue_limit: None,
        }
    }
}

/// A fully materialized, deterministic fault schedule.
///
/// Construction picks the *targets* (which workers stall, which nodes slow
/// down, …) from the seed; per-event queries hash the seed with a domain tag
/// so repeated queries always agree.
#[derive(Clone, Debug, PartialEq)]
pub struct FaultPlan {
    seed: u64,
    workers: u32,
    nodes: u32,
    config: FaultConfig,
    stalls: BTreeMap<u32, StallSpec>,
    slow_nodes: BTreeMap<u32, f64>,
    refusals: Vec<u32>,
    bursts: Vec<BurstSpec>,
}

impl FaultPlan {
    /// Derives the plan for a machine with `workers` workers and `nodes`
    /// NUMA nodes from `seed` under `config`.
    pub fn new(seed: u64, workers: u32, nodes: u32, config: FaultConfig) -> FaultPlan {
        let h = |domain: u64, x: u64| {
            splitmix64(seed ^ splitmix64(domain) ^ x.wrapping_mul(0x9e37_79b9_7f4a_7c15))
        };

        let mut stalls = BTreeMap::new();
        if config.max_worker_stalls > 0 && workers > 1 && config.max_stall_ns > 0 {
            // Stall at most max_worker_stalls workers, never all of them.
            let budget = config.max_worker_stalls.min(workers as usize - 1);
            let count = (h(domain::STALL, 0) % (budget as u64 + 1)) as usize;
            let mut picked = 0usize;
            for k in 0u64.. {
                if picked == count {
                    break;
                }
                let w = (h(domain::STALL, k + 1) % workers as u64) as u32;
                if stalls.contains_key(&w) {
                    continue;
                }
                let permanent = config.permanent_stalls && h(domain::STALL_PERM, w as u64) % 2 == 0;
                let delay_ns = 1 + h(domain::STALL_DELAY, w as u64) % config.max_stall_ns;
                stalls.insert(
                    w,
                    StallSpec {
                        delay_ns,
                        permanent,
                    },
                );
                picked += 1;
            }
        }

        let mut slow_nodes = BTreeMap::new();
        if config.max_slow_nodes > 0 && nodes > 0 && config.max_node_slowdown > 1.0 {
            let budget = config.max_slow_nodes.min(nodes as usize);
            let count = (h(domain::SLOW_NODE, 0) % (budget as u64 + 1)) as usize;
            let mut picked = 0usize;
            for k in 0u64.. {
                if picked == count {
                    break;
                }
                let n = (h(domain::SLOW_NODE, k + 1) % nodes as u64) as u32;
                if slow_nodes.contains_key(&n) {
                    continue;
                }
                // Factor in (1, max], quantized to 1/16ths so it prints
                // exactly and the sim multiplies the same value.
                let steps = (16.0 * (config.max_node_slowdown - 1.0)) as u64;
                let q = 1 + h(domain::SLOW_FACTOR, n as u64) % steps.max(1);
                slow_nodes.insert(n, 1.0 + q as f64 / 16.0);
                picked += 1;
            }
        }

        let mut refusals = Vec::new();
        if config.max_steal_refusals > 0 && workers > 0 {
            let budget = config.max_steal_refusals.min(workers as usize);
            let count = (h(domain::REFUSAL, 0) % (budget as u64 + 1)) as usize;
            for k in 0u64.. {
                if refusals.len() == count {
                    break;
                }
                let w = (h(domain::REFUSAL, k + 1) % workers as u64) as u32;
                if !refusals.contains(&w) {
                    refusals.push(w);
                }
            }
            refusals.sort_unstable();
        }

        let mut bursts = Vec::new();
        if config.max_bursts > 0 && config.max_burst_jobs > 0 {
            let count = (h(domain::BURST, 0) % (config.max_bursts as u64 + 1)) as usize;
            for k in 0..count as u64 {
                bursts.push(BurstSpec {
                    after_job: (h(domain::BURST, 2 * k + 1) % 8) as usize,
                    jobs: 1 + (h(domain::BURST, 2 * k + 2) % config.max_burst_jobs as u64) as usize,
                });
            }
            bursts.sort_by_key(|b| b.after_job);
        }

        FaultPlan {
            seed,
            workers,
            nodes,
            config,
            stalls,
            slow_nodes,
            refusals,
            bursts,
        }
    }

    fn h(&self, domain: u64, x: u64) -> u64 {
        splitmix64(self.seed ^ splitmix64(domain) ^ x.wrapping_mul(0x9e37_79b9_7f4a_7c15))
    }

    /// The seed the plan was derived from.
    pub fn seed(&self) -> u64 {
        self.seed
    }

    /// The config the plan was derived under.
    pub fn config(&self) -> &FaultConfig {
        &self.config
    }

    /// The stall scheduled for `worker`, if any.
    pub fn stall_of(&self, worker: u32) -> Option<StallSpec> {
        self.stalls.get(&worker).copied()
    }

    /// All scheduled stalls, keyed by worker.
    pub fn stalls(&self) -> &BTreeMap<u32, StallSpec> {
        &self.stalls
    }

    /// True if any scheduled stall is permanent (the pool then requires a
    /// watchdog to terminate).
    pub fn has_permanent_stall(&self) -> bool {
        self.stalls.values().any(|s| s.permanent)
    }

    /// Execution-speed multiplier for `node` (1.0 = healthy).
    pub fn node_slowdown(&self, node: u32) -> f64 {
        self.slow_nodes.get(&node).copied().unwrap_or(1.0)
    }

    /// All slowed nodes and their multipliers.
    pub fn slow_nodes(&self) -> &BTreeMap<u32, f64> {
        &self.slow_nodes
    }

    /// Whether the dispatcher drops `worker`'s wakeup in `invocation`.
    ///
    /// Never drops the wakeup of a healthy worker 0 so at least one worker
    /// always makes progress without watchdog help.
    pub fn drops_wakeup(&self, invocation: u64, worker: u32) -> bool {
        if self.config.wakeup_drop_denom == 0 {
            return false;
        }
        if worker == 0 && !self.stalls.contains_key(&0) {
            return false;
        }
        self.h(
            domain::WAKEUP,
            invocation.wrapping_mul(0x1_0001) ^ worker as u64,
        )
        .is_multiple_of(self.config.wakeup_drop_denom)
    }

    /// Whether `worker` refuses to steal from remote nodes.
    pub fn refuses_remote_steal(&self, worker: u32) -> bool {
        self.refusals.binary_search(&worker).is_ok()
    }

    /// Workers refusing remote steals, ascending.
    pub fn steal_refusals(&self) -> &[u32] {
        &self.refusals
    }

    /// Whether the `save_index`-th PTT save is corrupted on disk.
    pub fn corrupts_ptt(&self, save_index: u64) -> bool {
        self.config.ptt_corruption_denom != 0
            && self
                .h(domain::PTT, save_index)
                .is_multiple_of(self.config.ptt_corruption_denom)
    }

    /// Deterministically corrupts `text`: flips a seed-chosen number of
    /// bytes (at least one) at seed-chosen offsets. The result is valid
    /// UTF-8-lossy text but no longer a parseable PTT in the common case.
    pub fn corrupt_text(&self, text: &str) -> String {
        if text.is_empty() {
            return "\u{0}corrupt".to_string();
        }
        let mut bytes = text.as_bytes().to_vec();
        let flips = 1 + (self.h(domain::PTT_BYTE, 0) % 8) as usize;
        for k in 0..flips {
            let i = (self.h(domain::PTT_BYTE, k as u64 + 1) % bytes.len() as u64) as usize;
            bytes[i] =
                bytes[i].wrapping_add(1 + (self.h(domain::PTT_BYTE, 0x100 + k as u64) % 255) as u8);
        }
        String::from_utf8_lossy(&bytes).into_owned()
    }

    /// How many times the `invocation`-th loop of `job` fails before it
    /// succeeds (0 = never fails). The server retries each failure with
    /// exponential backoff.
    pub fn loop_failures(&self, job: u64, invocation: u64) -> u32 {
        if self.config.loop_failure_denom == 0 || self.config.max_loop_failures == 0 {
            return 0;
        }
        let x = job.wrapping_mul(0x0001_0003) ^ invocation;
        if !self
            .h(domain::LOOP_FAIL, x)
            .is_multiple_of(self.config.loop_failure_denom)
        {
            return 0;
        }
        1 + (self.h(domain::LOOP_FAIL, x ^ 0xfeed) % self.config.max_loop_failures as u64) as u32
    }

    /// Scheduled job bursts, sorted by trigger index.
    pub fn bursts(&self) -> &[BurstSpec] {
        &self.bursts
    }

    /// Admission-queue length above which arrivals are shed, if armed.
    pub fn shed_queue_limit(&self) -> Option<usize> {
        self.config.shed_queue_limit
    }

    /// One-line deterministic description of the plan's shape. Depends only
    /// on the plan (never on runtime behaviour), so it is safe to include in
    /// byte-compared chaos summaries.
    pub fn describe(&self) -> String {
        let mut out = String::new();
        let _ = write!(
            out,
            "plan seed={:#018x} workers={} nodes={}",
            self.seed, self.workers, self.nodes
        );
        for (w, s) in &self.stalls {
            let kind = if s.permanent { "perm" } else { "temp" };
            let _ = write!(out, " stall(w{w},{kind},{}ns)", s.delay_ns);
        }
        for (n, f) in &self.slow_nodes {
            let _ = write!(out, " slow(n{n},x{f:.4})");
        }
        for w in &self.refusals {
            let _ = write!(out, " refuse(w{w})");
        }
        for b in &self.bursts {
            let _ = write!(out, " burst(after={},jobs={})", b.after_job, b.jobs);
        }
        if self.config.wakeup_drop_denom != 0 {
            let _ = write!(out, " drop-wakeups(1/{})", self.config.wakeup_drop_denom);
        }
        if self.config.ptt_corruption_denom != 0 {
            let _ = write!(out, " ptt-corrupt(1/{})", self.config.ptt_corruption_denom);
        }
        if self.config.loop_failure_denom != 0 {
            let _ = write!(out, " loop-fail(1/{})", self.config.loop_failure_denom);
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_same_plan() {
        let a = FaultPlan::new(42, 8, 2, FaultConfig::chaos());
        let b = FaultPlan::new(42, 8, 2, FaultConfig::chaos());
        assert_eq!(a, b);
        assert_eq!(a.describe(), b.describe());
        for inv in 0..100 {
            for w in 0..8 {
                assert_eq!(a.drops_wakeup(inv, w), b.drops_wakeup(inv, w));
            }
        }
    }

    #[test]
    fn seeds_vary_the_plan() {
        let plans: Vec<_> = (0..32u64)
            .map(|s| FaultPlan::new(s, 8, 2, FaultConfig::chaos()).describe())
            .collect();
        let mut unique = plans.clone();
        unique.sort();
        unique.dedup();
        assert!(
            unique.len() > 16,
            "plans barely vary: {} unique of 32",
            unique.len()
        );
    }

    #[test]
    fn never_stalls_every_worker() {
        for seed in 0..256u64 {
            let p = FaultPlan::new(seed, 4, 2, FaultConfig::chaos());
            assert!(p.stalls().len() < 4, "seed {seed} stalled all workers");
        }
    }

    #[test]
    fn none_config_is_a_noop_plan() {
        let p = FaultPlan::new(7, 8, 2, FaultConfig::none());
        assert!(p.stalls().is_empty());
        assert!(p.slow_nodes().is_empty());
        assert!(p.steal_refusals().is_empty());
        assert!(p.bursts().is_empty());
        assert!(!p.has_permanent_stall());
        for w in 0..8 {
            assert!(!p.drops_wakeup(0, w));
            assert!(!p.refuses_remote_steal(w));
            assert_eq!(p.node_slowdown(w % 2), 1.0);
        }
        assert!(!p.corrupts_ptt(0));
        assert_eq!(p.loop_failures(0, 0), 0);
    }

    #[test]
    fn sim_safe_has_no_permanent_stalls() {
        for seed in 0..256u64 {
            let p = FaultPlan::new(seed, 8, 2, FaultConfig::sim_safe());
            assert!(!p.has_permanent_stall(), "seed {seed}");
            assert!(p.bursts().is_empty());
            assert_eq!(p.steal_refusals(), &[] as &[u32]);
        }
    }

    #[test]
    fn corrupt_text_changes_the_text() {
        let p = FaultPlan::new(9, 8, 2, FaultConfig::chaos());
        let original = "ptt v1\nsite 0 invocations=3\n";
        let corrupted = p.corrupt_text(original);
        assert_ne!(corrupted, original);
        assert_eq!(
            corrupted,
            p.corrupt_text(original),
            "corruption must be deterministic"
        );
    }

    #[test]
    fn wakeup_drops_spare_healthy_worker_zero() {
        for seed in 0..64u64 {
            let p = FaultPlan::new(seed, 8, 2, FaultConfig::chaos());
            if p.stall_of(0).is_none() {
                for inv in 0..64 {
                    assert!(!p.drops_wakeup(inv, 0), "seed {seed} dropped w0's wakeup");
                }
            }
        }
    }

    #[test]
    fn slowdowns_are_quantized_and_bounded() {
        for seed in 0..128u64 {
            let p = FaultPlan::new(seed, 8, 4, FaultConfig::chaos());
            for (&n, &f) in p.slow_nodes() {
                assert!(n < 4);
                assert!(f > 1.0 && f <= 8.0, "seed {seed} factor {f}");
                let sixteenths = f * 16.0;
                assert_eq!(sixteenths, sixteenths.round(), "factor not quantized: {f}");
            }
        }
    }

    #[test]
    fn loop_failures_do_occur_somewhere() {
        let mut hits = 0;
        for seed in 0..16u64 {
            let p = FaultPlan::new(seed, 8, 2, FaultConfig::chaos());
            for job in 0..16 {
                for inv in 0..8 {
                    if p.loop_failures(job, inv) > 0 {
                        hits += 1;
                    }
                }
            }
        }
        assert!(hits > 0, "chaos config never failed a loop");
    }
}
