//! Observability overhead measurement and flight-recorder smoke.
//!
//! `repro -- metrics` answers two questions about the always-on
//! instrumentation added with `ilan-metrics`:
//!
//! 1. **What does it cost?** Dispatch latency of a trivial-body taskloop on
//!    the paper's 64-worker EPYC preset, measured externally on two
//!    otherwise identical pools — metrics+flight on (the default) vs
//!    metrics off — plus the metrics-on pool's own `dispatch_ns` histogram
//!    median as a cross-check. The budget is 5%: medians within noise of
//!    each other on an oversubscribed CI machine.
//! 2. **Does the flight recorder work end to end?** A fault plan permanently
//!    stalls one worker on a small watchdogged pool; the run must degrade,
//!    park a dump whose ring-buffer log passes the `ilan-trace` auditor,
//!    and render a well-formed Chrome trace.
//!
//! Results are written as machine-readable JSON
//! (`BENCH_metrics_overhead.json`) and summarized as text. Like the other
//! overhead benches this is a measurement, not a gate: the JSON carries a
//! `within_budget` verdict but the exit status never fails on it.

use ilan_runtime::metrics_core::FlightReason;
use ilan_runtime::{ExecMode, LoopReport, PinMode, PoolConfig, StealPolicy, ThreadPool};
use ilan_topology::presets;
use std::fmt::Write as _;
use std::path::Path;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::time::{Duration, Instant};

/// Relative dispatch-latency budget for metrics-on vs metrics-off.
pub const METRICS_OVERHEAD_BUDGET: f64 = 0.05;

/// One measured configuration.
#[derive(Clone, Debug)]
pub struct OverheadRow {
    /// `"on"` or `"off"`.
    pub metrics: &'static str,
    /// External p10 dispatch latency, ns.
    pub p10: u64,
    /// External median dispatch latency, ns.
    pub median: u64,
    /// External p90 dispatch latency, ns.
    pub p90: u64,
}

/// Outcome of the flight-recorder smoke.
#[derive(Clone, Debug)]
pub struct FlightSmoke {
    /// The run degraded (the stall was detected by the watchdog).
    pub degraded: bool,
    /// A dump was parked.
    pub dumped: bool,
    /// The dump's event log passed the trace auditor.
    pub audit_ok: bool,
    /// The rendered Chrome trace contains a `traceEvents` array.
    pub chrome_ok: bool,
    /// Display form of the dump's trigger reason.
    pub reason: String,
}

/// Everything `repro -- metrics` reports.
#[derive(Clone, Debug)]
pub struct MetricsOverheadReport {
    /// Worker count of the measured preset.
    pub workers: usize,
    /// Repetitions per configuration.
    pub reps: usize,
    /// Measured configurations (`on` first).
    pub rows: Vec<OverheadRow>,
    /// Metrics-on pool's own dispatch histogram median (nearest-rank bucket
    /// upper bound), ns — the internal cross-check of the external timing.
    pub internal_median_ns: u64,
    /// Median of per-pair `on/off` latency ratios (each pair measured
    /// back-to-back, so common-mode machine noise divides out).
    pub ratio: f64,
    /// Whether the ratio stays within [`METRICS_OVERHEAD_BUDGET`].
    pub within_budget: bool,
    /// The flight-recorder smoke outcome.
    pub flight: FlightSmoke,
}

/// Times `reps` dispatches on each pool, *interleaved* rep by rep so the
/// two configurations see the same machine drift (frequency scaling, CI
/// neighbours). Returns `(a_samples, b_samples)`.
fn time_paired(
    a: &ThreadPool,
    b: &ThreadPool,
    len: usize,
    mode: &ExecMode,
    reps: usize,
) -> (Vec<u64>, Vec<u64>) {
    let sink = AtomicUsize::new(0);
    let body = |r: std::ops::Range<usize>| {
        sink.fetch_add(std::hint::black_box(r.len()), Ordering::Relaxed);
    };
    let mut report = LoopReport::default();
    let mut one = |pool: &ThreadPool| {
        let t = Instant::now();
        pool.taskloop_into(0..len, 1, mode.clone(), body, &mut report);
        t.elapsed().as_nanos() as u64
    };
    // Warm-up both pools to their arena steady state before the clock counts.
    for _ in 0..reps.div_ceil(4).max(3) {
        one(a);
        one(b);
    }
    // ABBA ordering: whichever pool runs first in a pair absorbs the colder
    // OS-scheduler state after the pause, so alternate which one that is.
    let mut sa = Vec::with_capacity(reps);
    let mut sb = Vec::with_capacity(reps);
    for rep in 0..reps {
        if rep % 2 == 0 {
            sa.push(one(a));
            sb.push(one(b));
        } else {
            sb.push(one(b));
            sa.push(one(a));
        }
    }
    (sa, sb)
}

fn percentiles(samples: &mut [u64]) -> (u64, u64, u64) {
    samples.sort_unstable();
    let pick = |p: usize| samples[(samples.len() - 1) * p / 100];
    (pick(10), pick(50), pick(90))
}

/// Runs the flight-recorder smoke on a small watchdogged pool with one
/// permanently stalled worker.
pub fn flight_smoke() -> FlightSmoke {
    use ilan_faults::{FaultConfig, FaultPlan};
    let topo = presets::tiny_2x4();
    let config = FaultConfig {
        max_worker_stalls: 1,
        permanent_stalls: true,
        max_stall_ns: 1_000_000,
        ..FaultConfig::none()
    };
    let plan = (0..10_000u64)
        .map(|seed| {
            FaultPlan::new(
                seed,
                topo.num_cores() as u32,
                topo.num_nodes() as u32,
                config,
            )
        })
        .find(|p| p.stalls().len() == 1 && p.stalls().values().next().unwrap().permanent)
        .expect("a permanently stalling plan");
    let pool = ThreadPool::new(
        PoolConfig::new(topo)
            .pin(PinMode::Never)
            .watchdog(Duration::from_millis(10))
            .faults(plan),
    )
    .expect("pool");
    let report = pool.taskloop(0..500, 5, ExecMode::Flat, |r| {
        std::hint::black_box(r.sum::<usize>());
    });
    let Some(dump) = pool.take_flight_dump() else {
        return FlightSmoke {
            degraded: report.degraded,
            dumped: false,
            audit_ok: false,
            chrome_ok: false,
            reason: String::new(),
        };
    };
    let expect = ilan_runtime::trace::AuditExpect {
        migrations: Some(report.migrations),
        latch_releases: Some(report.threads),
        per_node: Some(
            report
                .nodes
                .iter()
                .map(|n| ilan_runtime::trace::NodeTally {
                    tasks: n.tasks,
                    local_tasks: Some(n.local_tasks),
                })
                .collect(),
        ),
    };
    let audit = ilan_runtime::trace::audit(&dump.log, &expect);
    FlightSmoke {
        degraded: report.degraded,
        dumped: true,
        audit_ok: audit.ok(),
        chrome_ok: dump.chrome_json.contains("\"traceEvents\""),
        reason: match dump.reason {
            FlightReason::Degraded { stage } => format!("degraded_stage{stage}"),
            FlightReason::FaultInjected { count } => format!("fault_injected_{count}"),
            FlightReason::TailBreach { .. } => "tail_breach".to_string(),
        },
    }
}

/// Measures metrics-on vs metrics-off dispatch latency on the paper's
/// 64-worker preset and runs the flight-recorder smoke.
pub fn metrics_overhead(quick: bool) -> MetricsOverheadReport {
    let reps = if quick { 600 } else { 2_000 };
    let topo = presets::epyc_9354_2s();
    // Full-machine hierarchical mode, one single-iteration chunk per worker:
    // the pure dispatch path (arena fill + wakeup posting + per-worker
    // flush), with no steal traffic to confound it.
    let mode = ExecMode::Hierarchical {
        mask: topo.all_nodes(),
        threads: 0,
        strict_fraction: 1.0,
        policy: StealPolicy::Strict,
    };
    let len = topo.num_cores();

    let build = |metrics: bool| {
        ThreadPool::new(
            PoolConfig::new(topo.clone())
                .pin(PinMode::Never)
                .inline_threshold(0)
                .metrics(metrics),
        )
        .expect("pool")
    };
    let pool_on = build(true);
    let pool_off = build(false);
    let (mut ns_on, mut ns_off) = time_paired(&pool_on, &pool_off, len, &mode, reps);
    let internal = pool_on
        .metrics()
        .map(|m| m.dispatch_ns().snapshot().quantile(0.5));
    let row = |metrics, ns: &mut [u64]| {
        let (p10, median, p90) = percentiles(ns);
        OverheadRow {
            metrics,
            p10,
            median,
            p90,
        }
    };
    // Headline ratio: the median of per-pair ratios. Each pair ran
    // back-to-back under the same machine conditions, so common-mode noise
    // (CI neighbours, frequency steps) divides out; the median of 60+ pairs
    // is far more stable than the ratio of two independent medians.
    let mut pair_ratios: Vec<f64> = ns_on
        .iter()
        .zip(&ns_off)
        .map(|(&on, &off)| on as f64 / off.max(1) as f64)
        .collect();
    pair_ratios.sort_by(|a, b| a.total_cmp(b));
    let ratio = pair_ratios[pair_ratios.len() / 2];
    let on = row("on", &mut ns_on);
    let off = row("off", &mut ns_off);
    MetricsOverheadReport {
        workers: topo.num_cores(),
        reps,
        internal_median_ns: internal.unwrap_or(0),
        ratio,
        within_budget: ratio <= 1.0 + METRICS_OVERHEAD_BUDGET,
        rows: vec![on, off],
        flight: flight_smoke(),
    }
}

impl MetricsOverheadReport {
    /// Machine-readable JSON (the `BENCH_metrics_overhead.json` payload).
    pub fn to_json(&self, quick: bool) -> String {
        let mut j = String::new();
        let _ = writeln!(j, "{{");
        let _ = writeln!(j, "  \"bench\": \"metrics_overhead\",");
        let _ = writeln!(j, "  \"preset\": \"epyc_9354_2s\",");
        let _ = writeln!(j, "  \"workers\": {},", self.workers);
        let _ = writeln!(j, "  \"quick\": {quick},");
        let _ = writeln!(j, "  \"reps\": {},", self.reps);
        let _ = writeln!(j, "  \"dispatch_latency_ns\": [");
        for (i, r) in self.rows.iter().enumerate() {
            let comma = if i + 1 < self.rows.len() { "," } else { "" };
            let _ = writeln!(
                j,
                "    {{\"metrics\": \"{}\", \"p10\": {}, \"median\": {}, \"p90\": {}}}{comma}",
                r.metrics, r.p10, r.median, r.p90
            );
        }
        let _ = writeln!(j, "  ],");
        let _ = writeln!(j, "  \"internal_median_ns\": {},", self.internal_median_ns);
        let _ = writeln!(j, "  \"on_over_off\": {:.3},", self.ratio);
        let _ = writeln!(j, "  \"budget\": {:.2},", 1.0 + METRICS_OVERHEAD_BUDGET);
        let _ = writeln!(j, "  \"within_budget\": {},", self.within_budget);
        let _ = writeln!(j, "  \"flight_smoke\": {{");
        let _ = writeln!(j, "    \"degraded\": {},", self.flight.degraded);
        let _ = writeln!(j, "    \"dumped\": {},", self.flight.dumped);
        let _ = writeln!(j, "    \"audit_ok\": {},", self.flight.audit_ok);
        let _ = writeln!(j, "    \"chrome_ok\": {},", self.flight.chrome_ok);
        let _ = writeln!(j, "    \"reason\": \"{}\"", self.flight.reason);
        let _ = writeln!(j, "  }}");
        let _ = writeln!(j, "}}");
        j
    }

    /// Human-readable summary.
    pub fn render(&self) -> String {
        let mut out = String::new();
        let _ = writeln!(
            out,
            "metrics overhead ({} workers, {} reps per configuration):",
            self.workers, self.reps
        );
        for r in &self.rows {
            let _ = writeln!(
                out,
                "  metrics={:<3} dispatch p10={} median={} p90={} ns",
                r.metrics, r.p10, r.median, r.p90
            );
        }
        let _ = writeln!(
            out,
            "  on/off median ratio {:.3} (budget {:.2}) -> {}",
            self.ratio,
            1.0 + METRICS_OVERHEAD_BUDGET,
            if self.within_budget {
                "within budget"
            } else {
                "OVER budget (noisy machines exceed this; see the JSON)"
            }
        );
        let _ = writeln!(
            out,
            "  internal dispatch_ns median (bucket upper bound): {} ns",
            self.internal_median_ns
        );
        let f = &self.flight;
        let _ = writeln!(
            out,
            "flight-recorder smoke: degraded={} dumped={} audit_ok={} chrome_ok={} reason={}",
            f.degraded, f.dumped, f.audit_ok, f.chrome_ok, f.reason
        );
        out
    }

    /// Writes the JSON next to `dir` (or the working directory when absent)
    /// and returns the rendered summary.
    pub fn publish(&self, quick: bool, dir: Option<&Path>) -> String {
        let path = match dir {
            Some(d) => {
                let _ = std::fs::create_dir_all(d);
                d.join("BENCH_metrics_overhead.json")
            }
            None => Path::new("BENCH_metrics_overhead.json").to_path_buf(),
        };
        match std::fs::write(&path, self.to_json(quick)) {
            Ok(()) => eprintln!("wrote {}", path.display()),
            Err(e) => eprintln!("metrics_overhead: cannot write {}: {e}", path.display()),
        }
        self.render()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn flight_smoke_passes_end_to_end() {
        let smoke = flight_smoke();
        assert!(smoke.degraded, "the stall must degrade the run");
        assert!(smoke.dumped, "an anomaly must park a dump");
        assert!(smoke.audit_ok, "the dump must audit clean");
        assert!(smoke.chrome_ok, "the dump must render a Chrome trace");
        assert!(smoke.reason.starts_with("degraded_stage"));
    }

    #[test]
    fn json_is_well_formed_enough() {
        // A tiny deterministic report (no timing run in unit tests).
        let report = MetricsOverheadReport {
            workers: 64,
            reps: 2,
            rows: vec![
                OverheadRow {
                    metrics: "on",
                    p10: 1,
                    median: 2,
                    p90: 3,
                },
                OverheadRow {
                    metrics: "off",
                    p10: 1,
                    median: 2,
                    p90: 3,
                },
            ],
            internal_median_ns: 2,
            ratio: 1.0,
            within_budget: true,
            flight: FlightSmoke {
                degraded: true,
                dumped: true,
                audit_ok: true,
                chrome_ok: true,
                reason: "degraded_stage1".into(),
            },
        };
        let j = report.to_json(true);
        assert!(j.contains("\"bench\": \"metrics_overhead\""));
        assert!(j.contains("\"within_budget\": true"));
        assert!(j.contains("\"reason\": \"degraded_stage1\""));
        assert_eq!(
            j.matches('{').count(),
            j.matches('}').count(),
            "unbalanced braces in:\n{j}"
        );
        assert!(report.render().contains("within budget"));
    }
}
