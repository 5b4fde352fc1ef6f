//! `perfbench`: the benchmark of the ILAN reproduction.
//!
//! ```text
//! perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! Workloads (`README.md` says why each exists):
//!
//! * `sim-paper`: the paper's seven applications on the simulated EPYC 9354;
//! * `colo-serve`: the multi-tenant server under an open-loop job stream;
//! * `native-fine`: dispatch-bound kernels on a real 2-worker pool;
//! * `native-coarse`: compute-bound kernels on the same pool.
//!
//! A run builds its inputs from `--seed`, repeats the workload's pass for
//! `--seconds` of host time, checks every output, and prints one JSON object
//! as the last line of standard output: the end-to-end metrics with
//! `--trace 0`, the per-layer metrics from benchmark-side spans with
//! `--trace 1`. Any failed check makes the exit status non-zero.

mod colo;
mod native;
mod sim;
mod stats;
mod trace;

use std::collections::BTreeMap;
use std::path::PathBuf;
use std::process::ExitCode;
use std::time::Instant;
use trace::{Layer, Span};

/// End-to-end metrics and their units; every workload reports each one.
const END_TO_END: [(&str, &str); 7] = [
    ("setup_s", "s"),
    ("wall_s", "s"),
    ("ilan_speedup", "x"),
    ("job_p50_ms", "ms"),
    ("job_p95_ms", "ms"),
    ("antt", "ratio"),
    ("max_jobs_per_s", "1/s"),
];

/// Per-layer metrics and their units. A layer a workload never calls
/// reads 0.
const PER_LAYER: [(&str, &str); 38] = [
    ("sim.invoke_us.p50", "us"),
    ("sim.invoke_us.p99", "us"),
    ("sim.chunks_per_s", "1/s"),
    ("sim.self_frac", "frac"),
    ("sim.colo_step_us.p50", "us"),
    ("sim.colo_step_us.p99", "us"),
    ("sim.sched_overhead_frac", "frac"),
    ("sim.weighted_threads", "threads"),
    ("sim.locality", "frac"),
    ("sim.migrations", "count"),
    ("core.explore_invocations", "count"),
    ("core.decide_ns.p50", "ns"),
    ("core.decide_ns.p99", "ns"),
    ("core.record_ns.p50", "ns"),
    ("core.record_ns.p99", "ns"),
    ("core.self_frac", "frac"),
    ("runtime.taskloop_us.p50", "us"),
    ("runtime.taskloop_us.p99", "us"),
    ("runtime.sched_overhead_frac", "frac"),
    ("runtime.dispatch_ns.p50", "ns"),
    ("runtime.loop_ns.p50", "ns"),
    ("runtime.migrations_per_loop", "count"),
    ("runtime.locality", "frac"),
    ("runtime.self_frac", "frac"),
    ("runtime.work_efficiency", "ratio"),
    ("runtime.parallel_efficiency", "ratio"),
    ("kernel.serial_s", "s"),
    ("kernel.matmul_gflops", "GFLOP/s"),
    ("kernel.self_frac", "frac"),
    ("server.tenant_us.p50", "us"),
    ("server.replay_busy_frac", "frac"),
    ("server.wait_ms.p50", "ms"),
    ("server.wait_ms.p95", "ms"),
    ("server.exec_ms.p50", "ms"),
    ("server.warm_frac", "frac"),
    ("server.sched_overhead_us", "us"),
    ("server.self_frac", "frac"),
    ("trace.overhead_frac", "frac"),
];

/// Builds of a workload's state per run; `setup_s` is their median.
const SETUP_REPS: usize = 25;

/// The benchmark's workloads.
#[derive(Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    SimPaper,
    ColoServe,
    NativeFine,
    NativeCoarse,
}

impl Workload {
    const ALL: [Workload; 4] = [
        Workload::SimPaper,
        Workload::ColoServe,
        Workload::NativeFine,
        Workload::NativeCoarse,
    ];

    fn name(self) -> &'static str {
        match self {
            Workload::SimPaper => "sim-paper",
            Workload::ColoServe => "colo-serve",
            Workload::NativeFine => "native-fine",
            Workload::NativeCoarse => "native-coarse",
        }
    }
}

/// Command-line arguments.
pub struct Args {
    pub workload: Workload,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
}

fn parse_args(mut argv: impl Iterator<Item = String>) -> Result<Args, String> {
    let (mut workload, mut seed, mut seconds, mut trace) = (None, 1, 10.0, false);
    while let Some(flag) = argv.next() {
        let value = argv.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => {
                let found = Workload::ALL.into_iter().find(|w| w.name() == value);
                workload = Some(found.ok_or_else(|| {
                    let names: Vec<&str> = Workload::ALL.iter().map(|w| w.name()).collect();
                    format!("unknown workload `{value}` (one of {})", names.join(", "))
                })?);
            }
            "--seed" => seed = value.parse().map_err(|_| format!("bad seed `{value}`"))?,
            "--seconds" => {
                seconds = value
                    .parse()
                    .map_err(|_| format!("bad seconds `{value}`"))?;
                if !(seconds > 0.0 && seconds <= 3600.0) {
                    return Err(format!("--seconds must be in (0, 3600], not {value}"));
                }
            }
            "--trace" => {
                trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace takes 0 or 1, not `{value}`")),
                }
            }
            _ => return Err(format!("unknown argument `{flag}`")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed,
        seconds,
        trace,
    })
}

/// A workload run's checks and metrics.
#[derive(Default)]
pub struct Report {
    attempted: u64,
    failed: u64,
    metrics: BTreeMap<&'static str, f64>,
}

impl Report {
    /// Counts one checked output; a failure is described on stderr.
    pub fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
            eprintln!("perfbench: check failed: {}", what());
        }
    }

    /// Sets a metric.
    pub fn set(&mut self, name: &'static str, value: f64) {
        self.metrics.insert(name, value);
    }

    /// The result line: the end-to-end or the per-layer metrics, by name and
    /// with units. A value that is not finite counts as a failed check.
    fn render(mut self, trace: bool) -> (String, bool) {
        let names: &[(&str, &str)] = if trace { &PER_LAYER } else { &END_TO_END };
        let mut fields = Vec::with_capacity(names.len());
        for &(name, unit) in names {
            let value = match self.metrics.get(name) {
                Some(&v) => v,
                None if trace => 0.0,
                None => panic!("the workload did not report {name}"),
            };
            self.check(value.is_finite(), || format!("{name} = {value}"));
            let value = if value.is_finite() { value } else { 0.0 };
            fields.push(format!(
                "\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}"
            ));
        }
        let ok = self.failed == 0;
        let line = format!(
            "{{\"correct\": {ok}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.attempted,
            self.failed,
            fields.join(", ")
        );
        (line, ok)
    }
}

/// One timed pass of a workload.
pub struct Pass<U> {
    /// Host seconds of the pass.
    pub secs: f64,
    /// Whether benchmark-side spans were recorded.
    pub traced: bool,
    /// The pass's output, reduced by `digest` after the clock stopped.
    pub out: U,
    /// The spans of a traced pass.
    pub spans: Vec<Span>,
}

/// Repeats `pass` until `args.seconds` of host time have gone by, at least
/// once. Only `pass` is timed: `digest` (output checks, reductions) runs
/// after the clock stops. With tracing, passes alternate untraced and
/// traced in ABBA order, at least one of each, so both kinds see the same
/// machine drift.
pub fn run_passes<T, U>(
    args: &Args,
    mut pass: impl FnMut() -> T,
    mut digest: impl FnMut(T) -> U,
) -> Vec<Pass<U>> {
    let started = Instant::now();
    let mut passes = Vec::new();
    loop {
        let traced = args.trace && matches!(passes.len() % 4, 1 | 2);
        if traced {
            trace::start();
        }
        let clock = Instant::now();
        let root = trace::enter("pass", Layer::Bench);
        let out = pass();
        trace::exit(root);
        let secs = clock.elapsed().as_secs_f64();
        let spans = if traced { trace::stop() } else { Vec::new() };
        passes.push(Pass {
            secs,
            traced,
            out: digest(out),
            spans,
        });
        if started.elapsed().as_secs_f64() >= args.seconds && (!args.trace || passes.len() >= 2) {
            return passes;
        }
    }
}

/// `setup_s`: the median time of [`SETUP_REPS`] more builds of a workload's
/// state, taken after the timed passes. Set-up takes microseconds to
/// milliseconds, and timed at process start its median moved by 20% or
/// more between sets of runs; after the passes the process is as warm as
/// the passes were.
pub fn setup_s<S>(mut build: impl FnMut() -> S) -> f64 {
    let times: Vec<f64> = (0..SETUP_REPS)
        .map(|_| {
            let clock = Instant::now();
            let state = build();
            let secs = clock.elapsed().as_secs_f64();
            drop(state);
            secs
        })
        .collect();
    stats::median(&times)
}

/// `wall_s`: the median host seconds of the untraced passes.
pub fn wall_s<U>(passes: &[Pass<U>]) -> f64 {
    let secs: Vec<f64> = passes
        .iter()
        .filter(|p| !p.traced)
        .map(|p| p.secs)
        .collect();
    stats::median(&secs)
}

/// The per-layer figures every workload shares: each layer's share of the
/// traced host time, the tracing overhead, and the span-tree checks. The
/// last traced pass's spans go to `perfbench-spans/` in the build
/// directory.
pub fn trace_summary<U>(report: &mut Report, args: &Args, passes: &[Pass<U>]) {
    let traced: Vec<&Pass<U>> = passes.iter().filter(|p| p.traced).collect();
    let traced_secs: Vec<f64> = traced.iter().map(|p| p.secs).collect();
    report.set(
        "trace.overhead_frac",
        stats::median(&traced_secs) / wall_s(passes) - 1.0,
    );
    let mut by_layer = [0u64; Layer::ALL.len()];
    let mut wall_ns = 0.0;
    for p in &traced {
        report.check(trace::well_formed(&p.spans), || {
            "the span tree is malformed".into()
        });
        let self_ns = trace::self_ns(&p.spans);
        let total = self_ns.iter().sum::<u64>() as f64;
        let wall = p.secs * 1e9;
        report.check((total - wall).abs() <= 0.03 * wall, || {
            format!("self times sum to {total} ns against a traced wall of {wall} ns")
        });
        for (span, ns) in p.spans.iter().zip(self_ns) {
            by_layer[span.layer as usize] += ns;
        }
        wall_ns += wall;
    }
    for layer in Layer::ALL {
        if let Some(name) = layer.self_frac_metric() {
            report.set(name, by_layer[layer as usize] as f64 / wall_ns);
        }
    }
    if let Some(last) = traced.last() {
        let dir = std::env::var_os("CARGO_TARGET_DIR")
            .map_or_else(|| PathBuf::from("perfbench/target"), PathBuf::from);
        let name = args.workload.name();
        let path = dir
            .join("perfbench-spans")
            .join(format!("{name}-seed{}.json", args.seed));
        let written = trace::write_json(&path, name, &last.spans);
        report.check(written.is_ok(), || {
            format!("writing {}: {:?}", path.display(), written.err())
        });
    }
}

/// `decide` and `record` latency percentiles from the probes' spans.
pub fn core_latencies(report: &mut Report, spans: &[&Span]) {
    let decide = trace::durations_ns(spans.iter().copied(), "decide");
    let record = trace::durations_ns(spans.iter().copied(), "record");
    report.set("core.decide_ns.p50", stats::quantile(&decide, 0.50));
    report.set("core.decide_ns.p99", stats::quantile(&decide, 0.99));
    report.set("core.record_ns.p50", stats::quantile(&record, 0.50));
    report.set("core.record_ns.p99", stats::quantile(&record, 0.99));
}

fn main() -> ExitCode {
    let args = match parse_args(std::env::args().skip(1)) {
        Ok(args) => args,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    let report = match args.workload {
        Workload::SimPaper => sim::run(&args),
        Workload::ColoServe => colo::run(&args),
        Workload::NativeFine => native::run(&args, native::Grain::Fine),
        Workload::NativeCoarse => native::run(&args, native::Grain::Coarse),
    };
    let (line, ok) = report.render(args.trace);
    println!("{line}");
    if ok {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn benchmark_json_lists_exactly_the_reported_metrics() {
        let json = include_str!("../../BENCHMARK.json");
        for (name, unit) in END_TO_END.iter().chain(&PER_LAYER) {
            let entry = format!("\"name\": \"{name}\", \"unit\": \"{unit}\"");
            assert!(json.contains(&entry), "BENCHMARK.json lacks {entry}");
        }
        let listed = json.matches("\"better\"").count();
        assert_eq!(listed, END_TO_END.len() + PER_LAYER.len());
    }

    #[test]
    fn arguments_are_checked() {
        let parse = |s: &str| parse_args(s.split_whitespace().map(String::from));
        let args = parse("--workload colo-serve --seed 7 --seconds 3 --trace 1").unwrap();
        assert!(args.workload == Workload::ColoServe && args.seed == 7 && args.trace);
        for bad in [
            "--workload nope",
            "--seed x --workload sim-paper",
            "--workload sim-paper --seconds 0",
            "--workload sim-paper --trace 2",
            "--workload sim-paper --seed",
            "--seed 1",
        ] {
            assert!(parse(bad).is_err(), "accepted `{bad}`");
        }
    }

    #[test]
    fn span_trees_are_checked() {
        let span = |start_ns, end_ns, parent| Span {
            name: "s",
            layer: Layer::Bench,
            start_ns,
            end_ns,
            parent,
            invocation: 0,
        };
        let good = [span(0, 10, None), span(1, 4, Some(0)), span(4, 9, Some(0))];
        assert!(trace::well_formed(&good));
        assert_eq!(trace::self_ns(&good), vec![2, 3, 5]);
        let outside = [span(0, 10, None), span(5, 11, Some(0))];
        let overlapping = [span(0, 10, None), span(1, 5, Some(0)), span(4, 6, Some(0))];
        assert!(!trace::well_formed(&outside) && !trace::well_formed(&overlapping));
    }
}
