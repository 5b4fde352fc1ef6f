//! `sim-paper`: the paper's result. The seven applications at paper scale
//! on the simulated EPYC 9354 (`epyc_9354_2s`), each run once under the
//! LLVM baseline and once under ILAN on identically seeded machines. The
//! simulator's engine does nearly all the host work; the runtime and the
//! server are never called.

use crate::stats::{self, SplitMix};
use crate::trace::{self, Figures, Layer, Probe, Span};
use crate::{core_latencies, run_passes, setup_s, trace_summary, wall_s, Args, Pass, Report};
use ilan::{BaselinePolicy, IlanParams, IlanScheduler, Policy, RunStats, SearchPhase};
use ilan_numasim::{MachineParams, SimMachine};
use ilan_topology::{presets, Topology};
use ilan_workloads::{Scale, SimApp, ALL_WORKLOADS};

/// The simulator call between `decide` and `record`.
const BACKEND: (&str, Layer) = ("run_taskloop", Layer::Sim);

struct Setup {
    topo: Topology,
    params: MachineParams,
    apps: Vec<SimApp>,
}

fn setup() -> Setup {
    let topo = presets::epyc_9354_2s();
    let params = MachineParams::for_topology(&topo);
    let apps = ALL_WORKLOADS
        .iter()
        .map(|w| w.sim_app(&topo, Scale::Paper))
        .collect();
    Setup { topo, params, apps }
}

/// One application run under one scheduler.
struct Cell {
    stats: RunStats,
    figures: Figures,
}

fn run_cell(s: &Setup, app: usize, ilan: bool, seed: u64) -> Cell {
    // Both schedulers of an application see the same machine noise.
    let mut machine = SimMachine::new(s.params.clone(), SplitMix::new(seed, app as u64).next_u64());
    let app = &s.apps[app];
    trace::span("SimApp::run", Layer::Kernel, || {
        if ilan {
            let policy = IlanScheduler::new(IlanParams::for_topology(&s.topo));
            drive(
                app,
                &mut machine,
                Probe::new(policy, BACKEND, |p, site| {
                    p.phase(site) == SearchPhase::Settled
                }),
            )
        } else {
            drive(
                app,
                &mut machine,
                Probe::new(BaselinePolicy, BACKEND, |_, _| true),
            )
        }
    })
}

fn drive<P: Policy>(app: &SimApp, machine: &mut SimMachine, mut probe: Probe<P>) -> Cell {
    let stats = app.run(machine, &mut probe);
    Cell {
        stats,
        figures: probe.figures,
    }
}

/// Every (application, scheduler) cell: baseline, then ILAN, per
/// application.
fn pass(s: &Setup, seed: u64) -> Vec<Cell> {
    (0..s.apps.len())
        .flat_map(|app| [false, true].map(|ilan| run_cell(s, app, ilan, seed)))
        .collect()
}

/// Bitwise equality of two runs' statistics: `Debug` prints every float
/// with all its digits.
fn same_stats(a: &RunStats, b: &RunStats) -> bool {
    format!("{a:?}") == format!("{b:?}")
}

pub fn run(args: &Args) -> Report {
    let mut report = Report::default();
    let s = setup();
    let passes = run_passes(args, || pass(&s, args.seed), |cells| cells);
    report.set("setup_s", setup_s(setup));
    let first = &passes[0].out;

    for (i, cell) in first.iter().enumerate() {
        let app = &s.apps[i / 2];
        let ran = cell.stats.invocations as usize;
        report.check(
            ran == app.invocations() && cell.stats.wall_time_ns() > 0.0,
            || {
                format!(
                    "{} ran {ran} of {} invocations",
                    app.name,
                    app.invocations()
                )
            },
        );
        report.check(cell.figures.migrations == cell.stats.migrations, || {
            format!(
                "{}: the probe counted {} migrations, RunStats {}",
                app.name, cell.figures.migrations, cell.stats.migrations
            )
        });
    }
    // Every pass replays the same seed, so traced and untraced passes must
    // agree bitwise.
    for p in &passes[1..] {
        let same = p
            .out
            .iter()
            .zip(first)
            .all(|(a, b)| same_stats(&a.stats, &b.stats));
        report.check(same, || "a repeated pass changed RunStats".into());
    }
    // One cell repeated on its own, outside the timed passes.
    let app = (args.seed % s.apps.len() as u64) as usize;
    let again = run_cell(&s, app, true, args.seed);
    report.check(same_stats(&again.stats, &first[2 * app + 1].stats), || {
        format!("{} under ILAN did not repeat bitwise", s.apps[app].name)
    });

    // A job is one taskloop invocation; ILAN's are normalized by the same
    // invocation under the baseline.
    let pairs: Vec<(&Cell, &Cell)> = first.chunks(2).map(|c| (&c[0], &c[1])).collect();
    let speedups: Vec<f64> = pairs
        .iter()
        .map(|(base, ilan)| base.stats.wall_time_ns() / ilan.stats.wall_time_ns())
        .collect();
    let jobs: Vec<f64> = pairs
        .iter()
        .flat_map(|(_, ilan)| ilan.figures.times_ns.iter().copied())
        .collect();
    let normalized: Vec<f64> = pairs
        .iter()
        .flat_map(|(base, ilan)| {
            ilan.figures
                .times_ns
                .iter()
                .zip(&base.figures.times_ns)
                .map(|(t, b)| t / b)
        })
        .collect();
    report.set("wall_s", wall_s(&passes));
    report.set("ilan_speedup", stats::geomean(&speedups));
    report.set("job_p50_ms", stats::quantile(&jobs, 0.50) * 1e-6);
    report.set("job_p95_ms", stats::quantile(&jobs, 0.95) * 1e-6);
    report.set("antt", stats::mean(&normalized));
    report.set(
        "max_jobs_per_s",
        jobs.len() as f64 / (jobs.iter().sum::<f64>() * 1e-9),
    );
    if args.trace {
        per_layer(&mut report, args, &s, &passes);
    }
    report
}

fn per_layer(report: &mut Report, args: &Args, s: &Setup, passes: &[Pass<Vec<Cell>>]) {
    trace_summary(report, args, passes);
    let traced: Vec<&Pass<Vec<Cell>>> = passes.iter().filter(|p| p.traced).collect();
    let spans: Vec<&Span> = traced.iter().flat_map(|p| &p.spans).collect();
    core_latencies(report, &spans);
    let invoke = trace::durations_ns(spans.iter().copied(), BACKEND.0);
    report.set("sim.invoke_us.p50", stats::quantile(&invoke, 0.50) * 1e-3);
    report.set("sim.invoke_us.p99", stats::quantile(&invoke, 0.99) * 1e-3);
    let chunks_per_pass: usize = s
        .apps
        .iter()
        .map(|a| {
            2 * a.steps
                * a.schedule
                    .iter()
                    .map(|&i| a.sites[i].tasks.len())
                    .sum::<usize>()
        })
        .sum();
    report.set(
        "sim.chunks_per_s",
        (chunks_per_pass * traced.len()) as f64 / (invoke.iter().sum::<f64>() * 1e-9),
    );

    // Scheduling behaviour under ILAN: deterministic for the seed. The
    // overhead is accumulated over workers (Figure 5's quantity), so its
    // share is taken of worker time: Σ invocation time × threads.
    let ilan: Vec<&Cell> = traced[0].out.iter().skip(1).step_by(2).collect();
    let sum = |f: fn(&Cell) -> f64| ilan.iter().map(|c| f(c)).sum::<f64>();
    report.set(
        "sim.sched_overhead_frac",
        sum(|c| c.stats.total_overhead_ns)
            / sum(|c| c.stats.weighted_avg_threads() * c.stats.total_time_ns),
    );
    report.set(
        "sim.weighted_threads",
        sum(|c| c.stats.weighted_avg_threads()) / ilan.len() as f64,
    );
    report.set(
        "sim.locality",
        sum(|c| c.stats.weighted_avg_locality()) / ilan.len() as f64,
    );
    report.set("sim.migrations", sum(|c| c.figures.migrations as f64));
    report.set(
        "core.explore_invocations",
        sum(|c| c.figures.explore as f64),
    );
}
