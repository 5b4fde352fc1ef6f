//! `colo-serve`: `ilan-server` with interference-aware sharing, loaded by an
//! open loop in simulated time: Poisson arrivals from the default mixed
//! CG/SP/Matmul stream at `Scale::Quick`, 2 steps per job. Arrivals are
//! precomputed, so the generator is never late. Each load point is served
//! as [`STREAMS`] independent streams of [`JOBS`] jobs (seeds derived from
//! `--seed`) whose jobs are pooled: several short streams cost the server
//! less host time than one long one and vary less from seed to seed. A pass
//! serves
//!
//! 1. the reference rate, and the same streams with naive full-machine
//!    sharing (the base of `ilan_speedup` here);
//! 2. a bisection for the highest rate that meets the latency limit;
//! 3. a single-lane replay of the first stream's first jobs through the
//!    public `Tenant` and `ColoMachine` calls the server loop makes, the
//!    only part of that loop the benchmark can time from outside.

use crate::stats::{self, SplitMix};
use crate::trace::{self, Layer, Span};
use crate::{run_passes, setup_s, trace_summary, wall_s, Args, Pass, Report};
use ilan_numasim::{ColoMachine, LoopOutcome, MachineParams};
use ilan_server::{
    generate_stream, run_colocation_report, summarize, ColoSummary, JobRecord, JobSpec,
    ServerConfig, SharingPolicy, StreamParams, Tenant,
};
use ilan_topology::{presets, Topology};
use ilan_workloads::Scale;
use std::collections::BTreeMap;

/// The reference offered load, jobs per simulated second.
const REFERENCE_RATE: f64 = 75.0;
/// Independent streams per load point.
const STREAMS: u64 = 10;
/// Jobs per stream; the pooled p95 has 100 jobs beyond it.
const JOBS: usize = 200;
/// The latency limit: p95 job slowdown against the job run alone.
const SLOWDOWN_LIMIT: f64 = 5.0;
/// Each stream's served rate must reach this share of its offered rate (no
/// growing backlog).
const KEEP_UP: f64 = 0.9;
/// Bisection bracket, jobs/s.
const RATE_BRACKET: (f64, f64) = (50.0, 150.0);
const BISECTION_STEPS: usize = 5;
/// Jobs of the first reference stream replayed one at a time on a single
/// lane.
const REPLAY_JOBS: usize = 24;

/// Names of the spans the replay opens.
const COLO_STEP: &str = "ColoMachine::run_until_next_completion";
const TENANT_CALLS: [&str; 3] = ["Tenant::new", "Tenant::start_next", "Tenant::on_completion"];

/// One load point: each stream with the seed that generated it.
type Load = Vec<(u64, Vec<JobSpec>)>;

fn load(seed: u64, rate: f64) -> Load {
    (0..STREAMS)
        .map(|k| {
            let seed = SplitMix::new(seed, k).next_u64();
            (
                seed,
                generate_stream(seed, &StreamParams::mixed(JOBS, 1e9 / rate)),
            )
        })
        .collect()
}

struct Setup {
    topo: Topology,
    aware: ServerConfig,
    naive: ServerConfig,
    reference: Load,
}

fn setup(seed: u64) -> Setup {
    let topo = presets::epyc_9354_2s();
    Setup {
        aware: ServerConfig::new(&topo, SharingPolicy::InterferenceAware),
        naive: ServerConfig::new(&topo, SharingPolicy::Naive),
        reference: load(seed, REFERENCE_RATE),
        topo,
    }
}

/// One served load point, its streams' jobs pooled.
struct Served {
    records: Vec<JobRecord>,
    shed: usize,
    offered: usize,
    /// Every stream's served rate kept up with its offered rate.
    kept_up: bool,
}

fn serve(config: &ServerConfig, load: &Load) -> Served {
    let mut served = Served {
        records: Vec::new(),
        shed: 0,
        offered: 0,
        kept_up: true,
    };
    for (seed, stream) in load {
        let report = trace::span("run_colocation", Layer::Server, || {
            run_colocation_report(config, stream, *seed)
        });
        let last = |f: fn(&JobRecord) -> f64| report.records.iter().map(f).fold(0.0, f64::max);
        let offered = stream.len() as f64 / last(|r| r.arrival_ns);
        let rate = report.records.len() as f64 / last(|r| r.finish_ns);
        served.kept_up &= rate >= KEEP_UP * offered;
        served.shed += report.shed.len();
        served.offered += stream.len();
        served.records.extend(report.records);
    }
    served
}

impl Served {
    /// Whether the load met the latency limit: nothing shed, every stream
    /// keeping up, and the pooled p95 slowdown within [`SLOWDOWN_LIMIT`].
    fn meets_limit(&self) -> bool {
        let slowdowns: Vec<f64> = self.records.iter().map(JobRecord::slowdown).collect();
        self.shed == 0 && self.kept_up && stats::quantile(&slowdowns, 0.95) <= SLOWDOWN_LIMIT
    }

    fn summary(&self, policy: SharingPolicy) -> ColoSummary {
        summarize(policy.name(), &self.records)
    }
}

/// One replayed invocation.
struct ReplayLoop {
    tasks: usize,
    makespan_ns: f64,
    overhead_ns: f64,
    threads: usize,
    locality: f64,
    migrations: usize,
}

impl From<&LoopOutcome> for ReplayLoop {
    fn from(o: &LoopOutcome) -> Self {
        ReplayLoop {
            tasks: o.tasks_executed(),
            makespan_ns: o.makespan_ns,
            overhead_ns: o.sched_overhead_ns,
            threads: o.threads,
            locality: o.locality_fraction(),
            migrations: o.migrations,
        }
    }
}

/// Serves `jobs` one at a time, each alone on a fresh single-lane machine
/// spanning every node, through the public calls the server loop makes.
/// Returns each job's simulated latency and its invocations.
fn replay(topo: &Topology, jobs: &[JobSpec], seed: u64) -> Vec<(f64, Vec<ReplayLoop>)> {
    trace::span("replay", Layer::Bench, || {
        jobs.iter()
            .map(|job| {
                let machine_seed = SplitMix::new(seed, job.id as u64).next_u64();
                let mut machine = ColoMachine::new(MachineParams::for_topology(topo), machine_seed);
                let lane = machine.add_lane();
                let mut tenant = trace::span(TENANT_CALLS[0], Layer::Server, || {
                    let all = topo.all_nodes();
                    Tenant::new(job.clone(), all, false, topo, Scale::Quick, None, lane, 0.0)
                });
                let mut loops = Vec::new();
                loop {
                    trace::begin_invocation();
                    trace::span(TENANT_CALLS[1], Layer::Server, || {
                        tenant.start_next(&mut machine)
                    });
                    let (_, outcome) = trace::span(COLO_STEP, Layer::Sim, || {
                        machine.run_until_next_completion()
                    })
                    .expect("the lane has a loop in flight");
                    loops.push(ReplayLoop::from(&outcome));
                    let done = trace::span(TENANT_CALLS[2], Layer::Server, || {
                        tenant.on_completion(&outcome)
                    });
                    if done {
                        return (machine.now_ns(), loops);
                    }
                }
            })
            .collect()
    })
}

struct Out {
    aware: Served,
    naive: Served,
    probes: Vec<Served>,
    max_rate: f64,
    replay: Vec<(f64, Vec<ReplayLoop>)>,
}

fn pass(s: &Setup, seed: u64) -> Out {
    let aware = serve(&s.aware, &s.reference);
    let naive = serve(&s.naive, &s.reference);
    let (mut lo, mut hi) = RATE_BRACKET;
    let mut probes = Vec::with_capacity(BISECTION_STEPS);
    for _ in 0..BISECTION_STEPS {
        let rate = 0.5 * (lo + hi);
        let served = serve(&s.aware, &load(seed, rate));
        if served.meets_limit() {
            lo = rate;
        } else {
            hi = rate;
        }
        probes.push(served);
    }
    let (replay_seed, first) = &s.reference[0];
    Out {
        aware,
        naive,
        probes,
        max_rate: lo,
        replay: replay(&s.topo, &first[..REPLAY_JOBS], *replay_seed),
    }
}

/// Everything a pass computed, printed with all float digits: equal
/// fingerprints mean bitwise-equal results.
fn fingerprint(o: &Out) -> String {
    let latencies: Vec<f64> = o.replay.iter().map(|r| r.0).collect();
    format!(
        "{:?} {:?} {} {latencies:?}",
        o.aware.summary(SharingPolicy::InterferenceAware),
        o.naive.summary(SharingPolicy::Naive),
        o.max_rate
    )
}

pub fn run(args: &Args) -> Report {
    let mut report = Report::default();
    let s = setup(args.seed);
    let passes = run_passes(args, || pass(&s, args.seed), |out| out);
    report.set("setup_s", setup_s(|| setup(args.seed)));
    let first = &passes[0].out;

    for served in [&first.aware, &first.naive]
        .into_iter()
        .chain(&first.probes)
    {
        report.check(served.records.len() + served.shed == served.offered, || {
            format!(
                "served {} + shed {} != offered {}",
                served.records.len(),
                served.shed,
                served.offered
            )
        });
    }
    for (latency, loops) in &first.replay {
        report.check(*latency > 0.0 && loops.iter().all(|l| l.tasks > 0), || {
            "a replayed job ran an empty loop".into()
        });
    }
    // The result lies inside the bracket only if some probe met the limit
    // and some missed it.
    let met = first.probes.iter().filter(|p| p.meets_limit()).count();
    report.check(met > 0 && met < first.probes.len(), || {
        format!(
            "{met} of {} bisection probes met the latency limit",
            first.probes.len()
        )
    });
    // Every pass replays the same seed, so traced and untraced passes must
    // agree bitwise.
    let reference = fingerprint(first);
    for p in &passes[1..] {
        report.check(fingerprint(&p.out) == reference, || {
            "a repeated pass changed the served results".into()
        });
    }

    let aware = first.aware.summary(SharingPolicy::InterferenceAware);
    let naive = first.naive.summary(SharingPolicy::Naive);
    report.set("wall_s", wall_s(&passes));
    report.set("ilan_speedup", naive.p50_ns / aware.p50_ns);
    report.set("job_p50_ms", aware.p50_ns * 1e-6);
    report.set("job_p95_ms", aware.p95_ns * 1e-6);
    report.set("antt", aware.antt);
    report.set("max_jobs_per_s", first.max_rate);
    if args.trace {
        per_layer(&mut report, args, &passes, &aware);
    }
    report
}

fn per_layer(report: &mut Report, args: &Args, passes: &[Pass<Out>], aware: &ColoSummary) {
    trace_summary(report, args, passes);
    let traced: Vec<&Pass<Out>> = passes.iter().filter(|p| p.traced).collect();
    let spans: Vec<&Span> = traced.iter().flat_map(|p| &p.spans).collect();
    let steps = trace::durations_ns(spans.iter().copied(), COLO_STEP);
    report.set("sim.colo_step_us.p50", stats::quantile(&steps, 0.50) * 1e-3);
    report.set("sim.colo_step_us.p99", stats::quantile(&steps, 0.99) * 1e-3);

    // Tenant time per invocation: `start_next` plus `on_completion`.
    let mut tenant: BTreeMap<(usize, u64), f64> = BTreeMap::new();
    for (i, p) in traced.iter().enumerate() {
        for s in p
            .spans
            .iter()
            .filter(|s| TENANT_CALLS[1..].contains(&s.name))
        {
            *tenant.entry((i, s.invocation)).or_default() += s.dur_ns() as f64;
        }
    }
    let tenant: Vec<f64> = tenant.into_values().collect();
    report.set(
        "server.tenant_us.p50",
        stats::quantile(&tenant, 0.50) * 1e-3,
    );
    let replay_ns: f64 = trace::durations_ns(spans.iter().copied(), "replay")
        .iter()
        .sum();
    let busy_ns: f64 = spans
        .iter()
        .filter(|s| s.name == COLO_STEP || TENANT_CALLS.contains(&s.name))
        .map(|s| s.dur_ns() as f64)
        .sum();
    report.set("server.replay_busy_frac", busy_ns / replay_ns);

    // Simulated behaviour of the replayed loops: deterministic for the seed.
    let loops: Vec<&ReplayLoop> = passes[0].out.replay.iter().flat_map(|r| &r.1).collect();
    let sum = |f: fn(&ReplayLoop) -> f64| loops.iter().map(|l| f(l)).sum::<f64>();
    let makespan = sum(|l| l.makespan_ns);
    report.set(
        "sim.chunks_per_s",
        sum(|l| l.tasks as f64) * traced.len() as f64 / (steps.iter().sum::<f64>() * 1e-9),
    );
    let thread_ns = sum(|l| l.threads as f64 * l.makespan_ns);
    report.set(
        "sim.sched_overhead_frac",
        sum(|l| l.overhead_ns) / thread_ns,
    );
    report.set("sim.weighted_threads", thread_ns / makespan);
    report.set(
        "sim.locality",
        sum(|l| l.locality * l.makespan_ns) / makespan,
    );
    report.set("sim.migrations", sum(|l| l.migrations as f64));

    // The server at the reference rate.
    let records = &passes[0].out.aware.records;
    let ms = |f: fn(&JobRecord) -> f64| records.iter().map(|r| f(r) * 1e-6).collect::<Vec<f64>>();
    let waits = ms(JobRecord::wait_ns);
    report.set("server.wait_ms.p50", stats::quantile(&waits, 0.50));
    report.set("server.wait_ms.p95", stats::quantile(&waits, 0.95));
    report.set(
        "server.exec_ms.p50",
        stats::quantile(&ms(JobRecord::exec_ns), 0.50),
    );
    report.set(
        "server.warm_frac",
        aware.warm_jobs as f64 / aware.jobs as f64,
    );
    report.set(
        "server.sched_overhead_us",
        aware.mean_sched_overhead_ns * 1e-3,
    );
}
