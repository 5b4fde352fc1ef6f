//! `native-fine` and `native-coarse`: real threads on a pool of two NUMA
//! nodes with one core each (`2x1x1`: one worker per vCPU of a 2-vCPU host).
//! Each pass runs every kernel once under ILAN and once under the
//! LLVM-style baseline, each with a fresh scheduler as a program start would
//! have, alternating which policy goes first.
//!
//! * `native-fine` runs the LU wavefront and LULESH at laptop scale:
//!   thousands of taskloops of a few microseconds, so dispatch, wake-up,
//!   acquisition, the exit latch and decide/record dominate.
//! * `native-coarse` runs Matmul, the 2-D FFT, SP and BT with taskloops of
//!   a fraction of a millisecond to milliseconds: chunk bodies dominate.
//!
//! Serial references, conservation checks, the taskloop conformance sweep
//! and the 1-worker runs behind the work-efficiency figures all run outside
//! the timed passes.

use crate::stats::{self, SplitMix};
use crate::trace::{self, Figures, Layer, Probe, Span};
use crate::{core_latencies, run_passes, setup_s, trace_summary, wall_s, Args, Pass, Report};
use ilan::{
    BaselinePolicy, IlanParams, IlanScheduler, Policy, RunStats, SearchPhase, SiteId, SiteRegistry,
};
use ilan_metrics::HistSnapshot;
use ilan_runtime::{chunk_ranges, ExecMode, PoolConfig, StealPolicy, ThreadPool};
use ilan_topology::parse_spec;
use ilan_workloads::bt::{self, BtGrid};
use ilan_workloads::ft::{self, FtGrid};
use ilan_workloads::lu::{self, LuGrid};
use ilan_workloads::lulesh::{self, HydroState};
use ilan_workloads::matmul::{self, Matrix};
use ilan_workloads::sp::{self, SpGrid};
use ilan_workloads::verify::max_abs_diff;
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Instant;

/// Which native workload.
#[derive(Clone, Copy)]
pub enum Grain {
    Fine,
    Coarse,
}

/// The measured pool.
const POOL_SPEC: &str = "2x1x1";
/// The 1-worker pool that gives T1 for the work-efficiency figures.
const SERIAL_POOL_SPEC: &str = "1x1x1";
/// Repetitions of the serial and 1-worker timings (traced runs only).
const SERIAL_REPS: usize = 3;

// `native-fine`: the sizes of `NativeScale::laptop()`.
const LU_N: usize = 64;
const LU_SWEEPS: usize = 20;
const LULESH_ZONES: usize = 768;
const LULESH_STEPS: usize = 200;
// `native-coarse`: taskloops of a fraction of a millisecond to a few
// milliseconds over working sets that fit the two cores' L2 caches (1 MiB
// each here); larger sets made the figures follow neighbours' use of the
// shared L3 (medians moved 20-50% between consecutive sets of runs).
const MATMUL_N: usize = 256;
const MATMUL_PRODUCTS: usize = 4;
const FT_N: usize = 256;
const GRID_N: usize = 40;
const GRID_STEPS: usize = 2;

/// The pool call between `decide` and `record`.
const BACKEND: (&str, Layer) = ("taskloop", Layer::Runtime);

fn build_pool(spec: &str) -> ThreadPool {
    let topology = parse_spec(spec).expect("the pool specs are valid");
    ThreadPool::new(PoolConfig::new(topology)).expect("only required pinning can fail")
}

/// A kernel's seeded input.
enum Input {
    Lu(LuGrid),
    Lulesh(HydroState),
    Matmul(Matrix, Matrix),
    Ft(FtGrid),
    Sp(SpGrid),
    Bt(BtGrid),
}

/// What a kernel run leaves: its final field, which must agree bitwise
/// across runs and policies, and LULESH's conservation drift.
struct Output {
    field: Vec<f64>,
    drift: f64,
}

impl Output {
    fn field(field: Vec<f64>) -> Self {
        Output { field, drift: 0.0 }
    }

    /// LULESH's final state with its drift in mass and in total energy
    /// relative to the start.
    fn hydro(start: &HydroState, end: HydroState) -> Self {
        let mass = (end.total_mass() - start.total_mass()).abs();
        let energy = (end.total_energy() / start.total_energy() - 1.0).abs();
        Output {
            drift: mass.max(energy),
            field: [end.x, end.v, end.e].concat(),
        }
    }

    /// FNV-1a over the field's bits.
    fn hash(&self) -> u64 {
        self.field.iter().fold(0xcbf2_9ce4_8422_2325, |h, v| {
            (h ^ v.to_bits()).wrapping_mul(0x0100_0000_01b3)
        })
    }
}

fn copy_hydro(s: &HydroState) -> HydroState {
    HydroState {
        n: s.n,
        x: s.x.clone(),
        v: s.v.clone(),
        mass: s.mass.clone(),
        rho: s.rho.clone(),
        e: s.e.clone(),
        p: s.p.clone(),
        gamma: s.gamma,
    }
}

fn copy_ft(g: &FtGrid) -> FtGrid {
    FtGrid {
        n: g.n,
        re: g.re.clone(),
        im: g.im.clone(),
    }
}

/// The serial 2-D FFT that `fft2d_native` parallelizes: row FFTs and a
/// transpose, twice.
fn fft2d_serial(g: &mut FtGrid, inverse: bool) {
    let n = g.n;
    for _ in 0..2 {
        for (re, im) in g.re.chunks_mut(n).zip(g.im.chunks_mut(n)) {
            ft::fft_row(re, im, inverse);
        }
        g.transpose_serial();
    }
    if inverse {
        let scale = 1.0 / (n * n) as f64;
        for v in g.re.iter_mut().chain(g.im.iter_mut()) {
            *v *= scale;
        }
    }
}

impl Input {
    fn build(grain: Grain, seed: u64) -> Vec<Input> {
        let mut rng = SplitMix::new(seed, 0x6B65_726E_656C);
        match grain {
            Grain::Fine => {
                let lu = LuGrid {
                    n: LU_N,
                    u: rng.fill(LU_N * LU_N, 0.0, 0.6),
                    f: rng.fill(LU_N * LU_N, 0.7, 1.3),
                };
                // A Sod tube whose left-state pressure varies with the seed.
                let mut hydro = HydroState::sod(LULESH_ZONES);
                let (p_left, gamma) = (rng.uniform(0.8, 1.2), hydro.gamma);
                let left = hydro.p.iter_mut().zip(hydro.e.iter_mut()).zip(&hydro.rho);
                for ((p, e), rho) in left.take(LULESH_ZONES / 2) {
                    *p = p_left;
                    *e = p_left / ((gamma - 1.0) * rho);
                }
                vec![Input::Lu(lu), Input::Lulesh(hydro)]
            }
            Grain::Coarse => {
                let cube = GRID_N * GRID_N * GRID_N;
                let (a, b) = (rng.next_u64(), rng.next_u64());
                vec![
                    Input::Matmul(Matrix::random(MATMUL_N, a), Matrix::random(MATMUL_N, b)),
                    Input::Ft(FtGrid {
                        n: FT_N,
                        re: rng.fill(FT_N * FT_N, -0.5, 0.5),
                        im: rng.fill(FT_N * FT_N, -0.5, 0.5),
                    }),
                    Input::Sp(SpGrid {
                        n: GRID_N,
                        u: rng.fill(cube, 0.6, 1.4),
                    }),
                    Input::Bt(BtGrid {
                        n: GRID_N,
                        u: rng.fill(cube, 0.6, 1.4),
                    }),
                ]
            }
        }
    }

    fn name(&self) -> &'static str {
        match self {
            Input::Lu(_) => "LU",
            Input::Lulesh(_) => "LULESH",
            Input::Matmul(..) => "Matmul",
            Input::Ft(_) => "FT",
            Input::Sp(_) => "SP",
            Input::Bt(_) => "BT",
        }
    }

    /// Runs the kernel on the pool over a copy of the input. Every step
    /// function call is a kernel span.
    fn run_native(&self, pool: &ThreadPool, policy: &mut dyn Policy) -> Output {
        let mut sites = SiteRegistry::new();
        let mut stats = RunStats::new();
        let (sites, stats) = (&mut sites, &mut stats);
        match self {
            Input::Lu(g) => {
                let mut g = LuGrid {
                    n: g.n,
                    u: g.u.clone(),
                    f: g.f.clone(),
                };
                for _ in 0..LU_SWEEPS {
                    trace::span("lu::sweep_native", Layer::Kernel, || {
                        lu::sweep_native(pool, policy, &mut g, sites, stats)
                    });
                }
                Output::field(g.u)
            }
            Input::Lulesh(start) => {
                let mut s = copy_hydro(start);
                for _ in 0..LULESH_STEPS {
                    let dt = s.cfl_dt();
                    trace::span("lulesh::step_native", Layer::Kernel, || {
                        lulesh::step_native(pool, policy, &mut s, sites, dt, stats)
                    });
                }
                Output::hydro(start, s)
            }
            Input::Matmul(a, b) => {
                let mut c = Matrix::zeros(a.n);
                for _ in 0..MATMUL_PRODUCTS {
                    c = trace::span("matmul::mul_native", Layer::Kernel, || {
                        matmul::mul_native(pool, policy, a, b, sites, stats)
                    });
                }
                Output::field(c.data)
            }
            Input::Ft(g) => {
                let mut g = copy_ft(g);
                for inverse in [false, true] {
                    trace::span("ft::fft2d_native", Layer::Kernel, || {
                        ft::fft2d_native(pool, policy, &mut g, sites, inverse, stats)
                    });
                }
                Output::field([g.re, g.im].concat())
            }
            Input::Sp(g) => {
                let mut g = SpGrid {
                    n: g.n,
                    u: g.u.clone(),
                };
                for _ in 0..GRID_STEPS {
                    trace::span("sp::step_native", Layer::Kernel, || {
                        sp::step_native(pool, policy, &mut g, sites, stats)
                    });
                }
                Output::field(g.u)
            }
            Input::Bt(g) => {
                let mut g = BtGrid {
                    n: g.n,
                    u: g.u.clone(),
                };
                for _ in 0..GRID_STEPS {
                    trace::span("bt::step_native", Layer::Kernel, || {
                        bt::step_native(pool, policy, &mut g, sites, stats)
                    });
                }
                Output::field(g.u)
            }
        }
    }

    /// The same work on one thread, without the runtime.
    fn run_serial(&self) -> Output {
        match self {
            Input::Lu(g) => {
                let mut g = LuGrid {
                    n: g.n,
                    u: g.u.clone(),
                    f: g.f.clone(),
                };
                for _ in 0..LU_SWEEPS {
                    g.sweep_serial();
                }
                Output::field(g.u)
            }
            Input::Lulesh(start) => {
                let mut s = copy_hydro(start);
                for _ in 0..LULESH_STEPS {
                    let dt = s.cfl_dt();
                    s.step_serial(dt);
                }
                Output::hydro(start, s)
            }
            Input::Matmul(a, b) => {
                let mut c = Matrix::zeros(a.n);
                for _ in 0..MATMUL_PRODUCTS {
                    c = a.mul_serial(b);
                }
                Output::field(c.data)
            }
            Input::Ft(g) => {
                let mut g = copy_ft(g);
                fft2d_serial(&mut g, false);
                fft2d_serial(&mut g, true);
                Output::field([g.re, g.im].concat())
            }
            Input::Sp(g) => {
                let mut g = SpGrid {
                    n: g.n,
                    u: g.u.clone(),
                };
                for _ in 0..GRID_STEPS {
                    g.step_serial();
                }
                Output::field(g.u)
            }
            Input::Bt(g) => {
                let mut g = BtGrid {
                    n: g.n,
                    u: g.u.clone(),
                };
                for _ in 0..GRID_STEPS {
                    g.step_serial();
                }
                Output::field(g.u)
            }
        }
    }

    /// The kernel's check: the deviation from the serial reference, from
    /// the input after an FFT round trip, or LULESH's conservation drift,
    /// with the bound `run_native_app` applies to it.
    fn check(&self, out: &Output, reference: &Output) -> (f64, f64) {
        match self {
            Input::Lu(_) => (max_abs_diff(&out.field, &reference.field), 1e-12),
            Input::Lulesh(_) => (out.drift, 0.06),
            Input::Matmul(..) => (max_abs_diff(&out.field, &reference.field), 1e-11),
            Input::Ft(g) => {
                let input = [g.re.as_slice(), g.im.as_slice()].concat();
                (max_abs_diff(&out.field, &input), 1e-8)
            }
            Input::Sp(_) => (max_abs_diff(&out.field, &reference.field), 1e-9),
            Input::Bt(_) => (max_abs_diff(&out.field, &reference.field), 1e-10),
        }
    }
}

/// One kernel run under one policy.
struct Run {
    kernel: usize,
    ilan: bool,
    secs: f64,
    figures: Figures,
    out: Output,
}

fn policy_name(ilan: bool) -> &'static str {
    if ilan {
        "ILAN"
    } else {
        "baseline"
    }
}

fn run_kernel(pool: &ThreadPool, inputs: &[Input], kernel: usize, ilan: bool) -> Run {
    let input = &inputs[kernel];
    let (secs, figures, out) = if ilan {
        let policy = IlanScheduler::new(IlanParams::for_topology(pool.topology()));
        timed(pool, input, policy, |p, site| {
            p.phase(site) == SearchPhase::Settled
        })
    } else {
        timed(pool, input, BaselinePolicy, |_, _| true)
    };
    Run {
        kernel,
        ilan,
        secs,
        figures,
        out,
    }
}

fn timed<P: Policy>(
    pool: &ThreadPool,
    input: &Input,
    policy: P,
    settled: fn(&P, SiteId) -> bool,
) -> (f64, Figures, Output) {
    let loop_ns = pool
        .metrics()
        .expect("pool metrics are on by default")
        .loop_ns()
        .clone();
    let mut probe = Probe::new(policy, BACKEND, settled).watch_pool(loop_ns);
    let clock = Instant::now();
    let out = input.run_native(pool, &mut probe);
    (clock.elapsed().as_secs_f64(), probe.figures, out)
}

/// One pass: every kernel under both policies, and (traced) the pool's
/// `loop_ns` samples taken during the pass.
struct PassOut {
    runs: Vec<Run>,
    loop_ns: Option<HistSnapshot>,
}

fn pass(pool: &ThreadPool, inputs: &[Input], ilan_first: bool) -> PassOut {
    let hist = pool
        .metrics()
        .expect("pool metrics are on by default")
        .loop_ns();
    let before = trace::recording().then(|| hist.snapshot());
    let runs = (0..inputs.len())
        .flat_map(|k| [ilan_first, !ilan_first].map(|ilan| run_kernel(pool, inputs, k, ilan)))
        .collect();
    PassOut {
        runs,
        loop_ns: before.map(|b| hist.snapshot().delta(&b)),
    }
}

/// Drives `ThreadPool::taskloop` directly over every execution mode and
/// loop shape (inline, one chunk per iteration, many chunks) and checks
/// that every chunk ran exactly once: `tasks_executed` equals the chunk
/// count and the body saw each iteration once.
fn conformance(pool: &ThreadPool, report: &mut Report) {
    let all = pool.topology().all_nodes();
    let modes = [
        ExecMode::Flat,
        ExecMode::WorkSharing,
        ExecMode::Hierarchical {
            mask: all,
            threads: 0,
            strict_fraction: 1.0,
            policy: StealPolicy::Strict,
        },
        ExecMode::Hierarchical {
            mask: all,
            threads: 0,
            strict_fraction: 0.5,
            policy: StealPolicy::Full,
        },
    ];
    for mode in modes {
        for (len, grain) in [(10usize, 1usize), (33, 1), (1000, 7), (4096, 64)] {
            let (seen, index_sum) = (AtomicU64::new(0), AtomicU64::new(0));
            let executed = pool
                .taskloop(0..len, grain, mode.clone(), |r| {
                    seen.fetch_add(r.len() as u64, Ordering::Relaxed);
                    index_sum.fetch_add(r.map(|i| i as u64).sum(), Ordering::Relaxed);
                })
                .tasks_executed();
            let chunks = chunk_ranges(0..len, grain).len();
            let ok = executed == chunks
                && seen.into_inner() == len as u64
                && index_sum.into_inner() == (len * (len - 1) / 2) as u64;
            report.check(ok, || {
                format!("taskloop {mode:?} over {len} by {grain}: {executed} of {chunks} chunks")
            });
        }
    }
}

/// The serial reference of every kernel.
fn serial_references(inputs: &[Input]) -> Vec<Output> {
    inputs.iter().map(Input::run_serial).collect()
}

/// Checks one run's output against its kernel's bound.
fn check_run(report: &mut Report, inputs: &[Input], refs: &[Output], run: &Run) {
    let input = &inputs[run.kernel];
    let (error, bound) = input.check(&run.out, &refs[run.kernel]);
    report.check(error < bound, || {
        format!(
            "{} under {}: check {error:e} over its bound {bound:e}",
            input.name(),
            policy_name(run.ilan)
        )
    });
}

pub fn run(args: &Args, grain: Grain) -> Report {
    let mut report = Report::default();
    // Set-up builds the pool, the seeded inputs and the serial references
    // the outputs are checked against. Without the references' fixed work,
    // `setup_s` was a few dozen microseconds of thread spawning.
    let build = || {
        let inputs = Input::build(grain, args.seed);
        let refs = serial_references(&inputs);
        (build_pool(POOL_SPEC), inputs, refs)
    };
    let (pool, inputs, refs) = build();
    conformance(&pool, &mut report);

    let metrics = pool.metrics().expect("pool metrics are on by default");
    let loop_before = metrics.loop_ns().snapshot();
    let dispatch_before = metrics.dispatch_ns().snapshot();
    let mut hashes: Vec<Option<u64>> = vec![None; inputs.len()];
    let mut ilan_first = false;
    let passes = run_passes(
        args,
        || {
            ilan_first = !ilan_first;
            pass(&pool, &inputs, ilan_first)
        },
        |mut out| {
            for run in &mut out.runs {
                check_run(&mut report, &inputs, &refs, run);
                // Chunks own disjoint outputs, so every run of a kernel,
                // under either policy, traced or not, agrees bitwise.
                let hash = run.out.hash();
                let first = *hashes[run.kernel].get_or_insert(hash);
                report.check(hash == first, || {
                    let name = inputs[run.kernel].name();
                    format!(
                        "{name} under {} differs from its first run",
                        policy_name(run.ilan)
                    )
                });
                run.out.field = Vec::new();
            }
            out
        },
    );

    report.set("setup_s", setup_s(build));

    // A job is one taskloop; ILAN's are normalized by the same loop under
    // the baseline in the same pass. Latency percentiles are taken per
    // kernel and combined by geometric mean: pooled over kernels, the p95
    // fell on the edge between one kernel's exploratory and settled loops
    // and jumped between them from run to run.
    let mut secs = vec![[Vec::new(), Vec::new()]; inputs.len()];
    let mut jobs = vec![Vec::new(); inputs.len()];
    let mut normalized = Vec::new();
    for p in passes.iter().filter(|p| !p.traced) {
        for pair in p.out.runs.chunks(2) {
            let (base, ilan) = if pair[0].ilan {
                (&pair[1], &pair[0])
            } else {
                (&pair[0], &pair[1])
            };
            secs[base.kernel][0].push(base.secs);
            secs[ilan.kernel][1].push(ilan.secs);
            let (b, i) = (&base.figures.times_ns, &ilan.figures.times_ns);
            report.check(b.len() == i.len(), || {
                format!(
                    "{}: {} baseline loops, {} ILAN loops",
                    inputs[base.kernel].name(),
                    b.len(),
                    i.len()
                )
            });
            jobs[ilan.kernel].extend(i);
            normalized.extend(i.iter().zip(b).map(|(i, b)| i / b));
        }
    }
    let median_secs = |k: usize, ilan: bool| stats::median(&secs[k][usize::from(ilan)]);
    let speedups: Vec<f64> = (0..inputs.len())
        .map(|k| median_secs(k, false) / median_secs(k, true))
        .collect();
    report.set("wall_s", wall_s(&passes));
    report.set("ilan_speedup", stats::geomean(&speedups));
    let latency_ms = |q: f64| {
        let per_kernel: Vec<f64> = jobs.iter().map(|j| stats::quantile(j, q)).collect();
        stats::geomean(&per_kernel) * 1e-6
    };
    report.set("job_p50_ms", latency_ms(0.50));
    report.set("job_p95_ms", latency_ms(0.95));
    report.set("antt", stats::mean(&normalized));
    let loops = jobs.iter().map(Vec::len).sum::<usize>() as f64;
    let loop_ns: f64 = jobs.iter().flatten().sum();
    report.set("max_jobs_per_s", loops / (loop_ns * 1e-9));
    if !args.trace {
        return report;
    }

    trace_summary(&mut report, args, &passes);
    let traced: Vec<&Pass<PassOut>> = passes.iter().filter(|p| p.traced).collect();
    let spans: Vec<&Span> = traced.iter().flat_map(|p| &p.spans).collect();
    core_latencies(&mut report, &spans);
    let taskloops = trace::durations_ns(spans.iter().copied(), BACKEND.0);
    report.set(
        "runtime.taskloop_us.p50",
        stats::quantile(&taskloops, 0.50) * 1e-3,
    );
    report.set(
        "runtime.taskloop_us.p99",
        stats::quantile(&taskloops, 0.99) * 1e-3,
    );
    let runs: Vec<&Run> = traced.iter().flat_map(|p| &p.out.runs).collect();
    let sum = |f: fn(&Figures) -> f64| runs.iter().map(|r| f(&r.figures)).sum::<f64>();
    let loops = sum(|f| f.times_ns.len() as f64);
    report.set(
        "runtime.sched_overhead_frac",
        sum(|f| f.overhead_ns) / sum(|f| f.thread_ns),
    );
    report.set(
        "runtime.migrations_per_loop",
        sum(|f| f.migrations as f64) / loops,
    );
    report.set(
        "runtime.locality",
        sum(|f| f.local_ns) / sum(|f| f.times_ns.iter().sum()),
    );
    let loop_ns = metrics.loop_ns().snapshot().delta(&loop_before);
    let dispatch_ns = metrics.dispatch_ns().snapshot().delta(&dispatch_before);
    report.set("runtime.loop_ns.p50", loop_ns.quantile(0.5) as f64);
    report.set("runtime.dispatch_ns.p50", dispatch_ns.quantile(0.5) as f64);
    let explore: Vec<f64> = traced
        .iter()
        .map(|p| {
            p.out
                .runs
                .iter()
                .filter(|r| r.ilan)
                .map(|r| r.figures.explore as f64)
                .sum()
        })
        .collect();
    report.set("core.explore_invocations", stats::median(&explore));
    cross_check(&mut report, &traced, dispatch_ns.quantile(0.5) as f64);

    // The work-first figures: Ts (serial), T1 (1-worker pool), T2 (this
    // pool), all under ILAN and outside the timed passes.
    let serial: Vec<f64> = (0..SERIAL_REPS)
        .map(|_| {
            let clock = Instant::now();
            std::hint::black_box(serial_references(&inputs));
            clock.elapsed().as_secs_f64()
        })
        .collect();
    let one = build_pool(SERIAL_POOL_SPEC);
    let t1: Vec<f64> = (0..SERIAL_REPS)
        .map(|_| {
            (0..inputs.len())
                .map(|k| {
                    let run = run_kernel(&one, &inputs, k, true);
                    check_run(&mut report, &inputs, &refs, &run);
                    run.secs
                })
                .sum()
        })
        .collect();
    let (ts, t1) = (stats::median(&serial), stats::median(&t1));
    let t2: f64 = (0..inputs.len()).map(|k| median_secs(k, true)).sum();
    report.set("kernel.serial_s", ts);
    report.set("runtime.work_efficiency", ts / t1);
    report.set("runtime.parallel_efficiency", t1 / (2.0 * t2));
    if let Some(k) = inputs.iter().position(|i| matches!(i, Input::Matmul(..))) {
        let flops = 2.0 * (MATMUL_N as f64).powi(3) * MATMUL_PRODUCTS as f64;
        report.set("kernel.matmul_gflops", flops / median_secs(k, true) * 1e-9);
    }
    report
}

/// The outside-in taskloop time against the pool's own `loop_ns`
/// histogram over the same dispatched loops. The histogram reports the
/// upper bound of a bucket 2^-4 wide, and its makespan clock starts after
/// the arena fill that the outside gap includes, so the medians must agree
/// within one bucket width plus the median dispatch latency.
fn cross_check(report: &mut Report, traced: &[&Pass<PassOut>], dispatch_ns: f64) {
    let mut outside = Vec::new();
    let mut inside = HistSnapshot::default();
    for p in traced {
        let gaps = trace::durations_ns(&p.spans, BACKEND.0);
        let dispatched: Vec<bool> = p
            .out
            .runs
            .iter()
            .flat_map(|r| r.figures.dispatched.iter().copied())
            .collect();
        report.check(gaps.len() == dispatched.len(), || {
            format!(
                "{} taskloop spans for {} invocations",
                gaps.len(),
                dispatched.len()
            )
        });
        outside.extend(
            gaps.iter()
                .zip(&dispatched)
                .filter(|(_, &d)| d)
                .map(|(g, _)| *g),
        );
        if let Some(h) = &p.out.loop_ns {
            inside = inside.merge(h);
        }
    }
    let (outside, inside) = (stats::quantile(&outside, 0.5), inside.quantile(0.5) as f64);
    report.check(
        (outside - inside).abs() <= inside / 16.0 + dispatch_ns,
        || format!("dispatched loops: median {outside} ns from outside, {inside} ns in loop_ns"),
    );
}
