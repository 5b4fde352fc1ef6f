//! Benchmark-side spans.
//!
//! Spans are recorded around the calls the benchmark makes into each layer,
//! never inside the program, so a traced pass runs the same program code as
//! an untraced one plus clock reads at the layer boundaries. A span has a
//! name, the layer its self time is charged to, start and end in ns since
//! the pass began, its parent, and the invocation it belongs to. Spans stay
//! in memory while a pass runs; the last traced pass is written out when
//! the run ends.

use ilan::{Decision, Policy, SiteId, TaskloopReport};
use ilan_metrics::Histogram;
use std::cell::RefCell;
use std::io::{self, BufWriter, Write as _};
use std::path::Path;
use std::time::Instant;

/// The layer a span's self time is charged to: one of the repository's
/// crates, or the benchmark's own glue.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Layer {
    /// The benchmark itself (pass loop, replay driver).
    Bench,
    /// `ilan-workloads`: application drivers and kernel step functions.
    Kernel,
    /// `ilan`: the scheduler's `decide` and `record`.
    Core,
    /// `ilan-runtime`: one native taskloop, chunk bodies included.
    Runtime,
    /// `ilan-numasim`: simulated invocations and colocation steps.
    Sim,
    /// `ilan-server`: serving runs and tenant calls.
    Server,
}

impl Layer {
    /// Every layer, in `layer as usize` order.
    pub const ALL: [Layer; 6] = [
        Layer::Bench,
        Layer::Kernel,
        Layer::Core,
        Layer::Runtime,
        Layer::Sim,
        Layer::Server,
    ];

    fn name(self) -> &'static str {
        match self {
            Layer::Bench => "bench",
            Layer::Kernel => "kernel",
            Layer::Core => "core",
            Layer::Runtime => "runtime",
            Layer::Sim => "sim",
            Layer::Server => "server",
        }
    }

    /// The per-layer metric holding this layer's share of traced host time.
    pub fn self_frac_metric(self) -> Option<&'static str> {
        match self {
            Layer::Bench => None,
            Layer::Kernel => Some("kernel.self_frac"),
            Layer::Core => Some("core.self_frac"),
            Layer::Runtime => Some("runtime.self_frac"),
            Layer::Sim => Some("sim.self_frac"),
            Layer::Server => Some("server.self_frac"),
        }
    }
}

/// One recorded span.
#[derive(Clone, Debug)]
pub struct Span {
    /// The call the span covers.
    pub name: &'static str,
    /// The layer its self time is charged to.
    pub layer: Layer,
    /// Start, ns since recording started.
    pub start_ns: u64,
    /// End, ns since recording started.
    pub end_ns: u64,
    /// Index of the enclosing span.
    pub parent: Option<usize>,
    /// The invocation (decide → record round, or replayed loop) it belongs
    /// to; 0 outside any.
    pub invocation: u64,
}

impl Span {
    /// Duration, ns.
    pub fn dur_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

struct Recorder {
    t0: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
    invocation: u64,
}

thread_local! {
    static RECORDER: RefCell<Option<Recorder>> = const { RefCell::new(None) };
}

/// Starts recording on this thread.
pub fn start() {
    RECORDER.with(|r| {
        *r.borrow_mut() = Some(Recorder {
            t0: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
            invocation: 0,
        });
    });
}

/// Stops recording and returns the spans in the order they were opened.
pub fn stop() -> Vec<Span> {
    RECORDER.with(|r| {
        let rec = r
            .borrow_mut()
            .take()
            .expect("trace::stop without trace::start");
        assert!(rec.open.is_empty(), "a span was left open");
        rec.spans
    })
}

/// Whether spans are being recorded.
pub fn recording() -> bool {
    RECORDER.with(|r| r.borrow().is_some())
}

/// Opens a span inside the innermost open one; `None` when not recording.
pub fn enter(name: &'static str, layer: Layer) -> Option<usize> {
    RECORDER.with(|r| {
        let mut r = r.borrow_mut();
        let rec = r.as_mut()?;
        let id = rec.spans.len();
        let now = rec.t0.elapsed().as_nanos() as u64;
        rec.spans.push(Span {
            name,
            layer,
            start_ns: now,
            end_ns: now,
            parent: rec.open.last().copied(),
            invocation: rec.invocation,
        });
        rec.open.push(id);
        Some(id)
    })
}

/// Closes the span [`enter`] opened; spans close innermost first.
pub fn exit(id: Option<usize>) {
    let Some(id) = id else { return };
    RECORDER.with(|r| {
        let mut r = r.borrow_mut();
        let rec = r.as_mut().expect("span closed after trace::stop");
        assert_eq!(rec.open.pop(), Some(id), "spans close innermost first");
        rec.spans[id].end_ns = rec.t0.elapsed().as_nanos() as u64;
    });
}

/// Runs `f` inside a span.
pub fn span<R>(name: &'static str, layer: Layer, f: impl FnOnce() -> R) -> R {
    let id = enter(name, layer);
    let out = f();
    exit(id);
    out
}

/// Starts a new invocation: spans opened from now on carry its id.
pub fn begin_invocation() {
    RECORDER.with(|r| {
        if let Some(rec) = r.borrow_mut().as_mut() {
            rec.invocation += 1;
        }
    });
}

/// Each span's self time: its duration minus the part its children cover.
pub fn self_ns(spans: &[Span]) -> Vec<u64> {
    let mut covered = vec![0u64; spans.len()];
    for s in spans {
        if let Some(p) = s.parent {
            covered[p] += s.dur_ns();
        }
    }
    spans
        .iter()
        .zip(covered)
        .map(|(s, c)| s.dur_ns().saturating_sub(c))
        .collect()
}

/// Whether the spans form a tree: parents open before their children,
/// children lie inside their parent, and siblings do not overlap.
pub fn well_formed(spans: &[Span]) -> bool {
    let mut last_child_end = vec![0u64; spans.len()];
    let mut last_root_end = 0u64;
    for (i, s) in spans.iter().enumerate() {
        if s.end_ns < s.start_ns {
            return false;
        }
        let previous_end = match s.parent {
            Some(p) if p < i => {
                if s.start_ns < spans[p].start_ns || s.end_ns > spans[p].end_ns {
                    return false;
                }
                &mut last_child_end[p]
            }
            Some(_) => return false,
            None => &mut last_root_end,
        };
        if s.start_ns < *previous_end {
            return false;
        }
        *previous_end = s.end_ns;
    }
    true
}

/// Durations, ns, of the spans called `name`.
pub fn durations_ns<'a>(spans: impl IntoIterator<Item = &'a Span>, name: &str) -> Vec<f64> {
    spans
        .into_iter()
        .filter(|s| s.name == name)
        .map(|s| s.dur_ns() as f64)
        .collect()
}

/// Writes spans as JSON; a span's id is its position in the array.
pub fn write_json(path: &Path, workload: &str, spans: &[Span]) -> io::Result<()> {
    if let Some(dir) = path.parent() {
        std::fs::create_dir_all(dir)?;
    }
    let mut out = BufWriter::new(std::fs::File::create(path)?);
    writeln!(out, "{{\"workload\": \"{workload}\", \"spans\": [")?;
    for (i, s) in spans.iter().enumerate() {
        let parent = s
            .parent
            .map_or_else(|| "null".to_string(), |p| p.to_string());
        let sep = if i + 1 < spans.len() { "," } else { "" };
        writeln!(
            out,
            "{{\"id\": {i}, \"name\": \"{}\", \"layer\": \"{}\", \"start_ns\": {}, \"end_ns\": {}, \"parent\": {parent}, \"invocation\": {}}}{sep}",
            s.name,
            s.layer.name(),
            s.start_ns,
            s.end_ns,
            s.invocation
        )?;
    }
    writeln!(out, "]}}")?;
    out.flush()
}

/// What a [`Probe`] keeps from the reports it forwards.
#[derive(Default)]
pub struct Figures {
    /// Reported time of each invocation, ns, in invocation order.
    pub times_ns: Vec<f64>,
    /// Σ reported migrations.
    pub migrations: u64,
    /// Σ reported scheduling overhead, ns.
    pub overhead_ns: f64,
    /// Σ reported time × threads, ns.
    pub thread_ns: f64,
    /// Σ reported locality × time, ns.
    pub local_ns: f64,
    /// Invocations until every site seen had settled (recorded runs only).
    pub explore: usize,
    /// Per invocation, whether the pool dispatched it rather than running
    /// it inline (only with [`Probe::watch_pool`]).
    pub dispatched: Vec<bool>,
}

/// A transparent [`Policy`] wrapper at the scheduler boundary.
///
/// It forwards every call, `name` and `decision_overhead_ns` unchanged.
/// While recording it opens three spans per invocation: `decide` and
/// `record` (core) and the backend gap between them — the simulator's
/// placement plus `run_taskloop`, or the pool's taskloop. Traced or not, it
/// keeps the reported figures the end-to-end metrics need.
pub struct Probe<P> {
    inner: P,
    backend: (&'static str, Layer),
    settled: fn(&P, SiteId) -> bool,
    gap: Option<usize>,
    sites: Vec<SiteId>,
    loop_ns: Option<(Histogram, u64)>,
    /// The figures collected so far.
    pub figures: Figures,
}

impl<P: Policy> Probe<P> {
    /// Wraps `inner`; `backend` names the span between `decide` and
    /// `record`, and `settled` says whether a site's search has finished.
    pub fn new(inner: P, backend: (&'static str, Layer), settled: fn(&P, SiteId) -> bool) -> Self {
        Probe {
            inner,
            backend,
            settled,
            gap: None,
            sites: Vec::new(),
            loop_ns: None,
            figures: Figures::default(),
        }
    }

    /// Tells dispatched invocations from inline ones by whether the pool's
    /// `loop_ns` histogram, which only dispatched loops feed, gained a
    /// sample.
    pub fn watch_pool(mut self, loop_ns: Histogram) -> Self {
        self.loop_ns = Some((loop_ns, 0));
        self
    }
}

impl<P: Policy> Policy for Probe<P> {
    fn decide(&mut self, site: SiteId) -> Decision {
        begin_invocation();
        let id = enter("decide", Layer::Core);
        let decision = self.inner.decide(site);
        exit(id);
        if let Some((hist, before)) = &mut self.loop_ns {
            *before = hist.count();
        }
        self.gap = enter(self.backend.0, self.backend.1);
        decision
    }

    fn record(&mut self, site: SiteId, decision: &Decision, report: &TaskloopReport) {
        exit(self.gap.take());
        if let Some((hist, before)) = &self.loop_ns {
            self.figures.dispatched.push(hist.count() > *before);
        }
        let id = enter("record", Layer::Core);
        self.inner.record(site, decision, report);
        exit(id);
        let f = &mut self.figures;
        f.times_ns.push(report.time_ns);
        f.migrations += report.migrations as u64;
        f.overhead_ns += report.sched_overhead_ns;
        f.thread_ns += report.time_ns * report.threads as f64;
        f.local_ns += report.locality * report.time_ns;
        if id.is_some() {
            if !self.sites.contains(&site) {
                self.sites.push(site);
            }
            if self.sites.iter().any(|&s| !(self.settled)(&self.inner, s)) {
                f.explore = f.times_ns.len() + 1;
            }
        }
    }

    fn name(&self) -> &'static str {
        self.inner.name()
    }

    fn decision_overhead_ns(&self) -> f64 {
        self.inner.decision_overhead_ns()
    }
}
