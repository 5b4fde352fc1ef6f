//! Decision tracing: wrap any policy to record its decision history.
//!
//! Useful for debugging schedulers, for the `moldability_trace` example, and
//! for tests that assert on exploration sequences without re-implementing
//! the drive loop. The wrapper is transparent: it forwards `decide`/`record`
//! to the inner policy and appends one [`TraceEntry`] per invocation.
//!
//! With [`with_metrics`](RecordingPolicy::with_metrics) the same push point
//! also feeds the per-site decision histograms of a
//! [`crate::SchedulerMetrics`] — the trace and the metrics
//! exposition come from one write, so they cannot disagree.

use crate::config::Decision;
use crate::metrics::SchedulerMetrics;
use crate::policy::Policy;
use crate::report::TaskloopReport;
use crate::site::SiteId;

/// One recorded invocation.
#[derive(Clone, Debug)]
pub struct TraceEntry {
    /// The taskloop site.
    pub site: SiteId,
    /// What the inner policy decided.
    pub decision: Decision,
    /// The measured outcome.
    pub time_ns: f64,
    /// Threads that actually participated.
    pub threads: usize,
}

/// A policy wrapper that records every decide/record round.
pub struct RecordingPolicy<P> {
    inner: P,
    entries: Vec<TraceEntry>,
    metrics: Option<SchedulerMetrics>,
}

impl<P: Policy> RecordingPolicy<P> {
    /// Wraps `inner`.
    pub fn new(inner: P) -> Self {
        RecordingPolicy {
            inner,
            entries: Vec::new(),
            metrics: None,
        }
    }

    /// Also feeds each recorded invocation into `metrics`' per-site
    /// decision histograms (builder style). The histograms are written at
    /// the trace-entry push point, so `entries_for(site).count()` always
    /// equals the site's histogram count.
    pub fn with_metrics(mut self, metrics: SchedulerMetrics) -> Self {
        self.metrics = Some(metrics);
        self
    }

    /// The recorded history, in invocation order.
    pub fn entries(&self) -> &[TraceEntry] {
        &self.entries
    }

    /// History restricted to one site.
    pub fn entries_for(&self, site: SiteId) -> impl Iterator<Item = &TraceEntry> {
        self.entries.iter().filter(move |e| e.site == site)
    }

    /// The sequence of thread counts decided for `site` (hierarchical
    /// decisions only) — the exploration trajectory.
    pub fn thread_trajectory(&self, site: SiteId) -> Vec<usize> {
        self.entries_for(site)
            .filter_map(|e| e.decision.threads())
            .collect()
    }

    /// Consumes the wrapper, returning the inner policy.
    pub fn into_inner(self) -> P {
        self.inner
    }

    /// Borrows the inner policy.
    pub fn inner(&self) -> &P {
        &self.inner
    }
}

impl<P: Policy> Policy for RecordingPolicy<P> {
    fn decide(&mut self, site: SiteId) -> Decision {
        self.inner.decide(site)
    }

    fn record(&mut self, site: SiteId, decision: &Decision, report: &TaskloopReport) {
        if let Some(m) = &self.metrics {
            let threads = decision.threads().unwrap_or(report.threads);
            m.note_invocation(site, threads, report.time_ns);
        }
        self.entries.push(TraceEntry {
            site,
            decision: decision.clone(),
            time_ns: report.time_ns,
            threads: report.threads,
        });
        self.inner.record(site, decision, report);
    }

    fn name(&self) -> &'static str {
        self.inner.name()
    }

    fn decision_overhead_ns(&self) -> f64 {
        self.inner.decision_overhead_ns()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::policy::BaselinePolicy;
    use crate::scheduler::{IlanParams, IlanScheduler};
    use ilan_topology::presets;

    #[test]
    fn records_in_order_and_forwards() {
        let mut p = RecordingPolicy::new(BaselinePolicy);
        let site = SiteId::new(1);
        for i in 0..3 {
            let d = p.decide(site);
            p.record(
                site,
                &d,
                &TaskloopReport::synthetic(100.0 * (i + 1) as f64, 4),
            );
        }
        assert_eq!(p.entries().len(), 3);
        assert_eq!(p.entries()[2].time_ns, 300.0);
        assert_eq!(p.name(), "baseline");
        assert_eq!(p.decision_overhead_ns(), 0.0);
    }

    #[test]
    fn thread_trajectory_captures_exploration() {
        let topo = presets::epyc_9354_2s();
        let mut p = RecordingPolicy::new(IlanScheduler::new(IlanParams::for_topology(&topo)));
        let site = SiteId::new(0);
        // Memory-bound response: shrinking helps.
        let time = |t: usize| 1e6 + t as f64 * 1e4;
        for _ in 0..6 {
            let d = p.decide(site);
            let threads = d.threads().unwrap();
            p.record(site, &d, &TaskloopReport::synthetic(time(threads), threads));
        }
        let traj = p.thread_trajectory(site);
        assert_eq!(&traj[..2], &[64, 32], "priming must be 64 then 32");
        assert!(traj.len() >= 4);
        // Access to inner scheduler still works.
        assert!(p.inner().ptt().invocations(site) >= 4);
    }

    /// Satellite check: the per-site decision history in the registry is
    /// written at the trace push point, so the exposition and the trace
    /// agree exactly — per site, histogram count == trace entry count and
    /// the histogram sum of threads == the trajectory sum.
    #[test]
    fn registry_histograms_agree_with_trace() {
        use crate::metrics::SchedulerMetrics;
        use ilan_metrics::SampleValue;

        let topo = presets::epyc_9354_2s();
        let metrics = SchedulerMetrics::new();
        let mut inner = IlanScheduler::new(IlanParams::for_topology(&topo));
        inner.attach_metrics(metrics.clone());
        let mut p = RecordingPolicy::new(inner).with_metrics(metrics.clone());

        let time = |t: usize| 1e6 + t as f64 * 1e4;
        for s in [0u64, 1, 0, 0, 1, 0] {
            let site = SiteId::new(s);
            let d = p.decide(site);
            let threads = d.threads().unwrap();
            p.record(site, &d, &TaskloopReport::synthetic(time(threads), threads));
        }

        let snap = metrics.registry().snapshot();
        for s in [0u64, 1] {
            let site = SiteId::new(s);
            let label = site.to_string();
            let hist =
                match snap.get_with("ilan_sched_decision_threads", &[("site", label.as_str())]) {
                    Some(SampleValue::Histogram(h)) => h,
                    other => panic!("{site}: {other:?}"),
                };
            assert_eq!(hist.count, p.entries_for(site).count() as u64);
            let traj_sum: usize = p.thread_trajectory(site).iter().sum();
            assert_eq!(hist.sum, traj_sum as u64, "{site} thread sums differ");
            let times = match snap.get_with("ilan_sched_invocation_ns", &[("site", label.as_str())])
            {
                Some(SampleValue::Histogram(h)) => h,
                other => panic!("{site}: {other:?}"),
            };
            assert_eq!(times.count, hist.count);
        }
        // The PTT saw exactly as many records as the trace holds.
        assert_eq!(
            snap.counter_total("ilan_sched_ptt_records"),
            p.entries().len() as u64
        );
    }

    #[test]
    fn entries_for_filters_by_site() {
        let mut p = RecordingPolicy::new(BaselinePolicy);
        for s in [0u64, 1, 0, 2, 0] {
            let site = SiteId::new(s);
            let d = p.decide(site);
            p.record(site, &d, &TaskloopReport::synthetic(1.0, 1));
        }
        assert_eq!(p.entries_for(SiteId::new(0)).count(), 3);
        assert_eq!(p.entries_for(SiteId::new(2)).count(), 1);
        assert_eq!(p.into_inner().name(), "baseline");
    }
}
