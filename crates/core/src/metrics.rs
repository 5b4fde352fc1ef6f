//! Scheduler-side instruments: Algorithm-1 lifecycle gauges, PTT traffic
//! counters and per-site decision histograms.
//!
//! A [`SchedulerMetrics`] is a cheap-clone handle over an `ilan-metrics`
//! [`Registry`]. Attach one to an [`IlanScheduler`](crate::IlanScheduler)
//! with [`attach_metrics`](crate::IlanScheduler::attach_metrics) and (for
//! the per-site decision history) to a
//! [`RecordingPolicy`](crate::RecordingPolicy) with
//! [`with_metrics`](crate::RecordingPolicy::with_metrics). The split keeps
//! the accounting single-sourced:
//!
//! * the **scheduler** owns the lifecycle view — how many sites sit in each
//!   [`SearchPhase`](crate::SearchPhase), settled-decision hit/miss traffic,
//!   PTT record counts and warm-started sites;
//! * the **recording wrapper** owns the per-invocation view — thread-count
//!   and invocation-time histograms per site, emitted at the same point the
//!   [`TraceEntry`](crate::trace::TraceEntry) is pushed, so the trace
//!   (`moldability_trace`, `thread_trajectory`) and the exposition can never
//!   disagree.
//!
//! Metric families (all prefixed `ilan_sched_`):
//!
//! | family | kind | meaning |
//! |---|---|---|
//! | `sites` | gauge (`phase`) | sites currently in each lifecycle phase |
//! | `decide` | counter (`outcome`=`hit`/`miss`) | decisions served settled vs still exploring |
//! | `ptt_records` | counter | invocation reports folded into the PTT |
//! | `warm_started_sites` | counter | sites seeded Settled from a saved PTT |
//! | `decision_threads` | histogram (`site`) | decided thread counts per site |
//! | `invocation_ns` | histogram (`site`) | measured invocation times per site |

use crate::site::SiteId;
use ilan_metrics::{Counter, Gauge, Registry};

/// Instruments for one scheduler (see module docs). Clones alias the same
/// underlying series.
#[derive(Clone)]
pub struct SchedulerMetrics {
    registry: Registry,
    sites_searching: Gauge,
    sites_steal_trial: Gauge,
    sites_settled: Gauge,
    decide_hit: Counter,
    decide_miss: Counter,
    ptt_records: Counter,
    warm_started_sites: Counter,
}

impl SchedulerMetrics {
    /// Instruments registered into a fresh registry.
    pub fn new() -> Self {
        Self::with_registry(Registry::new())
    }

    /// Instruments registered into `registry` — share one registry across
    /// layers (e.g. with a server's) to render a single exposition.
    pub fn with_registry(registry: Registry) -> Self {
        let phase = |phase: &str| {
            registry.gauge_with(
                "ilan_sched_sites",
                "Taskloop sites currently in each lifecycle phase",
                &[("phase", phase)],
            )
        };
        let decide = |outcome: &str| {
            registry.counter_with(
                "ilan_sched_decide",
                "Decisions by settled-configuration outcome",
                &[("outcome", outcome)],
            )
        };
        SchedulerMetrics {
            sites_searching: phase("searching"),
            sites_steal_trial: phase("steal_trial"),
            sites_settled: phase("settled"),
            decide_hit: decide("hit"),
            decide_miss: decide("miss"),
            ptt_records: registry.counter(
                "ilan_sched_ptt_records",
                "Invocation reports recorded into the Performance Trace Table",
            ),
            warm_started_sites: registry.counter(
                "ilan_sched_warm_started_sites",
                "Sites seeded Settled from a previously saved PTT",
            ),
            registry,
        }
    }

    /// The underlying registry: snapshot it, delta it, render it.
    pub fn registry(&self) -> &Registry {
        &self.registry
    }

    /// The current OpenMetrics exposition.
    pub fn render(&self) -> String {
        self.registry.render()
    }

    /// One `decide` call: `hit` when the site was already Settled (the
    /// decision came straight from the frozen configuration).
    pub fn note_decide(&self, hit: bool) {
        if hit {
            self.decide_hit.inc();
        } else {
            self.decide_miss.inc();
        }
    }

    /// One invocation report folded into the PTT.
    pub fn note_ptt_record(&self) {
        self.ptt_records.inc();
    }

    /// `n` sites seeded Settled from a saved PTT.
    pub fn note_warm_sites(&self, n: usize) {
        self.warm_started_sites.add(n as u64);
    }

    /// Refreshes the lifecycle gauges from a full phase census.
    pub fn set_phase_counts(&self, searching: usize, steal_trial: usize, settled: usize) {
        self.sites_searching.set(searching as i64);
        self.sites_steal_trial.set(steal_trial as i64);
        self.sites_settled.set(settled as i64);
    }

    /// One decided-and-measured invocation for `site`: feeds the per-site
    /// decision histograms. Called by
    /// [`RecordingPolicy`](crate::RecordingPolicy) at the trace-entry push
    /// point (single-sourced with the trace — see module docs).
    pub fn note_invocation(&self, site: SiteId, threads: usize, time_ns: f64) {
        let label = site.to_string();
        let labels: &[(&str, &str)] = &[("site", label.as_str())];
        self.registry
            .histogram_with(
                "ilan_sched_decision_threads",
                "Decided thread counts per taskloop site",
                labels,
            )
            .record(threads as u64);
        self.registry
            .histogram_with(
                "ilan_sched_invocation_ns",
                "Measured invocation times per taskloop site, ns",
                labels,
            )
            .record(time_ns.max(0.0) as u64);
    }
}

impl Default for SchedulerMetrics {
    fn default() -> Self {
        Self::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ilan_metrics::SampleValue;

    #[test]
    fn phase_census_and_decide_outcomes_render() {
        let m = SchedulerMetrics::new();
        m.set_phase_counts(2, 1, 3);
        m.note_decide(true);
        m.note_decide(false);
        m.note_decide(false);
        m.note_ptt_record();
        m.note_warm_sites(3);
        let snap = m.registry().snapshot();
        assert_eq!(
            snap.get_with("ilan_sched_sites", &[("phase", "settled")]),
            Some(&SampleValue::Gauge(3))
        );
        assert_eq!(
            snap.get_with("ilan_sched_decide", &[("outcome", "hit")]),
            Some(&SampleValue::Counter(1))
        );
        assert_eq!(
            snap.get_with("ilan_sched_decide", &[("outcome", "miss")]),
            Some(&SampleValue::Counter(2))
        );
        assert_eq!(snap.counter_total("ilan_sched_warm_started_sites"), 3);
        let text = m.render();
        assert!(text.contains("ilan_sched_sites"));
        assert!(text.ends_with("# EOF\n"));
    }

    #[test]
    fn per_site_histograms_key_by_site_label() {
        let m = SchedulerMetrics::new();
        m.note_invocation(SiteId::new(7), 32, 1_000_000.0);
        m.note_invocation(SiteId::new(7), 16, 2_000_000.0);
        m.note_invocation(SiteId::new(8), 64, 500_000.0);
        let snap = m.registry().snapshot();
        let hist =
            |site: &str| match snap.get_with("ilan_sched_decision_threads", &[("site", site)]) {
                Some(SampleValue::Histogram(h)) => h.clone(),
                other => panic!("expected histogram for {site}, got {other:?}"),
            };
        assert_eq!(hist("site7").count, 2);
        assert_eq!(hist("site8").count, 1);
        assert_eq!(hist("site8").sum, 64);
    }
}
