//! The metric registry: names, labels, snapshots, deltas.
//!
//! A [`Registry`] is a cheaply cloneable handle to a shared name space.
//! Layers register their instruments once at construction time (the pool
//! when it is built, the server per run) and keep the returned handles;
//! registration takes a lock, but recording through a handle never does.
//! Registering an existing name returns the *same* underlying instrument,
//! so independent components can share a series deliberately.
//!
//! [`Registry::snapshot`] freezes every series into a [`MetricsSnapshot`];
//! [`MetricsSnapshot::delta`] subtracts an earlier snapshot to isolate one
//! window of activity (one invocation, one job, one bench rep). Both are
//! `BTreeMap`-ordered, which is what makes the exposition byte-identical
//! for identical state.

use crate::counter::{Counter, Gauge, ShardedCounter};
use crate::expose::render_openmetrics;
use crate::histogram::{HistSnapshot, Histogram};
use std::collections::BTreeMap;
use std::sync::{Arc, Mutex};

/// The kind of a metric family.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord)]
pub enum MetricKind {
    /// Monotonic counter (rendered with the OpenMetrics `_total` suffix).
    Counter,
    /// Instantaneous signed value.
    Gauge,
    /// Log-linear distribution.
    Histogram,
}

/// Identifies one series: family name plus its (possibly empty) label set.
///
/// Labels are sorted at construction so equal label sets compare equal
/// regardless of the order the caller wrote them in.
#[derive(Clone, Debug, PartialEq, Eq, PartialOrd, Ord)]
pub struct SeriesKey {
    /// Metric family name (`snake_case`, no suffix).
    pub name: String,
    /// Sorted `(label, value)` pairs.
    pub labels: Vec<(String, String)>,
}

impl SeriesKey {
    /// A key for `name` with the given labels (sorted internally).
    pub fn new(name: &str, labels: &[(&str, &str)]) -> Self {
        let mut labels: Vec<(String, String)> = labels
            .iter()
            .map(|&(k, v)| (k.to_string(), v.to_string()))
            .collect();
        labels.sort();
        SeriesKey {
            name: name.to_string(),
            labels,
        }
    }
}

/// Family-level metadata carried into snapshots for rendering.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct FamilyMeta {
    /// One-line help string.
    pub help: String,
    /// The family's kind.
    pub kind: MetricKind,
}

enum Instrument {
    Counter(Counter),
    Sharded(ShardedCounter),
    Gauge(Gauge),
    Histogram(Histogram),
}

impl Instrument {
    fn kind(&self) -> MetricKind {
        match self {
            Instrument::Counter(_) | Instrument::Sharded(_) => MetricKind::Counter,
            Instrument::Gauge(_) => MetricKind::Gauge,
            Instrument::Histogram(_) => MetricKind::Histogram,
        }
    }
}

#[derive(Default)]
struct Inner {
    families: BTreeMap<String, FamilyMeta>,
    series: BTreeMap<SeriesKey, Instrument>,
}

/// The shared metric name space. Clones alias the same registry.
#[derive(Clone, Default)]
pub struct Registry {
    inner: Arc<Mutex<Inner>>,
}

impl Registry {
    /// A fresh, empty registry.
    pub fn new() -> Self {
        Self::default()
    }

    fn register<T: Clone>(
        &self,
        key: SeriesKey,
        help: &str,
        make: impl FnOnce() -> Instrument,
        unwrap: impl FnOnce(&Instrument) -> Option<T>,
    ) -> T {
        let mut inner = self.inner.lock().expect("metrics registry poisoned");
        inner
            .families
            .entry(key.name.clone())
            .or_insert_with(|| FamilyMeta {
                help: help.to_string(),
                kind: MetricKind::Counter, // fixed up below from the instrument
            });
        let slot = inner.series.entry(key.clone()).or_insert_with(make);
        let kind = slot.kind();
        let got = unwrap(slot)
            .unwrap_or_else(|| panic!("metric {:?} re-registered with a different kind", key.name));
        inner
            .families
            .get_mut(&key.name)
            .expect("family just inserted")
            .kind = kind;
        got
    }

    /// Registers (or retrieves) an unlabelled counter.
    pub fn counter(&self, name: &str, help: &str) -> Counter {
        self.counter_with(name, help, &[])
    }

    /// Registers (or retrieves) a labelled counter series.
    pub fn counter_with(&self, name: &str, help: &str, labels: &[(&str, &str)]) -> Counter {
        self.register(
            SeriesKey::new(name, labels),
            help,
            || Instrument::Counter(Counter::new()),
            |i| match i {
                Instrument::Counter(c) => Some(c.clone()),
                _ => None,
            },
        )
    }

    /// Registers (or retrieves) a sharded counter with `shards` shards.
    ///
    /// Snapshots expose the *sum*; sharding is purely a contention measure.
    pub fn sharded_counter(&self, name: &str, help: &str, shards: usize) -> ShardedCounter {
        self.sharded_counter_with(name, help, &[], shards)
    }

    /// Registers (or retrieves) a labelled sharded counter series.
    pub fn sharded_counter_with(
        &self,
        name: &str,
        help: &str,
        labels: &[(&str, &str)],
        shards: usize,
    ) -> ShardedCounter {
        self.register(
            SeriesKey::new(name, labels),
            help,
            || Instrument::Sharded(ShardedCounter::new(shards)),
            |i| match i {
                Instrument::Sharded(c) => Some(c.clone()),
                _ => None,
            },
        )
    }

    /// Registers (or retrieves) an unlabelled gauge.
    pub fn gauge(&self, name: &str, help: &str) -> Gauge {
        self.gauge_with(name, help, &[])
    }

    /// Registers (or retrieves) a labelled gauge series.
    pub fn gauge_with(&self, name: &str, help: &str, labels: &[(&str, &str)]) -> Gauge {
        self.register(
            SeriesKey::new(name, labels),
            help,
            || Instrument::Gauge(Gauge::new()),
            |i| match i {
                Instrument::Gauge(g) => Some(g.clone()),
                _ => None,
            },
        )
    }

    /// Registers (or retrieves) an unlabelled histogram.
    pub fn histogram(&self, name: &str, help: &str) -> Histogram {
        self.histogram_with(name, help, &[])
    }

    /// Registers (or retrieves) a labelled histogram series.
    pub fn histogram_with(&self, name: &str, help: &str, labels: &[(&str, &str)]) -> Histogram {
        self.register(
            SeriesKey::new(name, labels),
            help,
            || Instrument::Histogram(Histogram::new()),
            |i| match i {
                Instrument::Histogram(h) => Some(h.clone()),
                _ => None,
            },
        )
    }

    /// Freezes every series into a point-in-time snapshot.
    pub fn snapshot(&self) -> MetricsSnapshot {
        let inner = self.inner.lock().expect("metrics registry poisoned");
        MetricsSnapshot {
            families: inner.families.clone(),
            series: inner
                .series
                .iter()
                .map(|(k, v)| {
                    let sample = match v {
                        Instrument::Counter(c) => SampleValue::Counter(c.get()),
                        Instrument::Sharded(c) => SampleValue::Counter(c.sum()),
                        Instrument::Gauge(g) => SampleValue::Gauge(g.get()),
                        Instrument::Histogram(h) => SampleValue::Histogram(h.snapshot()),
                    };
                    (k.clone(), sample)
                })
                .collect(),
        }
    }

    /// Renders the current state as OpenMetrics text
    /// (`snapshot().render()` in one call).
    pub fn render(&self) -> String {
        self.snapshot().render()
    }
}

/// One sampled value in a snapshot.
#[derive(Clone, Debug, PartialEq)]
pub enum SampleValue {
    /// A counter's cumulative value.
    Counter(u64),
    /// A gauge's instantaneous value.
    Gauge(i64),
    /// A histogram's distribution.
    Histogram(HistSnapshot),
}

/// A point-in-time copy of a registry's series.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct MetricsSnapshot {
    /// Family metadata, keyed by family name.
    pub families: BTreeMap<String, FamilyMeta>,
    /// Sampled series in deterministic key order.
    pub series: BTreeMap<SeriesKey, SampleValue>,
}

impl MetricsSnapshot {
    /// The activity between `earlier` and `self`: counters and histograms
    /// subtract (saturating); gauges keep their current value. Series
    /// absent from `earlier` pass through unchanged.
    pub fn delta(&self, earlier: &MetricsSnapshot) -> MetricsSnapshot {
        let series = self
            .series
            .iter()
            .map(|(k, v)| {
                let d = match (v, earlier.series.get(k)) {
                    (SampleValue::Counter(now), Some(SampleValue::Counter(then))) => {
                        SampleValue::Counter(now.saturating_sub(*then))
                    }
                    (SampleValue::Histogram(now), Some(SampleValue::Histogram(then))) => {
                        SampleValue::Histogram(now.delta(then))
                    }
                    _ => v.clone(),
                };
                (k.clone(), d)
            })
            .collect();
        MetricsSnapshot {
            families: self.families.clone(),
            series,
        }
    }

    /// The sampled value for an unlabelled series, if present.
    pub fn get(&self, name: &str) -> Option<&SampleValue> {
        self.get_with(name, &[])
    }

    /// The sampled value for a labelled series, if present.
    pub fn get_with(&self, name: &str, labels: &[(&str, &str)]) -> Option<&SampleValue> {
        self.series.get(&SeriesKey::new(name, labels))
    }

    /// A counter's value (0 when absent). Sums all label sets of `name`.
    pub fn counter_total(&self, name: &str) -> u64 {
        self.series
            .iter()
            .filter(|(k, _)| k.name == name)
            .map(|(_, v)| match v {
                SampleValue::Counter(n) => *n,
                _ => 0,
            })
            .sum()
    }

    /// A histogram snapshot by unlabelled name, if present.
    pub fn histogram(&self, name: &str) -> Option<&HistSnapshot> {
        match self.get(name) {
            Some(SampleValue::Histogram(h)) => Some(h),
            _ => None,
        }
    }

    /// Renders the snapshot as deterministic OpenMetrics text.
    pub fn render(&self) -> String {
        render_openmetrics(self)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn registration_is_idempotent_and_shared() {
        let reg = Registry::new();
        let a = reg.counter("ilan_test", "help");
        let b = reg.counter("ilan_test", "ignored on re-register");
        a.inc();
        b.inc();
        assert_eq!(a.get(), 2);
    }

    #[test]
    #[should_panic(expected = "different kind")]
    fn kind_conflicts_panic() {
        let reg = Registry::new();
        reg.counter("ilan_test", "help");
        reg.gauge("ilan_test", "help");
    }

    #[test]
    fn labels_are_order_insensitive() {
        let reg = Registry::new();
        let a = reg.counter_with("c", "h", &[("x", "1"), ("y", "2")]);
        let b = reg.counter_with("c", "h", &[("y", "2"), ("x", "1")]);
        a.inc();
        assert_eq!(b.get(), 1);
    }

    #[test]
    fn snapshot_delta_isolates_a_window() {
        let reg = Registry::new();
        let c = reg.counter("ilan_jobs", "jobs");
        let g = reg.gauge("ilan_active", "active");
        let h = reg.histogram("ilan_lat_ns", "latency");
        c.add(5);
        h.record(100);
        g.set(3);
        let before = reg.snapshot();
        c.add(2);
        h.record(200);
        g.set(7);
        let delta = reg.snapshot().delta(&before);
        assert_eq!(delta.get("ilan_jobs"), Some(&SampleValue::Counter(2)));
        assert_eq!(delta.get("ilan_active"), Some(&SampleValue::Gauge(7)));
        match delta.get("ilan_lat_ns") {
            Some(SampleValue::Histogram(h)) => {
                assert_eq!(h.count, 1);
                assert_eq!(h.sum, 200);
            }
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn sharded_counters_snapshot_as_sums() {
        let reg = Registry::new();
        let s = reg.sharded_counter("ilan_steals", "steals", 4);
        s.add(0, 3);
        s.add(3, 4);
        let snap = reg.snapshot();
        assert_eq!(snap.counter_total("ilan_steals"), 7);
    }
}
