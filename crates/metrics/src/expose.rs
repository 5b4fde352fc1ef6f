//! Deterministic OpenMetrics/Prometheus text exposition.
//!
//! The renderer walks the snapshot's `BTreeMap`s, so identical snapshot
//! state produces byte-identical text — the property the exposition
//! proptest and the server's `metrics_text()` determinism test pin.
//! Conventions follow the OpenMetrics text format: counters gain the
//! `_total` suffix, histograms emit cumulative `_bucket{le="..."}` series
//! (sparse: only boundaries with observations, plus `+Inf`), `_sum`,
//! `_count`, and the output ends with `# EOF`.

use crate::histogram::{bucket_bounds, HistSnapshot};
use crate::registry::{MetricKind, MetricsSnapshot, SampleValue, SeriesKey};
use std::fmt::Write as _;

fn label_block(labels: &[(String, String)], extra: Option<(&str, String)>) -> String {
    let mut parts: Vec<String> = labels
        .iter()
        .map(|(k, v)| format!("{k}=\"{}\"", escape(v)))
        .collect();
    if let Some((k, v)) = extra {
        parts.push(format!("{k}=\"{v}\""));
    }
    if parts.is_empty() {
        String::new()
    } else {
        format!("{{{}}}", parts.join(","))
    }
}

fn escape(v: &str) -> String {
    v.replace('\\', "\\\\")
        .replace('"', "\\\"")
        .replace('\n', "\\n")
}

fn render_histogram(out: &mut String, key: &SeriesKey, h: &HistSnapshot) {
    let mut cum = 0u64;
    for &(i, n) in &h.buckets {
        cum += n;
        let le = bucket_bounds(i as usize).1;
        let lb = label_block(&key.labels, Some(("le", le.to_string())));
        writeln!(out, "{}_bucket{} {}", key.name, lb, cum).unwrap();
    }
    let lb = label_block(&key.labels, Some(("le", "+Inf".to_string())));
    writeln!(out, "{}_bucket{} {}", key.name, lb, h.count).unwrap();
    let plain = label_block(&key.labels, None);
    writeln!(out, "{}_sum{} {}", key.name, plain, h.sum).unwrap();
    writeln!(out, "{}_count{} {}", key.name, plain, h.count).unwrap();
}

/// Renders `snap` as OpenMetrics text. Pure and deterministic.
pub fn render_openmetrics(snap: &MetricsSnapshot) -> String {
    let mut out = String::new();
    let mut current_family: Option<&str> = None;
    for (key, value) in &snap.series {
        if current_family != Some(key.name.as_str()) {
            current_family = Some(key.name.as_str());
            if let Some(meta) = snap.families.get(&key.name) {
                let kind = match meta.kind {
                    MetricKind::Counter => "counter",
                    MetricKind::Gauge => "gauge",
                    MetricKind::Histogram => "histogram",
                };
                writeln!(out, "# HELP {} {}", key.name, escape(&meta.help)).unwrap();
                writeln!(out, "# TYPE {} {}", key.name, kind).unwrap();
            }
        }
        match value {
            SampleValue::Counter(n) => {
                let lb = label_block(&key.labels, None);
                writeln!(out, "{}_total{} {}", key.name, lb, n).unwrap();
            }
            SampleValue::Gauge(v) => {
                let lb = label_block(&key.labels, None);
                writeln!(out, "{}{} {}", key.name, lb, v).unwrap();
            }
            SampleValue::Histogram(h) => render_histogram(&mut out, key, h),
        }
    }
    out.push_str("# EOF\n");
    out
}

#[cfg(test)]
mod tests {
    use crate::registry::Registry;

    #[test]
    fn exposition_shape_and_determinism() {
        let build = || {
            let reg = Registry::new();
            reg.counter_with("ilan_steals", "Steal acquisitions", &[("scope", "local")])
                .add(4);
            reg.counter_with("ilan_steals", "Steal acquisitions", &[("scope", "remote")])
                .inc();
            reg.gauge("ilan_active_tenants", "Active tenants").set(2);
            let h = reg.histogram("ilan_dispatch_ns", "Dispatch latency");
            h.record(100);
            h.record(100);
            h.record(5000);
            reg.render()
        };
        let a = build();
        let b = build();
        assert_eq!(a, b, "same construction must render byte-identical text");
        assert!(a.contains("# TYPE ilan_steals counter"));
        assert!(a.contains("ilan_steals_total{scope=\"local\"} 4"));
        assert!(a.contains("ilan_steals_total{scope=\"remote\"} 1"));
        assert!(a.contains("# TYPE ilan_active_tenants gauge"));
        assert!(a.contains("ilan_active_tenants 2"));
        assert!(a.contains("# TYPE ilan_dispatch_ns histogram"));
        assert!(a.contains("ilan_dispatch_ns_bucket{le=\"+Inf\"} 3"));
        assert!(a.contains("ilan_dispatch_ns_sum 5200"));
        assert!(a.contains("ilan_dispatch_ns_count 3"));
        assert!(a.ends_with("# EOF\n"));
    }

    #[test]
    fn empty_registry_renders_eof_only() {
        assert_eq!(Registry::new().render(), "# EOF\n");
    }

    #[test]
    fn label_values_are_escaped() {
        let reg = Registry::new();
        reg.counter_with("c", "h", &[("k", "a\"b\\c")]).inc();
        let text = reg.render();
        assert!(text.contains("c_total{k=\"a\\\"b\\\\c\"} 1"));
    }
}
