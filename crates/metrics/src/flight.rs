//! The flight recorder: retrospective anomaly dumps.
//!
//! The native pool keeps its per-worker trace rings filled even when the
//! caller did not ask for tracing (ring writes are cheap; *collection* is
//! not). When an invocation ends anomalously — the watchdog degraded, the
//! chaos layer injected a fault, or the invocation breached the latency
//! histogram's tail ([`TailTracker`]) — the dispatcher collects the
//! complete event log of that invocation and parks it here as a
//! [`FlightDump`]: a Chrome trace, the merged event log (auditable by
//! `ilan_trace::audit`), and an OpenMetrics snapshot of the registry at
//! capture time. Post-mortems read the dump; nobody re-runs with tracing
//! enabled.
//!
//! The recorder keeps the **first** dump (the original anomaly, before
//! any cascade) and counts later triggers; [`FlightRecorder::take`]
//! re-arms it.

use crate::histogram::Histogram;
use ilan_trace::EventLog;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Mutex;

/// Why a dump was captured.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum FlightReason {
    /// The taskloop watchdog degraded (stage 1 = broadcast re-post,
    /// stage 2 = dispatcher claim-and-drain).
    Degraded {
        /// Highest degradation stage reached this invocation.
        stage: u8,
    },
    /// The fault-injection layer fired during the invocation.
    FaultInjected {
        /// Faults injected this invocation.
        count: u64,
    },
    /// The invocation's latency breached the histogram tail threshold.
    TailBreach {
        /// Observed invocation latency, ns.
        observed_ns: u64,
        /// The threshold (tail factor × running median), ns.
        threshold_ns: u64,
    },
}

impl std::fmt::Display for FlightReason {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            FlightReason::Degraded { stage } => write!(f, "watchdog-degraded stage={stage}"),
            FlightReason::FaultInjected { count } => write!(f, "fault-injected count={count}"),
            FlightReason::TailBreach {
                observed_ns,
                threshold_ns,
            } => write!(
                f,
                "tail-breach observed={observed_ns}ns threshold={threshold_ns}ns"
            ),
        }
    }
}

/// One captured anomaly: the invocation's complete trace plus the metrics
/// state at capture time.
#[derive(Clone, Debug)]
pub struct FlightDump {
    /// What fired.
    pub reason: FlightReason,
    /// The invocation's merged event log (passes `ilan_trace::audit` —
    /// the rings held the *complete* invocation, not a truncated tail).
    pub log: EventLog,
    /// `log` rendered as a Chrome `chrome://tracing` / Perfetto JSON trace.
    pub chrome_json: String,
    /// OpenMetrics snapshot of the owning registry at capture time.
    pub metrics_text: String,
}

/// Holds at most one [`FlightDump`], first-anomaly-wins.
#[derive(Debug, Default)]
pub struct FlightRecorder {
    slot: Mutex<Option<FlightDump>>,
    armed: AtomicBool,
    triggers: AtomicU64,
}

impl FlightRecorder {
    /// A fresh, armed recorder.
    pub fn new() -> Self {
        FlightRecorder {
            slot: Mutex::new(None),
            armed: AtomicBool::new(true),
            triggers: AtomicU64::new(0),
        }
    }

    /// Whether a capture would be stored (armed and no dump parked yet).
    ///
    /// The pool checks this before paying for log collection.
    pub fn wants_capture(&self) -> bool {
        self.armed.load(Ordering::Relaxed) && !self.has_dump()
    }

    /// Arms or disarms the recorder (disarmed recorders still count
    /// triggers).
    pub fn set_armed(&self, armed: bool) {
        self.armed.store(armed, Ordering::Relaxed);
    }

    /// Records an anomaly. The first capture while armed parks the dump
    /// (rendering the Chrome trace from `log`); later triggers only count.
    pub fn capture(&self, reason: FlightReason, log: EventLog, metrics_text: String) {
        self.triggers.fetch_add(1, Ordering::Relaxed);
        if !self.armed.load(Ordering::Relaxed) {
            return;
        }
        let mut slot = self.slot.lock().expect("flight recorder poisoned");
        if slot.is_none() {
            let chrome_json = log.chrome_trace_json();
            *slot = Some(FlightDump {
                reason,
                log,
                chrome_json,
                metrics_text,
            });
        }
    }

    /// Counts an anomaly for which no log was available (e.g. the inline
    /// fast path, which runs without rings).
    pub fn note_trigger(&self) {
        self.triggers.fetch_add(1, Ordering::Relaxed);
    }

    /// Total anomalies seen, captured or not.
    pub fn triggers(&self) -> u64 {
        self.triggers.load(Ordering::Relaxed)
    }

    /// Whether a dump is parked.
    pub fn has_dump(&self) -> bool {
        self.slot
            .lock()
            .expect("flight recorder poisoned")
            .is_some()
    }

    /// Takes the parked dump, re-arming the recorder for the next anomaly.
    pub fn take(&self) -> Option<FlightDump> {
        self.slot.lock().expect("flight recorder poisoned").take()
    }
}

/// Amortized tail-breach detection over a latency histogram.
///
/// Tracks a running threshold of `factor × median`, recomputed every
/// `RECOMPUTE_PERIOD` (64) observations (an allocation-free sweep of the live
/// buckets), so the per-invocation cost is one comparison plus the
/// histogram record. No breach fires before `min_samples` observations —
/// a cold median is noise.
#[derive(Debug)]
pub struct TailTracker {
    hist: Histogram,
    factor: u64,
    min_samples: u64,
    threshold: AtomicU64,
}

/// Observations between threshold recomputations.
pub const RECOMPUTE_PERIOD: u64 = 64;

impl TailTracker {
    /// Tracks `hist` with a threshold of `factor × median` after
    /// `min_samples` observations.
    pub fn new(hist: Histogram, factor: u64, min_samples: u64) -> Self {
        TailTracker {
            hist,
            factor: factor.max(1),
            min_samples: min_samples.max(1),
            threshold: AtomicU64::new(0),
        }
    }

    /// The current threshold (0 until established).
    pub fn threshold_ns(&self) -> u64 {
        self.threshold.load(Ordering::Relaxed)
    }

    /// Records `v` and reports `Some(threshold)` when `v` breaches the
    /// established tail threshold.
    pub fn observe(&self, v: u64) -> Option<u64> {
        // Check against the threshold *before* folding the sample in, so a
        // pathological observation cannot raise the bar it is judged by.
        let threshold = self.threshold.load(Ordering::Relaxed);
        let breached = threshold > 0 && v > threshold;
        self.hist.record(v);
        let count = self.hist.count();
        if count >= self.min_samples && (threshold == 0 || count.is_multiple_of(RECOMPUTE_PERIOD)) {
            let median = self.hist.live_quantile(0.5);
            self.threshold
                .store(median.saturating_mul(self.factor), Ordering::Relaxed);
        }
        breached.then_some(threshold)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ilan_trace::{Event, EventKind, EventLog};

    fn tiny_log() -> EventLog {
        let events = vec![
            Event {
                time_ns: 0,
                worker: ilan_trace::DISPATCHER,
                node: 0,
                seq: 0,
                kind: EventKind::ChunkEnqueue {
                    chunk: 0,
                    home: 0,
                    strict: false,
                },
            },
            Event {
                time_ns: 5,
                worker: 0,
                node: 0,
                seq: 0,
                kind: EventKind::LocalPop { chunk: 0 },
            },
        ];
        EventLog::from_events(events, 1, 1, 0)
    }

    #[test]
    fn first_capture_wins_and_later_triggers_count() {
        let fr = FlightRecorder::new();
        assert!(fr.wants_capture());
        fr.capture(
            FlightReason::Degraded { stage: 2 },
            tiny_log(),
            "# EOF\n".into(),
        );
        fr.capture(
            FlightReason::FaultInjected { count: 1 },
            tiny_log(),
            "# EOF\n".into(),
        );
        assert_eq!(fr.triggers(), 2);
        assert!(!fr.wants_capture());
        let dump = fr.take().expect("dump parked");
        assert_eq!(dump.reason, FlightReason::Degraded { stage: 2 });
        assert!(dump.chrome_json.contains("traceEvents"));
        assert!(fr.wants_capture(), "take re-arms");
    }

    #[test]
    fn disarmed_recorder_only_counts() {
        let fr = FlightRecorder::new();
        fr.set_armed(false);
        fr.capture(
            FlightReason::FaultInjected { count: 3 },
            tiny_log(),
            String::new(),
        );
        assert_eq!(fr.triggers(), 1);
        assert!(!fr.has_dump());
    }

    #[test]
    fn tail_tracker_fires_only_after_warmup() {
        let hist = Histogram::new();
        let t = TailTracker::new(hist, 8, 32);
        // Warmup: steady 1000ns invocations. No threshold yet, no breach.
        for _ in 0..31 {
            assert_eq!(t.observe(1_000), None);
        }
        assert_eq!(t.threshold_ns(), 0);
        assert_eq!(t.observe(1_000), None); // 32nd sample establishes it
        let thr = t.threshold_ns();
        assert!(thr >= 8 * 1_000, "threshold {thr} from median ~1000");
        // A 100x outlier breaches; a nominal sample does not.
        assert_eq!(t.observe(100_000), Some(thr));
        assert_eq!(t.observe(1_000), None);
    }

    #[test]
    fn reason_display_is_stable() {
        assert_eq!(
            FlightReason::TailBreach {
                observed_ns: 9,
                threshold_ns: 4
            }
            .to_string(),
            "tail-breach observed=9ns threshold=4ns"
        );
        assert_eq!(
            FlightReason::Degraded { stage: 1 }.to_string(),
            "watchdog-degraded stage=1"
        );
    }
}
