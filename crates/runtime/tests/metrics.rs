//! Pool metrics and flight-recorder integration tests, including the
//! native half of the metrics-vs-trace differential check (ISSUE 5
//! satellite): counters from `ilan-metrics` must agree with the steal
//! matrix of an `ilan-trace` log taken over the same run.

use ilan_faults::{FaultConfig, FaultPlan};
use ilan_metrics::{FlightReason, SampleValue};
use ilan_runtime::{ExecMode, LoopReport, PinMode, PoolConfig, StealPolicy, ThreadPool};
use ilan_topology::{presets, Topology};
use std::time::Duration;

fn pool(topo: Topology) -> ThreadPool {
    ThreadPool::new(PoolConfig::new(topo).pin(PinMode::Never)).unwrap()
}

fn expect_from(report: &LoopReport) -> ilan_trace::AuditExpect {
    ilan_trace::AuditExpect {
        migrations: Some(report.migrations),
        latch_releases: Some(report.threads),
        per_node: Some(
            report
                .nodes
                .iter()
                .map(|n| ilan_trace::NodeTally {
                    tasks: n.tasks,
                    local_tasks: Some(n.local_tasks),
                })
                .collect(),
        ),
    }
}

fn counter_of(snap: &ilan_metrics::MetricsSnapshot, name: &str, labels: &[(&str, &str)]) -> u64 {
    match snap.get_with(name, labels) {
        Some(SampleValue::Counter(v)) => *v,
        other => panic!("{name}{labels:?}: expected a counter, got {other:?}"),
    }
}

#[test]
fn counters_track_dispatch_and_inline_paths() {
    let p = pool(presets::tiny_2x4());
    let m = p.metrics().expect("metrics on by default");

    // A dispatched loop (large enough to clear the inline threshold).
    let report = p.taskloop(0..40_000, 64, ExecMode::Flat, |r| {
        std::hint::black_box(r.sum::<usize>());
    });
    // And an inline one (single chunk).
    p.taskloop(0..8, 64, ExecMode::Flat, |r| {
        std::hint::black_box(r.sum::<usize>());
    });

    let snap = m.registry().snapshot();
    assert_eq!(
        counter_of(&snap, "ilan_pool_loops", &[("path", "dispatched")]),
        1
    );
    assert_eq!(
        counter_of(&snap, "ilan_pool_loops", &[("path", "inline")]),
        1
    );
    // Every executed chunk was acquired exactly one way.
    assert_eq!(
        snap.counter_total("ilan_pool_acquisitions") as usize,
        report.tasks_executed()
    );
    assert_eq!(m.dispatch_ns().count(), 1);
    assert_eq!(m.loop_ns().count(), 1);
    // Exposition renders the families and is well-formed.
    let text = p.metrics_text();
    for family in [
        "ilan_pool_loops_total",
        "ilan_pool_dispatch_ns_bucket",
        "ilan_pool_acquisitions_total",
        "ilan_pool_wakeups_total",
    ] {
        assert!(text.contains(family), "missing {family} in:\n{text}");
    }
    assert!(text.ends_with("# EOF\n"));
}

/// Asserts that one traced invocation's acquisition counters (`delta`)
/// equal both the log's pop/steal tallies and the report's task, locality
/// and migration counts.
fn assert_acquisitions_agree(
    what: &str,
    delta: &ilan_metrics::MetricsSnapshot,
    report: &LoopReport,
    log: &ilan_trace::EventLog,
) {
    let acq = |kind: &str| counter_of(delta, "ilan_pool_acquisitions", &[("kind", kind)]) as usize;
    let (pops, steals) = (acq("local_pop"), acq("inter_steal"));
    assert_eq!(pops, log.local_pops(), "{what}: local pops vs log");
    assert_eq!(steals, log.inter_node_steals(), "{what}: steals vs log");
    // A node's workers share its cursor: a same-node claim is a local pop,
    // so the pool records no intra-node steal.
    assert_eq!(log.intra_node_steals(), 0, "{what}");
    let local: usize = report.nodes.iter().map(|n| n.local_tasks).sum();
    assert_eq!(pops + steals, report.tasks_executed(), "{what}: tasks");
    assert_eq!(pops, local, "{what}: local tasks");
    assert_eq!(steals, report.migrations, "{what}: migrations");
    // Remote steal probes: hits never exceed attempts.
    let scope = [("scope", "remote")];
    let hits = counter_of(delta, "ilan_pool_steal_hits", &scope);
    let attempts = counter_of(delta, "ilan_pool_steal_attempts", &scope);
    assert!(
        hits <= attempts,
        "{what}: {hits} remote hits out of {attempts} attempts"
    );
}

/// A plan whose only fault is a permanent stall of worker `w`.
fn permanent_stall_plan(topo: &Topology, w: u32) -> FaultPlan {
    let config = FaultConfig {
        max_worker_stalls: 1,
        permanent_stalls: true,
        max_stall_ns: 1_000_000,
        ..FaultConfig::none()
    };
    (0..10_000u64)
        .map(|seed| {
            FaultPlan::new(
                seed,
                topo.num_cores() as u32,
                topo.num_nodes() as u32,
                config,
            )
        })
        .find(|p| p.stalls().len() == 1 && p.stall_of(w).is_some_and(|s| s.permanent))
        .expect("a plan permanently stalling the worker")
}

/// Differential check, native half: the acquisition counters must equal the
/// trace log's pop/steal tallies and the report over the same traced
/// invocation, in every execution mode and on an invocation the watchdog
/// drains at stage 2 (the stalled worker's static slice then runs on the
/// dispatcher, attributed to each chunk's home node).
#[test]
fn native_counters_match_trace_steal_matrix() {
    let p = pool(presets::tiny_2x4());
    let m = p.metrics().unwrap();
    let hier = |strict_fraction, policy| ExecMode::Hierarchical {
        mask: p.topology().all_nodes(),
        threads: 0,
        strict_fraction,
        policy,
    };
    let modes = [
        ExecMode::Flat,
        ExecMode::WorkSharing,
        hier(1.0, StealPolicy::Strict),
        hier(0.5, StealPolicy::Full),
    ];
    for mode in modes {
        for _ in 0..3 {
            let before = m.registry().snapshot();
            let (report, log) = p.taskloop_traced(0..20_000, 32, mode.clone(), |r| {
                std::hint::black_box(r.sum::<usize>());
            });
            let delta = m.registry().snapshot().delta(&before);
            assert_acquisitions_agree(&format!("{mode:?}"), &delta, &report, &log);
        }
    }

    let topo = presets::tiny_2x4();
    let plan = permanent_stall_plan(&topo, 2);
    let p = ThreadPool::new(
        PoolConfig::new(topo)
            .pin(PinMode::Never)
            .watchdog(Duration::from_millis(10))
            .faults(plan),
    )
    .unwrap();
    let m = p.metrics().unwrap();
    let before = m.registry().snapshot();
    let (report, log) = p.taskloop_traced(0..400, 4, ExecMode::WorkSharing, |r| {
        std::hint::black_box(r.sum::<usize>());
    });
    let delta = m.registry().snapshot().delta(&before);
    assert_eq!(
        counter_of(&delta, "ilan_pool_degraded", &[("stage", "2")]),
        1
    );
    // Worker 2's slice of the 100 chunks ran on the dispatcher ring.
    let drained = log
        .iter()
        .filter(|e| {
            e.worker == ilan_trace::DISPATCHER
                && matches!(e.kind, ilan_trace::EventKind::ChunkStart { .. })
        })
        .count();
    assert_eq!(drained, 12);
    assert_acquisitions_agree("drained", &delta, &report, &log);
    let audit = ilan_trace::audit(&log, &expect_from(&report));
    assert!(audit.ok(), "audit violations: {audit}");
}

/// An injected permanent stall degrades the run and makes the flight
/// recorder park a complete, auditable dump — without tracing enabled.
#[test]
fn stall_produces_flight_dump_passing_audit() {
    let topo = presets::tiny_2x4();
    // Find a seed that permanently stalls exactly one worker.
    let config = FaultConfig {
        max_worker_stalls: 1,
        permanent_stalls: true,
        max_stall_ns: 1_000_000,
        ..FaultConfig::none()
    };
    let plan = (0..10_000u64)
        .map(|seed| {
            FaultPlan::new(
                seed,
                topo.num_cores() as u32,
                topo.num_nodes() as u32,
                config,
            )
        })
        .find(|p| p.stalls().len() == 1 && p.stalls().values().next().unwrap().permanent)
        .expect("a permanently stalling plan");
    let p = ThreadPool::new(
        PoolConfig::new(topo)
            .pin(PinMode::Never)
            .watchdog(Duration::from_millis(10))
            .faults(plan),
    )
    .unwrap();

    let report = p.taskloop(0..500, 5, ExecMode::Flat, |r| {
        std::hint::black_box(r.sum::<usize>());
    });
    assert!(report.degraded, "a permanent stall must degrade the run");

    let dump = p.take_flight_dump().expect("anomaly must park a dump");
    assert!(
        matches!(dump.reason, FlightReason::Degraded { stage } if stage >= 1),
        "unexpected reason {:?}",
        dump.reason
    );
    // The rings held the complete invocation: the dump audits clean.
    let audit = ilan_trace::audit(&dump.log, &expect_from(&report));
    assert!(audit.ok(), "flight dump audit violations: {audit}");
    assert!(audit.claimed_workers >= 1);
    assert!(dump.chrome_json.contains("traceEvents"));
    assert!(dump.metrics_text.contains("ilan_pool_degraded_total"));

    // The degradation stage counter agrees with the dump's reason.
    let m = p.metrics().unwrap();
    let snap = m.registry().snapshot();
    let stage1 = counter_of(&snap, "ilan_pool_degraded", &[("stage", "1")]);
    let stage2 = counter_of(&snap, "ilan_pool_degraded", &[("stage", "2")]);
    assert_eq!(stage1 + stage2, 1);
    assert!(counter_of(&snap, "ilan_pool_faults_injected", &[]) >= 1);
    assert_eq!(m.flight().triggers(), 1);

    // take() re-armed the recorder: the next anomaly captures again.
    let report2 = p.taskloop(0..500, 5, ExecMode::Flat, |r| {
        std::hint::black_box(r.sum::<usize>());
    });
    assert!(report2.degraded);
    assert!(p.take_flight_dump().is_some());
}

#[test]
fn metrics_can_be_disabled() {
    let p = ThreadPool::new(
        PoolConfig::new(presets::smp(4))
            .pin(PinMode::Never)
            .metrics(false),
    )
    .unwrap();
    assert!(p.metrics().is_none());
    assert_eq!(p.metrics_text(), "# EOF\n");
    p.taskloop(0..10_000, 16, ExecMode::Flat, |r| {
        std::hint::black_box(r.sum::<usize>());
    });
    assert!(p.take_flight_dump().is_none());
}
