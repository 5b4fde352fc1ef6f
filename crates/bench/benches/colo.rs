//! Macro-benchmark of the co-scheduling service (real wall time): how fast
//! `ilan-server` serves a job stream under each sharing policy. Guards the
//! simulator's event loop with many lanes live — every event re-prices the
//! running chunks of all live lanes against one shared congestion field and
//! counts core occupancy, so per-event costs compound faster than for a
//! single application's one lane.
//!
//! Two cases: a 6-job stream on the tiny machine, and a 200-job stream on
//! the paper's 64-core EPYC. The server opens one lane per admitted job, so
//! only the long stream shows a per-event cost that grows with the number
//! of lanes ever handed out rather than with the number of live ones.

use criterion::{criterion_group, criterion_main, Criterion};
use ilan_server::{generate_stream, run_colocation, ServerConfig, SharingPolicy, StreamParams};
use ilan_topology::presets;
use std::time::Duration;

fn serve_stream(c: &mut Criterion) {
    let topo = presets::tiny_2x4();
    let stream = generate_stream(1, &StreamParams::mixed(6, 1e6));
    let mut group = c.benchmark_group("colo-serve");
    group
        .sample_size(10)
        .measurement_time(Duration::from_secs(4));
    for policy in [
        SharingPolicy::Naive,
        SharingPolicy::StaticEqual,
        SharingPolicy::InterferenceAware,
    ] {
        group.bench_function(policy.name(), |b| {
            b.iter(|| {
                let config = ServerConfig::new(&topo, policy);
                run_colocation(&config, &stream, 1).len()
            })
        });
    }
    group.finish();
}

/// 200 jobs at 75 jobs/s on `epyc_9354_2s`: the serving benchmark's
/// reference load, one stream of it.
fn serve_long_stream(c: &mut Criterion) {
    let topo = presets::epyc_9354_2s();
    let stream = generate_stream(1, &StreamParams::mixed(200, 1e9 / 75.0));
    let mut group = c.benchmark_group("colo-serve-200");
    group
        .sample_size(10)
        .measurement_time(Duration::from_secs(10));
    group.bench_function(SharingPolicy::InterferenceAware.name(), |b| {
        b.iter(|| {
            let config = ServerConfig::new(&topo, SharingPolicy::InterferenceAware);
            run_colocation(&config, &stream, 1).len()
        })
    });
    group.finish();
}

criterion_group!(benches, serve_stream, serve_long_stream);
criterion_main!(benches);
