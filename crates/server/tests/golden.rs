//! Golden determinism digests of the serving path.
//!
//! A colocation run is a pure function of (config, stream, seed). These
//! digests pin a fixed 60-job run bit for bit — every job record (all
//! floats at full precision through `Debug`) and the final metrics
//! exposition — under unmanaged sharing and under interference-aware
//! partitioning. Any change to `ColoMachine`, the shared cost model,
//! admission or PTT warm start that moves a single simulated nanosecond
//! moves the digest.

use ilan_server::{
    generate_stream, run_colocation_report, ServerConfig, SharingPolicy, StreamParams,
};
use ilan_topology::presets;

/// FNV-1a over the bytes of `text`.
fn fnv1a(text: &str) -> u64 {
    text.bytes().fold(0xcbf2_9ce4_8422_2325, |h, b| {
        (h ^ b as u64).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

fn digest(policy: SharingPolicy) -> u64 {
    let topo = presets::epyc_9354_2s();
    let config = ServerConfig::new(&topo, policy);
    let stream = generate_stream(11, &StreamParams::mixed(60, 1e7));
    let report = run_colocation_report(&config, &stream, 11);
    assert_eq!(report.records.len(), 60);
    fnv1a(&format!("{:?}\n{}", report.records, report.metrics_text()))
}

#[test]
fn naive_run_is_bitwise_pinned() {
    assert_eq!(digest(SharingPolicy::Naive), NAIVE_DIGEST);
}

#[test]
fn interference_aware_run_is_bitwise_pinned() {
    assert_eq!(
        digest(SharingPolicy::InterferenceAware),
        INTERFERENCE_AWARE_DIGEST
    );
}

const NAIVE_DIGEST: u64 = 787_233_330_447_762_734;
const INTERFERENCE_AWARE_DIGEST: u64 = 17_414_666_209_916_609_024;
