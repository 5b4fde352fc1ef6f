//! Golden digests of the rendered paper artifacts.
//!
//! Every figure and table is a pure function of (topology, schedulers,
//! scale, seeds). These digests pin the text `repro all --quick --runs 3`
//! prints for each artifact, plus the fully traced CG run of `repro trace
//! --quick`, bit for bit. A refactor of the simulator, the scheduler or the
//! harness that claims to be behaviour-preserving must leave them
//! untouched; a deliberate model change updates them together with
//! EXPERIMENTS.md.

use ilan_bench::{collect, figures, ALL_SCHEDULERS};
use ilan_topology::presets;
use ilan_workloads::Scale;

/// FNV-1a over the bytes of `text`.
fn fnv1a(text: &str) -> u64 {
    text.bytes().fold(0xcbf2_9ce4_8422_2325, |h, b| {
        (h ^ b as u64).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

#[test]
fn quick_figures_are_bitwise_pinned() {
    let topo = presets::epyc_9354_2s();
    let c = collect(&topo, &ALL_SCHEDULERS, Scale::Quick, 3);
    let rendered = [
        ("fig2", figures::fig2(&c, None)),
        ("fig3", figures::fig3(&c, None)),
        ("fig4", figures::fig4(&c, None)),
        ("table1", figures::table1(&c, None)),
        ("fig5", figures::fig5(&c, None)),
        ("fig6", figures::fig6(&c, None)),
        ("bandwidth", figures::bandwidth(&c, None)),
    ];
    let digests: Vec<(&str, u64)> = rendered
        .iter()
        .map(|(name, text)| (*name, fnv1a(text)))
        .collect();
    assert_eq!(digests, FIGURE_DIGESTS, "rendered artifacts moved");
}

#[test]
fn traced_cg_run_is_bitwise_pinned() {
    let topo = presets::epyc_9354_2s();
    let text = figures::trace_artifact(&topo, Scale::Quick, 1, None);
    assert_eq!(fnv1a(&text), TRACE_DIGEST, "trace artifact moved:\n{text}");
}

const FIGURE_DIGESTS: [(&str, u64); 7] = [
    ("fig2", 10_016_325_586_760_455_594),
    ("fig3", 8_224_791_391_395_783_131),
    ("fig4", 5_698_266_710_527_339_311),
    ("table1", 7_013_420_545_401_169_908),
    ("fig5", 8_200_182_661_182_954_040),
    ("fig6", 902_573_818_465_407_050),
    ("bandwidth", 16_336_446_008_047_761_277),
];
const TRACE_DIGEST: u64 = 8_786_312_138_045_597_002;
