//! Benchmark workloads for evaluating the ILAN scheduler.
//!
//! The paper evaluates seven benchmarks: five from the NAS Parallel
//! Benchmarks (CG, FT, BT, SP, LU — the C++ port of Löff et al., class D),
//! LULESH (s = 400), and a dense matrix multiplication (3500², 200
//! iterations). This crate provides each of them in two forms:
//!
//! 1. **Native kernels** — real, verified numerical kernels (CSR conjugate
//!    gradient, radix-2 FFT passes, structured-grid sweeps, an SSOR
//!    wavefront, a hydro proxy, register-tiled matmul) whose parallel loops run as
//!    taskloops on the native runtime via any [`Policy`](ilan::Policy).
//!    These are scaled down from class D so they run anywhere; they are the
//!    functional-correctness leg of the reproduction.
//! 2. **Simulator profiles** ([`SimApp`]) — the same applications described
//!    as sequences of taskloop invocations with per-chunk cost/locality
//!    models, executed on the simulated 64-core EPYC 9354 machine. The
//!    profiles are derived from each kernel's arithmetic intensity, footprint
//!    and balance structure, and drive the paper-figure reproduction (the
//!    real machine is not available in this environment — see DESIGN.md).
//!
//! The seven benchmarks and their scheduling-relevant characters:
//!
//! | Benchmark | Access pattern | Memory intensity | Balance | Paper behaviour |
//! |-----------|----------------|------------------|---------|-----------------|
//! | CG        | irregular gather | very high      | imbalanced | molds to ~25 cores, +8% |
//! | FT        | long-distance transpose + local passes | high | perfectly balanced | hierarchy only, +12.3%; work-sharing wins |
//! | BT        | structured, cache-resident | moderate | balanced | hierarchy only, +16.9% |
//! | SP        | structured, bandwidth-hungry | very high | mild imbalance | molds + hierarchy, +45.8% |
//! | LU        | wavefront     | moderate          | wavefront-imbalanced | hierarchy, variance ↓ |
//! | Matmul    | blocked dense | low (compute-bound) | balanced | slight regression |
//! | LULESH    | mixed hydro loops | mixed         | mild imbalance | small gain |

#![warn(missing_docs)]

pub mod block;
pub mod bt;
pub mod cg;
pub mod ft;
pub mod lu;
pub mod lulesh;
pub mod matmul;
pub mod native;
pub mod ptr;
mod spec;
pub mod verify;

pub use native::{run_native_app, NativeRunSummary, NativeScale};
pub use spec::{Scale, SimApp, SimSite, Workload, ALL_WORKLOADS};
pub mod sp;
