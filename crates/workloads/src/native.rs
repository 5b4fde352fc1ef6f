//! Whole-application native runs.
//!
//! [`run_native_app`] executes one full benchmark — not a single loop — on
//! the native runtime under any policy, at laptop scale, returning the run
//! statistics and a correctness check. This is the native counterpart of
//! [`SimApp::run`](crate::SimApp::run): the same seven applications, real
//! threads and real math instead of the simulator.

use crate::spec::Workload;
use crate::verify::{all_finite, max_abs_diff};
use crate::{bt, cg, ft, lu, lulesh, matmul, sp};
use ilan::{Policy, RunStats, SiteRegistry};
use ilan_runtime::ThreadPool;

/// Problem sizes for a native run.
#[derive(Clone, Copy, Debug)]
pub struct NativeScale {
    /// Linear problem dimension (meaning varies per benchmark).
    pub size: usize,
    /// Timesteps / iterations.
    pub steps: usize,
}

impl NativeScale {
    /// Small sizes suitable for CI and single-core machines (< 1 s each).
    pub fn quick() -> Self {
        NativeScale { size: 24, steps: 6 }
    }

    /// Laptop-benchmark sizes (a few seconds per benchmark).
    pub fn laptop() -> Self {
        NativeScale {
            size: 64,
            steps: 20,
        }
    }
}

/// Result of one native application run.
#[derive(Clone, Debug)]
pub struct NativeRunSummary {
    /// The benchmark.
    pub workload: Workload,
    /// Aggregated taskloop statistics.
    pub stats: RunStats,
    /// Real wall time of the whole application.
    pub wall: std::time::Duration,
    /// Benchmark-specific correctness measure (residual / max error /
    /// conservation drift). Small is good; see `check_threshold`.
    pub check: f64,
    /// The bound `check` must stay under for the run to count as correct.
    pub check_threshold: f64,
}

impl NativeRunSummary {
    /// Whether the run's numerics verified.
    pub fn verified(&self) -> bool {
        self.check.is_finite() && self.check < self.check_threshold
    }
}

/// Runs one benchmark natively under `policy`.
///
/// Every parallel loop goes through the policy (so ILAN explores and
/// settles); the returned summary carries a per-benchmark correctness
/// check computed against a serial reference or an analytic invariant.
pub fn run_native_app(
    workload: Workload,
    pool: &ThreadPool,
    policy: &mut dyn Policy,
    scale: NativeScale,
) -> NativeRunSummary {
    let mut sites = SiteRegistry::new();
    let mut stats = RunStats::new();
    let started = std::time::Instant::now();

    let (check, check_threshold) = match workload {
        Workload::Cg => {
            let side = scale.size.max(12);
            let matrix = cg::Csr::poisson_irregular(side, 3, 71);
            let result = cg::run_native(pool, policy, &matrix, scale.steps * 20);
            stats = result.stats;
            (result.residual, 1e-6)
        }
        Workload::Ft => {
            let n = (scale.size.max(16)).next_power_of_two();
            let mut grid = ft::FtGrid::new(n);
            let (original_re, original_im) = (grid.re.clone(), grid.im.clone());
            for _ in 0..scale.steps.div_ceil(2).max(1) {
                ft::fft2d_native(pool, policy, &mut grid, &mut sites, false, &mut stats);
                ft::fft2d_native(pool, policy, &mut grid, &mut sites, true, &mut stats);
            }
            let err_2d =
                max_abs_diff(&grid.re, &original_re).max(max_abs_diff(&grid.im, &original_im));
            // One full 3-D round trip on a small cube (the true FT shape).
            let mut cube = ft::FtCube::new((n / 4).max(8));
            let (cube_re, cube_im) = (cube.re.clone(), cube.im.clone());
            ft::fft3d_native(pool, policy, &mut cube, &mut sites, false, &mut stats);
            ft::fft3d_native(pool, policy, &mut cube, &mut sites, true, &mut stats);
            let err_3d = max_abs_diff(&cube.re, &cube_re).max(max_abs_diff(&cube.im, &cube_im));
            (err_2d.max(err_3d), 1e-8)
        }
        Workload::Bt => {
            let n = scale.size.clamp(8, 28);
            let mut parallel = bt::BtGrid::new(n);
            let mut serial = bt::BtGrid::new(n);
            for _ in 0..scale.steps.min(6) {
                bt::step_native(pool, policy, &mut parallel, &mut sites, &mut stats);
                serial.step_serial();
            }
            // Plus one 5×5 block sweep, the true-BT formulation, against
            // its serial reference.
            let mut blocks = bt::BtBlockField::new(n.min(12));
            let mut blocks_serial = bt::BtBlockField::new(n.min(12));
            bt::block_sweep_native(pool, policy, &mut blocks, &mut sites, 0, &mut stats);
            blocks_serial.sweep_serial(0);
            let flat: Vec<f64> = blocks.u.iter().flatten().copied().collect();
            let flat_serial: Vec<f64> = blocks_serial.u.iter().flatten().copied().collect();
            let err = max_abs_diff(&parallel.u, &serial.u).max(max_abs_diff(&flat, &flat_serial));
            (if all_finite(&flat) { err } else { f64::NAN }, 1e-10)
        }
        Workload::Sp => {
            let n = scale.size.clamp(8, 24);
            let mut parallel = sp::SpGrid::new(n);
            let mut serial = sp::SpGrid::new(n);
            for _ in 0..scale.steps.min(6) {
                sp::step_native(pool, policy, &mut parallel, &mut sites, &mut stats);
                serial.step_serial();
            }
            (max_abs_diff(&parallel.u, &serial.u), 1e-9)
        }
        Workload::Lu => {
            let n = scale.size.max(16);
            let mut parallel = lu::LuGrid::new(n);
            let mut serial = lu::LuGrid::new(n);
            for _ in 0..scale.steps {
                lu::sweep_native(pool, policy, &mut parallel, &mut sites, &mut stats);
                serial.sweep_serial();
            }
            (max_abs_diff(&parallel.u, &serial.u), 1e-12)
        }
        Workload::Matmul => {
            let n = scale.size.max(16);
            let a = matmul::Matrix::random(n, 31);
            let b = matmul::Matrix::random(n, 32);
            let reference = a.mul_serial(&b);
            let mut worst = 0.0f64;
            for _ in 0..scale.steps {
                let c = matmul::mul_native(pool, policy, &a, &b, &mut sites, &mut stats);
                worst = worst.max(max_abs_diff(&c.data, &reference.data));
            }
            (worst, 1e-11)
        }
        Workload::Lulesh => {
            let zones = (scale.size * 12).max(120);
            let mut state = lulesh::HydroState::sod(zones);
            let mass0 = state.total_mass();
            let e0 = state.total_energy();
            for _ in 0..scale.steps * 10 {
                let dt = state.cfl_dt();
                lulesh::step_native(pool, policy, &mut state, &mut sites, dt, &mut stats);
            }
            let mass_err = (state.total_mass() - mass0).abs();
            let energy_drift = (state.total_energy() / e0 - 1.0).abs();
            (mass_err.max(energy_drift), 0.06)
        }
    };

    NativeRunSummary {
        workload,
        stats,
        wall: started.elapsed(),
        check,
        check_threshold,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ALL_WORKLOADS;
    use ilan::{BaselinePolicy, IlanParams, IlanScheduler};
    use ilan_runtime::{PinMode, PoolConfig};
    use ilan_topology::presets;

    #[test]
    fn every_app_runs_and_verifies_under_baseline() {
        let pool =
            ThreadPool::new(PoolConfig::new(presets::tiny_2x4()).pin(PinMode::Never)).unwrap();
        for w in ALL_WORKLOADS {
            let mut policy = BaselinePolicy;
            let summary = run_native_app(w, &pool, &mut policy, NativeScale::quick());
            assert!(
                summary.verified(),
                "{}: check {} over threshold {}",
                w.name(),
                summary.check,
                summary.check_threshold
            );
            assert!(summary.stats.invocations > 0, "{} ran no loops", w.name());
        }
    }

    #[test]
    fn every_app_verifies_under_ilan() {
        let topo = presets::tiny_2x4();
        let pool = ThreadPool::new(PoolConfig::new(topo.clone()).pin(PinMode::Never)).unwrap();
        for w in ALL_WORKLOADS {
            let mut policy = IlanScheduler::new(IlanParams::for_topology(&topo));
            let summary = run_native_app(w, &pool, &mut policy, NativeScale::quick());
            assert!(
                summary.verified(),
                "{} under ILAN: check {}",
                w.name(),
                summary.check
            );
        }
    }
}
