//! NPB **SP** — Scalar Penta-diagonal pseudo-application.
//!
//! SP has the same ADI structure as BT but with scalar penta-diagonal
//! systems and a substantially higher memory intensity per flop. The paper's
//! headline number comes from SP: +45.8% with full ILAN (Figure 2), because
//! *both* mechanisms fire — hierarchical placement restores locality *and*
//! moldability backs the loop off the bandwidth wall (Figure 3 shows SP's
//! average core count reduced; Figure 4 shows the no-moldability version
//! keeping only part of the gain).
//!
//! Native kernel: penta-diagonal line solves along x, y, z of an `n³` grid
//! plus an RHS pass, each a taskloop over independent lines. Every line
//! shares one constant matrix, so a timestep factors it once; each chunk
//! then gathers its lines four at a time and runs forward and back
//! substitution across the four together. Every line sees
//! [`penta_solve`]'s operations in its order, so the field is bitwise that
//! of one `penta_solve` per line (kept as the oracle).

use crate::bt::{rhs_planes, solve_lines, LineSolver};
use crate::ptr::SyncSlice;
use crate::spec::{blocked_tasks, jitter_weight, Scale, SimApp, SimSite};
use ilan::driver::run_native_invocation;
use ilan::{Policy, RunStats, SiteRegistry};
use ilan_numasim::Locality;
use ilan_runtime::ThreadPool;
use ilan_topology::Topology;

/// Simulator profile (see module docs).
pub fn sim_app(topology: &Topology, scale: Scale) -> SimApp {
    let chunks = scale.chunks(256);
    // Bandwidth-hungry sweeps: aggregate desired bandwidth at 64 cores is
    // roughly 2× the machine (the moldability trigger), but — unlike CG —
    // access is contiguous, so hierarchical placement also pays off for the
    // baseline comparison (the locality trigger). The class-D working set
    // exceeds L3, so there is no reuse discount. Mild boundary imbalance.
    // The x-sweep walks contiguous lines (pure streaming); the y and z
    // sweeps walk strided planes whose pages are spread over every node, so
    // their access is mostly irregular — and, at ~1.9× machine bandwidth of
    // aggregate demand, exactly the loops moldability rescues.
    let sweep = |name: &'static str, salt: u64, locality: Locality| SimSite {
        name,
        tasks: blocked_tasks(
            topology,
            chunks,
            30_000.0,
            5_500_000.0,
            locality,
            0.0,
            false,
            move |i| jitter_weight(i, salt, 0.12),
        ),
    };
    let rhs = SimSite {
        name: "sp/rhs",
        tasks: blocked_tasks(
            topology,
            chunks,
            40_000.0,
            3_000_000.0,
            Locality::Chunked,
            0.0,
            false,
            |i| jitter_weight(i, 0x59, 0.08),
        ),
    };
    SimApp {
        name: "SP",
        sites: vec![
            rhs,
            sweep("sp/x-solve", 0x51, Locality::Chunked),
            sweep("sp/y-solve", 0x52, Locality::Scattered { spread: 0.85 }),
            sweep("sp/z-solve", 0x53, Locality::Scattered { spread: 0.85 }),
        ],
        schedule: vec![0, 1, 2, 3],
        steps: scale.steps(160),
        serial_ns: 350_000.0,
    }
}

/// Penta-diagonal coefficients `(a2, a1, b, c1, c2)` — the second sub-,
/// first sub-, main, first super- and second super-diagonals. Diagonally
/// dominant.
pub const SP_COEFFS: (f64, f64, f64, f64, f64) = (0.5, -2.0, 6.0, -2.0, 0.5);

/// Solves one constant-coefficient penta-diagonal system in place by banded
/// Gaussian elimination without pivoting (safe: diagonally dominant).
/// `d` holds the RHS on entry and the solution on exit. `work` needs
/// `2 × d.len()` slots.
pub fn penta_solve(coeffs: (f64, f64, f64, f64, f64), d: &mut [f64], work: &mut [f64]) {
    let n = d.len();
    assert!(n >= 3, "penta system needs at least 3 unknowns");
    assert!(work.len() >= 2 * n, "work buffer too small");
    let (a2, a1, b, c1, c2) = coeffs;
    assert!(
        b.abs() > a2.abs() + a1.abs() + c1.abs() + c2.abs(),
        "matrix must be diagonally dominant"
    );
    // Banded LU: diag[i] and the two eliminated super-diagonals per row.
    let (sup1, sup2) = work.split_at_mut(n);
    let mut diag = vec![0.0; n];

    diag[0] = b;
    sup1[0] = c1;
    sup2[0] = c2;
    // Row 1: eliminate a1.
    let m1 = a1 / diag[0];
    diag[1] = b - m1 * sup1[0];
    sup1[1] = c1 - m1 * sup2[0];
    sup2[1] = c2;
    d[1] -= m1 * d[0];
    for i in 2..n {
        // Eliminate a2 using row i−2, then the updated a1 using row i−1.
        let m2 = a2 / diag[i - 2];
        let a1_upd = a1 - m2 * sup1[i - 2];
        let b_upd = b - m2 * sup2[i - 2];
        d[i] -= m2 * d[i - 2];
        let m1 = a1_upd / diag[i - 1];
        diag[i] = b_upd - m1 * sup1[i - 1];
        sup1[i] = if i + 1 < n {
            c1 - m1 * sup2[i - 1]
        } else {
            0.0
        };
        sup2[i] = if i + 2 < n { c2 } else { 0.0 };
        d[i] -= m1 * d[i - 1];
    }
    // Back substitution.
    d[n - 1] /= diag[n - 1];
    d[n - 2] = (d[n - 2] - sup1[n - 2] * d[n - 1]) / diag[n - 2];
    for i in (0..n - 2).rev() {
        d[i] = (d[i] - sup1[i] * d[i + 1] - sup2[i] * d[i + 2]) / diag[i];
    }
}

/// The penta-diagonal matrix of `coeffs` for lines of `n` unknowns, factored
/// once: the elimination multipliers and the upper band that
/// [`penta_solve`] recomputes for every line. [`LineSolver::solve`] then
/// runs only its right-hand-side updates, on several lines at once.
struct PentaFactor {
    /// `m1[i]` eliminates row `i`'s first sub-diagonal (`i ≥ 1`).
    m1: Vec<f64>,
    /// `m2[i]` eliminates row `i`'s second sub-diagonal (`i ≥ 2`).
    m2: Vec<f64>,
    /// The upper factor's diagonal.
    diag: Vec<f64>,
    /// Its first super-diagonal.
    sup1: Vec<f64>,
    /// Its second super-diagonal.
    sup2: Vec<f64>,
}

impl PentaFactor {
    /// Factors the matrix with [`penta_solve`]'s elimination, in its order.
    fn new(coeffs: (f64, f64, f64, f64, f64), n: usize) -> PentaFactor {
        assert!(n >= 3, "penta system needs at least 3 unknowns");
        let (a2, a1, b, c1, c2) = coeffs;
        assert!(
            b.abs() > a2.abs() + a1.abs() + c1.abs() + c2.abs(),
            "matrix must be diagonally dominant"
        );
        let (mut m1, mut m2) = (vec![0.0; n], vec![0.0; n]);
        let (mut diag, mut sup1, mut sup2) = (vec![0.0; n], vec![0.0; n], vec![0.0; n]);
        diag[0] = b;
        sup1[0] = c1;
        sup2[0] = c2;
        m1[1] = a1 / diag[0];
        diag[1] = b - m1[1] * sup1[0];
        sup1[1] = c1 - m1[1] * sup2[0];
        sup2[1] = c2;
        for i in 2..n {
            m2[i] = a2 / diag[i - 2];
            let a1_upd = a1 - m2[i] * sup1[i - 2];
            let b_upd = b - m2[i] * sup2[i - 2];
            m1[i] = a1_upd / diag[i - 1];
            diag[i] = b_upd - m1[i] * sup1[i - 1];
            sup1[i] = if i + 1 < n {
                c1 - m1[i] * sup2[i - 1]
            } else {
                0.0
            };
            sup2[i] = if i + 2 < n { c2 } else { 0.0 };
        }
        PentaFactor {
            m1,
            m2,
            diag,
            sup1,
            sup2,
        }
    }
}

impl LineSolver for PentaFactor {
    fn solve<const B: usize>(&self, d: &mut [[f64; B]]) {
        let n = self.diag.len();
        assert_eq!(d.len(), n, "line length differs from the factor's");
        let (m1, m2, diag, sup1, sup2) = (&self.m1, &self.m2, &self.diag, &self.sup1, &self.sup2);
        let d0 = d[0];
        for (x, y0) in d[1].iter_mut().zip(d0) {
            *x -= m1[1] * y0;
        }
        for i in 2..n {
            let (d2, d1) = (d[i - 2], d[i - 1]);
            for ((x, y2), y1) in d[i].iter_mut().zip(d2).zip(d1) {
                *x -= m2[i] * y2;
                *x -= m1[i] * y1;
            }
        }
        for x in &mut d[n - 1] {
            *x /= diag[n - 1];
        }
        let d1 = d[n - 1];
        for (x, y1) in d[n - 2].iter_mut().zip(d1) {
            *x = (*x - sup1[n - 2] * y1) / diag[n - 2];
        }
        for i in (0..n - 2).rev() {
            let (d1, d2) = (d[i + 1], d[i + 2]);
            for ((x, y1), y2) in d[i].iter_mut().zip(d1).zip(d2) {
                *x = (*x - sup1[i] * y1 - sup2[i] * y2) / diag[i];
            }
        }
    }
}

/// A cubic field with SP-style penta-diagonal sweeps, mirroring
/// [`BtGrid`](crate::bt::BtGrid).
pub struct SpGrid {
    /// Side length.
    pub n: usize,
    /// Field values, index `x + n·(y + n·z)`.
    pub u: Vec<f64>,
}

impl SpGrid {
    /// Deterministic initial field.
    pub fn new(n: usize) -> SpGrid {
        assert!(n >= 3, "SP grid needs n ≥ 3");
        let u = (0..n * n * n)
            .map(|i| 1.0 + ((i % 97) as f64 * 0.13).sin() * 0.4)
            .collect();
        SpGrid { n, u }
    }

    /// Serial timestep (RHS + three penta sweeps): the kernels of
    /// [`step_native`]'s taskloops, each over its whole range.
    pub fn step_serial(&mut self) {
        let n = self.n;
        let factor = PentaFactor::new(SP_COEFFS, n);
        let old = self.u.clone();
        let field = SyncSlice::new(&mut self.u);
        // SAFETY: only this thread sees the field.
        unsafe {
            rhs_planes(&old, n, 0..n, &field, sp_rhs_point);
            for axis in 0..3 {
                solve_lines(&field, n, axis, 0..n * n, &factor);
            }
        }
    }
}

/// Weighted 7-point stencil used as SP's RHS (clamped edges).
#[inline]
fn sp_rhs_point(u: &[f64], n: usize, x: usize, y: usize, z: usize) -> f64 {
    let at = |x: usize, y: usize, z: usize| u[x + n * (y + n * z)];
    let c = at(x, y, z);
    c + 0.04
        * (at(x.saturating_sub(1), y, z)
            + at((x + 1).min(n - 1), y, z)
            + at(x, y.saturating_sub(1), z)
            + at(x, (y + 1).min(n - 1), z)
            + at(x, y, z.saturating_sub(1))
            + at(x, y, (z + 1).min(n - 1))
            - 6.0 * c)
}

/// One native SP timestep (RHS + three penta-diagonal sweeps as taskloops).
/// The matrix is factored once for all three sweeps.
pub fn step_native(
    pool: &ThreadPool,
    policy: &mut dyn Policy,
    grid: &mut SpGrid,
    sites: &mut SiteRegistry,
    stats: &mut RunStats,
) {
    let n = grid.n;
    let s_rhs = sites.site("sp/rhs");
    let s_sweep = [
        sites.site("sp/x-solve"),
        sites.site("sp/y-solve"),
        sites.site("sp/z-solve"),
    ];
    let factor = PentaFactor::new(SP_COEFFS, n);
    let old = grid.u.clone();
    let field = SyncSlice::new(&mut grid.u);

    let grain = (n / 8).max(1);
    let (_, rep) = run_native_invocation(pool, policy, s_rhs, 0..n, grain, |zs| {
        // SAFETY: chunks own disjoint z-planes.
        unsafe { rhs_planes(&old, n, zs, &field, sp_rhs_point) }
    });
    stats.add(&rep);

    for (axis, &site) in s_sweep.iter().enumerate() {
        let lines = n * n;
        let grain = (lines / 64).max(1);
        let (_, rep) = run_native_invocation(pool, policy, site, 0..lines, grain, |range| {
            // SAFETY: chunks own disjoint lines.
            unsafe { solve_lines(&field, n, axis, range, &factor) }
        });
        stats.add(&rep);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::bt::line_index;
    use crate::verify::{all_finite, max_abs_diff, same_bits, seeded_field};
    use ilan::BaselinePolicy;
    use ilan_runtime::{PinMode, PoolConfig};
    use ilan_topology::presets;
    use proptest::prelude::*;

    /// Line `l` of `axis` solved alone with [`penta_solve`]: the oracle.
    fn solve_line_alone(u: &mut [f64], n: usize, axis: usize, l: usize) {
        let (j, k) = (l % n, l / n);
        let mut line: Vec<f64> = (0..n).map(|i| u[line_index(n, axis, i, j, k)]).collect();
        penta_solve(SP_COEFFS, &mut line, &mut vec![0.0; 2 * n]);
        for (i, v) in line.into_iter().enumerate() {
            u[line_index(n, axis, i, j, k)] = v;
        }
    }

    /// The timestep as one `penta_solve` per line: the oracle of
    /// [`SpGrid::step_serial`].
    fn step_per_line(g: &mut SpGrid) {
        let n = g.n;
        let old = g.u.clone();
        for z in 0..n {
            for y in 0..n {
                for x in 0..n {
                    g.u[x + n * (y + n * z)] = sp_rhs_point(&old, n, x, y, z);
                }
            }
        }
        for axis in 0..3 {
            for l in 0..n * n {
                solve_line_alone(&mut g.u, n, axis, l);
            }
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        /// Batched solves over any line range (odd offsets, lengths that
        /// are not a multiple of the batch) match one `penta_solve` per
        /// line bitwise, and leave every other line alone.
        #[test]
        fn batched_lines_match_penta_solve_bitwise(
            n in 3usize..20,
            axis in 0usize..3,
            seed in any::<u64>(),
            lo in 0.0f64..1.0,
            len in 0usize..40,
        ) {
            let lines = n * n;
            let start = (lo * lines as f64) as usize;
            let range = start..(start + len).min(lines);
            let mut u = seeded_field(n * n * n, seed);
            let mut expected = u.clone();
            for l in range.clone() {
                solve_line_alone(&mut expected, n, axis, l);
            }
            let factor = PentaFactor::new(SP_COEFFS, n);
            // SAFETY: only this thread sees `u`.
            unsafe { solve_lines(&SyncSlice::new(&mut u), n, axis, range.clone(), &factor) };
            prop_assert!(same_bits(&u, &expected), "n={} axis={} lines={:?}", n, axis, range);
        }
    }

    #[test]
    fn step_serial_matches_per_line_step_bitwise() {
        for n in [3, 4, 5, 9, 14] {
            let mut g = SpGrid {
                n,
                u: seeded_field(n * n * n, n as u64),
            };
            let mut oracle = SpGrid { n, u: g.u.clone() };
            for _ in 0..2 {
                g.step_serial();
                step_per_line(&mut oracle);
            }
            assert!(same_bits(&g.u, &oracle.u), "n = {n}");
        }
    }

    #[test]
    fn penta_matches_manufactured_solution() {
        let n = 12;
        let expected: Vec<f64> = (0..n).map(|i| (i as f64 * 0.4).cos() + 2.0).collect();
        let (a2, a1, b, c1, c2) = SP_COEFFS;
        let mut d = vec![0.0; n];
        for i in 0..n {
            d[i] = b * expected[i];
            if i >= 2 {
                d[i] += a2 * expected[i - 2];
            }
            if i >= 1 {
                d[i] += a1 * expected[i - 1];
            }
            if i + 1 < n {
                d[i] += c1 * expected[i + 1];
            }
            if i + 2 < n {
                d[i] += c2 * expected[i + 2];
            }
        }
        let mut work = vec![0.0; 2 * n];
        penta_solve(SP_COEFFS, &mut d, &mut work);
        assert!(max_abs_diff(&d, &expected) < 1e-10);
    }

    #[test]
    #[should_panic(expected = "diagonally dominant")]
    fn penta_rejects_weak_diagonal() {
        let mut d = vec![1.0; 5];
        let mut work = vec![0.0; 10];
        penta_solve((1.0, 1.0, 2.0, 1.0, 1.0), &mut d, &mut work);
    }

    #[test]
    fn penta_small_systems() {
        // n = 3 exercises all the boundary branches.
        let expected = vec![1.0, -2.0, 3.0];
        let (a2, a1, b, c1, c2) = SP_COEFFS;
        let mut d = vec![
            b * expected[0] + c1 * expected[1] + c2 * expected[2],
            a1 * expected[0] + b * expected[1] + c1 * expected[2],
            a2 * expected[0] + a1 * expected[1] + b * expected[2],
        ];
        let mut work = vec![0.0; 6];
        penta_solve(SP_COEFFS, &mut d, &mut work);
        assert!(max_abs_diff(&d, &expected) < 1e-12);
    }

    #[test]
    fn native_step_matches_serial() {
        let pool =
            ThreadPool::new(PoolConfig::new(presets::tiny_2x4()).pin(PinMode::Never)).unwrap();
        let n = 10;
        let mut parallel = SpGrid::new(n);
        let mut serial = SpGrid::new(n);
        let mut sites = SiteRegistry::new();
        let mut stats = RunStats::new();
        let mut policy = BaselinePolicy;
        for _ in 0..3 {
            step_native(&pool, &mut policy, &mut parallel, &mut sites, &mut stats);
            serial.step_serial();
        }
        assert!(same_bits(&parallel.u, &serial.u));
        assert!(all_finite(&parallel.u));
    }

    #[test]
    fn sim_profile_saturates_bandwidth() {
        let topo = presets::epyc_9354_2s();
        let app = sim_app(&topo, Scale::Quick);
        // The sweeps (sites 1..4) must exceed machine bandwidth at 64 cores.
        let sweep = &app.sites[1];
        let desired64: f64 = sweep
            .tasks
            .iter()
            .take(64)
            .map(|t| t.mem_bytes / t.ideal_ns(22.0))
            .sum();
        assert!(
            desired64 > 1.4 * 640.0,
            "SP sweep must saturate memory: {desired64}"
        );
        // And be locality-sensitive (contiguous access), unlike CG — but too
        // large for L3 reuse at class-D scale.
        assert!(sweep
            .tasks
            .iter()
            .all(|t| matches!(t.locality, Locality::Chunked) && !t.fits_l3));
    }
}
