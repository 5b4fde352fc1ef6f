//! NPB **BT** — Block Tri-diagonal pseudo-application.
//!
//! BT solves the 3-D Navier–Stokes equations with an ADI scheme: each
//! timestep assembles a right-hand side and then solves independent block
//! tri-diagonal systems along lines of the x, y and z dimensions. The loops
//! are balanced and cache-friendly; its per-node working set fits the
//! aggregate L3 when placement is stable. The paper finds BT gains +16.9%
//! from hierarchical locality alone — the thread count stays at 64
//! (Figure 3) and moldability contributes nothing (Figure 4).
//!
//! Native kernel: scalar tri-diagonal line solves (Thomas algorithm) along
//! the three axes of an `n³` grid plus an RHS stencil pass, each sweep a
//! taskloop over its independent lines. Every line shares one constant
//! matrix, so a timestep factors it once; each chunk then gathers its lines
//! four at a time and runs the substitutions across the four together.
//! Every line sees [`thomas_solve`]'s operations in its order, so the field
//! is bitwise that of one `thomas_solve` per line (kept as the oracle).

use crate::ptr::SyncSlice;
use crate::spec::{blocked_tasks, Scale, SimApp, SimSite};
use ilan::driver::run_native_invocation;
use ilan::{Policy, RunStats, SiteRegistry};
use ilan_numasim::Locality;
use ilan_runtime::ThreadPool;
use ilan_topology::Topology;
use std::ops::Range;

/// Simulator profile (see module docs).
pub fn sim_app(topology: &Topology, scale: Scale) -> SimApp {
    let chunks = scale.chunks(256);
    let sweep = |name: &'static str| SimSite {
        name,
        tasks: blocked_tasks(
            topology,
            chunks,
            240_000.0,
            1_600_000.0,
            Locality::Chunked,
            0.28,
            true,
            |_| 1.0,
        ),
    };
    let rhs = SimSite {
        name: "bt/rhs",
        tasks: blocked_tasks(
            topology,
            chunks,
            180_000.0,
            1_400_000.0,
            Locality::Chunked,
            0.28,
            true,
            |_| 1.0,
        ),
    };
    SimApp {
        name: "BT",
        sites: vec![
            rhs,
            sweep("bt/x-solve"),
            sweep("bt/y-solve"),
            sweep("bt/z-solve"),
        ],
        schedule: vec![0, 1, 2, 3],
        steps: scale.steps(160),
        serial_ns: 350_000.0,
    }
}

/// Solves one tri-diagonal system `(a, b, c)·u = d` in place via the Thomas
/// algorithm. `a` is the sub-diagonal coefficient, `b` the diagonal, `c` the
/// super-diagonal (all constant, diagonally dominant). `d` holds the RHS on
/// entry and the solution on exit; `scratch` must be at least `d.len()` long.
pub fn thomas_solve(a: f64, b: f64, c: f64, d: &mut [f64], scratch: &mut [f64]) {
    let n = d.len();
    assert!(n > 0, "empty system");
    assert!(scratch.len() >= n, "scratch too small");
    assert!(
        b.abs() > a.abs() + c.abs(),
        "matrix must be diagonally dominant"
    );
    // Forward elimination.
    scratch[0] = c / b;
    d[0] /= b;
    for i in 1..n {
        let m = 1.0 / (b - a * scratch[i - 1]);
        scratch[i] = c * m;
        d[i] = (d[i] - a * d[i - 1]) * m;
    }
    // Back substitution.
    for i in (0..n - 1).rev() {
        d[i] -= scratch[i] * d[i + 1];
    }
}

/// The tri-diagonal matrix `(a, b, c)` for lines of `n` unknowns, factored
/// once: the multipliers and the upper factor that [`thomas_solve`]
/// recomputes for every line.
struct TriFactor {
    /// Sub-diagonal coefficient.
    a: f64,
    /// Diagonal coefficient.
    b: f64,
    /// `m[i] = 1 / (b − a·scratch[i−1])`, the elimination scale of row `i ≥ 1`.
    m: Vec<f64>,
    /// The upper factor's super-diagonal (`thomas_solve`'s `scratch`).
    scratch: Vec<f64>,
}

impl TriFactor {
    /// Factors the matrix with [`thomas_solve`]'s elimination, in its order.
    fn new((a, b, c): (f64, f64, f64), n: usize) -> TriFactor {
        assert!(n > 0, "empty system");
        assert!(
            b.abs() > a.abs() + c.abs(),
            "matrix must be diagonally dominant"
        );
        let (mut m, mut scratch) = (vec![0.0; n], vec![0.0; n]);
        scratch[0] = c / b;
        for i in 1..n {
            m[i] = 1.0 / (b - a * scratch[i - 1]);
            scratch[i] = c * m[i];
        }
        TriFactor { a, b, m, scratch }
    }
}

impl LineSolver for TriFactor {
    fn solve<const B: usize>(&self, d: &mut [[f64; B]]) {
        let n = self.m.len();
        assert_eq!(d.len(), n, "line length differs from the factor's");
        let (a, b, m, scratch) = (self.a, self.b, &self.m, &self.scratch);
        for x in &mut d[0] {
            *x /= b;
        }
        for i in 1..n {
            let prev = d[i - 1];
            for (x, y) in d[i].iter_mut().zip(prev) {
                *x = (*x - a * y) * m[i];
            }
        }
        for i in (0..n - 1).rev() {
            let next = d[i + 1];
            for (x, y) in d[i].iter_mut().zip(next) {
                *x -= scratch[i] * y;
            }
        }
    }
}

/// A factored constant-coefficient line system that solves `B` lines at
/// once. `d[i][l]` is point `i` of line `l`: the right-hand side on entry,
/// the solution on exit.
pub(crate) trait LineSolver {
    /// Solves the `B` lines in `d`.
    fn solve<const B: usize>(&self, d: &mut [[f64; B]]);
}

/// Lines gathered per solve.
const LINE_BATCH: usize = 4;

/// Solves lines `lines` of `axis` (line `l` has transverse coordinates
/// `(l % n, l / n)`) in place in the `n³` field, [`LINE_BATCH`] lines per
/// gather → solve → scatter and the remainder one at a time. This is the
/// whole sweep kernel of both BT and SP, serial and native.
///
/// # Safety
/// No other thread may access the points of lines `lines` during the call.
pub(crate) unsafe fn solve_lines(
    field: &SyncSlice<'_, f64>,
    n: usize,
    axis: usize,
    lines: Range<usize>,
    solver: &impl LineSolver,
) {
    let mut l = lines.start;
    let mut batch = vec![[0.0; LINE_BATCH]; n];
    while l + LINE_BATCH <= lines.end {
        // SAFETY: lines l..l + LINE_BATCH lie in `lines`.
        unsafe { solve_batch(field, n, axis, l, solver, &mut batch) };
        l += LINE_BATCH;
    }
    let mut single = vec![[0.0; 1]; n];
    for l in l..lines.end {
        // SAFETY: line l lies in `lines`.
        unsafe { solve_batch(field, n, axis, l, solver, &mut single) };
    }
}

/// Gathers lines `first..first + B` of `axis` into `d`, solves them and
/// scatters the solutions back.
///
/// # Safety
/// No other thread may access the points of these lines during the call.
#[inline(always)]
unsafe fn solve_batch<const B: usize>(
    field: &SyncSlice<'_, f64>,
    n: usize,
    axis: usize,
    first: usize,
    solver: &impl LineSolver,
    d: &mut [[f64; B]],
) {
    // Point i of a line sits at its base + i·stride.
    let stride = line_index(n, axis, 1, 0, 0);
    let base: [usize; B] = std::array::from_fn(|t| {
        let l = first + t;
        line_index(n, axis, 0, l % n, l / n)
    });
    for (i, row) in d.iter_mut().enumerate() {
        for (x, &b) in row.iter_mut().zip(&base) {
            // SAFETY: the caller owns these lines.
            *x = unsafe { field.read(b + i * stride) };
        }
    }
    solver.solve(d);
    for (i, row) in d.iter().enumerate() {
        for (&x, &b) in row.iter().zip(&base) {
            // SAFETY: the caller owns these lines.
            unsafe { field.write(b + i * stride, x) };
        }
    }
}

/// A cubic scalar field with ADI-style sweeps.
pub struct BtGrid {
    /// Side length.
    pub n: usize,
    /// Field values, index `x + n·(y + n·z)`.
    pub u: Vec<f64>,
}

/// Tri-diagonal coefficients used by the sweeps (diagonally dominant).
pub const BT_COEFFS: (f64, f64, f64) = (-1.0, 4.2, -1.0);

impl BtGrid {
    /// A deterministic smooth initial field.
    pub fn new(n: usize) -> BtGrid {
        let u = (0..n * n * n)
            .map(|i| {
                let x = (i % n) as f64;
                let y = ((i / n) % n) as f64;
                let z = (i / (n * n)) as f64;
                1.0 + (0.11 * x).sin() * (0.07 * y).cos() + 0.03 * z
            })
            .collect();
        BtGrid { n, u }
    }

    /// Serial timestep (RHS + three sweeps): the kernels of
    /// [`step_native`]'s taskloops, each over its whole range.
    pub fn step_serial(&mut self) {
        let n = self.n;
        let factor = TriFactor::new(BT_COEFFS, n);
        let old = self.u.clone();
        let field = SyncSlice::new(&mut self.u);
        // SAFETY: only this thread sees the field.
        unsafe {
            rhs_planes(&old, n, 0..n, &field, rhs_point);
            for axis in 0..3 {
                solve_lines(&field, n, axis, 0..n * n, &factor);
            }
        }
    }
}

/// Index of point `i` along `axis`, at transverse coordinates `(j, k)` in
/// an `n³` row-major field. Shared with the SP kernel.
#[inline]
pub fn line_index(n: usize, axis: usize, i: usize, j: usize, k: usize) -> usize {
    match axis {
        0 => i + n * (j + n * k),
        1 => j + n * (i + n * k),
        2 => j + n * (k + n * i),
        _ => unreachable!("axis must be 0..3"),
    }
}

/// Writes the RHS stencil `point` of `old` on the z-planes `zs` into `out`:
/// the RHS kernel of both BT and SP, serial and native.
///
/// # Safety
/// No other thread may access the z-planes `zs` of `out` during the call.
pub(crate) unsafe fn rhs_planes(
    old: &[f64],
    n: usize,
    zs: Range<usize>,
    out: &SyncSlice<'_, f64>,
    point: impl Fn(&[f64], usize, usize, usize, usize) -> f64,
) {
    for z in zs {
        for y in 0..n {
            for x in 0..n {
                // SAFETY: the caller owns plane z.
                unsafe { out.write(x + n * (y + n * z), point(old, n, x, y, z)) };
            }
        }
    }
}

/// Seven-point stencil RHS evaluation at one grid point (clamped edges).
#[inline]
fn rhs_point(u: &[f64], n: usize, x: usize, y: usize, z: usize) -> f64 {
    let at = |x: usize, y: usize, z: usize| u[x + n * (y + n * z)];
    let xm = at(x.saturating_sub(1), y, z);
    let xp = at((x + 1).min(n - 1), y, z);
    let ym = at(x, y.saturating_sub(1), z);
    let yp = at(x, (y + 1).min(n - 1), z);
    let zm = at(x, y, z.saturating_sub(1));
    let zp = at(x, y, (z + 1).min(n - 1));
    let c = at(x, y, z);
    c + 0.05 * (xm + xp + ym + yp + zm + zp - 6.0 * c)
}

/// One native BT timestep: an RHS taskloop over z-planes, then tri-diagonal
/// sweeps along x, y and z, each a taskloop over its `n²` independent lines.
/// The matrix is factored once for all three sweeps.
pub fn step_native(
    pool: &ThreadPool,
    policy: &mut dyn Policy,
    grid: &mut BtGrid,
    sites: &mut SiteRegistry,
    stats: &mut RunStats,
) {
    let n = grid.n;
    let s_rhs = sites.site("bt/rhs");
    let s_sweep = [
        sites.site("bt/x-solve"),
        sites.site("bt/y-solve"),
        sites.site("bt/z-solve"),
    ];
    let factor = TriFactor::new(BT_COEFFS, n);
    // The RHS pass reads the old field and writes a fresh one; each chunk
    // owns whole z-planes.
    let old = grid.u.clone();
    let field = SyncSlice::new(&mut grid.u);
    let grain = (n / 8).max(1);
    let (_, rep) = run_native_invocation(pool, policy, s_rhs, 0..n, grain, |zs| {
        // SAFETY: chunks own disjoint z-planes.
        unsafe { rhs_planes(&old, n, zs, &field, rhs_point) }
    });
    stats.add(&rep);

    // Line sweeps: n² independent lines per axis.
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

/// The five-variable flow field of the true BT formulation: each grid point
/// carries `(ρ, ρu, ρv, ρw, E)` and the line solves eliminate 5×5 blocks.
pub struct BtBlockField {
    /// Side length.
    pub n: usize,
    /// Per-point 5-vectors, index `x + n·(y + n·z)`.
    pub u: Vec<crate::block::Vec5>,
    /// Sub-diagonal block.
    pub a: crate::block::Block5,
    /// Main-diagonal block.
    pub b: crate::block::Block5,
    /// Super-diagonal block.
    pub c: crate::block::Block5,
}

impl BtBlockField {
    /// Deterministic initial field with BT-like diagonally dominant blocks.
    pub fn new(n: usize) -> BtBlockField {
        use crate::block::Block5;
        let u = (0..n * n * n)
            .map(|i| {
                let mut v = [0.0; 5];
                for (k, slot) in v.iter_mut().enumerate() {
                    *slot = 1.0 + ((i * 5 + k) as f64 * 0.211).sin() * 0.3;
                }
                v
            })
            .collect();
        let a = Block5::dominant(0xB7A, 0.15);
        let mut b = Block5::dominant(0xB7B, 0.25);
        for i in 0..5 {
            b.0[i][i] += 3.5; // block-level dominance over a + c
        }
        let c = Block5::dominant(0xB7C, 0.15);
        BtBlockField { n, u, a, b, c }
    }

    /// Serial reference: block-Thomas along every line of `axis`.
    pub fn sweep_serial(&mut self, axis: usize) {
        let n = self.n;
        let mut line: Vec<crate::block::Vec5> = vec![[0.0; 5]; n];
        for l in 0..n * n {
            let (j, k) = (l % n, l / n);
            for (i, slot) in line.iter_mut().enumerate() {
                *slot = self.u[line_index(n, axis, i, j, k)];
            }
            crate::block::block_thomas_solve(&self.a, &self.b, &self.c, &mut line);
            for (i, &v) in line.iter().enumerate() {
                self.u[line_index(n, axis, i, j, k)] = v;
            }
        }
    }
}

/// One native block sweep along `axis`: a taskloop over the `n²` independent
/// block tri-diagonal systems.
pub fn block_sweep_native(
    pool: &ThreadPool,
    policy: &mut dyn Policy,
    field: &mut BtBlockField,
    sites: &mut SiteRegistry,
    axis: usize,
    stats: &mut RunStats,
) {
    let n = field.n;
    let site = sites.site(match axis {
        0 => "bt/block-x-solve",
        1 => "bt/block-y-solve",
        _ => "bt/block-z-solve",
    });
    let lines = n * n;
    let grain = (lines / 64).max(1);
    let (a, b, c) = (field.a, field.b, field.c);
    let u = SyncSlice::new(&mut field.u);
    let (_, rep) = run_native_invocation(pool, policy, site, 0..lines, grain, |range| {
        let mut line: Vec<crate::block::Vec5> = vec![[0.0; 5]; n];
        for l in range {
            let (j, k) = (l % n, l / n);
            for (i, slot) in line.iter_mut().enumerate() {
                // SAFETY: lines are disjoint between chunks.
                unsafe { *slot = u.read(line_index(n, axis, i, j, k)) };
            }
            crate::block::block_thomas_solve(&a, &b, &c, &mut line);
            for (i, &v) in line.iter().enumerate() {
                // SAFETY: lines are disjoint between chunks.
                unsafe { u.write(line_index(n, axis, i, j, k), v) };
            }
        }
    });
    stats.add(&rep);
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::verify::{all_finite, max_abs_diff, same_bits, seeded_field};
    use ilan::BaselinePolicy;
    use ilan_runtime::{PinMode, PoolConfig};
    use ilan_topology::presets;
    use proptest::prelude::*;

    /// Line `l` of `axis` solved alone with [`thomas_solve`]: the oracle.
    fn solve_line_alone(u: &mut [f64], n: usize, axis: usize, l: usize) {
        let (j, k) = (l % n, l / n);
        let mut line: Vec<f64> = (0..n).map(|i| u[line_index(n, axis, i, j, k)]).collect();
        let (a, b, c) = BT_COEFFS;
        thomas_solve(a, b, c, &mut line, &mut vec![0.0; n]);
        for (i, v) in line.into_iter().enumerate() {
            u[line_index(n, axis, i, j, k)] = v;
        }
    }

    /// The timestep as one `thomas_solve` per line: the oracle of
    /// [`BtGrid::step_serial`].
    fn step_per_line(g: &mut BtGrid) {
        let n = g.n;
        let old = g.u.clone();
        for z in 0..n {
            for y in 0..n {
                for x in 0..n {
                    g.u[x + n * (y + n * z)] = rhs_point(&old, n, x, y, z);
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
        /// are not a multiple of the batch) match one `thomas_solve` per
        /// line bitwise, and leave every other line alone.
        #[test]
        fn batched_lines_match_thomas_solve_bitwise(
            n in 1usize..20,
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
            let factor = TriFactor::new(BT_COEFFS, n);
            // SAFETY: only this thread sees `u`.
            unsafe { solve_lines(&SyncSlice::new(&mut u), n, axis, range.clone(), &factor) };
            prop_assert!(same_bits(&u, &expected), "n={} axis={} lines={:?}", n, axis, range);
        }
    }

    #[test]
    fn step_serial_matches_per_line_step_bitwise() {
        for n in [1, 2, 3, 5, 9, 14] {
            let mut g = BtGrid {
                n,
                u: seeded_field(n * n * n, n as u64),
            };
            let mut oracle = BtGrid { n, u: g.u.clone() };
            for _ in 0..2 {
                g.step_serial();
                step_per_line(&mut oracle);
            }
            assert!(same_bits(&g.u, &oracle.u), "n = {n}");
        }
    }

    #[test]
    fn thomas_matches_dense_solve() {
        // Solve (a,b,c)·u = d for a known u, reconstruct d, then solve.
        let n = 10;
        let (a, b, c) = BT_COEFFS;
        let expected: Vec<f64> = (0..n).map(|i| ((i * i) as f64 * 0.1).sin() + 1.0).collect();
        let mut d = vec![0.0; n];
        for i in 0..n {
            d[i] = b * expected[i];
            if i > 0 {
                d[i] += a * expected[i - 1];
            }
            if i + 1 < n {
                d[i] += c * expected[i + 1];
            }
        }
        let mut scratch = vec![0.0; n];
        thomas_solve(a, b, c, &mut d, &mut scratch);
        assert!(max_abs_diff(&d, &expected) < 1e-12);
    }

    #[test]
    #[should_panic(expected = "diagonally dominant")]
    fn thomas_rejects_non_dominant() {
        let mut d = vec![1.0; 4];
        let mut s = vec![0.0; 4];
        thomas_solve(-1.0, 1.5, -1.0, &mut d, &mut s);
    }

    #[test]
    fn line_idx_covers_each_axis() {
        let n = 4;
        for axis in 0..3 {
            let mut seen = vec![false; n * n * n];
            for j in 0..n {
                for k in 0..n {
                    for i in 0..n {
                        let idx = line_index(n, axis, i, j, k);
                        assert!(!seen[idx], "axis {axis} repeats index {idx}");
                        seen[idx] = true;
                    }
                }
            }
            assert!(seen.iter().all(|&s| s), "axis {axis} misses points");
        }
    }

    #[test]
    fn native_step_matches_serial() {
        let pool =
            ThreadPool::new(PoolConfig::new(presets::tiny_2x4()).pin(PinMode::Never)).unwrap();
        let n = 12;
        let mut parallel = BtGrid::new(n);
        let mut serial = BtGrid::new(n);
        let mut sites = SiteRegistry::new();
        let mut stats = RunStats::new();
        let mut policy = BaselinePolicy;
        for _ in 0..3 {
            step_native(&pool, &mut policy, &mut parallel, &mut sites, &mut stats);
            serial.step_serial();
        }
        assert!(
            same_bits(&parallel.u, &serial.u),
            "parallel sweep diverged from serial"
        );
        assert!(all_finite(&parallel.u));
        assert_eq!(stats.invocations, 12); // 4 loops × 3 steps
    }

    #[test]
    fn block_sweep_matches_serial_on_all_axes() {
        let pool =
            ThreadPool::new(PoolConfig::new(presets::tiny_2x4()).pin(PinMode::Never)).unwrap();
        let n = 8;
        let mut parallel = BtBlockField::new(n);
        let mut serial = BtBlockField::new(n);
        let mut sites = SiteRegistry::new();
        let mut stats = RunStats::new();
        let mut policy = BaselinePolicy;
        for axis in 0..3 {
            block_sweep_native(
                &pool,
                &mut policy,
                &mut parallel,
                &mut sites,
                axis,
                &mut stats,
            );
            serial.sweep_serial(axis);
        }
        let flat_p: Vec<f64> = parallel.u.iter().flatten().copied().collect();
        let flat_s: Vec<f64> = serial.u.iter().flatten().copied().collect();
        assert!(max_abs_diff(&flat_p, &flat_s) < 1e-12);
        assert!(all_finite(&flat_p));
        assert_eq!(stats.invocations, 3);
    }

    #[test]
    fn sim_profile_fits_l3_and_nearly_balanced() {
        let topo = presets::epyc_9354_2s();
        let app = sim_app(&topo, Scale::Quick);
        assert_eq!(app.schedule.len(), 4);
        for site in &app.sites {
            assert!(site.tasks.iter().all(|t| t.fits_l3));
            assert!(site.tasks.iter().all(|t| t.cache_reuse >= 0.28));
        }
    }
}
