//! **Matmul** — dense matrix multiplication.
//!
//! The paper's control benchmark: high arithmetic intensity, perfect
//! scaling, cache-blocked access. NUMA-aware optimisation has nothing to
//! offer, so ILAN shows a *slight* performance reduction — the cost of the
//! exploration phase plus per-invocation configuration selection — and a
//! predictable increase in scheduling overhead (Figure 5). Reproducing this
//! regression honestly matters as much as reproducing the wins.
//!
//! Native kernel: `C = A·B` as a taskloop over rows, iterated like the
//! paper's 200-iteration kernel loop. Each chunk computes its rows in
//! register tiles of 2 rows × 8 columns, so a B row segment is loaded once
//! for two rows instead of once per row. The sum order over `k` is the
//! textbook one, so the result is bitwise that of the naive i-k-j loop
//! (kept in the tests as the oracle).

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
    // Compute-bound: memory stream is a trickle next to the FLOPs; blocked
    // access keeps it in cache. Perfectly balanced.
    let gemm = SimSite {
        name: "matmul/gemm",
        tasks: blocked_tasks(
            topology,
            chunks,
            1_300_000.0,
            550_000.0,
            Locality::Chunked,
            0.45,
            true,
            |_| 1.0,
        ),
    };
    SimApp {
        name: "Matmul",
        sites: vec![gemm],
        schedule: vec![0],
        steps: scale.steps(200),
        serial_ns: 200_000.0,
    }
}

/// A row-major square matrix.
#[derive(Clone, Debug, PartialEq)]
pub struct Matrix {
    /// Dimension.
    pub n: usize,
    /// Row-major data.
    pub data: Vec<f64>,
}

impl Matrix {
    /// Zero matrix.
    pub fn zeros(n: usize) -> Matrix {
        Matrix {
            n,
            data: vec![0.0; n * n],
        }
    }

    /// Deterministic pseudo-random matrix with entries in `[-0.5, 0.5)`.
    pub fn random(n: usize, seed: u64) -> Matrix {
        let mut state = seed | 1;
        let data = (0..n * n)
            .map(|_| {
                state ^= state << 13;
                state ^= state >> 7;
                state ^= state << 17;
                (state >> 11) as f64 / (1u64 << 53) as f64 - 0.5
            })
            .collect();
        Matrix { n, data }
    }

    /// Serial `C = A·B`: the register-tiled kernel that the taskloop body of
    /// [`mul_native`] runs on its chunk of rows, here over every row.
    pub fn mul_serial(&self, b: &Matrix) -> Matrix {
        assert_eq!(self.n, b.n, "dimension mismatch");
        let mut c = Matrix::zeros(self.n);
        // SAFETY: only this thread sees `c`.
        unsafe { mul_rows(self, b, 0..self.n, &SyncSlice::new(&mut c.data)) };
        c
    }
}

/// Rows per register tile.
const TILE_ROWS: usize = 2;
/// Columns per register tile.
const TILE_COLS: usize = 8;

/// Writes rows `rows` of `C = A·B` into `c`.
///
/// Rows go in tiles of [`TILE_ROWS`] × [`TILE_COLS`] accumulators held in
/// registers: each 8-wide segment of a B row is loaded once and used by
/// both rows of the tile. An odd last row runs as a one-row tile, and the
/// columns past the last full tile run in a plain loop. Every `c[i][j]`
/// starts at `0.0` and adds `a[i][k]·b[k][j]` for `k = 0, 1, …` in order,
/// so it is bitwise the textbook i-k-j sum.
///
/// # Safety
/// No other thread may access rows `rows` of `c` during the call.
unsafe fn mul_rows(a: &Matrix, b: &Matrix, rows: Range<usize>, c: &SyncSlice<'_, f64>) {
    let n = a.n;
    let full = n - n % TILE_COLS;
    let mut i = rows.start;
    while i + TILE_ROWS <= rows.end {
        // SAFETY: rows i..i + TILE_ROWS lie in `rows`.
        unsafe { tile_rows::<TILE_ROWS>(a, b, i, full, c) };
        i += TILE_ROWS;
    }
    for i in i..rows.end {
        // SAFETY: row i lies in `rows`.
        unsafe { tile_rows::<1>(a, b, i, full, c) };
    }
}

/// Rows `i..i + R` of `C`: register tiles over the first `full` columns,
/// then the column tail.
///
/// # Safety
/// No other thread may access rows `i..i + R` of `c` during the call.
#[inline(always)]
unsafe fn tile_rows<const R: usize>(
    a: &Matrix,
    b: &Matrix,
    i: usize,
    full: usize,
    c: &SyncSlice<'_, f64>,
) {
    let n = a.n;
    let a_rows: [&[f64]; R] = std::array::from_fn(|r| &a.data[(i + r) * n..(i + r + 1) * n]);
    for j in (0..full).step_by(TILE_COLS) {
        let mut acc = [[0.0f64; TILE_COLS]; R];
        for k in 0..n {
            let seg: &[f64; TILE_COLS] = b.data[k * n + j..k * n + j + TILE_COLS]
                .try_into()
                .expect("a full tile is TILE_COLS wide");
            for (acc_r, a_r) in acc.iter_mut().zip(&a_rows) {
                let aik = a_r[k];
                for (x, bv) in acc_r.iter_mut().zip(seg) {
                    *x += aik * bv;
                }
            }
        }
        for (r, acc_r) in acc.iter().enumerate() {
            for (t, &v) in acc_r.iter().enumerate() {
                // SAFETY: the caller owns rows i..i + R.
                unsafe { c.write((i + r) * n + j + t, v) };
            }
        }
    }
    for (r, a_r) in a_rows.iter().enumerate() {
        for j in full..n {
            let mut x = 0.0f64;
            for (k, aik) in a_r.iter().enumerate() {
                x += aik * b.data[k * n + j];
            }
            // SAFETY: the caller owns rows i..i + R.
            unsafe { c.write((i + r) * n + j, x) };
        }
    }
}

/// Parallel `C = A·B` on the native runtime: a taskloop over rows whose
/// body computes its rows in 2 × 8 register tiles, the kernel
/// [`Matrix::mul_serial`] runs over all rows.
pub fn mul_native(
    pool: &ThreadPool,
    policy: &mut dyn Policy,
    a: &Matrix,
    b: &Matrix,
    sites: &mut SiteRegistry,
    stats: &mut RunStats,
) -> Matrix {
    assert_eq!(a.n, b.n, "dimension mismatch");
    let n = a.n;
    let mut c = Matrix::zeros(n);
    let site = sites.site("matmul/gemm");
    let grain = (n / 64).max(1);
    let out = SyncSlice::new(&mut c.data);
    let (_, rep) = run_native_invocation(pool, policy, site, 0..n, grain, |rows| {
        // SAFETY: chunks own disjoint rows.
        unsafe { mul_rows(a, b, rows, &out) }
    });
    stats.add(&rep);
    c
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::verify::{max_abs_diff, same_bits};
    use ilan::{BaselinePolicy, IlanParams, IlanScheduler};
    use ilan_runtime::{PinMode, PoolConfig};
    use ilan_topology::presets;
    use proptest::prelude::*;

    /// The textbook i-k-j product, the oracle the tiled kernel must match
    /// bit for bit.
    fn mul_naive(a: &Matrix, b: &Matrix) -> Matrix {
        let n = a.n;
        let mut c = Matrix::zeros(n);
        for i in 0..n {
            for k in 0..n {
                let aik = a.data[i * n + k];
                for j in 0..n {
                    c.data[i * n + j] += aik * b.data[k * n + j];
                }
            }
        }
        c
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        /// Any row range, at any offset and of any length (tile tails in
        /// both directions included), writes exactly the oracle's rows.
        #[test]
        fn tiled_rows_match_naive_bitwise(
            n in 1usize..40,
            seed in any::<u64>(),
            lo in 0.0f64..1.0,
            hi in 0.0f64..1.0,
        ) {
            let a = Matrix::random(n, seed);
            let b = Matrix::random(n, seed ^ 0x9E37_79B9);
            let (lo, hi) = ((lo * n as f64) as usize, (hi * n as f64) as usize);
            let rows = lo.min(hi)..lo.max(hi) + 1;
            let mut c = Matrix::zeros(n);
            // SAFETY: only this thread sees `c`.
            unsafe { mul_rows(&a, &b, rows.clone(), &SyncSlice::new(&mut c.data)) };
            let mut expected = mul_naive(&a, &b);
            for (i, row) in expected.data.chunks_mut(n).enumerate() {
                if !rows.contains(&i) {
                    row.fill(0.0);
                }
            }
            prop_assert!(same_bits(&c.data, &expected.data), "n={} rows={:?}", n, rows);
            prop_assert!(same_bits(&a.mul_serial(&b).data, &mul_naive(&a, &b).data));
        }
    }

    #[test]
    fn serial_identity() {
        let n = 8;
        let mut eye = Matrix::zeros(n);
        for i in 0..n {
            eye.data[i * n + i] = 1.0;
        }
        let a = Matrix::random(n, 3);
        let c = a.mul_serial(&eye);
        assert!(max_abs_diff(&c.data, &a.data) < 1e-15);
    }

    #[test]
    fn parallel_matches_serial() {
        let pool =
            ThreadPool::new(PoolConfig::new(presets::tiny_2x4()).pin(PinMode::Never)).unwrap();
        let a = Matrix::random(48, 1);
        let b = Matrix::random(48, 2);
        let reference = a.mul_serial(&b);
        let mut sites = SiteRegistry::new();
        let mut stats = RunStats::new();
        let mut policy = BaselinePolicy;
        let c = mul_native(&pool, &mut policy, &a, &b, &mut sites, &mut stats);
        assert!(same_bits(&c.data, &reference.data));
        assert!(same_bits(&reference.data, &mul_naive(&a, &b).data));
        assert_eq!(stats.invocations, 1);
    }

    #[test]
    fn repeated_iterations_under_ilan_stay_correct() {
        let topo = presets::tiny_2x4();
        let pool = ThreadPool::new(PoolConfig::new(topo.clone()).pin(PinMode::Never)).unwrap();
        let a = Matrix::random(32, 5);
        let b = Matrix::random(32, 6);
        let reference = a.mul_serial(&b);
        let mut sites = SiteRegistry::new();
        let mut stats = RunStats::new();
        let mut ilan = IlanScheduler::new(IlanParams::for_topology(&topo));
        // Enough iterations to take ILAN through search + trial + settle.
        for _ in 0..10 {
            let c = mul_native(&pool, &mut ilan, &a, &b, &mut sites, &mut stats);
            assert!(max_abs_diff(&c.data, &reference.data) < 1e-12);
        }
        assert_eq!(stats.invocations, 10);
    }

    #[test]
    #[should_panic(expected = "dimension mismatch")]
    fn rejects_mismatched_dims() {
        let a = Matrix::random(4, 1);
        let b = Matrix::random(5, 2);
        a.mul_serial(&b);
    }

    #[test]
    fn sim_profile_is_compute_bound() {
        let topo = presets::epyc_9354_2s();
        let app = sim_app(&topo, Scale::Quick);
        let gemm = &app.sites[0];
        for t in &gemm.tasks {
            let mem_ns = t.mem_bytes / 22.0;
            assert!(
                t.compute_ns > 10.0 * mem_ns,
                "matmul must be compute-dominated"
            );
        }
    }
}
