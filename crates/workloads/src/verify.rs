//! Numerical verification helpers shared by the native kernels.

/// Maximum absolute element-wise difference between two slices.
///
/// # Panics
/// Panics if the slices have different lengths.
pub fn max_abs_diff(a: &[f64], b: &[f64]) -> f64 {
    assert_eq!(a.len(), b.len(), "slices must have equal length");
    a.iter()
        .zip(b)
        .map(|(x, y)| (x - y).abs())
        .fold(0.0, f64::max)
}

/// Relative L2 error `‖a − b‖ / ‖b‖` (absolute L2 if `b` is zero).
///
/// # Panics
/// Panics if the slices have different lengths.
pub fn rel_l2_error(a: &[f64], b: &[f64]) -> f64 {
    assert_eq!(a.len(), b.len(), "slices must have equal length");
    let num: f64 = a
        .iter()
        .zip(b)
        .map(|(x, y)| (x - y) * (x - y))
        .sum::<f64>()
        .sqrt();
    let den: f64 = b.iter().map(|y| y * y).sum::<f64>().sqrt();
    if den > 0.0 {
        num / den
    } else {
        num
    }
}

/// Whether the slices hold the same values bit for bit (`-0.0 ≠ 0.0`, and a
/// NaN equals a NaN with the same payload): the kernels' oracle tests'
/// comparison.
#[cfg(test)]
pub(crate) fn same_bits(a: &[f64], b: &[f64]) -> bool {
    a.len() == b.len() && a.iter().zip(b).all(|(x, y)| x.to_bits() == y.to_bits())
}

/// Whether every element is finite (no NaN/∞ escaped the kernel).
pub fn all_finite(a: &[f64]) -> bool {
    a.iter().all(|x| x.is_finite())
}

/// `len` seeded pseudo-random values in `[0.5, 1.5)`, the kernels' oracle
/// tests' inputs.
#[cfg(test)]
pub(crate) fn seeded_field(len: usize, seed: u64) -> Vec<f64> {
    let mut state = seed | 1;
    (0..len)
        .map(|_| {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            (state >> 11) as f64 / (1u64 << 53) as f64 + 0.5
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn max_abs_diff_basic() {
        assert_eq!(max_abs_diff(&[1.0, 2.0], &[1.0, 2.5]), 0.5);
        assert_eq!(max_abs_diff(&[], &[]), 0.0);
    }

    #[test]
    fn rel_l2_basic() {
        assert!((rel_l2_error(&[3.0, 4.0], &[0.0, 0.0]) - 5.0).abs() < 1e-12);
        assert!(rel_l2_error(&[1.0, 1.0], &[1.0, 1.0]) < 1e-15);
    }

    #[test]
    fn finite_detection() {
        assert!(all_finite(&[0.0, -1.0, 1e300]));
        assert!(!all_finite(&[0.0, f64::NAN]));
        assert!(!all_finite(&[f64::INFINITY]));
    }

    #[test]
    fn same_bits_tells_signed_zeros_apart() {
        assert!(same_bits(&[1.0, f64::NAN], &[1.0, f64::NAN]));
        assert!(!same_bits(&[0.0], &[-0.0]));
        assert!(!same_bits(&[1.0], &[1.0, 2.0]));
    }

    #[test]
    #[should_panic(expected = "equal length")]
    fn mismatched_lengths_panic() {
        max_abs_diff(&[1.0], &[1.0, 2.0]);
    }
}
