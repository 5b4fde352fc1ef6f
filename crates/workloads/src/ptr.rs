//! [`SyncSlice`]: shared mutable access to disjoint slice regions.
//!
//! Taskloop bodies receive disjoint iteration ranges, so concurrent chunks
//! write non-overlapping elements of output arrays. Rust's borrow checker
//! cannot see that disjointness through a `Fn(Range<usize>)` closure, so the
//! native kernels use this minimal wrapper — the same role
//! `rayon::slice::chunks_mut` plays, but compatible with an index-based
//! taskloop API.

use std::cell::UnsafeCell;

/// A slice that may be written concurrently **at disjoint indices**.
///
/// # Safety contract
/// Callers must guarantee that no two threads access the same index
/// concurrently and that no other reference to the underlying slice is used
/// for the wrapper's lifetime. Taskloop chunking guarantees the former for
/// bodies that only touch their own range.
pub struct SyncSlice<'a, T> {
    data: &'a [UnsafeCell<T>],
}

// SAFETY: access discipline is delegated to the caller per the contract
// above; with disjoint indices there are no data races.
unsafe impl<T: Send> Send for SyncSlice<'_, T> {}
unsafe impl<T: Send> Sync for SyncSlice<'_, T> {}

impl<'a, T> SyncSlice<'a, T> {
    /// Wraps a mutable slice.
    pub fn new(slice: &'a mut [T]) -> Self {
        // SAFETY: `&mut [T]` guarantees unique ownership; `UnsafeCell<T>` has
        // the same layout as `T`.
        let data = unsafe {
            std::slice::from_raw_parts(slice.as_mut_ptr().cast::<UnsafeCell<T>>(), slice.len())
        };
        SyncSlice { data }
    }

    /// Length of the underlying slice.
    pub fn len(&self) -> usize {
        self.data.len()
    }

    /// Whether the slice is empty.
    pub fn is_empty(&self) -> bool {
        self.data.is_empty()
    }

    /// Writes `value` at `index`.
    ///
    /// # Safety
    /// No other thread may access `index` concurrently.
    #[inline]
    pub unsafe fn write(&self, index: usize, value: T) {
        // SAFETY: delegated to the caller (disjoint-index contract).
        unsafe { *self.data[index].get() = value }
    }

    /// Reads the value at `index`.
    ///
    /// # Safety
    /// No other thread may write `index` concurrently.
    #[inline]
    pub unsafe fn read(&self, index: usize) -> T
    where
        T: Copy,
    {
        // SAFETY: delegated to the caller (disjoint-index contract).
        unsafe { *self.data[index].get() }
    }

    /// Returns a mutable reference to the element at `index`.
    ///
    /// # Safety
    /// No other thread may access `index` for the reference's lifetime.
    #[inline]
    #[allow(clippy::mut_from_ref)]
    pub unsafe fn get_mut(&self, index: usize) -> &mut T {
        // SAFETY: delegated to the caller (disjoint-index contract).
        unsafe { &mut *self.data[index].get() }
    }

    /// Returns the elements in `range` as one mutable slice.
    ///
    /// # Safety
    /// No other thread may access any index in `range` for the slice's
    /// lifetime.
    #[inline]
    #[allow(clippy::mut_from_ref)]
    pub unsafe fn slice_mut(&self, range: std::ops::Range<usize>) -> &mut [T] {
        let cells = &self.data[range];
        // SAFETY: UnsafeCell<T> is layout-compatible with T; exclusive
        // access to the range is delegated to the caller.
        unsafe { std::slice::from_raw_parts_mut(UnsafeCell::raw_get(cells.as_ptr()), cells.len()) }
    }

    /// Views the whole underlying slice immutably — for stencil kernels that
    /// read stable neighbours while writing disjoint points.
    ///
    /// # Safety
    /// Indices read through the returned slice must not be written
    /// concurrently by any thread (e.g. wavefront ordering guarantees the
    /// neighbours read are from already-completed diagonals).
    #[inline]
    pub unsafe fn as_slice(&self) -> &[T] {
        // SAFETY: UnsafeCell<T> is layout-compatible with T; aliasing
        // discipline is delegated to the caller per the contract above.
        unsafe { std::slice::from_raw_parts(self.data.as_ptr().cast::<T>(), self.data.len()) }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disjoint_writes_visible_after_join() {
        let mut v = vec![0usize; 1000];
        {
            let s = SyncSlice::new(&mut v);
            std::thread::scope(|scope| {
                for t in 0..4 {
                    let s = &s;
                    scope.spawn(move || {
                        for i in (t * 250)..((t + 1) * 250) {
                            // SAFETY: each thread owns its own quarter.
                            unsafe { s.write(i, i * 2) };
                        }
                    });
                }
            });
        }
        assert!(v.iter().enumerate().all(|(i, &x)| x == i * 2));
    }

    #[test]
    fn read_write_roundtrip() {
        let mut v = vec![1.5f64; 4];
        let s = SyncSlice::new(&mut v);
        // SAFETY: single-threaded here.
        unsafe {
            s.write(2, 7.25);
            assert_eq!(s.read(2), 7.25);
            *s.get_mut(0) += 1.0;
            assert_eq!(s.read(0), 2.5);
        }
        assert_eq!(s.len(), 4);
        assert!(!s.is_empty());
    }
}
