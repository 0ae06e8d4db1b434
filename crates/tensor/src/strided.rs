//! A mutable view of a row-major block whose rows sit a fixed stride
//! apart: a whole matrix, or a band of its columns.
//!
//! A split GEMM that cuts the weight hands each band the columns of the
//! output that band computes: `rows` runs of `cols` floats, one a row of
//! the whole output. No slice can hold such a band without holding its
//! neighbours' columns too, so two bands would alias. [`StridedMut`]
//! holds exactly its own elements instead, and [`StridedMut::split_cols`]
//! cuts one view into two that share none.

use std::marker::PhantomData;

/// `rows x cols` floats of a row-major block, row `r` starting `r * ld`
/// floats past the first: the whole matrix (`ld == cols`) or a band of
/// its columns (`cols <= ld`). Borrowed mutably, like `&mut [f32]`.
///
/// Invariant: element `(r, c)`, `r < rows` and `c < cols`, is at
/// `ptr + r * ld + c`, inside the one slice the view was made from, and
/// no other view made from that slice reaches it.
pub(crate) struct StridedMut<'a> {
    ptr: *mut f32,
    rows: usize,
    cols: usize,
    ld: usize,
    _data: PhantomData<&'a mut [f32]>,
}

// SAFETY: a view is the only path to its elements (the invariant above),
// as a `&mut [f32]` is, and `f32` is `Send`: moving the view to another
// thread moves that unique access with it. Its fields are a pointer into
// the borrowed slice and three plain counts.
unsafe impl Send for StridedMut<'_> {}

impl<'a> StridedMut<'a> {
    /// The whole `rows x cols` row-major matrix in `data`.
    ///
    /// # Panics
    ///
    /// Panics if `data` does not hold exactly `rows * cols` floats.
    pub(crate) fn new(data: &'a mut [f32], rows: usize, cols: usize) -> Self {
        assert_eq!(Some(data.len()), rows.checked_mul(cols), "view shape");
        Self {
            ptr: data.as_mut_ptr(),
            rows,
            cols,
            ld: cols,
            _data: PhantomData,
        }
    }

    pub(crate) fn rows(&self) -> usize {
        self.rows
    }

    pub(crate) fn cols(&self) -> usize {
        self.cols
    }

    /// Cuts the view into columns `..at` and columns `at..`.
    ///
    /// # Panics
    ///
    /// Panics if `at > cols`.
    pub(crate) fn split_cols(self, at: usize) -> (Self, Self) {
        assert!(at <= self.cols, "split at column {at} of {}", self.cols);
        let right = Self {
            // Not dereferenced unless the right half has a column, and
            // then inside the slice (the invariant); `wrapping_add` keeps
            // the arithmetic defined when it has none.
            ptr: self.ptr.wrapping_add(at),
            cols: self.cols - at,
            ..self
        };
        (Self { cols: at, ..self }, right)
    }

    /// Row `r`: its `cols` floats.
    ///
    /// # Panics
    ///
    /// Panics if `r >= rows`.
    pub(crate) fn row(&mut self, r: usize) -> &mut [f32] {
        assert!(r < self.rows, "row {r} of {}", self.rows);
        // SAFETY: by the invariant, the `cols` floats from `ptr + r * ld`
        // are elements `(r, 0..cols)`: inside the borrowed slice, and
        // reached by no other view. `&mut self` keeps this view from
        // handing out a second path to them while the row is borrowed.
        unsafe { std::slice::from_raw_parts_mut(self.ptr.wrapping_add(r * self.ld), self.cols) }
    }

    /// The address of element `(r, c)`, the first of a `rows x cols` tile
    /// that a kernel writes through raw pointers, with the view's row
    /// stride `ld`: the tile's rows are exactly `ld` floats apart, and no
    /// other stride comes with the corner. Only elements of this view may
    /// be written through it, and only while `self` stays borrowed. Debug
    /// builds check that the tile fits the view.
    pub(crate) fn at(&mut self, r: usize, c: usize, rows: usize, cols: usize) -> (*mut f32, usize) {
        debug_assert!(
            r + rows <= self.rows && c + cols <= self.cols,
            "a {rows} x {cols} tile at ({r}, {c}) of a {} x {} view",
            self.rows,
            self.cols
        );
        (self.ptr.wrapping_add(r * self.ld + c), self.ld)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn column_bands_reach_their_own_elements_only() {
        let mut data: Vec<f32> = (0..3 * 7).map(|v| v as f32).collect();
        let (mut left, rest) = StridedMut::new(&mut data, 3, 7).split_cols(2);
        let (mut mid, mut right) = rest.split_cols(4);
        assert_eq!((left.cols(), mid.cols(), right.cols()), (2, 4, 1));
        let ld = |v: &mut StridedMut<'_>| v.at(0, 0, 0, 0).1;
        assert!([ld(&mut left), ld(&mut mid), ld(&mut right)] == [7; 3]);
        assert_eq!(mid.row(1), &[9.0, 10.0, 11.0, 12.0]);
        for r in 0..3 {
            left.row(r).fill(-1.0);
            mid.row(r).fill(-2.0);
            right.row(r).fill(-3.0);
        }
        let want = [-1.0, -1.0, -2.0, -2.0, -2.0, -2.0, -3.0];
        assert!(data.chunks(7).all(|row| row == want));
    }

    #[test]
    fn empty_views_split_and_index_nothing() {
        let mut none: [f32; 0] = [];
        let (a, b) = StridedMut::new(&mut none, 0, 5).split_cols(5);
        assert_eq!((a.rows(), a.cols(), b.cols()), (0, 5, 0));
        let mut one = [1.0f32; 4];
        let (mut a, mut b) = StridedMut::new(&mut one, 2, 2).split_cols(0);
        assert_eq!(a.row(1), &[] as &[f32]);
        assert_eq!(b.row(1), &[1.0, 1.0]);
    }

    #[test]
    #[cfg(debug_assertions)]
    #[should_panic(expected = "a 3 x 3 tile at (1, 0) of a 3 x 3 view")]
    fn a_tile_past_the_view_is_caught_in_debug_builds() {
        let mut data = [0.0f32; 12];
        let (_, mut right) = StridedMut::new(&mut data, 3, 4).split_cols(1);
        right.at(0, 0, 3, 3);
        right.at(1, 0, 3, 3);
    }
}
