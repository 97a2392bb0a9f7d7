//! Dense row-major single-precision matrix type.
//!
//! FCMA stores everything in single precision (the paper's §3.2: "All
//! floating point values are represented in single precision"), so [`Mat`]
//! is an `f32` matrix. It is deliberately small: a contiguous row-major
//! buffer plus shape, with just enough structure (leading-dimension aware
//! writes, row views, transposes) to express the kernels in this crate.
//!
//! Shape errors are programming errors, not recoverable conditions, so the
//! API panics on mismatched dimensions (the same contract as `ndarray` and
//! BLAS wrappers).

use std::fmt;

/// A dense row-major matrix of `f32`.
#[derive(Clone, PartialEq)]
pub struct Mat {
    rows: usize,
    cols: usize,
    data: Vec<f32>,
}

/// `rows * cols`, or a clear panic when the product overflows `usize`
/// (an unchecked multiply would wrap and silently build a matrix with
/// far too small a buffer).
fn checked_len(rows: usize, cols: usize) -> usize {
    rows.checked_mul(cols).unwrap_or_else(|| panic!("Mat: {rows} x {cols} overflows usize"))
}

impl Mat {
    /// Create a `rows × cols` matrix filled with zeros.
    ///
    /// # Panics
    /// Panics if `rows * cols` overflows `usize`.
    pub fn zeros(rows: usize, cols: usize) -> Self {
        Mat { rows, cols, data: vec![0.0; checked_len(rows, cols)] }
    }

    /// Create a matrix from a row-major data vector.
    ///
    /// # Panics
    /// Panics if `data.len() != rows * cols` or the product overflows
    /// `usize`.
    pub fn from_vec(rows: usize, cols: usize, data: Vec<f32>) -> Self {
        assert_eq!(
            data.len(),
            checked_len(rows, cols),
            "Mat::from_vec: data length {} != {}x{}",
            data.len(),
            rows,
            cols
        );
        Mat { rows, cols, data }
    }

    /// Create a matrix by evaluating `f(row, col)` at every position.
    ///
    /// # Panics
    /// Panics if `rows * cols` overflows `usize`.
    pub fn from_fn(rows: usize, cols: usize, mut f: impl FnMut(usize, usize) -> f32) -> Self {
        let mut data = Vec::with_capacity(checked_len(rows, cols));
        for r in 0..rows {
            for c in 0..cols {
                data.push(f(r, c));
            }
        }
        Mat { rows, cols, data }
    }

    /// Number of rows.
    #[inline]
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Number of columns.
    #[inline]
    pub fn cols(&self) -> usize {
        self.cols
    }

    /// Total number of elements.
    #[inline]
    pub fn len(&self) -> usize {
        self.data.len()
    }

    /// True when the matrix holds no elements.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.data.is_empty()
    }

    /// Element at `(row, col)`.
    ///
    /// # Panics
    /// Panics if out of bounds.
    #[inline]
    pub fn get(&self, row: usize, col: usize) -> f32 {
        assert!(row < self.rows && col < self.cols, "Mat::get({row},{col}) out of bounds");
        self.data[row * self.cols + col]
    }

    /// Set element at `(row, col)`.
    ///
    /// # Panics
    /// Panics if out of bounds.
    #[inline]
    pub fn set(&mut self, row: usize, col: usize, v: f32) {
        assert!(row < self.rows && col < self.cols, "Mat::set({row},{col}) out of bounds");
        self.data[row * self.cols + col] = v;
    }

    /// Borrow row `r` as a slice.
    ///
    /// # Panics
    /// If `r >= self.rows()`.
    #[inline]
    pub fn row(&self, r: usize) -> &[f32] {
        assert!(r < self.rows, "Mat::row({r}) out of bounds (rows={})", self.rows);
        &self.data[r * self.cols..(r + 1) * self.cols]
    }

    /// Mutably borrow row `r` as a slice.
    ///
    /// # Panics
    /// If `r >= self.rows()`.
    #[inline]
    pub fn row_mut(&mut self, r: usize) -> &mut [f32] {
        assert!(r < self.rows, "Mat::row_mut({r}) out of bounds (rows={})", self.rows);
        &mut self.data[r * self.cols..(r + 1) * self.cols]
    }

    /// The whole buffer in row-major order.
    #[inline]
    pub fn as_slice(&self) -> &[f32] {
        &self.data
    }

    /// The whole buffer, mutably, in row-major order.
    #[inline]
    pub fn as_mut_slice(&mut self) -> &mut [f32] {
        &mut self.data
    }

    /// A newly allocated transpose.
    // Cannot panic: indices range over self's own dims, in-bounds by construction
    pub fn transposed(&self) -> Mat {
        let mut t = Mat::zeros(self.cols, self.rows);
        for r in 0..self.rows {
            for c in 0..self.cols {
                t.data[c * self.rows + r] = self.data[r * self.cols + c];
            }
        }
        t
    }

    /// Maximum absolute elementwise difference against `other`.
    ///
    /// # Panics
    /// Panics if shapes differ.
    pub fn max_abs_diff(&self, other: &Mat) -> f32 {
        assert_eq!(self.rows, other.rows, "max_abs_diff: row mismatch");
        assert_eq!(self.cols, other.cols, "max_abs_diff: col mismatch");
        self.data.iter().zip(&other.data).map(|(a, b)| (a - b).abs()).fold(0.0f32, f32::max)
    }

    /// Fill the matrix with a constant value.
    pub fn fill(&mut self, v: f32) {
        self.data.fill(v);
    }
}

impl fmt::Debug for Mat {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "Mat {}x{} [", self.rows, self.cols)?;
        let max_show = 8;
        for r in 0..self.rows.min(max_show) {
            write!(f, "  [")?;
            for c in 0..self.cols.min(max_show) {
                write!(f, "{:>10.4}", self.get(r, c))?;
                if c + 1 < self.cols.min(max_show) {
                    write!(f, ", ")?;
                }
            }
            if self.cols > max_show {
                write!(f, ", ...")?;
            }
            writeln!(f, "]")?;
        }
        if self.rows > max_show {
            writeln!(f, "  ...")?;
        }
        write!(f, "]")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn zeros_has_right_shape_and_contents() {
        let m = Mat::zeros(3, 5);
        assert_eq!(m.rows(), 3);
        assert_eq!(m.cols(), 5);
        assert_eq!(m.len(), 15);
        assert!(m.as_slice().iter().all(|&v| v == 0.0));
    }

    #[test]
    fn from_fn_indexes_row_major() {
        let m = Mat::from_fn(2, 3, |r, c| (r * 10 + c) as f32);
        assert_eq!(m.as_slice(), &[0.0, 1.0, 2.0, 10.0, 11.0, 12.0]);
        assert_eq!(m.get(1, 2), 12.0);
    }

    #[test]
    #[should_panic(expected = "data length")]
    fn from_vec_rejects_bad_length() {
        let _ = Mat::from_vec(2, 2, vec![1.0; 3]);
    }

    #[test]
    fn get_set_roundtrip() {
        let mut m = Mat::zeros(4, 4);
        m.set(2, 3, 7.5);
        assert_eq!(m.get(2, 3), 7.5);
        assert_eq!(m.get(3, 2), 0.0);
    }

    #[test]
    #[should_panic(expected = "out of bounds")]
    fn get_out_of_bounds_panics() {
        let m = Mat::zeros(2, 2);
        let _ = m.get(2, 0);
    }

    #[test]
    fn row_views_are_contiguous() {
        let m = Mat::from_fn(3, 4, |r, c| (r * 4 + c) as f32);
        assert_eq!(m.row(1), &[4.0, 5.0, 6.0, 7.0]);
    }

    #[test]
    fn row_mut_writes_through() {
        let mut m = Mat::zeros(2, 2);
        m.row_mut(1).copy_from_slice(&[3.0, 4.0]);
        assert_eq!(m.get(1, 0), 3.0);
        assert_eq!(m.get(1, 1), 4.0);
    }

    #[test]
    fn transpose_roundtrips() {
        let m = Mat::from_fn(3, 5, |r, c| (r * 100 + c) as f32);
        let t = m.transposed();
        assert_eq!(t.rows(), 5);
        assert_eq!(t.cols(), 3);
        assert_eq!(t.get(4, 2), m.get(2, 4));
        assert_eq!(t.transposed(), m);
    }

    #[test]
    fn max_abs_diff_is_the_largest_elementwise_gap() {
        let a = Mat::from_vec(1, 3, vec![1.0, 2.0, 2.0]);
        let b = Mat::from_vec(1, 3, vec![1.0, 0.0, 2.0]);
        assert_eq!(a.max_abs_diff(&b), 2.0);
    }

    #[test]
    #[should_panic(expected = "overflows usize")]
    fn zeros_rejects_overflowing_shape() {
        // usize::MAX x 2 wraps to usize::MAX - 1 if multiplied unchecked;
        // the constructor must panic with a clear message instead.
        let _ = Mat::zeros(usize::MAX, 2);
    }

    #[test]
    #[should_panic(expected = "overflows usize")]
    fn from_vec_rejects_overflowing_shape() {
        // Unchecked, (MAX/2 + 1) * 2 wraps to exactly 0 and an empty data
        // vector would pass the length check, fabricating a matrix whose
        // indexing math is garbage.
        let _ = Mat::from_vec(usize::MAX / 2 + 1, 2, Vec::new());
    }

    #[test]
    #[should_panic(expected = "overflows usize")]
    fn from_fn_rejects_overflowing_shape() {
        let _ = Mat::from_fn(usize::MAX, 3, |_, _| 0.0);
    }
}
