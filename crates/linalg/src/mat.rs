//! Dense row-major matrices over `f64`.

use rayon::prelude::*;
use std::fmt;
use std::ops::{Add, Index, IndexMut, Mul, Sub};

/// Element count above which matmul parallelises over output rows.
const PAR_MATMUL_THRESHOLD: usize = 64 * 64;

/// A dense row-major matrix.
#[derive(Clone, Debug, PartialEq)]
pub struct Mat {
    rows: usize,
    cols: usize,
    data: Vec<f64>,
}

impl Mat {
    /// Zero matrix of the given shape.
    pub fn zeros(rows: usize, cols: usize) -> Self {
        assert!(rows > 0 && cols > 0, "matrix dimensions must be positive");
        Mat {
            rows,
            cols,
            data: vec![0.0; rows * cols],
        }
    }

    /// Identity matrix.
    pub fn eye(n: usize) -> Self {
        let mut m = Self::zeros(n, n);
        for i in 0..n {
            m[(i, i)] = 1.0;
        }
        m
    }

    /// Builds from a flat row-major buffer.
    pub fn from_vec(rows: usize, cols: usize, data: Vec<f64>) -> Self {
        assert_eq!(data.len(), rows * cols, "buffer length mismatch");
        Mat { rows, cols, data }
    }

    /// Builds from nested rows.
    pub fn from_rows(rows: &[Vec<f64>]) -> Self {
        assert!(!rows.is_empty());
        let cols = rows[0].len();
        assert!(rows.iter().all(|r| r.len() == cols), "ragged rows");
        Mat {
            rows: rows.len(),
            cols,
            data: rows.concat(),
        }
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

    /// Shape as `(rows, cols)`.
    #[inline]
    pub fn shape(&self) -> (usize, usize) {
        (self.rows, self.cols)
    }

    /// Flat row-major data.
    #[inline]
    pub fn data(&self) -> &[f64] {
        &self.data
    }

    /// Mutable flat data.
    #[inline]
    pub fn data_mut(&mut self) -> &mut [f64] {
        &mut self.data
    }

    /// A view of row `i`.
    #[inline]
    pub fn row(&self, i: usize) -> &[f64] {
        &self.data[i * self.cols..(i + 1) * self.cols]
    }

    /// Mutable view of row `i`.
    #[inline]
    pub fn row_mut(&mut self, i: usize) -> &mut [f64] {
        &mut self.data[i * self.cols..(i + 1) * self.cols]
    }

    /// Transpose.
    pub fn transpose(&self) -> Mat {
        let mut t = Mat::zeros(self.cols, self.rows);
        for i in 0..self.rows {
            for j in 0..self.cols {
                t[(j, i)] = self[(i, j)];
            }
        }
        t
    }

    /// Matrix product, parallelised over output rows for large problems.
    pub fn matmul(&self, rhs: &Mat) -> Mat {
        assert_eq!(self.cols, rhs.rows, "matmul shape mismatch");
        let mut out = Mat::zeros(self.rows, rhs.cols);
        let n = rhs.cols;
        let k_dim = self.cols;
        let work = |i: usize, out_row: &mut [f64]| {
            let a_row = self.row(i);
            // i-k-j loop order: streams through rhs rows, cache-friendly.
            for (k, &aik) in a_row.iter().enumerate().take(k_dim) {
                if aik == 0.0 {
                    continue;
                }
                let b_row = rhs.row(k);
                for j in 0..n {
                    out_row[j] += aik * b_row[j];
                }
            }
        };
        if self.rows * rhs.cols >= PAR_MATMUL_THRESHOLD {
            out.data
                .par_chunks_mut(n)
                .enumerate()
                .for_each(|(i, row)| work(i, row));
        } else {
            for i in 0..self.rows {
                let row = &mut out.data[i * n..(i + 1) * n];
                work(i, row);
            }
        }
        out
    }

    /// Matrix–vector product.
    pub fn matvec(&self, v: &[f64]) -> Vec<f64> {
        assert_eq!(self.cols, v.len(), "matvec shape mismatch");
        (0..self.rows)
            .map(|i| self.row(i).iter().zip(v.iter()).map(|(a, b)| a * b).sum())
            .collect()
    }

    /// `Aᵀ v` without forming the transpose.
    pub fn t_matvec(&self, v: &[f64]) -> Vec<f64> {
        assert_eq!(self.rows, v.len(), "t_matvec shape mismatch");
        let mut out = vec![0.0; self.cols];
        for i in 0..self.rows {
            let vi = v[i];
            if vi == 0.0 {
                continue;
            }
            for (o, &a) in out.iter_mut().zip(self.row(i)) {
                *o += vi * a;
            }
        }
        out
    }

    /// Scales all entries.
    pub fn scale(&self, s: f64) -> Mat {
        let mut out = self.clone();
        for x in out.data.iter_mut() {
            *x *= s;
        }
        out
    }

    /// Frobenius norm `‖A‖_F`.
    pub fn norm_fro(&self) -> f64 {
        self.data.iter().map(|x| x * x).sum::<f64>().sqrt()
    }

    /// Max element-wise difference to another matrix.
    pub fn max_abs_diff(&self, rhs: &Mat) -> f64 {
        assert_eq!(self.shape(), rhs.shape());
        self.data
            .iter()
            .zip(rhs.data.iter())
            .map(|(a, b)| (a - b).abs())
            .fold(0.0, f64::max)
    }

    /// Whether every entry is finite.
    pub fn is_finite(&self) -> bool {
        self.data.iter().all(|x| x.is_finite())
    }
}

impl Index<(usize, usize)> for Mat {
    type Output = f64;
    #[inline]
    fn index(&self, (i, j): (usize, usize)) -> &f64 {
        debug_assert!(i < self.rows && j < self.cols);
        &self.data[i * self.cols + j]
    }
}

impl IndexMut<(usize, usize)> for Mat {
    #[inline]
    fn index_mut(&mut self, (i, j): (usize, usize)) -> &mut f64 {
        debug_assert!(i < self.rows && j < self.cols);
        &mut self.data[i * self.cols + j]
    }
}

impl Add for &Mat {
    type Output = Mat;
    fn add(self, rhs: &Mat) -> Mat {
        assert_eq!(self.shape(), rhs.shape());
        let mut out = self.clone();
        for (o, r) in out.data.iter_mut().zip(rhs.data.iter()) {
            *o += r;
        }
        out
    }
}

impl Sub for &Mat {
    type Output = Mat;
    fn sub(self, rhs: &Mat) -> Mat {
        assert_eq!(self.shape(), rhs.shape());
        let mut out = self.clone();
        for (o, r) in out.data.iter_mut().zip(rhs.data.iter()) {
            *o -= r;
        }
        out
    }
}

impl Mul for &Mat {
    type Output = Mat;
    fn mul(self, rhs: &Mat) -> Mat {
        self.matmul(rhs)
    }
}

impl fmt::Display for Mat {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "Mat {}×{}:", self.rows, self.cols)?;
        for i in 0..self.rows.min(8) {
            write!(f, "  [")?;
            for j in 0..self.cols.min(8) {
                write!(f, "{:>10.4}", self[(i, j)])?;
            }
            if self.cols > 8 {
                write!(f, " …")?;
            }
            writeln!(f, " ]")?;
        }
        if self.rows > 8 {
            writeln!(f, "  ⋮")?;
        }
        Ok(())
    }
}

/// Euclidean norm of a vector.
pub fn vec_norm2(v: &[f64]) -> f64 {
    v.iter().map(|x| x * x).sum::<f64>().sqrt()
}

/// Dot product over 8 independent accumulators, so the adds pipeline
/// instead of forming one latency-bound chain. Element `i` always lands
/// in accumulator `i % 8` and the accumulators combine in a fixed tree,
/// so the result depends only on the inputs.
pub fn dot(a: &[f64], b: &[f64]) -> f64 {
    assert_eq!(a.len(), b.len(), "dot length mismatch");
    let mut acc = [0.0; 8];
    let (a8, b8) = (a.chunks_exact(8), b.chunks_exact(8));
    let (ra, rb) = (a8.remainder(), b8.remainder());
    for (x, y) in a8.zip(b8) {
        for ((s, x), y) in acc.iter_mut().zip(x).zip(y) {
            *s += x * y;
        }
    }
    for ((s, x), y) in acc.iter_mut().zip(ra).zip(rb) {
        *s += x * y;
    }
    ((acc[0] + acc[1]) + (acc[2] + acc[3])) + ((acc[4] + acc[5]) + (acc[6] + acc[7]))
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::{RngExt, SeedableRng};

    fn random_mat(r: usize, c: usize, seed: u64) -> Mat {
        let mut rng = StdRng::seed_from_u64(seed);
        Mat::from_vec(
            r,
            c,
            (0..r * c).map(|_| rng.random::<f64>() - 0.5).collect(),
        )
    }

    #[test]
    fn identity_multiplication() {
        let a = random_mat(5, 7, 1);
        let i5 = Mat::eye(5);
        let i7 = Mat::eye(7);
        assert!(i5.matmul(&a).max_abs_diff(&a) < 1e-15);
        assert!(a.matmul(&i7).max_abs_diff(&a) < 1e-15);
    }

    #[test]
    fn matmul_associativity() {
        let a = random_mat(4, 6, 2);
        let b = random_mat(6, 3, 3);
        let c = random_mat(3, 5, 4);
        let left = a.matmul(&b).matmul(&c);
        let right = a.matmul(&b.matmul(&c));
        assert!(left.max_abs_diff(&right) < 1e-12);
    }

    #[test]
    fn parallel_matmul_matches_serial_path() {
        // Big enough to trigger the parallel path; compare with a naive
        // triple loop.
        let a = random_mat(80, 70, 5);
        let b = random_mat(70, 90, 6);
        let fast = a.matmul(&b);
        let mut naive = Mat::zeros(80, 90);
        for i in 0..80 {
            for j in 0..90 {
                let mut s = 0.0;
                for k in 0..70 {
                    s += a[(i, k)] * b[(k, j)];
                }
                naive[(i, j)] = s;
            }
        }
        assert!(fast.max_abs_diff(&naive) < 1e-10);
    }

    #[test]
    fn transpose_involution() {
        let a = random_mat(6, 4, 7);
        assert_eq!(a.transpose().transpose(), a);
    }

    #[test]
    fn matvec_against_matmul() {
        let a = random_mat(5, 4, 8);
        let v: Vec<f64> = (0..4).map(|i| i as f64 - 1.5).collect();
        let got = a.matvec(&v);
        let want = a.matmul(&Mat::from_vec(4, 1, v.clone()));
        for (i, g) in got.iter().enumerate() {
            assert!((g - want[(i, 0)]).abs() < 1e-13);
        }
    }

    #[test]
    fn t_matvec_against_transpose() {
        let a = random_mat(5, 4, 9);
        let v: Vec<f64> = (0..5).map(|i| 0.3 * i as f64 - 1.0).collect();
        let got = a.t_matvec(&v);
        let want = a.transpose().matvec(&v);
        for (g, w) in got.iter().zip(want.iter()) {
            assert!((g - w).abs() < 1e-13);
        }
    }

    #[test]
    fn norms() {
        let m = Mat::from_rows(&[vec![3.0, 0.0], vec![0.0, -4.0]]);
        assert!((m.norm_fro() - 5.0).abs() < 1e-15);
    }

    #[test]
    fn ops_traits() {
        let a = Mat::from_rows(&[vec![1.0, 2.0]]);
        let b = Mat::from_rows(&[vec![0.5, -2.0]]);
        let s = &a + &b;
        let d = &a - &b;
        assert_eq!(s.row(0), &[1.5, 0.0]);
        assert_eq!(d.row(0), &[0.5, 4.0]);
    }

    #[test]
    #[should_panic]
    fn shape_mismatch_panics() {
        let a = Mat::zeros(2, 3);
        let b = Mat::zeros(2, 3);
        let _ = a.matmul(&b);
    }

    #[test]
    fn vector_helpers() {
        assert!((vec_norm2(&[3.0, 4.0]) - 5.0).abs() < 1e-15);
        assert!((dot(&[1.0, 2.0], &[3.0, -1.0]) - 1.0).abs() < 1e-15);
        // Lengths around the 8-lane width agree with the sequential sum.
        for n in [0, 1, 7, 8, 9, 16, 23] {
            let a: Vec<f64> = (0..n).map(|i| i as f64 + 1.0).collect();
            let b: Vec<f64> = (0..n).map(|i| 1.0 / (i as f64 + 1.0)).collect();
            assert!((dot(&a, &b) - n as f64).abs() < 1e-12, "n = {n}");
        }
    }
}
