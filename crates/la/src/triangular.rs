//! Triangular solves (forward / backward substitution) on matrix views.

use crate::dense::{MatMut, MatRef};
use crate::scalar::Scalar;

/// Which triangle of the coefficient matrix is referenced.
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub enum Triangle {
    /// Lower triangular.
    Lower,
    /// Upper triangular.
    Upper,
}

/// Whether the diagonal is stored or implicitly unit.
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub enum Diag {
    /// The diagonal entries are taken from the matrix.
    NonUnit,
    /// The diagonal entries are implicitly one (as in the `L` factor of LU).
    Unit,
}

/// Solve `op(T) * X = B` in place, where `T` is triangular and `B` (the
/// right-hand sides, one per column) is overwritten with the solution.
///
/// This corresponds to BLAS `trsm` with `side = Left`, `alpha = 1`.
///
/// # Panics
/// Panics if `t` is not square or shapes do not match.
pub fn solve_triangular_in_place<T: Scalar>(
    t: MatRef<'_, T>,
    triangle: Triangle,
    diag: Diag,
    mut b: MatMut<'_, T>,
) {
    let n = t.rows();
    assert_eq!(t.cols(), n, "triangular matrix must be square");
    assert_eq!(b.rows(), n, "right-hand side has wrong row count");

    for j in 0..b.cols() {
        let col = b.col_mut(j);
        match triangle {
            Triangle::Lower => solve_lower_col(t, diag, col),
            Triangle::Upper => solve_upper_col(t, diag, col),
        }
    }
}

/// Forward substitution in column order: once `x[k]` is final, column `k`
/// of `T` (read contiguously) is eliminated from the rows below it.  Each
/// row still subtracts its terms in ascending `k` with a separate multiply
/// and subtract, so the result is bitwise the row-order dot-product form.
fn solve_lower_col<T: Scalar>(t: MatRef<'_, T>, diag: Diag, x: &mut [T]) {
    for k in 0..x.len() {
        if diag == Diag::NonUnit {
            x[k] *= t.get(k, k).recip();
        }
        let (head, below) = x.split_at_mut(k + 1);
        let xk = head[k];
        for (xi, &tik) in below.iter_mut().zip(&t.col(k)[k + 1..]) {
            *xi -= tik * xk;
        }
    }
}

#[allow(clippy::needless_range_loop)] // k indexes both t and x
fn solve_upper_col<T: Scalar>(t: MatRef<'_, T>, diag: Diag, x: &mut [T]) {
    let n = x.len();
    for ii in 0..n {
        let i = n - 1 - ii;
        let mut acc = x[i];
        for k in (i + 1)..n {
            acc -= t.get(i, k) * x[k];
        }
        x[i] = match diag {
            Diag::Unit => acc,
            Diag::NonUnit => acc * t.get(i, i).recip(),
        };
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dense::DenseMatrix;
    use crate::{gemm, Op};

    #[test]
    fn lower_nonunit_roundtrip() {
        let l = DenseMatrix::from_rows(&[
            vec![2.0, 0.0, 0.0],
            vec![1.0, 3.0, 0.0],
            vec![-1.0, 0.5, 4.0],
        ]);
        let x_true = DenseMatrix::from_rows(&[vec![1.0, -2.0], vec![0.5, 3.0], vec![-1.5, 0.0]]);
        let mut b = DenseMatrix::zeros(3, 2);
        gemm(
            1.0,
            l.as_ref(),
            Op::None,
            x_true.as_ref(),
            Op::None,
            0.0,
            b.as_mut(),
        );
        solve_triangular_in_place(l.as_ref(), Triangle::Lower, Diag::NonUnit, b.as_mut());
        assert!(b.sub(&x_true).norm_max() < 1e-13);
    }

    #[test]
    fn upper_nonunit_roundtrip() {
        let u = DenseMatrix::from_rows(&[
            vec![2.0, -1.0, 3.0],
            vec![0.0, 1.5, 0.25],
            vec![0.0, 0.0, -4.0],
        ]);
        let x_true = DenseMatrix::from_rows(&[vec![1.0], vec![2.0], vec![3.0]]);
        let mut b = DenseMatrix::zeros(3, 1);
        gemm(
            1.0,
            u.as_ref(),
            Op::None,
            x_true.as_ref(),
            Op::None,
            0.0,
            b.as_mut(),
        );
        solve_triangular_in_place(u.as_ref(), Triangle::Upper, Diag::NonUnit, b.as_mut());
        assert!(b.sub(&x_true).norm_max() < 1e-13);
    }

    /// The column-order lower solve gives bitwise the row-order
    /// substitution `x_i = (b_i - sum_{k<i} t_ik x_k) * (1 / t_ii)`, with
    /// the sum taken in ascending `k`.
    fn assert_lower_bitwise_row_order<T: Scalar>(to_t: impl Fn(f64, f64) -> T) {
        let n = 37;
        let entry = |i: usize, j: usize| {
            let s = ((i * 31 + j * 17) % 23) as f64 / 7.0 - 1.5;
            to_t(s, ((i + 2 * j) % 5) as f64 * 0.3 - 0.6)
        };
        let t = DenseMatrix::from_fn(n, n, |i, j| {
            if i == j {
                entry(i, j) + to_t(4.0, 0.0)
            } else {
                entry(i, j)
            }
        });
        let b = DenseMatrix::from_fn(n, 3, |i, j| entry(i + 5, j + 11));
        for diag in [Diag::Unit, Diag::NonUnit] {
            let mut got = b.clone();
            solve_triangular_in_place(t.as_ref(), Triangle::Lower, diag, got.as_mut());
            for j in 0..3 {
                let mut x = b.col(j).to_vec();
                for i in 0..n {
                    let mut acc = x[i];
                    for k in 0..i {
                        acc -= t[(i, k)] * x[k];
                    }
                    x[i] = match diag {
                        Diag::Unit => acc,
                        Diag::NonUnit => acc * t[(i, i)].recip(),
                    };
                }
                assert!(got.col(j) == x.as_slice(), "{diag:?} column {j}");
            }
        }
    }

    #[test]
    fn lower_column_order_is_bitwise_row_order() {
        assert_lower_bitwise_row_order(|re, _| re);
        assert_lower_bitwise_row_order(crate::Complex64::new);
    }

    #[test]
    fn lower_unit_ignores_diagonal() {
        // Diagonal entries are garbage; Unit solve must ignore them.
        let l = DenseMatrix::from_rows(&[vec![99.0, 0.0], vec![2.0, -7.0]]);
        let mut b = DenseMatrix::from_rows(&[vec![1.0], vec![5.0]]);
        solve_triangular_in_place(l.as_ref(), Triangle::Lower, Diag::Unit, b.as_mut());
        // x1 = 1, x2 = 5 - 2*1 = 3
        assert_eq!(b[(0, 0)], 1.0);
        assert_eq!(b[(1, 0)], 3.0);
    }
}
