//! Sparse LU factorization: left-looking Gilbert–Peierls with partial
//! pivoting, stored flat.
//!
//! This is the "internal sparse solver" role that HSPICE plays in the
//! paper: the whole point of VPEC sparsification is that the MNA matrix of
//! a VPEC model factors and solves faster than the inductively coupled
//! PEEC stamp. Factorization work is proportional to the floating-point
//! work on structural nonzeros plus fill, and every transient step pays
//! one forward and one backward substitution over the stored factor, so
//! the factor's size is the step loop's cost.
//!
//! **Factorization.** Column `j` of `P·A` is computed by a sparse
//! triangular solve with the columns of `L` found so far. A depth-first
//! search through `L`'s graph from the nonzeros of `A[:, j]` yields the
//! reach in post-order; eliminating in *reverse* post-order applies every
//! earlier pivot before any row it updates. The largest remaining entry is
//! the pivot, the pivoted rows go to `U` and the rest, scaled, to `L`.
//!
//! **Storage.** `L` (unit diagonal implicit) and `U` (diagonal kept apart)
//! are flat compressed columns: `usize` column pointers, `u32` row indices
//! and a value array each. Row indices are renumbered to pivot positions
//! once, after factorization, so the forward substitution indexes its work
//! vector directly. A symmetric fill ordering (see
//! [`crate::ordering`]) and the row pivoting fold into one gather of the
//! right-hand side on the way in and one scatter of the solution on the
//! way out.
//!
//! The elimination and substitution orders are fixed by the matrix and
//! the ordering, so a factor is bit-stable from run to run.

use crate::ordering::{is_permutation, permute_symmetric};
use crate::{CsrMatrix, NumericsError, Scalar};

/// Sparse LU factors of a square matrix, `P·Q·A·Qᵀ = L·U` for a row
/// pivoting `P` and an optional symmetric fill ordering `Q`.
///
/// # Example
///
/// ```
/// use vpec_numerics::{CooMatrix, SparseLu};
///
/// # fn main() -> Result<(), vpec_numerics::NumericsError> {
/// let mut a = CooMatrix::new(2, 2);
/// a.push(0, 0, 2.0)?;
/// a.push(0, 1, 1.0)?;
/// a.push(1, 1, 4.0)?;
/// let lu = SparseLu::new(&a.to_csr())?;
/// let x = lu.solve(&[3.0, 4.0])?;
/// assert!((x[0] - 1.0).abs() < 1e-12 && (x[1] - 1.0).abs() < 1e-12);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone)]
pub struct SparseLu<T = f64> {
    n: usize,
    /// `L` strictly below the diagonal by column: column `k` holds rows
    /// `l_idx[l_ptr[k]..l_ptr[k + 1]]` (pivot positions) with values
    /// `l_val[..]`.
    l_ptr: Vec<usize>,
    l_idx: Vec<u32>,
    l_val: Vec<T>,
    /// `U` strictly above the diagonal by column, in pivot positions.
    u_ptr: Vec<usize>,
    u_idx: Vec<u32>,
    u_val: Vec<T>,
    /// `U` diagonal by column.
    u_diag: Vec<T>,
    /// Pivot position `k` reads the right-hand side at `gather[k]`.
    gather: Vec<u32>,
    /// Pivot position `k` writes the solution at `scatter[k]`.
    scatter: Vec<u32>,
}

const UNPIVOTED: usize = usize::MAX;

/// The factors as the elimination leaves them: `L` row indices still in
/// the (permuted) matrix's own row numbering.
struct Elimination<T> {
    l_ptr: Vec<usize>,
    l_idx: Vec<u32>,
    l_val: Vec<T>,
    u_ptr: Vec<usize>,
    u_idx: Vec<u32>,
    u_val: Vec<T>,
    u_diag: Vec<T>,
    /// `pinv[row] = pivot position`.
    pinv: Vec<usize>,
}

impl<T: Scalar> SparseLu<T> {
    /// Factors a square CSR matrix in its own numbering, with partial
    /// (threshold = 1.0, i.e. full partial) pivoting.
    ///
    /// # Errors
    ///
    /// * [`NumericsError::NotSquare`] if the matrix is not square.
    /// * [`NumericsError::TooLarge`] if the dimension does not fit `u32`.
    /// * [`NumericsError::Singular`] if some column has no usable pivot.
    pub fn new(a: &CsrMatrix<T>) -> Result<Self, NumericsError> {
        check_shape(a)?;
        let el = eliminate(a)?;
        let identity: Vec<u32> = (0..a.rows() as u32).collect();
        Ok(Self::assemble(el, &identity))
    }

    /// Factors `Q·A·Qᵀ` for the fill ordering `perm` (`perm[new] = old`,
    /// so `Q` moves unknown `perm[k]` to position `k`). Solves take and
    /// return vectors in `A`'s own numbering.
    ///
    /// # Errors
    ///
    /// As [`SparseLu::new`], plus [`NumericsError::DimensionMismatch`] if
    /// `perm` is not a permutation of `0..dim`.
    pub fn with_ordering(a: &CsrMatrix<T>, perm: &[usize]) -> Result<Self, NumericsError> {
        check_shape(a)?;
        let n = a.rows();
        if !is_permutation(perm, n) {
            return Err(NumericsError::DimensionMismatch {
                op: "sparse lu ordering",
                expected: (n, 1),
                found: (perm.len(), 1),
            });
        }
        let el = eliminate(&permute_symmetric(a, perm))?;
        let order: Vec<u32> = perm.iter().map(|&p| p as u32).collect();
        Ok(Self::assemble(el, &order))
    }

    /// Renumbers `L` to pivot positions and folds the ordering `order`
    /// (`order[k]` = original index of permuted unknown `k`) and the row
    /// pivoting into the gather and scatter maps.
    fn assemble(el: Elimination<T>, order: &[u32]) -> Self {
        let Elimination {
            l_ptr,
            mut l_idx,
            mut l_val,
            u_ptr,
            mut u_idx,
            mut u_val,
            u_diag,
            pinv,
        } = el;
        let n = u_diag.len();
        for r in l_idx.iter_mut() {
            *r = pinv[*r as usize] as u32;
        }
        let mut gather = vec![0u32; n];
        for (row, &k) in pinv.iter().enumerate() {
            gather[k] = order[row];
        }
        l_idx.shrink_to_fit();
        l_val.shrink_to_fit();
        u_idx.shrink_to_fit();
        u_val.shrink_to_fit();
        SparseLu {
            n,
            l_ptr,
            l_idx,
            l_val,
            u_ptr,
            u_idx,
            u_val,
            u_diag,
            gather,
            scatter: order.to_vec(),
        }
    }

    /// Dimension of the factored matrix.
    pub fn dim(&self) -> usize {
        self.n
    }

    /// Total nonzeros of L and U, both diagonals included — the fill-in
    /// measure used by the complexity-scaling experiment.
    pub fn factor_nnz(&self) -> usize {
        2 * self.n + self.l_idx.len() + self.u_idx.len()
    }

    /// Bytes of the stored arrays: the values of L, U and U's diagonal,
    /// the `u32` row indices and the gather/scatter maps, and the `usize`
    /// column pointers.
    pub fn storage_bytes(&self) -> u64 {
        let values = self.l_val.len() + self.u_val.len() + self.u_diag.len();
        let indices = self.l_idx.len() + self.u_idx.len() + self.gather.len() + self.scatter.len();
        let pointers = self.l_ptr.len() + self.u_ptr.len();
        (values * std::mem::size_of::<T>()
            + indices * std::mem::size_of::<u32>()
            + pointers * std::mem::size_of::<usize>()) as u64
    }

    /// Cheap condition estimate `max|uᵢᵢ| / min|uᵢᵢ|` over U's diagonal
    /// (∞ when a pivot is zero; 1 for an empty matrix).
    pub fn diag_condition_estimate(&self) -> f64 {
        let mut lo = f64::INFINITY;
        let mut hi = 0.0f64;
        for d in &self.u_diag {
            let m = d.modulus();
            lo = lo.min(m);
            hi = hi.max(m);
        }
        if self.n == 0 {
            1.0
        } else if lo == 0.0 {
            f64::INFINITY
        } else {
            hi / lo
        }
    }

    /// Solves `A·x = b`.
    ///
    /// # Errors
    ///
    /// Returns [`NumericsError::DimensionMismatch`] if `b.len() != dim()`.
    pub fn solve(&self, b: &[T]) -> Result<Vec<T>, NumericsError> {
        let mut x = Vec::with_capacity(self.n);
        let mut work = Vec::with_capacity(self.n);
        self.solve_into(b, &mut x, &mut work)?;
        Ok(x)
    }

    /// Solves `A·x = b` into caller-owned buffers, reusing their capacity
    /// (the transient loop's per-step path — no allocation once warm).
    /// `x` receives the solution; `work` holds the substitution in pivot
    /// order.
    ///
    /// # Errors
    ///
    /// Returns [`NumericsError::DimensionMismatch`] if `b.len() != dim()`.
    pub fn solve_into(
        &self,
        b: &[T],
        x: &mut Vec<T>,
        work: &mut Vec<T>,
    ) -> Result<(), NumericsError> {
        if b.len() != self.n {
            return Err(NumericsError::DimensionMismatch {
                op: "sparse lu solve",
                expected: (self.n, 1),
                found: (b.len(), 1),
            });
        }
        let y = work;
        y.clear();
        y.extend(self.gather.iter().map(|&r| b[r as usize]));
        // Forward: L·z = P·Q·b (unit diagonal).
        for k in 0..self.n {
            let yk = y[k];
            if yk.is_zero() {
                continue;
            }
            let (lo, hi) = (self.l_ptr[k], self.l_ptr[k + 1]);
            for (&i, &lv) in self.l_idx[lo..hi].iter().zip(&self.l_val[lo..hi]) {
                y[i as usize] -= lv * yk;
            }
        }
        // Backward: U·w = z, U stored by column.
        for j in (0..self.n).rev() {
            let xj = y[j] / self.u_diag[j];
            y[j] = xj;
            if xj.is_zero() {
                continue;
            }
            let (lo, hi) = (self.u_ptr[j], self.u_ptr[j + 1]);
            for (&k, &uv) in self.u_idx[lo..hi].iter().zip(&self.u_val[lo..hi]) {
                y[k as usize] -= uv * xj;
            }
        }
        x.resize(self.n, T::zero());
        for (&to, &v) in self.scatter.iter().zip(y.iter()) {
            x[to as usize] = v;
        }
        Ok(())
    }
}

fn check_shape<T: Scalar>(a: &CsrMatrix<T>) -> Result<(), NumericsError> {
    if a.rows() != a.cols() {
        return Err(NumericsError::NotSquare {
            found: (a.rows(), a.cols()),
        });
    }
    let max = u32::MAX as usize;
    if a.rows() > max {
        return Err(NumericsError::TooLarge {
            op: "sparse lu",
            dim: a.rows(),
            max,
        });
    }
    Ok(())
}

/// Left-looking Gilbert–Peierls elimination of a square matrix whose
/// dimension fits `u32`.
fn eliminate<T: Scalar>(a: &CsrMatrix<T>) -> Result<Elimination<T>, NumericsError> {
    let n = a.rows();
    // Column access: rows of the transpose are columns of A.
    let at = a.transpose();

    let mut l_ptr: Vec<usize> = Vec::with_capacity(n + 1);
    let mut l_idx: Vec<u32> = Vec::new();
    let mut l_val: Vec<T> = Vec::new();
    let mut u_ptr: Vec<usize> = Vec::with_capacity(n + 1);
    let mut u_idx: Vec<u32> = Vec::new();
    let mut u_val: Vec<T> = Vec::new();
    let mut u_diag: Vec<T> = Vec::with_capacity(n);
    let mut pinv = vec![UNPIVOTED; n];
    l_ptr.push(0);
    u_ptr.push(0);

    // Dense workspaces reused across columns.
    let mut x = vec![T::zero(); n];
    let mut mark = vec![usize::MAX; n];
    let mut topo: Vec<usize> = Vec::with_capacity(n);
    // DFS stack of (row, next child position, end of child list) — the
    // children of a pivoted row are the rows of its L column.
    let mut stack: Vec<(usize, usize, usize)> = Vec::with_capacity(n);
    let children = |r: usize, pinv: &[usize], l_ptr: &[usize]| -> (usize, usize) {
        match pinv[r] {
            UNPIVOTED => (0, 0),
            k => (l_ptr[k], l_ptr[k + 1]),
        }
    };

    for j in 0..n {
        // ---- Symbolic: reach of A[:,j]'s pattern through L's graph, in
        // post-order (every row after the rows it updates) ----
        topo.clear();
        let (a_rows, a_vals) = at.row(j);
        for &r0 in a_rows {
            if mark[r0] == j {
                continue;
            }
            mark[r0] = j;
            let (lo, hi) = children(r0, &pinv, &l_ptr);
            stack.push((r0, lo, hi));
            while let Some(top) = stack.last_mut() {
                let r = top.0;
                let mut next = None;
                while top.1 < top.2 {
                    let child = l_idx[top.1] as usize;
                    top.1 += 1;
                    if mark[child] != j {
                        mark[child] = j;
                        next = Some(child);
                        break;
                    }
                }
                match next {
                    Some(child) => {
                        let (lo, hi) = children(child, &pinv, &l_ptr);
                        stack.push((child, lo, hi));
                    }
                    None => {
                        topo.push(r);
                        stack.pop();
                    }
                }
            }
        }

        // ---- Numeric: scatter and eliminate in reverse post-order ----
        for (&r, &v) in a_rows.iter().zip(a_vals.iter()) {
            x[r] = v;
        }
        for &r in topo.iter().rev() {
            let k = pinv[r];
            if k == UNPIVOTED {
                continue;
            }
            let xr = x[r];
            if xr.is_zero() {
                continue;
            }
            let (lo, hi) = (l_ptr[k], l_ptr[k + 1]);
            for (&i, &lv) in l_idx[lo..hi].iter().zip(&l_val[lo..hi]) {
                x[i as usize] -= lv * xr;
            }
        }

        // ---- Pivot selection among unpivoted rows in the pattern ----
        let mut pivot_row = UNPIVOTED;
        let mut pivot_mag = 0.0f64;
        for &r in &topo {
            if pinv[r] == UNPIVOTED {
                let mag = x[r].modulus();
                if mag > pivot_mag {
                    pivot_mag = mag;
                    pivot_row = r;
                }
            }
        }
        if pivot_row == UNPIVOTED || pivot_mag == 0.0 {
            return Err(NumericsError::Singular { step: j });
        }
        let pivot_val = x[pivot_row];
        pinv[pivot_row] = j;

        // ---- Gather U (pivoted rows) and L (unpivoted rows) ----
        for &r in &topo {
            let v = x[r];
            x[r] = T::zero();
            if v.is_zero() || r == pivot_row {
                continue;
            }
            match pinv[r] {
                UNPIVOTED => {
                    l_idx.push(r as u32);
                    l_val.push(v / pivot_val);
                }
                k => {
                    u_idx.push(k as u32);
                    u_val.push(v);
                }
            }
        }
        u_diag.push(pivot_val);
        l_ptr.push(l_idx.len());
        u_ptr.push(u_idx.len());
    }

    Ok(Elimination {
        l_ptr,
        l_idx,
        l_val,
        u_ptr,
        u_idx,
        u_val,
        u_diag,
        pinv,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{CooMatrix, DenseMatrix, LuFactor};

    fn csr_from_dense(d: &DenseMatrix<f64>) -> CsrMatrix<f64> {
        CsrMatrix::from_dense(d, 0.0)
    }

    #[test]
    fn solves_small_sparse_system() {
        let mut coo = CooMatrix::new(3, 3);
        coo.push(0, 0, 4.0).unwrap();
        coo.push(0, 1, -1.0).unwrap();
        coo.push(1, 0, -1.0).unwrap();
        coo.push(1, 1, 4.0).unwrap();
        coo.push(1, 2, -1.0).unwrap();
        coo.push(2, 1, -1.0).unwrap();
        coo.push(2, 2, 4.0).unwrap();
        let a = coo.to_csr();
        let lu = SparseLu::new(&a).unwrap();
        let b = [1.0, 2.0, 3.0];
        let x = lu.solve(&b).unwrap();
        let back = a.matvec(&x).unwrap();
        for (u, v) in back.iter().zip(b.iter()) {
            assert!((u - v).abs() < 1e-12);
        }
    }

    #[test]
    fn matches_dense_lu_on_random_band_matrix() {
        // Deterministic pseudo-random band matrix with dominant diagonal.
        let n = 40;
        let mut seed = 12345u64;
        let mut rng = move || {
            seed = seed.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
            ((seed >> 33) as f64 / (1u64 << 31) as f64) - 1.0
        };
        let mut d = DenseMatrix::<f64>::zeros(n, n);
        for i in 0..n {
            for j in i.saturating_sub(3)..(i + 4).min(n) {
                d[(i, j)] = rng();
            }
            d[(i, i)] += 8.0;
        }
        let b: Vec<f64> = (0..n).map(|i| (i as f64).sin()).collect();
        let xd = LuFactor::new(&d).unwrap().solve(&b).unwrap();
        let xs = SparseLu::new(&csr_from_dense(&d)).unwrap().solve(&b).unwrap();
        for (u, v) in xd.iter().zip(xs.iter()) {
            assert!((u - v).abs() < 1e-10, "dense {u} vs sparse {v}");
        }
    }

    #[test]
    fn pivoting_handles_zero_diagonal() {
        // MNA matrices routinely have structural zeros on the diagonal
        // (voltage-source branch rows); partial pivoting must cope.
        let d = DenseMatrix::from_rows(&[
            &[0.0, 1.0, 0.0],
            &[1.0, 0.0, 2.0],
            &[0.0, 2.0, 1.0],
        ])
        .unwrap();
        let lu = SparseLu::new(&csr_from_dense(&d)).unwrap();
        let b = [1.0, 3.0, 3.0];
        let x = lu.solve(&b).unwrap();
        let back = d.matvec(&x).unwrap();
        for (u, v) in back.iter().zip(b.iter()) {
            assert!((u - v).abs() < 1e-12);
        }
    }

    #[test]
    fn singular_detected() {
        let d = DenseMatrix::from_rows(&[&[1.0, 2.0], &[2.0, 4.0]]).unwrap();
        assert!(matches!(
            SparseLu::new(&csr_from_dense(&d)),
            Err(NumericsError::Singular { .. })
        ));
    }

    #[test]
    fn structurally_singular_detected() {
        // Column 1 completely empty.
        let mut coo = CooMatrix::new(2, 2);
        coo.push(0, 0, 1.0).unwrap();
        coo.push(1, 0, 1.0).unwrap();
        assert!(matches!(
            SparseLu::new(&coo.to_csr()),
            Err(NumericsError::Singular { .. })
        ));
    }

    #[test]
    fn non_square_rejected() {
        let coo = CooMatrix::<f64>::new(2, 3);
        assert!(matches!(
            SparseLu::new(&coo.to_csr()),
            Err(NumericsError::NotSquare { .. })
        ));
    }

    #[test]
    fn rhs_length_checked() {
        let mut coo = CooMatrix::new(1, 1);
        coo.push(0, 0, 1.0).unwrap();
        let lu = SparseLu::new(&coo.to_csr()).unwrap();
        assert!(lu.solve(&[1.0, 2.0]).is_err());
    }

    #[test]
    fn fill_in_is_tracked() {
        let mut coo = CooMatrix::new(3, 3);
        for i in 0..3 {
            coo.push(i, i, 2.0).unwrap();
        }
        coo.push(0, 2, 1.0).unwrap();
        coo.push(2, 0, 1.0).unwrap();
        let lu = SparseLu::new(&coo.to_csr()).unwrap();
        assert!(lu.factor_nnz() >= 5 + 3); // at least structure + diagonals
        assert_eq!(lu.dim(), 3);
    }

    /// Seeded random sparse matrix whose first `zero_diag` rows have a
    /// structurally zero diagonal (like MNA voltage-source rows), each
    /// row with a few off-diagonal entries; the rest of the diagonal is
    /// dominant enough to keep the matrix well conditioned.
    fn random_mna_like<T: Scalar>(
        n: usize,
        zero_diag: usize,
        seed: u64,
        make: impl Fn(f64, f64) -> T,
    ) -> DenseMatrix<T> {
        let mut rng = crate::rng::XorShift64::new(seed);
        let mut d = DenseMatrix::<T>::zeros(n, n);
        for i in 0..n {
            for _ in 0..3 {
                let j = rng.range_usize(0, n);
                if j != i {
                    d[(i, j)] = make(rng.range_f64(-1.0, 1.0), rng.range_f64(-1.0, 1.0));
                }
            }
        }
        // Pair every zero-diagonal row k with a coupling to and from
        // column/row n-1-k, as a source branch couples to its node.
        for k in 0..zero_diag {
            let m = n - 1 - k;
            d[(k, m)] = make(1.0, 0.25);
            d[(m, k)] = make(1.0, -0.25);
        }
        for i in zero_diag..n {
            d[(i, i)] = make(6.0 + rng.range_f64(0.0, 1.0), rng.range_f64(-0.5, 0.5));
        }
        d
    }

    fn max_gap<T: Scalar>(u: &[T], v: &[T]) -> f64 {
        u.iter()
            .zip(v)
            .map(|(&a, &b)| (a - b).modulus())
            .fold(0.0, f64::max)
    }

    #[test]
    fn flat_factor_matches_dense_lu_real_and_complex() {
        use crate::Complex64;
        for seed in 1..=6u64 {
            let n = 30 + 7 * seed as usize;
            let d = random_mna_like(n, 5, seed, |re, _| re);
            let b: Vec<f64> = (0..n).map(|i| (i as f64 * 0.7).cos()).collect();
            let xd = LuFactor::new(&d).unwrap().solve(&b).unwrap();
            let csr = csr_from_dense(&d);
            let xs = SparseLu::new(&csr).unwrap().solve(&b).unwrap();
            assert!(
                max_gap(&xd, &xs) < 1e-10,
                "seed {seed}: {}",
                max_gap(&xd, &xs)
            );
            let perm = crate::ordering::SymmetricPattern::new(&csr).amd();
            let xo = SparseLu::with_ordering(&csr, &perm)
                .unwrap()
                .solve(&b)
                .unwrap();
            assert!(max_gap(&xd, &xo) < 1e-10, "seed {seed} ordered");

            let dc = random_mna_like(n, 5, seed, Complex64::new);
            let bc: Vec<Complex64> = (0..n)
                .map(|i| Complex64::new((i as f64).sin(), 1.0))
                .collect();
            let xd = LuFactor::new(&dc).unwrap().solve(&bc).unwrap();
            let csr = CsrMatrix::from_dense(&dc, 0.0);
            let xs = SparseLu::new(&csr).unwrap().solve(&bc).unwrap();
            assert!(max_gap(&xd, &xs) < 1e-10, "complex seed {seed}");
            let perm = crate::ordering::SymmetricPattern::new(&csr).amd();
            let xo = SparseLu::with_ordering(&csr, &perm)
                .unwrap()
                .solve(&bc)
                .unwrap();
            assert!(max_gap(&xd, &xo) < 1e-10, "complex seed {seed} ordered");
        }
    }

    #[test]
    fn factoring_twice_gives_bit_identical_solves() {
        let d = random_mna_like(80, 8, 99, |re, _| re);
        let csr = csr_from_dense(&d);
        let perm = crate::ordering::SymmetricPattern::new(&csr).amd();
        let b: Vec<f64> = (0..80).map(|i| 1.0 / (1.0 + i as f64)).collect();
        let first = SparseLu::with_ordering(&csr, &perm).unwrap();
        let second = SparseLu::with_ordering(&csr, &perm).unwrap();
        let (x1, x2) = (first.solve(&b).unwrap(), second.solve(&b).unwrap());
        assert!(x1.iter().zip(&x2).all(|(u, v)| u.to_bits() == v.to_bits()));
        // Reused buffers do not change the answer either.
        let (mut x, mut work) = (vec![7.0; 3], Vec::new());
        first.solve_into(&b, &mut x, &mut work).unwrap();
        assert!(x.iter().zip(&x1).all(|(u, v)| u.to_bits() == v.to_bits()));
    }

    #[test]
    fn ordering_must_be_a_permutation() {
        let d = random_mna_like(6, 1, 5, |re, _| re);
        let csr = csr_from_dense(&d);
        for bad in [
            vec![0, 1, 2],
            vec![0, 1, 2, 3, 4, 4],
            vec![0, 1, 2, 3, 4, 6],
        ] {
            assert!(matches!(
                SparseLu::with_ordering(&csr, &bad),
                Err(NumericsError::DimensionMismatch { .. })
            ));
        }
    }

    #[test]
    fn storage_and_condition_are_measured() {
        let d = DenseMatrix::from_rows(&[&[4.0, 1.0], &[2.0, 3.0]]).unwrap();
        let lu = SparseLu::new(&csr_from_dense(&d)).unwrap();
        // One L entry (0.5), one U entry (1.0), diagonal 4 and 2.5.
        assert_eq!(lu.factor_nnz(), 2 + 2 + 2);
        assert!((lu.diag_condition_estimate() - 4.0 / 2.5).abs() < 1e-15);
        let expected = 4 * 8 + (2 + 2 * 2) * 4 + 2 * 3 * std::mem::size_of::<usize>();
        assert_eq!(lu.storage_bytes(), expected as u64);
    }

    #[test]
    fn complex_sparse_solve() {
        use crate::Complex64;
        let mut coo = CooMatrix::new(2, 2);
        coo.push(0, 0, Complex64::new(1.0, 1.0)).unwrap();
        coo.push(0, 1, Complex64::I).unwrap();
        coo.push(1, 1, Complex64::new(2.0, 0.0)).unwrap();
        let a = coo.to_csr();
        let lu = SparseLu::new(&a).unwrap();
        let b = [Complex64::new(1.0, 2.0), Complex64::new(4.0, 0.0)];
        let x = lu.solve(&b).unwrap();
        let back = a.matvec(&x).unwrap();
        for (u, v) in back.iter().zip(b.iter()) {
            assert!((*u - *v).abs() < 1e-12);
        }
    }
}
