//! The partial-inductance matrix `L`, evaluated on demand.
//!
//! A dense `L` costs `N(N+1)/2` closed-form integrals and `8N²` bytes, but
//! the windowed models (wVPEC) read only a few entries per row. So
//! [`PartialInductance`] keeps the filaments and evaluates single entries
//! with the same closed forms, in the same argument order, as the dense
//! assembly: every [`PartialInductance::entry`] is bit-identical to the
//! matrix element. The dense matrix is built once, on first use through
//! `Deref`, for the consumers that need all of it (PEEC, full inversion,
//! truncation, audits).

use crate::inductance::{
    mutual_inductance, mutual_inductance_bound, mutual_rounding_slack, partial_inductance_matrix,
    self_inductance,
};
use std::ops::{Deref, DerefMut};
use std::sync::OnceLock;
use vpec_geometry::{Filament, FilamentIndex};
use vpec_numerics::DenseMatrix;

/// The partial-inductance matrix `L` (henries) of a set of filaments:
/// symmetric, with direction signs applied to mutual terms.
///
/// Entries are evaluated on demand ([`PartialInductance::entry`]);
/// dereferencing to [`DenseMatrix`] builds the full matrix once and keeps
/// it. A mutable dereference, or a matrix supplied with `From`, detaches
/// the entries from the geometry: [`PartialInductance::index`] then
/// returns `None`, so nothing relies on the geometric decay bound.
#[derive(Debug, Clone)]
pub struct PartialInductance {
    /// The filaments and their neighbour index; empty when the matrix was
    /// supplied directly.
    index: FilamentIndex,
    /// The closed-form matrix, built on first dense use.
    dense: OnceLock<DenseMatrix<f64>>,
    /// A supplied or mutably borrowed matrix. Takes precedence over
    /// everything else, since its entries need not follow the geometry.
    detached: Option<DenseMatrix<f64>>,
    /// Longest filament along each axis.
    max_len: [f64; 3],
    /// Bound on the rounding error of one closed-form mutual term.
    slack: f64,
}

impl PartialInductance {
    /// The partial inductance of `filaments`, with nothing evaluated yet.
    pub fn new(filaments: &[Filament]) -> PartialInductance {
        let mut max_len = [0.0f64; 3];
        let mut coord = 0.0f64;
        let mut gmd_min = f64::INFINITY;
        let mut cross = 0.0f64;
        let mut lo = [f64::INFINITY; 3];
        let mut hi = [f64::NEG_INFINITY; 3];
        for f in filaments {
            let a = f.axis.index();
            max_len[a] = max_len[a].max(f.length);
            for k in 0..3 {
                coord = coord.max(f.origin[k].abs());
                lo[k] = lo[k].min(f.origin[k]);
                hi[k] = hi[k].max(f.origin[k]);
            }
            gmd_min = gmd_min.min(f.self_gmd());
            cross = cross.max(f.width + f.thickness);
        }
        let diagonal = (0..3)
            .map(|k| (hi[k] - lo[k]).max(0.0).powi(2))
            .sum::<f64>()
            .sqrt();
        let longest = max_len.iter().fold(0.0f64, |a, &b| a.max(b));
        let slack = if filaments.is_empty() {
            0.0
        } else {
            mutual_rounding_slack(coord + longest, diagonal + cross, gmd_min)
        };
        PartialInductance {
            index: FilamentIndex::new(filaments.to_vec()),
            dense: OnceLock::new(),
            detached: None,
            max_len,
            slack,
        }
    }

    /// Number of rows (filaments). Never builds the matrix.
    pub fn rows(&self) -> usize {
        match &self.detached {
            Some(m) => m.rows(),
            None => self.index.len(),
        }
    }

    /// Number of columns (filaments). Never builds the matrix.
    pub fn cols(&self) -> usize {
        match &self.detached {
            Some(m) => m.cols(),
            None => self.index.len(),
        }
    }

    /// `L[(i, j)]`. Reads the matrix once it exists; before that, evaluates
    /// the closed form exactly as the dense assembly does (the upper
    /// triangle, mirrored), so the value is bit-identical either way.
    ///
    /// # Panics
    ///
    /// Panics if `i` or `j` is out of range.
    pub fn entry(&self, i: usize, j: usize) -> f64 {
        if let Some(m) = self.detached.as_ref().or_else(|| self.dense.get()) {
            return m[(i, j)];
        }
        let f = self.index.filaments();
        match i.cmp(&j) {
            std::cmp::Ordering::Equal => self_inductance(&f[i]),
            std::cmp::Ordering::Less => mutual_inductance(&f[i], &f[j]),
            std::cmp::Ordering::Greater => mutual_inductance(&f[j], &f[i]),
        }
    }

    /// `true` once the dense matrix exists (built, supplied or mutably
    /// borrowed).
    pub fn is_materialized(&self) -> bool {
        self.detached.is_some() || self.dense.get().is_some()
    }

    /// The dense matrix, built on first call. Same as dereferencing.
    pub fn dense(&self) -> &DenseMatrix<f64> {
        match &self.detached {
            Some(m) => m,
            None => self
                .dense
                .get_or_init(|| partial_inductance_matrix(self.index.filaments())),
        }
    }

    /// The neighbour index over the filaments, while the entries follow
    /// their geometry; `None` for a supplied or mutably borrowed matrix.
    pub fn index(&self) -> Option<&FilamentIndex> {
        match self.detached {
            Some(_) => None,
            None => Some(&self.index),
        }
    }

    /// The neighbour index over the filaments, whatever the matrix.
    pub(crate) fn filament_index(&self) -> &FilamentIndex {
        &self.index
    }

    /// A certified upper bound on `|entry(m, j)|` for every filament `j`
    /// parallel to `m` whose centreline lies at least `radial` from `m`'s:
    /// [`mutual_inductance_bound`] plus the closed form's worst-case
    /// rounding. Zero at infinite distance, where no filament remains.
    /// Only meaningful while [`PartialInductance::index`] is `Some`.
    ///
    /// # Panics
    ///
    /// Panics if `m` is out of range.
    pub fn coupling_bound(&self, m: usize, radial: f64) -> f64 {
        if radial == f64::INFINITY {
            return 0.0;
        }
        let f = &self.index.filaments()[m];
        mutual_inductance_bound(f.length, self.max_len[f.axis.index()], radial) + self.slack
    }
}

impl From<DenseMatrix<f64>> for PartialInductance {
    /// Wraps a matrix that was computed some other way (a reduced or
    /// sparsified `L`): it is already materialised and carries no
    /// geometry.
    fn from(m: DenseMatrix<f64>) -> PartialInductance {
        PartialInductance {
            index: FilamentIndex::new(Vec::new()),
            dense: OnceLock::new(),
            detached: Some(m),
            max_len: [0.0; 3],
            slack: 0.0,
        }
    }
}

impl Deref for PartialInductance {
    type Target = DenseMatrix<f64>;

    fn deref(&self) -> &DenseMatrix<f64> {
        self.dense()
    }
}

impl DerefMut for PartialInductance {
    /// Builds the matrix if needed and detaches it from the geometry: the
    /// caller may change entries, so the decay bound no longer applies.
    fn deref_mut(&mut self) -> &mut DenseMatrix<f64> {
        let (dense, index) = (&mut self.dense, &self.index);
        self.detached.get_or_insert_with(|| {
            dense
                .take()
                .unwrap_or_else(|| partial_inductance_matrix(index.filaments()))
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use vpec_geometry::{BusSpec, SpiralSpec};

    fn assert_entries_match(fils: &[Filament]) {
        let lazy = PartialInductance::new(fils);
        let dense = partial_inductance_matrix(fils);
        for i in 0..fils.len() {
            for j in 0..fils.len() {
                assert_eq!(
                    lazy.entry(i, j).to_bits(),
                    dense[(i, j)].to_bits(),
                    "entry ({i}, {j})"
                );
            }
        }
        assert!(!lazy.is_materialized(), "entry() must not build the matrix");
        assert_eq!((lazy.rows(), lazy.cols()), (fils.len(), fils.len()));
        assert_eq!(lazy.dense().as_slice(), dense.as_slice());
        assert!(lazy.is_materialized());
    }

    #[test]
    fn entries_are_bit_identical_to_the_dense_matrix() {
        assert_entries_match(
            BusSpec::new(12)
                .segments(3)
                .misalignment(0.3)
                .build()
                .filaments(),
        );
        assert_entries_match(SpiralSpec::new(2).build().filaments());
    }

    #[test]
    fn deref_builds_once_and_mutation_detaches() {
        let layout = BusSpec::new(5).build();
        let mut l = PartialInductance::new(layout.filaments());
        assert!(l.index().is_some());
        let first: *const DenseMatrix<f64> = &*l;
        let again: *const DenseMatrix<f64> = &*l;
        assert_eq!(first, again, "the matrix is built once and kept");
        assert!(l.index().is_some(), "reading the matrix keeps the geometry");
        let v = l.entry(1, 3);
        l[(1, 3)] = 2.0 * v;
        assert!(
            l.index().is_none(),
            "a mutable borrow detaches the geometry"
        );
        assert_eq!(l.entry(1, 3), 2.0 * v);
        assert_eq!(l.rows(), 5);
    }

    #[test]
    fn supplied_matrix_has_no_geometry() {
        let l = PartialInductance::from(DenseMatrix::<f64>::identity(3));
        assert!(l.is_materialized() && l.index().is_none());
        assert_eq!((l.rows(), l.cols()), (3, 3));
        assert_eq!(l.entry(2, 2), 1.0);
    }

    #[test]
    fn mutable_borrow_of_a_lazy_matrix_builds_it() {
        let layout = BusSpec::new(4).build();
        let mut l = PartialInductance::new(layout.filaments());
        let want = l.entry(0, 2);
        let m: &mut DenseMatrix<f64> = &mut l;
        assert_eq!(m[(0, 2)], want);
        assert!(l.is_materialized());
    }
}
