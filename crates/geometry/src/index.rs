//! A neighbour index over filament centrelines.
//!
//! Coupling between two filaments only exists when they are parallel, and
//! for parallel filaments it depends on the distance between their
//! centrelines in the plane perpendicular to their common axis. The index
//! therefore keeps one uniform grid per axis, over that perpendicular
//! plane, and buckets every filament of the axis by its centreline.
//!
//! Two queries use it:
//!
//! * [`FilamentIndex::rings`] walks outward from one filament, one ring of
//!   grid cells at a time, and after each ring reports a *clearance*: a
//!   lower bound on the radial distance to every parallel filament not yet
//!   returned. Window selection stops as soon as a decay bound at that
//!   clearance certifies that nothing farther can matter.
//! * [`FilamentIndex::near`] returns a superset of the parallel filaments
//!   within a radial range (the capacitive-coupling scan).
//!
//! Both return only filaments parallel to the query filament: any other
//! pair is perpendicular and does not couple.

use crate::Filament;

/// Relative margin taken off every clearance, so that a centreline that
/// rounding put into the neighbouring cell can never sit closer than the
/// reported bound.
const CLEARANCE_MARGIN: f64 = 1e-12;

/// The grid of one axis: filaments bucketed over the two coordinates
/// perpendicular to the axis, in compressed (CSR) form.
#[derive(Debug, Clone)]
struct AxisGrid {
    /// The two coordinate indices spanning the perpendicular plane.
    plane: [usize; 2],
    /// Lower corner of the grid.
    lo: [f64; 2],
    /// Cell size per plane coordinate.
    h: [f64; 2],
    /// Cell count per plane coordinate.
    cells: [usize; 2],
    /// `members[start[c]..start[c + 1]]` are the filaments of cell `c`
    /// (row-major over `cells`), in ascending index order.
    start: Vec<usize>,
    members: Vec<usize>,
    /// Largest absolute plane coordinate, which scales the rounding
    /// margin.
    scale: f64,
}

impl AxisGrid {
    fn build(filaments: &[Filament], axis: usize, ids: &[usize]) -> AxisGrid {
        let plane = match axis {
            0 => [1, 2],
            1 => [0, 2],
            _ => [0, 1],
        };
        let mut lo = [f64::INFINITY; 2];
        let mut hi = [f64::NEG_INFINITY; 2];
        for &i in ids {
            for d in 0..2 {
                let x = filaments[i].origin[plane[d]];
                lo[d] = lo[d].min(x);
                hi[d] = hi[d].max(x);
            }
        }
        let n = ids.len();
        if n == 0 {
            lo = [0.0; 2];
            hi = [0.0; 2];
        }
        let extent = [hi[0] - lo[0], hi[1] - lo[1]];
        // About one cell per filament, shaped to the occupied extent: a
        // flat bus becomes a row of cells at the line pitch.
        let cells = match (extent[0] > 0.0, extent[1] > 0.0) {
            (true, true) => {
                let c0 = ((n as f64 * extent[0] / extent[1]).sqrt().round() as usize).clamp(1, n);
                [c0, n.div_ceil(c0).max(1)]
            }
            (true, false) => [n, 1],
            (false, true) => [1, n],
            (false, false) => [1, 1],
        };
        let h = [0, 1].map(|d| {
            if cells[d] > 1 {
                extent[d] / cells[d] as f64
            } else {
                1.0
            }
        });
        let mut grid = AxisGrid {
            plane,
            lo,
            h,
            cells,
            start: vec![0; cells[0] * cells[1] + 1],
            members: vec![0; n],
            scale: lo[0]
                .abs()
                .max(hi[0].abs())
                .max(lo[1].abs())
                .max(hi[1].abs()),
        };
        // Counting sort by cell; filling in index order keeps each cell's
        // members ascending.
        let flat: Vec<usize> = ids
            .iter()
            .map(|&i| grid.flat(grid.cell_of(&filaments[i])))
            .collect();
        for &c in &flat {
            grid.start[c + 1] += 1;
        }
        for c in 0..grid.start.len() - 1 {
            grid.start[c + 1] += grid.start[c];
        }
        let mut next = grid.start.clone();
        for (&i, &c) in ids.iter().zip(&flat) {
            grid.members[next[c]] = i;
            next[c] += 1;
        }
        grid
    }

    fn point(&self, f: &Filament) -> [f64; 2] {
        [f.origin[self.plane[0]], f.origin[self.plane[1]]]
    }

    fn cell_of(&self, f: &Filament) -> [usize; 2] {
        let p = self.point(f);
        [0, 1].map(|d| {
            if self.cells[d] == 1 {
                0
            } else {
                (((p[d] - self.lo[d]) / self.h[d]).floor().max(0.0) as usize).min(self.cells[d] - 1)
            }
        })
    }

    fn flat(&self, c: [usize; 2]) -> usize {
        c[0] * self.cells[1] + c[1]
    }

    fn push_cell(&self, c0: usize, c1: usize, out: &mut Vec<usize>) {
        let c = self.flat([c0, c1]);
        out.extend_from_slice(&self.members[self.start[c]..self.start[c + 1]]);
    }

    /// Appends the members of every cell in the index box
    /// `lo[d]..=hi[d]` to `out`.
    fn push_box(&self, lo: [usize; 2], hi: [usize; 2], out: &mut Vec<usize>) {
        for c0 in lo[0]..=hi[0] {
            for c1 in lo[1]..=hi[1] {
                self.push_cell(c0, c1, out);
            }
        }
    }
}

/// A neighbour index over the centrelines of a set of filaments, which it
/// owns. See the [module documentation](self).
#[derive(Debug, Clone)]
pub struct FilamentIndex {
    filaments: Vec<Filament>,
    /// One grid per axis (empty for an axis without filaments).
    grids: [AxisGrid; 3],
}

impl FilamentIndex {
    /// Indexes `filaments`; queries refer to them by position.
    pub fn new(filaments: Vec<Filament>) -> FilamentIndex {
        let grids = [0, 1, 2].map(|axis| {
            let ids: Vec<usize> = (0..filaments.len())
                .filter(|&i| filaments[i].axis.index() == axis)
                .collect();
            AxisGrid::build(&filaments, axis, &ids)
        });
        FilamentIndex { filaments, grids }
    }

    /// The indexed filaments.
    pub fn filaments(&self) -> &[Filament] {
        &self.filaments
    }

    /// Number of indexed filaments.
    pub fn len(&self) -> usize {
        self.filaments.len()
    }

    /// `true` when nothing is indexed.
    pub fn is_empty(&self) -> bool {
        self.filaments.is_empty()
    }

    fn grid_of(&self, m: usize) -> &AxisGrid {
        &self.grids[self.filaments[m].axis.index()]
    }

    /// An outward ring search around filament `m`.
    ///
    /// # Panics
    ///
    /// Panics if `m` is out of range.
    pub fn rings(&self, m: usize) -> Rings<'_> {
        let grid = self.grid_of(m);
        let f = &self.filaments[m];
        Rings {
            grid,
            centre: grid.cell_of(f),
            point: grid.point(f),
            k: 0,
        }
    }

    /// Appends to `out` every filament parallel to `m` (including `m`)
    /// whose radial centreline distance from `m` may be at most `range`:
    /// a superset, in no particular order. A NaN range returns every
    /// parallel filament.
    ///
    /// # Panics
    ///
    /// Panics if `m` is out of range.
    pub fn near(&self, m: usize, range: f64, out: &mut Vec<usize>) {
        let grid = self.grid_of(m);
        let c = grid.cell_of(&self.filaments[m]);
        let mut lo = [0; 2];
        let mut hi = [0; 2];
        for d in 0..2 {
            // One spare cell absorbs rounding in the cell assignment;
            // the float-to-int cast saturates an infinite range.
            let reach = if range.is_nan() {
                usize::MAX
            } else {
                ((range / grid.h[d]).ceil() as usize).saturating_add(1)
            };
            lo[d] = c[d].saturating_sub(reach);
            hi[d] = c[d].saturating_add(reach).min(grid.cells[d] - 1);
        }
        grid.push_box(lo, hi, out);
    }
}

/// The state of one outward ring search, from [`FilamentIndex::rings`].
#[derive(Debug, Clone)]
pub struct Rings<'a> {
    grid: &'a AxisGrid,
    centre: [usize; 2],
    point: [f64; 2],
    /// The next ring to visit (Chebyshev distance in cells).
    k: usize,
}

impl Rings<'_> {
    /// Appends the filaments of the next ring of cells to `out` (the
    /// first ring is the query filament's own cell, so it includes the
    /// query filament) and returns the clearance: a lower bound on the
    /// radial distance from the query filament to every parallel filament
    /// not returned so far. The clearance is `f64::INFINITY` once every
    /// parallel filament has been returned; later calls add nothing.
    pub fn next_ring(&mut self, out: &mut Vec<usize>) -> f64 {
        let g = self.grid;
        let (c, k) = (self.centre, self.k);
        let reaches = |d: usize| k <= c[d] || c[d] + k < g.cells[d];
        if reaches(0) || reaches(1) {
            let lo = [0, 1].map(|d| c[d].saturating_sub(k));
            let hi = [0, 1].map(|d| (c[d] + k).min(g.cells[d] - 1));
            if k == 0 {
                g.push_cell(c[0], c[1], out);
            } else {
                // The cells at Chebyshev distance exactly k: two full
                // rows of the box in coordinate 0 (when inside the
                // grid), then the two side columns between them.
                let rows = [
                    c[0].checked_sub(k),
                    Some(c[0] + k).filter(|&r| r < g.cells[0]),
                ];
                for r in rows.into_iter().flatten() {
                    g.push_box([r, lo[1]], [r, hi[1]], out);
                }
                let inner = [
                    c[0].saturating_sub(k - 1),
                    (c[0] + k - 1).min(g.cells[0] - 1),
                ];
                let cols = [
                    c[1].checked_sub(k),
                    Some(c[1] + k).filter(|&s| s < g.cells[1]),
                ];
                for s in cols.into_iter().flatten() {
                    g.push_box([inner[0], s], [inner[1], s], out);
                }
            }
            self.k += 1;
        }
        self.clearance()
    }

    /// Distance from the query point to the nearest face of the visited
    /// box of cells that still has cells beyond it.
    fn clearance(&self) -> f64 {
        let g = self.grid;
        let (c, k) = (self.centre, self.k);
        if k == 0 {
            return 0.0;
        }
        let reach = k - 1;
        let mut clear = f64::INFINITY;
        for (d, &cd) in c.iter().enumerate() {
            if cd > reach {
                let face = g.lo[d] + (cd - reach) as f64 * g.h[d];
                clear = clear.min(self.point[d] - face);
            }
            if cd + reach + 1 < g.cells[d] {
                let face = g.lo[d] + (cd + reach + 1) as f64 * g.h[d];
                clear = clear.min(face - self.point[d]);
            }
        }
        if clear.is_infinite() {
            return clear;
        }
        let margin = CLEARANCE_MARGIN * (g.scale + g.h[0].max(g.h[1]));
        (clear - margin).max(0.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{um, Axis, BusSpec, SpiralSpec};

    fn parallel_within(fils: &[Filament], m: usize, r: f64) -> Vec<usize> {
        (0..fils.len())
            .filter(|&j| {
                fils[j].is_parallel_to(&fils[m]) && fils[m].radial_distance_to(&fils[j]) <= r
            })
            .collect()
    }

    /// Runs a full ring search and checks every clearance against the
    /// filaments not yet returned.
    fn check_rings(fils: Vec<Filament>) {
        let index = FilamentIndex::new(fils.clone());
        for m in 0..fils.len() {
            let mut rings = index.rings(m);
            let mut seen = vec![false; fils.len()];
            let mut out = Vec::new();
            loop {
                out.clear();
                let clear = rings.next_ring(&mut out);
                for &j in &out {
                    assert!(!seen[j], "filament {j} returned twice");
                    assert!(fils[j].is_parallel_to(&fils[m]));
                    seen[j] = true;
                }
                for j in 0..fils.len() {
                    if !seen[j] && fils[j].is_parallel_to(&fils[m]) {
                        assert!(
                            fils[m].radial_distance_to(&fils[j]) >= clear,
                            "clearance {clear} overstates the distance to {j}"
                        );
                    }
                }
                if clear.is_infinite() {
                    break;
                }
            }
            assert!(seen[m]);
            let parallel = (0..fils.len()).filter(|&j| fils[j].is_parallel_to(&fils[m]));
            for j in parallel {
                assert!(seen[j], "ring search never reached {j}");
            }
            out.clear();
            assert!(rings.next_ring(&mut out).is_infinite() && out.is_empty());
        }
    }

    #[test]
    fn rings_cover_everything_with_sound_clearances() {
        check_rings(BusSpec::new(17).build().filaments().to_vec());
        check_rings(
            BusSpec::new(6)
                .segments(3)
                .misalignment(0.4)
                .build()
                .filaments()
                .to_vec(),
        );
        check_rings(SpiralSpec::new(2).build().filaments().to_vec());
        // A 2-D cross section: a 5×4 array of wires on four layers.
        let mut fils = Vec::new();
        for i in 0..5 {
            for z in 0..4 {
                let o = [
                    0.0,
                    um(3.0) * i as f64,
                    um(2.5) * z as f64 + um(0.1) * i as f64,
                ];
                fils.push(Filament::new(o, Axis::X, um(100.0), um(1.0), um(1.0)));
            }
        }
        check_rings(fils);
    }

    #[test]
    fn near_is_a_superset_of_the_range() {
        let layout = BusSpec::new(9).segments(2).shield_every(3).build();
        let fils = layout.filaments();
        let index = FilamentIndex::new(fils.to_vec());
        for r in [
            0.0,
            um(2.9),
            um(3.0),
            um(7.0),
            um(1e4),
            f64::INFINITY,
            f64::NAN,
        ] {
            for m in 0..fils.len() {
                let mut out = Vec::new();
                index.near(m, r, &mut out);
                let want = if r.is_nan() {
                    parallel_within(fils, m, f64::INFINITY)
                } else {
                    parallel_within(fils, m, r)
                };
                for j in want {
                    assert!(out.contains(&j), "near({m}, {r}) misses {j}");
                }
            }
        }
    }

    #[test]
    fn flat_bus_gets_one_cell_per_line() {
        let index = FilamentIndex::new(BusSpec::new(64).build().filaments().to_vec());
        let mut rings = index.rings(10);
        let mut out = Vec::new();
        rings.next_ring(&mut out);
        assert_eq!(out, vec![10]);
        out.clear();
        rings.next_ring(&mut out);
        out.sort_unstable();
        assert_eq!(out, vec![9, 11]);
    }
}
