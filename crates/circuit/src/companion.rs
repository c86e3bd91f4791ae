//! Companion-model state of the reactive elements, shared by the
//! fixed-step ([`crate::transient`]) and adaptive ([`crate::adaptive`])
//! integrators.
//!
//! Capacitors carry their branch voltage and current between steps.
//! Inductors, mutual groups and native VPEC filaments share one flux form:
//! the branch row reads `v_a − v_b − coef·Σ L·x[col] = history`, where
//! `(col, L)` runs over an inductor's own branch current and its mutual
//! partners, or over a filament's magnetic node with `L = len` (so the
//! "flux" is `len·A` and the drop is `len·dA/dt`). A filament's history is
//! therefore O(1) per step where a dense PEEC inductor group's is O(N).

use crate::elements::Element;
use crate::mna::MnaLayout;
use crate::netlist::{Circuit, NodeId};
use std::collections::HashMap;

struct CapState {
    ia: Option<usize>,
    ib: Option<usize>,
    /// Capacitance — `Geq = coef·c` is recomputed from the *current* step
    /// size so a recovery halving keeps the companion model consistent.
    c: f64,
    v_prev: f64,
    i_prev: f64,
}

struct IndState {
    br: usize,
    ia: Option<usize>,
    ib: Option<usize>,
    /// `(column, inductance)` flux terms: the self term and mutual
    /// partners of an inductor, or `(magnetic node, len)` of a filament.
    couplings: Vec<(usize, f64)>,
    v_prev: f64,
}

/// Per-element integration history of every reactive element.
pub(crate) struct Companions {
    caps: Vec<CapState>,
    inds: Vec<IndState>,
}

impl Companions {
    /// Initial states at the DC operating point `x`: capacitors hold their
    /// DC voltage with no current, inductive branches are shorts.
    pub fn new(ckt: &Circuit, layout: &MnaLayout, x: &[f64]) -> Self {
        let mut caps = Vec::new();
        let mut inds = Vec::new();
        let ind = |br: usize, a: NodeId, b: NodeId, couplings: Vec<(usize, f64)>| IndState {
            br,
            ia: layout.node_idx(a),
            ib: layout.node_idx(b),
            couplings,
            v_prev: 0.0,
        };
        // First pass: self terms and node indices.
        for (idx, e) in ckt.elements().iter().enumerate() {
            match e {
                Element::Capacitor { a, b, c, .. } => {
                    let ia = layout.node_idx(*a);
                    let ib = layout.node_idx(*b);
                    let va = ia.map_or(0.0, |i| x[i]);
                    let vb = ib.map_or(0.0, |i| x[i]);
                    caps.push(CapState {
                        ia,
                        ib,
                        c: *c,
                        v_prev: va - vb,
                        i_prev: 0.0,
                    });
                }
                Element::Inductor { a, b, l, .. } => {
                    let br = layout.branch_idx(idx);
                    inds.push(ind(br, *a, *b, vec![(br, *l)]));
                }
                Element::VpecBranch { a, b, mag, len, .. } => {
                    let flux = layout.node_idx(*mag).map(|m| (m, *len));
                    inds.push(ind(
                        layout.branch_idx(idx),
                        *a,
                        *b,
                        flux.into_iter().collect(),
                    ));
                }
                _ => {}
            }
        }
        // Second pass: mutual couplings (element ids refer to inductors).
        let br_to_ind: HashMap<usize, usize> =
            inds.iter().enumerate().map(|(k, s)| (s.br, k)).collect();
        for e in ckt.elements() {
            if let Element::Mutual { la, lb, m, .. } = e {
                let ba = layout.branch_idx(la.0);
                let bb = layout.branch_idx(lb.0);
                inds[br_to_ind[&ba]].couplings.push((bb, *m));
                inds[br_to_ind[&bb]].couplings.push((ba, *m));
            }
        }
        Companions { caps, inds }
    }

    /// Adds the history of the step with companion coefficient `coef`
    /// (`1/dt` Backward Euler, `2/dt` trapezoidal) to `rhs`, from the last
    /// accepted solution `x`. Capacitor histories add to node rows;
    /// inductive branch rows are assigned.
    pub fn history(&self, rhs: &mut [f64], x: &[f64], coef: f64, trap: bool) {
        // Capacitor companion: current source Geq·v_prev (+ i_prev for
        // trapezoidal) injected from b into a.
        for s in &self.caps {
            let hist = coef * s.c * s.v_prev + if trap { s.i_prev } else { 0.0 };
            if let Some(ia) = s.ia {
                rhs[ia] += hist;
            }
            if let Some(ib) = s.ib {
                rhs[ib] -= hist;
            }
        }
        // Inductive branch history: −v_prev (trap) − coef·Σ L·x_prev.
        for s in &self.inds {
            let mut flux = 0.0;
            for &(col, l) in &s.couplings {
                flux += l * x[col];
            }
            rhs[s.br] = -(if trap { s.v_prev } else { 0.0 }) - coef * flux;
        }
    }

    /// Commits the accepted solution `x_new` of a step taken with `coef`.
    pub fn accept(&mut self, x_new: &[f64], coef: f64, trap: bool) {
        let v = |i: Option<usize>| i.map_or(0.0, |i| x_new[i]);
        for s in &mut self.caps {
            let v_new = v(s.ia) - v(s.ib);
            let i_new = coef * s.c * (v_new - s.v_prev) - if trap { s.i_prev } else { 0.0 };
            s.v_prev = v_new;
            s.i_prev = i_new;
        }
        for s in &mut self.inds {
            s.v_prev = v(s.ia) - v(s.ib);
        }
    }
}
