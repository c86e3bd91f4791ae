//! Parasitic extraction for the VPEC workspace — the FastHenry/FastCap
//! substitute.
//!
//! The paper extracts partial inductance with FastHenry at 10 GHz (one
//! filament per wire segment), capacitance from a 2.5-D lookup table
//! interpolated from FastCap (adjacent couplings only), and resistance from
//! the copper resistivity. This crate implements the same quantities with
//! published closed-form models:
//!
//! * **Partial inductance** — Ruehli's self-inductance formula and the
//!   Neumann double-integral closed form for parallel filaments with
//!   arbitrary longitudinal offset, using the geometric-mean-distance of
//!   the rectangular cross section where centerline distance degenerates
//!   ([`inductance`]). Perpendicular filaments do not couple.
//! * **Capacitance** — Sakurai–Tamaru-style area + fringe formulas for the
//!   ground capacitance and an adjacent-line coupling term
//!   ([`capacitance`]).
//! * **Resistance** — `ρl/A` with an optional skin-depth correction, plus
//!   the lossy-substrate eddy-loss lumping used for the spiral inductor
//!   ([`resistance`]).
//!
//! The top-level entry point is [`extract`], which maps a
//! [`vpec_geometry::Layout`] to [`Parasitics`]: the partial-inductance
//! matrix `L` (including antiparallel coupling signs), per-filament series
//! resistance, per-filament ground capacitance, and adjacent coupling
//! capacitances.
//!
//! `L` is dense — every parallel pair couples — but [`extract`] does not
//! build it. [`PartialInductance`] evaluates entries on demand, bit for
//! bit as the dense assembly would, and builds the full matrix once, the
//! first time a consumer dereferences it. The windowed models read only
//! their window entries and never pay the `O(N²)` matrix.
//!
//! # Example
//!
//! ```
//! use vpec_extract::{extract, ExtractionConfig};
//! use vpec_geometry::BusSpec;
//!
//! let layout = BusSpec::new(5).build();
//! let para = extract(&layout, &ExtractionConfig::paper_default());
//! assert_eq!(para.inductance.rows(), 5);
//! // Partial inductance is dense: every pair couples. Single entries
//! // are evaluated on demand…
//! assert!(para.inductance.entry(0, 4) > 0.0);
//! assert!(!para.inductance.is_materialized());
//! // …and indexing builds the full matrix, once, with the same values.
//! assert_eq!(para.inductance[(0, 4)], para.inductance.entry(0, 4));
//! assert!(para.inductance.is_materialized());
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod capacitance;
pub mod captable;
pub mod impedance;
pub mod inductance;
pub mod resistance;
pub mod volume;

mod config;
mod error;
mod parasitics;
mod partial;

pub use captable::CapTable;
pub use config::ExtractionConfig;
pub use error::ExtractError;
pub use impedance::ConductorSystem;
pub use parasitics::{extract, Parasitics};
pub use partial::PartialInductance;
