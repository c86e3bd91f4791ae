//! Serial/parallel equivalence of the extraction assembly paths.
//!
//! The row-partitioned inductance assembly and the chunked parasitics
//! tables must reproduce the 1-worker result bit-for-bit at any worker
//! count (the upper triangle is computed in a fixed orientation and
//! mirrored, never recomputed). The 1e-12 gate here is a formality —
//! the observed difference is exactly zero.

use vpec_extract::inductance::partial_inductance_matrix;
use vpec_extract::{extract, ExtractionConfig};
use vpec_geometry::BusSpec;
use vpec_numerics::pool;

const THREAD_COUNTS: [usize; 3] = [1, 2, 8];
const TOL: f64 = 1e-12;

fn assert_close(a: &[f64], b: &[f64], what: &str) {
    assert_eq!(a.len(), b.len(), "{what}: shape mismatch");
    for (i, (x, y)) in a.iter().zip(b).enumerate() {
        assert!(
            (x - y).abs() <= TOL,
            "{what}: element {i} differs: {x} vs {y}"
        );
    }
}

#[test]
fn inductance_assembly_matches_serial() {
    let layout = BusSpec::new(12).segments(5).misalignment(0.3).build();
    pool::set_threads(1);
    let serial = partial_inductance_matrix(layout.filaments());
    for nt in THREAD_COUNTS {
        pool::set_threads(nt);
        let par = partial_inductance_matrix(layout.filaments());
        assert_close(serial.as_slice(), par.as_slice(), "inductance matrix");
    }
    pool::set_threads(0);
}

#[test]
fn full_extraction_matches_serial() {
    let layout = BusSpec::new(10).segments(4).shield_every(3).build();
    let cfg = ExtractionConfig::paper_default();
    // `extract` leaves `L` unevaluated; build it under the same worker
    // count as the rest of the extraction.
    let extract_dense = || {
        let p = extract(&layout, &cfg);
        let _ = p.inductance.dense();
        p
    };
    pool::set_threads(1);
    let serial = extract_dense();
    for nt in THREAD_COUNTS {
        pool::set_threads(nt);
        let par = extract_dense();
        assert_close(
            serial.inductance.as_slice(),
            par.inductance.as_slice(),
            "inductance",
        );
        assert_close(&serial.resistance, &par.resistance, "resistance");
        assert_close(&serial.cap_ground, &par.cap_ground, "cap_ground");
        assert_eq!(
            serial.cap_coupling, par.cap_coupling,
            "coupling list must match exactly (order and values)"
        );
        assert_close(&serial.lengths, &par.lengths, "lengths");
    }
    pool::set_threads(0);
}
