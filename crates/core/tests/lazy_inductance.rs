//! Who builds the dense partial-inductance matrix `L`.
//!
//! The windowed kinds read window entries only, so a gwVPEC pipeline from
//! layout to transient must leave `L` unbuilt even on a bus whose dense
//! `L` would take half a gigabyte. The kinds that need all of `L` build it
//! once per experiment and share it.
//!
//! Audits are switched off here: the parasitics audit checks every entry
//! of `L` by design, and the audit level is process-global, which is why
//! these tests live in a binary of their own.

use vpec_circuit::TransientSpec;
use vpec_core::harness::{Experiment, ModelKind};
use vpec_core::DriveConfig;
use vpec_extract::ExtractionConfig;
use vpec_geometry::BusSpec;
use vpec_numerics::audit::{self, AuditLevel};

fn experiment(bits: usize) -> Experiment {
    audit::set_level(AuditLevel::Off);
    Experiment::new(
        BusSpec::new(bits).build(),
        &ExtractionConfig::paper_default(),
        DriveConfig::paper_default(),
    )
}

#[test]
fn windowed_pipeline_never_builds_l() {
    let exp = experiment(8192);
    let built = exp.build(ModelKind::WVpecGeometric { b: 8 }).unwrap();
    let (res, _) = built
        .run_transient(&TransientSpec::new(20e-12, 1e-12))
        .unwrap();
    assert!(built
        .far_voltage(&res, 1)
        .unwrap()
        .iter()
        .all(|v| v.is_finite()));
    assert!(
        !exp.parasitics.inductance.is_materialized(),
        "gwVPEC build + transient built the dense L"
    );
}

#[test]
fn peec_builds_share_one_l() {
    let exp = experiment(24);
    assert!(!exp.parasitics.inductance.is_materialized());
    let first = exp.build(ModelKind::Peec).unwrap();
    assert!(exp.parasitics.inductance.is_materialized());
    let l: *const _ = exp.parasitics.inductance.dense();
    let second = exp.build(ModelKind::Peec).unwrap();
    assert!(
        std::ptr::eq(l, exp.parasitics.inductance.dense()),
        "L was rebuilt"
    );
    assert_eq!(first.element_count(), second.element_count());
}
