//! The native VPEC filament (`Element::VpecBranch`, two MNA unknowns per
//! filament) against the paper's Fig. 1 realization it replaces (six
//! unknowns per filament), which survives as the export form.
//!
//! Both circuits encode the same equations, `v = l∘dA/dt` and
//! `Ĝ·A = l∘I`, so every analysis must agree to roundoff: the bound is
//! 1e-9 of the peak, per class of node (electrical voltages and magnetic
//! vector potentials have unrelated scales).

use vpec::circuit::adaptive::{run_transient_adaptive, AdaptiveSpec};
use vpec::circuit::dc::solve_dc;
use vpec::circuit::spice_in::from_spice;
use vpec::circuit::spice_out::{fig1_realization, netlist_size, to_classic_spice, to_spice};
use vpec::circuit::transient::run_transient;
use vpec::circuit::{AcResult, Element, TransientResult};
use vpec::prelude::*;

const TOL: f64 = 1e-9;

/// `max |x − y| / max |x|` over matching series.
fn gap(native: &[Vec<f64>], other: &[Vec<f64>]) -> f64 {
    let mut peak = 0.0f64;
    let mut diff = 0.0f64;
    for (a, b) in native.iter().zip(other) {
        assert_eq!(a.len(), b.len());
        for (x, y) in a.iter().zip(b) {
            peak = peak.max(x.abs());
            diff = diff.max((x - y).abs());
        }
    }
    assert!(peak > 0.0, "compared series are all zero");
    diff / peak
}

/// The native circuit's nodes split into (electrical, magnetic).
/// `fig1_realization` keeps node ids, so the same ids index both circuits.
fn node_classes(native: &Circuit) -> (Vec<NodeId>, Vec<NodeId>) {
    let mag: Vec<NodeId> = native
        .elements()
        .iter()
        .filter_map(|e| match e {
            Element::VpecBranch { mag, .. } => Some(*mag),
            _ => None,
        })
        .collect();
    let elec = (1..native.node_count())
        .map(NodeId)
        .filter(|n| !mag.contains(n))
        .collect();
    (elec, mag)
}

fn transient_series(res: &TransientResult, nodes: &[NodeId]) -> Vec<Vec<f64>> {
    nodes.iter().map(|&n| res.voltage(n).unwrap()).collect()
}

fn ac_series(res: &AcResult, nodes: &[NodeId]) -> Vec<Vec<f64>> {
    nodes
        .iter()
        .map(|&n| {
            res.voltage(n)
                .unwrap()
                .iter()
                .flat_map(|z| [z.re, z.im])
                .collect()
        })
        .collect()
}

/// Bound on AC vector potentials. At the low end of a sweep the inductive
/// drop `jω·len·A` is a small difference of node voltages, and the sparse
/// elimination of the native system recovers `A` from it: on the 2-turn
/// spiral at 100 MHz, native sparse vs native dense LU differ by 6e-8 of
/// the magnetic peak, while dense LU of both forms agrees to 2e-15. The
/// electrical node voltages stay within [`TOL`].
const AC_MAGNETIC_TOL: f64 = 1e-6;

/// Checks one class of nodes (skipped when the circuit has none, e.g. the
/// magnetic class of an inductor-based kind).
fn check(what: &str, tol: f64, nodes: &[NodeId], native: Vec<Vec<f64>>, fig1: Vec<Vec<f64>>) {
    if nodes.is_empty() {
        return;
    }
    let g = gap(&native, &fig1);
    assert!(
        g <= tol,
        "{what}: native vs Fig. 1 differ by {g:.3e} of peak"
    );
}

/// The VPEC kinds that apply to any layout; `tvpec` picks the window.
fn vpec_kinds(tvpec: ModelKind) -> Vec<ModelKind> {
    vec![
        ModelKind::VpecFull,
        ModelKind::VpecLocalized,
        tvpec,
        ModelKind::TVpecNumerical { threshold: 0.02 },
        ModelKind::WVpecGeometric { b: 8 },
        ModelKind::WVpecNumerical { threshold: 0.1 },
    ]
}

/// Every analysis of every kind in `kinds` on `layout`: native vs Fig. 1.
fn native_matches_fig1(layout: Layout, kinds: Vec<ModelKind>, label: &str) {
    // Sources start at 0.3 V so the DC point is not trivially zero; the
    // aggressor also carries an AC stimulus.
    let mut drive = DriveConfig::paper_default().stimulus(Waveform::Step {
        v0: 0.3,
        v1: 1.0,
        delay: 10e-12,
        rise: 10e-12,
    });
    drive.ac_stimulus = true;
    let exp = Experiment::new(layout, &ExtractionConfig::paper_default(), drive);
    let tran = TransientSpec::new(50e-12, 1e-12);
    // Loose tolerance: the step ladder is the same deterministic doubling
    // in both runs. The controller's error norm spans every MNA unknown,
    // and Fig. 1 carries extra ones (v(d) = dA/dt), so a tight tolerance
    // would pick different steps, not a different model.
    let adaptive = AdaptiveSpec::new(50e-12, 1e-12).tol(1e30);
    let ac = AcSpec::log_sweep(1e8, 1e10, 1).unwrap();
    for kind in kinds {
        let built = exp.build(kind).unwrap();
        // Resistive far-end loads make DC currents (and so DC vector
        // potentials) nonzero; the paper's capacitive loads carry none.
        let mut native = built.model.circuit.clone();
        for (k, &far) in built.model.far_nodes.iter().enumerate() {
            native
                .add_resistor(&format!("dcload{k}"), far, Circuit::GROUND, 1e3)
                .unwrap();
        }
        let native = &native;
        let fig1 = fig1_realization(native);
        let filaments = native
            .elements()
            .iter()
            .filter(|e| matches!(e, Element::VpecBranch { .. }))
            .count();
        // Fig. 1 spends six unknowns per filament (nodes a, s, d; ammeter,
        // VCVS and unit-inductor currents) where native spends two (A, I).
        assert_eq!(fig1.mna_dim(), native.mna_dim() + 4 * filaments);
        assert_eq!(fig1.reactive_count(), native.reactive_count());

        let (elec, mag) = node_classes(native);
        let tag = |analysis: &str, class: &str| format!("{label} {kind:?} {analysis} {class}");

        let rn = run_transient(native, &tran).unwrap();
        let rf = run_transient(&fig1, &tran).unwrap();
        for (class, nodes) in [("electrical", &elec), ("magnetic", &mag)] {
            check(
                &tag("transient", class),
                TOL,
                nodes,
                transient_series(&rn, nodes),
                transient_series(&rf, nodes),
            );
        }

        let dn = solve_dc(native).unwrap();
        let df = solve_dc(&fig1).unwrap();
        for (class, nodes) in [("electrical", &elec), ("magnetic", &mag)] {
            check(
                &tag("dc", class),
                TOL,
                nodes,
                vec![nodes.iter().map(|&n| dn.voltage(n)).collect()],
                vec![nodes.iter().map(|&n| df.voltage(n)).collect()],
            );
        }

        let an = run_ac(native, &ac).unwrap();
        let af = run_ac(&fig1, &ac).unwrap();
        for (class, nodes, tol) in [
            ("electrical", &elec, TOL),
            ("magnetic", &mag, AC_MAGNETIC_TOL),
        ] {
            check(
                &tag("ac", class),
                tol,
                nodes,
                ac_series(&an, nodes),
                ac_series(&af, nodes),
            );
        }

        let (qn, sn) = run_transient_adaptive(native, &adaptive).unwrap();
        let (qf, sf) = run_transient_adaptive(&fig1, &adaptive).unwrap();
        assert_eq!(sn, sf, "{label} {kind:?}: adaptive step ladders differ");
        assert!(sn.factorizations > 1, "the ladder must change dt");
        assert_eq!(qn.time(), qf.time());
        for (class, nodes) in [("electrical", &elec), ("magnetic", &mag)] {
            check(
                &tag("adaptive", class),
                TOL,
                nodes,
                transient_series(&qn, nodes),
                transient_series(&qf, nodes),
            );
        }
    }
}

fn run_ac(ckt: &Circuit, spec: &AcSpec) -> Result<AcResult, CircuitError> {
    vpec::circuit::ac::run_ac(ckt, spec)
}

#[test]
fn native_vpec_matches_fig1_on_table2_bus() {
    let mut kinds = vpec_kinds(ModelKind::TVpecGeometric { nw: 8, nl: 2 });
    // Shift truncation stays an inductor model: its Fig. 1 rewrite is the
    // identity, which this checks too. It needs a bus.
    kinds.push(ModelKind::ShiftTruncated { r0: um(10.0) });
    native_matches_fig1(BusSpec::new(32).segments(8).build(), kinds, "bus32x8");
}

#[test]
fn native_vpec_matches_fig1_on_two_turn_spiral() {
    native_matches_fig1(
        SpiralSpec::new(2).build(),
        vpec_kinds(ModelKind::TVpecGeometric { nw: 4, nl: 1 }),
        "spiral2",
    );
}

/// Two hand-built filaments against the PEEC coupled-inductor pair they
/// encode, `L = D_l·Ĝ⁻¹·D_l`: the same discrete trapezoidal solution.
#[test]
fn two_filaments_match_coupled_inductors() {
    let (l1, l2) = (400e-6, 250e-6);
    // An SPD, diagonally dominant magnetic conductance matrix Ĝ.
    let (g11, g22, g12) = (400.0, 250.0, -150.0);
    let det = g11 * g22 - g12 * g12;
    let (lm11, lm22, lm12) = (
        l1 * l1 * g22 / det,
        l2 * l2 * g11 / det,
        -l1 * l2 * g12 / det,
    );

    // Line k: step source → 50 Ω → filament k → 100 fF load; line 2 is
    // quiet and only couples magnetically.
    let build = |native: bool| {
        let mut c = Circuit::new();
        let drive = Waveform::step(1.0, 5e-12);
        let mut mids = Vec::new();
        let mut outs = Vec::new();
        for k in 0..2 {
            let src = c.node(&format!("src{k}"));
            let mid = c.node(&format!("mid{k}"));
            let out = c.node(&format!("out{k}"));
            let wave = if k == 0 {
                drive.clone()
            } else {
                Waveform::dc(0.0)
            };
            c.add_vsource(&format!("drv{k}"), src, Circuit::GROUND, wave)
                .unwrap();
            c.add_resistor(&format!("rs{k}"), src, mid, 50.0).unwrap();
            c.add_capacitor(&format!("cl{k}"), out, Circuit::GROUND, 100e-15)
                .unwrap();
            mids.push(mid);
            outs.push(out);
        }
        if native {
            let a0 = c.node("a0");
            let a1 = c.node("a1");
            c.add_vpec_branch("0", mids[0], outs[0], a0, l1).unwrap();
            c.add_vpec_branch("1", mids[1], outs[1], a1, l2).unwrap();
            // Row sums of Ĝ to ground, −Ĝ₁₂ between the magnetic nodes.
            c.add_resistor("rg0", a0, Circuit::GROUND, 1.0 / (g11 + g12))
                .unwrap();
            c.add_resistor("rg1", a1, Circuit::GROUND, 1.0 / (g22 + g12))
                .unwrap();
            c.add_resistor("rc0_1", a0, a1, -1.0 / g12).unwrap();
        } else {
            let i0 = c.add_inductor("0", mids[0], outs[0], lm11).unwrap();
            let i1 = c.add_inductor("1", mids[1], outs[1], lm22).unwrap();
            c.add_mutual("01", i0, i1, lm12).unwrap();
        }
        (c, outs)
    };
    let (native, outs_n) = build(true);
    let (peec, outs_p) = build(false);
    let spec = TransientSpec::new(0.2e-9, 0.5e-12);
    let rn = run_transient(&native, &spec).unwrap();
    let rp = run_transient(&peec, &spec).unwrap();
    for k in 0..2 {
        let g = gap(
            &[rp.voltage(outs_p[k]).unwrap()],
            &[rn.voltage(outs_n[k]).unwrap()],
        );
        assert!(
            g <= TOL,
            "line {k}: native filaments vs coupled L differ by {g:.3e}"
        );
    }
    // The quiet line really is coupled (not a vacuous comparison).
    let victim = rn.voltage(outs_n[1]).unwrap();
    assert!(victim.iter().fold(0.0f64, |m, v| m.max(v.abs())) > 1e-3);
}

/// The classic-SPICE export is the Fig. 1 deck of the parent lowering:
/// re-imported, it simulates like the native circuit. The deck prints 7
/// significant digits, so the native side is read back from its own deck
/// (`Y` cards) to carry the same rounded values.
#[test]
fn exported_fig1_deck_simulates_like_native() {
    let exp = Experiment::new(
        BusSpec::new(6).segments(2).build(),
        &ExtractionConfig::paper_default(),
        DriveConfig::paper_default(),
    );
    let spec = TransientSpec::new(0.2e-9, 1e-12);
    for kind in [ModelKind::VpecFull, ModelKind::WVpecGeometric { b: 2 }] {
        let built = exp.build(kind).unwrap();
        let native = &built.model.circuit;
        let classic = to_classic_spice(native, &kind.label());
        assert_eq!(classic.len(), netlist_size(native, &kind.label()));
        assert_eq!(classic.len(), built.netlist_bytes());
        // Classic decks carry no native cards; the native deck does.
        assert!(!classic.lines().any(|l| l.starts_with('Y')));
        let native_deck = to_spice(native, "native");
        assert!(native_deck.lines().any(|l| l.starts_with('Y')));

        let fig1 = from_spice(&classic).unwrap();
        let back = from_spice(&native_deck).unwrap();
        assert_eq!(back.element_count(), native.element_count());
        let expanded = fig1_realization(native);
        assert_eq!(fig1.element_count(), expanded.element_count());
        let rf = run_transient(&fig1, &spec).unwrap();
        let rb = run_transient(&back, &spec).unwrap();
        let (elec, _) = node_classes(native);
        // Node names, not ids, identify nodes across parsed decks.
        let by_name = |c: &Circuit, r: &TransientResult| -> Vec<Vec<f64>> {
            let mut c = c.clone();
            elec.iter()
                .map(|&n| r.voltage(c.node(native.node_name(n))).unwrap())
                .collect()
        };
        let g = gap(&by_name(&back, &rb), &by_name(&fig1, &rf));
        assert!(
            g <= TOL,
            "{kind:?}: exported Fig. 1 deck differs by {g:.3e} of peak"
        );
    }
}
