//! SPICE netlist export.
//!
//! The paper's Fig. 8(b) compares "model size", defined as "the file size
//! of the resulting SPICE netlists". This module renders a [`Circuit`] in
//! SPICE syntax so the same metric can be measured here.
//!
//! Two renderings exist:
//!
//! * [`to_spice`] writes every element as one card, including the native
//!   VPEC filament (`Y<name> a b mag len`) — this workspace's dialect, read
//!   back losslessly in structure by [`crate::spice_in::from_spice`];
//! * [`to_classic_spice`] first rewrites each filament into the paper's
//!   Fig. 1 realization ([`fig1_realization`]), so the deck is valid input
//!   for external SPICE-class simulators (HSPICE/ngspice dialect for the
//!   element cards used). [`netlist_size`] measures this deck.

use crate::elements::{Element, ElementId};
use crate::netlist::{Circuit, NodeId};
use crate::waveform::Waveform;
use std::collections::HashSet;
use std::fmt::Write as _;

fn fmt_wave(w: &Waveform) -> String {
    match w {
        Waveform::Dc(v) => format!("DC {v:.6e}"),
        Waveform::Step { v0, v1, delay, rise } => {
            let rise = rise.max(1e-15);
            if *delay > 0.0 {
                format!(
                    "PWL({:.6e} {:.6e} {:.6e} {:.6e} {:.6e} {:.6e})",
                    0.0,
                    v0,
                    delay,
                    v0,
                    delay + rise,
                    v1
                )
            } else {
                format!("PWL({:.6e} {:.6e} {:.6e} {:.6e})", 0.0, v0, rise, v1)
            }
        }
        Waveform::Pulse {
            v0,
            v1,
            delay,
            rise,
            fall,
            width,
            period,
        } => {
            let per = if period.is_finite() { *period } else { 1.0 };
            format!(
                "PULSE({v0:.6e} {v1:.6e} {delay:.6e} {rise:.6e} {fall:.6e} {width:.6e} {per:.6e})"
            )
        }
        Waveform::Pwl(pts) => {
            let mut s = String::from("PWL(");
            for (i, (t, v)) in pts.iter().enumerate() {
                if i > 0 {
                    s.push(' ');
                }
                let _ = write!(s, "{t:.6e} {v:.6e}");
            }
            s.push(')');
            s
        }
    }
}

/// Renders the circuit as SPICE netlist text.
///
/// Coupled inductors are emitted as `K` cards with the coupling
/// coefficient `k = M/√(L₁L₂)` as SPICE requires.
pub fn to_spice(ckt: &Circuit, title: &str) -> String {
    let mut out = String::new();
    let _ = writeln!(out, "* {title}");
    let node = |n: crate::NodeId| ckt.node_name(n).to_string();
    for e in ckt.elements() {
        match e {
            Element::Resistor { name, a, b, r } => {
                let _ = writeln!(out, "R{name} {} {} {r:.6e}", node(*a), node(*b));
            }
            Element::Capacitor { name, a, b, c } => {
                let _ = writeln!(out, "C{name} {} {} {c:.6e}", node(*a), node(*b));
            }
            Element::Inductor { name, a, b, l } => {
                let _ = writeln!(out, "L{name} {} {} {l:.6e}", node(*a), node(*b));
            }
            Element::Mutual { name, la, lb, m } => {
                let (l1, l2) = match (ckt.element(*la), ckt.element(*lb)) {
                    (
                        Element::Inductor { l: l1, name: n1, .. },
                        Element::Inductor { l: l2, name: n2, .. },
                    ) => ((*l1, n1.clone()), (*l2, n2.clone())),
                    _ => unreachable!("mutual references validated at build time"),
                };
                let k = m / (l1.0 * l2.0).sqrt();
                let _ = writeln!(out, "K{name} L{} L{} {k:.6e}", l1.1, l2.1);
            }
            Element::VSource { name, p, n, wave, ac } => {
                let mut card = format!("V{name} {} {} {}", node(*p), node(*n), fmt_wave(wave));
                if let Some((m, ph)) = ac {
                    let _ = write!(card, " AC {m:.6e} {ph:.6e}");
                }
                let _ = writeln!(out, "{card}");
            }
            Element::ISource { name, p, n, wave, ac } => {
                let mut card = format!("I{name} {} {} {}", node(*p), node(*n), fmt_wave(wave));
                if let Some((m, ph)) = ac {
                    let _ = write!(card, " AC {m:.6e} {ph:.6e}");
                }
                let _ = writeln!(out, "{card}");
            }
            Element::Vcvs {
                name, p, n, cp, cn, gain,
            } => {
                let _ = writeln!(
                    out,
                    "E{name} {} {} {} {} {gain:.6e}",
                    node(*p),
                    node(*n),
                    node(*cp),
                    node(*cn)
                );
            }
            Element::Vccs {
                name, p, n, cp, cn, gm,
            } => {
                let _ = writeln!(
                    out,
                    "G{name} {} {} {} {} {gm:.6e}",
                    node(*p),
                    node(*n),
                    node(*cp),
                    node(*cn)
                );
            }
            Element::Cccs {
                name, p, n, sense, gain,
            } => {
                let _ = writeln!(
                    out,
                    "F{name} {} {} V{} {gain:.6e}",
                    node(*p),
                    node(*n),
                    ckt.element(*sense).name()
                );
            }
            Element::Ccvs { name, p, n, sense, r } => {
                let _ = writeln!(
                    out,
                    "H{name} {} {} V{} {r:.6e}",
                    node(*p),
                    node(*n),
                    ckt.element(*sense).name()
                );
            }
            Element::VpecBranch {
                name, a, b, mag, len,
            } => {
                let _ = writeln!(
                    out,
                    "Y{name} {} {} {} {len:.6e}",
                    node(*a),
                    node(*b),
                    node(*mag)
                );
            }
        }
    }
    let _ = writeln!(out, ".end");
    out
}

/// SPICE card letter of an element.
fn card_letter(e: &Element) -> char {
    match e {
        Element::Resistor { .. } => 'R',
        Element::Capacitor { .. } => 'C',
        Element::Inductor { .. } => 'L',
        Element::Mutual { .. } => 'K',
        Element::VSource { .. } => 'V',
        Element::ISource { .. } => 'I',
        Element::Vcvs { .. } => 'E',
        Element::Vccs { .. } => 'G',
        Element::Cccs { .. } => 'F',
        Element::Ccvs { .. } => 'H',
        Element::VpecBranch { .. } => 'Y',
    }
}

/// Rewrites every native VPEC filament into the paper's Fig. 1
/// realization; every other element is copied unchanged, and node ids are
/// preserved.
///
/// A filament `Y<n> a b mag len` becomes, in this order:
///
/// * `Vamm<n> a s<n> DC 0` — the 0 V ammeter sensing the segment current;
/// * `Ee<n> s<n> b d<n> 0 len` — the inductive drop `len·v(d<n>)`;
/// * `Ff<n> 0 mag Vamm<n> len` — the injection `len·I` into `mag`;
/// * `Gg<n> 0 d<n> mag 0 1` — copies `A` into the unit inductor's current;
/// * `Llu<n> d<n> 0 1` — the unit inductor, whose voltage is `dA/dt`.
///
/// The rewritten circuit is electrically identical (same node voltages and
/// segment currents) at six MNA unknowns per filament instead of two.
/// Controlled sources sensing a filament sense its ammeter instead. Should
/// a derived name already be taken, `_` is appended to the filament's
/// suffix until all seven names are free.
pub fn fig1_realization(ckt: &Circuit) -> Circuit {
    let mut out = Circuit::new();
    for k in 1..ckt.node_count() {
        out.node(ckt.node_name(NodeId(k)));
    }
    let mut cards: HashSet<String> = ckt
        .elements()
        .iter()
        .map(|e| format!("{}{}", card_letter(e), e.name()).to_ascii_lowercase())
        .collect();
    // Old element index → id in `out` (a filament maps to its ammeter).
    let mut ids: Vec<ElementId> = Vec::with_capacity(ckt.element_count());
    let remap = |ids: &[ElementId], id: ElementId| ids[id.0];
    for e in ckt.elements() {
        let id = match e {
            Element::VpecBranch {
                name, a, b, mag, len,
            } => {
                let mut sfx = name.clone();
                let derived = |sfx: &str| {
                    [
                        format!("vamm{sfx}"),
                        format!("ee{sfx}"),
                        format!("ff{sfx}"),
                        format!("gg{sfx}"),
                        format!("llu{sfx}"),
                    ]
                    .map(|c| c.to_ascii_lowercase())
                };
                while derived(&sfx).iter().any(|c| cards.contains(c))
                    || out.find_node(&format!("s{sfx}")).is_some()
                    || out.find_node(&format!("d{sfx}")).is_some()
                {
                    sfx.push('_');
                }
                cards.extend(derived(&sfx));
                let s = out.node(&format!("s{sfx}"));
                let d = out.node(&format!("d{sfx}"));
                let amm = out.push(Element::VSource {
                    name: format!("amm{sfx}"),
                    p: *a,
                    n: s,
                    wave: Waveform::dc(0.0),
                    ac: None,
                });
                out.push(Element::Vcvs {
                    name: format!("e{sfx}"),
                    p: s,
                    n: *b,
                    cp: d,
                    cn: Circuit::GROUND,
                    gain: *len,
                });
                out.push(Element::Cccs {
                    name: format!("f{sfx}"),
                    p: Circuit::GROUND,
                    n: *mag,
                    sense: amm,
                    gain: *len,
                });
                out.push(Element::Vccs {
                    name: format!("g{sfx}"),
                    p: Circuit::GROUND,
                    n: d,
                    cp: *mag,
                    cn: Circuit::GROUND,
                    gm: 1.0,
                });
                out.push(Element::Inductor {
                    name: format!("lu{sfx}"),
                    a: d,
                    b: Circuit::GROUND,
                    l: 1.0,
                });
                amm
            }
            Element::Mutual { name, la, lb, m } => out.push(Element::Mutual {
                name: name.clone(),
                la: remap(&ids, *la),
                lb: remap(&ids, *lb),
                m: *m,
            }),
            Element::Cccs {
                name, p, n, sense, gain,
            } => out.push(Element::Cccs {
                name: name.clone(),
                p: *p,
                n: *n,
                sense: remap(&ids, *sense),
                gain: *gain,
            }),
            Element::Ccvs { name, p, n, sense, r } => out.push(Element::Ccvs {
                name: name.clone(),
                p: *p,
                n: *n,
                sense: remap(&ids, *sense),
                r: *r,
            }),
            other => out.push(other.clone()),
        };
        ids.push(id);
    }
    out
}

/// Renders the circuit as a classic-SPICE deck: [`to_spice`] of its
/// [`fig1_realization`], the form external simulators accept.
pub fn to_classic_spice(ckt: &Circuit, title: &str) -> String {
    to_spice(&fig1_realization(ckt), title)
}

/// Size in bytes of the classic-SPICE deck ([`to_classic_spice`]) — the
/// paper's model-size metric, measured on the deck HSPICE would read.
pub fn netlist_size(ckt: &Circuit, title: &str) -> usize {
    to_classic_spice(ckt, title).len()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::netlist::Circuit;

    fn sample() -> Circuit {
        let mut c = Circuit::new();
        let a = c.node("a");
        let b = c.node("b");
        c.add_vsource("in", a, Circuit::GROUND, Waveform::step(1.0, 10e-12))
            .unwrap();
        c.add_resistor("1", a, b, 120.0).unwrap();
        let l1 = c.add_inductor("1", b, Circuit::GROUND, 1e-9).unwrap();
        let l2 = c.add_inductor("2", a, Circuit::GROUND, 2e-9).unwrap();
        c.add_mutual("12", l1, l2, 0.5e-9).unwrap();
        c.add_capacitor("L", b, Circuit::GROUND, 10e-15).unwrap();
        c
    }

    #[test]
    fn renders_all_cards() {
        let s = to_spice(&sample(), "test deck");
        assert!(s.starts_with("* test deck"));
        assert!(s.contains("Vin a 0 PWL("));
        assert!(s.contains("R1 a b 1.2"));
        assert!(s.contains("L1 b 0"));
        assert!(s.contains("L2 a 0"));
        assert!(s.contains("K12 L1 L2"));
        assert!(s.contains("CL b 0 1.0"));
        assert!(s.trim_end().ends_with(".end"));
    }

    #[test]
    fn coupling_coefficient_computed() {
        let s = to_spice(&sample(), "t");
        // k = 0.5e-9 / sqrt(1e-9 * 2e-9) ≈ 0.3536
        let line = s.lines().find(|l| l.starts_with("K12")).unwrap();
        let k: f64 = line.split_whitespace().last().unwrap().parse().unwrap();
        assert!((k - 0.35355).abs() < 1e-4);
    }

    #[test]
    fn controlled_sources_render() {
        let mut c = Circuit::new();
        let a = c.node("a");
        let b = c.node("b");
        let v = c
            .add_vsource("s", a, Circuit::GROUND, Waveform::dc(0.0))
            .unwrap();
        c.add_vcvs("e1", b, Circuit::GROUND, a, Circuit::GROUND, 2.0)
            .unwrap();
        c.add_vccs("g1", b, Circuit::GROUND, a, Circuit::GROUND, 0.1)
            .unwrap();
        c.add_cccs("f1", b, Circuit::GROUND, v, 3.0).unwrap();
        c.add_ccvs("h1", b, Circuit::GROUND, v, 7.0).unwrap();
        let s = to_spice(&c, "ctl");
        assert!(s.contains("Ee1 b 0 a 0"));
        assert!(s.contains("Gg1 b 0 a 0"));
        assert!(s.contains("Ff1 b 0 Vs"));
        assert!(s.contains("Hh1 b 0 Vs"));
    }

    #[test]
    fn size_metric_positive_and_grows() {
        let small = netlist_size(&sample(), "t");
        assert!(small > 50);
        let mut big = sample();
        let z = big.node("z");
        for i in 0..100 {
            big.add_resistor(&format!("x{i}"), z, Circuit::GROUND, 1.0)
                .unwrap();
        }
        assert!(netlist_size(&big, "t") > small + 1000);
    }

    #[test]
    fn fig1_realization_expands_filaments() {
        let mut c = Circuit::new();
        let a = c.node("a");
        let b = c.node("b");
        let m = c.node("m");
        // Names the rewrite would derive for filament "1" are taken.
        c.node("s1");
        c.add_vsource("amm1", a, Circuit::GROUND, Waveform::dc(1.0))
            .unwrap();
        let f = c.add_vpec_branch("1", a, b, m, 2e-6).unwrap();
        c.add_resistor("rg1", m, Circuit::GROUND, 0.5).unwrap();
        c.add_resistor("load", b, Circuit::GROUND, 50.0).unwrap();
        c.add_cccs("mirror", Circuit::GROUND, b, f, 0.1).unwrap();

        let x = fig1_realization(&c);
        assert_eq!(x.element_count(), c.element_count() + 4);
        assert_eq!(x.reactive_count(), c.reactive_count());
        assert_eq!(x.mna_dim(), c.mna_dim() + 4);
        // Node ids survive; the derived names moved to a free suffix.
        for k in 1..c.node_count() {
            assert_eq!(x.node_name(NodeId(k)), c.node_name(NodeId(k)));
        }
        let deck = to_spice(&x, "fig1");
        for card in [
            "Vamm1_ a s1_ DC 0.000000e0",
            "Ee1_ s1_ b d1_ 0 2.000000e-6",
            "Ff1_ 0 m Vamm1_ 2.000000e-6",
            "Gg1_ 0 d1_ m 0 1.000000e0",
            "Llu1_ d1_ 0 1.000000e0",
            // A source sensing the filament senses its ammeter.
            "Fmirror 0 b Vamm1_ 1.000000e-1",
        ] {
            assert!(deck.contains(card), "missing {card:?} in\n{deck}");
        }
        assert_eq!(to_classic_spice(&c, "fig1"), deck);
        assert_eq!(netlist_size(&c, "fig1"), deck.len());
        // The native deck keeps the filament as one card.
        assert!(to_spice(&c, "native").contains("Y1 a b m 2.000000e-6"));
    }

    #[test]
    fn waveform_cards() {
        assert!(fmt_wave(&Waveform::dc(1.0)).starts_with("DC"));
        assert!(fmt_wave(&Waveform::pulse(1.0, 1e-12, 1e-9, 1e-12)).starts_with("PULSE"));
        assert!(fmt_wave(&Waveform::pwl(vec![(0.0, 0.0), (1e-9, 1.0)])).starts_with("PWL"));
    }
}
