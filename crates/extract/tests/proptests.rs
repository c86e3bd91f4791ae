//! Property-style tests for the closed-form extraction kernels, driven by
//! the workspace's deterministic [`XorShift64`] generator (the suite
//! builds offline, without `proptest`).

use vpec_extract::capacitance::{coupling_capacitance, ground_capacitance, overlap_length};
use vpec_extract::inductance::{
    mutual_inductance, mutual_inductance_bound, partial_inductance_matrix, self_inductance,
};
use vpec_extract::resistance::{ac_resistance, dc_resistance};
use vpec_extract::PartialInductance;
use vpec_geometry::{um, Axis, BusSpec, Filament, SpiralSpec};
use vpec_numerics::rng::XorShift64;

const CASES: usize = 128;

/// A physical wire filament with bounded aspect ratios.
fn filament(rng: &mut XorShift64) -> Filament {
    Filament::new(
        [
            um(rng.range_f64(-500.0, 500.0)),
            um(rng.range_f64(-50.0, 50.0)),
            0.0,
        ],
        Axis::X,
        um(rng.range_f64(50.0, 2000.0)),
        um(rng.range_f64(0.3, 4.0)),
        um(rng.range_f64(0.3, 4.0)),
    )
}

#[test]
fn self_inductance_positive_and_superlinear() {
    let mut rng = XorShift64::new(0x4001);
    for _ in 0..CASES {
        let f = filament(&mut rng);
        let l1 = self_inductance(&f);
        assert!(l1 > 0.0);
        let mut longer = f;
        longer.length *= 2.0;
        let l2 = self_inductance(&longer);
        assert!(l2 > 2.0 * l1, "partial self-L grows faster than length");
    }
}

#[test]
fn mutual_symmetric_and_bounded() {
    let mut rng = XorShift64::new(0x4002);
    for _ in 0..CASES {
        let a = filament(&mut rng);
        let b = filament(&mut rng);
        let mab = mutual_inductance(&a, &b);
        let mba = mutual_inductance(&b, &a);
        assert!((mab - mba).abs() <= 1e-18 + 1e-12 * mab.abs());
        // Passivity bound for the pair: |M| ≤ √(L₁·L₂).
        let bound = (self_inductance(&a) * self_inductance(&b)).sqrt();
        assert!(
            mab.abs() <= bound * (1.0 + 1e-9),
            "|M| = {} exceeds √(L1·L2) = {}",
            mab.abs(),
            bound
        );
    }
}

#[test]
fn mutual_decays_with_lateral_distance() {
    let mut rng = XorShift64::new(0x4003);
    for _ in 0..CASES {
        let f = filament(&mut rng);
        let d1 = rng.range_f64(2.0, 20.0);
        let factor = rng.range_f64(1.5, 5.0);
        let near = Filament {
            origin: [f.origin[0], f.origin[1] + um(d1), 0.0],
            ..f
        };
        let far = Filament {
            origin: [f.origin[0], f.origin[1] + um(d1 * factor), 0.0],
            ..f
        };
        assert!(mutual_inductance(&f, &near) > mutual_inductance(&f, &far));
    }
}

#[test]
fn same_direction_parallel_mutual_positive() {
    let mut rng = XorShift64::new(0x4004);
    for _ in 0..CASES {
        let f = filament(&mut rng);
        let dy = rng.range_f64(1.0, 100.0);
        let other = Filament {
            origin: [f.origin[0], f.origin[1] + um(dy), 0.0],
            ..f
        };
        assert!(mutual_inductance(&f, &other) > 0.0);
    }
}

#[test]
fn direction_flip_negates_mutual() {
    let mut rng = XorShift64::new(0x4005);
    for _ in 0..CASES {
        let a = filament(&mut rng);
        let dy = rng.range_f64(1.0, 50.0);
        let b = Filament {
            origin: [a.origin[0], a.origin[1] + um(dy), 0.0],
            ..a
        };
        let m_pos = mutual_inductance(&a, &b);
        let m_neg = mutual_inductance(&a, &b.with_direction(-1.0));
        assert!((m_pos + m_neg).abs() < 1e-18 + 1e-12 * m_pos.abs());
    }
}

#[test]
fn small_l_matrices_are_spd() {
    let mut rng = XorShift64::new(0x4006);
    for _ in 0..CASES {
        let f = filament(&mut rng);
        let mut fils = vec![f];
        let mut y = f.origin[1];
        for _ in 0..rng.range_usize(1, 5) {
            y += um(rng.range_f64(1.0, 30.0)) + f.width;
            fils.push(Filament {
                origin: [f.origin[0], y, 0.0],
                ..f
            });
        }
        let l = partial_inductance_matrix(&fils);
        assert!(l.is_symmetric(1e-9));
        assert!(vpec_numerics::Cholesky::new(&l).is_ok(), "L must be s.p.d.");
    }
}

#[test]
fn resistance_laws() {
    let mut rng = XorShift64::new(0x4007);
    for _ in 0..CASES {
        let f = filament(&mut rng);
        let rho = rng.range_f64(1.0e-8, 1.0e-7);
        let r = dc_resistance(&f, rho);
        assert!(r > 0.0);
        // R scales inversely with area.
        let mut wide = f;
        wide.width *= 2.0;
        assert!(dc_resistance(&wide, rho) < r);
        // AC never below DC.
        let rac = ac_resistance(&f, rho, 1.0e10);
        assert!(rac >= r * (1.0 - 1e-12));
    }
}

#[test]
fn capacitance_laws() {
    let mut rng = XorShift64::new(0x4008);
    for _ in 0..CASES {
        let f = filament(&mut rng);
        let h = rng.range_f64(0.5, 5.0);
        let eps = rng.range_f64(1.0, 8.0);
        let c = ground_capacitance(&f, um(h), eps);
        assert!(c > 0.0);
        // More dielectric, more capacitance.
        assert!(ground_capacitance(&f, um(h), eps * 2.0) > c);
        // Further from ground, less area capacitance.
        assert!(ground_capacitance(&f, um(h) * 4.0, eps) < c);
    }
}

#[test]
fn coupling_cap_needs_overlap() {
    let mut rng = XorShift64::new(0x4009);
    for _ in 0..CASES {
        let a = filament(&mut rng);
        let dx = rng.range_f64(0.0, 3000.0);
        let b = Filament {
            origin: [a.origin[0] + a.length + um(dx), a.origin[1] + um(3.0), 0.0],
            ..a
        };
        assert_eq!(overlap_length(&a, &b), 0.0);
        assert_eq!(coupling_capacitance(&a, &b, um(1.0), 2.0), 0.0);
    }
}

/// A random filament parallel to `a`: any span and offset along the axis,
/// any cross section and current direction, at lateral offsets from
/// collinear (0) out to `reach`.
fn parallel_partner(rng: &mut XorShift64, a: &Filament, reach: f64) -> Filament {
    let lateral = if rng.chance(0.2) {
        [0.0, 0.0]
    } else {
        [rng.range_f64(-reach, reach), rng.range_f64(-reach, reach)]
    };
    let f = Filament::new(
        [
            a.origin[0] + um(rng.range_f64(-3000.0, 3000.0)),
            a.origin[1] + lateral[0],
            a.origin[2] + lateral[1],
        ],
        Axis::X,
        um(rng.range_f64(1.0, 2000.0)),
        um(rng.range_f64(0.1, 6.0)),
        um(rng.range_f64(0.1, 6.0)),
    );
    f.with_direction(if rng.chance(0.5) { -1.0 } else { 1.0 })
}

#[test]
fn decay_bound_never_below_mutual() {
    let mut rng = XorShift64::new(0x4010);
    for _ in 0..4 * CASES {
        let a = filament(&mut rng).with_direction(if rng.chance(0.5) { -1.0 } else { 1.0 });
        for reach in [um(5.0), um(200.0), um(5000.0)] {
            let b = parallel_partner(&mut rng, &a, reach);
            let m = mutual_inductance(&a, &b).abs();
            let r = a.radial_distance_to(&b);
            for max_len in [b.length, 2.0 * b.length] {
                let bound = mutual_inductance_bound(a.length, max_len, r);
                assert!(
                    bound >= m,
                    "bound {bound} < |M| {m} at radial {r}: {a:?} {b:?}"
                );
            }
        }
    }
}

#[test]
fn coupling_bound_covers_rounding_at_any_distance() {
    // Far pairs: the closed form cancels four O(d) terms down to
    // O(l²/d), so its rounding outgrows the analytic bound's margin. The
    // certified bound adds the worst-case rounding for the layout.
    let mut rng = XorShift64::new(0x4011);
    for _ in 0..CASES {
        let mut fils = Vec::new();
        for _ in 0..8 {
            let f = Filament::new(
                [
                    um(rng.range_f64(-100.0, 100.0)),
                    rng.range_f64(-0.5, 0.5),
                    um(rng.range_f64(-20.0, 20.0)),
                ],
                Axis::X,
                um(rng.range_f64(1.0, 100.0)),
                um(rng.range_f64(0.1, 4.0)),
                um(rng.range_f64(0.1, 4.0)),
            );
            fils.push(f.with_direction(if rng.chance(0.5) { -1.0 } else { 1.0 }));
        }
        let l = PartialInductance::new(&fils);
        for m in 0..fils.len() {
            for j in 0..fils.len() {
                if j != m {
                    let r = fils[m].radial_distance_to(&fils[j]);
                    let bound = l.coupling_bound(m, r);
                    assert!(bound >= l.entry(m, j).abs(), "({m}, {j}) at radial {r}");
                }
            }
        }
    }
}

#[test]
fn lazy_entries_are_bit_identical_to_the_dense_matrix() {
    let layouts = [
        BusSpec::new(24).segments(3).misalignment(0.4).build(),
        BusSpec::new(10).segments(2).shield_every(3).build(),
        SpiralSpec::new(2).build(),
        SpiralSpec::paper_three_turn().build(),
    ];
    for layout in &layouts {
        let fils = layout.filaments();
        let dense = partial_inductance_matrix(fils);
        let lazy = PartialInductance::new(fils);
        for i in 0..fils.len() {
            for j in 0..fils.len() {
                assert_eq!(
                    lazy.entry(i, j).to_bits(),
                    dense[(i, j)].to_bits(),
                    "({i}, {j})"
                );
            }
        }
        assert!(!lazy.is_materialized());
    }
}
