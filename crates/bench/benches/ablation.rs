//! Ablation benchmarks for the design choices called out in DESIGN.md:
//!
//! * **Solver backend** — dense LU vs RCM-ordered sparse LU on the same
//!   sparsified-VPEC netlist;
//! * **Time stepping** — fixed-step trapezoidal (factor once) vs adaptive
//!   stepping (the HSPICE-like regime in which sparsity pays on every
//!   factorization).

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use vpec_circuit::adaptive::{run_transient_adaptive, AdaptiveSpec};
use vpec_circuit::transient::run_transient;
use vpec_circuit::{SolverKind, TransientSpec};
use vpec_core::harness::{Experiment, ModelKind};
use vpec_core::DriveConfig;
use vpec_extract::ExtractionConfig;
use vpec_geometry::BusSpec;

fn experiment(bits: usize) -> Experiment {
    Experiment::new(
        BusSpec::new(bits).build(),
        &ExtractionConfig::paper_default(),
        DriveConfig::paper_default(),
    )
}

fn bench_solver_backend(c: &mut Criterion) {
    let mut g = c.benchmark_group("ablation-solver");
    g.sample_size(10);
    let exp = experiment(64);
    let built = exp
        .build(ModelKind::WVpecGeometric { b: 8 })
        .expect("build");
    for kind in [
        SolverKind::Dense,
        SolverKind::Sparse,
        SolverKind::SparseNoOrdering,
    ] {
        let label = match kind {
            SolverKind::Dense => "dense",
            SolverKind::Sparse => "sparse-rcm",
            _ => "sparse-noorder",
        };
        let spec = TransientSpec::new(0.2e-9, 1e-12).solver(kind);
        g.bench_with_input(BenchmarkId::new(label, 64), &built, |b, built| {
            b.iter(|| run_transient(&built.model.circuit, &spec).expect("transient"));
        });
    }
    g.finish();
}

fn bench_stepping(c: &mut Criterion) {
    let mut g = c.benchmark_group("ablation-stepping");
    g.sample_size(10);
    let exp = experiment(16);
    for kind in [ModelKind::Peec, ModelKind::WVpecGeometric { b: 8 }] {
        let built = exp.build(kind).expect("build");
        let label = if kind == ModelKind::Peec { "peec" } else { "gwvpec" };
        let fixed = TransientSpec::new(0.3e-9, 0.5e-12);
        g.bench_with_input(
            BenchmarkId::new(format!("{label}-fixed"), 16),
            &built,
            |b, built| {
                b.iter(|| run_transient(&built.model.circuit, &fixed).expect("transient"));
            },
        );
        let adaptive = AdaptiveSpec::new(0.3e-9, 1e-12).tol(1e-3);
        g.bench_with_input(
            BenchmarkId::new(format!("{label}-adaptive"), 16),
            &built,
            |b, built| {
                b.iter(|| run_transient_adaptive(&built.model.circuit, &adaptive).expect("ok"));
            },
        );
    }
    g.finish();
}

criterion_group!(benches, bench_solver_backend, bench_stepping);
criterion_main!(benches);
