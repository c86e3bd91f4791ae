//! Linear-solver selection and the factorization **fallback chain**:
//! dense LU for small or dense MNA systems, sparse Gilbert–Peierls LU
//! otherwise — and when the chosen backend fails, a bounded chain of
//! recovery stages (sparse LU → dense LU with partial pivoting →
//! optional Tikhonov-regularized dense LU with escalating `ε`).
//!
//! The sparse path mirrors the mechanism the paper credits for VPEC's
//! simulation speed-up: "its internal sparse solver is more efficient for
//! a less dense matrix". Before it factors, it orders the unknowns by
//! approximate minimum degree on the pattern of `A + Aᵀ`, which keeps the
//! fill of the fully coupled systems (full VPEC, PEEC) low and that of the
//! near-banded windowed ones at or below a bandwidth order's. Every solve
//! is direct: on the benched MNA systems sparse LU beats preconditioned
//! Krylov iteration by orders of magnitude in time and gives the exact
//! answer. The recovery chain is this workspace's
//! production hardening: a near-singular MNA system degrades through the
//! chain and is reported in [`FactorDiagnostics`] instead of panicking or
//! silently emitting garbage.

use crate::diagnostics::{FactorAttempt, FactorDiagnostics, FactorStrategy, FillOrdering};
use crate::error::CircuitError;
use vpec_numerics::ordering::SymmetricPattern;
use vpec_numerics::{CooMatrix, CsrMatrix, LuFactor, NumericsError, Scalar, SparseLu};

/// Which factorization backend to use.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum SolverKind {
    /// Choose dense or sparse LU from the dimension and density.
    #[default]
    Auto,
    /// Force dense LU.
    Dense,
    /// Force sparse LU under the approximate minimum degree ordering.
    Sparse,
    /// Sparse LU **without** the fill-reducing ordering — exists for the
    /// ablation benches; expect catastrophic fill on netlist-ordered MNA
    /// systems.
    SparseNoOrdering,
}

impl SolverKind {
    /// Parses the CLI/engine grammar (`--solver=`, the batch `"solver"`
    /// field): `auto`, or `direct` as its alias. The forced backends
    /// (`dense`, `sparse`, `sparse-no-ordering`) are accepted too so
    /// ablation scripts can pin a backend.
    ///
    /// # Errors
    ///
    /// A human-readable message naming the accepted tokens.
    pub fn parse(tok: &str) -> Result<Self, String> {
        match tok {
            "auto" | "direct" => Ok(SolverKind::Auto),
            "dense" => Ok(SolverKind::Dense),
            "sparse" => Ok(SolverKind::Sparse),
            "sparse-no-ordering" => Ok(SolverKind::SparseNoOrdering),
            other => Err(format!(
                "unknown solver: {other} (use auto, direct, dense, sparse or sparse-no-ordering)"
            )),
        }
    }
}

/// How the fallback chain is allowed to recover, plus test-only fault
/// injection.
#[derive(Debug, Clone, Copy, Default)]
pub(crate) struct FactorOptions {
    /// Requested backend.
    pub kind: SolverKind,
    /// Permit the final Tikhonov-regularized stage. Off by default so a
    /// genuinely singular system (floating node, source loop) stays a
    /// typed error rather than a silently biased solution.
    pub regularize: bool,
    /// Fault injection: report the primary backend as failed.
    pub fail_primary: bool,
}

impl FactorOptions {
    pub fn new(kind: SolverKind) -> Self {
        FactorOptions {
            kind,
            ..FactorOptions::default()
        }
    }
}

/// Escalation schedule of the regularized stage: `ε = scale·10⁻¹⁰·100ᵏ`
/// for `k = 0..4`, where `scale` is the largest matrix entry.
const REGULARIZATION_STEPS: u32 = 4;
const REGULARIZATION_BASE: f64 = 1e-10;

/// A factored MNA matrix ready for repeated solves.
#[derive(Debug)]
pub(crate) enum Factored<T: Scalar> {
    Dense(LuFactor<T>),
    /// Sparse LU of the symmetrically reordered system; the ordering is
    /// folded into the factor's own gather/scatter maps.
    Sparse {
        lu: SparseLu<T>,
        ordering: FillOrdering,
    },
}

/// The fill ordering of one sparsity pattern, `perm[new] = old`.
/// Matrices that share the pattern — the frequency points of an AC sweep,
/// the step sizes of an adaptive transient — reuse it instead of ordering
/// again.
#[derive(Debug, Clone)]
pub(crate) struct FillPlan {
    perm: Vec<usize>,
}

impl FillPlan {
    /// Orders the unknowns of `coo` by approximate minimum degree when
    /// `kind` factors it with sparse LU under an ordering; `None` when the
    /// primary backend is dense LU or unordered sparse LU.
    pub fn for_kind<T: Scalar>(coo: &CooMatrix<T>, kind: SolverKind) -> Option<Self> {
        let csr = coo.to_csr();
        (primary_strategy(kind, &csr) == FactorStrategy::SparseLu).then(|| Self::new(&csr))
    }

    fn new<T: Scalar>(csr: &CsrMatrix<T>) -> Self {
        let _sp = vpec_trace::span("factor.order");
        FillPlan {
            perm: SymmetricPattern::new(csr).amd(),
        }
    }
}

/// The backend the fallback chain tries first: `kind` itself when it
/// forces one; for `Auto`, dense LU for small systems and for dense
/// mid-size ones, where sparse LU is several times slower, and ordered
/// sparse LU otherwise.
fn primary_strategy<T: Scalar>(kind: SolverKind, csr: &CsrMatrix<T>) -> FactorStrategy {
    match kind {
        SolverKind::Auto => {
            let dim = csr.rows();
            if dim <= 64 || (csr.density() > 0.15 && dim <= 2048) {
                FactorStrategy::DenseLu
            } else {
                FactorStrategy::SparseLu
            }
        }
        SolverKind::Dense => FactorStrategy::DenseLu,
        SolverKind::Sparse => FactorStrategy::SparseLu,
        SolverKind::SparseNoOrdering => FactorStrategy::SparseLuNoOrdering,
    }
}

impl<T: Scalar> Factored<T> {
    /// Factors the assembled system with the requested backend. The sparse
    /// path orders the unknowns for fill first — netlist-order MNA
    /// unknowns factor with catastrophic fill otherwise. On failure the
    /// bounded fallback chain engages; see [`Factored::factor_with`].
    pub fn factor(coo: &CooMatrix<T>, kind: SolverKind) -> Result<Self, CircuitError> {
        Self::factor_with(coo, FactorOptions::new(kind), None).map(|(f, _)| f)
    }

    /// Factors with the full fallback chain and returns what happened. An
    /// ordered sparse primary uses `plan` when it is given and orders
    /// afresh otherwise.
    ///
    /// Stages, in order (each bounded, no retry loops besides the fixed
    /// `ε` escalation):
    ///
    /// 1. the primary backend chosen by `opts.kind` (dense or sparse);
    /// 2. dense LU with partial pivoting, when the primary was sparse — an
    ///    independent backend for a sparse factorization that failed;
    /// 3. if `opts.regularize`: dense LU of `A + ε·I` with `ε` escalating
    ///    over [`REGULARIZATION_STEPS`] decades-of-100 from
    ///    `max|Aᵢⱼ|·1e-10`.
    ///
    /// The returned [`FactorDiagnostics`] records every attempt, the
    /// condition estimate, fill ordering, nonzeros and storage of the
    /// accepted factor and the final `ε`.
    ///
    /// # Errors
    ///
    /// A plan whose length is not the matrix dimension is a caller error,
    /// reported as [`CircuitError::Numerics`] before any stage runs; a
    /// system that no stage can factor is
    /// [`CircuitError::SingularSystem`] (or the last stage's error).
    pub fn factor_with(
        coo: &CooMatrix<T>,
        opts: FactorOptions,
        plan: Option<&FillPlan>,
    ) -> Result<(Self, FactorDiagnostics), CircuitError> {
        let csr = coo.to_csr();
        let dim = csr.rows();
        if let Some(p) = plan.filter(|p| p.perm.len() != dim) {
            return Err(NumericsError::DimensionMismatch {
                op: "fill plan",
                expected: (dim, 1),
                found: (p.perm.len(), 1),
            }
            .into());
        }
        let mut sp = vpec_trace::span!("factor", "dim" => dim);
        let primary_strategy = primary_strategy(opts.kind, &csr);

        let mut diag = FactorDiagnostics::default();
        let mut last_err: Option<CircuitError> = None;

        // Stage 1: the primary backend.
        let mut factor: Option<Factored<T>> = if opts.fail_primary {
            last_err = Some(CircuitError::SingularSystem { analysis: "solve" });
            diag.attempts.push(FactorAttempt {
                strategy: primary_strategy,
                succeeded: false,
            });
            None
        } else {
            let (outcome, err) = match Self::try_primary(&csr, primary_strategy, plan) {
                Ok(f) => (Some(f), None),
                Err(e) => (None, Some(e)),
            };
            diag.attempts.push(FactorAttempt {
                strategy: primary_strategy,
                succeeded: outcome.is_some(),
            });
            if let Some(e) = err {
                last_err = Some(e);
            }
            outcome
        };

        // Stage 2: dense LU with partial pivoting (pointless to repeat if
        // the primary already was dense).
        if factor.is_none() && primary_strategy != FactorStrategy::DenseLu {
            match LuFactor::new(&csr.to_dense()) {
                Ok(lu) => {
                    diag.attempts.push(FactorAttempt {
                        strategy: FactorStrategy::DenseLu,
                        succeeded: true,
                    });
                    factor = Some(Factored::Dense(lu));
                }
                Err(e) => {
                    diag.attempts.push(FactorAttempt {
                        strategy: FactorStrategy::DenseLu,
                        succeeded: false,
                    });
                    last_err = Some(e.into());
                }
            }
        }

        // Stage 3: Tikhonov-regularized dense LU with escalating ε.
        if factor.is_none() && opts.regularize {
            let dense = csr.to_dense();
            let scale = dense.max_abs();
            let base = if scale > 0.0 {
                scale * REGULARIZATION_BASE
            } else {
                REGULARIZATION_BASE
            };
            for k in 0..REGULARIZATION_STEPS {
                let eps = base * 100f64.powi(k as i32);
                let mut shifted = dense.clone();
                for i in 0..dim {
                    shifted[(i, i)] += T::from_f64(eps);
                }
                match LuFactor::new(&shifted) {
                    Ok(lu) => {
                        diag.attempts.push(FactorAttempt {
                            strategy: FactorStrategy::RegularizedDenseLu,
                            succeeded: true,
                        });
                        diag.regularization = Some(eps);
                        factor = Some(Factored::Dense(lu));
                        break;
                    }
                    Err(e) => {
                        diag.attempts.push(FactorAttempt {
                            strategy: FactorStrategy::RegularizedDenseLu,
                            succeeded: false,
                        });
                        last_err = Some(e.into());
                    }
                }
            }
        }

        if vpec_trace::enabled() {
            for a in &diag.attempts {
                let tag = if a.succeeded { "ok" } else { "failed" };
                vpec_trace::counter_add(
                    &format!("factor.attempt.{}.{tag}", a.strategy.label()),
                    1,
                );
            }
            if let Some(s) = diag.accepted() {
                sp.set_attr("strategy", s.label());
                sp.set_attr("fallback", diag.used_fallback());
            }
        }
        match factor {
            Some(f) => {
                diag.condition_estimate = Some(f.condition_estimate());
                diag.factor_bytes = Some(f.storage_bytes());
                diag.factor_nnz = Some(f.factor_nnz());
                diag.ordering = f.ordering();
                if let Some(o) = diag.ordering {
                    sp.set_attr("ordering", o.label());
                }
                Ok((f, diag))
            }
            None => Err(last_err.unwrap_or(CircuitError::SingularSystem { analysis: "solve" })),
        }
    }

    /// Runs the primary backend: one of the two sparse strategies, or
    /// dense LU for any other strategy.
    fn try_primary(
        csr: &CsrMatrix<T>,
        strategy: FactorStrategy,
        plan: Option<&FillPlan>,
    ) -> Result<Self, CircuitError> {
        match strategy {
            FactorStrategy::SparseLuNoOrdering => Ok(Factored::Sparse {
                lu: SparseLu::new(csr)?,
                ordering: FillOrdering::Natural,
            }),
            FactorStrategy::SparseLu => {
                let fresh;
                let perm = match plan {
                    Some(p) => &p.perm,
                    None => {
                        fresh = FillPlan::new(csr);
                        &fresh.perm
                    }
                };
                Ok(Factored::Sparse {
                    lu: SparseLu::with_ordering(csr, perm)?,
                    ordering: FillOrdering::Amd,
                })
            }
            _ => Ok(Factored::Dense(LuFactor::new(&csr.to_dense())?)),
        }
    }

    /// Cheap condition estimate of the accepted factor: the spread of its
    /// U diagonal, `max|uᵢᵢ| / min|uᵢᵢ|`.
    fn condition_estimate(&self) -> f64 {
        match self {
            Factored::Dense(lu) => lu.diag_condition_estimate(),
            Factored::Sparse { lu, .. } => lu.diag_condition_estimate(),
        }
    }

    /// Bytes the factor stores: `dim²` values for dense LU; the value,
    /// index and pointer arrays for sparse LU.
    fn storage_bytes(&self) -> u64 {
        match self {
            Factored::Dense(lu) => std::mem::size_of::<T>() as u64 * (lu.dim() as u64).pow(2),
            Factored::Sparse { lu, .. } => lu.storage_bytes(),
        }
    }

    /// Stored nonzeros: `dim²` for dense LU, L and U (both diagonals
    /// included) for sparse LU.
    fn factor_nnz(&self) -> u64 {
        match self {
            Factored::Dense(lu) => (lu.dim() as u64).pow(2),
            Factored::Sparse { lu, .. } => lu.factor_nnz() as u64,
        }
    }

    /// Fill ordering of a sparse factor.
    fn ordering(&self) -> Option<FillOrdering> {
        match self {
            Factored::Dense(_) => None,
            Factored::Sparse { ordering, .. } => Some(*ordering),
        }
    }

    /// Solves `A·x = b`.
    pub fn solve(&self, b: &[T]) -> Result<Vec<T>, CircuitError> {
        let mut x = Vec::with_capacity(b.len());
        let mut scratch = Vec::new();
        self.solve_into(b, &mut x, &mut scratch)?;
        Ok(x)
    }

    /// Solves `A·x = b` into caller-owned buffers. `x` receives the
    /// solution; `scratch` is the sparse path's substitution vector. Both
    /// reuse their capacity across calls — the transient loop calls this
    /// once per step, allocation-free once warm.
    pub fn solve_into(
        &self,
        b: &[T],
        x: &mut Vec<T>,
        scratch: &mut Vec<T>,
    ) -> Result<(), CircuitError> {
        match self {
            Factored::Dense(lu) => Ok(lu.solve_into(b, x)?),
            Factored::Sparse { lu, .. } => Ok(lu.solve_into(b, x, scratch)?),
        }
    }

    /// `true` if the sparse backend was chosen.
    #[cfg(test)]
    pub fn is_sparse(&self) -> bool {
        matches!(self, Factored::Sparse { .. })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn diag_coo(n: usize) -> CooMatrix<f64> {
        let mut coo = CooMatrix::new(n, n);
        for i in 0..n {
            coo.push(i, i, 2.0).unwrap();
        }
        coo
    }

    #[test]
    fn solver_kind_grammar_round_trips() {
        assert_eq!(SolverKind::parse("auto").unwrap(), SolverKind::Auto);
        assert_eq!(SolverKind::parse("direct").unwrap(), SolverKind::Auto);
        assert_eq!(SolverKind::parse("dense").unwrap(), SolverKind::Dense);
        assert_eq!(SolverKind::parse("sparse").unwrap(), SolverKind::Sparse);
        assert_eq!(
            SolverKind::parse("sparse-no-ordering").unwrap(),
            SolverKind::SparseNoOrdering
        );
        let err = SolverKind::parse("qr").unwrap_err();
        assert!(err.contains("unknown solver"), "{err}");
    }

    #[test]
    fn auto_uses_dense_for_small() {
        let f = Factored::factor(&diag_coo(8), SolverKind::Auto).unwrap();
        assert!(!f.is_sparse());
    }

    #[test]
    fn auto_uses_sparse_for_large_sparse() {
        let f = Factored::factor(&diag_coo(500), SolverKind::Auto).unwrap();
        assert!(f.is_sparse());
    }

    #[test]
    fn auto_uses_dense_for_dense_midsize() {
        // Past dim 64, a matrix denser than 15 % still goes dense: sparse
        // LU is several times slower on such patterns.
        let n = 150;
        let mut coo = CooMatrix::new(n, n);
        for i in 0..n {
            for j in 0..n {
                if i == j {
                    coo.push(i, j, 4.0 * n as f64).unwrap();
                } else if (i * 7 + j * 3) % 5 == 0 {
                    coo.push(i, j, 1.0).unwrap();
                }
            }
        }
        assert!(coo.to_csr().density() > 0.15);
        let (f, diag) =
            Factored::factor_with(&coo, FactorOptions::new(SolverKind::Auto), None).unwrap();
        assert!(!f.is_sparse());
        assert_eq!(diag.accepted(), Some(FactorStrategy::DenseLu));
    }

    #[test]
    fn forced_kinds_respected() {
        assert!(Factored::factor(&diag_coo(8), SolverKind::Sparse)
            .unwrap()
            .is_sparse());
        assert!(!Factored::factor(&diag_coo(500), SolverKind::Dense)
            .unwrap()
            .is_sparse());
    }

    #[test]
    fn both_backends_agree() {
        let mut coo = CooMatrix::new(3, 3);
        coo.push(0, 0, 2.0).unwrap();
        coo.push(0, 1, 1.0).unwrap();
        coo.push(1, 0, 1.0).unwrap();
        coo.push(1, 1, 3.0).unwrap();
        coo.push(2, 2, 1.0).unwrap();
        let b = [1.0, 2.0, 3.0];
        let xd = Factored::factor(&coo, SolverKind::Dense)
            .unwrap()
            .solve(&b)
            .unwrap();
        let xs = Factored::factor(&coo, SolverKind::Sparse)
            .unwrap()
            .solve(&b)
            .unwrap();
        for (u, v) in xd.iter().zip(xs.iter()) {
            assert!((u - v).abs() < 1e-12);
        }
    }

    #[test]
    fn no_ordering_variant_agrees() {
        let mut coo = CooMatrix::new(4, 4);
        for i in 0..4 {
            coo.push(i, i, 3.0).unwrap();
        }
        coo.push(0, 3, 1.0).unwrap();
        coo.push(3, 0, 1.0).unwrap();
        let b = [1.0, 2.0, 3.0, 4.0];
        let x1 = Factored::factor(&coo, SolverKind::Sparse)
            .unwrap()
            .solve(&b)
            .unwrap();
        let x2 = Factored::factor(&coo, SolverKind::SparseNoOrdering)
            .unwrap()
            .solve(&b)
            .unwrap();
        for (u, v) in x1.iter().zip(x2.iter()) {
            assert!((u - v).abs() < 1e-12);
        }
    }

    #[test]
    fn singular_maps_to_circuit_error() {
        let coo = CooMatrix::<f64>::new(2, 2); // all-zero matrix
        let err = Factored::factor(&coo, SolverKind::Dense).unwrap_err();
        assert!(matches!(err, CircuitError::SingularSystem { .. }));
    }

    #[test]
    fn sparse_failure_falls_back_to_dense() {
        // The sparse kernel does threshold pivoting, so genuine sparse-only
        // failures are rare; inject one to prove the chain recovers and
        // still produces the right answer.
        let mut coo = CooMatrix::new(2, 2);
        coo.push(0, 1, 1.0).unwrap();
        coo.push(1, 0, 1.0).unwrap();
        let opts = FactorOptions {
            kind: SolverKind::SparseNoOrdering,
            regularize: false,
            fail_primary: true,
        };
        let (f, diag) = Factored::factor_with(&coo, opts, None).unwrap();
        assert!(!f.is_sparse(), "fell back to dense");
        assert!(diag.used_fallback());
        assert_eq!(diag.accepted(), Some(FactorStrategy::DenseLu));
        let x = f.solve(&[3.0, 7.0]).unwrap();
        assert!((x[0] - 7.0).abs() < 1e-12 && (x[1] - 3.0).abs() < 1e-12);
    }

    #[test]
    fn injected_primary_failure_engages_chain() {
        let opts = FactorOptions {
            kind: SolverKind::Sparse,
            regularize: false,
            fail_primary: true,
        };
        let (f, diag) = Factored::factor_with(&diag_coo(3), opts, None).unwrap();
        assert!(!f.is_sparse());
        assert_eq!(diag.attempts.len(), 2);
        assert!(!diag.attempts[0].succeeded);
        assert!(diag.attempts[1].succeeded);
        assert!(diag.condition_estimate.is_some());
    }

    #[test]
    fn singular_without_regularization_is_typed_error() {
        let coo = CooMatrix::<f64>::new(3, 3);
        let opts = FactorOptions::new(SolverKind::Sparse);
        let err = Factored::factor_with(&coo, opts, None).unwrap_err();
        assert!(matches!(err, CircuitError::SingularSystem { .. }));
    }

    #[test]
    fn singular_with_regularization_yields_solution() {
        let coo = CooMatrix::<f64>::new(3, 3); // exactly singular
        let opts = FactorOptions {
            kind: SolverKind::Dense,
            regularize: true,
            fail_primary: false,
        };
        let (f, diag) = Factored::factor_with(&coo, opts, None).unwrap();
        let eps = diag.regularization.expect("regularized stage used");
        assert!(eps > 0.0);
        let x = f.solve(&[1.0, 2.0, 3.0]).unwrap();
        // (0 + εI)·x = b → x = b/ε: finite, energy-bounded.
        assert!(x.iter().all(|v| v.is_finite()));
        assert!((x[0] * eps - 1.0).abs() < 1e-9);
    }

    /// MNA-shaped banded system: a resistor ladder of `nodes` nodes with
    /// a leak to ground at each node, plus one voltage-source branch row
    /// every `stride` nodes. Source rows carry a structurally zero
    /// diagonal, as in the assembled transient systems.
    fn mna_ladder(nodes: usize, stride: usize) -> CooMatrix<f64> {
        let sources = nodes.div_ceil(stride);
        let mut coo = CooMatrix::new(nodes + sources, nodes + sources);
        for i in 0..nodes {
            let g = 1.0 + (i % 7) as f64 * 0.125;
            coo.push(i, i, 2.0 * g + 1e-3).unwrap();
            if i + 1 < nodes {
                coo.push(i, i + 1, -g).unwrap();
                coo.push(i + 1, i, -g).unwrap();
            }
        }
        for k in 0..sources {
            let (node, branch) = (k * stride, nodes + k);
            coo.push(node, branch, 1.0).unwrap();
            coo.push(branch, node, 1.0).unwrap();
        }
        coo
    }

    #[test]
    fn auto_stays_direct_above_the_old_krylov_threshold() {
        // Above the former `iter_min_dim` (16384) `auto` used to go
        // Krylov-first; it must now take sparse LU without a fallback
        // and give the forced sparse answer bit for bit.
        let coo = mna_ladder(16_640, 16);
        let dim = coo.rows();
        assert!(dim > 16_384, "dim {dim}");
        let b: Vec<f64> = (0..dim).map(|i| (i as f64 * 0.37).sin()).collect();

        let (auto, diag) =
            Factored::factor_with(&coo, FactorOptions::new(SolverKind::Auto), None).unwrap();
        assert_eq!(diag.accepted(), Some(FactorStrategy::SparseLu));
        assert!(!diag.used_fallback(), "{}", diag.summary());
        assert_eq!(diag.iterations, None);
        assert!(diag.factor_bytes.unwrap() < 8 * (dim as u64).pow(2) / 1000);
        let x_auto = auto.solve(&b).unwrap();
        let x_sparse = Factored::factor(&coo, SolverKind::Sparse)
            .unwrap()
            .solve(&b)
            .unwrap();
        assert_eq!(x_auto, x_sparse);

        // And it is a solution: residual at rounding level.
        let ax = coo.to_csr().matvec(&x_auto).unwrap();
        let worst = ax
            .iter()
            .zip(b.iter())
            .map(|(u, v)| (u - v).abs())
            .fold(0.0f64, f64::max);
        assert!(worst < 1e-9, "residual {worst}");

        let err = SolverKind::parse("iterative").unwrap_err();
        assert!(err.contains("unknown solver: iterative"), "{err}");
        for tok in ["auto", "direct", "dense", "sparse", "sparse-no-ordering"] {
            assert!(err.contains(tok), "{err} must name {tok}");
        }
    }

    #[test]
    fn factor_bytes_measure_the_accepted_factor() {
        let (_, dense) =
            Factored::factor_with(&diag_coo(8), FactorOptions::new(SolverKind::Dense), None)
                .unwrap();
        assert_eq!(dense.factor_bytes, Some(8 * 8 * 8));
        assert_eq!(dense.factor_nnz, Some(64));
        assert_eq!(dense.ordering, None);
        assert!(dense.condition_estimate.is_some());

        // Sparse: the flat arrays themselves. Off-diagonal L/U entries and
        // U's diagonal carry an f64 value; off-diagonal entries and the
        // gather/scatter maps a u32 index; L and U a usize pointer per
        // column plus one.
        let coo = mna_ladder(400, 16);
        let dim = coo.rows() as u64;
        let (_, sparse) =
            Factored::factor_with(&coo, FactorOptions::new(SolverKind::Sparse), None).unwrap();
        let nnz = sparse.factor_nnz.unwrap();
        let off = nnz - 2 * dim;
        let usize_bytes = std::mem::size_of::<usize>() as u64;
        assert_eq!(
            sparse.factor_bytes,
            Some(8 * (off + dim) + 4 * (off + 2 * dim) + usize_bytes * 2 * (dim + 1))
        );
        assert!(sparse.ordering.is_some());
        let cond = sparse.condition_estimate.unwrap();
        assert!(cond.is_finite() && cond >= 1.0, "{cond}");
    }

    #[test]
    fn sparse_factors_are_ordered_by_minimum_degree() {
        let m = 40;
        let mut grid = CooMatrix::new(m * m, m * m);
        for i in 0..m * m {
            grid.push(i, i, 4.5).unwrap();
            for j in [i + 1, i + m] {
                if j < m * m && (j != i + 1 || (i + 1) % m != 0) {
                    grid.push(i, j, -1.0).unwrap();
                    grid.push(j, i, -1.0).unwrap();
                }
            }
        }
        let (f, mesh) =
            Factored::factor_with(&grid, FactorOptions::new(SolverKind::Auto), None).unwrap();
        assert_eq!(mesh.ordering, Some(FillOrdering::Amd));
        // Forcing no ordering is reported as such.
        let (_, none) = Factored::factor_with(
            &grid,
            FactorOptions::new(SolverKind::SparseNoOrdering),
            None,
        )
        .unwrap();
        assert_eq!(none.ordering, Some(FillOrdering::Natural));
        assert!(mesh.factor_nnz < none.factor_nnz);
        // And the ordered factor still solves the system.
        let b: Vec<f64> = (0..m * m).map(|i| (i % 7) as f64).collect();
        let x = f.solve(&b).unwrap();
        let r = grid.to_csr().matvec(&x).unwrap();
        assert!(r.iter().zip(&b).all(|(u, v)| (u - v).abs() < 1e-10));
    }

    #[test]
    fn fill_plans_follow_the_primary_backend() {
        // Only a system that goes to ordered sparse LU is ordered.
        assert!(FillPlan::for_kind(&diag_coo(8), SolverKind::Auto).is_none());
        assert!(FillPlan::for_kind(&diag_coo(500), SolverKind::Dense).is_none());
        assert!(FillPlan::for_kind(&diag_coo(500), SolverKind::SparseNoOrdering).is_none());
        assert!(FillPlan::for_kind(&diag_coo(8), SolverKind::Sparse).is_some());
        let coo = mna_ladder(400, 16);
        let plan = FillPlan::for_kind(&coo, SolverKind::Auto).unwrap();

        // A plan gives the factor that ordering afresh gives.
        let b: Vec<f64> = (0..coo.rows()).map(|i| (i as f64 * 0.3).cos()).collect();
        let opts = FactorOptions::new(SolverKind::Auto);
        let (planned, _) = Factored::factor_with(&coo, opts, Some(&plan)).unwrap();
        let (fresh, _) = Factored::factor_with(&coo, opts, None).unwrap();
        let (xp, xf) = (planned.solve(&b).unwrap(), fresh.solve(&b).unwrap());
        assert!(xp.iter().zip(&xf).all(|(u, v)| u.to_bits() == v.to_bits()));

        // A plan for another dimension is an error, not a silent re-order.
        let err = Factored::factor_with(&mna_ladder(300, 16), opts, Some(&plan)).unwrap_err();
        assert!(
            matches!(
                err,
                CircuitError::Numerics(NumericsError::DimensionMismatch { .. })
            ),
            "{err:?}"
        );
    }

    #[test]
    fn chain_is_bounded() {
        // Singular even after every stage with regularization disabled:
        // attempts must stay finite and terminate with an error.
        let coo = CooMatrix::<f64>::new(4, 4);
        let opts = FactorOptions {
            kind: SolverKind::Sparse,
            regularize: true,
            fail_primary: true,
        };
        // The all-zero matrix *is* regularizable, so this one succeeds —
        // but only after the bounded number of attempts.
        let (_, diag) = Factored::factor_with(&coo, opts, None).unwrap();
        assert!(diag.attempts.len() <= 2 + REGULARIZATION_STEPS as usize);
    }
}
