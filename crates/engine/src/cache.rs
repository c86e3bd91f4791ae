//! A three-level model cache keyed by the inputs of each stage.
//!
//! Batch streams routinely repeat the same geometry across model kinds
//! and analyses (a sweep over kinds, or repeated requests for the same
//! bus). The cache shares the expensive stages:
//!
//! - **Level 1** — a hash of `layout.content_hash()`, the
//!   [`ExtractionConfig`] and the [`DriveConfig`] → extracted
//!   [`Experiment`]. The entry stores all three inputs and a hit compares
//!   them, so a hash collision or a changed configuration is a miss, never
//!   a stale answer. Extraction itself is O(N): the partial inductance
//!   `L` stays unevaluated until a kind needs it whole (PEEC, full or
//!   truncated VPEC), and the one dense `L` built then is shared by every
//!   later kind on the same entry through the `Arc`. Windowed kinds read
//!   window entries only and never build it.
//! - **Level 2** — `(key, kind label)` → built model (the O(N³)
//!   inversion and netlist lowering run once per distinct
//!   experiment × kind);
//! - **Level 3** — `(key, kind label, dt bits, solver)` → prepared
//!   transient factorization ([`vpec_circuit::TransientFactor`]): the
//!   factor-once/solve-many layer, so repeated transient requests for
//!   the same model pay the MNA factorization and DC solve once.
//!
//! The level-3 key deliberately omits the integrator/regularize knobs:
//! the engine always issues transient specs with their defaults, and
//! the prefactored run re-validates the spec **exactly** before reuse —
//! a mismatch is a loud error, never a stale answer. The solver *is*
//! keyed, because requests can override it (`"solver": "sparse"`)
//! and a dense factor must not shadow a sparse one.
//!
//! The runner bypasses the cache entirely for fault-injected requests:
//! injected faults change behaviour, not geometry, so neither their
//! results nor their side effects may be shared.

use std::collections::hash_map::DefaultHasher;
use std::collections::HashMap;
use std::hash::{Hash, Hasher};
use std::sync::Arc;
use vpec_circuit::{SolverKind, TransientFactor, TransientSpec};
use vpec_core::harness::{BuiltModel, Experiment, ModelKind};
use vpec_core::{CoreError, DriveConfig};
use vpec_extract::ExtractionConfig;
use vpec_geometry::Layout;
use vpec_numerics::CancelToken;

/// A level-1 entry: the experiment and the extraction configuration it
/// was built with (the layout and drive live in the experiment).
#[derive(Debug)]
struct ExperimentEntry {
    config: ExtractionConfig,
    exp: Arc<Experiment>,
}

/// The level-1 key: the layout's content hash combined with every field
/// of both configurations (their `Debug` forms print each `f64` exactly).
fn experiment_key(layout_hash: u64, config: &ExtractionConfig, drive: &DriveConfig) -> u64 {
    let mut h = DefaultHasher::new();
    layout_hash.hash(&mut h);
    format!("{config:?}").hash(&mut h);
    format!("{drive:?}").hash(&mut h);
    h.finish()
}

/// The cache. One per [`crate::Engine`]; requests run sequentially, so no
/// interior locking is needed.
#[derive(Debug, Default)]
pub struct ModelCache {
    experiments: HashMap<u64, ExperimentEntry>,
    models: HashMap<(u64, String), Arc<BuiltModel>>,
    factors: HashMap<(u64, String, u64, SolverKind), Arc<TransientFactor>>,
    hits: u64,
    misses: u64,
    factor_hits: u64,
    factor_misses: u64,
}

impl ModelCache {
    /// An empty cache.
    pub fn new() -> Self {
        ModelCache::default()
    }

    /// Model-level cache hits so far.
    pub fn hits(&self) -> u64 {
        self.hits
    }

    /// Model-level cache misses so far.
    pub fn misses(&self) -> u64 {
        self.misses
    }

    /// Transient-factor cache hits so far (factor-once/solve-many).
    pub fn factor_hits(&self) -> u64 {
        self.factor_hits
    }

    /// Transient-factor cache misses so far.
    pub fn factor_misses(&self) -> u64 {
        self.factor_misses
    }

    /// Number of distinct geometries extracted.
    pub fn experiments_len(&self) -> usize {
        self.experiments.len()
    }

    /// Returns the extracted experiment for `(layout, config, drive)`,
    /// extracting on first sight, and the key levels 2 and 3 file its
    /// models and factors under. The boolean is `true` on a cache hit: the
    /// entry under the key was built from equal inputs. On a miss an entry
    /// already under the key (a hash collision) is replaced, and the
    /// models and factors built from it are dropped with it.
    pub fn experiment_for(
        &mut self,
        layout: Layout,
        config: &ExtractionConfig,
        drive: DriveConfig,
    ) -> (u64, Arc<Experiment>, bool) {
        let key = experiment_key(layout.content_hash(), config, &drive);
        if let Some(e) = self.experiments.get(&key) {
            if e.config == *config && e.exp.drive == drive && e.exp.layout == layout {
                return (key, Arc::clone(&e.exp), true);
            }
        }
        let exp = Arc::new(Experiment::new(layout, config, drive));
        let entry = ExperimentEntry {
            config: config.clone(),
            exp: Arc::clone(&exp),
        };
        if self.experiments.insert(key, entry).is_some() {
            self.models.retain(|(k, _), _| *k != key);
            self.factors.retain(|(k, ..), _| *k != key);
        }
        (key, exp, false)
    }

    /// Returns the built model for `(hash, kind)`, building (with
    /// cancellation support) on first sight. The boolean is `true` on a
    /// cache hit.
    ///
    /// # Errors
    ///
    /// Propagates build failures; failed builds are not cached, so a
    /// later retry re-runs the build.
    pub fn model_for(
        &mut self,
        hash: u64,
        exp: &Experiment,
        kind: ModelKind,
        cancel: &CancelToken,
    ) -> Result<(Arc<BuiltModel>, bool), CoreError> {
        let key = (hash, kind.label());
        if let Some(m) = self.models.get(&key) {
            self.hits += 1;
            vpec_trace::counter_add("engine.cache.hit", 1);
            return Ok((Arc::clone(m), true));
        }
        let built = Arc::new(exp.build_cancel(kind, cancel)?);
        self.misses += 1;
        vpec_trace::counter_add("engine.cache.miss", 1);
        self.models.insert(key, Arc::clone(&built));
        Ok((built, false))
    }

    /// Returns the prepared transient factorization for `(hash, kind,
    /// spec.dt, spec.solver)`, factoring on first sight — the
    /// factor-once/solve-many entry point. The boolean is `true` on a
    /// cache hit.
    ///
    /// The caller must pass the same `model` the key's `(hash, kind)`
    /// maps to; the prefactored run re-validates the match exactly
    /// before reusing the factor, so a wiring mistake here fails loudly
    /// instead of producing a stale answer.
    ///
    /// # Errors
    ///
    /// Propagates factorization/DC failures; failed preparations are not
    /// cached, so a later retry re-runs them.
    pub fn factor_for(
        &mut self,
        hash: u64,
        kind: ModelKind,
        model: &BuiltModel,
        spec: &TransientSpec,
    ) -> Result<(Arc<TransientFactor>, bool), CoreError> {
        let key = (hash, kind.label(), spec.dt.to_bits(), spec.solver);
        if let Some(f) = self.factors.get(&key) {
            self.factor_hits += 1;
            vpec_trace::counter_add("engine.factor.hit", 1);
            return Ok((Arc::clone(f), true));
        }
        let factor = Arc::new(model.prepare_transient(spec)?);
        self.factor_misses += 1;
        vpec_trace::counter_add("engine.factor.miss", 1);
        self.factors.insert(key, Arc::clone(&factor));
        Ok((factor, false))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use vpec_geometry::BusSpec;

    #[test]
    fn shares_extraction_and_models_by_geometry() {
        let mut cache = ModelCache::new();
        let cfg = ExtractionConfig::paper_default();
        let token = CancelToken::none();

        let (h1, exp1, hit) = cache.experiment_for(
            BusSpec::new(4).build(),
            &cfg,
            DriveConfig::paper_default(),
        );
        assert!(!hit);
        let (h2, _exp2, hit) = cache.experiment_for(
            BusSpec::new(4).build(),
            &cfg,
            DriveConfig::paper_default(),
        );
        assert!(hit, "identical geometry must share one extraction");
        assert_eq!(h1, h2);
        assert_eq!(cache.experiments_len(), 1);

        let (h3, _exp3, hit) = cache.experiment_for(
            BusSpec::new(5).build(),
            &cfg,
            DriveConfig::paper_default(),
        );
        assert!(!hit && h3 != h1, "different geometry must not collide");

        let kind = ModelKind::WVpecGeometric { b: 2 };
        let (m1, hit) = cache.model_for(h1, &exp1, kind, &token).unwrap();
        assert!(!hit);
        let (m2, hit) = cache.model_for(h1, &exp1, kind, &token).unwrap();
        assert!(hit, "same geometry + kind must share one build");
        assert!(Arc::ptr_eq(&m1, &m2));
        // A different kind over the same geometry is a distinct model.
        let (_m3, hit) = cache
            .model_for(h1, &exp1, ModelKind::Peec, &token)
            .unwrap();
        assert!(!hit);
        assert_eq!((cache.hits(), cache.misses()), (1, 2));
    }

    #[test]
    fn a_different_extraction_config_is_a_miss() {
        let mut cache = ModelCache::new();
        let drive = DriveConfig::paper_default;
        let plain = ExtractionConfig::paper_default();
        let skin = ExtractionConfig::paper_default().with_skin_effect();
        let (h1, e1, hit) = cache.experiment_for(BusSpec::new(4).build(), &plain, drive());
        assert!(!hit);
        let (h2, e2, hit) = cache.experiment_for(BusSpec::new(4).build(), &skin, drive());
        assert!(!hit, "same layout under another ExtractionConfig must miss");
        assert_ne!(h1, h2);
        assert!(!Arc::ptr_eq(&e1, &e2));
        // A different drive is a different experiment too.
        let quiet = drive().aggressors(vec![1]);
        let (_, _, hit) = cache.experiment_for(BusSpec::new(4).build(), &plain, quiet);
        assert!(!hit);
        // And the original inputs still hit their own entry.
        let (h3, e3, hit) = cache.experiment_for(BusSpec::new(4).build(), &plain, drive());
        assert!(hit && h3 == h1 && Arc::ptr_eq(&e1, &e3));
        assert_eq!(cache.experiments_len(), 3);
    }

    #[test]
    fn a_key_collision_is_a_miss_and_drops_the_stale_models() {
        let mut cache = ModelCache::new();
        let cfg = ExtractionConfig::paper_default();
        let token = CancelToken::none();
        let (key, exp, _) =
            cache.experiment_for(BusSpec::new(4).build(), &cfg, DriveConfig::paper_default());
        let kind = ModelKind::WVpecGeometric { b: 2 };
        cache.model_for(key, &exp, kind, &token).unwrap();
        // Forge a collision: another layout's experiment under this key.
        let other = Arc::new(Experiment::new(
            BusSpec::new(6).build(),
            &cfg,
            DriveConfig::paper_default(),
        ));
        cache.experiments.insert(
            key,
            ExperimentEntry {
                config: cfg.clone(),
                exp: other,
            },
        );
        let (k2, exp2, hit) =
            cache.experiment_for(BusSpec::new(4).build(), &cfg, DriveConfig::paper_default());
        assert!(!hit, "a colliding entry must not answer");
        assert_eq!((k2, exp2.layout.filaments().len()), (key, 4));
        let (_, hit) = cache.model_for(key, &exp2, kind, &token).unwrap();
        assert!(!hit, "models built from the displaced entry must be gone");
    }

    #[test]
    fn failed_builds_are_not_cached() {
        let mut cache = ModelCache::new();
        let (h, exp, _) = cache.experiment_for(
            BusSpec::new(3).build(),
            &ExtractionConfig::paper_default(),
            DriveConfig::paper_default(),
        );
        // A fired token fails the full build…
        let fired = CancelToken::new();
        fired.cancel();
        assert!(cache.model_for(h, &exp, ModelKind::VpecFull, &fired).is_err());
        // …and the next attempt with a live token still runs (no poisoned
        // cache entry).
        let (m, hit) = cache
            .model_for(h, &exp, ModelKind::VpecFull, &CancelToken::none())
            .unwrap();
        assert!(!hit);
        assert!(m.element_count() > 0);
    }
}
