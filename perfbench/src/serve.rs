//! The `serve-mix` workload: one client in a closed loop through the batch
//! engine's request boundary, its three cache levels and the run ledger.
//!
//! The stream is generated from the seed as JSONL lines; the engine sees
//! only those lines. Each pass sends the same requests, in a new seeded
//! order, to a fresh [`Engine`]: every pass holds the same cold requests
//! (cache misses that fill the caches) and repeats (hits), and a run
//! averages over many orders.

use crate::report::{median, median_or_zero, quantile, Metrics};
use crate::spans::{call, Recorder};
use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::time::Instant;
use vpec_core::harness::{BuildBudget, ModelKind};
use vpec_engine::telemetry::StreamTelemetry;
use vpec_engine::{Engine, EngineConfig, ScenarioRequest};
use vpec_numerics::rng::XorShift64;

/// Times each transient and build entry appears in the stream. Every
/// later appearance is a repeat, so the repeat share is `1 − 1/REPEATS`:
/// high enough that the median request is a cache hit and the 90th
/// percentile a cold build. An AC sweep has no cache level of its own (a
/// repeat re-factors at every frequency), so each appears once.
const REPEATS: usize = 4;
/// Requests in the smoke stream.
const SMOKE_LEN: usize = 5;
/// Full-inversion kinds above this many filaments exceed the engine's
/// matrix-dim budget and degrade to gwVPEC.
const MAX_MATRIX_DIM: usize = 128;
/// Allowed gap between a response peak and its stored reference, as a
/// share of the reference.
const REF_TOL: f64 = 1e-6;

/// Stored response peaks: `entry peak_mv` per line.
const SERVE_REFS: &str = include_str!("../refs/serve.txt");

const TRANSIENT: usize = 0;
const AC: usize = 1;
const BUILD: usize = 2;

/// The geometry pool: name, request fields, filament count (0: read off
/// the layout) and the analyses asked of it. Small buses get transients
/// and AC sweeps, mid-size ones and the spiral transients, large ones
/// builds only: a repeat then costs less than a cold request, so the
/// median request is a cache hit and the 90th percentile a cold one. The
/// smoke stream uses the first [`SMALL_GEOMETRIES`].
const GEOMETRIES: [(&str, &str, usize, &[usize]); 8] = [
    (
        "bus8x4",
        r#""structure":"bus","bits":8,"segments":4"#,
        32,
        &[TRANSIENT, AC],
    ),
    (
        "bus32x1",
        r#""structure":"bus","bits":32,"segments":1"#,
        32,
        &[TRANSIENT, AC],
    ),
    (
        "bus24x3",
        r#""structure":"bus","bits":24,"segments":3"#,
        72,
        &[TRANSIENT],
    ),
    (
        "bus48x2",
        r#""structure":"bus","bits":48,"segments":2"#,
        96,
        &[TRANSIENT],
    ),
    (
        "bus32x4",
        r#""structure":"bus","bits":32,"segments":4"#,
        128,
        &[BUILD],
    ),
    (
        "bus64x2",
        r#""structure":"bus","bits":64,"segments":2"#,
        128,
        &[BUILD],
    ),
    (
        "bus64x4",
        r#""structure":"bus","bits":64,"segments":4"#,
        256,
        &[BUILD],
    ),
    (
        "spiral2",
        r#""structure":"spiral","turns":2"#,
        0,
        &[TRANSIENT],
    ),
];
const SMALL_GEOMETRIES: usize = 2;

const KINDS: [&str; 7] = [
    "peec",
    "vpec-full",
    "tvpec-g:4,1",
    "tvpec-g:8,2",
    "wvpec-g:2",
    "wvpec-g:4",
    "wvpec-g:8",
];

/// Analyses, indexed by [`TRANSIENT`], [`AC`] and [`BUILD`]. Transients
/// are short, so a repeat, which reuses the cached factor, costs far less
/// than a cold build.
const ANALYSES: [(&str, &str); 3] = [
    (
        "transient",
        r#""analysis":"transient","t_stop":1e-11,"dt":1e-12"#,
    ),
    (
        "ac",
        r#""analysis":"ac","f_start":1e9,"f_stop":1e10,"points_per_decade":1"#,
    ),
    ("build", r#""analysis":"build""#),
];

/// One catalog entry: geometry × kind × analysis.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
struct Entry {
    geom: usize,
    kind: usize,
    analysis: usize,
}

/// Geometric truncation needs a bus.
fn valid_model(geom: usize, kind: usize) -> bool {
    !(GEOMETRIES[geom].0.starts_with("spiral") && KINDS[kind].starts_with("tvpec"))
}

fn valid_analysis(geom: usize, analysis: usize) -> bool {
    GEOMETRIES[geom].3.contains(&analysis)
}

impl Entry {
    fn key(self) -> String {
        format!(
            "{}/{}/{}",
            GEOMETRIES[self.geom].0, KINDS[self.kind], ANALYSES[self.analysis].0
        )
    }

    fn line(self, id: usize) -> String {
        format!(
            r#"{{"id":"r{id}",{},"kind":"{}",{}}}"#,
            GEOMETRIES[self.geom].1, KINDS[self.kind], ANALYSES[self.analysis].1
        )
    }

    /// Whether the engine must answer with a degraded gwVPEC model.
    fn degrades(self, filaments: &[usize]) -> Result<bool, String> {
        let kind = ModelKind::parse(KINDS[self.kind])?;
        Ok(kind.needs_full_inversion() && filaments[self.geom] > MAX_MATRIX_DIM)
    }

    /// Every valid entry on geometries `geoms`.
    fn all(geoms: std::ops::Range<usize>) -> Vec<Entry> {
        let mut v = Vec::new();
        for geom in geoms {
            for kind in (0..KINDS.len()).filter(|&k| valid_model(geom, k)) {
                for analysis in (0..ANALYSES.len()).filter(|&a| valid_analysis(geom, a)) {
                    v.push(Entry {
                        geom,
                        kind,
                        analysis,
                    });
                }
            }
        }
        v
    }
}

/// The seeded request stream: every catalog entry [`REPEATS`] times, in
/// a seeded order.
fn generate(seed: u64, smoke: bool) -> Vec<Entry> {
    let mut rng = XorShift64::new(seed ^ 0x5e5e_0f0f_1234_5678);
    let geoms = if smoke {
        0..SMALL_GEOMETRIES
    } else {
        0..GEOMETRIES.len()
    };
    let mut stream: Vec<Entry> = Entry::all(geoms)
        .into_iter()
        .flat_map(|e| std::iter::repeat_n(e, if e.analysis == AC { 1 } else { REPEATS }))
        .collect();
    for i in (1..stream.len()).rev() {
        stream.swap(i, rng.range_usize(0, i + 1));
    }
    // Each model's first request is its build (its transient where it has
    // no build), so every pass holds the same cold work whatever the
    // seed: that request misses the model cache, and the model's first
    // transient misses the factor cache.
    let mut seen = std::collections::BTreeSet::new();
    for i in 0..stream.len() {
        let (geom, kind) = (stream[i].geom, stream[i].kind);
        let cold = if valid_analysis(geom, BUILD) {
            BUILD
        } else {
            TRANSIENT
        };
        if seen.insert((geom, kind)) && stream[i].analysis != cold {
            let j = (i + 1..stream.len())
                .find(|&j| {
                    stream[j]
                        == Entry {
                            geom,
                            kind,
                            analysis: cold,
                        }
                })
                .expect("every model has a build or a transient");
            stream.swap(i, j);
        }
    }
    if smoke {
        stream.truncate(SMOKE_LEN);
    }
    stream
}

/// Filament count of every pool geometry.
fn filament_counts() -> Vec<usize> {
    GEOMETRIES
        .iter()
        .map(|g| match g.2 {
            0 => vpec_geometry::SpiralSpec::new(2).build().filaments().len(),
            n => n,
        })
        .collect()
}

fn engine_config() -> EngineConfig {
    EngineConfig {
        budget: BuildBudget {
            max_matrix_dim: Some(MAX_MATRIX_DIM),
            ..BuildBudget::unlimited()
        },
        ..EngineConfig::default()
    }
}

/// What one request measured.
#[derive(Debug, Clone, Copy)]
struct Sample {
    ms: f64,
    hit: bool,
}

/// Everything measured over a run of passes.
#[derive(Debug, Default)]
pub struct Tally {
    samples: Vec<Sample>,
    /// Seconds per pass, untraced and traced.
    pass_s: Vec<f64>,
    traced_pass_s: Vec<f64>,
    engine_ms: (Vec<f64>, Vec<f64>),
    parse_us: Vec<f64>,
    observe_us: Vec<f64>,
    /// Counts of the first pass. They repeat exactly for a given seed; the
    /// model-level ones move slightly with the order, since the degraded
    /// requests share their gwVPEC fallback model.
    first: Option<PassCounts>,
    pub attempted: u64,
    pub failures: Vec<String>,
}

#[derive(Debug, Clone, Copy, Default)]
struct PassCounts {
    requests: f64,
    experiment_hits: f64,
    model_hits: f64,
    transients: f64,
    factor_hits: f64,
    degraded: f64,
    retries: f64,
    cached_experiments: f64,
    ledger_bytes: f64,
}

/// The serve workload's inputs and checks.
pub struct ServeBench {
    seed: u64,
    smoke: bool,
    passes: u64,
    filaments: Vec<usize>,
    refs: BTreeMap<String, f64>,
    ledger: PathBuf,
}

impl ServeBench {
    /// Loads the stored peaks; the ledger goes to `ledger`. Each pass
    /// generates its own stream from `seed` and the pass number.
    pub fn new(seed: u64, smoke: bool, ledger: &Path) -> Result<ServeBench, String> {
        Ok(ServeBench {
            seed,
            smoke,
            passes: 0,
            filaments: filament_counts(),
            refs: parse_refs(SERVE_REFS)?,
            ledger: ledger.to_path_buf(),
        })
    }

    /// One pass: the requests in a new seeded order, on a fresh engine.
    /// With a recorder every call into the engine and the telemetry is a
    /// span.
    pub fn pass(&mut self, tally: &mut Tally, mut rec: Option<&mut Recorder>) {
        let stream = generate(self.seed.wrapping_add(self.passes), self.smoke);
        self.passes += 1;
        let lines: Vec<String> = stream.iter().enumerate().map(|(i, e)| e.line(i)).collect();
        let t_pass = Instant::now();
        let mut engine = Engine::new(engine_config());
        let ledger = self.ledger.to_string_lossy();
        let mut telemetry = match StreamTelemetry::new(Some(&ledger), None, None) {
            Ok(t) => t,
            Err(e) => {
                tally.failures.push(format!("ledger: {e}"));
                return;
            }
        };
        let mut counts = PassCounts::default();
        let mut first_peak: BTreeMap<Entry, Option<f64>> = BTreeMap::new();
        let traced = rec.is_some();
        for (i, line) in lines.iter().enumerate() {
            tally.attempted += 1;
            let root = rec
                .as_deref_mut()
                .map(|r| r.begin_unit("request", i as u64));
            let t0 = Instant::now();
            let (parsed, parse_s) = call(&mut rec, "engine.parse", || {
                ScenarioRequest::parse_line(line, i)
            });
            let outcome = parsed.map(|req| {
                let ((resp, record), engine_s) = call(&mut rec, "engine.run", || {
                    engine.run_request_recorded(&req, 0.0)
                });
                let (observed, observe_s) =
                    call(&mut rec, "metrics.observe", || telemetry.observe(&record));
                (resp, record, engine_s, observed, observe_s)
            });
            let ms = match (rec.as_deref_mut(), root) {
                (Some(r), Some(root)) => r.end_unit(root) * 1e3,
                _ => t0.elapsed().as_secs_f64() * 1e3,
            };
            let (resp, record, engine_s, observed, observe_s) = match outcome {
                Ok(o) => o,
                Err(e) => {
                    tally.failures.push(format!("request {i}: {e}"));
                    continue;
                }
            };

            if let Err(e) = observed {
                tally
                    .failures
                    .push(format!("request {i}: ledger write: {e}"));
            }
            let entry = stream[i];
            // A hit read every cache level it touched; a miss built or
            // factored something. An AC sweep factors at every frequency,
            // with no cache level of its own, so it counts as a miss.
            let hit = record.experiment_hit
                && record.model_hit
                && record.analysis != "ac"
                && (record.analysis != "transient" || record.factor_hit);
            if let Err(e) = self.check(entry, &resp, &mut first_peak) {
                tally
                    .failures
                    .push(format!("request {i} ({}): {e}", entry.key()));
            }
            counts.requests += 1.0;
            counts.experiment_hits += f64::from(u8::from(record.experiment_hit));
            counts.model_hits += f64::from(u8::from(record.model_hit));
            if record.analysis == "transient" {
                counts.transients += 1.0;
                counts.factor_hits += f64::from(u8::from(record.factor_hit));
            }
            counts.degraded += f64::from(u8::from(record.degraded));
            counts.retries += record.retries as f64;
            if traced {
                let bucket = if hit {
                    &mut tally.engine_ms.0
                } else {
                    &mut tally.engine_ms.1
                };
                bucket.push(engine_s * 1e3);
                tally.parse_us.push(parse_s * 1e6);
                tally.observe_us.push(observe_s * 1e6);
            } else {
                tally.samples.push(Sample { ms, hit });
            }
        }
        if let Err(e) = telemetry.finish() {
            tally.failures.push(format!("ledger: {e}"));
        }
        counts.cached_experiments = engine.cache().experiments_len() as f64;
        counts.ledger_bytes = std::fs::metadata(&self.ledger).map_or(0.0, |m| m.len() as f64);
        tally.first.get_or_insert(counts);
        let s = t_pass.elapsed().as_secs_f64();
        if traced {
            tally.traced_pass_s.push(s);
        } else {
            tally.pass_s.push(s);
        }
    }

    /// The response must be ok, degraded exactly when the budget says so,
    /// and carry the stored peak; a repeat must match its first answer bit
    /// for bit.
    fn check(
        &self,
        entry: Entry,
        resp: &vpec_engine::ScenarioResponse,
        first_peak: &mut BTreeMap<Entry, Option<f64>>,
    ) -> Result<(), String> {
        if !resp.ok {
            return Err(format!("status failed: {:?}", resp.error));
        }
        let degraded = entry.degrades(&self.filaments)?;
        if resp.degraded != degraded {
            return Err(format!("degraded = {}, expected {degraded}", resp.degraded));
        }
        let ran = if degraded {
            ModelKind::WVpecGeometric {
                b: EngineConfig::default().degrade_window,
            }
            .label()
        } else {
            ModelKind::parse(KINDS[entry.kind])?.label()
        };
        if resp.ran.as_deref() != Some(ran.as_str()) {
            return Err(format!("ran {:?}, expected {ran}", resp.ran));
        }
        if resp.elements.unwrap_or(0) == 0 {
            return Err("no element count".into());
        }
        let prior = *first_peak.entry(entry).or_insert(resp.peak_mv);
        if prior.map(f64::to_bits) != resp.peak_mv.map(f64::to_bits) {
            return Err(format!(
                "repeat answered {:?} mV, first answer {prior:?} mV",
                resp.peak_mv
            ));
        }
        match (ANALYSES[entry.analysis].0, resp.peak_mv) {
            ("build", None) => Ok(()),
            ("build", Some(_)) => Err("a build-only request reported a peak".into()),
            (_, None) => Err("no peak".into()),
            (_, Some(p)) => {
                let key = entry.key();
                let r = *self
                    .refs
                    .get(&key)
                    .ok_or_else(|| format!("no stored peak for {key}"))?;
                if (p - r).abs() > REF_TOL * r.abs() || !p.is_finite() {
                    return Err(format!("peak {p} mV, stored {r} mV"));
                }
                Ok(())
            }
        }
    }
}

fn parse_refs(text: &str) -> Result<BTreeMap<String, f64>, String> {
    let mut out = BTreeMap::new();
    for (i, line) in text.lines().enumerate() {
        let f: Vec<&str> = line.split_whitespace().collect();
        if f.is_empty() || f[0].starts_with('#') {
            continue;
        }
        let bad = || format!("refs/serve.txt line {}: {line}", i + 1);
        if f.len() != 2 {
            return Err(bad());
        }
        out.insert(f[0].to_string(), f[1].parse::<f64>().map_err(|_| bad())?);
    }
    Ok(out)
}

/// Reference lines (`entry peak_mv`) for every catalog entry with a peak,
/// each answered by a fresh engine.
pub fn reference_lines() -> Vec<String> {
    let mut out = Vec::new();
    for e in Entry::all(0..GEOMETRIES.len()) {
        if ANALYSES[e.analysis].0 == "build" {
            continue;
        }
        let mut engine = Engine::new(engine_config());
        let req = ScenarioRequest::parse_line(&e.line(0), 0).expect("catalog lines parse");
        let resp = engine.run_request(&req);
        match resp.peak_mv {
            Some(p) if resp.ok => out.push(format!("{} {p:e}", e.key())),
            _ => out.push(format!("# {} failed: {:?}", e.key(), resp.error)),
        }
    }
    out
}

/// End-to-end metrics; the unit of work is one request.
pub fn end_to_end(m: &mut Metrics, tally: &Tally) {
    let ms: Vec<f64> = tally.samples.iter().map(|s| s.ms).collect();
    m.put("op_p50_ms", median(&ms), "ms");
    m.put("op_p90_ms", quantile(&ms, 0.9), "ms");
    m.put(
        "ops_per_s",
        ms.len() as f64 / (ms.iter().sum::<f64>() * 1e-3),
        "1/s",
    );
}

/// Sample counts, and the hit share of the requests ranked within 2.5
/// points of p50 and of p90: where the two percentiles fall.
pub fn detail(tally: &Tally) -> Metrics {
    let mut m = Metrics::default();
    let mut sorted = tally.samples.clone();
    sorted.sort_by(|a, b| a.ms.total_cmp(&b.ms));
    let n = sorted.len() as f64;
    let hit_share_near = |q: f64| {
        let lo = ((q - 0.025) * n) as usize;
        let hi = (((q + 0.025) * n) as usize).min(sorted.len());
        let window = sorted.get(lo..hi).unwrap_or(&[]);
        window.iter().filter(|s| s.hit).count() as f64 / window.len().max(1) as f64
    };
    let hits: Vec<f64> = sorted.iter().filter(|s| s.hit).map(|s| s.ms).collect();
    let misses: Vec<f64> = sorted.iter().filter(|s| !s.hit).map(|s| s.ms).collect();
    m.put("requests", n, "count");
    m.put("passes", tally.pass_s.len() as f64, "count");
    m.put("hits", hits.len() as f64, "count");
    m.put("req_p50_ms.hit", median_or_zero(&hits), "ms");
    m.put("req_p50_ms.miss", median_or_zero(&misses), "ms");
    m.put("hit_share_near_p50", hit_share_near(0.5), "ratio");
    m.put("hit_share_near_p90", hit_share_near(0.9), "ratio");
    m
}

/// Per-layer metrics of a traced serve run (zeros when `tally` saw no
/// serve traffic).
pub fn per_layer(m: &mut Metrics, tally: &Tally) {
    let c = tally.first.unwrap_or_default();
    let ratio = |a: f64, b: f64| if b > 0.0 { a / b } else { 0.0 };
    m.put(
        "engine.request_ms.hit",
        median_or_zero(&tally.engine_ms.0),
        "ms",
    );
    m.put(
        "engine.request_ms.miss",
        median_or_zero(&tally.engine_ms.1),
        "ms",
    );
    m.put("engine.parse_us", median_or_zero(&tally.parse_us), "us");
    m.put(
        "engine.hit_ratio.experiment",
        ratio(c.experiment_hits, c.requests),
        "ratio",
    );
    m.put(
        "engine.hit_ratio.model",
        ratio(c.model_hits, c.requests),
        "ratio",
    );
    m.put(
        "engine.hit_ratio.factor",
        ratio(c.factor_hits, c.transients),
        "ratio",
    );
    m.put("engine.cached_experiments", c.cached_experiments, "count");
    m.put("engine.degraded", c.degraded, "count");
    m.put("engine.retries", c.retries, "count");
    m.put(
        "metrics.observe_us",
        median_or_zero(&tally.observe_us),
        "us",
    );
    m.put("metrics.ledger_bytes", c.ledger_bytes, "bytes");
}

/// Traced-run overhead: traced passes against untraced ones.
pub fn trace_overhead(tally: &Tally) -> f64 {
    if tally.pass_s.is_empty() || tally.traced_pass_s.is_empty() {
        0.0
    } else {
        median(&tally.traced_pass_s) / median(&tally.pass_s) - 1.0
    }
}
