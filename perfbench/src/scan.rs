//! The noise-scan workloads.
//!
//! One noise scan runs the steps `vpec_core::noise::noise_scan` runs,
//! starting from the layout: extract, build the model (invert or window,
//! repair, lower), run the transient, and read the far-end peak of every
//! probed quiet victim. Each step is a call into one layer's public
//! function, timed on its own.
//!
//! * `table2-bus32x8` — Table II's aligned 32-bit × 8-segment bus, one scan
//!   per model kind (PEEC, full VPEC, gtVPEC(8,2), gwVPEC(b=8)) per round.
//! * `fig4-bus2048-wvpec` — Fig. 4's widest bus, 2048 bits × 1 segment,
//!   under gwVPEC(b=8) with the default `auto` solver.
//!
//! The inputs are the paper's fixed geometries, so the seed changes
//! nothing here. The kinds run in one fixed order: a seeded order would
//! change the allocation sequence and, with it, the peak resident set.

use crate::report::{median, median_or_zero, quantile, Metrics};
use crate::spans::{call, Recorder};
use std::collections::BTreeMap;
use std::time::Instant;
use vpec_circuit::diagnostics::FactorStrategy;
use vpec_circuit::{SolverKind, TransientDiagnostics, TransientSpec};
use vpec_core::harness::{BuiltModel, Experiment, ModelKind};
use vpec_core::repair::DEFAULT_MARGIN;
use vpec_core::{invariants, lower, peec, repair_passivity, DriveConfig};
use vpec_extract::{extract, ExtractionConfig};
use vpec_geometry::BusSpec;

/// Every model-kind tag a scan workload may carry; per-layer metric names
/// end in one of these.
const KIND_TAGS: [&str; 4] = ["peec", "vpec", "tvpec", "wvpec"];

/// Transient steps of one Fig. 4 scan. Under the `auto` solver each step
/// of the dim-18434 system is a preconditioned GMRES solve, so the window
/// is kept short enough for several scans per run.
const FIG4_STEPS: usize = 20;

/// Allowed gap between the Fig. 4 peaks and their sparse-LU reference, as
/// a share of the largest reference peak. It admits the Krylov answer
/// (3–7e-4 of peak on the benched systems).
const FIG4_REF_TOL: f64 = 2e-3;

/// Allowed gap between a direct-solver scan and its stored reference, as
/// a share of the kind's largest reference peak.
const DIRECT_REF_TOL: f64 = 1e-6;

/// Full VPEC must reproduce PEEC's victim waveforms to this share of the
/// largest PEEC peak (the paper's exactness claim for full inversion).
const VPEC_FULL_TOL: f64 = 1e-9;

/// Stored victim peaks: `section kind net peak` per line.
const PEAK_REFS: &str = include_str!("../refs/peaks.txt");

/// What one scan workload runs.
#[derive(Debug, Clone)]
pub struct Plan {
    /// Reference section, e.g. `table2-bus32x8` or `table2-bus32x8.smoke`.
    pub section: String,
    pub bits: usize,
    pub segments: usize,
    pub kinds: Vec<(&'static str, ModelKind)>,
    pub spec: TransientSpec,
    /// Probed victims; `None` probes every quiet net.
    pub victims: Option<Vec<usize>>,
    pub ref_tol: f64,
}

impl Plan {
    pub fn for_workload(workload: &str, smoke: bool) -> Option<Plan> {
        let section = if smoke {
            format!("{workload}.smoke")
        } else {
            workload.to_string()
        };
        match workload {
            "table2-bus32x8" => Some(Plan {
                section,
                bits: if smoke { 8 } else { 32 },
                segments: if smoke { 2 } else { 8 },
                kinds: vec![
                    ("peec", ModelKind::Peec),
                    ("vpec", ModelKind::VpecFull),
                    ("tvpec", ModelKind::TVpecGeometric { nw: 8, nl: 2 }),
                    ("wvpec", ModelKind::WVpecGeometric { b: 8 }),
                ],
                spec: TransientSpec::new(if smoke { 0.1e-9 } else { 0.5e-9 }, 1e-12),
                victims: None,
                ref_tol: DIRECT_REF_TOL,
            }),
            "fig4-bus2048-wvpec" => {
                let bits = if smoke { 8 } else { 2048 };
                Some(Plan {
                    section,
                    bits,
                    segments: 1,
                    kinds: vec![("wvpec", ModelKind::WVpecGeometric { b: 8 })],
                    spec: TransientSpec::new(FIG4_STEPS as f64 * 1e-12, 1e-12),
                    // The near victims: the nets inside the aggressor's window.
                    victims: Some((1..=8.min(bits - 1)).collect()),
                    ref_tol: FIG4_REF_TOL,
                })
            }
            _ => None,
        }
    }

    /// The plan the stored references were computed with: the Fig. 4
    /// reference uses sparse LU in place of the `auto` solver.
    pub fn reference_plan(&self) -> Plan {
        let mut p = self.clone();
        if p.section.starts_with("fig4") {
            p.spec = p.spec.clone().solver(SolverKind::Sparse);
        }
        p
    }
}

/// Size counts of one scan. `l_pairs` and `l_bytes` are computed from
/// the filament count; the rest are counted.
#[derive(Debug, Clone, Copy, Default)]
pub struct Counts {
    pub l_pairs: f64,
    pub l_bytes: f64,
    pub g_nnz: f64,
    pub repair_rows: f64,
    pub elements: f64,
    pub dim: f64,
    pub steps: f64,
    pub krylov: f64,
    pub krylov_iters: f64,
    pub victims: f64,
}

/// Per-call seconds of one scan. The circuit split fields are filled only
/// by a traced scan.
#[derive(Debug, Clone, Copy, Default)]
pub struct Times {
    pub extract: f64,
    pub model: f64,
    pub repair: f64,
    pub lower: f64,
    pub probe: f64,
    pub prepare: f64,
    pub assemble: f64,
    pub dc: f64,
    pub run: f64,
}

/// One finished scan.
#[derive(Debug, Clone)]
pub struct ScanOut {
    pub tag: &'static str,
    pub wall_s: f64,
    pub times: Times,
    pub counts: Counts,
    /// `(net, peak volts)` per probed victim, by net.
    pub peaks: Vec<(usize, f64)>,
    /// Far-end waveforms per probed victim (PEEC and full VPEC only).
    pub waves: Vec<Vec<f64>>,
}

/// The victims' `(net, peak)` pairs and, for PEEC and full VPEC, their
/// far-end waveforms.
type Probed = (Vec<(usize, f64)>, Vec<Vec<f64>>);

/// The scan workload's state between scans.
pub struct ScanBench {
    pub plan: Plan,
    exp: Experiment,
    cfg: ExtractionConfig,
    victims: Vec<usize>,
    refs: BTreeMap<String, Vec<(usize, f64)>>,
    next_unit: u64,
    plain_first: bool,
}

impl ScanBench {
    /// Builds the layout, extracts once and loads the stored references.
    /// `with_refs == false` is for computing the references themselves.
    pub fn new(plan: Plan, with_refs: bool) -> Result<ScanBench, String> {
        let layout = BusSpec::new(plan.bits).segments(plan.segments).build();
        let cfg = ExtractionConfig::paper_default();
        let exp = Experiment::new(layout, &cfg, DriveConfig::paper_default());
        let victims = match &plan.victims {
            Some(v) => v.clone(),
            None => (0..exp.layout.nets().len())
                .filter(|&n| !exp.drive.is_aggressor(n) && !exp.layout.nets()[n].is_ground())
                .collect(),
        };
        let refs = if with_refs {
            parse_refs(PEAK_REFS, &plan.section)?
        } else {
            BTreeMap::new()
        };
        for (tag, _) in &plan.kinds {
            if with_refs && !refs.contains_key(*tag) {
                return Err(format!("no stored peaks for {} {tag}", plan.section));
            }
        }
        Ok(ScanBench {
            plan,
            exp,
            cfg,
            victims,
            refs,
            next_unit: 0,
            plain_first: false,
        })
    }

    /// One noise scan of `kind`, starting from the layout. With a recorder
    /// every layer call is a span and the transient runs split into its
    /// public steps (prepare, validate, DC, prefactored run).
    pub fn scan(
        &mut self,
        tag: &'static str,
        kind: ModelKind,
        mut rec: Option<&mut Recorder>,
    ) -> Result<ScanOut, String> {
        self.next_unit += 1;
        let unit = self.next_unit;
        let root = rec.as_deref_mut().map(|r| r.begin_unit("scan", unit));
        let t0 = Instant::now();
        let mut t = Times::default();
        let mut c = Counts::default();
        let probed = self.scan_steps(kind, &mut rec, &mut t, &mut c);
        let wall_s = t0.elapsed().as_secs_f64();
        if let (Some(r), Some(root)) = (rec, root) {
            r.end_unit(root);
        }
        let (peaks, waves) = probed?;
        c.victims = peaks.len() as f64;
        Ok(ScanOut {
            tag,
            wall_s,
            times: t,
            counts: c,
            peaks,
            waves,
        })
    }

    /// The layer calls of one scan, filling `t` and `c`.
    fn scan_steps(
        &mut self,
        kind: ModelKind,
        rec: &mut Option<&mut Recorder>,
        t: &mut Times,
        c: &mut Counts,
    ) -> Result<Probed, String> {
        let spec = &self.plan.spec;

        let ((), s) = call(rec, "extract", || {
            self.exp.parasitics = extract(&self.exp.layout, &self.cfg);
        });
        t.extract = s;
        let exp = &self.exp;
        let n = exp.parasitics.len() as f64;
        c.l_pairs = n * (n + 1.0) / 2.0;
        c.l_bytes =
            (exp.parasitics.inductance.rows() * exp.parasitics.inductance.cols() * 8) as f64;

        let mut repair = None;
        let circuit = if kind == ModelKind::Peec {
            let (ckt, s) = call(rec, "lower", || {
                invariants::enforce_parasitics(&exp.parasitics)
                    .and_then(|()| peec::build_peec(&exp.layout, &exp.parasitics, &exp.drive))
            });
            t.lower = s;
            ckt.map_err(|e| format!("lower: {e}"))?
        } else {
            let (model, s) = call(rec, "model", || {
                invariants::enforce_parasitics(&exp.parasitics).and_then(|()| exp.vpec_model(kind))
            });
            t.model = s;
            let (mut model, _) = model.map_err(|e| format!("model: {e}"))?;
            c.g_nnz = (model.len() + 2 * model.g_off().len()) as f64;
            // The sparsified kinds go through passivity repair, as in
            // `Experiment::build`.
            if matches!(
                kind,
                ModelKind::TVpecGeometric { .. }
                    | ModelKind::TVpecNumerical { .. }
                    | ModelKind::WVpecGeometric { .. }
                    | ModelKind::WVpecNumerical { .. }
            ) {
                let ((repaired, report), s) =
                    call(rec, "repair", || repair_passivity(&model, DEFAULT_MARGIN));
                t.repair = s;
                c.repair_rows = report.rows_repaired as f64;
                model = repaired;
                repair = Some(report);
            }
            let (ckt, s) = call(rec, "lower", || {
                invariants::enforce_model(&kind.label(), &model).and_then(|()| {
                    lower::build_vpec(&exp.layout, &exp.parasitics, &model, &exp.drive)
                })
            });
            t.lower = s;
            ckt.map_err(|e| format!("lower: {e}"))?
        };
        let built = BuiltModel {
            kind,
            model: circuit,
            build_seconds: t.model + t.repair + t.lower,
            sparse_factor: None,
            repair,
            trace_mark: vpec_trace::mark(),
        };
        c.elements = built.element_count() as f64;

        let (res, diag): (_, TransientDiagnostics) = if rec.is_some() {
            let (f, s) = call(rec, "circuit.prepare", || built.prepare_transient(spec));
            t.prepare = s;
            let f = f.map_err(|e| format!("prepare: {e}"))?;
            let (v, s) = call(rec, "circuit.validate", || {
                f.validate(&built.model.circuit, spec)
            });
            t.assemble = s;
            v.map_err(|e| format!("validate: {e}"))?;
            let (dc, s) = call(rec, "circuit.dc", || {
                vpec_circuit::dc::solve_dc_with(&built.model.circuit, spec.solver)
            });
            t.dc = s;
            dc.map_err(|e| format!("dc: {e}"))?;
            let (out, s) = call(rec, "circuit.run", || {
                built.run_transient_with_report_prefactored(spec, &f)
            });
            t.run = s;
            let (res, report, _) = out.map_err(|e| format!("transient: {e}"))?;
            (res, report.transient.unwrap_or_default())
        } else {
            let (out, _) = call(rec, "circuit", || built.run_transient_with_report(spec));
            let (res, report, _) = out.map_err(|e| format!("transient: {e}"))?;
            (res, report.transient.unwrap_or_default())
        };
        c.dim = diag.dim as f64;
        c.steps = diag.steps as f64;
        c.krylov = f64::from(u8::from(
            diag.factor.accepted() == Some(FactorStrategy::Iterative),
        ));
        c.krylov_iters = diag.factor.iterations.unwrap_or(0) as f64;

        let keep_waves = matches!(kind, ModelKind::Peec | ModelKind::VpecFull);
        let (probed, s) = call(rec, "probe", || {
            let mut peaks = Vec::with_capacity(self.victims.len());
            let mut waves = Vec::new();
            let mut bad = None;
            for &net in &self.victims {
                match built.far_voltage(&res, net) {
                    Ok(w) if w.iter().all(|v| v.is_finite()) => {
                        peaks.push((net, w.iter().fold(0.0_f64, |a, v| a.max(v.abs()))));
                        if keep_waves {
                            waves.push(w);
                        }
                    }
                    Ok(_) => bad = Some(format!("probe: non-finite waveform on net {net}")),
                    Err(e) => bad = Some(format!("probe: {e}")),
                }
            }
            bad.map_or(Ok((peaks, waves)), Err)
        });
        t.probe = s;
        probed
    }

    /// Checks one scan's peaks against the stored references; returns the
    /// gap as a share of the kind's largest reference peak.
    pub fn check_refs(&self, out: &ScanOut) -> Result<f64, String> {
        let refs = self
            .refs
            .get(out.tag)
            .ok_or_else(|| format!("no stored peaks for {}", out.tag))?;
        if refs.len() != out.peaks.len() {
            return Err(format!(
                "{}: {} victims probed, {} stored",
                out.tag,
                out.peaks.len(),
                refs.len()
            ));
        }
        let scale = refs.iter().fold(0.0_f64, |a, r| a.max(r.1));
        let mut gap = 0.0_f64;
        for (&(net, p), &(rnet, r)) in out.peaks.iter().zip(refs) {
            if net != rnet {
                return Err(format!("{}: probed net {net}, stored net {rnet}", out.tag));
            }
            gap = gap.max((p - r).abs() / scale);
        }
        if gap.is_nan() || gap > self.plan.ref_tol {
            return Err(format!(
                "{}: victim peaks differ from the stored references by {gap:.3e} of peak (tolerance {:.1e})",
                out.tag, self.plan.ref_tol
            ));
        }
        Ok(gap)
    }

    /// Stored-reference lines for this plan's scans (`section kind net peak`).
    pub fn ref_lines(&self, outs: &[ScanOut]) -> Vec<String> {
        outs.iter()
            .flat_map(|o| {
                o.peaks
                    .iter()
                    .map(move |(net, p)| format!("{} {} {net} {p:e}", self.plan.section, o.tag))
            })
            .collect()
    }

    /// Renders the netlist once, for its size in bytes.
    pub fn netlist_bytes(&mut self, kind: ModelKind) -> Result<f64, String> {
        let built = self.exp.build(kind).map_err(|e| format!("build: {e}"))?;
        Ok(built.netlist_bytes() as f64)
    }
}

fn parse_refs(text: &str, section: &str) -> Result<BTreeMap<String, Vec<(usize, f64)>>, String> {
    let mut out: BTreeMap<String, Vec<(usize, f64)>> = BTreeMap::new();
    for (i, line) in text.lines().enumerate() {
        let f: Vec<&str> = line.split_whitespace().collect();
        if f.is_empty() || f[0].starts_with('#') || f[0] != section {
            continue;
        }
        let bad = || format!("refs/peaks.txt line {}: {line}", i + 1);
        if f.len() != 4 {
            return Err(bad());
        }
        let net = f[2].parse::<usize>().map_err(|_| bad())?;
        let peak = f[3].parse::<f64>().map_err(|_| bad())?;
        out.entry(f[1].to_string()).or_default().push((net, peak));
    }
    Ok(out)
}

/// Relative peak error of each victim against PEEC's, maximised
/// (`|peak − PEEC peak| / PEEC peak`).
pub fn peak_err(out: &ScanOut, peec: &ScanOut) -> f64 {
    out.peaks
        .iter()
        .zip(&peec.peaks)
        .map(|(&(_, p), &(_, r))| (p - r).abs() / r)
        .fold(0.0, f64::max)
}

/// Full VPEC against PEEC, sample by sample on every probed victim.
pub fn check_vpec_full(vpec: &ScanOut, peec: &ScanOut) -> Result<f64, String> {
    let scale = peec.peaks.iter().fold(0.0_f64, |a, p| a.max(p.1));
    if vpec.waves.len() != peec.waves.len() || vpec.waves.is_empty() {
        return Err("vpec-full and PEEC probed different victims".into());
    }
    let mut gap = 0.0_f64;
    for (wv, wp) in vpec.waves.iter().zip(&peec.waves) {
        if wv.len() != wp.len() {
            return Err("vpec-full and PEEC waveforms differ in length".into());
        }
        for (a, b) in wv.iter().zip(wp) {
            gap = gap.max((a - b).abs() / scale);
        }
    }
    if gap.is_nan() || gap > VPEC_FULL_TOL {
        return Err(format!(
            "vpec-full waveforms differ from PEEC by {gap:.3e} of peak (tolerance {VPEC_FULL_TOL:.0e})"
        ));
    }
    Ok(gap)
}

/// Everything measured over a run of rounds.
#[derive(Debug, Default)]
pub struct Tally {
    /// Wall seconds per round (the end-to-end unit of work).
    pub rounds: Vec<f64>,
    pub by_kind: BTreeMap<&'static str, Vec<ScanOut>>,
    /// Untraced scans interleaved into a traced run, for the overhead.
    pub plain: BTreeMap<&'static str, Vec<f64>>,
    pub peak_err: BTreeMap<&'static str, f64>,
    pub ref_gap: f64,
    pub vpec_gap: f64,
    pub attempted: u64,
    pub failures: Vec<String>,
}

impl ScanBench {
    /// One round: one scan per kind, then the checks.
    /// With a recorder each kind is also scanned untraced, alternating
    /// which of the pair goes first from round to round; only the traced
    /// scan is kept for the layer numbers.
    pub fn round(&mut self, tally: &mut Tally, mut rec: Option<&mut Recorder>) {
        let mut outs: Vec<ScanOut> = Vec::new();
        let mut wall = 0.0;
        let mut ok = true;
        let traced = rec.is_some();
        self.plain_first = !self.plain_first;
        for (tag, kind) in self.plan.kinds.clone() {
            if traced && self.plain_first {
                self.plain_scan(tag, kind, tally);
            }
            tally.attempted += 1;
            match self.scan(tag, kind, rec.as_deref_mut()) {
                Ok(o) => {
                    wall += o.wall_s;
                    self.check_into(&o, tally);
                    outs.push(o);
                }
                Err(e) => {
                    ok = false;
                    tally.failures.push(format!("{tag}: {e}"));
                }
            }
            if traced && !self.plain_first {
                self.plain_scan(tag, kind, tally);
            }
        }
        let find = |t: &str| outs.iter().find(|o| o.tag == t);
        if let Some(peec) = find("peec") {
            for o in outs.iter().filter(|o| o.tag != "peec") {
                let e = peak_err(o, peec);
                tally.peak_err.insert(o.tag, e);
            }
            if let Some(vpec) = find("vpec") {
                match check_vpec_full(vpec, peec) {
                    Ok(g) => tally.vpec_gap = tally.vpec_gap.max(g),
                    Err(e) => tally.failures.push(e),
                }
            }
        }
        if ok {
            tally.rounds.push(wall);
        }
        for mut o in outs {
            o.waves = Vec::new();
            tally.by_kind.entry(o.tag).or_default().push(o);
        }
    }

    /// An untraced scan inside a traced run, for the tracing overhead.
    fn plain_scan(&mut self, tag: &'static str, kind: ModelKind, tally: &mut Tally) {
        tally.attempted += 1;
        match self.scan(tag, kind, None) {
            Ok(o) => {
                self.check_into(&o, tally);
                tally.plain.entry(tag).or_default().push(o.wall_s);
            }
            Err(e) => tally.failures.push(format!("{tag}: {e}")),
        }
    }

    fn check_into(&self, out: &ScanOut, tally: &mut Tally) {
        match self.check_refs(out) {
            Ok(g) => tally.ref_gap = tally.ref_gap.max(g),
            Err(e) => tally.failures.push(e),
        }
    }
}

/// End-to-end metrics of a scan run; the unit of work is one round.
pub fn end_to_end(m: &mut Metrics, tally: &Tally) {
    let ms: Vec<f64> = tally.rounds.iter().map(|s| s * 1e3).collect();
    m.put("op_p50_ms", median(&ms), "ms");
    m.put("op_p90_ms", quantile(&ms, 0.9), "ms");
    m.put(
        "ops_per_s",
        ms.len() as f64 / tally.rounds.iter().sum::<f64>(),
        "1/s",
    );
}

/// The per-kind figures printed on the detail line of an
/// untraced run: median scan seconds and peak error against PEEC.
pub fn detail(tally: &Tally) -> Metrics {
    let mut m = Metrics::default();
    for (tag, outs) in &tally.by_kind {
        let walls: Vec<f64> = outs.iter().map(|o| o.wall_s).collect();
        m.put(format!("scan_s.{tag}"), median(&walls), "s");
        m.put(format!("scans.{tag}"), walls.len() as f64, "count");
    }
    for (tag, e) in &tally.peak_err {
        m.put(format!("peak_err.{tag}"), *e, "ratio");
    }
    m.put("check.ref_gap", tally.ref_gap, "ratio");
    if tally.by_kind.contains_key("vpec") {
        m.put("check.vpec_full_gap", tally.vpec_gap, "ratio");
    }
    m
}

/// Per-layer metrics of a traced scan run. Kinds the workload does not
/// scan report 0.
pub fn per_layer(m: &mut Metrics, tally: &Tally, netlist_bytes: &BTreeMap<&'static str, f64>) {
    for tag in KIND_TAGS {
        let outs: &[ScanOut] = tally.by_kind.get(tag).map_or(&[], Vec::as_slice);
        let t = |f: fn(&Times) -> f64| {
            median_or_zero(&outs.iter().map(|o| f(&o.times)).collect::<Vec<_>>())
        };
        let c = |f: fn(&Counts) -> f64| outs.first().map_or(0.0, |o| f(&o.counts));
        let plain = tally.plain.get(tag).map_or(0.0, |v| median(v));
        let steps_s = t(|x| x.run - x.assemble);
        let steps = c(|x| x.steps);
        m.put(format!("scan_s.{tag}"), plain, "s");
        m.put(format!("extract.s.{tag}"), t(|x| x.extract), "s");
        m.put(
            format!("extract.l_pairs.{tag}"),
            c(|x| x.l_pairs),
            "count-computed",
        );
        m.put(
            format!("extract.l_bytes.{tag}"),
            c(|x| x.l_bytes),
            "bytes-computed",
        );
        m.put(format!("model.s.{tag}"), t(|x| x.model), "s");
        m.put(format!("model.g_nnz.{tag}"), c(|x| x.g_nnz), "count");
        m.put(format!("repair.s.{tag}"), t(|x| x.repair), "s");
        m.put(format!("repair.rows.{tag}"), c(|x| x.repair_rows), "count");
        m.put(format!("lower.s.{tag}"), t(|x| x.lower), "s");
        m.put(format!("lower.elements.{tag}"), c(|x| x.elements), "count");
        m.put(
            format!("lower.netlist_bytes.{tag}"),
            netlist_bytes.get(tag).copied().unwrap_or(0.0),
            "bytes",
        );
        m.put(format!("circuit.dim.{tag}"), c(|x| x.dim), "count");
        m.put(format!("circuit.prepare_s.{tag}"), t(|x| x.prepare), "s");
        m.put(format!("circuit.assemble_s.{tag}"), t(|x| x.assemble), "s");
        m.put(format!("circuit.dc_s.{tag}"), t(|x| x.dc), "s");
        m.put(
            format!("circuit.factor_s.{tag}"),
            t(|x| x.prepare - x.dc - x.assemble),
            "s",
        );
        m.put(format!("circuit.steps.{tag}"), steps, "count");
        m.put(format!("circuit.steps_s.{tag}"), steps_s, "s");
        m.put(
            format!("circuit.step_us.{tag}"),
            if steps > 0.0 {
                steps_s / steps * 1e6
            } else {
                0.0
            },
            "us",
        );
        m.put(format!("circuit.krylov.{tag}"), c(|x| x.krylov), "count");
        m.put(
            format!("circuit.krylov_iters.{tag}"),
            c(|x| x.krylov_iters),
            "count",
        );
        // The Krylov stage (preconditioner, DC and step solves) as a share
        // of the scan, net of the traced run's extra validate and DC.
        let krylov_share = median_or_zero(
            &outs
                .iter()
                .filter(|o| o.counts.krylov > 0.0)
                .map(|o| {
                    let x = &o.times;
                    (x.prepare + x.run - 2.0 * x.assemble) / (o.wall_s - x.dc - x.assemble)
                })
                .collect::<Vec<_>>(),
        );
        m.put(format!("circuit.krylov_share.{tag}"), krylov_share, "ratio");
        m.put(format!("probe.s.{tag}"), t(|x| x.probe), "s");
        m.put(format!("probe.victims.{tag}"), c(|x| x.victims), "count");
        if tag != "peec" {
            m.put(
                format!("peak_err.{tag}"),
                tally.peak_err.get(tag).copied().unwrap_or(0.0),
                "ratio",
            );
        }
    }
}
