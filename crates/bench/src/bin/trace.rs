//! `trace` — span-attributed serial-vs-parallel phase bench, plus a
//! standalone JSONL trace validator.
//!
//! ```text
//! trace [--quick] [--out <path>]     emit BENCH_trace.json
//! trace --validate <path>            check a JSONL trace stream
//! ```
//!
//! The bench mode runs the full pipeline (extract → model build →
//! transient → AC sweep) twice — once with the pool pinned to 1 worker,
//! once at the hardware-clamped parallel count — with in-memory tracing
//! enabled, and attributes wall time to each instrumented phase from the
//! spans the run actually closed. Unlike `perf` (which times phases from
//! the outside), this reports what the instrumentation itself measured,
//! so the two benches cross-check each other.
//!
//! The validate mode parses an existing `--trace=jsonl:<path>` stream
//! with the same validator the tests use: every line must parse, every
//! close must match an open, no id may open twice. Exit code 1 on any
//! violation — this is the CI schema check.

use std::time::Instant;
use vpec_circuit::ac::AcSpec;
use vpec_circuit::TransientSpec;
use vpec_core::harness::{Experiment, ModelKind};
use vpec_core::DriveConfig;
use vpec_extract::ExtractionConfig;
use vpec_geometry::BusSpec;
use vpec_numerics::pool;
use vpec_trace::PhaseTotal;

/// Phase names the instrumentation must cover for the JSON to be useful
/// downstream; missing ones are reported (and fail the process) so a
/// refactor cannot silently drop a span site.
const REQUIRED_PHASES: [&str; 5] = ["extract", "model.invert", "factor", "transient", "ac.sweep"];

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();

    if let Some(i) = args.iter().position(|a| a == "--validate") {
        let Some(path) = args.get(i + 1) else {
            eprintln!("--validate needs a path to a JSONL trace file");
            std::process::exit(2);
        };
        validate(path);
        return;
    }

    let quick = args.iter().any(|a| a == "--quick");
    let out_path = args
        .iter()
        .position(|a| a == "--out")
        .and_then(|i| args.get(i + 1))
        .cloned()
        .unwrap_or_else(|| "BENCH_trace.json".to_string());

    let hw = std::thread::available_parallelism()
        .map(std::num::NonZeroUsize::get)
        .unwrap_or(1);
    let par_workers = 4usize.min(hw).max(1);
    let (bits, segments) = if quick { (8, 4) } else { (16, 6) };
    println!(
        "trace bench | available_parallelism = {hw} | parallel column = {par_workers} workers \
         | {bits} bits x {segments} segments"
    );

    let t0 = Instant::now();
    let serial = column(1, bits, segments);
    let parallel = column(par_workers, bits, segments);
    vpec_trace::reset("off").expect("off is always valid");

    // Union of phase names, ordered by serial time descending.
    let mut names: Vec<&str> = serial.iter().map(|p| p.name.as_str()).collect();
    for p in &parallel {
        if !names.contains(&p.name.as_str()) {
            names.push(&p.name);
        }
    }

    let find = |col: &[PhaseTotal], name: &str| -> (u64, f64) {
        col.iter()
            .find(|p| p.name == name)
            .map_or((0, 0.0), |p| (p.count, p.seconds))
    };

    let mut missing = Vec::new();
    for req in REQUIRED_PHASES {
        if !names.contains(&req) {
            missing.push(req);
        }
    }

    use std::fmt::Write as _;
    let mut json = String::from("{\n");
    let _ = writeln!(json, "  \"bench\": \"trace\",");
    let _ = writeln!(json, "  \"available_parallelism\": {hw},");
    let _ = writeln!(json, "  \"parallel_threads\": {par_workers},");
    let _ = writeln!(json, "  \"quick\": {quick},");
    let _ = writeln!(json, "  \"bits\": {bits},");
    let _ = writeln!(json, "  \"segments\": {segments},");
    let _ = writeln!(json, "  \"phases\": [");
    for (i, name) in names.iter().enumerate() {
        let (sc, ss) = find(&serial, name);
        let (pc, ps) = find(&parallel, name);
        let speedup = if ps > 0.0 { ss / ps } else { 0.0 };
        let _ = writeln!(json, "    {{");
        let _ = writeln!(json, "      \"phase\": \"{name}\",");
        let _ = writeln!(json, "      \"serial_seconds\": {ss:.6e},");
        let _ = writeln!(json, "      \"serial_spans\": {sc},");
        let _ = writeln!(json, "      \"parallel_seconds\": {ps:.6e},");
        let _ = writeln!(json, "      \"parallel_spans\": {pc},");
        let _ = writeln!(json, "      \"speedup\": {speedup:.3}");
        let comma = if i + 1 < names.len() { "," } else { "" };
        let _ = writeln!(json, "    }}{comma}");
        println!(
            "  {name:<24} serial {:>9.1} µs ({sc}x)   parallel {:>9.1} µs ({pc}x)   speedup {speedup:.2}",
            ss * 1e6,
            ps * 1e6,
        );
    }
    json.push_str("  ]\n}\n");

    match std::fs::write(&out_path, &json) {
        Ok(()) => println!("\nwrote {out_path}"),
        Err(e) => {
            eprintln!("cannot write {out_path}: {e}");
            std::process::exit(1);
        }
    }
    println!("[trace completed in {:.1} s]", t0.elapsed().as_secs_f64());

    if !missing.is_empty() {
        eprintln!("missing required phase spans: {missing:?}");
        std::process::exit(1);
    }
}

/// Runs the full pipeline once at `workers` pool workers with in-memory
/// tracing on, returning the per-phase wall-time totals it recorded.
fn column(workers: usize, bits: usize, segments: usize) -> Vec<PhaseTotal> {
    vpec_trace::reset("summary").expect("summary is always valid");
    pool::set_threads(workers);
    let mark = vpec_trace::mark();

    let layout = BusSpec::new(bits).segments(segments).build();
    let cfg = ExtractionConfig::paper_default();
    let first_signal = layout.signal_nets().first().copied().unwrap_or(0);
    let exp = Experiment::new(
        layout,
        &cfg,
        DriveConfig::paper_default().aggressors(vec![first_signal]),
    );
    let built = exp.build(ModelKind::VpecFull).expect("model builds");
    let tspec = TransientSpec::new(0.2e-9, 1e-12);
    let (res, _) = built.run_transient(&tspec).expect("transient runs");
    let _ = built.far_voltage(&res, 0).expect("net 0 recorded");
    let acspec = AcSpec::log_sweep(1e8, 1e10, 4).expect("valid sweep");
    let (_ac, _) = built.run_ac(&acspec).expect("AC sweep runs");

    pool::set_threads(0);
    vpec_trace::phase_totals_since(&mark)
}

/// `--validate <path>`: schema-check a JSONL trace stream and print its
/// event inventory.
fn validate(path: &str) {
    let content = match std::fs::read_to_string(path) {
        Ok(c) => c,
        Err(e) => {
            eprintln!("cannot read {path}: {e}");
            std::process::exit(1);
        }
    };
    match vpec_trace::validate_jsonl(&content) {
        Ok(s) => {
            println!(
                "{path}: valid | {} opens, {} closes, {} instants, {} counters, {} stats",
                s.opens, s.closes, s.instants, s.counters, s.stats
            );
            println!("span names: {}", s.span_names.join(", "));
            if !s.instant_names.is_empty() {
                println!("instant events: {}", s.instant_names.join(", "));
            }
        }
        Err(e) => {
            eprintln!("{path}: INVALID trace stream: {e}");
            std::process::exit(1);
        }
    }
}
