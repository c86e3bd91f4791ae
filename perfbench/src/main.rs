//! End-to-end and per-layer benchmark of the VPEC noise tool.
//!
//! ```text
//! perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1> [--smoke]
//! perfbench --make-refs
//! ```
//!
//! Workloads: `table2-bus32x8` and `fig4-bus2048-wvpec` (noise scans, see
//! `scan.rs`) and `serve-mix` (engine requests, see `serve.rs`). A run sets
//! up three times and reports the median set-up time, then measures for
//! `--seconds`. With `--trace 0` the last stdout line carries the
//! end-to-end metrics; with `--trace 1` it carries the per-layer metrics
//! from benchmark-side spans around every layer call. Every output is
//! checked; a failed check prints `"correct": false` and exits 1.
//! `--smoke` runs the toy sizes (an 8-bit bus, a 5-request stream).
//! `--make-refs` recomputes the stored references in `refs/`.

mod report;
mod scan;
mod serve;
mod spans;

use report::{median, Metrics};
use spans::Recorder;
use std::collections::BTreeMap;
use std::path::PathBuf;
use std::process::ExitCode;
use std::time::Instant;

/// Set-ups per run; the median is reported as `setup_s`.
const SETUPS: usize = 3;

/// Environment variables that would change the measured program.
const REFUSED_ENV: [&str; 3] = ["VPEC_TRACE", "VPEC_AUDIT", "VPEC_TUNE"];

const USAGE: &str = "usage: perfbench --workload <table2-bus32x8|fig4-bus2048-wvpec|serve-mix> \
--seed <n> --seconds <s> --trace <0|1> [--smoke]\n       perfbench --make-refs";

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
    smoke: bool,
}

fn parse_args() -> Result<Option<Args>, String> {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    if argv.iter().any(|a| a == "--make-refs") {
        return Ok(None);
    }
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut smoke = false;
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        if flag == "--smoke" {
            smoke = true;
            continue;
        }
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = || format!("bad value for {flag}: {value}");
        match flag.as_str() {
            "--workload" => workload = Some(value.clone()),
            "--seed" => seed = Some(value.parse::<u64>().map_err(|_| bad())?),
            "--seconds" => {
                seconds = Some(
                    value
                        .parse::<f64>()
                        .ok()
                        .filter(|s| *s > 0.0)
                        .ok_or_else(bad)?,
                )
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad()),
                })
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(Some(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.ok_or("--trace is required")?,
        smoke,
    }))
}

/// Pins the numerics pool to one worker and records the environment;
/// refuses to run under a setting that would change the measured program.
fn pin_environment() -> Result<Metrics, String> {
    for var in REFUSED_ENV {
        if std::env::var_os(var).is_some_and(|v| !v.is_empty()) {
            return Err(format!(
                "{var} is set; unset it to benchmark the default program"
            ));
        }
    }
    vpec_numerics::pool::set_threads(1);
    let mut env = Metrics::default();
    env.put(
        "pool_workers",
        vpec_numerics::pool::max_threads() as f64,
        "count",
    );
    env.put(
        "available_parallelism",
        std::thread::available_parallelism().map_or(0, |n| n.get()) as f64,
        "count",
    );
    env.put("nproc", report::allowed_cpus() as f64, "count");
    Ok(env)
}

fn out_dir() -> Result<PathBuf, String> {
    let dir = PathBuf::from(concat!(env!("CARGO_MANIFEST_DIR"), "/out"));
    std::fs::create_dir_all(&dir).map_err(|e| format!("cannot create {}: {e}", dir.display()))?;
    Ok(dir)
}

/// Outcome of one workload run.
struct Run {
    metrics: Metrics,
    detail: Metrics,
    attempted: u64,
    failures: Vec<String>,
}

impl Run {
    /// A run whose set-up failed its checks: nothing was measured.
    fn failed_setup(reason: String) -> Run {
        Run {
            metrics: Metrics::default(),
            detail: Metrics::default(),
            attempted: 1,
            failures: vec![reason],
        }
    }
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(Some(a)) => a,
        Ok(None) => return make_refs(),
        Err(e) => {
            eprintln!("perfbench: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let env = match pin_environment() {
        Ok(env) => env,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    let vars: Vec<String> = ["VPEC_THREADS", "VPEC_TRACE", "VPEC_AUDIT", "VPEC_TUNE"]
        .iter()
        .map(|v| format!("{v}={}", std::env::var(v).unwrap_or_default()))
        .collect();
    println!("# env {} {}", env.to_json(), vars.join(" "));

    let result = match args.workload.as_str() {
        "table2-bus32x8" | "fig4-bus2048-wvpec" => run_scans(&args),
        "serve-mix" => run_serve(&args),
        other => Err(format!("unknown workload {other}\n{USAGE}")),
    };
    let run = match result {
        Ok(r) => r,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    for f in &run.failures {
        eprintln!("check failed: {f}");
    }
    println!("# detail {}", run.detail.to_json());
    let correct = run.failures.is_empty();
    println!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {}}}",
        run.attempted,
        (run.failures.len() as u64).min(run.attempted),
        run.metrics.to_json()
    );
    if correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::from(1)
    }
}

/// Runs `setup` [`SETUPS`] times and returns the last state with the
/// median set-up seconds.
fn set_up<T>(mut setup: impl FnMut() -> Result<T, String>) -> Result<(T, f64), String> {
    let mut secs = Vec::with_capacity(SETUPS);
    let mut last = None;
    for _ in 0..SETUPS {
        drop(last.take());
        let t0 = Instant::now();
        last = Some(setup()?);
        secs.push(t0.elapsed().as_secs_f64());
    }
    let state = last.ok_or("no set-up ran")?;
    Ok((state, median(&secs)))
}

fn run_scans(args: &Args) -> Result<Run, String> {
    let plan = scan::Plan::for_workload(&args.workload, args.smoke)
        .ok_or_else(|| format!("unknown workload {}", args.workload))?;
    // Set-up: layout, first extraction, stored references, and one checked
    // warm-up round at full size.
    let setup = set_up(|| {
        let mut b = scan::ScanBench::new(plan.clone(), true)?;
        let mut warm = scan::Tally::default();
        b.round(&mut warm, None);
        match warm.failures.first() {
            Some(f) => Err(format!("warm-up: {f}")),
            None => Ok(b),
        }
    });
    let (mut bench, setup_s) = match setup {
        Ok(s) => s,
        Err(e) => return Ok(Run::failed_setup(e)),
    };

    let mut tally = scan::Tally::default();
    let mut rec = args.trace.then(Recorder::new);
    let t0 = Instant::now();
    loop {
        bench.round(&mut tally, rec.as_mut());
        if t0.elapsed().as_secs_f64() >= args.seconds || !tally.failures.is_empty() {
            break;
        }
    }

    let mut metrics = Metrics::default();
    let detail = scan::detail(&tally);
    if let Some(rec) = rec {
        let mut netlist_bytes = BTreeMap::new();
        for (tag, kind) in bench.plan.kinds.clone() {
            netlist_bytes.insert(tag, bench.netlist_bytes(kind)?);
        }
        scan::per_layer(&mut metrics, &tally, &netlist_bytes);
        serve::per_layer(&mut metrics, &serve::Tally::default());
        let traced: f64 = tally
            .by_kind
            .values()
            .map(|v| median(&v.iter().map(|o| o.wall_s).collect::<Vec<_>>()))
            .sum();
        let plain: f64 = tally.plain.values().map(|v| median(v)).sum();
        trace_metrics(&mut metrics, &rec, traced / plain - 1.0, args)?;
    } else {
        metrics.put("setup_s", setup_s, "s");
        scan::end_to_end(&mut metrics, &tally);
        metrics.put("peak_rss_mb", report::peak_rss_mb(), "MB");
    }
    Ok(Run {
        metrics,
        detail,
        attempted: tally.attempted,
        failures: tally.failures,
    })
}

fn run_serve(args: &Args) -> Result<Run, String> {
    let ledger = out_dir()?.join(format!("ledger-{}.jsonl", std::process::id()));
    // Set-up: stream generation, expectations and stored peaks, and one
    // checked warm-up pass on its own engine.
    let setup = set_up(|| {
        let mut bench = serve::ServeBench::new(args.seed, args.smoke, &ledger)?;
        let mut warm = serve::Tally::default();
        bench.pass(&mut warm, None);
        match warm.failures.first() {
            Some(f) => Err(format!("warm-up: {f}")),
            None => Ok(bench),
        }
    });
    let (mut bench, setup_s) = match setup {
        Ok(s) => s,
        Err(e) => {
            // Best effort: a leftover ledger file is harmless.
            let _ = std::fs::remove_file(&ledger);
            return Ok(Run::failed_setup(e));
        }
    };

    let mut tally = serve::Tally::default();
    let mut rec = args.trace.then(Recorder::new);
    let t0 = Instant::now();
    for k in 0.. {
        // A traced run alternates which of the pair goes first.
        if rec.is_some() && k % 2 == 0 {
            bench.pass(&mut tally, None);
        }
        bench.pass(&mut tally, rec.as_mut());
        if rec.is_some() && k % 2 == 1 {
            bench.pass(&mut tally, None);
        }
        if t0.elapsed().as_secs_f64() >= args.seconds || !tally.failures.is_empty() {
            break;
        }
    }
    // Best effort: a leftover ledger file is harmless.
    let _ = std::fs::remove_file(&ledger);

    let mut metrics = Metrics::default();
    let detail = serve::detail(&tally);
    if let Some(rec) = rec {
        scan::per_layer(&mut metrics, &scan::Tally::default(), &BTreeMap::new());
        serve::per_layer(&mut metrics, &tally);
        trace_metrics(&mut metrics, &rec, serve::trace_overhead(&tally), args)?;
    } else {
        metrics.put("setup_s", setup_s, "s");
        serve::end_to_end(&mut metrics, &tally);
        metrics.put("peak_rss_mb", report::peak_rss_mb(), "MB");
    }
    Ok(Run {
        metrics,
        detail,
        attempted: tally.attempted,
        failures: tally.failures,
    })
}

/// Tracing overhead and the unattributed share of the units' time, and
/// the spans written once to `out/`.
fn trace_metrics(
    m: &mut Metrics,
    rec: &Recorder,
    overhead: f64,
    args: &Args,
) -> Result<(), String> {
    let (residual, residual_p99, residual_max) = rec.residual_shares();
    m.put("trace.overhead_frac", overhead, "ratio");
    m.put("trace.residual_frac", residual, "ratio");
    m.put("trace.residual_p99", residual_p99, "ratio");
    m.put("trace.residual_max", residual_max, "ratio");
    m.put("trace.spans", rec.len() as f64, "count");
    let path = out_dir()?.join(format!("spans-{}-{}.jsonl", args.workload, args.seed));
    rec.write_jsonl(&path)
        .map_err(|e| format!("cannot write {}: {e}", path.display()))?;
    println!("# spans {} ({} spans)", path.display(), rec.len());
    Ok(())
}

/// Recomputes `refs/peaks.txt` and `refs/serve.txt`. The Fig. 4 peaks use
/// sparse LU; everything else runs as benchmarked.
fn make_refs() -> ExitCode {
    if let Err(e) = pin_environment() {
        eprintln!("perfbench: {e}");
        return ExitCode::from(2);
    }
    let dir = PathBuf::from(concat!(env!("CARGO_MANIFEST_DIR"), "/refs"));
    let mut peaks = vec![
        "# section kind net peak_volts — victim far-end peaks; the fig4 rows use sparse LU"
            .to_string(),
    ];
    for workload in ["table2-bus32x8", "fig4-bus2048-wvpec"] {
        for smoke in [false, true] {
            let plan = scan::Plan::for_workload(workload, smoke)
                .expect("known workload")
                .reference_plan();
            let kinds = plan.kinds.clone();
            let result = scan::ScanBench::new(plan, false).and_then(|mut b| {
                let outs = kinds
                    .iter()
                    .map(|&(tag, kind)| b.scan(tag, kind, None))
                    .collect::<Result<Vec<_>, _>>()?;
                Ok(b.ref_lines(&outs))
            });
            match result {
                Ok(lines) => peaks.extend(lines),
                Err(e) => {
                    eprintln!("perfbench: {workload}: {e}");
                    return ExitCode::from(1);
                }
            }
        }
    }
    let mut serve_lines =
        vec!["# entry peak_mV — one fresh-engine answer per catalog entry".to_string()];
    serve_lines.extend(serve::reference_lines());
    for (name, lines) in [("peaks.txt", peaks), ("serve.txt", serve_lines)] {
        let path = dir.join(name);
        if let Err(e) = std::fs::write(&path, lines.join("\n") + "\n") {
            eprintln!("perfbench: cannot write {}: {e}", path.display());
            return ExitCode::from(1);
        }
        println!("wrote {} ({} lines)", path.display(), lines.len());
    }
    ExitCode::SUCCESS
}
