//! Benchmark-side spans for the traced run.
//!
//! Each call the benchmark makes into a layer's public function is one
//! span: name, start, end, parent span and the id of the unit of work (a
//! noise scan or an engine request) it belongs to. Spans stay in memory
//! and are written once, after measuring. The program's own `vpec-trace`
//! spans stay off.

use std::io::Write;
use std::time::Instant;

#[derive(Debug, Clone)]
struct Span {
    name: &'static str,
    start_ns: u64,
    end_ns: u64,
    parent: Option<usize>,
    unit: u64,
}

/// In-memory span recorder.
#[derive(Debug)]
pub struct Recorder {
    origin: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
    unit: u64,
    /// `(unattributed seconds, wall seconds)` of every finished unit.
    units: Vec<(f64, f64)>,
}

impl Recorder {
    pub fn new() -> Self {
        Recorder {
            origin: Instant::now(),
            // Room for a whole run, so no reallocation lands inside a span.
            spans: Vec::with_capacity(1 << 17),
            open: Vec::new(),
            unit: 0,
            units: Vec::new(),
        }
    }

    fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Opens the root span of unit of work `unit`.
    pub fn begin_unit(&mut self, name: &'static str, unit: u64) -> usize {
        self.unit = unit;
        self.open(name)
    }

    /// Opens a span under the innermost open one.
    pub fn open(&mut self, name: &'static str) -> usize {
        let idx = self.spans.len();
        self.spans.push(Span {
            name,
            start_ns: self.now_ns(),
            end_ns: 0,
            parent: self.open.last().copied(),
            unit: self.unit,
        });
        self.open.push(idx);
        idx
    }

    /// Closes span `idx` (the innermost open one) and returns its seconds.
    pub fn close(&mut self, idx: usize) -> f64 {
        let end = self.now_ns();
        let popped = self.open.pop();
        debug_assert_eq!(popped, Some(idx), "spans must close innermost first");
        let s = &mut self.spans[idx];
        s.end_ns = end;
        (end - s.start_ns) as f64 * 1e-9
    }

    /// Seconds of span `idx`.
    pub fn seconds(&self, idx: usize) -> f64 {
        let s = &self.spans[idx];
        s.end_ns.saturating_sub(s.start_ns) as f64 * 1e-9
    }

    /// Closes root span `root` and records its unattributed time; returns
    /// its seconds.
    pub fn end_unit(&mut self, root: usize) -> f64 {
        let s = self.close(root);
        self.units.push((self.residual(root), s));
        s
    }

    /// The unattributed share of the units' time: over all units
    /// together, at the 99th percentile of units, and at the worst unit.
    pub fn residual_shares(&self) -> (f64, f64, f64) {
        let total: f64 = self.units.iter().map(|u| u.1).sum();
        let unattributed: f64 = self.units.iter().map(|u| u.0).sum();
        let shares: Vec<f64> = self.units.iter().map(|u| u.0 / u.1).collect();
        (
            unattributed / total,
            crate::report::quantile(&shares, 0.99),
            shares.iter().copied().fold(0.0, f64::max),
        )
    }

    /// The unattributed part of root span `root`: its duration minus the
    /// time its direct children cover (a layer's self time is its leaf
    /// span's duration).
    fn residual(&self, root: usize) -> f64 {
        let children: f64 = self.spans[root + 1..]
            .iter()
            .enumerate()
            .take_while(|(_, s)| s.parent.is_some())
            .filter(|(_, s)| s.parent == Some(root))
            .map(|(i, _)| self.seconds(root + 1 + i))
            .sum();
        self.seconds(root) - children
    }

    pub fn len(&self) -> usize {
        self.spans.len()
    }

    /// Writes every span as one JSON line.
    pub fn write_jsonl(&self, path: &std::path::Path) -> std::io::Result<()> {
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        for (i, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            writeln!(
                out,
                "{{\"id\":{i},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"parent\":{parent},\"unit\":{}}}",
                s.name, s.start_ns, s.end_ns, s.unit
            )?;
        }
        out.flush()
    }
}

/// Runs `f` and returns its value with its seconds, inside a span named
/// `name` when recording.
pub fn call<T>(
    rec: &mut Option<&mut Recorder>,
    name: &'static str,
    f: impl FnOnce() -> T,
) -> (T, f64) {
    match rec.as_deref_mut() {
        Some(r) => {
            let i = r.open(name);
            let v = f();
            (v, r.close(i))
        }
        None => {
            let t0 = Instant::now();
            let v = f();
            (v, t0.elapsed().as_secs_f64())
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn residual_subtracts_direct_children() {
        let mut r = Recorder::new();
        let root = r.begin_unit("scan", 7);
        let a = r.open("extract");
        std::thread::sleep(std::time::Duration::from_millis(2));
        r.close(a);
        let b = r.open("circuit");
        let c = r.open("circuit.inner");
        std::thread::sleep(std::time::Duration::from_millis(2));
        r.close(c);
        r.close(b);
        r.end_unit(root);
        let residual = r.residual(root);
        assert!((residual + r.seconds(a) + r.seconds(b) - r.seconds(root)).abs() < 1e-9);
        assert!(residual >= 0.0 && residual < r.seconds(root) / 2.0);
        assert_eq!(r.len(), 4);
        let next = r.begin_unit("scan", 8);
        r.end_unit(next);
        assert!((r.residual(root) - residual).abs() < 1e-12);
        let (all, p99, worst) = r.residual_shares();
        assert!(all > 0.0 && all <= worst && p99 <= worst && worst <= 1.0);
    }
}
