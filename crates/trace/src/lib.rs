//! The telemetry core of the VPEC workspace: structured tracing plus the
//! one counter/histogram registry.
//!
//! Every layer of the pipeline (extraction → model build → factorization →
//! transient/AC solve) and the batch engine report into this crate, so a
//! run can be profiled end-to-end and a request stream exported without
//! external tooling:
//!
//! * **Spans** — hierarchical wall-time regions opened by [`span`] (or the
//!   [`span!`] macro) and closed by RAII drop. Spans only time work: each
//!   one resolves its node in the span tree (parent node + name) when it
//!   opens, and its duration is added to that node and to a per-name
//!   total when it closes. Parentage propagates across pool worker
//!   threads via [`current_span`] + [`parent_scope`]. Retained state grows
//!   with the number of distinct span paths and names, never with the
//!   length of the run.
//! * **Counters** — monotonically increasing named totals
//!   ([`counter_add`]): factorization attempts per strategy, transient
//!   retries and dt-halvings, cache hits, engine outcomes, pool dispatch
//!   counts, …
//! * **Value histograms** — one [`Histogram`] per named series
//!   ([`record_value`]): √2 buckets plus exact count/sum/min/max, for
//!   request latencies, tasks per pool worker, …
//! * **Instant events** — point-in-time markers with a detail string
//!   ([`instant_event`]), e.g. one per transient retry. They are counted
//!   per name and streamed to the JSONL sink.
//!
//! # Gating
//!
//! One process-global gate holds two bits:
//!
//! * **tracing**, the [`TraceMode`]: [`TraceMode::Off`] (default),
//!   [`TraceMode::Summary`] (aggregate in memory; [`summary_tree`] renders
//!   the span tree with counters and value stats appended) or
//!   [`TraceMode::Jsonl`] (additionally stream every event to a file, one
//!   JSON object per line; see the event schema in [`validate_jsonl`]).
//!   The mode comes from the `VPEC_TRACE` environment variable (`off` /
//!   `summary` / `jsonl:<path>`) on first use, or from the CLI
//!   `--trace[=…]` flag via [`set_mode_spec`].
//! * **registry**, set by [`install`] (the engine's ledger and exposition
//!   sinks): counters and values record even with tracing off, and
//!   [`snapshot`] exports them.
//!
//! [`counter_add`] and [`record_value`] record once whenever either bit
//! is set; spans and instant events record only while tracing. With both
//! bits clear every call site costs one relaxed atomic load, the same
//! pattern as `VPEC_AUDIT`.
//!
//! JSONL lines carry a monotonic `seq` field, contiguous from 1 per
//! sink, validated by [`validate_jsonl`].
//!
//! # Example
//!
//! ```
//! vpec_trace::reset("summary").unwrap();
//! {
//!     let mut outer = vpec_trace::span("build");
//!     outer.set_attr("kind", "demo");
//!     let _inner = vpec_trace::span("build.extract");
//!     vpec_trace::counter_add("demo.widgets", 3);
//! }
//! let tree = vpec_trace::summary_tree();
//! assert!(tree.contains("build.extract"));
//! vpec_trace::reset("off").unwrap();
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod histogram;
pub mod json;

pub use histogram::{bucket_bound, Histogram, HistogramSnapshot, BUCKET_COUNT};

use std::cell::RefCell;
use std::collections::{BTreeMap, HashMap};
use std::fmt::Write as _;
use std::fs::File;
use std::io::{BufWriter, Write};
use std::sync::atomic::{AtomicU32, AtomicU64, AtomicU8, Ordering};
use std::sync::{Mutex, OnceLock};
use std::time::Instant;

/// Which sink the process-global tracer feeds.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum TraceMode {
    /// No tracing; every gate costs one relaxed atomic load.
    Off = 0,
    /// Aggregate in memory for the human-readable [`summary_tree`].
    Summary = 1,
    /// Aggregate in memory *and* stream JSONL events to a file.
    Jsonl = 2,
}

impl TraceMode {
    fn from_u8(v: u8) -> TraceMode {
        match v {
            1 => TraceMode::Summary,
            2 => TraceMode::Jsonl,
            _ => TraceMode::Off,
        }
    }

    /// The mode name (`off` / `summary` / `jsonl`).
    pub fn label(self) -> &'static str {
        match self {
            TraceMode::Off => "off",
            TraceMode::Summary => "summary",
            TraceMode::Jsonl => "jsonl",
        }
    }
}

/// The one enable gate: bits 0–1 hold the [`TraceMode`], bit 2 the
/// registry, bit 7 says the mode has not been resolved from the
/// environment yet. A single relaxed load answers every hot-path check.
static GATE: AtomicU8 = AtomicU8::new(UNRESOLVED);
const MODE_BITS: u8 = 0b0000_0011;
const REGISTRY: u8 = 0b0000_0100;
const RECORDING: u8 = MODE_BITS | REGISTRY;
const UNRESOLVED: u8 = 0b1000_0000;

static NEXT_SPAN_ID: AtomicU64 = AtomicU64::new(0);
static NEXT_THREAD_ID: AtomicU32 = AtomicU32::new(0);
static EPOCH: OnceLock<Instant> = OnceLock::new();
static STATE: OnceLock<Mutex<State>> = OnceLock::new();

thread_local! {
    static SPAN_STACK: RefCell<Vec<SpanRef>> = const { RefCell::new(Vec::new()) };
    static THREAD_ID: RefCell<Option<u32>> = const { RefCell::new(None) };
}

/// Stores a resolved trace mode, keeping the registry bit intact.
fn store_mode(m: TraceMode) {
    let _ = GATE.fetch_update(Ordering::Relaxed, Ordering::Relaxed, |g| {
        Some((g & REGISTRY) | m as u8)
    });
}

/// The gate, resolving the trace mode from the environment on first use.
#[inline]
fn gate() -> u8 {
    let g = GATE.load(Ordering::Relaxed);
    if g & UNRESOLVED == 0 {
        g
    } else {
        resolve_gate()
    }
}

/// Resolves the trace mode from `VPEC_TRACE`; kept out of line so the
/// inlined hot-path check stays one load and one branch.
#[cold]
#[inline(never)]
fn resolve_gate() -> u8 {
    let spec = std::env::var("VPEC_TRACE").unwrap_or_default();
    if let Err(e) = set_mode_spec(&spec) {
        eprintln!("warning: invalid VPEC_TRACE ({e}); tracing disabled");
        store_mode(TraceMode::Off);
    }
    GATE.load(Ordering::Relaxed)
}

/// Wall time and count of the spans closed under one name or path.
#[derive(Debug, Clone, Copy, Default)]
struct Total {
    count: u64,
    us: f64,
}

/// Per-name span totals.
#[derive(Debug)]
struct Phase {
    name: String,
    total: Total,
}

/// One node of the span tree: every span with the same parent node and
/// name closes into it.
#[derive(Debug)]
struct Node {
    phase: usize,
    children: Vec<usize>,
    total: Total,
}

struct State {
    /// Bumped by [`reset`]; guards, parent links and marks taken before
    /// it refer to nodes that no longer exist and are ignored.
    generation: u32,
    jsonl: Option<BufWriter<File>>,
    /// Sequence number stamped on the next JSONL line; restarts at 1
    /// whenever a sink opens, so every stream is contiguous from 1 and
    /// post-hoc tools can detect dropped or reordered lines.
    next_seq: u64,
    /// [`finish`] already wrote the counter/stat tail to this sink.
    tail_written: bool,
    phases: Vec<Phase>,
    nodes: Vec<Node>,
    roots: Vec<usize>,
    instants: HashMap<String, u64>,
    counters: BTreeMap<String, u64>,
    histograms: BTreeMap<String, Histogram>,
}

impl State {
    fn new(generation: u32) -> State {
        State {
            generation,
            jsonl: None,
            next_seq: 1,
            tail_written: false,
            phases: Vec::new(),
            nodes: Vec::new(),
            roots: Vec::new(),
            instants: HashMap::new(),
            counters: BTreeMap::new(),
            histograms: BTreeMap::new(),
        }
    }

    fn write_line(&mut self, line: &str) {
        if self.jsonl.is_none() {
            return;
        }
        let seq = self.next_seq;
        self.next_seq += 1;
        if let Some(w) = self.jsonl.as_mut() {
            // `line` is always a JSON object; the monotonic sequence
            // number is injected as its first field. Per-line flush keeps
            // the file schema-valid even if the process exits without
            // calling `finish()`.
            let rest = line.strip_prefix('{').unwrap_or(line);
            let _ = writeln!(w, "{{\"seq\":{seq},{rest}");
            let _ = w.flush();
        }
    }

    fn name(&self, node: usize) -> &str {
        &self.phases[self.nodes[node].phase].name
    }

    /// The node named `name` under `parent` (a root when `None`),
    /// created on first use. Allocates only for a new name or path.
    fn node(&mut self, parent: Option<usize>, name: &str) -> usize {
        let siblings = match parent {
            Some(p) => &self.nodes[p].children,
            None => &self.roots,
        };
        if let Some(&n) = siblings.iter().find(|&&n| self.name(n) == name) {
            return n;
        }
        let phase = match self.phases.iter().position(|p| p.name == name) {
            Some(i) => i,
            None => {
                self.phases.push(Phase {
                    name: name.to_string(),
                    total: Total::default(),
                });
                self.phases.len() - 1
            }
        };
        let n = self.nodes.len();
        self.nodes.push(Node {
            phase,
            children: Vec::new(),
            total: Total::default(),
        });
        match parent {
            Some(p) => self.nodes[p].children.push(n),
            None => self.roots.push(n),
        }
        n
    }

    fn close(&mut self, node: usize, dur_us: f64) {
        let phase = self.nodes[node].phase;
        for total in [&mut self.nodes[node].total, &mut self.phases[phase].total] {
            total.count += 1;
            total.us += dur_us;
        }
    }

    /// The span tree depth-first, children in name order: the name path
    /// and totals of every node that has closed at least once.
    fn paths(&self) -> Vec<(Vec<&str>, Total)> {
        let mut out = Vec::new();
        self.collect_paths(&self.roots, &mut Vec::new(), &mut out);
        out
    }

    fn collect_paths<'a>(
        &'a self,
        siblings: &[usize],
        path: &mut Vec<&'a str>,
        out: &mut Vec<(Vec<&'a str>, Total)>,
    ) {
        let mut sorted = siblings.to_vec();
        sorted.sort_by(|&a, &b| self.name(a).cmp(self.name(b)));
        for n in sorted {
            path.push(self.name(n));
            if self.nodes[n].total.count > 0 {
                out.push((path.clone(), self.nodes[n].total));
            }
            self.collect_paths(&self.nodes[n].children, path, out);
            path.pop();
        }
    }

    /// Snapshots of the non-empty value histograms.
    fn histogram_snapshots(&self) -> BTreeMap<String, HistogramSnapshot> {
        self.histograms
            .iter()
            .filter_map(|(k, h)| h.snapshot().map(|s| (k.clone(), s)))
            .collect()
    }
}

fn lock_state() -> std::sync::MutexGuard<'static, State> {
    let state = STATE.get_or_init(|| Mutex::new(State::new(0)));
    match state.lock() {
        Ok(g) => g,
        Err(poisoned) => poisoned.into_inner(),
    }
}

fn now_us() -> f64 {
    EPOCH.get_or_init(Instant::now).elapsed().as_secs_f64() * 1e6
}

fn thread_id() -> u32 {
    THREAD_ID.with(|slot| {
        let mut slot = slot.borrow_mut();
        *slot.get_or_insert_with(|| NEXT_THREAD_ID.fetch_add(1, Ordering::Relaxed))
    })
}

/// The current process-global trace mode.
///
/// On first call the mode is resolved from the `VPEC_TRACE` environment
/// variable, defaulting to [`TraceMode::Off`]; thereafter the cached value
/// is returned (one relaxed atomic load).
pub fn mode() -> TraceMode {
    TraceMode::from_u8(gate() & MODE_BITS)
}

/// `true` when tracing is on (any sink active). This is the hot-path
/// gate: a single relaxed atomic load once the mode has been resolved.
#[inline]
pub fn enabled() -> bool {
    gate() & MODE_BITS != 0
}

/// Turns the registry on: from now on [`counter_add`] and
/// [`record_value`] record even with tracing off, for [`snapshot`] to
/// export. Idempotent; independent of the trace mode.
pub fn install() {
    GATE.fetch_or(REGISTRY, Ordering::Relaxed);
}

/// Turns the registry off again. Recorded values stay until [`reset`].
pub fn uninstall() {
    GATE.fetch_and(!REGISTRY, Ordering::Relaxed);
}

/// Validates a trace-mode spec without applying it or touching the
/// filesystem, returning the mode it would select. Used by argument
/// parsers that want typo errors before the run starts.
///
/// # Errors
///
/// A human-readable message for unknown specs or a path-less `jsonl`.
pub fn parse_mode_spec(spec: &str) -> Result<TraceMode, String> {
    let spec = spec.trim();
    let lower = spec.to_ascii_lowercase();
    if spec.is_empty() || lower == "off" || lower == "none" || lower == "0" {
        Ok(TraceMode::Off)
    } else if lower == "summary" || lower == "on" || lower == "1" {
        Ok(TraceMode::Summary)
    } else if lower == "jsonl" {
        Err("jsonl sink needs a path: --trace=jsonl:<path>".to_string())
    } else if let Some(path) = spec.strip_prefix("jsonl:") {
        // `jsonl:` with nothing after the colon would otherwise defer the
        // failure to sink-open time; reject it while it is still a spec
        // (= usage) problem.
        if path.trim().is_empty() {
            Err("jsonl sink needs a path: --trace=jsonl:<path>".to_string())
        } else {
            Ok(TraceMode::Jsonl)
        }
    } else {
        Err(format!(
            "unknown trace mode {spec:?} (expected off, summary, or jsonl:<path>)"
        ))
    }
}

/// Sets the process-global trace mode from a `--trace=` / `VPEC_TRACE`
/// spec: `off`, `summary`, or `jsonl:<path>`.
///
/// An empty spec means `off`. For `jsonl:<path>` the file is created
/// (truncating any existing content) before the mode switches; an
/// unopenable path is an error and leaves the previous mode in place.
pub fn set_mode_spec(spec: &str) -> Result<TraceMode, String> {
    let resolved = parse_mode_spec(spec)?;
    let sink = match resolved {
        TraceMode::Jsonl => {
            let path = spec.trim().strip_prefix("jsonl:").expect("checked above");
            let file =
                File::create(path).map_err(|e| format!("cannot open trace file {path:?}: {e}"))?;
            Some(BufWriter::new(file))
        }
        _ => None,
    };
    {
        let mut st = lock_state();
        if let Some(mut old) = st.jsonl.take() {
            let _ = old.flush();
        }
        st.jsonl = sink;
        st.next_seq = 1;
        st.tail_written = false;
    }
    store_mode(resolved);
    Ok(resolved)
}

/// Clears all recorded data — span tree, counters, histograms, instant
/// counts — and sets a fresh mode (tests, repeated CLI invocations in one
/// process). Accepts the same specs as [`set_mode_spec`]; the registry
/// bit is left as it was.
pub fn reset(spec: &str) -> Result<TraceMode, String> {
    {
        let mut st = lock_state();
        let generation = st.generation.wrapping_add(1);
        *st = State::new(generation);
    }
    store_mode(TraceMode::Off);
    set_mode_spec(spec)
}

/// A handle on an open span, captured by [`current_span`] for
/// [`parent_scope`] on another thread.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SpanRef {
    id: u64,
    node: usize,
    generation: u32,
}

/// Removes span `id` from the calling thread's span stack.
fn unlink(id: u64) {
    SPAN_STACK.with(|s| {
        let mut stack = s.borrow_mut();
        if let Some(pos) = stack.iter().rposition(|l| l.id == id) {
            stack.remove(pos);
        }
    });
}

/// RAII guard for one span. Created by [`span`]; the span closes when the
/// guard drops. When tracing is off the guard is inert.
#[derive(Debug)]
pub struct SpanGuard {
    link: Option<SpanRef>,
    start_us: f64,
    attrs: Vec<(String, String)>,
}

impl SpanGuard {
    /// `true` when the span is actually recording.
    pub fn is_active(&self) -> bool {
        self.link.is_some()
    }

    /// Attaches a string attribute, streamed on the JSONL close event.
    /// Values are only formatted when the span is active, so passing
    /// cheap display types costs nothing with tracing off.
    pub fn set_attr(&mut self, key: &str, value: impl std::fmt::Display) {
        if self.link.is_some() {
            self.attrs.push((key.to_string(), value.to_string()));
        }
    }

    /// Builder-style [`SpanGuard::set_attr`].
    pub fn with_attr(mut self, key: &str, value: impl std::fmt::Display) -> SpanGuard {
        self.set_attr(key, value);
        self
    }
}

impl Drop for SpanGuard {
    fn drop(&mut self) {
        let Some(link) = self.link else { return };
        let end_us = now_us();
        let dur_us = end_us - self.start_us;
        unlink(link.id);
        let mut st = lock_state();
        if link.generation != st.generation {
            return;
        }
        if st.jsonl.is_some() {
            let mut line = format!(
                "{{\"ev\":\"close\",\"id\":{},\"name\":\"{}\",\"t_us\":{end_us:.3},\"dur_us\":{dur_us:.3}",
                link.id,
                json::escape(st.name(link.node))
            );
            if !self.attrs.is_empty() {
                line.push_str(",\"attrs\":{");
                for (i, (k, v)) in self.attrs.iter().enumerate() {
                    if i > 0 {
                        line.push(',');
                    }
                    let _ = write!(line, "\"{}\":\"{}\"", json::escape(k), json::escape(v));
                }
                line.push('}');
            }
            line.push('}');
            st.write_line(&line);
        }
        st.close(link.node, dur_us);
    }
}

/// Opens a span named `name` under the calling thread's current span.
/// Close it by dropping the returned guard. A no-op (inert guard) when
/// tracing is off.
pub fn span(name: &str) -> SpanGuard {
    if !enabled() {
        return SpanGuard {
            link: None,
            start_us: 0.0,
            attrs: Vec::new(),
        };
    }
    let id = NEXT_SPAN_ID.fetch_add(1, Ordering::Relaxed) + 1;
    let parent = SPAN_STACK.with(|s| s.borrow().last().copied());
    let thread = thread_id();
    let start_us = now_us();
    let mut st = lock_state();
    let generation = st.generation;
    let parent_node = parent
        .filter(|p| p.generation == generation)
        .map(|p| p.node);
    let node = st.node(parent_node, name);
    if st.jsonl.is_some() {
        let parent_txt = match parent {
            Some(p) => p.id.to_string(),
            None => "null".to_string(),
        };
        let line = format!(
            "{{\"ev\":\"open\",\"id\":{id},\"parent\":{parent_txt},\"name\":\"{}\",\"thread\":{thread},\"t_us\":{start_us:.3}}}",
            json::escape(name)
        );
        st.write_line(&line);
    }
    drop(st);
    let link = SpanRef {
        id,
        node,
        generation,
    };
    SPAN_STACK.with(|s| s.borrow_mut().push(link));
    SpanGuard {
        link: Some(link),
        start_us,
        attrs: Vec::new(),
    }
}

/// Opens a span — `span!("name")`, optionally with initial attributes:
/// `span!("lu.factor", "dim" => n, "mode" => "serial")`.
#[macro_export]
macro_rules! span {
    ($name:expr) => {
        $crate::span($name)
    };
    ($name:expr $(, $k:expr => $v:expr)+ $(,)?) => {{
        let mut guard = $crate::span($name);
        $( guard.set_attr($k, $v); )+
        guard
    }};
}

/// The calling thread's innermost active span, for handing to
/// [`parent_scope`] on a worker thread. `None` when tracing is off or no
/// span is open.
pub fn current_span() -> Option<SpanRef> {
    if !enabled() {
        return None;
    }
    SPAN_STACK.with(|s| s.borrow().last().copied())
}

/// RAII guard that seeds a worker thread's span stack with a parent
/// captured on the submitting thread. See [`parent_scope`].
#[derive(Debug)]
pub struct ParentScope {
    id: Option<u64>,
}

impl Drop for ParentScope {
    fn drop(&mut self) {
        if let Some(id) = self.id {
            unlink(id);
        }
    }
}

/// Links spans opened on this (worker) thread to `parent`, a span
/// captured with [`current_span`] on the submitting thread. The link is
/// removed when the returned guard drops. Inert when `parent` is `None`
/// or tracing is off.
pub fn parent_scope(parent: Option<SpanRef>) -> ParentScope {
    match parent {
        Some(link) if enabled() => {
            SPAN_STACK.with(|s| s.borrow_mut().push(link));
            ParentScope { id: Some(link.id) }
        }
        _ => ParentScope { id: None },
    }
}

/// Adds `delta` to the named counter. Records when tracing or the
/// registry is on; when both are off the call costs one relaxed atomic
/// load.
pub fn counter_add(name: &str, delta: u64) {
    if delta == 0 || gate() & RECORDING == 0 {
        return;
    }
    let mut st = lock_state();
    // Avoid allocating the key when the counter already exists — counters
    // fire on hot paths (per-step solves).
    match st.counters.get_mut(name) {
        Some(v) => *v += delta,
        None => {
            st.counters.insert(name.to_string(), delta);
        }
    }
}

/// Records one value into the named [`Histogram`] (a latency in ms, a
/// size, …). Records when tracing or the registry is on; when both are
/// off the call costs one relaxed atomic load.
pub fn record_value(name: &str, value: f64) {
    if gate() & RECORDING == 0 {
        return;
    }
    let mut st = lock_state();
    match st.histograms.get_mut(name) {
        Some(h) => h.record(value),
        None => {
            let mut h = Histogram::new();
            h.record(value);
            st.histograms.insert(name.to_string(), h);
        }
    }
}

/// Emits a point-in-time event (e.g. one per transient retry) with a
/// human-readable detail string: counted per name, and streamed in JSONL
/// mode. A no-op when tracing is off.
pub fn instant_event(name: &str, detail: &str) {
    if !enabled() {
        return;
    }
    let t_us = now_us();
    let thread = thread_id();
    let mut st = lock_state();
    if st.jsonl.is_some() {
        let line = format!(
            "{{\"ev\":\"instant\",\"name\":\"{}\",\"thread\":{thread},\"t_us\":{t_us:.3},\"detail\":\"{}\"}}",
            json::escape(name),
            json::escape(detail)
        );
        st.write_line(&line);
    }
    match st.instants.get_mut(name) {
        Some(n) => *n += 1,
        None => {
            st.instants.insert(name.to_string(), 1);
        }
    }
}

/// Current value of a counter (0 if never incremented).
pub fn counter_value(name: &str) -> u64 {
    lock_state().counters.get(name).copied().unwrap_or(0)
}

/// Number of instant events recorded under `name`.
pub fn instant_count(name: &str) -> u64 {
    lock_state().instants.get(name).copied().unwrap_or(0)
}

/// Point-in-time copy of the counters and value histograms, for the
/// run ledger and the exposition file.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Snapshot {
    /// Monotonic counters by name.
    pub counters: BTreeMap<String, u64>,
    /// Histogram snapshots by name (empty histograms are omitted).
    pub histograms: BTreeMap<String, HistogramSnapshot>,
}

/// Snapshots every counter and value histogram recorded since the last
/// [`reset`].
#[must_use]
pub fn snapshot() -> Snapshot {
    let st = lock_state();
    Snapshot {
        counters: st.counters.clone(),
        histograms: st.histogram_snapshots(),
    }
}

/// Per-name span totals at one moment, for [`phase_totals_since`].
#[derive(Debug, Clone, Default)]
pub struct Mark {
    generation: u32,
    totals: Vec<Total>,
}

/// Snapshots the per-name span totals (empty when tracing is off).
pub fn mark() -> Mark {
    if !enabled() {
        return Mark::default();
    }
    let st = lock_state();
    Mark {
        generation: st.generation,
        totals: st.phases.iter().map(|p| p.total).collect(),
    }
}

/// Wall-time total for one span name (or, from [`path_totals`], one
/// span path).
#[derive(Debug, Clone, PartialEq)]
pub struct PhaseTotal {
    /// Span name, or `/`-joined span path.
    pub name: String,
    /// Number of spans closed under this name.
    pub count: u64,
    /// Total wall-clock seconds across those spans.
    pub seconds: f64,
}

/// Per-name totals of the spans closed since `mark`, sorted by
/// descending total time. Empty when tracing is off.
pub fn phase_totals_since(mark: &Mark) -> Vec<PhaseTotal> {
    if !enabled() {
        return Vec::new();
    }
    let st = lock_state();
    let before: &[Total] = if mark.generation == st.generation {
        &mark.totals
    } else {
        &[]
    };
    let mut totals: Vec<PhaseTotal> = st
        .phases
        .iter()
        .enumerate()
        .filter_map(|(i, p)| {
            let b = before.get(i).copied().unwrap_or_default();
            let count = p.total.count.saturating_sub(b.count);
            (count > 0).then(|| PhaseTotal {
                name: p.name.clone(),
                count,
                seconds: (p.total.us - b.us) * 1e-6,
            })
        })
        .collect();
    totals.sort_by(|a, b| {
        b.seconds
            .total_cmp(&a.seconds)
            .then_with(|| a.name.cmp(&b.name))
    });
    totals
}

/// The aggregated span tree: one entry per distinct span path (names
/// joined by `/`) that has closed at least once, depth-first with
/// children in name order.
pub fn path_totals() -> Vec<PhaseTotal> {
    let st = lock_state();
    st.paths()
        .into_iter()
        .map(|(path, t)| PhaseTotal {
            name: path.join("/"),
            count: t.count,
            seconds: t.us * 1e-6,
        })
        .collect()
}

fn fmt_us(us: f64) -> String {
    if us >= 1e6 {
        format!("{:.3} s", us * 1e-6)
    } else if us >= 1e3 {
        format!("{:.2} ms", us * 1e-3)
    } else {
        format!("{us:.1} µs")
    }
}

/// Renders the human-readable summary: the aggregated span tree followed
/// by counters and value stats. Empty string when tracing is off or
/// nothing was recorded.
pub fn summary_tree() -> String {
    if !enabled() {
        return String::new();
    }
    let st = lock_state();
    let paths = st.paths();
    let stats = st.histogram_snapshots();
    if paths.is_empty() && st.counters.is_empty() && stats.is_empty() {
        return String::new();
    }
    let mut out = String::from("trace summary:\n");
    if !paths.is_empty() {
        out.push_str("  span tree (count, total wall time):\n");
        for (path, t) in &paths {
            let indent = "  ".repeat(path.len() + 1);
            let name = path.last().copied().unwrap_or("?");
            let label = format!("{indent}{name}");
            let _ = writeln!(
                out,
                "{label:<42} {:>5}\u{d7}  {:>12}",
                t.count,
                fmt_us(t.us)
            );
        }
    }
    if !st.counters.is_empty() {
        out.push_str("  counters:\n");
        for (name, value) in &st.counters {
            let label = format!("    {name}");
            let _ = writeln!(out, "{label:<42} {value:>12}");
        }
    }
    if !stats.is_empty() {
        out.push_str("  stats (count / min / mean / max):\n");
        for (name, s) in &stats {
            let label = format!("    {name}");
            let _ = writeln!(
                out,
                "{label:<42} {:>5}\u{d7}  {:.3} / {:.3} / {:.3}",
                s.count,
                s.min,
                s.sum / s.count as f64,
                s.max
            );
        }
    }
    out
}

/// Flushes the active sink. For JSONL, the first call writes the counters
/// and value stats as `counter`/`stat` events followed by a `finish`
/// event; later calls only flush. The recorded values stay in place for
/// [`snapshot`] and [`summary_tree`]. Safe to call repeatedly and in any
/// mode.
pub fn finish() {
    if !enabled() {
        return;
    }
    let mut st = lock_state();
    if st.jsonl.is_some() && !st.tail_written {
        st.tail_written = true;
        let mut tail: Vec<String> = st
            .counters
            .iter()
            .map(|(name, value)| {
                format!(
                    "{{\"ev\":\"counter\",\"name\":\"{}\",\"value\":{value}}}",
                    json::escape(name)
                )
            })
            .collect();
        for (name, s) in st.histogram_snapshots() {
            tail.push(format!(
                "{{\"ev\":\"stat\",\"name\":\"{}\",\"count\":{},\"min\":{},\"max\":{},\"sum\":{}}}",
                json::escape(&name),
                s.count,
                fmt_json_f64(s.min),
                fmt_json_f64(s.max),
                fmt_json_f64(s.sum)
            ));
        }
        tail.push(format!("{{\"ev\":\"finish\",\"t_us\":{:.3}}}", now_us()));
        for line in &tail {
            st.write_line(line);
        }
    }
    if let Some(w) = st.jsonl.as_mut() {
        let _ = w.flush();
    }
}

fn fmt_json_f64(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "0".to_string()
    }
}

/// Validation result of a JSONL trace stream.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct JsonlSummary {
    /// Number of `open` events.
    pub opens: usize,
    /// Number of `close` events (each matched an `open`).
    pub closes: usize,
    /// Number of `instant` events.
    pub instants: usize,
    /// Number of `counter` events.
    pub counters: usize,
    /// Number of `stat` events.
    pub stats: usize,
    /// Distinct span names seen on `open` events, sorted.
    pub span_names: Vec<String>,
    /// Distinct instant-event names seen, sorted.
    pub instant_names: Vec<String>,
}

/// Validates a JSONL trace stream: every line parses as a JSON object
/// with a known `ev` tag and a monotonic `seq` field contiguous from 1
/// (so dropped or reordered lines from concurrent sinks are detected),
/// every `close` refers to a previously opened span id, and no id is
/// opened twice.
pub fn validate_jsonl(content: &str) -> Result<JsonlSummary, String> {
    let mut summary = JsonlSummary::default();
    let mut open_ids: HashMap<u64, ()> = HashMap::new();
    let mut span_names: Vec<String> = Vec::new();
    let mut instant_names: Vec<String> = Vec::new();
    let mut expected_seq: u64 = 1;
    for (lineno, line) in content.lines().enumerate() {
        let line = line.trim();
        if line.is_empty() {
            continue;
        }
        let n = lineno + 1;
        let v = json::parse(line).map_err(|e| format!("line {n}: {e}"))?;
        let seq = v
            .get("seq")
            .and_then(json::JsonValue::as_u64)
            .ok_or_else(|| format!("line {n}: missing or non-integer \"seq\" field"))?;
        if seq != expected_seq {
            return Err(format!(
                "line {n}: expected seq {expected_seq}, got {seq} (dropped or reordered lines)"
            ));
        }
        expected_seq += 1;
        let ev = v
            .get("ev")
            .and_then(json::JsonValue::as_str)
            .ok_or_else(|| format!("line {n}: missing \"ev\" tag"))?;
        match ev {
            "open" => {
                let id = v
                    .get("id")
                    .and_then(json::JsonValue::as_u64)
                    .ok_or_else(|| format!("line {n}: open without integer id"))?;
                let name = v
                    .get("name")
                    .and_then(json::JsonValue::as_str)
                    .ok_or_else(|| format!("line {n}: open without name"))?;
                if open_ids.insert(id, ()).is_some() {
                    return Err(format!("line {n}: span id {id} opened twice"));
                }
                span_names.push(name.to_string());
                summary.opens += 1;
            }
            "close" => {
                let id = v
                    .get("id")
                    .and_then(json::JsonValue::as_u64)
                    .ok_or_else(|| format!("line {n}: close without integer id"))?;
                if open_ids.remove(&id).is_none() {
                    return Err(format!("line {n}: close for span id {id} with no open"));
                }
                summary.closes += 1;
            }
            "instant" => {
                if let Some(name) = v.get("name").and_then(json::JsonValue::as_str) {
                    instant_names.push(name.to_string());
                }
                summary.instants += 1;
            }
            "counter" => summary.counters += 1,
            "stat" => summary.stats += 1,
            "finish" => {}
            other => return Err(format!("line {n}: unknown event tag {other:?}")),
        }
    }
    span_names.sort();
    span_names.dedup();
    instant_names.sort();
    instant_names.dedup();
    summary.span_names = span_names;
    summary.instant_names = instant_names;
    Ok(summary)
}

#[cfg(test)]
mod tests {
    use super::*;

    // The collector is process-global; serialize the tests that touch it.
    fn guard() -> std::sync::MutexGuard<'static, ()> {
        static LOCK: Mutex<()> = Mutex::new(());
        match LOCK.lock() {
            Ok(g) => g,
            Err(p) => p.into_inner(),
        }
    }

    #[test]
    fn off_mode_records_nothing() {
        let _g = guard();
        reset("off").unwrap();
        {
            let mut s = span("should.not.exist");
            s.set_attr("k", "v");
            counter_add("c", 5);
            record_value("r", 1.0);
            instant_event("e", "detail");
        }
        assert!(!enabled());
        assert!(path_totals().is_empty());
        assert_eq!(counter_value("c"), 0);
        assert_eq!(instant_count("e"), 0);
        assert_eq!(summary_tree(), "");
        assert!(phase_totals_since(&mark()).is_empty());
        assert_eq!(snapshot(), Snapshot::default());
    }

    #[test]
    fn spans_nest_and_aggregate() {
        let _g = guard();
        reset("summary").unwrap();
        {
            let _outer = span("outer");
            {
                let _inner = span("inner");
            }
            {
                let _inner = span("inner");
            }
        }
        let paths: Vec<(String, u64)> = path_totals()
            .into_iter()
            .map(|t| (t.name, t.count))
            .collect();
        assert_eq!(
            paths,
            vec![("outer".to_string(), 1), ("outer/inner".to_string(), 2)]
        );
        let tree = summary_tree();
        assert!(tree.contains("outer"), "{tree}");
        assert!(tree.contains("inner"), "{tree}");
        let totals = phase_totals_since(&Mark::default());
        let inner = totals.iter().find(|t| t.name == "inner").unwrap();
        assert_eq!(inner.count, 2);
        reset("off").unwrap();
    }

    #[test]
    fn parent_scope_links_across_threads() {
        let _g = guard();
        reset("summary").unwrap();
        {
            let _outer = span("submit");
            let parent = current_span();
            assert!(parent.is_some());
            std::thread::scope(|s| {
                s.spawn(|| {
                    let _link = parent_scope(parent);
                    let _w = span("worker");
                });
            });
        }
        let paths: Vec<String> = path_totals().into_iter().map(|t| t.name).collect();
        assert_eq!(
            paths,
            vec!["submit".to_string(), "submit/worker".to_string()]
        );
        reset("off").unwrap();
    }

    #[test]
    fn counters_and_stats_accumulate() {
        let _g = guard();
        reset("summary").unwrap();
        counter_add("hits", 2);
        counter_add("hits", 3);
        record_value("sizes", 4.0);
        record_value("sizes", 8.0);
        assert_eq!(counter_value("hits"), 5);
        let tree = summary_tree();
        assert!(tree.contains("hits"), "{tree}");
        assert!(tree.contains("sizes"), "{tree}");
        reset("off").unwrap();
    }

    #[test]
    fn jsonl_round_trips_and_validates() {
        let _g = guard();
        let path = std::env::temp_dir().join("vpec_trace_unit.jsonl");
        let spec = format!("jsonl:{}", path.display());
        reset(&spec).unwrap();
        {
            let mut s = span("alpha");
            s.set_attr("mode", "serial");
            let _inner = span("beta");
            instant_event("tick", "quote \" and \\ backslash");
        }
        counter_add("n", 7);
        record_value("v", 3.5);
        finish();
        reset("off").unwrap();
        let content = std::fs::read_to_string(&path).unwrap();
        let summary = validate_jsonl(&content).unwrap();
        assert_eq!(summary.opens, 2);
        assert_eq!(summary.closes, 2);
        assert_eq!(summary.instants, 1);
        assert_eq!(summary.counters, 1);
        assert_eq!(summary.stats, 1);
        assert_eq!(summary.span_names, vec!["alpha".to_string(), "beta".to_string()]);
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn validator_rejects_malformed_streams() {
        let _g = guard();
        assert!(validate_jsonl("not json\n").is_err());
        assert!(validate_jsonl("{\"seq\":1,\"ev\":\"close\",\"id\":1}\n").is_err());
        assert!(
            validate_jsonl(
                "{\"seq\":1,\"ev\":\"open\",\"id\":1,\"parent\":null,\"name\":\"a\",\"thread\":0,\"t_us\":0}\n\
                 {\"seq\":2,\"ev\":\"open\",\"id\":1,\"parent\":null,\"name\":\"b\",\"thread\":0,\"t_us\":1}\n"
            )
            .is_err()
        );
        assert!(validate_jsonl("{\"seq\":1,\"ev\":\"mystery\"}\n").is_err());
        let good = "{\"seq\":1,\"ev\":\"open\",\"id\":1,\"parent\":null,\"name\":\"a\",\"thread\":0,\"t_us\":0}\n\
                    {\"seq\":2,\"ev\":\"close\",\"id\":1,\"name\":\"a\",\"t_us\":5,\"dur_us\":5}\n\
                    {\"seq\":3,\"ev\":\"finish\",\"t_us\":6}\n";
        assert!(validate_jsonl(good).is_ok());
        // Sequence numbers must be present and contiguous from 1.
        let unnumbered = "{\"ev\":\"open\",\"id\":1,\"parent\":null,\"name\":\"a\",\"thread\":0,\"t_us\":0}\n";
        let err = validate_jsonl(unnumbered).unwrap_err();
        assert!(err.contains("seq"), "{err}");
        let gap = good.replace("\"seq\":3", "\"seq\":9");
        let err = validate_jsonl(&gap).unwrap_err();
        assert!(err.contains("expected seq 3"), "{err}");
    }

    #[test]
    fn mode_specs_parse() {
        let _g = guard();
        assert_eq!(set_mode_spec("off").unwrap(), TraceMode::Off);
        assert_eq!(set_mode_spec("summary").unwrap(), TraceMode::Summary);
        assert_eq!(set_mode_spec("").unwrap(), TraceMode::Off);
        assert!(set_mode_spec("jsonl").is_err());
        // A jsonl spec without a usable path is a parse-time error, so
        // the CLI can reject it before doing any work.
        assert!(parse_mode_spec("jsonl:").is_err());
        assert!(parse_mode_spec("jsonl:   ").is_err());
        assert!(set_mode_spec("banana").is_err());
        assert_eq!(mode(), TraceMode::Off);
        reset("off").unwrap();
    }

    #[test]
    fn span_macro_attaches_attrs() {
        let _g = guard();
        reset("summary").unwrap();
        {
            let _s = span!("macro.span", "dim" => 42, "mode" => "parallel");
        }
        assert_eq!(path_totals().len(), 1);
        reset("off").unwrap();
        let path = std::env::temp_dir().join("vpec_trace_unit_attrs.jsonl");
        reset(&format!("jsonl:{}", path.display())).unwrap();
        {
            let _s = span!("macro.span", "dim" => 42, "mode" => "parallel");
        }
        reset("off").unwrap();
        let content = std::fs::read_to_string(&path).unwrap();
        assert!(
            content.contains("\"attrs\":{\"dim\":\"42\",\"mode\":\"parallel\"}"),
            "{content}"
        );
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn counter_with_tracing_off_reaches_the_registry_snapshot() {
        let _g = guard();
        reset("off").unwrap();
        install();
        assert!(!enabled());
        counter_add("store.only", 4);
        record_value("store.latency_ms", 2.5);
        let snap = snapshot();
        uninstall();
        assert_eq!(snap.counters.get("store.only"), Some(&4));
        assert_eq!(
            snap.histograms.get("store.latency_ms").map(|h| h.count),
            Some(1)
        );
        reset("off").unwrap();
    }

    #[test]
    fn counter_with_registry_off_reaches_the_summary() {
        let _g = guard();
        uninstall();
        reset("summary").unwrap();
        counter_add("store.only", 4);
        let tree = summary_tree();
        assert!(tree.contains("store.only"), "{tree}");
        assert_eq!(snapshot().counters.get("store.only"), Some(&4));
        reset("off").unwrap();
    }

    #[test]
    fn counters_record_once_with_both_bits_set() {
        let _g = guard();
        reset("summary").unwrap();
        install();
        counter_add("both", 3);
        record_value("both.v", 1.0);
        let snap = snapshot();
        uninstall();
        assert_eq!(snap.counters.get("both"), Some(&3));
        assert_eq!(snap.histograms.get("both.v").map(|h| h.count), Some(1));
        reset("off").unwrap();
    }

    #[test]
    fn jsonl_finish_writes_the_tail_once_and_keeps_the_store() {
        let _g = guard();
        let path = std::env::temp_dir().join("vpec_trace_unit_finish.jsonl");
        reset(&format!("jsonl:{}", path.display())).unwrap();
        counter_add("n", 7);
        record_value("v", 3.5);
        finish();
        finish();
        let snap = snapshot();
        reset("off").unwrap();
        assert_eq!(snap.counters.get("n"), Some(&7));
        assert_eq!(snap.histograms.get("v").map(|h| h.count), Some(1));
        let content = std::fs::read_to_string(&path).unwrap();
        let summary = validate_jsonl(&content).unwrap();
        assert_eq!(summary.counters, 1);
        assert_eq!(summary.stats, 1);
        assert_eq!(content.matches("\"ev\":\"finish\"").count(), 1);
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn many_spans_on_one_path_stay_one_node() {
        let _g = guard();
        reset("summary").unwrap();
        let before = mark();
        for _ in 0..100_000 {
            let _s = span("hot");
        }
        let paths = path_totals();
        assert_eq!(paths.len(), 1);
        assert_eq!((paths[0].name.as_str(), paths[0].count), ("hot", 100_000));
        assert_eq!(lock_state().nodes.len(), 1);
        let since = phase_totals_since(&before);
        assert_eq!(since.len(), 1);
        assert_eq!(since[0].count, 100_000);
        reset("off").unwrap();
    }

    #[test]
    fn marks_subtract_per_name_totals() {
        let _g = guard();
        reset("summary").unwrap();
        {
            let _a = span("a");
        }
        let m = mark();
        {
            let _a = span("a");
            let _b = span("b");
        }
        let since = phase_totals_since(&m);
        let counts: BTreeMap<&str, u64> =
            since.iter().map(|t| (t.name.as_str(), t.count)).collect();
        assert_eq!(counts, BTreeMap::from([("a", 1), ("b", 1)]));
        // A mark from before a reset counts nothing against the new run.
        reset("summary").unwrap();
        {
            let _a = span("a");
        }
        assert_eq!(phase_totals_since(&m)[0].count, 1);
        reset("off").unwrap();
    }

    #[test]
    fn spans_open_across_a_reset_are_dropped() {
        let _g = guard();
        reset("summary").unwrap();
        let stale = span("stale");
        reset("summary").unwrap();
        drop(stale);
        {
            let _fresh = span("fresh");
        }
        let paths: Vec<String> = path_totals().into_iter().map(|t| t.name).collect();
        assert_eq!(paths, vec!["fresh".to_string()]);
        reset("off").unwrap();
    }
}
