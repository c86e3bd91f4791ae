//! Service-level observability for the VPEC engine — **vpec-metrics**.
//!
//! The counters and latency histograms themselves live in the one
//! telemetry store of [`vpec_trace`] (turned on by
//! [`vpec_trace::install`], read by [`vpec_trace::snapshot`]). This crate
//! turns that store and the engine's per-request records into files:
//!
//! * [`ledger`] — the run ledger: one schema-validated JSONL record per
//!   engine request (outcome, error class, retries, degradation, cache
//!   levels, solver strategy, phase times, factor bytes), plus periodic
//!   in-stream snapshot records for long-running streams.
//! * [`exposition`] — Prometheus-style text rendering of a
//!   [`vpec_trace::Snapshot`], written atomically (`write → rename`) for
//!   scrapers.
//! * [`stats`] — offline aggregation of one or more ledgers into a
//!   fleet report (exact latency percentiles per kind and outcome,
//!   cache hit ratios per level, strategy/degradation/error
//!   breakdowns, throughput buckets) with `--fail-if` CI thresholds.
//!
//! Zero-dependency: the workspace's own `vpec-trace` is the only import.
//! See DESIGN.md §10 for the telemetry store and §15 for the full ledger
//! schema and the aggregation semantics.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod exposition;
pub mod ledger;
pub mod stats;

pub use exposition::{render, write_atomic};
pub use ledger::{now_ms, parse_ledger, parse_line, Ledger, LedgerRecord, RunRecord};
pub use stats::{
    aggregate, parse_fail_if, percentile, CacheLevelStats, FailCondition, FailMetric,
    LatencySummary, LedgerStats,
};
