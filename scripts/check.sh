#!/usr/bin/env bash
# Offline CI gate: build, test, lint. No network access required — the
# workspace has no external dependencies.
#
# Usage: scripts/check.sh
set -euo pipefail
cd "$(dirname "$0")/.."

export CARGO_NET_OFFLINE=true

echo "==> cargo build --release (workspace, all targets)"
cargo build --release --workspace --all-targets

echo "==> cargo test -q (workspace, VPEC_AUDIT=full)"
# Debug tests default to full auditing anyway; pinning it here keeps the
# gate meaningful even when the caller exported VPEC_AUDIT=off.
# Hard timeouts: a hung watchdog/cancellation test must fail the gate,
# not wedge CI forever. The engine tests park threads on purpose; a
# deadlock there looks exactly like "still running" without this.
timeout 1200 env VPEC_AUDIT=full cargo test -q --workspace

echo "==> release-profile audit pass (tier-1 integration tests, VPEC_AUDIT=full)"
# Release builds default to audits OFF; this run covers the enforcement
# paths in the exact profile users deploy.
timeout 600 env VPEC_AUDIT=full cargo test -q --release --test audit_invariants --test paper_claims

echo "==> benchmark package smoke (perfbench builds and passes at toy size)"
# perfbench/ is a package of its own that builds against the crates'
# public API; an API change that breaks it must fail here, not in the
# benchmark pipeline. Its tests run every workload at toy size.
timeout 900 cargo test -q --release --offline --manifest-path perfbench/Cargo.toml

echo "==> cargo clippy (workspace, all targets, -D warnings)"
cargo clippy --workspace --all-targets -- -D warnings

echo "==> static analysis gate (vpec-analyze vs lint.baseline)"
# Project-specific lints (NaN ordering, panic freedom, unsafe audit,
# numerical-class contracts, env-var registry) over the workspace's own
# sources. "No new violations": anything not in the committed baseline or
# covered by an inline `// vpec-allow:` waiver fails the gate. The scan is
# a single lex+lint pass (~40 ms); the timeout is a hang backstop, not a
# budget.
timeout 120 cargo run --release -q -p vpec-analyze --bin vpec-analyze -- \
  --root . --baseline lint.baseline

echo "==> perf bench smoke run (--quick, smallest layout)"
smoke_json="target/bench_perf_smoke.json"
cargo run --release -q -p vpec-bench --bin perf -- --quick --out "$smoke_json"
# The smoke JSON must carry the tracked schema: header keys plus at
# least one timed phase with its equivalence metric.
for key in '"bench": "perf"' '"available_parallelism"' '"phases"' \
           '"serial_seconds"' '"parallel_seconds"' '"speedup"' '"max_abs_diff"' \
           '"lint"' '"wall_seconds"' '"files_scanned"' '"lines_scanned"' \
           '"service_levels"' '"p50_ms"' '"p99_ms"' '"model_hit_ratio"' \
           '"factor_hit_ratio"' '"degraded_pct"'; do
  if ! grep -q "$key" "$smoke_json"; then
    echo "BENCH_perf smoke output is malformed: missing $key" >&2
    exit 1
  fi
done

echo "==> batch engine smoke run (vpec batch, request isolation + degradation + ledger)"
batch_in="target/batch_smoke_in.jsonl"
batch_out="target/batch_smoke_out.jsonl"
batch_err="target/batch_smoke_err.txt"
batch_ledger="target/batch_smoke_ledger.jsonl"
# Six-request mix: two healthy (same geometry — the second must be a
# cache hit), one over-budget full-inversion request (must degrade to
# wVPEC), one fault-injected panic (must consume one retry and fail with
# a typed error), one healthy windowed request, one AC sweep. The batch
# as a whole must exit 0 and leave one schema-valid ledger record per
# request behind.
cat > "$batch_in" <<'EOF'
{"id":"ok-1","bits":3,"kind":"wvpec-g:2","t_stop":5e-11}
{"id":"ok-2","bits":3,"kind":"wvpec-g:2","t_stop":5e-11}
{"id":"over-budget","bits":8,"kind":"vpec-full","t_stop":5e-11}
{"id":"boom","bits":3,"kind":"wvpec-g:2","t_stop":5e-11,"faults":{"panic_engine":true}}
{"id":"ok-3","bits":4,"kind":"wvpec-g:2","t_stop":5e-11}
{"id":"ac-1","bits":3,"kind":"wvpec-g:2","analysis":"ac","points_per_decade":2}
EOF
# With -o the summary goes to stdout (stderr carries the injected panic's
# backtrace); capture both so the summary assertion below sees it.
timeout 120 cargo run --release -q -p vpec-cli --bin vpec -- \
  batch --in "$batch_in" --max-dim 6 --retries 1 --backoff-ms 1 --degrade-window 2 \
  --ledger "$batch_ledger" -o "$batch_out" > "$batch_err" 2>&1
grep "^batch:" "$batch_err" || true
[ "$(wc -l < "$batch_out")" -eq 6 ] || { echo "batch smoke: expected 6 response lines" >&2; exit 1; }
# Every line is valid JSON with the response schema (the trace bin's
# validator is for trace streams, so lean on python-free grep checks).
while IFS= read -r line; do
  case "$line" in
    '{"id":"'*'","status":"'*) ;;
    *) echo "batch smoke: malformed response line: $line" >&2; exit 1 ;;
  esac
done < "$batch_out"
grep -q '"id":"ok-1","status":"ok"' "$batch_out" || { echo "batch smoke: ok-1 must succeed" >&2; exit 1; }
grep -q '"id":"ok-2","status":"ok".*"cache_hit":true' "$batch_out" \
  || { echo "batch smoke: ok-2 must be a cache hit" >&2; exit 1; }
grep -q '"id":"over-budget","status":"ok".*"degraded":true.*"degraded_reason":"budget"' "$batch_out" \
  || { echo "batch smoke: over-budget must degrade to wVPEC" >&2; exit 1; }
grep -q '"id":"boom","status":"failed".*"category":"panic"' "$batch_out" \
  || { echo "batch smoke: boom must fail with a typed panic error" >&2; exit 1; }
grep -q '"id":"ok-3","status":"ok"' "$batch_out" || { echo "batch smoke: ok-3 must succeed" >&2; exit 1; }
grep -q '"id":"ac-1","status":"ok"' "$batch_out" || { echo "batch smoke: ac-1 must succeed" >&2; exit 1; }
# The summary must count the retry the panic consumed.
grep -q '1 retries' "$batch_err" || { echo "batch smoke: summary must report 1 retry" >&2; exit 1; }
# One run-ledger record per request, contiguous seq (vpec stats validates
# the schema before aggregating — a dropped or reordered line fails it).
[ "$(wc -l < "$batch_ledger")" -eq 6 ] || { echo "batch smoke: expected 6 ledger records" >&2; exit 1; }

echo "==> fleet stats smoke run (vpec stats over the batch ledger, --fail-if gates)"
stats_json="target/batch_smoke_stats.json"
timeout 120 cargo run --release -q -p vpec-cli --bin vpec -- \
  stats "$batch_ledger" --format json > "$stats_json"
# The known batch composition must survive the ledger round trip.
for key in '"total":6' '"ok":5' '"failed":1' '"degraded":1' '"retries":1' \
           '"latency_ms"' '"p99_ms"' '"cache"' '"strategies"' \
           '"degraded_reasons":{"budget":1}' '"errors":{"panic":1}' '"throughput"'; do
  if ! grep -q "$key" "$stats_json"; then
    echo "vpec stats output is malformed: missing $key" >&2
    cat "$stats_json" >&2
    exit 1
  fi
done
# A generous threshold passes (exit 0)...
timeout 120 cargo run --release -q -p vpec-cli --bin vpec -- \
  stats "$batch_ledger" --fail-if 'p99>60s' > /dev/null
# ...and a breached one fails with the runtime exit code (1, not a crash).
set +e
timeout 120 cargo run --release -q -p vpec-cli --bin vpec -- \
  stats "$batch_ledger" --fail-if 'degraded>0%' > /dev/null 2> target/batch_smoke_failif.txt
failif_rc=$?
set -e
[ "$failif_rc" -eq 1 ] || { echo "vpec stats --fail-if must exit 1 on a breach (got $failif_rc)" >&2; exit 1; }
grep -q 'fail-if breached' target/batch_smoke_failif.txt \
  || { echo "vpec stats --fail-if breach must name the breached condition" >&2; exit 1; }

echo "==> large-bus smoke run (100 000-bit gwVPEC transient without the dense L)"
# The windowed kinds read window entries of the partial inductance only;
# the dense L of this bus alone would be 80 GB. A 4 GiB address-space cap
# turns any accidental O(N^2) allocation into a failure, and the timeout
# catches an accidental O(N^2) loop. One worker keeps the address space
# independent of the host's core count (each thread reserves its own
# stack and allocator arena).
big_out="target/big_bus_smoke.txt"
( ulimit -v 4194304
  env VPEC_THREADS=1 timeout 300 ./target/release/vpec simulate --bits 100000 \
    --kind wvpec-g:8 --tstop 20p --dt 1p --probe 1,2 > "$big_out" )
for net in 1 2; do
  grep -q "^net $net: far-end peak" "$big_out" \
    || { echo "large-bus smoke: no peak reported for net $net" >&2; cat "$big_out" >&2; exit 1; }
done

echo "==> fill-ordering smoke (Table II full VPEC factors under AMD)"
# Each sparse MNA factor is ordered by approximate minimum degree. Full
# VPEC's transient matrix on the 32x8 bus has 337 k LU nonzeros under a
# bandwidth (RCM) order and ~93 k under AMD, and the count is
# deterministic; a fill regression would otherwise show only as a slower
# benchmark.
fill_out="target/fill_smoke.txt"
timeout 120 ./target/release/vpec simulate --bits 32 --segments 8 --kind vpec-full \
  --tstop 20p --dt 1p --probe 16 > "$fill_out"
factor_line=$(grep '^factor:' "$fill_out") \
  || { echo "fill smoke: no factor: line" >&2; cat "$fill_out" >&2; exit 1; }
echo "$factor_line"
echo "$factor_line" | grep -q 'ordering amd' \
  || { echo "fill smoke: full VPEC must be ordered by AMD" >&2; exit 1; }
fill_nnz=$(echo "$factor_line" | sed -n 's/.*factor_nnz \([0-9]*\).*/\1/p')
[ -n "$fill_nnz" ] && [ "$fill_nnz" -le 120000 ] \
  || { echo "fill smoke: factor_nnz ${fill_nnz:-?} above the 120000 ceiling" >&2; exit 1; }

echo "==> traced serve stream smoke (40 000 repeated requests, --trace=summary)"
# The tracer aggregates spans as they close, so a long traced stream must
# run in time linear in its length and in memory bounded by the number of
# distinct span paths. 40 000 cached requests take ~1 s with tracing off;
# a tracer that retains every span, or re-scans them per request, blows
# through the timeout and the 64 MiB address-space cap.
serve_in="target/serve_trace_in.jsonl"
serve_out="target/serve_trace_out.txt"
awk 'BEGIN { for (i = 0; i < 40000; i++) print "{\"bits\":4,\"kind\":\"wvpec-g:2\",\"t_stop\":5e-11}" }' \
  > "$serve_in"
( ulimit -v 65536
  env VPEC_THREADS=1 timeout 20 ./target/release/vpec serve --trace=summary \
    < "$serve_in" > "$serve_out" 2> /dev/null )
[ "$(grep -c '"status":"ok"' "$serve_out")" -eq 40000 ] \
  || { echo "traced serve smoke: expected 40000 ok responses" >&2; exit 1; }
grep -q '^    engine.request ' "$serve_out" \
  || { echo "traced serve smoke: summary lacks the engine.request span" >&2; exit 1; }

echo "==> trace JSONL smoke run (model --trace=jsonl, schema validation)"
trace_jsonl="target/trace_smoke.jsonl"
cargo run --release -q -p vpec-cli --bin vpec -- \
  model --bits 8 --kind vpec-full --trace=jsonl:"$trace_jsonl" > /dev/null
# Schema check with the crate's own validator: every line parses, every
# close matches an open, no id opens twice. Exit 1 on any violation.
cargo run --release -q -p vpec-bench --bin trace -- --validate "$trace_jsonl"
for phase in extract model.invert model.build; do
  if ! grep -q "\"name\":\"$phase\"" "$trace_jsonl"; then
    echo "trace stream is missing the $phase phase span" >&2
    exit 1
  fi
done

echo "==> trace bench smoke run (--quick, serial-vs-parallel attribution)"
trace_json="target/bench_trace_smoke.json"
# The bin itself exits 1 if any required phase span (extract,
# model.invert, factor, transient, ac.sweep) is missing from the run.
cargo run --release -q -p vpec-bench --bin trace -- --quick --out "$trace_json"
for key in '"bench": "trace"' '"phases"' '"serial_seconds"' \
           '"parallel_seconds"' '"speedup"'; do
  if ! grep -q "$key" "$trace_json"; then
    echo "BENCH_trace smoke output is malformed: missing $key" >&2
    exit 1
  fi
done

echo "==> trace-off overhead assertion (quick perf vs tracked BENCH_perf.json)"
# The perf smoke above ran with tracing off (the default), so its small
# layout must not be grossly slower than the tracked baseline: the
# disabled trace path is one relaxed atomic load per site, and a
# regression there (e.g. formatting on the disabled path of a hot
# counter) shows up as a multiple, not a percentage. The 3x tolerance
# absorbs machine noise while still catching that class of bug.
if [ -f BENCH_perf.json ]; then
  baseline=$(awk '/"name": "small"/{s=1;next} s&&/"name": "/{exit} s&&/"serial_seconds"/{gsub(/[,]/,"");t+=$2} END{printf "%.9e", t}' BENCH_perf.json)
  current=$(awk '/"name": "small"/{s=1;next} s&&/"name": "/{exit} s&&/"serial_seconds"/{gsub(/[,]/,"");t+=$2} END{printf "%.9e", t}' "$smoke_json")
  awk -v b="$baseline" -v c="$current" 'BEGIN {
    if (b <= 0) { print "no small-layout baseline in BENCH_perf.json; skipping"; exit 0 }
    ratio = c / b
    printf "small layout serial total: baseline %.3e s, current %.3e s (ratio %.2f)\n", b, c, ratio
    if (ratio > 3.0) { print "trace-off overhead regression: quick perf is >3x the tracked baseline" > "/dev/stderr"; exit 1 }
  }'
else
  echo "BENCH_perf.json not tracked yet; skipping overhead comparison"
fi

echo "==> per-phase perf regression gate (quick perf vs tracked BENCH_perf.json)"
# Each small-layout phase's serial time must stay within 10% of the
# tracked baseline. Phases under a 1 ms noise floor are reported but not
# gated (µs-scale timings jitter far beyond 10% between runs). Speedup
# columns are never gated here: rows carry hw_limited=true whenever the
# machine granted fewer workers than requested, and serial times are the
# only hardware-independent signal.
if [ -f BENCH_perf.json ]; then
  awk '
    function phase_of(l) { sub(/.*"phase": "/, "", l); sub(/".*/, "", l); return l }
    FNR == 1 { f++ }
    /"name": "small"/ { s = 1; next }
    s && /"name": "/ { s = 0 }
    s && /"phase"/ { p = phase_of($0) }
    s && /"serial_seconds"/ {
      line = $0; gsub(/[, ]/, "", line); sub(/.*:/, "", line)
      v[f "/" p] = line + 0
      if (f == 1) order[++n] = p
    }
    END {
      bad = 0
      for (i = 1; i <= n; i++) {
        p = order[i]; b = v["1/" p]; c = v["2/" p]
        if (b == "" || c == "") { printf "phase %-14s missing in one file; skipping\n", p; continue }
        if (b < 1e-3) { printf "phase %-14s baseline %.3e s under the 1 ms gate floor; reported only (current %.3e s)\n", p, b, c; continue }
        ratio = c / b
        printf "phase %-14s baseline %.3e s, current %.3e s (ratio %.2f)\n", p, b, c, ratio
        if (ratio > 1.10) {
          printf "perf regression: small-layout phase %s is >10%% slower than the tracked baseline\n", p > "/dev/stderr"
          bad = 1
        }
      }
      exit bad
    }' BENCH_perf.json "$smoke_json"
else
  echo "BENCH_perf.json not tracked yet; skipping per-phase gate"
fi

echo "==> all checks passed"
