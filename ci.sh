#!/usr/bin/env bash
# Offline CI gate: everything here runs with no network access.
# Usage: ./ci.sh
set -euo pipefail
cd "$(dirname "$0")"

echo "==> cargo build --release"
cargo build --release --workspace

# Global per-invocation timeout: a hung test run must become a CI
# failure, not a wedged pipeline. Uses coreutils timeout when present.
with_timeout() {
    if command -v timeout >/dev/null 2>&1; then
        timeout --signal=KILL "$1" "${@:2}"
    else
        "${@:2}"
    fi
}

echo "==> cargo test -q"
with_timeout 1800 cargo test -q --workspace

echo "==> chaos stress gate (formerly-quarantined skiplist workloads)"
# The two historically flaky concurrent skiplist tests (DL and BDL mixed
# ops), now un-quarantined (DESIGN.md §5.3), run 200 iterations under seeded
# deterministic-interleaving schedules (htm_sim::chaos). Split into four
# 50-iteration processes: thread ids are dense process-lifetime values
# with a budget of 1024, and every iteration spawns a fresh worker set.
# A failure prints the seed and the recorded schedule tail; replay with
#   ./target/release/chaos_stress --iters 1 --seed-base <seed>
for base in 0xC4A05EED 0xC4A05F1F 0xC4A05F51 0xC4A05F83; do
    with_timeout 900 ./target/release/chaos_stress \
        --iters 50 --seed-base "$base" --watchdog-secs 120
done

echo "==> cargo fmt --check"
cargo fmt --all -- --check

echo "==> cargo clippy -D warnings"
cargo clippy --workspace --all-targets -- -D warnings

echo "==> cargo doc (warnings denied)"
RUSTDOCFLAGS="-D warnings" cargo doc --workspace --no-deps -q

echo "==> examples build and run"
for ex in quickstart kv_store ordered_index crash_recovery; do
    echo "--- example: $ex"
    cargo run --release -q --example "$ex"
done

echo "==> metrics smoke (quickstart --metrics-json + validation)"
cargo run --release -q --example quickstart -- --metrics-json target/metrics-smoke.json
./target/release/metrics_check target/metrics-smoke.json

echo "==> durability-lag telemetry smoke (series + trace on a pipelined run)"
# A short pipelined fig7 run streaming the metrics time series and the
# Perfetto trace; metrics_check validates all three artifacts (report
# invariants incl. lag quantiles, dense/monotone series, non-negative
# and non-overlapping op spans per track, balanced trace flow arrows).
# The report must carry nonzero durability-lag samples and the trace
# nonzero lag arrows: pipelined mode always defers durability behind
# commit, and --trace-out sizes the flight recorder to cover the run.
BDHTM_SECS=0.25 BDHTM_SCALE=12 BDHTM_THREADS=2 \
    ./target/release/fig7_epoch_length --pipeline=bg \
    --metrics-json target/lag-smoke.json \
    --metrics-series target/lag-smoke.jsonl --series-interval-ms 20 \
    --trace-out target/lag-smoke-trace.json >/dev/null
./target/release/metrics_check target/lag-smoke.json
./target/release/metrics_check --series target/lag-smoke.jsonl
trace_summary=$(./target/release/metrics_check --trace target/lag-smoke-trace.json)
echo "$trace_summary"
lag_count=$(grep -o '"durability_lag_ns":{"unit":"ns","count":[0-9]*' \
    target/lag-smoke.json | grep -o '[0-9]*$')
[ "${lag_count:-0}" -gt 0 ] || {
    echo "pipelined run recorded no durability-lag spans"; exit 1; }
arrows=$(echo "$trace_summary" | grep -o '[0-9]* lag arrows' | grep -o '^[0-9]*' || true)
[ "${arrows:-0}" -gt 0 ] || {
    echo "pipelined run's trace holds no durability-lag arrows"; exit 1; }
echo "durability-lag smoke OK (${lag_count} spans, ${arrows} trace arrows)"

echo "==> println! hygiene (library code logs via metrics/trace, not stdout)"
# Benches and examples print; library crates must not (stderr via
# eprintln! is fine — it does not corrupt machine-readable stdout).
# bin/, tests, and in-file #[cfg(test)] modules are exempt.
# The filter greps legitimately match nothing when every println! is
# in bin/; `|| true` keeps that from tripping pipefail + set -e.
stray=$(grep -rnE '(^|[^e])println!' crates/*/src --include='*.rs' \
    | { grep -vE '/bin/|/tests/' || true; } \
    | while IFS=: read -r file line _; do
        # exempt matches inside the file's trailing test module
        testline=$(grep -n '#\[cfg(test)\]' "$file" | head -1 | cut -d: -f1)
        if [ -z "$testline" ] || [ "$line" -lt "$testline" ]; then
            echo "$file:$line"
        fi
    done)
if [ -n "$stray" ]; then
    echo "stray println! in library code:"; echo "$stray"; exit 1
fi

echo "==> fault sweep digest (behavior-preservation pin)"
# Expected values live in one place: fault::digest::PINNED_SWEEP_DIGEST
# (synchronous plain/torn sweeps) and PINNED_PIPELINED_DIGEST (the
# hand-driven pipelined and pipelined-torn sweeps); --check fails on either.
FAULT_SEED=0xBD15EED ./target/release/fault_sweep --digest --check

echo "==> fault sweep smoke (pinned FAULT_SEED, incl. pipelined modes)"
with_timeout 600 env FAULT_SEED=0xBD15EED ./target/release/fault_sweep --ops 160 --replays 40

echo "==> runtime fault gate (device faults: retry/degrade/fail-stop)"
# The live-system counterpart of the crash sweeps (DESIGN.md §5.2):
# seeded transient device-fault schedules across all three structure
# families, over a small pinned seed set.
for seed in 0xBD15EED 0xD15EA5E 0xBD15EE0; do
    with_timeout 600 env FAULT_SEED=$seed ./target/release/fault_sweep --modes runtime
done

echo "==> persist-pipeline perf gate (fig7 sync vs pipelined)"
# Gate-mode fig7 runs in both persistence modes: each drives exactly 40
# epoch advances, so the two advance_ns histograms have identical sample
# counts (metrics_check rejects the comparison otherwise) and the p99s
# are computed over the same population. The pipelined p99 must beat the
# synchronous one and write amplification must not regress (intake-time
# dedup). Timing gate: retried once before failing.
run_fig7_compare() {
    BDHTM_SCALE=12 \
        ./target/release/fig7_epoch_length --pipeline=sync --gate-advances 40 \
        --metrics-json target/fig7-sync.json >/dev/null
    BDHTM_SCALE=12 \
        ./target/release/fig7_epoch_length --pipeline=bg --gate-advances 40 \
        --metrics-json target/fig7-bg.json >/dev/null
    ./target/release/metrics_check --compare-pipeline \
        target/fig7-sync.json target/fig7-bg.json --out BENCH_pipeline.json
}
run_fig7_compare || { echo "retrying pipeline perf gate once"; run_fig7_compare; }
echo "pipeline comparison written to BENCH_pipeline.json"

echo "==> persister-pool perf gate (persist_pool)"
# Sharded write-back (DESIGN.md §3.4.4): fanning one sealed batch's
# flush plan across 4 pool workers must beat the serial persister by
# >= 1.3x under simulated per-line NVM latency. Both legs run through
# the identical public Persister::spawn path; only the pool width
# differs. Timing gate: retried once before failing.
run_pool_compare() {
    ./target/release/persist_pool --workers 4 \
        --min-ratio 1.3 --metrics-json BENCH_persist_pool.json
}
run_pool_compare || { echo "retrying persister-pool perf gate once"; run_pool_compare; }
echo "persister-pool comparison written to BENCH_persist_pool.json"

echo "==> sharded-accounting perf gate (epoch_contention)"
# Hot-path smoke for the esys/ decomposition (DESIGN.md §3.4.3): the
# sharded begin/track/end path must beat a faithful emulation of the
# pre-refactor per-op costs (3x thread-state mutex + global fetch_add)
# by >= 1.3x at 8 threads. Measured ~2x on the CI container; retried
# once because it is a timing gate.
run_shard_compare() {
    ./target/release/epoch_contention --threads 8 --secs 0.3 \
        --min-ratio 1.3 --metrics-json BENCH_shard.json
}
run_shard_compare || { echo "retrying shard perf gate once"; run_shard_compare; }
echo "shard comparison written to BENCH_shard.json"

echo "==> ci.sh: all gates passed"
