#!/usr/bin/env bash
# Local CI: build, test, lint, trace, perf gate. Run from the repository
# root. Kept artifacts (gitignored, archive from CI if wanted):
#   RUNREPORT.json      per-experiment cost/latency/quality telemetry
#   RUNLOG.jsonl        headered deterministic event stream of the suite
#   LINT.json           workspace static-analysis findings
#   BENCH_truth.json    current per-algorithm ns/iter snapshot
#   BENCH_scale.json    macrobench snapshot (sparse vs dense EM, peak RSS)
#   BENCH_HISTORY.jsonl rolling bench history (regression-gate baseline)
# PERFBENCH.txt holds one benchmark workload's output while it is checked
# and is removed afterwards.
set -euo pipefail

cargo build --release --workspace
cargo test -q --workspace

# End-to-end benchmark correctness gate. --locked fails if a crate
# dependency change would rewrite perfbench/Cargo.lock. Each workload runs
# one untimed pass (--seconds 0) and must reproduce perfbench/expected.tsv:
# the last line says "correct":true and no CHECK FAILED line is printed.
# Output goes through a file, not a pipe, so an early grep exit cannot
# SIGPIPE the benchmark.
cargo build --release --offline --locked --manifest-path perfbench/Cargo.toml
for w in label adaptive query; do
  if ! cargo run --release --offline --locked --quiet --manifest-path perfbench/Cargo.toml -- \
      --workload "$w" --seed 0 --seconds 0 --trace 0 > PERFBENCH.txt 2>&1 \
    || ! grep -q '"correct":true' PERFBENCH.txt || grep -q 'CHECK FAILED' PERFBENCH.txt; then
    cat PERFBENCH.txt
    echo "perfbench $w: outcome does not match perfbench/expected.tsv"
    exit 1
  fi
  echo "perfbench $w: correct"
done
# The greedy assignment policies pick from a ranking they update from the
# state's change log rather than rescanning; every recorded adaptive seed
# (0..63, 8 variants each) must still reproduce its expected.tsv line.
cargo run --release --offline --locked --quiet --manifest-path perfbench/Cargo.toml -- \
    --workload adaptive --record 0..63 > PERFBENCH.txt
if ! diff <(awk -F'\t' '$1 == "adaptive"' perfbench/expected.tsv) PERFBENCH.txt; then
  echo "perfbench adaptive --record 0..63: differs from perfbench/expected.tsv"
  exit 1
fi
echo "perfbench adaptive: all 64 recorded seeds match"
rm -f PERFBENCH.txt

cargo clippy --workspace --all-targets -- -D warnings

# Workspace static analysis: per-file determinism & safety rules (DET/
# PANIC/SAFETY/DOC) plus the interprocedural passes (taint chains, CONC
# lock rules) behind the ratcheted baseline. Exits nonzero on any NEW
# finding, any stale baseline entry, or any stale suppression; LINT.json
# is the machine-readable report. The scan doubles as the linter's
# self-benchmark: a full-workspace symbol-table + call-graph + taint +
# lock-model pass must stay under 10 seconds.
LINT_T0=$(date +%s%N)
cargo run --release -p crowdkit-lint -- --json LINT.json --baseline LINT_BASELINE.json --audit-suppressions > /dev/null
LINT_T1=$(date +%s%N)
LINT_MS=$(( (LINT_T1 - LINT_T0) / 1000000 ))
echo "crowdkit-lint full-workspace scan: ${LINT_MS} ms"
test "$LINT_MS" -lt 10000 || { echo "lint self-benchmark: scan took ${LINT_MS} ms (>= 10s gate)"; exit 1; }

# Burn-down ratchet: the acknowledged-debt counter may only decrease.
# LINT.json records the baselined count of this scan; the committed
# baseline's burn_down must equal it (no silent re-growth), and both must
# agree with the entry list (validated again here, independent of the
# tool).
python3 - <<'EOF'
import json
lint = json.load(open("LINT.json"))
base = json.load(open("LINT_BASELINE.json"))
assert base["burn_down"] == len(base["entries"]), \
    f"burn_down {base['burn_down']} != {len(base['entries'])} entries"
assert lint["baselined"] == base["burn_down"], \
    f"scan matched {lint['baselined']} baselined finding(s) but burn_down says {base['burn_down']}"
for e in base["entries"]:
    assert len(e.get("reason", "").strip()) >= 3, f"baseline entry {e['fingerprint']} has no reason"
print(f"lint burn-down: {base['burn_down']} acknowledged finding(s), all matched and reasoned")
EOF

RUSTDOCFLAGS="-D warnings" cargo doc --workspace --no-deps --quiet

# Optimizer ablation gate: run E10 instrumented and assert the optimized
# plans' actual crowd spend beats the naive plans' by a fixed margin
# (mean over the fixture queries, optimized × 1.2 ≤ naive).
cargo run --release -p crowdkit-bench --bin experiments -- e10 --report > /dev/null
python3 - <<'EOF'
import json
r = json.load(open("RUNREPORT.json"))
q = next(x for x in r["runs"] if x["id"] == "e10")["quality"]
naive, opt = q["spend_actual_naive"], q["spend_actual_opt"]
assert opt * 1.2 <= naive, f"optimizer margin gate: optimized {opt} * 1.2 > naive {naive}"
assert q["spend_pred_naive"] > 0 and q["spend_pred_opt"] > 0, "predictions missing from RUNREPORT"
print(f"e10 optimizer gate: optimized {opt:.0f} vs naive {naive:.0f} actual spend — ok")
EOF

# Full experiment suite with telemetry: RUNREPORT.json + the headered
# deterministic event log, then replay and metrics-rollup smoke-checks
# over that log (`top` must find and render the suite's metrics.snapshot
# telemetry).
cargo run --release -p crowdkit-bench --bin experiments -- all --report --log RUNLOG.jsonl > /dev/null
cargo run --release -p crowdkit-trace --bin crowdtrace -- replay RUNLOG.jsonl > /dev/null
cargo run --release -p crowdkit-trace --bin crowdtrace -- top RUNLOG.jsonl | grep -q 'platform.tasks_answered'

# Decision-provenance smoke-check: the suite log must explain a known
# task end to end (votes, margin, worker weights, flip timeline) and the
# audit rollup must surface contested tasks, worker influence and
# spend-per-correct-label. Output goes through files, not pipes — the
# CLI streams with print! and an early-exiting grep would SIGPIPE it.
cargo run --release -p crowdkit-trace --bin crowdtrace -- why 7 RUNLOG.jsonl --exp e13 --algo ds > WHY.txt
grep -q 'margin' WHY.txt
grep -q 'votes:' WHY.txt
grep -q 'weight' WHY.txt
grep -q 'flips:' WHY.txt
cargo run --release -p crowdkit-trace --bin crowdtrace -- audit RUNLOG.jsonl > AUDIT.txt
grep -q 'contested tasks' AUDIT.txt
grep -q 'most influential workers' AUDIT.txt
grep -q 'spend/correct' AUDIT.txt
rm -f WHY.txt AUDIT.txt

# Telemetry overhead gate: at one kernel thread, the median of 60
# interleaved on/off pair ratios must stay under 5% for obs events
# (a MemoryRecorder vs the default scope), under 3% for metrics (a
# registry vs none) and under 5% for decision provenance (the provenance
# bit on vs off under one recorder). Asserted inside the bench binary.
cargo bench -p crowdkit-bench --bench telemetry_overhead

# Machine-readable truth-inference timings (per-algorithm ns/iter); each
# run also appends one line to BENCH_HISTORY.jsonl.
cargo run --release -p crowdkit-bench --bin bench_truth -- BENCH_truth.json BENCH_HISTORY.jsonl

# Perf-regression gate: current ns/iter vs the rolling median of the last
# 5 same-bench same-thread-count history entries; >25% slower on any
# algorithm fails.
cargo run --release -p crowdkit-trace --bin crowdtrace -- regress --history BENCH_HISTORY.jsonl --current BENCH_truth.json

# Million-scale macrobench, smoke tier (10k tasks / 1k workers / 100k
# responses): times the sparse incremental EM kernels against their dense
# baselines (ds/zc/glad plus *_dense, kos) and records peak RSS; appends a
# bench:"scale" history line, then gates it like the truth numbers.
cargo run --release -p crowdkit-bench --bin bench_scale -- smoke
cargo run --release -p crowdkit-trace --bin crowdtrace -- regress --history BENCH_HISTORY.jsonl --current BENCH_scale.json
