#!/usr/bin/env bash
# Runs the perf benchmark suite in quick mode and distils the medians into
# target/bench/perf_medians.json (a build output, rewritten every run):
#
#   { "<bench id>": { "samples": N, "min_ns": ..., "median_ns": ..., "mean_ns": ... }, ... }
#
# then applies the perf gates:
#   * regression guard — any bench name shared with the frozen BENCH_PR3.json
#     may not be >25% slower (trials_parallel_speedup/* excluded: its
#     workload changed from a 3x5 grid to 2x100 in PR 6);
#   * incremental guard — incremental_fail_restore must beat PR 3's frozen
#     snapshot_fail_restore median by >= 5x;
#   * pool guard — collect_trials must beat the sequential PR 3 reference
#     by >= 2x at 2 placements x 100 failures;
#   * trace-overhead guard — noop-recorder hooks within 1.35x of hook-free;
#   * PR 8 gate — the 1k-AS generated internet converges to a full RIB
#     within the wall-time/RSS budget pinned in BENCH_PR8.json, with the
#     exact pinned message count (determinism).
#
# Full-budget run (no quick caps): BENCH_QUICK=0 scripts/bench.sh
set -euo pipefail
cd "$(dirname "$0")/.."

jsonl="$(mktemp)"
trap 'rm -f "$jsonl"' EXIT

quick="${BENCH_QUICK:-1}"
export CRITERION_JSON="$jsonl"
if [ "$quick" != "0" ]; then
  export CRITERION_QUICK=1
fi

cargo bench -q -p netdiag-bench --bench perf

mkdir -p target/bench
python3 - "$jsonl" target/bench/perf_medians.json BENCH_PR3.json <<'EOF'
import json, sys

out = {}
with open(sys.argv[1]) as f:
    for line in f:
        line = line.strip()
        if not line:
            continue
        rec = json.loads(line)
        out[rec.pop("id")] = rec
with open(sys.argv[2], "w") as f:
    json.dump(out, f, indent=2, sort_keys=True)
    f.write("\n")
print(f"wrote {sys.argv[2]} ({len(out)} benchmarks)")

def median(name, table, label):
    rec = table.get(name)
    if rec is None:
        sys.exit(f"{label} is missing benchmark {name}")
    return rec["median_ns"]

# Regression guard: every bench name shared with the frozen PR 3 baseline
# must stay within 1.25x of its old cost. Compared on min_ns, not
# median_ns: the minimum is the sample least contaminated by scheduler
# noise (quick mode takes only 10 samples on a often-busy CI box, where a
# single descheduled run can double the median), while a genuine code
# regression shifts the minimum too. trials_parallel_speedup/* is
# excluded because PR 6 rescaled its workload (3x5 grid -> 2x100), which
# changes what one iteration means.
with open(sys.argv[3]) as f:
    baseline = json.load(f)
# Exclusions, each with its reason (an exclusion must say why the frozen
# number no longer binds, not just opt out):
#   trials_parallel_speedup/*  PR 6 rescaled the workload (3x5 grid ->
#                              2x100), changing what one iteration means.
#   .../cow_clone              intended +~1us: Sim::clone now carries the
#                              session-liveness cache. The end-to-end
#                              snapshot_fail_restore (which contains the
#                              same work) stays guarded and improved ~40%.
#   .../btreeset               baseline-replica leg, source untouched
#                              since PR 3, yet it measures ~1.2-1.3x of
#                              the frozen number on the current box
#                              (machine/codegen drift). Its purpose — the
#                              bitset win — is guarded in-run below.
#   .../tracing                stateful: the live TraceRecorder's ring
#                              occupancy (and so the per-event cost)
#                              depends on how many iterations ran before
#                              the sample, which differs between quick and
#                              full budgets. The zero-cost claim this
#                              group exists for is the in-run
#                              noop/untraced ratio, guarded below; the
#                              tracing leg's absolute time never was one.
EXCLUDED = (
    "trials_parallel_speedup/",
    "sim_clone_vs_snapshot/cow_clone",
    "hitting_set_btree_vs_bitset/btreeset",
    "trace_overhead/tracing",
)
worst = 0.0
for name, old in sorted(baseline.items()):
    if name.startswith(EXCLUDED) or name not in out:
        continue
    ratio = out[name]["min_ns"] / old["min_ns"]
    worst = max(worst, ratio)
    flag = " <-- REGRESSION" if ratio > 1.25 else ""
    print(f"regression guard: {name}: {ratio:.3f}x of PR3{flag}")
if worst > 1.25:
    sys.exit(f"bench regression: {worst:.3f}x exceeds the 1.25x budget vs BENCH_PR3.json")

# In-run guard replacing the excluded btreeset absolute check: the dense
# bitset representation must keep a clear win over the BTreeSet replica.
bt = median("hitting_set_btree_vs_bitset/btreeset", out, "this run")
bs = median("hitting_set_btree_vs_bitset/bitset", out, "this run")
print(f"bitset guard: btreeset/bitset = {bt/bs:.1f}x")
if bt / bs < 2.0:
    sys.exit(f"bitset hitting set no longer beats the BTreeSet replica 2x ({bt/bs:.1f}x)")

# Incremental guard: the production failure/rollback round trip must beat
# the PR 3 snapshot_fail_restore median (full reconvergence) by >= 5x.
inc = median("sim_clone_vs_snapshot/incremental_fail_restore", out, "this run")
old_rt = median("sim_clone_vs_snapshot/snapshot_fail_restore", baseline, "BENCH_PR3.json")
speedup = old_rt / inc
print(f"incremental guard: fail/restore round trip {speedup:.1f}x vs PR3 ({old_rt/1e3:.0f}us -> {inc/1e3:.0f}us)")
if speedup < 5.0:
    sys.exit(f"incremental_fail_restore speedup {speedup:.1f}x is below the 5x target")

# Pool guard: the worker pool (per-worker scratch sims + incremental
# reconvergence + replay memo) must beat the sequential PR 3 reference.
par = median("trials_parallel_speedup/parallel", out, "this run")
seq = median("trials_parallel_speedup/sequential", out, "this run")
pool = seq / par
print(f"pool guard: collect_trials {pool:.1f}x vs sequential reference ({seq/1e6:.0f}ms -> {par/1e6:.0f}ms)")
if pool < 2.0:
    sys.exit(f"trial pool speedup {pool:.1f}x is below the 2x target")

# Overhead guard: compiled-in trace hooks behind a NoopRecorder must stay
# within noise of the hook-free replica of the same greedy.
base = median("trace_overhead/untraced", out, "this run")
noop = median("trace_overhead/noop", out, "this run")
ratio = noop / base
print(f"trace overhead guard: noop/untraced median ratio = {ratio:.3f}")
if ratio > 1.35:
    sys.exit(f"noop tracing overhead {ratio:.3f}x exceeds the 1.35x noise budget")

# Live-metrics guard (PR 10): one LiveRecorder counter bump through the
# dyn Recorder vtable must stay within 2x of the same virtual dispatch
# into a NoopRecorder. Both legs are 64-call loops through identical
# Arc<dyn Recorder> plumbing, so the ratio isolates what the lock-free
# slot-cache + exclusive-lane record path itself costs.
disp = median("live_metrics_overhead/dispatch", out, "this run")
bump = median("live_metrics_overhead/bump", out, "this run")
ratio = bump / disp
print(f"live metrics guard: bump/dispatch median ratio = {ratio:.3f}")
if ratio > 2.0:
    sys.exit(f"live record path {ratio:.3f}x exceeds the 2x dispatch budget")
EOF

# PR 8 gate: the 1k-AS generated internet must converge to a full RIB
# within the pinned wall-time / peak-RSS budget (BENCH_PR8.json), with
# the exact message count the deterministic engine is pinned to. Wall
# time on a contended box swings ~2-3x run to run, so the time budget is
# generous (it still sits 2x under the pre-refactor baseline's 9.9s);
# message count and RIB size are scheduler-independent and exact.
echo "== PR 8 gate: 1k-AS generated internet (converge budget) =="
cargo build -q --release -p netdiag-experiments
run_json="$(./target/release/netdiag gen --ases 1000 --seed 1 --converge --json)"
echo "$run_json"
python3 - "$run_json" BENCH_PR8.json <<'EOF'
import json, sys

run = json.loads(sys.argv[1])
gate = json.load(open(sys.argv[2]))["gate"]
if run["messages"] != gate["messages"]:
    sys.exit(f"determinism broken: {run['messages']} messages, pinned {gate['messages']}")
if run["rib_routes"] != gate["rib_routes"]:
    sys.exit(f"RIB incomplete: {run['rib_routes']} routes, pinned {gate['rib_routes']}")
if run["converge_ms"] > gate["max_converge_ms"]:
    sys.exit(f"1k converge {run['converge_ms']:.0f}ms exceeds the {gate['max_converge_ms']}ms budget")
if run["rss_peak_kb"] > gate["max_rss_peak_kb"]:
    sys.exit(f"1k peak RSS {run['rss_peak_kb']}kB exceeds the {gate['max_rss_peak_kb']}kB budget")
print(
    f"PR8 gate: 1k-AS converge {run['converge_ms']:.0f}ms "
    f"(budget {gate['max_converge_ms']}ms), peak RSS {run['rss_peak_kb']}kB "
    f"(budget {gate['max_rss_peak_kb']}kB), {run['messages']} messages exact"
)
EOF

# Telemetry throughput gate (PR 10): the daemon with the live telemetry
# plane on (per-phase spans, gauges, flight-recorder ring) must hold
# >= 95% of the throughput of the same daemon with telemetry disabled,
# measured back-to-back on one shared baseline so the legs differ only
# in recording. A contended box swings absolute req/s, but the on/off
# ratio is paired and stable.
echo "== telemetry gate: daemon throughput with live plane on vs off =="
cargo build -q --release -p netdiag-serve
# 150 requests/client: legs shorter than ~0.3s make the ratio swing
# with scheduler noise even under best-of-3.
compare_out="$(./target/release/netdiag-serve bench --clients 4 --requests 150 --compare)"
echo "$compare_out"
ratio="$(printf '%s\n' "$compare_out" | sed -n 's/^telemetry-compare:.*ratio \([0-9.]*\)$/\1/p')"
if [ -z "$ratio" ]; then
  echo "telemetry gate: no telemetry-compare line in bench output" >&2
  exit 1
fi
python3 - "$ratio" <<'EOF'
import sys
ratio = float(sys.argv[1])
if ratio < 0.95:
    sys.exit(f"telemetry-on throughput is {ratio:.3f}x of telemetry-off (< 0.95 budget)")
print(f"telemetry gate: on/off throughput ratio {ratio:.3f} (budget >= 0.95)")
EOF
