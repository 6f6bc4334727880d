#!/usr/bin/env bash
# Local gate: tier-1 build + full test suite, then the lint gate, then the
# concurrency-labelled tests (epoch/RCU read path) rebuilt under Address-,
# Thread- and UndefinedBehaviorSanitizer, then a short throttled driver
# run that exercises the trace exporter + compliance audit and feeds the
# perf-regression gate. Run from anywhere inside the repo.
set -euo pipefail
cd "$(dirname "$0")/.."

jobs="$(nproc)"

echo "== tier-1: default build + full test suite =="
cmake -B build -S . >/dev/null
cmake --build build -j"${jobs}"
(cd build && ctest --output-on-failure -j"${jobs}")

echo "== lint gate =="
scripts/lint.sh

echo "== static invariants: binary call-graph checker =="
# ctest -L static runs the mutation fixtures (each seeded violation must
# be caught, with its root -> forbidden-symbol path) and the production
# gate: the real manifest against the probe binary.
(cd build && ctest -L static --output-on-failure)
# Mutate self-test on the *production* path: inject a malloc into the
# SIGPROF handler, rebuild the probe against the mutated TU, and require
# the checker to reject it with exactly the signal_safe rule. The
# fixtures prove the engine detects violations under the fixture
# manifest; this proves the shipped manifest + tags still guard the real
# handler — a checker that rotted into vacuity fails here.
mutdir="$(mktemp -d)"
sed -e 's@^#include "util/invariant_root.h"@&\nstatic void* volatile g_snb_mutation_sink;@' \
    -e 's@SNB_INVARIANT_ROOT("signal_safe");@&\n  g_snb_mutation_sink = std::malloc(16);@' \
    src/obs/prof.cc > "${mutdir}/prof_mutated.cc"
grep -q 'g_snb_mutation_sink = std::malloc' "${mutdir}/prof_mutated.cc" || {
  echo "mutation anchor not found in src/obs/prof.cc; update check.sh" >&2
  exit 1
}
g++ -std=c++20 -O2 -DNDEBUG -DSNB_INVARIANTS=1 -fno-omit-frame-pointer \
  -Isrc "${mutdir}/prof_mutated.cc" tools/snb_invariants/probe_main.cc \
  build/src/obs/libsnb_obs.a build/src/store/libsnb_store.a \
  build/src/schema/libsnb_schema.a build/src/util/libsnb_util.a \
  -o "${mutdir}/probe_mutated" -lpthread -ldl -lrt
./build/tools/snb_invariants/snb_invariants \
  --manifest tools/snb_invariants/invariants.toml \
  --binary "${mutdir}/probe_mutated" \
  --expect-violations signal_safe
rm -rf "${mutdir}"

echo "== obs: registry/report/exporter tests + bench smoke with profiling =="
(cd build && ctest -L obs --output-on-failure)
# One complex-read bench with operator profiling on, emitting report.json.
# The binary self-validates the report (schema tag, non-empty op table,
# monotone percentiles, populated q9_profile) and exits nonzero otherwise;
# here we only re-check that the artifact landed non-empty.
smoke_report="$(mktemp -t snb-smoke-report.XXXXXX.json)"
smoke_trace="$(mktemp -t snb-smoke-trace.XXXXXX.json)"
smoke_golden="$(mktemp -t snb-smoke-golden.XXXXXX.json)"
smoke_folded="$(mktemp -t snb-smoke-prof.XXXXXX.folded)"
smoke_svg="$(mktemp -t snb-smoke-prof.XXXXXX.svg)"
bench_today="BENCH_$(date +%F).json"
cleanup() {
  local status=$?
  rm -f "${smoke_report}" "${smoke_trace}" "${smoke_golden}"
  rm -f "${smoke_folded}" "${smoke_svg}"
  # A failed run must not leave a half-written bench artifact behind: the
  # next invocation would seed BENCH_baseline.json from it.
  if [[ ${status} -ne 0 ]]; then
    rm -f "${bench_today}"
  fi
}
trap cleanup EXIT
./build/bench/bench_fig4_q9_plan_ablation --params 4 --report "${smoke_report}"
test -s "${smoke_report}" || {
  echo "bench smoke produced an empty ${smoke_report}" >&2
  exit 1
}

echo "== exec smoke: intersection-kernel cross-check =="
# Every (ratio, kernel) cell is verified against std::set_intersection
# before timing; the binary exits nonzero on any divergence.
./build/bench/bench_micro_intersect --smoke

echo "== driver smoke: throttled run with trace export + compliance audit =="
# Small SF, auto acceleration (~5 s replay). Exits nonzero unless the
# compliance audit passed (the run's one verdict); self-validates report.json
# (schema snb-report-v5 incl. the compliance section) before writing it.
# --perf-counters arms the hardware-counter backend (degrading to no-op
# where perf_event_open is denied) and the slow-query dossier collector;
# --cpu-profile arms the sampling profiler and writes the folded stacks.
./build/examples/benchmark_run 0.05 0 "${bench_today}" \
  --trace-out "${smoke_trace}" --perf-counters \
  --cpu-profile "${smoke_folded}"
# The trace must be valid JSON with per-thread lanes (Chrome-trace format);
# the obs tests check B/E pairing, here we gate on parse + shape. The
# report must carry tail attribution: at least one slow-query dossier and
# the perf/provenance sections, whatever backend the probe landed on.
python3 - "${smoke_trace}" "${bench_today}" <<'EOF'
import json, sys
doc = json.load(open(sys.argv[1]))
events = doc["traceEvents"]
lanes = {e["tid"] for e in events if e.get("ph") in ("B", "E")}
assert events and lanes, "trace has no spans"
print(f"trace OK: {len(events)} events across {len(lanes)} lanes")
report = json.load(open(sys.argv[2]))
assert report["schema"] == "snb-report-v5", report["schema"]
assert report["perf"]["backend"] in ("noop", "linux"), report["perf"]
assert report["provenance"]["git_sha"], "provenance missing git sha"
dossiers = report.get("dossiers", [])
assert len(dossiers) >= 1, "driver smoke kept no slow-query dossiers"
with_ops = sum(1 for d in dossiers if d.get("operators"))
print(f"report OK: backend={report['perf']['backend']}, "
      f"{len(dossiers)} dossiers ({with_ops} with operator breakdowns)")
prof = report["profile"]
assert prof["backend"] in ("noop", "timer"), prof
acct = (prof["attributed"], prof["unattributed"], prof["dropped"])
assert prof["captured"] == sum(acct), (prof["captured"], acct)
if prof["backend"] == "timer":
    assert prof["captured"] > 0, "timer backend captured no samples"
    # The acceptance bar: >= 80% of samples attributed to a known op.
    frac = prof["attributed"] / prof["captured"]
    assert frac >= 0.8, f"only {frac:.0%} of samples attributed"
    print(f"profile OK: {prof['captured']} samples, {frac:.0%} attributed, "
          f"{prof['threads']} threads")
else:
    print(f"profile OK: backend=noop ({prof.get('message', '')})")
EOF
# The folded artifact must carry per-lane stacks and render through the
# dependency-free viewer (flamegraph SVG) when sampling was live.
if grep -q "^thread:" "${smoke_folded}"; then
  grep -q "op:" "${smoke_folded}" || {
    echo "folded profile has no op-attributed stacks" >&2
    exit 1
  }
  python3 scripts/profile_view.py "${smoke_folded}" --svg "${smoke_svg}"
  test -s "${smoke_svg}" || {
    echo "profile_view.py produced an empty SVG" >&2
    exit 1
  }
else
  echo "profiler unavailable here; folded artifact empty (expected shape)"
fi

echo "== validation smoke: golden emit + replay (serial and threaded) =="
# Time-boxed profile: a small golden set (~1 s to emit, <1 s per replay)
# rather than the CI-sized one — the full 1x8-thread x 2-mode matrix runs
# in the ci.yml validate job. validate_run exits 2 on any row diff.
./build/tools/validate_run --emit --out "${smoke_golden}" \
  --persons 120 --segments 2
./build/tools/validate_run --replay "${smoke_golden}" \
  --threads 1 --mode sequential
./build/tools/validate_run --replay "${smoke_golden}" \
  --threads 8 --mode windowed
# Sharded-store replay: the serial single-shard emission must replay
# byte-identically on a 2-shard store (hash routing + multi-shard
# snapshots + per-shard writer locks). The full {1,2,4,8} matrix runs in
# tests/validate_golden_test.cc and CI's shard-matrix job.
./build/tools/validate_run --replay "${smoke_golden}" \
  --threads 2 --mode windowed --shards 2

echo "== perf-regression gate: compare against committed baseline =="
# Thresholds are deliberately generous: the gate exists to catch order-of-
# magnitude regressions on any machine, not to flag scheduler noise across
# different hardware. Tighten them when pinning a baseline per machine.
if [[ -f BENCH_baseline.json ]]; then
  python3 scripts/compare_reports.py BENCH_baseline.json "${bench_today}" \
    --max-throughput-drop 0.9 \
    --max-update-throughput-drop 0.9 \
    --max-latency-inflation 4.0 \
    --latency-slack-ms 5.0 \
    --max-compliance-drop 0.5
else
  echo "no BENCH_baseline.json; seeding it from this run"
  cp "${bench_today}" BENCH_baseline.json
fi

# Only the concurrency-labelled test targets are built under the
# sanitizers; a whole-tree sanitizer build adds minutes without adding
# coverage. The target list is discovered from the label (test name ==
# target name for every snb_test), so newly labelled tests join the
# sanitizer tier without editing this script.
mapfile -t san_targets < <(cd build && ctest -N -L concurrency |
                           sed -n 's/^ *Test *#[0-9]*: //p')
if [[ ${#san_targets[@]} -eq 0 ]]; then
  echo "ctest -L concurrency discovered no targets" >&2
  exit 1
fi
echo "concurrency targets: ${san_targets[*]}"
for san in address thread undefined; do
  dir="build-${san}-san"
  echo "== ${san} sanitizer: concurrency-labelled tests =="
  cmake -B "${dir}" -S . -DSNB_SANITIZE="${san}" >/dev/null
  cmake --build "${dir}" -j"${jobs}" --target "${san_targets[@]}"
  (cd "${dir}" && ctest -L concurrency --output-on-failure)
done

echo "== all checks passed =="
