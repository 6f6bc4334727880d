#!/usr/bin/env bash
# Whole-tree lint gate: clang-tidy (when available) over
# compile_commands.json, plus repo-idiom lints that hold under any
# toolchain. Exits nonzero on the first violated rule.
#
# Usage:
#   scripts/lint.sh                # full gate
#   scripts/lint.sh --format-check # clang-format check only (no rewrite)
#
# The clang-* passes degrade to a notice when the tools are not installed
# (the container ships GCC only); the custom lints always run, so the gate
# is never vacuous.
set -euo pipefail
cd "$(dirname "$0")/.."

BUILD_DIR="${BUILD_DIR:-build}"
fail=0

note() { echo "lint: $*"; }
violation() {
  echo "lint: FAIL: $*" >&2
  fail=1
}

# Tracked C++ sources, lint scope. tests/negative is excluded: those files
# exist to violate the rules.
cxx_sources() {
  find src bench examples tests tools \
    \( -name "*.h" -o -name "*.cc" -o -name "*.cpp" \) \
    -not -path "tests/negative/*" | sort
}

# ---- clang-format (check-only) ---------------------------------------------
run_format_check() {
  if ! command -v clang-format >/dev/null 2>&1; then
    note "clang-format not installed; skipping format check"
    return 0
  fi
  local bad=0
  while IFS= read -r f; do
    if ! clang-format --dry-run -Werror "$f" >/dev/null 2>&1; then
      violation "clang-format: $f needs formatting"
      bad=1
    fi
  done < <(cxx_sources)
  [[ $bad -eq 0 ]] && note "clang-format: all sources clean"
}

if [[ "${1:-}" == "--format-check" ]]; then
  run_format_check
  exit "$fail"
fi

# ---- clang-tidy over compile_commands.json ---------------------------------
# One clang-tidy process per file, nproc at a time. Each worker writes
# its diagnostics to a private log and appends the file name to a shared
# failure list (single short O_APPEND writes, so no interleaving);
# results are reported in sorted order, so output is deterministic no
# matter how the parallel runs finish.
if command -v clang-tidy >/dev/null 2>&1; then
  if [[ -f "${BUILD_DIR}/compile_commands.json" ]]; then
    note "clang-tidy over ${BUILD_DIR}/compile_commands.json ($(nproc) jobs)"
    TIDY_DIR=$(mktemp -d)
    trap 'rm -rf "$TIDY_DIR"' EXIT
    export BUILD_DIR TIDY_DIR
    # Headers are covered through their includers.
    cxx_sources | grep -vE '\.h$' |
      xargs -r -P "$(nproc)" -n 1 bash -c '
        f="$1"
        log="${TIDY_DIR}/${f//\//__}.log"
        if ! clang-tidy -p "${BUILD_DIR}" --quiet "$f" >"$log" 2>&1; then
          echo "$f" >> "${TIDY_DIR}/failed"
        fi' tidy-worker
    if [[ -s "${TIDY_DIR}/failed" ]]; then
      while IFS= read -r f; do
        violation "clang-tidy: $f"
        sed 's/^/    /' "${TIDY_DIR}/${f//\//__}.log" >&2 || true
      done < <(sort "${TIDY_DIR}/failed")
    else
      note "clang-tidy: all sources clean"
    fi
  else
    note "no ${BUILD_DIR}/compile_commands.json; configure first" \
         "(cmake -B ${BUILD_DIR} -S .) — skipping clang-tidy"
  fi
else
  note "clang-tidy not installed; skipping (custom lints still run)"
fi

# ---- custom lint 1: no naked new/delete in src/ ----------------------------
# Ownership in the library lives in containers and smart pointers. The
# allowlist holds the epoch reclamation machinery (type-erased garbage
# needs raw new/delete), the intentionally-leaked metrics global, the
# profiler's leaked registry (signal handlers may fire during static
# destruction, so its state must never be destructed), and the RCU
# structures' placement-new into raw chunks. Tests and benches may
# leak fixtures on purpose (gtest SetUpTestSuite idiom), so the rule is
# scoped to src/.
NAKED_NEW_ALLOWLIST='src/util/epoch\.(h|cc)|src/obs/metrics\.cc|src/obs/prof\.cc|src/store/dense_table\.h|src/util/rcu_vector\.h'
naked=$(
  while IFS= read -r f; do
    # Strip // comments so prose about "new members" never trips the lint.
    sed 's@//.*@@' "$f" |
      grep -nE "[^_[:alnum:]]new [A-Za-z_<(]|[^_[:alnum:]]delete( \[\])? [A-Za-z_(]|[^_[:alnum:]]delete\[\]" |
      sed "s@^@$f:@" || true
  done < <(cxx_sources | grep '^src/' | grep -vE "$NAKED_NEW_ALLOWLIST")
)
if [[ -n "$naked" ]]; then
  violation "naked new/delete outside the allowlist:"$'\n'"$naked"
else
  note "naked new/delete: clean"
fi

# ---- custom lint 2: no raw std synchronisation -----------------------------
# Every mutex must be an annotated util::Mutex / util::SharedMutex so
# Clang's thread-safety analysis can see it; every cv must be
# condition_variable_any waiting on the annotated MutexLock. Only the
# wrapper (and the annotation header documenting the rule) may name the
# raw types. std::shared_lock over SharedMutex::native() stays legal: it
# is the sanctioned movable read guard.
MUTEX_ALLOWLIST='src/util/mutex\.h|src/util/thread_annotations\.h'
rawmu=$(
  while IFS= read -r f; do
    sed 's@//.*@@' "$f" |
      grep -nE "std::mutex\b|std::lock_guard|std::unique_lock|std::condition_variable\b" |
      sed "s@^@$f:@" || true
  done < <(cxx_sources | grep -vE "$MUTEX_ALLOWLIST")
)
if [[ -n "$rawmu" ]]; then
  violation "raw std::mutex/lock_guard/unique_lock/condition_variable outside util/mutex.h:"$'\n'"$rawmu"
else
  note "raw std synchronisation: clean"
fi

# ---- custom lint 3: deterministic datagen ----------------------------------
# DATAGEN must be a pure function of (config, seed): same inputs, same
# dataset, on any machine. Wall clocks and nondeterministic seeds are
# banned from the generator.
nondet=$(grep -rnE "std::random_device|std::rand\b|\bsrand\b|system_clock::now|steady_clock::now|high_resolution_clock" \
         src/datagen --include="*.h" --include="*.cc" || true)
if [[ -n "$nondet" ]]; then
  violation "nondeterminism in src/datagen:"$'\n'"$nondet"
else
  note "datagen determinism: clean"
fi

# ---- custom lint 4: lock-table coverage ------------------------------------
# Every annotated mutex member in the tree must be documented in
# DESIGN.md's lock table (capability -> protected state -> order). A new
# mutex without a lock-table row fails the gate until it is written down.
mutexes=$(grep -rhoE "^\s*(mutable\s+)?(util::)?(Mutex|SharedMutex)\s+[A-Za-z_]+" \
            src --include="*.h" --include="*.cc" |
          awk '{print $NF}' | sort -u)
if [[ -z "$mutexes" ]]; then
  violation "found no annotated mutex members; extraction regex is stale"
fi
for m in $mutexes; do
  if ! grep -qE "(^|[^A-Za-z_])${m}(\`|[^A-Za-z_]|$)" DESIGN.md; then
    violation "mutex member '${m}' missing from DESIGN.md's lock table"
  fi
done
[[ $fail -eq 0 ]] && note "lock-table coverage: all $(echo "$mutexes" | wc -l) mutex names documented"

# ---- custom lint 5: one JSON module ----------------------------------------
# src/util/json.{h,cc} is the only JSON string escaper and parser. Outside
# it, src/, tools/, examples/ and bench/ may not carry the mechanics of
# either: a string literal that writes an escaped quote or backslash, a
# \u00XX escape format, or a quote test that pushes a backslash (an
# escaper); the `null` literal, or a function or class whose name pairs
# Json with Parse (a parser). The Prometheus label escaper
# (obs::EscapePromLabelValue) is a different text format and the one
# named exception. Comments are stripped first.
json_lint=$(cat <<'AWK'
{ line = $0; sub(/\/\/.*/, "", line) }
# A line starting in column 0 begins a top-level definition; remember its
# function name so a hit can be attributed to the function it sits in.
/^[A-Za-z_]/ {
  fn = ""
  if (match(line, /[A-Za-z_][A-Za-z_0-9:]*[ \t]*\(/)) {
    fn = substr(line, RSTART, RLENGTH)
    sub(/[ \t]*\($/, "", fn)
    sub(/.*::/, "", fn)
  }
}
{
  kind = ""
  if (line ~ /\\\\\\"/ || line ~ /\\\\u%0/ ||
      line ~ /'"'.*push_back\('\\\\'\)/) {
    kind = "escaper"
  } else if (line ~ /"null"/ ||
             line ~ /(class|struct)[ \t]+[A-Za-z_]*(Json[A-Za-z_]*Pars|Pars[A-Za-z_]*Json)/ ||
             (line ~ /^[A-Za-z_]/ &&
              line ~ /[ \t*&](Parse[A-Za-z_]*Json|Json[A-Za-z_]*Parse)[A-Za-z_]*[ \t]*\(/)) {
    kind = "parser"
  }
  if (kind == "" || (kind == "escaper" && fn == "EscapePromLabelValue")) next
  printf "%s:%d: JSON %s: %s\n", FILENAME, FNR, kind, $0
}
AWK
)
json_dups=$(
  find src tools examples bench \
    \( -name "*.h" -o -name "*.cc" -o -name "*.cpp" \) |
    grep -vE '^src/util/json\.(h|cc)$' | sort | xargs awk "$json_lint"
)
if [[ -n "$json_dups" ]]; then
  violation "JSON escaper/parser outside src/util/json.cc:"$'\n'"$json_dups"
else
  note "one JSON module: clean"
fi

# ---- clang-format, as part of the full gate --------------------------------
run_format_check

if [[ $fail -ne 0 ]]; then
  echo "lint: FAILED" >&2
  exit 1
fi
echo "lint: all checks passed"
