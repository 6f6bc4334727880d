#!/usr/bin/env bash
# Cross-commit golden diff: builds validate_run at <base-ref> and at the
# working tree, emits the golden set from both at four seed/persons
# configs, and requires the files to be byte-identical. A change that
# moves any query's output between commits fails here, even when the
# changed code replays its own freshly emitted set cleanly.
#
#   scripts/golden_diff.sh <base-ref>
#
# The base tree is exported with `git archive` into build/golden-base/src
# and built in build/golden-base/build (incremental on a rerun with the
# same ref); the working tree's validate_run comes from build/. Emitted
# sets land in build/golden-base/out. Run from anywhere inside the repo.
set -euo pipefail
cd "$(dirname "$0")/.."

if [[ $# -ne 1 ]]; then
  echo "usage: $0 <base-ref>" >&2
  exit 64
fi
base_ref="$1"
if ! base_sha="$(git rev-parse --verify --quiet "${base_ref}^{commit}")"; then
  echo "golden_diff: base '${base_ref}' is not a commit in this clone" \
    "(shallow clone or history rewritten?); fetch it first" >&2
  exit 65
fi
jobs="$(nproc)"
root="build/golden-base"
src="${root}/src"
out="${root}/out"

# seed:persons pairs; the same four configs the golden battery is
# compared at.
configs=(1:400 7:1500 24301:1800 6007:900)

if [[ "$(cat "${root}/sha" 2>/dev/null)" != "${base_sha}" ]]; then
  rm -rf "${src}" "${root}/build"
  mkdir -p "${src}"
  git archive "${base_sha}" | tar -x -C "${src}"
  echo "${base_sha}" > "${root}/sha"
fi
echo "== build validate_run at ${base_ref} (${base_sha:0:12}) =="
cmake -B "${root}/build" -S "${src}" >/dev/null
cmake --build "${root}/build" -j"${jobs}" --target validate_run
echo "== build validate_run at the working tree =="
cmake -B build -S . >/dev/null
cmake --build build -j"${jobs}" --target validate_run

rm -rf "${out}"
mkdir -p "${out}"
status=0
for config in "${configs[@]}"; do
  seed="${config%%:*}"
  persons="${config##*:}"
  base_file="${out}/base-${seed}-${persons}.json"
  head_file="${out}/head-${seed}-${persons}.json"
  "${root}/build/tools/validate_run" --emit --out "${base_file}" \
    --seed "${seed}" --persons "${persons}" >/dev/null
  ./build/tools/validate_run --emit --out "${head_file}" \
    --seed "${seed}" --persons "${persons}" >/dev/null
  if cmp "${base_file}" "${head_file}"; then
    echo "seed ${seed} persons ${persons}: identical"
  else
    echo "seed ${seed} persons ${persons}: golden output differs" >&2
    status=1
  fi
done
exit "${status}"
