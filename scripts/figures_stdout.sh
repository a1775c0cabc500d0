#!/usr/bin/env bash
# Runs every figure, table, ablation and baseline bench of
# ${BUILD_DIR:-build}/bench (relative to the repository root) and writes
# each one's stdout to OUT_DIR/<binary>.txt. Their stderr, which holds
# progress output, is dropped. The benches generate their corpora from
# fixed seeds, so two builds that compute the same results write the same
# files: run this in two trees and compare them with `diff -r`. Each bench
# runs under a timeout; the script exits non-zero, naming each bench that
# failed or timed out.
#
#   ./scripts/figures_stdout.sh OUT_DIR
set -euo pipefail

if [[ $# -ne 1 ]]; then
  echo "usage: $0 OUT_DIR" >&2
  exit 2
fi
mkdir -p "$1"
out_dir="$(cd "$1" && pwd)"
cd "$(dirname "$0")/.."
bench_dir="${BUILD_DIR:-build}/bench"
# A bench takes seconds to a few minutes; this only bounds a hang.
timeout_s=900

benches=()
for bin in "${bench_dir}"/bench_fig* "${bench_dir}"/bench_table* \
           "${bench_dir}"/bench_ablation_* "${bench_dir}"/bench_baselines; do
  if [[ -f "${bin}" && -x "${bin}" ]]; then benches+=("${bin}"); fi
done
if [[ ${#benches[@]} -eq 0 ]]; then
  echo "no figure benches under ${bench_dir}; build the repository first" >&2
  exit 1
fi

failed=()
for bin in "${benches[@]}"; do
  name="$(basename "${bin}")"
  status=0
  timeout "${timeout_s}" "${bin}" > "${out_dir}/${name}.txt" 2> /dev/null ||
      status=$?
  if [[ ${status} -eq 124 ]]; then
    failed+=("${name} (timed out after ${timeout_s} s)")
  elif [[ ${status} -ne 0 ]]; then
    failed+=("${name} (exit ${status})")
  fi
done

echo "ran ${#benches[@]} benches into ${out_dir}"
if [[ ${#failed[@]} -gt 0 ]]; then
  printf 'failed: %s\n' "${failed[@]}" >&2
  exit 1
fi
