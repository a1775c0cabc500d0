#!/usr/bin/env bash
# Perf baseline runner for the google-benchmark binaries (bench_perf,
# bench_kb_server and bench_store).
#
#   ./scripts/bench.sh            -> full run, JSON recorded in BENCH_perf.json
#   ./scripts/bench.sh --smoke    -> fast CI smoke: tiny min_time, per-stage
#                                    + serving benches only, no JSON written
#
# Extra arguments after the mode are forwarded to every binary (e.g.
# --benchmark_filter=BM_StageISweep). BUILD_DIR overrides ./build.
#
# BENCH_perf.json is only ever recorded from a Release build: the script
# configures with -DCMAKE_BUILD_TYPE=Release by default and refuses to
# record when BUILD_DIR's cache says otherwise (a debug baseline once
# slipped in and made every optimization look 3x better than it was). The
# binaries' JSON outputs are merged into one BENCH_perf.json so
# bench_compare.py sees a single baseline.
#
# A run with --benchmark_filter re-records only the rows it ran: each
# replaces the baseline's rows of the same name, in place, and every other
# row (and the baseline's context block) is kept. For example:
#
#   ./scripts/bench.sh --benchmark_filter='BM_ClaimGraphBuild' \
#       --benchmark_repetitions=3
#
# An unfiltered run replaces the whole file.
set -euo pipefail
cd "$(dirname "$0")/.."

BUILD_DIR="${BUILD_DIR:-build}"
BENCH_TARGETS=(bench_perf bench_kb_server bench_store)

build_type() {
  sed -n 's/^CMAKE_BUILD_TYPE:[^=]*=//p' "${BUILD_DIR}/CMakeCache.txt" \
    2>/dev/null || true
}

if [[ ! -f "${BUILD_DIR}/CMakeCache.txt" ]]; then
  echo "configuring ${BUILD_DIR} (Release)..." >&2
  cmake -B "${BUILD_DIR}" -S . -DCMAKE_BUILD_TYPE=Release > /dev/null
fi

# Build each bench binary, tolerating exactly one kind of failure — the
# target not existing (bench/CMakeLists skips the google-benchmark targets
# when the library is absent), which becomes a graceful skip below. Real
# compile/link errors must still fail loudly: a broken perf binary
# reported as a clean skip is the silent rot this script exists to
# prevent. The quoted-'<target>' form is how make/ninja name a missing
# top-level target, and it cannot match a file path like
# 'bench/bench_perf.cc'.
for target in "${BENCH_TARGETS[@]}"; do
  if [[ -x "${BUILD_DIR}/bench/${target}" ]]; then continue; fi
  echo "${target} not built; building in ${BUILD_DIR}..." >&2
  if ! build_out="$(cmake --build "${BUILD_DIR}" --target "${target}" \
      -j"$(nproc 2>/dev/null || echo 4)" 2>&1)"; then
    if ! grep -qiE "(no rule to make target|unknown target|cannot find target).*'${target}'" \
        <<< "${build_out}"; then
      printf '%s\n' "${build_out}" >&2
      exit 1
    fi
  fi
done
if [[ ! -x "${BUILD_DIR}/bench/bench_perf" ]]; then
  echo "bench binaries unavailable (Google Benchmark not installed); skipping" >&2
  exit 0
fi

if [[ "${1:-}" == "--smoke" ]]; then
  shift
  # One pass over the claim-graph + scorer + streaming + serving benches
  # so perf binaries cannot rot in CI; min_time is tiny because only
  # liveness matters here.
  "${BUILD_DIR}/bench/bench_perf" \
    --benchmark_filter='BM_(ClaimGraphBuild|StageISweep|StageIISweep|ScorerOnly|IncrementalAppend|RefuseAfterAppend1|SessionSnapshot|FusedKbLookup|FusedKbTopK|ScalingCurve|OutOfCore)' \
    --benchmark_min_time=0.01 "$@"
  if [[ -x "${BUILD_DIR}/bench/bench_kb_server" ]]; then
    "${BUILD_DIR}/bench/bench_kb_server" \
      --benchmark_filter='BM_KbServerQps/real_time/threads:(1|4)$|BM_KbServerPublish|BM_KbServerSnapshotLookup' \
      --benchmark_min_time=0.01 "$@"
  fi
  if [[ -x "${BUILD_DIR}/bench/bench_store" ]]; then
    # The fused-KB import pair and binary export are enough to keep the
    # storage benches from rotting; the corpus loads re-parse scale-1 TSV
    # and are too slow for a smoke pass.
    "${BUILD_DIR}/bench/bench_store" \
      --benchmark_filter='BM_FusedKb(Import(Tsv|Bin)|ExportBin)' \
      --benchmark_min_time=0.01 "$@"
  fi
  exit 0
fi

bt="$(build_type)"
if [[ "${bt}" != "Release" ]]; then
  echo "refusing to record BENCH_perf.json: ${BUILD_DIR} is configured as" \
    "'${bt:-unknown}', not Release. Re-run with a Release build dir, e.g." \
    "cmake -B ${BUILD_DIR} -S . -DCMAKE_BUILD_TYPE=Release" >&2
  exit 1
fi

filtered=0
for arg in "$@"; do
  if [[ "${arg}" == --benchmark_filter=* ]]; then filtered=1; fi
done
# Each binary records into its own BENCH_<target>.json, merged below.
outs=()
trap 'rm -f BENCH_bench_*.json' EXIT
for target in "${BENCH_TARGETS[@]}"; do
  if [[ -x "${BUILD_DIR}/bench/${target}" ]]; then
    "${BUILD_DIR}/bench/${target}" --benchmark_format=console \
      --benchmark_out="BENCH_${target}.json" --benchmark_out_format=json "$@"
    outs+=("BENCH_${target}.json")
  fi
done
FILTERED="${filtered}" python3 - "${outs[@]}" <<'PY'
import json, os, sys

context, rows = None, []
for path in sys.argv[1:]:
    if os.path.getsize(path) == 0:
        continue  # the filter matched nothing in this binary
    with open(path) as f:
        run = json.load(f)
    context = context or run['context']
    rows.extend(run['benchmarks'])

if os.environ['FILTERED'] == '1' and os.path.exists('BENCH_perf.json'):
    with open('BENCH_perf.json') as f:
        doc = json.load(f)
    # Repetitions and their _mean/_median/... aggregates share a run_name.
    def name(b):
        return b.get('run_name', b['name'])
    fresh = {}
    for b in rows:
        fresh.setdefault(name(b), []).append(b)
    merged = []
    for b in doc['benchmarks']:
        if name(b) not in fresh:
            merged.append(b)
        elif fresh[name(b)]:
            merged.extend(fresh[name(b)])  # at the first old row's place
            fresh[name(b)] = []
    for new_rows in fresh.values():
        merged.extend(new_rows)  # rows the baseline did not have yet
    doc['benchmarks'] = merged
    print('replaced or added %d rows of BENCH_perf.json' % len(rows),
          file=sys.stderr)
elif context is None:
    sys.exit('no benchmark ran; BENCH_perf.json left as it was')
else:
    doc = {'context': context, 'benchmarks': rows}
with open('BENCH_perf.json', 'w') as f:
    json.dump(doc, f, indent=1)
PY
echo "recorded BENCH_perf.json" >&2
echo "compare against a previous baseline with:" >&2
echo "  scripts/bench_compare.py <old.json> BENCH_perf.json" >&2
