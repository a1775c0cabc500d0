#!/usr/bin/env bash
# Public-API smoke: build and run the quickstart (batch + evaluation +
# streaming warm-start re-fusion), fuse_tsv (every registry method, plus
# the fused-KB --export/--min-prob flags), query_kb (FusedKB
# Lookup/Explain/TopK + round-trip) on the checked-in demo TSV, and
# serve_kb (KbServer live readers under a publishing writer), so the
# Session/FusedKB/KbServer facade cannot silently rot.
#
#   ./scripts/examples_smoke.sh      (BUILD_DIR overrides ./build)
set -euo pipefail
cd "$(dirname "$0")/.."

BUILD_DIR="${BUILD_DIR:-build}"
TSV=examples/data/demo_extractions.tsv
OUT="$(mktemp)"
KB="$(mktemp)"
BIN="$(mktemp -u).kfs"
trap 'rm -f "${OUT}" "${OUT}.err" "${OUT}.bin" "${OUT}.budget" "${KB}" \
  "${BIN}" "${BIN}.trunc" "${OUT}".{crlf,unterminated}{,.out}; \
  rm -rf "${SPILL_DIR:-}"' EXIT

for target in example_quickstart example_fuse_tsv example_query_kb \
              example_serve_kb; do
  if [[ ! -x "${BUILD_DIR}/examples/${target}" ]]; then
    cmake -B "${BUILD_DIR}" -S . > /dev/null
    cmake --build "${BUILD_DIR}" --target "${target}" \
      -j"$(nproc 2>/dev/null || echo 4)"
  fi
done

echo "== quickstart ==" >&2
"${BUILD_DIR}/examples/example_quickstart" > "${OUT}"
grep -q "warm re-fusion reconverged" "${OUT}"

echo "== fuse_tsv (popaccu on ${TSV}) ==" >&2
"${BUILD_DIR}/examples/example_fuse_tsv" "${TSV}" --method=popaccu > "${OUT}"
# The corroborated values must win their conflicts in the output.
grep -q $'TomCruise\tbirth_date\t1962-07-03' "${OUT}"
grep -q $'TopGun\trelease_year\t1986' "${OUT}"

echo "== fuse_tsv (CRLF ends, or no final newline, print the same) ==" >&2
"${BUILD_DIR}/examples/example_fuse_tsv" "${TSV}" > "${OUT}"
sed 's/$/\r/' "${TSV}" > "${OUT}.crlf"
# $(...) drops the trailing newline.
printf '%s' "$(cat "${TSV}")" > "${OUT}.unterminated"
for variant in crlf unterminated; do
  "${BUILD_DIR}/examples/example_fuse_tsv" "${OUT}.${variant}" \
    > "${OUT}.${variant}.out"
  cmp "${OUT}" "${OUT}.${variant}.out"
done

echo "== fuse_tsv (every method of --help on ${TSV}) ==" >&2
# The nine methods that need no side input print the header plus one row
# per unique triple (13); the two that need one exit 2 naming it.
METHODS="$("${BUILD_DIR}/examples/example_fuse_tsv" --help 2>&1 |
  sed -n 's/^methods: //p' | tr -d ',')"
count=0
for method in ${METHODS}; do
  count=$((count + 1))
  set +e
  "${BUILD_DIR}/examples/example_fuse_tsv" "${TSV}" --method="${method}" \
    > "${OUT}" 2> "${OUT}.err"
  code=$?
  set -e
  case "${method}" in
    hierarchy) want=2; need="requires a value hierarchy" ;;
    confidence_weighted) want=2; need="requires gold labels" ;;
    *) want=0; need="" ;;
  esac
  if [[ "${code}" -ne "${want}" ]]; then
    echo "--method=${method} exited ${code}, expected ${want}" >&2
    exit 1
  fi
  if [[ -n "${need}" ]]; then
    grep -q "${need}" "${OUT}.err"
  else
    [[ "$(head -1 "${OUT}")" == $'subject\tpredicate\tobject\tprobability' ]]
    [[ "$(wc -l < "${OUT}")" -eq 14 ]]
  fi
done
[[ "${count}" -eq 11 ]]

echo "== fuse_tsv (a flag the method does not read exits 2 naming it) ==" >&2
set +e
"${BUILD_DIR}/examples/example_fuse_tsv" "${TSV}" --method=truthfinder \
  --filter-by-coverage > /dev/null 2> "${OUT}"
code=$?
set -e
[[ "${code}" -eq 2 ]]
grep -q "does not read filter_by_coverage" "${OUT}"
set +e
"${BUILD_DIR}/examples/example_fuse_tsv" "${TSV}" --method=source_extractor \
  --granularity=url > /dev/null 2> "${OUT}"
code=$?
set -e
[[ "${code}" -eq 2 ]]
grep -q "does not read granularity" "${OUT}"

echo "== fuse_tsv (unknown method lists registry names, exit 2) ==" >&2
set +e
"${BUILD_DIR}/examples/example_fuse_tsv" "${TSV}" --method=nope 2> "${OUT}"
code=$?
set -e
[[ "${code}" -eq 2 ]]
grep -q "valid: accu" "${OUT}"

echo "== fuse_tsv (--min-prob filters, --export writes a fused KB) ==" >&2
"${BUILD_DIR}/examples/example_fuse_tsv" "${TSV}" --method=popaccu \
  --min-prob=0.8 --export="${KB}" > "${OUT}"
# The corroborated winner passes the threshold; the lone-fansite rival
# must be filtered out of the thresholded output. (`!` pipelines are
# exempt from errexit, so test the grep explicitly.)
grep -q $'TomCruise\tbirth_date\t1962-07-03' "${OUT}"
if grep -q $'1963-07-03' "${OUT}"; then
  echo "low-probability rival leaked through --min-prob" >&2
  exit 1
fi
# The exported KB is the re-importable fused-KB schema with the
# provenance table behind the verdicts.
grep -q "kf-fused-kb v1" "${KB}"
grep -q $'^M\tpopaccu' "${KB}"
grep -q $'^P\textractor=' "${KB}"
grep -q $'^T\tTomCruise\tbirth_date\t1962-07-03' "${KB}"

echo "== fuse_tsv (bad --min-prob exits 2 with usage) ==" >&2
set +e
"${BUILD_DIR}/examples/example_fuse_tsv" "${TSV}" --min-prob=nope \
  2> "${OUT}"
code=$?
set -e
[[ "${code}" -eq 2 ]]
grep -q "usage: fuse_tsv" "${OUT}"
set +e
"${BUILD_DIR}/examples/example_fuse_tsv" "${TSV}" --min-prob=1.5 \
  2> "${OUT}"
code=$?
set -e
[[ "${code}" -eq 2 ]]

echo "== fuse_tsv (--save-bin then --load-bin reproduces the fusion) ==" >&2
"${BUILD_DIR}/examples/example_fuse_tsv" "${TSV}" --method=popaccu \
  --save-bin="${BIN}" > "${OUT}"
grep -q $'TomCruise\tbirth_date\t1962-07-03' "${OUT}"
[[ -s "${BIN}" ]]
"${BUILD_DIR}/examples/example_fuse_tsv" --load-bin="${BIN}" \
  --method=popaccu > "${OUT}.bin"
# The binary reload must fuse to byte-identical output.
cmp "${OUT}" "${OUT}.bin"
rm -f "${OUT}.bin"

echo "== fuse_tsv (missing/corrupt --load-bin exits 2 with usage) ==" >&2
set +e
"${BUILD_DIR}/examples/example_fuse_tsv" --load-bin=/nonexistent/c.kfs \
  2> "${OUT}"
code=$?
set -e
[[ "${code}" -eq 2 ]]
grep -q "cannot load binary corpus" "${OUT}"
grep -q "usage: fuse_tsv" "${OUT}"
# Truncate the saved image mid-file: the checksummed format must refuse
# it cleanly (exit 2 + usage), never crash or half-load.
head -c 100 "${BIN}" > "${BIN}.trunc"
set +e
"${BUILD_DIR}/examples/example_fuse_tsv" --load-bin="${BIN}.trunc" \
  2> "${OUT}"
code=$?
set -e
[[ "${code}" -eq 2 ]]
grep -q "cannot load binary corpus" "${OUT}"
# --load-bin and INPUT.tsv together is a contradiction, also exit 2.
set +e
"${BUILD_DIR}/examples/example_fuse_tsv" "${TSV}" --load-bin="${BIN}" \
  2> "${OUT}"
code=$?
set -e
[[ "${code}" -eq 2 ]]
rm -f "${BIN}" "${BIN}.trunc"

echo "== fuse_tsv (--memory-budget output is byte-identical) ==" >&2
SPILL_DIR="$(mktemp -d)"
"${BUILD_DIR}/examples/example_fuse_tsv" "${TSV}" --method=popaccu \
  > "${OUT}"
# A 1 MiB budget forces the demo through the out-of-core path (spill
# files written to --spill-dir); the fused output must not change by a
# byte, and the shard files must be cleaned up with the session.
"${BUILD_DIR}/examples/example_fuse_tsv" "${TSV}" --method=popaccu \
  --memory-budget=1 --spill-dir="${SPILL_DIR}" > "${OUT}.budget"
cmp "${OUT}" "${OUT}.budget"
if ls "${SPILL_DIR}"/shard-*.kfs > /dev/null 2>&1; then
  echo "spill files leaked in ${SPILL_DIR}" >&2
  exit 1
fi
rm -rf "${SPILL_DIR}" "${OUT}.budget"

echo "== fuse_tsv (bad --memory-budget / --spill-dir exit 2) ==" >&2
set +e
"${BUILD_DIR}/examples/example_fuse_tsv" "${TSV}" --memory-budget=zero \
  2> "${OUT}"
code=$?
set -e
[[ "${code}" -eq 2 ]]
grep -q "usage: fuse_tsv" "${OUT}"
set +e
"${BUILD_DIR}/examples/example_fuse_tsv" "${TSV}" --memory-budget=0 \
  2> "${OUT}"
code=$?
set -e
[[ "${code}" -eq 2 ]]
# --spill-dir without a budget is rejected by options validation.
set +e
"${BUILD_DIR}/examples/example_fuse_tsv" "${TSV}" --spill-dir=/tmp/x \
  2> "${OUT}"
code=$?
set -e
[[ "${code}" -eq 2 ]]
grep -q "spill_dir is set but memory_budget_bytes is 0" "${OUT}"
# Budgeted runs need an engine method: baselines cannot spill.
set +e
"${BUILD_DIR}/examples/example_fuse_tsv" "${TSV}" --method=truthfinder \
  --memory-budget=1 2> "${OUT}"
code=$?
set -e
[[ "${code}" -eq 2 ]]
grep -q "cannot run out-of-core" "${OUT}"

echo "== query_kb (Lookup/Explain/TopK + export-import round-trip) ==" >&2
"${BUILD_DIR}/examples/example_query_kb" "${TSV}" > "${OUT}"
grep -q "1962-07-03)  p=" "${OUT}"
grep -q "supporting    extractor=" "${OUT}"
grep -q "contradicting extractor=" "${OUT}"
grep -q "round-trip: equal" "${OUT}"

echo "== serve_kb (live readers under a publishing writer) ==" >&2
"${BUILD_DIR}/examples/example_serve_kb" > "${OUT}"
grep -q "generation 11 live" "${OUT}"
grep -q "pinned generation 1 still serves" "${OUT}"
grep -q "serving demo done" "${OUT}"

echo "examples smoke OK" >&2
