#!/usr/bin/env bash
# Smoke run of the end-to-end benchmark (perfbench/): builds kf_e2e in
# Release through perfbench/run.py, then runs each workload for one second
# with tracing on. Traced runs drive FusionEngine call by call (Prepare,
# StageI, StageII, shard_sweep_micros) and check every build bit for bit
# against Session and KbServer, so this catches engine API drift that no
# other build target compiles. Fails unless each run's result line reports
# "correct": true and "failed": 0.
#
# After each workload's result it prints the exact work counters the
# traced run reports (rounds, claims, publish rounds, spill files, bytes
# and maps, KB bytes). They do not depend on timing, so two builds that do
# the same work print the same counters: diff two smoke logs to check.
#
#   ./scripts/perfbench_smoke.sh
set -euo pipefail
cd "$(dirname "$0")/.."

for workload in batch_tsv batch_bin_budget serve_stream; do
  echo "== perfbench ${workload}"
  # run.py keeps build output on stderr: the JSON result is the last
  # stdout line.
  python3 perfbench/run.py --workload "${workload}" --seed 1 --seconds 1 \
      --trace 1 | tail -n 1 | python3 -c '
import json
import sys

try:
    result = json.loads(sys.stdin.read())
except ValueError:
    sys.exit(sys.argv[1] + ": no JSON result line")
print("%s: correct=%s attempted=%s failed=%s" % (
    sys.argv[1], result.get("correct"), result.get("attempted"),
    result.get("failed")))
metrics = result.get("metrics", {})
for name in ("fusion.rounds", "fusion.claims", "kf.publish_rounds",
             "spill.files_written", "spill.bytes_written", "spill.maps_opened",
             "store.kb_bytes"):
    if name in metrics:
        print("%s: %s=%.17g" % (sys.argv[1], name, metrics[name]["value"]))
sys.exit(0 if result.get("correct") is True and result.get("failed") == 0
         else 1)
' "${workload}"
done
