#!/usr/bin/env python3
"""Diff two google-benchmark JSON files (e.g. BENCH_perf.json) by name.

    scripts/bench_compare.py OLD.json NEW.json [--threshold PCT] [--metric M]

Prints one row per benchmark present in either file with the % delta of
real_time (negative = faster). Exits 1 when any benchmark regressed by
more than --threshold percent (default 10), which makes it usable as a
CI / pre-commit gate:

    ./scripts/bench.sh                           # records BENCH_perf.json
    scripts/bench_compare.py old.json BENCH_perf.json --threshold 10

Only per-iteration entries are compared (aggregate rows such as _mean /
_stddev are skipped). Repetitions of one benchmark
(--benchmark_repetitions) are merged by their median, so one slow
repetition cannot fail a row. Each row also prints the baseline's
interquartile range (IQR) across its repetitions, as a percent of the
baseline median, and is tagged "noise" when the candidate median lies
inside that range: such a delta is within the baseline's own spread.
The tag is informational; the --threshold gate is unchanged. Baseline benchmarks missing from the candidate also
fail the gate (a renamed or deleted bench must not silently drop out of
comparison); benches only in the candidate are informational. A "debug"
kf_build_type in either context block is reported loudly: debug numbers
must never serve as a baseline.

Benchmarks that report a throughput counter (items_per_second — e.g. the
BM_KbServerQps serving series, where per-iteration time is a poor proxy
for multi-threaded QPS — or bytes_per_second, the headline metric of the
bench_store load/save series) are additionally gated on throughput: a
drop of more than --threshold percent fails even when per-iteration time
looks flat.

Scaling-curve families (BM_ScalingCurve*/W, where W is the worker count)
are additionally gated on parallel efficiency

    eff(W) = time(1 worker) / (W * time(W workers))

computed per file from the family's own 1-worker row. Per-name time
deltas cannot see a scaling regression when every worker count slows
down proportionally less (or the 1-worker row speeds up more) — the
efficiency gate fails when eff drops by more than --threshold percent
relative to the baseline's efficiency at the same worker count.
"""

import argparse
import json
import re
import statistics
import sys

MERGED_METRICS = ("real_time", "cpu_time", "items_per_second",
                  "bytes_per_second")


def load(path):
    with open(path) as f:
        doc = json.load(f)
    reps = {}
    for b in doc.get("benchmarks", []):
        if b.get("run_type", "iteration") != "iteration":
            continue  # skip _mean/_median/_stddev aggregates
        reps.setdefault(b["name"], []).append(b)
    # With --benchmark_repetitions every repetition shares one name;
    # compare the median over repetitions (a mean lets one slow
    # repetition move the row) and keep the quartiles for the IQR.
    runs = {}
    for name, entries in reps.items():
        merged = dict(entries[0])
        merged["quartiles"] = {}
        for metric in MERGED_METRICS:
            vals = [e[metric] for e in entries if metric in e]
            if not vals:
                continue
            merged[metric] = statistics.median(vals)
            if len(vals) > 1:
                q1, _, q3 = statistics.quantiles(vals, n=4,
                                                 method="inclusive")
                merged["quartiles"][metric] = (q1, q3)
        runs[name] = merged
    return doc.get("context", {}), runs


def iqr_and_tag(old, new_value, metric):
    """The baseline IQR as a percent of its median, and the row's tag."""
    quartiles = old["quartiles"].get(metric)
    if quartiles is None or not old[metric]:
        return f"{'-':>7}", ""
    q1, q3 = quartiles
    iqr = (q3 - q1) / old[metric] * 100.0
    return f"{iqr:>6.1f}%", "noise" if q1 <= new_value <= q3 else ""


def build_type(context):
    # kf_build_type is bench_perf's own marker for how the *binary* was
    # compiled. Deliberately NOT falling back to library_build_type: that
    # only describes the benchmark library (often a debug build even under
    # a Release configure), so inheriting it would cry wolf on every
    # valid pre-kf_build_type recording.
    return context.get("kf_build_type", "unknown")


SCALING_RE = re.compile(r"^(BM_ScalingCurve\w*)/(\d+)$")


def scaling_efficiencies(runs, metric):
    """Per scaling family: {worker_count: efficiency} from one file's runs."""
    families = {}
    for name, run in runs.items():
        m = SCALING_RE.match(name)
        if not m:
            continue
        families.setdefault(m.group(1), {})[int(m.group(2))] = run[metric]
    effs = {}
    for family, times in families.items():
        t1 = times.get(1)
        if not t1:
            continue  # no 1-worker reference row (or zero time): skip
        effs[family] = {
            w: t1 / (w * tw) for w, tw in times.items() if w > 1 and tw
        }
    return effs


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("old", help="baseline JSON (e.g. a stashed BENCH_perf.json)")
    ap.add_argument("new", help="candidate JSON")
    ap.add_argument(
        "--threshold",
        type=float,
        default=10.0,
        help="fail (exit 1) when any benchmark slows down by more than this "
        "percent (default: %(default)s)",
    )
    ap.add_argument(
        "--metric",
        default="real_time",
        choices=["real_time", "cpu_time"],
        help="which per-iteration time to compare (default: %(default)s)",
    )
    args = ap.parse_args()

    old_ctx, old_runs = load(args.old)
    new_ctx, new_runs = load(args.new)

    for label, ctx in (("old", old_ctx), ("new", new_ctx)):
        bt = build_type(ctx)
        if bt == "debug":
            print(f"WARNING: {label} baseline kf_build_type={bt!r} — "
                  "not a release recording", file=sys.stderr)
        elif bt != "release":
            print(f"note: {label} baseline has no kf_build_type marker "
                  "(pre-marker recording); cannot verify it was Release",
                  file=sys.stderr)

    names = sorted(set(old_runs) | set(new_runs))
    width = max((len(n) for n in names), default=4)
    print(f"{'benchmark':<{width}}  {'old':>12}  {'new':>12}  {'delta':>8}  "
          f"{'old IQR':>7}")
    regressions = []
    vanished = []  # baseline benches absent from the candidate
    mismatched = []  # time-unit changes, incomparable
    for name in names:
        o, n = old_runs.get(name), new_runs.get(name)
        if o is None or n is None:
            status = "only in new" if o is None else "only in old"
            t = (n or o)[args.metric]
            unit = (n or o).get("time_unit", "ns")
            print(f"{name:<{width}}  {'-':>12}  {t:>10.3f}{unit}  {status:>8}"
                  if o is None else
                  f"{name:<{width}}  {t:>10.3f}{unit}  {'-':>12}  {status:>8}")
            if n is None:
                vanished.append(name)
            continue
        if o.get("time_unit") != n.get("time_unit"):
            # A unit change must not silently drop the bench out of the
            # gate, same rationale as the vanished-baseline failure.
            print(f"{name:<{width}}  incomparable time units "
                  f"({o.get('time_unit')} vs {n.get('time_unit')})")
            mismatched.append(name)
            continue
        unit = o.get("time_unit", "ns")
        ot, nt = o[args.metric], n[args.metric]
        delta = (nt - ot) / ot * 100.0 if ot else float("inf")
        iqr, tag = iqr_and_tag(o, nt, args.metric)
        print(f"{name:<{width}}  {ot:>10.3f}{unit}  {nt:>10.3f}{unit}  "
              f"{delta:>+7.1f}%  {iqr}  {tag}".rstrip())
        if delta > args.threshold:
            regressions.append((name, delta))
        # Throughput gates: items/sec (multi-threaded QPS benches) or
        # bytes/sec (the bench_store MB/s series) shrinking is a
        # regression even when per-iteration time stays flat.
        for metric, label in (("items_per_second", "items/sec"),
                              ("bytes_per_second", "MB/s")):
            om, nm = o.get(metric), n.get(metric)
            if om and nm is not None:
                tdelta = (nm - om) / om * 100.0
                if tdelta < -args.threshold:
                    print(f"{name + ' [' + label + ']':<{width}}  "
                          f"{om:>11.4g}/s  {nm:>11.4g}/s  {tdelta:>+7.1f}%")
                    regressions.append((f"{name} [{label}]", -tdelta))

    # Parallel-efficiency gate over the scaling-curve families.
    old_effs = scaling_efficiencies(old_runs, args.metric)
    new_effs = scaling_efficiencies(new_runs, args.metric)
    eff_regressions = []
    shared_families = sorted(set(old_effs) & set(new_effs))
    if shared_families:
        print("\nparallel efficiency (eff = t1 / (w * tw)):")
        for family in shared_families:
            for w in sorted(set(old_effs[family]) & set(new_effs[family])):
                oe, ne = old_effs[family][w], new_effs[family][w]
                delta = (ne - oe) / oe * 100.0 if oe else float("inf")
                print(f"  {family}/{w}: {oe:.3f} -> {ne:.3f} ({delta:+.1f}%)")
                if delta < -args.threshold:
                    eff_regressions.append((f"{family}/{w}", delta))

    failed = False
    if eff_regressions:
        print(f"\n{len(eff_regressions)} parallel-efficiency regression(s) "
              f"beyond {args.threshold:.1f}%:", file=sys.stderr)
        for name, delta in eff_regressions:
            print(f"  {name}: {delta:+.1f}%", file=sys.stderr)
        failed = True
    if mismatched:
        print(f"\n{len(mismatched)} benchmark(s) with incomparable time "
              "units (re-record the baseline):", file=sys.stderr)
        for name in mismatched:
            print(f"  {name}", file=sys.stderr)
        failed = True
    if vanished:
        # A removed/renamed benchmark escapes the delta gate entirely, so
        # it must fail too: a silently dropped baseline is how a
        # regression hides from CI.
        print(f"\n{len(vanished)} baseline benchmark(s) missing from "
              f"{args.new}:", file=sys.stderr)
        for name in vanished:
            print(f"  {name}", file=sys.stderr)
        failed = True
    if regressions:
        print(f"\n{len(regressions)} regression(s) above "
              f"{args.threshold:.1f}%:", file=sys.stderr)
        for name, delta in regressions:
            print(f"  {name}: {delta:+.1f}%", file=sys.stderr)
        failed = True
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
