#!/usr/bin/env python3
"""A/B comparison of two xlvm checkouts on the host-time benchmark.

    python3 perfbench/compare.py run --parent A --change B --out DIR
    python3 perfbench/compare.py report DIR

`run` alternates the two checkouts for 10 pairs (the parent goes first in
even pairs, the change in odd ones), each pair on its own seed, on every
workload of BENCHMARK.json, and stores every result line under
DIR/parent and DIR/change. The first 3 pairs also make a traced run on
each side. Run length is BENCHMARK.json's run_seconds on both sides.
Each checkout builds its own copy of the benchmark into its
.bench_build/.

`report` applies the gain rule for a noisy shared machine: a metric improves
only if the change wins at least 9 of every 10 pairs (ties count for
neither side) and the medians differ by more than the parent's
interquartile range. It prints one row per workload. A metric whose
median got worse by more than its bound reads "worse"; one whose
run-to-run spread exceeds its bound reads "unresolved" unless every
change run beat every parent run; one better by more than its bound
without meeting the gain rule reads "improved". A gain does not count
when the change failed more runs than the parent. The traced runs add
the per-layer self-time deltas.

Bounds, units and directions come from BENCHMARK.json next to this
directory.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SIDES = ("parent", "change")
PAIRS = 10
TRACED_PAIRS = 3
SEED_BASE = 1000
WIN_SHARE = 0.9


def load_spec():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        return json.load(f)


def run_one(checkout, workload, seed, seconds, trace):
    cmd = [sys.executable, os.path.join(checkout, "perfbench", "run.py"),
           "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)]
    out = subprocess.run(cmd, cwd=checkout, stdout=subprocess.PIPE,
                         text=True, check=True).stdout
    return json.loads(out.strip().splitlines()[-1])


def result_path(out, side, workload, pair, trace):
    return os.path.join(out, side, "%s-%02d-t%d.json" % (workload, pair,
                                                         trace))


def cmd_run(args):
    spec = load_spec()
    workloads = [w["name"] for w in spec["workloads"]]
    seconds = spec["run_seconds"]
    checkouts = {"parent": os.path.abspath(args.parent),
                 "change": os.path.abspath(args.change)}
    for side in SIDES:
        os.makedirs(os.path.join(args.out, side), exist_ok=True)
    for pair in range(PAIRS):
        order = SIDES if pair % 2 == 0 else SIDES[::-1]
        traces = (0, 1) if pair < TRACED_PAIRS else (0,)
        for workload in workloads:
            for trace in traces:
                for side in order:
                    res = run_one(checkouts[side], workload,
                                  SEED_BASE + pair, seconds, trace)
                    with open(result_path(args.out, side, workload, pair,
                                          trace), "w") as f:
                        json.dump(res, f)
                    print("pair %d %s %s trace %d: correct %s" %
                          (pair, workload, side, trace, res["correct"]),
                          file=sys.stderr)


def load_results(out, side, workload, trace):
    """Results of one side, keyed by pair index."""
    results = {}
    prefix = "%s-" % workload
    suffix = "-t%d.json" % trace
    side_dir = os.path.join(out, side)
    for name in sorted(os.listdir(side_dir)):
        if name.startswith(prefix) and name.endswith(suffix):
            pair = int(name[len(prefix):-len(suffix)])
            with open(os.path.join(side_dir, name)) as f:
                results[pair] = json.load(f)
    return results


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def verdict(metric, parent, change, more_failures):
    """Classify one end-to-end metric over paired runs."""
    lower = metric["better"] == "lower"
    bound = metric["bound"]
    n = len(parent)
    p1, pm, p3 = quartiles(parent)
    c1, cm, c3 = quartiles(change)
    better = (lambda a, b: a < b) if lower else (lambda a, b: a > b)
    wins = sum(1 for p, c in zip(parent, change) if better(c, p))
    delta = (cm - pm) / pm if pm else 0.0
    worse_by = delta if lower else -delta
    spread = max((p3 - p1) / pm if pm else 0.0, (c3 - c1) / cm if cm else 0.0)
    all_better = all(better(c, p) for c in change for p in parent)
    if (n >= PAIRS and wins >= WIN_SHARE * n and better(cm, pm)
            and abs(cm - pm) > p3 - p1 and not more_failures):
        label = "better"
    elif spread > bound and not all_better:
        label = "unresolved"
    elif worse_by > bound:
        label = "worse"
    elif -worse_by > bound:
        label = "improved"
    else:
        label = "same"
    return {"label": label, "delta": delta, "wins": wins, "n": n,
            "parent": (pm, p1, p3), "change": (cm, c1, c3),
            "spread": spread}


def cmd_report(args):
    spec = load_spec()
    metrics = spec["end_to_end"]
    workloads = [w["name"] for w in spec["workloads"]]
    width = max(len(m["name"]) for m in metrics) + 16
    print("%-12s" % "workload" +
          "".join("%-*s" % (width, m["name"]) for m in metrics))
    details = []
    for workload in workloads:
        res = {side: load_results(args.dir, side, workload, 0)
               for side in SIDES}
        pairs = sorted(set(res["parent"]) & set(res["change"]))
        if not pairs:
            continue
        failed = {side: sum(res[side][i]["failed"] for i in pairs)
                  for side in SIDES}
        row = "%-12s" % workload
        for m in metrics:
            parent = [res["parent"][i]["metrics"][m["name"]]["value"]
                      for i in pairs]
            change = [res["change"][i]["metrics"][m["name"]]["value"]
                      for i in pairs]
            v = verdict(m, parent, change,
                        failed["change"] > failed["parent"])
            row += "%-*s" % (width, "%+.1f%% %s" % (100 * v["delta"],
                                                     v["label"]))
            details.append((workload, m, v))
        if failed["parent"] or failed["change"]:
            row += "  (failed runs: parent %d, change %d)" % (
                failed["parent"], failed["change"])
        print(row)

    print("\nper metric: parent median [q1, q3] -> change median "
          "[q1, q3], wins/pairs, spread vs bound")
    for workload, m, v in details:
        print("  %-10s %-12s %.6g [%.6g, %.6g] -> %.6g [%.6g, %.6g] "
              "%d/%d, spread %.3f vs %.3f: %s" %
              ((workload, m["name"]) + v["parent"] + v["change"] +
               (v["wins"], v["n"], v["spread"], m["bound"], v["label"])))

    print("\nper-layer self time per pass (traced runs, medians):")
    for workload in workloads:
        res = {side: load_results(args.dir, side, workload, 1)
               for side in SIDES}
        if not res["parent"] or not res["change"]:
            continue
        rows = []
        for name in next(iter(res["parent"].values()))["metrics"]:
            if not name.endswith("_ms") and name != "gc.ms":
                continue
            p = statistics.median(r["metrics"][name]["value"]
                                  for r in res["parent"].values())
            c = statistics.median(r["metrics"][name]["value"]
                                  for r in res["change"].values()
                                  if name in r["metrics"])
            rows.append((abs(c - p), name, p, c))
        print("  %s (%d/%d traced runs)" % (workload, len(res["parent"]),
                                            len(res["change"])))
        for _, name, p, c in sorted(rows, reverse=True):
            pct = 100 * (c - p) / p if p else 0.0
            print("    %-24s %10.2f -> %10.2f ms  %+9.2f ms  %+6.1f%%" %
                  (name, p, c, c - p, pct))


def main():
    parser = argparse.ArgumentParser(
        description="A/B comparison on the xlvm host-time benchmark")
    sub = parser.add_subparsers(dest="cmd", required=True)
    run = sub.add_parser("run", help="run alternating parent/change pairs")
    run.add_argument("--parent", required=True, help="parent checkout")
    run.add_argument("--change", required=True, help="change checkout")
    run.add_argument("--out", required=True, help="results directory")
    rep = sub.add_parser("report", help="compare stored results")
    rep.add_argument("dir", help="results directory written by run")
    args = parser.parse_args()
    if args.cmd == "run":
        cmd_run(args)
    else:
        cmd_report(args)


if __name__ == "__main__":
    main()
