#!/usr/bin/env python3
"""A/B comparison of two benchmark result sets (benchmark/README.md).

Collect alternating pairs of runs from two checkouts, then judge them:

    python3 benchmark/compare.py run --parent ../parent --change . \\
        --pairs 10 --out ab/
    python3 benchmark/compare.py ab/parent.jsonl ab/change.jsonl

A result set is JSONL, one run per line:
{"workload": ..., "seed": ..., "result": <run.py's last stdout line>}.
The i-th run of a workload in one set is paired with the i-th in the
other. One row per (workload, end-to-end metric) of BENCHMARK.json:

  better        the change wins >= 9/10 of >= 10 pairs (ties count for
                neither) and the medians differ by more than the parent's
                interquartile range;
  worse         the change's median is worse than the parent's by more
                than the metric's bound;
  unresolved    a side's spread (IQR / median) exceeds the bound, unless
                every change run reads better than every parent run;
  within bound  otherwise;
  missing       a side has no reading of the metric.

The failed/attempted ratio is compared per workload and fails when it
rises. Exits 1 when any row is worse, unresolved or missing, or a fail
ratio rose.
"""

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
WORKLOADS = ("paper_figs", "scale_10k", "olsr_1k", "serve_mixed")


def load_set(path):
    runs = {}
    with open(path) as f:
        for line in f:
            if line.strip():
                entry = json.loads(line)
                runs.setdefault(entry["workload"], []).append(entry)
    return runs


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0]
    q = statistics.quantiles(values, n=4)
    return q[0], q[2]


def relative_spread(values):
    q1, q3 = quartiles(values)
    median = statistics.median(values)
    return (q3 - q1) / abs(median) if median else float("inf")


def judge(parent, change, metric):
    """Verdict for one (workload, metric): (verdict, details dict)."""
    lower = metric["better"] == "lower"
    bound = metric["bound"]
    p_med = statistics.median(parent)
    c_med = statistics.median(change)
    worsening = (c_med - p_med) / p_med if lower else (p_med - c_med) / p_med
    pairs = list(zip(parent, change))
    wins = sum(1 for p, c in pairs if (c < p if lower else c > p))
    q1, q3 = quartiles(parent)
    spread = max(relative_spread(parent), relative_spread(change))
    all_better = (max(change) < min(parent)) if lower else (
        min(change) > max(parent))

    if (len(pairs) >= 10 and wins >= 0.9 * len(pairs) and
            abs(c_med - p_med) > q3 - q1 and worsening < 0):
        verdict = "better"
    elif spread > bound and not all_better:
        verdict = "unresolved"
    elif worsening > bound:
        verdict = "worse"
    else:
        verdict = "within bound"
    return verdict, {"parent_median": p_med, "change_median": c_med,
                     "parent_q1": q1, "parent_q3": q3, "change": worsening,
                     "spread": spread, "wins": wins, "pairs": len(pairs)}


def values(entries, name):
    """The metric's readings; a run that failed before measuring it has
    none (its failure shows in the fail ratio)."""
    return [e["result"]["metrics"][name]["value"] for e in entries
            if name in e["result"]["metrics"]]


def fail_ratio(entries):
    attempted = sum(e["result"]["attempted"] for e in entries)
    failed = sum(e["result"]["failed"] for e in entries)
    return failed / attempted if attempted else 1.0


def report(parent_path, change_path):
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    parent_set, change_set = load_set(parent_path), load_set(change_path)
    ok = True
    print("%-12s %-14s %12s %12s %8s %7s %6s  %s" % (
        "workload", "metric", "parent", "change", "change", "spread",
        "wins", "verdict"))
    for workload in WORKLOADS:
        parent, change = parent_set.get(workload), change_set.get(workload)
        if not parent or not change:
            continue
        for metric in spec["end_to_end"]:
            name = metric["name"]
            p = values(parent, name)
            c = values(change, name)
            if not p or not c:
                ok = False
                print("%-12s %-14s %s" % (workload, name, "missing"))
                continue
            verdict, d = judge(p, c, metric)
            ok = ok and verdict in ("better", "within bound")
            print("%-12s %-14s %12.6g %12.6g %+7.1f%% %6.1f%% %3d/%-2d  %s"
                  " (bound %g%%)" % (
                      workload, name, d["parent_median"], d["change_median"],
                      100 * d["change"], 100 * d["spread"], d["wins"],
                      d["pairs"], verdict, 100 * metric["bound"]))
        p_fail, c_fail = fail_ratio(parent), fail_ratio(change)
        rose = c_fail > p_fail
        ok = ok and not rose
        print("%-12s %-14s %12.6g %12.6g %24s  %s" % (
            workload, "fail_ratio", p_fail, c_fail, "",
            "ROSE" if rose else "not higher"))
    return 0 if ok else 1


def run_side(root, workload, seed, out):
    done = subprocess.run(
        [sys.executable, "benchmark/run.py", "--workload", workload,
         "--seed", str(seed)], cwd=root, capture_output=True, text=True)
    lines = done.stdout.strip().splitlines()
    if not lines:
        raise SystemExit("%s: %s produced no result\n%s" %
                         (root, workload, done.stderr[-2000:]))
    entry = {"workload": workload, "seed": seed,
             "result": json.loads(lines[-1])}
    out.write(json.dumps(entry) + "\n")
    out.flush()


def collect(args):
    args.out.mkdir(parents=True, exist_ok=True)
    paths = {"parent": args.out / "parent.jsonl",
             "change": args.out / "change.jsonl"}
    roots = {"parent": args.parent, "change": args.change}
    workloads = args.workload or list(WORKLOADS)
    with open(paths["parent"], "w") as p_out, open(paths["change"],
                                                   "w") as c_out:
        outs = {"parent": p_out, "change": c_out}
        for i in range(args.pairs):
            order = ("parent", "change") if i % 2 == 0 else ("change",
                                                             "parent")
            for workload in workloads:
                for side in order:
                    run_side(roots[side], workload, args.first_seed + i,
                             outs[side])
    return report(paths["parent"], paths["change"])


def main():
    if len(sys.argv) > 1 and sys.argv[1] == "run":
        parser = argparse.ArgumentParser(
            description="collect alternating parent/change pairs")
        parser.add_argument("--parent", type=Path, required=True)
        parser.add_argument("--change", type=Path, required=True)
        parser.add_argument("--pairs", type=int, default=10)
        parser.add_argument("--first-seed", type=int, default=1)
        parser.add_argument("--workload", action="append",
                            choices=WORKLOADS)
        parser.add_argument("--out", type=Path, required=True)
        return collect(parser.parse_args(sys.argv[2:]))
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("parent", type=Path)
    parser.add_argument("change", type=Path)
    args = parser.parse_args()
    return report(args.parent, args.change)


if __name__ == "__main__":
    sys.exit(main())
