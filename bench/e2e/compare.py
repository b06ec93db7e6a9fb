#!/usr/bin/env python3
"""A/B comparison of two checkouts on the end-to-end benchmark.

    python3 bench/e2e/compare.py PARENT_ROOT CHANGE_ROOT [--pairs 10] [--seed 1000]

Runs at least 10 parent/change pairs per workload, alternating which side
runs first, with the same seed on both sides of a pair. For every
end-to-end metric it prints each side's median and quartiles and the share
of pairs the change won (ties count for neither), then gives a verdict from
the bounds in BENCHMARK.json, in this order:

  regression  the change's median is worse than the parent's by more than
              the bound (for setup_s, by more than the bound or 50 ms,
              whichever is larger)
  improved    the change's median is better, the change won at least 9 of
              10 pairs, and the medians differ by more than the parent's IQR
  unresolved  the parent's own spread (IQR / median) exceeds the bound, and
              not every change run beats every parent run
  unchanged   otherwise

A workload's verdict is its worst metric verdict; a change that fails or
mis-verifies more runs than the parent is a regression. Exit code 1 on any
regression.
"""
import argparse
import hashlib
import json
import os
import statistics
import subprocess
import sys

MIN_PAIRS = 10
# Absolute allowance under which a metric's worsening never counts as a
# regression: set-up times of a few tens of milliseconds move by more than
# their bound on scheduler noise alone.
FLOORS = {"setup_s": 0.050}


def bench_digest(root):
    digest = hashlib.sha256()
    bench_dir = os.path.join(root, "bench", "e2e")
    for name in sorted(os.listdir(bench_dir)):
        path = os.path.join(bench_dir, name)
        if os.path.isfile(path):
            digest.update(name.encode())
            with open(path, "rb") as f:
                digest.update(f.read())
    return digest.hexdigest()


def run_once(root, workload, seed):
    proc = subprocess.run(
        ["bash", "bench/e2e/run.sh", "--workload", workload, "--seed", str(seed), "--trace", "0"],
        cwd=root, capture_output=True, text=True)
    lines = proc.stdout.strip().splitlines()
    result = None
    if lines:
        try:
            result = json.loads(lines[-1])
        except json.JSONDecodeError:
            result = None
    return {"exit": proc.returncode, "result": result}


def collect(args, bench):
    if args.pairs < MIN_PAIRS:
        sys.exit("compare.py: at least %d pairs are required" % MIN_PAIRS)
    if bench_digest(args.parent) != bench_digest(args.change):
        print("compare.py: warning: bench/e2e differs between the checkouts; "
              "a gain claim needs identical benchmark code", file=sys.stderr)
    records = []
    for workload in [w["name"] for w in bench["workloads"]]:
        for i in range(args.pairs):
            seed = args.seed + i
            sides = ["parent", "change"] if i % 2 == 0 else ["change", "parent"]
            for side in sides:
                root = args.parent if side == "parent" else args.change
                run = run_once(root, workload, seed)
                records.append({"workload": workload, "pair": i, "seed": seed, "side": side, **run})
                print("  %s pair %d %s: exit %d" % (workload, i, side, run["exit"]), file=sys.stderr)
    return records


def ok(record):
    result = record["result"]
    return record["exit"] == 0 and result is not None and result.get("correct") and result.get("failed") == 0


def summarize(values):
    q1, _, q3 = statistics.quantiles(values, n=4)
    return statistics.median(values), q1, q3


def verdict(metric, parent, change, pairs):
    """parent / change: value lists; pairs: (parent, change) tuples.

    Returns (label, spread, worse, wins); `worse` is the change's median
    relative to the parent's, positive when worse."""
    lower = metric["better"] == "lower"
    p_med, p_q1, p_q3 = summarize(parent)
    c_med, _, _ = summarize(change)
    spread = (p_q3 - p_q1) / abs(p_med) if p_med else float("inf")
    worse_abs = c_med - p_med if lower else p_med - c_med
    worse = worse_abs / abs(p_med) if p_med else 0.0
    allowance = max(metric["bound"] * abs(p_med), FLOORS.get(metric["name"], 0.0))
    better = (lambda c, p: c < p) if lower else (lambda c, p: c > p)
    wins = sum(1 for p, c in pairs if better(c, p))
    if worse_abs > allowance:
        label = "regression"
    elif worse_abs < 0 and wins >= 0.9 * len(pairs) and -worse_abs > p_q3 - p_q1:
        label = "improved"
    elif spread > metric["bound"] and not all(better(c, p) for c in change for p in parent):
        label = "unresolved"
    else:
        label = "unchanged"
    return label, spread, worse, wins


RANK = {"regression": 3, "unresolved": 2, "improved": 1, "unchanged": 0}


def evaluate(records, bench):
    any_regression = False
    workloads = []
    for record in records:
        if record["workload"] not in workloads:
            workloads.append(record["workload"])
    for workload in workloads:
        rows = [r for r in records if r["workload"] == workload]
        by_pair = {}
        for r in rows:
            by_pair.setdefault(r["pair"], {})[r["side"]] = r
        complete = [p for p in by_pair.values() if "parent" in p and "change" in p]
        failures = {side: sum(1 for p in complete if not ok(p[side])) for side in ("parent", "change")}
        usable = [p for p in complete if ok(p["parent"]) and ok(p["change"])]
        print("%s: %d pairs (%d usable), failed runs parent %d / change %d"
              % (workload, len(complete), len(usable), failures["parent"], failures["change"]))
        worst = "regression" if failures["change"] > failures["parent"] else "unchanged"
        if len(usable) < MIN_PAIRS:
            print("  fewer than %d usable pairs: unresolved" % MIN_PAIRS)
            worst = max(worst, "unresolved", key=RANK.get)
        else:
            print("  %-18s %12s %12s %12s  %12s %12s %12s  %5s %7s %7s  %s" % (
                "metric", "parent p50", "p25", "p75", "change p50", "p25", "p75",
                "wins", "spread", "worse", "verdict"))
            for metric in bench["end_to_end"]:
                name = metric["name"]
                parent = [p["parent"]["result"]["metrics"][name]["value"] for p in usable]
                change = [p["change"]["result"]["metrics"][name]["value"] for p in usable]
                label, spread, worse, wins = verdict(metric, parent, change, list(zip(parent, change)))
                p_med, p_q1, p_q3 = summarize(parent)
                c_med, c_q1, c_q3 = summarize(change)
                print("  %-18s %12.5g %12.5g %12.5g  %12.5g %12.5g %12.5g  %2d/%-2d %7.3f %+7.3f  %s" % (
                    name, p_med, p_q1, p_q3, c_med, c_q1, c_q3, wins, len(usable), spread, worse, label))
                worst = max(worst, label, key=RANK.get)
        print("  verdict: %s" % worst)
        any_regression = any_regression or worst == "regression"
    return any_regression


def main():
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("parent")
    parser.add_argument("change")
    parser.add_argument("--pairs", type=int, default=MIN_PAIRS)
    parser.add_argument("--seed", type=int, default=1000)
    args = parser.parse_args()
    with open(os.path.join(args.change, "BENCHMARK.json")) as f:
        bench = json.load(f)
    sys.exit(1 if evaluate(collect(args, bench), bench) else 0)


if __name__ == "__main__":
    main()
