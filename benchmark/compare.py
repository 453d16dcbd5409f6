#!/usr/bin/env python3
"""Compares two run sets of the benchmark, metric by metric.

    python3 benchmark/compare.py BASE_DIR HEAD_DIR [--benchmark FILE]

A run set is a directory of result files written by run.py (several runs
per workload, e.g. from --repeat or from several seeds).  For every
(workload, end-to-end metric) of BENCHMARK.json it prints each side's median
and quartiles and a verdict:

  regressed   the head median is worse than the base median by more than
              the metric's bound;
  improved    over at least ten pairs of runs, the head wins at least 9 of
              10 pairs and the medians differ by more than the base runs'
              quartile distance;
  unresolved  a side's quartile distance exceeds the bound, so the runs
              cannot show a change of that size either way -- unless every
              head run beats every base run;
  unchanged   otherwise.

Report-quality metrics are deterministic for a seed, so they are compared
exactly, run against paired run: any difference is a change.  Runs are
paired in (seed, file name) order.  Per-layer metrics of traced runs are
listed with their change, without a verdict.  Exits 1 on any regression, on
a head run that is invalid, when the head's failed share rises, when the
head has fewer runs of a (workload, traced) kind than the base (a run that
crashed wrote no file), or when a metric the base reports is missing from a
head run.
"""

import argparse
import glob
import json
import os
import statistics
import sys

# Metrics that are a pure function of the seed's inputs and the code.
EXACT = {"resolution_mean", "fhi_mean", "accuracy", "tier_accuracy"}
CLAIM_WIN_SHARE = 0.9
CLAIM_MIN_PAIRS = 10

HERE = os.path.dirname(os.path.abspath(__file__))


def load_runs(directory):
    """Returns {(workload, traced): [run, ...]} sorted by (seed, file)."""
    runs = {}
    for path in sorted(glob.glob(os.path.join(directory, "*.json"))):
        if path.endswith(".trace.json"):
            continue
        with open(path) as f:
            data = json.load(f)
        meta = data["meta"]
        key = (meta["workload"], bool(meta["trace"]))
        runs.setdefault(key, []).append(
            (meta["seed"], os.path.basename(path), data["result"]))
    return {k: [r for _, _, r in sorted(v)] for k, v in runs.items()}


def summary(values):
    """(median, q1, q3) as statistics.quantiles gives the quartiles."""
    med = statistics.median(values)
    if len(values) < 2:
        return med, med, med
    q1, _, q3 = statistics.quantiles(values, n=4)
    return med, q1, q3


def verdict(base, head, better, bound, exact):
    """Verdict for one metric given the base and head values."""
    sign = 1.0 if better == "higher" else -1.0
    b_med, b_q1, b_q3 = summary(base)
    h_med, h_q1, h_q3 = summary(head)
    gain = sign * (h_med - b_med) / abs(b_med) if b_med else 0.0
    pairs = list(zip(base, head))
    if exact:
        if all(b == h for b, h in pairs):
            return "unchanged"
        return "improved" if gain > 0 else "regressed"
    if gain < -bound:
        return "regressed"
    wins = sum(1 for b, h in pairs if sign * (h - b) > 0)
    all_better = (min(sign * h for h in head) > max(sign * b for b in base))
    spread = max((b_q3 - b_q1) / abs(b_med) if b_med else 0.0,
                 (h_q3 - h_q1) / abs(h_med) if h_med else 0.0)
    if (len(pairs) >= CLAIM_MIN_PAIRS and wins >= CLAIM_WIN_SHARE * len(pairs)
            and abs(h_med - b_med) > b_q3 - b_q1):
        return "improved"
    if spread > bound and not all_better:
        return "unresolved"
    return "unchanged"


def failed_share(runs):
    attempted = sum(r["attempted"] for r in runs)
    return sum(r["failed"] for r in runs) / attempted if attempted else 0.0


def fmt(med, q1, q3):
    return f"{med:.5g} [{q1:.5g}, {q3:.5g}]"


def compare(base_dir, head_dir, spec, out):
    """Prints the comparison to `out`; returns the exit status."""
    base_runs = load_runs(base_dir)
    head_runs = load_runs(head_dir)
    status = 0
    out.write(f"{'workload':16} {'metric':24} {'base median [q1, q3]':34} "
              f"{'head median [q1, q3]':34} {'change':>8} {'wins':>6}  "
              "verdict\n")
    for (workload, traced), base in sorted(base_runs.items()):
        head = head_runs.get((workload, traced), [])
        kind = "traced " if traced else ""
        # A run that crashed writes no result file, so a missing head run
        # is a failed one.
        if len(head) < len(base):
            out.write(f"{workload:16} {len(head)} {kind}head runs for "
                      f"{len(base)} base runs\n")
            status = 1
        if not head:
            continue
        for r in head:
            if not r["correct"]:
                out.write(f"{workload:16} a head run is invalid\n")
                status = 1
        if not traced and failed_share(head) > failed_share(base):
            out.write(f"{workload:16} failed share rose: "
                      f"{failed_share(base):.4g} -> {failed_share(head):.4g}\n")
            status = 1
        metrics = spec["per_layer"] if traced else spec["end_to_end"]
        for m in metrics:
            name = m["name"]
            b = [r["metrics"][name]["value"] for r in base
                 if name in r["metrics"]]
            h = [r["metrics"][name]["value"] for r in head
                 if name in r["metrics"]]
            if not b:
                continue
            if len(h) < len(head):
                out.write(f"{workload:16} {name:24} missing from "
                          f"{len(head) - len(h)} head runs\n")
                status = 1
            if not h:
                continue
            bs, hs = summary(b), summary(h)
            change = (hs[0] - bs[0]) / abs(bs[0]) if bs[0] else 0.0
            sign = 1.0 if m["better"] == "higher" else -1.0
            wins = sum(1 for x, y in zip(b, h) if sign * (y - x) > 0)
            if traced:
                v = "-"
            else:
                v = verdict(b, h, m["better"], m["bound"], name in EXACT)
                if v == "regressed":
                    status = 1
            out.write(f"{workload:16} {name:24} {fmt(*bs):34} {fmt(*hs):34} "
                      f"{change:+8.2%} {wins:>2}/{min(len(b), len(h)):<3}  "
                      f"{v}\n")
    return status


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("base")
    parser.add_argument("head")
    parser.add_argument("--benchmark",
                        default=os.path.join(os.path.dirname(HERE),
                                             "BENCHMARK.json"))
    args = parser.parse_args(argv)
    with open(args.benchmark) as f:
        spec = json.load(f)
    return compare(args.base, args.head, spec, sys.stdout)


if __name__ == "__main__":
    sys.exit(main())
