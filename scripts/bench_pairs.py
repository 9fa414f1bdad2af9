"""Compare two checkouts on benchmark workloads in alternating pairs.

    python3 scripts/bench_pairs.py PARENT_DIR CHANGE_DIR [--workload W ...] --pairs N --seed0 S

`--workload` may be repeated; without it, every workload of the change's
BENCHMARK.json runs, in its order. Each workload runs all its pairs and
prints its report before the next starts. Pair i runs
`bench/run.py --workload W --seed S+i --trace 0` once in each
checkout, the parent first on even pairs and the change first on odd ones,
so drift of the host between runs falls on both sides alike. For every
end-to-end metric of the change's BENCHMARK.json it prints the median
[q1, q3] of each side and how many pairs the change won, then a verdict
line: whether a gain may be claimed (the change won at least 9/10 of the
pairs and the medians differ in its favour by more than the parent's
interquartile range), and whether the change's median stays within the
metric's `bound`, the fraction of the parent's median by which it may be
worse. Last come how many runs reported `correct` and the failed/attempted
totals.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys

import numpy as np


def run_once(checkout, workload, seed):
    cmd = [sys.executable, os.path.join("bench", "run.py"), "--workload", workload, "--seed", str(seed), "--trace", "0"]
    proc = subprocess.run(cmd, cwd=checkout, capture_output=True, text=True)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise SystemExit(f"{checkout}: bench/run.py exited {proc.returncode}\n{proc.stderr[-2000:]}")
    return json.loads(lines[-1])


def quartiles(values):
    q1, med, q3 = np.percentile(values, [25, 50, 75])
    return f"{med:.4g} [{q1:.4g}, {q3:.4g}]"


def compare(parent, change, better, bound):
    """(pairs the change won, verdict) for one metric, from each side's values in pair order.

    The verdict says whether the gain rule holds and whether the change's
    median is worse than the parent's by no more than bound (a fraction).
    """
    sign = 1 if better == "higher" else -1
    wins = int(np.sum(sign * (change - parent) > 0))
    q1, med, q3 = np.percentile(parent, [25, 50, 75])
    gap = sign * (np.median(change) - med)  # > 0 in the change's favour
    gain = wins * 10 >= 9 * len(parent) and gap > q3 - q1
    worse = -gap / abs(med) if med else 0.0
    return wins, (
        f"gain {'holds' if gain else 'not shown'} (won {wins}/{len(parent)}, median gap {gap:+.4g} vs parent IQR "
        f"{q3 - q1:.4g}); {'within' if worse <= bound else 'OUTSIDE'} bound (median {'worse' if worse > 0 else 'better'} "
        f"by {abs(worse):.1%}, bound {bound:.0%})"
    )


def report(sides, workload, pairs, seed0, end_to_end):
    """Run the pairs of one workload and print its report."""
    results = {side: [] for side in sides}
    for i in range(pairs):
        order = ("parent", "change") if i % 2 == 0 else ("change", "parent")
        for side in order:
            results[side].append(run_once(sides[side], workload, seed0 + i))
        print(f"{workload}: pair {i + 1}/{pairs} done", file=sys.stderr, flush=True)

    print(f"{workload}: {pairs} pairs, seeds {seed0}-{seed0 + pairs - 1}, parent first on even pairs")
    for entry in end_to_end:
        name = entry["name"]
        values = {side: np.array([r["metrics"][name]["value"] for r in results[side]]) for side in sides}
        wins, text = compare(values["parent"], values["change"], entry["better"], entry["bound"])
        print(f"  {name} ({entry['unit']}): parent {quartiles(values['parent'])} -> "
              f"change {quartiles(values['change'])}, change won {wins}/{pairs}")
        print(f"    verdict: {text}")
    for side in sides:
        runs = results[side]
        correct = sum(bool(r["correct"]) for r in runs)
        failed, attempted = sum(r["failed"] for r in runs), sum(r["attempted"] for r in runs)
        print(f"  {side}: correct {correct}/{len(runs)}, failed/attempted {failed}/{attempted}", flush=True)


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("parent_dir")
    p.add_argument("change_dir")
    p.add_argument("--workload", action="append", help="repeatable; default: every workload of BENCHMARK.json")
    p.add_argument("--pairs", type=int, default=10)
    p.add_argument("--seed0", type=int, default=0)
    args = p.parse_args(argv)
    with open(os.path.join(args.change_dir, "BENCHMARK.json"), encoding="utf-8") as f:
        bench = json.load(f)

    sides = {"parent": args.parent_dir, "change": args.change_dir}
    for workload in args.workload or [w["name"] for w in bench["workloads"]]:
        report(sides, workload, args.pairs, args.seed0, bench["end_to_end"])
    return 0


if __name__ == "__main__":
    sys.exit(main())
