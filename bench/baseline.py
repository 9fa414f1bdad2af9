"""Print the ROADMAP "Baseline" table from traced runs.

    python3 bench/baseline.py [--seed N] [--seconds S]

Runs `run.py --trace 1` on train-300k-cifar and train-tiny-mnist, each in
a fresh process, and reads their reports from .bench_work/. The table
gives each layer kind's share of forward plus backward time per step
(no SGD, as in the ROADMAP), and the single 32->32 3x3 conv breakdown
at 32x32, batch 128.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys

BENCH = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH)
WORKLOADS = (("train-300k-cifar", "simpnet-300k b128"), ("train-tiny-mnist", "simpnet-tiny b128"))
SHARES = (("conv share", ("conv",)), ("batchnorm share", ("bn",)), ("dropout share", ("dropout",)),
          ("relu share", ("relu",)), ("safpool share", ("safpool",)))
BREAKDOWN = ("im2col", "fwd_gemm", "dw_gemm", "dcols_gemm", "col2im")


def traced_report(workload: str, seed: int, seconds: float | None) -> dict:
    cmd = [sys.executable, os.path.join(BENCH, "run.py"), "--workload", workload, "--seed", str(seed), "--trace", "1"]
    if seconds is not None:
        cmd += ["--seconds", str(seconds)]
    subprocess.run(cmd, check=True, stdout=subprocess.DEVNULL, timeout=900)
    with open(os.path.join(ROOT, ".bench_work", f"{workload}-seed{seed}-trace1", "report.json"), encoding="utf-8") as f:
        return json.load(f)


def render(reports: dict) -> str:
    def value(report, name):
        return report["result"]["metrics"][name]["value"]

    cols = list(reports)
    lines = [f"| what | {' | '.join(label for _, label in WORKLOADS if _ in cols)} |", "|---" * (len(cols) + 1) + "|"]
    step = {w: (value(r, "network.forward_ms") + value(r, "network.backward_ms")) / 1e3 for w, r in reports.items()}
    cells = [f"{step[w]:.2f} s ({reports[w]['batch'] / step[w]:.0f} img/s)" for w in cols]
    lines.append(f"| fwd+bwd step | {' | '.join(cells)} |")
    for label, kinds in SHARES:
        cells = []
        for w in cols:
            ms = sum(value(reports[w], f"layers.{k}.{p}_ms") for k in kinds for p in ("fwd", "bwd"))
            cells.append(f"{ms / 1e3 / step[w]:.1%}")
        lines.append(f"| {label} | {' | '.join(cells)} |")
    first = reports[cols[0]]
    parts = [f"{p} {value(first, f'conv32.{p}_ms'):.0f} ms" for p in BREAKDOWN if f"conv32.{p}_ms" not in first["absent"]]
    lines.append("")
    lines.append("Breakdown of one 32->32 3x3 conv at 32x32, batch 128: " + ", ".join(parts) + ".")
    env = first["env"]
    lines.append(
        f"Conditions: numpy {env['numpy']}, {env['blas']}, {env['blas_threads_pinned']} BLAS threads, "
        f"nproc {env['nproc']}, {env['cpu']}; medians over {first['checks']['steps'] - 1} traced steps after a warm-up step."
    )
    return "\n".join(lines)


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--seconds", type=float, default=None, help="default: run_seconds of BENCHMARK.json")
    args = p.parse_args(argv)
    reports = {w: traced_report(w, args.seed, args.seconds) for w, _ in WORKLOADS}
    print(render(reports))
    return 0


if __name__ == "__main__":
    sys.exit(main())
