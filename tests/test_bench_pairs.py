"""scripts/bench_pairs.py against two stand-in checkouts whose bench/run.py prints fixed results."""

import json
import os
import subprocess
import sys

import numpy as np
import pytest

from conftest import ROOT, load_script

SCRIPT = os.path.join(ROOT, "scripts", "bench_pairs.py")
SPEC = {"workloads": [{"name": "w1"}, {"name": "w2"}], "end_to_end": [
    {"name": "train_img_per_s", "unit": "img/s", "better": "higher", "bound": 0.25},
    {"name": "setup_s", "unit": "s", "better": "lower", "bound": 0.25},
]}


def checkout(root, name, img_per_s, setup_s, log):
    """A directory with BENCHMARK.json and a bench/run.py that logs its side, workload and seed and prints one result."""
    path = root / name
    (path / "bench").mkdir(parents=True)
    (path / "BENCHMARK.json").write_text(json.dumps(SPEC))
    result = {"correct": True, "attempted": 3, "failed": 0, "metrics": {
        "train_img_per_s": {"value": img_per_s, "unit": "img/s"}, "setup_s": {"value": setup_s, "unit": "s"}}}
    (path / "bench" / "run.py").write_text(
        "import sys\n"
        "arg = lambda flag: sys.argv[sys.argv.index(flag) + 1]\n"
        f"open({str(log)!r}, 'a').write({name!r} + ' ' + arg('--workload') + ' ' + arg('--seed') + '\\n')\n"
        f"print('report line')\nprint({json.dumps(json.dumps(result))})\n"
    )
    return str(path)


def test_alternates_sides_and_counts_wins(tmp_path):
    log = tmp_path / "order.log"
    parent = checkout(tmp_path, "parent", 100.0, 2.0, log)
    change = checkout(tmp_path, "change", 120.0, 3.0, log)
    cmd = [sys.executable, SCRIPT, parent, change, "--workload", "w", "--pairs", "3", "--seed0", "7"]
    proc = subprocess.run(cmd, capture_output=True, text=True, check=True)
    assert log.read_text().split("\n")[:-1] == [
        "parent w 7", "change w 7", "change w 8", "parent w 8", "parent w 9", "change w 9"]
    out = proc.stdout
    assert "train_img_per_s (img/s): parent 100 [100, 100] -> change 120 [120, 120], change won 3/3" in out
    assert "setup_s (s): parent 2 [2, 2] -> change 3 [3, 3], change won 0/3" in out
    assert "parent: correct 3/3, failed/attempted 0/9" in out
    assert "    verdict: gain holds (won 3/3, median gap +20 vs parent IQR 0); within bound (median better by 20.0%, bound 25%)" in out
    assert "    verdict: gain not shown (won 0/3, median gap -1 vs parent IQR 0); OUTSIDE bound (median worse by 50.0%, bound 25%)" in out


@pytest.mark.parametrize(
    "workloads,expect",
    [([], ["w1", "w2"]), (["--workload", "w2", "--workload", "w1"], ["w2", "w1"])],
    ids=["every-workload", "repeated-flag"],
)
def test_runs_each_workload_in_turn_with_a_report_each(tmp_path, workloads, expect):
    log = tmp_path / "order.log"
    parent = checkout(tmp_path, "parent", 100.0, 2.0, log)
    change = checkout(tmp_path, "change", 120.0, 3.0, log)
    cmd = [sys.executable, SCRIPT, parent, change, *workloads, "--pairs", "2", "--seed0", "7"]
    proc = subprocess.run(cmd, capture_output=True, text=True, check=True)
    assert log.read_text().split("\n")[:-1] == [
        line for w in expect for line in (f"parent {w} 7", f"change {w} 7", f"change {w} 8", f"parent {w} 8")]
    heads = [line for line in proc.stdout.splitlines() if not line.startswith(" ")]
    assert heads == [f"{w}: 2 pairs, seeds 7-8, parent first on even pairs" for w in expect]
    assert proc.stdout.count("parent: correct 2/2, failed/attempted 0/6") == len(expect)


@pytest.mark.parametrize(
    "parent,change,better,expect",
    [
        # 9 of 10 pairs won, and a median gap of 3.5 beyond the parent's IQR of 2
        ([10, 11, 12, 13, 14, 10, 11, 12, 13, 14], [14, 15, 16, 17, 18, 14, 15, 16, 17, 10], "higher",
         "gain holds (won 9/10, median gap +3.5 vs parent IQR 2); within bound"),
        # 8 of 10 pairs won is too few, however large the gap
        ([10] * 10, [20] * 8 + [5] * 2, "higher", "gain not shown (won 8/10"),
        # every pair won, but the gap does not exceed the parent's own spread
        ([10, 20, 10, 20, 10, 20, 10, 20, 10, 20], [11, 21, 11, 21, 11, 21, 11, 21, 11, 21], "higher",
         "gain not shown (won 10/10, median gap +1 vs parent IQR 10"),
        # lower is better: 10% worse than the parent's median is within a 25% bound
        ([2.0] * 10, [2.2] * 10, "lower", "gain not shown (won 0/10, median gap -0.2 vs parent IQR 0); within bound (median worse by 10.0%"),
    ],
    ids=["gain", "too-few-wins", "gap-within-spread", "worse-within-bound"],
)
def test_verdict(parent, change, better, expect):
    wins, text = load_script("bench_pairs").compare(np.array(parent, float), np.array(change, float), better, 0.25)
    assert text.startswith(expect), text
