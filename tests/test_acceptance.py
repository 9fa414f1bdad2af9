"""Acceptance suite: one test per criterion, one PASS/FAIL line each.

Run with  pytest tests/test_acceptance.py -v -s  to see the lines.

Criteria 5 and 6 train on the real MNIST files and are skipped (with
the reason printed) when the data directory is absent; every code path
they use is exercised on synthetic data elsewhere in the suite. Set
SIMPNET_DATA_DIR or place the four IDX files under ./data to run them.
"""

import os
import subprocess
import sys
import time
from fractions import Fraction

import numpy as np
import pytest

from conftest import load_script, real_mnist_paths, write_idx_pair
from simpnet import archdsl as A
from simpnet import data as D
from simpnet import gradcheck as gc
from simpnet import layers as L
from simpnet import train as T
from simpnet.analyzer import audit
from simpnet.errors import FormatError, IsolationError
from simpnet.network import Model, count_macs
from simpnet.rng import SplitRng
from test_conv import naive_conv2d


def report(criterion: str, detail: str):
    print(f"ACCEPTANCE {criterion}: PASS ({detail})")


def test_c1_gradient_check_suite():
    t0 = time.perf_counter()
    results = gc.run_suite(instances=20, seed=0)
    elapsed = time.perf_counter() - t0
    for r in results:
        assert r.ok, f"{r.layer} worst rel err {r.worst:.3e} >= 1e-5"
    assert {"conv", "sconv", "dense", "relu", "maxpool", "safpool", "dropout", "batchnorm", "gap", "model"} <= {
        r.layer for r in results
    }
    assert elapsed < 120, f"suite took {elapsed:.1f}s"
    worst = max(r.worst for r in results)
    report("C1 gradient checks", f"{len(results)} layer cases x 20 instances, worst {worst:.2e}, {elapsed:.1f}s")


def test_c2_convolution_oracle():
    rng = SplitRng(20_2020)
    checked = 0
    worst = 0.0
    for i in range(200):
        r = rng.split(i)
        n = int(r.integers(1, 2)[0]) + 1
        c = int(r.integers(1, 4)[0]) + 1
        h = int(r.integers(1, 6)[0]) + 4  # 4..9
        w = int(r.integers(1, 6)[0]) + 4
        k = [1, 2, 3, 5][int(r.integers(1, 4)[0])]
        stride = int(r.integers(1, 2)[0]) + 1
        pad = int(r.integers(1, 2)[0])
        if min(h, w) + 2 * pad < k:
            k = 3
        co = int(r.integers(1, 4)[0]) + 1
        x = r.uniform((n, c, h, w), -1, 1)
        wgt = r.uniform((co, c, k, k), -1, 1)
        b = r.uniform(co, -1, 1)
        got = L.conv2d_forward(x, wgt, b, stride, pad)
        want = naive_conv2d(x, wgt, b, stride, pad)
        worst = max(worst, float(np.abs(got - want).max()))
        checked += 1
    assert checked >= 200
    assert worst <= 1e-12
    report("C2 conv oracle", f"{checked} instances incl. stride-2 downsampling, worst |diff| {worst:.1e}")


def test_c3_saf_pool_identity_and_statistics():
    rng = SplitRng(33)
    for i in range(10):
        r = rng.split(i)
        x = r.uniform((2, 3, 8, 8), -1, 1)
        pooled, argmax = L.maxpool_forward(x)
        g = r.uniform(pooled.shape, -1, 1)
        pool = L.SafPool("safpool1", 2, 0.0)
        y, cache = pool.forward(x)
        assert np.array_equal(y, pooled) and np.array_equal(cache[2], argmax)
        assert np.array_equal(pool.backward(cache, g)[0], L.maxpool_backward(argmax, g, x.shape))
        assert np.array_equal(pool.eval(x), pooled)
        assert np.array_equal(L.SafPool("safpool1", 2, 0.5).eval(x), pooled)
    x = SplitRng(331).uniform((4, 25, 20, 20), 0.5, 1.5)  # 10,000 pooled units
    _, (_, mask, _) = L.SafPool("safpool1", 2, 0.5).forward(x, L.keep_mask((4, 25, 10, 10), 0.5, SplitRng(332)))
    zero_fraction = float((mask == 0).mean())
    assert 0.48 <= zero_fraction <= 0.52
    report("C3 SAF-pool identity", f"drop0==maxpool fwd+bwd on 10 instances; zero fraction {zero_fraction:.4f}")


def test_c4_parameter_ledger_and_budgets():
    conv = Model([L.Conv2d("conv1", 3, 64, 3, 1, 1)], (3, 32, 32))
    assert count_macs(conv).total_params == 1792
    dense = Model([L.Flatten("f1"), L.Dense("dense1", 256, 10)], (1, 16, 16))
    assert count_macs(dense).total_params == 2570

    builders = A.builder_presets()
    t300 = count_macs(A.build(builders["simpnet-300k"])).total_params
    t5m = count_macs(A.build(builders["simpnet-5m"])).total_params
    assert abs(t300 - 300_000) / 300_000 < 0.02
    assert abs(t5m - 5_480_000) / 5_480_000 < 0.02
    presets = A.ablation_presets()
    arms = dict(presets["maxpool-vs-sconv"].arms)
    t360 = count_macs(A.build(arms["maxpool"])).total_params
    t360b = count_macs(A.build(arms["sconv"])).total_params
    assert abs(t360 - 360_000) / 360_000 < 0.02
    assert abs(t360b - 360_000) / 360_000 < 0.02

    m3 = Model([L.Conv2d("c", 3, 64, 3, 1, 1)], (3, 32, 32))
    m5 = Model([L.Conv2d("c", 3, 64, 5, 1, 2)], (3, 32, 32))
    assert Fraction(count_macs(m5).total_macs, count_macs(m3).total_macs) == Fraction(25, 9)
    report(
        "C4 parameter ledger",
        f"conv=1792 dense=2570 exact; budgets {t300}/{t360}/{t5m} vs 300K/360K/5.48M; MAC ratio 25/9 exact",
    )


def _real_mnist_or_skip(criterion: str):
    root, present = real_mnist_paths()
    if not present:
        reason = (
            f"real MNIST not found under {root!r} (set SIMPNET_DATA_DIR or run "
            "scripts/fetch_data.py); criterion runs automatically when the files are present"
        )
        print(f"ACCEPTANCE {criterion}: SKIP ({reason})")
        pytest.skip(reason)
    train = D.load_split("mnist", root, "train")
    test = D.load_split("mnist", root, "test")
    return train, test


def test_c5_desk_scale_mnist():
    train, test = _real_mnist_or_skip("C5 desk-scale MNIST")
    assert len(train) == 60_000 and len(test) == 10_000
    spec = A.builder_presets()["simpnet-tiny"]
    total = count_macs(A.build(spec)).total_params
    assert abs(total - 100_000) / 100_000 < 0.02
    train_n = D.normalize(train)
    test_n = D.normalize(test, mean=train_n.mean, std=train_n.std)
    model = T.init_model(A.build(spec), seed=0)
    cfg = T.TrainConfig(epochs=3, batch_size=128, lr=0.1, momentum=0.9, weight_decay=5e-4, seed=0)
    t0 = time.perf_counter()
    rows = T.train_loop(model, train_n, cfg, test_ds=test_n)
    elapsed = time.perf_counter() - t0
    top1 = [r.top1 for r in rows if r.split == "test"][-1]
    assert top1 >= 0.975, f"test top1 {top1:.4f} < 0.975"
    if (os.cpu_count() or 1) >= 8:
        assert elapsed <= 1800, f"took {elapsed:.0f}s on {os.cpu_count()} cores"
    report("C5 desk-scale MNIST", f"simpnet-tiny ({total} params) 3 epochs: top1 {top1:.4f}, {elapsed:.0f}s")


def test_c6_ablation_direction_maxpool_vs_sconv():
    # the budget guard must refuse artificial mismatches regardless of data
    conv_stack = load_script("gen_presets").conv_stack
    bad_a = conv_stack([4, 4, 6], (2,), input_shape=(1, 28, 28))
    bad_b = conv_stack([8, 8, 12], (2,), input_shape=(1, 28, 28))
    with pytest.raises(IsolationError):
        T.check_budgets(A.Preset("bad", (("a", bad_a), ("b", bad_b)), True, ""))

    train, test = _real_mnist_or_skip("C6 ablation direction")
    train_n = D.normalize(train)
    test_n = D.normalize(test, mean=train_n.mean, std=train_n.std)
    cfg = T.TrainConfig(epochs=2, batch_size=128, lr=0.1, momentum=0.9, weight_decay=5e-4, seed=0)
    result = T.ablate("maxpool-vs-sconv", train_n, test_n, cfg, subset=10_000)
    by_arm = {a.arm: a.mean_top1 for a in result.arms}
    print(result.table())
    assert by_arm["maxpool"] >= by_arm["sconv"] - 0.003, by_arm
    report(
        "C6 ablation direction",
        f"maxpool {by_arm['maxpool']:.4f} vs sconv {by_arm['sconv']:.4f} (3 seeds, 10K subset)",
    )


DET_ARCH = (
    "input 1 28 28\n"
    "group g1\n"
    "conv 3 6 s1 p1\nbn\nrelu\ndropout p0.1\n"
    "conv 3 8 s1 p1\nbn\nrelu\n"
    "safpool 2 p0.2\n"
    "group head\ngap\nflatten\ndense 10\n"
)


def test_c7_cli_determinism_500_steps(tmp_path):
    data_dir = tmp_path / "data"
    data_dir.mkdir()
    write_idx_pair(data_dir, "train", 2048, seed=77)
    write_idx_pair(data_dir, "t10k", 256, seed=78)
    arch = tmp_path / "det.arch"
    arch.write_text(DET_ARCH)
    outputs = []
    for run in range(2):
        out = tmp_path / f"run{run}"
        out.mkdir()
        cmd = [
            sys.executable,
            "-m",
            "simpnet.cli",
            "train",
            "--arch",
            str(arch),
            "--dataset",
            "mnist",
            "--data-dir",
            str(data_dir),
            "--deterministic",
            "--seed",
            "7",
            "--epochs",
            "99",
            "--max-steps",
            "500",
            "--batch-size",
            "16",
            "--out-metrics",
            str(out / "metrics.csv"),
            "--out-ckpt",
            str(out / "model.snpk"),
        ]
        proc = subprocess.run(cmd, capture_output=True, text=True)
        assert proc.returncode == 0, proc.stderr[-2000:]
        outputs.append(((out / "metrics.csv").read_bytes(), (out / "model.snpk").read_bytes()))
    assert outputs[0][0] == outputs[1][0], "metrics CSVs differ between runs"
    assert outputs[0][1] == outputs[1][1], "checkpoints differ between runs"
    steps = outputs[0][0].decode().strip().splitlines()[-1].split(",")[1]
    report("C7 determinism", f"two 500-step CLI runs byte-identical (final step {steps})")


def test_c8_audit_fixtures():
    early_1x1 = A.parse(
        "input 3 32 32\ngroup g1\nconv 1 8 s1 p0\nrelu\nconv 3 16 s1 p1\nrelu\n"
        "conv 3 24 s1 p1\nrelu\ngroup head\ngap\nflatten\ndense 10\n",
        name="early1x1",
    )
    r = audit(early_1x1)
    assert any(f.rule_id == "R2" and f.severity == "fail" for f in r.findings)

    pool_after_1 = A.parse(
        "input 3 32 32\ngroup g1\nconv 3 8 s1 p1\nrelu\nmaxpool 2\nconv 3 16 s1 p1\nrelu\n"
        "conv 3 24 s1 p1\nrelu\ngroup head\ngap\nflatten\ndense 10\n",
        name="earlypool",
    )
    r = audit(pool_after_1)
    assert any(f.rule_id == "R3" and f.severity == "warn" for f in r.findings)

    wide_end = dict(A.ablation_presets()["balanced-vs-wide-end-128k"].arms)["wide-end"]
    r = audit(wide_end)
    assert any(f.rule_id == "R4" and f.severity == "warn" for f in r.findings)

    default = A.builder_presets()["simpnet-300k"]
    r = audit(default)
    assert not r.fails()

    a = audit(default)
    b = audit(default)
    assert a.render_table().encode() == b.render_table().encode()
    assert a.render_records().encode() == b.render_records().encode()
    report("C8 audit fixtures", "R2 fail, R3 warn, R4 warn, default clean, byte-identical reports")


def test_c9_loader_bit_exactness(tmp_path):
    img, lbl = write_idx_pair(tmp_path, "train", 128, seed=9)
    ds = D.load_mnist(img, lbl)
    out_img, out_lbl = tmp_path / "img2", tmp_path / "lbl2"
    D.write_idx_images(ds.images, out_img)
    D.write_idx_labels(ds.labels, out_lbl)
    assert out_img.read_bytes() == open(img, "rb").read()
    assert out_lbl.read_bytes() == open(lbl, "rb").read()

    assert D.CIFAR10_BATCH_BYTES == 10_000 * 3073

    bad_magic = tmp_path / "badmagic"
    bad_magic.write_bytes(b"\x00\x00\x08\x05" + bytes(12))
    with pytest.raises(FormatError):
        D.read_idx(bad_magic, 3)
    truncated = tmp_path / "trunc"
    import struct as _s

    truncated.write_bytes(_s.pack(">IIII", 0x803, 10, 28, 28) + bytes(100))
    with pytest.raises(FormatError):
        D.read_idx(truncated, 3)
    odd_cifar = tmp_path / "odd.bin"
    odd_cifar.write_bytes(bytes(3073 + 1))
    with pytest.raises(FormatError):
        D.load_cifar10([odd_cifar])
    report("C9 loader bit-exactness", "IDX round trip byte-equal; malformed inputs raise format errors")
