"""The engine API that bench/ drives, exercised at toy size.

The benchmark calls train_loop, evaluate, run_suite and symbolic_shapes
through bench/workload.py and bench/roofline.py. Its own tests run whole
benchmark processes and take minutes, so an API change that breaks the
benchmark would otherwise go unseen here. Each workload's phases run
once on a few synthetic images and must report no failure.
"""

import dataclasses
import json
import os
import sys

import numpy as np
import pytest

REPO = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(REPO, "bench"))

import roofline  # noqa: E402
import tracing  # noqa: E402
import workload as W  # noqa: E402
from simpnet import archdsl, data, gradcheck  # noqa: E402

N_IMAGES = 24
BATCH = 8
SIMPNET_CONVS = 13  # conv and sconv layers of both packaged presets


def synth_dataset(rng, shape) -> data.Dataset:
    images, labels = W.synth_images(rng, N_IMAGES, shape)
    return data.Dataset(images.astype(np.float32) / 255, labels.astype(np.int64), name="synth", num_classes=10)


def toy_workload(name):
    """(workload at batch BATCH, its Setup on synthetic images, a fresh model)."""
    wl = dataclasses.replace(W.WORKLOADS[name], batch=BATCH, eval_batch=BATCH)
    spec = archdsl.builder_presets()[wl.preset]
    rng = np.random.default_rng(0)
    train_ds = data.normalize(synth_dataset(rng, spec.input_shape))
    test_ds = data.normalize(synth_dataset(rng, spec.input_shape), mean=train_ds.mean, std=train_ds.std)
    return wl, W.Setup(train_ds, test_ds, spec, data_s=0.0, build_s=0.0), W.fresh_model(spec, seed=0)


@pytest.mark.parametrize("name", sorted(W.WORKLOADS))
def test_workload_phases_run_clean(name):
    wl, st, model = toy_workload(name)
    res = W.train_phase(model, st, wl, seed=0, steps=2)
    assert (res.failed, res.errors, res.attempted) == (0, [], 2)
    res = W.eval_phase(model, st, wl, budget_s=0)
    assert (res.failed, res.errors) == (0, []) and res.attempted >= 1
    assert len(roofline.conv_gemm_shapes(model, BATCH)) == SIMPNET_CONVS


def test_gradcheck_phase_runs_clean():
    res, times = W.gradcheck_phase(1)
    assert (res.failed, res.errors) == (0, []) and res.attempted == len(times)


def test_gradcheck_metrics_name_every_case():
    # the benchmark times each case under its name, so a renamed or dropped case fails here, not in a run
    with open(os.path.join(REPO, "BENCHMARK.json")) as f:
        names = {m["name"] for m in json.load(f)["per_layer"]}
    listed = {n for n in names if n.startswith("gradcheck.") and n.endswith("_ms")}
    assert listed == {f"gradcheck.{case}_ms" for case in gradcheck.CASES}


# spans the benchmark's per-layer metrics read, each from a function or a layer method
# that the train or eval units of both presets call
TRACED_SPANS = (
    "network.forward",
    "network.backward",
    "layers.relu_dropout_forward",
    "layers.conv2d_forward",
    "layers.maxpool_values",
    "layers.conv.forward",
    "layers.conv.backward",
    "rng.keep_mask",
)


def test_tracer_records_the_engine_spans():
    # the models exist before the tracer wraps anything, as a unit that bound a kernel or a
    # layer method when it was planned would then bypass the wrapper
    toys = [toy_workload(name) for name in sorted(W.WORKLOADS)]
    tracer = tracing.Tracer()
    tracer.install()
    try:
        for wl, st, model in toys:
            W.train_phase(model, st, wl, seed=0, steps=2)
            W.eval_phase(model, st, wl, budget_s=0)
    finally:
        tracer.uninstall()
    recorded = {tracer.names[i] for i in set(tracer.name_id)}
    assert [name for name in TRACED_SPANS if name not in recorded] == []
