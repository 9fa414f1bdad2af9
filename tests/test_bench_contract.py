"""The engine API that bench/ drives, exercised at toy size.

The benchmark calls train_loop, evaluate, run_suite and symbolic_shapes
through bench/workload.py and bench/roofline.py. Its own tests run whole
benchmark processes and take minutes, so an API change that breaks the
benchmark would otherwise go unseen here. Each workload's phases run
once on a few synthetic images and must report no failure.
"""

import dataclasses
import os
import sys

import numpy as np
import pytest

sys.path.insert(0, os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "bench"))

import roofline  # noqa: E402
import workload as W  # noqa: E402
from simpnet import archdsl, data  # noqa: E402

N_IMAGES = 24
BATCH = 8
SIMPNET_CONVS = 13  # conv and sconv layers of both packaged presets


def synth_dataset(rng, shape) -> data.Dataset:
    images, labels = W.synth_images(rng, N_IMAGES, shape)
    return data.Dataset(images.astype(np.float32) / 255, labels.astype(np.int64), name="synth", num_classes=10)


@pytest.mark.parametrize("name", sorted(W.WORKLOADS))
def test_workload_phases_run_clean(name):
    wl = dataclasses.replace(W.WORKLOADS[name], batch=BATCH, eval_batch=BATCH)
    spec = archdsl.builder_presets()[wl.preset]
    rng = np.random.default_rng(0)
    train_ds = data.normalize(synth_dataset(rng, spec.input_shape))
    test_ds = data.normalize(synth_dataset(rng, spec.input_shape), mean=train_ds.mean, std=train_ds.std)
    st = W.Setup(train_ds, test_ds, spec, data_s=0.0, build_s=0.0)
    model = W.fresh_model(spec, seed=0)

    res = W.train_phase(model, st, wl, seed=0, steps=2)
    assert (res.failed, res.errors, res.attempted) == (0, [], 2)
    res = W.eval_phase(model, st, wl, budget_s=0)
    assert (res.failed, res.errors) == (0, []) and res.attempted >= 1
    assert len(roofline.conv_gemm_shapes(model, BATCH)) == SIMPNET_CONVS


def test_gradcheck_phase_runs_clean():
    res, times = W.gradcheck_phase(1)
    assert (res.failed, res.errors) == (0, []) and res.attempted == len(times)
