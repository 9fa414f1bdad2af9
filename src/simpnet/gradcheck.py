"""Central finite-difference verification of every backward pass.

Each per-layer case builds the layer object that network.Model runs,
with small random float64 parameters and input, and hands it to one
driver, _check_layer: it runs the layer's forward_slices on one slice,
as a train step does, scalarizes the output against a random cotangent
and compares backward_slices' gradients with (f(x+h) - f(x-h)) / 2h
elementwise. softmax_xent checks the loss and model a whole toy Model.
The reported error is ||a - n||_inf / max(||a||_inf, ||n||_inf): a
global relative error that is insensitive to individual near-zero
partials.

Stochastic layers are checked with their mask held fixed: keep_mask
draws it once from the case's key, and every evaluation applies it.
ReLU instances are sampled away from 0 and pool instances with
all-distinct window values so the subgradient choice and argmax routing
cannot flip under the probe step.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import layers as L
from .network import Model, _map_slices
from .rng import SplitRng

H = 1e-5
TOL = 1e-5


def numeric_grad(f, x: np.ndarray) -> np.ndarray:
    grad = np.zeros_like(x)
    flat = x.ravel()
    gflat = grad.ravel()
    for i in range(flat.size):
        orig = flat[i]
        flat[i] = orig + H
        fp = f()
        flat[i] = orig - H
        fm = f()
        flat[i] = orig
        gflat[i] = (fp - fm) / (2 * H)
    return grad


def rel_error(analytic: np.ndarray, numeric: np.ndarray) -> float:
    """Error relative to the gradient's scale, floored at 1e-3 so that
    genuinely-zero gradients (where finite differences only measure
    cancellation noise) compare absolutely instead of dividing noise by
    noise."""
    scale = max(np.abs(analytic).max(initial=0.0), np.abs(numeric).max(initial=0.0), 1e-3)
    return float(np.abs(analytic - numeric).max(initial=0.0) / scale)


def _worst(loss, grads, inputs) -> float:
    """Worst relative error of each analytic gradient against the central
    difference of loss wrt its input; every gradient must have one."""
    return max(rel_error(g, numeric_grad(loss, x)) for g, x in zip(grads, inputs, strict=True))


def _check_layer(rng: SplitRng, layer: L.Layer, x: np.ndarray, mask_key=None) -> float:
    """Worst error of layer.backward_slices, wrt x and each param_entries()
    value, for the loss sum(y * r) of the output y of layer.forward_slices
    on the one slice x and a cotangent r drawn from rng after the first
    forward. With a mask_key, the keep mask of y is drawn once from
    SplitRng(mask_key), and every forward applies it."""
    keep = None if mask_key is None else L.keep_mask(layer.out_shape(x.shape), layer.p, SplitRng(mask_key))

    def forward():
        return layer.forward_slices([x], [lambda: keep], _map_slices)

    (y,), (cache,) = forward()
    r = rng.uniform(y.shape, -1.0, 1.0)  # random, so the whole Jacobian is exercised
    (grad_x,), grads = layer.backward_slices([cache], [r], _map_slices)
    params = [v for _, v in layer.param_entries()]
    return _worst(lambda: float((forward()[0][0] * r).sum()), [grad_x, *grads], [x, *params])


# ---------------------------------------------------------------------------
# per-layer cases: fn(rng) -> worst relative error for one random instance


def _check_conv(rng: SplitRng, kernel=3, stride=None, pad=None) -> float:
    stride = stride if stride is not None else int(rng.integers(1, 2)[0]) + 1
    pad = pad if pad is not None else int(rng.integers(1, 2)[0])
    x = rng.uniform((2, 3, 6, 6), -1, 1)
    conv = L.Conv2d("conv", 3, 4, kernel, stride, pad)
    conv.weight, conv.bias = rng.uniform((4, 3, kernel, kernel), -1, 1), rng.uniform(4, -1, 1)
    return _check_layer(rng, conv, x)


def _check_sconv(rng: SplitRng) -> float:
    return _check_conv(rng, kernel=2, stride=2, pad=0)


def _check_dense(rng: SplitRng) -> float:
    x = rng.uniform((4, 7), -1, 1)
    dense = L.Dense("dense", 7, 5)
    dense.weight, dense.bias = rng.uniform((7, 5), -1, 1), rng.uniform(5, -1, 1)
    return _check_layer(rng, dense, x)


def _check_relu(rng: SplitRng) -> float:
    # keep every input at least 0.05 away from the kink
    mag = rng.uniform((2, 3, 5, 5), 0.05, 1.0)
    sign = np.where(rng.coin(mag.shape, 0.5), 1.0, -1.0)
    return _check_layer(rng, L.ReLU("relu"), mag * sign)


def _distinct_image(rng: SplitRng, shape) -> np.ndarray:
    """All-distinct values with pairwise gaps far above the probe step."""
    size = int(np.prod(shape))
    return (rng.permutation(size).astype(np.float64) / size).reshape(shape) + rng.uniform(1, -0.1, 0.1)


def _check_maxpool(rng: SplitRng) -> float:
    # archdsl's maxpool is a SafPool with p = 0; the safpool case checks that it is plain max-pooling
    return _check_layer(rng, L.SafPool("maxpool", 2, 0.0), _distinct_image(rng, (2, 3, 6, 6)))


def _check_safpool(rng: SplitRng) -> float:
    x = _distinct_image(rng, (2, 3, 6, 6))
    mask_key = int(rng.integers(1, 2**31)[0])
    err = _check_layer(rng, L.SafPool("safpool", 2, 0.5), x, mask_key)

    # p = 0 must reduce to plain max-pool in both directions; the pooled
    # values, all distinct, serve as the cotangent
    pool0 = L.SafPool("safpool", 2, 0.0)
    y0, cache0 = pool0.forward(x)
    pooled, argmax_mp = L.maxpool_forward(x)
    g0 = pool0.backward(cache0, pooled)[0]
    gmp = L.maxpool_backward(argmax_mp, pooled, x.shape)
    if not (np.array_equal(y0, pooled) and np.array_equal(g0, gmp)):
        return float("inf")
    return err


def _check_dropout(rng: SplitRng) -> float:
    x = rng.uniform((2, 3, 5, 5), -1, 1)
    return _check_layer(rng, L.Dropout("dropout", 0.3), x, int(rng.integers(1, 2**31)[0]))


def _check_batchnorm(rng: SplitRng) -> float:
    x = rng.uniform((4, 3, 5, 5), -1, 1)
    bn = L.BatchNorm("bn", 3)
    # gamma, then beta; train mode reads no running stats
    bn.p = L.BatchNormParams(rng.uniform(3, 0.5, 1.5), rng.uniform(3, -0.5, 0.5), np.zeros(3), np.ones(3))
    return _check_layer(rng, bn, x)


def _check_gap(rng: SplitRng) -> float:
    return _check_layer(rng, L.GlobalAvgPool("gap"), rng.uniform((2, 3, 4, 4), -1, 1))


def _check_softmax(rng: SplitRng) -> float:
    logits = rng.uniform((5, 7), -2, 2)
    labels = rng.integers(5, 7)
    return _worst(lambda: L.softmax_xent(logits, labels)[0], [L.softmax_xent(logits, labels)[1]], [logits])


def _toy_model(rng: SplitRng) -> Model:
    model = Model(
        [
            L.Conv2d("conv1", 3, 4, 3, 1, 1),
            L.BatchNorm("bn1", 4),
            L.ReLU("relu1"),
            L.Dropout("drop1", 0.3),
            L.SafPool("safpool1", 2, 0.0),
            L.Flatten("flatten1"),
            L.Dense("dense1", 4 * 3 * 3, 10),
        ],
        (3, 6, 6),
    )
    return model.init_params(rng, np.float64)


def _check_model(rng: SplitRng) -> float:
    model = _toy_model(rng.split(0))
    x = rng.uniform((2, 3, 6, 6), -1, 1)
    labels = rng.integers(2, 10)
    mask_key = int(rng.integers(1, 2**31)[0])

    def loss():
        return L.softmax_xent(model.forward(x, SplitRng(mask_key)), labels)[0]

    _, grad_logits = L.softmax_xent(model.forward(x, SplitRng(mask_key)), labels)
    grad_x, params = model.backward(grad_logits)
    return _worst(loss, [grad_x] + [g for _, _, g in params], [x] + [v for _, v, _ in params])


CASES = {
    "conv": _check_conv,
    "sconv": _check_sconv,
    "dense": _check_dense,
    "relu": _check_relu,
    "maxpool": _check_maxpool,
    "safpool": _check_safpool,
    "dropout": _check_dropout,
    "batchnorm": _check_batchnorm,
    "gap": _check_gap,
    "softmax_xent": _check_softmax,
    "model": _check_model,
}


@dataclass(frozen=True)
class CheckResult:
    layer: str
    worst: float
    instances: int
    failed_seed: int | None  # instance index of the first failure

    @property
    def ok(self) -> bool:
        return self.worst < TOL


def run_suite(layers=None, seed: int = 0, instances: int = 20, registry=None) -> list[CheckResult]:
    """Run every case (or the named subset) on `instances` random draws."""
    if instances < 1:
        raise ValueError(f"instances must be >= 1, got {instances}")
    registry = CASES if registry is None else registry
    if layers:
        unknown = [l for l in layers if l not in registry]
        if unknown:
            raise KeyError(f"unknown layer(s) {unknown}; valid: {', '.join(sorted(registry))}")
        names = [l for l in registry if l in layers]
    else:
        names = list(registry)
    root = SplitRng(seed)
    results = []
    for ci, name in enumerate(names):
        worst = 0.0
        failed = None
        for inst in range(instances):
            err = registry[name](root.split(ci, inst))
            if err > worst:
                worst = err
            if err >= TOL and failed is None:
                failed = inst
        results.append(CheckResult(name, worst, instances, failed))
    return results


def render_results(results) -> str:
    lines = [f"{'layer':<14} {'worst rel err':>14} {'instances':>10}  status"]
    for r in results:
        status = "ok" if r.ok else f"FAIL (instance {r.failed_seed})"
        lines.append(f"{r.layer:<14} {r.worst:>14.3e} {r.instances:>10}  {status}")
    return "\n".join(lines)
