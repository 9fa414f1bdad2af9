"""Roofline reference for convolution: the GEMMs a conv step needs, timed
alone with np.matmul at the layer's exact shapes, layouts and dtype.

A conv layer's training step runs three GEMMs, each with M*K*N
multiply-accumulates where M = batch*oh*ow, K = c_in*k*k, N = c_out:
forward cols(M,K) @ W(N,K).T, the weight gradient g(M,N).T @ cols and
the column gradient g @ W. Their summed time is the floor that conv time
approaches when the data movement around them (im2col, col2im,
transposes) is free (Williams, Waterman & Patterson, CACM 2009).
"""

from __future__ import annotations

import time

import numpy as np

from simpnet import network

REPS = 3


def median_time(fn, reps: int = REPS) -> float:
    """Median seconds over `reps` calls."""
    times = []
    for _ in range(reps):
        t = time.perf_counter()
        fn()
        times.append(time.perf_counter() - t)
    return float(np.median(times))


def conv_gemm_shapes(model, batch: int):
    """(name, M, K, N, dtype) for every layer holding a 4-d conv weight."""
    shapes = []
    for layer, out in zip(model.layers, model.symbolic_shapes(batch)):
        weight = getattr(layer, "weight", None)
        if weight is None or weight.ndim != 4:
            continue
        n, c_out, oh, ow = out
        shapes.append((layer.name, n * oh * ow, int(np.prod(weight.shape[1:])), c_out, weight.dtype))
    return shapes


def gemm_times(m: int, k: int, n: int, dtype, rng: np.random.Generator) -> tuple[float, float, float]:
    """(forward, dW, dcols) seconds in the layouts the conv code uses."""
    cols = rng.random((m, k), dtype=np.float32).astype(dtype, copy=False)
    w = rng.random((n, k), dtype=np.float32).astype(dtype, copy=False)
    g = rng.random((m, n), dtype=np.float32).astype(dtype, copy=False)
    fwd = median_time(lambda: cols @ w.T)
    dw = median_time(lambda: g.T @ cols)
    dcols = median_time(lambda: g @ w)
    return fwd, dw, dcols


def conv_floor(model, batch: int) -> dict:
    """Per-step GEMM floor over the model's conv layers, and their MACs
    per train step: network.count_macs per sample, times the batch, times
    the three GEMMs."""
    rng = np.random.default_rng(0)
    macs_per_sample = {row.name: row.mac_count for row in network.count_macs(model).rows}
    floor_s = 0.0
    macs = 0
    for name, m, k, n, dtype in conv_gemm_shapes(model, batch):
        floor_s += sum(gemm_times(m, k, n, dtype, rng))
        macs += 3 * batch * macs_per_sample[name]
    return {"floor_s": floor_s, "train_macs": macs}


def sgemm_gflops(size: int = 1024) -> float:
    rng = np.random.default_rng(0)
    a = rng.random((size, size), dtype=np.float32)
    b = rng.random((size, size), dtype=np.float32)
    a @ b
    return 2.0 * size**3 / median_time(lambda: a @ b, reps=5) / 1e9


def conv_breakdown(layers, batch: int = 128, channels: int = 32, size: int = 32) -> dict:
    """Seconds for each part of one channels->channels 3x3 pad-1 conv
    step at size x size: im2col, the three GEMMs and col2im. A part whose
    function no longer exists in `layers` is left out."""
    rng = np.random.default_rng(0)
    k = 3
    x = rng.random((batch, channels, size, size), dtype=np.float32)
    m, kk, n = batch * size * size, channels * k * k, channels
    out = {}
    if hasattr(layers, "im2col"):
        out["im2col"] = median_time(lambda: layers.im2col(x, k, 1, 1))
    out["fwd_gemm"], out["dw_gemm"], out["dcols_gemm"] = gemm_times(m, kk, n, np.float32, rng)
    if hasattr(layers, "col2im"):
        grad_cols = rng.random((m, kk), dtype=np.float32)
        out["col2im"] = median_time(lambda: layers.col2im(grad_cols, x.shape, k, 1, 1))
    return out
