"""Forward and backward passes for every operator the architectures use.

Two surfaces live here. The module-level functions are pure and carry
the numerical contracts; the oracle tests check them. The layer classes
wrap them with parameter storage so a sequential model can run them in
order; gradcheck checks them. A layer holds only its parameters (and
batch norm its running stats) and has one train entry and one eval
entry: forward returns (output, cache) of a train slice, backward takes
that cache back and returns the input gradient and the parameter
gradients as values, and eval returns the output of an eval slice and
caches nothing. network.Model holds the caches of its last train
forward; network.train_units and network.eval_units decide which
layers run together as one unit. A train step gives a layer its batch
as slices along n, which forward_slices, backward_slices and batch norm
run through the slice runner below, _map_slices, on WORKERS threads (1
where numpy's OpenBLAS thread calls are not found). Importing this module
also sets glibc's malloc thresholds and arena count for the whole
process (_set_malloc), so train steps reuse heap memory instead of
faulting in fresh pages; it changes no value.

Convolution is cross-correlation (no kernel flip), lowered a batch
chunk at a time: a few images are zero-padded channels-last (NHWC) into
one reused buffer, and their k*k windows go into another, (rows,
k*k*c_in), of at most LOWERING_BYTES (1 MiB, but at least one image);
one GEMM per chunk writes the output. dW pads and lowers the chunks
again and sums g_chunk.T @ chunk, and db is ones @ g by BLAS. A batch
runs as slices of a few dozen images, one slice per thread at one BLAS
thread, so each thread lowers into buffers of its own. grad_x lowers
the gradient, dilated by the stride and padded by k-1, at stride 1
against the flipped kernel (Dumoulin & Visin, 2016). A conv layer's
cache is only its input, the array it was given.

Arrays are indexed NCHW at every layer boundary, but conv outputs are
NHWC in memory, and batch norm, ReLU, dropout and the pools keep that
layout in both passes: batch norm sums its (n*h*w, c) matrix view, and
per-channel ops run on the (n, h*w*c) image rows (_per_pixel); dropout
draws 4-D masks in (n, h, w, c) order; max-pool copies its taps
channels-last, and its winners' offsets index channels-last memory. The
next conv's padded chunks and its backward's (n*h*w, c) view of the
gradient then need no transposing copy.

Max-pooling breaks ties in favor of the first element in row-major scan
order so backward routing is deterministic. maxpool_forward returns each
winner's position in its window (uint8), and maxpool_backward turns
those into offsets. The SafPool layer is
SAF-pooling: maxpool_forward then dropout_apply on the pooled units in
training, maxpool_values at inference, so it has no module functions of
its own. Dropout and SafPool take their keep mask already drawn
(keep_mask), so each slice of a network.Model batch can draw its own
rows of the batch's one mask. ReLU uses subgradient 0 at exactly 0.
Batch norm's running-average momentum and variance epsilon are the
module constants BN_MOMENTUM and BN_EPS.
"""

from __future__ import annotations

import contextvars
import ctypes
import glob
import itertools
import math
import os
from concurrent.futures import ThreadPoolExecutor, wait
from contextlib import contextmanager
from functools import reduce

import numpy as np

from .errors import ShapeError
from .rng import SplitRng

BN_MOMENTUM = 0.1
BN_EPS = 1e-5
LOWERING_BYTES = 1 << 20  # a conv's lowering buffer, beside one padded chunk; from a sweep with network.TRAIN_SLICE


# ---------------------------------------------------------------------------
# slice runner


def _openblas_thread_calls(libdir=os.path.join(os.path.dirname(np.__file__), os.pardir, "numpy.libs")):
    """(get, set) of the thread count of the OpenBLAS bundled with numpy, through ctypes, or None."""
    for path in sorted(glob.glob(os.path.join(libdir, "*openblas*"))):
        try:
            lib = ctypes.CDLL(path)
        except OSError:
            continue
        for prefix in ("scipy_openblas", "openblas"):
            for suffix in ("64_", ""):
                get = getattr(lib, f"{prefix}_get_num_threads{suffix}", None)
                put = getattr(lib, f"{prefix}_set_num_threads{suffix}", None)
                if get is not None and put is not None:
                    get.argtypes, get.restype, put.argtypes, put.restype = [], ctypes.c_int, [ctypes.c_int], None
                    return get, put
    return None


_BLAS_THREADS = _openblas_thread_calls()
WORKERS = _BLAS_THREADS[0]() if _BLAS_THREADS else 1  # threads _map_slices runs slices on; 1 without the calls
_pool = None  # WORKERS - 1 threads, started by the first forward with more than one slice


def _set_malloc():
    """Set glibc's malloc for the whole process, through ctypes; a no-op where mallopt is not found.

    Train steps allocate their activations afresh, and with glibc's
    defaults each step faults their pages in anew. So blocks below 32 MiB
    come from the heap (M_MMAP_THRESHOLD), which keeps up to 256 MiB free
    at its top (M_TRIM_THRESHOLD), and all threads share that one arena
    (M_ARENA_MAX): a slice thread's own arena would live in mmapped heaps
    that glibc unmaps once wholly free. The allocator touches no value.
    """
    try:
        mallopt = ctypes.CDLL(None).mallopt
    except (OSError, AttributeError):
        return
    mallopt.argtypes, mallopt.restype = [ctypes.c_int, ctypes.c_int], ctypes.c_int
    for param, value in ((-3, 32 << 20), (-1, 256 << 20), (-8, 1)):  # M_MMAP_THRESHOLD, M_TRIM_THRESHOLD, M_ARENA_MAX
        mallopt(param, value)


_set_malloc()


@contextmanager
def _one_blas_thread():
    """The BLAS at one thread, process-wide, until the block ends; restored on return or raise."""
    if _BLAS_THREADS is None:
        yield
        return
    get, put = _BLAS_THREADS
    threads = get()
    put(1)
    try:
        yield
    finally:
        put(threads)


def _map_slices(fn, *parts):
    """[fn(*slice) for each slice of the equally long lists parts], run on up to WORKERS threads.

    Thread t runs slice t first; after that each thread takes the next
    slice that no thread has taken, so a thread whose core the host slows
    down runs fewer slices instead of holding up the batch. Thread 0 is the
    caller, which runs slices rather than only waiting, so k threads need
    only k - 1 in the pool. (When pool threads ran every slice, peak RSS on
    simpnet-tiny rose 17%: each pool thread then allocated in a glibc arena
    of its own, which _set_malloc now rules out.) Each pool thread runs in
    a copy of the caller's contextvars context, so the caller's np.errstate
    holds in every slice. Every slice's result lands at its own index, so
    the result does not depend on which thread ran it. Waits for every
    slice, then raises the caller's first error, or else the first of a
    pool thread's.
    """
    global _pool
    args = list(zip(*parts, strict=True))
    out, k = [None] * len(args), min(WORKERS, len(args))
    take = itertools.count(k).__next__  # atomic under the GIL

    def run_slices(j):
        while j < len(args):
            out[j] = fn(*args[j])
            j = take()

    if k > 1 and _pool is None:
        _pool = ThreadPoolExecutor(WORKERS - 1, thread_name_prefix="simpnet")
    futures = [_pool.submit(contextvars.copy_context().run, run_slices, t) for t in range(1, k)]
    try:
        run_slices(0)
    finally:
        if futures:  # wait() costs about 10 us even for no futures, and one-slice calls are many
            wait(futures)
    for f in futures:
        f.result()
    return out


# ---------------------------------------------------------------------------
# convolution


def conv_out_hw(h: int, w: int, k: int, stride: int, pad: int) -> tuple[int, int]:
    if h + 2 * pad < k or w + 2 * pad < k:
        raise ShapeError(f"window {k} larger than padded input {h}x{w} (pad {pad})")
    return (h + 2 * pad - k) // stride + 1, (w + 2 * pad - k) // stride + 1


def _rows(a):
    """(n*h*w, c) matrix of an NCHW-indexed array: a view when it is NHWC in memory, else a copy."""
    return a.transpose(0, 2, 3, 1).reshape(-1, a.shape[1])


def _per_pixel(v, shape):
    """Per-channel v tiled once per pixel of an NCHW shape: an op with it on the (n, h*w*c) image rows of NHWC
    memory gives the bytes of the op with v on the (n*h*w, c) matrix, in inner loops h*w*c long, not c."""
    return np.tile(v, shape[2] * shape[3])


def _nchw(a, shape):
    """NCHW-indexed view, of the given shape, of channels-last data (an (n*h*w, c) matrix or flat)."""
    n, c, h, w = shape
    return a.reshape(n, h, w, c).transpose(0, 3, 1, 2)


def _windows(a, k, stride, oh, ow):
    """Read-only (n, oh, ow, k, k, c) view of the k*k windows of an NHWC array, the first at a[:, 0, 0]."""
    sn, sh, sw, sc = a.strides
    shape, strides = (len(a), oh, ow, k, k, a.shape[3]), (sn, stride * sh, stride * sw, sh, sw, sc)
    return np.lib.stride_tricks.as_strided(a, shape, strides, writeable=False)


def _lowering_buffer(n, image_shape, dtype):
    """Reused buffer of whole images (<= LOWERING_BYTES, >= 1 image) and the (lo, hi) chunks of n."""
    m = max(1, min(n, LOWERING_BYTES // (math.prod(image_shape) * dtype.itemsize)))
    return np.empty((m, *image_shape), dtype=dtype), [(lo, min(n, lo + m)) for lo in range(0, n, m)]


def _lower(windows, buf):
    """Copies a chunk of a window view into the head of buf; returns it as a (rows, k*k*c) matrix."""
    cols = buf[: len(windows)]
    np.copyto(cols, windows)
    return cols.reshape(-1, math.prod(cols.shape[3:]))


def _lowered_chunks(x, k, stride, pad, oh, ow):
    """(lo, hi, lowered rows) of each chunk of an NCHW-indexed input: its images zero-padded
    channels-last into one reused buffer, then their k*k windows lowered into another (_lowering_buffer)."""
    n, c, h, w = x.shape
    buf, chunks = _lowering_buffer(n, (oh, ow, k, k, c), x.dtype)
    xp = np.zeros((len(buf), h + 2 * pad, w + 2 * pad, c), dtype=x.dtype)  # its border stays 0
    windows = _windows(xp, k, stride, oh, ow)
    for lo, hi in chunks:
        xp[: hi - lo, pad : pad + h, pad : pad + w] = x[lo:hi].transpose(0, 2, 3, 1)
        yield lo, hi, _lower(windows[: hi - lo], buf)


def _conv2d_forward(x, weight, bias, stride, pad):
    """Forward pass; returns (y, x), x being all a layer caches for backward."""
    n, c, h, w = x.shape
    c_out, c_in, k, _ = weight.shape
    if c != c_in:
        raise ShapeError(f"conv expects {c_in} input channels, got {c}")
    oh, ow = conv_out_hw(h, w, k, stride, pad)
    w_mat = weight.transpose(2, 3, 1, 0).reshape(k * k * c, c_out)  # rows in (dy, dx, c) order, as lowered
    y = np.empty((n, oh * ow * c_out), dtype=np.result_type(x, weight))
    for lo, hi, cols in _lowered_chunks(x, k, stride, pad, oh, ow):
        np.matmul(cols, w_mat, out=y[lo:hi].reshape(-1, c_out))
    y += _per_pixel(bias, (n, c_out, oh, ow))
    return _nchw(y, (n, c_out, oh, ow)), x


def _conv2d_backward(x, weight, stride, pad, grad_out, input_grad=True):
    """Gradients of sum(grad_out * forward) wrt (x, weight, bias), from the unpadded input x."""
    n, c, h, w = x.shape
    c_out, _, k, _ = weight.shape
    oh, ow = conv_out_hw(h, w, k, stride, pad)
    if grad_out.shape != (n, c_out, oh, ow):
        raise ShapeError(f"grad_out shape {grad_out.shape} != forward output {(n, c_out, oh, ow)}")
    g = grad_out.transpose(0, 2, 3, 1)  # its chunks are (rows, c_out) views when grad_out is NHWC in memory
    grad_w = np.zeros((c_out, k * k * c), dtype=np.result_type(g, x))
    for lo, hi, cols in _lowered_chunks(x, k, stride, pad, oh, ow):
        grad_w += g[lo:hi].reshape(-1, c_out).T @ cols
    grad_b = np.ones(n * oh * ow, grad_out.dtype) @ _rows(grad_out)  # by BLAS, as batch norm's grad_beta
    grad_w = grad_w.reshape(c_out, k, k, c).transpose(0, 3, 1, 2)
    if not input_grad:
        return None, grad_w, grad_b
    # grad_x correlates the flipped kernel at stride 1 with the gradient dilated by
    # stride and zero-padded by k-1; chunks rewrite only the dilated spots
    hp, wp = h + 2 * pad, w + 2 * pad
    buf, chunks = _lowering_buffer(n, (h, w, k, k, c_out), grad_w.dtype)
    dilated = np.zeros((len(buf), hp + k - 1, wp + k - 1, c_out), dtype=grad_w.dtype)
    spots = dilated[:, k - 1 : k - 1 + stride * oh : stride, k - 1 : k - 1 + stride * ow : stride]
    windows = _windows(dilated[:, pad:, pad:], k, 1, h, w)
    w_flip = weight[:, :, ::-1, ::-1].transpose(2, 3, 0, 1).reshape(k * k * c_out, c)
    grad_x = np.empty((n, h, w, c), dtype=grad_w.dtype)
    for lo, hi in chunks:
        spots[: hi - lo] = g[lo:hi]
        np.matmul(_lower(windows[: hi - lo], buf), w_flip, out=grad_x[lo:hi].reshape(-1, c))
    return grad_x.transpose(0, 3, 1, 2), grad_w, grad_b


def conv2d_forward(x, weight, bias, stride=1, pad=0):
    """Cross-correlation + bias. weight is (c_out, c_in, k, k), bias (c_out,)."""
    return _conv2d_forward(x, weight, bias, stride, pad)[0]


# ---------------------------------------------------------------------------
# pooling


def maxpool_forward(x, window=2, stride=2):
    """Max over each window; returns (pooled, which), which the position of each window's winner in it.

    Ties go to the first element in row-major scan order, and a NaN beats a
    number, as with argmax: the taps are copied channels-last into one slab,
    and the winner so far takes tap t where ~(tap <= winner) & (winner ==
    winner), by an xor mask on integer views (argmax over the slab and masked
    copies run several times slower). Both results are NHWC-strided views,
    like conv outputs; which is uint8 up to 16*16 windows, and
    maxpool_backward turns it into offsets.
    """
    n, c, h, w = x.shape
    oh, ow = conv_out_hw(h, w, window, stride, 0)
    windows = _windows(x.transpose(0, 2, 3, 1), window, stride, oh, ow)
    slabs = windows.transpose(3, 4, 0, 1, 2, 5).reshape(window * window, n, oh, ow, c)
    pooled = slabs[0].copy()  # slabs is a view of x when window is 1
    which = np.zeros(pooled.shape, np.min_scalar_type(window * window - 1))
    bits, taps = pooled.view(f"u{x.itemsize}"), slabs.view(f"u{x.itemsize}")
    for t in range(1, window * window):
        better = ~(slabs[t] <= pooled) & (pooled == pooled)  # argmax's rule, NaN included
        np.maximum(which, better * which.dtype.type(t), out=which)  # t exceeds every earlier tap
        bits ^= (bits ^ taps[t]) & (better * ~bits.dtype.type(0))  # the winning tap's bytes
    return pooled.transpose(0, 3, 1, 2), which.transpose(0, 3, 1, 2)


def maxpool_values(x, window=2, stride=2):
    """maxpool_forward's pooled values, NHWC in memory, without the offsets: a running np.maximum
    over the window*window channels-last taps (a tie of -0.0 with +0.0 may give either zero)."""
    windows = _windows(x.transpose(0, 2, 3, 1), window, stride, *conv_out_hw(*x.shape[2:], window, stride, 0))
    y = windows[:, :, :, 0, 0].copy()
    for t in range(1, window * window):
        np.maximum(y, windows[:, :, :, t // window, t % window], out=y)
    return y.transpose(0, 3, 1, 2)


def _winner_offsets(which, input_shape, window, stride):
    """(n, oh, ow, c) int64 offsets into the flat channels-last input of maxpool_forward's winners:
    each window's origin plus its winner's position in it, (dy*w + dx)*c, from a table."""
    n, c, h, w = input_shape
    oh, ow = conv_out_hw(h, w, window, stride, 0)
    table = (np.arange(window).reshape(-1, 1) * w + np.arange(window)).ravel() * c
    offsets = table[which.transpose(0, 2, 3, 1)]  # casts which in buffers, unlike take; raises outside the window
    # then each window's origin, in two adds that need no buffers: its channel, then its (image, row, column)
    offsets += np.arange(c)
    pixel = (np.arange(n).reshape(n, 1, 1) * h + np.arange(oh).reshape(oh, 1) * stride) * w + np.arange(ow) * stride
    offsets += pixel.reshape(n, oh, ow, 1) * c
    return offsets


def maxpool_backward(which, grad_out, input_shape, window=2, stride=2):
    """Route each output gradient to its window's winner (maxpool_forward's which), scattering into NHWC memory."""
    grad_x = np.zeros(math.prod(input_shape), dtype=grad_out.dtype)
    idx = _winner_offsets(which, input_shape, window, stride).ravel()
    np.add.at(grad_x, idx, grad_out.transpose(0, 2, 3, 1).ravel())  # a view when it arrives channels-last
    return _nchw(grad_x, input_shape)


def global_avgpool_forward(x):
    return x.mean(axis=(2, 3), keepdims=True)


def global_avgpool_backward(grad_out, input_shape):
    n, c, h, w = input_shape
    grad_x = np.broadcast_to((grad_out / grad_out.dtype.type(h * w)).reshape(n, 1, 1, c), (n, h, w, c))
    return grad_x.copy().transpose(0, 3, 1, 2)  # NHWC memory, like the activations it came from


# ---------------------------------------------------------------------------
# pointwise / normalization


def relu_forward(x):
    return np.maximum(x, 0)


def relu_backward(x, grad_out):
    return grad_out * (x > 0)


def bn_eval_affine(bn: BatchNorm, dtype):
    """(scale, shift) of eval-mode batch norm for inputs of dtype: y = x * scale + shift per channel."""
    scale = bn.gamma / np.sqrt(bn.running_var.astype(dtype) + dtype.type(BN_EPS))
    return scale, bn.beta - bn.running_mean.astype(dtype) * scale


def sum_in_order(arrays):
    """arrays[0] + arrays[1] + ..., left to right, so the bytes depend only on the order of the list."""
    return reduce(np.add, arrays)


def batchnorm_train(parts, bn: BatchNorm):
    """Train-mode batch norm of a batch given as slices along n: ([y], [cache]) per slice.

    Each slice sums its (rows, c) matrix by BLAS for the mean, then its
    centred rows by einsum for the biased variance (two passes, not
    E[x^2] - E[x]^2); the slices' sums are added in slice order. The
    unbiased variance goes into bn's running stats in place, and each slice
    normalizes its own image rows. The per-slice steps run on the slice
    threads (_map_slices); the bytes depend only on the slice boundaries.
    """
    rows = [_rows(x) for x in parts]
    dt, m = rows[0].dtype, sum(map(len, rows))
    if m < 2:
        raise ValueError(f"batchnorm train mode needs n*h*w >= 2 per channel, got {m}")
    mean = sum_in_order(_map_slices(lambda r: np.ones(len(r), dt) @ r, rows)) / dt.type(m)
    mean_px = _per_pixel(mean, parts[0].shape)

    def centre(r):
        xhat = r.reshape(-1, len(mean_px)) - mean_px  # image rows; einsum sums the (rows, c) view
        sq = xhat.reshape(r.shape)
        return xhat, np.einsum("ij,ij->j", sq, sq)

    xhats, sums = zip(*_map_slices(centre, rows))
    var = sum_in_order(sums) / dt.type(m)  # biased
    for stat, batch in ((bn.running_mean, mean), (bn.running_var, var * (m / (m - 1)))):
        stat *= 1.0 - BN_MOMENTUM
        stat += BN_MOMENTUM * batch.astype(stat.dtype)
    std = np.sqrt(var + dt.type(BN_EPS))
    scale = bn.gamma / std
    inv_std, gamma, beta = (_per_pixel(v, parts[0].shape) for v in (1.0 / std, bn.gamma, bn.beta))

    def normalize(xhat):
        xhat *= inv_std
        y = xhat * gamma
        y += beta
        return y

    ys = _map_slices(normalize, xhats)
    return [_nchw(y, x.shape) for y, x in zip(ys, parts)], [(_nchw(xh, x.shape), scale) for xh, x in zip(xhats, parts)]


def batchnorm_train_backward(grads, caches):
    """Train-mode gradient through the batch mean and variance, of a batch given as slices.

    Closed form per channel (Ioffe & Szegedy, 2015) on (rows, c) matrices:
    grad_x = (gamma / std) * (g - xhat * grad_gamma / m - grad_beta / m), with
    grad_beta = sum(g) and grad_gamma = sum(g * xhat) summed per slice and
    added in slice order; each slice then builds its grad_x in place in one
    buffer, NHWC in memory. Returns ([grad_x], grad_gamma, grad_beta).
    """
    g_rows, xhats = [_rows(g) for g in grads], [_rows(xhat) for xhat, _ in caches]
    scale, m = caches[0][1], sum(map(len, g_rows))
    sums = _map_slices(lambda g, xhat: (np.ones(len(g), g.dtype) @ g, np.einsum("ij,ij->j", g, xhat)), g_rows, xhats)
    grad_beta, grad_gamma = (sum_in_order(s) for s in zip(*sums))
    per_xhat, shift, scale = (_per_pixel(v, grads[0].shape) for v in (-grad_gamma / m, grad_beta / m, scale))

    def grad_x(g, xhat):
        gx = xhat.reshape(-1, len(scale)) * per_xhat
        gx += g.reshape(gx.shape)
        gx -= shift
        gx *= scale
        return gx

    gxs = _map_slices(grad_x, g_rows, xhats)
    return [_nchw(gx, g.shape) for gx, g in zip(gxs, grads)], grad_gamma, grad_beta


def keep_mask(shape, p, rng, rows=None):
    """rng's keep mask for an array of shape, or its rows lo:hi along n with rows=(lo, hi)
    (SplitRng.keep_mask); a 4-D one is drawn channels-last, to match the NHWC memory of conv
    outputs, so its rows along n are contiguous."""
    if rng is None:
        raise ValueError("dropout with p > 0 requires an rng in train mode")
    if len(shape) == 4:
        n, c, h, w = shape
        return rng.keep_mask((n, h, w, c), p, rows).transpose(0, 3, 1, 2)
    return rng.keep_mask(shape, p, rows)


def _train_keep(p: float, keep):
    """The keep mask a train forward applies: keep at p > 0, where it is required; else None."""
    if p == 0.0:
        return None
    if keep is None:
        raise ValueError("dropout with p > 0 requires a keep mask in train mode")
    return keep


def dropout_apply(x, keep, p: float):
    """Inverted dropout of x by a drawn keep mask."""
    y = np.multiply(x, keep)
    y /= x.dtype.type(1.0 - p)
    return y


def dropout_backward(grad_out, mask, p: float):
    """Gradient through the keep mask; passed through where the forward was the identity (mask None)."""
    if mask is None:
        return grad_out
    grad_x = np.multiply(grad_out, mask)
    grad_x /= grad_out.dtype.type(1.0 - p)
    return grad_x


def relu_dropout_forward(x, p: float, mask):
    """relu_forward then dropout_apply by a drawn mask (p > 0), in one buffer.

    The result y has the bytes of the two in turn, and y > 0 is the pair's
    keep: as 1 - p <= 1, y > 0 exactly where x > 0 and the mask kept the
    element, so dropout_backward(g, y > 0, p) equals dropout_backward then
    relu_backward bit for bit, signed zeros included, and the ReLU's input
    need not be held.
    """
    y = relu_forward(x)
    y *= mask
    y /= x.dtype.type(1.0 - p)
    return y


# ---------------------------------------------------------------------------
# classifier tail


def dense_forward(x, weight, bias):
    """x (n,d) @ weight (d,m) + bias (m,)."""
    if x.ndim != 2 or x.shape[1] != weight.shape[0]:
        raise ShapeError(f"dense expects (n,{weight.shape[0]}), got {x.shape}")
    return x @ weight + bias


def dense_backward(x, weight, grad_out):
    return grad_out @ weight.T, x.T @ grad_out, grad_out.sum(axis=0)


def softmax_xent(logits, labels):
    """Mean cross-entropy and its logit gradient, max-stabilized.

    labels is an int vector in [0, k); grad is (softmax - onehot)/n.
    """
    n, k = logits.shape
    labels = np.asarray(labels)
    if labels.min() < 0 or labels.max() >= k:
        raise ValueError(f"labels must lie in [0, {k})")
    shifted = logits - logits.max(axis=1, keepdims=True)
    exp = np.exp(shifted)
    z = exp.sum(axis=1, keepdims=True)
    log_p = shifted - np.log(z)
    loss = -log_p[np.arange(n), labels].mean()
    grad = exp / z
    grad[np.arange(n), labels] -= 1.0
    return float(loss), grad / n


# ---------------------------------------------------------------------------
# layer objects (used by network.Model)


class Layer:
    """Base of the layer objects a Model runs in order.

    forward(x, keep) is the train forward of one slice: it returns (y,
    cache) with what backward needs, keep being the slice's drawn keep
    mask (keep_mask) of a dropping layer's output. backward(cache,
    grad_out) returns (grad_x, grads), one gradient per param_entries()
    entry in that order. eval(x) is the output of one eval slice. A train
    step runs forward_slices and backward_slices on a batch given as
    slices along n; only batch norm, whose statistics span the whole
    batch, overrides them, and it has no forward or backward of its own.
    Layers keep no per-batch state: Model keeps the train caches.
    """

    kind = "layer"

    def __init__(self, name: str):
        self.name = name

    def init_params(self, rng: SplitRng, dtype):
        pass

    def forward(self, x, keep=None):
        raise NotImplementedError

    def eval(self, x):
        """Output of one eval slice: the train forward's, for a layer that infers as it trains."""
        return self.forward(x)[0]

    def backward(self, cache, grad_out):
        raise NotImplementedError

    def forward_slices(self, parts, draws):
        """Train forward of the slices parts, slice j with its rows draws[j]() of the keep mask, drawn on
        its own thread: ([y], [cache]) per slice."""
        return tuple(zip(*_map_slices(lambda x, draw: self.forward(x, draw()), parts, draws)))

    def backward_slices(self, caches, grads, **flags):
        """backward(cache, grad, **flags) per slice: ([grad_x], parameter gradients added in slice order)."""
        outs = _map_slices(lambda cache, g: self.backward(cache, g, **flags), caches, grads)
        return [gx for gx, _ in outs], [sum_in_order(g) for g in zip(*(slice_grads for _, slice_grads in outs))]

    def param_entries(self):
        """(name, value) of each trainable parameter."""
        return ()

    def state_entries(self):
        """Trainable params plus persistent buffers (for checkpoints)."""
        return self.param_entries()

    def out_shape(self, in_shape):
        return in_shape

    def param_count(self) -> int:
        return 0

    def mac_count(self, in_shape) -> int:
        return 0


class Conv2d(Layer):
    kind = "conv"

    def __init__(self, name, in_channels, out_channels, kernel, stride=1, pad=0):
        super().__init__(name)
        if min(in_channels, out_channels, kernel, stride) < 1 or pad < 0:
            raise ValueError("conv requires channels, kernel, stride >= 1 and pad >= 0")
        self.c_in = in_channels
        self.c_out = out_channels
        self.k = kernel
        self.stride = stride
        self.pad = pad
        self.weight = self.bias = None

    def init_params(self, rng, dtype):
        fan_in = self.c_in * self.k * self.k
        scale = np.sqrt(2.0 / fan_in)
        self.weight = (rng.normal((self.c_out, self.c_in, self.k, self.k)) * scale).astype(dtype)
        self.bias = np.zeros(self.c_out, dtype=dtype)

    def forward(self, x, keep=None):
        return _conv2d_forward(x, self.weight, self.bias, self.stride, self.pad)

    def backward(self, x, grad_out, input_grad=True):
        """With input_grad=False the input gradient is not computed and comes back as None."""
        gx, gw, gb = _conv2d_backward(x, self.weight, self.stride, self.pad, grad_out, input_grad)
        return gx, (gw, gb)

    def param_entries(self):
        return ((f"{self.name}.weight", self.weight), (f"{self.name}.bias", self.bias))

    def out_shape(self, in_shape):
        n, c, h, w = in_shape
        if c != self.c_in:
            raise ShapeError(f"{self.name}: expects {self.c_in} channels, got {c}")
        oh, ow = conv_out_hw(h, w, self.k, self.stride, self.pad)
        return (n, self.c_out, oh, ow)

    def param_count(self) -> int:
        return self.c_out * self.c_in * self.k * self.k + self.c_out

    def mac_count(self, in_shape) -> int:
        _, _, oh, ow = self.out_shape((1,) + tuple(in_shape[1:]))
        return self.c_out * oh * ow * self.c_in * self.k * self.k


class SafPool(Layer):
    kind = "safpool"

    def __init__(self, name, window=2, p=0.0, stride=None):
        super().__init__(name)
        if not 0.0 <= p < 1.0:
            raise ValueError(f"SAF-pool p must be in [0, 1), got {p}")
        self.window = window
        self.stride = window if stride is None else stride
        if min(self.window, self.stride) < 1:
            raise ValueError("SAF-pool requires window, stride >= 1")
        self.p = p

    def forward(self, x, keep=None):
        keep = _train_keep(self.p, keep)
        pooled, which = maxpool_forward(x, self.window, self.stride)
        return (pooled if keep is None else dropout_apply(pooled, keep, self.p)), (x.shape, keep, which)

    def eval(self, x):
        """Plain max-pooling: eval dropout is the identity."""
        return maxpool_values(x, self.window, self.stride)

    def backward(self, cache, grad_out):
        x_shape, mask, which = cache
        return maxpool_backward(which, dropout_backward(grad_out, mask, self.p), x_shape, self.window, self.stride), ()

    def out_shape(self, in_shape):
        n, c, h, w = in_shape
        return (n, c, *conv_out_hw(h, w, self.window, self.stride, 0))


class ReLU(Layer):
    kind = "relu"

    def forward(self, x, keep=None):
        return relu_forward(x), x

    def backward(self, x, grad_out):
        return relu_backward(x, grad_out), ()


class BatchNorm(Layer):
    kind = "bn"

    def __init__(self, name, channels):
        super().__init__(name)
        self.channels = channels
        self.gamma = self.beta = self.running_mean = self.running_var = None

    def init_params(self, rng, dtype):
        c = self.channels
        self.gamma, self.beta = np.ones(c, dtype=dtype), np.zeros(c, dtype=dtype)
        self.running_mean, self.running_var = np.zeros(c, dtype=dtype), np.ones(c, dtype=dtype)

    def forward_slices(self, parts, draws):
        """Train forward over the whole batch's statistics (batchnorm_train)."""
        self._check(parts[0])
        return batchnorm_train(parts, self)

    def backward_slices(self, caches, grads):
        """Train gradient through the whole batch's statistics (batchnorm_train_backward)."""
        gxs, gg, gb = batchnorm_train_backward(grads, caches)
        return gxs, (gg, gb)

    def _check(self, x):
        if x.shape[1] != self.channels:
            raise ShapeError(f"{self.name}: expects {self.channels} channels, got {x.shape[1]}")

    def eval(self, x):
        """One affine map per channel by the running stats (bn_eval_affine); y is NHWC in memory."""
        self._check(x)
        scale, shift = bn_eval_affine(self, x.dtype)
        y = _rows(x).reshape(len(x), -1) * _per_pixel(scale, x.shape)
        y += _per_pixel(shift, x.shape)
        return _nchw(y, x.shape)

    def param_entries(self):
        return ((f"{self.name}.gamma", self.gamma), (f"{self.name}.beta", self.beta))

    def state_entries(self):
        running = ((f"{self.name}.running_mean", self.running_mean), (f"{self.name}.running_var", self.running_var))
        return super().state_entries() + running

    def param_count(self) -> int:
        return 2 * self.channels


class Dropout(Layer):
    kind = "dropout"

    def __init__(self, name, p):
        super().__init__(name)
        if not 0.0 <= p < 1.0:
            raise ValueError(f"dropout p must be in [0, 1), got {p}")
        self.p = p

    def forward(self, x, keep=None):
        """Inverted dropout by keep, the drawn keep mask of x's shape; the identity at p = 0."""
        keep = _train_keep(self.p, keep)
        return (x if keep is None else dropout_apply(x, keep, self.p)), keep

    def eval(self, x):
        return x

    def backward(self, mask, grad_out):
        """mask is the keep mask, or the output y of a relu -> dropout pair, whose keep is y > 0."""
        if mask is not None and mask.dtype != bool:
            mask = mask > 0
        return dropout_backward(grad_out, mask, self.p), ()


class GlobalAvgPool(Layer):
    kind = "gap"

    def forward(self, x, keep=None):
        return global_avgpool_forward(x), x.shape

    def backward(self, x_shape, grad_out):
        return global_avgpool_backward(grad_out, x_shape), ()

    def out_shape(self, in_shape):
        return (*in_shape[:2], 1, 1)


class Flatten(Layer):
    kind = "flatten"

    def forward(self, x, keep=None):
        return x.reshape(x.shape[0], -1), x.shape

    def backward(self, x_shape, grad_out):
        return grad_out.reshape(x_shape), ()

    def out_shape(self, in_shape):
        return (in_shape[0], int(math.prod(in_shape[1:])))


class Dense(Layer):
    kind = "dense"

    def __init__(self, name, in_features, units):
        super().__init__(name)
        if min(in_features, units) < 1:
            raise ValueError("dense requires in_features, units >= 1")
        self.d = in_features
        self.m = units
        self.weight = self.bias = None

    def init_params(self, rng, dtype):
        scale = np.sqrt(2.0 / self.d)
        self.weight = (rng.normal((self.d, self.m)) * scale).astype(dtype)
        self.bias = np.zeros(self.m, dtype=dtype)

    def forward(self, x, keep=None):
        return dense_forward(x, self.weight, self.bias), x

    def backward(self, x, grad_out):
        gx, gw, gb = dense_backward(x, self.weight, grad_out)
        return gx, (gw, gb)

    def param_entries(self):
        return ((f"{self.name}.weight", self.weight), (f"{self.name}.bias", self.bias))

    def out_shape(self, in_shape):
        if len(in_shape) != 2 or in_shape[1] != self.d:
            raise ShapeError(f"{self.name}: expects (n, {self.d}), got {in_shape}")
        return (in_shape[0], self.m)

    def param_count(self) -> int:
        return self.d * self.m + self.m

    def mac_count(self, in_shape) -> int:
        return self.d * self.m
