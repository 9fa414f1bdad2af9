"""Sequential model container, parameter ledger, and checkpoint I/O."""

from __future__ import annotations

import ctypes
import glob
import itertools
import os
import struct
from concurrent.futures import ThreadPoolExecutor, wait
from contextlib import contextmanager
from dataclasses import dataclass, field
from functools import partial

import numpy as np

from .data import read_array, read_exact
from .errors import CompatibilityError, FormatError, NoForwardCacheError, ShapeError
from .layers import BatchNorm, Conv2d, Dropout, Layer, ReLU, SafPool
from .layers import bn_eval_affine, conv2d_forward, keep_mask, relu_dropout_forward
from .rng import SplitRng

CHECKPOINT_MAGIC = b"SNPK"
CHECKPOINT_VERSION = 1
CHECKPOINT_MAX_NDIM = 32  # the least ndarray rank limit of any supported numpy (1.x)
_DTYPE_CODES = {np.dtype(np.float32): 0, np.dtype(np.float64): 1}
_CODE_DTYPES = {0: np.dtype(np.float32), 1: np.dtype(np.float64)}
EVAL_SLICE = 32  # images per eval slice, from a sweep of 32, 64 and 128 (CHANGES.md)
TRAIN_SLICE = 64  # images per train slice, from a sweep with layers.LOWERING_BYTES (CHANGES.md)


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
WORKERS = _BLAS_THREADS[0]() if _BLAS_THREADS else 1  # threads a forward or backward runs slices on
_pool = None  # WORKERS - 1 threads, started by the first forward with more than one slice


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


def _slices(x, size):
    """Views of x along n, size images each (the last may be shorter); one slice of the whole
    batch where the BLAS thread calls are not found."""
    if _BLAS_THREADS is None or len(x) <= size:
        return [x]
    return [x[lo : lo + size] for lo in range(0, len(x), size)]


def _map_slices(fn, *parts):
    """[fn(*slice) for each slice of the equally long lists parts], run on up to WORKERS threads.

    Thread t runs slice t first; after that each thread takes the next
    slice that no thread has taken, so a thread whose core the host slows
    down runs fewer slices instead of holding up the batch. Thread 0 is the
    caller, so it allocates the intermediates of its slices in its own
    malloc arena: when pool threads ran every slice and the caller only
    waited, their fresh glibc arenas raised peak RSS by 17% on simpnet-tiny.
    Every slice's result lands at its own index, so the result does not
    depend on which thread ran it. Waits for every slice, then raises the
    caller's first error, or else the first of a pool thread's.
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
    futures = [_pool.submit(run_slices, t) for t in range(1, k)]
    try:
        run_slices(0)
    finally:
        if futures:  # wait() costs about 10 us even for no futures, and one-slice calls are many
            wait(futures)
    for f in futures:
        f.result()
    return out


@dataclass(frozen=True)
class LedgerRow:
    name: str
    param_count: int
    mac_count: int
    out_shape: tuple


@dataclass
class ParamLedger:
    rows: list[LedgerRow] = field(default_factory=list)

    @property
    def total_params(self) -> int:
        return sum(r.param_count for r in self.rows)

    @property
    def total_macs(self) -> int:
        return sum(r.mac_count for r in self.rows)

    def render(self) -> str:
        lines = [f"{'layer':<14} {'params':>10} {'macs':>12}  out_shape"]
        for r in self.rows:
            lines.append(f"{r.name:<14} {r.param_count:>10} {r.mac_count:>12}  {r.out_shape}")
        lines.append(f"{'total':<14} {self.total_params:>10} {self.total_macs:>12}")
        return "\n".join(lines)


def _folded_conv(conv, bn, relu, x):
    scale, shift = bn_eval_affine(bn.p, np.result_type(x, conv.weight))
    w = conv.weight * scale.reshape(-1, 1, 1, 1)
    y = conv2d_forward(x, w, conv.bias * scale + shift, conv.stride, conv.pad)
    return np.maximum(y, 0, out=y) if relu else y


def _train_unit(layer, j, paired, parts, rng):
    """Run of a train unit ending in layer j: its forward_slices, or relu_dropout_forward per slice if
    paired. A Dropout or SafPool with p > 0 has one keep mask for its output over the whole batch, from
    rng.split(j) split on the caller, and each slice draws its own rows of it on its thread; others None."""
    draws = [lambda: None] * len(parts)
    if isinstance(layer, (Dropout, SafPool)) and layer.p > 0:  # by type: BatchNorm.p holds its parameters
        shape, stream = layer.out_shape((sum(map(len, parts)), *parts[0].shape[1:])), rng and rng.split(j)
        ends = itertools.accumulate(map(len, parts))
        draws = [partial(keep_mask, shape, layer.p, stream, (hi - len(x), hi)) for x, hi in zip(parts, ends)]
    if paired:
        return tuple(zip(*_map_slices(lambda x, draw: relu_dropout_forward(x, layer.p, draw()), parts, draws)))
    return layer.forward_slices(parts, draws, _map_slices)


# A unit is (index of its first layer, its layers, run), each layer in one unit. Units read layer
# attributes and call methods and kernels by name when they run, so replaced parameters and wrapped
# functions are seen.


def train_units(layers: list[Layer]) -> list[tuple]:
    """The units Model.forward runs, in order.

    A train unit's run(parts, rng) -> ([y], [cache]) runs the whole batch,
    given as slices along n, on the slice threads (_map_slices). A relu
    directly followed by a dropout with p > 0 runs as relu_dropout_forward,
    caching only the bool keep = y > 0, on which the dropout's backward is
    the pair's gradient bit for bit. Every other layer is a unit of its
    own that runs its forward_slices. The pair, a dropout and a SafPool
    with p > 0 have one keep mask for the batch from rng.split(i), i the
    index of the dropping layer, and each slice draws its rows on its own
    thread; no other unit splits the rng. Train caches, per slice: a
    conv's padded NHWC input, batch norm's xhat and per-channel scale, a
    pair's keep mask, a SafPool's keep mask and winners' offsets, a dense
    layer's input, an unpaired relu's input.
    """
    units, i = [], 0
    while i < len(layers):
        layer, nxt = (*layers[i : i + 2], None)[:2]
        if isinstance(layer, ReLU) and isinstance(nxt, Dropout) and nxt.p > 0:
            group, run = (layer, nxt), partial(_train_unit, nxt, i + 1, True)
        else:
            group, run = (layer,), partial(_train_unit, layer, i, False)
        units.append((i, group, run))
        i += len(group)
    return units


def eval_units(layers: list[Layer]) -> list[tuple]:
    """The units Model.eval runs on each eval slice, in order.

    An eval unit's run(x) -> y runs one slice and caches nothing. A conv
    directly followed by a batch norm of its width (and a relu after that)
    runs as one conv with bn_eval_affine folded in, into new arrays per
    call; every other layer is a unit of its own that runs its eval.
    """
    units, i = [], 0
    while i < len(layers):
        layer, nxt, after = (*layers[i : i + 3], None, None)[:3]
        if isinstance(layer, Conv2d) and isinstance(nxt, BatchNorm) and nxt.channels == layer.c_out:
            group = (layer, nxt, after)[: 2 + isinstance(after, ReLU)]
            run = partial(_folded_conv, layer, nxt, len(group) == 3)
        else:
            group, run = (layer,), lambda x, layer=layer: layer.eval(x)
        units.append((i, group, run))
        i += len(group)
    return units


def _eval_slice(units, x):
    """One eval slice through `units` in turn; a ShapeError names its unit's first layer."""
    try:
        for _, layers, run in units:
            x = run(x)
    except ShapeError as e:
        raise ShapeError(f"at layer {layers[0].name!r}: {e}") from e
    return x


class Model:
    """Ordered layer stack with named parameters: forward trains through
    train_units, and eval infers through eval_units.

    The model is the one owner of per-batch state: `caches` holds each
    train unit's backward caches, one per slice, from the last forward
    (None after an eval). Layers keep no state, so eval is a pure function
    of (input, parameters), and backward returns the gradients and keeps
    none, so calling it again after the same forward gives the same
    values. A model is single-owner while training. Forward, eval and
    backward set the process-wide BLAS thread count until they return, so
    no two of them may run at the same time, on one model or on two.

    They run slices of TRAIN_SLICE or EVAL_SLICE images on WORKERS threads
    (_map_slices) at one BLAS thread; where the OpenBLAS thread calls are
    not found, the batch is one slice on the caller. So the outputs do not
    depend on the thread count. They can differ in their last bits from
    the same images run as one slice, since sums over slices are added in
    slice order and OpenBLAS rounds some GEMMs by their row count (float32
    ones with M*N*K <= 10**6, one-row products, more in float64); in
    float32, four full eval slices give the whole batch's bytes.
    """

    def __init__(self, layers: list[Layer], input_shape: tuple[int, int, int]):
        self.layers = layers
        self.input_shape = tuple(input_shape)  # (c, h, w)
        self.train_units, self.eval_units = train_units(layers), eval_units(layers)
        self.caches = None
        names = [n for l in layers for n, _ in l.param_entries()]
        if len(names) != len(set(names)):
            raise ValueError("duplicate parameter names in model")

    def init_params(self, rng: SplitRng, dtype=np.float32):
        for i, layer in enumerate(self.layers):
            layer.init_params(rng.split(i), dtype)
        return self

    def forward(self, x: np.ndarray, rng: SplitRng | None = None) -> np.ndarray:
        """Train forward, keeping the caches: one train unit at a time over every slice of the batch, the
        activations a list of slices joined only at the logits. The last caches are dropped first, so
        their memory is free before this forward allocates."""
        self.caches, caches = None, []
        parts = _slices(x, TRAIN_SLICE)
        with _one_blas_thread():
            try:
                for _, layers, run in self.train_units:
                    parts, cache = run(parts, rng)
                    caches.append(cache)
            except ShapeError as e:
                raise ShapeError(f"at layer {layers[0].name!r}: {e}") from e
        self.caches = caches
        return np.concatenate(parts)

    def eval(self, x: np.ndarray) -> np.ndarray:
        """Inference: each eval slice through every eval unit in turn. The last caches are dropped first."""
        self.caches = None
        with _one_blas_thread():
            return np.concatenate(_map_slices(partial(_eval_slice, self.eval_units), _slices(x, EVAL_SLICE)))

    def backward(self, grad_out: np.ndarray, input_grad: bool = True):
        """Gradients from the last forward's caches: (grad wrt the input,
        [(name, value, grad)] of every parameter in layer order).

        Each unit's last layer runs its backward_slices on the forward's
        slices: the slices' parameter gradients are added in slice order,
        and batch norm adds its per-slice sums before any slice's input
        gradient. With input_grad=False the input gradient comes back as
        None, and a first conv does not compute it; the parameter
        gradients are the same.
        """
        if self.caches is None:
            raise NoForwardCacheError("backward needs a train-mode forward first")
        grads, parts = [], _slices(grad_out, TRAIN_SLICE)
        with _one_blas_thread():
            for (start, layers, _), caches in zip(reversed(self.train_units), reversed(self.caches)):
                layer = layers[-1]
                flags = {"input_grad": False} if start == 0 and not input_grad and isinstance(layer, Conv2d) else {}
                parts, layer_grads = layer.backward_slices(caches, parts, _map_slices, **flags)
                grads[:0] = [(n, v, g) for (n, v), g in zip(layer.param_entries(), layer_grads, strict=True)]
        return (np.concatenate(parts) if input_grad else None), grads

    def state_tensors(self):
        """Params plus persistent buffers (BN running stats), layer order."""
        return [entry for layer in self.layers for entry in layer.state_entries()]

    def symbolic_shapes(self, batch: int = 1):
        """Per-layer output shapes computed without running data."""
        shape = (batch,) + self.input_shape
        shapes = []
        for layer in self.layers:
            shape = layer.out_shape(shape)
            shapes.append(shape)
        return shapes


def count_macs(model: Model) -> ParamLedger:
    """Per-layer parameter counts and multiply-accumulate counts for one
    sample; pooling and pointwise layers count 0 MACs by convention."""
    shape = (1,) + model.input_shape
    ledger = ParamLedger()
    for layer in model.layers:
        out = layer.out_shape(shape)
        ledger.rows.append(LedgerRow(layer.name, layer.param_count(), layer.mac_count(shape), out))
        shape = out
    return ledger


def save_checkpoint(model: Model, path):
    """Binary dump of every state tensor; see format note below.

    magic "SNPK", version byte 0x01, then per tensor: u16 name length,
    UTF-8 name, u8 dtype code (0=f32, 1=f64), u8 ndim, u32 per dim,
    raw little-endian data. All integers little-endian.
    """
    entries = model.state_tensors()
    for name, value in entries:
        if not np.all(np.isfinite(value)):
            raise ValueError(f"refusing to checkpoint non-finite tensor {name!r}")
    with open(path, "wb") as f:
        f.write(CHECKPOINT_MAGIC)
        f.write(struct.pack("<B", CHECKPOINT_VERSION))
        for name, value in entries:
            raw = name.encode("utf-8")
            f.write(struct.pack("<H", len(raw)))
            f.write(raw)
            f.write(struct.pack("<BB", _DTYPE_CODES[value.dtype], value.ndim))
            f.write(struct.pack(f"<{value.ndim}I", *value.shape))
            f.write(np.ascontiguousarray(value, dtype=value.dtype.newbyteorder("<")).tobytes())


def read_checkpoint(path) -> dict[str, np.ndarray]:
    """Parse a checkpoint into name -> tensor, validating the framing."""
    tensors: dict[str, np.ndarray] = {}
    with open(path, "rb") as f:
        if read_exact(f, 4, "magic", "checkpoint") != CHECKPOINT_MAGIC:
            raise FormatError(f"{path}: bad checkpoint magic (expected SNPK)")
        (version,) = struct.unpack("<B", read_exact(f, 1, "version", "checkpoint"))
        if version != CHECKPOINT_VERSION:
            raise FormatError(f"{path}: unsupported checkpoint version {version}")
        while f.peek(1):
            (name_len,) = struct.unpack("<H", read_exact(f, 2, "name length", "checkpoint"))
            try:
                name = read_exact(f, name_len, "name", "checkpoint").decode("utf-8")
            except UnicodeDecodeError:
                raise FormatError(f"{path}: tensor name is not UTF-8") from None
            code, ndim = struct.unpack("<BB", read_exact(f, 2, "dtype/ndim", "checkpoint"))
            if code not in _CODE_DTYPES:
                raise FormatError(f"{path}: unknown dtype code {code} for {name!r}")
            if ndim > CHECKPOINT_MAX_NDIM:
                raise FormatError(f"{path}: tensor {name!r} has {ndim} dims, over the limit of {CHECKPOINT_MAX_NDIM}")
            dims = struct.unpack(f"<{ndim}I", read_exact(f, 4 * ndim, "dims", "checkpoint"))
            dtype = _CODE_DTYPES[code]
            arr = read_array(f, dims, dtype.newbyteorder("<"), f"data of {name!r}", "checkpoint").astype(dtype)
            if name in tensors:
                raise FormatError(f"{path}: duplicate tensor {name!r} in checkpoint")
            tensors[name] = arr
    return tensors


def load_checkpoint(model: Model, path):
    """Copy checkpoint tensors into the model, strict on names and shapes."""
    tensors = read_checkpoint(path)
    state = dict(model.state_tensors())
    for name in tensors:
        if name not in state:
            raise CompatibilityError(f"{path}: checkpoint tensor {name!r} not in model")
    for name, value in state.items():
        if name not in tensors:
            raise CompatibilityError(f"{path}: model tensor {name!r} missing from checkpoint")
        src = tensors[name]
        if src.shape != value.shape:
            raise CompatibilityError(
                f"{path}: shape mismatch for {name!r}: checkpoint {src.shape} vs model {value.shape}"
            )
        if src.dtype != value.dtype:
            raise CompatibilityError(
                f"{path}: dtype mismatch for {name!r}: checkpoint {src.dtype} vs model {value.dtype}"
            )
        value[...] = src
    return model
