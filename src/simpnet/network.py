"""Sequential model container, parameter ledger, and checkpoint I/O."""

from __future__ import annotations

import math
import struct
from dataclasses import dataclass, field

import numpy as np

from .data import read_exact
from .errors import CompatibilityError, FormatError, NoForwardCacheError, ShapeError
from .layers import EVAL, TRAIN, BatchNorm, Conv2d, Dropout, Layer, ReLU, SafPool
from .layers import bn_eval_affine, conv2d_forward, maxpool_values, relu_dropout_forward
from .rng import SplitRng

CHECKPOINT_MAGIC = b"SNPK"
CHECKPOINT_VERSION = 1
_DTYPE_CODES = {np.dtype(np.float32): 0, np.dtype(np.float64): 1}
_CODE_DTYPES = {0: np.dtype(np.float32), 1: np.dtype(np.float64)}


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


class Model:
    """Ordered layer stack with named parameters.

    The model is the one owner of per-batch state: `caches` holds each
    layer's backward cache from the last train-mode forward (None after
    an eval-mode forward), and backward walks them in reverse. A train-mode
    forward runs relu -> dropout (p > 0) as one unit that caches only a
    bool keep mask, under the dropout; the relu's cache is None, and
    backward runs only the dropout's backward for the pair. The mode
    is a forward argument, and layers keep no state, so an eval-mode
    forward, which runs fused conv -> bn -> relu and pool units, is a
    pure function of (input, parameters). Backward returns the gradients
    and keeps none, so calling it again after the same forward gives the
    same values. A model is single-owner while training.
    """

    def __init__(self, layers: list[Layer], input_shape: tuple[int, int, int]):
        self.layers = layers
        self.input_shape = tuple(input_shape)  # (c, h, w)
        self.caches = None
        names = [n for l in layers for n, _ in l.param_entries()]
        if len(names) != len(set(names)):
            raise ValueError("duplicate parameter names in model")

    def init_params(self, rng: SplitRng, dtype=np.float32):
        for i, layer in enumerate(self.layers):
            layer.init_params(rng.split(i), dtype)
        return self

    def forward(self, x: np.ndarray, rng: SplitRng | None = None, mode: str = TRAIN) -> np.ndarray:
        """Apply layers in order, keeping their caches in train mode only.

        The previous forward's caches are dropped first, so their memory
        is free before this forward allocates. In train mode each
        stochastic layer draws from rng.split(i) with i the layer index,
        so streams are stable under reordering.
        """
        self.caches = None
        if mode != TRAIN:
            return self._eval_forward(x)
        return self._train_forward(x, rng)

    def _train_forward(self, x, rng):
        """relu -> dropout (p > 0) as relu_dropout_forward, caching only its keep mask; the rest layer by layer."""
        layers, caches, i = self.layers, [], 0
        while i < len(layers):
            layer, drop = (*layers[i : i + 2], None)[:2]
            try:
                if isinstance(layer, ReLU) and isinstance(drop, Dropout) and drop.p > 0 and rng is not None:
                    x, keep = relu_dropout_forward(x, drop.p, rng.split(i + 1))
                    caches += [None, keep]  # backward skips a ReLU whose cache is None
                    i += 1
                else:
                    x, cache = layer.forward(x, TRAIN, rng.split(i) if rng is not None else None)
                    caches.append(cache)
            except ShapeError as e:
                raise ShapeError(f"at layer {layer.name!r}: {e}") from e
            i += 1
        self.caches = caches
        return x

    def _eval_forward(self, x):
        """conv -> bn (-> relu) as one conv, bn folded into new arrays per call (none goes stale); pools as maxima."""
        layers, i = self.layers, 0
        while i < len(layers):
            layer, bn, relu = (*layers[i : i + 3], None, None)[:3]
            try:
                if isinstance(layer, SafPool):  # eval dropout is the identity
                    x = maxpool_values(x, layer.window, layer.stride)
                elif isinstance(layer, Conv2d) and isinstance(bn, BatchNorm) and bn.channels == layer.c_out:
                    scale, shift = bn_eval_affine(bn.p, np.result_type(x, layer.weight))
                    w = layer.weight * scale.reshape(-1, 1, 1, 1)
                    x = conv2d_forward(x, w, layer.bias * scale + shift, layer.stride, layer.pad)
                    if isinstance(relu, ReLU):
                        np.maximum(x, 0, out=x)
                    i += 1 + isinstance(relu, ReLU)  # the layers folded in
                else:
                    x = layer.forward(x, EVAL, None)[0]
            except ShapeError as e:
                raise ShapeError(f"at layer {layer.name!r}: {e}") from e
            i += 1
        return x

    def backward(self, grad_out: np.ndarray, input_grad: bool = True):
        """Gradients from the last train-mode forward's caches: (grad wrt the input,
        [(name, value, grad)] of every parameter in layer order).

        With input_grad=False the input gradient comes back as None, and a
        first conv does not compute it; the parameter gradients are the same.
        """
        if self.caches is None:
            raise NoForwardCacheError("backward needs a train-mode forward first")
        grads = []
        for i in reversed(range(len(self.layers))):
            layer, cache = self.layers[i], self.caches[i]
            if cache is None and isinstance(layer, ReLU):
                continue  # folded into the next dropout's keep mask
            if i == 0 and not input_grad and isinstance(layer, Conv2d):
                grad_out, layer_grads = layer.backward(cache, grad_out, input_grad=False)
            else:
                grad_out, layer_grads = layer.backward(cache, grad_out)
            grads[:0] = [(n, v, g) for (n, v), g in zip(layer.param_entries(), layer_grads, strict=True)]
        return (grad_out if input_grad else None), grads

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


def count_macs(model: Model, input_shape=None) -> ParamLedger:
    """Per-layer parameter counts and multiply-accumulate counts for one
    sample; pooling and pointwise layers count 0 MACs by convention."""
    shape = (1,) + tuple(input_shape if input_shape is not None else model.input_shape)
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
            dims = struct.unpack(f"<{ndim}I", read_exact(f, 4 * ndim, "dims", "checkpoint"))
            dtype = _CODE_DTYPES[code]
            data = read_exact(f, math.prod(dims) * dtype.itemsize, f"data of {name!r}", "checkpoint")
            arr = np.frombuffer(data, dtype=dtype.newbyteorder("<")).astype(dtype).reshape(dims)
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
            raise CompatibilityError(f"checkpoint tensor {name!r} not in model")
    for name, value in state.items():
        if name not in tensors:
            raise CompatibilityError(f"model tensor {name!r} missing from checkpoint")
        src = tensors[name]
        if src.shape != value.shape:
            raise CompatibilityError(f"shape mismatch for {name!r}: checkpoint {src.shape} vs model {value.shape}")
        if src.dtype != value.dtype:
            raise CompatibilityError(f"dtype mismatch for {name!r}: checkpoint {src.dtype} vs model {value.dtype}")
        value[...] = src
    return model
