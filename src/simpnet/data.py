"""Dataset loading (MNIST IDX, CIFAR-10 binary), augmentation, batching.

Both on-disk formats are parsed bit-exactly and validated up front;
malformed files raise FormatError, never crash downstream. Images are
held as the files' uint8 pixels, NCHW; each drawn batch becomes float32
and is normalized on its own. IDX integers are big-endian per that
format; everything else in the project is little-endian.
"""

from __future__ import annotations

import math
import os
import struct
from dataclasses import dataclass, replace

import numpy as np

from .errors import FormatError
from .rng import SplitRng

IDX_IMAGES_MAGIC = 0x00000803
IDX_LABELS_MAGIC = 0x00000801
CIFAR10_RECORD_BYTES = 3073  # 1 label byte + 3 * 1024 channel-planar pixels
CIFAR10_BATCH_RECORDS = 10000
CIFAR10_BATCH_BYTES = CIFAR10_BATCH_RECORDS * CIFAR10_RECORD_BYTES
STATS_CHUNK = 1 << 16  # pixels per np.bincount call in normalize(): it makes an intp copy of them


@dataclass
class Dataset:
    images: np.ndarray  # (N, c, h, w) uint8
    labels: np.ndarray  # (N,) int64
    name: str  # where the examples came from; prefixes validation errors
    num_classes: int
    mean: np.ndarray | None = None  # per-channel float64, of the pixels / 255; set by normalize()
    std: np.ndarray | None = None

    def __post_init__(self):
        if self.images.dtype != np.uint8:
            raise ValueError(f"{self.name}: images must be uint8 pixels, got {self.images.dtype}")
        if len(self.images) != len(self.labels):
            raise FormatError(
                f"{self.name}: image/label count mismatch: {len(self.images)} images vs {len(self.labels)} labels"
            )
        if len(self.labels) == 0:
            raise FormatError(f"{self.name}: no examples")
        lo, hi = self.labels.min(), self.labels.max()
        if lo < 0 or hi >= self.num_classes:
            raise FormatError(f"{self.name}: label {lo if lo < 0 else hi} out of range for {self.num_classes} classes")

    def __len__(self):
        return len(self.labels)

    @property
    def sample_shape(self):
        return tuple(self.images.shape[1:])

    def subset(self, n: int) -> "Dataset":
        """First n examples (deterministic desk-scale truncation)."""
        if n < 1:
            raise ValueError(f"subset must be >= 1, got {n}")
        n = min(n, len(self))
        return replace(self, images=self.images[:n], labels=self.labels[:n])


# ---------------------------------------------------------------------------
# bounded reads (IDX, checkpoints) and MNIST IDX


def read_exact(f, n: int, what: str, fmt: str) -> bytes:
    """The next n bytes of binary file f. n is checked against the bytes
    left in the file before reading, so a header that claims more data
    than the file holds fails without allocating for it."""
    left = os.fstat(f.fileno()).st_size - f.tell()
    if n > left:
        raise FormatError(f"{f.name}: truncated {fmt}: expected {n} bytes for {what}, {left} left")
    return f.read(n)


def read_array(f, dims, dtype: np.dtype, what: str, fmt: str) -> np.ndarray:
    """The next array of dims and dtype from binary file f, read by
    read_exact. numpy also refuses an empty array whose nonzero dims
    multiply past np.intp in bytes, so such dims fail as a FormatError."""
    data = read_exact(f, math.prod(dims) * dtype.itemsize, what, fmt)
    if math.prod(d for d in dims if d) * dtype.itemsize > np.iinfo(np.intp).max:
        raise FormatError(f"{f.name}: {fmt} dims {tuple(dims)} of {what} are too large for an array")
    return np.frombuffer(data, dtype=dtype).reshape(dims)


def read_idx(path, ndim: int) -> np.ndarray:
    """Raw uint8 array from an IDX file of ndim dims: (N,) labels or (N, h, w) pixels."""
    expected = {1: IDX_LABELS_MAGIC, 3: IDX_IMAGES_MAGIC}[ndim]
    with open(path, "rb") as f:
        magic, *dims = struct.unpack(f">{ndim + 1}I", read_exact(f, 4 * (ndim + 1), "header", "IDX file"))
        if magic != expected:
            raise FormatError(f"{path}: bad IDX magic 0x{magic:08x} (expected 0x{expected:08x})")
        data = read_array(f, dims, np.dtype(np.uint8), "data", "IDX file")
        if f.peek(1):
            raise FormatError(f"{path}: trailing bytes after IDX data")
    return data


def write_idx_images(images: np.ndarray, path):
    """Serialize (N, h, w) or (N, 1, h, w) uint8 pixels to IDX."""
    if images.ndim == 4:
        images = images[:, 0]
    n, h, w = images.shape
    with open(path, "wb") as f:
        f.write(struct.pack(">IIII", IDX_IMAGES_MAGIC, n, h, w))
        f.write(np.ascontiguousarray(images).tobytes())


def write_idx_labels(labels: np.ndarray, path):
    with open(path, "wb") as f:
        f.write(struct.pack(">II", IDX_LABELS_MAGIC, len(labels)))
        f.write(np.asarray(labels, dtype=np.uint8).tobytes())


def load_mnist(images_path, labels_path) -> Dataset:
    """IDX pair -> Dataset of (N, 1, h, w) uint8 pixels."""
    images = read_idx(images_path, 3)
    labels = read_idx(labels_path, 1)
    return Dataset(images[:, None], labels.astype(np.int64), name=f"{images_path}, {labels_path}", num_classes=10)


# ---------------------------------------------------------------------------
# CIFAR-10 binary


def load_cifar10(batch_paths) -> Dataset:
    """A list of CIFAR-10 binary batch files -> (N, 3, 32, 32) Dataset.

    Each record is 3073 bytes: label byte then 3072 channel-planar
    (R, G, B) row-major pixels. The files are read into one array of
    records, and the images are a view of its pixel columns.
    """
    sizes = [os.path.getsize(path) for path in batch_paths]
    for path, size in zip(batch_paths, sizes):
        if size == 0 or size % CIFAR10_RECORD_BYTES != 0:
            raise FormatError(f"{path}: size {size} is not a positive multiple of {CIFAR10_RECORD_BYTES}")
    raw = np.empty(sum(sizes), dtype=np.uint8)
    for path, size, start in zip(batch_paths, sizes, np.cumsum([0, *sizes])):
        with open(path, "rb") as f:
            if f.readinto(raw[start : start + size]) != size:
                raise FormatError(f"{path}: file shrank while it was read")
    records = raw.reshape(-1, CIFAR10_RECORD_BYTES)
    x = records[:, 1:].reshape(-1, 3, 32, 32)
    y = records[:, 0].astype(np.int64)
    return Dataset(x, y, name=", ".join(map(str, batch_paths)), num_classes=10)


# ---------------------------------------------------------------------------
# normalization & augmentation


def normalize(dataset: Dataset, mean: np.ndarray | None = None, std: np.ndarray | None = None) -> Dataset:
    """The dataset with per-channel float64 statistics of its float32
    pixels / 255, which batches() applies. They are computed from this
    dataset when not given (fit on train, reuse on test), from exact
    per-channel counts of each pixel value: no temporary the size of the
    images."""
    if mean is None or std is None:
        n, c, h, w = dataset.images.shape
        rows = max(1, STATS_CHUNK // (h * w))
        counts = np.zeros((c, 256), dtype=np.int64)
        for ch in range(c):
            for lo in range(0, n, rows):
                counts[ch] += np.bincount(dataset.images[lo : lo + rows, ch].ravel(), minlength=256)
        values = (np.arange(256, dtype=np.float32) / 255.0).astype(np.float64)  # each pixel value as batches() has it
        fit_mean = [math.fsum(k * values) / k.sum() for k in counts]
        fit_std = [math.sqrt(math.fsum(k * (values - m) ** 2) / k.sum()) for k, m in zip(counts, fit_mean)]
        mean = fit_mean if mean is None else mean
        std = fit_std if std is None else std
    return replace(dataset, mean=np.asarray(mean, dtype=np.float64), std=np.asarray(std, dtype=np.float64))


@dataclass(frozen=True)
class AugmentPolicy:
    pad: int = 0
    crop: int = 0  # 0 means keep the input size
    mirror_p: float = 0.0


def augment(batch: np.ndarray, policy: AugmentPolicy, rng: SplitRng) -> np.ndarray:
    """Zero-pad, random-crop back, and mirror, independently per image."""
    n, c, h, w = batch.shape
    crop = policy.crop or h
    if crop > h + 2 * policy.pad:
        raise ValueError(f"crop {crop} exceeds padded size {h + 2 * policy.pad}")
    if policy.pad == 0 and crop == h and policy.mirror_p == 0.0:
        return batch
    if policy.pad > 0:
        padded = np.pad(batch, ((0, 0), (0, 0), (policy.pad, policy.pad), (policy.pad, policy.pad)))
    else:
        padded = batch
    span_y = padded.shape[2] - crop + 1
    span_x = padded.shape[3] - crop + 1
    oy = rng.integers(n, span_y)
    ox = rng.integers(n, span_x)
    flip = rng.coin(n, policy.mirror_p)
    out = np.empty((n, c, crop, crop), dtype=batch.dtype)
    for i in range(n):
        view = padded[i, :, oy[i] : oy[i] + crop, ox[i] : ox[i] + crop]
        out[i] = view[:, :, ::-1] if flip[i] else view
    return out


def batches(dataset: Dataset, batch_size: int, rng: SplitRng | None = None):
    """Yield (x, labels) minibatches; deterministic permutation when an
    rng is given, natural order otherwise. The last short batch is kept.
    x is float32 pixels / 255, and (x - mean) / std per channel once the
    dataset is normalized."""
    if batch_size < 1:
        raise ValueError("batch_size must be >= 1")
    n = len(dataset)
    order = rng.permutation(n) if rng is not None else np.arange(n)
    if dataset.mean is not None:
        mean, std = (s.astype(np.float32)[:, None, None] for s in (dataset.mean, dataset.std))
    for start in range(0, n, batch_size):
        idx = order[start : start + batch_size]
        x = dataset.images[idx].astype(np.float32)
        x /= 255.0
        if dataset.mean is not None:
            x -= mean
            x /= std
        yield x, dataset.labels[idx]


# ---------------------------------------------------------------------------
# path resolution for the CLI


def mnist_paths(data_dir, split: str):
    prefix = "train" if split == "train" else "t10k"
    return (
        os.path.join(data_dir, f"{prefix}-images-idx3-ubyte"),
        os.path.join(data_dir, f"{prefix}-labels-idx1-ubyte"),
    )


def cifar10_paths(data_dir, split: str):
    base = os.path.join(data_dir, "cifar-10-batches-bin")
    if not os.path.isdir(base):
        base = data_dir
    if split == "train":
        return [os.path.join(base, f"data_batch_{i}.bin") for i in range(1, 6)]
    return [os.path.join(base, "test_batch.bin")]


def load_split(dataset_name: str, data_dir, split: str) -> Dataset:
    if dataset_name == "mnist":
        return load_mnist(*mnist_paths(data_dir, split))
    if dataset_name == "cifar10":
        return load_cifar10(cifar10_paths(data_dir, split))
    raise ValueError(f"unknown dataset {dataset_name!r} (expected mnist or cifar10)")
