"""Shared fixtures: synthetic datasets in the real on-disk formats, plus
small independent numeric helpers used as oracles.

The synthetic files are written with struct/tobytes directly (not via
the package's writers) so loader tests check against independently
produced bytes. Patterns are class-dependent so tiny models can learn
them quickly.
"""

import importlib.util
import os
import struct

import numpy as np
import pytest

from simpnet.data import Dataset

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def load_script(name):
    """scripts/<name>.py as a module, so a test can set its constants and call main."""
    spec = importlib.util.spec_from_file_location(name, os.path.join(ROOT, "scripts", f"{name}.py"))
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


# ---------------------------------------------------------------------------
# independent finite-difference oracle


def fd_grad(f, x, h=1e-5):
    """Central-difference gradient of scalar f() wrt array x (in place)."""
    g = np.zeros_like(x)
    flat, gf = x.ravel(), g.ravel()
    for i in range(flat.size):
        orig = flat[i]
        flat[i] = orig + h
        fp = f()
        flat[i] = orig - h
        fm = f()
        flat[i] = orig
        gf[i] = (fp - fm) / (2 * h)
    return g


def rel_err(a, b):
    # floored so exactly-zero gradients compare absolutely, not noise/noise
    scale = max(np.abs(a).max(initial=0.0), np.abs(b).max(initial=0.0), 1e-3)
    return float(np.abs(a - b).max(initial=0.0) / scale)


def unflatten_offset(shape, offset):
    """(i, j, y, x) of a row-major flat offset into an NCHW array of `shape`."""
    return tuple(int(v) for v in np.unravel_index(offset, shape))


# ---------------------------------------------------------------------------
# synthetic data in the real binary formats


def synth_images(n, h=28, w=28, seed=0):
    """uint8 images where the label is the number of bright rows minus
    one; a count survives global average pooling, a position would not."""
    rng = np.random.default_rng(seed)
    labels = rng.integers(0, 10, size=n).astype(np.uint8)
    images = rng.integers(0, 40, size=(n, h, w)).astype(np.uint8)
    spacing = max(2, h // 10)
    for i, k in enumerate(labels):
        for j in range(int(k) + 1):
            images[i, (j * spacing) % h, :] = 220
    return images, labels


def write_idx_pair(dirpath, prefix, n, h=28, w=28, seed=0):
    images, labels = synth_images(n, h, w, seed)
    img_path = os.path.join(dirpath, f"{prefix}-images-idx3-ubyte")
    lbl_path = os.path.join(dirpath, f"{prefix}-labels-idx1-ubyte")
    with open(img_path, "wb") as f:
        f.write(struct.pack(">IIII", 0x00000803, n, h, w))
        f.write(images.tobytes())
    with open(lbl_path, "wb") as f:
        f.write(struct.pack(">II", 0x00000801, n))
        f.write(labels.tobytes())
    return img_path, lbl_path


def write_cifar_batch(path, n_records, seed=0):
    rng = np.random.default_rng(seed)
    labels = rng.integers(0, 10, size=n_records).astype(np.uint8)
    pixels = rng.integers(0, 50, size=(n_records, 3, 32, 32)).astype(np.uint8)
    for i, k in enumerate(labels):
        y0 = int(k) * 3
        pixels[i, :, y0 : y0 + 3, :] = 210
    with open(path, "wb") as f:
        for i in range(n_records):
            f.write(bytes([labels[i]]))
            f.write(pixels[i].tobytes())
    return labels, pixels


@pytest.fixture
def mnist_dir(tmp_path):
    """Synthetic MNIST-format directory: 512 train / 256 test samples."""
    write_idx_pair(tmp_path, "train", 512, seed=1)
    write_idx_pair(tmp_path, "t10k", 256, seed=2)
    return tmp_path


@pytest.fixture
def cifar_dir(tmp_path):
    root = tmp_path / "cifar-10-batches-bin"
    root.mkdir()
    for i in range(1, 6):
        write_cifar_batch(root / f"data_batch_{i}.bin", 64, seed=i)
    write_cifar_batch(root / "test_batch.bin", 64, seed=9)
    return tmp_path


def memory_dataset(n=128, shape=(1, 8, 8), classes=4, seed=0):
    """In-memory learnable dataset: the label is the bright-row count
    minus one, which remains separable after global average pooling."""
    rng = np.random.default_rng(seed)
    c, h, w = shape
    labels = rng.integers(0, classes, size=n).astype(np.int64)
    x = rng.normal(0, 0.1, size=(n, c, h, w)).astype(np.float32)
    spacing = max(2, h // classes)
    for i, k in enumerate(labels):
        for j in range(int(k) + 1):
            x[i, :, (j * spacing) % h, :] += 1.0
    return Dataset(x, labels, name="synth", num_classes=classes)


# ---------------------------------------------------------------------------
# real-data gate (acceptance criteria 5 and 6)


def real_mnist_paths():
    root = os.environ.get("SIMPNET_DATA_DIR", os.path.join(os.getcwd(), "data"))
    need = [
        "train-images-idx3-ubyte",
        "train-labels-idx1-ubyte",
        "t10k-images-idx3-ubyte",
        "t10k-labels-idx1-ubyte",
    ]
    paths = [os.path.join(root, n) for n in need]
    return root, all(os.path.exists(p) for p in paths)
