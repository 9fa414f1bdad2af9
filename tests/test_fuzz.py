"""Seeded fuzz of every input format: .arch text, IDX images and labels,
CIFAR-10 batch files and .snpk checkpoints.

Each format's mutants are random bit flips (half of them in the first 64
bytes, where the headers are), truncations and inserted bytes, plus
structured cases: header fields set to 0, 2**31 and 2**32 - 1, ndim 0 and
255, name lengths that run past the end of the file, duplicate names and
dims whose product overflows int64. Each mutant either loads through the
library's reader or raises an error from simpnet.errors. A fixed sample of
the refused mutants goes through cli.main, which must exit 2, 3 or 5,
print one `error:` line naming the mutated file, and write no file.
"""

import math
import pathlib
import re
import struct
from collections.abc import Callable, Iterable
from typing import NamedTuple

import numpy as np
import pytest

from conftest import write_cifar_batch, write_idx_pair
from simpnet import errors
from simpnet.archdsl import build, load_arch_file
from simpnet.cli import main
from simpnet.data import load_split
from simpnet.network import load_checkpoint, save_checkpoint
from simpnet.train import init_model

SEED = 0
MUTANTS = 300  # random mutants per format
CLI_SAMPLE = 4  # refused mutants per format and kind (random, structured) run through cli.main
NAMED_ERRORS = tuple(v for v in vars(errors).values() if isinstance(v, type) and issubclass(v, Exception))
EDGES = (0, 2**31, 2**32 - 1)

ARCH = (
    "input 1 28 28\n"
    "group g1\n"
    "conv 3 6 s1 p1\n"
    "bn\n"
    "relu\n"
    "dropout p0.2\n"
    "conv 3 8 s1 p1\n"
    "relu\n"
    "safpool 2 p0.1 s2\n"
    "group g2\n"
    "sconv 2 8 s2 p0\n"
    "maxpool 2\n"
    "group head\n"
    "gap\n"
    "flatten\n"
    "dense 10\n"
)
CIFAR_ARCH = "input 3 32 32\ngroup g1\nconv 3 4 s1 p1\nrelu\nmaxpool 2\ngroup head\ngap\nflatten\ndense 10\n"
# tokens swapped into an .arch line in place of one of its numbers
ARCH_TOKENS = ("0", "-1", "1e9", "99999999999", "nan", "p1.5", "s0", "4097", str(2**31), str(2**32 - 1))


def random_mutants(base: bytes):
    rng = np.random.default_rng(SEED)
    for _ in range(MUTANTS):
        data = bytearray(base)
        kind = rng.integers(3)
        if kind == 0:
            for _ in range(rng.integers(1, 5)):
                i = rng.integers(min(64, len(data))) if rng.random() < 0.5 else rng.integers(len(data))
                data[i] ^= 1 << int(rng.integers(8))
        elif kind == 1:
            del data[rng.integers(len(data)) :]
        else:
            i = rng.integers(len(data) + 1)
            data[i:i] = rng.integers(0, 256, size=int(rng.integers(1, 9)), dtype=np.uint8).tobytes()
        yield bytes(data)


def arch_mutants():
    yield from random_mutants(ARCH.encode())
    rng = np.random.default_rng(SEED)
    lines = ARCH.splitlines()
    for _ in range(MUTANTS // 3):  # one number token swapped for an extreme one
        i = int(rng.integers(len(lines)))
        words = lines[i].split()
        j = int(rng.integers(len(words)))
        words[j] = ARCH_TOKENS[int(rng.integers(len(ARCH_TOKENS)))]
        yield "\n".join([*lines[:i], " ".join(words), *lines[i + 1 :]]).encode() + b"\n"


def arch_structured():
    for field in range(3):
        for value in EDGES:
            dims = [1, 28, 28]
            dims[field] = value
            yield ARCH.replace("input 1 28 28", "input {} {} {}".format(*dims)).encode()


def idx_structured(base: bytes, fields: int):
    """Each big-endian header field (magic, then dims) set to each edge value;
    the magic's ndim byte set to 0 and 255; every dim at 2**32 - 1; and the
    last dim 0 after the others at 2**32 - 1, with no data."""
    for field in range(fields):
        for value in EDGES:
            yield base[: 4 * field] + struct.pack(">I", value) + base[4 * field + 4 :]
    for ndim in (0, 255):
        yield base[:3] + bytes([ndim]) + base[4:]
    yield base[:4] + struct.pack(f">{fields - 1}I", *[2**32 - 1] * (fields - 1)) + base[4 * fields :]
    yield base[:4] + struct.pack(f">{fields - 1}I", *[2**32 - 1] * (fields - 2), 0)


def cifar_structured(base: bytes):
    for label in (10, 255):
        yield bytes([label]) + base[1:]
    yield b""
    yield base + b"\x00"


def snpk_tensor(name: bytes, dims, *, ndim=None, name_len=None, data=None):
    """One checkpoint tensor record, written here independently of save_checkpoint."""
    ndim = len(dims) if ndim is None else ndim
    data = bytes(4 * math.prod(dims)) if data is None else data
    head = struct.pack("<H", len(name) if name_len is None else name_len) + name
    return head + struct.pack("<BB", 0, ndim) + struct.pack(f"<{len(dims)}I", *dims) + data


def snpk_structured():
    good = snpk_tensor(b"dense1.bias", (10,))
    for version in (0, 2, 255):
        yield b"SNPK" + bytes([version]) + good
    yield b"SNPK\x01" + snpk_tensor(b"dense1.bias", (10,), name_len=0xFFFF)
    yield b"SNPK\x01" + snpk_tensor(b"dense1.bias", (10,), name_len=len(good) + 1)
    for ndim in (0, 255):
        yield b"SNPK\x01" + snpk_tensor(b"dense1.bias", (10,), ndim=ndim)
    for value in EDGES:
        yield b"SNPK\x01" + snpk_tensor(b"dense1.bias", (value,), data=bytes(40))
    yield b"SNPK\x01" + snpk_tensor(b"dense1.bias", (2**32 - 1,) * 3, data=bytes(40))  # 2**96 elements
    yield b"SNPK\x01" + snpk_tensor(b"dense1.bias", (2**32 - 1, 2**32 - 1, 0))  # 0 bytes, but past numpy's size limit
    yield b"SNPK\x01" + good + good  # a duplicate name


class Format(NamedTuple):
    path: pathlib.Path  # the file a mutant replaces
    load: Callable[[], object]  # the library reader of everything argv reads
    argv: list[str]  # a CLI command that reads path
    random: Iterable[bytes]
    structured: Iterable[bytes]


def formats(root) -> dict[str, Format]:
    """Base files of every format under root: an MNIST-format and a CIFAR-10-format
    data directory, the .arch files that fit them and a checkpoint of ARCH."""
    mnist, cifar = root / "mnist", root / "cifar"
    mnist.mkdir()
    images, labels = map(pathlib.Path, write_idx_pair(mnist, "train", 16, seed=1))
    write_idx_pair(mnist, "t10k", 8, seed=2)
    cifar.mkdir()
    for i in range(1, 6):
        write_cifar_batch(cifar / f"data_batch_{i}.bin", 2, seed=i)
    write_cifar_batch(cifar / "test_batch.bin", 2, seed=9)
    arch, cifar_arch = root / "base.arch", root / "cifar.arch"
    arch.write_text(ARCH)
    cifar_arch.write_text(CIFAR_ARCH)
    model = init_model(build(load_arch_file(arch)), 0)
    save_checkpoint(model, root / "base.snpk")

    out = ["--out-metrics", str(root / "out" / "m.csv"), "--out-ckpt", str(root / "out" / "m.snpk")]
    train_mnist = ["train", "--arch", str(arch), "--dataset", "mnist", "--data-dir", str(mnist), *out]
    batch = cifar / "data_batch_1.bin"
    ckpt = root / "mutant.snpk"
    return {
        "arch": Format(
            root / "mutant.arch", lambda: build(load_arch_file(root / "mutant.arch")),
            ["analyze", "--arch", str(root / "mutant.arch")], arch_mutants(), arch_structured(),
        ),
        "idx-images": Format(
            images, lambda: load_split("mnist", mnist, "train"), train_mnist,
            random_mutants(images.read_bytes()), idx_structured(images.read_bytes(), 4),
        ),
        "idx-labels": Format(
            labels, lambda: load_split("mnist", mnist, "train"), train_mnist,
            random_mutants(labels.read_bytes()), idx_structured(labels.read_bytes(), 2),
        ),
        "cifar": Format(
            batch, lambda: load_split("cifar10", cifar, "train"),
            ["train", "--arch", str(cifar_arch), "--dataset", "cifar10", "--data-dir", str(cifar), *out],
            random_mutants(batch.read_bytes()), cifar_structured(batch.read_bytes()),
        ),
        "snpk": Format(
            ckpt, lambda: load_checkpoint(model, ckpt),
            ["eval", "--arch", str(arch), "--ckpt", str(ckpt), "--dataset", "mnist", "--data-dir", str(mnist)],
            random_mutants((root / "base.snpk").read_bytes()), snpk_structured(),
        ),
    }


def tree(root):
    return sorted(str(p.relative_to(root)) for p in root.rglob("*"))


@pytest.mark.parametrize("name", ["arch", "idx-images", "idx-labels", "cifar", "snpk"])
def test_every_mutant_loads_or_fails_with_a_named_error(tmp_path, capsys, name):
    fmt = formats(tmp_path)[name]
    refused = {"random": [], "structured": []}
    for kind, mutants in (("random", fmt.random), ("structured", fmt.structured)):
        for i, mutant in enumerate(mutants):
            fmt.path.write_bytes(mutant)
            try:
                fmt.load()
            except NAMED_ERRORS:
                refused[kind].append(mutant)
            except Exception as e:
                raise AssertionError(f"{name} {kind} mutant {i} escaped as {type(e).__name__}: {e}") from e

    (tmp_path / "out").mkdir()
    before = tree(tmp_path)
    for kind, mutants in refused.items():
        for mutant in mutants[:: max(1, len(mutants) // CLI_SAMPLE)][:CLI_SAMPLE]:
            fmt.path.write_bytes(mutant)
            code = main(fmt.argv)
            err = [line for line in capsys.readouterr().err.splitlines() if line.startswith("error: ")]
            assert code in (2, 3, 5), (kind, mutant[:80], err)
            assert len(err) == 1 and str(fmt.path) in err[0], (kind, mutant[:80], err)
            assert tree(tmp_path) == before


def test_an_empty_cifar_batch_file_is_refused_naming_it(tmp_path, capsys):
    fmt = formats(tmp_path)["cifar"]
    fmt.path.write_bytes(b"")
    with pytest.raises(errors.FormatError, match=re.escape(f"{fmt.path}: size 0")):
        fmt.load()
    assert main(fmt.argv) == 3
    err = [line for line in capsys.readouterr().err.splitlines() if line.startswith("error: ")]
    assert len(err) == 1 and str(fmt.path) in err[0]
