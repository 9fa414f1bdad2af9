"""Hash every output of the CLI determinism check, run in one checkout.

    python3 scripts/cli_hashes.py CHECKOUT

It writes a fixed synthetic MNIST-format (IDX) set into a temporary
directory, then runs these commands with only CHECKOUT/src on PYTHONPATH
and the BLAS thread count pinned to 2:
  - train --deterministic, then eval of its checkpoint, for simpnet-tiny
    and for a batch-norm-free arch with dropout, maxpool, SAF-pool and a
    strided conv;
  - ablate of saf-vs-plain-pool, each arm and seed cut at 2 steps;
  - analyze --preset simpnet-300k, as a table and as records, and
    analyze of the batch-norm-free arch file as records;
  - gradcheck --instances 20 at seeds 0, 1 and 2.
It prints `sha256  output` for each file a command writes and for each
command's stdout. Checkouts that compute the same bytes print the same
lines, so a refactor is checked against its parent with

    diff <(python3 scripts/cli_hashes.py PARENT) <(python3 scripts/cli_hashes.py CHANGE)
"""

from __future__ import annotations

import hashlib
import os
import struct
import subprocess
import sys
import tempfile

import numpy as np

TRAIN_IMAGES, TEST_IMAGES = 512, 128
TRAIN_FLAGS = ["--epochs", "2", "--batch-size", "32", "--seed", "3", "--deterministic"]
ABLATE_PRESET, ABLATE_STEPS = "saf-vs-plain-pool", 2
GRADCHECK_INSTANCES = 20
GRADCHECK_SEEDS = (0, 1, 2)
BLAS_THREADS = "2"
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS", "BLIS_NUM_THREADS")
NO_BN_ARCH = """\
input 1 28 28
group g1
conv 3 8 s1 p1
relu
dropout p0.2
conv 3 8 s1 p1
relu
maxpool 2
group g2
conv 3 16 s1 p1
relu
safpool 2 p0.2 s2
sconv 2 16 s2 p0
relu
group head
flatten
dense 10
"""


def write_idx(data_dir, prefix, n, seed):
    """n 28x28 uint8 images whose label is the number of bright rows minus one.

    Written here with struct, not by the checkout's data module, so every
    checkout reads the same bytes.
    """
    rng = np.random.default_rng(seed)
    labels = rng.integers(0, 10, size=n).astype(np.uint8)
    images = rng.integers(0, 40, size=(n, 28, 28)).astype(np.uint8)
    for image, label in zip(images, labels):
        image[2 * np.arange(int(label) + 1)] = 220
    with open(os.path.join(data_dir, f"{prefix}-images-idx3-ubyte"), "wb") as f:
        f.write(struct.pack(">IIII", 0x803, n, 28, 28) + images.tobytes())
    with open(os.path.join(data_dir, f"{prefix}-labels-idx1-ubyte"), "wb") as f:
        f.write(struct.pack(">II", 0x801, n) + labels.tobytes())


def commands(work):
    """(name, CLI arguments, files the command writes) in run order."""
    data = ["--dataset", "mnist", "--data-dir", os.path.join(work, "data")]
    arch_file = os.path.join(work, "no_bn.arch")
    runs = []
    for name, arch in (("tiny", ["--preset", "simpnet-tiny"]), ("no-bn", ["--arch", arch_file])):
        metrics, ckpt = (os.path.join(work, f"{name}.{ext}") for ext in ("csv", "snpk"))
        runs.append((f"train-{name}", ["train", *arch, *data, *TRAIN_FLAGS, "--out-metrics", metrics, "--out-ckpt", ckpt],
                     [metrics, ckpt]))
        runs.append((f"eval-{name}", ["eval", *arch, *data, "--ckpt", ckpt], []))
    records = os.path.join(work, "ablate.tsv")
    ablate = ["ablate", "--preset", ABLATE_PRESET, *data, *TRAIN_FLAGS, "--max-steps", str(ABLATE_STEPS)]
    runs.append(("ablate", [*ablate, "--out-records", records], [records]))
    for fmt in ("table", "records"):
        runs.append((f"analyze-{fmt}", ["analyze", "--preset", "simpnet-300k", "--format", fmt], []))
    runs.append(("analyze-no-bn", ["analyze", "--arch", arch_file, "--format", "records"], []))
    for seed in GRADCHECK_SEEDS:
        runs.append((f"gradcheck-seed{seed}", ["gradcheck", "--instances", str(GRADCHECK_INSTANCES), "--seed", str(seed)], []))
    return runs


def sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    if len(argv) != 1:
        raise SystemExit(__doc__)
    src = os.path.join(os.path.abspath(argv[0]), "src")
    env = dict(os.environ, PYTHONPATH=src, **{var: BLAS_THREADS for var in BLAS_THREAD_VARS})
    with tempfile.TemporaryDirectory() as work:
        os.mkdir(os.path.join(work, "data"))
        write_idx(os.path.join(work, "data"), "train", TRAIN_IMAGES, seed=1)
        write_idx(os.path.join(work, "data"), "t10k", TEST_IMAGES, seed=2)
        with open(os.path.join(work, "no_bn.arch"), "w", encoding="utf-8") as f:
            f.write(NO_BN_ARCH)
        for name, args, outputs in commands(work):
            proc = subprocess.run([sys.executable, "-m", "simpnet.cli", *args], cwd=work, env=env, capture_output=True)
            if proc.returncode != 0:
                raise SystemExit(f"{name} exited {proc.returncode}\n{proc.stderr.decode()[-2000:]}")
            print(f"{sha256(proc.stdout)}  {name}/stdout", flush=True)
            for path in outputs:
                with open(path, "rb") as f:
                    print(f"{sha256(f.read())}  {name}/{os.path.basename(path)}", flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
