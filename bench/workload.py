"""The benchmark's workloads: synthetic inputs in the real file formats,
set-up, and the timed phases that drive the engine's own entry points.

Each phase is closed-loop: one caller, and the next step starts only
after the previous one returns. The train phase makes the calls that
`simpnet train` makes (load_split, normalize, build, init_model,
train_loop, evaluate); the gradcheck phase calls `run_suite` with a
registry that times each case and keeps the suite's random keys.
"""

from __future__ import annotations

import dataclasses
import hashlib
import math
import os
import resource
import time
import traceback
from dataclasses import dataclass, field

import numpy as np

from simpnet import archdsl, data, gradcheck, train

from tracing import Patches

N_TRAIN = 5120  # five CIFAR batch files of 1024 records; one epoch bounds a run
N_TEST = 3072
SETUP_REPS = 3
MIN_TIMED = 2  # timed samples per phase, after its warm-up
TRAIN_SHARE, EVAL_SHARE = 0.55, 0.45  # of --seconds, for the timed train steps and eval batches
GRADCHECK_SEED = 0  # the suite's own seed (acceptance check C1)
SUITE_INSTANCES = 20  # the full C1 suite, timed per case in the traced run
KERNEL_CHECK_INSTANCES = 2  # a quick pass over every case in the untraced run


@dataclass(frozen=True)
class Workload:
    """One workload: a preset trained and evaluated on synthetic data in
    its dataset's file format."""

    name: str
    preset: str
    dataset: str  # mnist | cifar10
    batch: int
    eval_batch: int
    augment: bool


WORKLOADS = {
    w.name: w
    for w in (
        # why each exists is recorded in BENCHMARK.json
        Workload("train-300k-cifar", "simpnet-300k", "cifar10", batch=128, eval_batch=256, augment=True),
        Workload("train-tiny-mnist", "simpnet-tiny", "mnist", batch=128, eval_batch=256, augment=False),
    )
}


# ---------------------------------------------------------------------------
# synthetic inputs, written byte for byte in the IDX and CIFAR-10 formats


def synth_images(rng: np.random.Generator, n: int, shape) -> tuple[np.ndarray, np.ndarray]:
    """uint8 (n, c, h, w) noise with a class-dependent bright band of rows."""
    c, h, w = shape
    labels = rng.integers(0, 10, size=n).astype(np.uint8)
    images = rng.integers(0, 60, size=(n, c, h, w), dtype=np.uint8)
    band = max(1, h // 10)
    for k in range(10):
        images[labels == k, :, k * band : (k + 1) * band, :] = 200
    return images, labels


def write_mnist(dirpath, rng):
    for split, n in (("train", N_TRAIN), ("test", N_TEST)):
        images, labels = synth_images(rng, n, (1, 28, 28))
        img_path, lbl_path = data.mnist_paths(dirpath, split)
        data.write_idx_images(images, img_path)
        data.write_idx_labels(labels, lbl_path)


def write_cifar(dirpath, rng):
    base = os.path.join(dirpath, "cifar-10-batches-bin")
    os.makedirs(base, exist_ok=True)
    paths = data.cifar10_paths(dirpath, "train") + data.cifar10_paths(dirpath, "test")
    sizes = [N_TRAIN // 5] * 5 + [N_TEST]
    for path, n in zip(paths, sizes):
        images, labels = synth_images(rng, n, (3, 32, 32))
        records = np.concatenate([labels[:, None], images.reshape(n, -1)], axis=1)
        with open(path, "wb") as f:
            f.write(records.tobytes())


WRITERS = {"mnist": write_mnist, "cifar10": write_cifar}


# ---------------------------------------------------------------------------
# set-up


@dataclass
class Setup:
    train_ds: data.Dataset
    test_ds: data.Dataset
    spec: archdsl.ArchSpec
    data_s: float
    build_s: float


def make_config(wl: Workload, seed: int, steps: int | None) -> train.TrainConfig:
    """What `simpnet train [--augment]` builds: one epoch, optionally cut
    after `steps` optimizer steps."""
    policy = data.AugmentPolicy(pad=4, crop=0, mirror_p=0.5) if wl.augment else None
    return train.TrainConfig(epochs=1, batch_size=wl.batch, seed=seed, augment_policy=policy, max_steps=steps)


def fresh_model(spec, seed: int):
    model = archdsl.build(spec)
    train.init_model(model, seed)
    return model


def setup(wl: Workload, seed: int, workdir: str) -> Setup:
    """Write, load and normalize the data, and build and initialize the
    model, SETUP_REPS times; the medians are reported."""
    data_dir = os.path.join(workdir, "data")
    os.makedirs(data_dir, exist_ok=True)
    data_times, build_times = [], []
    for _ in range(SETUP_REPS):
        t0 = time.perf_counter()
        WRITERS[wl.dataset](data_dir, np.random.default_rng(seed))
        train_ds = data.normalize(data.load_split(wl.dataset, data_dir, "train"))
        test_ds = data.normalize(data.load_split(wl.dataset, data_dir, "test"), mean=train_ds.mean, std=train_ds.std)
        t1 = time.perf_counter()
        spec = archdsl.builder_presets()[wl.preset]
        fresh_model(spec, seed)
        data_times.append(t1 - t0)
        build_times.append(time.perf_counter() - t1)
    return Setup(train_ds, test_ds, spec, float(np.median(data_times)), float(np.median(build_times)))


def chunks(ds: data.Dataset, size: int) -> list[data.Dataset]:
    return [
        dataclasses.replace(ds, images=ds.images[i : i + size], labels=ds.labels[i : i + size])
        for i in range(0, len(ds) - size + 1, size)
    ]


# ---------------------------------------------------------------------------
# phases


@dataclass
class PhaseResult:
    """Sample i (a train step or an eval batch) spans bounds[i]..bounds[i+1].
    Sample 0 is the phase's warm-up: it counts toward set-up time, and
    `timed` excludes it."""

    bounds: list[float] = field(default_factory=list)
    faults: list[int] = field(default_factory=list)  # minor page faults at each bound
    values: list[float] = field(default_factory=list)  # losses, or worst gradcheck errors
    attempted: int = 0
    failed: int = 0
    errors: list[str] = field(default_factory=list)
    digest: str = ""

    @property
    def durations(self) -> np.ndarray:
        return np.diff(np.asarray(self.bounds, dtype=np.float64))

    @property
    def warmup_s(self) -> float:
        return float(self.durations[0]) if len(self.bounds) > 1 else 0.0

    @property
    def timed(self) -> np.ndarray:
        return self.durations[1:]

    @property
    def faults_per_timed(self) -> float:
        return (self.faults[-1] - self.faults[1]) / len(self.timed) if len(self.timed) else 0.0


def minflt() -> int:
    return resource.getrusage(resource.RUSAGE_SELF).ru_minflt


def state_digest(model) -> str:
    h = hashlib.sha256()
    for name, value in model.state_tensors():
        h.update(f"{name}:{value.dtype.str}:{value.shape}".encode())
        h.update(np.ascontiguousarray(value).tobytes())
    return h.hexdigest()


def over_budget(bounds: list[float], now: float, budget_s: float) -> bool:
    """True once MIN_TIMED samples are done and one more, as long as the
    last, would end past the budget (timed from the end of the warm-up)."""
    return len(bounds) > MIN_TIMED and (now - bounds[1]) + (now - bounds[-1]) > budget_s


def train_phase(model, st: Setup, wl: Workload, seed: int, budget_s: float | None = None,
                steps: int | None = None) -> PhaseResult:
    """One train_loop call: a warm-up step, then timed steps within
    `budget_s` (at least MIN_TIMED of them, at most one epoch)
    or, given `steps`, exactly that many steps in all.

    Step boundaries are the moments train_loop asks its batch iterator for
    the next batch, and the last step ends when train_loop returns. Under
    a budget the iterator ends early, which ends the epoch as running out
    of data would. Losses are recorded as softmax_xent returns them."""
    res = PhaseResult()
    patches = Patches()
    batches, xent = train.batches, train.softmax_xent

    def clocked(*args, **kwargs):
        inner = batches(*args, **kwargs)
        while True:
            t = time.perf_counter()
            if budget_s is not None and over_budget(res.bounds, t, budget_s):
                return
            try:
                item = next(inner)
            except StopIteration:
                return
            res.bounds.append(t)
            res.faults.append(minflt())
            yield item

    def recorded(*args, **kwargs):
        out = xent(*args, **kwargs)
        res.values.append(out[0])
        return out

    patches.set(train, "batches", clocked)
    patches.set(train, "softmax_xent", recorded)
    try:
        train.train_loop(model, st.train_ds, make_config(wl, seed, steps))
    except Exception:  # a failed step is counted, and the run goes on
        res.failed += 1
        res.errors.append(traceback.format_exc(limit=3))
    finally:
        end = time.perf_counter()
        patches.undo()
    res.attempted = max(len(res.bounds), 1)
    res.bounds.append(end)
    res.faults.append(minflt())
    # train_loop raises on a non-finite loss; count one that got through too
    res.failed = max(res.failed, sum(1 for v in res.values if not math.isfinite(v)))
    res.digest = state_digest(model)
    return res


def eval_phase(model, st: Setup, wl: Workload, budget_s: float) -> PhaseResult:
    """evaluate() one held-out batch at a time: a warm-up batch, then timed
    batches within the budget (at least MIN_TIMED of them)."""
    res = PhaseResult()
    for part in chunks(st.test_ds, wl.eval_batch):
        t = time.perf_counter()
        if over_budget(res.bounds, t, budget_s):
            break
        res.bounds.append(t)
        res.attempted += 1
        try:
            loss, top1 = train.evaluate(model, part, wl.eval_batch)
            res.values.append(loss)
            if not (math.isfinite(loss) and 0.0 <= top1 <= 1.0):
                res.failed += 1
        except Exception:
            res.failed += 1
            res.errors.append(traceback.format_exc(limit=3))
    res.bounds.append(time.perf_counter())
    return res


def gradcheck_phase(instances: int) -> tuple[PhaseResult, dict[str, list[float]]]:
    """run_suite over a registry that times each case in CASES order (so
    the random keys are unchanged). A case that raises counts as not ok."""
    times: dict[str, list[float]] = {}

    def timed(name, fn):
        def case(rng):
            t = time.perf_counter()
            try:
                return fn(rng)
            except Exception:
                res.errors.append(f"{name}: {traceback.format_exc(limit=3)}")
                return math.inf
            finally:
                times[name].append(time.perf_counter() - t)

        return case

    res = PhaseResult()
    registry = {}
    for name, fn in gradcheck.CASES.items():
        times[name] = []
        registry[name] = timed(name, fn)
    results = gradcheck.run_suite(seed=GRADCHECK_SEED, instances=instances, registry=registry)
    res.attempted = len(results)
    res.failed = sum(1 for r in results if not r.ok)
    res.values = [r.worst for r in results]
    return res, times
