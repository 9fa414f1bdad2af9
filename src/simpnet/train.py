"""SGD-with-momentum training, evaluation, and the ablation harness.

Randomness contract: everything derives from TrainConfig.seed through a
splittable counter RNG. Weight init uses split(INIT); the epoch shuffle
uses split(SHUFFLE, epoch); per-step randomness (augmentation, dropout,
SAF masks) uses split(STEP, epoch, step) further split by layer index
inside the model, so the streams are keyed by (seed, epoch, step,
layer) and survive any internal reordering. Two runs with the same
config are byte-identical; `deterministic` additionally zeroes the
wall-clock column so metrics files reproduce exactly.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, field, replace

import numpy as np

from .analyzer import audit
from .archdsl import Preset, ablation_presets, build
from .data import AugmentPolicy, Dataset, augment, batches
from .errors import ArchValidationError, IsolationError, NumericsError
from .layers import ReLU, softmax_xent
from .network import Model, count_macs, save_checkpoint
from .rng import SplitRng

# split labels off the root seed
INIT, SHUFFLE, STEP = 0, 1, 2
EVAL_BATCH = 256  # a multiple of network.EVAL_SLICE, so eval batches split into whole slices


@dataclass(frozen=True)
class TrainConfig:
    epochs: int = 10
    batch_size: int = 128
    lr: float = 0.1
    momentum: float = 0.9
    weight_decay: float = 5e-4
    schedule: tuple[tuple[int, float], ...] | None = None  # (epoch, multiplier); None = x0.2 at 50%/75%
    seed: int = 0
    deterministic: bool = False
    augment_policy: AugmentPolicy | None = None
    max_steps: int | None = None

    def __post_init__(self):
        if not 0 < self.lr < math.inf:
            raise ValueError(f"lr must be finite and > 0, got {self.lr}")
        if not 0.0 <= self.momentum < 1.0:
            raise ValueError("momentum must be in [0, 1)")
        if not 0 <= self.weight_decay < math.inf:
            raise ValueError(f"weight_decay must be finite and >= 0, got {self.weight_decay}")
        if self.batch_size < 1:
            raise ValueError(f"batch_size must be >= 1, got {self.batch_size}")
        if self.epochs < 1:
            raise ValueError(f"epochs must be >= 1, got {self.epochs}")
        if self.max_steps is not None and self.max_steps < 1:
            raise ValueError(f"max_steps must be >= 1, got {self.max_steps}")

    def resolved_schedule(self) -> tuple[tuple[int, float], ...]:
        if self.schedule is not None:
            return tuple(self.schedule)
        return ((math.ceil(self.epochs * 0.5) + 1, 0.2), (math.ceil(self.epochs * 0.75) + 1, 0.2))


def lr_at(cfg: TrainConfig, epoch: int) -> float:
    lr = cfg.lr
    for at_epoch, mult in cfg.resolved_schedule():
        if epoch >= at_epoch:
            lr *= mult
    return lr


@dataclass(frozen=True)
class MetricsRow:
    epoch: int
    step: int
    split: str  # train | test
    loss: float
    top1: float
    lr: float
    seconds: float


METRICS_HEADER = "epoch,step,split,loss,top1,lr,seconds"


def format_metrics_csv(rows) -> str:
    lines = [f"{r.epoch},{r.step},{r.split},{r.loss:.6g},{r.top1:.6g},{r.lr:.6g},{r.seconds:.6g}" for r in rows]
    return "\n".join([METRICS_HEADER, *lines]) + "\n"


def sgd_step(params, velocities: dict, lr: float, momentum: float, weight_decay: float):
    """v <- momentum*v - lr*(g + wd*w); w <- w + v (classical momentum).

    params is an iterable of (name, weight, grad). Aborts on non-finite
    gradients, naming the tensor.
    """
    for name, w, g in params:
        if not np.all(np.isfinite(g)):
            raise NumericsError(f"non-finite gradient in {name!r}")
        v = velocities.get(name)
        if v is None:
            v = velocities[name] = np.zeros_like(w)
        v *= momentum
        v -= lr * (g + weight_decay * w)
        w += v


def check_fits(model: Model, dataset: Dataset):
    """Refuse a model whose input shape is not the dataset's sample shape, or whose
    output width, the features per image of its last layer, is not its class count."""
    if model.input_shape != dataset.sample_shape:
        raise ArchValidationError(f"architecture input {model.input_shape} does not match dataset samples {dataset.sample_shape}")
    width = math.prod(model.symbolic_shapes()[-1][1:])
    if width != dataset.num_classes:
        raise ValueError(f"{dataset.name}: the classifier has {width} outputs but the dataset has {dataset.num_classes} classes")


def evaluate(model: Model, dataset: Dataset, batch_size: int = EVAL_BATCH) -> tuple[float, float]:
    """Mean loss and top-1 accuracy of Model.eval; deterministic."""
    loss_sum = 0.0
    correct = 0
    for x, y in batches(dataset, batch_size):
        logits = model.eval(x).reshape(len(y), -1)  # (n, k): a gap-only tail gives (n, k, 1, 1)
        loss, _ = softmax_xent(logits, y)
        loss_sum += loss * len(y)
        correct += int((logits.argmax(axis=1) == y).sum())
    n = len(dataset)
    return loss_sum / n, correct / n


def init_model(model: Model, seed: int) -> Model:
    """Initialize float32 parameters from the training seed's INIT stream."""
    return model.init_params(SplitRng(seed).split(INIT))


def train_loop(
    model: Model,
    train_ds: Dataset,
    cfg: TrainConfig,
    test_ds: Dataset | None = None,
    metrics_path=None,
    ckpt_path=None,
    log=None,
) -> list[MetricsRow]:
    """Epoch loop emitting one train and one test metrics row per epoch.

    When a checkpoint path is given the model state is written before
    training and at each epoch boundary, so after a non-finite-loss
    abort (NumericsError) the file still holds the last good state.
    """
    root = SplitRng(cfg.seed)
    velocities: dict[str, np.ndarray] = {}
    rows: list[MetricsRow] = []
    step = 0
    t0 = time.perf_counter()

    def clock() -> float:
        return 0.0 if cfg.deterministic else time.perf_counter() - t0

    def flush():
        if metrics_path is not None:
            with open(metrics_path, "w", encoding="utf-8", newline="") as f:
                f.write(format_metrics_csv(rows))

    def emit(epoch, split, loss, top1, lr):
        rows.append(MetricsRow(epoch, step, split, loss, top1, lr, clock()))
        if log:
            log(f"epoch {epoch} {split}: loss {loss:.4f} top1 {top1:.4f} lr {lr:.4g}")

    flush()  # the header: a metrics path that cannot be written fails before the first step
    if ckpt_path is not None:
        save_checkpoint(model, ckpt_path)
    stop = False
    for epoch in range(1, cfg.epochs + 1):
        lr = lr_at(cfg, epoch)
        shuffle_rng = root.split(SHUFFLE, epoch)
        loss_sum = 0.0
        correct = 0
        seen = 0
        for x, y in batches(train_ds, cfg.batch_size, shuffle_rng):
            step += 1
            step_rng = root.split(STEP, epoch, step)
            if cfg.augment_policy is not None:
                x = augment(x, cfg.augment_policy, step_rng.split(0))
            logits = model.forward(x, step_rng.split(1)).reshape(len(y), -1)
            loss, grad = softmax_xent(logits, y)
            if not math.isfinite(loss):
                flush()
                raise NumericsError(f"loss became non-finite at epoch {epoch} step {step}")
            _, grads = model.backward(grad, input_grad=False)
            sgd_step(grads, velocities, lr, cfg.momentum, cfg.weight_decay)
            loss_sum += loss * len(y)
            correct += int((logits.argmax(axis=1) == y).sum())
            seen += len(y)
            if cfg.max_steps is not None and step >= cfg.max_steps:
                stop = True
                break
        emit(epoch, "train", loss_sum / seen, correct / seen, lr)
        if test_ds is not None:
            test_loss, test_top1 = evaluate(model, test_ds)
            emit(epoch, "test", test_loss, test_top1, lr)
        if ckpt_path is not None:
            save_checkpoint(model, ckpt_path)
        if stop:
            break
    flush()
    return rows


# ---------------------------------------------------------------------------
# ablation harness


@dataclass
class ArmResult:
    arm: str
    params: int
    seed_top1: list[tuple[int, float]] = field(default_factory=list)
    dead_fraction: float = 0.0

    @property
    def mean_top1(self) -> float:
        return sum(t for _, t in self.seed_top1) / len(self.seed_top1)

    @property
    def top1_range(self) -> tuple[float, float]:
        vals = [t for _, t in self.seed_top1]
        return min(vals), max(vals)


@dataclass
class AblateResult:
    preset: Preset
    arms: list[ArmResult]

    def table(self) -> str:
        lines = [
            f"preset {self.preset.name}: {self.preset.note}",
            f"{'arm':<14} {'params':>10} {'mean top1':>10} {'min':>8} {'max':>8} {'dead_frac':>10}  per-seed",
        ]
        for a in self.arms:
            lo, hi = a.top1_range
            per_seed = " ".join(f"s{s}={t:.4f}" for s, t in a.seed_top1)
            lines.append(
                f"{a.arm:<14} {a.params:>10} {a.mean_top1:>10.4f} {lo:>8.4f} {hi:>8.4f} {a.dead_fraction:>10.4f}  {per_seed}"
            )
        for arm_name, spec in self.preset.arms:
            rep = audit(spec)
            n_fail, n_warn = len(rep.fails()), len(rep.warns())
            lines.append(
                f"audit {arm_name}: {rep.ledger.total_params} params, "
                f"{rep.ledger.total_macs} macs, {n_fail} fail / {n_warn} warn findings"
            )
        return "\n".join(lines)

    def records(self) -> str:
        lines = []
        for a in self.arms:
            for seed, top1 in a.seed_top1:
                lines.append(f"{self.preset.name}\t{a.arm}\t{seed}\t{top1:.6g}\t{a.params}\t{a.dead_fraction:.6g}")
        return "\n".join(lines) + "\n"


def check_budgets(preset: Preset) -> dict[str, int]:
    """Parameter totals per arm; refuse mismatches on equal-budget presets."""
    totals = {arm: count_macs(build(spec)).total_params for arm, spec in preset.arms}
    if preset.equal_budget:
        lo, hi = min(totals.values()), max(totals.values())
        if lo == 0 or (hi - lo) / lo > 0.02:
            raise IsolationError(
                f"preset {preset.name}: arm budgets differ by more than 2% ({totals}); "
                "experiment isolation requires matched parameter counts"
            )
    return totals


def dead_channel_fraction(x: np.ndarray) -> float:
    """Fraction of channels of an NCHW post-ReLU batch that are 0 across the whole batch."""
    return float((x.max(axis=(0, 2, 3)) == 0).mean())


def relu_dead_fraction(model: Model, probe: np.ndarray) -> float:
    """Mean dead-channel fraction over the 4-D output of every eval unit
    that ends in a ReLU, for a probe batch: the Model.eval that evaluate scores."""
    fractions = []
    x = probe
    for _, layers, run in model.eval_units:
        x = run(x)
        if isinstance(layers[-1], ReLU) and x.ndim == 4:
            fractions.append(dead_channel_fraction(x))
    return float(np.mean(fractions)) if fractions else 0.0


def ablate(
    preset_name: str,
    train_ds: Dataset,
    test_ds: Dataset,
    cfg: TrainConfig,
    subset: int | None = None,
    log=None,
) -> AblateResult:
    """Train every arm of a preset under identical config and seeds
    {s, s+1, s+2}; report mean and range of test top-1 per arm."""
    presets = ablation_presets(input_shape=train_ds.sample_shape)
    if preset_name not in presets:
        raise KeyError(f"unknown preset {preset_name!r}; valid: {', '.join(sorted(presets))}")
    preset = presets[preset_name]
    for _, spec in preset.arms:
        check_fits(build(spec), train_ds)
    totals = check_budgets(preset)
    if subset is not None:
        train_ds = train_ds.subset(subset)
    seeds = (cfg.seed, cfg.seed + 1, cfg.seed + 2)

    probe, _ = next(batches(test_ds, 64))
    arms: list[ArmResult] = []
    for arm_name, spec in preset.arms:
        result = ArmResult(arm=arm_name, params=totals[arm_name])
        dead = []
        for seed in seeds:
            model = build(spec)
            init_model(model, seed)
            run_cfg = replace(cfg, seed=seed)
            if log:
                log(f"[{preset_name}] arm {arm_name} seed {seed}: training")
            train_loop(model, train_ds, run_cfg, test_ds=None)
            _, top1 = evaluate(model, test_ds)
            result.seed_top1.append((seed, top1))
            dead.append(relu_dead_fraction(model, probe))
            if log:
                log(f"[{preset_name}] arm {arm_name} seed {seed}: top1 {top1:.4f}")
        result.dead_fraction = float(np.mean(dead))
        arms.append(result)
    return AblateResult(preset, arms)
