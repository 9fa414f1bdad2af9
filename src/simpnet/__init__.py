"""CNN training engine with a principle-based architecture auditor.

Pure numpy implementation: tensors are NCHW float32/float64 arrays,
every layer has an explicitly tested backward pass, and all randomness
flows through a splittable counter-based generator for exact
reproducibility.
"""

from .analyzer import AuditReport, audit
from .archdsl import ArchSpec, LayerSpec, ablation_presets, build, builder_presets, parse, render
from .data import AugmentPolicy, Dataset, augment, batches, load_cifar10, load_mnist, normalize
from .network import Model, ParamLedger, count_macs, load_checkpoint, save_checkpoint
from .rng import SplitRng
from .train import MetricsRow, TrainConfig, ablate, evaluate, init_model, sgd_step, train_loop

__version__ = "0.1.0"

__all__ = [
    "ArchSpec",
    "AuditReport",
    "AugmentPolicy",
    "Dataset",
    "LayerSpec",
    "MetricsRow",
    "Model",
    "ParamLedger",
    "SplitRng",
    "TrainConfig",
    "ablate",
    "ablation_presets",
    "audit",
    "augment",
    "batches",
    "build",
    "builder_presets",
    "count_macs",
    "evaluate",
    "init_model",
    "load_checkpoint",
    "load_cifar10",
    "load_mnist",
    "normalize",
    "parse",
    "render",
    "save_checkpoint",
    "sgd_step",
    "train_loop",
]
