"""Command-line entry point: train, eval, analyze, gradcheck, ablate.

Exit codes: 0 success; 1 gradient-check failure; 2 argument/preset/parse
errors; 3 data or file-format errors, or a file that cannot be opened,
read or written; 4 numerical abort during training; 5 build-blocking
shape collapse in analyze.

Every run echoes its full resolved configuration to stderr. In
deterministic mode identical invocations produce byte-identical output
files.
"""

from __future__ import annotations

import argparse
import os
import sys

from . import archdsl, data, gradcheck as gc, train as T
from .analyzer import audit
from .errors import ArchParseError, ArchValidationError, CompatibilityError, FormatError, NumericsError
from .network import load_checkpoint

EXIT_OK = 0
EXIT_GRADCHECK = 1
EXIT_ARGS = 2
EXIT_DATA = 3
EXIT_NUMERIC = 4
EXIT_COLLAPSE = 5


def _err(msg: str):
    print(f"error: {msg}", file=sys.stderr)


def _echo_config(args: argparse.Namespace):
    resolved = " ".join(f"{k}={v!r}" for k, v in sorted(vars(args).items()) if k != "func")
    print(f"resolved config: {resolved}", file=sys.stderr)


def _add_data_flags(p: argparse.ArgumentParser):
    p.add_argument("--dataset", choices=("mnist", "cifar10"), required=True)
    p.add_argument("--data-dir", default=os.environ.get("SIMPNET_DATA_DIR"),
                   help="directory with the dataset files (default: $SIMPNET_DATA_DIR)")


def _add_train_flags(p: argparse.ArgumentParser):
    p.add_argument("--epochs", type=int, default=T.TrainConfig.epochs)
    p.add_argument("--lr", type=float, default=T.TrainConfig.lr)
    p.add_argument("--momentum", type=float, default=T.TrainConfig.momentum)
    p.add_argument("--wd", type=float, default=T.TrainConfig.weight_decay)
    p.add_argument("--batch-size", type=int, default=T.TrainConfig.batch_size)
    p.add_argument("--seed", type=int, default=T.TrainConfig.seed)
    p.add_argument("--deterministic", action="store_true")
    p.add_argument("--augment", action="store_true", help="pad-4 random crop + mirror")
    p.add_argument("--no-normalize", action="store_true", help="skip per-channel normalization")
    p.add_argument("--subset", type=int, default=None, help="limit training examples (desk scale)")
    p.add_argument("--max-steps", type=int, default=None, help="stop after N optimizer steps")


def _resolve_arch(args) -> archdsl.ArchSpec:
    if getattr(args, "arch", None):
        return archdsl.load_arch_file(args.arch)
    presets = archdsl.builder_presets()
    if args.preset not in presets:
        if args.preset in archdsl.ablation_index()["presets"]:
            raise ValueError(f"{args.preset!r} is a multi-arm experiment preset; run it with the ablate command")
        raise KeyError(f"unknown preset {args.preset!r}; valid: {', '.join(sorted(presets))}")
    return presets[args.preset]


def _load_data(args, train=True):
    if not args.data_dir:
        raise ValueError("no --data-dir given and SIMPNET_DATA_DIR is unset")
    train_ds = data.load_split(args.dataset, args.data_dir, "train") if train else None
    test_ds = data.load_split(args.dataset, args.data_dir, "test")
    if not getattr(args, "no_normalize", False):
        train_ds = data.normalize(train_ds)
        test_ds = data.normalize(test_ds, mean=train_ds.mean, std=train_ds.std)
    return train_ds, test_ds


def _train_config(args) -> T.TrainConfig:
    policy = data.AugmentPolicy(pad=4, crop=0, mirror_p=0.5) if args.augment else None
    return T.TrainConfig(
        epochs=args.epochs,
        batch_size=args.batch_size,
        lr=args.lr,
        momentum=args.momentum,
        weight_decay=args.wd,
        seed=args.seed,
        deterministic=args.deterministic,
        augment_policy=policy,
        max_steps=args.max_steps,
    )


# ---------------------------------------------------------------------------
# subcommands


def cmd_train(args) -> int:
    spec = _resolve_arch(args)
    train_ds, test_ds = _load_data(args)
    if args.subset is not None:
        train_ds = train_ds.subset(args.subset)
    cfg = _train_config(args)
    model = archdsl.build(spec)
    T.check_fits(model, train_ds)
    T.init_model(model, cfg.seed)
    rows = T.train_loop(
        model,
        train_ds,
        cfg,
        test_ds=test_ds,
        metrics_path=args.out_metrics,
        ckpt_path=args.out_ckpt,
        log=lambda m: print(m, file=sys.stderr),
    )
    final = [r for r in rows if r.split == "test"]
    if final:
        print(f"final test top1 {final[-1].top1:.4f} loss {final[-1].loss:.4f}")
    return EXIT_OK


def cmd_eval(args) -> int:
    spec = _resolve_arch(args)
    _, test_ds = _load_data(args, train=not args.no_normalize)  # the train split only gives statistics
    model = archdsl.build(spec)
    T.check_fits(model, test_ds)
    T.init_model(model, 0)
    load_checkpoint(model, args.ckpt)
    loss, top1 = T.evaluate(model, test_ds, args.batch_size)
    print(f"test loss {loss:.6g} top1 {top1:.6g}")
    return EXIT_OK


def cmd_analyze(args) -> int:
    spec = _resolve_arch(args)
    if args.input and min(args.input) < 1:
        raise ValueError(f"--input dims must be >= 1, got {' '.join(map(str, args.input))}")
    input_shape = tuple(args.input) if args.input else None
    report = audit(spec, input_shape=input_shape)
    print(report.render_records() if args.format == "records" else report.render_table())
    return EXIT_OK


def cmd_gradcheck(args) -> int:
    layers = args.layer if args.layer else None
    results = gc.run_suite(layers=layers, seed=args.seed, instances=args.instances)
    print(gc.render_results(results))
    if all(r.ok for r in results):
        return EXIT_OK
    bad = ", ".join(r.layer for r in results if not r.ok)
    _err(f"gradient check failed for: {bad}")
    return EXIT_GRADCHECK


def cmd_ablate(args) -> int:
    train_ds, test_ds = _load_data(args)
    cfg = _train_config(args)
    out = args.out_records or f"ablate-{args.preset}.tsv"
    result = T.ablate(
        args.preset,
        train_ds,
        test_ds,
        cfg,
        subset=args.subset,
        records_path=out,
        log=lambda m: print(m, file=sys.stderr),
    )
    print(result.table())
    print(f"records written to {out}", file=sys.stderr)
    return EXIT_OK


# ---------------------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="simpnet", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("train", help="train an architecture on a dataset")
    grp = p.add_mutually_exclusive_group(required=True)
    grp.add_argument("--arch", help="architecture file")
    grp.add_argument("--preset", help="packaged architecture preset")
    _add_data_flags(p)
    _add_train_flags(p)
    p.add_argument("--out-metrics", default="metrics.csv")
    p.add_argument("--out-ckpt", default="model.snpk")
    p.set_defaults(func=cmd_train)

    p = sub.add_parser("eval", help="evaluate a checkpoint on the test split")
    grp = p.add_mutually_exclusive_group(required=True)
    grp.add_argument("--arch")
    grp.add_argument("--preset")
    p.add_argument("--ckpt", required=True)
    _add_data_flags(p)
    p.add_argument("--batch-size", type=int, default=T.EVAL_BATCH)
    p.add_argument("--no-normalize", action="store_true")
    p.set_defaults(func=cmd_eval)

    p = sub.add_parser("analyze", help="audit an architecture against the design rules")
    grp = p.add_mutually_exclusive_group(required=True)
    grp.add_argument("--arch")
    grp.add_argument("--preset")
    p.add_argument("--input", type=int, nargs=3, metavar=("C", "H", "W"), help="override input dims")
    p.add_argument("--format", choices=("table", "records"), default="table")
    p.set_defaults(func=cmd_analyze)

    p = sub.add_parser("gradcheck", help="finite-difference check of every backward pass")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--layer", action="append", help="restrict to a layer case (repeatable)")
    p.add_argument("--instances", type=int, default=20)
    p.set_defaults(func=cmd_gradcheck)

    p = sub.add_parser("ablate", help="train every arm of an experiment preset")
    p.add_argument("--preset", required=True)
    _add_data_flags(p)
    _add_train_flags(p)
    p.add_argument("--out-records", default=None)
    p.set_defaults(func=cmd_ablate)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as e:  # argparse reports usage itself
        return int(e.code or 0)
    _echo_config(args)
    arch_file = f"{args.arch}: " if getattr(args, "arch", None) else ""
    try:
        return args.func(args)
    except ArchParseError as e:
        _err(f"{arch_file}architecture parse failed: {e}")
        return EXIT_ARGS
    except ArchValidationError as e:
        _err(f"{arch_file}architecture invalid: {e}")
        return EXIT_COLLAPSE if args.command == "analyze" else EXIT_ARGS
    except (FormatError, CompatibilityError, OSError) as e:
        _err(str(e))  # an OSError's text names the file it failed on
        return EXIT_DATA
    except (KeyError, ValueError) as e:
        msg = e.args[0] if e.args else str(e)
        _err(str(msg))
        return EXIT_ARGS
    except NumericsError as e:
        _err(f"numerical abort: {e}")
        return EXIT_NUMERIC


if __name__ == "__main__":
    sys.exit(main())
