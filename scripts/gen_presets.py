"""Regenerate every packaged .arch preset file: python3 scripts/gen_presets.py

Every preset is a conv_stack, the one builder of their layer layout.
Published per-layer widths are not available, so a deterministic solver
derives them once to hit each parameter total within tolerance, keeping
depth, pooling placement and kernel sizes. They are frozen into
src/simpnet/presets/: the builder presets as <name>.arch, each ablation
arm at the sample shape of each dataset loader as
ablation/<c>x<h>x<w>/<preset>/<arm>.arch, and ablation/index.json with
those shapes and each ablation preset's arm order, equal_budget flag and
note. A tier-1 test checks that a fresh run writes the committed files.
"""

import functools
import json
import os

from simpnet import archdsl
from simpnet.archdsl import ArchSpec, LayerSpec
from simpnet.network import count_macs

OUT = os.path.join(os.path.dirname(os.path.abspath(__file__)), "..", "src", "simpnet", "presets")

MIN_WIDTH = 4  # the narrowest conv the width solver hands out
PROFILE13 = [1, 1, 1, 1, 1, 2, 2, 2, 2, 2, 4, 4, 4]
PROFILE10 = [1, 1, 1, 1, 2, 2, 2, 2, 4, 4]
PROFILE8 = [1, 1, 1, 2, 2, 2, 4, 4]

TARGETS = [
    # (file name, input shape, param target, conv dropout, saf drop)
    ("simpnet_tiny", (1, 28, 28), 100_000, 0.1, 0.1),
    ("simpnet_300k", (3, 32, 32), 300_000, 0.2, 0.2),
    ("simpnet_600k", (3, 32, 32), 600_000, 0.2, 0.2),
    ("simpnet_5m", (3, 32, 32), 5_480_000, 0.2, 0.2),
]

ABLATION_SHAPES = [(3, 32, 32), (1, 28, 28)]  # CIFAR-10 and MNIST samples

# preset -> (equal budget, note, arms). An arm is (name, pool_after, widths,
# conv_stack options). Its widths are either solved, from (profile, target
# parameter total[, tolerance]), where the target may name an earlier arm
# whose total it matches, or the widths and target of the arm it names.
RECIPES = {
    "depth-gradual": (True, "vary depth, hold the parameter budget at 300K", [
        ("depth8", (3, 6), (PROFILE8, 300_000), {}),
        ("depth9", (4, 7), ([1, 1, 1, 1, 2, 2, 2, 4, 4], 300_000), {}),
        ("depth10", (4, 8), (PROFILE10, 300_000), {}),
        ("depth13", (5, 10), (PROFILE13, 300_000), {}),
    ]),
    "shallow-vs-deep": (False, "6 layers at 1.1M vs 10 layers at 570K; budgets differ by design", [
        ("wide6-1.1m", (2, 4), ([1, 1, 2, 2, 4, 4], 1_100_000), {}),
        ("deep10-570k", (4, 8), (PROFILE10, 570_000), {}),
    ]),
    **{
        f"balanced-vs-wide-end-{tag}": (True, f"width allocation balanced vs end-heavy at {tag} params", [
            ("balanced", (5, 10), (PROFILE13, budget), {}),
            ("wide-end", (5, 10), ([1] * 10 + [6, 8, 10], budget), {}),
        ])
        for tag, budget in (("128k", 128_000), ("8m", 8_000_000))
    },
    "pool-placement": (True, "one pooling layer placed as the 3rd/5th/7th layer, identical widths (53K)", [
        ("pool-l3", (2,), "pool-l5", {}),
        ("pool-l5", (4,), (PROFILE13, 53_000), {}),
        ("pool-l7", (6,), "pool-l5", {}),
    ]),
    "kernel-size": (False, "kernel size vs budget grid; compare arms sharing a budget", [
        ("3x3-300k", (3, 6), (PROFILE8, 300_000), {"kernels": [3] * 8}),
        ("3x3-1.6m", (3, 6), (PROFILE8, 1_600_000), {"kernels": [3] * 8}),
        ("5x5-1.6m", (3, 6), (PROFILE8, 1_600_000), {"kernels": [5] * 8}),
        ("7x7-300k-v1", (3, 6), (PROFILE8, 300_000), {"kernels": [7] * 8}),
        ("7x7-300k-v2", (3, 6), (PROFILE8, 300_000), {"kernels": [7, 7, 3, 3, 3, 3, 3, 3]}),
        ("7x7-1.6m", (3, 6), (PROFILE8, 1_600_000), {"kernels": [7] * 8}),
    ]),
    "maxpool-vs-sconv": (True, "downsample by max-pool vs stride-2 conv at a matched 360K budget", [
        ("maxpool", (5, 10), (PROFILE13, 360_000), {"downsample": "maxpool"}),
        ("sconv", (5, 10), (PROFILE13, "maxpool", 0.004), {"downsample": "sconv"}),
    ]),
    "saf-vs-plain-pool": (True, "SAF pooling (max-pool + drop) vs plain max-pool, identical widths (300K)", [
        ("saf", (5, 10), (PROFILE13, 300_000), {}),
        ("plain", (5, 10), "saf", {"downsample": "maxpool"}),
    ]),
}


def conv_stack(widths, pool_after, *, input_shape, kernels=None, conv_dropout_p=0.2, downsample="safpool", saf_drop_p=0.2):
    """Homogeneous-group conv net: runs of conv+bn+relu(+dropout) blocks, a
    downsampling layer after each conv count listed in pool_after, then a
    gap + flatten + dense 10 classifier tail. downsample is safpool, maxpool
    or sconv (a k=2 stride-2 conv + relu at the same positions)."""
    groups, block = [], []
    for i, (width, k) in enumerate(zip(widths, kernels or [3] * len(widths), strict=True), start=1):
        block += [LayerSpec("conv", kernel=k, channels=width, stride=1, pad=k // 2), LayerSpec("bn"), LayerSpec("relu")]
        if conv_dropout_p > 0:
            block.append(LayerSpec("dropout", p=conv_dropout_p))
        if i in pool_after:
            block += {
                "safpool": [LayerSpec("safpool", kernel=2, stride=2, p=saf_drop_p)],
                "maxpool": [LayerSpec("maxpool", kernel=2, stride=2)],
                "sconv": [LayerSpec("sconv", kernel=2, channels=width, stride=2, pad=0), LayerSpec("relu")],
            }[downsample]
        if i in pool_after or i == len(widths):
            groups.append((f"g{len(groups) + 1}", block))
            block = []
    head = [LayerSpec("gap"), LayerSpec("flatten"), LayerSpec("dense", channels=10)]
    return ArchSpec("convnet", tuple(input_shape), [*groups, ("head", head)])


def params(spec) -> int:
    return count_macs(archdsl.build(spec)).total_params


def solve_widths(make_spec, profile, target: int, tol: float = 0.02) -> list[int]:
    """Integer widths round(scale * profile) whose make_spec(widths) has a parameter
    total within tol of target: bisection on the scale, then greedy +-1 refinement."""
    def widths_at(scale: float) -> list[int]:
        return [max(MIN_WIDTH, round(scale * p)) for p in profile]

    def total(ws) -> int:
        return params(make_spec(ws))

    lo, hi = 0.25, 8.0
    while total(widths_at(hi)) < target:  # build stops a target too large at archdsl.MAX_WIDTH
        hi *= 2
    for _ in range(60):
        mid = (lo + hi) / 2
        if total(widths_at(mid)) < target:
            lo = mid
        else:
            hi = mid
    best = min((widths_at(s) for s in (lo, hi)), key=lambda ws: abs(total(ws) - target))
    keep_monotone = all(b >= a for a, b in zip(best, best[1:]))

    # greedy refinement: bump single widths while it helps; when the
    # profile is a pyramid, only moves that keep it non-decreasing
    for _ in range(200):
        err = abs(total(best) - target)
        if err == 0:
            break
        candidates = []
        for i in range(len(best)):
            for d in (-1, 1):
                trial = list(best)
                trial[i] += d
                if trial[i] < MIN_WIDTH:
                    continue
                if keep_monotone and not all(b >= a for a, b in zip(trial, trial[1:])):
                    continue
                candidates.append((abs(total(trial) - target), trial))
        candidates.sort(key=lambda t: t[0])
        if not candidates or candidates[0][0] >= err:
            break
        best = candidates[0][1]

    achieved = total(best)
    if abs(achieved - target) > tol * target:
        raise ValueError(f"budget solver missed target {target} (got {achieved})")
    return best


def solve_arms(arms, input_shape):
    """{arm: (spec, widths, target)} for one preset's recipe at one input shape."""
    solved = {}
    # an arm that reuses another's widths comes after every solved arm
    for arm, pool_after, widths, opts in sorted(arms, key=lambda a: isinstance(a[2], str)):
        mk = functools.partial(conv_stack, pool_after=pool_after, input_shape=input_shape, **opts)
        if isinstance(widths, str):
            ws, target = solved[widths][1:]
        else:
            profile, target, *tol = widths
            if isinstance(target, str):
                target = params(solved[target][0])
            ws = solve_widths(mk, profile, target, *tol)
        solved[arm] = (mk(ws), ws, target)
    return solved


def write(path, title, spec, widths, target):
    total = params(spec)
    os.makedirs(os.path.dirname(path), exist_ok=True)
    with open(path, "w", encoding="utf-8") as f:
        f.write(f"# {title}\n")
        f.write(f"# widths {widths} -> {total} parameters (target {target})\n")
        f.write(archdsl.render(spec))
    print(f"{os.path.relpath(path, OUT)}: widths={widths} params={total} (target {target})")


def main():
    for name, input_shape, target, drop, saf in TARGETS:
        opts = {"conv_dropout_p": drop, "saf_drop_p": saf}
        spec, widths, _ = solve_arms([(name, (5, 10), (PROFILE13, target), opts)], input_shape)[name]
        title = f"{name}: 13 conv layers, pooling after layers 5 and 10"
        write(os.path.join(OUT, f"{name}.arch"), title, spec, widths, target)

    shapes = ["x".join(map(str, shape)) for shape in ABLATION_SHAPES]
    for shape, input_shape in zip(shapes, ABLATION_SHAPES):
        for preset, (_, note, arms) in RECIPES.items():
            for arm, (spec, widths, target) in solve_arms(arms, input_shape).items():
                path = os.path.join(OUT, "ablation", shape, preset, f"{arm}.arch")
                write(path, f"{preset}/{arm} at {shape}: {note}", spec, widths, target)

    index = {
        "shapes": shapes,
        "presets": {
            preset: {"arms": [arm for arm, *_ in arms], "equal_budget": equal_budget, "note": note}
            for preset, (equal_budget, note, arms) in RECIPES.items()
        },
    }
    with open(os.path.join(OUT, "ablation", "index.json"), "w", encoding="utf-8") as f:
        f.write(json.dumps(index, indent=2) + "\n")


if __name__ == "__main__":
    main()
