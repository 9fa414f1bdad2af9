"""Architecture file format (parse, render, validate), build, and the preset readers.

The text format is line-oriented, one layer per line, `#` comments:

    input 3 32 32
    group g1
    conv 3 32 s1 p1
    bn
    relu
    dropout p0.2
    safpool 2 p0.2 s2
    group head
    gap
    flatten
    dense 10

KINDS lists each keyword's integer arguments and flags: s<int> is stride,
p<int> padding on conv/sconv, p<float> a probability on safpool/dropout.
A valid file is one input line, one or more named groups, and exactly one
classifier tail: `gap`, or `flatten` + `dense`, or `gap` + `flatten` + `dense`.
The tail's output width is the class count; a `gap`-only tail classifies
into the last layer's channels.

Published per-layer widths for the reference architectures are not
available. Every packaged preset, builder preset and ablation arm alike,
is a frozen .arch file under simpnet/presets/ whose widths
scripts/gen_presets.py solved once to hit a published parameter total
within tolerance, keeping depth, pooling placement and kernel sizes.
That script holds every builder; this module only reads the files, and
each ablation arm has one file per dataset input shape.
"""

from __future__ import annotations

import importlib.resources
import json
import os
import re
from collections.abc import Callable
from dataclasses import dataclass

from . import layers as L
from .errors import ArchParseError, ArchValidationError, FormatError, ShapeError
from .network import Model

CONV_KERNELS = (1, 2, 3, 5, 7)
# build refuses larger models before any parameter is allocated; the
# largest packaged preset has 8.0M parameters and 788 channels
MAX_WIDTH = 4096  # input channels, conv out channels, dense units
MAX_PARAMS = 50_000_000


@dataclass(frozen=True)
class LayerSpec:
    kind: str
    kernel: int = 0  # conv/sconv kernel, pool window
    channels: int = 0  # conv/sconv out channels, dense units
    stride: int = 0
    pad: int = 0
    p: float = 0.0  # dropout / SAF drop probability


@dataclass
class ArchSpec:
    name: str
    input_shape: tuple[int, int, int]  # (c, h, w)
    groups: list[tuple[str, list[LayerSpec]]]

    def flat_layers(self) -> list[LayerSpec]:
        return [ls for _, group in self.groups for ls in group]


@dataclass(frozen=True)
class Kind:
    """One layer keyword's rules, read by parse, render and build alike."""

    args: tuple[tuple[str, str], ...]  # integer arguments: (LayerSpec field, word in error messages)
    flags: tuple[str, ...]  # LayerSpec fields taken as FLAGS, in render order
    label: str  # prefix of the layer names it builds
    make: Callable[[str, int, LayerSpec], L.Layer]  # (name, input channels or features, spec)


def _conv(name, c, ls):
    return L.Conv2d(name, c, ls.channels, ls.kernel, ls.stride, ls.pad)


_CONV_ARGS = (("kernel", "kernel"), ("channels", "out_channels"))
_POOL_ARGS = (("kernel", "window"),)

KINDS = {
    "conv": Kind(_CONV_ARGS, ("stride", "pad"), "conv", _conv),
    "sconv": Kind(_CONV_ARGS, ("stride", "pad"), "sconv", _conv),
    "maxpool": Kind(_POOL_ARGS, ("stride",), "pool", lambda name, c, ls: L.SafPool(name, ls.kernel, 0.0, ls.stride)),
    "safpool": Kind(_POOL_ARGS, ("p", "stride"), "safpool", lambda name, c, ls: L.SafPool(name, ls.kernel, ls.p, ls.stride)),
    "gap": Kind((), (), "gap", lambda name, c, ls: L.GlobalAvgPool(name)),
    "bn": Kind((), (), "bn", lambda name, c, ls: L.BatchNorm(name, c)),
    "relu": Kind((), (), "relu", lambda name, c, ls: L.ReLU(name)),
    "dropout": Kind((), ("p",), "drop", lambda name, c, ls: L.Dropout(name, ls.p)),
    # validate puts a flatten right before dense, so c is its feature count
    "dense": Kind((("channels", "units"),), (), "dense", lambda name, c, ls: L.Dense(name, c, ls.channels)),
    "flatten": Kind((), (), "flatten", lambda name, c, ls: L.Flatten(name)),
}

# flag field -> (letter, word in error messages, least value; None for a probability in [0, 1))
FLAGS = {"stride": ("s", "stride", 1), "pad": ("p", "padding", 0), "p": ("p", "probability", None)}


# ---------------------------------------------------------------------------
# parsing


def _want_int(tok: str, lineno: int, col: int, what: str, least: int = 0) -> int:
    if not re.fullmatch(r"\d+", tok):
        raise ArchParseError(f"expected integer {what}, got {tok!r}", lineno, col)
    if int(tok) < least:
        raise ArchParseError(f"{what} must be >= {least}", lineno, col)
    return int(tok)


def _want_prob(tok: str, lineno: int, col: int) -> float:
    try:
        prob = float(tok)
    except ValueError:
        raise ArchParseError(f"expected number probability, got {tok!r}", lineno, col) from None
    if not 0.0 <= prob < 1.0:
        raise ArchParseError(f"probability must be in [0, 1), got {prob}", lineno, col)
    return prob


def _read_layer(head: str, rest, lineno: int, col: int) -> LayerSpec:
    """One layer line: the kind's integer arguments, then its flags in any order, each at most once."""
    kind = KINDS[head]
    if len(rest) < len(kind.args):
        raise ArchParseError(f"{head} needs {' and '.join(word for _, word in kind.args)}", lineno, col)
    fields = {}
    for (field, word), (tok, tcol) in zip(kind.args, rest):
        fields[field] = _want_int(tok, lineno, tcol, word, least=1)
        if word == "kernel" and fields[field] not in CONV_KERNELS:
            raise ArchParseError(f"kernel {fields[field]} not in allowed set {CONV_KERNELS}", lineno, tcol)
    by_letter = {FLAGS[field][0]: field for field in kind.flags}
    for tok, tcol in rest[len(kind.args) :]:
        field = by_letter.get(tok[:1])
        if field is None or field in fields:
            raise ArchParseError(f"unexpected token {tok!r}", lineno, tcol)
        _, word, least = FLAGS[field]
        text = tok[1:]
        fields[field] = _want_prob(text, lineno, tcol) if least is None else _want_int(text, lineno, tcol, word, least)
    if head == "dropout" and "p" not in fields:
        raise ArchParseError("dropout needs p<real>", lineno, col)
    if "stride" in kind.flags and "stride" not in fields:  # a pool's stride defaults to its window
        fields["stride"] = {"conv": 1, "sconv": 2}.get(head, fields["kernel"])
    return LayerSpec(head, **fields)


def parse(text: str, name: str = "arch") -> ArchSpec:
    """Parse architecture text; reports line/column on failure."""
    input_shape = None
    groups: list[tuple[str, list[LayerSpec]]] = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].rstrip()
        if not line.strip():
            continue
        toks = [(m.group(), m.start() + 1) for m in re.finditer(r"\S+", line)]
        head, col = toks[0]
        rest = toks[1:]
        if input_shape is None:
            if head != "input":
                raise ArchParseError(f"expected 'input c h w' first, got {head!r}", lineno, col)
            if len(rest) != 3:
                raise ArchParseError("input takes exactly 3 dims (c h w)", lineno, col)
            c, h, w = (_want_int(t, lineno, tc, "dimension") for t, tc in rest)
            if min(c, h, w) < 1:
                raise ArchParseError("input dims must be >= 1", lineno, col)
            input_shape = (c, h, w)
            continue
        if head == "input":
            raise ArchParseError("duplicate input line", lineno, col)
        if head == "group":
            if len(rest) != 1:
                raise ArchParseError("group takes exactly one name", lineno, col)
            groups.append((rest[0][0], []))
            continue
        if head not in KINDS:
            raise ArchParseError(f"unknown keyword {head!r}", lineno, col)
        if not groups:
            raise ArchParseError(f"layer {head!r} before any group", lineno, col)
        groups[-1][1].append(_read_layer(head, rest, lineno, col))

    if input_shape is None:
        raise ArchParseError("empty architecture (no input line)", 1, 1)
    spec = ArchSpec(name=name, input_shape=input_shape, groups=groups)
    validate(spec)
    return spec


def render(spec: ArchSpec) -> str:
    """Canonical text form; parse(render(s)) == s."""
    lines = [f"input {spec.input_shape[0]} {spec.input_shape[1]} {spec.input_shape[2]}"]
    for gname, group in spec.groups:
        lines.append(f"group {gname}")
        for ls in group:
            kind = KINDS[ls.kind]
            args = [str(getattr(ls, field)) for field, _ in kind.args]
            flags = [f"{FLAGS[field][0]}{getattr(ls, field)}" for field in kind.flags]
            lines.append(" ".join([ls.kind, *args, *flags]))
    return "\n".join(lines) + "\n"


def validate(spec: ArchSpec):
    """Structural checks: non-empty groups and exactly one classifier tail."""
    if not spec.groups:
        raise ArchValidationError("architecture has no groups")
    for gname, group in spec.groups:
        if not group:
            raise ArchValidationError(f"group {gname!r} is empty")
    flat = spec.flat_layers()
    kinds = [ls.kind for ls in flat]
    tail_starts = [i for i, k in enumerate(kinds) if k in ("gap", "flatten")]
    if kinds.count("dense") > 1:
        raise ArchValidationError("more than one dense layer")
    if not tail_starts:
        raise ArchValidationError("no classifier tail (need gap, or flatten + dense)")
    t = tail_starts[0]
    tail = tuple(kinds[t:])
    if tail not in (("gap",), ("flatten", "dense"), ("gap", "flatten", "dense")):
        raise ArchValidationError(f"invalid classifier tail {tail}; expected gap, flatten+dense, or gap+flatten+dense")
    if "dense" in kinds[:t]:
        raise ArchValidationError("dense layer before the classifier tail")


# ---------------------------------------------------------------------------
# building


def build(spec: ArchSpec) -> Model:
    """Instantiate a Model from a spec; parameters are uninitialized until
    Model.init_params. Shape-checked symbolically end to end, and refused
    when a width passes MAX_WIDTH or the parameter total MAX_PARAMS."""
    validate(spec)
    c, h, w = spec.input_shape
    widest = max(c, *(ls.channels for ls in spec.flat_layers()))
    if widest > MAX_WIDTH:
        raise ArchValidationError(f"width {widest} is over the cap of {MAX_WIDTH} channels or units")
    shape = (1, c, h, w)
    built: list[L.Layer] = []
    counters: dict[str, int] = {}

    def fresh(kind_label: str) -> str:
        counters[kind_label] = counters.get(kind_label, 0) + 1
        return f"{kind_label}{counters[kind_label]}"

    for ls in spec.flat_layers():
        kind = KINDS[ls.kind]
        layer = kind.make(fresh(kind.label), shape[1], ls)
        try:
            shape = layer.out_shape(shape)
        except ShapeError as e:
            raise ArchValidationError(
                f"shape collapses at {layer.name}: {e} "
                "(feature maps shrank too far before the classifier tail)"
            ) from e
        built.append(layer)
    total = sum(layer.param_count() for layer in built)
    if total > MAX_PARAMS:
        raise ArchValidationError(f"{total} parameters are over the cap of {MAX_PARAMS}")
    return Model(built, spec.input_shape)


# ---------------------------------------------------------------------------
# packaged presets (frozen width configs written by scripts/gen_presets.py)


@dataclass(frozen=True)
class Preset:
    name: str
    arms: tuple[tuple[str, ArchSpec], ...]
    equal_budget: bool
    note: str


def builder_presets() -> dict[str, ArchSpec]:
    """Architectures shipped as versioned .arch config files."""
    out = {}
    root = importlib.resources.files("simpnet.presets")
    for res in sorted(root.iterdir(), key=lambda r: r.name):
        if res.name.endswith(".arch"):
            name = res.name[: -len(".arch")].replace("_", "-")
            out[name] = parse(res.read_text(encoding="utf-8"), name=name)
    return out


def ablation_index() -> dict:
    """The input shapes the ablation arms are frozen at ("3x32x32"), and
    per experiment preset its arm order, equal_budget flag and note."""
    index = importlib.resources.files("simpnet.presets") / "ablation" / "index.json"
    return json.loads(index.read_text(encoding="utf-8"))


def ablation_presets(input_shape=(3, 32, 32)) -> dict[str, Preset]:
    """Named experiment presets, each arm named <preset>/<arm> and read
    from its file frozen for input_shape; published totals are referenced
    at (3, 32, 32)."""
    index = ablation_index()
    shape = "x".join(map(str, input_shape))
    if shape not in index["shapes"]:
        raise ValueError(f"no ablation arms are frozen for input shape {shape}; frozen: {', '.join(index['shapes'])}")
    root = importlib.resources.files("simpnet.presets") / "ablation" / shape
    presets = {}
    for name, entry in index["presets"].items():
        arms = tuple(
            (arm, parse((root / name / f"{arm}.arch").read_text(encoding="utf-8"), name=f"{name}/{arm}"))
            for arm in entry["arms"]
        )
        presets[name] = Preset(name, arms, entry["equal_budget"], entry["note"])
    return presets


def load_arch_file(path) -> ArchSpec:
    with open(path, "r", encoding="utf-8") as f:
        try:
            text = f.read()
        except UnicodeDecodeError:
            raise FormatError(f"{path}: architecture file is not UTF-8") from None
    return parse(text, name=os.path.splitext(os.path.basename(path))[0])
