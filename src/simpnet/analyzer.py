"""Static design audit: measurable checks over an architecture spec.

Each rule turns one design principle into a deterministic measurement
with a threshold. The thresholds are the module constants below, set so
that they classify the reference good/bad layouts correctly. Severity
never blocks a build: `fail` marks a layout the principles argue
directly against, `warn` a likely misallocation, `info` a measurement
worth seeing. The only hard error a spec can raise is shape collapse,
which happens in build(), not here.

Rules:
  R1 pyramid-shape        channel widths grow, spatial dims shrink
  R2 local-correlation    no 1x1 kernels in the early layers
  R3 information-util     no downsampling before enough conv layers
  R4 balanced-distribution no single layer hoards the parameter budget
  R5 end-capacity         no tiny final maps combined with a heavy tail
  R6 compute-efficiency   kernels over 3x3 reported with their MAC ratio
  R7 homogeneous-groups   groups should not mix feature-map sizes
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction

from .archdsl import ArchSpec, build
from .network import ParamLedger, count_macs

EARLY_KERNEL_FRACTION = 1 / 3  # R2: leading fraction of conv layers
EARLY_POOL_MIN_CONVS = 3  # R3: convs required before any downsampling
BALANCE_MAX_SHARE = 0.35  # R4: max parameter share of one layer
END_MIN_SPATIAL = 2  # R5: pre-tail maps below this are "tiny"
END_MAX_SHARE = 0.50  # R5: max share of the last conv group


@dataclass(frozen=True)
class Finding:
    rule_id: str
    severity: str
    layer: str
    measurement: str
    principle: str


@dataclass
class AuditReport:
    arch_name: str
    ledger: ParamLedger
    findings: list[Finding] = field(default_factory=list)

    def fails(self) -> list[Finding]:
        return [f for f in self.findings if f.severity == "fail"]

    def warns(self) -> list[Finding]:
        return [f for f in self.findings if f.severity == "warn"]

    def render_table(self) -> str:
        lines = [f"audit of {self.arch_name}", "", self.ledger.render(), ""]
        if self.findings:
            lines.append(f"{'rule':<5} {'severity':<9} {'layer':<12} measurement")
            for f in self.findings:
                lines.append(f"{f.rule_id:<5} {f.severity:<9} {f.layer:<12} {f.measurement} [{f.principle}]")
        else:
            lines.append("no findings")
        n_fail, n_warn = len(self.fails()), len(self.warns())
        lines.append("")
        lines.append(
            f"total params {self.ledger.total_params}, total macs {self.ledger.total_macs}; "
            f"{n_fail} fail, {n_warn} warn, {len(self.findings) - n_fail - n_warn} info"
        )
        return "\n".join(lines)

    def render_records(self) -> str:
        """One finding per line: rule, severity, layer, measurement, principle."""
        return "\n".join(
            "\t".join((f.rule_id, f.severity, f.layer, f.measurement, f.principle)) for f in self.findings
        ) + ("\n" if self.findings else "")


def audit(spec: ArchSpec, input_shape=None) -> AuditReport:
    """Evaluate every rule once per applicable layer, appending findings in rule order; deterministic."""
    if input_shape is not None and tuple(input_shape) != tuple(spec.input_shape):
        spec = ArchSpec(spec.name, tuple(input_shape), spec.groups)
    model = build(spec)
    ledger = count_macs(model)
    flat = spec.flat_layers()
    rows = ledger.rows  # one row per spec layer, same order
    findings: list[Finding] = []

    conv_idx = [i for i, ls in enumerate(flat) if ls.kind in ("conv", "sconv")]
    n_conv = len(conv_idx)
    total = ledger.total_params

    # R1: widths non-decreasing while spatial dims non-increasing
    widths = [(i, flat[i].channels) for i in conv_idx]
    grew = False
    for (ia, wa), (ib, wb) in zip(widths, widths[1:]):
        if wb < wa:
            findings.append(
                Finding("R1", "warn", rows[ib].name, f"width drops {wa} -> {wb}", "pyramid-shape")
            )
        if wb > wa:
            grew = True
    if n_conv > 1 and not grew:
        findings.append(
            Finding("R1", "warn", rows[conv_idx[-1]].name, "channel widths never grow through depth", "pyramid-shape")
        )
    spatial = [(0, spec.input_shape[1] * spec.input_shape[2])]
    for i, row in enumerate(rows):
        if len(row.out_shape) == 4:
            spatial.append((i, row.out_shape[2] * row.out_shape[3]))
    for (ia, sa), (ib, sb) in zip(spatial, spatial[1:]):
        if sb > sa:
            findings.append(
                Finding("R1", "warn", rows[ib].name, f"spatial size grows {sa} -> {sb}", "pyramid-shape")
            )

    # R2: 1x1 kernels in the first third of conv layers
    early_cut = max(1, int(n_conv * EARLY_KERNEL_FRACTION))
    for pos, i in enumerate(conv_idx):
        if flat[i].kernel == 1 and pos < early_cut:
            findings.append(
                Finding(
                    "R2",
                    "fail",
                    rows[i].name,
                    f"1x1 kernel at conv position {pos + 1} of {n_conv}; use 2x2 to keep neighborhood information",
                    "local-correlation",
                )
            )

    # R3: downsampling before enough conv layers
    convs_seen = 0
    for i, ls in enumerate(flat):
        downsamples = ls.kind in ("maxpool", "safpool") or (ls.kind in ("conv", "sconv") and ls.stride > 1)
        if downsamples and convs_seen < EARLY_POOL_MIN_CONVS:
            findings.append(
                Finding(
                    "R3",
                    "warn",
                    rows[i].name,
                    f"downsampling after only {convs_seen} conv layers (< {EARLY_POOL_MIN_CONVS})",
                    "information-utilization",
                )
            )
        if ls.kind in ("conv", "sconv"):
            convs_seen += 1

    # R4: one layer hoarding the parameter budget
    for row in rows:
        share = row.param_count / total if total else 0.0
        if share > BALANCE_MAX_SHARE:
            findings.append(
                Finding(
                    "R4",
                    "warn",
                    row.name,
                    f"layer holds {share:.1%} of parameters (> {BALANCE_MAX_SHARE:.0%})",
                    "balanced-distribution",
                )
            )

    # R5: tiny final maps combined with an end-heavy budget
    pre_tail = None
    for i, ls in enumerate(flat):
        if ls.kind in ("gap", "flatten"):
            break
        if len(rows[i].out_shape) == 4:
            pre_tail = (i, rows[i].out_shape)
    if pre_tail is not None:
        i, shape = pre_tail
        h, w = shape[2], shape[3]
        conv_groups = [
            gi for gi, (_, group) in enumerate(spec.groups) if any(l.kind in ("conv", "sconv") for l in group)
        ]
        if conv_groups:
            last_group = conv_groups[-1]
            offset = sum(len(group) for _, group in spec.groups[:last_group])
            size = len(spec.groups[last_group][1])
            group_params = sum(r.param_count for r in rows[offset : offset + size])
            share = group_params / total if total else 0.0
            if (h < END_MIN_SPATIAL or w < END_MIN_SPATIAL) and share > END_MAX_SHARE:
                findings.append(
                    Finding(
                        "R5",
                        "warn",
                        rows[i].name,
                        f"final map {h}x{w} with last conv group holding {share:.1%} of parameters",
                        "end-capacity",
                    )
                )

    # R6: kernels above 3x3 cost disproportionally more MACs
    for pos, i in enumerate(conv_idx):
        k = flat[i].kernel
        if k > 3:
            ratio = Fraction(k * k, 9)
            findings.append(
                Finding(
                    "R6",
                    "info",
                    rows[i].name,
                    f"{k}x{k} kernel costs {ratio.numerator}/{ratio.denominator} = {float(ratio):.2f}x the 3x3 MACs",
                    "compute-efficiency",
                )
            )

    # R7: groups mixing conv feature-map sizes
    offset = 0
    for gname, group in spec.groups:
        sizes = []
        for j, ls in enumerate(group):
            if ls.kind in ("conv", "sconv") and ls.stride == 1:
                out = rows[offset + j].out_shape
                sizes.append((out[2], out[3]))
        if len(set(sizes)) > 1:
            findings.append(
                Finding(
                    "R7",
                    "info",
                    gname,
                    f"group mixes feature-map sizes {sorted(set(sizes))}",
                    "homogeneous-groups",
                )
            )
        offset += len(group)

    return AuditReport(spec.name, ledger, findings)
