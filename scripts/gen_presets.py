"""Regenerate the packaged .arch preset files.

Width vectors are solved once to hit each target parameter total and
then frozen into src/simpnet/presets/; rerun this only when the builder
structure or the targets change.
"""

import os

from simpnet import archdsl
from simpnet.network import count_macs

HERE = os.path.dirname(os.path.abspath(__file__))
OUT = os.path.join(HERE, "..", "src", "simpnet", "presets")

TARGETS = [
    # (file name, input shape, param target, conv dropout, saf drop)
    ("simpnet_tiny", (1, 28, 28), 100_000, 0.1, 0.1),
    ("simpnet_300k", (3, 32, 32), 300_000, 0.2, 0.2),
    ("simpnet_600k", (3, 32, 32), 600_000, 0.2, 0.2),
    ("simpnet_5m", (3, 32, 32), 5_480_000, 0.2, 0.2),
]

PROFILE = [1, 1, 1, 1, 1, 2, 2, 2, 2, 2, 4, 4, 4]


def main():
    os.makedirs(OUT, exist_ok=True)
    for name, input_shape, target, drop, saf in TARGETS:
        def mk(ws):
            return archdsl.simpnet(
                ws, input_shape=input_shape, conv_dropout_p=drop, saf_drop_p=saf, name=name
            )

        widths = archdsl.solve_widths(mk, PROFILE, target)
        spec = mk(widths)
        ledger = count_macs(archdsl.build(spec))
        path = os.path.join(OUT, f"{name}.arch")
        with open(path, "w", encoding="utf-8") as f:
            f.write(f"# {name}: 13 conv layers, pooling after layers 5 and 10\n")
            f.write(f"# widths {widths} -> {ledger.total_params} parameters (target {target})\n")
            f.write(archdsl.render(spec))
        print(f"{name}: widths={widths} params={ledger.total_params} (target {target})")


if __name__ == "__main__":
    main()
