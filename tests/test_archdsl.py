import hashlib
import importlib.resources
import pathlib
import re

import numpy as np
import pytest

from conftest import load_script
from simpnet import archdsl as A
from simpnet.errors import ArchParseError, ArchValidationError
from simpnet.network import count_macs
from simpnet.rng import SplitRng

EXAMPLE = "input 1 28 28\ngroup g1\nconv 3 32 s1 p1\nrelu\nsafpool 2 p0.2\nflatten\ndense 10\n"

# sha256 of archdsl.render of every ablation preset arm, at each input shape; a change to a
# builder or to the width solver that changes a preset's layers or widths changes its hash
PRESET_RENDER_SHA256 = {
    (3, 32, 32): {
        "depth-gradual/depth8": "4cd809fdce9203329f78baca040dd3ccaf33c675ccc7690d4d695a4c2e9ecce1",
        "depth-gradual/depth9": "5730f2ba6824d56a0c53afdb2722da01b80e8489655826ff96b8fb176e280055",
        "depth-gradual/depth10": "d1eeaaff092f9c361666599ca4b397b36813c21cce83326f96adb1f4ef0c48d2",
        "depth-gradual/depth13": "3ab7a7f9d5cd0d0b335e57e6116428a944b0031e7a7a8c2f5a0207c25ea9bec0",
        "shallow-vs-deep/wide6-1.1m": "b7034313edec07779b34c388f15000c2f4db83feec7e7be84c4dd0c24d4ff695",
        "shallow-vs-deep/deep10-570k": "9f0fbbb8f38cf585e03ef3d1b47389302c95d4bc487fbfa18b3c9f9545d927b0",
        "balanced-vs-wide-end-128k/balanced": "2a0d923d04854593dcda7887fb289bd152ac07bd5c1b5dd020f4d1c6e92a456b",
        "balanced-vs-wide-end-128k/wide-end": "d5b70a37e4f17d2ed04c08ab6847bd352274484df6ad3b6d50102e0348193c7b",
        "balanced-vs-wide-end-8m/balanced": "28cc9084bd52eaf5d4bb725f9219e12f4dc14bbef85e4cd9b46ce826b460c682",
        "balanced-vs-wide-end-8m/wide-end": "7de564e875a1273d83c2be3a84ca1e5b92dfcc2fe8a848f184f18a89b27b0a4e",
        "pool-placement/pool-l3": "62daa6908930cb6a51397f8408a7fec067c436534dc7011e25f077d3e34d9a14",
        "pool-placement/pool-l5": "adb11d6fd58cf4065034a0ab01ada01df99575a701bd20670d74e5ba64adedaa",
        "pool-placement/pool-l7": "a46665bab103bc034894dc3425a4cd90929a81b79535731feead3bf10b6af83b",
        "kernel-size/3x3-300k": "4cd809fdce9203329f78baca040dd3ccaf33c675ccc7690d4d695a4c2e9ecce1",
        "kernel-size/3x3-1.6m": "7059508f90eb91fc1ed66e28543363748f680db529ec5525028e74189d6a50ed",
        "kernel-size/5x5-1.6m": "9a31a99939038fa4581e3c241b3e4b78dc8f61dc98cf0733a75c9a1f3d4eb4a1",
        "kernel-size/7x7-300k-v1": "0557e9eb6f3d9428e2e9e9c4c8b1fc9b8b8c77b946c65e14d586df11753ff56c",
        "kernel-size/7x7-300k-v2": "1917f106bb353e5d4f9666cf69dfef9bec442f013467e63b860455b8c852f17c",
        "kernel-size/7x7-1.6m": "2e1328953f55e6e26d0845094109cea1181e97f162d966d117e93604a2552e90",
        "maxpool-vs-sconv/maxpool": "1c96eaf5f512868a96a9c608eb78fda5eacc5911a048d19abc56367132a46da7",
        "maxpool-vs-sconv/sconv": "e53c68608734d10e977fa59522cbe33a18f380f83661545dbbe9ad7318431dfe",
        "saf-vs-plain-pool/saf": "3ab7a7f9d5cd0d0b335e57e6116428a944b0031e7a7a8c2f5a0207c25ea9bec0",
        "saf-vs-plain-pool/plain": "8d83cddaa9ab385ce4a8a2736eb261f3e1d5f33a6ece418b1d75dd4a401720d8",
    },
    (1, 28, 28): {
        "depth-gradual/depth8": "c3efcff24aab07c358c7291ac1e2ade2ca1bf2fc2e3022516125b1284de3d54a",
        "depth-gradual/depth9": "f2e0343385d246872a4cf1faef9c574670f59bfd6e3456c1eaaed3f8b25a8645",
        "depth-gradual/depth10": "51edc5bc4fcae134f2ae8e4b9b8bfefcac3349793ddcc867db5df69994bafa40",
        "depth-gradual/depth13": "b79c6df6f053c88524553706c87e69eb55b98e76eed6ebe517ffa268b9133902",
        "shallow-vs-deep/wide6-1.1m": "63f4d4de72324d6dd932a5d2a0449aa829fd850382282e6476fe6fcf2f2adca3",
        "shallow-vs-deep/deep10-570k": "432d587fee80e9fe1149c0e0de783ce2ed1397758fed7331bfb6047e8a003b05",
        "balanced-vs-wide-end-128k/balanced": "67db951dce141dbe22d078f567cb5c44aa11fb0669f1d7484dfe49a688ff1598",
        "balanced-vs-wide-end-128k/wide-end": "8499f5d94757ec04856433eb199d08672b7deab246256adf8186a4f5690f6686",
        "balanced-vs-wide-end-8m/balanced": "09e9f969fd64bdddb6b3a7ad380a9d158e367ea3a16726fb8983f42697cbfd82",
        "balanced-vs-wide-end-8m/wide-end": "b63b1583049b7e180cbb93984edf56437c3dc97d35f7c10b572f33532240dd00",
        "pool-placement/pool-l3": "9ef7bf692aed80dd47fd3f4d79001b6157d82500d19bc035e079f92d90f712b0",
        "pool-placement/pool-l5": "41c3ebafae2eee3484db02803aafe3ef7438b25b623895640f73d14496cc7efa",
        "pool-placement/pool-l7": "f128fcd2e42f5be5db36f8372710d7ffac615302b3bfb9a23a0c7e9d122d7545",
        "kernel-size/3x3-300k": "c3efcff24aab07c358c7291ac1e2ade2ca1bf2fc2e3022516125b1284de3d54a",
        "kernel-size/3x3-1.6m": "6a83558695182ca685e17603113b1e88ce10195aa1e01be3e38c10df1733ff9d",
        "kernel-size/5x5-1.6m": "c4a25d5d060e70533bfa640831d0e9446a90614f8913a246a4fc22dd6a4e72ea",
        "kernel-size/7x7-300k-v1": "166d514a16bc89a5c63ed4e0a4b929a4a92b9c09da7260d956b10aaf644a902d",
        "kernel-size/7x7-300k-v2": "5fb4695c3a97b52329b3dbcc88d94be688e30c4233107bd644671e2015d065bf",
        "kernel-size/7x7-1.6m": "736b1bb3a17e64ce19c15604bb2665353c87676daa255db90cbb7f9598abf737",
        "maxpool-vs-sconv/maxpool": "29b5086d386c8cb80ef4628fee5fae86424a25e1396a5f11be2b14dd64367c59",
        "maxpool-vs-sconv/sconv": "1724afed4e9b1207ebd0d1782a55cdcb443a3f0f548a647a84a26924baae6239",
        "saf-vs-plain-pool/saf": "b79c6df6f053c88524553706c87e69eb55b98e76eed6ebe517ffa268b9133902",
        "saf-vs-plain-pool/plain": "578be6fbc85d93f7a8e783eedb692ac1ffaf094375c5e694dd1fa791c37c98ec",
    },
}


@pytest.fixture(scope="module")
def presets():
    return A.ablation_presets()


PRESETS = pathlib.Path(A.__file__).parent / "presets"


def total(spec):
    return count_macs(A.build(spec)).total_params


class TestParse:
    def test_example_structure(self):
        spec = A.parse(EXAMPLE)
        assert spec.input_shape == (1, 28, 28)
        assert [g for g, _ in spec.groups] == ["g1"]
        kinds = [ls.kind for ls in spec.flat_layers()]
        assert kinds == ["conv", "relu", "safpool", "flatten", "dense"]
        conv = spec.flat_layers()[0]
        assert (conv.kernel, conv.channels, conv.stride, conv.pad) == (3, 32, 1, 1)
        saf = spec.flat_layers()[2]
        assert (saf.kernel, saf.stride, saf.p) == (2, 2, 0.2)
        assert spec.flat_layers()[-1].channels == 10

    def test_kernel_4_rejected_with_location(self):
        with pytest.raises(ArchParseError) as e:
            A.parse("input 1 8 8\ngroup g1\nconv 4 32\nflatten\ndense 10\n")
        assert e.value.line == 3

    def test_unknown_keyword(self):
        with pytest.raises(ArchParseError, match="unknown keyword"):
            A.parse("input 1 8 8\ngroup g1\nconvv 3 8\nflatten\ndense 10\n")

    def test_bad_number_reports_column(self):
        with pytest.raises(ArchParseError) as e:
            A.parse("input 1 8 8\ngroup g1\nconv 3 abc\nflatten\ndense 2\n")
        assert e.value.line == 3 and e.value.column == 8

    def test_missing_input_line(self):
        with pytest.raises(ArchParseError, match="input"):
            A.parse("group g1\nconv 3 8\n")

    def test_layer_before_group(self):
        with pytest.raises(ArchParseError, match="before any group"):
            A.parse("input 1 8 8\nconv 3 8\n")

    def test_comments_and_blank_lines_ignored(self):
        text = "# a comment\ninput 1 8 8\n\ngroup g1  # trailing\nrelu\ngap\n"
        spec = A.parse(text)
        assert [ls.kind for ls in spec.flat_layers()] == ["relu", "gap"]

    def test_no_tail_is_validation_error(self):
        with pytest.raises(ArchValidationError, match="tail"):
            A.parse("input 1 8 8\ngroup g1\nconv 3 8 s1 p1\nrelu\n")

    def test_dense_without_flatten_rejected(self):
        with pytest.raises(ArchValidationError):
            A.parse("input 1 8 8\ngroup g1\nconv 3 8 s1 p1\ndense 10\n")

    def test_dropout_needs_probability(self):
        with pytest.raises(ArchParseError, match="p<real>"):
            A.parse("input 1 8 8\ngroup g1\ndropout\nflatten\ndense 2\n")

    def test_gap_then_dense_without_flatten_rejected(self):
        with pytest.raises(ArchValidationError, match="tail"):
            A.parse("input 1 8 8\ngroup g1\nconv 3 8 s1 p1\ngap\ndense 10\n")

    def test_two_dense_layers_rejected(self):
        with pytest.raises(ArchValidationError):
            A.parse("input 1 8 8\ngroup g1\nflatten\ndense 10\ndense 10\n")

    def test_trailing_layer_after_tail_rejected(self):
        with pytest.raises(ArchValidationError):
            A.parse("input 1 8 8\ngroup g1\nconv 3 8 s1 p1\ngap\nrelu\n")

    def test_maxpool_rejects_probability_flag(self):
        with pytest.raises(ArchParseError, match="unexpected token"):
            A.parse("input 1 8 8\ngroup g1\nconv 3 8 s1 p1\nmaxpool 2 p0.3\ngap\n")

    @pytest.mark.parametrize(
        "line,column,message",
        [
            ("maxpool 2 s0", 11, "stride must be >= 1"),
            ("safpool 2 s0 p0.1", 11, "stride must be >= 1"),
            ("conv 3 8 s0", 10, "stride must be >= 1"),
            ("sconv 2 8 s0", 11, "stride must be >= 1"),
            ("conv 3 0 s1 p1", 8, "out_channels must be >= 1"),
            ("dense 0", 7, "units must be >= 1"),
            ("maxpool 0", 9, "window must be >= 1"),
            ("dropout p0.3 s1", 14, "unexpected token 's1'"),
            ("conv 4 8", 6, "kernel 4 not in allowed set"),
            ("conv 3 x", 8, "expected integer out_channels, got 'x'"),
            ("conv 3", 1, "conv needs kernel and out_channels"),
            ("conv 3 8 p0.5", 10, "expected integer padding, got '0.5'"),
            ("conv 3 8 s1 p1 p1", 16, "unexpected token 'p1'"),
            ("conv 3 8 q1", 10, "unexpected token 'q1'"),
            ("maxpool", 1, "maxpool needs window"),
            ("maxpool 2 p0.1", 11, "unexpected token 'p0.1'"),
            ("maxpool 2 s1 s1", 14, "unexpected token 's1'"),
            ("safpool 2 p1.5", 11, "probability must be in"),
            ("safpool 2 px", 11, "expected number probability, got 'x'"),
            ("dropout", 1, "dropout needs p<real>"),
            ("dropout p0.2 p0.2", 14, "unexpected token 'p0.2'"),
            ("dense", 1, "dense needs units"),
            ("dense 3 4", 9, "unexpected token '4'"),
            ("dense x", 7, "expected integer units, got 'x'"),
            ("bn 3", 4, "unexpected token '3'"),
            ("relu x", 6, "unexpected token 'x'"),
        ],
    )
    def test_malformed_layer_line_names_its_token(self, line, column, message):
        with pytest.raises(ArchParseError, match=re.escape(message)) as e:
            A.parse(f"input 1 8 8\ngroup g1\n{line}\ngap\n")
        assert (e.value.line, e.value.column) == (3, column)


class TestRenderRoundTrip:
    def test_example_round_trip(self):
        spec = A.parse(EXAMPLE)
        assert A.parse(A.render(spec)) == spec

    @pytest.mark.parametrize("name", sorted(A.builder_presets()))
    def test_render_gives_the_packaged_file(self, name):
        text = (importlib.resources.files("simpnet.presets") / f"{name.replace('-', '_')}.arch").read_text()
        layer_lines = [line for line in text.splitlines() if not line.startswith("#")]
        assert A.render(A.parse(text)) == "\n".join(layer_lines) + "\n"

    def test_random_specs_round_trip(self):
        rng = SplitRng(404)
        for i in range(25):
            r = rng.split(i)
            n_convs = int(r.integers(1, 4)[0]) + 1
            width = 4
            lines = ["input 3 32 32", "group g1"]
            for j in range(n_convs):
                k = [1, 2, 3, 5, 7][int(r.integers(1, 5)[0])]
                width += int(r.integers(1, 8)[0])
                lines.append(f"conv {k} {width} s1 p{k // 2}")
                if r.coin(1, 0.5)[0]:
                    lines.append("bn")
                lines.append("relu")
                if r.coin(1, 0.5)[0]:
                    p = round(float(r.uniform(1, 0.05, 0.5)[0]), 3)
                    lines.append(f"dropout p{p}")
            if r.coin(1, 0.5)[0]:
                lines.append("safpool 2 p0.25")
            else:
                lines.append("maxpool 2")
            lines += ["group head", "gap", "flatten", "dense 10"]
            spec = A.parse("\n".join(lines) + "\n")
            assert A.parse(A.render(spec)) == spec


class TestBuild:
    @pytest.mark.parametrize("where", ["input", "conv", "dense"])
    def test_a_width_over_the_cap_is_validation_error(self, where):
        def arch(width):
            c, conv, units = (width if where == place else 4 for place in ("input", "conv", "dense"))
            return A.parse(f"input {c} 8 8\ngroup g1\nconv 3 {conv} s1 p1\nrelu\ngroup head\ngap\nflatten\ndense {units}\n")

        A.build(arch(A.MAX_WIDTH))
        with pytest.raises(ArchValidationError, match=f"width {A.MAX_WIDTH + 1} is over the cap of {A.MAX_WIDTH}"):
            A.build(arch(A.MAX_WIDTH + 1))

    def test_a_parameter_total_over_the_cap_is_validation_error(self, monkeypatch):
        spec = A.builder_presets()["simpnet-300k"]
        params = total(spec)
        monkeypatch.setattr(A, "MAX_PARAMS", params)
        A.build(spec)
        monkeypatch.setattr(A, "MAX_PARAMS", params - 1)
        with pytest.raises(ArchValidationError, match=f"{params} parameters are over the cap of {params - 1}"):
            A.build(spec)

    def test_every_packaged_file_builds_within_the_caps(self):
        paths = sorted(PRESETS.rglob("*.arch"))
        assert len(paths) > 4  # the builder presets and the ablation arms
        for path in paths:
            ledger = count_macs(A.build(A.parse(path.read_text())))
            assert ledger.total_params <= A.MAX_PARAMS // 4, path
            assert max(row.out_shape[1] for row in ledger.rows) <= A.MAX_WIDTH // 4, path

    def test_toy_spec_builds_and_runs(self):
        spec = A.parse("input 2 8 8\ngroup g1\nconv 3 4 s1 p1\nrelu\nmaxpool 2\ngroup head\nflatten\ndense 3\n")
        model = A.build(spec).init_params(SplitRng(0), np.float64)
        out = model.eval(SplitRng(1).uniform((2, 2, 8, 8)))
        assert out.shape == (2, 3)

    def test_shape_collapse_is_validation_error(self):
        lines = ["input 1 28 28", "group g1"]
        for _ in range(6):
            lines.append("conv 3 4 s1 p1")
            lines.append("maxpool 2")
        lines += ["flatten", "dense 10"]
        with pytest.raises(ArchValidationError, match="collapses"):
            A.build(A.parse("\n".join(lines) + "\n"))

    def test_forward_shape_equals_symbolic(self):
        spec = load_script("gen_presets").conv_stack([8] * 5 + [12] * 5 + [16] * 3, (5, 10), input_shape=(3, 32, 32))
        model = A.build(spec).init_params(SplitRng(0))
        sym = model.symbolic_shapes(4)[-1]
        got = model.eval(np.zeros((4, 3, 32, 32), dtype=np.float32))
        assert got.shape == sym


class TestSolver:
    """The width solver of scripts/gen_presets.py, which writes every packaged preset file."""

    def test_hits_target_within_tolerance(self):
        script = load_script("gen_presets")

        def mk(ws):
            return script.conv_stack(ws, (3, 6), input_shape=(3, 32, 32))

        ws = script.solve_widths(mk, [1, 1, 1, 2, 2, 2, 4, 4], 250_000)
        t = total(mk(ws))
        assert abs(t - 250_000) / 250_000 < 0.02

    def test_monotone_profiles_stay_monotone(self):
        script = load_script("gen_presets")

        def mk(ws):
            return script.conv_stack(ws, (5, 10), input_shape=(3, 32, 32))

        ws = script.solve_widths(mk, [1, 1, 1, 1, 1, 2, 2, 2, 2, 2, 4, 4, 4], 300_000)
        assert all(b >= a for a, b in zip(ws, ws[1:]))

    def test_generator_writes_the_committed_files(self, tmp_path, monkeypatch):
        script = load_script("gen_presets")
        monkeypatch.setattr(script, "OUT", str(tmp_path))
        script.main()

        def files(root):
            return {str(path.relative_to(root)): path.read_bytes() for path in root.rglob("*") if path.is_file()}

        written, committed = files(tmp_path), files(PRESETS)
        assert sorted(written) == sorted(committed)
        assert [name for name in committed if written[name] != committed[name]] == []


class TestPresets:
    def test_at_least_eight_named_experiments(self, presets):
        assert len(presets) >= 8
        assert "maxpool-vs-sconv" in presets
        assert "pool-placement" in presets
        assert "saf-vs-plain-pool" in presets

    def test_depth_arms_all_within_2pct_of_300k(self, presets):
        totals = [total(spec) for _, spec in presets["depth-gradual"].arms]
        assert len(totals) == 4
        for t in totals:
            assert abs(t - 300_000) / 300_000 < 0.02
        assert (max(totals) - min(totals)) / min(totals) < 0.02

    def test_maxpool_vs_sconv_within_half_pct(self, presets):
        (_, a), (_, b) = presets["maxpool-vs-sconv"].arms
        ta, tb = total(a), total(b)
        assert abs(ta - tb) / ta < 0.005
        assert abs(ta - 360_000) / 360_000 < 0.02

    def test_equal_budget_presets_hold_2pct(self, presets):
        for name, preset in presets.items():
            if not preset.equal_budget:
                continue
            totals = [total(spec) for _, spec in preset.arms]
            assert (max(totals) - min(totals)) / min(totals) < 0.02, name

    def test_pool_placement_arms_identical_params(self, presets):
        totals = [total(spec) for _, spec in presets["pool-placement"].arms]
        assert len(set(totals)) == 1

    def test_kernel_size_budget_pairs(self, presets):
        by_name = dict(presets["kernel-size"].arms)
        assert abs(total(by_name["3x3-300k"]) - 300_000) / 300_000 < 0.02
        assert abs(total(by_name["7x7-1.6m"]) - 1_600_000) / 1_600_000 < 0.02

    def test_sconv_arm_swaps_pools(self, presets):
        by_name = dict(presets["maxpool-vs-sconv"].arms)
        assert sum(1 for ls in by_name["maxpool"].flat_layers() if ls.kind == "maxpool") == 2
        assert sum(1 for ls in by_name["sconv"].flat_layers() if ls.kind == "sconv") == 2
        assert all(ls.kind != "maxpool" for ls in by_name["sconv"].flat_layers())
        # layer and checkpoint tensor names the two downsampling keywords build
        sconv_state = {name for name, _ in A.build(by_name["sconv"]).state_tensors()}
        assert {"sconv1.weight", "sconv1.bias"} <= sconv_state
        mp_names = [layer.name for layer in A.build(by_name["maxpool"]).layers]
        assert [n for n in mp_names if n.startswith("pool")] == ["pool1", "pool2"]

    @pytest.mark.parametrize("input_shape", list(PRESET_RENDER_SHA256))
    def test_preset_specs_are_pinned(self, input_shape):
        arms = [spec for preset in A.ablation_presets(input_shape=input_shape).values() for _, spec in preset.arms]
        got = {spec.name: hashlib.sha256(A.render(spec).encode()).hexdigest() for spec in arms}
        assert got == PRESET_RENDER_SHA256[input_shape]

    def test_other_input_shapes_have_no_arms(self):
        with pytest.raises(ValueError, match="no ablation arms are frozen for input shape 3x28x28; frozen: 3x32x32, 1x28x28"):
            A.ablation_presets(input_shape=(3, 28, 28))

    def test_presets_adapt_to_input_shape(self):
        mnist = A.ablation_presets(input_shape=(1, 28, 28))
        (_, a), (_, b) = mnist["maxpool-vs-sconv"].arms
        assert a.input_shape == (1, 28, 28)
        ta, tb = total(a), total(b)
        assert abs(ta - tb) / ta < 0.005


class TestBuilderPresets:
    def test_files_load_and_budgets_land(self):
        presets = A.builder_presets()
        assert set(presets) == {"simpnet-tiny", "simpnet-300k", "simpnet-600k", "simpnet-5m"}
        targets = {
            "simpnet-tiny": 100_000,
            "simpnet-300k": 300_000,
            "simpnet-600k": 600_000,
            "simpnet-5m": 5_480_000,
        }
        for name, target in targets.items():
            t = total(presets[name])
            assert abs(t - target) / target < 0.02, name

    @pytest.mark.parametrize("name", sorted(A.builder_presets()))
    def test_thirteen_convs_pool_after_5_and_10(self, name):
        flat = A.builder_presets()[name].flat_layers()
        conv_positions = [i for i, ls in enumerate(flat) if ls.kind == "conv"]
        assert len(conv_positions) == 13
        pools = [i for i, ls in enumerate(flat) if ls.kind == "safpool"]
        assert len(pools) == 2
        convs_before = [sum(1 for j in conv_positions if j < p) for p in pools]
        assert convs_before == [5, 10]

    def test_tiny_is_mnist_shaped_13_convs(self):
        tiny = A.builder_presets()["simpnet-tiny"]
        assert tiny.input_shape == (1, 28, 28)
        assert sum(1 for ls in tiny.flat_layers() if ls.kind == "conv") == 13
