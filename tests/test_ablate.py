import pytest

from conftest import load_script, memory_dataset
from simpnet import train as T
from simpnet.archdsl import Preset
from simpnet.errors import IsolationError


def tiny_arm(widths, downsample):
    conv_stack = load_script("gen_presets").conv_stack
    return conv_stack(widths, (2,), input_shape=(1, 8, 8), conv_dropout_p=0.0, downsample=downsample)


class TestBudgetGuard:
    def test_equal_budget_preset_passes(self):
        a = tiny_arm([4, 4, 6], "maxpool")
        b = tiny_arm([4, 4, 6], "safpool")
        preset = Preset("p", (("a", a), ("b", b)), True, "")
        totals = T.check_budgets(preset)
        assert totals["a"] == totals["b"]

    def test_mismatched_budget_refused(self):
        a = tiny_arm([4, 4, 6], "maxpool")
        b = tiny_arm([8, 8, 12], "maxpool")
        preset = Preset("p", (("a", a), ("b", b)), True, "")
        with pytest.raises(IsolationError, match="isolation"):
            T.check_budgets(preset)

    def test_unequal_budget_presets_not_enforced(self):
        a = tiny_arm([4, 4, 6], "maxpool")
        b = tiny_arm([8, 8, 12], "maxpool")
        preset = Preset("p", (("a", a), ("b", b)), False, "budgets differ by design")
        totals = T.check_budgets(preset)
        assert totals["a"] != totals["b"]


@pytest.fixture(scope="module")
def result():
    # 28x28 single-channel data so the real presets build for it
    train = memory_dataset(n=48, shape=(1, 28, 28), classes=10, seed=21)
    test = memory_dataset(n=32, shape=(1, 28, 28), classes=10, seed=22)
    cfg = T.TrainConfig(epochs=1, batch_size=16, lr=0.05, seed=5, weight_decay=0.0)
    return T.ablate("maxpool-vs-sconv", train, test, cfg, subset=32)


class TestAblateRun:
    def test_two_arms_three_seeds(self, result):
        assert [a.arm for a in result.arms] == ["maxpool", "sconv"]
        for arm in result.arms:
            assert [s for s, _ in arm.seed_top1] == [5, 6, 7]

    def test_table_structure(self, result):
        table = result.table()
        assert "maxpool" in table and "sconv" in table
        assert "mean top1" in table

    def test_table_includes_per_arm_audit(self, result):
        table = result.table()
        assert "audit maxpool:" in table and "audit sconv:" in table
        assert "macs" in table

    def test_records_format(self, result):
        lines = result.records().strip().splitlines()
        assert len(lines) == 6  # 2 arms x 3 seeds
        for line in lines:
            fields = line.split("\t")
            assert len(fields) == 6
            float(fields[3])

    def test_dead_fraction_reported(self, result):
        for arm in result.arms:
            assert 0.0 <= arm.dead_fraction <= 1.0

    @pytest.mark.parametrize(
        "shape, classes, message",
        [((1, 8, 8), 10, "no ablation arms are frozen for input shape 1x8x8"), ((1, 28, 28), 4, "4 classes")],
        ids=["shape", "classes"],
    )
    def test_data_without_frozen_arms_is_refused(self, shape, classes, message):
        train = memory_dataset(n=16, shape=shape, classes=classes)
        with pytest.raises(ValueError, match=message):
            T.ablate("maxpool-vs-sconv", train, train, T.TrainConfig(epochs=1, batch_size=8))

    def test_unknown_preset_lists_valid_names(self):
        train = memory_dataset(n=16, shape=(1, 28, 28), classes=10)
        cfg = T.TrainConfig(epochs=1, batch_size=8)
        with pytest.raises(KeyError, match="maxpool-vs-sconv"):
            T.ablate("nope", train, train, cfg)
