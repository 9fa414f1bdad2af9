import numpy as np
import pytest

from simpnet import gradcheck as gc
from simpnet import layers as L
from simpnet.rng import SplitRng


class TestSuite:
    def test_layer_filter(self):
        results = gc.run_suite(layers=["conv"], seed=1, instances=2)
        assert [r.layer for r in results] == ["conv"]

    def test_unknown_layer_rejected(self):
        with pytest.raises(KeyError, match="valid"):
            gc.run_suite(layers=["transformer"], instances=1)

    def test_quick_pass_over_all_cases(self):
        results = gc.run_suite(seed=3, instances=2)
        assert {r.layer for r in results} == set(gc.CASES)
        for r in results:
            assert r.ok, f"{r.layer}: worst {r.worst}"

    def test_broken_backward_detected_and_named(self):
        def broken(rng):
            return 0.5  # way over tolerance

        registry = dict(gc.CASES, broken_layer=broken)
        results = gc.run_suite(layers=["broken_layer"], registry=registry, instances=3)
        assert len(results) == 1
        r = results[0]
        assert not r.ok
        assert r.layer == "broken_layer"
        assert r.failed_seed == 0
        assert "FAIL" in gc.render_results(results)

    def test_toy_model_trains_through_a_relu_dropout_unit(self):
        model = gc._toy_model(SplitRng(0))
        assert ["relu1", "drop1"] in [[l.name for l in layers] for _, layers, _ in model.train_units]

    def test_render_table_lists_every_layer(self):
        results = gc.run_suite(seed=5, instances=1)
        text = gc.render_results(results)
        for name in gc.CASES:
            assert name in text


class TestNumericHelpers:
    def test_numeric_grad_on_quadratic(self):
        x = np.array([1.0, -2.0, 3.0])

        def f():
            return float((x**2).sum())

        g = gc.numeric_grad(f, x)
        assert np.allclose(g, 2 * x, atol=1e-6)

    def test_rel_error_floor_handles_zero_grads(self):
        a = np.array([1e-16])
        b = np.array([4e-11])
        assert gc.rel_error(a, b) < 1e-6

    def test_rel_error_catches_real_mistakes(self):
        a = np.array([1.0, 2.0])
        b = np.array([1.0, 2.5])
        assert gc.rel_error(a, b) > 0.1


def _scaled(fn, index):
    """fn with one returned gradient (the whole result when index is None)
    multiplied by 1.5; a gradient given as a list of slices is scaled in each slice."""

    def scale(grad):
        return [g * 1.5 for g in grad] if isinstance(grad, list) else grad * 1.5

    def mutant(*args, **kwargs):
        out = fn(*args, **kwargs)
        if index is None:
            return scale(out)
        out = list(out)
        out[index] = scale(out[index])
        return tuple(out)

    return mutant


# (case, simpnet.layers backward function the case reaches, returned gradient)
MUTANTS = (
    [(case, "_conv2d_backward", i) for case in ("conv", "sconv") for i in range(3)]
    + [("dense", "dense_backward", i) for i in range(3)]
    + [("batchnorm", "batchnorm_train_backward", i) for i in range(3)]
    + [
        ("relu", "relu_backward", None),
        ("maxpool", "maxpool_backward", None),
        # SafPool.backward is dropout_backward then maxpool_backward
        ("safpool", "maxpool_backward", None),
        ("safpool", "dropout_backward", None),
        ("dropout", "dropout_backward", None),
        ("gap", "global_avgpool_backward", None),
        ("softmax_xent", "softmax_xent", 1),
        ("model", "dense_backward", 1),
        ("model", "_conv2d_backward", 1),
        ("model", "dropout_backward", None),
        ("model", "batchnorm_train_backward", 0),
    ]
)


class TestMutants:
    def test_every_case_has_a_mutant(self):
        assert {case for case, _, _ in MUTANTS} == set(gc.CASES)

    @pytest.mark.parametrize("case,fn,index", MUTANTS)
    def test_scaled_gradient_fails_its_case(self, monkeypatch, case, fn, index):
        monkeypatch.setattr(L, fn, _scaled(getattr(L, fn), index))
        (result,) = gc.run_suite(layers=[case], instances=2)
        assert not result.ok, f"{case} missed a 1.5x {fn} output {index}"
