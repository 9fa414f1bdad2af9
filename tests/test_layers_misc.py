import math

import numpy as np
import pytest

from conftest import fd_grad, rel_err
from simpnet import layers as L
from simpnet import train as T
from simpnet.errors import ShapeError
from simpnet.network import Model
from simpnet.rng import SplitRng


class TestReLU:
    def test_forward_definition(self):
        x = np.array([-1.0, 0.0, 2.0])
        assert L.relu_forward(x).tolist() == [0.0, 0.0, 2.0]

    def test_backward_subgradient_zero_at_zero(self):
        x = np.array([-1.0, 0.0, 2.0])
        g = np.array([1.0, 1.0, 1.0])
        assert L.relu_backward(x, g).tolist() == [0.0, 0.0, 1.0]

    def test_gradcheck_away_from_zero(self):
        rng = SplitRng(31)
        mag = rng.uniform((2, 3, 4, 4), 0.1, 1.0)
        sign = np.where(rng.coin(mag.shape, 0.5), 1.0, -1.0)
        x = mag * sign
        r = rng.uniform(x.shape, -1, 1)

        def loss():
            return float((L.relu_forward(x) * r).sum())

        assert rel_err(L.relu_backward(x, r), fd_grad(loss, x)) < 1e-6


def bn_layer(gamma, beta, running_mean=None, running_var=None):
    """A batch norm holding these arrays themselves; running stats 0 and 1 by default."""
    bn = L.BatchNorm("bn1", len(gamma))
    bn.gamma, bn.beta = gamma, beta
    bn.running_mean = np.zeros_like(gamma) if running_mean is None else running_mean
    bn.running_var = np.ones_like(gamma) if running_var is None else running_var
    return bn


def bn_train(x, bn):
    """(y, cache) of batch norm's train forward of the one slice x, by the layer's slice method."""
    (y,), (cache,) = bn.forward_slices([x], [lambda: None])
    return y, cache


def bn_backward(g, cache):
    """(grad_x, grad_gamma, grad_beta) of the one slice g, by the layer's slice method."""
    (gx,), (gg, gb) = L.BatchNorm("bn1", g.shape[1]).backward_slices([cache], [g])
    return gx, gg, gb


class TestBatchNorm:
    def _layer(self, c, gamma=None, beta=None):
        return bn_layer(
            np.ones(c) if gamma is None else np.asarray(gamma, dtype=np.float64),
            np.zeros(c) if beta is None else np.asarray(beta, dtype=np.float64),
        )

    def test_two_point_normalization(self):
        x = np.array([1.0, 3.0]).reshape(2, 1, 1, 1)
        y, _ = bn_train(x, self._layer(1))
        expect = 1.0 / math.sqrt(1.0 + 1e-5)
        assert np.allclose(y.ravel(), [-expect, expect], atol=1e-12)

    def test_constant_channel_shifted_by_beta(self):
        x = np.full((2, 1, 2, 2), 5.0)
        y, _ = bn_train(x, self._layer(1, beta=[7.0]))
        assert np.allclose(y, 7.0, atol=1e-6)

    def test_train_requires_two_samples(self):
        x = np.zeros((1, 2, 1, 1))
        with pytest.raises(ValueError):
            bn_train(x, self._layer(2))

    def test_running_stats_updated_in_train_only(self):
        rng = SplitRng(41)
        x = rng.uniform((4, 2, 3, 3), 1.0, 3.0)
        bn = self._layer(2)
        bn_train(x, bn)
        assert not np.allclose(bn.running_mean, 0.0)
        mean_after = bn.running_mean.copy()
        var_after = bn.running_var.copy()
        bn.eval(x)
        assert np.array_equal(bn.running_mean, mean_after)
        assert np.array_equal(bn.running_var, var_after)

    def test_running_average_formula(self):
        x = np.array([1.0, 3.0]).reshape(2, 1, 1, 1)
        bn = self._layer(1)
        bn_train(x, bn)
        # biased var = 1, unbiased = 2; momentum 0.1 from (0, 1) start
        assert np.allclose(bn.running_mean, [0.2])
        assert np.allclose(bn.running_var, [0.9 * 1.0 + 0.1 * 2.0])

    def test_eval_uses_running_stats(self):
        bn = self._layer(1)
        bn.running_mean[:] = 2.0
        bn.running_var[:] = 4.0
        x = np.full((1, 1, 1, 2), 4.0)
        y = bn.eval(x)
        assert np.allclose(y, (4.0 - 2.0) / math.sqrt(4.0 + 1e-5))

    def test_gradcheck_x_gamma_beta(self):
        rng = SplitRng(42)
        x = rng.uniform((4, 3, 5, 5), -1, 1)
        gamma = rng.uniform(3, 0.5, 1.5)
        beta = rng.uniform(3, -0.5, 0.5)
        r = rng.uniform(x.shape, -1, 1)

        def loss():
            y, _ = bn_train(x, bn_layer(gamma, beta))
            return float((y * r).sum())

        _, cache = bn_train(x, bn_layer(gamma, beta))
        gx, gg, gb = bn_backward(r, cache)
        assert rel_err(gx, fd_grad(loss, x)) < 1e-5
        assert rel_err(gg, fd_grad(loss, gamma)) < 1e-5
        assert rel_err(gb, fd_grad(loss, beta)) < 1e-5

    @staticmethod
    def _expanded_grad_x(x, gamma, g, eps=1e-5):
        """Reference: grad_x through explicit dvar and dmean terms."""
        axes, m = (0, 2, 3), x.size // x.shape[1]
        xc = x - x.mean(axis=axes)[None, :, None, None]
        inv = 1.0 / np.sqrt(np.mean(xc**2, axis=axes) + eps)
        dxhat = g * gamma[None, :, None, None]
        dvar = (dxhat * xc).sum(axis=axes) * -0.5 * inv**3
        dmean = -(dxhat * inv[None, :, None, None]).sum(axis=axes) + dvar * (-2.0 / m) * xc.sum(axis=axes)
        return (
            dxhat * inv[None, :, None, None]
            + dvar[None, :, None, None] * 2.0 * xc / m
            + dmean[None, :, None, None] / m
        )

    @pytest.mark.parametrize("shape", [(2, 3, 1, 1), (1, 2, 1, 2), (4, 3, 5, 5), (3, 5, 2, 7)])
    def test_backward_matches_expanded_formula(self, shape):
        rng = SplitRng(43)
        c = shape[1]
        x = rng.uniform(shape, -2, 2)
        gamma = rng.uniform(c, 0.5, 1.5)
        g = rng.uniform(shape, -1, 1)
        _, cache = bn_train(x, bn_layer(gamma, np.zeros(c)))
        gx, _, _ = bn_backward(g, cache)
        assert rel_err(gx, self._expanded_grad_x(x, gamma, g)) <= 1e-12

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_results_independent_of_input_layout(self, dtype):
        rng = SplitRng(45)
        x = rng.uniform((3, 5, 4, 6), -2, 2).astype(dtype)
        g = rng.uniform(x.shape, -1, 1).astype(dtype)
        gamma, beta = rng.uniform(5, 0.5, 1.5).astype(dtype), rng.uniform(5, -0.5, 0.5).astype(dtype)

        def nhwc_memory(a):
            return np.ascontiguousarray(a.transpose(0, 2, 3, 1)).transpose(0, 3, 1, 2)

        def run(x, g):
            bn = bn_layer(gamma.copy(), beta.copy())
            y, cache = bn_train(x, bn)
            y_eval = bn.eval(x)
            grads = bn_backward(g, cache)
            for a in (y, y_eval, grads[0]):
                assert a.transpose(0, 2, 3, 1).flags.c_contiguous
            return (y, bn.running_mean, bn.running_var, y_eval, *grads)

        for a, b in zip(run(x, g), run(nhwc_memory(x), nhwc_memory(g))):
            assert a.dtype == b.dtype == dtype
            assert a.tobytes() == b.tobytes()

    def test_float32_variance_of_offset_channels(self):
        # two-pass variance: E[x^2] - E[x]^2 in float32 loses the variance of
        # channels whose mean is large against their spread
        rng = SplitRng(46)
        offsets = rng.uniform((1, 8, 1, 1), -300, 300)
        x = (offsets + 0.5 * rng.normal((64, 8, 16, 16))).astype(np.float32)
        c = 8
        bn = bn_layer(np.ones(c, np.float32), np.zeros(c, np.float32), running_var=np.zeros(c, np.float32))
        bn_train(x, bn)
        x64 = x.astype(np.float64)
        m = x.size // c
        expect = L.BN_MOMENTUM * x64.var(axis=(0, 2, 3)) * (m / (m - 1))
        assert np.max(np.abs(bn.running_var - expect) / expect) <= 1e-4


class TestDropout:
    def test_p_zero_identity_both_modes(self):
        x = SplitRng(1).uniform((2, 3, 4, 4), -1, 1)
        layer = L.Dropout("dropout1", 0.0)
        y, mask = layer.forward(x)
        assert np.array_equal(y, x)
        assert mask is None
        assert L.dropout_backward(x, mask, 0.0) is x
        assert np.array_equal(layer.eval(x), x)

    def test_eval_identity_any_p(self):
        x = SplitRng(2).uniform((2, 3, 4, 4), -1, 1)
        assert np.array_equal(L.Dropout("dropout1", 0.7).eval(x), x)

    def test_inverted_scaling_preserves_mean(self):
        x = np.ones((1, 1, 100, 1000))  # 1e5 unit inputs
        for p in (0.25, 0.5):
            y, _ = L.Dropout("dropout1", p).forward(x, L.keep_mask(x.shape, p, SplitRng(33)))
            assert abs(y.mean() - 1.0) < 0.02

    def test_p_validated(self):
        with pytest.raises(ValueError):
            L.Dropout("dropout1", 1.0)

    @pytest.mark.parametrize("layer", [L.Dropout("dropout1", 0.3), L.SafPool("safpool1", 2, 0.3)], ids=["dropout", "safpool"])
    def test_train_forward_without_a_mask_raises(self, layer):
        with pytest.raises(ValueError, match="requires a keep mask"):
            layer.forward(np.ones((2, 3, 4, 4)))

    def test_backward_uses_same_mask(self):
        x = SplitRng(3).uniform((2, 2, 3, 3), -1, 1)
        y, mask = L.Dropout("dropout1", 0.4).forward(x, L.keep_mask(x.shape, 0.4, SplitRng(9)))
        g = np.ones_like(x)
        gx = L.dropout_backward(g, mask, 0.4)
        assert np.array_equal(gx != 0, y != 0)
        assert y.tobytes() == (x * mask / 0.6).tobytes() and gx.tobytes() == (g * mask / 0.6).tobytes()

    @pytest.mark.parametrize("shape", [(3, 4, 5, 6), (7, 9)])
    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_relu_dropout_is_relu_then_dropout_bit_for_bit(self, dtype, shape):
        rng = SplitRng(12)
        x = rng.uniform(shape, -1, 1).astype(dtype)
        x.flat[::7], x.flat[3::11], x.flat[5::13] = 0.0, -0.0, np.finfo(dtype).smallest_subnormal
        g = rng.uniform(shape, -1, 1).astype(dtype)
        g.flat[::5], g.flat[1::9] = -0.0, 0.0
        if x.ndim == 4:  # NHWC in memory, as conv outputs are
            x = np.ascontiguousarray(x.transpose(0, 2, 3, 1)).transpose(0, 3, 1, 2)
        y, keep = L.relu_dropout_forward(x, 0.3, L.keep_mask(x.shape, 0.3, SplitRng(4)))
        ref, mask = L.Dropout("dropout1", 0.3).forward(L.relu_forward(x), L.keep_mask(x.shape, 0.3, SplitRng(4)))
        assert y.dtype == dtype and y.tobytes() == ref.tobytes()
        assert keep.dtype == bool and np.array_equal(keep, (x > 0) & mask)
        # signed zeros included: every dropped or clipped element gets g's sign
        assert L.dropout_backward(g, keep, 0.3).tobytes() == L.relu_backward(x, L.dropout_backward(g, mask, 0.3)).tobytes()
        if x.ndim == 4:
            assert y.transpose(0, 2, 3, 1).flags.c_contiguous and keep.transpose(0, 2, 3, 1).flags.c_contiguous


class TestChannelsLast:
    def test_conv_block_output_stays_channels_last(self):
        # a mask drawn in NCHW order would turn the product back into NCHW memory
        # and make the next conv pay for transposing copies
        rng = SplitRng(8)
        layers = [
            L.Conv2d("conv1", 3, 5, 3, 1, 1),
            L.BatchNorm("bn1", 5),
            L.ReLU("relu1"),
            L.Dropout("dropout1", 0.2),
            L.SafPool("safpool1", 2, 0.2),
        ]
        y = rng.uniform((2, 3, 6, 8)).astype(np.float32)
        for i, layer in enumerate(layers):
            layer.init_params(rng.split(i), np.float32)
            dropping = isinstance(layer, (L.Dropout, L.SafPool))
            keep = L.keep_mask(layer.out_shape(y.shape), layer.p, rng.split(100 + i)) if dropping else None
            (y,), _ = layer.forward_slices([y], [lambda: keep])
            assert y.transpose(0, 2, 3, 1).flags.c_contiguous, layer.name

    def test_conv_block_input_gradients_stay_channels_last(self, monkeypatch):
        # a pool gradient in NCHW memory would make dropout, ReLU and BN
        # backward mix layouts and conv backward copy its gradient; the
        # relu -> dropout pair runs as one unit, whose backward is the dropout's
        rng = SplitRng(9)
        model = Model(
            [
                L.Conv2d("conv1", 3, 5, 3, 1, 1),
                L.BatchNorm("bn1", 5),
                L.ReLU("relu1"),
                L.Dropout("dropout1", 0.2),
                L.SafPool("safpool1", 2, 0.2),
            ],
            (3, 6, 8),
        ).init_params(rng.split(0), np.float32)
        grads = {}
        for layer in model.layers:

            def spy(cache, grad_out, backward=layer.backward, name=layer.name):
                out = backward(cache, grad_out)
                grads[name] = out[0]
                return out

            layer.backward = spy

        def bn_spy(grad_outs, caches, backward=L.batchnorm_train_backward):
            out = backward(grad_outs, caches)
            (grads["bn1"],) = out[0]  # batch norm runs its slices' backward together, one slice here
            return out

        monkeypatch.setattr(L, "batchnorm_train_backward", bn_spy)
        y = model.forward(rng.uniform((2, 3, 6, 8)).astype(np.float32), rng.split(1))
        model.backward(rng.uniform(y.shape, -1, 1).astype(np.float32))  # NCHW, as a dense layer returns it
        assert list(grads) == ["safpool1", "dropout1", "bn1", "conv1"]
        for name, g in grads.items():
            assert g.transpose(0, 2, 3, 1).flags.c_contiguous, name

    def test_gap_gradient_is_channels_last(self):
        g = L.global_avgpool_backward(np.arange(6.0).reshape(2, 3, 1, 1), (2, 3, 4, 5))
        assert g.transpose(0, 2, 3, 1).flags.c_contiguous
        assert np.array_equal(g, np.broadcast_to(np.arange(6.0).reshape(2, 3, 1, 1) / 20, (2, 3, 4, 5)))



@pytest.mark.parametrize(
    "make",
    [
        lambda: L.Conv2d("conv1", 3, 0, 3),
        lambda: L.Conv2d("conv1", 0, 8, 3),
        lambda: L.Conv2d("conv1", 3, 8, 3, stride=0),
        lambda: L.SafPool("pool1", 0),
        lambda: L.SafPool("pool1", 2, 0.1, stride=0),
        lambda: L.Dense("dense1", 4, 0),
        lambda: L.Dense("dense1", 0, 10),
    ],
    ids=["conv-out", "conv-in", "conv-stride", "pool-window", "pool-stride", "dense-units", "dense-in"],
)
def test_zero_sizes_and_strides_rejected_at_construction(make):
    with pytest.raises(ValueError, match=">= 1"):
        make()


class TestDense:
    def test_identity_weight(self):
        x = np.array([[1.0, 2.0]])
        w = np.eye(2)
        b = np.array([1.0, 1.0])
        assert L.dense_forward(x, w, b).tolist() == [[2.0, 3.0]]

    def test_shape_error(self):
        with pytest.raises(ShapeError):
            L.dense_forward(np.zeros((2, 3)), np.zeros((4, 5)), np.zeros(5))

    def test_gradcheck(self):
        rng = SplitRng(77)
        x = rng.uniform((4, 6), -1, 1)
        w = rng.uniform((6, 3), -1, 1)
        b = rng.uniform(3, -1, 1)
        r = rng.uniform((4, 3), -1, 1)

        def loss():
            return float((L.dense_forward(x, w, b) * r).sum())

        gx, gw, gb = L.dense_backward(x, w, r)
        assert rel_err(gx, fd_grad(loss, x)) < 1e-6
        assert rel_err(gw, fd_grad(loss, w)) < 1e-6
        assert rel_err(gb, fd_grad(loss, b)) < 1e-6


class TestSoftmaxXent:
    def test_uniform_two_class(self):
        loss, grad = L.softmax_xent(np.array([[0.0, 0.0]]), np.array([0]))
        assert abs(loss - math.log(2)) < 1e-12
        assert np.allclose(grad, [[-0.5, 0.5]])

    def test_stabilized_large_logits(self):
        loss, grad = L.softmax_xent(np.array([[1000.0, 0.0]]), np.array([0]))
        assert loss == pytest.approx(0.0, abs=1e-12)
        assert np.all(np.isfinite(grad))

    def test_label_out_of_range(self):
        with pytest.raises(ValueError):
            L.softmax_xent(np.zeros((1, 3)), np.array([3]))

    def test_batch_mean_and_gradcheck(self):
        rng = SplitRng(55)
        logits = rng.uniform((5, 7), -2, 2)
        labels = rng.integers(5, 7)

        def loss():
            return L.softmax_xent(logits, labels)[0]

        _, grad = L.softmax_xent(logits, labels)
        assert rel_err(grad, fd_grad(loss, logits)) < 1e-6


class TestActivationStats:
    """The dead-channel statistic of a post-ReLU batch, as the ablation reports it."""

    def test_all_zero(self):
        assert T.dead_channel_fraction(np.zeros((2, 4, 3, 3))) == 1.0

    def test_all_positive(self):
        assert T.dead_channel_fraction(np.full((2, 4, 3, 3), 0.5)) == 0.0

    def test_three_of_ten_channels_dead(self):
        x = np.ones((2, 10, 2, 2))
        x[:, [1, 4, 7]] = 0.0
        assert T.dead_channel_fraction(x) == pytest.approx(0.3)
