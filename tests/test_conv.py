"""Convolution against a naive nested-loop oracle and finite differences.

The oracles below are written first and kept deliberately dumb: seven
plain loops, no slicing tricks, no matmul. The implementation must agree
with them to 1e-12 in float64, forward and backward.
"""

import tracemalloc

import numpy as np
import pytest

from conftest import fd_grad, rel_err
from simpnet import layers as L
from simpnet.errors import ShapeError
from simpnet.rng import SplitRng


def conv2d_backward(x, w, stride, pad, g):
    """Gradients wrt (x, w, b) from the kernel Conv2d.backward calls, on an unpadded input."""
    return L._conv2d_backward(L._pad_nhwc(x, pad), w, stride, pad, g)


def naive_conv2d(x, w, b, stride=1, pad=0):
    n, c, h, wd = x.shape
    co, ci, k, _ = w.shape
    assert c == ci
    xp = np.zeros((n, c, h + 2 * pad, wd + 2 * pad), dtype=x.dtype)
    xp[:, :, pad : pad + h, pad : pad + wd] = x
    oh = (h + 2 * pad - k) // stride + 1
    ow = (wd + 2 * pad - k) // stride + 1
    y = np.zeros((n, co, oh, ow), dtype=x.dtype)
    for i in range(n):
        for o in range(co):
            for oy in range(oh):
                for ox in range(ow):
                    acc = 0.0
                    for j in range(ci):
                        for dy in range(k):
                            for dx in range(k):
                                acc += xp[i, j, oy * stride + dy, ox * stride + dx] * w[o, j, dy, dx]
                    y[i, o, oy, ox] = acc + b[o]
    return y


def naive_conv2d_backward(x, w, stride, pad, g):
    n, c, h, wd = x.shape
    co, ci, k, _ = w.shape
    xp = np.zeros((n, c, h + 2 * pad, wd + 2 * pad), dtype=x.dtype)
    xp[:, :, pad : pad + h, pad : pad + wd] = x
    gxp = np.zeros_like(xp)
    gw = np.zeros_like(w)
    gb = np.zeros(co, dtype=g.dtype)
    _, _, oh, ow = g.shape
    for i in range(n):
        for o in range(co):
            for oy in range(oh):
                for ox in range(ow):
                    go = g[i, o, oy, ox]
                    gb[o] += go
                    for j in range(ci):
                        for dy in range(k):
                            for dx in range(k):
                                iy, ix = oy * stride + dy, ox * stride + dx
                                gw[o, j, dy, dx] += go * xp[i, j, iy, ix]
                                gxp[i, j, iy, ix] += go * w[o, j, dy, dx]
    return gxp[:, :, pad : pad + h, pad : pad + wd], gw, gb


class TestForwardHandCases:
    def test_ramp_2x2_kernel(self):
        x = np.arange(1, 10, dtype=np.float64).reshape(1, 1, 3, 3)
        y = L.conv2d_forward(x, np.ones((1, 1, 2, 2)), np.zeros(1))
        assert np.array_equal(y[0, 0], [[12, 16], [24, 28]])

    def test_ramp_3x3_padded_center(self):
        x = np.arange(1, 10, dtype=np.float64).reshape(1, 1, 3, 3)
        y = L.conv2d_forward(x, np.ones((1, 1, 3, 3)), np.zeros(1), stride=1, pad=1)
        assert y.shape == (1, 1, 3, 3)
        assert y[0, 0, 1, 1] == 45

    def test_bias_added(self):
        x = np.zeros((1, 2, 3, 3))
        y = L.conv2d_forward(x, np.zeros((3, 2, 2, 2)), np.array([1.0, 2.0, 3.0]))
        assert np.array_equal(np.unique(y[0, 0]), [1.0])
        assert np.array_equal(np.unique(y[0, 2]), [3.0])

    def test_channel_mismatch(self):
        with pytest.raises(ShapeError):
            L.conv2d_forward(np.zeros((1, 2, 4, 4)), np.zeros((1, 3, 3, 3)), np.zeros(1))

    def test_kernel_too_large(self):
        with pytest.raises(ShapeError):
            L.conv2d_forward(np.zeros((1, 1, 2, 2)), np.zeros((1, 1, 3, 3)), np.zeros(1))


class TestForwardOracle:
    def test_matches_naive_over_random_instances(self):
        rng = SplitRng(1234)
        for i in range(60):
            r = rng.split(i)
            n = int(r.integers(1, 2)[0]) + 1
            c = int(r.integers(1, 4)[0]) + 1
            k = [1, 2, 3, 5, 7][int(r.integers(1, 5)[0])]
            h = int(r.integers(1, 6)[0]) + max(4, k)
            wd = int(r.integers(1, 6)[0]) + max(4, k)
            co = int(r.integers(1, 4)[0]) + 1
            stride = int(r.integers(1, 2)[0]) + 1
            pad = int(r.integers(1, 2)[0])
            x = r.uniform((n, c, h, wd), -1, 1)
            w = r.uniform((co, c, k, k), -1, 1)
            b = r.uniform(co, -1, 1)
            got = L.conv2d_forward(x, w, b, stride, pad)
            want = naive_conv2d(x, w, b, stride, pad)
            assert np.abs(got - want).max() <= 1e-12

    def test_output_shape_formula(self):
        x = np.zeros((1, 1, 4, 4))
        y = L.conv2d_forward(x, np.zeros((1, 1, 2, 2)), np.zeros(1), stride=2, pad=0)
        assert y.shape[2] == (4 - 2) // 2 + 1 == 2


class TestStridedDown:
    def test_ramp_hand_case(self):
        x = np.arange(1, 17, dtype=np.float64).reshape(1, 1, 4, 4)
        y = L.conv2d_forward(x, np.ones((1, 1, 2, 2)), np.zeros(1), stride=2, pad=0)
        assert np.array_equal(y[0, 0], [[14, 22], [46, 54]])

    def test_gradcheck(self):
        rng = SplitRng(7)
        x = rng.uniform((1, 2, 6, 6), -1, 1)
        w = rng.uniform((3, 2, 2, 2), -1, 1)
        b = rng.uniform(3, -1, 1)
        r = rng.uniform((1, 3, 3, 3), -1, 1)

        def loss():
            return float((L.conv2d_forward(x, w, b, stride=2, pad=0) * r).sum())

        gx, gw, gb = conv2d_backward(x, w, 2, 0, r)
        assert rel_err(gx, fd_grad(loss, x)) < 1e-6
        assert rel_err(gw, fd_grad(loss, w)) < 1e-6
        assert rel_err(gb, fd_grad(loss, b)) < 1e-6


class TestBackward:
    def test_grad_bias_counts_positions(self):
        x = np.arange(1, 10, dtype=np.float64).reshape(1, 1, 3, 3)
        w = np.ones((1, 1, 2, 2))
        g = np.ones((1, 1, 2, 2))
        _, _, gb = conv2d_backward(x, w, 1, 0, g)
        assert gb.tolist() == [4.0]

    def test_grad_weight_hand_case(self):
        x = np.arange(1, 10, dtype=np.float64).reshape(1, 1, 3, 3)
        w = np.ones((1, 1, 2, 2))
        g = np.ones((1, 1, 2, 2))
        _, gw, _ = conv2d_backward(x, w, 1, 0, g)
        assert np.array_equal(gw[0, 0], [[12, 16], [24, 28]])

    def test_grad_out_shape_checked(self):
        x = np.zeros((1, 1, 4, 4))
        w = np.zeros((1, 1, 2, 2))
        with pytest.raises(ShapeError):
            conv2d_backward(x, w, 1, 0, np.zeros((1, 1, 2, 2)))

    def test_finite_differences_random(self):
        rng = SplitRng(99)
        for i in range(5):
            r = rng.split(i)
            stride = int(r.integers(1, 2)[0]) + 1
            pad = int(r.integers(1, 2)[0])
            x = r.uniform((2, 3, 5, 5), -1, 1)
            w = r.uniform((4, 3, 3, 3), -1, 1)
            b = r.uniform(4, -1, 1)
            g = r.uniform(L.conv2d_forward(x, w, b, stride, pad).shape, -1, 1)

            def loss():
                return float((L.conv2d_forward(x, w, b, stride, pad) * g).sum())

            gx, gw, gb = conv2d_backward(x, w, stride, pad, g)
            assert rel_err(gx, fd_grad(loss, x)) < 1e-6
            assert rel_err(gw, fd_grad(loss, w)) < 1e-6
            assert rel_err(gb, fd_grad(loss, b)) < 1e-6


class TestBackwardOracle:
    CASES = [(k, s, p) for k in (1, 2, 3, 5, 7) for s in (1, 2) for p in (0, 1)]

    @staticmethod
    def instance(k, stride, pad):
        r = SplitRng(4321).split(k, stride, pad)
        h = int(r.integers(1, 4)[0]) + k
        wd = int(r.integers(1, 4)[0]) + k
        x = r.uniform((2, 3, h, wd), -1, 1)
        w = r.uniform((4, 3, k, k), -1, 1)
        b = r.uniform(4, -1, 1)
        g = r.uniform(naive_conv2d(x, w, b, stride, pad).shape, -1, 1)
        return x, w, b, g

    @pytest.mark.parametrize("k,stride,pad", CASES)
    def test_function_matches_naive(self, k, stride, pad):
        x, w, _, g = self.instance(k, stride, pad)
        got = conv2d_backward(x, w, stride, pad, g)
        want = naive_conv2d_backward(x, w, stride, pad, g)
        for a, e in zip(got, want):
            assert a.shape == e.shape
            assert np.abs(a - e).max() <= 1e-12

    @pytest.mark.parametrize("k,stride,pad", CASES)
    def test_layer_matches_naive(self, k, stride, pad):
        # the layer's backward reads the padded input cached by its forward
        x, w, b, g = self.instance(k, stride, pad)
        conv = L.Conv2d("conv", 3, 4, k, stride, pad)
        conv.init_params(SplitRng(0), np.float64)
        conv.weight[...] = w
        conv.bias[...] = b
        y, xp = conv.forward(x)
        assert np.abs(y - naive_conv2d(x, w, b, stride, pad)).max() <= 1e-12
        gx, (gw, gb) = conv.backward(xp, g)
        want_gx, want_gw, want_gb = naive_conv2d_backward(x, w, stride, pad, g)
        assert np.abs(gx - want_gx).max() <= 1e-12
        assert np.abs(gw - want_gw).max() <= 1e-12
        assert np.abs(gb - want_gb).max() <= 1e-12


class TestChunkedOracle:
    """Conv lowers whole-image chunks of the batch into one reused buffer.
    These cases reach what one-image batches do not: chunks of several
    images, a short last chunk, one input channel, and a stride that
    leaves the last input rows and columns out of every window."""

    CASES = {
        # (n, c_in, h, w, c_out, k, stride, pad)
        "multi-image chunks": (2 * 3 * 3 + 1, 4, 5, 5, 1, 3, 1, 1),
        "one input channel": (3, 1, 7, 6, 4, 3, 1, 1),
        "stride 2, odd span": (2, 3, 8, 10, 4, 3, 2, 0),
    }

    @pytest.fixture(autouse=True)
    def small_lowering_buffer(self, monkeypatch):
        # three images of the first case's forward windows (5*5 windows of 3*3*4 float64s),
        # so these small batches split into chunks as a training batch does
        monkeypatch.setattr(L, "LOWERING_BYTES", 3 * 5 * 5 * 3 * 3 * 4 * 8)

    @staticmethod
    def instance(name):
        n, c_in, h, wd, c_out, k, stride, pad = TestChunkedOracle.CASES[name]
        r = SplitRng(2468).split(len(name))
        x = r.uniform((n, c_in, h, wd), -1, 1)
        w = r.uniform((c_out, c_in, k, k), -1, 1)
        b = r.uniform(c_out, -1, 1)
        g = r.uniform(naive_conv2d(x, w, b, stride, pad).shape, -1, 1)
        return x, w, b, g, stride, pad

    @pytest.mark.parametrize("name", CASES)
    def test_function_matches_naive(self, name):
        x, w, b, g, stride, pad = self.instance(name)
        assert np.abs(L.conv2d_forward(x, w, b, stride, pad) - naive_conv2d(x, w, b, stride, pad)).max() <= 1e-12
        for a, e in zip(conv2d_backward(x, w, stride, pad, g), naive_conv2d_backward(x, w, stride, pad, g)):
            assert a.shape == e.shape
            assert np.abs(a - e).max() <= 1e-12

    @pytest.mark.parametrize("name", CASES)
    def test_layer_matches_naive(self, name):
        x, w, b, g, stride, pad = self.instance(name)
        conv = L.Conv2d("conv", w.shape[1], w.shape[0], w.shape[2], stride, pad)
        conv.init_params(SplitRng(0), np.float64)
        conv.weight[...] = w
        conv.bias[...] = b
        y, xp = conv.forward(x)
        assert np.abs(y - naive_conv2d(x, w, b, stride, pad)).max() <= 1e-12
        gx, (gw, gb) = conv.backward(xp, g)
        want_gx, want_gw, want_gb = naive_conv2d_backward(x, w, stride, pad, g)
        assert np.abs(gx - want_gx).max() <= 1e-12
        assert np.abs(gw - want_gw).max() <= 1e-12
        assert np.abs(gb - want_gb).max() <= 1e-12

    def test_cases_reach_short_multi_image_chunks(self, monkeypatch):
        chunks = []  # (images lowered, images the buffer holds)
        lower = L._lower

        def spy(windows, buf):
            chunks.append((len(windows), len(buf)))
            return lower(windows, buf)

        monkeypatch.setattr(L, "_lower", spy)
        x, w, b, g, stride, pad = self.instance("multi-image chunks")
        L.conv2d_forward(x, w, b, stride, pad)
        conv2d_backward(x, w, stride, pad, g)
        assert any(m > 1 for m, _ in chunks)
        assert any(m < cap for m, cap in chunks)

    def test_uncovered_rows_and_columns_get_no_gradient(self):
        x, w, _, g, stride, pad = self.instance("stride 2, odd span")
        gx = conv2d_backward(x, w, stride, pad, g)[0]
        assert not gx[:, :, -1].any() and not gx[:, :, :, -1].any()
        assert gx[:, :, -2, :-1].all() and gx[:, :, :-1, -2].all()


class TestScratchMemory:
    """Beyond what it returns, a conv pass allocates at most the larger of
    its padded input and its output: lowering goes through one buffer of
    a few images, never a patch matrix of the whole batch."""

    @staticmethod
    def traced_peak(fn):
        tracemalloc.start()
        try:
            return fn(), tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    @pytest.mark.parametrize("n,c_in,size,c_out", [(128, 23, 32, 23), (128, 1, 28, 13)])
    def test_scratch_within_one_activation(self, n, c_in, size, c_out):
        r = SplitRng(1357)
        conv = L.Conv2d("conv", c_in, c_out, 3, 1, 1)
        conv.init_params(r.split(0), np.float32)
        x = r.uniform((n, c_in, size, size), -1, 1).astype(np.float32)
        # NHWC in memory, as a conv receives its gradient
        g = r.uniform((n, size, size, c_out), -1, 1).astype(np.float32).transpose(0, 3, 1, 2)
        (y, xp), peak = self.traced_peak(lambda: conv.forward(x))
        limit = max(xp.nbytes, y.nbytes)
        assert peak - y.nbytes - xp.nbytes <= limit
        (gx, _), peak = self.traced_peak(lambda: conv.backward(xp, g))
        assert peak - gx.nbytes <= limit
