import tracemalloc

import numpy as np
import pytest

from conftest import fd_grad, rel_err, unflatten_offset
from simpnet import layers as L
from simpnet.errors import ShapeError
from simpnet.rng import SplitRng


def argmax_maxpool_forward(x, window, stride):
    """Oracle for maxpool_forward: the windows gathered channels-last, argmax over the window axis
    (its first maximum; a NaN beats a number, the first NaN stays) and the winners' values gathered
    by take_along_axis, with offsets into the input's channels-last memory."""
    n, c, h, w = x.shape
    oh, ow = (h - window) // stride + 1, (w - window) // stride + 1
    nhwc = x.transpose(0, 2, 3, 1)
    slabs = np.stack([nhwc[:, dy : dy + stride * oh : stride, dx : dx + stride * ow : stride]
                      for dy in range(window) for dx in range(window)])
    which = slabs.argmax(axis=0)
    pooled = np.take_along_axis(slabs, which[None], axis=0)[0]
    dy, dx = np.divmod(which, window)
    hh = np.arange(oh).reshape(oh, 1, 1) * stride + dy
    ww = np.arange(ow).reshape(ow, 1) * stride + dx
    offsets = ((np.arange(n).reshape(n, 1, 1, 1) * h + hh) * w + ww) * c + np.arange(c)
    return pooled.transpose(0, 3, 1, 2), offsets.transpose(0, 3, 1, 2)


POOL_EDGE_KINDS = ["ties", "nan", "inf", "zeros", "all-nan", "mixed"]


def pool_edge_input(kind, dtype, layout):
    """A (2, 3, 7, 6) input of few distinct values, so most windows hold ties, with the
    special values of `kind`: NaNs of several bit patterns, infinities, signed zeros,
    or whole windows of NaN."""
    r = SplitRng(POOL_EDGE_KINDS.index(kind))
    x = (r.integers(2 * 3 * 7 * 6, 4) - 1.0).astype(dtype)
    pick = r.integers(x.size, 3)
    nans = np.array([np.nan, -np.nan], dtype)
    nans = np.concatenate([nans, (nans.view(f"u{x.itemsize}") | 1).view(dtype)])  # other payloads
    if kind in ("nan", "mixed"):
        x[pick == 0] = nans[r.integers(int((pick == 0).sum()), 4)]
    if kind in ("inf", "mixed"):
        x[pick == 1] = np.where(r.coin(int((pick == 1).sum()), 0.5), np.inf, -np.inf)
    if kind in ("zeros", "mixed"):
        x[pick == 2] = np.where(r.coin(int((pick == 2).sum()), 0.5), 0.0, -0.0)
    x = x.reshape(2, 3, 7, 6)
    if kind == "all-nan":
        x[:, :, :4, :4] = nans[2]
        x[0, 1] = nans[1]
    if layout == "nhwc":
        x = np.ascontiguousarray(x.transpose(0, 2, 3, 1)).transpose(0, 3, 1, 2)
    return x


class TestMaxPoolForward:
    @pytest.mark.parametrize("kind", POOL_EDGE_KINDS)
    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("layout", ["nchw", "nhwc"])
    @pytest.mark.parametrize("stride", [1, 2, 3])
    @pytest.mark.parametrize("window", [1, 2, 3])
    def test_bit_identical_to_the_argmax_oracle(self, window, stride, layout, dtype, kind):
        x = pool_edge_input(kind, dtype, layout)
        y, offsets = L.maxpool_forward(x, window, stride)
        ref, ref_offsets = argmax_maxpool_forward(x, window, stride)
        assert y.dtype == ref.dtype and y.shape == ref.shape
        assert y.tobytes() == ref.tobytes()  # NaN payloads and signed zeros included
        assert offsets.tobytes() == ref_offsets.tobytes()
        assert y.transpose(0, 2, 3, 1).flags.c_contiguous and offsets.transpose(0, 2, 3, 1).flags.c_contiguous

    def test_single_window(self):
        x = np.array([[1.0, 2.0], [3.0, 4.0]]).reshape(1, 1, 2, 2)
        y, argmax = L.maxpool_forward(x)
        assert y.ravel().tolist() == [4.0]
        assert unflatten_offset((1, 1, 2, 2), int(argmax.ravel()[0])) == (0, 0, 1, 1)

    def test_tie_goes_to_first_in_scan_order(self):
        x = np.full((1, 1, 4, 4), 3.0)
        y, argmax = L.maxpool_forward(x)
        assert np.all(y == 3.0)
        # winner of each window is its top-left cell
        coords = [unflatten_offset(x.shape, int(o)) for o in argmax.ravel()]
        assert coords == [(0, 0, 0, 0), (0, 0, 0, 2), (0, 0, 2, 0), (0, 0, 2, 2)]

    def test_ramp(self):
        x = np.arange(1, 17, dtype=np.float64).reshape(1, 1, 4, 4)
        y, _ = L.maxpool_forward(x)
        assert np.array_equal(y[0, 0], [[6, 8], [14, 16]])

    def test_window_larger_than_input(self):
        with pytest.raises(ShapeError):
            L.maxpool_forward(np.zeros((1, 1, 1, 1)), window=2)
        x = np.zeros((1, 2, 2, 5))  # the window fits the width but not the height
        with pytest.raises(ShapeError):
            L.maxpool_forward(x, 3, 1)
        with pytest.raises(ShapeError):
            L.SafPool("pool1", 3, 0.0, 1).out_shape(x.shape)

    def test_never_exceeds_input_max(self):
        rng = SplitRng(3)
        for i in range(10):
            x = rng.split(i).uniform((2, 3, 6, 6), -5, 5)
            y, _ = L.maxpool_forward(x)
            assert y.max() <= x.max()

    def test_odd_size_floors(self):
        x = np.arange(25, dtype=np.float64).reshape(1, 1, 5, 5)
        y, _ = L.maxpool_forward(x)
        assert y.shape == (1, 1, 2, 2)


class TestMaxPoolValues:
    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("layout", ["nchw", "nhwc"])
    @pytest.mark.parametrize("stride", [1, 2, 3])
    @pytest.mark.parametrize("window", [1, 2, 3])
    def test_bit_identical_to_maxpool_forward(self, window, stride, layout, dtype):
        # few distinct values (zero and a negative among them), so most windows hold ties
        x = (SplitRng(window * 10 + stride).integers(2 * 3 * 7 * 6, 4) - 1.0).astype(dtype).reshape(2, 3, 7, 6)
        if layout == "nhwc":
            x = np.ascontiguousarray(x.transpose(0, 2, 3, 1)).transpose(0, 3, 1, 2)
        y = L.maxpool_values(x, window, stride)
        ref = L.maxpool_forward(x, window, stride)[0]
        assert y.dtype == ref.dtype and y.shape == ref.shape
        assert y.tobytes() == ref.tobytes()
        assert y.transpose(0, 2, 3, 1).flags.c_contiguous  # NHWC in memory

    def test_window_larger_than_input(self):
        with pytest.raises(ShapeError):
            L.maxpool_values(np.zeros((1, 2, 2, 5)), 3, 1)


class TestMaxPoolBackward:
    def test_routing_single_window(self):
        x = np.array([[1.0, 2.0], [3.0, 4.0]]).reshape(1, 1, 2, 2)
        _, argmax = L.maxpool_forward(x)
        gx = L.maxpool_backward(argmax, np.ones((1, 1, 1, 1)), x.shape)
        assert np.array_equal(gx[0, 0], [[0, 0], [0, 1]])

    def test_non_overlapping_one_winner_per_window(self):
        rng = SplitRng(5)
        x = rng.uniform((1, 2, 6, 6), -1, 1)
        _, argmax = L.maxpool_forward(x)
        gx = L.maxpool_backward(argmax, np.ones((1, 2, 3, 3)), x.shape)
        for j in range(2):
            for wy in range(3):
                for wx in range(3):
                    window = gx[0, j, 2 * wy : 2 * wy + 2, 2 * wx : 2 * wx + 2]
                    assert (window != 0).sum() == 1

    def test_finite_differences_at_untied_points(self):
        rng = SplitRng(11)
        size = 2 * 2 * 6 * 6
        x = (rng.permutation(size).astype(np.float64) / size).reshape(2, 2, 6, 6)
        _, argmax = L.maxpool_forward(x)
        r = rng.uniform((2, 2, 3, 3), -1, 1)

        def loss():
            return float((L.maxpool_forward(x)[0] * r).sum())

        gx = L.maxpool_backward(argmax, r, x.shape)
        assert rel_err(gx, fd_grad(loss, x)) < 1e-6

    def test_scatters_into_channels_last_memory_without_a_copy(self):
        r = SplitRng(2468)
        # NHWC in memory, as conv, BN, ReLU and dropout hand them over
        x = r.uniform((8, 32, 32, 23), -1, 1).astype(np.float32).transpose(0, 3, 1, 2)
        g = r.uniform((8, 16, 16, 23), -1, 1).astype(np.float32).transpose(0, 3, 1, 2)
        _, argmax = L.maxpool_forward(x)
        tracemalloc.start()
        try:
            gx = L.maxpool_backward(argmax, g, x.shape)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert gx.transpose(0, 2, 3, 1).flags.c_contiguous
        assert peak - gx.nbytes <= x.nbytes

    def test_reads_channels_last_offsets_and_gradient_as_views(self):
        # ravelled in (n, h, w, c) order, NHWC offsets and gradient need no copy
        r = SplitRng(2469)
        x = r.uniform((8, 32, 32, 23), -1, 1).astype(np.float32).transpose(0, 3, 1, 2)
        g = r.uniform((8, 16, 16, 23), -1, 1).astype(np.float32).transpose(0, 3, 1, 2)
        _, argmax = L.maxpool_forward(x)
        tracemalloc.start()
        try:
            gx = L.maxpool_backward(argmax, g, x.shape)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak - gx.nbytes <= 0.1 * x.nbytes

    @pytest.mark.parametrize("window,stride", [(2, 2), (3, 2)])
    def test_gradient_independent_of_gradient_layout(self, window, stride):
        r = SplitRng(2470)
        x = r.uniform((2, 3, 9, 9), -1, 1)
        _, argmax = L.maxpool_forward(x, window, stride)
        g = r.uniform((2, 3, 4, 4), -1, 1)
        g_nhwc = np.ascontiguousarray(g.transpose(0, 2, 3, 1)).transpose(0, 3, 1, 2)
        gx = L.maxpool_backward(argmax, g, x.shape)
        assert np.array_equal(gx, L.maxpool_backward(argmax, g_nhwc, x.shape))
        assert np.array_equal(gx, self._reference_backward(x, window, stride, g))

    @staticmethod
    def _reference_backward(x, window, stride, g):
        """Loop oracle: each output gradient to the first maximum of its window, in scan order."""
        gx = np.zeros_like(x)
        n, c, oh, ow = g.shape
        for i in range(n):
            for j in range(c):
                for a in range(oh):
                    for b in range(ow):
                        win = x[i, j, a * stride : a * stride + window, b * stride : b * stride + window]
                        dy, dx = np.unravel_index(np.argmax(win), win.shape)
                        gx[i, j, a * stride + dy, b * stride + dx] += g[i, j, a, b]
        return gx


class TestSafPool:
    def test_drop_zero_identical_to_maxpool_any_mode(self):
        rng = SplitRng(21)
        x = rng.uniform((2, 3, 6, 6), -1, 1)
        pooled, argmax = L.maxpool_forward(x)
        pool = L.SafPool("pool1", 2, 0.0)
        y, (_, mask, am) = pool.forward(x)
        assert np.array_equal(y, pooled)
        assert mask is None
        assert np.array_equal(am, argmax)
        assert np.array_equal(pool.eval(x), pooled)

    def test_eval_mode_identity_even_with_drop(self):
        rng = SplitRng(22)
        x = rng.uniform((2, 3, 6, 6), -1, 1)
        pooled, _ = L.maxpool_forward(x)
        assert np.array_equal(L.SafPool("safpool1", 2, 0.5).eval(x), pooled)

    def test_train_mode_drop_statistics_and_scale(self):
        rng = SplitRng(23)
        x = rng.uniform((4, 25, 20, 20), 0.5, 1.5)  # 10,000 pooled units
        pooled, _ = L.maxpool_forward(x)
        y, (_, mask, _) = L.SafPool("safpool1", 2, 0.5).forward(x, L.keep_mask(pooled.shape, 0.5, SplitRng(99)))
        assert y.size == 10_000
        zero_fraction = (mask == 0).mean()
        assert 0.48 <= zero_fraction <= 0.52
        survivors = mask == 1.0
        # inverted dropout: every survivor is scaled by exactly 1/(1-p) = 2
        assert np.array_equal(y[survivors], pooled[survivors] * 2.0)
        assert np.all(y[~survivors] == 0.0)

    @pytest.mark.parametrize("k,s", [(2, 2), (3, 2), (3, 1), (2, 1)])
    @pytest.mark.parametrize("h", [7, 8])
    def test_out_shape_matches_maxpool(self, k, s, h):
        x = np.zeros((2, 3, h, h + 1))  # one odd and one even side
        assert L.SafPool("pool1", k, 0.0, s).out_shape(x.shape) == L.maxpool_forward(x, k, s)[0].shape

    def test_drop_p_validated(self):
        with pytest.raises(ValueError):
            L.SafPool("safpool1", 2, 1.0)
        with pytest.raises(ValueError):
            L.SafPool("safpool1", 2, -0.1)

    def test_backward_drop_zero_equals_maxpool_backward(self):
        rng = SplitRng(24)
        x = rng.uniform((1, 2, 4, 4), -1, 1)
        pool = L.SafPool("pool1", 2, 0.0)
        _, cache = pool.forward(x)
        g = rng.uniform((1, 2, 2, 2), -1, 1)
        assert np.array_equal(pool.backward(cache, g)[0], L.maxpool_backward(cache[2], g, x.shape))

    def test_backward_fully_masked_window_zero_grad(self):
        x = np.arange(16, dtype=np.float64).reshape(1, 1, 4, 4)
        _, argmax = L.maxpool_forward(x)
        mask = np.zeros((1, 1, 2, 2))
        gx, _ = L.SafPool("safpool1", 2, 0.5).backward((x.shape, mask, argmax), np.ones((1, 1, 2, 2)))
        assert not gx.any()

    def test_backward_finite_differences_fixed_mask(self):
        rng = SplitRng(25)
        size = 1 * 2 * 6 * 6
        x = (rng.permutation(size).astype(np.float64) / size).reshape(1, 2, 6, 6)
        key = 4242
        pool = L.SafPool("safpool1", 2, 0.5)
        keep = L.keep_mask(pool.out_shape(x.shape), 0.5, SplitRng(key))
        _, cache = pool.forward(x, keep)
        r = rng.uniform((1, 2, 3, 3), -1, 1)

        def loss():
            y, _ = pool.forward(x, keep)
            return float((y * r).sum())

        gx, _ = pool.backward(cache, r)
        assert rel_err(gx, fd_grad(loss, x)) < 1e-6


class TestGlobalAvgPool:
    def test_mean(self):
        x = np.array([[1.0, 2.0], [3.0, 4.0]]).reshape(1, 1, 2, 2)
        assert L.global_avgpool_forward(x).ravel().tolist() == [2.5]

    def test_constant_map(self):
        x = np.full((2, 3, 4, 4), 7.0)
        assert np.all(L.global_avgpool_forward(x) == 7.0)

    def test_backward_uniform_distribution(self):
        g = np.array([6.0]).reshape(1, 1, 1, 1)
        gx = L.global_avgpool_backward(g, (1, 1, 2, 3))
        assert np.allclose(gx, 1.0)

    def test_preserves_channel_total(self):
        rng = SplitRng(8)
        x = rng.uniform((2, 3, 5, 5), -1, 1)
        out = L.global_avgpool_forward(x)
        per_channel_in = x.sum(axis=(2, 3))
        per_channel_out = out[:, :, 0, 0] * 25
        denom = np.maximum(np.abs(per_channel_in), 1.0)
        assert (np.abs(per_channel_out - per_channel_in) / denom).max() <= 1e-9
