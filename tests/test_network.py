import ctypes
import errno
import os
import struct
import subprocess
import sys
import threading
import time
import tracemalloc

import numpy as np
import pytest

from conftest import fd_grad, load_script, rel_err, write_idx_pair
from simpnet import layers as L
from simpnet import network as N
from simpnet.archdsl import build, builder_presets, parse
from simpnet.errors import CompatibilityError, FormatError, NoForwardCacheError, ShapeError
from simpnet.network import Model, count_macs, load_checkpoint, read_checkpoint, save_checkpoint
from simpnet.rng import SplitRng
from simpnet.train import dead_channel_fraction, relu_dead_fraction, sgd_step


def toy_model(dtype=np.float64, seed=0):
    m = Model(
        [
            L.Conv2d("conv1", 3, 4, 3, 1, 1),
            L.BatchNorm("bn1", 4),
            L.ReLU("relu1"),
            L.SafPool("safpool1", 2, 0.0),
            L.Flatten("flatten1"),
            L.Dense("dense1", 4 * 3 * 3, 10),
        ],
        (3, 6, 6),
    )
    return m.init_params(SplitRng(seed), dtype)


class TestForward:
    def test_empty_model_is_identity(self):
        m = Model([], (1, 2, 2))
        x = SplitRng(0).uniform((3, 1, 2, 2))
        assert np.array_equal(m.forward(x), x)

    def test_single_relu(self):
        m = Model([L.ReLU("relu1")], (1, 1, 2))
        x = np.array([[-1.0, 2.0]]).reshape(1, 1, 1, 2)
        assert m.forward(x).ravel().tolist() == [0.0, 2.0]

    def test_output_shape_matches_symbolic(self):
        m = toy_model()
        x = SplitRng(1).uniform((5, 3, 6, 6))
        out = m.eval(x)
        assert out.shape == (5, 10)
        assert m.symbolic_shapes(5)[-1] == (5, 10)

    def test_shape_error_names_layer(self):
        m = toy_model()
        with pytest.raises(ShapeError, match="conv1"):
            m.forward(np.zeros((1, 2, 6, 6)))

    def test_unchained_hand_built_model_fails_at_forward(self):
        # init_params reads no shapes, so the layer that does not fit is named by forward
        m = Model([L.Dense("dense1", 4, 3), L.Dense("dense2", 5, 2)], (1, 1, 4)).init_params(SplitRng(0))
        with pytest.raises(ShapeError, match="dense2"):
            m.forward(np.zeros((2, 4), np.float32))

    def test_eval_mode_deterministic(self):
        m = toy_model()
        x = SplitRng(2).uniform((2, 3, 6, 6))
        a = m.eval(x)
        b = m.eval(x)
        assert a.tobytes() == b.tobytes()

    def test_eval_forward_keeps_no_backward_cache(self):
        # one layer of every Layer subclass, so a new layer cannot be left out
        make = {
            L.Conv2d: lambda: L.Conv2d("conv1", 3, 4, 3, 1, 1),
            L.BatchNorm: lambda: L.BatchNorm("bn1", 4),
            L.ReLU: lambda: L.ReLU("relu1"),
            L.Dropout: lambda: L.Dropout("drop1", 0.5),
            L.SafPool: lambda: L.SafPool("safpool1", 2, 0.5),
            L.GlobalAvgPool: lambda: L.GlobalAvgPool("gap1"),
            L.Flatten: lambda: L.Flatten("flatten1"),
            L.Dense: lambda: L.Dense("dense1", 4, 10),
        }
        classes = [c for c in vars(L).values() if isinstance(c, type)]
        assert set(make) == {c for c in classes if issubclass(c, L.Layer) and c is not L.Layer}

        def build():
            return Model([f() for f in make.values()], (3, 6, 6)).init_params(SplitRng(0), np.float64)

        def held_arrays(obj):
            if isinstance(obj, np.ndarray):
                yield obj
            elif isinstance(obj, (tuple, list)):
                for v in obj:
                    yield from held_arrays(v)
            elif hasattr(obj, "__dict__"):
                for v in vars(obj).values():
                    yield from held_arrays(v)

        def assert_layers_hold_only_state():
            # parameters and BN running stats; no gradients, nothing per batch
            for layer in m.layers:
                state = [v for _, v in layer.state_entries()]
                assert {id(a) for a in held_arrays(layer)} <= {id(a) for a in state}, layer.name

        m = build()
        x = SplitRng(2).uniform((2, 3, 6, 6))
        g = SplitRng(4).uniform((2, 10))
        m.forward(x, SplitRng(3))
        assert len(m.caches) == len(m.train_units)
        assert [len(c) for c in m.caches] == [1] * len(m.caches)  # one slice of 2 images
        # keyed by each unit's last layer, so the relu -> dropout pair's cache is under "dropout"
        caches = {layers[-1].kind: c for (_, layers, _), (c,) in zip(m.train_units, m.caches)}
        # backward reads boolean keep masks and uint8 pool winners, the conv holds the input it was
        # given, and BN keeps only xhat and a per-channel scale
        assert caches["dropout"].dtype == bool and caches["safpool"][1].dtype == bool
        assert caches["safpool"][2].dtype == np.uint8 and np.shares_memory(caches["conv"], x)
        assert sorted(np.shape(a) for a in caches["bn"]) == [(2, 4, 6, 6), (4,)]
        assert_layers_hold_only_state()
        m.backward(g)
        assert_layers_hold_only_state()
        m.eval(x)
        assert m.caches is None
        assert_layers_hold_only_state()
        with pytest.raises(NoForwardCacheError):
            m.backward(g)
        m = build()
        m.eval(x)
        with pytest.raises(NoForwardCacheError):
            m.backward(g)


class TestBackward:
    def test_single_dense_delegates(self):
        m = Model([L.Dense("dense1", 4, 3)], (1, 1, 4))
        m.layers[0].init_params(SplitRng(0), np.float64)
        x = SplitRng(1).uniform((2, 4))
        g = SplitRng(2).uniform((2, 3))
        m.forward(x)
        gx, grads = m.backward(g)
        ex_gx, ex_gw, ex_gb = L.dense_backward(x, m.layers[0].weight, g)
        assert np.array_equal(gx, ex_gx)
        (wn, w, gw), (bn, b, gb) = grads
        assert (wn, bn) == ("dense1.weight", "dense1.bias")
        assert w is m.layers[0].weight and b is m.layers[0].bias
        assert np.array_equal(gw, ex_gw)
        assert np.array_equal(gb, ex_gb)

    def test_backward_deterministic_given_cache(self):
        # gradients are returned values: a second backward neither adds into nor reuses the first's
        m = toy_model()
        x = SplitRng(3).uniform((2, 3, 6, 6))
        g = SplitRng(4).uniform((2, 10))
        m.forward(x)
        gx1, grads1 = m.backward(g)
        saved = [gr.copy() for _, _, gr in grads1]
        gx2, grads2 = m.backward(g)
        assert gx1.tobytes() == gx2.tobytes()
        assert [n for n, _, _ in grads1] == [n for n, _, _ in grads2]
        for (n, _, a), b, (_, _, c) in zip(grads1, saved, grads2):
            assert a.tobytes() == b.tobytes() == c.tobytes(), n
            assert not np.shares_memory(a, c), n

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_grads_match_state_tensor_params(self, dtype):
        m = toy_model(dtype)
        m.forward(SplitRng(9).uniform((2, 3, 6, 6)).astype(dtype))
        _, grads = m.backward(SplitRng(10).uniform((2, 10)).astype(dtype))
        running = {f"bn1.{s}" for s in ("running_mean", "running_var")}
        params = [(n, v) for n, v in m.state_tensors() if n not in running]
        assert [n for n, _, _ in grads] == [n for n, _ in params]
        for (n, v, gr), (_, p) in zip(grads, params):
            assert v is p, n
            assert gr.shape == p.shape and gr.dtype == p.dtype, n

    def test_whole_model_gradcheck(self):
        m = toy_model()
        x = SplitRng(7).uniform((2, 3, 6, 6))
        labels = SplitRng(8).integers(2, 10)

        def loss():
            return L.softmax_xent(m.forward(x), labels)[0]

        logits = m.forward(x)
        _, grad_logits = L.softmax_xent(logits, labels)
        gx, grads = m.backward(grad_logits)
        assert rel_err(gx, fd_grad(loss, x)) < 1e-5
        for name, value, grad in grads:
            assert rel_err(grad, fd_grad(loss, value)) < 1e-5, name


# every fused unit and every layer the fused eval forward leaves alone: conv -> bn -> relu,
# conv -> bn without relu, sconv -> bn, conv -> relu without bn, relu -> bn, maxpool and safpool p > 0
FUSION_ARCH = """\
input 3 12 12
group g1
conv 3 6 s1 p1
bn
relu
dropout p0.3
conv 3 6 s1 p1
bn
maxpool 2
group g2
sconv 2 8 s2 p0
bn
relu
conv 3 8 s1 p1
relu
bn
safpool 2 p0.25 s1
group head
gap
flatten
dense 5
"""


def fusion_model(name, dtype, seed=0):
    """A built model with random BN running stats, gamma, beta and conv biases, so no fold is trivial."""
    spec = parse(FUSION_ARCH) if name == "fusion" else builder_presets()[name]
    m = build(spec).init_params(SplitRng(seed), dtype)
    r = np.random.default_rng(seed)
    for layer in m.layers:
        if isinstance(layer, L.BatchNorm):
            c = layer.channels
            layer.gamma[...] = r.uniform(0.5, 1.5, c)
            layer.beta[...] = r.normal(0.0, 0.3, c)
            layer.running_mean[...] = r.normal(0.0, 0.3, c)
            layer.running_var[...] = r.uniform(0.5, 2.0, c)
        elif isinstance(layer, L.Conv2d):
            layer.bias[...] = r.normal(0.0, 0.1, layer.c_out)
    return m


def layer_by_layer_eval(m, x):
    for layer in m.layers:
        x = layer.eval(x)
    return x


def rel_max(a, ref):
    return float(np.abs(a - ref).max() / np.abs(ref).max())


def model_input(m, n, dtype, seed=5):
    return SplitRng(seed).normal((n, *m.input_shape)).astype(dtype)


class TestFusedEval:
    @pytest.mark.parametrize("name", ["fusion", "simpnet-tiny", "simpnet-300k"])
    def test_matches_layer_by_layer_float64(self, name):
        m = fusion_model(name, np.float64)
        x = model_input(m, 3, np.float64)
        assert rel_max(m.eval(x), layer_by_layer_eval(m, x)) <= 1e-12

    @pytest.mark.parametrize("name", ["simpnet-tiny", "simpnet-300k"])
    def test_float32_argmax_equal(self, name):
        m = fusion_model(name, np.float32)
        x = model_input(m, 16, np.float32)
        fused, ref = m.eval(x), layer_by_layer_eval(m, x)
        assert fused.dtype == ref.dtype == np.float32
        assert rel_max(fused, ref) <= 1e-5
        assert np.array_equal(fused.argmax(axis=1), ref.argmax(axis=1))

    @pytest.mark.parametrize(
        "make",
        [
            lambda: [L.Conv2d("conv1", 3, 4, 3, 1, 1), L.BatchNorm("bn1", 4)],
            lambda: [L.Conv2d("conv1", 3, 4, 3, 1, 1), L.BatchNorm("bn1", 4), L.ReLU("relu1")],
            lambda: [L.ReLU("relu1"), L.Conv2d("conv1", 3, 4, 3, 1, 1), L.ReLU("relu2"), L.BatchNorm("bn1", 4)],
        ],
        ids=["conv-bn-last", "conv-bn-relu-last", "relu-bn-last"],
    )
    def test_units_at_the_end_of_the_stack(self, make):
        m = Model(make(), (3, 5, 5)).init_params(SplitRng(1), np.float64)
        for layer in m.layers:
            if isinstance(layer, L.BatchNorm):
                layer.running_mean[...] = [0.5, -0.2, 0.1, 0.0]
                layer.running_var[...] = [2.0, 0.5, 1.0, 3.0]
        x = model_input(m, 2, np.float64)
        assert rel_max(m.eval(x), layer_by_layer_eval(m, x)) <= 1e-12

    @pytest.mark.parametrize("name", ["fusion", "simpnet-tiny"])
    def test_eval_runs_once_per_slice_outside_the_folds_and_no_forward(self, name, workers, monkeypatch):
        # a layer's forward runs only inside the base Layer.eval, never from the model
        workers(1)  # slices run in order on the caller
        m = fusion_model(name, np.float32)
        evals, forwards_outside_eval, depth = [], [], [0]
        for cls in (L.Layer, *L.Layer.__subclasses__()):
            if "eval" in vars(cls):
                def spy_eval(self, x, fn=cls.eval):
                    evals.append(self.name)
                    depth[0] += 1
                    try:
                        return fn(self, x)
                    finally:
                        depth[0] -= 1
                monkeypatch.setattr(cls, "eval", spy_eval)
            if "forward" in vars(cls):
                def spy_forward(self, x, keep=None, fn=cls.forward):
                    if not depth[0]:
                        forwards_outside_eval.append(self.name)
                    return fn(self, x, keep)
                monkeypatch.setattr(cls, "forward", spy_forward)
        folded = set()
        for a, b, c in zip(m.layers, m.layers[1:], [*m.layers[2:], None]):
            if isinstance(a, L.Conv2d) and isinstance(b, L.BatchNorm):
                folded |= {a.name, b.name, *([c.name] if isinstance(c, L.ReLU) else [])}
        assert folded
        m.eval(model_input(m, 2 * N.EVAL_SLICE + 1, np.float32))
        assert evals == [layer.name for layer in m.layers if layer.name not in folded] * 3
        assert forwards_outside_eval == []

    def test_dead_fraction_reads_the_eval_units(self):
        m = fusion_model("fusion", np.float32)
        for layer in m.layers:
            if isinstance(layer, L.BatchNorm):
                layer.beta[::2] = -20.0  # every other channel of a bn -> relu is 0 on these inputs
        x = model_input(m, 8, np.float32)
        fractions, y = [], x
        for layer in m.layers:
            y = layer.eval(y)
            if isinstance(layer, L.ReLU) and y.ndim == 4:
                fractions.append(dead_channel_fraction(y))
        assert np.mean(fractions) > 0
        assert relu_dead_fraction(m, x) == float(np.mean(fractions))

    def test_bn_of_another_width_is_not_folded(self):
        m = Model([L.Conv2d("conv1", 3, 4, 3, 1, 1), L.BatchNorm("bn1", 1)], (3, 5, 5)).init_params(SplitRng(1))
        with pytest.raises(ShapeError, match="bn1"):
            m.eval(model_input(m, 2, np.float32))

    def test_state_unchanged_no_cache_repeatable(self):
        m = fusion_model("fusion", np.float32)
        x = model_input(m, 4, np.float32)
        m.forward(x, SplitRng(2))  # leaves train-mode caches behind
        before = [(n, v.tobytes()) for n, v in m.state_tensors()]
        a = m.eval(x)
        assert m.caches is None
        b = m.eval(x)
        assert [(n, v.tobytes()) for n, v in m.state_tensors()] == before
        assert a.tobytes() == b.tobytes()

    def test_follows_sgd_step(self):
        m = fusion_model("fusion", np.float64)
        x = model_input(m, 4, np.float64)
        before = m.eval(x)
        logits = m.forward(x, SplitRng(2))
        _, grad = L.softmax_xent(logits, SplitRng(3).integers(4, 5))
        sgd_step(m.backward(grad)[1], {}, lr=0.1, momentum=0.9, weight_decay=1e-4)
        after = m.eval(x)
        assert rel_max(after, before) > 1e-6
        assert rel_max(after, layer_by_layer_eval(m, x)) <= 1e-12

    def test_follows_load_checkpoint(self, tmp_path):
        m, other = fusion_model("fusion", np.float64, seed=0), fusion_model("fusion", np.float64, seed=1)
        x = model_input(m, 4, np.float64)
        m.eval(x)
        save_checkpoint(other, tmp_path / "other.snpk")
        load_checkpoint(m, tmp_path / "other.snpk")
        fused = m.eval(x)
        assert fused.tobytes() == other.eval(x).tobytes()
        assert rel_max(fused, layer_by_layer_eval(m, x)) <= 1e-12


needs_blas_calls = pytest.mark.skipif(L._BLAS_THREADS is None, reason="no OpenBLAS thread calls found in numpy")


@pytest.fixture
def workers(monkeypatch):
    """set_workers(k): forwards and backwards run their slices on k threads, whatever the BLAS
    thread count is, with pools of their own that are shut down after the test."""
    original, pools = L._pool, []

    def set_workers(k):
        if L._pool not in (None, original):
            pools.append(L._pool)
        monkeypatch.setattr(L, "WORKERS", k)
        monkeypatch.setattr(L, "_pool", None)

    yield set_workers
    if L._pool not in (None, original):
        pools.append(L._pool)
    for pool in pools:
        pool.shutdown()


@pytest.fixture
def two_workers(workers):
    workers(2)


def one_worker(m, x, monkeypatch):
    """Eval logits with every slice run on the calling thread."""
    with monkeypatch.context() as mp:
        mp.setattr(L, "WORKERS", 1)
        return m.eval(x)


ENGINE_SRC = os.path.dirname(os.path.dirname(N.__file__))
EVAL_LOGITS_PROBE = """\
import hashlib
import numpy as np
from simpnet import archdsl, layers, train
from simpnet.rng import SplitRng
for name in ("simpnet-tiny", "simpnet-300k"):
    m = train.init_model(archdsl.build(archdsl.builder_presets()[name]), 7)
    x = SplitRng(8).normal((256, *m.input_shape)).astype(np.float32)
    print(name, layers.WORKERS, hashlib.sha256(m.eval(x).tobytes()).hexdigest())
"""


@needs_blas_calls
@pytest.mark.usefixtures("two_workers")
class TestSlicedEval:
    @pytest.mark.parametrize("n", [1, N.EVAL_SLICE - 1, N.EVAL_SLICE + 1, 257])
    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("name", ["simpnet-tiny", "simpnet-300k"])
    def test_logits_do_not_depend_on_the_worker_count(self, name, dtype, n, monkeypatch):
        m = fusion_model(name, dtype)
        x = model_input(m, n, dtype)
        sliced = m.eval(x)
        assert sliced.shape == (n, 10) and sliced.dtype == dtype
        assert sliced.tobytes() == one_worker(m, x, monkeypatch).tobytes()

    @pytest.mark.parametrize("name", ["simpnet-tiny", "simpnet-300k"])
    def test_full_slices_give_the_whole_batch_bytes_at_one_blas_thread(self, name):
        # float32 at batch 256, in full slices: every GEMM is above OpenBLAS's small-matrix size
        # (M*N*K <= 10**6), below which sgemm rounds by row count; float64 does so more often
        m = fusion_model(name, np.float32)
        x = model_input(m, 256, np.float32)
        get, put = L._BLAS_THREADS
        threads = get()
        put(1)
        try:
            whole = N._eval_slice(m.eval_units, x)
        finally:
            put(threads)
        assert m.eval(x).tobytes() == whole.tobytes()

    def test_many_workers_and_small_slices_under_fast_thread_switching(self, monkeypatch):
        monkeypatch.setattr(L, "WORKERS", 4)  # more threads than cores on a host of 2 or 3
        monkeypatch.setattr(N, "EVAL_SLICE", 2)
        m = fusion_model("simpnet-tiny", np.float32)
        x = model_input(m, 41, np.float32)
        switch = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            sliced = [m.eval(x) for _ in range(3)]
        finally:
            sys.setswitchinterval(switch)
        ref = one_worker(m, x, monkeypatch).tobytes()
        assert [s.tobytes() for s in sliced] == [ref] * 3

    def test_shape_error_in_a_pool_slice_names_its_layer(self, monkeypatch):
        def fails_off_the_caller(x, window, stride, values=L.maxpool_values):
            if threading.current_thread() is not threading.main_thread():
                raise ShapeError("raised in a pool slice")
            return values(x, window, stride)

        monkeypatch.setattr(L, "maxpool_values", fails_off_the_caller)
        m = fusion_model("simpnet-tiny", np.float32)
        pool = next(layer.name for layer in m.layers if isinstance(layer, L.SafPool))
        with pytest.raises(ShapeError, match=f"at layer {pool!r}: raised in a pool slice"):
            m.eval(model_input(m, 2 * N.EVAL_SLICE, np.float32))

    @pytest.mark.parametrize("fail", [False, True], ids=["returns", "raises"])
    def test_waits_for_every_slice_and_restores_blas_threads(self, fail, monkeypatch):
        # pool slices are slowed down, and in the failing case the caller's first conv raises,
        # so a forward that returned before its slices ended would leave one running
        running, threads_seen, lock, conv = [0], set(), threading.Lock(), N.conv2d_forward

        def spy(x, *args):
            with lock:
                running[0] += 1
                threads_seen.add(threading.get_ident())
            try:
                if threading.current_thread() is threading.main_thread():
                    if fail:
                        raise ShapeError("caller slice fails")
                else:
                    time.sleep(0.01)
                return conv(x, *args)
            finally:
                with lock:
                    running[0] -= 1

        monkeypatch.setattr(N, "conv2d_forward", spy)
        m = fusion_model("simpnet-tiny", np.float32)
        x = model_input(m, 2 * N.EVAL_SLICE, np.float32)
        get, put = L._BLAS_THREADS
        initial = get()
        try:
            for threads in sorted({1, initial}):
                put(threads)
                if fail:
                    with pytest.raises(ShapeError, match="caller slice fails"):
                        m.eval(x)
                else:
                    assert m.eval(x).shape == (len(x), 10)
                assert running[0] == 0
                assert get() == threads
        finally:
            put(initial)
        assert len(threads_seen) == 2


def test_without_blas_calls_eval_starts_no_thread(tmp_path, monkeypatch):
    assert L._openblas_thread_calls(str(tmp_path)) is None
    (tmp_path / "libopenblas_broken.so").write_bytes(b"not a shared library")
    assert L._openblas_thread_calls(str(tmp_path)) is None
    monkeypatch.setattr(L, "_BLAS_THREADS", None)
    monkeypatch.setattr(L, "WORKERS", 1)
    monkeypatch.setattr(L, "_pool", None)
    m = fusion_model("simpnet-tiny", np.float32)
    before = threading.active_count()
    m.eval(model_input(m, 2 * N.EVAL_SLICE + 1, np.float32))
    logits = m.forward(model_input(m, 2 * N.TRAIN_SLICE + 1, np.float32), SplitRng(3))
    m.backward(np.ones_like(logits))
    assert threading.active_count() == before and L._pool is None
    assert [len(caches) for caches in m.caches] == [3] * len(m.caches)  # the train batch ran as three slices


@needs_blas_calls
def test_without_blas_calls_the_slices_give_the_two_worker_bytes(workers, monkeypatch):
    # where the thread calls are not found, the same slices run in order on the caller at the BLAS's
    # own thread count; with that pinned to one thread through the real calls, the bytes are the
    # two-worker path's
    def step():
        m = fusion_model("simpnet-tiny", np.float32)
        x = model_input(m, 2 * N.TRAIN_SLICE + 1, np.float32)
        logits = m.forward(x, SplitRng(3))
        gx, grads = m.backward(L.softmax_xent(logits, SplitRng(4).integers(len(x), 10))[1])
        logits_eval = m.eval(model_input(m, 2 * N.EVAL_SLICE + 1, np.float32, seed=6))
        grads = [(n, g.tobytes()) for n, _, g in grads]
        return logits.tobytes(), gx.tobytes(), grads, [(n, v.tobytes()) for n, v in m.state_tensors()], logits_eval.tobytes()

    workers(2)
    sliced = step()
    get, put = L._BLAS_THREADS
    threads = get()
    monkeypatch.setattr(L, "_BLAS_THREADS", None)
    workers(1)
    put(1)
    try:
        no_calls = step()
    finally:
        put(threads)
    assert no_calls == sliced


@pytest.mark.usefixtures("two_workers")
def test_the_callers_errstate_holds_in_pool_slices():
    on_caller = {}

    def scale(j, x):
        on_caller[j] = threading.current_thread() is threading.main_thread()
        return x * np.float32(10)

    # thread t runs slice t first, so slice 1, the only one that overflows, runs on the pool thread
    with np.errstate(over="raise"), pytest.raises(FloatingPointError):
        L._map_slices(scale, [0, 1], [np.ones(4, np.float32), np.full(4, 3e38, np.float32)])
    assert on_caller == {0: True, 1: False}


def mallopt_found():
    try:
        return hasattr(ctypes.CDLL(None), "mallopt")
    except OSError:
        return False


@pytest.mark.skipif(not mallopt_found(), reason="glibc's mallopt not found, so the allocator keeps its defaults")
def test_a_steady_train_step_faults_in_few_pages():
    # with glibc's default settings this step took 19.6k minor faults (numpy 2.4.6, two threads): each
    # step's fresh arrays were mmapped, or trimmed from the heap, and faulted in again
    import resource

    m = train_units_model("simpnet-tiny", np.float32)
    x = model_input(m, 128, np.float32)
    labels = SplitRng(4).integers(128, 10)
    velocities = {}

    def step():
        logits = m.forward(x, SplitRng(3))
        _, grads = m.backward(L.softmax_xent(logits, labels)[1], input_grad=False)
        sgd_step(grads, velocities, 0.01, 0.9, 5e-4)

    step()
    step()
    before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
    step()
    faults = resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before
    assert faults < 1000, f"{faults} minor faults in one step"


def no_library(name):
    raise OSError(f"{name}: cannot open shared object file")


@pytest.mark.parametrize("cdll", [no_library, lambda name: object()], ids=["no-library", "no-mallopt"])
def test_set_malloc_returns_quietly_without_mallopt(cdll, monkeypatch):
    monkeypatch.setattr(ctypes, "CDLL", cdll)
    assert L._set_malloc() is None


def test_import_build_and_analyze_start_no_thread():
    probe = (
        "import threading\n"
        "before = threading.active_count()\n"
        "import simpnet\n"
        "from simpnet import archdsl, cli\n"
        "archdsl.build(archdsl.builder_presets()['simpnet-300k'])\n"
        "assert cli.main(['analyze', '--preset', 'simpnet-300k']) == 0\n"
        "print('threads started', threading.active_count() - before)\n"
    )
    env = dict(os.environ, PYTHONPATH=ENGINE_SRC)
    proc = subprocess.run([sys.executable, "-c", probe], capture_output=True, text=True, env=env)
    assert proc.returncode == 0, proc.stderr[-2000:]
    assert proc.stdout.splitlines()[-1] == "threads started 0"


@needs_blas_calls
def test_eval_logits_do_not_depend_on_the_blas_thread_count():
    outputs = []
    for threads in ("1", "2"):
        env = dict(os.environ, PYTHONPATH=ENGINE_SRC, OPENBLAS_NUM_THREADS=threads)
        proc = subprocess.run([sys.executable, "-c", EVAL_LOGITS_PROBE], capture_output=True, text=True, env=env)
        assert proc.returncode == 0, proc.stderr[-2000:]
        outputs.append([line.split() for line in proc.stdout.splitlines()])
    (tiny1, big1), (tiny2, big2) = outputs
    assert tiny1[1] == big1[1] == "1"
    assert L.WORKERS == 1 or tiny2[1] == big2[1] == "2"  # the sliced path ran where it can
    assert (tiny1[::2], big1[::2]) == (tiny2[::2], big2[::2])


# relu -> dropout p > 0 pairs, which the train forward runs as one unit, among the layers it
# leaves alone: relu -> dropout p0, relu -> relu -> dropout (the second relu pairs) and conv -> dropout
TRAIN_UNITS_ARCH = """\
input 3 10 10
group g1
conv 3 6 s1 p1
bn
relu
dropout p0.3
conv 3 6 s1 p1
relu
dropout p0
conv 3 6 s1 p1
relu
relu
dropout p0.2
conv 3 6 s1 p1
dropout p0.25
safpool 2 p0.25 s2
group head
gap
flatten
dense 5
"""


def train_units_model(name, dtype, seed=0):
    if name == "dense-pair-last":  # relu -> dropout on the 2-D output of a dense layer, ending the stack
        layers = [
            L.Conv2d("conv1", 3, 4, 3, 1, 1),
            L.ReLU("relu1"),
            L.Dropout("drop1", 0.3),
            L.Flatten("flatten1"),
            L.Dense("dense1", 4 * 6 * 6, 6),
            L.ReLU("relu2"),
            L.Dropout("drop2", 0.4),
        ]
        return Model(layers, (3, 6, 6)).init_params(SplitRng(seed), dtype)
    spec = parse(TRAIN_UNITS_ARCH) if name == "units" else builder_presets()[name]
    return build(spec).init_params(SplitRng(seed), dtype)


def layer_by_layer_train_step(m, x, rng, labels):
    """Logits, input gradient and [(name, value, grad)] from each layer's own forward_slices and
    backward_slices, with the whole batch as one slice, at one BLAS thread, as Model runs its slices."""
    caches = []
    with L._one_blas_thread():
        for i, layer in enumerate(m.layers):
            dropping = isinstance(layer, (L.Dropout, L.SafPool)) and layer.p > 0
            keep = L.keep_mask(layer.out_shape(x.shape), layer.p, rng.split(i)) if dropping else None
            (x,), (cache,) = layer.forward_slices([x], [lambda: keep])
            caches.append(cache)
        g = L.softmax_xent(x, labels)[1]
        grads = []
        for layer, cache in zip(reversed(m.layers), reversed(caches)):
            (g,), layer_grads = layer.backward_slices([cache], [g])
            grads[:0] = [(n, v, gr) for (n, v), gr in zip(layer.param_entries(), layer_grads)]
    return x, g, grads


class TestPlan:
    @pytest.mark.parametrize("entry", ["train", "eval"])
    @pytest.mark.parametrize("name", [*builder_presets(), "fusion", "units"])
    def test_units_cover_the_layers_and_fuse_each_pattern(self, name, entry):
        arch = {"fusion": FUSION_ARCH, "units": TRAIN_UNITS_ARCH}.get(name)
        m = build(parse(arch) if arch else builder_presets()[name])
        units = m.train_units if entry == "train" else m.eval_units
        assert [layer for _, layers, _ in units for layer in layers] == m.layers
        assert [start for start, _, _ in units] == [m.layers.index(layers[0]) for _, layers, _ in units]
        # a layer-by-layer reading of the fusion rules: relu -> dropout p > 0 in train units,
        # conv -> bn (-> relu) in eval units; every other unit is one layer
        expected = {}
        for i, (a, b, c) in enumerate(zip(m.layers, m.layers[1:], [*m.layers[2:], None])):
            if entry == "train" and isinstance(a, L.ReLU) and isinstance(b, L.Dropout) and b.p > 0:
                expected[i] = (a, b)
            if entry == "eval" and isinstance(a, L.Conv2d) and isinstance(b, L.BatchNorm):
                expected[i] = (a, b, c) if isinstance(c, L.ReLU) else (a, b)
        assert expected
        assert {start: layers for start, layers, _ in units if len(layers) > 1} == expected


class TestFusedTrain:
    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("name", ["units", "dense-pair-last", "simpnet-tiny", "simpnet-300k"])
    def test_matches_layer_by_layer(self, name, dtype):
        fused, ref = train_units_model(name, dtype), train_units_model(name, dtype)
        velocities = ({}, {})
        for step in range(2):
            x = model_input(fused, 3, dtype, seed=step)
            rng = SplitRng(20 + step)
            logits = fused.forward(x, rng)
            labels = SplitRng(10 + step).integers(3, logits.shape[1])
            gx, grads = fused.backward(L.softmax_xent(logits, labels)[1])
            ref_logits, ref_gx, ref_grads = layer_by_layer_train_step(ref, x, rng, labels)
            assert logits.dtype == dtype and logits.tobytes() == ref_logits.tobytes()
            assert gx.tobytes() == ref_gx.tobytes()
            assert [(n, g.tobytes()) for n, _, g in grads] == [(n, g.tobytes()) for n, _, g in ref_grads]
            for model_grads, vel in zip((grads, ref_grads), velocities):
                sgd_step(model_grads, vel, lr=0.1, momentum=0.9, weight_decay=1e-4)
        assert [(n, v.tobytes()) for n, v in fused.state_tensors()] == [(n, v.tobytes()) for n, v in ref.state_tensors()]

    def test_pairs_hold_no_relu_input_beyond_the_next_convs(self, monkeypatch):
        # the pair runs neither layer's forward nor the ReLU's backward, so the traced
        # relu and dropout forward times read about 0 in train mode
        calls = []
        for cls in (L.ReLU, L.Dropout):
            for method in ("forward", "backward"):
                def spy(self, *args, fn=getattr(cls, method), method=method):
                    calls.append(f"{self.kind}.{method}")
                    return fn(self, *args)
                monkeypatch.setattr(cls, method, spy)
        monkeypatch.setattr(N, "TRAIN_SLICE", 2)  # slices of 2 and 1 images
        m = train_units_model("simpnet-tiny", np.float32)
        y = m.forward(model_input(m, 3, np.float32), SplitRng(3))
        assert calls == []
        shared = masks = 0
        for (_, layers, _), caches, (_, (nxt, *_), _), nxt_caches in zip(
            m.train_units, m.caches, m.train_units[1:], m.caches[1:]
        ):
            if not any(isinstance(layer, L.ReLU) for layer in layers):
                continue
            # every relu is in a pair, which holds no float array beyond what the next conv holds
            assert [type(layer) for layer in layers] == [L.ReLU, L.Dropout]
            if isinstance(nxt, L.Conv2d):  # its output y, the very array the conv caches as its input
                assert all(cache is conv_cache for cache, conv_cache in zip(caches, nxt_caches, strict=True))
                shared += 1
            else:  # before a SAF-pool or the gap, the one-byte keep y > 0
                assert isinstance(nxt, (L.SafPool, L.GlobalAvgPool))
                assert all(c.dtype == bool and c.transpose(0, 2, 3, 1).flags.c_contiguous for c in caches)
                masks += 1
        assert (shared, masks) == (10, 3)
        winners = [c[2] for (_, (layer, *_), _), caches in zip(m.train_units, m.caches) for c in caches
                   if isinstance(layer, L.SafPool)]
        assert len(winners) == 4 and all(w.dtype == np.uint8 for w in winners)
        m.backward(np.ones_like(y))
        assert set(calls) == {"dropout.backward"}

    @staticmethod
    def expected_cache_bytes(m, n):
        """The bytes a float32 forward of n images caches, from the symbolic shapes, with each buffer
        counted once: every array is float32 but the bool keep masks and the uint8 SAF-pool winners."""
        bounds = [(lo, min(n, lo + N.TRAIN_SLICE)) for lo in range(0, n, N.TRAIN_SLICE)]
        shapes = [(n, *m.input_shape), *m.symbolic_shapes(n)]
        total = 0
        for i, layer in enumerate(m.layers):
            before, after = (None, *m.layers)[i], (*m.layers[i + 1 :], None)[0]
            size, row = int(np.prod(shapes[i + 1])), int(np.prod(shapes[i + 1][1:]))
            if isinstance(layer, L.Conv2d) and not isinstance(before, L.Dropout):
                total += 4 * int(np.prod(shapes[i]))  # its input; after a pair, the pair's output counts it
            elif isinstance(layer, L.BatchNorm):
                total += 4 * size + 4 * layer.channels  # xhat, and one scale shared by the slices
            elif isinstance(layer, L.Dropout):  # a relu -> dropout pair: its output if a conv follows, else y > 0
                total += 4 * size if isinstance(after, L.Conv2d) else size
            elif isinstance(layer, L.SafPool):
                # uint8 winners, and each slice's rows of the keep mask, drawn in whole draws of 4 elements
                total += size + sum(-(-(lo * row % 4 + (hi - lo) * row) // 4) * 4 for lo, hi in bounds)
            elif isinstance(layer, L.Dense):
                total += 4 * int(np.prod(shapes[i]))
        return total

    @pytest.mark.parametrize("n", [3, 2 * N.TRAIN_SLICE + 1])
    def test_cached_bytes_follow_from_the_layer_shapes(self, n):
        # the caches of a simpnet-tiny forward, each buffer counted once however many views of it are held
        def held(obj):
            if isinstance(obj, np.ndarray):
                while isinstance(obj.base, np.ndarray):
                    obj = obj.base
                yield obj
            elif isinstance(obj, (tuple, list)):
                for v in obj:
                    yield from held(v)

        m = train_units_model("simpnet-tiny", np.float32)
        m.forward(model_input(m, n, np.float32), SplitRng(3))
        assert sum(a.nbytes for a in {id(a): a for a in held(m.caches)}.values()) == self.expected_cache_bytes(m, n)
        # at batch 128: 79.8 MiB, and 182.9 MiB on simpnet-300k. Padded conv inputs, a keep mask for every
        # pair and int64 SAF-pool offsets made it 99.9 and 226.2 MiB.
        assert self.expected_cache_bytes(m, 128) == 83665688

    def test_units_run_forward_slices_and_each_slice_gets_its_rows_of_the_mask(self, workers, monkeypatch):
        workers(1)  # slices run in order on the caller
        monkeypatch.setattr(N, "TRAIN_SLICE", 2)
        m = Model(
            [
                L.Conv2d("conv1", 3, 4, 3, 1, 1),
                L.BatchNorm("bn1", 4),
                L.ReLU("relu1"),
                L.Dropout("drop1", 0.3),
                L.SafPool("safpool1", 2, 0.25),
                L.Dropout("drop2", 0.2),
                L.Flatten("flatten1"),
                L.Dense("dense1", 4 * 3 * 3, 5),
            ],
            (3, 6, 6),
        ).init_params(SplitRng(0), np.float64)
        unit_calls, forward_calls = [], []
        for cls in (L.Layer, L.BatchNorm):
            def spy_slices(self, parts, keeps, fn=cls.forward_slices):
                unit_calls.append(self.name)
                return fn(self, parts, keeps)
            monkeypatch.setattr(cls, "forward_slices", spy_slices)
        for cls in {type(layer) for layer in m.layers}:
            def spy_forward(self, x, keep=None, fn=cls.forward):
                forward_calls.append((self.name, len(x), keep))
                return fn(self, x, keep)
            monkeypatch.setattr(cls, "forward", spy_forward)
        n, rng = 5, SplitRng(3)
        m.forward(model_input(m, n, np.float64), rng)
        units = [layers for _, layers, _ in m.train_units]
        assert [[layer.name for layer in layers] for layers in units if len(layers) > 1] == [["relu1", "drop1"]]
        assert unit_calls == [layers[0].name for layers in units if len(layers) == 1]
        bounds = [(lo, min(n, lo + 2)) for lo in range(0, n, 2)]
        expected = []
        for i, (layer, shape) in enumerate(zip(m.layers, m.symbolic_shapes(n))):
            if isinstance(layer, L.BatchNorm) or layer.name in ("relu1", "drop1"):
                continue
            dropping = isinstance(layer, (L.Dropout, L.SafPool))
            whole = L.keep_mask(shape, layer.p, rng.split(i)) if dropping else None
            expected += [(layer.name, hi - lo, None if whole is None else whole[lo:hi]) for lo, hi in bounds]
        assert [call[:2] for call in forward_calls] == [want[:2] for want in expected]
        for (name, _, keep), (_, _, want) in zip(forward_calls, expected):
            assert np.array_equal(keep, want), name  # None equals only None

    def test_pair_without_rng_raises_like_dropout(self):
        m = Model([L.ReLU("relu1"), L.Dropout("drop1", 0.3)], (1, 2, 2))
        with pytest.raises(ValueError, match="requires an rng"):
            m.forward(np.ones((1, 1, 2, 2)))

    @pytest.mark.parametrize("feeds", ["dense", "conv"])
    def test_finite_difference_through_a_pair(self, feeds):
        # a pair before a flatten caches its keep mask; one before a conv, the array the conv caches
        tail = {
            "dense": [L.Flatten("flatten1"), L.Dense("dense1", 3 * 4 * 4, 4)],
            "conv": [L.Conv2d("conv2", 3, 2, 3, 2, 1), L.Flatten("flatten1"), L.Dense("dense1", 2 * 2 * 2, 4)],
        }[feeds]
        m = Model(
            [
                L.Conv2d("conv1", 2, 3, 3, 1, 1),
                L.BatchNorm("bn1", 3),
                L.ReLU("relu1"),
                L.Dropout("drop1", 0.3),
                *tail,
            ],
            (2, 4, 4),
        ).init_params(SplitRng(0), np.float64)
        x = SplitRng(1).normal((3, 2, 4, 4))
        labels = SplitRng(2).integers(3, 4)

        def loss():
            return L.softmax_xent(m.forward(x, SplitRng(7)), labels)[0]  # the same masks every call

        logits = m.forward(x, SplitRng(7))
        # the pair ran as one unit
        assert [len(layers) for _, layers, _ in m.train_units][:3] == [1, 1, 2]
        if feeds == "conv":
            assert m.caches[2][0] is m.caches[3][0]
        else:
            assert m.caches[2][0].dtype == bool
        gx, grads = m.backward(L.softmax_xent(logits, labels)[1])
        assert rel_err(gx, fd_grad(loss, x)) < 1e-5
        for name, value, grad in grads:
            assert rel_err(grad, fd_grad(loss, value)) < 1e-5, name

    @pytest.mark.parametrize("name", ["simpnet-tiny", "dense-first"])
    def test_input_grad_false_keeps_parameter_gradients(self, name):
        if name == "dense-first":
            m = Model([L.Dense("dense1", 4, 3)], (1, 1, 4)).init_params(SplitRng(0), np.float32)
            x = SplitRng(1).uniform((2, 4)).astype(np.float32)
        else:
            m = train_units_model(name, np.float32)
            x = model_input(m, 2, np.float32)
        logits = m.forward(x, SplitRng(3))
        g = L.softmax_xent(logits, SplitRng(4).integers(2, logits.shape[1]))[1]
        gx, grads = m.backward(g)
        skipped, same = m.backward(g, input_grad=False)
        assert gx.shape == x.shape and skipped is None
        assert [(n, v, gr.tobytes()) for n, v, gr in same] == [(n, v, gr.tobytes()) for n, v, gr in grads]

    # tracemalloc peak of one float32 batch-32 train step as train_loop runs it (forward, loss,
    # backward without the input gradient). Measured with numpy 2.4: 28.7 MiB on simpnet-tiny and
    # 65.3 MiB on simpnet-300k, against 39.1 and 89.1 MiB when every relu -> dropout pair kept the
    # ReLU's float input beside its dropout mask. The bounds leave about 15% headroom.
    @pytest.mark.parametrize("name,bound_mib", [("simpnet-tiny", 33), ("simpnet-300k", 75)])
    def test_train_step_peak_memory(self, name, bound_mib):
        m = train_units_model(name, np.float32)
        x = model_input(m, 32, np.float32)
        labels = SplitRng(4).integers(32, 10)
        tracemalloc.start()
        try:
            logits = m.forward(x, SplitRng(3))
            m.backward(L.softmax_xent(logits, labels)[1], input_grad=False)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= bound_mib * 2**20, f"{peak / 2**20:.1f} MiB"

    # tracemalloc peak of one float32 eval batch of 256, the input excluded, run as slices of 32 on
    # two threads. Measured with numpy 2.4: 9.3 MiB on simpnet-tiny and 21.4 MiB on simpnet-300k, two
    # slices' worth, against 37.0 and 85.0 MiB for the whole batch in one pass. The bounds leave about
    # 15% headroom. The caller runs slices itself rather than only waiting. When pool threads ran every
    # slice, each in a glibc arena of its own, peak RSS on simpnet-tiny rose 17%; all threads now share
    # one arena (layers._set_malloc).
    @needs_blas_calls
    @pytest.mark.usefixtures("two_workers")
    @pytest.mark.parametrize("name,bound_mib", [("simpnet-tiny", 11), ("simpnet-300k", 25)])
    def test_eval_batch_peak_memory(self, name, bound_mib):
        m = train_units_model(name, np.float32)
        x = model_input(m, 256, np.float32)
        tracemalloc.start()
        try:
            m.eval(x)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= bound_mib * 2**20, f"{peak / 2**20:.1f} MiB"

def train_step(m, x, rng, labels):
    """(loss, input gradient, [(name, grad)], [(name, state)]) of one train step without SGD,
    the state (BN running stats included) copied after it."""
    logits = m.forward(x, rng)
    loss, g = L.softmax_xent(logits, labels)
    gx, grads = m.backward(g)
    return loss, gx, [(n, gr) for n, _, gr in grads], [(n, v.copy()) for n, v in m.state_tensors()]


def step_bytes(step):
    loss, gx, grads, state = step
    return loss, gx.tobytes(), [(n, g.tobytes()) for n, g in grads], [(n, v.tobytes()) for n, v in state]


def sliced_train_step(name, n, dtype=np.float32):
    m = train_units_model(name, dtype)
    x = model_input(m, n, dtype)
    return train_step(m, x, SplitRng(3), SplitRng(4).integers(n, 10))


@needs_blas_calls
class TestSlicedTrain:
    # sums over two slices are the same either way round, so 3 * TRAIN_SLICE - 1 (three slices,
    # the last short) is the batch that would show a sum order that depends on the threads
    @pytest.mark.parametrize(
        "name,n",
        [("simpnet-tiny", n) for n in (1, N.TRAIN_SLICE - 1, N.TRAIN_SLICE + 1, 128, 3 * N.TRAIN_SLICE - 1)]
        + [("simpnet-300k", 3 * N.TRAIN_SLICE - 1)],
    )
    def test_step_does_not_depend_on_the_worker_count(self, name, n, workers):
        steps = []
        for k in (1, 2, 4):
            workers(k)
            steps.append(step_bytes(sliced_train_step(name, n)))
        assert steps[1] == steps[0] and steps[2] == steps[0]

    def test_many_workers_and_small_slices_under_fast_thread_switching(self, workers, monkeypatch):
        monkeypatch.setattr(N, "TRAIN_SLICE", 2)
        workers(1)
        ref = step_bytes(sliced_train_step("simpnet-tiny", 41))
        workers(4)  # more threads than cores on a host of 2 or 3
        switch = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            sliced = [step_bytes(sliced_train_step("simpnet-tiny", 41)) for _ in range(2)]
        finally:
            sys.setswitchinterval(switch)
        assert sliced == [ref, ref]

    def test_each_slice_draws_its_rows_of_the_masks_on_its_own_thread(self, workers, monkeypatch):
        workers(2)
        monkeypatch.setattr(N, "TRAIN_SLICE", 2)  # slices 0:2, 2:4 and 4:5; the pool thread runs 2:4
        m = Model(
            [
                L.Conv2d("conv1", 3, 4, 3, 1, 1),
                L.ReLU("relu1"),
                L.Dropout("drop1", 0.3),
                L.SafPool("safpool1", 2, 0.25),
                L.Dropout("drop2", 0.2),
                L.Flatten("flatten1"),
                L.Dense("dense1", 4 * 3 * 3, 5),
            ],
            (3, 6, 6),
        ).init_params(SplitRng(0), np.float32)
        draws, applied = [], []

        def spy_draw(self, shape, p, rows=None, fn=SplitRng.keep_mask):
            keep = fn(self, shape, p, rows)
            draws.append((shape, p, rows, threading.get_ident(), keep))
            return keep

        def spy_pair(x, p, keep, fn=N.relu_dropout_forward):
            applied.append((threading.get_ident(), keep))
            return fn(x, p, keep)

        monkeypatch.setattr(SplitRng, "keep_mask", spy_draw)
        monkeypatch.setattr(N, "relu_dropout_forward", spy_pair)
        for cls in (L.Dropout, L.SafPool):
            def spy_forward(self, x, keep=None, fn=cls.forward):
                applied.append((threading.get_ident(), keep))
                return fn(self, x, keep)
            monkeypatch.setattr(cls, "forward", spy_forward)
        m.forward(model_input(m, 5, np.float32), SplitRng(3))
        masks = [((5, 6, 6, 4), 0.3), ((5, 3, 3, 4), 0.25), ((5, 3, 3, 4), 0.2)]  # channels-last
        slices = [(0, 2), (2, 4), (4, 5)]
        assert sorted(draw[:3] for draw in draws) == sorted((*mask, rows) for mask in masks for rows in slices)
        # every draw is one slice's rows, made on the thread that applies it to that slice
        assert len(applied) == len(draws)
        for thread, keep in applied:
            (drawn_on,) = [t for *_, t, drawn in draws if np.shares_memory(keep, drawn)]
            assert drawn_on == thread
        assert len({thread for *_, thread, _ in draws}) == 2

    @pytest.mark.usefixtures("two_workers")
    def test_shape_error_in_a_pool_slice_names_its_layer(self, monkeypatch):
        def fails_off_the_caller(x, *args, pool=L.maxpool_forward):
            if threading.current_thread() is not threading.main_thread():
                raise ShapeError("raised in a pool slice")
            return pool(x, *args)

        monkeypatch.setattr(L, "maxpool_forward", fails_off_the_caller)
        m = train_units_model("simpnet-tiny", np.float32)
        pool = next(layer.name for layer in m.layers if isinstance(layer, L.SafPool))
        with pytest.raises(ShapeError, match=f"at layer {pool!r}: raised in a pool slice"):
            m.forward(model_input(m, 2 * N.TRAIN_SLICE, np.float32), SplitRng(3))

    @pytest.mark.usefixtures("two_workers")
    @pytest.mark.parametrize("fail", [False, True], ids=["returns", "raises"])
    @pytest.mark.parametrize("phase", ["forward", "backward"])
    def test_waits_for_every_slice_and_restores_blas_threads(self, phase, fail, monkeypatch):
        # pool slices are slowed down, and in the failing case the caller's slice of a conv raises,
        # so a forward or backward that returned before its slices ended would leave one running
        running, threads_seen, lock = [0], set(), threading.Lock()
        name = {"forward": "_conv2d_forward", "backward": "_conv2d_backward"}[phase]
        conv = getattr(L, name)

        def spy(*args, **kwargs):
            with lock:
                running[0] += 1
                threads_seen.add(threading.get_ident())
            try:
                if threading.current_thread() is threading.main_thread():
                    if fail:
                        raise ShapeError("caller slice fails")
                else:
                    time.sleep(0.01)
                return conv(*args, **kwargs)
            finally:
                with lock:
                    running[0] -= 1

        m = train_units_model("simpnet-tiny", np.float32)
        x = model_input(m, 2 * N.TRAIN_SLICE, np.float32)
        get, put = L._BLAS_THREADS
        initial = get()
        try:
            for threads in sorted({1, initial}):
                logits = m.forward(x, SplitRng(3))
                put(threads)
                with monkeypatch.context() as mp:
                    mp.setattr(L, name, spy)
                    run = (lambda: m.forward(x, SplitRng(3))) if phase == "forward" else (lambda: m.backward(logits))
                    if fail:
                        with pytest.raises(ShapeError, match="caller slice fails"):
                            run()
                    else:
                        run()
                assert running[0] == 0
                assert get() == threads
        finally:
            put(initial)
        assert len(threads_seen) == 2


TRAIN_CLI_ARCH = """\
input 1 28 28
group g1
conv 3 6 s1 p1
bn
relu
dropout p0.2
conv 3 8 s1 p1
bn
relu
safpool 2 p0.2
group head
gap
flatten
dense 10
"""


@needs_blas_calls
def test_cli_training_does_not_depend_on_the_blas_thread_count(tmp_path):
    data_dir = tmp_path / "data"
    data_dir.mkdir()
    write_idx_pair(data_dir, "train", 400, seed=77)
    write_idx_pair(data_dir, "t10k", 64, seed=78)
    arch = tmp_path / "det.arch"
    arch.write_text(TRAIN_CLI_ARCH)
    outputs = []
    for threads in ("1", "2"):
        out = tmp_path / f"threads{threads}"
        out.mkdir()
        cmd = [sys.executable, "-m", "simpnet.cli", "train", "--arch", str(arch), "--dataset", "mnist"]
        cmd += ["--data-dir", str(data_dir), "--deterministic", "--seed", "7", "--epochs", "2"]
        cmd += ["--batch-size", str(3 * N.TRAIN_SLICE - 7), "--out-metrics", str(out / "metrics.csv")]
        cmd += ["--out-ckpt", str(out / "model.snpk")]
        env = dict(os.environ, PYTHONPATH=ENGINE_SRC, OPENBLAS_NUM_THREADS=threads)
        proc = subprocess.run(cmd, capture_output=True, text=True, env=env)
        assert proc.returncode == 0, proc.stderr[-2000:]
        outputs.append(((out / "metrics.csv").read_bytes(), (out / "model.snpk").read_bytes()))
    assert outputs[0][0] == outputs[1][0], "metrics CSVs differ between BLAS thread counts"
    assert outputs[0][1] == outputs[1][1], "checkpoints differ between BLAS thread counts"


def conv_bias(name):
    return name.startswith("conv") and name.endswith(".bias")


class TestWholeStepNumerics:
    """One train step of a packaged preset against exact references.

    In float64, the sliced step through Model against a plain walk of each
    layer's own forward and backward on the whole batch: they differ only in
    the order of sums, so they agree to 1e-12 of each tensor's largest value.
    A conv bias that a batch norm follows has an exact gradient of 0, so its
    float64 gradient is roundoff; it is held to 1e-12 of its conv weight's
    largest gradient instead.

    In float32, the step and one eval batch against float64 from the same
    float32-rounded weights and inputs, at batch 128 (conv biases left out).
    """

    @pytest.mark.parametrize("name", ["simpnet-tiny", "simpnet-300k"])
    def test_sliced_step_matches_the_layer_walk_in_float64(self, name, workers):
        n = N.TRAIN_SLICE + 5  # a full slice and a short one where the BLAS thread calls are found
        ref = train_units_model(name, np.float64)
        x, labels = model_input(ref, n, np.float64), SplitRng(4).integers(n, 10)
        logits, ref_gx, ref_grads = layer_by_layer_train_step(ref, x, SplitRng(3), labels)
        ref_loss, ref_grads = L.softmax_xent(logits, labels)[0], {nm: g for nm, _, g in ref_grads}
        for k in (1, 2):
            workers(k)
            loss, gx, grads, state = sliced_train_step(name, n, np.float64)
            assert abs(loss - ref_loss) <= 1e-12 * abs(ref_loss)
            assert rel_max(gx, ref_gx) <= 1e-12
            assert [nm for nm, _ in grads] == list(ref_grads)
            for name_, g in grads:
                scale = np.abs(ref_grads[name_.replace(".bias", ".weight") if conv_bias(name_) else name_]).max()
                assert np.abs(g - ref_grads[name_]).max() <= 1e-12 * scale, (k, name_)
            for (name_, v), (_, ref_v) in zip(state, ref.state_tensors(), strict=True):  # running stats, and params
                assert np.abs(v - ref_v).max() <= 1e-12 * np.abs(ref_v).max(), (k, name_)

    # Max abs error over the max abs float64 value, per tensor, with numpy 2.4 and OpenBLAS 0.3.31.
    # Sliced step, slices of 64 at one BLAS thread: gradients worst 3.2e-2 on simpnet-tiny and 3.5e-2
    # on simpnet-300k (medians 1.1e-2 and 8.2e-3), eval logits 6.6e-7 and 8.4e-7, loss 6.0e-8 and
    # 8.5e-8. The whole-batch step at two BLAS threads it replaced: 4.0e-2 and 3.7e-2, 1.5e-6 and
    # 3.0e-6, 3.4e-8 and 2.7e-7. The bounds are about 1.75x, 2x and 1.9x the worst of these.
    GRAD_BOUND, EVAL_BOUND, LOSS_BOUND = 7e-2, 6e-6, 5e-7

    @pytest.mark.parametrize("name", ["simpnet-tiny", "simpnet-300k"])
    def test_float32_step_and_eval_stay_near_float64(self, name):
        m32, m64 = train_units_model(name, np.float32), train_units_model(name, np.float64)
        for (_, v32), (_, v64) in zip(m32.state_tensors(), m64.state_tensors()):
            v64[...] = v32
        x, labels = model_input(m32, 128, np.float32), SplitRng(4).integers(128, 10)
        steps = [train_step(m, x.astype(m_dtype), SplitRng(3), labels) for m, m_dtype in ((m32, np.float32), (m64, np.float64))]
        (loss32, _, grads32, _), (loss64, _, grads64, _) = steps
        errors = {n: rel_max(g32, g64) for (n, g32), (_, g64) in zip(grads32, grads64) if not conv_bias(n)}
        x_eval = model_input(m32, 256, np.float32, seed=6)
        eval_error = rel_max(m32.eval(x_eval), m64.eval(x_eval.astype(np.float64)))
        loss_error = abs(loss32 - loss64) / abs(loss64)
        worst = max(errors, key=errors.get)
        print(
            f"{name} float32 drift: gradients median {np.median(list(errors.values())):.2e}, "
            f"worst {errors[worst]:.2e} ({worst}); eval logits {eval_error:.2e}; loss {loss_error:.2e}"
        )
        assert errors[worst] <= self.GRAD_BOUND, worst
        assert eval_error <= self.EVAL_BOUND
        assert loss_error <= self.LOSS_BOUND


class TestParamCounting:
    def test_conv_3x3_3_to_64(self):
        m = Model([L.Conv2d("conv1", 3, 64, 3, 1, 1)], (3, 32, 32))
        assert count_macs(m).total_params == 1792

    def test_dense_256_to_10(self):
        m = Model([L.Flatten("flatten1"), L.Dense("dense1", 256, 10)], (1, 16, 16))
        assert count_macs(m).total_params == 2570

    def test_invariant_to_input_size(self):
        a = Model([L.Conv2d("conv1", 3, 8, 3, 1, 1)], (3, 32, 32))
        b = Model([L.Conv2d("conv1", 3, 8, 3, 1, 1)], (3, 64, 64))
        assert count_macs(a).total_params == count_macs(b).total_params

    def test_simpnet_builder_matches_hand_summation(self):
        widths = [16, 16, 16, 16, 16, 32, 32, 32, 32, 32, 64, 64, 64]
        spec = load_script("gen_presets").conv_stack(widths, (5, 10), input_shape=(3, 32, 32))
        total = count_macs(build(spec)).total_params
        # independent closed-form ledger: conv kxk + bias + bn(gamma, beta)
        expected = 0
        c_in = 3
        for w in widths:
            expected += w * c_in * 9 + w  # conv + bias
            expected += 2 * w  # batchnorm
            c_in = w
        expected += widths[-1] * 10 + 10  # classifier head
        assert total == expected

    def test_ledger_row_totals_sum(self):
        spec = load_script("gen_presets").conv_stack([8] * 5 + [16] * 5 + [24] * 3, (5, 10), input_shape=(3, 32, 32))
        ledger = count_macs(build(spec))
        assert ledger.total_params == sum(r.param_count for r in ledger.rows)


class TestMacCounting:
    def test_conv_closed_form(self):
        m = Model([L.Conv2d("conv1", 3, 64, 3, 1, 1)], (3, 32, 32))
        assert count_macs(m).total_macs == 64 * 32 * 32 * 3 * 9 == 1_769_472

    def test_5x5_vs_3x3_ratio_exact(self):
        from fractions import Fraction

        m3 = Model([L.Conv2d("conv1", 3, 64, 3, 1, 1)], (3, 32, 32))
        m5 = Model([L.Conv2d("conv1", 3, 64, 5, 1, 2)], (3, 32, 32))
        ratio = Fraction(count_macs(m5).total_macs, count_macs(m3).total_macs)
        assert ratio == Fraction(25, 9)

    def test_pooling_counts_zero(self):
        m = Model([L.SafPool("pool1", 2), L.SafPool("safpool1", 2), L.GlobalAvgPool("gap1")], (3, 8, 8))
        assert count_macs(m).total_macs == 0

    def test_scales_linearly_in_spatial_output(self):
        small = count_macs(Model([L.Conv2d("conv1", 3, 8, 3, 1, 1)], (3, 16, 16))).total_macs
        big = count_macs(Model([L.Conv2d("conv1", 3, 8, 3, 1, 1)], (3, 32, 32))).total_macs
        assert big == 4 * small

    def test_dense_macs(self):
        m = Model([L.Flatten("flatten1"), L.Dense("dense1", 256, 10)], (1, 16, 16))
        assert count_macs(m).total_macs == 2560


class TestCheckpoint:
    def test_round_trip_bit_identical_files(self, tmp_path):
        m = toy_model(np.float32, seed=3)
        p1, p2 = tmp_path / "a.snpk", tmp_path / "b.snpk"
        save_checkpoint(m, p1)
        m2 = toy_model(np.float32, seed=9)  # different init
        load_checkpoint(m2, p1)
        save_checkpoint(m2, p2)
        assert p1.read_bytes() == p2.read_bytes()

    def test_round_trip_preserves_eval_outputs(self, tmp_path):
        m = toy_model(np.float32, seed=3)
        x = SplitRng(1).uniform((2, 3, 6, 6), -1, 1).astype(np.float32)
        before = m.eval(x)
        path = tmp_path / "m.snpk"
        save_checkpoint(m, path)
        m2 = toy_model(np.float32, seed=5)
        load_checkpoint(m2, path)
        after = m2.eval(x)
        assert before.tobytes() == after.tobytes()

    def test_a_failed_write_keeps_the_old_file_and_leaves_no_temporary(self, tmp_path, monkeypatch):
        # the disk fills up after the first tensor of a new checkpoint
        path = tmp_path / "m.snpk"
        save_checkpoint(toy_model(np.float32, seed=0), path)
        old = path.read_bytes()
        name, value = toy_model(np.float32).state_tensors()[0]
        room = 5 + 2 + len(name) + 2 + 4 * value.ndim + value.nbytes  # magic and version, then one tensor
        real_open = open

        class FullDisk:
            def __init__(self, f):
                self.f, self.room = f, room

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                self.f.close()

            def write(self, data):
                if len(data) > self.room:
                    raise OSError(errno.ENOSPC, "No space left on device")
                self.room -= len(data)
                return self.f.write(data)

        with monkeypatch.context() as mp:
            mp.setattr("builtins.open", lambda file, mode="r", *a, **k: FullDisk(real_open(file, mode, *a, **k)))
            with pytest.raises(OSError, match="No space left") as e:
                save_checkpoint(toy_model(np.float32, seed=1), path)
        assert path.read_bytes() == old
        assert os.listdir(tmp_path) == ["m.snpk"]
        assert e.value.filename == str(path)

    def test_running_stats_round_trip(self, tmp_path):
        m = toy_model(np.float32, seed=3)
        x = SplitRng(2).uniform((4, 3, 6, 6), -1, 1).astype(np.float32)
        m.forward(x, SplitRng(0))  # moves BN running stats
        path = tmp_path / "m.snpk"
        save_checkpoint(m, path)
        tensors = read_checkpoint(path)
        bn = [l for l in m.layers if l.kind == "bn"][0]
        assert np.array_equal(tensors["bn1.running_mean"], bn.running_mean)

    def test_corrupted_magic(self, tmp_path):
        m = toy_model(np.float32)
        path = tmp_path / "m.snpk"
        save_checkpoint(m, path)
        raw = bytearray(path.read_bytes())
        raw[:4] = b"XXXX"
        path.write_bytes(bytes(raw))
        with pytest.raises(FormatError, match="magic"):
            read_checkpoint(path)

    def test_truncation(self, tmp_path):
        m = toy_model(np.float32)
        path = tmp_path / "m.snpk"
        save_checkpoint(m, path)
        raw = path.read_bytes()
        path.write_bytes(raw[: len(raw) - 7])
        with pytest.raises(FormatError, match="truncated"):
            read_checkpoint(path)

    def test_dims_overflowing_int64_fail_as_truncated(self, tmp_path):
        path = tmp_path / "huge.snpk"
        path.write_bytes(b"SNPK\x01" + struct.pack("<H", 1) + b"w" + struct.pack("<BB2I", 0, 2, 0xFFFFFFFF, 0xFFFFFFFF))
        with pytest.raises(FormatError, match="truncated"):
            read_checkpoint(path)

    @pytest.mark.parametrize("ndim", [65, 255])
    def test_ndim_over_the_limit_fails_naming_the_file(self, tmp_path, ndim):
        path = tmp_path / "deep.snpk"
        dims = struct.pack(f"<BB{ndim}I", 0, ndim, *[1] * ndim)
        path.write_bytes(b"SNPK\x01" + struct.pack("<H", 1) + b"w" + dims + bytes(4))
        with pytest.raises(FormatError, match=f"{path}: tensor 'w' has {ndim} dims, over the limit of 32"):
            read_checkpoint(path)

    def test_mismatched_arch_names_first_mismatch(self, tmp_path):
        m = toy_model(np.float32)
        path = tmp_path / "m.snpk"
        save_checkpoint(m, path)
        other = Model([L.Dense("dense9", 4, 2)], (1, 1, 4))
        other.layers[0].init_params(SplitRng(0), np.float32)
        with pytest.raises(CompatibilityError, match="conv1.weight|dense9"):
            load_checkpoint(other, path)

    def test_shape_mismatch_detected(self, tmp_path):
        m = Model([L.Dense("dense1", 4, 2)], (1, 1, 4))
        m.layers[0].init_params(SplitRng(0), np.float32)
        path = tmp_path / "m.snpk"
        save_checkpoint(m, path)
        bigger = Model([L.Dense("dense1", 8, 2)], (1, 1, 8))
        bigger.layers[0].init_params(SplitRng(0), np.float32)
        with pytest.raises(CompatibilityError, match="shape mismatch"):
            load_checkpoint(bigger, path)

    def test_refuses_non_finite(self, tmp_path):
        m = toy_model(np.float32)
        m.layers[0].weight[0, 0, 0, 0] = np.nan
        with pytest.raises(ValueError, match="non-finite"):
            save_checkpoint(m, tmp_path / "bad.snpk")

    def test_duplicate_param_names_rejected(self):
        with pytest.raises(ValueError, match="duplicate"):
            Model([L.Dense("d", 4, 2), L.Dense("d", 2, 2)], (1, 1, 4))

    def test_float64_round_trip(self, tmp_path):
        m = toy_model(np.float64, seed=4)
        path = tmp_path / "m64.snpk"
        save_checkpoint(m, path)
        tensors = read_checkpoint(path)
        assert tensors["conv1.weight"].dtype == np.float64
        m2 = toy_model(np.float64, seed=8)
        load_checkpoint(m2, path)
        x = SplitRng(3).uniform((2, 3, 6, 6))
        assert m.eval(x).tobytes() == m2.eval(x).tobytes()

    def test_dtype_mismatch_rejected(self, tmp_path):
        m = toy_model(np.float64, seed=4)
        path = tmp_path / "m64.snpk"
        save_checkpoint(m, path)
        m32 = toy_model(np.float32, seed=4)
        with pytest.raises(CompatibilityError, match="dtype"):
            load_checkpoint(m32, path)
