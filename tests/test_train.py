import math

import numpy as np
import pytest

from conftest import memory_dataset
from simpnet import archdsl as A
from simpnet import train as T
from simpnet.data import batches
from simpnet.errors import NumericsError, ShapeError
from simpnet.layers import Dense
from simpnet.network import Model, read_checkpoint
from simpnet.rng import SplitRng

TOY_ARCH = A.parse(
    "input 1 8 8\ngroup g1\nconv 3 6 s1 p1\nbn\nrelu\nsafpool 2 p0.1\n"
    "group head\ngap\nflatten\ndense 4\n",
    name="toy",
)


def toy_model(seed=0):
    model = A.build(TOY_ARCH)
    return T.init_model(model, seed)


class TestSgdStep:
    def _param(self, w, g):
        return [("w", np.asarray(w, dtype=np.float64), np.asarray(g, dtype=np.float64))]

    def test_plain_sgd_when_momentum_zero(self):
        w = np.array([1.0, 2.0])
        p = [("w", w, np.array([0.5, -0.5]))]
        T.sgd_step(p, {}, lr=0.1, momentum=0.0, weight_decay=0.0)
        assert np.allclose(w, [0.95, 2.05])

    def test_zero_grad_zero_wd_is_fixed_point(self):
        w = np.array([3.0])
        T.sgd_step([("w", w, np.zeros(1))], {}, lr=0.5, momentum=0.0, weight_decay=0.0)
        assert w.tolist() == [3.0]

    def test_two_steps_momentum_hand_recurrence(self):
        g = 0.7
        w = np.array([10.0])
        vel = {}
        params = [("w", w, np.array([g]))]
        T.sgd_step(params, vel, lr=1.0, momentum=0.9, weight_decay=0.0)
        T.sgd_step(params, vel, lr=1.0, momentum=0.9, weight_decay=0.0)
        assert np.allclose(vel["w"], [-1.9 * g])
        assert np.allclose(w, [10.0 - 2.9 * g])

    def test_weight_decay_matches_direct_recurrence(self):
        lr, wd, mom, steps = 0.1, 0.01, 0.9, 25
        w = np.array([2.0])
        vel = {}
        for _ in range(steps):
            T.sgd_step([("w", w, np.zeros(1))], vel, lr, mom, wd)
        w_ref, v_ref = 2.0, 0.0
        for _ in range(steps):
            v_ref = mom * v_ref - lr * (wd * w_ref)
            w_ref += v_ref
        assert np.allclose(w, [w_ref], rtol=0, atol=1e-15)

    def test_non_finite_gradient_names_tensor(self):
        w = np.array([1.0])
        with pytest.raises(NumericsError, match="'w'"):
            T.sgd_step([("w", w, np.array([np.nan]))], {}, 0.1, 0.0, 0.0)


class TestSchedule:
    def test_default_drops_at_50_and_75_pct(self):
        cfg = T.TrainConfig(epochs=8, lr=1.0)
        lrs = [T.lr_at(cfg, e) for e in range(1, 9)]
        assert lrs[:4] == [1.0] * 4
        assert lrs[4:6] == pytest.approx([0.2, 0.2])
        assert lrs[6:] == pytest.approx([0.04, 0.04])

    def test_explicit_schedule(self):
        cfg = T.TrainConfig(epochs=4, lr=1.0, schedule=((3, 0.5),))
        assert T.lr_at(cfg, 2) == 1.0
        assert T.lr_at(cfg, 3) == 0.5

    def test_config_validation(self):
        bad = [
            {"lr": 0.0},
            {"lr": math.nan},
            {"lr": math.inf},
            {"momentum": 1.0},
            {"weight_decay": -1.0},
            {"weight_decay": math.nan},
            {"weight_decay": math.inf},
            {"batch_size": 0},
            {"batch_size": -1},
        ]
        for options in bad:
            with pytest.raises(ValueError):
                T.TrainConfig(**options)


class TestEvaluate:
    def test_constant_logits_chance_level(self):
        from simpnet.data import Dataset

        class ConstDense(Dense):
            def eval(self, x):
                return np.zeros((x.shape[0], self.m))

        model = Model([ConstDense("dense1", 4, 10)], (1, 1, 4))
        model.layers[0].init_params(SplitRng(0), np.float32)
        images = np.zeros((100, 1, 1, 4), dtype=np.uint8)
        labels = np.repeat(np.arange(10), 10).astype(np.int64)  # balanced
        ds = Dataset(images, labels, name="t", num_classes=10)
        _, top1 = T.evaluate(model, ds)
        assert top1 == pytest.approx(0.1)

    def test_memorized_toy_reaches_one(self):
        ds = memory_dataset(n=16, shape=(1, 8, 8), classes=4, seed=1)
        arch = A.parse(
            "input 1 8 8\ngroup g1\nconv 3 8 s1 p1\nbn\nrelu\nmaxpool 2\n"
            "group head\ngap\nflatten\ndense 4\n",
            name="memorizer",
        )
        model = T.init_model(A.build(arch), 2)
        cfg = T.TrainConfig(
            epochs=60, batch_size=16, lr=0.1, momentum=0.9, weight_decay=0.0, seed=2, schedule=()
        )
        T.train_loop(model, ds, cfg)
        _, top1 = T.evaluate(model, ds)
        assert top1 == 1.0

    def test_evaluate_twice_identical(self):
        ds = memory_dataset(n=16)
        model = toy_model()
        assert T.evaluate(model, ds) == T.evaluate(model, ds)

    def test_failed_evaluate_leaves_model_ready_to_train(self):
        model = toy_model()
        with pytest.raises(ShapeError):
            T.evaluate(model, memory_dataset(n=4, shape=(1, 1, 1)))  # too small for the 2x2 pool
        model.forward(next(batches(memory_dataset(n=4), 4))[0], SplitRng(0))
        _, grads = model.backward(np.ones((4, 4), dtype=np.float32))
        assert any(np.any(g) for _, _, g in grads)


class TestTrainLoop:
    def test_loss_decreases_on_smoke_run(self):
        ds = memory_dataset(n=256, shape=(1, 8, 8), classes=4, seed=3)
        model = toy_model(seed=3)
        cfg = T.TrainConfig(epochs=2, batch_size=32, lr=0.05, momentum=0.9, weight_decay=1e-4, seed=3)
        rows = T.train_loop(model, ds, cfg)
        train_rows = [r for r in rows if r.split == "train"]
        assert len(train_rows) == 2
        assert train_rows[1].loss < train_rows[0].loss

    def test_lr_zero_like_fixed_point(self):
        # lr must be > 0 by contract; the fixed-point check uses a tiny lr
        ds = memory_dataset(n=32)
        model = toy_model(seed=4)
        params = [entry for layer in model.layers for entry in layer.param_entries()]
        before = {n: v.copy() for n, v in params}
        cfg = T.TrainConfig(epochs=1, batch_size=16, lr=1e-30, momentum=0.0, weight_decay=0.0, seed=4)
        T.train_loop(model, ds, cfg)
        for n, v in params:
            assert np.allclose(v, before[n], atol=1e-12)

    def test_metrics_stream_deterministic(self, tmp_path):
        ds = memory_dataset(n=64, seed=5)
        test = memory_dataset(n=32, seed=6)
        paths = []
        for run in range(2):
            model = toy_model(seed=7)
            cfg = T.TrainConfig(epochs=2, batch_size=16, seed=7, deterministic=True, lr=0.05)
            p = tmp_path / f"m{run}.csv"
            T.train_loop(model, ds, cfg, test_ds=test, metrics_path=p)
            paths.append(p)
        assert paths[0].read_bytes() == paths[1].read_bytes()

    def test_metrics_csv_format(self, tmp_path):
        ds = memory_dataset(n=32, seed=8)
        model = toy_model(seed=8)
        cfg = T.TrainConfig(epochs=1, batch_size=16, seed=8, deterministic=True, lr=0.05)
        p = tmp_path / "m.csv"
        T.train_loop(model, ds, cfg, test_ds=ds, metrics_path=p)
        lines = p.read_text().splitlines()
        assert lines[0] == "epoch,step,split,loss,top1,lr,seconds"
        assert len(lines) == 3  # header + train + test
        fields = lines[1].split(",")
        assert fields[2] == "train"
        assert fields[6] == "0"  # deterministic mode zeroes wall seconds
        float(fields[3])

    def test_eval_rows_ignore_the_training_batch_size(self):
        # a training batch of 300 must not make eval run slices of 300 - 9 * 32 = 12 images
        model = toy_model(seed=11)
        test = memory_dataset(n=512, seed=12)
        cfg = T.TrainConfig(epochs=1, batch_size=300, seed=11, lr=0.05, max_steps=1)
        row = T.train_loop(model, memory_dataset(n=300, seed=11), cfg, test_ds=test)[-1]
        assert row.split == "test" and (row.loss, row.top1) == T.evaluate(model, test)

    def test_max_steps_stops_early(self):
        ds = memory_dataset(n=64, seed=9)
        model = toy_model(seed=9)
        cfg = T.TrainConfig(epochs=10, batch_size=16, seed=9, lr=0.05, max_steps=5)
        rows = T.train_loop(model, ds, cfg)
        assert rows[-1].step == 5

    def test_overfit_one_batch_loss_decreases(self):
        ds = memory_dataset(n=16, shape=(1, 8, 8), classes=4, seed=10)
        model = toy_model(seed=10)
        from simpnet.layers import softmax_xent

        cfg_losses = []
        vel = {}
        x, y = next(batches(ds, len(ds)))
        rng = SplitRng(10)
        for step in range(20):
            logits = model.forward(x, rng.split(2, 1, step))
            loss, grad = softmax_xent(logits, y)
            cfg_losses.append(loss)
            _, grads = model.backward(grad)
            T.sgd_step(grads, vel, 0.05, 0.9, 0.0)
        assert cfg_losses[-1] < cfg_losses[0]
        drops = sum(1 for a, b in zip(cfg_losses, cfg_losses[1:]) if b < a)
        assert drops >= 15  # decreasing in nearly every step

    def test_non_finite_loss_aborts_with_checkpoint(self, tmp_path):
        ds = memory_dataset(n=32, seed=11)
        model = toy_model(seed=11)
        # saturate the classifier weights: float32-finite, but the logit
        # reduction overflows to inf - inf = nan on the first forward
        dense = [l for l in model.layers if l.kind == "dense"][0]
        dense.weight[:] = 3e38
        cfg = T.TrainConfig(epochs=1, batch_size=16, seed=11, lr=10.0)
        ckpt = tmp_path / "last.snpk"
        with np.errstate(over="ignore", invalid="ignore"), pytest.raises(NumericsError, match="non-finite"):
            T.train_loop(model, ds, cfg, ckpt_path=ckpt)
        # the file holds the last good (pre-step) state, all finite
        tensors = read_checkpoint(ckpt)
        for name, value in tensors.items():
            assert np.all(np.isfinite(value)), name

    def test_final_checkpoint_written_and_loadable(self, tmp_path):
        ds = memory_dataset(n=32, seed=12)
        model = toy_model(seed=12)
        cfg = T.TrainConfig(epochs=1, batch_size=16, seed=12, lr=0.05)
        ckpt = tmp_path / "final.snpk"
        T.train_loop(model, ds, cfg, ckpt_path=ckpt)
        tensors = read_checkpoint(ckpt)
        assert "conv1.weight" in tensors

    def test_bit_identical_checkpoints_across_runs(self, tmp_path):
        ds = memory_dataset(n=64, seed=13)
        blobs = []
        for run in range(2):
            model = toy_model(seed=13)
            cfg = T.TrainConfig(epochs=2, batch_size=16, seed=13, deterministic=True, lr=0.05)
            p = tmp_path / f"c{run}.snpk"
            T.train_loop(model, ds, cfg, ckpt_path=p)
            blobs.append(p.read_bytes())
        assert blobs[0] == blobs[1]
