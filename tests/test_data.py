"""Loader bit-exactness against independently written files, plus
normalization, augmentation and batching contracts.

The minimal IDX reader below is the oracle for load_mnist: it parses
the same files with nothing but struct and frombuffer. whole_split is
the oracle for batches: the split normalized as one float32 array.
"""

import struct
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest

from conftest import write_cifar_batch, write_idx_pair
from simpnet import archdsl as A
from simpnet import data as D
from simpnet import train as T
from simpnet.errors import FormatError
from simpnet.rng import SplitRng


def minimal_idx_read(img_path, lbl_path):
    with open(img_path, "rb") as f:
        magic, n, h, w = struct.unpack(">IIII", f.read(16))
        assert magic == 2051
        images = np.frombuffer(f.read(), dtype=np.uint8).reshape(n, h, w)
    with open(lbl_path, "rb") as f:
        magic, n2 = struct.unpack(">II", f.read(8))
        assert magic == 2049
        labels = np.frombuffer(f.read(), dtype=np.uint8)
    return images, labels


class TestMnistLoader:
    def test_matches_independent_reader(self, tmp_path):
        img, lbl = write_idx_pair(tmp_path, "train", 64, seed=3)
        ds = D.load_mnist(img, lbl)
        ref_images, ref_labels = minimal_idx_read(img, lbl)
        assert len(ds) == 64
        assert ds.images.shape == (64, 1, 28, 28)
        assert int(ref_labels[0]) == int(ds.labels[0])
        assert np.array_equal(ds.labels, ref_labels.astype(np.int64))
        assert ds.images.dtype == np.uint8 and np.array_equal(ds.images[:, 0], ref_images)

    def test_pixel_scaling_exact(self, tmp_path):
        images = np.zeros((2, 4, 4), dtype=np.uint8)
        images[0, 0, 0] = 255
        img, lbl = tmp_path / "img", tmp_path / "lbl"
        with open(img, "wb") as f:
            f.write(struct.pack(">IIII", 2051, 2, 4, 4))
            f.write(images.tobytes())
        with open(lbl, "wb") as f:
            f.write(struct.pack(">II", 2049, 2))
            f.write(bytes([1, 2]))
        x, _ = next(D.batches(D.load_mnist(img, lbl), 2))
        assert x[0, 0, 0, 0] == 1.0
        assert x[0, 0, 0, 1] == 0.0

    def test_round_trip_reproduces_source_bytes(self, tmp_path):
        img, lbl = write_idx_pair(tmp_path, "train", 32, seed=5)
        ds = D.load_mnist(img, lbl)
        out_img, out_lbl = tmp_path / "img2", tmp_path / "lbl2"
        D.write_idx_images(ds.images, out_img)
        D.write_idx_labels(ds.labels, out_lbl)
        assert out_img.read_bytes() == open(img, "rb").read()
        assert out_lbl.read_bytes() == open(lbl, "rb").read()

    def test_bad_image_magic(self, tmp_path):
        path = tmp_path / "img"
        path.write_bytes(struct.pack(">IIII", 0xDEAD, 1, 2, 2) + bytes(4))
        with pytest.raises(FormatError, match="magic"):
            D.read_idx(path, 3)

    def test_bad_label_magic(self, tmp_path):
        path = tmp_path / "lbl"
        path.write_bytes(struct.pack(">II", 2051, 1) + bytes(1))
        with pytest.raises(FormatError, match="magic"):
            D.read_idx(path, 1)

    def test_truncated_images(self, tmp_path):
        path = tmp_path / "img"
        path.write_bytes(struct.pack(">IIII", 2051, 4, 28, 28) + bytes(100))
        with pytest.raises(FormatError, match="truncated"):
            D.read_idx(path, 3)

    def test_header_claiming_more_than_the_file_fails_before_reading(self, tmp_path):
        path = tmp_path / "img"
        path.write_bytes(struct.pack(">IIII", 2051, 0xFFFFFFFF, 0xFFFF, 0xFFFF) + bytes(100))
        with pytest.raises(FormatError, match="truncated"):
            D.read_idx(path, 3)

    def test_count_mismatch_between_files(self, tmp_path):
        img, _ = write_idx_pair(tmp_path, "train", 8, seed=1)
        lbl = tmp_path / "short-labels"
        with open(lbl, "wb") as f:
            f.write(struct.pack(">II", 2049, 4))
            f.write(bytes(4))
        with pytest.raises(FormatError, match="mismatch"):
            D.load_mnist(img, lbl)

    def test_label_out_of_range(self, tmp_path):
        img, _ = write_idx_pair(tmp_path, "train", 2, seed=1)
        lbl = tmp_path / "lbl-bad"
        with open(lbl, "wb") as f:
            f.write(struct.pack(">II", 2049, 2))
            f.write(bytes([3, 11]))
        with pytest.raises(FormatError, match="range"):
            D.load_mnist(img, lbl)


class TestCifarLoader:
    def test_canonical_batch_size_constant(self):
        assert D.CIFAR10_BATCH_BYTES == 10_000 * 3073 == 30_730_000

    def test_loads_and_layout(self, tmp_path):
        path = tmp_path / "data_batch_1.bin"
        labels, pixels = write_cifar_batch(path, 16, seed=7)
        ds = D.load_cifar10([path])
        assert ds.images.shape == (16, 3, 32, 32)
        assert np.array_equal(ds.labels, labels.astype(np.int64))
        # record 0, channel R pixel (0,0) is byte offset 1 of the record
        raw = path.read_bytes()
        assert ds.images[0, 0, 0, 0] == raw[1]
        assert ds.images.dtype == np.uint8 and np.array_equal(ds.images[0], pixels[0])

    def test_multiple_batches_concatenate(self, tmp_path):
        paths = []
        for i in range(3):
            p = tmp_path / f"data_batch_{i + 1}.bin"
            write_cifar_batch(p, 8, seed=i)
            paths.append(p)
        ds = D.load_cifar10(paths)
        assert len(ds) == 24

    def test_size_not_multiple_of_record(self, tmp_path):
        path = tmp_path / "bad.bin"
        path.write_bytes(bytes(3073 * 2 + 17))
        with pytest.raises(FormatError, match="multiple"):
            D.load_cifar10([path])

    def test_label_byte_out_of_range(self, tmp_path):
        path = tmp_path / "bad.bin"
        record = bytes([12]) + bytes(3072)
        path.write_bytes(record)
        with pytest.raises(FormatError, match="range"):
            D.load_cifar10([path])


def whole_split(images, mean=None, std=None):
    """The split as one float32 array: pixels / 255, then per channel
    (x - float32(mean)) / float32(std) when statistics are given."""
    x = images.astype(np.float32) / 255.0
    if mean is None:
        return x
    x = x - mean[None, :, None, None].astype(np.float32)
    x /= std[None, :, None, None].astype(np.float32)
    return x


def float64_statistics(images):
    """Per-channel mean and std of the float32 split in one float64 pass."""
    x = whole_split(images)
    return x.mean(axis=(0, 2, 3), dtype=np.float64), x.std(axis=(0, 2, 3), dtype=np.float64)


def f32_bytes(a):
    return np.asarray(a).astype(np.float32).tobytes()


class TestNormalize:
    def test_fit_statistics_tight(self, tmp_path):
        img, lbl = write_idx_pair(tmp_path, "train", 256, seed=11)
        ds = D.normalize(D.load_mnist(img, lbl))
        x = np.concatenate([x for x, _ in D.batches(ds, 100)]).astype(np.float64)
        assert abs(x.mean()) < 1e-6
        assert abs(x.std() - 1.0) < 1e-6
        assert ds.mean is not None and ds.std is not None
        assert ds.images.dtype == np.uint8

    def test_reuse_train_statistics_on_test(self, tmp_path):
        img, lbl = write_idx_pair(tmp_path, "train", 64, seed=1)
        train = D.normalize(D.load_mnist(img, lbl))
        img2, lbl2 = write_idx_pair(tmp_path, "t10k", 32, seed=2)
        test = D.normalize(D.load_mnist(img2, lbl2), mean=train.mean, std=train.std)
        assert np.array_equal(test.mean, train.mean)

    def test_per_channel_statistics_on_cifar(self, tmp_path):
        path = tmp_path / "data_batch_1.bin"
        write_cifar_batch(path, 128, seed=4)
        ds = D.normalize(D.load_cifar10([path]))
        x = np.concatenate([x for x, _ in D.batches(ds, 100)]).astype(np.float64)
        for ch in range(3):
            assert abs(x[:, ch].mean()) < 1e-6
            assert abs(x[:, ch].std() - 1.0) < 1e-6

    @pytest.mark.parametrize("shape", [(3, 32, 32), (1, 28, 28)])
    def test_bytes_match_statistics_of_a_float64_copy(self, shape):
        # every pixel value occurs, so every one of the 256 bins is weighed
        n = 300
        pixels = SplitRng(9).integers(n * shape[0] * shape[1] * shape[2], 256).reshape(n, *shape)
        images = pixels.astype(np.uint8)
        ds = D.normalize(D.Dataset(images, np.zeros(n, np.int64), name="t", num_classes=10))
        mean, std = float64_statistics(images)
        assert f32_bytes(ds.mean) == f32_bytes(mean) and f32_bytes(ds.std) == f32_bytes(std)
        assert np.allclose(ds.mean, mean, rtol=1e-14, atol=0) and np.allclose(ds.std, std, rtol=1e-14, atol=0)
        x = np.concatenate([x for x, _ in D.batches(ds, 128)])
        assert x.dtype == np.float32 and x.tobytes() == whole_split(images, ds.mean, ds.std).tobytes()

    def test_float_images_refused(self):
        with pytest.raises(ValueError, match="uint8"):
            D.Dataset(np.zeros((2, 1, 4, 4), np.float32), np.zeros(2, np.int64), name="t", num_classes=10)

    @pytest.mark.parametrize("fmt", ["mnist", "cifar10"])
    def test_setup_peak_is_within_2_5x_the_pixel_bytes(self, tmp_path, fmt):
        # float32 splits peaked at 12x; one unchunked np.bincount of a
        # channel is an 8x intp copy, so it fails this on MNIST (9x)
        if fmt == "mnist":
            write_idx_pair(tmp_path, "train", 2000, seed=1)
        else:
            for i in range(1, 6):
                write_cifar_batch(tmp_path / f"data_batch_{i}.bin", 200, seed=i)
        tracemalloc.start()
        try:
            ds = D.normalize(D.load_split(fmt, tmp_path, "train"))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 2.5 * ds.images.nbytes


@pytest.fixture(params=["mnist", "cifar10"])
def splits(request):
    """(train, test) loaded from the synthetic files of a format, test
    normalized with the train statistics, and the oracle of each."""
    root = request.getfixturevalue({"mnist": "mnist_dir", "cifar10": "cifar_dir"}[request.param])
    train = D.normalize(D.load_split(request.param, root, "train"))
    test = D.normalize(D.load_split(request.param, root, "test"), mean=train.mean, std=train.std)
    return train, test, whole_split(train.images, train.mean, train.std), whole_split(test.images, train.mean, train.std)


class TestBatchBytes:
    """Batches normalized as they are drawn equal the split normalized whole, byte for byte."""

    def test_shuffled_train_batches(self, splits):
        train, _, whole, _ = splits
        order = SplitRng(4).permutation(len(train))
        drawn = list(D.batches(train, 100, SplitRng(4)))
        assert len(drawn) == -(-len(train) // 100)
        for i, (x, y) in enumerate(drawn):
            idx = order[i * 100 : (i + 1) * 100]
            assert x.tobytes() == whole[idx].tobytes() and np.array_equal(y, train.labels[idx])

    def test_eval_batches(self, splits):
        _, test, _, whole = splits
        x = np.concatenate([x for x, _ in D.batches(test, T.EVAL_BATCH)])
        assert x.tobytes() == whole.tobytes()

    def test_without_statistics(self, splits):
        _, test, _, _ = splits
        raw = replace(test, mean=None, std=None)  # what --no-normalize loads
        x = np.concatenate([x for x, _ in D.batches(raw, 48)])
        assert x.tobytes() == whole_split(test.images).tobytes()

    def test_augmented_batches_reach_the_model(self, splits, monkeypatch):
        train, _, whole, _ = splits
        c, h, w = train.sample_shape
        model = T.init_model(A.build(A.parse(f"input {c} {h} {w}\ngroup g1\nconv 3 4 s1 p1\nrelu\n"
                                             "group head\ngap\nflatten\ndense 10\n")), 0)
        seen, forward = [], model.forward
        monkeypatch.setattr(model, "forward", lambda x, rng: seen.append(x.copy()) or forward(x, rng))
        policy = D.AugmentPolicy(pad=4, crop=0, mirror_p=0.5)
        T.train_loop(model, train, T.TrainConfig(epochs=1, batch_size=50, seed=3, augment_policy=policy, max_steps=2))
        root = SplitRng(3)
        order = root.split(T.SHUFFLE, 1).permutation(len(train))
        for step, x in enumerate(seen, 1):
            want = D.augment(whole[order[(step - 1) * 50 : step * 50]], policy, root.split(T.STEP, 1, step).split(0))
            assert x.tobytes() == want.tobytes()
        assert len(seen) == 2

    def test_ablation_probe(self, splits, monkeypatch):
        train, test, _, whole = splits
        probes = []
        monkeypatch.setattr(T, "train_loop", lambda *a, **k: [])
        monkeypatch.setattr(T, "evaluate", lambda *a, **k: (0.0, 0.0))
        monkeypatch.setattr(T, "relu_dead_fraction", lambda model, probe: probes.append(probe) or 0.0)
        T.ablate("saf-vs-plain-pool", train, test, T.TrainConfig(epochs=1, batch_size=8))
        assert probes and all(p.tobytes() == whole[:64].tobytes() for p in probes)


class TestAugment:
    def test_identity_policy(self):
        x = SplitRng(0).uniform((4, 1, 8, 8))
        out = D.augment(x, D.AugmentPolicy(), SplitRng(1))
        assert np.array_equal(out, x)

    def test_mirror_reflection(self):
        x = np.array([[1.0, 2.0], [3.0, 4.0]], dtype=np.float32).reshape(1, 1, 2, 2)
        out = D.augment(x, D.AugmentPolicy(mirror_p=1.0), SplitRng(0))
        assert np.array_equal(out[0, 0], [[2, 1], [4, 3]])

    def test_mirror_twice_recovers_image(self):
        x = SplitRng(2).uniform((4, 3, 8, 8)).astype(np.float32)
        once = D.augment(x, D.AugmentPolicy(mirror_p=1.0), SplitRng(3))
        twice = D.augment(once, D.AugmentPolicy(mirror_p=1.0), SplitRng(4))
        assert np.array_equal(twice, x)

    def test_pad_crop_leaves_zero_border_when_shifted(self):
        x = np.ones((64, 1, 8, 8), dtype=np.float32)
        out = D.augment(x, D.AugmentPolicy(pad=4, crop=8), SplitRng(5))
        assert out.shape == x.shape
        # at least one crop lands off-center leaving a zero border
        borders = np.array([(out[i] == 0).any() for i in range(64)])
        assert borders.any()
        # the centered crop (offset exactly (4,4)) has no zeros: check
        # that every zero-free image equals the original
        for i in range(64):
            if not (out[i] == 0).any():
                assert np.array_equal(out[i], x[i])

    def test_shape_and_labels_preserved(self):
        x = SplitRng(6).uniform((8, 3, 32, 32)).astype(np.float32)
        out = D.augment(x, D.AugmentPolicy(pad=4, crop=32, mirror_p=0.5), SplitRng(7))
        assert out.shape == x.shape

    def test_crop_larger_than_padded_rejected(self):
        x = np.zeros((1, 1, 8, 8), dtype=np.float32)
        with pytest.raises(ValueError, match="crop"):
            D.augment(x, D.AugmentPolicy(pad=0, crop=12), SplitRng(0))


class TestBatches:
    def _dataset(self, n=10):
        images = np.arange(n, dtype=np.uint8).reshape(n, 1, 1, 1)
        labels = np.arange(n, dtype=np.int64) % 10
        return D.Dataset(images, labels, name="t", num_classes=10)

    def test_sizes_include_short_tail(self):
        sizes = [len(y) for _, y in D.batches(self._dataset(10), 4)]
        assert sizes == [4, 4, 2]

    def test_same_seed_same_order(self):
        ds = self._dataset(32)
        a = [y.tolist() for _, y in D.batches(ds, 8, SplitRng(5))]
        b = [y.tolist() for _, y in D.batches(ds, 8, SplitRng(5))]
        assert a == b

    def test_union_is_exact_permutation(self):
        ds = self._dataset(17)
        seen = np.concatenate([np.rint(x.ravel() * 255) for x, _ in D.batches(ds, 5, SplitRng(3))])
        assert sorted(seen.tolist()) == list(range(17))

    def test_batch_size_validated(self):
        with pytest.raises(ValueError):
            list(D.batches(self._dataset(4), 0))

    def test_subset_truncates(self):
        ds = self._dataset(10).subset(4)
        assert len(ds) == 4


class TestSplitResolution:
    def test_mnist_split_paths(self, mnist_dir):
        train = D.load_split("mnist", mnist_dir, "train")
        test = D.load_split("mnist", mnist_dir, "test")
        assert len(train) == 512 and len(test) == 256

    def test_cifar_split_paths(self, cifar_dir):
        train = D.load_split("cifar10", cifar_dir, "train")
        test = D.load_split("cifar10", cifar_dir, "test")
        assert len(train) == 5 * 64 and len(test) == 64

    def test_unknown_dataset(self):
        with pytest.raises(ValueError, match="unknown dataset"):
            D.load_split("svhn", ".", "train")
