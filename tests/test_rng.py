import hashlib

import numpy as np
import pytest

from simpnet import layers as L
from simpnet.rng import _GOLDEN, _MASK_BLOCK, _SPLIT_SALT, MASK_STREAM_VERSION, SplitRng, _mix64

# sha256 of np.packbits(SplitRng(2024).keep_mask((2, 3, 5, 7), 0.3)) under mask
# stream v2 (MASK_STREAM_VERSION). Dropout and SAF-pool masks come from this
# stream, so a change to it changes every trained model: bump the version and
# update this digest together.
KEEP_MASK_SHA256 = "76c5cd4bcf993c44fcf98e3764a9b24feb695717c6283a68e198994a753be428"


def lane_reference(seed, n):
    """The 16-bit lanes of mask stream v2: lane j of draw i is element 4i+j."""
    draws = SplitRng(seed)._next_u64(-(-n // 4))
    shifts = np.array([0, 16, 32, 48], dtype=np.uint64)
    return ((draws[:, None] >> shifts) & np.uint64(0xFFFF)).ravel()[:n]


def test_same_seed_bit_identical():
    a = SplitRng(42).uniform((3, 4, 5), -1, 1)
    b = SplitRng(42).uniform((3, 4, 5), -1, 1)
    assert a.tobytes() == b.tobytes()


def test_different_seeds_differ():
    a = SplitRng(1).uniform(100)
    b = SplitRng(2).uniform(100)
    assert not np.array_equal(a, b)


def test_counter_advances_within_stream():
    r = SplitRng(7)
    a = r.uniform(10)
    b = r.uniform(10)
    assert not np.array_equal(a, b)
    # consecutive draws equal one combined draw
    r2 = SplitRng(7)
    both = r2.uniform(20)
    assert np.array_equal(np.concatenate([a, b]), both)


def test_split_is_independent_of_parent_consumption():
    child_before = SplitRng(5).split(3).uniform(8)
    parent = SplitRng(5)
    parent.uniform(100)
    child_after = parent.split(3).uniform(8)
    assert np.array_equal(child_before, child_after)


def test_split_labels_distinguish():
    r = SplitRng(5)
    assert not np.array_equal(r.split(1).uniform(8), r.split(2).uniform(8))
    assert not np.array_equal(r.split(1, 2).uniform(8), r.split(2, 1).uniform(8))


def test_split_keys_match_the_uint64_formula():
    # a child key is mix64(key ^ mix64(label * salt + golden)) per label, in uint64 arithmetic
    def reference(seed, labels):
        key = np.uint64(seed)
        with np.errstate(over="ignore"):
            for label in labels:
                salted = np.array([int(label) & 0xFFFFFFFFFFFFFFFF], np.uint64) * _SPLIT_SALT + _GOLDEN
                key = _mix64(np.array([key]) ^ _mix64(salted))[0]
        return int(key)

    for seed in (0, 123, 2**63 + 11, 2**64 - 1):
        for labels in [(0,), (2**40,), (-1,), (1, 2, 3), (7, -3), (2**64 + 5,)]:
            assert int(SplitRng(seed).split(*labels).key) == reference(seed, labels), (seed, labels)
    keys = [int(SplitRng(123).split(label).key) for label in (0, 2**40, -1)]
    assert keys == [3253677160263379629, 10322150769254337609, 11095791246661193373]


def test_uniform_bounds_and_mean():
    u = SplitRng(3).uniform(10_000, -1, 1)
    assert u.min() >= -1 and u.max() < 1
    assert abs(u.mean()) < 0.05  # law-of-large-numbers check


def test_uniform_degenerate_interval_rejected():
    with pytest.raises(ValueError):
        SplitRng(0).uniform(4, 5, 5)


def test_normal_moments():
    z = SplitRng(11).normal(100_000)
    assert abs(z.mean()) < 0.02
    assert abs(z.std() - 1.0) < 0.02


def test_permutation_is_permutation_and_deterministic():
    p1 = SplitRng(9).permutation(1000)
    p2 = SplitRng(9).permutation(1000)
    assert np.array_equal(p1, p2)
    assert np.array_equal(np.sort(p1), np.arange(1000))


def test_keep_mask_fraction():
    m = SplitRng(13).keep_mask(100_000, 0.3)
    assert set(np.unique(m)) <= {0.0, 1.0}
    assert abs(m.mean() - 0.7) < 0.01


def test_keep_mask_stream_pinned():
    assert MASK_STREAM_VERSION == 2
    m = SplitRng(2024).keep_mask((2, 3, 5, 7), 0.3)
    assert hashlib.sha256(np.packbits(m).tobytes()).hexdigest() == KEEP_MASK_SHA256


def test_keep_mask_is_lanes_at_or_above_threshold():
    shape = (2, 3, 5, 7)  # 210 elements: the last draw has two unused lanes
    m = SplitRng(2024).keep_mask(shape, 0.3)
    assert np.array_equal(m, (lane_reference(2024, 210) >= int(0.3 * 65536)).reshape(shape))


@pytest.mark.parametrize(
    "n",
    [4 * _MASK_BLOCK + 3, 1000, 4 * 3 * _MASK_BLOCK + 4 * 100],
    ids=["not-multiple-of-4", "under-one-block", "several-blocks"],
)
def test_keep_mask_blocks_match_whole_stream_formula(n):
    # keep_mask draws a block at a time; the mask is the whole stream's lanes against the threshold,
    # also after an earlier draw left the counter mid-block
    r = SplitRng(31)
    r.keep_mask(5, 0.3)  # two draws
    lanes = lane_reference(31, 8 + n)[8:]
    for p in (0.1, 0.5):
        m = SplitRng(31).keep_mask(n, p)
        assert np.array_equal(m, lane_reference(31, n) >= int(p * 65536))
    assert np.array_equal(r.keep_mask((1, n), 0.3), (lanes >= int(0.3 * 65536)).reshape(1, n))
    assert r.counter == 2 + -(-n // 4)


def test_keep_mask_counter_advances_by_draws_of_four_lanes():
    r = SplitRng(2024)
    r.keep_mask((2, 3, 5, 7), 0.3)
    assert r.counter == 53
    r.keep_mask(5, 0.3)
    assert r.counter == 55


@pytest.mark.parametrize(
    "shape",
    [(5, 3, 3, 7), (9, 13), (3, 4 * _MASK_BLOCK + 5)],
    ids=["4-d", "2-d", "rows-of-several-blocks"],
)
@pytest.mark.parametrize("before", [0, 5], ids=["counter-0", "counter-2"])
def test_keep_mask_rows_join_to_the_whole_mask(shape, before):
    # rows of 63, 13 and 4 * _MASK_BLOCK + 5 elements (none a multiple of 4), so ranges start at
    # lanes 1-3 of a draw; row ranges of every length, the empty one included
    whole_rng, rows_rng = SplitRng(606), SplitRng(606)
    for r in (whole_rng, rows_rng):
        r.keep_mask(before, 0.3)
    counter = rows_rng.counter
    whole = whole_rng.keep_mask(shape, 0.3)
    n = shape[0]
    for bounds in ([0, n], [0, 1, 2, n], [0, 0, n - 1, n], list(range(n + 1))):
        parts = [rows_rng.keep_mask(shape, 0.3, (lo, hi)) for lo, hi in zip(bounds, bounds[1:])]
        assert [p.shape for p in parts] == [(hi - lo, *shape[1:]) for lo, hi in zip(bounds, bounds[1:])]
        assert np.concatenate(parts).tobytes() == whole.tobytes()
        assert rows_rng.counter == counter  # a range leaves a stream that threads share as it was
    # the rows took nothing from the stream: a whole draw after them is the same mask, and it
    # advances the counter as one whole draw does
    assert rows_rng.keep_mask(shape, 0.3).tobytes() == whole.tobytes()
    assert rows_rng.counter == whole_rng.counter == counter + -(-int(np.prod(shape)) // 4)


def test_keep_mask_rows_outside_the_mask_rejected():
    r = SplitRng(1)
    for rows in ((0, 4), (-1, 2), (2, 1)):
        with pytest.raises(ValueError, match="outside the mask"):
            r.keep_mask((3, 5), 0.3, rows)
    assert r.counter == 0


def test_keep_mask_drop_p_quantized_to_16_bits():
    n = 1_000_000
    lanes = lane_reference(77, n)
    assert (lanes == 6552).any() and (lanes == 6553).any()  # both sides of the threshold occur
    m = SplitRng(77).keep_mask(n, 0.1)
    assert np.array_equal(m, lanes >= 6553)


def test_layers_draw_their_mask_from_keep_mask():
    x = SplitRng(5).uniform((2, 3, 6, 8), 0.5, 1.5)
    # 4-D masks are drawn channels-last, (n, h, w, c), then viewed as NCHW
    _, mask = L.Dropout("dropout1", 0.3).forward(x, L.keep_mask(x.shape, 0.3, SplitRng(2024)))
    assert np.array_equal(mask, SplitRng(2024).keep_mask((2, 6, 8, 3), 0.3).transpose(0, 3, 1, 2))
    _, (_, mask, _) = L.SafPool("safpool1", 2, 0.3).forward(x, L.keep_mask((2, 3, 3, 4), 0.3, SplitRng(2024)))
    assert np.array_equal(mask, SplitRng(2024).keep_mask((2, 3, 4, 3), 0.3).transpose(0, 3, 1, 2))
    # other ranks draw in their own C order
    flat = x.reshape(2, -1)
    _, mask = L.Dropout("dropout1", 0.3).forward(flat, L.keep_mask(flat.shape, 0.3, SplitRng(2024)))
    assert np.array_equal(mask, SplitRng(2024).keep_mask(flat.shape, 0.3))


def test_integers_range():
    v = SplitRng(17).integers(1000, 7)
    assert v.min() >= 0 and v.max() < 7
