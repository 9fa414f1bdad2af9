"""Counter-based splittable random number generator.

Every random decision in the engine (weight init, shuffling, dropout
masks, augmentation) flows through a `SplitRng` owned by the caller.
There is no global generator. The design is counter-based: draw i of a
stream keyed by k is a pure function mix(k, i), so identical keys give
bit-identical streams regardless of how other streams interleave, and
a stream can be split into independent child streams by label.

The mixer is splitmix64 (Steele, Lea & Flood's finalizer), vectorized
over uint64 numpy arrays. All arithmetic wraps mod 2**64.

Dropout and SAF-pool masks come from keep_mask, whose stream carries
MASK_STREAM_VERSION. Version 2 takes four 16-bit lanes from each draw,
as Philox and Threefry take several outputs from one counter value
(Salmon et al., SC'11), and quantizes the drop probability to 2**-16.
"""

from __future__ import annotations

import numpy as np

_GOLDEN = np.uint64(0x9E3779B97F4A7C15)
_MIX1 = np.uint64(0xBF58476D1CE4E5B9)
_MIX2 = np.uint64(0x94D049BB133111EB)
_SPLIT_SALT = np.uint64(0xD6E8FEB86659FD93)

_U64 = np.uint64
_MASK64 = 0xFFFFFFFFFFFFFFFF
_GOLDEN_INT, _MIX1_INT, _MIX2_INT, _SPLIT_SALT_INT = map(int, (_GOLDEN, _MIX1, _MIX2, _SPLIT_SALT))

# bump whenever keep_mask returns other masks for the same key, counter and arguments
MASK_STREAM_VERSION = 2
_LANES = 4
# keep_mask mixes this many draws at a time, so its uint64 temporaries stay in cache
_MASK_BLOCK = 1 << 15


def _mix64(z: np.ndarray, tmp: np.ndarray | None = None) -> np.ndarray:
    """splitmix64's finalizer applied in place to the uint64 array z, with tmp
    (z's shape, or a new array) as its one temporary; returns z."""
    t = np.empty_like(z) if tmp is None else tmp
    # uint64 arithmetic wraps mod 2**64 by design
    with np.errstate(over="ignore"):
        for shift, mult in ((30, _MIX1), (27, _MIX2), (31, None)):
            np.right_shift(z, _U64(shift), out=t)
            z ^= t
            if mult is not None:
                z *= mult
    return z


def _mix64_int(z: int) -> int:
    """_mix64 of one 64-bit value held as a Python int."""
    z = ((z ^ (z >> 30)) * _MIX1_INT) & _MASK64
    z = ((z ^ (z >> 27)) * _MIX2_INT) & _MASK64
    return z ^ (z >> 31)


class SplitRng:
    """Deterministic stream of random numbers identified by a 64-bit key.

    Draw i of the stream is mix64(key + (i+1)*golden); the counter
    advances by the number of values drawn. `split(label)` derives an
    independent child stream without consuming from this one.
    """

    __slots__ = ("key", "counter")

    def __init__(self, seed: int):
        self.key = _U64(seed & _MASK64)
        self.counter = 0

    def split(self, *labels: int) -> "SplitRng":
        """Child stream keyed mix64(key ^ mix64(label * salt + golden)), once per label,
        in Python integers: the values of _mix64 on uint64, without numpy's per-call cost."""
        key = int(self.key)
        for label in labels:
            key = _mix64_int(key ^ _mix64_int(((int(label) & _MASK64) * _SPLIT_SALT_INT + _GOLDEN_INT) & _MASK64))
        return SplitRng(key)

    def _next_u64(self, n: int) -> np.ndarray:
        counters = np.arange(self.counter + 1, self.counter + n + 1, dtype=np.uint64)
        self.counter += n
        with np.errstate(over="ignore"):
            return _mix64(self.key + counters * _GOLDEN)

    def uniform(self, shape, lo: float = 0.0, hi: float = 1.0) -> np.ndarray:
        """Uniform float64 draws in [lo, hi). Scalar shape means a flat vector."""
        if not lo < hi:
            raise ValueError(f"uniform requires lo < hi, got [{lo}, {hi})")
        shape = (shape,) if np.isscalar(shape) else tuple(shape)
        n = int(np.prod(shape)) if shape else 1
        u01 = (self._next_u64(n) >> _U64(11)) * (1.0 / (1 << 53))
        out = lo + (hi - lo) * u01
        return out.reshape(shape)

    def normal(self, shape) -> np.ndarray:
        """Standard normal float64 draws via Box-Muller."""
        shape = (shape,) if np.isscalar(shape) else tuple(shape)
        n = int(np.prod(shape)) if shape else 1
        m = (n + 1) // 2
        # u1 in (0,1] so the log is finite
        u1 = 1.0 - (self._next_u64(m) >> _U64(11)) * (1.0 / (1 << 53))
        u2 = (self._next_u64(m) >> _U64(11)) * (1.0 / (1 << 53))
        r = np.sqrt(-2.0 * np.log(u1))
        theta = 2.0 * np.pi * u2
        z = np.concatenate([r * np.cos(theta), r * np.sin(theta)])[:n]
        return z.reshape(shape)

    def keep_mask(self, shape, drop_p: float, rows=None) -> np.ndarray:
        """Boolean mask with P(False) = drop_p per element, in C order of shape, or with rows=(lo, hi) its rows lo:hi.

        Mask stream v2: each splitmix64 draw yields four 16-bit lanes, so
        ceil(n/4) draws cover n elements and element 4i+j is lane j
        (bits 16j..16j+15) of draw i. An element is kept when its lane is
        >= int(drop_p * 65536), so drop_p is quantized to 2**-16. The
        lanes are read through a little-endian view of the draws (a
        byte-swapped copy on big-endian hosts), so the stream does not
        depend on byte order. Draws are made and compared in place a block
        of _MASK_BLOCK at a time, straight into the one bool output. A range
        of rows makes only the draws that hold it, with the bytes of those
        rows of the whole mask, and leaves the counter as it is, so threads
        can draw the rows of one mask from one stream at once.
        """
        if not 0.0 <= drop_p < 1.0:
            raise ValueError(f"drop probability must be in [0, 1), got {drop_p}")
        shape = (shape,) if np.isscalar(shape) else tuple(shape)
        first, count = 0, int(np.prod(shape))
        if rows is not None:  # elements first .. first+count-1 of the whole mask
            (lo, hi), row = rows, int(np.prod(shape[1:]))
            if not 0 <= lo <= hi <= shape[0]:
                raise ValueError(f"rows {lo}:{hi} outside the mask's {shape[0]} rows")
            first, count, shape = lo * row, (hi - lo) * row, (hi - lo, *shape[1:])
        d0, skip = divmod(first, _LANES)  # the first draw that holds the elements, and its lanes before them
        n_draws = (skip + count + _LANES - 1) // _LANES
        keep = np.empty((n_draws, _LANES), dtype=bool)
        threshold = np.uint16(int(drop_p * (1 << 16)))
        block = max(1, min(n_draws, _MASK_BLOCK))
        steps = np.arange(1, block + 1, dtype=np.uint64)
        z, tmp = np.empty(block, np.uint64), np.empty(block, np.uint64)
        for at in range(0, n_draws, block):
            zb = z[: min(block, n_draws - at)]
            with np.errstate(over="ignore"):  # draw i is mix64(key + (counter + i) * golden)
                np.add(steps[: len(zb)], _U64(self.counter + d0 + at), out=zb)
                zb *= _GOLDEN
                zb += self.key
            # little-endian uint16 lanes: lane j is bits 16j..16j+15 on any host
            lanes = _mix64(zb, tmp[: len(zb)]).astype("<u8", copy=False).view("<u2")
            np.greater_equal(lanes, threshold, out=keep[at : at + len(zb)].reshape(-1))
        self.counter += n_draws if rows is None else 0
        return keep.reshape(-1)[skip : skip + count].reshape(shape)

    def permutation(self, n: int) -> np.ndarray:
        """Deterministic permutation of range(n) (argsort of random keys)."""
        return np.argsort(self._next_u64(n), kind="stable")

    def coin(self, shape, p: float) -> np.ndarray:
        """Boolean array, True with probability p per element."""
        return self.uniform(shape) < p

    def integers(self, n: int, hi: int) -> np.ndarray:
        """n integers uniform in [0, hi). Bias is < hi/2**64, negligible here."""
        return (self._next_u64(n) % _U64(hi)).astype(np.int64)
