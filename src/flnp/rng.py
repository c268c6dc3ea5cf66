"""Deterministic 64-bit PRNG with splittable substreams.

The generator is a counter-mode SplitMix64: output k of stream s is
``mix64(root(s) + k * GOLDEN)``, where ``mix64`` is the xorshift-multiply
finalizer. Because outputs are a pure function of (root, counter), blocks
of values vectorize with numpy uint64 arithmetic, and ``split(key)``
derives an independent child stream without consuming from the parent.
Scalar draws are served from a lookahead block of the stream's next
outputs, computed in one numpy pass like any array draw: each value and
the counter it consumes are the same as if it were drawn alone.
Substreams keyed by client id / round / epoch give every component of a
simulation its own replayable randomness.

The raw integer stream is bit-identical across platforms. Derived floats
use IEEE-754 double arithmetic (log/cos for normals), which is exact on
any one platform and matches across platforms with a conforming libm.
"""

from __future__ import annotations

import bisect

import numpy as np

_M64 = (1 << 64) - 1
_GOLDEN = 0x9E3779B97F4A7C15
_SEED_SALT = 0x6A09E667F3BCC909
_SPLIT_SALT = 0xD1B54A32D192ED03

_INV_2_53 = float(2.0**-53)
_LOOKAHEAD = 64  # outputs computed per refill of the scalar lookahead


def _mix(z: int) -> int:
    """SplitMix64 finalizer on a Python int, mod 2**64."""
    z &= _M64
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _M64
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _M64
    return z ^ (z >> 31)


def _mix_array(z: np.ndarray) -> np.ndarray:
    z = (z ^ (z >> np.uint64(30))) * np.uint64(0xBF58476D1CE4E5B9)
    z = (z ^ (z >> np.uint64(27))) * np.uint64(0x94D049BB133111EB)
    return z ^ (z >> np.uint64(31))


def _shape_count(size: int | tuple[int, ...]) -> tuple[tuple[int, ...], int]:
    """The array shape a `size` argument asks for, and its number of draws."""
    shape = (size,) if isinstance(size, int) else tuple(size)
    return shape, int(np.prod(shape))


class Rng:
    """One splittable stream. Not thread-safe; give each context its own."""

    __slots__ = ("_root", "_count", "_ahead")

    def __init__(self, seed: int) -> None:
        self._root = _mix((int(seed) & _M64) ^ _SEED_SALT)
        self._count = 0  # outputs consumed
        self._ahead: list[int] = []  # outputs after `_count`, last one next

    def child_seed(self, key: int) -> int:
        """Seed of the child stream for `key`; pure in (root, key)."""
        return _mix(self._root ^ _mix((int(key) & _M64) + _SPLIT_SALT))

    def split(self, key: int) -> "Rng":
        """Independent child stream; does not advance this stream."""
        return Rng(self.child_seed(key))

    def _outputs(self, n: int) -> np.ndarray:
        """Outputs for counters `_count` + 1 .. `_count` + n as uint64; consumes none."""
        start = self._count + 1
        idx = np.arange(start, start + n, dtype=np.uint64) * np.uint64(_GOLDEN)
        idx += np.uint64(self._root)
        return _mix_array(idx)

    def _next(self) -> int:
        """Next output as a Python int; the same value `_raw(1)` gives."""
        if not self._ahead:
            self._ahead = self._outputs(_LOOKAHEAD)[::-1].tolist()
        self._count += 1
        return self._ahead.pop()

    def _raw(self, n: int) -> np.ndarray:
        """Next n outputs as uint64."""
        self._ahead.clear()  # they belong to the counters this draw takes
        out = self._outputs(n)
        self._count += n
        return out

    def uint64(self, size: int | tuple[int, ...] | None = None):
        if size is None:
            return self._next()
        shape, n = _shape_count(size)
        return self._raw(n).reshape(shape)

    def random(self, size: int | tuple[int, ...] | None = None):
        """Float64 in [0, 1) with 53 random bits."""
        if size is None:
            return float(self._next() >> 11) * _INV_2_53
        shape, n = _shape_count(size)
        u = (self._raw(n) >> np.uint64(11)).astype(np.float64) * _INV_2_53
        return u.reshape(shape)

    def uniform(self, low: float, high: float, size=None):
        return low + (high - low) * self.random(size)

    def normal(self, mean: float = 0.0, std: float = 1.0, size=None):
        """Gaussian samples via Box-Muller."""
        shape, n = _shape_count(() if size is None else size)
        half = (n + 1) // 2
        # u1 in (0, 1] so log never sees zero
        u1 = ((self._raw(half) >> np.uint64(11)).astype(np.float64) + 1.0) * _INV_2_53
        u2 = (self._raw(half) >> np.uint64(11)).astype(np.float64) * _INV_2_53
        r = np.sqrt(-2.0 * np.log(u1))
        theta = (2.0 * np.pi) * u2
        z = np.empty(2 * half, dtype=np.float64)
        z[0::2] = r * np.cos(theta)
        z[1::2] = r * np.sin(theta)
        out = mean + std * z[:n]
        if size is None:
            return float(out[0])
        return out.reshape(shape)

    def integers(self, bound: int, size=None):
        """Unbiased integers in [0, bound) via rejection sampling."""
        if not 0 < bound <= 1 << 64:
            raise ValueError(f"bound must lie in [1, 2**64], got {bound}")
        if size is None:
            limit = (1 << 64) - (1 << 64) % bound  # draws at or above are rejected
            while True:
                draw = self._next()
                if draw < limit:
                    return draw % bound
        shape, n = _shape_count(size)
        return self._integer_block(bound, n).reshape(shape)

    def _integer_block(self, bound: int, n: int) -> np.ndarray:
        rem = (1 << 64) % bound
        # int64 holds every draw below 2**63; a larger bound's draws need uint64
        out = np.empty(n, dtype=np.int64 if bound <= 1 << 63 else np.uint64)
        filled = 0
        while filled < n:
            draw = self._raw(n - filled)
            if rem:
                draw = draw[draw < np.uint64((1 << 64) - rem)]
            if bound < 1 << 64:  # else every draw is its own remainder
                draw = draw % np.uint64(bound)
            out[filled : filled + draw.size] = draw
            filled += draw.size
        return out

    def permutation(self, n: int) -> np.ndarray:
        """Uniform permutation of range(n) (sort of random 64-bit keys)."""
        if n == 0:
            return np.empty(0, dtype=np.int64)
        keys = self._raw(n)
        return np.argsort(keys, kind="stable").astype(np.int64)

    def shuffled(self, items: list) -> list:
        return [items[i] for i in self.permutation(len(items))]

    def weighted_choice(self, cumulative, size=None):
        """Indices sampled by precomputed cumulative weights.

        `cumulative` is any non-decreasing sequence; a list of floats and
        an array of the same doubles give the same index. A list makes the
        scalar path fastest: its bisect compares Python floats.
        """
        u = self.random(size) * cumulative[-1]
        if size is None:
            return bisect.bisect_right(cumulative, u)
        return np.searchsorted(cumulative, u, side="right")
