"""Immutable, ordered sets of named parameter tensors.

A ParameterSet is the unit exchanged between server and clients and the
input to aggregation. Name order is the model's canonical manifest order
and defines the serialized layout.

A set holds its wire values: each tensor is a read-only, C-order,
little-endian float32 view into one buffer that the set owns, rounded
once when the set is built. So a set's arrays are its encoding, and every
copy of a set, on either side of the wire, holds the same values.

The buffer is an anonymous memory map (`mapped_buffer`), not a heap
block, so its pages go back to the operating system as soon as the last
array viewing it is freed, whichever thread frees it. glibc keeps freed
heap blocks of this size in per-thread arenas instead. Models compute on
a set's arrays as they are, so a set is copied only when it is built.
`tracemalloc` does not see these buffers. A buffer that a socket or
file read fills is not pre-faulted: its pages become resident as the
bytes reach them, so a transfer in flight holds only what has arrived.

Every set is laid out by one path: its tensors' slots lie back to back
from the start of the buffer, in manifest order, and each tensor is
written straight into its slot as it is computed, copied or received,
so building a set holds at most one of its tensors outside the buffer
(averaging holds three float64 rows of one chunk of values instead).
`ParameterSet.written` fills the values of a known manifest in one
pass over that run of slots (averaging, initialisation);
`ParameterSet.laid_out` serves the decoder, which learns each name and
shape as it reads them and lays the set out in the buffer the encoded
set was read into. `ParameterSet.flat` is the run of all the set's
values, read-only, so code that treats every value alike (averaging,
the server's finite check) makes one pass over one array instead of
one per tensor. While a federated server averages round r, it holds
round r's updates and the new average, and at most one more set: round
r-1's, while that is still under validation.

Since a set cannot change, the codec checksums it at most once:
`wire_digest` caches the CRC-32 and byte count of the set's encoding.
A decoded set gets it from the check of the frame it came in; any other
set gets it the first time the codec signs or encodes it.
"""

from __future__ import annotations

import math
import mmap
from functools import partial
from typing import Callable, Iterable, Iterator

import numpy as np

WIRE_DTYPE = np.dtype("<f4")

_MAP_FLAGS = mmap.MAP_PRIVATE | mmap.MAP_ANONYMOUS
_MAP_POPULATE = getattr(mmap, "MAP_POPULATE", 0)


def mapped_buffer(nbytes: int, populate: bool = False) -> memoryview:
    """A view of exactly `nbytes` zeroed, writable bytes of an anonymous memory map.

    With `populate`, the pages are faulted in as the map is made, where
    the platform offers MAP_POPULATE, which is cheaper for a buffer the
    program writes whole at once than faulting them in one by one.
    Without it, each page is faulted in when first written, as a read
    from a socket or a file reaches it.
    """
    flags = _MAP_FLAGS | (_MAP_POPULATE if populate else 0)
    return memoryview(mmap.mmap(-1, max(nbytes, 1), flags=flags))[:nbytes]


# (name, shape, write): `write(slot)` fills the tensor's writable float32 slot
Entry = tuple[str, tuple[int, ...], Callable[[np.ndarray], None]]


class ParameterSet:
    """Ordered name -> float32 array snapshot: read-only views into one buffer of its own."""

    __slots__ = ("_arrays", "_flat", "wire_digest", "__weakref__")

    def __init__(self, items: Iterable[tuple[str, np.ndarray]]) -> None:
        # (CRC-32, byte count) of the set's encoding, set once by the codec
        self.wire_digest: tuple[int, int] | None = None
        sources = [(name, np.asarray(arr)) for name, arr in items]
        size = sum(arr.size for _, arr in sources) * WIRE_DTYPE.itemsize
        self._arrays, self._flat = _layout(
            mapped_buffer(size, populate=True),
            ((name, arr.shape, partial(np.copyto, src=arr, casting="unsafe")) for name, arr in sources))

    @classmethod
    def laid_out(cls, buffer, entries: Iterable[Entry]) -> "ParameterSet":
        """The set of `entries`, each written into the next slot of `buffer`, which it keeps.

        `entries` yields (name, shape, write) in manifest order, and each
        `write(slot)` runs before the next entry is drawn. A duplicate
        name, or a tensor past the `len(buffer) // 4` float32 values of
        the buffer, raises ValueError.
        """
        ps = cls.__new__(cls)
        ps.wire_digest = None
        ps._arrays, ps._flat = _layout(buffer, entries)
        return ps

    @classmethod
    def written(cls, manifest: Iterable[tuple[str, tuple[int, ...]]],
                fill: Callable[[np.ndarray], None]) -> "ParameterSet":
        """The set of `manifest`'s (name, shape) pairs, whose values `fill(flat)` writes.

        `flat` is the set's writable float32 run of values, each tensor's
        slot after the one before it in manifest order; what `fill` writes
        becomes `ParameterSet.flat`.
        """
        manifest = tuple(manifest)
        size = sum(math.prod(shape) for _, shape in manifest)
        buffer = mapped_buffer(size * WIRE_DTYPE.itemsize, populate=True)
        with np.errstate(over="ignore"):  # as in _layout
            fill(np.frombuffer(buffer, WIRE_DTYPE, count=size))
        return cls.laid_out(buffer, ((name, shape, _filled) for name, shape in manifest))

    @property
    def flat(self) -> np.ndarray:
        """Every value of the set, read-only, one tensor's after another in manifest order."""
        return self._flat

    @property
    def names(self) -> tuple[str, ...]:
        return tuple(self._arrays.keys())

    def manifest(self) -> tuple[tuple[str, tuple[int, ...]], ...]:
        """Ordered (name, shape) pairs; the serialization/aggregation key."""
        return tuple((name, arr.shape) for name, arr in self._arrays.items())

    def __getitem__(self, name: str) -> np.ndarray:
        return self._arrays[name]

    def __contains__(self, name: str) -> bool:
        return name in self._arrays

    def __len__(self) -> int:
        return len(self._arrays)

    def items(self) -> Iterator[tuple[str, np.ndarray]]:
        return iter(self._arrays.items())

    def __eq__(self, other: object) -> bool:
        """Bit-exact equality: same names, same order, same shapes, same values."""
        if not isinstance(other, ParameterSet):
            return NotImplemented
        return self.manifest() == other.manifest() and np.array_equal(self.flat, other.flat)

    __hash__ = None  # type: ignore[assignment]

    def quantize32(self) -> "ParameterSet":
        """The set itself: its values are already at wire precision.

        Kept only for callers outside the package that still name it.
        """
        return self


def _filled(slot: np.ndarray) -> None:
    """Write nothing: `ParameterSet.written` has filled the slot already."""


def _layout(buffer, entries: Iterable[Entry]) -> tuple[dict[str, np.ndarray], np.ndarray]:
    """Read-only float32 views into `buffer`, each entry's tensor written into its slot.

    Returns the views by name and the one view of all their values, the
    first values of the buffer, in manifest order.
    """
    capacity = len(buffer) // WIRE_DTYPE.itemsize
    flat = np.frombuffer(buffer, WIRE_DTYPE, count=capacity)
    arrays: dict[str, np.ndarray] = {}
    used = 0
    # overflow to +-inf is the defined rounding of out-of-range values
    with np.errstate(over="ignore"):
        for name, shape, write in entries:
            if name in arrays:
                raise ValueError(f"duplicate parameter name '{name}'")
            size = math.prod(shape)
            if used + size > capacity:
                raise ValueError(f"'{name}' {shape} overruns the set's {capacity} values")
            slot = flat[used : used + size].reshape(shape)
            write(slot)
            slot.setflags(write=False)
            arrays[name] = slot
            used += size
    values = flat[:used]
    values.setflags(write=False)
    return arrays, values
