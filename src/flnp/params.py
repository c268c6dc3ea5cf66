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
`tracemalloc` does not see these buffers.
"""

from __future__ import annotations

import mmap
from typing import Iterable, Iterator

import numpy as np

WIRE_DTYPE = np.dtype("<f4")

# Private anonymous pages, faulted in as the map is made where the
# platform offers MAP_POPULATE, not one by one as they are first written.
_MAP_FLAGS = mmap.MAP_PRIVATE | mmap.MAP_ANONYMOUS | getattr(mmap, "MAP_POPULATE", 0)


def mapped_buffer(nbytes: int) -> mmap.mmap:
    """A zeroed, writable anonymous memory map of `nbytes` bytes (one byte if 0)."""
    return mmap.mmap(-1, max(nbytes, 1), flags=_MAP_FLAGS)


class ParameterSet:
    """Ordered name -> float32 array snapshot: read-only views into one buffer of its own."""

    __slots__ = ("_arrays", "__weakref__")

    def __init__(self, items: Iterable[tuple[str, np.ndarray]]) -> None:
        sources = [(name, np.asarray(arr)) for name, arr in items]
        total = sum(arr.size for _, arr in sources)
        flat = np.frombuffer(mapped_buffer(total * WIRE_DTYPE.itemsize), WIRE_DTYPE, count=total)
        arrays: dict[str, np.ndarray] = {}
        offset = 0
        # overflow to +-inf is the defined rounding of out-of-range values
        with np.errstate(over="ignore"):
            for name, arr in sources:
                if name in arrays:
                    raise ValueError(f"duplicate parameter name '{name}'")
                view = flat[offset : offset + arr.size].reshape(arr.shape)
                np.copyto(view, arr, casting="unsafe")
                view.setflags(write=False)
                arrays[name] = view
                offset += arr.size
        self._arrays = arrays

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
        """Bit-exact equality: same names, same order, same values."""
        if not isinstance(other, ParameterSet):
            return NotImplemented
        if self.names != other.names:
            return False
        return all(np.array_equal(self._arrays[n], other._arrays[n]) for n in self._arrays)

    __hash__ = None  # type: ignore[assignment]

    def quantize32(self) -> "ParameterSet":
        """The set itself: its values are already at wire precision.

        Kept only for callers outside the package that still name it.
        """
        return self
