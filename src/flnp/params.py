"""Immutable, ordered sets of named parameter tensors.

A ParameterSet is the unit exchanged between server and clients and the
input to aggregation. Name order is the model's canonical manifest order
and defines the serialized layout.

A set holds its wire values: each tensor is a read-only, C-order,
little-endian float32 array, rounded once when the set is built. So a
set's arrays are its encoding, and every copy of a set, on either side
of the wire, holds the same values.
"""

from __future__ import annotations

from typing import Iterable, Iterator

import numpy as np

WIRE_DTYPE = np.dtype("<f4")


class ParameterSet:
    """Ordered name -> float32 array snapshot. Arrays are read-only copies."""

    __slots__ = ("_arrays",)

    def __init__(self, items: Iterable[tuple[str, np.ndarray]]) -> None:
        # overflow to +-inf is the defined rounding of out-of-range values
        with np.errstate(over="ignore"):
            copies = [(name, np.array(arr, dtype=WIRE_DTYPE, order="C", copy=True))
                      for name, arr in items]
        self._arrays = _frozen(copies)

    @classmethod
    def _adopt_wire(cls, items: Iterable[tuple[str, np.ndarray]]) -> "ParameterSet":
        """Set holding C-order `<f4` arrays as they are, with no copy."""
        ps = cls.__new__(cls)
        ps._arrays = _frozen(items)
        return ps

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


def _frozen(items: Iterable[tuple[str, np.ndarray]]) -> dict[str, np.ndarray]:
    """Name -> array, each marked read-only; ValueError on a repeated name."""
    arrays: dict[str, np.ndarray] = {}
    for name, arr in items:
        if name in arrays:
            raise ValueError(f"duplicate parameter name '{name}'")
        arr.setflags(write=False)
        arrays[name] = arr
    return arrays
