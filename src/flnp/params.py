"""Immutable, ordered sets of named parameter tensors.

A ParameterSet is the unit exchanged between server and clients and the
input to aggregation. Name order is the model's canonical manifest order
and defines the serialized layout.

Each set converts its values to wire precision (little-endian float32) at
most once: the float32 arrays are kept as the set's wire view, filled by
`quantize32`, by the decoder, or on first encoding. The set is immutable,
so the view never goes stale.
"""

from __future__ import annotations

from typing import Iterable, Iterator

import numpy as np

_F32_QUIET_BIT = 0x00400000  # set in every quiet float32 NaN


class ParameterSet:
    """Ordered name -> float64 array snapshot. Arrays are read-only copies."""

    __slots__ = ("_arrays", "_wire")

    def __init__(self, items: Iterable[tuple[str, np.ndarray]]) -> None:
        arrays: dict[str, np.ndarray] = {}
        for name, arr in items:
            if name in arrays:
                raise ValueError(f"duplicate parameter name '{name}'")
            a = np.array(arr, dtype=np.float64, copy=True)
            a.setflags(write=False)
            arrays[name] = a
        self._arrays = arrays
        self._wire: tuple[np.ndarray, ...] | None = None

    @classmethod
    def from_float32(cls, items: Iterable[tuple[str, np.ndarray]]) -> "ParameterSet":
        """Set of C-order little-endian float32 arrays, widened to float64.

        The float32 arrays become the set's wire view, unless one holds a
        signalling NaN: widening quiets it, so the set would no longer
        encode to those bytes.
        """
        wire: dict[str, np.ndarray] = {}
        for name, w in items:
            if name in wire:
                raise ValueError(f"duplicate parameter name '{name}'")
            wire[name] = w
        return cls._adopt(wire, keep_wire=not any(map(_has_signalling_nan, wire.values())))

    @classmethod
    def _adopt(cls, wire: dict[str, np.ndarray], keep_wire: bool) -> "ParameterSet":
        """Set holding `wire` widened to float64, with no defensive copy."""
        arrays = {}
        for name, w in wire.items():
            w.setflags(write=False)
            arrays[name] = w.astype(np.float64)
            arrays[name].setflags(write=False)
        ps = cls.__new__(cls)
        ps._arrays = arrays
        ps._wire = tuple(wire.values()) if keep_wire else None
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
        """Round every value to its nearest float32 (the wire precision).

        Idempotent; applied by the protocol before any parameter transfer
        and by centralized baselines used in equivalence tests.
        """
        # A float64 -> float32 conversion never yields a signalling NaN,
        # so these arrays are always the new set's exact wire view.
        wire = {name: arr.astype("<f4", order="C") for name, arr in self.items()}
        return ParameterSet._adopt(wire, keep_wire=True)

    def wire_view(self) -> tuple[np.ndarray, ...]:
        """Each tensor's C-order little-endian float32 values, in name order.

        Threads that fill the view at once compute equal tuples, so it does
        not matter which one is kept.
        """
        if self._wire is None:
            wire = tuple(arr.astype("<f4", order="C") for arr in self._arrays.values())
            for w in wire:
                w.setflags(write=False)
            self._wire = wire
        return self._wire

    def n_values(self) -> int:
        return sum(arr.size for arr in self._arrays.values())


def _has_signalling_nan(w: np.ndarray) -> bool:
    nan = np.isnan(w)
    return bool(nan.any()) and not (w.view("<u4")[nan] & _F32_QUIET_BIT).all()
