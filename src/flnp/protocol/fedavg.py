"""Sample-count-weighted parameter averaging."""

from __future__ import annotations

import numpy as np

from ..params import ParameterSet
from ..tensor import UsageError
from .messages import LocalUpdate


class ProtocolError(RuntimeError):
    """A message violated the round protocol."""

    def __init__(self, code: str, detail: str = "") -> None:
        super().__init__(f"{code}: {detail}" if detail else code)
        self.code = code
        self.detail = detail


def aggregate(updates: list[LocalUpdate]) -> ParameterSet:
    """Mean of the updates' parameters, each weighted by its n_samples.

    Evaluated in client-id-sorted order as a baseline plus weighted
    deltas, w0 + sum_i (n_i / N) * (w_i - w0), which is algebraically the
    weighted mean but exact (bit-for-bit) whenever all updates agree,
    and invariant to the order updates arrived in. Each tensor's sum is
    taken in float64 and rounded to wire precision once, as soon as it
    is complete. The caller, `FlServer`, has checked that the updates
    share one manifest and one round and that their counts sum above 0.
    """
    if not updates:
        raise UsageError("aggregate needs at least one update")
    ordered = sorted(updates, key=lambda u: u.client_id)
    total = float(sum(u.n_samples for u in ordered))
    base = ordered[0].params
    shares = [(u.params, u.n_samples / total) for u in ordered[1:] if u.n_samples]
    # w0, the sum and a delta for every tensor: fresh temporaries can fault in every page
    scratch = np.empty((3, max((arr.size for _, arr in base.items()), default=0)))

    def write_average(name: str, out: np.ndarray) -> None:
        w0, acc, delta = (row[: out.size].reshape(out.shape) for row in scratch)
        np.copyto(w0, base[name])
        np.copyto(acc, w0)
        for params, share in shares:
            np.copyto(delta, params[name])
            delta -= w0
            delta *= share
            acc += delta
        np.copyto(out, acc, casting="unsafe")

    return ParameterSet.written(base.manifest(), write_average)
