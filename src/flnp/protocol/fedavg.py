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
    is complete.
    """
    if not updates:
        raise UsageError("aggregate needs at least one update")
    ordered = sorted(updates, key=lambda u: u.client_id)
    manifest = ordered[0].params.manifest()
    rnd = ordered[0].round
    for u in ordered[1:]:
        if u.params.manifest() != manifest:
            raise ProtocolError(
                "manifest_mismatch",
                f"client {u.client_id} sent {len(u.params.manifest())} tensors",
            )
        if u.round != rnd:
            raise ProtocolError("round_mismatch", f"rounds {rnd} vs {u.round}")
    counts = [u.n_samples for u in ordered]
    if any(c < 0 for c in counts):
        raise UsageError("negative sample count")
    total = float(sum(counts))
    if total <= 0:
        raise UsageError("aggregate needs a positive total sample count")

    base = ordered[0].params
    shares = [(u.params, c / total) for u, c in zip(ordered[1:], counts[1:]) if c]
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

    return ParameterSet.written(manifest, write_average)
