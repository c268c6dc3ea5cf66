"""Sample-count-weighted parameter averaging."""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from ..params import ParameterSet
from ..tensor import UsageError


class ProtocolError(RuntimeError):
    """A message violated the round protocol."""

    def __init__(self, code: str, detail: str = "") -> None:
        super().__init__(f"{code}: {detail}" if detail else code)
        self.code = code
        self.detail = detail


@dataclass(frozen=True)
class ClientUpdate:
    client_id: int
    round: int
    params: ParameterSet
    n_samples: int
    local_metrics: dict[str, float] = field(default_factory=dict)


def aggregate(updates: list[ClientUpdate], weighted: bool = True) -> ParameterSet:
    """Weighted mean of the updates' parameters.

    Evaluated in client-id-sorted order as a baseline plus weighted
    deltas, w0 + sum_i (n_i / N) * (w_i - w0), which is algebraically the
    weighted mean but exact (bit-for-bit) whenever all updates agree,
    and invariant to the order updates arrived in. The sum is taken in
    float64 and rounded to wire precision once, when the result set is
    built. `weighted=False` counts every client once regardless of
    n_samples.
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
    counts = [1 if not weighted else u.n_samples for u in ordered]
    if any(c < 0 for c in counts):
        raise UsageError("negative sample count")
    total = float(sum(counts))
    if total <= 0:
        raise UsageError("aggregate needs a positive total sample count")

    base = ordered[0].params
    shares = [(u.params, c / total) for u, c in zip(ordered[1:], counts[1:]) if c]

    def averaged(name: str) -> np.ndarray:
        w0 = base[name].astype(np.float64)
        acc = w0.copy()
        for params, share in shares:
            acc += share * (params[name].astype(np.float64) - w0)
        return acc

    # one tensor's float64 sum is alive at a time
    return ParameterSet((name, averaged(name)) for name, _ in manifest)

