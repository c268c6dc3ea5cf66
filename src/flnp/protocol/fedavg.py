"""Sample-count-weighted parameter averaging.

`aggregate` averages each parameter set as the one run of values it is
(`ParameterSet.flat`), a chunk of `CHUNK_VALUES` values at a time: every
value's average is computed on its own, so the chunking moves no float.
Its scratch is three float64 rows of one chunk, whatever the size of the
sets, and the average is rounded straight into the new set's buffer.
"""

from __future__ import annotations

import numpy as np

from ..params import ParameterSet
from ..tensor import UsageError
from .messages import LocalUpdate

CHUNK_VALUES = 64 * 1024  # values averaged per pass: three float64 rows of 512 KiB


def aggregate(updates: list[LocalUpdate]) -> ParameterSet:
    """Mean of the updates' parameters, each weighted by its n_samples.

    Evaluated in client-id-sorted order as a baseline plus weighted
    deltas, w0 + sum_i (n_i / N) * (w_i - w0), which is algebraically the
    weighted mean but exact (bit-for-bit) whenever all updates agree,
    and invariant to the order updates arrived in. Each value's sum is
    taken in float64 and rounded to wire precision once, as soon as it
    is complete. The caller, `FlServer`, has checked that the updates
    share one manifest and one round and that their counts sum above 0.
    """
    if not updates:
        raise UsageError("aggregate needs at least one update")
    ordered = sorted(updates, key=lambda u: u.client_id)
    total = float(sum(u.n_samples for u in ordered))
    base = ordered[0].params.flat
    shares = [(u.params.flat, u.n_samples / total) for u in ordered[1:] if u.n_samples]
    # w0, the sum and a delta: fresh temporaries can fault in every page
    scratch = np.empty((3, min(CHUNK_VALUES, base.size)))

    def write_average(out: np.ndarray) -> None:
        for start in range(0, out.size, CHUNK_VALUES):
            chunk = slice(start, start + CHUNK_VALUES)
            w0, acc, delta = scratch[:, : out[chunk].size]
            np.copyto(w0, base[chunk])
            np.copyto(acc, w0)
            for values, share in shares:
                np.copyto(delta, values[chunk])
                delta -= w0
                delta *= share
                acc += delta
            np.copyto(out[chunk], acc, casting="unsafe")

    return ParameterSet.written(ordered[0].params.manifest(), write_average)
