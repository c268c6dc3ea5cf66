"""One compute budget per machine: OpenBLAS threads sized to the concurrent clients.

A federated session trains `workers = min(nproc, n_clients)` clients at
once, and each gets `nproc // workers` BLAS threads, so the clients and
their BLAS threads never ask for more cores than there are. OpenBLAS
splits a large GEMM by its thread count, so float results (and the
final-params checksum) are a function of the seeds, nproc and the
session's client count.

numpy's bundled OpenBLAS is reached through ctypes (threadpoolctl is not
a dependency). Where that library or its symbols are missing,
`blas_threads` leaves the thread count alone.
"""

from __future__ import annotations

import ctypes
import functools
import glob
import os
from contextlib import contextmanager

import numpy as np


def available_cpus() -> int:
    """Cores this process may run on."""
    return len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count() or 1


def session_budget(n_clients: int) -> tuple[int, int]:
    """(clients trained at once, BLAS threads for each) for a session of `n_clients`."""
    nproc = available_cpus()
    workers = max(1, min(nproc, n_clients))
    return workers, max(1, nproc // workers)


@functools.cache
def _openblas():
    """numpy's OpenBLAS (get, set) thread-count functions, or None."""
    pattern = os.path.join(os.path.dirname(np.__file__), os.pardir, "numpy.libs", "*openblas*")
    for path in sorted(glob.glob(pattern)):
        lib = ctypes.CDLL(path)
        get = getattr(lib, "scipy_openblas_get_num_threads64_", None)
        put = getattr(lib, "scipy_openblas_set_num_threads64_", None)
        if get is not None and put is not None:
            return get, put
    return None


@contextmanager
def blas_threads(n: int):
    """Run the block with `n` OpenBLAS threads, then restore the previous count."""
    fns = _openblas()
    if fns is None:
        yield
        return
    get, put = fns
    before = get()
    put(n)
    try:
        yield
    finally:
        put(before)
