"""Host-speed calibration for the timed metrics.

The benchmark runs on a few cores of a shared host whose speed drifts by
tens of percent over minutes, while CPU time still tracks wall time: the
cores themselves get slower, so neither wall nor CPU time is steady.  A
fixed calibration kernel is timed beside the workload in the same process,
between the timed calls, and every reported time is scaled by
``REFERENCE_S[threads] / median(kernel times)``.  The reported value is
the time the call would have taken on a host that runs the kernel in
``REFERENCE_S[threads]``, at the workload's thread count.

The kernel lives in the benchmark, not in ``ima_lab``, so a change to the
library cannot change it.  It is in the library's own regimes:
interpreter-bound Python around numpy calls on small arrays, with random
draws and LAPACK SVDs of thin matrices, and batched ufuncs on a
thousand rows.
"""

from __future__ import annotations

import statistics
import time
from concurrent.futures import ThreadPoolExecutor

import numpy as np

#: threads -> median time_kernel(threads) on the 2-CPU sandbox where this
#: benchmark was defined (python 3.11, numpy 2.4, OpenBLAS pinned to one thread)
REFERENCE_S = {1: 0.08, 2: 0.075}

_SMALL_ROUNDS = 2500
_BATCH_ROUNDS = 100


def kernel() -> float:
    rng = np.random.default_rng(0)
    total = 0.0
    # Interpreter-bound: small arrays, one thin SVD each (sweep, spurious, reparam).
    for i in range(_SMALL_ROUNDS):
        a = rng.standard_normal((8 + i % 24, 3))
        total += float(np.linalg.svd(a, compute_uv=False)[0])
        total += sum(k * k % 7 for k in range(40))
    # Batched: ufuncs on a thousand rows, which release the interpreter
    # lock, so two threads run them on two cores at once (genericity's pool).
    # The arrays stay under a megabyte, below the workloads' own peak memory.
    for _ in range(_BATCH_ROUNDS):
        a = rng.standard_normal((1000, 6))
        total += float(np.exp(-np.einsum("ni,nj->nij", a, a)).sum())
    return total


def time_kernel(threads: int = 1) -> float:
    """Wall time per kernel, with the kernel run once on each of
    ``threads`` threads at the same time, so a pooled workload is
    calibrated under the same sharing of the interpreter and the cores as
    its own runs: the small-array half holds the interpreter lock, the
    batched half runs on the cores side by side."""
    start = time.perf_counter()
    if threads == 1:
        kernel()
    else:
        with ThreadPoolExecutor(threads) as pool:
            list(pool.map(lambda _: kernel(), range(threads)))
    return (time.perf_counter() - start) / threads


def scale(kernel_times, threads: int = 1) -> float:
    """Factor that turns times measured beside ``kernel_times``, taken by
    ``time_kernel(threads)``, into reference-host seconds."""
    return REFERENCE_S[threads] / statistics.median(kernel_times)
