"""Host speed reference: scales measured times to a fixed host speed.

On a shared host the speed a process gets drifts by a third over tens
of seconds, with the load of other tenants and the clock that leaves
the cores. An op's wall and CPU time move with it. The benchmark times
a fixed reference kernel, the sparse LU factorization of a 3-D
Laplacian whose factors outgrow the L2 cache, before the first and
after every timed op and set-up. It reports each median time as

    seconds * REFERENCE_S / (median of the run's kernel times)

that is, in seconds of a host that runs the kernel in REFERENCE_S. The
median over the run keeps one reading taken during a burst of load
from moving the whole run.
The kernel uses numpy and scipy only, never polyvem, so a change to
the program leaves it alone. The raw seconds are recorded beside the
scaled ones.

Of the kernels tried on a 2-core Xeon host (4 MiB L2), this one
followed the op times of both a Python-bound workload
(homogenize-o2-20) and a SuperLU-bound one (compare-cold-20); a
kernel of small dense numpy calls in a Python loop followed only the
first and made the second noisier.
"""

from __future__ import annotations

import statistics
import time

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla

# median kernel time on the 2-core host the first baseline was recorded
# on, so that scaled seconds there read close to raw ones; a constant,
# never re-measured, or scaled times of two commits would not compare
REFERENCE_S = 0.045
READ_S = 0.3            # one reading: kernel passes for this long
MIN_PASSES = 3


def _laplacian_3d(n: int):
    e = np.ones(n)
    t = sp.diags([-e[:-1], 2.0 * e, -e[:-1]], [-1, 0, 1])
    i = sp.identity(n)
    return (sp.kron(sp.kron(t, i), i) + sp.kron(sp.kron(i, t), i)
            + sp.kron(sp.kron(i, i), t)).tocsc()


# 2744 dofs; L + U hold about 8 MB
_LAPLACIAN = _laplacian_3d(14)
_RHS = np.ones(_LAPLACIAN.shape[0])


def _kernel() -> float:
    t0 = time.perf_counter()
    spla.splu(_LAPLACIAN).solve(_RHS)
    return time.perf_counter() - t0


def reference_s() -> float:
    """One reading: the median time of the kernel passes made in READ_S
    seconds, MIN_PASSES at least."""
    times = []
    end = time.perf_counter() + READ_S
    while len(times) < MIN_PASSES or time.perf_counter() < end:
        times.append(_kernel())
    return statistics.median(times)


def scaled(seconds: float, readings: list) -> float:
    """`seconds` measured in a run with these reference_s() readings,
    in seconds of the reference host."""
    return seconds * REFERENCE_S / statistics.median(readings)
