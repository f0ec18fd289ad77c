"""Host-speed probes: two fixed kernels that never touch ccrlab.

The benchmark runs on a few cores of a shared host whose speed drifts:
the same code runs up to twice as long while a neighbour is busy, in
stretches from under a second to minutes, and CPU time drifts with wall
time, so neither longer runs nor CPU clocks remove it. A child therefore
probes the host's speed between timed segments of its workload (outside
them), and the harness divides each segment by the slowdown the probes
around it saw. The kernels are fixed code, so a change to ccrlab cannot
move them.

- ``python``: sparse polynomial products with Fraction coefficients in
  dicts keyed by tuples, the interpreter-bound kind of work that
  ccrlab's exact and symbolic layers do.
- ``lapack``: a symmetric eigensolve and a matrix product, single
  threaded like the benchmark's BLAS, the kind of work of the weyl,
  schrodinger and interval layers."""

from __future__ import annotations

import functools
import gc
import math
import statistics
import time
from fractions import Fraction

REPEATS = 5  # a probe is the median of this many kernel runs
# Probe times on an idle core of the host the benchmark was defined on
# (Xeon 2.1 GHz, one BLAS thread): scaled seconds are seconds as that host
# runs when no neighbour slows it.
REFERENCE_S = {"python": 0.0075, "lapack": 0.0045}
# The share of each timing that follows the python kernel, the rest
# following the lapack kernel: about the share of interpreter-bound work
# in it, in quarters. On the reference host these shares left the scaled
# times of 40-60 processes per workload least correlated with the slowdown.
PYTHON_SHARE = {"exact_proofs": 0.75, "report_all": 0.5, "dense_reach": 0.0, "setup": 0.5}


def _python_kernel() -> int:
    poly = {(i, j): Fraction(i + 1, j + 2) for i in range(7) for j in range(7)}
    acc: dict = {}
    for (i, j), a in poly.items():
        for (k, l), b in poly.items():
            key = (i + k, j + l)
            acc[key] = acc.get(key, 0) + a * b
    return len(acc)


@functools.cache
def _matrix():
    import numpy as np

    n = 288
    idx = np.arange(n)
    m = np.cos(np.add.outer(idx, 2 * idx) * 0.37) + np.diag(idx * 0.01)
    return m + m.T


def _lapack_kernel() -> float:
    import numpy as np

    m = _matrix()
    return float(np.linalg.eigvalsh(m)[0] + (m @ m)[0, 0])


KERNELS = {"python": _python_kernel, "lapack": _lapack_kernel}


def probe() -> dict[str, float]:
    """Seconds per run of each kernel, right now. The garbage collector
    is paused meanwhile: its passes over the workload's live objects would
    make a probe measure the process's heap instead of the host."""
    out = {}
    paused = gc.isenabled()
    gc.disable()
    try:
        for name, kernel in KERNELS.items():
            times = []
            for _ in range(REPEATS):
                start = time.perf_counter()
                kernel()
                times.append(time.perf_counter() - start)
            out[name] = statistics.median(times)
    finally:
        if paused:
            gc.enable()
    return out


def slowdown(probe_s: dict, kind: str) -> float:
    """How much slower than the reference the host ran at one probe, for
    a timing of this kind (a workload name or "setup")."""
    share = PYTHON_SHARE[kind]
    return ((probe_s["python"] / REFERENCE_S["python"]) ** share
            * (probe_s["lapack"] / REFERENCE_S["lapack"]) ** (1.0 - share))


def at_reference(segment_s: list, probes: list, kind: str) -> float:
    """Timed segments summed, each divided by the mean slowdown of the
    probes just before and after it. probes[i] precedes segment i and
    probes[i + 1] follows it; a missing neighbour is left out."""
    total = 0.0
    for i, seconds in enumerate(segment_s):
        around = [slowdown(p, kind) for p in probes[i:i + 2]]
        total += seconds * len(around) / sum(around)
    return total
