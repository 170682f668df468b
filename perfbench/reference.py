"""Fixed reference computations that measure how fast the machine runs now.

The benchmark's host is a virtual machine on a shared server, and its speed
changes by up to 40 % for tens of seconds at a time: back-to-back driftflow
operations of one process ran at about 1.5 s for minutes, then at about 0.9 s
for over a minute, in CPU time as much as in wall time.  A run that falls in
such a stretch would read that much faster or slower whatever the code does.

``seconds(kind)`` times a small computation of the kind a workload spends its
time in.  ``"interpreted"`` is an interpreted Python loop, small FFTs and
element-wise numpy on arrays the size of a Hermite or circle axis, and a
256×256 matrix product: the mix of the time-stepping workloads.  ``"dense"``
is the LU factorization of a 1024×1024 matrix (8 MB): most of the spectral
ladder's time is the dense LU inside the shift-invert eigensolve of its
2048-node circle, whose time follows the machine differently from code that
works in cache.  Neither uses driftflow or ever changes, so their times
follow the machine alone.  The worker times one after set-up and between
rounds, and run.py scales a run's wall times by the kind's nominal time over
the median of the run's reference times: the result is the time the work would have taken at
the machine speed the nominal times were measured at.
"""

from __future__ import annotations

import functools
import time

import numpy as np
import scipy.linalg

_rng = np.random.default_rng(12345)
_SMALL = _rng.standard_normal((64, 32))
_MATRIX = _rng.standard_normal((48, 48))
_LARGE = _rng.standard_normal((256, 256))


def _python_loop() -> int:
    total = 0
    for i in range(200_000):
        total += i * i % 7
    return total


def _small_numpy() -> float:
    y = _SMALL
    for _ in range(450):
        spectrum = np.fft.rfft(y, axis=0)
        y = np.tanh(np.fft.irfft(spectrum * 0.5, n=64, axis=0) + _SMALL)
        y = y * np.exp(-0.1 * y * y) + 0.01 * (_MATRIX @ y[:48])[:1]
    return float(y[0, 0])


def _blas() -> float:
    product = _LARGE
    for _ in range(20):
        product = _LARGE @ _LARGE
    return float(product[0, 0])


@functools.cache
def _square() -> np.ndarray:
    # Built on first use, so that only the workloads that time "dense" hold it.
    return np.random.default_rng(1024).standard_normal((1024, 1024)) + 1024.0 * np.eye(1024)


def _lu() -> float:
    lu, _pivots = scipy.linalg.lu_factor(_square())
    return float(lu[-1, -1])


KINDS = {
    "interpreted": (_python_loop, _small_numpy, _blas),
    "dense": (_lu,),
}
# About the median of seconds(kind) on the machine the README's reference
# numbers were measured on.  They only set the scale: any fixed values give the same
# ratios between two commits.
NOMINAL_S = {"interpreted": 0.065, "dense": 0.034}


def seconds(kind: str) -> float:
    """Wall time of one pass of the reference computation of ``kind``."""
    start = time.perf_counter()
    for part in KINDS[kind]:
        part()
    return time.perf_counter() - start

