"""Machine-speed reference for scaling timings to a nominal machine speed.

On a shared machine, other load slows everything this benchmark runs, by up
to 2x, in stretches from seconds to minutes; neither steal time nor process
CPU time shows it. A run therefore times fixed reference kernels, which use
no frachh code, between its calls, and scales each call's time by
(nominal reference time) / (mean of the reference times just before and
after it); a set-up is scaled by the reference timed right after it. A
change to frachh moves the scaled figures as it moves the raw ones; a slow
stretch of the machine moves both the calls and the reference, and cancels
out. The raw figures are printed beside the scaled ones.

Interpreted float code and BLAS-bound array code slow down by different
amounts, so there is one kernel of each kind and each workload names the
kinds its calls spend their time in (`Workload.reference`).
"""

from __future__ import annotations

import math
import time

# Kernel times on a 2-vCPU Xeon VM (Python 3.11, numpy 2.4, one BLAS thread)
# when the host is quiet; only the ratio to them matters between two runs.
NOMINAL_S = {"scalar": 0.005, "array": 0.006}


def scalar_kernel() -> float:
    """Interpreted float arithmetic shaped like the gate rate functions."""
    acc = 0.0
    for i in range(20000):
        v = (i % 200) - 49.5
        acc += math.exp(-v / 18.0) + 0.1 * (25.0 - v) / math.expm1((25.0 - v) / 10.0)
    return acc


def array_kernel() -> float:
    """A 500x500 Cholesky factorization, a matrix-vector product and an FFT,
    like the fBm samplers."""
    import numpy

    n = 500
    k = numpy.arange(n)
    cov = 0.5 ** numpy.abs(k[:, None] - k[None, :])
    factor = numpy.linalg.cholesky(cov)
    return float((factor @ cov[0])[-1] + numpy.fft.fft(cov[0]).real[1])


KERNELS = {"scalar": scalar_kernel, "array": array_kernel}


def nominal_s(kinds) -> float:
    return sum(NOMINAL_S[kind] for kind in kinds)


def time_reference(kinds) -> float:
    """Wall time of one pass over the named kernels."""
    t0 = time.perf_counter()
    for kind in kinds:
        KERNELS[kind]()
    return time.perf_counter() - t0
