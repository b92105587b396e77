"""A fixed probe that measures how fast the host runs at this moment.

The benchmark's CPUs are shared with other tenants, and how fast they run
changes by up to a factor of two over seconds to minutes. ``StepClock`` in
``tracing.py`` therefore runs this probe between two steps of the workload
about every ``PROBE_GAP_NS``, times it and leaves its time out of the
steps, so the probes sample the host at the same moments the workload ran.
``run.py`` divides the workload's time by the probes' time from the same
repetitions, so a slow stretch of the host slows both and cancels out.

One probe, about 1 ms, mixes the kinds of work the workloads do: 1-D and
2-D numpy FFTs with reductions, exact ``Fraction`` arithmetic and a plain
Python loop. Its arrays are made once, before any probe runs. It imports
nothing from modemb, so it never changes with it.
"""
from __future__ import annotations

import time
from fractions import Fraction

import numpy as np

PROBE_GAP_NS = 50_000_000

_rng = np.random.default_rng(0)
_X = _rng.standard_normal(4096) + 1j * _rng.standard_normal(4096)
_Y = _rng.standard_normal((32, 32))
_FFT = np.fft.ifft  # bound now, so a probe never goes through a wrapped numpy.fft
_FFT2 = np.fft.fft2


def probe() -> int:
    """Run one probe; return its duration in ns."""
    start = time.perf_counter_ns()
    for _ in range(4):
        np.abs(_FFT(_X))
        np.sum(np.abs(_FFT2(_Y)) ** 2)
    total = Fraction(0)
    for i in range(1, 60):
        total += Fraction(1, i % 31 + 1)
    acc = 0
    for i in range(3000):
        acc += i * i % 7
    return time.perf_counter_ns() - start
