"""Host-speed correction for the end-to-end times.

The two cores of the benchmark host are shared with other machines' work, and
their speed drifts: a fixed loop of KDE calls takes anywhere from 0.43 to
0.82 s, in spells lasting seconds to minutes, with process CPU time equal to
wall time (so it is not time stolen from the process but slower execution),
and the two cores drift independently (correlation 0.38).  Raw `analyze`
times of identical work then spread by 13-26% within a set of ten runs, and
the medians of two sets half an hour apart differed by 34%.

So each timed operation is interleaved with a reference: a fixed piece of
NumPy work shaped like the pipeline's inner loop (Gaussian weights of 9 query
rows against 1000 points in R^2).  The clock hooks
``KernelDensity.gradient_batch``; at most every ``SAMPLE_EVERY_S`` seconds a
call runs the reference on its own thread before going through.  Five more
samples are taken just before and just after the operation.  A sample is the
calling thread's CPU time, so that waiting for the interpreter lock held by a
pool worker does not read as a slow host.  The reported time is the
operation's wall time, less the wall time spent in samples, scaled by
``REFERENCE_S / median(samples)``: the seconds the operation would take with
the host at reference speed.
"""

from __future__ import annotations

import contextlib
import statistics
import threading
import time

import numpy as np

SAMPLE_EVERY_S = 0.25
EDGE_SAMPLES = 5
# Typical duration of one reference sample taken during the pipeline on a
# 2-vCPU Intel Xeon at 2.1 GHz (numpy 2.4, OpenBLAS 0.3.31), so that corrected
# times read close to typical wall times; it only sets their scale.
REFERENCE_S = 1.2e-3

_rng = np.random.default_rng(0)
_POINTS = _rng.standard_normal((1000, 2))
_QUERIES = _rng.standard_normal((9, 2))


def reference_sample() -> tuple[float, float]:
    """(CPU, wall) seconds taken by the fixed reference work, run here and now.

    The CPU time is the calling thread's, so that time spent waiting for the
    interpreter lock held by another thread does not count as a slow host.
    """
    cpu, wall = time.thread_time(), time.perf_counter()
    for _ in range(2):
        d = _QUERIES[:, None, :] - _POINTS[None, :, :]
        w = np.exp(-(d * d).sum(axis=2) / 1.28)
        (w[:, :, None] * d).sum(axis=1)
    return time.thread_time() - cpu, time.perf_counter() - wall


def speed_factor(samples: list[float]) -> float:
    return REFERENCE_S / statistics.median(samples)


class HostClock:
    """Times operations and the host's speed while they run."""

    def __init__(self):
        self._lock = threading.Lock()
        self._active = False
        self._samples: list[float] = []
        self._spent = 0.0
        self._last = 0.0

    def _sample(self):
        cpu, wall = reference_sample()
        self._samples.append(cpu)
        self._spent += wall
        self._last = time.perf_counter()

    def hook(self, fn):
        """Wrap ``fn`` so that calls to it take a reference sample now and then."""
        def sampled(*args, **kwargs):
            if self._active and time.perf_counter() - self._last >= SAMPLE_EVERY_S \
                    and self._lock.acquire(blocking=False):
                try:
                    self._sample()
                finally:
                    self._lock.release()
            return fn(*args, **kwargs)
        sampled.__wrapped__ = fn
        return sampled

    @contextlib.contextmanager
    def measure(self, record: dict, name: str):
        """Time the block into ``record[name]`` (corrected) and ``record[name + '_wall']``."""
        self._samples = [reference_sample()[0] for _ in range(EDGE_SAMPLES)]
        self._spent = 0.0
        self._last = time.perf_counter()
        self._active = True
        start = time.perf_counter()
        try:
            yield
        finally:
            wall = time.perf_counter() - start - self._spent
            self._active = False
            self._samples += [reference_sample()[0] for _ in range(EDGE_SAMPLES)]
            record[name + "_wall"] = wall
            record[name] = wall * speed_factor(self._samples)


def corrected(fn) -> tuple[float, float]:
    """(corrected, wall) seconds of ``fn()``, sampling the host just before and after."""
    record: dict = {}
    with HostClock().measure(record, "t"):
        fn()
    return record["t"], record["t_wall"]
