"""Sample statistics, memory and store digests shared by every workload.

A timing is reported as a percentile only when the run collected at least
:data:`MIN_BEYOND` samples beyond it; :func:`percentile` refuses anything
less, and :func:`samples_needed` tells a measurement loop how long to go on.
"""

from __future__ import annotations

import gc
import hashlib
import math
import resource
import time
from typing import Iterable, Mapping, Sequence

import numpy as np

#: Samples a run must hold beyond a reported percentile.
MIN_BEYOND = 10


class InsufficientSamples(ValueError):
    """A percentile was asked of fewer samples than the rule allows."""


def samples_needed(q: float) -> int:
    """Smallest sample count with :data:`MIN_BEYOND` samples beyond ``q``."""
    return math.ceil(MIN_BEYOND / (1.0 - q) - 1e-9)


def percentile(samples: Sequence[float], q: float) -> float:
    """The ``q`` quantile of ``samples``; raises unless the rule holds."""
    need = samples_needed(q)
    if len(samples) < need:
        raise InsufficientSamples(
            f"p{q * 100:g} needs {need} samples, have {len(samples)}")
    return float(np.quantile(np.asarray(samples, dtype=float), q))


def median(samples: Sequence[float]) -> float:
    """Median under the same rule (:func:`percentile` at 0.5)."""
    return percentile(samples, 0.5)


def plain_median(samples: Sequence[float]) -> float:
    """Median of a handful of repeats (set-up builds), no sample rule."""
    return float(np.median(np.asarray(samples, dtype=float)))


#: Milliseconds :func:`_calibration_kernel` takes on an uncontended 2-CPU
#: sandbox of the kind the benchmark was tuned on (Python 3.11, NumPy 2).
REFERENCE_MS = 6.0


def _calibration_kernel() -> None:
    """Fixed interpreter, dict and NumPy work, independent of the program."""
    counts: dict[int, int] = {}
    for i in range(30000):
        key = i % 997
        counts[key] = counts.get(key, 0) + i
    values = np.arange(20000.0)
    for _ in range(30):
        values = np.sort(values[::-1]) + 1.0


class HostSpeed:
    """How fast the host runs a fixed kernel, sampled between operations.

    A shared sandbox slows down and speeds up by tens of percent over
    seconds and minutes as other tenants load the host.  Timed metrics are
    scaled by the host's speed when they were measured, relative to
    :data:`REFERENCE_MS`, so they read what the work takes on the
    reference host.  On a report cycle measured interleaved with the kernel
    for 100 s, 5-second medians of the two correlated at 0.90 and scaling
    halved the spread of the cycle time (quartile spread 0.16 to 0.08).
    The kernel runs with the garbage collector off, so the program's heap
    cannot slow it.
    """

    def __init__(self) -> None:
        self.times: list[float] = []
        self.factors: list[float] = []

    def sample(self) -> None:
        best = float("inf")
        gc.disable()
        try:
            for _ in range(3):
                started = time.perf_counter()
                _calibration_kernel()
                best = min(best, time.perf_counter() - started)
        finally:
            gc.enable()
        self.times.append(time.perf_counter())
        self.factors.append(REFERENCE_MS / (best * 1e3))

    def since_last(self) -> float:
        return (time.perf_counter() - self.times[-1] if self.times
                else float("inf"))

    def scaled(self, start: float, end: float) -> float:
        """Seconds ``[start, end]`` would take on the reference host."""
        factor = np.interp((start + end) / 2.0, self.times, self.factors)
        return (end - start) * float(factor)


def peak_rss_mb() -> float:
    """Max resident set of this process and of any child it waited for."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(own, children) / 1024.0  # ru_maxrss is KiB on Linux


def segment_digest(store) -> str:
    """sha256 over a store's committed segment list (name, kind, sha256)."""
    digest = hashlib.sha256()
    for meta in store.segments:
        digest.update(f"{meta.name}:{meta.kind}:{meta.sha256}\n".encode())
    return digest.hexdigest()


def content_digest(columns: Mapping[str, np.ndarray],
                   names: Iterable[str]) -> str:
    """sha256 over column values in row order, independent of segmenting."""
    digest = hashlib.sha256()
    for name in names:
        array = columns[name]
        digest.update(name.encode())
        if array.dtype.kind == "U":
            digest.update("\x00".join(array.tolist()).encode())
        else:
            digest.update(np.ascontiguousarray(array).tobytes())
    return digest.hexdigest()


def store_bytes(store) -> int:
    """On-disk bytes of every committed segment of a store."""
    return sum(entry["bytes"] for entry in store.format_summary().values())
