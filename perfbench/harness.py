"""Small pure helpers of the benchmark: the tail-percentile rule, span self
time, ratios with their base, output digests and the host-speed scaling.

Nothing here imports the library, so the helpers are tested on their own
(``perfbench/tests/test_harness.py``).
"""

from __future__ import annotations

import hashlib
import math
import statistics
import time
from collections import defaultdict, namedtuple

import numpy as np

# Candidate tail percentiles, highest first, and how many instances must lie
# beyond one before it is reported.
TAIL_PERCENTILES = (90, 75)
MIN_BEYOND = 10


def nearest_rank(values, q: float):
    """Nearest-rank q-th percentile of ``values`` and how many values lie
    beyond it in sorted order."""
    if not values:
        raise ValueError("percentile of no values")
    ordered = sorted(values)
    idx = max(math.ceil(q / 100.0 * len(ordered)) - 1, 0)
    return ordered[idx], len(ordered) - idx - 1


def tail(values):
    """(value, percentile, beyond) for the highest of p90 and p75 with at
    least ``MIN_BEYOND`` instances beyond it.  With fewer than 40 values
    neither qualifies, and the median is reported with the count above it."""
    for q in TAIL_PERCENTILES:
        value, beyond = nearest_rank(values, q)
        if beyond >= MIN_BEYOND:
            return value, q, beyond
    mid = median(values)
    return mid, 50, sum(v > mid for v in values)


def median(values) -> float:
    return float(statistics.median(values))


def ratio(num: float, base: float) -> float:
    """num / base, and 0.0 for a zero base; callers report the base next to
    the ratio so a zero reads as "no base", not as a measured zero."""
    return float(num) / float(base) if base else 0.0


def union_length(intervals, lo: float, hi: float) -> float:
    """Length of the union of ``intervals`` clipped to [lo, hi]."""
    total = 0.0
    cur_start = cur_end = None
    for start, end in sorted(intervals):
        start, end = max(start, lo), min(end, hi)
        if end <= start:
            continue
        if cur_end is None or start > cur_end:
            if cur_end is not None:
                total += cur_end - cur_start
            cur_start, cur_end = start, end
        else:
            cur_end = max(cur_end, end)
    if cur_end is not None:
        total += cur_end - cur_start
    return total


def self_times(start, end, parent):
    """Each span's duration minus the union of its children's intervals.

    ``parent[i]`` is the index of span i's parent, or -1 for a root.
    """
    children = defaultdict(list)
    for i, p in enumerate(parent):
        if p >= 0:
            children[p].append((start[i], end[i]))
    return [end[i] - start[i] - union_length(children.get(i, ()), start[i], end[i])
            for i in range(len(start))]


class Digest:
    """SHA-256 over labelled values: floats by their exact bits, arrays by
    shape and complex128 bytes, everything else by ``repr``."""

    def __init__(self):
        self._h = hashlib.sha256()

    def add(self, label: str, *values) -> None:
        self._h.update(label.encode())
        for value in values:
            if isinstance(value, (str, bool)) or value is None:
                self._h.update(b"r" + repr(value).encode())
                continue
            arr = np.asarray(value)
            if arr.dtype.kind not in "biufc":
                self._h.update(b"r" + repr(value).encode())
                continue
            arr = np.ascontiguousarray(arr, dtype=np.complex128)
            self._h.update(b"a" + repr(arr.shape).encode() + arr.tobytes())

    def hexdigest(self) -> str:
        return self._h.hexdigest()


def combine_digests(per_instance: dict) -> str:
    """One digest for a workload from its per-instance digests."""
    h = hashlib.sha256()
    for key in sorted(per_instance):
        h.update(("%s:%s;" % (key, per_instance[key])).encode())
    return h.hexdigest()



# Host-speed scaling.  The shared host's speed shifts by up to a factor of
# two from one second to the next and between runs, and a run can spend all
# of its time in the slow state.  The benchmark therefore runs a fixed
# reference kernel every SEGMENT_S or so (at instance and operation
# boundaries, never inside a library call) and scales the time between two
# kernel runs by NOMINAL_REF_S / (mean of the two kernel times): seconds as
# the work would take on the host when the kernel takes NOMINAL_REF_S (its
# time in the fast state of a 2-vCPU Xeon host).  The kernel runs numpy
# only, never library code, so no change to the library moves it.

NOMINAL_REF_S = 0.012
SEGMENT_S = 0.25

Record = namedtuple("Record", "slot seconds ledger scaled")
Record.__doc__ = """One instance: pool slot, wall seconds (reference kernel runs left
out), its Ledger, and its seconds at the nominal host speed."""


def scaled(seconds: float, ref_s: float) -> float:
    """``seconds`` at the nominal host speed, given the kernel time ``ref_s``."""
    return seconds * NOMINAL_REF_S / ref_s


class HostClock:
    """Running totals of wall and host-scaled seconds, kernel runs left out.

    ``mark`` closes the stretch since the previous kernel run, when at least
    ``segment_s`` have passed or when forced, by running the kernel again; a
    forced mark less than a millisecond after a kernel run closes the
    stretch at the previous kernel time.
    """

    def __init__(self, segment_s: float = SEGMENT_S):
        self.segment_s = segment_s
        self.seconds = self.scaled = 0.0
        self.kernel = []
        self._ref = self._run_kernel()
        self._t = time.perf_counter()

    def _run_kernel(self) -> float:
        ref = reference_kernel()
        self.kernel.append(ref)
        return ref

    def mark(self, force: bool = False) -> None:
        dt = time.perf_counter() - self._t
        if not force and dt < self.segment_s:
            return
        if dt < 1e-3:  # forced right after a kernel run: close without another
            self.seconds += dt
            self.scaled += scaled(dt, self._ref)
            self._t += dt
            return
        ref = self._run_kernel()
        self.seconds += dt
        self.scaled += scaled(dt, (self._ref + ref) / 2)
        self._ref = ref
        self._t = time.perf_counter()


def _reference_inputs():
    rng = np.random.default_rng(20101432)
    small = []
    for n in (4, 6, 9):
        a = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
        small.append(a + a.conj().T)
    return small, rng.standard_normal((160, 160))


_REFERENCE = _reference_inputs()
# bound at import, so the kernel bypasses the tracer's numpy.linalg patches
_EIGH = np.linalg.eigh


def reference_kernel() -> float:
    """Seconds taken by a fixed piece of numpy work in the workloads' mix:
    small Hermitian eigensolves, an interpreter loop and one larger matrix
    product."""
    small, big = _REFERENCE
    t = time.perf_counter()
    for _ in range(200):
        for a in small:
            _EIGH(a)
    acc = 0.0
    for i in range(20000):
        acc += i * 0.5
    big @ big
    return time.perf_counter() - t
