"""Host-speed-normalised timing.

On a shared machine the same Python code runs up to twice as slow for
seconds to minutes at a time, while the process still gets its full CPU time
(other tenants slow the cores down; they do not take them away).  No amount
of work inside one run averages such a phase away, so every timing the
benchmark reports is converted to *reference seconds*: seconds on a host that
runs ``reference_loop`` in ``REFERENCE_S`` of CPU time.

``HostClock`` samples the host's speed while a workload runs.  A SIGALRM
timer runs the reference loop on the main thread every ``PERIOD`` seconds and
records its thread CPU time; thread CPU time, not wall time, so that worker
threads holding the GIL or a descheduled process do not read as a slow host.
A timed interval is then integrated over the samples: each stretch of wall
time between two samples counts at the mean speed of those two, and the
samples' own time counts for nothing.  The program's code never runs inside
the reference loop, so a change to geoforge moves reference seconds exactly as
it moves wall seconds at a steady host speed.

Whole phases (a pipeline pass, a set-up, a loop of requests) are timed by the
wall clock, converted as above.  A single operation of a few milliseconds,
bracketed by ``began``/``ended``, is timed by the CPU time of the thread that
runs it, scaled by the host speed at that moment: its wall time also holds
the moments the thread was taken off its core, which on a shared machine
make up most of the tail.  A sample due while an operation runs waits for
its end, so that no operation carries a sample's cost.
"""

from __future__ import annotations

import heapq
import signal
import time

import numpy as np

PERIOD = 0.1  # seconds of wall time between speed samples
# CPU seconds of one reference_loop() on the fast phase of the shared 2-vCPU
# machine the benchmark was written on; it fixes the unit, nothing else
REFERENCE_S = 0.0024

_rng = np.random.default_rng(12345)
_STORE = _rng.standard_normal((1000, 48))
_STORE /= np.linalg.norm(_STORE, axis=1, keepdims=True)
_ADJACENCY = _rng.integers(0, len(_STORE), size=(len(_STORE), 24))


def reference_loop(reps: int = 2) -> float:
    """A beam search over a fixed random graph, written with the primitives
    of geoforge's hnsw: a gemv over the whole store, boolean masks, fancy
    indexing, heaps and a small gram matrix.  It calls no geoforge code.
    Returns the float it computes, so none of it is dead."""
    total = 0.0
    for rep in range(reps):
        query = _STORE[rep]
        dists = 1.0 - _STORE @ query
        visited = np.zeros(len(_STORE), dtype=bool)
        visited[0] = True
        candidates = [(float(dists[0]), 0)]
        results = [(-float(dists[0]), 0)]
        for _ in range(60):
            if not candidates:
                break
            _, node = heapq.heappop(candidates)
            row = _ADJACENCY[node]
            row = row[~visited[row]]
            visited[row] = True
            for d, n in zip((1.0 - _STORE[row] @ query).tolist(), row.tolist()):
                heapq.heappush(candidates, (d, n))
                heapq.heappush(results, (-d, n))
                if len(results) > 40:
                    heapq.heappop(results)
        total += float((_STORE[:32] @ _STORE[:32].T).sum()) + len(results)
    return total


def sample_speed() -> tuple[float, float, float]:
    """(wall start, wall end, speed): speed is REFERENCE_S over the CPU time
    one reference loop took, so 1.0 is the reference host."""
    start, cpu = time.perf_counter(), time.thread_time()
    reference_loop()
    cpu = time.thread_time() - cpu
    return start, time.perf_counter(), REFERENCE_S / max(cpu, 1e-9)


class WallClock:
    """Plain seconds, for traced runs: their timings carry no bound, and a
    timer signal would land inside the spans."""

    def __enter__(self):
        return self

    def __exit__(self, *exc) -> None:
        pass

    def began(self) -> tuple[float, float]:
        """The start of one operation on the calling thread, for ``ended``."""
        return time.perf_counter(), time.thread_time()

    def ended(self, began: tuple[float, float]) -> tuple[float, float, float]:
        """The operation's record: wall start, wall end, thread CPU seconds."""
        start, cpu = began
        return start, time.perf_counter(), time.thread_time() - cpu

    def seconds(self, starts, ends) -> np.ndarray:
        """Durations of wall intervals taken while the clock ran."""
        return np.asarray(ends, dtype=float) - np.asarray(starts, dtype=float)

    def scale(self, moments, cpu) -> np.ndarray:
        """Durations of operations of ``cpu`` CPU seconds around wall ``moments``."""
        return np.asarray(cpu, dtype=float)


class HostClock(WallClock):
    """Samples host speed while active, from the main thread only;
    ``seconds`` and ``scale`` then give reference seconds."""

    def __init__(self) -> None:
        self.samples: list[tuple[float, float, float]] = []
        self._open_ops = 0
        self._due = False

    def _sample(self) -> None:
        self.samples.append(sample_speed())

    def _tick(self, signum, frame) -> None:
        if self._open_ops:
            self._due = True
        else:
            self._sample()

    def __enter__(self) -> "HostClock":
        self._previous = signal.signal(signal.SIGALRM, self._tick)
        self._sample()
        signal.setitimer(signal.ITIMER_REAL, PERIOD, PERIOD)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._previous)
        self._sample()

    def began(self) -> tuple[float, float]:
        self._open_ops += 1
        return super().began()

    def ended(self, began: tuple[float, float]) -> tuple[float, float, float]:
        record = super().ended(began)
        self._open_ops -= 1
        if self._due and not self._open_ops:
            self._due = False
            self._sample()
        return record

    def seconds(self, starts, ends) -> np.ndarray:
        # knots at every sample's start and end; the reference seconds
        # elapsed stay flat across a sample and rise between two samples
        # at the mean of their speeds
        knots, values, elapsed = [], [], 0.0
        for i, (start, end, speed) in enumerate(self.samples):
            if i:
                _, prev_end, prev_speed = self.samples[i - 1]
                elapsed += (start - prev_end) * (prev_speed + speed) / 2
            knots += [start, end]
            values += [elapsed, elapsed]
        return np.interp(ends, knots, values) - np.interp(starts, knots, values)

    def scale(self, moments, cpu) -> np.ndarray:
        mids = [(start + end) / 2 for start, end, _ in self.samples]
        return np.asarray(cpu, dtype=float) * np.interp(moments, mids, self.speeds())

    def speeds(self) -> np.ndarray:
        return np.array([speed for _, _, speed in self.samples])
