"""Host-speed probe: a fixed reference kernel timed at intervals during a run.

On a shared host the CPU speed a process gets can change by a factor of two
within seconds, and process CPU time moves with wall time, so the slowdown
is not preemption that CPU time would leave out.  A fixed pure-Python loop
slows down in step with the program.  The probe runs such a loop,
``kernel``, from a ``SIGALRM`` handler every ``INTERVAL_S`` of wall time
and records how long each call took.  ``Probe.scaled`` turns a wall-clock
span into seconds at reference speed: the span minus the probe's own time,
times ``REFERENCE_KERNEL_S`` over the kernel's mean time during the span.

The kernel does not depend on ``ralab``, so a change to the program moves
scaled times just as it moves wall time; only the host's speed cancels.
The probe works in the main thread of a single-threaded process only.
"""

from __future__ import annotations

import heapq
import signal
from time import perf_counter

INTERVAL_S = 0.025
# The kernel's time on the 2-core Intel Xeon host the benchmark was tuned
# on, in its fast state; scaled seconds are seconds at that speed.
REFERENCE_KERNEL_S = 350e-6
# Kernel samples above this multiple of their median were stretched by
# preemption, not slowed by the host's speed, and are left out of the mean.
OUTLIER_FACTOR = 3.0


def kernel(n: int = 400) -> int:
    """Heap, dict and integer work, like the simulator's inner loop."""
    heap: list = []
    counts: dict = {}
    acc = 0
    x = 12345
    for i in range(n):
        x = (x * 1103515245 + 12345) & 0x7FFFFFFF
        heapq.heappush(heap, (x, i))
        counts[x & 255] = counts.get(x & 255, 0) + 1
        if len(heap) > 32:
            acc += heapq.heappop(heap)[1]
    return acc


class Probe:
    """Samples the kernel's time while running; ``mark`` splits the samples
    into spans, so set-up and run each get their own speed."""

    def __init__(self) -> None:
        self.samples: list[float] = []
        self.overhead_s = 0.0
        self._previous = None

    def _tick(self, signum, frame) -> None:
        t0 = perf_counter()
        kernel()
        t1 = perf_counter()
        self.samples.append(t1 - t0)
        self.overhead_s += perf_counter() - t0

    def start(self) -> "Probe":
        # a first, cold call of the kernel is not a fair sample
        t0 = perf_counter()
        kernel()
        self.overhead_s += perf_counter() - t0
        self._previous = signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)
        return self

    def stop(self) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        signal.signal(signal.SIGALRM, self._previous or signal.SIG_DFL)

    def mark(self) -> tuple[int, float]:
        """A point to measure a span from: (sample count, probe seconds)."""
        return len(self.samples), self.overhead_s

    def scaled(self, wall_s: float, since: tuple[int, float]) -> tuple[float, float]:
        """(scaled seconds, speed factor) of a span of ``wall_s`` wall
        seconds that began at ``since``, a ``mark()``.  The factor is the
        reference kernel time over the measured one; a span must be long
        enough to hold samples."""
        first, overhead0 = since
        factor = REFERENCE_KERNEL_S / mean_kernel_s(self.samples[first:])
        return (wall_s - (self.overhead_s - overhead0)) * factor, factor


def mean_kernel_s(samples: list[float]) -> float:
    """Mean kernel time, leaving out samples that preemption cut into."""
    ordered = sorted(samples)
    cap = OUTLIER_FACTOR * ordered[len(ordered) // 2]
    kept = [s for s in ordered if s <= cap]
    return sum(kept) / len(kept)
