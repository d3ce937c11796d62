"""A host-speed-corrected clock for a noisy shared sandbox.

The same Python work on this 2-vCPU sandbox runs anywhere between 1.0x
and 1.7x of its quiet time, in bursts that last from tens of
milliseconds to whole runs (neighbouring VMs share the physical core and
its caches). Wall and CPU time both stretch by that factor, so neither a
median over chunks nor a low quantile brings two runs of one commit
within a few per cent of each other.

:class:`HostClock` measures that factor while the program runs: an
interval timer (``SIGALRM``, no thread) fires every ``period`` seconds
(2% of the run at the default) and times a fixed kernel of
benchmark-owned Python work (pointer chasing through an 8 MB float list,
heap pushes, integer arithmetic). The ratio
of the kernel's time to its quiet reference, ``KERNEL_REF_S``, is the
slowdown at that instant. Corrected time integrates busy time as
``dt / slowdown`` over the gaps between kernel runs, so a second of work
at half speed counts as half a second; idle time is left as measured. On a quiet host corrected time equals measured time; on
another machine every value is scaled by one constant, which a
parent-versus-change comparison does not see.

The kernel's own time is excluded from every interval. The clock is off
in traced runs (its handler would be charged to whichever span it
interrupts).
"""

from __future__ import annotations

import heapq
import random
import signal
import time
from bisect import bisect_right
from typing import List, Tuple

__all__ = ["HostClock", "KERNEL_REF_S"]

#: Median kernel time in the quiet phases of the machine the bounds in
#: BENCHMARK.json were measured on (Xeon 2.1 GHz Firecracker guest,
#: CPython 3.11).
KERNEL_REF_S = 0.0044

#: 250k floats: 2 MB of pointers to 6 MB of float objects, several times
#: the L2 cache, so the kernel feels cache pressure from neighbours the
#: way the object-heavy simulator does.
_WORKING_SET = 250_000
#: Random reads per kernel run; sized for about 4 ms.
_STRIDE_SAMPLES = 4_000


class _Kernel:
    """Fixed work whose run time tracks how fast this host runs Python."""

    def __init__(self) -> None:
        rng = random.Random(0x5EED)
        # Floats and ints are not tracked by the cyclic GC, so this
        # working set adds two list traversals, not 250k objects, to the
        # program's own collections.
        self._values = [float(i) for i in range(_WORKING_SET)]
        self._order = [rng.randrange(len(self._values)) for _ in range(_STRIDE_SAMPLES)]
        self._heap = [(rng.random(), i) for i in range(4096)]
        heapq.heapify(self._heap)
        self._table = {}
        self.run()  # the first pass faults the working set in; not a sample

    def run(self) -> float:
        values, heap, table = self._values, self._heap, self._table
        push, pop = heapq.heappush, heapq.heappop
        total = 0.0
        acc = 0
        for step, index in enumerate(self._order):
            total += values[index]
            acc += (index * index) % 7
            when, _ = pop(heap)
            push(heap, (when + 0.37, step))
            table[index & 1023] = (step, total)
        return total + acc


class HostClock:
    """Wall and CPU stamps plus the host's slowdown between them."""

    def __init__(self, period: float = 0.2) -> None:
        self.period = period
        self._kernel = _Kernel()
        #: (wall at kernel start, wall at kernel end, cpu at start, cpu at end)
        self._samples: "List[Tuple[float, float, float, float]]" = []
        self._previous_handler = None
        self._running = False

    # -- sampling ----------------------------------------------------------
    def sample(self) -> "Tuple[float, float]":
        """Run the kernel once and record it. Returns the wall time at its
        start and at its end: close an interval with the first and open
        one with the second, so the kernel's own time falls outside."""
        w0, c0 = time.perf_counter(), time.process_time()
        self._kernel.run()
        w1, c1 = time.perf_counter(), time.process_time()
        self._samples.append((w0, w1, c0, c1))
        return w0, w1

    def _on_alarm(self, _signum, _frame) -> None:
        self.sample()

    def start(self) -> None:
        self._previous_handler = signal.signal(signal.SIGALRM, self._on_alarm)
        signal.setitimer(signal.ITIMER_REAL, self.period, self.period)
        self._running = True
        self.sample()

    def stop(self) -> None:
        if not self._running:
            return
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        signal.signal(signal.SIGALRM, self._previous_handler)
        self._running = False
        self.sample()

    # -- reading -----------------------------------------------------------
    def kernel_times(self) -> "List[float]":
        return [w1 - w0 for w0, w1, _, _ in self._samples]

    def _gaps(self, start: float, end: float):
        """Yield (wall seconds, cpu seconds, slowdown) for every stretch of
        program time between two kernel runs that overlaps [start, end]."""
        samples = self._samples
        if len(samples) < 2:
            raise RuntimeError("the host clock needs a sample on each side of an interval")
        if start < samples[0][0]:
            # Before the first sample (the first lines of run.py, this
            # module's import): nothing to correct with, taken as measured.
            head = min(end, samples[0][0]) - start
            yield head, head, 1.0
        ends = [s[1] for s in samples]
        first = max(0, bisect_right(ends, start) - 1)
        for i in range(first, len(samples) - 1):
            _, gap_start, _, cpu_start = samples[i]
            gap_end, next_end, cpu_end, _ = samples[i + 1]
            if gap_start >= end:
                break
            lo, hi = max(gap_start, start), min(gap_end, end)
            if hi <= lo:
                continue
            share = (hi - lo) / (gap_end - gap_start)
            cpu = (cpu_end - cpu_start) * share
            kernel = ((samples[i][1] - samples[i][0]) + (next_end - gap_end)) / 2
            # A kernel run that interrupted a sleep displaced nothing:
            # the program's idle time went on underneath it. Credit the
            # gap with the idle share of the kernel run that closed it.
            idle_share = max(0.0, 1.0 - cpu / (hi - lo))
            covered = max(0.0, min(next_end, end) - gap_end)
            yield (hi - lo) + idle_share * covered, cpu, kernel / KERNEL_REF_S

    def wall(self, start: float, end: float) -> "Tuple[float, float]":
        """(measured, corrected) wall seconds of program time in [start,
        end]. Only the busy part is corrected: a sleep lasts as long on a
        slow host as on a quick one."""
        raw = corrected = 0.0
        for wall, cpu, slowdown in self._gaps(start, end):
            busy = min(wall, cpu)
            raw += wall
            corrected += (wall - busy) + busy / slowdown
        return raw, corrected

    def cpu(self, start: float, end: float) -> "Tuple[float, float]":
        """(measured, corrected) process CPU seconds spent in [start, end],
        kernel runs excluded."""
        raw = corrected = 0.0
        for _wall, cpu, slowdown in self._gaps(start, end):
            raw += cpu
            corrected += cpu / slowdown
        return raw, corrected
