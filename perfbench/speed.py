"""How fast the benchmark's CPU runs, measured beside the program.

The benchmark shares a host whose cores change speed under it: a fixed
pure-Python loop pinned to one core of the 2-vCPU host the benchmark was
built on took from 26 to 39 ms of CPU time from one second to the next,
in spells lasting seconds, and
closed-loop throughput moved with it by up to a third between runs of the
same code.  That drift is the host's, not the program's, so the
timings that are CPU work are reported at a fixed reference speed.

:class:`SpeedProbe` starts this file as a separate process, pinned to the
benchmark's CPU (it inherits the affinity).  Every ``PERIOD_S`` it runs
:func:`chunk`, a fixed loop that touches no memory beyond a few objects,
and records when it started and how much CPU time it took.  Two choices
keep the samples about the host rather than the program:

* CPU time, not wall time: while the program's threads hold the core the
  probe's clock stops, so the program's own load, a background thread it
  starts, or a longer queue never reads as a slower host.
* A separate interpreter: a trace hook, a garbage-collector setting or a
  heap the program builds cannot slow the loop, so a change that slows
  the whole interpreter still shows in the scaled figures.

The probe costs the program about ``chunk / PERIOD_S`` (3%) of the core,
alike on every commit.  :meth:`SpeedProbe.speed` turns the samples of an
interval into a factor, above 1 when the host ran faster than the
reference: a rate scales as ``rate / speed`` and a duration as
``duration * speed``.  Timestamps are ``time.perf_counter()``, which on
Linux reads the system-wide monotonic clock, so the two processes' times
compare.

Run as a script it is the probe itself: it prints ``ready``, samples
until a line (or end of file) arrives on standard input, then prints its
samples as one JSON list of ``[start, cpu_seconds]`` pairs.
"""

from __future__ import annotations

import json
import os
import select
import statistics
import subprocess
import sys
import time
from typing import List, Optional, Tuple

#: Pause between two samples.
PERIOD_S = 0.05

#: Loop length of one sample.
CHUNK_ITERATIONS = 20_000

#: CPU seconds one :func:`chunk` takes at the reference speed: the
#: median of the first probe runs on the 2-vCPU host the benchmark was
#: built on.  A constant, so every commit is scaled to the same speed.
REFERENCE_CHUNK_S = 0.0015


def chunk() -> int:
    total = 0
    for value in range(CHUNK_ITERATIONS):
        total += value * value % 7
    return total


def sample_until_told() -> List[Tuple[float, float]]:
    """Take samples until standard input is readable (a line or EOF)."""
    samples: List[Tuple[float, float]] = []
    print("ready", flush=True)
    while not select.select([sys.stdin], [], [], PERIOD_S)[0]:
        started = time.perf_counter()
        cpu = time.process_time()
        chunk()
        samples.append((started, time.process_time() - cpu))
    return samples


def speed_of(
    samples: List[Tuple[float, float]], start: float, end: float
) -> Optional[float]:
    """Median speed factor of the samples started in ``[start, end)``;
    ``None`` when there are none."""
    inside = [
        cpu for moment, cpu in samples if start <= moment < end and cpu > 0
    ]
    if not inside:
        return None
    return REFERENCE_CHUNK_S / statistics.median(inside)


class SpeedProbe:
    """The probe process over a ``with`` block; stopped and waited for on
    every way out of it."""

    def __init__(self) -> None:
        self.samples: List[Tuple[float, float]] = []
        self._process: Optional[subprocess.Popen] = None

    def __enter__(self) -> "SpeedProbe":
        self._process = subprocess.Popen(
            [sys.executable, os.path.abspath(__file__)],
            stdin=subprocess.PIPE,
            stdout=subprocess.PIPE,
            text=True,
        )
        try:
            if self._process.stdout.readline().strip() != "ready":
                raise RuntimeError("the speed probe did not start")
        except BaseException:
            self._kill()
            raise
        return self

    def __exit__(self, *exc_info) -> None:
        process, self._process = self._process, None
        try:
            out, _ = process.communicate("stop\n", timeout=30)
        except BaseException:
            process.kill()
            process.wait()
            raise
        if process.returncode == 0:
            self.samples = [tuple(pair) for pair in json.loads(out)]

    def _kill(self) -> None:
        process, self._process = self._process, None
        process.kill()
        process.wait()

    def speed(self, start: float, end: float) -> float:
        """Speed factor over ``[start, end)``, or over the whole probe
        when no sample started inside the interval."""
        factor = speed_of(self.samples, start, end)
        if factor is None:
            factor = speed_of(self.samples, float("-inf"), float("inf"))
        if factor is None:
            raise RuntimeError("the speed probe took no samples")
        return factor


if __name__ == "__main__":
    json.dump(sample_until_told(), sys.stdout)
    sys.stdout.write("\n")
