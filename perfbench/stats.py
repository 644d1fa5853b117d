"""Small helpers shared by the load loops, the tracer and the report.

Kept free of any ``repro`` import so the unit tests run without the
program on the path.
"""

from __future__ import annotations

import hashlib
import math
import random
from typing import Iterable, List, Sequence, Tuple


def percentile(values: Sequence[float], q: float) -> Tuple[float, int]:
    """Nearest-rank percentile ``q`` (0-100) and the sample count.

    Returns ``(0.0, 0)`` on an empty sample, so a layer a workload never
    reaches reports zero with a count that says why.
    """
    if not 0.0 <= q <= 100.0:
        raise ValueError(f"percentile q must be in [0, 100], got {q!r}")
    count = len(values)
    if count == 0:
        return 0.0, 0
    ordered = sorted(values)
    rank = max(1, math.ceil(q / 100.0 * count))
    return float(ordered[rank - 1]), count


def mean(values: Sequence[float]) -> float:
    """Arithmetic mean; 0.0 on an empty sample."""
    return float(sum(values)) / len(values) if values else 0.0


def covered_length(
    intervals: Iterable[Tuple[float, float]], start: float, end: float
) -> float:
    """Length of ``[start, end]`` covered by the union of ``intervals``.

    Intervals are clipped to the window first, so a child span that
    overran its parent (an abandoned executor future) only counts inside
    the parent, and overlapping children are not counted twice.
    """
    clipped = sorted(
        (max(lo, start), min(hi, end))
        for lo, hi in intervals
        if min(hi, end) > max(lo, start)
    )
    total = 0.0
    cur_lo = cur_hi = None
    for lo, hi in clipped:
        if cur_hi is None or lo > cur_hi:
            if cur_hi is not None:
                total += cur_hi - cur_lo
            cur_lo, cur_hi = lo, hi
        else:
            cur_hi = max(cur_hi, hi)
    if cur_hi is not None:
        total += cur_hi - cur_lo
    return total


def self_time(
    start: float, end: float, children: Iterable[Tuple[float, float]]
) -> float:
    """A span's duration minus the part of it its child spans cover."""
    return (end - start) - covered_length(children, start, end)


def due_times(gaps: Iterable[float], start: float) -> List[float]:
    """Absolute send times: ``start`` plus the running sum of ``gaps``.

    The first request is due at ``start + gaps[0]``; a late send never
    shifts later due times, which is what keeps an open loop open.
    """
    out: List[float] = []
    due = start
    for gap in gaps:
        if gap < 0:
            raise ValueError("inter-arrival gaps must be non-negative")
        due += gap
        out.append(due)
    return out


def slices(
    done: Sequence[float], start: float, end: float, length: float
) -> List[List[int]]:
    """Positions of ``done`` grouped by the ``length``-second slice of
    ``[start, end]`` they fall in; the remainder joins the last slice,
    so every slice spans at least ``length`` seconds."""
    count = max(1, int((end - start) // length))
    groups: List[List[int]] = [[] for _ in range(count)]
    for position, moment in enumerate(done):
        index = min(count - 1, max(0, int((moment - start) // length)))
        groups[index].append(position)
    return groups


def stream_rng(seed: int, *parts: object) -> random.Random:
    """An RNG that depends only on ``seed`` and ``parts``.

    Hash-derived, so neighbouring request indices give unrelated streams
    and request *i* never depends on how many requests came before it.
    """
    digest = hashlib.blake2b(
        repr((seed,) + parts).encode(), digest_size=8
    ).digest()
    return random.Random(int.from_bytes(digest, "big"))
