"""Load generators: a closed loop and an open loop on absolute due times.

Neither loop reuses ``repro.runtime.LoadGenerator``: its open loop
sleeps the whole inter-arrival gap *after* each submit, so every
submission's own cost delays all later arrivals and the achieved rate
falls short of the target.  :func:`open_loop` instead sends request *i*
at ``start + offset_i`` whatever happened before, times each session
from that due time, and rejects the run if it could not keep up.
"""

from __future__ import annotations

import asyncio
import itertools
import time
from array import array
from typing import Any, Dict, List, Optional, Tuple

from stats import due_times, stream_rng

#: Statuses that count against ``failed_share`` besides wrong answers
#: (an internal error surfaces as ``failed``).
FAILED_STATUSES = frozenset(
    ("failed", "overloaded", "deadline-exceeded", "bulkhead-rejected")
)

#: An open-loop run is rejected when it sends slower than this share of
#: its own schedule's rate.
MIN_ACHIEVED_SHARE = 0.9


class LoadError(Exception):
    """The load generator could not produce the load it promised."""


def outcome_key(key: Any, result: Any) -> tuple:
    """What the oracle needs to judge one session, hashable so equal
    outcomes are judged once: ``(problem key, status, service id,
    agreed level, candidate service ids)``."""
    negotiation = result.negotiation
    candidates: Tuple[str, ...] = ()
    if negotiation is not None:
        candidates = tuple(
            evaluation.description.service_id
            for evaluation in negotiation.evaluations
        )
    service, level = None, None
    if result.sla is not None:
        service, level = result.sla.service_ids[0], result.sla.agreed_level
    return (key, result.status.value, service, level, candidates)


class Tally:
    """Per-session facts of one measured window, kept in flat arrays so
    the load generator adds little to the memory it measures."""

    def __init__(self) -> None:
        self.session = array("q")
        self.done = array("d")  # completion time, perf_counter seconds
        self.latency_ms = array("d")  # from due time (open) / submission
        self.send_lag_ms = array("d")
        self.queue_wait_ms = array("d")  # as the program measured it
        self.server_latency_ms = array("d")  # ditto, from shard submit
        self.attempts = array("i")
        self.retries = array("i")
        self.outcome = array("i")  # index into ``outcomes``
        self.outcomes: List[tuple] = []
        self._outcome_index: Dict[tuple, int] = {}
        self.started = 0.0
        self.last_send = 0.0
        self.last_done = 0.0

    def record(
        self,
        session: int,
        key: Any,
        result: Any,
        due: float,
        done: float,
        send_lag: float,
    ) -> None:
        outcome = outcome_key(key, result)
        index = self._outcome_index.get(outcome)
        if index is None:
            index = self._outcome_index[outcome] = len(self.outcomes)
            self.outcomes.append(outcome)
        self.session.append(session)
        self.done.append(done)
        self.latency_ms.append((done - due) * 1e3)
        self.send_lag_ms.append(send_lag * 1e3)
        self.queue_wait_ms.append(result.queue_wait_s * 1e3)
        self.server_latency_ms.append(result.latency_s * 1e3)
        self.attempts.append(result.attempts)
        self.retries.append(result.retries)
        self.outcome.append(index)
        self.last_done = max(self.last_done, done)

    def __len__(self) -> int:
        return len(self.session)

    @property
    def duration_s(self) -> float:
        return self.last_done - self.started

    def status(self, position: int) -> str:
        return self.outcomes[self.outcome[position]][1]


async def closed_loop(
    server: Any,
    stream: Any,
    clients: int,
    first_index: int,
    seconds: Optional[float] = None,
    sessions: Optional[int] = None,
    recorder: Optional[Any] = None,
) -> Tally:
    """``clients`` loops, each sending its next request when its last
    one resolved, until ``seconds`` have passed or ``sessions`` were
    sent; then waits for the sessions still in flight."""
    tally = Tally()
    indices = itertools.count(first_index)
    stop_index = first_index + sessions if sessions is not None else None
    tally.started = time.perf_counter()
    deadline = tally.started + seconds if seconds is not None else None

    async def client() -> None:
        ready = time.perf_counter()
        while deadline is None or ready < deadline:
            index = next(indices)
            if stop_index is not None and index >= stop_index:
                return
            request, key = stream.request(index)
            if recorder is not None:
                recorder.bind(request, index)
            sent = time.perf_counter()
            result = await server.submit(request)
            done = time.perf_counter()
            tally.record(index, key, result, sent, done, sent - ready)
            tally.last_send = max(tally.last_send, sent)
            ready = done

    await asyncio.gather(*(client() for _ in range(clients)))
    return tally


def poisson_offsets(
    seed: int,
    rate: float,
    first_index: int,
    seconds: Optional[float] = None,
    sessions: Optional[int] = None,
) -> List[float]:
    """Due offsets (seconds from the window start) of one open-loop
    window that ends after ``seconds`` or ``sessions`` arrivals; gap *i*
    is drawn from ``(seed, i)`` alone."""
    gaps: List[float] = []
    total = 0.0
    for index in itertools.count(first_index):
        if sessions is not None and len(gaps) >= sessions:
            break
        gap = stream_rng(seed, "gap", index).expovariate(rate)
        total += gap
        if seconds is not None and total > seconds:
            break
        gaps.append(gap)
    return due_times(gaps, 0.0)


async def open_loop(
    server: Any,
    stream: Any,
    offsets: List[float],
    first_index: int,
    recorder: Optional[Any] = None,
) -> Tally:
    """Send request ``first_index + k`` at ``start + offsets[k]``."""
    if not offsets:
        raise LoadError("an open-loop window needs at least one arrival")
    tally = Tally()
    pending: List["asyncio.Future[Any]"] = []
    tally.started = start = time.perf_counter()
    for k, offset in enumerate(offsets):
        due = start + offset
        now = time.perf_counter()
        if due > now:
            await asyncio.sleep(due - now)
        index = first_index + k
        request, key = stream.request(index)
        if recorder is not None:
            recorder.bind(request, index)
        sent = time.perf_counter()
        future = server.submit(request)

        def done(
            finished: Any,
            index: int = index,
            key: Any = key,
            due: float = due,
            lag: float = sent - due,
        ) -> None:
            tally.record(
                index, key, finished.result(), due, time.perf_counter(), lag
            )

        # Registered before ``gather`` adds its own callback, so every
        # session is tallied by the time the gather below returns.
        future.add_done_callback(done)
        pending.append(future)
        tally.last_send = sent
    await asyncio.gather(*pending)
    scheduled = offsets[-1]
    achieved = tally.last_send - start
    if achieved > 0 and scheduled / achieved < MIN_ACHIEVED_SHARE:
        raise LoadError(
            f"open loop fell behind: sent {len(offsets)} requests in "
            f"{achieved:.3f}s against a {scheduled:.3f}s schedule"
        )
    return tally


def achieved_rate(tally: Tally) -> float:
    """Sessions sent per second of sending."""
    span = tally.last_send - tally.started
    return len(tally) / span if span > 0 else 0.0
