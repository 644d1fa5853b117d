"""Stress test of the keyed leader/follower coalescer.

Both schedulers share one coalescer: :class:`BatchScheduler` keys it by
constraint topology, :class:`RoundScheduler` by market.  Each seed draws
a thread switch interval (``sys.setswitchinterval``) and a window/cap
setting, then starts a fixed number of callers at once through each
scheduler.  Whatever the interleaving, every caller must get the result
for its own input, the session counters must account for every caller,
no group may stay open, and a dispatch that raises must reach every
member of its group.
"""

import random
import sys
import threading
import time

import pytest

from repro.constraints import TableConstraint, variable
from repro.runtime import (
    BatchConfig,
    BatchScheduler,
    RoundScheduler,
    contention_request_factory,
    synthesize_contention_market,
)
from repro.semirings import WeightedSemiring
from repro.solver import SCSP
from repro.soa import Broker

#: Concurrent callers per run: small and fixed.
CALLERS = 16
SEEDS = range(5)


@pytest.fixture(params=SEEDS)
def config(request):
    """A per-seed switch interval and coalescing window; the interpreter's
    interval is restored afterwards."""
    rng = random.Random(request.param)
    previous = sys.getswitchinterval()
    sys.setswitchinterval(rng.uniform(1e-5, 1e-3))
    try:
        yield BatchConfig(
            window_ms=rng.choice((0.0, 1.0, 5.0)),
            max_batch=rng.choice((2, 5, CALLERS, 2 * CALLERS)),
        )
    finally:
        sys.setswitchinterval(previous)


def _run_all(call, inputs):
    """``call(input)`` from one thread per input, all released at once;
    returns (results, errors) in input order."""
    results = [None] * len(inputs)
    errors = [None] * len(inputs)
    barrier = threading.Barrier(len(inputs))

    def work(index):
        barrier.wait()
        try:
            results[index] = call(inputs[index])
        except BaseException as exc:  # noqa: BLE001 - inspected below
            errors[index] = exc

    threads = [
        threading.Thread(target=work, args=(index,), daemon=True)
        for index in range(len(inputs))
    ]
    for thread in threads:
        thread.start()
    deadline = time.monotonic() + 30.0
    for thread in threads:
        thread.join(timeout=max(0.0, deadline - time.monotonic()))
    assert not any(thread.is_alive() for thread in threads), "caller hung"
    return results, errors


def _problem(offset, weighted=WeightedSemiring()):
    """One shared topology; the best level is ``offset``, so every
    caller's answer names its own input."""
    x = variable("x", (0, 1, 2))
    y = variable("y", (0, 1))
    table = {
        (i, j): float(offset + (i + 2 * j) % 3)
        for i in range(3)
        for j in range(2)
    }
    return SCSP([TableConstraint(weighted, [x, y], table)], con=["x"])


def _requests():
    factory = contention_request_factory()
    return [factory(f"c{index}", index) for index in range(CALLERS)]


class _Boom(Exception):
    pass


def _explode(*args, **kwargs):
    raise _Boom("dispatch failed")


def test_batch_scheduler_fans_back_own_results(config):
    scheduler = BatchScheduler(config)
    problems = [_problem(offset) for offset in range(CALLERS)]
    results, errors = _run_all(scheduler.solve, problems)
    assert errors == [None] * CALLERS
    for offset, (problem, result) in enumerate(zip(problems, results)):
        assert result.problem is problem
        assert result.blevel == float(offset)
    stats = scheduler.stats()
    assert stats["sessions_batched"] == CALLERS
    assert stats["largest_batch"] <= config.max_batch
    assert stats["open_groups"] == 0


def test_round_scheduler_fans_back_own_results(config):
    market = synthesize_contention_market(providers=3)
    broker = Broker(market, allocation_policy="greedy")
    scheduler = RoundScheduler(config)
    requests = _requests()
    results, errors = _run_all(
        lambda request: scheduler.negotiate(broker, request), requests
    )
    assert errors == [None] * CALLERS
    plain = Broker(market)
    for request, result in zip(requests, results):
        assert result.request is request
        alone = plain.negotiate(request)
        assert result.sla.providers == alone.sla.providers
        assert result.sla.agreed_level == alone.sla.agreed_level
    stats = scheduler.stats()
    assert stats["sessions_rounded"] == CALLERS
    assert stats["largest_round"] <= config.max_batch
    assert stats["open_groups"] == 0


def test_batch_dispatch_error_reaches_every_member(config, monkeypatch):
    import repro.runtime.batching as batching

    monkeypatch.setattr(batching, "solve_elimination_batch", _explode)
    scheduler = BatchScheduler(config)
    problems = [_problem(offset) for offset in range(CALLERS)]
    results, errors = _run_all(scheduler.solve, problems)
    assert results == [None] * CALLERS
    assert all(isinstance(error, _Boom) for error in errors)
    assert scheduler.stats()["batches_dispatched"] == 0
    assert scheduler.stats()["open_groups"] == 0


def test_round_dispatch_error_reaches_every_member(config):
    broker = Broker(synthesize_contention_market(providers=3))
    broker.negotiate_round = _explode
    scheduler = RoundScheduler(config)
    results, errors = _run_all(
        lambda request: scheduler.negotiate(broker, request), _requests()
    )
    assert results == [None] * CALLERS
    assert all(isinstance(error, _Boom) for error in errors)
    assert scheduler.stats()["rounds_dispatched"] == 0
    assert scheduler.stats()["open_groups"] == 0
