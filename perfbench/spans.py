"""The traced run: spans recorded around the calls into each layer.

The program is not edited.  :class:`SpanRecorder` replaces, for the
traced window only, the public functions where one layer calls the next
and restores them afterwards:

=========================  ============================================
span name                  wrapped callable
=========================  ============================================
``fleet.submit``           ``FleetFrontend.submit`` (until its future resolves)
``runtime.submit``         ``RuntimeServer.submit`` (until its future resolves)
``soa.serve_session``      ``Broker.serve_session`` (one per attempt)
``soa.registry_find``      ``ServiceRegistry.find``
``soa.compile_document``   ``compile_document`` as the broker calls it
``soa.sign_combine``       ``combine`` as the broker calls it (SLA signing)
``solver.solve``           ``solve`` as the broker calls it
``solver.fingerprint``     ``problem_fingerprint`` as ``solve`` calls it
``constraints.acceptance`` ``CheckSpec.holds`` on the told store
``resilience.breaker_allows`` ``CircuitBreaker.allows`` (under the matchmaking gate)
``runtime.degrade_lookup`` ``SLARepository.for_client``
=========================  ============================================

A span is ``(span id, parent id, session id, name, start, end, info)``.
Synchronous spans nest through a per-thread stack.  The runtime's
executor threads do not inherit the submitter's context, so the session
id is keyed off the ``ClientRequest`` object: the load loop binds each
request to its stream index, ``submit`` spans record themselves under
it, and ``Broker.serve_session`` picks the session and its parent span
up from the request it is handed.
"""

from __future__ import annotations

import gc
import itertools
import json
import threading
import time
from collections import Counter, defaultdict
from typing import Any, Callable, Dict, List, Optional, Tuple

import repro.soa.broker as broker_module
import repro.solver as solver_module
from repro.fleet import FleetFrontend
from repro.resilience.breaker import CircuitBreaker
from repro.runtime import RuntimeServer
from repro.sccp.check import CheckSpec
from repro.soa import Broker, ServiceRegistry, SLARepository

from drive import Tally, achieved_rate
from stats import mean, percentile, self_time

Span = Tuple[int, Optional[int], int, str, float, float, Any]

NO_SESSION = -1


class _CacheProbe:
    """Stands in for the solve cache for one ``solve`` call and notes
    whether ``fetch`` answered (a hit) — works for the plain and the
    tiered cache alike, since ``solve`` only calls these two methods."""

    __slots__ = ("cache", "hit")

    def __init__(self, cache: Any) -> None:
        self.cache = cache
        self.hit = False

    def fetch(self, key: str, problem: Any) -> Any:
        result = self.cache.fetch(key, problem)
        self.hit = result is not None
        return result

    def store(self, key: str, result: Any) -> None:
        self.cache.store(key, result)


class SpanRecorder:
    """Keeps spans in memory; :meth:`write` dumps them as JSON lines."""

    def __init__(self) -> None:
        self.spans: List[Span] = []
        self._ids = itertools.count(1)
        self._local = threading.local()
        #: id(request) → (request, session id, innermost submit span id)
        self._requests: Dict[int, Tuple[Any, int, Optional[int]]] = {}
        self._patches: List[Tuple[Any, str, Any]] = []

    # -- session identity ----------------------------------------------

    def bind(self, request: Any, session: int) -> None:
        self._requests[id(request)] = (request, session, None)

    def _lookup(self, request: Any) -> Tuple[int, Optional[int]]:
        entry = self._requests.get(id(request))
        if entry is None or entry[0] is not request:
            return NO_SESSION, None
        return entry[1], entry[2]

    # -- wrappers ------------------------------------------------------

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _sync(
        self,
        name: str,
        fn: Callable,
        root_request_arg: Optional[int] = None,
        info: Optional[Callable[[Any, tuple, dict], Any]] = None,
    ) -> Callable:
        spans, ids = self.spans, self._ids

        def wrapper(*args: Any, **kwargs: Any) -> Any:
            stack = self._stack()
            if root_request_arg is not None:
                session, parent = self._lookup(args[root_request_arg])
            elif stack:
                parent, session = stack[-1]
            else:
                parent, session = None, NO_SESSION
            span_id = next(ids)
            stack.append((span_id, session))
            result = None
            started = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
                return result
            finally:
                ended = time.perf_counter()
                stack.pop()
                spans.append(
                    (
                        span_id,
                        parent,
                        session,
                        name,
                        started,
                        ended,
                        info(result, args, kwargs)
                        if info is not None and result is not None
                        else None,
                    )
                )

        return wrapper

    def _solve(self, fn: Callable) -> Callable:
        """``solve`` with the cache verdict and the solver's work counts:
        ``info`` is ``(hit, nodes expanded, buckets, leaves)``."""

        def info(result: Any, args: tuple, kwargs: dict) -> Any:
            probe = kwargs.get("cache")
            return (
                probe.hit if probe is not None else None,
                result.stats.nodes_expanded,
                result.stats.buckets_processed,
                result.stats.leaves_evaluated,
            )

        traced = self._sync("solver.solve", fn, info=info)

        def wrapper(problem: Any, *args: Any, cache: Any = None, **kwargs):
            probe = _CacheProbe(cache) if cache is not None else None
            return traced(problem, *args, cache=probe, **kwargs)

        return wrapper

    def _submit(self, name: str, fn: Callable) -> Callable:
        """``submit`` spans run from the call until the future resolves."""
        spans, ids = self.spans, self._ids

        def wrapper(owner: Any, request: Any, *args: Any, **kwargs: Any):
            session, parent = self._lookup(request)
            span_id = next(ids)
            if session != NO_SESSION:
                self._requests[id(request)] = (request, session, span_id)
            started = time.perf_counter()
            future = fn(owner, request, *args, **kwargs)
            owner_id = id(owner)

            def done(_: Any) -> None:
                spans.append(
                    (
                        span_id,
                        parent,
                        session,
                        name,
                        started,
                        time.perf_counter(),
                        owner_id,
                    )
                )

            future.add_done_callback(done)
            return future

        return wrapper

    # -- install / uninstall -------------------------------------------

    def install(self) -> None:
        """Wrap each layer boundary; :meth:`uninstall` restores them."""
        if self._patches:
            return
        plan = [
            (
                FleetFrontend,
                "submit",
                self._submit("fleet.submit", FleetFrontend.submit),
            ),
            (
                RuntimeServer,
                "submit",
                self._submit("runtime.submit", RuntimeServer.submit),
            ),
            (
                Broker,
                "serve_session",
                self._sync(
                    "soa.serve_session",
                    Broker.serve_session,
                    root_request_arg=1,
                ),
            ),
            (
                ServiceRegistry,
                "find",
                self._sync(
                    "soa.registry_find",
                    ServiceRegistry.find,
                    info=lambda result, args, kwargs: len(result),
                ),
            ),
            (
                broker_module,
                "compile_document",
                self._sync(
                    "soa.compile_document", broker_module.compile_document
                ),
            ),
            (
                broker_module,
                "combine",
                self._sync("soa.sign_combine", broker_module.combine),
            ),
            (broker_module, "solve", self._solve(broker_module.solve)),
            (
                solver_module,
                "problem_fingerprint",
                self._sync(
                    "solver.fingerprint", solver_module.problem_fingerprint
                ),
            ),
            (
                CheckSpec,
                "holds",
                self._sync("constraints.acceptance", CheckSpec.holds),
            ),
            (
                # Not ``BreakerRegistry.admit``: the registry holds that
                # as a bound method from before the patch.
                CircuitBreaker,
                "allows",
                self._sync(
                    "resilience.breaker_allows",
                    CircuitBreaker.allows,
                    info=lambda result, args, kwargs: bool(result),
                ),
            ),
            (
                SLARepository,
                "for_client",
                self._sync(
                    "runtime.degrade_lookup", SLARepository.for_client
                ),
            ),
        ]
        for owner, attribute, replacement in plan:
            self._patches.append((owner, attribute, owner.__dict__[attribute]))
            setattr(owner, attribute, replacement)

    def uninstall(self) -> None:
        for owner, attribute, original in reversed(self._patches):
            setattr(owner, attribute, original)
        self._patches = []

    # -- export --------------------------------------------------------

    def write(self, path: str) -> None:
        """One JSON object per span, times in seconds on the run's clock."""
        with open(path, "w", encoding="utf-8") as handle:
            for span_id, parent, session, name, start, end, info in self.spans:
                handle.write(
                    json.dumps(
                        {
                            "span": span_id,
                            "parent": parent,
                            "session": session,
                            "name": name,
                            "start": start,
                            "end": end,
                            "info": info,
                        }
                    )
                )
                handle.write("\n")


class ProcessProbe:
    """CPU use and garbage-collector pauses over one window."""

    def __init__(self) -> None:
        self.pauses_ms: List[float] = []
        self.gen2 = 0
        self._gc_started = 0.0

    def _on_gc(self, phase: str, info: Dict[str, Any]) -> None:
        if phase == "start":
            self._gc_started = time.perf_counter()
            return
        self.pauses_ms.append((time.perf_counter() - self._gc_started) * 1e3)
        if info.get("generation") == 2:
            self.gen2 += 1

    def __enter__(self) -> "ProcessProbe":
        gc.callbacks.append(self._on_gc)
        self._wall = time.perf_counter()
        self._cpu = time.process_time()
        return self

    def __exit__(self, *exc_info: Any) -> None:
        self.wall_s = time.perf_counter() - self._wall
        self.cpu_s = time.process_time() - self._cpu
        gc.callbacks.remove(self._on_gc)


def _durations_us(spans: List[Span]) -> List[float]:
    return [(span[5] - span[4]) * 1e6 for span in spans]


def layer_metrics(
    spans: List[Span],
    traced: Tally,
    untraced: Tally,
    before: Dict[str, int],
    after: Dict[str, int],
    probe: ProcessProbe,
) -> Dict[str, Tuple[float, Optional[int]]]:
    """Every per-layer metric as ``name → (value, sample count)``.

    ``traced``/``untraced`` are the two halves of the traced run;
    ``before``/``after`` are program counters read around the traced
    half; ``probe`` covered the untraced half, so CPU and GC figures are
    free of the tracer's own allocations.  Per-session figures divide by
    the sessions of the traced half; a percentile over no samples is 0
    with a count of 0 (the layer was not on this workload's path).
    """
    sessions = max(1, len(traced))
    by_name: Dict[str, List[Span]] = defaultdict(list)
    children: Dict[int, List[Tuple[float, float]]] = defaultdict(list)
    for span in spans:
        by_name[span[3]].append(span)
        if span[1] is not None:
            children[span[1]].append((span[4], span[5]))

    def per_session(count: float) -> Tuple[float, int]:
        return count / sessions, len(traced)

    def delta(name: str) -> int:
        return after[name] - before[name]

    in_serve: Dict[int, float] = defaultdict(float)
    for span in by_name["soa.serve_session"]:
        in_serve[span[2]] += span[5] - span[4]
    fleet_ms = {
        span[2]: (span[5] - span[4]) * 1e3 for span in by_name["fleet.submit"]
    }
    session_self_us: List[float] = []
    dispatch_wait_ms: List[float] = []
    for k, session in enumerate(traced.session):
        if traced.attempts[k] == 0:
            continue  # bounced before reaching a worker
        session_self_us.append(
            (traced.server_latency_ms[k] - traced.queue_wait_ms[k]) * 1e3
            - in_serve[session] * 1e6
        )
        if session in fleet_ms:
            dispatch_wait_ms.append(
                fleet_ms[session] - traced.server_latency_ms[k]
            )
    per_shard = Counter(span[6] for span in by_name["runtime.submit"])
    imbalance = (
        max(per_shard.values()) / mean(list(per_shard.values())) - 1.0
        if per_shard
        else 0.0
    )
    solves = by_name["solver.solve"]
    hits = [span for span in solves if span[6] is not None and span[6][0]]
    misses = [span for span in solves if span[6] is not None and not span[6][0]]
    admits = by_name["resilience.breaker_allows"]
    refused = sum(1 for span in admits if span[6] is False)
    statuses = [traced.status(k) for k in range(len(traced))]

    def tput(tally: Tally) -> float:
        return len(tally) / tally.duration_s if tally.duration_s > 0 else 0.0

    tput_traced = tput(traced)
    untraced_p50 = percentile(list(untraced.latency_ms), 50)[0]
    return {
        "driver.achieved_rate_rps": (achieved_rate(traced), len(traced)),
        "driver.send_lag_p99_ms": percentile(list(traced.send_lag_ms), 99),
        "runtime.queue_wait_p50_ms": percentile(list(traced.queue_wait_ms), 50),
        "runtime.queue_wait_p99_ms": percentile(list(traced.queue_wait_ms), 99),
        "runtime.session_self_us_p50": percentile(session_self_us, 50),
        "runtime.attempts_per_session": per_session(sum(traced.attempts)),
        "runtime.retry_share": per_session(
            sum(1 for retries in traced.retries if retries > 0)
        ),
        "runtime.degraded_share": per_session(statuses.count("degraded")),
        "runtime.degrade_lookup_us_p50": percentile(
            _durations_us(by_name["runtime.degrade_lookup"]), 50
        ),
        "fleet.dispatch_wait_p50_ms": percentile(dispatch_wait_ms, 50),
        "fleet.dispatch_wait_p99_ms": percentile(dispatch_wait_ms, 99),
        "fleet.shard_imbalance": (imbalance, sum(per_shard.values())),
        "soa.serve_session_us_p50": percentile(
            _durations_us(by_name["soa.serve_session"]), 50
        ),
        "soa.serve_session_us_p99": percentile(
            _durations_us(by_name["soa.serve_session"]), 99
        ),
        "soa.negotiate_self_us_p50": percentile(
            [
                self_time(span[4], span[5], children[span[0]]) * 1e6
                for span in by_name["soa.serve_session"]
            ],
            50,
        ),
        "soa.registry_find_us_p50": percentile(
            _durations_us(by_name["soa.registry_find"]), 50
        ),
        "soa.candidates_per_session": (
            mean([span[6] for span in by_name["soa.registry_find"]]),
            len(by_name["soa.registry_find"]),
        ),
        "soa.compile_document_calls_per_session": per_session(
            len(by_name["soa.compile_document"])
        ),
        "soa.compile_document_us_p50": percentile(
            _durations_us(by_name["soa.compile_document"]), 50
        ),
        "soa.sign_combine_us_p50": percentile(
            _durations_us(by_name["soa.sign_combine"]), 50
        ),
        "soa.slas_retained_per_session": per_session(delta("slas")),
        "solver.solve_calls_per_session": per_session(len(solves)),
        "solver.solve_us_p50": percentile(_durations_us(solves), 50),
        "solver.solve_us_p99": percentile(_durations_us(solves), 99),
        "solver.miss_solve_us_p50": percentile(_durations_us(misses), 50),
        "solver.hit_solve_us_p50": percentile(_durations_us(hits), 50),
        "solver.fingerprint_us_p50": percentile(
            _durations_us(by_name["solver.fingerprint"]), 50
        ),
        "solver.cache_hit_share": (
            len(hits) / max(1, len(hits) + len(misses)),
            len(hits) + len(misses),
        ),
        "solver.cache_evictions_per_session": per_session(delta("evictions")),
        "solver.nodes_expanded_per_solve": (
            mean([span[6][1] for span in misses]),
            len(misses),
        ),
        "solver.buckets_per_solve": (
            mean([span[6][2] for span in misses]),
            len(misses),
        ),
        "solver.leaves_per_solve": (
            mean([span[6][3] for span in misses]),
            len(misses),
        ),
        "constraints.acceptance_us_p50": percentile(
            _durations_us(by_name["constraints.acceptance"]), 50
        ),
        "resilience.breaker_open_share": (
            refused / len(admits) if admits else 0.0,
            len(admits),
        ),
        "resilience.breaker_rejections_per_session": per_session(refused),
        "telemetry.spans_retained_per_session": per_session(
            delta("telemetry_spans")
        ),
        "telemetry.events_retained_per_session": per_session(
            delta("telemetry_events")
        ),
        "process.cpu_util": (
            probe.cpu_s / probe.wall_s if probe.wall_s > 0 else 0.0,
            None,
        ),
        "process.gc_gen2_collections": (float(probe.gen2), None),
        "process.gc_pause_ms_p99": percentile(probe.pauses_ms, 99),
        "trace.overhead_throughput_share": (
            tput(untraced) / tput_traced - 1.0 if tput_traced > 0 else 0.0,
            len(traced),
        ),
        "trace.overhead_latency_p50_share": (
            percentile(list(traced.latency_ms), 50)[0] / untraced_p50 - 1.0
            if untraced_p50 > 0
            else 0.0,
            len(traced),
        ),
    }
