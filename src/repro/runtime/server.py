"""The concurrent broker runtime: admission, deadlines, retries.

The paper's broker (Sec. 4, Fig. 6) is a concurrent mediator — nmsccp
agents negotiate in parallel (``‖``) on a shared store — but
:class:`~repro.soa.broker.Broker` drives one request at a time.  This
module adds the serving layer around it:

* :class:`RuntimeServer` accepts many concurrent
  :class:`~repro.soa.broker.ClientRequest` sessions through a *bounded*
  admission queue.  When the queue is full, a session is rejected
  immediately with a typed :class:`Overloaded` result — explicit
  backpressure instead of unbounded buffering.
* A pool of async workers drains the queue; the CPU-bound SCSP solves
  inside ``Broker.negotiate`` are offloaded to a thread-pool executor
  via ``run_in_executor`` so the event loop never blocks on a solve.
* Each session carries a deadline; sessions that exceed it are
  cancelled and reported as ``DEADLINE_EXCEEDED``.
* Failed attempts (injected provider faults) are re-driven under a
  :class:`~repro.runtime.retry.RetryPolicy` with exponential backoff and
  seeded jitter; when retries are exhausted, the server degrades
  gracefully to the client's current SLA for the requested attribute
  from the broker's :class:`~repro.soa.sla.SLARepository`
  (``DEGRADED``) before giving up (``FAILED``).

Reproducibility: the server owns one master :class:`random.Random`
(``config.seed``) and derives an independent child RNG per session *in
admission order* — backoff jitter and fault decisions draw from the
session's own stream, so a single seed reproduces a whole concurrent
run regardless of how workers interleave.  Callers that split one
logical workload across *several* servers (the sharded fleet of
:mod:`repro.fleet`) instead pass an explicit ``session_key`` to
:meth:`RuntimeServer.submit`: the session RNG is then derived from
``(master seed, session key)`` by :func:`derive_session_seed`, so a
session's random stream — and with it every fault and backoff draw — is
identical no matter which shard (or how many shards) served it.

Fault injection: when a :class:`~repro.soa.faults.FaultInjector` is
attached, it is consulted once per attempt for the *chosen* provider,
with ``tick = session index`` — so ``BurstOutage(start, length)`` models
an incident window over admission order and Bernoulli models redraw per
attempt (which is what makes retries worth taking).
"""

from __future__ import annotations

import asyncio
import contextvars
import hashlib
import random
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field
from enum import Enum
from typing import Any, Iterable, List, Optional

from ..coalitions.engine import solve_engine
from ..coalitions.exact import CoalitionSolution
from ..coalitions.trust import CompositionOp, TrustNetwork
from ..resilience.hedge import hedge_attempt_key
from ..resilience.policy import (
    ResilienceConfig,
    ResiliencePolicy,
    build_resilience,
)
from ..soa.broker import Broker, BrokerError, ClientRequest, NegotiationResult
from ..soa.faults import FaultInjector
from ..soa.sla import SLA
from ..telemetry import get_events, get_registry, get_tracer
from .retry import RetryPolicy

#: Buckets tuned for serving latencies: sub-ms queue waits up to
#: multi-second retried sessions.
LATENCY_BUCKETS = (
    0.0005,
    0.001,
    0.0025,
    0.005,
    0.01,
    0.025,
    0.05,
    0.1,
    0.25,
    0.5,
    1.0,
    2.5,
    5.0,
    10.0,
    30.0,
)


class RuntimeError_(Exception):
    """Raised on runtime misuse (submit before start, bad config)."""


def derive_session_seed(
    master_seed: Optional[int], session_key: str
) -> int:
    """A stable 64-bit seed for one keyed session.

    Hash-derived (not drawn from the master stream), so it depends only
    on the pair ``(master seed, session key)`` — never on admission
    order or on which server of a fleet the session landed on.
    """
    digest = hashlib.sha256(
        f"{master_seed}:{session_key}".encode()
    ).digest()
    return int.from_bytes(digest[:8], "big")


class TransientFault(Exception):
    """An attempt failed for a reason worth retrying (injected fault)."""


class SessionStatus(Enum):
    """How one client session ended."""

    COMPLETED = "completed"  # negotiation succeeded, SLA signed
    DEGRADED = "degraded"  # retries exhausted, last-known SLA served
    REJECTED = "rejected"  # negotiation failed for a permanent reason
    FAILED = "failed"  # retries exhausted, nothing to degrade to
    OVERLOADED = "overloaded"  # bounced at admission, queue full
    DEADLINE_EXCEEDED = "deadline-exceeded"
    BULKHEAD_REJECTED = "bulkhead-rejected"  # class compartment full


#: Preseeded so a metrics snapshot always shows the complete family.
SESSION_OUTCOMES = tuple(status.value for status in SessionStatus)


@dataclass
class SessionResult:
    """The runtime's answer for one submitted request."""

    request: ClientRequest
    status: SessionStatus
    negotiation: Optional[NegotiationResult] = None
    sla: Optional[SLA] = None
    attempts: int = 0
    retries: int = 0
    queue_wait_s: float = 0.0
    latency_s: float = 0.0
    detail: str = ""
    #: Admission-order session number (−1 for bounced admissions).
    index: int = -1
    #: The caller-supplied session key for keyed (fleet) sessions.
    session_key: Optional[str] = None
    #: The fleet shard that served the session (``None`` outside a
    #: fleet and for sessions bounced at the fleet edge).
    shard: Optional[str] = None

    @property
    def ok(self) -> bool:
        """Whether the client walked away with a usable SLA."""
        return self.status in (
            SessionStatus.COMPLETED,
            SessionStatus.DEGRADED,
        )

    @property
    def degraded(self) -> bool:
        return self.status is SessionStatus.DEGRADED


@dataclass
class Overloaded(SessionResult):
    """Typed admission rejection: the queue was full on arrival."""

    def __post_init__(self) -> None:
        self.status = SessionStatus.OVERLOADED


@dataclass(frozen=True)
class RuntimeConfig:
    """Knobs of the serving layer."""

    workers: int = 4
    max_queue_depth: int = 256
    deadline_s: Optional[float] = 30.0
    retry: RetryPolicy = field(default_factory=RetryPolicy)
    seed: Optional[int] = None
    verify_independence: bool = False
    #: Event-loop responsiveness probe period; 0 disables the probe.
    probe_interval_s: float = 0.05

    def __post_init__(self) -> None:
        if self.workers < 1:
            raise RuntimeError_("workers must be at least 1")
        if self.max_queue_depth < 1:
            raise RuntimeError_("max_queue_depth must be at least 1")
        if self.deadline_s is not None and self.deadline_s <= 0:
            raise RuntimeError_("deadline_s must be positive (or None)")


@dataclass(frozen=True)
class CoalitionQuery:
    """One offloadable Sec. 6 coalition-formation request.

    The runtime treats these like negotiation sessions: the CPU-bound
    search runs on the worker executor, never on the event loop, and a
    seedless query draws its seed from the server's master RNG — so a
    single ``RuntimeConfig.seed`` reproduces a whole mixed workload of
    negotiations and coalition queries.
    """

    network: TrustNetwork
    op: "str | CompositionOp" = "min"
    aggregate: "str | CompositionOp" = "min"
    seed: Optional[int] = None
    restarts: int = 3
    max_iterations: int = 200
    neighbour_sample: int = 64


#: Preseeded so a metrics snapshot always shows the complete family.
COALITION_OUTCOMES = ("stable", "unstable")


@dataclass
class _Session:
    """One admitted request waiting in (or moving through) the queue."""

    index: int
    request: ClientRequest
    future: "asyncio.Future[SessionResult]"
    rng: random.Random
    submitted_at: float
    deadline_s: Optional[float]
    #: Fleet routing/reproducibility key (None for plain sessions).
    key: Optional[str] = None
    #: Fault-injection tick override; defaults to the admission index.
    #: The fleet passes its global ingress sequence number, so outage
    #: windows span fleet-wide admission order, not per-shard order.
    tick: Optional[int] = None


class RuntimeServer:
    """Serves concurrent negotiation sessions over one broker."""

    def __init__(
        self,
        broker: Broker,
        config: Optional[RuntimeConfig] = None,
        injector: Optional[FaultInjector] = None,
        resilience: "Optional[ResilienceConfig | ResiliencePolicy]" = None,
    ) -> None:
        self.broker = broker
        self.config = config or RuntimeConfig()
        self.injector = injector
        self._rng = random.Random(self.config.seed)
        self._queue: Optional["asyncio.Queue[_Session]"] = None
        self._executor: Optional[ThreadPoolExecutor] = None
        self._workers: List["asyncio.Task[None]"] = []
        self._probe: Optional["asyncio.Task[None]"] = None
        self._health_task: Optional["asyncio.Task[None]"] = None
        self._sessions_submitted = 0
        # The resilience layer: a prebuilt policy (the fleet shares
        # breakers/health/DLQ across shards) or a config to build from.
        if isinstance(resilience, ResiliencePolicy):
            self.resilience = resilience
            self.resilience.attach(broker.registry)
        else:
            self.resilience = build_resilience(
                resilience,
                broker.registry,
                injector=injector,
                seed=self.config.seed,
                tick_source=lambda: self._sessions_submitted,
            )

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------

    @property
    def started(self) -> bool:
        return bool(self._workers)

    async def start(self) -> None:
        if self.started:
            return
        self._queue = asyncio.Queue(maxsize=self.config.max_queue_depth)
        self._executor = ThreadPoolExecutor(
            max_workers=self.config.workers,
            thread_name_prefix="repro-runtime",
        )
        self._workers = [
            asyncio.create_task(self._worker(), name=f"runtime-worker-{i}")
            for i in range(self.config.workers)
        ]
        if self.config.probe_interval_s > 0:
            self._probe = asyncio.create_task(
                self._probe_loop(), name="runtime-loop-probe"
            )
        if (
            self.resilience.health is not None
            and self.resilience.owns_health_loop
        ):
            self._health_task = asyncio.create_task(
                self.resilience.health.run(), name="runtime-health"
            )

    async def stop(self, drain: bool = False) -> None:
        """Cancel workers and release the executor.

        By default pending sessions in the queue are abandoned
        (``serve`` awaits every submitted future before stopping);
        ``drain=True`` first waits for the admission queue to empty and
        every picked-up session to finish — the graceful shutdown the
        fleet uses when decommissioning a shard.
        """
        if drain and self._queue is not None:
            await self._queue.join()
        for task in self._workers:
            task.cancel()
        for aux in (self._probe, self._health_task):
            if aux is not None:
                aux.cancel()
        pending = [
            *self._workers,
            *(task for task in (self._probe, self._health_task) if task),
        ]
        for task in pending:
            try:
                await task
            except asyncio.CancelledError:
                pass
        self._workers = []
        self._probe = None
        self._health_task = None
        if self._executor is not None:
            self._executor.shutdown(wait=True)
            self._executor = None
        self._queue = None

    async def __aenter__(self) -> "RuntimeServer":
        await self.start()
        return self

    async def __aexit__(self, *exc_info: Any) -> None:
        await self.stop()

    # ------------------------------------------------------------------
    # Admission
    # ------------------------------------------------------------------

    def submit(
        self,
        request: ClientRequest,
        deadline_s: Optional[float] = None,
        session_key: Optional[str] = None,
        tick: Optional[int] = None,
    ) -> "asyncio.Future[SessionResult]":
        """Admit one request; resolves to its :class:`SessionResult`.

        Admission control happens *here*, synchronously: a full queue
        resolves the future immediately with a typed
        :class:`Overloaded` result instead of buffering without bound.
        ``deadline_s`` overrides the configured per-session deadline.

        ``session_key`` switches the session to *keyed* reproducibility:
        its RNG derives from ``(config.seed, session_key)`` instead of
        the master stream in admission order, so a fleet run is
        shard-count-independent.  ``tick`` overrides the fault-injection
        tick (default: the per-server admission index).
        """
        if not self.started or self._queue is None:
            raise RuntimeError_("submit() before start()")
        loop = asyncio.get_running_loop()
        future: "asyncio.Future[SessionResult]" = loop.create_future()
        index = self._sessions_submitted
        self._sessions_submitted += 1
        bulkhead = self.resilience.bulkhead
        if bulkhead is not None and not bulkhead.try_acquire(
            request.operation
        ):
            result = SessionResult(
                request=request,
                status=SessionStatus.BULKHEAD_REJECTED,
                detail=(
                    f"bulkhead compartment for {request.operation!r} full"
                ),
                index=index,
                session_key=session_key,
            )
            self._finish(result)
            future.set_result(result)
            return future
        if session_key is not None:
            # Keyed stream: identical whichever server gets the session.
            rng = random.Random(
                derive_session_seed(self.config.seed, session_key)
            )
        else:
            # One child stream per session, derived in admission order:
            # reproducible under any worker interleaving.
            rng = random.Random(self._rng.getrandbits(64))
        session = _Session(
            index=index,
            request=request,
            future=future,
            rng=rng,
            submitted_at=time.perf_counter(),
            deadline_s=(
                deadline_s if deadline_s is not None
                else self.config.deadline_s
            ),
            key=session_key,
            tick=tick,
        )
        try:
            self._queue.put_nowait(session)
        except asyncio.QueueFull:
            if bulkhead is not None:
                bulkhead.release(request.operation)
            result = Overloaded(
                request=request,
                status=SessionStatus.OVERLOADED,
                detail=(
                    f"admission queue full "
                    f"({self.config.max_queue_depth} waiting)"
                ),
                index=index,
                session_key=session_key,
            )
            self._finish(result)
            future.set_result(result)
            return future
        get_registry().gauge(
            "runtime_queue_depth",
            "Admitted sessions waiting for a worker.",
        ).set(self._queue.qsize())
        return future

    async def serve(
        self, requests: Iterable[ClientRequest]
    ) -> List[SessionResult]:
        """Submit every request and await all results (starting and
        stopping the server when not already running)."""
        owns_lifecycle = not self.started
        if owns_lifecycle:
            await self.start()
        try:
            futures = [self.submit(request) for request in requests]
            return list(await asyncio.gather(*futures))
        finally:
            if owns_lifecycle:
                await self.stop()

    def run(self, requests: Iterable[ClientRequest]) -> List[SessionResult]:
        """Synchronous convenience wrapper around :meth:`serve`."""
        return asyncio.run(self.serve(requests))

    # ------------------------------------------------------------------
    # Workers
    # ------------------------------------------------------------------

    async def _worker(self) -> None:
        assert self._queue is not None
        registry = get_registry()
        inflight = registry.gauge(
            "runtime_inflight_sessions",
            "Sessions currently being driven by a worker.",
        )
        queue_depth = registry.gauge(
            "runtime_queue_depth",
            "Admitted sessions waiting for a worker.",
        )
        while True:
            session = await self._queue.get()
            queue_depth.set(self._queue.qsize())
            inflight.inc()
            try:
                result = await self._run_session(session)
            except Exception as exc:  # defensive: never kill the worker
                result = SessionResult(
                    request=session.request,
                    status=SessionStatus.FAILED,
                    detail=f"internal error: {exc}",
                )
                result.latency_s = time.perf_counter() - session.submitted_at
            finally:
                inflight.dec()
                self._queue.task_done()
                if self.resilience.bulkhead is not None:
                    self.resilience.bulkhead.release(
                        session.request.operation
                    )
            result.index = session.index
            result.session_key = session.key
            self._finish(result, tick=session.tick)
            if not session.future.done():
                session.future.set_result(result)

    async def _run_session(self, session: _Session) -> SessionResult:
        registry = get_registry()
        queue_wait = time.perf_counter() - session.submitted_at
        registry.histogram(
            "runtime_queue_wait_seconds",
            "Time between admission and a worker picking the session up.",
            buckets=LATENCY_BUCKETS,
        ).observe(queue_wait)

        request = session.request
        with get_tracer().span(
            "runtime.session",
            index=session.index,
            client=request.client,
            operation=request.operation,
            attribute=request.attribute,
        ) as span:
            span.set_attribute("queue_wait_s", queue_wait)
            budget: Optional[float] = None
            if session.deadline_s is not None:
                budget = session.deadline_s - queue_wait
            if budget is not None and budget <= 0:
                result = SessionResult(
                    request=request,
                    status=SessionStatus.DEADLINE_EXCEEDED,
                    queue_wait_s=queue_wait,
                    detail="deadline expired while queued",
                )
            else:
                try:
                    result = await asyncio.wait_for(
                        self._attempts_maybe_hedged(session), timeout=budget
                    )
                except asyncio.TimeoutError:
                    result = SessionResult(
                        request=request,
                        status=SessionStatus.DEADLINE_EXCEEDED,
                        queue_wait_s=queue_wait,
                        detail=(
                            f"deadline of {session.deadline_s:.3f}s "
                            "exceeded mid-session"
                        ),
                    )
            result.queue_wait_s = queue_wait
            result.latency_s = time.perf_counter() - session.submitted_at
            if self.resilience.hedge is not None:
                self.resilience.hedge.observe_latency(result.latency_s)
            span.set_attribute("outcome", result.status.value)
            span.set_attribute("attempts", result.attempts)
        registry.histogram(
            "runtime_session_seconds",
            "End-to-end session latency (submission to result).",
            buckets=LATENCY_BUCKETS,
        ).observe(result.latency_s)
        return result

    async def _attempts_maybe_hedged(self, session: _Session) -> SessionResult:
        """Dispatch to the hedged race when the policy applies."""
        hedge = self.resilience.hedge
        if hedge is None or not hedge.applies(session.deadline_s):
            return await self._attempts(session)
        return await self._hedged(session)

    def _shadow_session(self, session: _Session, attempt: int) -> _Session:
        """A copy of ``session`` with a keyed, independent RNG stream.

        The shadow must never draw from the primary's stream (fault and
        backoff decisions would then depend on scheduling), so its seed
        derives from ``(master seed, session key, attempt)``.  Unkeyed
        sessions fall back to their admission index, which is just as
        stable for a single server.
        """
        base = session.key if session.key is not None else f"#{session.index}"
        return _Session(
            index=session.index,
            request=session.request,
            future=session.future,
            rng=random.Random(
                derive_session_seed(
                    self.config.seed, hedge_attempt_key(base, attempt)
                )
            ),
            submitted_at=session.submitted_at,
            deadline_s=session.deadline_s,
            key=session.key,
            tick=session.tick,
        )

    async def _hedged(self, session: _Session) -> SessionResult:
        """Race the primary attempt chain against late shadow attempts.

        The primary runs alone until the hedge policy's launch delay (a
        latency percentile once warmed up) elapses; finishing inside it
        is the common case and is bit-identical to hedging disabled.
        Past the delay, shadows launch and the first *usable* result
        (``result.ok``) wins; with no usable result the primary's answer
        stands, so failure reporting is unchanged too.
        """
        hedge = self.resilience.hedge
        assert hedge is not None
        primary = asyncio.ensure_future(self._attempts(session))
        tasks: List["asyncio.Task[SessionResult]"] = [primary]
        try:
            done, _ = await asyncio.wait(
                {primary}, timeout=hedge.launch_delay()
            )
            if primary in done:
                return primary.result()
            for attempt in range(1, hedge.config.max_hedges + 1):
                hedge.record_launched()
                tasks.append(
                    asyncio.ensure_future(
                        self._attempts(self._shadow_session(session, attempt))
                    )
                )
            get_events().emit(
                "runtime.hedge",
                client=session.request.client,
                operation=session.request.operation,
                session=session.index,
                shadows=hedge.config.max_hedges,
            )
            pending = set(tasks)
            while pending:
                done, pending = await asyncio.wait(
                    pending, return_when=asyncio.FIRST_COMPLETED
                )
                # Deterministic preference order: primary, then shadows
                # by launch order — not set-iteration order.
                for task in tasks:
                    if task not in done:
                        continue
                    if task.exception() is not None:
                        continue
                    result = task.result()
                    if result.ok:
                        if task is not primary:
                            hedge.record_won()
                        return result
            # Nothing usable anywhere: the primary's verdict stands.
            if primary.exception() is not None:
                raise primary.exception()
            return primary.result()
        finally:
            for task in tasks:
                if not task.done():
                    task.cancel()
            for task in tasks:
                if not task.done():
                    try:
                        await task
                    except (asyncio.CancelledError, Exception):
                        pass

    async def _attempts(self, session: _Session) -> SessionResult:
        """Drive the five-step lifecycle with retries and degradation."""
        request = session.request
        registry = get_registry()
        events = get_events()
        policy = self.config.retry
        last_error = ""
        attempt = 0
        while attempt < policy.max_attempts:
            attempt += 1
            try:
                negotiation = await self._negotiate_offloaded(request)
            except BrokerError as exc:
                return SessionResult(
                    request=request,
                    status=SessionStatus.REJECTED,
                    attempts=attempt,
                    retries=attempt - 1,
                    detail=f"broker error: {exc}",
                )
            if not negotiation.success:
                # A failed negotiation is a property of the market, not
                # of a flaky provider: retrying cannot change it.
                return SessionResult(
                    request=request,
                    status=SessionStatus.REJECTED,
                    negotiation=negotiation,
                    attempts=attempt,
                    retries=attempt - 1,
                    detail=negotiation.detail,
                )
            try:
                await self._apply_faults(session, negotiation)
            except TransientFault as exc:
                last_error = str(exc)
                if attempt >= policy.max_attempts:
                    break
                backoff = policy.backoff(attempt, session.rng)
                registry.counter(
                    "runtime_retries_total",
                    "Session attempts re-driven after transient faults.",
                ).inc()
                registry.histogram(
                    "runtime_backoff_seconds",
                    "Backoff slept between attempts.",
                    buckets=LATENCY_BUCKETS,
                ).observe(backoff)
                events.emit(
                    "runtime.retry",
                    client=request.client,
                    operation=request.operation,
                    session=session.index,
                    attempt=attempt,
                    backoff_s=backoff,
                    reason=last_error,
                )
                await asyncio.sleep(backoff)
                continue
            return SessionResult(
                request=request,
                status=SessionStatus.COMPLETED,
                negotiation=negotiation,
                sla=negotiation.sla,
                attempts=attempt,
                retries=attempt - 1,
                detail=negotiation.detail,
            )
        return self._degrade(session, attempt, last_error)

    async def _negotiate_offloaded(
        self, request: ClientRequest
    ) -> NegotiationResult:
        """One broker lifecycle on the executor, never on the loop.

        The context is copied so broker spans opened in the worker
        thread nest under this session's ``runtime.session`` span.
        Routed through ``Broker.serve_session``: without an allocation
        policy that *is* ``negotiate``; with one, concurrent executor
        threads coalesce into allocation rounds (the policy's round
        window blocks the worker thread, not the event loop).
        """
        assert self._executor is not None
        loop = asyncio.get_running_loop()
        ctx = contextvars.copy_context()
        return await loop.run_in_executor(
            self._executor,
            lambda: ctx.run(
                self.broker.serve_session,
                request,
                self.config.verify_independence,
            ),
        )

    # ------------------------------------------------------------------
    # Coalition queries
    # ------------------------------------------------------------------

    async def solve_coalitions(
        self, query: CoalitionQuery
    ) -> CoalitionSolution:
        """Serve one coalition query on the worker executor.

        The seed is drawn (for seedless queries) synchronously before
        the offload, so issuing queries in a fixed order reproduces
        their results regardless of how the executor interleaves them.
        The engine itself runs single-threaded here — the runtime's
        parallelism budget is the worker pool, and one portfolio per
        worker keeps mixed negotiation/coalition workloads fair.
        """
        if not self.started or self._executor is None:
            raise RuntimeError_("solve_coalitions() before start()")
        seed = (
            query.seed
            if query.seed is not None
            else self._rng.getrandbits(64)
        )
        loop = asyncio.get_running_loop()
        ctx = contextvars.copy_context()

        def run() -> CoalitionSolution:
            with get_tracer().span(
                "runtime.coalitions",
                agents=len(query.network),
                restarts=query.restarts,
            ):
                return solve_engine(
                    query.network,
                    op=query.op,
                    aggregate=query.aggregate,
                    seed=seed,
                    restarts=query.restarts,
                    max_iterations=query.max_iterations,
                    neighbour_sample=query.neighbour_sample,
                    workers=1,
                )

        solution = await loop.run_in_executor(
            self._executor, lambda: ctx.run(run)
        )
        get_registry().counter(
            "runtime_coalition_queries_total",
            "Coalition queries served by the runtime, by outcome.",
            labelnames=("outcome",),
        ).preseed(COALITION_OUTCOMES).labels(
            "stable" if solution.stable else "unstable"
        ).inc()
        return solution

    def run_coalitions(
        self, queries: Iterable[CoalitionQuery]
    ) -> List[CoalitionSolution]:
        """Synchronous convenience wrapper: serve a batch of coalition
        queries concurrently, starting and stopping the server when not
        already running."""

        async def drive() -> List[CoalitionSolution]:
            owns_lifecycle = not self.started
            if owns_lifecycle:
                await self.start()
            try:
                tasks = [
                    asyncio.ensure_future(self.solve_coalitions(query))
                    for query in queries
                ]
                return list(await asyncio.gather(*tasks))
            finally:
                if owns_lifecycle:
                    await self.stop()

        return asyncio.run(drive())

    async def _apply_faults(
        self, session: _Session, negotiation: NegotiationResult
    ) -> None:
        """Consult the injector for the chosen provider; a ``fail``
        fault sinks this attempt, a delay fault slows it down.

        Doubles as the circuit breakers' feedback path: the provider
        whose service faulted records a failure, and a clean pass
        records a success for every provider bound by the SLA.
        """
        breakers = self.resilience.breakers
        if self.injector is None or negotiation.sla is None:
            return
        sla = negotiation.sla
        provider_of = dict(zip(sla.service_ids, sla.providers))
        tick = session.tick if session.tick is not None else session.index
        for service_id in sla.service_ids:
            fault = self.injector.decide(
                service_id, tick=tick, rng=session.rng
            )
            if fault is None:
                continue
            if fault.extra_latency_ms:
                await asyncio.sleep(fault.extra_latency_ms / 1000.0)
            if fault.fail:
                if breakers is not None:
                    breakers.record_failure(
                        provider_of.get(service_id, service_id)
                    )
                raise TransientFault(
                    f"injected {fault.kind} on {service_id!r}"
                )
        if breakers is not None:
            for provider in sla.providers:
                breakers.record_success(provider)

    def _degrade(
        self, session: _Session, attempts: int, last_error: str
    ) -> SessionResult:
        """Retries exhausted: serve the client's current SLA for the
        requested attribute when one exists."""
        request = session.request
        sla = next(
            (
                sla
                for sla in self.broker.slas.for_client(request.client)
                if sla.attribute == request.attribute and sla.active
            ),
            None,
        )
        if sla is None:
            return SessionResult(
                request=request,
                status=SessionStatus.FAILED,
                attempts=attempts,
                retries=attempts - 1,
                detail=f"retries exhausted ({last_error}); no known SLA",
            )
        get_registry().counter(
            "runtime_degraded_total",
            "Sessions degraded to the last-known SLA after retries.",
        ).inc()
        get_events().emit(
            "runtime.degraded",
            client=request.client,
            operation=request.operation,
            session=session.index,
            sla_id=sla.sla_id,
            reason=last_error,
        )
        return SessionResult(
            request=request,
            status=SessionStatus.DEGRADED,
            sla=sla,
            attempts=attempts,
            retries=attempts - 1,
            detail=(
                f"retries exhausted ({last_error}); "
                f"serving last-known SLA#{sla.sla_id}"
            ),
        )

    # ------------------------------------------------------------------
    # Accounting
    # ------------------------------------------------------------------

    def _finish(
        self, result: SessionResult, tick: Optional[int] = None
    ) -> None:
        dlq = self.resilience.dlq
        if dlq is not None:
            dlq.capture(result, master_seed=self.config.seed, tick=tick)
        registry = get_registry()
        registry.counter(
            "runtime_sessions_total",
            "Runtime sessions served, by outcome.",
            labelnames=("outcome",),
        ).preseed(SESSION_OUTCOMES).labels(result.status.value).inc()
        if result.status is SessionStatus.OVERLOADED:
            registry.counter(
                "runtime_overloaded_total",
                "Sessions bounced at admission (queue full).",
            ).inc()
            get_events().emit(
                "runtime.overloaded",
                client=result.request.client,
                operation=result.request.operation,
            )
        elif result.status is SessionStatus.BULKHEAD_REJECTED:
            get_events().emit(
                "runtime.bulkhead-rejected",
                client=result.request.client,
                operation=result.request.operation,
            )

    async def _probe_loop(self) -> None:
        """Measure event-loop scheduling lag: if a solver ever ran on
        the loop, this histogram's tail would show it."""
        interval = self.config.probe_interval_s
        histogram = get_registry().histogram(
            "runtime_loop_lag_seconds",
            "Extra delay of a timed sleep on the event loop — "
            "spikes mean something blocked the loop.",
            buckets=LATENCY_BUCKETS,
        )
        while True:
            started = time.perf_counter()
            await asyncio.sleep(interval)
            histogram.observe(
                max(0.0, time.perf_counter() - started - interval)
            )
