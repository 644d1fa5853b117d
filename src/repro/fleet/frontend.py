"""The fleet front-end: queue-based load leveling over broker shards.

One :class:`FleetFrontend` stands in front of N
:class:`~repro.runtime.server.RuntimeServer` shards and scales the
serving path horizontally (the load-balancer + queue-based-load-leveling
patterns of the scalability catalogue):

* **one bounded ingress queue** — admission control happens at the
  fleet edge: a full ingress resolves the session immediately with a
  typed :class:`~repro.runtime.server.Overloaded` result, exactly like
  a single server's admission queue, so callers see one backpressure
  surface whatever the fleet size;
* **per-shard dispatch queues** — a dispatcher routes each session by
  its key through the :class:`~repro.fleet.ring.HashRing` and levels
  bursts into the owning shard's bounded queue (a saturated shard
  throttles intake instead of growing an unbounded backlog);
* **bounded in-flight slots per shard** — each shard pump forwards
  work only while the shard has capacity, so a shard's own admission
  queue can never overflow from fleet traffic;
* **shard-aware retry-on-redirect** — a reshard
  (:meth:`FleetFrontend.add_shard` / :meth:`remove_shard`) can move a
  key while its session sits in a dispatch queue; the pump re-checks
  ownership at the last moment and forwards moved sessions to their new
  owner (``fleet_redirects_total``) instead of serving them on the
  wrong shard.

Determinism: the front-end stamps every session with a *session key*
(its global ingress sequence number plus client/operation) and a global
fault tick, and each shard derives the session RNG from ``(master
seed, session key)`` (:func:`~repro.runtime.server.derive_session_seed`)
— so fault draws, backoff jitter and therefore agreements are identical
whatever the shard count, the same way PR 5's coalition engine is
worker-count independent.

Caching: with ``solve_cache`` on (the default), every shard broker —
including shards joined later by :meth:`FleetFrontend.add_shard` —
shares one thread-safe :class:`~repro.solver.cache.SolveCache`, so the
first shard to solve a fingerprint warms the whole fleet.
"""

from __future__ import annotations

import asyncio
import time
from dataclasses import dataclass, field, replace
from typing import Any, Callable, Dict, Iterable, List, Optional

from ..resilience.breaker import BreakerRegistry
from ..resilience.dlq import DeadLetterQueue
from ..resilience.health import HealthMonitor
from ..resilience.policy import ResilienceConfig, build_resilience
from ..runtime.batching import BatchConfig
from ..runtime.retry import RetryPolicy
from ..runtime.server import (
    Overloaded,
    RuntimeConfig,
    RuntimeServer,
    SessionResult,
    SessionStatus,
)
from ..soa.broker import Broker, ClientRequest
from ..soa.faults import FaultInjector
from ..soa.registry import ServiceRegistry
from ..solver.cache import DEFAULT_SOLVE_CACHE_SIZE, SolveCache
from ..telemetry import get_events, get_registry, get_tracer
from .ring import DEFAULT_VNODES, HashRing

#: Routing modes: ``session`` spreads the session space uniformly over
#: the ring (every shard sees the whole registry); ``operation`` routes
#: by operation name, giving each shard ownership of the operations —
#: and with ``partition_registry`` the service descriptions — that hash
#: to it.
ROUTE_MODES = ("session", "operation")

#: Capacity of the fleet-wide solve cache: one entry serves every shard,
#: so it is sized a few shards deep.
FLEET_SOLVE_CACHE_SIZE = 4 * DEFAULT_SOLVE_CACHE_SIZE


class FleetError(Exception):
    """Raised on fleet misuse (submit before start, bad config)."""


@dataclass(frozen=True)
class FleetConfig:
    """Knobs of the sharded serving fleet."""

    shards: int = 2
    vnodes: int = DEFAULT_VNODES
    workers_per_shard: int = 2
    #: Fleet-edge admission bound (full ⇒ typed ``Overloaded``).
    ingress_depth: int = 1024
    #: Per-shard dispatch queue bound (full ⇒ dispatcher backpressure).
    dispatch_depth: int = 64
    deadline_s: Optional[float] = 30.0
    retry: RetryPolicy = field(default_factory=RetryPolicy)
    seed: Optional[int] = None
    #: One solve cache shared by every shard broker; ``False`` solves
    #: every candidate afresh.
    solve_cache: bool = True
    route_by: str = "session"
    #: With ``route_by="operation"``: give each shard broker only the
    #: registry partition it owns instead of the full shared registry.
    partition_registry: bool = False
    #: Resilience layer (breakers/bulkheads/health/hedge/DLQ); ``None``
    #: serves exactly like the pre-resilience fleet.  Breakers, health
    #: state and the DLQ are fleet-global (a down provider is down for
    #: every shard); bulkheads and hedge latency tracking are per-shard.
    resilience: Optional[ResilienceConfig] = None
    #: Solver batching (``--solver-batching``): each shard gets its own
    #: :class:`~repro.runtime.batching.BatchScheduler` coalescing that
    #: shard's concurrent same-topology candidate solves into stacked
    #: sweeps, over the shared solve cache (batched results are stored
    #: in it, so one shard's sweep warms every shard).  ``None`` solves
    #: per session.
    batching: Optional[BatchConfig] = None
    #: Multi-client allocation (``--allocation-policy``): each shard
    #: broker routes sessions through coalesced allocation rounds under
    #: this policy (``"greedy"`` reproduces per-session agreements
    #: exactly; ``"fair"`` solves one joint lexicographic SCSP per
    #: round — see :mod:`repro.soa.allocation`).  Rounds ride the same
    #: window/batch knobs as ``batching``.  ``None`` keeps the legacy
    #: per-session path.
    allocation_policy: Optional[str] = None
    #: Round-coalescing window override for ``allocation_policy``;
    #: ``None`` inherits ``batching`` (or the default window).
    rounds: Optional[BatchConfig] = None

    def __post_init__(self) -> None:
        if self.shards < 1:
            raise FleetError("shards must be at least 1")
        if self.workers_per_shard < 1:
            raise FleetError("workers_per_shard must be at least 1")
        if self.ingress_depth < 1 or self.dispatch_depth < 1:
            raise FleetError("queue depths must be at least 1")
        if self.route_by not in ROUTE_MODES:
            raise FleetError(
                f"route_by must be one of {ROUTE_MODES}, "
                f"not {self.route_by!r}"
            )
        if self.partition_registry and self.route_by != "operation":
            raise FleetError(
                "partition_registry requires route_by='operation' "
                "(session-routed fleets need the full registry on "
                "every shard)"
            )
        if (
            self.partition_registry
            and self.resilience is not None
            and self.resilience.health is not None
        ):
            raise FleetError(
                "health-checked matchmaking requires a shared registry "
                "(quarantine state cannot span registry partitions)"
            )


def partition_registry(
    registry: ServiceRegistry, ring: HashRing
) -> Dict[str, ServiceRegistry]:
    """Split a registry by operation ownership on the ring.

    Every service lands on exactly one shard — the one owning its
    operation's routing key — so a shard can answer any session routed
    to it by operation without consulting its peers.
    """
    parts = {shard: ServiceRegistry() for shard in ring.shards}
    for description in registry.find():
        owner = ring.assign(description.interface.operation)
        parts[owner].publish(description)
    return parts


@dataclass
class _FleetItem:
    """One admitted session travelling ingress → dispatch → shard."""

    seq: int
    key: str
    route_key: str
    request: ClientRequest
    future: "asyncio.Future[SessionResult]"
    deadline_s: Optional[float]
    redirects: int = 0


@dataclass
class _Shard:
    """One broker shard plus its fleet-side plumbing."""

    shard_id: str
    broker: Broker
    server: RuntimeServer
    queue: Optional["asyncio.Queue[_FleetItem]"] = None
    pump: Optional["asyncio.Task[None]"] = None
    #: Bounds sessions admitted-but-unfinished on this shard so the
    #: shard's own admission queue can never overflow from the fleet.
    slots: Optional[asyncio.Semaphore] = None
    capacity: int = 0


class FleetFrontend:
    """Routes sessions across broker shards; duck-types the server
    surface (``started``/``start``/``stop``/``submit``/``serve``/
    ``run``) so :class:`~repro.runtime.loadgen.LoadGenerator` drives a
    fleet exactly like a single :class:`RuntimeServer`."""

    def __init__(
        self,
        registry: ServiceRegistry,
        config: Optional[FleetConfig] = None,
        injector_factory: Optional[
            Callable[[str], Optional[FaultInjector]]
        ] = None,
    ) -> None:
        self.registry = registry
        self.config = config or FleetConfig()
        self._injector_factory = injector_factory
        self.ring = HashRing(
            [f"shard-{i}" for i in range(self.config.shards)],
            vnodes=self.config.vnodes,
            seed=self.config.seed or 0,
        )
        self.solve_cache: Optional[SolveCache] = (
            SolveCache(FLEET_SOLVE_CACHE_SIZE)
            if self.config.solve_cache
            else None
        )
        self._partitions: Optional[Dict[str, ServiceRegistry]] = (
            partition_registry(registry, self.ring)
            if self.config.partition_registry
            else None
        )
        # Fleet-global resilience state, shared by every shard policy
        # (a provider that is down is down for the whole fleet).
        res = self.config.resilience
        self.breakers: Optional[BreakerRegistry] = (
            BreakerRegistry(res.breaker, seed=self.config.seed)
            if res is not None and res.breaker is not None
            else None
        )
        self.dlq: Optional[DeadLetterQueue] = (
            DeadLetterQueue(res.dlq)
            if res is not None and res.dlq is not None
            else None
        )
        self.health: Optional[HealthMonitor] = None
        self._health_task: Optional["asyncio.Task[None]"] = None
        self.shards: Dict[str, _Shard] = {}
        for shard_id in self.ring.shards:
            self.shards[shard_id] = self._build_shard(shard_id)
        if res is not None and res.health is not None:
            # One probe loop for the whole fleet, ticking in the global
            # ingress sequence so probes and sessions share the fault
            # coordinate system.  Injected faults are identical across
            # shards, so any shard's injector stands in for the market.
            probe_injector = next(
                (
                    shard.server.injector
                    for shard in self.shards.values()
                    if shard.server.injector is not None
                ),
                None,
            )
            self.health = HealthMonitor(
                registry,
                injector=probe_injector,
                config=res.health,
                seed=self.config.seed,
                tick_source=lambda: self._submitted,
            )
        self.results: List[SessionResult] = []
        self.results_by_shard: Dict[str, List[SessionResult]] = {
            shard_id: [] for shard_id in self.shards
        }
        self.assignments: Dict[str, str] = {}  # session key → shard id
        self.redirects = 0
        self._ingress: Optional["asyncio.Queue[_FleetItem]"] = None
        self._dispatcher: Optional["asyncio.Task[None]"] = None
        self._pending: "set[asyncio.Future[SessionResult]]" = set()
        self._submitted = 0

    # ------------------------------------------------------------------
    # Shard construction
    # ------------------------------------------------------------------

    def _build_shard(self, shard_id: str) -> _Shard:
        shard_registry = (
            self._partitions[shard_id]
            if self._partitions is not None
            else self.registry
        )
        broker = Broker(
            shard_registry,
            name=shard_id,
            solve_cache=False,
            batching=self.config.batching,
            allocation_policy=self.config.allocation_policy,
            rounds=self.config.rounds,
        )
        broker.solve_cache = self.solve_cache
        # Every shard carries the *fleet* master seed: keyed sessions
        # derive their RNG from (config.seed, session key), so the seed
        # must be identical on whichever shard serves the session —
        # that is what makes a run shard-count independent.
        capacity = self.config.dispatch_depth + self.config.workers_per_shard
        injector = (
            self._injector_factory(shard_id)
            if self._injector_factory is not None
            else None
        )
        resilience = None
        if self.config.resilience is not None:
            # Per-shard policy over fleet-global breakers and DLQ; the
            # bulkhead and hedge tracker guard per-shard resources and
            # stay private.  Health is stripped here: the fleet itself
            # owns the single monitor and probe loop (``self.health``).
            resilience = build_resilience(
                replace(self.config.resilience, health=None),
                shard_registry,
                injector=injector,
                seed=self.config.seed,
                shared_breakers=self.breakers,
                shared_dlq=self.dlq,
                owns_health_loop=False,
            )
        server = RuntimeServer(
            broker,
            RuntimeConfig(
                workers=self.config.workers_per_shard,
                # Sized to the slot bound: fleet dispatch can never see
                # a shard-level Overloaded.
                max_queue_depth=capacity,
                deadline_s=self.config.deadline_s,
                retry=self.config.retry,
                seed=self.config.seed,
                probe_interval_s=0.0,  # one probe per fleet is plenty
            ),
            injector=injector,
            resilience=resilience,
        )
        return _Shard(
            shard_id=shard_id,
            broker=broker,
            server=server,
            capacity=capacity,
        )

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------

    @property
    def started(self) -> bool:
        return self._dispatcher is not None

    async def start(self) -> None:
        if self.started:
            return
        self._ingress = asyncio.Queue(maxsize=self.config.ingress_depth)
        for shard in self.shards.values():
            await self._start_shard(shard)
        self._dispatcher = asyncio.create_task(
            self._dispatch(), name="fleet-dispatcher"
        )
        if self.health is not None:
            self._health_task = asyncio.create_task(
                self.health.run(), name="fleet-health"
            )
        get_events().emit(
            "fleet.started",
            shards=len(self.shards),
            vnodes=self.config.vnodes,
            solve_cache=self.solve_cache is not None,
        )

    async def _start_shard(self, shard: _Shard) -> None:
        with get_tracer().span(
            "fleet.shard-start", shard=shard.shard_id
        ):
            shard.queue = asyncio.Queue(
                maxsize=self.config.dispatch_depth
            )
            shard.slots = asyncio.Semaphore(shard.capacity)
            await shard.server.start()
            shard.pump = asyncio.create_task(
                self._pump(shard), name=f"fleet-pump-{shard.shard_id}"
            )
        get_registry().gauge(
            "fleet_shards",
            "Broker shards currently serving the fleet.",
        ).set(len(self.shards))

    async def stop(self, drain: bool = True) -> None:
        """Stop the fleet; by default *drain* first — every admitted
        session finishes before the shards shut down."""
        if not self.started:
            return
        if drain:
            await self._drain()
        assert self._dispatcher is not None
        self._dispatcher.cancel()
        try:
            await self._dispatcher
        except asyncio.CancelledError:
            pass
        self._dispatcher = None
        if self._health_task is not None:
            self._health_task.cancel()
            try:
                await self._health_task
            except asyncio.CancelledError:
                pass
            self._health_task = None
        for shard in self.shards.values():
            await self._stop_shard(shard, drain=drain)
        self._ingress = None
        get_events().emit("fleet.stopped", shards=len(self.shards))

    async def _drain(self) -> None:
        assert self._ingress is not None
        await self._ingress.join()
        for shard in self.shards.values():
            if shard.queue is not None:
                await shard.queue.join()
        pending = [f for f in self._pending if not f.done()]
        if pending:
            await asyncio.gather(*pending, return_exceptions=True)

    async def _stop_shard(self, shard: _Shard, drain: bool) -> None:
        with get_tracer().span(
            "fleet.shard-stop", shard=shard.shard_id
        ):
            if shard.pump is not None:
                shard.pump.cancel()
                try:
                    await shard.pump
                except asyncio.CancelledError:
                    pass
                shard.pump = None
            await shard.server.stop(drain=drain)
            shard.queue = None
            shard.slots = None

    async def __aenter__(self) -> "FleetFrontend":
        await self.start()
        return self

    async def __aexit__(self, *exc_info: Any) -> None:
        await self.stop()

    # ------------------------------------------------------------------
    # Resharding
    # ------------------------------------------------------------------

    async def add_shard(self, shard_id: Optional[str] = None) -> str:
        """Join a new shard; keys it now owns redirect on dispatch.

        Only session-routed fleets reshard (an operation-partitioned
        registry would need provider migration, out of scope here).
        """
        if self._partitions is not None:
            raise FleetError(
                "cannot reshard a fleet with a partitioned registry"
            )
        if shard_id is None:
            index = len(self.ring.shards)
            while f"shard-{index}" in self.ring:
                index += 1
            shard_id = f"shard-{index}"
        shard = self._build_shard(shard_id)
        self.shards[shard_id] = shard
        self.results_by_shard.setdefault(shard_id, [])
        if self.started:
            await self._start_shard(shard)
        # Ring change last: pumps only redirect to shards that exist.
        self.ring.add_shard(shard_id)
        get_events().emit("fleet.reshard", joined=shard_id)
        return shard_id

    async def remove_shard(self, shard_id: str) -> None:
        """Decommission a shard gracefully: re-route its keys, drain
        its queue (queued sessions redirect to their new owners), and
        stop its server once in-flight sessions finished."""
        if shard_id not in self.shards:
            raise FleetError(f"unknown shard {shard_id!r}")
        if len(self.shards) == 1:
            raise FleetError("cannot remove the last shard")
        shard = self.shards[shard_id]
        self.ring.remove_shard(shard_id)
        get_events().emit("fleet.reshard", left=shard_id)
        if self.started and shard.queue is not None:
            # The shard's own pump notices every queued key now hashes
            # elsewhere and forwards it (counted as redirects).
            await shard.queue.join()
            assert shard.slots is not None
            for _ in range(shard.capacity):  # wait out in-flight work
                await shard.slots.acquire()
            await self._stop_shard(shard, drain=True)
        del self.shards[shard_id]

    # ------------------------------------------------------------------
    # Admission and routing
    # ------------------------------------------------------------------

    def session_key(self, request: ClientRequest, seq: int) -> str:
        """The default session key: globally sequenced at the fleet
        edge, so it is independent of shard count by construction."""
        return f"s{seq}/{request.client}/{request.operation}"

    def route_key(self, request: ClientRequest, session_key: str) -> str:
        return (
            request.operation
            if self.config.route_by == "operation"
            else session_key
        )

    def submit(
        self,
        request: ClientRequest,
        deadline_s: Optional[float] = None,
        session_key: Optional[str] = None,
    ) -> "asyncio.Future[SessionResult]":
        """Admit one session at the fleet edge.

        Synchronous admission control like the single server: a full
        ingress queue resolves the future immediately with a typed
        :class:`Overloaded` result.
        """
        if not self.started or self._ingress is None:
            raise FleetError("submit() before start()")
        loop = asyncio.get_running_loop()
        future: "asyncio.Future[SessionResult]" = loop.create_future()
        seq = self._submitted
        self._submitted += 1
        key = (
            session_key
            if session_key is not None
            else self.session_key(request, seq)
        )
        item = _FleetItem(
            seq=seq,
            key=key,
            route_key=self.route_key(request, key),
            request=request,
            future=future,
            deadline_s=(
                deadline_s
                if deadline_s is not None
                else self.config.deadline_s
            ),
        )
        try:
            self._ingress.put_nowait(item)
        except asyncio.QueueFull:
            result = Overloaded(
                request=request,
                status=SessionStatus.OVERLOADED,
                detail=(
                    f"fleet ingress queue full "
                    f"({self.config.ingress_depth} waiting)"
                ),
                session_key=key,
            )
            self._account(None, result)
            future.set_result(result)
            return future
        self._pending.add(future)
        future.add_done_callback(self._pending.discard)
        get_registry().gauge(
            "fleet_ingress_depth",
            "Sessions waiting at the fleet edge for dispatch.",
        ).set(self._ingress.qsize())
        return future

    async def serve(
        self, requests: Iterable[ClientRequest]
    ) -> List[SessionResult]:
        """Submit every request and await all results (starting and
        stopping the fleet when not already running)."""
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

    async def _dispatch(self) -> None:
        """Route ingress sessions to their owning shard's queue.

        ``await put`` on a full shard queue is the load-leveling point:
        a saturated shard throttles global intake (bounded by the
        ingress queue) instead of accumulating unbounded backlog.
        """
        assert self._ingress is not None
        registry = get_registry()
        ingress_depth = registry.gauge(
            "fleet_ingress_depth",
            "Sessions waiting at the fleet edge for dispatch.",
        )
        while True:
            item = await self._ingress.get()
            ingress_depth.set(self._ingress.qsize())
            try:
                shard = self.shards[self.ring.assign(item.route_key)]
                assert shard.queue is not None
                await shard.queue.put(item)
                registry.gauge(
                    "fleet_dispatch_depth",
                    "Sessions levelled into shard dispatch queues.",
                    labelnames=("shard",),
                ).labels(shard.shard_id).set(shard.queue.qsize())
            finally:
                self._ingress.task_done()

    async def _pump(self, shard: _Shard) -> None:
        """Forward one shard's dispatch queue into its server, with
        last-moment ownership re-checks (retry-on-redirect)."""
        registry = get_registry()
        while True:
            assert shard.queue is not None
            item = await shard.queue.get()
            try:
                owner = self.ring.assign(item.route_key)
                if owner != shard.shard_id:
                    # A reshard moved the key mid-flight: forward it.
                    self.redirects += 1
                    registry.counter(
                        "fleet_redirects_total",
                        "Sessions re-routed after a reshard moved "
                        "their key mid-flight.",
                    ).inc()
                    item.redirects += 1
                    target = self.shards[owner]
                    assert target.queue is not None
                    await target.queue.put(item)
                    continue
                assert shard.slots is not None
                await shard.slots.acquire()
                future = shard.server.submit(
                    item.request,
                    deadline_s=item.deadline_s,
                    session_key=item.key,
                    tick=item.seq,
                )
                future.add_done_callback(
                    lambda f, item=item, shard=shard: self._complete(
                        shard, item, f
                    )
                )
            finally:
                shard.queue.task_done()

    def _complete(
        self,
        shard: _Shard,
        item: _FleetItem,
        future: "asyncio.Future[SessionResult]",
    ) -> None:
        if shard.slots is not None:
            shard.slots.release()
        try:
            result = future.result()
        except Exception as exc:  # defensive: surface, don't hang
            result = SessionResult(
                request=item.request,
                status=SessionStatus.FAILED,
                detail=f"shard {shard.shard_id} error: {exc}",
                session_key=item.key,
            )
        self._account(shard.shard_id, result)
        if not item.future.done():
            item.future.set_result(result)

    def _account(
        self, shard_id: Optional[str], result: SessionResult
    ) -> None:
        self.results.append(result)
        if shard_id is not None:
            self.results_by_shard[shard_id].append(result)
            if result.session_key is not None:
                self.assignments[result.session_key] = shard_id
        get_registry().counter(
            "fleet_sessions_total",
            "Fleet sessions served, by shard and outcome.",
            labelnames=("shard", "outcome"),
        ).labels(shard_id or "ingress", result.status.value).inc()

    # ------------------------------------------------------------------
    # Reporting
    # ------------------------------------------------------------------

    def results_by_key(self) -> Dict[str, SessionResult]:
        """Completed sessions keyed by session key — the shard-count-
        independent view (list order is completion order and therefore
        racy; this mapping is not)."""
        return {
            result.session_key: result
            for result in self.results
            if result.session_key is not None
        }

    def resilience_snapshot(self) -> Dict[str, Any]:
        """Fleet-wide resilience state: the shared breaker/health/DLQ
        view plus each shard's private bulkhead and hedge counters."""
        out: Dict[str, Any] = {
            "enabled": self.config.resilience is not None
        }
        if self.breakers is not None:
            out["breakers"] = self.breakers.states()
        if self.health is not None:
            out["health_sweeps"] = self.health.sweeps
            out["health_transitions"] = [
                {"sweep": sweep, "provider": provider, "to": to}
                for sweep, provider, to in self.health.transitions
            ]
            out["quarantined"] = sorted(self.registry.quarantined())
        if self.dlq is not None:
            out["dlq"] = self.dlq.stats()
        per_shard: Dict[str, Any] = {}
        for shard_id, shard in sorted(self.shards.items()):
            policy = shard.server.resilience
            private = {
                key: value
                for key, value in policy.snapshot().items()
                # Shared state is reported once, fleet-level.
                if key.startswith(("bulkhead", "hedge"))
            }
            if private:
                per_shard[shard_id] = private
        if per_shard:
            out["per_shard"] = per_shard
        return out

    def cache_stats(self) -> Dict[str, Any]:
        """The shared solve cache's counters under ``"solve"`` (``None``
        when it is off), plus per-shard batch-scheduler and round
        dispatch counters when those are on."""
        batching: Dict[str, Any] = {}
        rounds: Dict[str, Any] = {}
        for shard_id, shard in self.shards.items():
            if shard.broker.batcher is not None:
                batching[shard_id] = shard.broker.batcher.stats()
            if shard.broker.rounds is not None:
                rounds[shard_id] = shard.broker.rounds.stats()
        stats: Dict[str, Any] = {
            "solve": (
                self.solve_cache.stats()
                if self.solve_cache is not None
                else None
            ),
        }
        if batching:
            stats["batching"] = batching
        if rounds:
            stats["allocation_rounds"] = rounds
        return stats


def drive_fleet(
    registry: ServiceRegistry,
    requests: Iterable[ClientRequest],
    config: Optional[FleetConfig] = None,
    injector_factory: Optional[
        Callable[[str], Optional[FaultInjector]]
    ] = None,
) -> List[SessionResult]:
    """One-shot convenience: build a fleet, serve, drain, stop."""
    frontend = FleetFrontend(
        registry, config=config, injector_factory=injector_factory
    )
    started = time.perf_counter()
    results = frontend.run(list(requests))
    get_registry().histogram(
        "fleet_run_seconds",
        "Wall time of one-shot fleet runs.",
    ).observe(time.perf_counter() - started)
    return results
