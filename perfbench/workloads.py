"""The benchmark's three workloads: markets, request streams, serving set-up.

Everything a workload feeds the program derives from the command-line
seed.  Request *i* depends only on ``(seed, i)`` (:func:`stream_rng`),
never on completion order, so two runs with one seed send the same
stream however the event loop interleaves them.  The program receives
only the generated markets and requests; it is driven through its public
serving entry points (``RuntimeServer.submit``, ``FleetFrontend.submit``).

Thread budget: every workload runs two program worker threads, never
more than the host's two cores, in one benchmark process that ``run.py``
pins to a single core.
"""

from __future__ import annotations

import bisect
import itertools
from dataclasses import dataclass
from typing import Any, Awaitable, Callable, Dict, List, Optional, Tuple

from repro.constraints.polynomial import Polynomial, polynomial_constraint
from repro.constraints.variables import integer_variable
from repro.fleet import FleetConfig, FleetFrontend
from repro.resilience import BreakerConfig, ResilienceConfig
from repro.runtime import (
    RuntimeConfig,
    RuntimeServer,
    synthesize_market,
    synthetic_request_factory,
)
from repro.sccp.check import CheckSpec
from repro.soa import (
    BernoulliCrash,
    Broker,
    ClientRequest,
    FaultInjector,
    QoSDocument,
    QoSPolicy,
    ServiceDescription,
    ServiceInterface,
    ServiceRegistry,
)
from repro.soa.qos import resolve_attribute
from repro.telemetry import TelemetrySession, install, uninstall

from stats import stream_rng

#: Problem keys name one requirement (+ acceptance) for the oracle:
#: ``(demand class, acceptance lower bound or None)``.
ProblemKey = Tuple[int, Optional[float]]


@dataclass
class Serving:
    """One started serving surface plus what the oracle and tracer read."""

    server: Any  # RuntimeServer | FleetFrontend
    brokers: List[Broker]
    telemetry: Optional[TelemetrySession] = None

    async def stop(self) -> None:
        await self.server.stop()
        if self.telemetry is not None:
            uninstall()

    def cache_evictions(self) -> int:
        """Solve-cache evictions so far, over every tier and shard."""
        total = 0
        seen_l2 = set()
        for broker in self.brokers:
            stats = broker.solve_cache.stats()
            if "l1" in stats:
                total += stats["l1"]["evictions"]
                l2 = stats["l2"]
                if id(broker.solve_cache.l2) not in seen_l2:
                    seen_l2.add(id(broker.solve_cache.l2))
                    total += l2["evictions"]
            else:
                total += stats["evictions"]
        return total

    def slas_retained(self) -> int:
        return sum(len(broker.slas) for broker in self.brokers)


@dataclass
class Workload:
    """A named traffic mix: its market, request stream and load shape."""

    name: str
    why: str
    mode: str  # "closed" | "open"
    build_market: Callable[[int], ServiceRegistry]
    make_stream: Callable[[int], "Stream"]
    start_serving: Callable[[ServiceRegistry, int], Awaitable[Serving]]
    clients: int = 8  # closed loop: concurrent clients
    rate: float = 0.0  # open loop: mean Poisson arrivals per second
    #: ``slo_met_share`` counts sessions ending OK within this many ms of
    #: their due time (closed loop: their submission).  Set in each
    #: workload's tail, past its p99: inside the bulk of the latency
    #: distribution the share would swing with the machine's speed.
    slo_limit_ms: float = 50.0
    warm_sessions: int = 256  # part of set-up, timed in setup_s
    #: Sent after set-up, before the timed window, neither timed nor
    #: reported: caches and retained state reach their steady shape.  A
    #: session count, not a time, so the memory at the window's start
    #: does not depend on how fast the machine happened to be.
    fill_sessions: int = 1000
    #: End-to-end timings reported at the reference speed (:mod:`speed`):
    #: those that are CPU work.  In a closed loop that is every one; in
    #: the open loop only the median, since its throughput is its
    #: schedule, its tail is retry backoff (a wall-clock wait), and its
    #: warm-up retries too.
    at_reference_speed: Tuple[str, ...] = ()


class Stream:
    """Request *i* of a workload, and the oracle's view of its problem."""

    attribute = "cost"

    def __init__(self, seed: int, clients: int) -> None:
        self.seed = seed
        self.clients = clients

    def request(self, index: int) -> Tuple[ClientRequest, ProblemKey]:
        raise NotImplementedError

    def requirements(self, key: ProblemKey) -> Tuple[list, Optional[CheckSpec]]:
        """The requirement constraints and acceptance of ``key``."""
        raise NotImplementedError


class RepeatStream(Stream):
    """Every session sends the one default requirement (no acceptance)."""

    def __init__(self, seed: int, clients: int) -> None:
        super().__init__(seed, clients)
        self._factory = synthetic_request_factory()
        self._template = self._factory("c0", 0)

    def request(self, index: int) -> Tuple[ClientRequest, ProblemKey]:
        return self._factory(f"c{index % self.clients}", index), (0, None)

    def requirements(self, key: ProblemKey) -> Tuple[list, Optional[CheckSpec]]:
        return list(self._template.requirements), None


# ----------------------------------------------------------------------
# zipf-market: a varied market whose working set outgrows the solve cache
# ----------------------------------------------------------------------

ZIPF_DOMAIN = 12  # values 0..12 per variable: 13 values, 169 leaves
ZIPF_CLASSES = 100_000
ZIPF_EXPONENT = 1.3
ZIPF_ACCEPTANCE_SHARE = 0.2


#: The six providers' cost bowls ``α(x-u)² + β(y-v)² + γxy + base``.
#: Fixed, so every seed gives the solver the same problems to price;
#: drawing them from the seed made solver work, and with it throughput,
#: vary by a third from seed to seed.
ZIPF_BOWLS = (
    # u,   v,    α,    β,    γ,    base
    (3.0, 8.5, 0.45, 0.30, 0.02, 6.0),
    (7.5, 3.0, 0.25, 0.55, 0.05, 4.5),
    (5.0, 5.0, 0.35, 0.35, 0.08, 9.0),
    (9.5, 9.0, 0.50, 0.20, 0.00, 3.0),
    (2.5, 2.5, 0.20, 0.40, 0.10, 11.0),
    (6.0, 10.0, 0.30, 0.45, 0.04, 7.5),
)


def zipf_market(seed: int) -> ServiceRegistry:
    """Six providers, each offering a two-variable quadratic cost bowl;
    the seed decides which provider offers which bowl."""
    registry = ServiceRegistry()
    x, y = Polynomial.var("x"), Polynomial.var("y")
    bowls = list(ZIPF_BOWLS)
    stream_rng(seed, "market").shuffle(bowls)
    for index, (u, v, alpha, beta, gamma, base) in enumerate(bowls):
        bowl = (
            (x - u) * (x - u) * alpha
            + (y - v) * (y - v) * beta
            + x * y * gamma
            + base
        )
        document = QoSDocument(
            service_name="render",
            provider=f"P{index}",
            policies=[
                QoSPolicy(
                    attribute="cost",
                    variables={
                        "x": range(0, ZIPF_DOMAIN + 1),
                        "y": range(0, ZIPF_DOMAIN + 1),
                    },
                    polynomial=bowl,
                )
            ],
        )
        registry.publish(
            ServiceDescription(
                service_id=f"render-P{index}",
                name="render",
                provider=f"P{index}",
                interface=ServiceInterface(operation="render"),
                qos=document,
            )
        )
    return registry


class ZipfStream(Stream):
    """Demand classes drawn Zipf from a space far larger than the cache.

    Each class is a linear cost demand over the shared resource
    variables; about a fifth of requests also state an acceptance
    interval (a worst acceptable cost), some of which no provider meets.
    """

    def __init__(self, seed: int, clients: int) -> None:
        super().__init__(seed, clients)
        self._semiring = resolve_attribute("cost").semiring()
        # Shared variable objects: the broker memoizes compiled offers
        # per variable identity, as it would for one client population.
        self._x = integer_variable("x", ZIPF_DOMAIN)
        self._y = integer_variable("y", ZIPF_DOMAIN)
        self._cumulative = list(
            itertools.accumulate(
                1.0 / rank**ZIPF_EXPONENT
                for rank in range(1, ZIPF_CLASSES + 1)
            )
        )

    def _draw(self, index: int) -> ProblemKey:
        rng = stream_rng(self.seed, "request", index)
        point = rng.random() * self._cumulative[-1]
        demand_class = bisect.bisect_left(self._cumulative, point)
        lower = None
        if rng.random() < ZIPF_ACCEPTANCE_SHARE:
            lower = round(rng.uniform(8.0, 40.0), 1)
        return demand_class, lower

    def _demand(self, demand_class: int):
        rng = stream_rng(self.seed, "class", demand_class)
        polynomial = Polynomial.linear(
            {"x": rng.uniform(0.2, 3.0), "y": rng.uniform(0.2, 3.0)},
            rng.uniform(0.0, 4.0),
        )
        return polynomial_constraint(
            self._semiring,
            [self._x, self._y],
            polynomial,
            name=f"demand-{demand_class}",
        )

    def _acceptance(self, lower: Optional[float]) -> Optional[CheckSpec]:
        if lower is None:
            return None
        return CheckSpec(self._semiring, lower=lower)

    def request(self, index: int) -> Tuple[ClientRequest, ProblemKey]:
        key = self._draw(index)
        request = ClientRequest(
            client=f"c{index % self.clients}",
            operation="render",
            attribute="cost",
            requirements=[self._demand(key[0])],
            acceptance=self._acceptance(key[1]),
        )
        return request, key

    def requirements(self, key: ProblemKey) -> Tuple[list, Optional[CheckSpec]]:
        return [self._demand(key[0])], self._acceptance(key[1])


# ----------------------------------------------------------------------
# Serving surfaces
# ----------------------------------------------------------------------


async def start_runtime(registry: ServiceRegistry, seed: int) -> Serving:
    """``RuntimeServer`` over one broker: solve cache on, 2 workers."""
    broker = Broker(registry)
    server = RuntimeServer(broker, RuntimeConfig(workers=2, seed=seed))
    await server.start()
    return Serving(server=server, brokers=[broker])


FLEET_CRASH_PROBABILITY = 0.05


async def start_fleet(registry: ServiceRegistry, seed: int) -> Serving:
    """A fleet run as an operator would: telemetry installed, breakers
    on, default retries, every provider crashing 5% of the time.

    One shard of two workers, not two shards of one: a runtime worker
    stays busy through its session's retry backoff, so with one worker
    a shard stalls for 25-225 ms behind every retried session.  The p99
    is then set by the few double retries a run happens to draw, and it
    moved by a third to a half from seed to seed.  With two workers a
    stall needs two overlapping retries, and the p99 is set by the
    retried sessions themselves.  Two workers keep the program at two
    threads, as on the other workloads.
    """
    telemetry = install(TelemetrySession())

    def injector_for(shard_id: str) -> FaultInjector:
        injector = FaultInjector(seed=seed)
        for description in registry.find(include_unavailable=True):
            injector.attach(
                description.service_id,
                BernoulliCrash(FLEET_CRASH_PROBABILITY),
            )
        return injector

    fleet = FleetFrontend(
        registry,
        FleetConfig(
            shards=1,
            workers_per_shard=2,
            seed=seed,
            resilience=ResilienceConfig(breaker=BreakerConfig()),
        ),
        injector_factory=injector_for,
    )
    await fleet.start()
    return Serving(
        server=fleet,
        brokers=[shard.broker for shard in fleet.shards.values()],
        telemetry=telemetry,
    )


CLOSED_LOOP_SCALED = (
    "throughput_rps",
    "latency_p50_ms",
    "latency_p99_ms",
    "setup_s",
)

WORKLOADS: Dict[str, Workload] = {
    workload.name: workload
    for workload in (
        Workload(
            name="repeat-market",
            why=(
                "closed loop, 8 clients, one repeated requirement: every "
                "solve hits the cache, so per-session broker and runtime "
                "overhead dominates and solver changes predict no change"
            ),
            mode="closed",
            clients=8,
            fill_sessions=2000,
            at_reference_speed=CLOSED_LOOP_SCALED,
            build_market=lambda seed: synthesize_market(seed=seed),
            make_stream=lambda seed: RepeatStream(seed, 8),
            start_serving=start_runtime,
        ),
        Workload(
            name="zipf-market",
            why=(
                "closed loop, 8 clients, Zipf demand classes over a space far "
                "larger than the solve cache, a fifth with acceptance: SCSP "
                "solving and the acceptance store dominate"
            ),
            mode="closed",
            clients=8,
            at_reference_speed=CLOSED_LOOP_SCALED,
            slo_limit_ms=250.0,
            warm_sessions=64,
            fill_sessions=1000,
            build_market=zipf_market,
            make_stream=lambda seed: ZipfStream(seed, 8),
            start_serving=start_runtime,
        ),
        Workload(
            name="fleet-faults-open",
            why=(
                "open Poisson loop at 100 rps into a fleet with telemetry, "
                "breakers, retries and 5% crashes: the only workload "
                "through repro.fleet, repro.resilience and repro.telemetry"
            ),
            mode="open",
            rate=100.0,
            at_reference_speed=("latency_p50_ms",),
            fill_sessions=300,
            build_market=lambda seed: synthesize_market(seed=seed),
            make_stream=lambda seed: RepeatStream(seed, 16),
            start_serving=start_fleet,
        ),
    )
}
