"""E14 — fleet scaling: aggregate throughput vs shard count (ours).

Series: delivered requests/second of the sharded fleet at 1/2/4/8 broker
shards under a latency-dominated synthetic load (every provider carries
a deterministic ``RandomDelay``, so a session spends its life awaiting
I/O-shaped sleeps, the regime where horizontal sharding pays — the
per-shard worker pools sleep concurrently on one event loop).  Shape
expectation: aggregate throughput grows monotonically with shards and
approaches concurrency/delay; the full run gates ≥3× at 8 shards vs 1.

Also recorded: the fleet-wide solve cache's hit split — every shard
serves the same operation, so the first solve of each candidate problem
warms every shard and no shard re-solves it.

Quick mode (the default, CI-sized) serves ~48 sessions per point with a
short delay; set ``REPRO_BENCH_FULL=1`` for the paper-sized trace (640
sessions per point, 25 ms service delay) — the acceptance run of the
fleet subsystem.

Determinism note: throughput varies run to run (wall-clock), but the
per-session *outcomes* at every shard count are identical by the keyed
RNG construction — asserted here on every point.
"""

import os

import pytest
from conftest import record_bench_artifact, report

from repro.fleet import FleetConfig, FleetFrontend, FleetLoadGenerator
from repro.runtime import (
    LoadProfile,
    RetryPolicy,
    synthesize_market,
    synthetic_request_factory,
)
from repro.soa import FaultInjector, RandomDelay

FULL = bool(os.environ.get("REPRO_BENCH_FULL"))

SHARD_COUNTS = (1, 2, 4, 8)

SCALE = {
    "quick": {"clients": 32, "requests": 48, "delay_ms": 8.0},
    "full": {"clients": 64, "requests": 640, "delay_ms": 25.0},
}[("full" if FULL else "quick")]

#: Open-loop arrival rate: fast enough that the fleet, not the arrival
#: process, is the bottleneck at every shard count.  The open loop also
#: keeps the submission order (and so the fleet's session keys) a pure
#: function of the request index — the closed loop's order depends on
#: completion timing, which would break the outcome comparison below.
RATE_RPS = 2000.0

ARTIFACT = "benchmarks/BENCH_PR6.json"


def build_fleet(shards, registry_seed=11):
    registry = synthesize_market(seed=registry_seed)
    service_ids = [d.service_id for d in registry.find()]

    def injector_factory(shard_id):
        injector = FaultInjector(seed=5)
        for service_id in service_ids:
            # probability 1.0: every attempt sleeps, making sessions
            # latency-dominated and the workload shard-scalable
            injector.attach(
                service_id, RandomDelay(1.0, SCALE["delay_ms"])
            )
        return injector

    config = FleetConfig(
        shards=shards,
        workers_per_shard=4,
        seed=11,
        deadline_s=None,
        retry=RetryPolicy(max_attempts=2, base_backoff_s=0.0),
    )
    return FleetFrontend(
        registry, config, injector_factory=injector_factory
    )


def run_point(shards):
    frontend = build_fleet(shards)
    generator = FleetLoadGenerator(
        frontend,
        LoadProfile(
            clients=SCALE["clients"],
            requests=SCALE["requests"],
            mode="open",
            rate=RATE_RPS,
            seed=7,
        ),
        synthetic_request_factory(),
    )
    fleet_report = generator.run_sync()
    outcomes = {
        key: (result.status.value, result.attempts)
        for key, result in frontend.results_by_key().items()
    }
    return fleet_report, outcomes


def test_fleet_scaling(benchmark):
    points = {}
    outcomes_by_shards = {}

    def sweep():
        for shards in SHARD_COUNTS:
            fleet_report, outcomes = run_point(shards)
            points[shards] = fleet_report
            outcomes_by_shards[shards] = outcomes
        return points

    benchmark.pedantic(sweep, rounds=1, iterations=1)

    for shards, fleet_report in points.items():
        assert fleet_report.fleet.offered == SCALE["requests"]
        assert (
            fleet_report.fleet.completed + fleet_report.fleet.degraded
            == SCALE["requests"]
        ), f"{shards} shard(s) dropped sessions"

    # keyed determinism: identical per-session outcomes at every scale
    reference = outcomes_by_shards[SHARD_COUNTS[0]]
    for shards in SHARD_COUNTS[1:]:
        assert outcomes_by_shards[shards] == reference, (
            f"outcomes at {shards} shard(s) diverged from 1 shard"
        )

    throughput = {
        shards: points[shards].fleet.throughput_rps
        for shards in SHARD_COUNTS
    }
    speedup = {
        shards: throughput[shards] / throughput[1]
        for shards in SHARD_COUNTS
    }

    # quick mode smoke-checks the shape; the full trace gates the claim
    assert throughput[max(SHARD_COUNTS)] > throughput[1], (
        "sharding did not increase aggregate throughput"
    )
    if FULL:
        assert speedup[8] >= 3.0, (
            f"8-shard speedup {speedup[8]:.2f}× below the 3× gate"
        )

    report(
        f"E14 fleet scaling — {'full' if FULL else 'quick'} "
        f"({SCALE['requests']} sessions, "
        f"{SCALE['delay_ms']:.0f} ms service delay)",
        [
            (
                shards,
                f"{throughput[shards]:.1f}",
                f"{speedup[shards]:.2f}x",
                f"{points[shards].fleet.latency_s['p95'] * 1000:.1f}",
                points[shards].redirects,
            )
            for shards in SHARD_COUNTS
        ],
        headers=(
            "shards",
            "rps",
            "speedup",
            "p95 ms",
            "redirects",
        ),
    )
    record_bench_artifact(
        "fleet_scaling",
        {
            "mode": "full" if FULL else "quick",
            "scale": SCALE,
            "shard_counts": list(SHARD_COUNTS),
            "throughput_rps": {
                str(shards): throughput[shards]
                for shards in SHARD_COUNTS
            },
            "speedup_vs_1_shard": {
                str(shards): round(speedup[shards], 3)
                for shards in SHARD_COUNTS
            },
            "latency_p95_s": {
                str(shards): points[shards].fleet.latency_s["p95"]
                for shards in SHARD_COUNTS
            },
            "outcomes_shard_count_independent": True,
        },
        path=ARTIFACT,
    )


def test_fleet_shared_cache(benchmark):
    """One solve cache for the fleet: sessions served one at a time over
    4 shards miss once per distinct candidate problem, then only hit."""
    shards = 4
    frontend = build_fleet(shards)

    def one_run():
        generator = FleetLoadGenerator(
            frontend,
            # one closed-loop client: no two shards race on a problem
            LoadProfile(
                clients=1,
                requests=SCALE["requests"],
                mode="closed",
                seed=7,
            ),
            synthetic_request_factory(),
        )
        return generator.run_sync()

    fleet_report = benchmark.pedantic(one_run, rounds=1, iterations=1)
    cache = fleet_report.cache["solve"]
    distinct = len(frontend.registry.find(operation="render"))
    lookups = fleet_report.fleet.offered * distinct
    assert all(row.offered for row in fleet_report.per_shard.values())
    assert len(fleet_report.per_shard) == shards
    assert cache["misses"] == distinct
    assert cache["hits"] == lookups - distinct
    report(
        "E14 fleet solve cache (4 shards, one operation)",
        [("solve", cache["hits"], cache["misses"], distinct)],
        headers=("cache", "hits", "misses", "distinct problems"),
    )
    record_bench_artifact(
        "fleet_solve_cache",
        {
            "shards": shards,
            "hits": cache["hits"],
            "misses": cache["misses"],
            "distinct_problems": distinct,
        },
        path=ARTIFACT,
    )
