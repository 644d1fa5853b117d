"""repro.fleet — the sharded multi-broker serving fleet.

Scales the serving path horizontally (ROADMAP item 1): a seeded
consistent-hash ring partitions the session space (and optionally the
registry, by operation) across N :class:`~repro.runtime.RuntimeServer`
broker shards; a front-end load balancer does queue-based load leveling
with typed ``Overloaded`` backpressure and shard-aware redirect when a
reshard moves a key mid-flight; and every shard broker shares one
fleet-wide solve cache keyed by the SHA-256 problem fingerprint.
Determinism: per-session RNG streams derive from ``(master seed,
session key)``, so a fleet run's agreements are independent of shard
count.
"""

from .frontend import (
    FLEET_SOLVE_CACHE_SIZE,
    FleetConfig,
    FleetError,
    FleetFrontend,
    ROUTE_MODES,
    drive_fleet,
    partition_registry,
)
from .loadgen import FleetLoadGenerator, FleetLoadReport
from .ring import DEFAULT_VNODES, HashRing, RingError, hash_key

__all__ = [
    "HashRing",
    "RingError",
    "hash_key",
    "DEFAULT_VNODES",
    "FLEET_SOLVE_CACHE_SIZE",
    "FleetFrontend",
    "FleetConfig",
    "FleetError",
    "ROUTE_MODES",
    "partition_registry",
    "drive_fleet",
    "FleetLoadGenerator",
    "FleetLoadReport",
]
