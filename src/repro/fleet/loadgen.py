"""Fleet load generation: synthetic populations against many shards.

Reuses :mod:`repro.runtime.loadgen` wholesale — the
:class:`~repro.fleet.frontend.FleetFrontend` duck-types the server
surface the :class:`~repro.runtime.loadgen.LoadGenerator` drives, so
open/closed-loop arrival processes, request factories and the synthetic
market all work unchanged.  What this module adds is fleet-shaped
reporting: per-shard :class:`~repro.runtime.loadgen.LoadReport` digests
built by grouping the run's own session results on
:attr:`~repro.runtime.server.SessionResult.shard` (sessions bounced at
the fleet edge belong to no shard but count in the fleet row), plus the
solve-cache and redirect counters that tell the scaling story.
"""

from __future__ import annotations

import asyncio
from dataclasses import dataclass
from typing import Any, Dict, List, Optional

from ..runtime.loadgen import (
    LoadGenerator,
    LoadProfile,
    LoadReport,
    RequestFactory,
    build_report,
)
from ..runtime.server import SessionResult
from .frontend import FleetFrontend


@dataclass
class FleetLoadReport:
    """What the fleet delivered under one load profile."""

    #: The fleet-wide digest (offered/throughput/percentiles).
    fleet: LoadReport
    #: Per-shard digests over the same wall-clock window.
    per_shard: Dict[str, LoadReport]
    shards: int
    redirects: int
    #: Fleet-wide solve-cache counters (see ``FleetFrontend.cache_stats``).
    cache: Dict[str, Any]

    @property
    def fairness(self) -> Optional[Dict[str, float]]:
        """Fleet-wide allocation fairness digest (``None`` when no
        session was served through an allocation policy)."""
        return self.fleet.fairness

    def to_dict(self) -> Dict[str, Any]:
        """JSON-able summary (individual sessions omitted)."""
        return {
            "fleet": self.fleet.to_dict(),
            "per_shard": {
                shard: report.to_dict()
                for shard, report in sorted(self.per_shard.items())
            },
            "shards": self.shards,
            "redirects": self.redirects,
            "cache": self.cache,
        }


class FleetLoadGenerator:
    """Drives one fleet with a synthetic population and measures it."""

    def __init__(
        self,
        frontend: FleetFrontend,
        profile: Optional[LoadProfile] = None,
        request_factory: Optional[RequestFactory] = None,
    ) -> None:
        self.frontend = frontend
        self._inner = LoadGenerator(frontend, profile, request_factory)

    @property
    def profile(self) -> LoadProfile:
        return self._inner.profile

    async def run(self) -> FleetLoadReport:
        """One full load run (starts/stops the fleet if needed)."""
        report = await self._inner.run()
        by_shard: Dict[str, List[SessionResult]] = {}
        for result in report.results:
            if result.shard is not None:
                by_shard.setdefault(result.shard, []).append(result)
        per_shard = {
            shard_id: build_report(results, report.duration_s)
            for shard_id, results in sorted(by_shard.items())
        }
        return FleetLoadReport(
            fleet=report,
            per_shard=per_shard,
            shards=len(self.frontend.shards),
            redirects=self.frontend.redirects,
            cache=self.frontend.cache_stats(),
        )

    def run_sync(self) -> FleetLoadReport:
        return asyncio.run(self.run())
