"""Fleet load generation: synthetic populations against many shards.

Reuses :mod:`repro.runtime.loadgen` wholesale — the
:class:`~repro.fleet.frontend.FleetFrontend` duck-types the server
surface the :class:`~repro.runtime.loadgen.LoadGenerator` drives, so
open/closed-loop arrival processes, request factories and the synthetic
market all work unchanged.  What this module adds is fleet-shaped
reporting: per-shard :class:`~repro.runtime.loadgen.LoadReport` digests
built from each shard's raw session samples and merged with
:func:`~repro.runtime.loadgen.merge_reports` (percentiles recomputed
from the concatenated samples, never averaged), plus the solve-cache
and redirect counters that tell the scaling story.
"""

from __future__ import annotations

import asyncio
from dataclasses import dataclass
from typing import Any, Dict, Optional

from ..runtime.loadgen import (
    LoadGenerator,
    LoadProfile,
    LoadReport,
    RequestFactory,
    build_report,
    merge_reports,
)
from .frontend import FleetFrontend


@dataclass
class FleetLoadReport:
    """What the fleet delivered under one load profile."""

    #: The merged fleet-wide digest (offered/throughput/percentiles).
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
        per_shard = {
            shard_id: build_report(list(results), report.duration_s)
            for shard_id, results in sorted(
                self.frontend.results_by_shard.items()
            )
            if results
        }
        # Merging the per-shard reports keeps the fleet row exactly
        # consistent with the shard rows it summarizes.  Sessions
        # bounced at the fleet edge belong to no shard; when any exist
        # the generator's own digest (which includes them) is the
        # honest fleet row instead.
        covered = sum(digest.offered for digest in per_shard.values())
        fleet = (
            merge_reports(list(per_shard.values()))
            if per_shard and covered == report.offered
            else report
        )
        return FleetLoadReport(
            fleet=fleet,
            per_shard=per_shard,
            shards=len(self.frontend.shards),
            redirects=self.frontend.redirects,
            cache=self.frontend.cache_stats(),
        )

    def run_sync(self) -> FleetLoadReport:
        return asyncio.run(self.run())
