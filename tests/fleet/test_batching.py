"""Per-shard batch scheduling over the shared solve cache: bit-identity
holds.

A 4-shard fleet with ``FleetConfig(batching=...)`` must hand every
session the same agreement the unbatched fleet hands it — the batch
scheduler stores its results in the fleet's one solve cache, so a
batched sweep still warms every shard — and ``cache_stats()`` must
surface per-shard dispatch counters under the ``"batching"`` key.
"""

from repro.fleet import FleetConfig, FleetFrontend
from repro.runtime import BatchConfig

from .conftest import OPERATIONS


def _fingerprints(frontend):
    return {
        key: (
            result.status,
            None
            if result.sla is None
            else (
                result.sla.providers,
                result.sla.agreed_level,
                tuple(sorted(result.sla.resource_assignment.items())),
            ),
        )
        for key, result in frontend.results_by_key().items()
    }


def _run(market, make_request, batching, shards=4):
    frontend = FleetFrontend(
        market,
        FleetConfig(
            shards=shards, seed=7, deadline_s=None, batching=batching
        ),
    )
    requests = [
        make_request(
            client=f"c{i % 4}", operation=OPERATIONS[i % len(OPERATIONS)]
        )
        for i in range(24)
    ]
    frontend.run(requests)
    return frontend


class TestFleetBatching:
    def test_agreements_identical_with_and_without_batching(
        self, market, make_request
    ):
        baseline = _fingerprints(_run(market, make_request, None))
        assert len(baseline) == 24
        for config in (
            BatchConfig(window_ms=0.0, max_batch=1),
            BatchConfig(window_ms=10.0, max_batch=32),
        ):
            batched = _fingerprints(
                _run(market, make_request, config)
            )
            assert batched == baseline, config

    def test_single_shard_matches_quad_shard_under_batching(
        self, market, make_request
    ):
        config = BatchConfig(window_ms=10.0, max_batch=16)
        single = _fingerprints(_run(market, make_request, config, shards=1))
        quad = _fingerprints(_run(market, make_request, config, shards=4))
        assert single == quad

    def test_cache_stats_surface_batching_counters(
        self, market, make_request
    ):
        frontend = _run(
            market,
            make_request,
            BatchConfig(window_ms=5.0, max_batch=16),
        )
        stats = frontend.cache_stats()
        assert "batching" in stats
        per_shard = stats["batching"]
        assert set(per_shard) == set(frontend.results_by_shard)
        for row in per_shard.values():
            assert set(row) == {
                "batches_dispatched",
                "sessions_batched",
                "largest_batch",
                "open_groups",
            }
            assert row["open_groups"] == 0

    def test_unbatched_fleet_reports_no_batching_key(
        self, market, make_request
    ):
        frontend = _run(market, make_request, None)
        assert "batching" not in frontend.cache_stats()
