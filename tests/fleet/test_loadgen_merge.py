"""Report merging: fleet percentiles come from raw samples, never from
averaging per-shard percentiles — plus the fleet load generator."""

import pytest

from repro.fleet import FleetConfig, FleetFrontend, FleetLoadGenerator
from repro.runtime import (
    LoadGenError,
    LoadProfile,
    SessionResult,
    SessionStatus,
    build_report,
    merge_reports,
    percentile,
)


def result(latency, wait=0.0, status=SessionStatus.COMPLETED, retries=0):
    request = None
    sample = SessionResult(request=request, status=status)
    sample.latency_s = latency
    sample.queue_wait_s = wait
    sample.attempts = 1
    sample.retries = retries
    return sample


def report_of(latencies, duration):
    return build_report([result(value) for value in latencies], duration)


class TestMergeReports:
    def test_percentiles_come_from_concatenated_samples(self):
        # Skewed shards: shard A fast, shard B slow.  Averaging the
        # per-shard p95s gives ~5.25; the true fleet p95 is 10.0.
        fast = report_of([0.1, 0.2, 0.3, 0.4, 0.5], duration=1.0)
        slow = report_of([8.0, 9.0, 10.0], duration=2.0)
        merged = merge_reports([fast, slow])
        samples = [0.1, 0.2, 0.3, 0.4, 0.5, 8.0, 9.0, 10.0]
        assert merged.latency_s["p95"] == percentile(samples, 95)
        assert merged.latency_s["p50"] == percentile(samples, 50)
        averaged = (fast.latency_s["p95"] + slow.latency_s["p95"]) / 2
        assert merged.latency_s["p95"] != pytest.approx(averaged)

    def test_counts_and_retries_sum(self):
        a = build_report(
            [result(0.1), result(0.2, retries=2)], duration=1.0
        )
        b = build_report(
            [result(0.3, status=SessionStatus.DEGRADED, retries=1)],
            duration=1.0,
        )
        merged = merge_reports([a, b])
        assert merged.offered == 3
        assert merged.completed == 2
        assert merged.degraded == 1
        assert merged.retries_total == 3

    def test_duration_is_the_longest_window(self):
        # Shards run concurrently: the fleet window is the slowest
        # shard's window, and throughput is total work over it.
        fast = report_of([0.1, 0.1], duration=1.0)
        slow = report_of([0.2, 0.2], duration=4.0)
        merged = merge_reports([fast, slow])
        assert merged.duration_s == 4.0
        assert merged.throughput_rps == pytest.approx(4 / 4.0)

    def test_refuses_empty_input(self):
        with pytest.raises(LoadGenError):
            merge_reports([])

    def test_refuses_digests_without_raw_samples(self):
        digest = report_of([0.1, 0.2], duration=1.0)
        digest.results = []  # summary-only (e.g. deserialized JSON)
        with pytest.raises(LoadGenError):
            merge_reports([digest])

    def test_single_report_round_trips(self):
        only = report_of([0.1, 0.5, 0.9], duration=2.0)
        merged = merge_reports([only])
        assert merged.latency_s == only.latency_s
        assert merged.offered == only.offered


class TestFleetLoadGenerator:
    def test_per_shard_rows_sum_to_the_fleet_row(
        self, market, make_request
    ):
        frontend = FleetFrontend(
            market, FleetConfig(shards=3, seed=9, deadline_s=None)
        )

        def factory(client, index):
            return make_request(client=client)

        generator = FleetLoadGenerator(
            frontend,
            LoadProfile(clients=4, requests=20, mode="closed", seed=9),
            factory,
        )
        report = generator.run_sync()
        assert report.fleet.offered == 20
        assert report.fleet.completed == 20
        assert report.shards == 3
        assert sum(
            row.offered for row in report.per_shard.values()
        ) == 20
        # the shard rows partition the fleet row
        all_latencies = sorted(
            r.latency_s
            for row in report.per_shard.values()
            for r in row.results
        )
        assert report.fleet.latency_s["p50"] == percentile(
            all_latencies, 50
        )
        payload = report.to_dict()
        assert set(payload) == {
            "fleet",
            "per_shard",
            "shards",
            "redirects",
            "cache",
        }

    def test_ingress_bounces_fall_back_to_the_generator_digest(
        self, market, make_request
    ):
        frontend = FleetFrontend(
            market,
            FleetConfig(shards=2, ingress_depth=1, deadline_s=None),
        )

        def factory(client, index):
            return make_request(client=client)

        generator = FleetLoadGenerator(
            frontend,
            # an open loop at a very high rate floods the 1-deep ingress
            LoadProfile(clients=4, requests=30, rate=100000.0, seed=1),
            factory,
        )
        report = generator.run_sync()
        assert report.fleet.offered == 30
        if report.fleet.overloaded:
            # bounced sessions belong to no shard, but the fleet row
            # still accounts for every offered session
            covered = sum(
                row.offered for row in report.per_shard.values()
            )
            assert covered < 30

    def test_per_shard_rows_cover_only_their_own_run(
        self, market, make_request
    ):
        # Two runs on one frontend: each run's shard rows count that
        # run's sessions only.
        frontend = FleetFrontend(
            market, FleetConfig(shards=2, seed=9, deadline_s=None)
        )

        def factory(client, index):
            return make_request(client=client)

        for _ in range(2):
            report = FleetLoadGenerator(
                frontend,
                LoadProfile(clients=4, requests=40, mode="closed", seed=9),
                factory,
            ).run_sync()
            assert report.fleet.offered == 40
            assert sum(
                row.offered for row in report.per_shard.values()
            ) == 40
