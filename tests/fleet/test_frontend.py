"""FleetFrontend: routing, backpressure, resharding, determinism."""

import asyncio

import pytest

from repro.fleet import (
    FleetConfig,
    FleetError,
    FleetFrontend,
    partition_registry,
)
from repro.fleet.frontend import _FleetItem
from repro.runtime import RetryPolicy, SessionStatus
from repro.soa import BernoulliCrash, FaultInjector
from repro.telemetry import telemetry_session

from .conftest import OPERATIONS, by_key


def requests_for(make_request, count):
    return [
        make_request(
            client=f"c{i % 4}", operation=OPERATIONS[i % len(OPERATIONS)]
        )
        for i in range(count)
    ]


def crashy_injector_factory(market, probability=0.4, seed=123):
    service_ids = [d.service_id for d in market.find()]

    def factory(shard_id):
        injector = FaultInjector(seed=seed)
        for service_id in service_ids:
            injector.attach(service_id, BernoulliCrash(probability))
        return injector

    return factory


class TestConfig:
    def test_rejects_bad_shapes(self):
        with pytest.raises(FleetError):
            FleetConfig(shards=0)
        with pytest.raises(FleetError):
            FleetConfig(workers_per_shard=0)
        with pytest.raises(FleetError):
            FleetConfig(ingress_depth=0)
        with pytest.raises(FleetError):
            FleetConfig(route_by="client")

    def test_partitioning_requires_operation_routing(self):
        with pytest.raises(FleetError):
            FleetConfig(partition_registry=True, route_by="session")
        FleetConfig(partition_registry=True, route_by="operation")


class TestServing:
    def test_serves_across_shards(self, market, make_request):
        frontend = FleetFrontend(
            market, FleetConfig(shards=3, seed=1, deadline_s=None)
        )
        results = frontend.run(requests_for(make_request, 24))
        assert len(results) == 24
        assert all(r.status is SessionStatus.COMPLETED for r in results)
        # the cheapest provider wins on every shard, like a single broker
        assert all("P2" in r.sla.providers for r in results)
        # the session space actually spread over the shards
        assert {r.shard for r in results} == set(frontend.shards)

    def test_submit_before_start_raises(self, market, make_request):
        frontend = FleetFrontend(market, FleetConfig(shards=2))
        with pytest.raises(FleetError):
            asyncio.run(self._submit_unstarted(frontend, make_request()))

    @staticmethod
    async def _submit_unstarted(frontend, request):
        frontend.submit(request)

    def test_every_result_carries_its_key_and_shard(
        self, market, make_request
    ):
        frontend = FleetFrontend(
            market, FleetConfig(shards=2, seed=3, deadline_s=None)
        )
        keyed = by_key(frontend.run(requests_for(make_request, 10)))
        assert len(keyed) == 10
        assert all(key.startswith("s") for key in keyed)
        assert all(r.shard in frontend.shards for r in keyed.values())


class TestBackpressure:
    def test_full_ingress_bounces_with_typed_overload(
        self, market, make_request
    ):
        frontend = FleetFrontend(
            market,
            FleetConfig(shards=2, ingress_depth=1, deadline_s=None),
        )
        results = asyncio.run(self._flood(frontend, make_request))
        overloaded = [
            r for r in results if r.status is SessionStatus.OVERLOADED
        ]
        assert overloaded  # the ingress bound actually bit
        assert all("ingress" in r.detail for r in overloaded)
        served = [
            r for r in results if r.status is SessionStatus.COMPLETED
        ]
        assert served  # and admitted sessions still finished

    @staticmethod
    async def _flood(frontend, make_request):
        async with frontend:
            # submit() is synchronous: no yield between calls, so the
            # dispatcher cannot drain the 1-deep ingress in between.
            futures = [
                frontend.submit(make_request(client=f"c{i}"))
                for i in range(6)
            ]
            return await asyncio.gather(*futures)


class TestResharding:
    def test_redirect_forwards_a_moved_key(self, market, make_request):
        asyncio.run(self._redirect(market, make_request))

    @staticmethod
    async def _redirect(market, make_request):
        frontend = FleetFrontend(
            market, FleetConfig(shards=2, seed=0, deadline_s=None)
        )
        async with frontend:
            # A key owned by shard-1, planted on shard-0's queue —
            # exactly what a reshard racing the dispatcher produces.
            key = next(
                f"k{i}"
                for i in range(1000)
                if frontend.ring.assign(f"k{i}") == "shard-1"
            )
            loop = asyncio.get_running_loop()
            item = _FleetItem(
                seq=0,
                key=key,
                route_key=key,
                request=make_request(),
                future=loop.create_future(),
                deadline_s=None,
            )
            await frontend.shards["shard-0"].queue.put(item)
            result = await item.future
        assert result.status is SessionStatus.COMPLETED
        assert frontend.redirects == 1
        assert result.shard == "shard-1"

    def test_add_shard_mid_run(self, market, make_request):
        asyncio.run(self._grow(market, make_request))

    @staticmethod
    async def _grow(market, make_request):
        frontend = FleetFrontend(
            market, FleetConfig(shards=2, seed=2, deadline_s=None)
        )
        async with frontend:
            first = await asyncio.gather(
                *[
                    frontend.submit(r)
                    for r in requests_for(make_request, 8)
                ]
            )
            joined = await frontend.add_shard()
            assert joined == "shard-2"
            second = await asyncio.gather(
                *[
                    frontend.submit(r)
                    for r in requests_for(make_request, 16)
                ]
            )
        results = first + second
        assert all(r.status is SessionStatus.COMPLETED for r in results)
        assert any(r.shard == "shard-2" for r in second)  # newcomer served

    def test_remove_shard_drains_gracefully(self, market, make_request):
        asyncio.run(self._shrink(market, make_request))

    @staticmethod
    async def _shrink(market, make_request):
        frontend = FleetFrontend(
            market, FleetConfig(shards=3, seed=2, deadline_s=None)
        )
        async with frontend:
            first = await asyncio.gather(
                *[
                    frontend.submit(r)
                    for r in requests_for(make_request, 9)
                ]
            )
            await frontend.remove_shard("shard-1")
            assert "shard-1" not in frontend.shards
            second = await asyncio.gather(
                *[
                    frontend.submit(r)
                    for r in requests_for(make_request, 9)
                ]
            )
        assert all(
            r.status is SessionStatus.COMPLETED for r in first + second
        )

    def test_cannot_remove_the_last_shard(self, market):
        frontend = FleetFrontend(market, FleetConfig(shards=1))
        with pytest.raises(FleetError):
            asyncio.run(frontend.remove_shard("shard-0"))

    def test_partitioned_fleets_refuse_to_reshard(self, market):
        frontend = FleetFrontend(
            market,
            FleetConfig(
                shards=2, route_by="operation", partition_registry=True
            ),
        )
        with pytest.raises(FleetError):
            asyncio.run(frontend.add_shard())


class TestDrainingShutdown:
    def test_stop_finishes_admitted_sessions(self, market, make_request):
        futures = asyncio.run(self._stop_early(market, make_request))
        assert all(f.done() for f in futures)
        assert all(
            f.result().status is SessionStatus.COMPLETED for f in futures
        )

    @staticmethod
    async def _stop_early(market, make_request):
        frontend = FleetFrontend(
            market, FleetConfig(shards=2, seed=4, deadline_s=None)
        )
        await frontend.start()
        futures = [
            frontend.submit(r) for r in requests_for(make_request, 12)
        ]
        await frontend.stop()  # drains: no future left behind
        return futures


class TestShardCountIndependence:
    def run_fleet(self, market, make_request, shards):
        frontend = FleetFrontend(
            market,
            FleetConfig(
                shards=shards,
                seed=7,
                deadline_s=None,
                retry=RetryPolicy(max_attempts=3, base_backoff_s=0.0),
            ),
            injector_factory=crashy_injector_factory(market),
        )
        results = frontend.run(requests_for(make_request, 24))
        return {
            key: (
                result.status,
                result.attempts,
                None
                if result.sla is None
                else tuple(result.sla.providers),
            )
            for key, result in by_key(results).items()
        }

    def test_agreements_identical_for_1_and_4_shards(
        self, market, make_request
    ):
        single = self.run_fleet(market, make_request, 1)
        quad = self.run_fleet(market, make_request, 4)
        assert len(single) == 24
        assert single == quad
        # the faults actually fired: some session needed a retry
        assert any(attempts > 1 for _, attempts, _ in single.values())


class TestOperationRouting:
    def test_partition_covers_every_service_once(self, market):
        frontend = FleetFrontend(
            market,
            FleetConfig(
                shards=3, route_by="operation", partition_registry=True
            ),
        )
        parts = partition_registry(market, frontend.ring)
        all_ids = {d.service_id for d in market.find()}
        seen = [
            d.service_id
            for part in parts.values()
            for d in part.find()
        ]
        assert sorted(seen) == sorted(all_ids)
        # an operation's services all land on one shard
        for part in parts.values():
            for description in part.find():
                owner = frontend.ring.assign(
                    description.interface.operation
                )
                assert parts[owner].find(
                    operation=description.interface.operation
                )

    def test_operation_routed_fleet_serves_from_partitions(
        self, market, make_request
    ):
        frontend = FleetFrontend(
            market,
            FleetConfig(
                shards=3,
                seed=1,
                deadline_s=None,
                route_by="operation",
                partition_registry=True,
            ),
        )
        results = frontend.run(requests_for(make_request, 12))
        assert all(r.status is SessionStatus.COMPLETED for r in results)
        # every session of one operation lands on the owning shard
        for result in results:
            operation = result.request.operation
            assert frontend.ring.assign(operation) == result.shard


class TestCaching:
    @staticmethod
    def serve_one_at_a_time(frontend, requests):
        """Serve each session to completion before submitting the next,
        so no two shards ever race on the same fingerprint."""

        async def scenario():
            await frontend.start()
            try:
                return [await frontend.submit(r) for r in requests]
            finally:
                await frontend.stop()

        return asyncio.run(scenario())

    def test_first_solve_warms_every_shard(self, market, make_request):
        frontend = FleetFrontend(
            market, FleetConfig(shards=4, seed=5, deadline_s=None)
        )
        # one operation only: every shard solves the same candidates
        results = self.serve_one_at_a_time(
            frontend,
            [
                make_request(client=f"c{i}", operation="render")
                for i in range(16)
            ],
        )
        assert {r.shard for r in results} == set(frontend.shards)
        for shard in frontend.shards.values():
            assert shard.broker.solve_cache is frontend.solve_cache
        stats = frontend.cache_stats()["solve"]
        # one miss per distinct candidate problem fleet-wide; each of the
        # 16 sessions looks every candidate up, and all later lookups,
        # on whichever shard, hit
        distinct = len(market.find(operation="render"))
        assert stats["misses"] == distinct
        assert stats["size"] == distinct
        assert stats["hits"] == 16 * distinct - distinct

    def test_joined_shard_answers_repeats_from_the_shared_cache(
        self, market, make_request
    ):
        frontend = FleetFrontend(
            market, FleetConfig(shards=2, seed=5, deadline_s=None)
        )
        request = make_request(client="c", operation="render")

        async def scenario():
            await frontend.start()
            try:
                await frontend.submit(request)  # warm-up
                misses = frontend.cache_stats()["solve"]["misses"]
                joined = await frontend.add_shard()
                result = await frontend.submit(request)
                while result.shard != joined:
                    result = await frontend.submit(request)
                return result, misses
            finally:
                await frontend.stop()

        result, misses = asyncio.run(scenario())
        assert result.status is SessionStatus.COMPLETED
        # no broker, the joined one included, missed after warm-up
        caches = {
            id(shard.broker.solve_cache): shard.broker.solve_cache
            for shard in frontend.shards.values()
        }
        assert sum(c.stats()["misses"] for c in caches.values()) == misses

    def test_solve_cache_can_be_disabled(self, market, make_request):
        frontend = FleetFrontend(
            market,
            FleetConfig(
                shards=2, seed=5, deadline_s=None, solve_cache=False
            ),
        )
        results = frontend.run(requests_for(make_request, 6))
        assert all(r.status is SessionStatus.COMPLETED for r in results)
        assert frontend.cache_stats()["solve"] is None
        for shard in frontend.shards.values():
            assert shard.broker.solve_cache is None


class TestTracing:
    def test_each_session_span_is_its_own_root(self, market, make_request):
        # Shard workers and pumps must not inherit a span from shard
        # start-up, or every session would nest under one finished span.
        with telemetry_session() as session:
            frontend = FleetFrontend(
                market, FleetConfig(shards=2, seed=6, deadline_s=None)
            )
            frontend.run(requests_for(make_request, 12))
            roots = session.tracer.finished
            assert [root.name for root in roots].count(
                "runtime.session"
            ) == 12
            assert all(
                child.name != "runtime.session"
                for root in roots
                for child in root.iter_tree()
                if child is not root
            )
