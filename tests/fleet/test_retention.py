"""Serving keeps no per-session history.

A session's :class:`SessionResult` goes to the caller and nowhere else,
so once the caller drops it nothing keeps it alive; the broker's SLA
repository holds only the current agreement per client and attribute.
"""

import gc
import weakref

from repro.fleet import FleetConfig, FleetFrontend
from repro.runtime import RuntimeConfig, RuntimeServer, SessionStatus
from repro.soa import Broker

from .conftest import OPERATIONS

SESSIONS = 240
CLIENTS = 4


def requests_for(make_request):
    return [
        make_request(
            client=f"c{i % CLIENTS}",
            operation=OPERATIONS[i % len(OPERATIONS)],
        )
        for i in range(SESSIONS)
    ]


def drop_and_collect(results):
    """Weak references to ``results`` after the caller lets go."""
    refs = [weakref.ref(result) for result in results]
    results.clear()
    gc.collect()
    return [ref for ref in refs if ref() is not None]


def pairs(results):
    return {(r.request.client, r.request.attribute) for r in results}


class TestRetention:
    def test_runtime_server_keeps_no_result(self, market, make_request):
        broker = Broker(market)
        server = RuntimeServer(
            broker, RuntimeConfig(workers=2, seed=1, deadline_s=None)
        )
        results = server.run(requests_for(make_request))
        assert len(results) == SESSIONS
        assert all(r.status is SessionStatus.COMPLETED for r in results)
        expected = pairs(results)
        assert len(broker.slas) == len(expected) == CLIENTS
        assert drop_and_collect(results) == []

    def test_fleet_keeps_no_result(self, market, make_request):
        frontend = FleetFrontend(
            market, FleetConfig(shards=2, seed=1, deadline_s=None)
        )
        results = frontend.run(requests_for(make_request))
        assert len(results) == SESSIONS
        assert all(r.status is SessionStatus.COMPLETED for r in results)
        for shard_id, shard in frontend.shards.items():
            expected = pairs(r for r in results if r.shard == shard_id)
            assert expected
            assert len(shard.broker.slas) == len(expected)
        assert drop_and_collect(results) == []
