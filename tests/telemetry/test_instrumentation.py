"""End-to-end instrumentation: one broker request lights up the stack.

The acceptance scenario of the telemetry subsystem: negotiating a single
request inside a session must yield the five Fig. 6 lifecycle spans, the
solver's node/prune counters, and — when the winner is re-run as nmsccp
agents — the full per-rule R1–R10 transition family.
"""

import json

import pytest

from repro.constraints import (
    ConstantConstraint,
    Polynomial,
    clear_store_caches,
    integer_variable,
    polynomial_constraint,
)
from repro.sccp import interval
from repro.sccp.transitions import RULES
from repro.semirings import ProbabilisticSemiring, WeightedSemiring
from repro.serialization import qos_document_to_dict
from repro.soa import (
    Broker,
    ClientRequest,
    QoSDocument,
    QoSPolicy,
    ServiceDescription,
    ServiceInterface,
    ServiceRegistry,
    SLA,
    SLAMonitor,
)
from repro.soa.execution import ExecutionReport
from repro.soa.query import QueryEngine, ServiceQuery
from repro.telemetry import get_registry, telemetry_session
from repro.telemetry.metrics import NULL_REGISTRY

LIFECYCLE_SPANS = [
    "broker.step1-request",
    "broker.step2-registry-search",
    "broker.step3-negotiation",
    "broker.step4-compare",
    "broker.step5-sla",
]


def publish_cost_provider(registry, provider, base, slope=1.0):
    registry.publish(
        ServiceDescription(
            service_id=f"filter-{provider}",
            name="filter",
            provider=provider,
            interface=ServiceInterface(operation="filter"),
            qos=QoSDocument(
                service_name="filter",
                provider=provider,
                policies=[
                    QoSPolicy(
                        attribute="cost",
                        variables={"x": range(0, 11)},
                        polynomial=Polynomial.linear({"x": slope}, base),
                    )
                ],
            ),
        )
    )


@pytest.fixture
def market():
    registry = ServiceRegistry()
    publish_cost_provider(registry, "P1", base=5.0)
    publish_cost_provider(registry, "P2", base=3.0)
    publish_cost_provider(registry, "P3", base=8.0)
    return registry


@pytest.fixture
def request_for_filter():
    weighted = WeightedSemiring()
    x = integer_variable("x", 10)
    requirement = polynomial_constraint(
        weighted, [x], Polynomial.linear({"x": 2})
    )
    return ClientRequest(
        client="C",
        operation="filter",
        attribute="cost",
        requirements=[requirement],
        acceptance=interval(weighted, lower=20.0, upper=0.0),
    )


@pytest.fixture
def cold_store_caches():
    """Empty the process-wide store caches, so a test counting solves
    sees the acceptance-store solves whatever ran before it."""
    clear_store_caches()
    yield
    clear_store_caches()


def counter_total(registry, name):
    metric = registry.get(name)
    if metric is None:
        return 0
    return sum(s["value"] for s in metric.samples())


class TestBrokerRequestTelemetry:
    def test_one_request_emits_five_lifecycle_spans(
        self, market, request_for_filter
    ):
        broker = Broker(market)
        with telemetry_session() as session:
            result = broker.negotiate(request_for_filter)
        assert result.success

        (root,) = session.tracer.finished
        assert root.name == "broker.request"
        assert root.attributes["client"] == "C"
        assert [c.name for c in root.children] == LIFECYCLE_SPANS

        # step 3 nests one candidate-solve (and one solver.solve) per
        # provider in the market
        step3 = root.children[2]
        solves = [
            c for c in step3.children if c.name == "broker.candidate-solve"
        ]
        assert len(solves) == 3
        assert all(
            c.name == "solver.solve"
            for solve in solves
            for c in solve.children
        )
        step5 = root.children[4]
        assert step5.attributes["sla_id"] == result.sla.sla_id

    @pytest.mark.usefixtures("cold_store_caches")
    def test_solver_and_broker_counters_are_nonzero(
        self, market, request_for_filter
    ):
        broker = Broker(market)
        with telemetry_session() as session:
            broker.negotiate(request_for_filter)
        registry = session.registry

        # cold store caches: 3 candidate solves plus 3 acceptance-store
        # consistency solves, one per candidate
        assert counter_total(registry, "solver_solves_total") == 6
        # requirement ⊗ offer nest (both over x), so auto answers each
        # candidate on one dense array: all 11 leaves of x ∈ 0..10
        # evaluated, no search node expanded
        assert counter_total(registry, "solver_nodes_expanded_total") == 0
        assert counter_total(registry, "solver_leaves_evaluated_total") == 33
        # prunes appear as a sample even when the search never pruned
        assert registry.get("solver_prunes_total") is not None
        assert registry.get("solver_solve_seconds").labels(
            "elimination"
        ).count == 6

        requests = registry.get("broker_requests_total")
        assert requests.labels("success").value == 1
        assert (
            counter_total(registry, "broker_candidates_evaluated_total") == 3
        )
        assert registry.get("broker_candidate_solve_seconds").count == 3
        assert [e["kind"] for e in session.events] == ["broker.sla-created"]

    def test_failed_negotiation_counts_its_outcome(self, market):
        broker = Broker(market)
        request = ClientRequest(
            client="C", operation="no-such-op", attribute="cost"
        )
        with telemetry_session() as session:
            result = broker.negotiate(request)
        assert not result.success
        requests = session.registry.get("broker_requests_total")
        assert requests.labels("no-provider").value == 1
        # the request root span still closes, step 2 found nothing
        (root,) = session.tracer.finished
        assert root.name == "broker.request"

    def test_independence_check_exercises_all_nmsccp_rules(
        self, market, request_for_filter
    ):
        broker = Broker(market)
        with telemetry_session() as session:
            result = broker.negotiate(
                request_for_filter, verify_scheduler_independence=True
            )
        assert result.success
        registry = session.registry

        transitions = registry.get("sccp_transitions_total")
        assert transitions is not None
        samples = {
            s["labels"]["rule"]: s["value"] for s in transitions.samples()
        }
        # the family is preseeded: all ten rules appear, fired or not
        assert set(samples) == set(RULES)
        assert samples["R1-Tell"] > 0
        assert counter_total(registry, "sccp_runs_total") > 0
        names = session.tracer.span_names()
        assert "sccp.run" in names
        assert "sccp.explore" in names


class TestTelemetryDisabled:
    def test_negotiation_outside_a_session_leaves_no_trace(
        self, market, request_for_filter
    ):
        assert get_registry() is NULL_REGISTRY
        broker = Broker(market)
        result = broker.negotiate(
            request_for_filter, verify_scheduler_independence=True
        )
        assert result.success
        assert get_registry() is NULL_REGISTRY
        assert get_registry().snapshot() == {"metrics": []}


class TestMonitorTelemetry:
    def _sla(self, level=0.95):
        semiring = ProbabilisticSemiring()
        return SLA(
            client="C",
            providers=("P",),
            attribute="availability",
            semiring=semiring,
            agreed_constraint=ConstantConstraint(semiring, level),
            agreed_level=level,
        )

    @staticmethod
    def _reports(flags):
        return [
            ExecutionReport(tick=i, success=ok, latency_ms=5.0)
            for i, ok in enumerate(flags)
        ]

    def test_warmup_reports_are_counted_not_dropped(self):
        monitor = SLAMonitor(self._sla(), window=10, min_samples=5)
        with telemetry_session() as session:
            monitor.observe_many(self._reports([True] * 3))
        assert monitor.early_reports == 3
        reports = session.registry.get("sla_reports_total")
        assert reports.labels("availability", "warmup").value == 3

    def test_violations_hit_counter_and_event_log(self):
        with telemetry_session() as session:
            monitor = SLAMonitor(
                self._sla(0.95),
                window=10,
                min_samples=5,
                registry=session.registry,
            )
            violations = monitor.observe_many(
                self._reports([True, True, False, False, False, False])
            )
        assert violations
        counter = session.registry.get("sla_violations_total")
        assert counter.labels("availability").value == len(violations)
        events = session.events.of_kind("sla.violation")
        assert len(events) == len(violations)
        assert events[0]["attribute"] == "availability"

    def test_explicit_registry_wins_over_the_global_session(self):
        from repro.telemetry import MetricsRegistry

        private = MetricsRegistry()
        monitor = SLAMonitor(
            self._sla(), window=10, min_samples=1, registry=private
        )
        monitor.observe(ExecutionReport(tick=0, success=True, latency_ms=1.0))
        assert private.get("sla_reports_total") is not None


class TestQueryCacheTelemetry:
    def test_offer_level_cache_hits_show_up(self, market):
        engine = QueryEngine(market)
        query = ServiceQuery(attribute="cost", operation="filter")
        with telemetry_session() as session:
            engine.query(query)  # three misses (one per provider)
            engine.query(query)  # three hits
        hits = session.registry.get("cache_hits_total")
        misses = session.registry.get("cache_misses_total")
        assert misses.labels("query-offer-level").value == 3
        assert hits.labels("query-offer-level").value == 3
        assert engine._level_cache.stats()["size"] == 3


class TestCliTelemetry:
    def _market_payload(self):
        registry = ServiceRegistry()
        publish_cost_provider(registry, "P1", base=5.0)
        publish_cost_provider(registry, "P2", base=3.0)
        return {
            "kind": "market",
            "services": [
                {
                    "service_id": d.service_id,
                    "operation": d.interface.operation,
                    "qos": qos_document_to_dict(d.qos),
                }
                for d in registry.find(operation="filter")
            ],
            "request": {
                "client": "cli-test",
                "operation": "filter",
                "attribute": "cost",
                "acceptance": {"lower": 20.0, "upper": 0.0},
            },
        }

    def test_negotiate_with_telemetry_embeds_snapshot(
        self, tmp_path, capsys
    ):
        from repro.cli import main

        market_file = tmp_path / "market.json"
        market_file.write_text(json.dumps(self._market_payload()))
        trace_file = tmp_path / "trace.jsonl"
        prom_file = tmp_path / "metrics.prom"

        code = main(
            [
                "negotiate",
                str(market_file),
                "--verify-independence",
                "--telemetry",
                "--trace-out",
                str(trace_file),
                "--prometheus-out",
                str(prom_file),
            ]
        )
        assert code == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["success"] is True

        telemetry = payload["telemetry"]
        names = {m["name"] for m in telemetry["metrics"]}
        assert "solver_nodes_expanded_total" in names
        assert "sccp_transitions_total" in names
        span_names = [s["name"] for s in telemetry["spans"]]
        for step in LIFECYCLE_SPANS:
            assert step in span_names

        prom = prom_file.read_text()
        assert "broker_requests_total" in prom
        records = [
            json.loads(line)
            for line in trace_file.read_text().splitlines()
        ]
        assert any(r["record"] == "span" for r in records)

    def test_cli_without_flags_stays_null(self, tmp_path, capsys):
        from repro.cli import main

        market_file = tmp_path / "market.json"
        market_file.write_text(json.dumps(self._market_payload()))
        assert main(["negotiate", str(market_file)]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert "telemetry" not in payload
        assert get_registry() is NULL_REGISTRY
