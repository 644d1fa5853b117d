"""The broker-orchestrator: selection, acceptance, composition, SLAs."""

import pytest

from repro.constraints import Polynomial, integer_variable, polynomial_constraint
from repro.sccp import interval
from repro.semirings import WeightedSemiring
from repro.soa import (
    Broker,
    BrokerError,
    ClientRequest,
    MessageBus,
    QoSDocument,
    QoSPolicy,
    ServiceDescription,
    ServiceInterface,
    ServiceRegistry,
)


def publish_cost_provider(registry, provider, base, slope=1.0, operation="filter"):
    document = QoSDocument(
        service_name=operation,
        provider=provider,
        policies=[
            QoSPolicy(
                attribute="cost",
                variables={"x": range(0, 11)},
                polynomial=Polynomial.linear({"x": slope}, base),
            )
        ],
    )
    registry.publish(
        ServiceDescription(
            service_id=f"{operation}-{provider}",
            name=operation,
            provider=provider,
            interface=ServiceInterface(operation=operation),
            qos=document,
        )
    )


def publish_reliability_provider(registry, provider, level, operation):
    document = QoSDocument(
        service_name=operation,
        provider=provider,
        policies=[QoSPolicy(attribute="reliability", constant=level)],
    )
    registry.publish(
        ServiceDescription(
            service_id=f"{operation}-{provider}",
            name=operation,
            provider=provider,
            interface=ServiceInterface(operation=operation),
            qos=document,
        )
    )


@pytest.fixture
def cost_market():
    registry = ServiceRegistry()
    publish_cost_provider(registry, "P1", base=5.0)
    publish_cost_provider(registry, "P2", base=3.0)
    publish_cost_provider(registry, "P3", base=8.0)
    return registry


@pytest.fixture
def client_request(weighted):
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


class TestSingleServiceNegotiation:
    def test_best_provider_selected(self, cost_market, client_request):
        broker = Broker(cost_market)
        result = broker.negotiate(client_request)
        assert result.success
        assert result.sla.providers == ("P2",)
        assert result.sla.agreed_level == 3.0
        assert result.sla.resource_assignment == {"x": 0}

    def test_all_candidates_evaluated(self, cost_market, client_request):
        broker = Broker(cost_market)
        result = broker.negotiate(client_request)
        assert sorted(e.provider for e in result.evaluations) == [
            "P1",
            "P2",
            "P3",
        ]
        by_provider = {e.provider: e.blevel for e in result.evaluations}
        assert by_provider == {"P1": 5.0, "P2": 3.0, "P3": 8.0}

    def test_acceptance_interval_filters(self, cost_market, weighted):
        x = integer_variable("x", 10)
        requirement = polynomial_constraint(
            weighted, [x], Polynomial.linear({"x": 2})
        )
        # accept only stores with consistency in [0, 2] hours: none qualify
        request = ClientRequest(
            client="C",
            operation="filter",
            attribute="cost",
            requirements=[requirement],
            acceptance=interval(weighted, lower=2.0, upper=0.0),
        )
        result = Broker(cost_market).negotiate(request)
        assert not result.success
        assert result.sla is None
        assert "acceptance" in result.detail

    def test_no_provider_for_operation(self, cost_market, client_request):
        request = ClientRequest(
            client="C", operation="teleport", attribute="cost"
        )
        result = Broker(cost_market).negotiate(request)
        assert not result.success
        assert result.evaluations == []

    def test_no_provider_with_attribute(self, cost_market):
        request = ClientRequest(
            client="C", operation="filter", attribute="reliability"
        )
        result = Broker(cost_market).negotiate(request)
        assert not result.success

    def test_sla_recorded_in_repository(self, cost_market, client_request):
        broker = Broker(cost_market)
        result = broker.negotiate(client_request)
        assert len(broker.slas) == 1
        assert broker.slas.for_client("C") == [result.sla]
        assert broker.slas.for_provider("P2") == [result.sla]

    def test_nmsccp_confirmation(self, cost_market, client_request):
        broker = Broker(cost_market)
        result = broker.negotiate(
            client_request, verify_scheduler_independence=True
        )
        assert result.outcome is not None
        assert result.outcome.success
        assert result.outcome.scheduler_independent

    def test_bus_journal_records_protocol(self, cost_market, client_request):
        bus = MessageBus()
        broker = Broker(cost_market, bus=bus)
        broker.negotiate(client_request)
        kinds = bus.journal_kinds()
        assert "negotiate-request" in kinds
        assert "registry-query" in kinds
        assert "sla-created" in kinds

    def test_chosen_points_at_winning_evaluation(
        self, cost_market, client_request
    ):
        result = Broker(cost_market).negotiate(client_request)
        assert result.chosen is not None
        assert result.chosen.provider == "P2"

    def test_requirementless_request_uses_attribute_semiring(
        self, cost_market
    ):
        request = ClientRequest(
            client="C", operation="filter", attribute="cost"
        )
        assert isinstance(request.resolved_semiring(), WeightedSemiring)


class TestCompositionNegotiation:
    @pytest.fixture
    def pipeline_market(self):
        registry = ServiceRegistry()
        publish_reliability_provider(registry, "A", 0.99, "red")
        publish_reliability_provider(registry, "B", 0.95, "red")
        publish_reliability_provider(registry, "C", 0.90, "bw")
        publish_reliability_provider(registry, "D", 0.98, "bw")
        return registry

    def test_best_pipeline_selected(self, pipeline_market):
        broker = Broker(pipeline_market)
        sla, plan, diagnostics = broker.negotiate_composition(
            "client", ["red", "bw"], "reliability"
        )
        assert sla.service_ids == ("red-A", "bw-D")
        assert sla.agreed_level == pytest.approx(0.99 * 0.98)
        assert plan.services() == ["red-A", "bw-D"]

    def test_minimum_level_rejects(self, pipeline_market):
        broker = Broker(pipeline_market)
        sla, plan, diagnostics = broker.negotiate_composition(
            "client", ["red", "bw"], "reliability", minimum_level=0.999
        )
        assert sla is None and plan is None
        assert diagnostics["blevel"] < 0.999

    def test_missing_slot_provider(self, pipeline_market):
        broker = Broker(pipeline_market)
        with pytest.raises(BrokerError, match="no provider for slot"):
            broker.negotiate_composition(
                "client", ["red", "teleport"], "reliability"
            )

    def test_unknown_pattern(self, pipeline_market):
        broker = Broker(pipeline_market)
        with pytest.raises(BrokerError, match="unknown composition"):
            broker.negotiate_composition(
                "client", ["red"], "reliability", pattern="mesh"
            )

    def test_diagnostics_reports_offer_levels(self, pipeline_market):
        broker = Broker(pipeline_market)
        _, _, diagnostics = broker.negotiate_composition(
            "client", ["red", "bw"], "reliability"
        )
        assert diagnostics["offer_levels"]["red-A"] == pytest.approx(0.99)
        # one selection constraint over 2 × 2 provider pairs, answered
        # densely by auto: every pair evaluated
        assert diagnostics["evaluations"] == 4

    def test_choose_pattern_worst_case(self, pipeline_market):
        broker = Broker(pipeline_market)
        sla, plan, _ = broker.negotiate_composition(
            "client", ["red", "bw"], "reliability", pattern="choose"
        )
        # worst-case of the two chosen branches is maximized:
        # best pairing is (A: 0.99, D: 0.98) → min = 0.98
        assert sla.agreed_level == pytest.approx(0.98)
