"""Shared fleet fixtures: a small multi-operation market."""

from __future__ import annotations

import pytest

from repro.constraints import (
    Polynomial,
    integer_variable,
    polynomial_constraint,
)
from repro.semirings import WeightedSemiring
from repro.soa import (
    ClientRequest,
    QoSDocument,
    QoSPolicy,
    ServiceDescription,
    ServiceInterface,
    ServiceRegistry,
)

OPERATIONS = ("render", "store", "index")


def by_key(results):
    """Session results keyed by session key: the shard-count-independent
    view (completion order is racy; this mapping is not)."""
    return {result.session_key: result for result in results}


def publish_provider(registry, operation, provider, base, slope=1.0):
    registry.publish(
        ServiceDescription(
            service_id=f"{operation}-{provider}",
            name=operation,
            provider=provider,
            interface=ServiceInterface(operation=operation),
            qos=QoSDocument(
                service_name=operation,
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
    """Three operations × three providers, cheapest provider distinct."""
    registry = ServiceRegistry()
    for operation in OPERATIONS:
        publish_provider(registry, operation, "P1", base=5.0)
        publish_provider(registry, operation, "P2", base=3.0)
        publish_provider(registry, operation, "P3", base=8.0)
    return registry


@pytest.fixture
def make_request():
    weighted = WeightedSemiring()
    x = integer_variable("x", 10)
    requirement = polynomial_constraint(
        weighted, [x], Polynomial.linear({"x": 2})
    )

    def factory(client="C", operation="render"):
        return ClientRequest(
            client=client,
            operation=operation,
            attribute="cost",
            requirements=[requirement],
        )

    return factory
