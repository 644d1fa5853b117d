"""The fingerprint-keyed solve cache and its broker integration."""

import pytest

from repro.constraints import TableConstraint, variable
from repro.semirings import FuzzySemiring, WeightedSemiring
from repro.soa.broker import Broker, ClientRequest
from repro.soa.qos import QoSDocument, QoSPolicy
from repro.soa.registry import ServiceRegistry
from repro.soa.service import ServiceDescription, ServiceInterface
from repro.solver import (
    SCSP,
    SolveCache,
    problem_fingerprint,
    solve,
)


def make_problem(weight=3.0, con=None, semiring=None):
    semiring = semiring or WeightedSemiring()
    x = variable("x", [0, 1])
    y = variable("y", [0, 1])
    c1 = TableConstraint(
        semiring, [x, y], {(0, 0): weight, (1, 1): 1.0}, default=5.0
    )
    c2 = TableConstraint(semiring, [y], {(0,): 2.0, (1,): 0.0})
    return SCSP([c1, c2], con=con)


class TestFingerprint:
    def test_stable_across_instances(self):
        a = problem_fingerprint(make_problem(), "branch-bound")
        b = problem_fingerprint(make_problem(), "branch-bound")
        assert a == b

    def test_constraint_order_irrelevant(self):
        semiring = WeightedSemiring()
        x = variable("x", [0, 1])
        c1 = TableConstraint(semiring, [x], {(0,): 1.0, (1,): 2.0})
        c2 = TableConstraint(semiring, [x], {(0,): 3.0, (1,): 4.0})
        assert problem_fingerprint(
            SCSP([c1, c2]), "elimination"
        ) == problem_fingerprint(SCSP([c2, c1]), "elimination")

    def test_table_change_changes_key(self):
        assert problem_fingerprint(
            make_problem(weight=3.0), "branch-bound"
        ) != problem_fingerprint(make_problem(weight=4.0), "branch-bound")

    def test_con_change_changes_key(self):
        assert problem_fingerprint(
            make_problem(con=["x"]), "branch-bound"
        ) != problem_fingerprint(make_problem(con=["x", "y"]), "branch-bound")

    def test_method_backend_options_change_key(self):
        problem = make_problem()
        base = problem_fingerprint(problem, "branch-bound", "auto", {})
        assert base != problem_fingerprint(problem, "elimination", "auto", {})
        assert base != problem_fingerprint(problem, "branch-bound", "dict", {})
        assert base != problem_fingerprint(
            problem, "branch-bound", "auto", {"lookahead": False}
        )

    def test_semiring_changes_key(self):
        x = variable("x", [0, 1])
        weighted = TableConstraint(
            WeightedSemiring(), [x], {(0,): 0.5, (1,): 1.0}
        )
        fuzzy = TableConstraint(FuzzySemiring(), [x], {(0,): 0.5, (1,): 1.0})
        assert problem_fingerprint(
            SCSP([weighted]), "branch-bound"
        ) != problem_fingerprint(SCSP([fuzzy]), "branch-bound")


class TestSolveCache:
    def test_hit_returns_equal_result(self):
        cache = SolveCache()
        first = solve(make_problem(), cache=cache)
        second = solve(make_problem(), cache=cache)
        assert second.blevel == first.blevel
        assert second.frontier == first.frontier
        assert second.optima == first.optima
        stats = cache.stats()
        assert stats["hits"] == 1
        assert stats["misses"] == 1
        assert len(cache) == 1

    def test_returned_results_are_isolated(self):
        cache = SolveCache()
        solve(make_problem(), cache=cache)
        warm = solve(make_problem(), cache=cache)
        warm.optima[0][0]["x"] = "corrupted"
        warm.frontier.append("junk")
        clean = solve(make_problem(), cache=cache)
        assert clean.optima[0][0]["x"] != "corrupted"
        assert "junk" not in clean.frontier

    def test_result_rebinds_to_callers_problem(self):
        cache = SolveCache()
        solve(make_problem(), cache=cache)
        mine = make_problem()
        assert solve(mine, cache=cache).problem is mine

    def test_lru_bound_evicts(self):
        cache = SolveCache(maxsize=2)
        for weight in (1.0, 2.0, 3.0):
            solve(make_problem(weight=weight), cache=cache)
        assert len(cache) == 2
        assert cache.stats()["evictions"] == 1

    def test_clear(self):
        cache = SolveCache()
        solve(make_problem(), cache=cache)
        cache.clear()
        assert len(cache) == 0

    def test_different_methods_do_not_collide(self):
        cache = SolveCache()
        bb = solve(make_problem(), method="branch-bound", cache=cache)
        elim = solve(make_problem(), method="elimination", cache=cache)
        assert cache.stats()["misses"] == 2
        assert bb.method == "branch-bound"
        assert elim.method == "elimination"


def _cost_registry():
    registry = ServiceRegistry()
    for provider, cost in (("P1", 5.0), ("P2", 3.0)):
        document = QoSDocument(
            service_name="compress",
            provider=provider,
            policies=(
                QoSPolicy(attribute="cost", variables={}, constant=cost),
            ),
        )
        registry.publish(
            ServiceDescription(
                service_id=f"svc-{provider}",
                name="compress",
                provider=provider,
                interface=ServiceInterface(operation="compress"),
                qos=document,
            )
        )
    return registry


class TestBrokerIntegration:
    def test_cache_on_by_default_and_warms_up(self):
        broker = Broker(_cost_registry())
        assert broker.solve_cache is not None
        request = ClientRequest(
            client="c", operation="compress", attribute="cost"
        )
        cold = broker.negotiate(request)
        misses = broker.solve_cache.stats()["misses"]
        assert misses > 0
        warm = broker.negotiate(request)
        stats = broker.solve_cache.stats()
        assert stats["hits"] > 0
        assert stats["misses"] == misses  # second run is all hits
        assert warm.success == cold.success
        assert warm.sla.providers == cold.sla.providers
        assert warm.sla.agreed_level == cold.sla.agreed_level

    def test_cache_can_be_disabled(self):
        broker = Broker(_cost_registry(), solve_cache=False)
        assert broker.solve_cache is None
        request = ClientRequest(
            client="c", operation="compress", attribute="cost"
        )
        assert broker.negotiate(request).success

    @pytest.mark.parametrize("backend", ["dict", "dense"])
    def test_agreement_identical_on_reference_kernels(
        self, monkeypatch, backend
    ):
        """The broker always solves on ``auto``; forcing the module-level
        ``solve`` it calls onto one kernel set must not change the SLA."""
        import repro.soa.broker as broker_module

        request = ClientRequest(
            client="c", operation="compress", attribute="cost"
        )
        auto = Broker(_cost_registry()).negotiate(request)
        backends = []

        def forced(problem, **options):
            backends.append(backend)
            return solve(problem, backend=backend, **options)

        monkeypatch.setattr(broker_module, "solve", forced)
        reference = Broker(_cost_registry()).negotiate(request)
        assert backends  # the broker solved through the patched entry
        assert reference.sla.providers == auto.sla.providers
        assert reference.sla.agreed_level == auto.sla.agreed_level
