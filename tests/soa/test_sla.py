"""SLA objects and the repository."""

import pytest

from repro.constraints import ConstantConstraint, empty_store
from repro.semirings import ProbabilisticSemiring, WeightedSemiring
from repro.soa import SLA, SLAError, SLARepository, SLAViolation


def make_sla(client="C", providers=("P",), level=0.9, attribute="reliability"):
    semiring = ProbabilisticSemiring()
    return SLA(
        client=client,
        providers=providers,
        attribute=attribute,
        semiring=semiring,
        agreed_constraint=ConstantConstraint(semiring, level),
        agreed_level=level,
    )


class TestAsStore:
    @pytest.mark.parametrize("backend", ["monolith", "factored"])
    def test_rebuilds_the_agreed_store(self, monkeypatch, backend):
        """The factored product store and the monolith oracle (swapped
        in for the ``empty_store`` the SLA builds from) agree."""
        import repro.soa.sla as sla_module

        monkeypatch.setattr(
            sla_module,
            "empty_store",
            lambda semiring: empty_store(semiring, backend=backend),
        )
        sla = make_sla(level=0.8)
        store = sla.as_store()
        assert store.backend == backend
        assert store.consistency() == 0.8
        assert store.entails(
            ConstantConstraint(sla.semiring, sla.agreed_level)
        )

    def test_default_backend(self):
        store = make_sla().as_store()
        assert store.consistency() == make_sla().agreed_level


class TestSLA:
    def test_ids_unique_and_increasing(self):
        a = make_sla()
        b = make_sla()
        assert b.sla_id > a.sla_id

    def test_needs_provider(self):
        with pytest.raises(SLAError, match="at least one provider"):
            make_sla(providers=())

    def test_level_must_be_semiring_element(self):
        semiring = ProbabilisticSemiring()
        with pytest.raises(SLAError):
            SLA(
                client="C",
                providers=("P",),
                attribute="reliability",
                semiring=semiring,
                agreed_constraint=ConstantConstraint(semiring, 0.9),
                agreed_level=7.0,
            )

    def test_satisfied_by_probabilistic(self):
        sla = make_sla(level=0.9)
        assert sla.satisfied_by(0.95)
        assert sla.satisfied_by(0.9)
        assert not sla.satisfied_by(0.85)

    def test_satisfied_by_weighted_inverts(self):
        semiring = WeightedSemiring()
        sla = SLA(
            client="C",
            providers=("P",),
            attribute="latency",
            semiring=semiring,
            agreed_constraint=ConstantConstraint(semiring, 20.0),
            agreed_level=20.0,
        )
        assert sla.satisfied_by(15.0)  # faster is better
        assert not sla.satisfied_by(25.0)

    def test_terminate(self):
        sla = make_sla()
        assert sla.active
        sla.terminate()
        assert not sla.active


class TestRepository:
    def test_queries(self):
        repo = SLARepository()
        a = make_sla(client="C1", providers=("P1",))
        b = make_sla(client="C2", providers=("P1", "P2"))
        repo.add(a)
        repo.add(b)
        assert len(repo) == 2
        assert repo.for_client("C1") == [a]
        assert repo.for_client("C3") == []
        assert list(repo) == [a, b]

    def test_renegotiation_replaces_the_current_sla(self):
        repo = SLARepository()
        first = make_sla(client="C", attribute="cost")
        other = make_sla(client="C", attribute="latency")
        second = make_sla(client="C", attribute="cost")
        for sla in (first, other, second):
            repo.add(sla)
        assert len(repo) == 2
        assert repo.for_client("C") == [second, other]
        assert list(repo) == [second, other]
        # superseded, not terminated
        assert first.active


class TestViolation:
    def test_str_mentions_parties(self):
        violation = SLAViolation(
            sla_id=7,
            attribute="availability",
            expected=0.99,
            observed=0.8,
            at_execution=42,
        )
        text = str(violation)
        assert "SLA#7" in text and "availability" in text and "42" in text
