"""Randomized algebraic laws of the store, on both backends.

These are the paper's store identities, checked per backend (the
equivalence suite separately pins the two backends to each other):

* tell is ⊑-decreasing: ``σ ⊗ c ⊑ σ``;
* R7 premise: retract demands ``σ ⊑ c`` and raises otherwise;
* retract is a relaxation: ``σ ⊑ σ ÷ c``;
* tell/retract round-trips restore the store on cancellative ×
  (Weighted), and never produce something stricter than the base;
* update is transactional: ``update(X, c) = (σ ⇓_{V∖X}) ⊗ c`` in one
  step, with X gone from the support.
"""

from __future__ import annotations

import itertools
import random

import pytest

from repro.constraints import (
    StoreError,
    TableConstraint,
    constraint_leq,
    constraints_equal,
    empty_store,
    variable,
)
from repro.constraints.operations import combine
from repro.semirings import (
    BooleanSemiring,
    FuzzySemiring,
    ProbabilisticSemiring,
    SetSemiring,
    WeightedSemiring,
)

BACKENDS = ["monolith", "factored"]

LAW_SEMIRINGS = [
    pytest.param(WeightedSemiring(), id="Weighted"),
    pytest.param(FuzzySemiring(), id="Fuzzy"),
    pytest.param(ProbabilisticSemiring(), id="Probabilistic"),
    pytest.param(BooleanSemiring(), id="Boolean"),
    pytest.param(SetSemiring({"read", "write"}), id="SetBased"),
]


@pytest.fixture(params=BACKENDS)
def backend(request):
    return request.param


def _vars():
    return [variable("x", ["a", "b"]), variable("y", [0, 1, 2])]


def _sample(rng, semiring):
    elements = semiring.sample_elements()
    return elements[rng.randrange(len(elements))]


def _random_constraint(rng, semiring, variables):
    scope = rng.sample(variables, k=rng.randint(1, len(variables)))
    return TableConstraint(
        semiring,
        scope,
        {
            assignment: _sample(rng, semiring)
            for assignment in itertools.product(*(v.domain for v in scope))
        },
    )


@pytest.mark.parametrize("semiring", LAW_SEMIRINGS)
def test_tell_is_decreasing(semiring, backend):
    rng = random.Random(3)
    variables = _vars()
    store = empty_store(semiring, backend=backend)
    for _ in range(5):
        constraint = _random_constraint(rng, semiring, variables)
        told = store.tell(constraint)
        assert constraint_leq(told.constraint, store.constraint)
        assert told.entails(constraint)
        store = told


@pytest.mark.parametrize("semiring", LAW_SEMIRINGS)
def test_retract_premise_and_relaxation(semiring, backend):
    rng = random.Random(17)
    variables = _vars()
    for _ in range(6):
        store = empty_store(semiring, backend=backend)
        told = [_random_constraint(rng, semiring, variables) for _ in range(3)]
        for constraint in told:
            store = store.tell(constraint)
        victim = rng.choice(told)
        relaxed = store.retract(victim)
        # σ ⊑ σ ÷ c: retraction only ever relaxes.
        assert constraint_leq(store.constraint, relaxed.constraint)


@pytest.mark.parametrize("semiring", LAW_SEMIRINGS)
def test_retract_unentailed_raises_r7(semiring, backend):
    variables = _vars()
    x = variables[0]
    best = TableConstraint(
        semiring, [x], {(d,): semiring.one for d in x.domain}
    )
    worst = TableConstraint(
        semiring, [x], {(d,): semiring.zero for d in x.domain}
    )
    store = empty_store(semiring, backend=backend).tell(best)
    with pytest.raises(StoreError, match="R7"):
        store.retract(worst)


def test_weighted_roundtrip_restores_store(backend):
    semiring = WeightedSemiring()
    rng = random.Random(29)
    variables = _vars()
    store = empty_store(semiring, backend=backend)
    for _ in range(3):
        var = rng.choice(variables)
        store = store.tell(
            TableConstraint(
                semiring,
                [var],
                {(d,): float(rng.randint(0, 9)) for d in var.domain},
            )
        )
    x = variables[0]
    extra = TableConstraint(
        semiring, [x], {(d,): float(rng.randint(0, 9)) for d in x.domain}
    )
    roundtrip = store.tell(extra).retract(extra)
    assert constraints_equal(roundtrip.constraint, store.constraint)


@pytest.mark.parametrize("semiring", LAW_SEMIRINGS)
def test_update_is_transactional(semiring, backend):
    """``update(X, c)`` must equal the one-step ``(σ ⇓_{V∖X}) ⊗ c``."""
    rng = random.Random(41)
    variables = _vars()
    for _ in range(6):
        store = empty_store(semiring, backend=backend)
        for _ in range(3):
            store = store.tell(_random_constraint(rng, semiring, variables))
        target = rng.choice(variables)
        fresh = _random_constraint(rng, semiring, variables)
        updated = store.update([target.name], fresh)

        keep = [v for v in variables if v.name != target.name]
        expected = combine(
            [store.constraint.project([v.name for v in keep]), fresh],
            semiring=semiring,
        )
        assert constraints_equal(updated.constraint, expected)
        if target.name not in fresh.support:
            assert target.name not in updated.support


@pytest.mark.parametrize("semiring", LAW_SEMIRINGS)
def test_update_on_unknown_variable_just_tells(semiring, backend):
    rng = random.Random(53)
    variables = _vars()
    store = empty_store(semiring, backend=backend).tell(
        _random_constraint(rng, semiring, variables)
    )
    fresh = _random_constraint(rng, semiring, variables)
    updated = store.update(["nonexistent"], fresh)
    assert constraints_equal(
        updated.constraint, store.constraint.combine(fresh)
    )


class TestConstructionFastPath:
    """Seeding a store with an already-tabulated constraint must not
    re-run compaction (the redundant ``to_table`` the refactor removed)."""

    def test_monolith_keeps_table_identity(self, weighted):
        x = variable("x", ["a", "b"])
        table = TableConstraint(weighted, [x], {("a",): 1.0, ("b",): 2.0})
        store = empty_store(weighted, backend="monolith").tell(table)
        assert store.constraint is not None
        from repro.constraints.store import MonolithStore

        seeded = MonolithStore(weighted, table)
        assert seeded.constraint is table

    def test_factored_keeps_table_identity(self, weighted):
        x = variable("x", ["a", "b"])
        table = TableConstraint(weighted, [x], {("a",): 1.0, ("b",): 2.0})
        from repro.constraints.store import FactoredStore

        seeded = FactoredStore(weighted, table)
        assert seeded.factors == (table,)
        assert seeded.factors[0] is table


class TestBackendSelection:
    def test_auto_resolves_to_factored(self, weighted):
        from repro.constraints.store import FactoredStore

        assert isinstance(empty_store(weighted), FactoredStore)
        assert isinstance(empty_store(weighted, backend="auto"), FactoredStore)

    def test_explicit_backends(self, weighted):
        from repro.constraints.store import FactoredStore, MonolithStore

        assert isinstance(
            empty_store(weighted, backend="monolith"), MonolithStore
        )
        assert isinstance(
            empty_store(weighted, backend="factored"), FactoredStore
        )

    def test_unknown_backend_rejected(self, weighted):
        with pytest.raises(StoreError):
            empty_store(weighted, backend="quantum")

    def test_default_backend_is_factored(self, weighted):
        from repro.constraints.store import FactoredStore

        assert isinstance(empty_store(weighted), FactoredStore)

    def test_factored_tell_shares_tail(self, weighted):
        x = variable("x", ["a", "b"])
        base = empty_store(weighted, backend="factored")
        c1 = TableConstraint(weighted, [x], {("a",): 1.0, ("b",): 2.0})
        c2 = TableConstraint(weighted, [x], {("a",): 0.0, ("b",): 3.0})
        s1 = base.tell(c1)
        s2 = s1.tell(c2)
        # Persistent: telling into s2 never disturbed s1.
        assert s1.factors == (c1,)
        assert s2.factors == (c1, c2)
        assert s2._chain[1] is s1._chain
