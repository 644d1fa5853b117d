"""Vectorized polynomial materialization vs the per-leaf path (hypothesis).

``PolynomialConstraint.dense_values`` evaluates a polynomial over the
whole integer domain grid in one NumPy pass.  It must be bit-identical to
evaluating :meth:`Polynomial.evaluate` leaf by leaf (compared by ``repr``
of every value), raise the same :class:`SemiringError` on the same first
bad leaf, and leave the extensional digest unchanged.
"""

import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.constraints import (
    FunctionConstraint,
    Polynomial,
    TableConstraint,
    polynomial_constraint,
    to_table,
    variable,
)
from repro.constraints.digest import constraint_digest
from repro.semirings import (
    BooleanSemiring,
    FuzzySemiring,
    ProbabilisticSemiring,
    SemiringError,
    WeightedSemiring,
)

#: Every semiring the solver kernels lower to a scalar dtype.
LOWERED = (
    WeightedSemiring(),
    WeightedSemiring(integral=True),
    FuzzySemiring(),
    ProbabilisticSemiring(),
    BooleanSemiring(),
)

NAMES = ("x", "y", "z")

coefficients = st.one_of(
    st.integers(min_value=-20, max_value=40),
    st.floats(
        min_value=-20.0, max_value=40.0, allow_nan=False, allow_infinity=False
    ),
)


@st.composite
def scopes(draw):
    """1–3 variables over small integer ranges (negative values too)."""
    names = draw(
        st.lists(st.sampled_from(NAMES), min_size=1, max_size=3, unique=True)
    )
    scope = []
    for name in names:
        low = draw(st.integers(min_value=-4, max_value=6))
        size = draw(st.integers(min_value=1, max_value=4))
        scope.append(variable(name, range(low, low + size)))
    return scope


@st.composite
def polynomials(draw, names):
    """Sums of monomials over ``names`` with powers 0–3."""
    terms = {}
    for _ in range(draw(st.integers(min_value=1, max_value=4))):
        monomial = tuple(
            (name, draw(st.integers(min_value=0, max_value=3)))
            for name in names
        )
        terms[monomial] = draw(coefficients)
    return Polynomial(terms)


def per_leaf(semiring, scope, polynomial):
    """The reference: the same polynomial as a plain FunctionConstraint."""
    names = [var.name for var in scope]
    return FunctionConstraint(
        semiring,
        scope,
        lambda *values: polynomial.evaluate(dict(zip(names, values))),
    )


def materialize(constraint):
    """``(table items, None)`` or ``(None, error message)``."""
    try:
        table = to_table(constraint)
    except SemiringError as exc:
        return None, str(exc)
    return [(key, repr(value)) for key, value in table.table.items()], None


@settings(max_examples=300, deadline=None)
@given(data=st.data(), semiring=st.sampled_from(LOWERED))
def test_vectorized_table_is_bit_identical_to_per_leaf(data, semiring):
    scope = data.draw(scopes())
    polynomial = data.draw(polynomials([var.name for var in scope]))
    compiled = polynomial_constraint(semiring, scope, polynomial)
    reference = per_leaf(semiring, scope, polynomial)

    expected, expected_error = materialize(reference)
    got, got_error = materialize(compiled)
    assert got_error == expected_error
    assert got == expected
    if expected is not None and not isinstance(semiring, BooleanSemiring):
        # The grid path, not a per-leaf fallback, produced the table.
        assert compiled.dense_values() is not None
        assert constraint_digest(compiled) == constraint_digest(reference)


@settings(max_examples=150, deadline=None)
@given(
    data=st.data(),
    semiring=st.sampled_from((FuzzySemiring(), ProbabilisticSemiring())),
)
def test_unit_interval_semirings_compile_valid_grids(data, semiring):
    """Coefficients summing to at most 1 over {0, 1} keep every leaf in
    [0, 1], so the [0, 1] carriers exercise their success path too."""
    names = data.draw(
        st.lists(st.sampled_from(NAMES), min_size=1, max_size=3, unique=True)
    )
    scope = [variable(name, (0, 1)) for name in names]
    weights = data.draw(
        st.lists(
            st.floats(min_value=0.0, max_value=1.0), min_size=1, max_size=4
        )
    )
    total = sum(weights) or 1.0
    terms = {}
    for weight in weights:
        monomial = tuple(
            (name, data.draw(st.integers(min_value=0, max_value=3)))
            for name in names
        )
        terms[monomial] = terms.get(monomial, 0.0) + weight / total / 2
    polynomial = Polynomial(terms)
    compiled = polynomial_constraint(semiring, scope, polynomial)
    expected, expected_error = materialize(per_leaf(semiring, scope, polynomial))
    assert expected_error is None
    assert compiled.dense_values() is not None
    assert materialize(compiled) == (expected, None)


class TestSameError:
    """Bad leaves raise the per-leaf path's error on the same leaf."""

    def assert_same_error(self, semiring, scope, polynomial, match):
        compiled = polynomial_constraint(semiring, scope, polynomial)
        reference = per_leaf(semiring, scope, polynomial)
        with pytest.raises(SemiringError, match=match) as expected:
            to_table(reference)
        with pytest.raises(SemiringError, match=match) as got:
            to_table(compiled)
        assert str(got.value) == str(expected.value)
        with pytest.raises(SemiringError, match=match):
            compiled.dense_values()

    def test_negative_cost(self):
        x = variable("x", range(0, 6))
        # x − 3 is negative on x ∈ {0, 1, 2}; x = 0 is the first bad leaf
        self.assert_same_error(
            WeightedSemiring(), [x], Polynomial.linear({"x": 1}, -3), "-3.0"
        )

    def test_nan(self):
        x = variable("x", range(0, 3))
        # ∞·x + 1 is ∞·0 = nan at x = 0
        polynomial = Polynomial({(("x", 1),): math.inf, (): 1.0})
        self.assert_same_error(WeightedSemiring(), [x], polynomial, "nan")

    def test_non_integral_cost(self):
        x = variable("x", range(0, 4))
        self.assert_same_error(
            WeightedSemiring(integral=True),
            [x],
            Polynomial.linear({"x": 0.5}),
            "0.5",
        )

    def test_probability_above_one(self):
        x = variable("x", range(0, 4))
        self.assert_same_error(
            ProbabilisticSemiring(),
            [x],
            Polynomial.linear({"x": 0.4}),
            "1.2",
        )

    def test_second_variable_order(self):
        # Row-major: y varies fastest, so (x=0, y=1) is the first bad leaf.
        x = variable("x", range(0, 3))
        y = variable("y", range(0, 3))
        polynomial = Polynomial.linear({"x": 1.0, "y": -1.0})
        self.assert_same_error(WeightedSemiring(), [x, y], polynomial, "-1.0")


class TestPerLeafFallback:
    def test_non_integer_domain(self):
        x = variable("x", (0.5, 1.5))
        c = polynomial_constraint(
            WeightedSemiring(), [x], Polynomial.linear({"x": 2})
        )
        assert c.dense_values() is None
        assert to_table(c).table == {(0.5,): 1.0, (1.5,): 3.0}

    def test_int64_overflow_risk(self):
        x = variable("x", (0, 2**40))
        c = polynomial_constraint(
            WeightedSemiring(), [x], Polynomial.var("x", power=2)
        )
        assert c.dense_values() is None
        assert to_table(c).table[(2**40,)] == float(2**80)

    def test_boolean_has_no_array_check(self):
        x = variable("x", (0, 1))
        c = polynomial_constraint(BooleanSemiring(), [x], Polynomial.var("x"))
        assert c.dense_values() is None
        with pytest.raises(SemiringError, match="0.0"):
            to_table(c)


class TestOneCompiledForm:
    def test_array_is_memoized_and_tables_are_derived(self):
        x = variable("x", range(0, 4))
        c = polynomial_constraint(
            WeightedSemiring(), [x], Polynomial.linear({"x": 2}, 1)
        )
        assert c.dense_values() is c.dense_values()
        assert not c.dense_values().flags.writeable
        first, second = to_table(c), to_table(c)
        assert first.table == second.table
        assert getattr(c, "_table_memo", None) is None


class TestDigestIsExtensional:
    def test_equal_tables_built_different_ways_share_a_digest(self):
        weighted = WeightedSemiring()
        x = variable("x", range(0, 3))
        y = variable("y", range(0, 2))
        polynomial = Polynomial.linear({"x": 2, "y": 1}, 1)
        compiled = polynomial_constraint(weighted, [x, y], polynomial)
        full = TableConstraint(
            weighted,
            [x, y],
            {(a, b): 2.0 * a + b + 1.0 for a in range(3) for b in range(2)},
        )
        # Every tuple but one explicit, the last one from the default.
        sparse = TableConstraint(
            weighted,
            [x, y],
            {
                (a, b): 2.0 * a + b + 1.0
                for a in range(3)
                for b in range(2)
                if (a, b) != (2, 1)
            },
            default=6.0,
        )
        digests = {
            constraint_digest(compiled),
            constraint_digest(per_leaf(weighted, [x, y], polynomial)),
            constraint_digest(full),
            constraint_digest(sparse),
        }
        assert len(digests) == 1

    def test_digest_separates_different_values_and_scopes(self):
        weighted = WeightedSemiring()
        x = variable("x", range(0, 3))
        y = variable("y", range(0, 3))
        base = polynomial_constraint(weighted, [x], Polynomial.linear({"x": 1}))
        other = polynomial_constraint(weighted, [x], Polynomial.linear({"x": 2}))
        renamed = polynomial_constraint(
            weighted, [y], Polynomial.linear({"y": 1})
        )
        assert len(
            {constraint_digest(c) for c in (base, other, renamed)}
        ) == 3
