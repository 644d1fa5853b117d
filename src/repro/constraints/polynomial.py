"""Polynomial preference functions, e.g. "reliability = 5x + 80".

The paper states service policies as polynomials over resource variables
("the reliability is equal to 80% plus 5% for each other processor", and
the Weighted constraints ``c1(x)=x+3 … c4(x)=x+5`` of Fig. 7).  This
module provides a small multivariate polynomial type with exact integer /
float coefficients, plus a constructor turning a polynomial into a
:class:`PolynomialConstraint`, whose table is computed over the whole
integer domain grid in one NumPy pass instead of one
:meth:`Polynomial.evaluate` call per leaf.

Having polynomials as first-class values lets the negotiation tests assert
*symbolic* facts from the paper — e.g. that after a retract the store is
``2x + 2`` — instead of only spot-checking numbers.
"""

from __future__ import annotations

from numbers import Real
from typing import Any, Dict, Mapping, Optional, Sequence, Tuple

import numpy as np

from ..semirings.base import Semiring
from .constraint import FunctionConstraint
from .variables import Variable

#: A monomial is a sorted tuple of (variable-name, power) pairs; the empty
#: tuple is the constant monomial.
Monomial = Tuple[Tuple[str, int], ...]


class Polynomial:
    """Immutable multivariate polynomial with real coefficients."""

    __slots__ = ("coefficients",)

    def __init__(self, coefficients: Mapping[Monomial, float] | None = None):
        cleaned: Dict[Monomial, float] = {}
        for monomial, coefficient in (coefficients or {}).items():
            if coefficient == 0:
                continue
            normalized = tuple(
                sorted((name, power) for name, power in monomial if power != 0)
            )
            cleaned[normalized] = cleaned.get(normalized, 0) + coefficient
        self.coefficients: Dict[Monomial, float] = {
            m: c for m, c in cleaned.items() if c != 0
        }

    # ------------------------------------------------------------------
    # Constructors
    # ------------------------------------------------------------------

    @classmethod
    def constant(cls, value: float) -> "Polynomial":
        return cls({(): value})

    @classmethod
    def var(cls, name: str, power: int = 1) -> "Polynomial":
        if power < 0:
            raise ValueError("polynomial powers must be non-negative")
        if power == 0:
            return cls.constant(1)
        return cls({((name, power),): 1})

    @classmethod
    def linear(cls, terms: Mapping[str, float], constant: float = 0) -> "Polynomial":
        """``Σ coeff·var + constant`` — the common SLA-policy shape."""
        coefficients: Dict[Monomial, float] = {
            ((name, 1),): coeff for name, coeff in terms.items()
        }
        coefficients[()] = constant
        return cls(coefficients)

    # ------------------------------------------------------------------
    # Arithmetic
    # ------------------------------------------------------------------

    def _coerce(self, other: Any) -> "Polynomial":
        if isinstance(other, Polynomial):
            return other
        if isinstance(other, Real):
            return Polynomial.constant(float(other))
        return NotImplemented  # type: ignore[return-value]

    def __add__(self, other: Any) -> "Polynomial":
        rhs = self._coerce(other)
        if rhs is NotImplemented:
            return NotImplemented
        merged = dict(self.coefficients)
        for monomial, coefficient in rhs.coefficients.items():
            merged[monomial] = merged.get(monomial, 0) + coefficient
        return Polynomial(merged)

    __radd__ = __add__

    def __neg__(self) -> "Polynomial":
        return Polynomial({m: -c for m, c in self.coefficients.items()})

    def __sub__(self, other: Any) -> "Polynomial":
        rhs = self._coerce(other)
        if rhs is NotImplemented:
            return NotImplemented
        return self + (-rhs)

    def __rsub__(self, other: Any) -> "Polynomial":
        rhs = self._coerce(other)
        if rhs is NotImplemented:
            return NotImplemented
        return rhs + (-self)

    def __mul__(self, other: Any) -> "Polynomial":
        rhs = self._coerce(other)
        if rhs is NotImplemented:
            return NotImplemented
        product: Dict[Monomial, float] = {}
        for mono_a, coeff_a in self.coefficients.items():
            for mono_b, coeff_b in rhs.coefficients.items():
                powers: Dict[str, int] = {}
                for name, power in mono_a + mono_b:
                    powers[name] = powers.get(name, 0) + power
                merged: Monomial = tuple(sorted(powers.items()))
                product[merged] = (
                    product.get(merged, 0) + coeff_a * coeff_b
                )
        return Polynomial(product)

    __rmul__ = __mul__

    # ------------------------------------------------------------------
    # Inspection
    # ------------------------------------------------------------------

    def evaluate(self, assignment: Mapping[str, float]) -> float:
        total = 0.0
        for monomial, coefficient in self.coefficients.items():
            term = coefficient
            for name, power in monomial:
                term *= assignment[name] ** power
            total += term
        return total

    def variables(self) -> Tuple[str, ...]:
        names = {
            name
            for monomial in self.coefficients
            for name, _ in monomial
        }
        return tuple(sorted(names))

    @property
    def is_constant(self) -> bool:
        return all(m == () for m in self.coefficients)

    def __eq__(self, other: object) -> bool:
        rhs = self._coerce(other)
        if rhs is NotImplemented:
            return NotImplemented
        return self.coefficients == rhs.coefficients

    def __hash__(self) -> int:
        return hash(tuple(sorted(self.coefficients.items())))

    def __str__(self) -> str:
        if not self.coefficients:
            return "0"

        def monomial_str(monomial: Monomial) -> str:
            return "·".join(
                name if power == 1 else f"{name}^{power}"
                for name, power in monomial
            )

        parts = []
        for monomial, coefficient in sorted(
            self.coefficients.items(), key=lambda mc: (-len(mc[0]), mc[0])
        ):
            coeff_str = (
                f"{coefficient:g}" if monomial == () or coefficient != 1 else ""
            )
            body = monomial_str(monomial)
            glue = "" if not coeff_str or not body else ""
            parts.append(f"{coeff_str}{glue}{body}" or "1")
        return " + ".join(parts)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"Polynomial({self})"


#: Integer intermediates stay below this bound, so int64 arithmetic on the
#: grid is as exact as Python's unbounded ints.
_INT64_MAX = 2**63 - 1

_UNCOMPILED = object()


def _evaluate_grid(
    polynomial: Polynomial, scope: Sequence[Variable]
) -> Optional[np.ndarray]:
    """``polynomial`` at every point of ``scope``'s domain grid, as a
    row-major float64 array bit-identical to :meth:`Polynomial.evaluate`.

    The grid replays ``evaluate``'s operations in its order: ``total``
    starts at ``0.0`` and adds each monomial's term in coefficient order,
    and a term is its coefficient times each ``value ** power`` in
    monomial order.  Integer domain values and integer coefficients stay
    int64 until added to the float total, exactly where Python converts
    its ints.  ``None`` when bit-identity cannot be guaranteed: a
    non-``int`` domain value, a coefficient that is neither ``int`` nor
    ``float``, a power below one, or an integer intermediate that could
    overflow int64.
    """
    used = set(polynomial.variables())
    axes: Dict[str, Tuple[np.ndarray, int]] = {}
    for index, var in enumerate(scope):
        if var.name not in used:
            continue
        if any(type(value) is not int for value in var.domain):
            return None
        largest = max(abs(value) for value in var.domain)
        if largest > _INT64_MAX:
            return None
        shape = [1] * len(scope)
        shape[index] = var.size
        axis = np.array(var.domain, dtype=np.int64).reshape(shape)
        axes[var.name] = (axis, largest)

    total = np.zeros(tuple(var.size for var in scope))
    with np.errstate(all="ignore"):
        for monomial, coefficient in polynomial.coefficients.items():
            if type(coefficient) is int:
                bound = abs(coefficient)
            elif type(coefficient) is float:
                bound = 1
            else:
                return None
            if bound > _INT64_MAX:
                return None
            term: Any = coefficient
            for name, power in monomial:
                if type(power) is not int or power < 1:
                    return None
                axis, largest = axes[name]
                factor_bound = largest**power
                bound *= factor_bound
                if factor_bound > _INT64_MAX or bound > _INT64_MAX:
                    return None
                term = term * axis**power
            if not monomial:
                # Python's ``0.0 + int`` converts the int the way ``float``
                # does; pass a float so NumPy need not.
                term = float(term)
            total += term
    return total


class PolynomialConstraint(FunctionConstraint):
    """A polynomial lifted to a soft constraint over ``scope``.

    Point evaluation is the :class:`FunctionConstraint` path —
    :meth:`Polynomial.evaluate` plus the semiring's element check.
    :meth:`dense_values` compiles the whole table once instead: one
    NumPy pass over the domain grid, bit-identical to the per-leaf
    values, validated by the semiring's vectorized element check (the
    first bad leaf in row-major order raises the same
    :class:`~repro.semirings.base.SemiringError` the per-leaf path
    raises).  The compiled array is the constraint's only memoized form;
    :func:`~repro.constraints.table.to_table` derives tables from it.
    """

    def __init__(
        self,
        semiring: Semiring,
        scope: Sequence[Variable],
        polynomial: Polynomial,
        name: str = "",
    ) -> None:
        scope_set = {var.name for var in scope}
        missing = set(polynomial.variables()) - scope_set
        if missing:
            raise ValueError(
                f"polynomial mentions {sorted(missing)!r} outside scope "
                f"{sorted(scope_set)!r}"
            )
        order = [var.name for var in scope]

        def evaluate(*values: float) -> float:
            return polynomial.evaluate(dict(zip(order, values)))

        super().__init__(
            semiring, scope, evaluate, name=name or str(polynomial)
        )
        self.polynomial = polynomial
        self._values_memo: Any = _UNCOMPILED

    def dense_values(self) -> Optional[np.ndarray]:
        values = self._values_memo
        if values is _UNCOMPILED:
            values = self._compile()
            self._values_memo = values
        return values

    def _compile(self) -> Optional[np.ndarray]:
        values = _evaluate_grid(self.polynomial, self.scope)
        if values is None:
            return None
        bad = self.semiring.invalid_mask(values)
        if bad is None:
            return None
        if bad.any():
            first = int(np.flatnonzero(bad)[0])
            self.semiring.check_element(values.reshape(-1)[first].item())
            return None  # pragma: no cover - mask and check disagree
        values.flags.writeable = False
        return values


def polynomial_constraint(
    semiring: Semiring,
    scope: Sequence[Variable],
    polynomial: Polynomial,
    name: str = "",
) -> PolynomialConstraint:
    """Lift a polynomial to a soft constraint over ``scope``.

    Scope variables not occurring in the polynomial are allowed (the
    constraint is then constant along them); polynomial variables missing
    from the scope are an error.
    """
    return PolynomialConstraint(semiring, scope, polynomial, name=name)
