"""Absorptive c-semirings: the algebraic core of the soft-constraint framework.

An *absorptive semiring* (Bistarelli & Gadducci, ECAI 2006; Sec. 2 of the
paper) is a tuple ``⟨A, +, ×, 0, 1⟩`` such that

* ``A`` is a set with distinguished elements ``0`` and ``1``;
* ``+`` is commutative, associative and idempotent, with unit ``0`` and
  absorbing element ``1``;
* ``×`` is commutative, associative, distributes over ``+``, has unit
  ``1`` and absorbing element ``0``.

The derived relation ``a ≤ b  iff  a + b = b`` is a partial order in which
``0`` is the minimum, ``1`` the maximum, ``a + b = lub(a, b)``, and both
operations are monotone.  ``b`` better than ``a`` means ``a ≤ b``.

A semiring is *residuated* when ``max{x | b × x ≤ a}`` exists for every
``a, b``; that maximum is the weak-inverse *division* ``a ÷ b`` used by the
``retract`` operation of the nmsccp language.  All classical instances
(Boolean, Fuzzy, Probabilistic, Weighted, Set-based) are complete and
hence residuated; every concrete subclass here implements ``divide`` in
closed form.
"""

from __future__ import annotations

import itertools
from abc import ABC, abstractmethod
from typing import Any, Generic, Iterable, Optional, TypeVar

A = TypeVar("A")


class SemiringError(Exception):
    """Raised when a semiring operation receives an invalid element."""


class Semiring(ABC, Generic[A]):
    """Abstract absorptive (c-)semiring ``⟨A, +, ×, 0, 1⟩``.

    Concrete subclasses provide the carrier predicate ``is_element``, the
    two operations ``plus``/``times``, the units ``zero``/``one`` and the
    residuated division ``divide``.  Everything else (order, lub/glb,
    folds, comparability) is derived here.
    """

    #: Human-readable name, e.g. ``"Weighted"``.
    name: str = "Semiring"

    # ------------------------------------------------------------------
    # Core algebra (abstract)
    # ------------------------------------------------------------------

    @property
    @abstractmethod
    def zero(self) -> A:
        """The unit of ``+`` / absorbing element of ``×`` (worst value)."""

    @property
    @abstractmethod
    def one(self) -> A:
        """The unit of ``×`` / absorbing element of ``+`` (best value)."""

    @abstractmethod
    def plus(self, a: A, b: A) -> A:
        """Additive operation; computes the least upper bound of ``a, b``."""

    @abstractmethod
    def times(self, a: A, b: A) -> A:
        """Multiplicative (combination) operation."""

    @abstractmethod
    def is_element(self, a: Any) -> bool:
        """Return ``True`` when ``a`` belongs to the carrier set ``A``."""

    @abstractmethod
    def divide(self, a: A, b: A) -> A:
        """Residuated division ``a ÷ b = max{x ∈ A | b × x ≤ a}``."""

    # ------------------------------------------------------------------
    # Derived order structure
    # ------------------------------------------------------------------

    def leq(self, a: A, b: A) -> bool:
        """Partial order: ``a ≤S b  iff  a + b = b`` (b is *better*)."""
        return self.plus(a, b) == b

    def lt(self, a: A, b: A) -> bool:
        """Strict order: ``a <S b`` iff ``a ≤S b`` and ``a ≠ b``."""
        return a != b and self.leq(a, b)

    def geq(self, a: A, b: A) -> bool:
        """``a ≥S b`` iff ``b ≤S a``."""
        return self.leq(b, a)

    def gt(self, a: A, b: A) -> bool:
        """``a >S b`` iff ``b <S a``."""
        return self.lt(b, a)

    def comparable(self, a: A, b: A) -> bool:
        """Whether ``a`` and ``b`` are ordered either way (total for most
        instances, partial for Set-based and Cartesian products)."""
        return self.leq(a, b) or self.leq(b, a)

    def equiv(self, a: A, b: A) -> bool:
        """Element equality in the carrier (overridable for tolerance)."""
        return a == b

    def lub(self, a: A, b: A) -> A:
        """Least upper bound — coincides with ``+`` in a c-semiring."""
        return self.plus(a, b)

    def glb(self, a: A, b: A) -> A:
        """Greatest lower bound in the derived lattice.

        For idempotent ``×`` (Boolean, Fuzzy, Set) the glb is ``×`` itself.
        Subclasses with non-idempotent ``×`` override this with the lattice
        meet (e.g. numeric ``max`` for the Weighted semiring).
        """
        if self.is_multiplicative_idempotent():
            return self.times(a, b)
        raise NotImplementedError(
            f"{self.name}: glb not defined for non-idempotent ×"
        )

    # ------------------------------------------------------------------
    # Folds
    # ------------------------------------------------------------------

    def sum(self, values: Iterable[A]) -> A:
        """Fold ``+`` over ``values``; empty iterable yields ``0``."""
        acc = self.zero
        for value in values:
            acc = self.plus(acc, value)
        return acc

    def prod(self, values: Iterable[A]) -> A:
        """Fold ``×`` over ``values``; empty iterable yields ``1``."""
        acc = self.one
        for value in values:
            acc = self.times(acc, value)
            if acc == self.zero:
                # 0 is absorbing for ×: short-circuit.
                return acc
        return acc

    # ------------------------------------------------------------------
    # Structural predicates (used by property validators and solvers)
    # ------------------------------------------------------------------

    def is_multiplicative_idempotent(self) -> bool:
        """Whether ``a × a = a`` for all ``a`` (true for Boolean/Fuzzy/Set).

        Idempotent ``×`` enables local-consistency propagation in the
        solver.  Default ``False``; subclasses opt in.
        """
        return False

    def is_total_order(self) -> bool:
        """Whether ``≤S`` is a total order (enables branch & bound)."""
        return False

    def supports_exact_retract(self) -> bool:
        """Whether ``(a × b) ÷ b = a`` holds *bitwise* on the exact-value
        subset described by :meth:`exact_retract_value`.

        When true, a factored store may implement ``retract`` of a told
        factor by simply dropping it from the factor set instead of
        materializing the residuated division — sound only if dropping
        and dividing agree bit-for-bit, which idempotent ``×`` (Fuzzy,
        Boolean, Set: ``a × a = a`` loses information) and rounding
        float products (Probabilistic) or saturating sums
        (BoundedWeighted) rule out.  Default ``False``; subclasses with
        a cancellative, exactly-representable ``×`` opt in.
        """
        return False

    def exact_retract_value(self, a: A) -> bool:
        """Whether ``a`` lies in the subset where retract-by-removal is
        bitwise exact (see :meth:`supports_exact_retract`)."""
        return False

    def sample_elements(self) -> tuple[A, ...]:
        """A small, fixed tuple of representative carrier elements.

        Used by :mod:`repro.semirings.properties` to check the semiring
        axioms exhaustively over a finite sample, and by property-based
        tests as a seed corpus.  Must include ``zero`` and ``one``.
        """
        return (self.zero, self.one)

    # ------------------------------------------------------------------
    # Convenience
    # ------------------------------------------------------------------

    def check_element(self, a: Any) -> A:
        """Validate and return ``a``; raise :class:`SemiringError` if it is
        not a carrier element."""
        if not self.is_element(a):
            raise SemiringError(f"{a!r} is not an element of {self.name}")
        return a

    def invalid_mask(self, values: Any) -> Optional[Any]:
        """``not is_element`` over a float64 ndarray, elementwise.

        ``None`` (the default) means this semiring has no array form of
        its element check; materialization then validates leaf by leaf
        through :meth:`check_element`.
        """
        return None

    def max_elements(self, values: Iterable[A]) -> list[A]:
        """Maximal elements of ``values`` under ``≤S`` (frontier).

        For totally ordered semirings this is a singleton equal to
        ``sum(values)``; for partial orders it is the Pareto frontier.
        """
        frontier: list[A] = []
        for value in values:
            if any(self.leq(value, kept) for kept in frontier):
                continue
            frontier = [kept for kept in frontier if not self.leq(kept, value)]
            frontier.append(value)
        return frontier

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"{type(self).__name__}()"

    def __eq__(self, other: object) -> bool:
        return type(self) is type(other)

    def __hash__(self) -> int:
        return hash(type(self))


class TotallyOrderedSemiring(Semiring[A]):
    """Mixin base for semirings whose derived order is total.

    Provides ``glb`` via order comparison and declares totality so the
    branch & bound solver can prune.
    """

    def is_total_order(self) -> bool:
        return True

    def glb(self, a: A, b: A) -> A:
        return a if self.leq(a, b) else b

    def min_value(self, values: Iterable[A]) -> Optional[A]:
        """The worst element of ``values`` (``None`` when empty)."""
        worst: Optional[A] = None
        for value in values:
            if worst is None or self.leq(value, worst):
                worst = value
        return worst


def pairs(elements: Iterable[A]) -> Iterable[tuple[A, A]]:
    """All ordered pairs drawn from ``elements`` (with repetition)."""
    elems = tuple(elements)
    return itertools.product(elems, repeat=2)


def triples(elements: Iterable[A]) -> Iterable[tuple[A, A, A]]:
    """All ordered triples drawn from ``elements`` (with repetition)."""
    elems = tuple(elements)
    return itertools.product(elems, repeat=3)
