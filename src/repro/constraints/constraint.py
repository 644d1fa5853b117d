"""Soft constraints: functions from assignments to semiring values.

A soft constraint (paper Sec. 2) is a function ``c : (V → D) → A`` that
depends only on a finite *support* (its scope).  Evaluating ``cη`` yields
a semiring value; combining with ``⊗`` multiplies values pointwise,
dividing with ``÷`` applies residuated division pointwise, and projecting
``⇓`` sums over the eliminated variables.

This module defines the abstract base plus the lazy composite nodes
(combination, division, projection, renaming); materialization into
explicit tables lives in :mod:`repro.constraints.table` and the
module-level operation functions in :mod:`repro.constraints.operations`.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from typing import Any, Callable, Iterable, Mapping, Sequence, Tuple

from ..semirings.base import Semiring
from .variables import (
    Variable,
    VariableError,
    iter_assignments,
    merge_scopes,
    scope_names,
)


class ConstraintError(Exception):
    """Raised on malformed constraints or cross-semiring operations."""


class SoftConstraint(ABC):
    """Abstract soft constraint over a semiring and a finite scope."""

    def __init__(self, semiring: Semiring, scope: Sequence[Variable]) -> None:
        self.semiring = semiring
        self.scope: Tuple[Variable, ...] = merge_scopes(scope)

    # ------------------------------------------------------------------
    # Evaluation
    # ------------------------------------------------------------------

    @abstractmethod
    def value(self, assignment: Mapping[str, Any]) -> Any:
        """``cη`` — the semiring value of this constraint under ``η``.

        ``assignment`` must bind every variable in the scope; bindings of
        other variables are ignored (the constraint depends only on its
        support, as required by the paper).
        """

    def __call__(self, assignment: Mapping[str, Any]) -> Any:
        return self.value(assignment)

    # ------------------------------------------------------------------
    # Scope helpers
    # ------------------------------------------------------------------

    @property
    def support(self) -> Tuple[str, ...]:
        """The names of the variables this constraint depends on."""
        return scope_names(self.scope)

    def _require_same_semiring(self, other: "SoftConstraint") -> None:
        if self.semiring != other.semiring:
            raise ConstraintError(
                f"cannot mix constraints over {self.semiring.name} "
                f"and {other.semiring.name}"
            )

    def _scope_subset(self, names: Iterable[str]) -> Tuple[Variable, ...]:
        wanted = set(names)
        unknown = wanted - set(self.support)
        if unknown:
            raise ConstraintError(
                f"variables {sorted(unknown)!r} not in scope {self.support!r}"
            )
        return tuple(var for var in self.scope if var.name in wanted)

    # ------------------------------------------------------------------
    # Algebra (lazy composite nodes)
    # ------------------------------------------------------------------

    def combine(self, other: "SoftConstraint") -> "SoftConstraint":
        """``c1 ⊗ c2`` — pointwise semiring multiplication."""
        self._require_same_semiring(other)
        return CombinedConstraint(self, other)

    def divide(self, other: "SoftConstraint") -> "SoftConstraint":
        """``c1 ÷ c2`` — pointwise residuated division (weak inverse)."""
        self._require_same_semiring(other)
        return DividedConstraint(self, other)

    def project(self, keep: Iterable[str | Variable]) -> "SoftConstraint":
        """``c ⇓ keep`` — eliminate every scope variable not in ``keep``.

        Variables in ``keep`` that are not in the scope are ignored, so a
        store can be projected onto an interface that mentions variables
        it never constrained.
        """
        keep_names = {
            item.name if isinstance(item, Variable) else item for item in keep
        }
        kept = tuple(var for var in self.scope if var.name in keep_names)
        if len(kept) == len(self.scope):
            return self
        return ProjectedConstraint(self, kept)

    def hide(self, *names: str | Variable) -> "SoftConstraint":
        """``∃x.c`` — project the named variables *out* (cylindrification)."""
        hidden = {
            item.name if isinstance(item, Variable) else item for item in names
        }
        return self.project(
            [var for var in self.scope if var.name not in hidden]
        )

    def renamed(self, mapping: Mapping[str, str]) -> "SoftConstraint":
        """``c[x/y]`` — rename scope variables (used by hiding/proc calls)."""
        if not mapping:
            return self
        return RenamedConstraint(self, mapping)

    def __mul__(self, other: "SoftConstraint") -> "SoftConstraint":
        if not isinstance(other, SoftConstraint):
            return NotImplemented
        return self.combine(other)

    def __truediv__(self, other: "SoftConstraint") -> "SoftConstraint":
        if not isinstance(other, SoftConstraint):
            return NotImplemented
        return self.divide(other)

    # ------------------------------------------------------------------
    # Materialization / summaries
    # ------------------------------------------------------------------

    def dense_values(self) -> Any:
        """This constraint's values as a validated row-major float64
        ndarray over its scope, compiled once — or ``None`` when it has
        no vectorized form and materializes leaf by leaf."""
        return None

    def materialize(self) -> "SoftConstraint":
        """An extensionally equal table constraint (explicit tuples)."""
        from .table import to_table

        return to_table(self)

    def consistency(self) -> Any:
        """``c ⇓∅`` — the best level over all complete assignments."""
        return self.semiring.sum(
            self.value(assignment)
            for assignment in iter_assignments(self.scope)
        )

    def enumerate_values(self):
        """Yield ``(assignment_dict, semiring_value)`` over the scope."""
        for assignment in iter_assignments(self.scope):
            yield assignment, self.value(assignment)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"{type(self).__name__}(scope={self.support!r}, "
            f"semiring={self.semiring.name})"
        )


class ConstantConstraint(SoftConstraint):
    """The constraint ``ā`` mapping every assignment to a fixed value.

    ``ConstantConstraint(S, S.one)`` is the ``1̄`` used as the empty store
    of the nmsccp language; ``ConstantConstraint(S, S.zero)`` is ``0̄``.
    """

    def __init__(self, semiring: Semiring, constant: Any) -> None:
        super().__init__(semiring, ())
        self.constant = semiring.check_element(constant)

    def value(self, assignment: Mapping[str, Any]) -> Any:
        return self.constant

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"ConstantConstraint({self.constant!r}, {self.semiring.name})"


class FunctionConstraint(SoftConstraint):
    """A constraint given intensionally by a Python function.

    The function receives the scope values positionally, mirroring the
    paper's notation ``c1(x) = x + 3``::

        c1 = FunctionConstraint(weighted, [x], lambda x: x + 3)
    """

    def __init__(
        self,
        semiring: Semiring,
        scope: Sequence[Variable],
        fn: Callable[..., Any],
        name: str = "",
    ) -> None:
        super().__init__(semiring, scope)
        self.fn = fn
        self.name = name or getattr(fn, "__name__", "<fn>")

    def value(self, assignment: Mapping[str, Any]) -> Any:
        try:
            args = tuple(assignment[var.name] for var in self.scope)
        except KeyError as exc:
            raise ConstraintError(
                f"assignment missing variable {exc.args[0]!r} "
                f"required by constraint {self.name!r}"
            ) from None
        return self.semiring.check_element(self.fn(*args))

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"FunctionConstraint({self.name!r}, scope={self.support!r})"


class CombinedConstraint(SoftConstraint):
    """Lazy ``c1 ⊗ c2``: scope union, values multiplied pointwise."""

    def __init__(self, left: SoftConstraint, right: SoftConstraint) -> None:
        super().__init__(left.semiring, merge_scopes(left.scope, right.scope))
        self.left = left
        self.right = right

    def value(self, assignment: Mapping[str, Any]) -> Any:
        return self.semiring.times(
            self.left.value(assignment), self.right.value(assignment)
        )


class DividedConstraint(SoftConstraint):
    """Lazy ``c1 ÷ c2``: scope union, residuated division pointwise."""

    def __init__(
        self, numerator: SoftConstraint, denominator: SoftConstraint
    ) -> None:
        super().__init__(
            numerator.semiring,
            merge_scopes(numerator.scope, denominator.scope),
        )
        self.numerator = numerator
        self.denominator = denominator

    def value(self, assignment: Mapping[str, Any]) -> Any:
        return self.semiring.divide(
            self.numerator.value(assignment),
            self.denominator.value(assignment),
        )


class ProjectedConstraint(SoftConstraint):
    """Lazy ``c ⇓ kept``: sums the inner constraint over eliminated vars.

    Each evaluation enumerates the eliminated variables' domains; call
    :meth:`SoftConstraint.materialize` once when the projection will be
    evaluated repeatedly.
    """

    def __init__(
        self, inner: SoftConstraint, kept: Tuple[Variable, ...]
    ) -> None:
        super().__init__(inner.semiring, kept)
        self.inner = inner
        self.eliminated: Tuple[Variable, ...] = tuple(
            var for var in inner.scope if var not in kept
        )

    def value(self, assignment: Mapping[str, Any]) -> Any:
        base = {var.name: assignment[var.name] for var in self.scope}
        return self.semiring.sum(
            self.inner.value(extension)
            for extension in iter_assignments(self.inner.scope, base)
        )


class RenamedConstraint(SoftConstraint):
    """``c[x/y]`` — evaluate the inner constraint through a renaming.

    ``mapping`` sends *inner* names to *outer* names; the renamed scope
    keeps each variable's domain.  Used by the hiding rule (fresh
    variables) and by diagonal-constraint parameter passing.
    """

    def __init__(
        self, inner: SoftConstraint, mapping: Mapping[str, str]
    ) -> None:
        targets = [mapping.get(var.name, var.name) for var in inner.scope]
        if len(set(targets)) != len(targets):
            raise VariableError(
                f"renaming {dict(mapping)!r} collapses scope {inner.support!r}"
            )
        new_scope = tuple(
            Variable(target, var.domain)
            for var, target in zip(inner.scope, targets)
        )
        super().__init__(inner.semiring, new_scope)
        self.inner = inner
        self.mapping = dict(mapping)

    def value(self, assignment: Mapping[str, Any]) -> Any:
        inner_view = {
            var.name: assignment[self.mapping.get(var.name, var.name)]
            for var in self.inner.scope
        }
        return self.inner.value(inner_view)
