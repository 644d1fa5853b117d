"""Soft Constraint Satisfaction Problems: ``P = ⟨C, con⟩``.

A SCSP (paper Sec. 2) is a set of constraints ``C`` plus the variables of
interest ``con``.  Its *solution* is ``Sol(P) = (⊗C) ⇓ con`` and its *best
level of consistency* is ``blevel(P) = Sol(P) ⇓∅``; ``P`` is α-consistent
when ``blevel(P) = α`` and consistent when ``blevel(P) >S 0``.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, Iterable, List, Mapping, Optional, Sequence, Tuple

from ..constraints.constraint import SoftConstraint
from ..constraints.operations import combine
from ..constraints.variables import (
    Variable,
    merge_scopes,
    scope_names,
)
from ..semirings.base import Semiring


class ProblemError(Exception):
    """Raised on malformed SCSP definitions."""


class SCSP:
    """A Soft Constraint Satisfaction Problem ``⟨C, con⟩``.

    ``con`` defaults to *all* variables appearing in the constraints; pass
    an explicit subset to model interfaces (only those variables are kept
    by ``solution()``, like variable ``X``'s double circle in Fig. 1).
    """

    def __init__(
        self,
        constraints: Sequence[SoftConstraint],
        con: Optional[Iterable[str | Variable]] = None,
        name: str = "",
    ) -> None:
        constraints = list(constraints)
        if not constraints:
            raise ProblemError("an SCSP needs at least one constraint")
        semirings = {c.semiring for c in constraints}
        if len(semirings) != 1:
            names = sorted(s.name for s in semirings)
            raise ProblemError(
                f"all constraints must share one semiring, got {names}"
            )
        self.constraints: Tuple[SoftConstraint, ...] = tuple(constraints)
        self.semiring: Semiring = constraints[0].semiring
        self.variables: Tuple[Variable, ...] = merge_scopes(
            *(c.scope for c in constraints)
        )
        self.name = name

        if con is None:
            self.con: Tuple[str, ...] = scope_names(self.variables)
        else:
            requested = tuple(
                item.name if isinstance(item, Variable) else item
                for item in con
            )
            known = set(scope_names(self.variables))
            unknown = [n for n in requested if n not in known]
            if unknown:
                raise ProblemError(
                    f"con mentions unknown variables {unknown!r}"
                )
            self.con = requested

    # ------------------------------------------------------------------
    # Paper definitions
    # ------------------------------------------------------------------

    def combined(self) -> SoftConstraint:
        """``⊗C`` — the combination of every constraint."""
        return combine(self.constraints, semiring=self.semiring)

    def solution(self) -> SoftConstraint:
        """``Sol(P) = (⊗C) ⇓ con``."""
        return self.combined().project(self.con)

    def blevel(self) -> Any:
        """``blevel(P) = Sol(P) ⇓∅`` (equal to ``(⊗C) ⇓∅``)."""
        return self.combined().consistency()

    def is_alpha_consistent(self, alpha: Any) -> bool:
        """``P`` is α-consistent iff ``blevel(P) = α``."""
        return self.semiring.equiv(self.blevel(), alpha)

    def is_consistent(self) -> bool:
        """``P`` is consistent iff ``blevel(P) >S 0``."""
        return self.semiring.gt(self.blevel(), self.semiring.zero)

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------

    @property
    def variable_map(self) -> Dict[str, Variable]:
        return {var.name: var for var in self.variables}

    def constraints_on(self, name: str) -> List[SoftConstraint]:
        """Constraints whose support includes variable ``name``."""
        return [c for c in self.constraints if name in c.support]

    def evaluate(self, assignment: Mapping[str, Any]) -> Any:
        """Value of the complete ``assignment`` under ``⊗C``."""
        return self.semiring.prod(
            c.value(assignment) for c in self.constraints
        )

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        label = f" {self.name!r}" if self.name else ""
        return (
            f"SCSP{label}({len(self.constraints)} constraints, "
            f"{len(self.variables)} variables, con={self.con!r}, "
            f"semiring={self.semiring.name})"
        )


@dataclass
class SolverStats:
    """Work counters reported by every solver backend."""

    nodes_expanded: int = 0
    leaves_evaluated: int = 0
    prunes: int = 0
    buckets_processed: int = 0
    largest_intermediate: int = 0
    incumbent_improvements: int = 0
    #: Buckets answered from a materialized eliminated-bucket memo
    #: (counted inside ``buckets_processed`` too — the schedule is the
    #: same, the combine/project work was skipped).
    buckets_reused: int = 0

    def merge(self, other: "SolverStats") -> "SolverStats":
        return SolverStats(
            nodes_expanded=self.nodes_expanded + other.nodes_expanded,
            leaves_evaluated=self.leaves_evaluated + other.leaves_evaluated,
            prunes=self.prunes + other.prunes,
            buckets_processed=self.buckets_processed
            + other.buckets_processed,
            largest_intermediate=max(
                self.largest_intermediate, other.largest_intermediate
            ),
            incumbent_improvements=self.incumbent_improvements
            + other.incumbent_improvements,
            buckets_reused=self.buckets_reused + other.buckets_reused,
        )


def record_solve_metrics(
    method: str, stats: SolverStats, seconds: float, backend: str = "dict"
) -> None:
    """Report one finished solve to the active telemetry registry.

    Called once per solve (never inside the search loop), so the search
    itself carries zero telemetry overhead; with telemetry disabled this
    is one attribute check.  ``backend`` records which representation the
    hot loop ran over (``dict`` tuple tables vs ``dense`` ndarray
    kernels).
    """
    from ..telemetry import get_registry

    registry = get_registry()
    if not registry.enabled:
        return
    labels = ("method",)
    registry.counter(
        "solver_solves_total", "Finished SCSP solves.", labels
    ).labels(method).inc()
    registry.counter(
        "solver_kernel_solves_total",
        "Finished SCSP solves by backend representation.",
        labelnames=("method", "backend"),
    ).labels(method, backend).inc()
    registry.histogram(
        "solver_solve_seconds", "Wall time per SCSP solve.", labels
    ).labels(method).observe(seconds)
    for counter_name, help_text, amount in (
        (
            "solver_nodes_expanded_total",
            "Search-tree nodes expanded.",
            stats.nodes_expanded,
        ),
        (
            "solver_prunes_total",
            "Subtrees pruned by the bound.",
            stats.prunes,
        ),
        (
            "solver_leaves_evaluated_total",
            "Complete assignments evaluated.",
            stats.leaves_evaluated,
        ),
        (
            "solver_blevel_improvements_total",
            "Times the incumbent blevel improved.",
            stats.incumbent_improvements,
        ),
        (
            "solver_buckets_processed_total",
            "Bucket-elimination buckets processed.",
            stats.buckets_processed,
        ),
        (
            "solver_buckets_reused_total",
            "Buckets answered from the materialized-bucket memo.",
            stats.buckets_reused,
        ),
    ):
        # inc(0) still registers the sample, so snapshots always show the
        # full counter set even for searches that never pruned.
        registry.counter(counter_name, help_text, labels).labels(
            method
        ).inc(amount)
    if stats.largest_intermediate:
        registry.gauge(
            "solver_largest_intermediate",
            "Largest intermediate table (assignment-space size) seen.",
        ).set_max(stats.largest_intermediate)


@dataclass
class SolverResult:
    """Outcome of solving an SCSP.

    ``frontier`` holds the ≤S-maximal solution values (a singleton for
    totally ordered semirings — the blevel); ``optima`` holds, for each
    frontier value, the assignments of ``con`` achieving it.
    """

    problem: SCSP
    blevel: Any
    frontier: List[Any]
    optima: List[List[Dict[str, Any]]]
    method: str
    stats: SolverStats = field(default_factory=SolverStats)

    @property
    def best_assignment(self) -> Optional[Dict[str, Any]]:
        """One optimal assignment (first frontier class), if any exists."""
        for group in self.optima:
            if group:
                return group[0]
        return None

    @property
    def is_consistent(self) -> bool:
        semiring = self.problem.semiring
        return semiring.gt(self.blevel, semiring.zero)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"SolverResult(method={self.method!r}, blevel={self.blevel!r}, "
            f"{sum(len(g) for g in self.optima)} optimal assignment(s))"
        )
