"""SCSP solving (paper Sec. 2's ``Sol``/``blevel``, mechanized).

Backends: exhaustive enumeration (reference, any semiring), bucket
elimination (exact, any semiring, avoids the full joint table), branch &
bound (totally ordered semirings), plus soft arc consistency and α-cuts.
``solve`` picks a backend automatically.
"""

from __future__ import annotations

from .alphacut import (
    alpha_cut,
    alpha_cut_problem,
    consistency_level_among,
    satisfiable_at,
)
from .branch_bound import solve_branch_bound
from .cache import (
    DEFAULT_SOLVE_CACHE_SIZE,
    SolveCache,
    problem_fingerprint,
    topology_fingerprint,
)
from .consistency import (
    PropagationStats,
    enforce_arc_consistency,
    prune_domains,
)
from .elimination import (
    DEFAULT_BUCKET_CACHE_SIZE,
    BucketCache,
    clear_bucket_cache,
    eliminate,
    eliminate_batch,
    fits_nested_dense,
    shared_bucket_cache,
    solve_elimination,
    solve_elimination_batch,
    solve_nested_dense,
)
from .exhaustive import solve_exhaustive
from .kernels import (
    BatchDenseFactor,
    DenseFactor,
    KernelError,
    Lowering,
    best_over_variable,
    combine_factors,
    lower_semiring,
    lowering_fallback_stats,
    resolve_lowering,
    split_results,
    stack_factors,
)
from .minibucket import minibucket_bound, screening_test
from .heuristics import (
    ORDERINGS,
    given_order,
    max_degree_order,
    min_degree_order,
    min_domain_order,
    resolve_ordering,
)
from .problem import SCSP, ProblemError, SolverResult, SolverStats

_METHODS = {
    "exhaustive": solve_exhaustive,
    "branch-bound": solve_branch_bound,
    "elimination": solve_elimination,
}


#: Methods whose hot loop can run over dense ndarray kernels.
_BACKEND_AWARE = ("branch-bound", "elimination")


def solve(
    problem: SCSP,
    method: str = "auto",
    backend: str = "auto",
    cache: "SolveCache | None" = None,
    bucket_cache: "BucketCache | None" = None,
    **options,
) -> SolverResult:
    """Solve an SCSP with the requested backend.

    ``method="auto"`` picks by shape.  A plain lowered total order with
    at most two constraints, one scope containing the other (the
    broker's requirement ⊗ offer), is answered on one dense array by
    :func:`~repro.solver.elimination.solve_nested_dense`, which returns
    exactly what branch & bound returns; other totally ordered problems
    take branch & bound, partial orders bucket elimination.  ``backend``
    selects the factor representation for the methods that support it
    (``auto``/``dict``/``dense``, see :mod:`repro.solver.kernels`).
    When ``cache`` is given the solve is keyed by
    :func:`~repro.solver.cache.problem_fingerprint` and answered from a
    warm entry when one exists.  ``bucket_cache`` (elimination only)
    additionally memoizes per-bucket intermediates so a near-miss — same
    topology, one factor changed — re-eliminates only the affected
    buckets; it never changes results, so it is deliberately excluded
    from the problem fingerprint.
    """
    if method != "auto" and method not in _METHODS:
        known = ", ".join(sorted(_METHODS) + ["auto"])
        raise ProblemError(
            f"unknown solve method {method!r}; known: {known}"
        )
    key = None
    if cache is not None:
        # Keyed by the method asked for: what ``auto`` picks is a
        # function of the fingerprinted problem, backend and options.
        key = problem_fingerprint(problem, method, backend, options)
        hit = cache.fetch(key, problem)
        if hit is not None:
            return hit
    if method == "auto" and fits_nested_dense(problem, backend, options):
        result = solve_nested_dense(
            problem, options.get("ordering", "max-degree")
        )
    else:
        if method == "auto":
            method = (
                "branch-bound"
                if problem.semiring.is_total_order()
                else "elimination"
            )
        call_options = dict(options)
        if method in _BACKEND_AWARE:
            call_options["backend"] = backend
        if bucket_cache is not None and method == "elimination":
            call_options["bucket_cache"] = bucket_cache
        result = _METHODS[method](problem, **call_options)
    if key is not None:
        cache.store(key, result)
    return result


__all__ = [
    "SCSP",
    "ProblemError",
    "SolverResult",
    "SolverStats",
    "SolveCache",
    "DEFAULT_SOLVE_CACHE_SIZE",
    "problem_fingerprint",
    "topology_fingerprint",
    "BucketCache",
    "DEFAULT_BUCKET_CACHE_SIZE",
    "shared_bucket_cache",
    "clear_bucket_cache",
    "DenseFactor",
    "BatchDenseFactor",
    "KernelError",
    "Lowering",
    "lower_semiring",
    "lowering_fallback_stats",
    "resolve_lowering",
    "combine_factors",
    "stack_factors",
    "split_results",
    "best_over_variable",
    "solve",
    "solve_exhaustive",
    "solve_branch_bound",
    "solve_elimination",
    "solve_elimination_batch",
    "eliminate",
    "eliminate_batch",
    "enforce_arc_consistency",
    "prune_domains",
    "PropagationStats",
    "minibucket_bound",
    "screening_test",
    "alpha_cut",
    "alpha_cut_problem",
    "satisfiable_at",
    "consistency_level_among",
    "ORDERINGS",
    "given_order",
    "min_degree_order",
    "min_domain_order",
    "max_degree_order",
    "resolve_ordering",
]
