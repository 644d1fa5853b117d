"""Bucket (variable) elimination for SCSPs.

Computes ``Sol(P) = (⊗C) ⇓ con`` without ever materializing the full
joint table: each non-interest variable is eliminated in turn by combining
only the constraints that mention it and projecting it out (distributivity
of ``×`` over ``+`` makes this exact for any c-semiring, total or partial).
Intermediate-table width depends on the elimination order — the E12
ablation compares the heuristics of :mod:`repro.solver.heuristics`.

Backends: when the semiring lowers to NumPy ufuncs (see
:mod:`repro.solver.kernels`) the same bucket schedule runs over
:class:`~repro.solver.kernels.DenseFactor` arrays — one broadcast ``⊗``
and one axis-reduction ``⇓`` per bucket instead of a Python loop per
assignment tuple.  The elimination ``ordering``, the statistics and the
resulting table are identical on both backends (bit-identical for the
four lowered semirings); partial orders transparently keep the dict path.
"""

from __future__ import annotations

import hashlib
import time
from dataclasses import replace
from typing import Any, Callable, Dict, List, Optional, Sequence

import numpy as np

from ..caching import LRUCache
from ..constraints.digest import constraint_digest
from ..constraints.operations import combine
from ..constraints.table import TableConstraint, to_table
from ..constraints.variables import Variable, assignment_space_size
from ..telemetry import get_tracer
from .heuristics import OrderingFn, resolve_ordering
from .kernels import (
    DenseFactor,
    KernelError,
    Lowering,
    combine_factors,
    lower_semiring,
    lowers_plainly,
    resolve_lowering,
    stack_factors,
)
from .problem import (
    SCSP,
    ProblemError,
    SolverResult,
    SolverStats,
    record_solve_metrics,
)

#: Default number of materialized eliminated buckets kept warm.
DEFAULT_BUCKET_CACHE_SIZE = 4096


class BucketCache:
    """Digest-keyed memo of *materialized eliminated buckets*.

    A bucket's output — ``(⊗ bucket) ⇓ (scope ∖ {var})`` — is a pure
    function of the eliminated variable and the multiset of input
    factors, so it is cached under a Merkle-style key: SHA-256 over the
    backend, semiring, variable name and the *sorted multiset* of input
    digests (initial factors contribute their extensional
    :func:`~repro.constraints.digest.constraint_digest`; intermediates
    contribute the key of the bucket that produced them).  A
    :class:`~repro.constraints.store.FactoredStore` delta (``tell``/
    ``retract``/``update``) then only re-eliminates the buckets whose
    input digests actually changed — every untouched bucket is answered
    from the memo, factor object identity notwithstanding.

    Entries hold immutable factors (dense arrays or tuple tables that
    are never written after construction), so sharing them across solves
    and threads is safe; the LRU itself is the shared thread-safe
    :class:`~repro.caching.LRUCache` under the name ``"buckets"``
    (visible in :func:`repro.caching.cache_stats` and the
    ``cache_*_total{cache="buckets"}`` telemetry counters).
    """

    def __init__(self, maxsize: int = DEFAULT_BUCKET_CACHE_SIZE) -> None:
        self._lru = LRUCache(maxsize, name="buckets", threadsafe=True)

    def get(self, key: str) -> Optional[tuple]:
        return self._lru.get(key)

    def put(self, key: str, value: tuple) -> None:
        self._lru.put(key, value)

    def clear(self) -> None:
        self._lru.clear()

    def stats(self) -> Dict[str, int]:
        return self._lru.stats()

    def __len__(self) -> int:
        return len(self._lru)


_shared_bucket_cache: Optional[BucketCache] = None


def shared_bucket_cache() -> BucketCache:
    """The process-wide bucket memo (created lazily) — the store's query
    paths and the batch scheduler share it so a delta re-solve hits the
    buckets a previous version of the same store materialized."""
    global _shared_bucket_cache
    if _shared_bucket_cache is None:
        _shared_bucket_cache = BucketCache()
    return _shared_bucket_cache


def clear_bucket_cache() -> None:
    """Drop every materialized bucket (tests and benchmarks)."""
    if _shared_bucket_cache is not None:
        _shared_bucket_cache.clear()


def _bucket_key(
    backend_label: str,
    semiring: Any,
    var_name: str,
    input_digests: Sequence[str],
) -> str:
    """The Merkle key (and output digest) of one eliminated bucket."""
    piece = hashlib.sha256()
    piece.update(
        f"bucket {backend_label};{semiring!r};{var_name};".encode()
    )
    for digest in sorted(input_digests):
        piece.update(digest.encode())
    return piece.hexdigest()


def eliminate(
    problem: SCSP,
    ordering: str | OrderingFn = "min-degree",
    backend: str = "auto",
    bucket_cache: Optional[BucketCache] = None,
) -> tuple[TableConstraint, SolverStats]:
    """Return ``Sol(P)`` as an explicit table plus work statistics.

    ``backend`` selects the bucket representation: ``"dict"`` forces the
    tuple-table path, ``"dense"`` requires the vectorized kernels (and
    raises :class:`ProblemError` when the semiring does not lower), and
    ``"auto"`` uses dense whenever possible.  ``bucket_cache`` enables
    incremental re-solves: eliminated buckets are looked up (and
    materialized into) the given :class:`BucketCache`, so only buckets
    whose input-factor digests changed since a previous solve are
    recomputed.  The cache never changes results — a key is a pure
    function of a bucket's inputs — only which buckets are recomputed.
    """
    solution, stats = _eliminate(problem, ordering, backend, bucket_cache)
    if isinstance(solution, DenseFactor):
        solution = solution.to_table()
    return solution, stats


def _eliminate(
    problem: SCSP,
    ordering: str | OrderingFn,
    backend: str,
    bucket_cache: Optional[BucketCache],
) -> tuple["DenseFactor | TableConstraint", SolverStats]:
    """:func:`eliminate`, leaving a dense ``Sol(P)`` as its array.

    The dict path keeps its own table ``⊗``/``⇓``, so the dense≡dict
    suites compare two implementations of the operators over one
    schedule.
    """
    semiring = problem.semiring
    try:
        lowering = resolve_lowering(semiring, backend)
    except KernelError as exc:
        raise ProblemError(str(exc)) from None
    if lowering is not None:
        return _bucket_schedule(
            problem,
            ordering,
            [
                DenseFactor.from_constraint(c, lowering)
                for c in problem.constraints
            ],
            combine_factors,
            DenseFactor.hide,
            bucket_cache,
            "dense",
        )
    solution, stats = _bucket_schedule(
        problem,
        ordering,
        [to_table(c) for c in problem.constraints],
        lambda bucket: combine(bucket, semiring=semiring),
        lambda combined, name: to_table(combined.hide(name)),
        bucket_cache,
        "dict",
    )
    return to_table(solution), stats


def _bucket_schedule(
    problem: SCSP,
    ordering: str | OrderingFn,
    pool: List[Any],
    combine_all: Callable[[List[Any]], Any],
    hide: Callable[[Any, str], Any],
    bucket_cache: Optional[BucketCache] = None,
    label: str = "dense",
) -> tuple[Any, SolverStats]:
    """The bucket schedule, written once for every factor representation.

    ``pool`` holds ``problem``'s constraints in one representation (dict
    tables, dense factors, or batch-stacked dense factors), and
    ``combine_all``/``hide`` are that representation's ``⊗`` over a
    bucket and ``∃x``.  Each non-interest variable, in ``ordering``, is
    eliminated by combining the factors that mention it and hiding it.
    With a ``bucket_cache`` every bucket is first looked up under its
    Merkle key (``label`` keeps representations apart) and stored after
    it is computed.  Returns ``(⊗ pool) ⇓ con`` and the work statistics.
    """
    stats = SolverStats()
    con_set = set(problem.con)
    to_eliminate = [
        var
        for var in resolve_ordering(ordering)(
            problem.variables, problem.constraints
        )
        if var.name not in con_set
    ]
    digests: Optional[Dict[int, str]] = None
    if bucket_cache is not None:
        digests = {
            id(factor): constraint_digest(constraint)
            for factor, constraint in zip(pool, problem.constraints)
        }
    for var in to_eliminate:
        bucket = [f for f in pool if var.name in f.support]
        if not bucket:
            continue
        rest = [f for f in pool if var.name not in f.support]
        stats.buckets_processed += 1
        hit = key = None
        if digests is not None:
            key = _bucket_key(
                label,
                problem.semiring,
                var.name,
                [digests[id(f)] for f in bucket],
            )
            hit = bucket_cache.get(key)
            if hit is not None:
                stats.buckets_reused += 1
        if hit is None:
            combined = combine_all(bucket)
            hit = (
                hide(combined, var.name),
                assignment_space_size(combined.scope),
            )
            if key is not None:
                bucket_cache.put(key, hit)
        eliminated, combined_size = hit
        stats.largest_intermediate = max(
            stats.largest_intermediate, combined_size
        )
        if digests is not None:
            digests[id(eliminated)] = key
        pool = rest + [eliminated]
    solution = combine_all(pool).project(problem.con)
    stats.largest_intermediate = max(
        stats.largest_intermediate, assignment_space_size(solution.scope)
    )
    return solution, stats


def eliminate_batch(
    problems: Sequence[SCSP],
    ordering: str | OrderingFn = "min-degree",
    backend: str = "auto",
) -> List[tuple[TableConstraint, SolverStats]]:
    """Bucket-eliminate B topology-sharing problems in one stacked sweep.

    Every problem must present the same constraint *topology*: equal
    scope tuples per constraint position, equal ``con`` and one shared
    semiring (see :func:`~repro.solver.cache.topology_fingerprint` —
    the batch scheduler groups by it).  Tables may differ freely; each
    constraint position is stacked into one
    :class:`~repro.solver.kernels.BatchDenseFactor` (positions where
    all B problems share one constraint object stay broadcast views)
    and the ordinary bucket schedule runs once over the batch axis.
    Because every batched operation is the per-instance operation
    broadcast across axis 0, slice ``b`` of the sweep is bit-identical
    to eliminating ``problems[b]`` alone — on either backend.
    """
    return [
        (member.to_table(), member_stats)
        for member, member_stats in _eliminate_batch(
            problems, ordering, backend
        )
    ]


def _eliminate_batch(
    problems: Sequence[SCSP],
    ordering: str | OrderingFn,
    backend: str,
) -> List[tuple[DenseFactor, SolverStats]]:
    """:func:`eliminate_batch`, leaving each ``Sol(P_b)`` as its array."""
    if not problems:
        raise ProblemError("eliminate_batch needs at least one problem")
    head = problems[0]
    semiring = head.semiring
    for position, problem in enumerate(problems[1:], start=1):
        if repr(problem.semiring) != repr(semiring):
            raise ProblemError(
                "batched problems must share one semiring; problem "
                f"{position} uses {problem.semiring.name}"
            )
        if len(problem.constraints) != len(head.constraints) or any(
            theirs.scope != ours.scope
            for theirs, ours in zip(problem.constraints, head.constraints)
        ):
            raise ProblemError(
                f"problem {position} does not share the batch topology "
                "(constraint scopes differ)"
            )
        if problem.con != head.con:
            raise ProblemError(
                f"problem {position} does not share the batch topology "
                f"(con {problem.con!r} != {head.con!r})"
            )
    try:
        lowering = resolve_lowering(semiring, backend)
    except KernelError as exc:
        raise ProblemError(str(exc)) from None
    if lowering is None:
        raise ProblemError(
            f"batched elimination needs a lowerable semiring; "
            f"{semiring.name} has no ufunc pair"
        )
    pool = [
        stack_factors(
            [
                DenseFactor.from_constraint(p.constraints[j], lowering)
                for p in problems
            ]
        )
        for j in range(len(head.constraints))
    ]
    solution, stats = _bucket_schedule(
        head, ordering, pool, combine_factors, DenseFactor.hide
    )
    return [(member, replace(stats)) for member in solution.split()]


def _result_from_solution(
    problem: SCSP,
    solution: "DenseFactor | TableConstraint",
    stats: SolverStats,
) -> SolverResult:
    """Build the :class:`SolverResult` payload from ``Sol(P)``.

    A dense solution under a plain lowering is read on its array: the
    plus-reduction gives the best value, ``flatnonzero`` its optima in
    row-major order — the order :func:`_result_from_table` walks a
    table in, and the blevel and frontier are the first hit, as that
    walk's left folds keep the first of equal values.  Any other
    solution takes the table walk.
    """
    if not isinstance(solution, DenseFactor):
        return _result_from_table(problem, solution, stats)
    lowering = solution.lowering
    if not lowers_plainly(lowering.semiring):
        return _result_from_table(problem, solution.to_table(), stats)
    flat = solution.array.reshape(-1)
    hits = np.flatnonzero(flat == lowering.plus.reduce(flat))
    blevel = lowering.unlift(flat[hits[0]])
    names = solution.support
    return SolverResult(
        problem=problem,
        blevel=blevel,
        frontier=[blevel],
        optima=[
            [dict(zip(names, key)) for key in _keys_at(solution.scope, hits)]
        ],
        method="elimination",
        stats=stats,
    )


def _result_from_table(
    problem: SCSP, table: TableConstraint, stats: SolverStats
) -> SolverResult:
    """Build the :class:`SolverResult` payload from ``Sol(P)``'s table."""
    semiring = problem.semiring
    values: Dict[tuple, Any] = {}
    names = table.support
    # The solution table normally comes out of `to_table`/
    # `DenseFactor.to_table` with every tuple explicit, so defaults are
    # irrelevant and the sparse walk avoids re-enumerating the assignment
    # space.  A degenerate problem (single table, nothing eliminated or
    # projected) can surface the user's sparse table unchanged — only
    # then do defaulted tuples matter.
    if len(table.table) == assignment_space_size(table.scope):
        entries = table.sparse_items()
    else:
        entries = table.items()
    for key, value in entries:
        values[key] = value
    blevel = semiring.sum(values.values())
    frontier = semiring.max_elements(values.values())
    optima = [
        [
            dict(zip(names, key))
            for key, value in values.items()
            if value == fv
        ]
        for fv in frontier
    ]
    return SolverResult(
        problem=problem,
        blevel=blevel,
        frontier=frontier,
        optima=optima,
        method="elimination",
        stats=stats,
    )


def solve_elimination(
    problem: SCSP,
    ordering: str | OrderingFn = "min-degree",
    backend: str = "auto",
    bucket_cache: Optional[BucketCache] = None,
) -> SolverResult:
    """Solve via bucket elimination; exact for partial orders too."""
    semiring = problem.semiring
    used_backend = _backend_label(semiring, backend)
    started = time.perf_counter()
    with get_tracer().span(
        "solver.solve", method="elimination", problem=problem.name
    ):
        solution, stats = _eliminate(problem, ordering, backend, bucket_cache)
    record_solve_metrics(
        "elimination",
        stats,
        time.perf_counter() - started,
        backend=used_backend,
    )
    return _result_from_solution(problem, solution, stats)


def solve_elimination_batch(
    problems: Sequence[SCSP],
    ordering: str | OrderingFn = "min-degree",
    backend: str = "auto",
) -> List[SolverResult]:
    """Solve B topology-sharing problems in one stacked bucket sweep.

    Returns one :class:`SolverResult` per problem, in submission order,
    each bit-identical to ``solve_elimination(problems[b])`` (the sweep
    is the per-instance schedule broadcast over the batch axis).  Wall
    time is reported to telemetry amortized — ``elapsed / B`` per member
    — so ``solver_solve_seconds`` keeps meaning per-solve cost.
    """
    started = time.perf_counter()
    with get_tracer().span(
        "solver.solve-batch", method="elimination", size=len(problems)
    ):
        eliminated = _eliminate_batch(problems, ordering, backend)
    elapsed = time.perf_counter() - started
    results: List[SolverResult] = []
    for problem, (solution, stats) in zip(problems, eliminated):
        record_solve_metrics(
            "elimination",
            stats,
            elapsed / len(problems),
            backend="dense",
        )
        results.append(_result_from_solution(problem, solution, stats))
    return results


def fits_nested_dense(
    problem: SCSP,
    backend: str = "auto",
    options: Optional[Dict[str, Any]] = None,
) -> bool:
    """Whether ``solve(method="auto")`` answers ``problem`` with
    :func:`solve_nested_dense` rather than branch & bound.

    The one case: a plain (non-composite) lowered total order, a backend
    that lowers, at most two constraints with one scope containing the
    other, and no option beyond branch & bound's ``ordering`` and
    ``lookahead``.  More factors, composites and the dict backend stay
    on branch & bound.
    """
    if backend not in ("auto", "dense") or len(problem.constraints) > 2:
        return False
    if not set(options or ()) <= {"ordering", "lookahead"}:
        return False
    if len(problem.constraints) == 2:
        first, second = (set(c.support) for c in problem.constraints)
        if not (first <= second or second <= first):
            return False
    return lowers_plainly(problem.semiring)


def solve_nested_dense(
    problem: SCSP, ordering: str | OrderingFn = "max-degree"
) -> SolverResult:
    """Branch & bound's exact answer to a problem
    :func:`fits_nested_dense` accepts, computed on one dense array.

    With at most two factors whose scopes nest, ``⊗C`` is no larger
    than the bigger factor, which is already compiled.  The joint is
    built in branch & bound's own fold — ``one`` ⊗ each factor in its
    activation order (deepest branching variable first reached, ties in
    problem order) — so every leaf value is bit-identical to the search.
    Branch & bound keeps the first leaf reaching the best value and
    every later leaf equal to it, and never prunes such a leaf (its
    bound is never below it).  With the joint's axes in the branching
    order, its DFS order is row-major: the blevel is the first hit and
    the optima are the hits, projected onto ``con`` and deduplicated
    exactly as the search does.  A best value equal to ``zero`` has no
    optima, as in the search.  The statistics count every leaf as
    evaluated and no search node as expanded; telemetry labels the solve
    ``elimination`` on the dense backend.
    """
    semiring = problem.semiring
    lowering = lower_semiring(semiring)
    started = time.perf_counter()
    order = tuple(
        resolve_ordering(ordering)(problem.variables, problem.constraints)
    )
    depth = {var.name: index for index, var in enumerate(order)}
    activation = sorted(
        problem.constraints,
        key=lambda c: max((depth[name] for name in c.support), default=-1),
    )
    with get_tracer().span(
        "solver.solve", method="elimination", problem=problem.name
    ):
        one = np.full(
            tuple(var.size for var in order), semiring.one, lowering.dtype
        )
        joint = combine_factors(
            [DenseFactor(lowering, order, one)]
            + [DenseFactor.from_constraint(c, lowering) for c in activation]
        )
        flat = joint.array.reshape(-1)
        best = lowering.plus.reduce(flat)
        projected: List[Dict[str, Any]] = []
        if best == semiring.zero:
            blevel = semiring.zero
        else:
            hits = np.flatnonzero(flat == best)
            blevel = lowering.unlift(flat[hits[0]])
            con_set = set(problem.con)
            picks = sorted(
                (var.name, index)
                for index, var in enumerate(order)
                if var.name in con_set
            )
            seen: set = set()
            for key in _keys_at(order, hits):
                witness = tuple((name, key[index]) for name, index in picks)
                if witness not in seen:
                    seen.add(witness)
                    projected.append(dict(witness))
    stats = SolverStats(
        leaves_evaluated=flat.size, largest_intermediate=flat.size
    )
    record_solve_metrics(
        "elimination", stats, time.perf_counter() - started, backend="dense"
    )
    return SolverResult(
        problem=problem,
        blevel=blevel,
        frontier=[blevel],
        optima=[projected],
        method="elimination",
        stats=stats,
    )


def _keys_at(scope: Sequence[Variable], flat_indices: np.ndarray) -> List[tuple]:
    """The assignment tuples of ``scope`` at row-major ``flat_indices``."""
    if not scope:
        return [()] * len(flat_indices)
    coords = np.unravel_index(flat_indices, tuple(var.size for var in scope))
    columns = [
        [var.domain[i] for i in axis.tolist()]
        for var, axis in zip(scope, coords)
    ]
    return list(zip(*columns))


def _backend_label(semiring: Any, backend: str) -> str:
    """Which representation a solve with ``backend`` will actually use."""
    try:
        lowering: Optional[Lowering] = resolve_lowering(semiring, backend)
    except KernelError:
        return "dense"  # about to raise in eliminate(); label is moot
    return "dict" if lowering is None else "dense"
