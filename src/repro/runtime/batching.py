"""Request coalescing: one stacked solve for B topology-sharing sessions.

The serving hot path solves one SCSP per candidate per session, and in a
homogeneous market hundreds of concurrent sessions present the *same*
constraint topology with different QoS tables.  The
:class:`BatchScheduler` sits between the broker and the solver: worker
threads (the runtime offloads ``Broker.negotiate`` to a thread pool, so
concurrent sessions really are concurrent callers) enqueue their solves
into per-topology groups keyed by
:func:`~repro.solver.cache.topology_fingerprint`, and each group is
dispatched as **one** stacked sweep over a leading batch axis
(:func:`~repro.solver.elimination.solve_elimination_batch`).

Coalescing is leader/follower, with no dedicated dispatcher thread: the
first arrival for a topology becomes the group's *leader*, waits up to
``window_ms`` for followers (or until ``max_batch`` fills the group),
then closes the group and runs the batched solve on its own worker
thread — "dispatched from the worker pool" literally.  Followers block
on a per-entry event and receive their result (or the batch's
exception) when the leader finishes; results are fanned back in
submission order, and because every batched operation is the
per-instance operation broadcast across the batch axis, each session's
agreement is bit-identical to an unbatched run at any batch size.  The
same coalescer, keyed by market instead of topology, backs
:class:`RoundScheduler`'s allocation rounds.

Lowerable problems are routed through bucket elimination (the batchable
method) whether or not they end up sharing a batch, so a scheduler's
answers are self-consistent across window/batch-size settings; problems
whose semiring has no ufunc lowering bypass coalescing entirely and take
the ordinary ``method="auto"`` path.  Per-session solve caches are
checked *before* joining a group (a warm repeat never pays the window)
and written back per member after the sweep.
"""

from __future__ import annotations

import itertools
import threading
from dataclasses import dataclass
from typing import Any, Dict, List, Optional

from ..solver import (
    SCSP,
    KernelError,
    SolveCache,
    SolverResult,
    problem_fingerprint,
    resolve_lowering,
    solve,
    solve_elimination_batch,
    topology_fingerprint,
)
from ..telemetry import get_registry

#: Histogram buckets for sessions-per-stacked-solve.
BATCH_SIZE_BUCKETS = (1.0, 2.0, 4.0, 8.0, 16.0, 32.0, 64.0, 128.0)

#: The full coalesce-outcome label family, preseeded so snapshots always
#: show every class: ``lead`` started a group, ``join`` rode an existing
#: one, ``solo`` solved alone (``max_batch=1``), ``bypass`` skipped
#: coalescing (non-lowerable semiring), ``cache-hit`` never reached a
#: group.
COALESCE_OUTCOMES = ("lead", "join", "solo", "bypass", "cache-hit")


class BatchingError(Exception):
    """Raised on malformed batching configuration."""


@dataclass(frozen=True)
class BatchConfig:
    """Knobs of the coalescing window (``--batch-window-ms``/
    ``--batch-max``)."""

    #: How long a group leader waits for followers, in milliseconds.
    #: ``0`` dispatches immediately (degenerate batches of ~1).
    window_ms: float = 2.0
    #: Hard cap on sessions per stacked solve; a full group dispatches
    #: without waiting out the window.
    max_batch: int = 32

    def __post_init__(self) -> None:
        if self.window_ms < 0:
            raise BatchingError("window_ms must be >= 0")
        if self.max_batch < 1:
            raise BatchingError("max_batch must be at least 1")


class _Entry:
    """One caller's queued item and, once dispatched, its outcome."""

    __slots__ = ("item", "done", "result", "error")

    def __init__(self, item: Any) -> None:
        self.item = item
        self.done = threading.Event()
        self.result: Any = None
        self.error: Optional[BaseException] = None


class _Group:
    """One open coalescing window for one key."""

    __slots__ = ("entries", "full")

    def __init__(self) -> None:
        self.entries: List[_Entry] = []
        self.full = threading.Event()


class _Coalescer:
    """Keyed leader/follower coalescing, shared by both schedulers.

    The first caller for a key leads a new group; later callers with the
    same key join it, all under one lock.  The group closes when
    ``max_batch`` callers fill it or the leader's ``window_ms`` wait
    expires, and the leader runs :meth:`_dispatch` on the closed group's
    items from its own thread.  Results go back in submission order; an
    exception from the dispatch reaches every member, and a dispatch
    returning too few results fails the members it left out instead of
    stranding them.  Subclasses supply the key, the dispatch, and
    whatever routing happens before :meth:`_coalesce`.
    """

    def __init__(self, config: Optional[BatchConfig] = None) -> None:
        self.config = config or BatchConfig()
        self._lock = threading.Lock()
        self._groups: Dict[Any, _Group] = {}

    def _dispatch(self, items: List[Any]) -> List[Any]:
        """One call for a closed group: a result per item, in order."""
        raise NotImplementedError

    def _joined(self, leader: bool) -> None:
        """Hook: the caller led a new group (or joined an open one)."""

    def _close(self, key: Any, group: _Group) -> None:
        """Stop ``group`` taking members (caller holds the lock)."""
        if self._groups.get(key) is group:
            del self._groups[key]

    def _coalesce(self, key: Any, item: Any) -> Any:
        """Queue ``item`` under ``key`` and return its own result."""
        entry = _Entry(item)
        with self._lock:
            group = self._groups.get(key)
            leader = group is None
            if leader:
                group = self._groups[key] = _Group()
            group.entries.append(entry)
            if len(group.entries) >= self.config.max_batch:
                self._close(key, group)
                group.full.set()
        self._joined(leader)
        if leader:
            self._lead(key, group)
        else:
            entry.done.wait()
        if entry.error is not None:
            raise entry.error
        return entry.result

    def _lead(self, key: Any, group: _Group) -> None:
        """Wait out the window, close ``group``, dispatch it on this
        thread and hand every member its outcome."""
        entries = group.entries
        try:
            group.full.wait(self.config.window_ms / 1000.0)
            with self._lock:
                self._close(key, group)
            results = self._dispatch([queued.item for queued in entries])
        except BaseException as exc:
            self._fail(entries, exc)
            raise
        for queued, result in zip(entries, results):
            queued.result = result
            queued.done.set()
        if len(results) < len(entries):
            self._fail(
                entries,
                BatchingError(
                    f"dispatch returned fewer results ({len(results)}) "
                    f"than sessions in the group ({len(entries)})"
                ),
            )

    @staticmethod
    def _fail(entries: List[_Entry], error: BaseException) -> None:
        """Give ``error`` to every member still waiting."""
        for queued in entries:
            if not queued.done.is_set():
                queued.error = error
                queued.done.set()

    def _open_groups(self) -> int:
        with self._lock:
            return len(self._groups)


class BatchScheduler(_Coalescer):
    """Coalesces concurrent solves by topology into stacked sweeps.

    Thread-safe and passive: it owns no threads, so there is nothing to
    start or stop — group leaders do the dispatching from whatever
    worker pool calls :meth:`solve`.  One scheduler serves one broker
    (the fleet builds one per shard); sharing one across brokers is safe
    because each queued entry carries its own solve cache.
    """

    def __init__(self, config: Optional[BatchConfig] = None) -> None:
        super().__init__(config)
        #: Plain counters mirrored into telemetry (readable when the
        #: registry is disabled — benchmarks assert on these).
        self.batches_dispatched = 0
        self.sessions_batched = 0
        self.largest_batch = 0

    # ------------------------------------------------------------------
    # The broker-facing entry point
    # ------------------------------------------------------------------

    def solve(
        self,
        problem: SCSP,
        cache: Optional[SolveCache] = None,
    ) -> SolverResult:
        """Solve ``problem``, coalescing with concurrent same-topology
        callers when possible."""
        try:
            lowering = resolve_lowering(problem.semiring, "auto")
        except KernelError:
            lowering = None
        if lowering is None:
            # No ufunc lowering — nothing to stack; take the default
            # (method="auto") path unchanged.
            self._count("bypass")
            return solve(problem, cache=cache)

        key: Optional[str] = None
        if cache is not None:
            # Same key solve() would compute for an unbatched
            # elimination call, so batched and singleton solves share
            # warm entries.
            key = problem_fingerprint(problem, "elimination", "auto", {})
            hit = cache.fetch(key, problem)
            if hit is not None:
                self._count("cache-hit")
                return hit

        if self.config.max_batch == 1:
            self._count("solo")
            return solve(problem, method="elimination", cache=cache)

        return self._coalesce(
            topology_fingerprint(problem), (problem, key, cache)
        )

    # ------------------------------------------------------------------
    # Dispatch
    # ------------------------------------------------------------------

    def _joined(self, leader: bool) -> None:
        self._count("lead" if leader else "join")

    def _dispatch(self, items: List[Any]) -> List[SolverResult]:
        """One stacked solve for a closed group; each member's result is
        written back to its own solve cache."""
        results = solve_elimination_batch([problem for problem, _, _ in items])
        # Leaders of different groups dispatch concurrently.
        with self._lock:
            self.batches_dispatched += 1
            self.sessions_batched += len(items)
            self.largest_batch = max(self.largest_batch, len(items))
        self._observe(len(items))
        for (_, key, cache), result in zip(items, results):
            if cache is not None and key is not None:
                cache.store(key, result)
        return results

    # ------------------------------------------------------------------
    # Telemetry
    # ------------------------------------------------------------------

    def _count(self, outcome: str) -> None:
        registry = get_registry()
        if not registry.enabled:
            return
        registry.counter(
            "runtime_batch_coalesce_total",
            "Batch-scheduler routing decisions, by outcome.",
            labelnames=("outcome",),
        ).preseed(COALESCE_OUTCOMES).labels(outcome).inc()

    def _observe(self, size: int) -> None:
        registry = get_registry()
        if not registry.enabled:
            return
        registry.counter(
            "runtime_batches_total", "Stacked batch solves dispatched."
        ).inc()
        registry.histogram(
            "runtime_batch_size",
            "Sessions coalesced per stacked solve.",
            buckets=BATCH_SIZE_BUCKETS,
        ).observe(float(size))

    def stats(self) -> Dict[str, Any]:
        """Dispatch counters (batches, sessions, largest batch, open
        groups) — one row for ``FleetFrontend.cache_stats``-style
        introspection."""
        return {
            "batches_dispatched": self.batches_dispatched,
            "sessions_batched": self.sessions_batched,
            "largest_batch": self.largest_batch,
            "open_groups": self._open_groups(),
        }

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"BatchScheduler(window_ms={self.config.window_ms}, "
            f"max_batch={self.config.max_batch}, "
            f"{self.batches_dispatched} batch(es))"
        )


class RoundScheduler(_Coalescer):
    """Coalesces concurrent negotiations into allocation rounds.

    The same coalescer as :class:`BatchScheduler`, one level up the
    stack: where the batcher coalesces *solves* by constraint topology,
    this coalesces *sessions* by market — the group key is
    ``(operation, attribute, verify)``, so every client competing for
    the same kind of service within one window lands in one round and
    the broker's allocation policy assigns their providers jointly
    (``Broker.negotiate_round``, called on the leader's broker).

    With a greedy policy a round of any size reproduces the unbatched
    per-session agreements exactly; the round is where the *fair*
    policy gets to see contention at all.
    """

    def __init__(self, config: Optional[BatchConfig] = None) -> None:
        super().__init__(config)
        self._round_ids = itertools.count(1)
        #: Plain counters mirrored into telemetry.
        self.rounds_dispatched = 0
        self.sessions_rounded = 0
        self.largest_round = 0

    def negotiate(
        self, broker: Any, request: Any, verify: bool = False
    ) -> Any:
        """Serve one session, coalescing with concurrent same-market
        callers into a single allocation round."""
        key = (request.operation, request.attribute, bool(verify))
        return self._coalesce(key, (broker, request, verify))

    def _dispatch(self, items: List[Any]) -> List[Any]:
        broker, _, verify = items[0]
        results = broker.negotiate_round(
            [request for _, request, _ in items],
            verify_scheduler_independence=verify,
            round_id=next(self._round_ids),
        )
        with self._lock:
            self.rounds_dispatched += 1
            self.sessions_rounded += len(items)
            self.largest_round = max(self.largest_round, len(items))
        return results

    def stats(self) -> Dict[str, Any]:
        return {
            "rounds_dispatched": self.rounds_dispatched,
            "sessions_rounded": self.sessions_rounded,
            "largest_round": self.largest_round,
            "open_groups": self._open_groups(),
        }

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"RoundScheduler(window_ms={self.config.window_ms}, "
            f"max_batch={self.config.max_batch}, "
            f"{self.rounds_dispatched} round(s))"
        )
