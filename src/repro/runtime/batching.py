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
agreement is bit-identical to an unbatched run at any batch size.

Lowerable problems are routed through bucket elimination (the batchable
method) whether or not they end up sharing a batch, so a scheduler's
answers are self-consistent across window/batch-size settings; problems
whose semiring has no ufunc lowering bypass coalescing entirely and take
the ordinary ``method="auto"`` path.  Per-session solve caches are
checked *before* joining a group (a warm repeat never pays the window)
and written back per member after the sweep.
"""

from __future__ import annotations

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
    """One session's queued solve."""

    __slots__ = ("problem", "key", "cache", "done", "result", "error")

    def __init__(
        self,
        problem: SCSP,
        key: Optional[str],
        cache: Optional[SolveCache],
    ) -> None:
        self.problem = problem
        self.key = key
        self.cache = cache
        self.done = threading.Event()
        self.result: Optional[SolverResult] = None
        self.error: Optional[BaseException] = None


class _Group:
    """One open coalescing window for one topology fingerprint."""

    __slots__ = ("entries", "full")

    def __init__(self) -> None:
        self.entries: List[_Entry] = []
        self.full = threading.Event()


class BatchScheduler:
    """Coalesces concurrent solves by topology into stacked sweeps.

    Thread-safe and passive: it owns no threads, so there is nothing to
    start or stop — group leaders do the dispatching from whatever
    worker pool calls :meth:`solve`.  One scheduler serves one broker
    (the fleet builds one per shard); sharing one across brokers is safe
    because each queued entry carries its own solve cache.
    """

    def __init__(self, config: Optional[BatchConfig] = None) -> None:
        self.config = config or BatchConfig()
        self._lock = threading.Lock()
        self._groups: Dict[str, _Group] = {}
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

        fingerprint = topology_fingerprint(problem)
        entry = _Entry(problem, key, cache)
        with self._lock:
            group = self._groups.get(fingerprint)
            leader = group is None
            if leader:
                group = _Group()
                self._groups[fingerprint] = group
            group.entries.append(entry)
            if len(group.entries) >= self.config.max_batch:
                if self._groups.get(fingerprint) is group:
                    del self._groups[fingerprint]
                group.full.set()

        if not leader:
            self._count("join")
            entry.done.wait()
            if entry.error is not None:
                raise entry.error
            assert entry.result is not None
            return entry.result

        self._count("lead")
        try:
            group.full.wait(self.config.window_ms / 1000.0)
            with self._lock:
                if self._groups.get(fingerprint) is group:
                    del self._groups[fingerprint]
                entries = list(group.entries)
            self._execute(entries)
        except BaseException as exc:
            for queued in group.entries:
                if not queued.done.is_set():
                    queued.error = exc
                    queued.done.set()
            raise
        if entry.error is not None:
            raise entry.error
        assert entry.result is not None
        return entry.result

    # ------------------------------------------------------------------
    # Dispatch
    # ------------------------------------------------------------------

    def _execute(self, entries: List[_Entry]) -> None:
        """One stacked solve for a closed group, fanned back in
        submission order."""
        problems = [queued.problem for queued in entries]
        try:
            results = solve_elimination_batch(problems)
        except BaseException as exc:
            for queued in entries:
                queued.error = exc
                queued.done.set()
            return
        self.batches_dispatched += 1
        self.sessions_batched += len(entries)
        self.largest_batch = max(self.largest_batch, len(entries))
        self._observe(len(entries))
        for queued, result in zip(entries, results):
            if queued.cache is not None and queued.key is not None:
                queued.cache.store(queued.key, result)
            queued.result = result
            queued.done.set()

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
        with self._lock:
            open_groups = len(self._groups)
        return {
            "batches_dispatched": self.batches_dispatched,
            "sessions_batched": self.sessions_batched,
            "largest_batch": self.largest_batch,
            "open_groups": open_groups,
        }

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"BatchScheduler(window_ms={self.config.window_ms}, "
            f"max_batch={self.config.max_batch}, "
            f"{self.batches_dispatched} batch(es))"
        )


class _RoundEntry:
    """One session queued into an allocation round."""

    __slots__ = ("request", "verify", "done", "result", "error")

    def __init__(self, request: Any, verify: bool) -> None:
        self.request = request
        self.verify = verify
        self.done = threading.Event()
        self.result: Any = None
        self.error: Optional[BaseException] = None


class RoundScheduler:
    """Coalesces concurrent negotiations into allocation rounds.

    Same leader/follower machinery as :class:`BatchScheduler`, one
    level up the stack: where the batcher coalesces *solves* by
    constraint topology, this coalesces *sessions* by market — the
    group key is ``(operation, attribute, verify)``, so every client
    competing for the same kind of service within one window lands in
    one round and the broker's allocation policy assigns their
    providers jointly (``Broker.negotiate_round``).  Passive and
    thread-safe: the first arrival leads, waits out ``window_ms`` (or
    until ``max_batch`` sessions fill the round), then runs the round
    on its own worker thread and fans results back in submission order.

    With a greedy policy a round of any size reproduces the unbatched
    per-session agreements exactly; the round is where the *fair*
    policy gets to see contention at all.
    """

    def __init__(self, config: Optional[BatchConfig] = None) -> None:
        self.config = config or BatchConfig()
        self._lock = threading.Lock()
        self._groups: Dict[Any, _Group] = {}
        self._round_seq = 0
        #: Plain counters mirrored into telemetry.
        self.rounds_dispatched = 0
        self.sessions_rounded = 0
        self.largest_round = 0

    def negotiate(
        self, broker: Any, request: Any, verify: bool = False
    ) -> Any:
        """Serve one session, coalescing with concurrent same-market
        callers into a single allocation round."""
        if self.config.max_batch == 1:
            return self._dispatch(broker, [_RoundEntry(request, verify)])

        fingerprint = (request.operation, request.attribute, bool(verify))
        entry = _RoundEntry(request, verify)
        with self._lock:
            group = self._groups.get(fingerprint)
            leader = group is None
            if leader:
                group = _Group()
                self._groups[fingerprint] = group
            group.entries.append(entry)  # type: ignore[arg-type]
            if len(group.entries) >= self.config.max_batch:
                if self._groups.get(fingerprint) is group:
                    del self._groups[fingerprint]
                group.full.set()

        if not leader:
            entry.done.wait()
            if entry.error is not None:
                raise entry.error
            return entry.result

        group.full.wait(self.config.window_ms / 1000.0)
        with self._lock:
            if self._groups.get(fingerprint) is group:
                del self._groups[fingerprint]
            entries = list(group.entries)
        return self._dispatch(broker, entries, lead=entry)

    def _dispatch(
        self,
        broker: Any,
        entries: List[Any],
        lead: Optional[_RoundEntry] = None,
    ) -> Any:
        """Run one closed round and fan results back in submission
        order; ``lead`` (when set) is the caller's own entry."""
        lead = lead if lead is not None else entries[0]
        with self._lock:
            self._round_seq += 1
            round_id = self._round_seq
        try:
            results = broker.negotiate_round(
                [queued.request for queued in entries],
                verify_scheduler_independence=entries[0].verify,
                round_id=round_id,
            )
        except BaseException as exc:
            for queued in entries:
                if not queued.done.is_set():
                    queued.error = exc
                    queued.done.set()
            raise
        self.rounds_dispatched += 1
        self.sessions_rounded += len(entries)
        self.largest_round = max(self.largest_round, len(entries))
        for queued, result in zip(entries, results):
            queued.result = result
            queued.done.set()
        for queued in entries:
            # A policy returning too few results must not strand
            # followers on their event.
            if not queued.done.is_set():
                queued.error = BatchingError(
                    "allocation policy returned fewer results than "
                    "sessions in the round"
                )
                queued.done.set()
        if lead.error is not None:
            raise lead.error
        return lead.result

    def stats(self) -> Dict[str, Any]:
        with self._lock:
            open_groups = len(self._groups)
        return {
            "rounds_dispatched": self.rounds_dispatched,
            "sessions_rounded": self.sessions_rounded,
            "largest_round": self.largest_round,
            "open_groups": open_groups,
        }

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"RoundScheduler(window_ms={self.config.window_ms}, "
            f"max_batch={self.config.max_batch}, "
            f"{self.rounds_dispatched} round(s))"
        )
