"""Running nmsccp programs: single scheduled runs and exhaustive search.

``run`` drives one execution under a scheduler until success, deadlock or
step budget; ``explore`` walks the whole reachable configuration graph,
classifying terminal states — the tool used to prove that a negotiation
outcome (like Example 1's failure) does not depend on the interleaving.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field
from enum import Enum
from typing import List, Optional

from ..constraints.store import ConstraintStore, empty_store
from ..semirings.base import Semiring
from ..telemetry import get_registry, get_tracer
from .procedures import EMPTY_PROCEDURES, ProcedureTable
from .scheduler import DeterministicScheduler, Scheduler
from .syntax import Agent
from .traces import Trace
from .transitions import (
    RULES,
    Configuration,
    config_key,
    successors,
)


def _transition_counter(registry):
    """The per-rule transition counter family, preseeded with R1–R10."""
    return registry.counter(
        "sccp_transitions_total",
        "nmsccp transitions taken, by Fig. 4 rule.",
        labelnames=("rule",),
    ).preseed(RULES)


class Status(Enum):
    """How a run ended."""

    SUCCESS = "success"
    DEADLOCK = "deadlock"
    EXHAUSTED = "exhausted"  # step budget hit — possible livelock


@dataclass
class RunResult:
    """Outcome of a single scheduled execution."""

    status: Status
    configuration: Configuration
    trace: Trace
    steps: int

    @property
    def store(self) -> ConstraintStore:
        return self.configuration.store

    @property
    def succeeded(self) -> bool:
        return self.status is Status.SUCCESS

    def consistency(self):
        """Final ``σ ⇓∅`` — the agreed level of a negotiation."""
        return self.store.consistency()


def run(
    agent: Agent,
    store: Optional[ConstraintStore] = None,
    semiring: Optional[Semiring] = None,
    procedures: ProcedureTable = EMPTY_PROCEDURES,
    scheduler: Optional[Scheduler] = None,
    max_steps: int = 10_000,
) -> RunResult:
    """Execute ``agent`` until success, deadlock, or ``max_steps``.

    Provide either an initial ``store`` or a ``semiring`` (for the empty
    store ``1̄``).  The default scheduler is deterministic-leftmost.
    """
    if store is None:
        if semiring is None:
            raise ValueError("run() needs either a store or a semiring")
        store = empty_store(semiring)
    scheduler = scheduler or DeterministicScheduler()

    registry = get_registry()
    # Hoisted so the step loop pays one bool check when telemetry is off.
    counting = registry.enabled
    transitions = _transition_counter(registry) if counting else None

    configuration = Configuration(agent, store)
    trace = Trace()
    steps_taken = 0
    with get_tracer().span("sccp.run"):
        while steps_taken < max_steps:
            if configuration.is_terminal:
                return _finish(
                    Status.SUCCESS, configuration, trace, steps_taken, registry
                )
            enabled = successors(configuration, procedures)
            if not enabled:
                return _finish(
                    Status.DEADLOCK,
                    configuration,
                    trace,
                    steps_taken,
                    registry,
                )
            step = scheduler.choose(enabled)
            trace.record(step)
            if counting:
                transitions.labels(step.rule).inc()
            configuration = step.configuration
            steps_taken += 1
        status = (
            Status.SUCCESS if configuration.is_terminal else Status.EXHAUSTED
        )
        return _finish(status, configuration, trace, steps_taken, registry)


def _finish(
    status: Status,
    configuration: Configuration,
    trace: Trace,
    steps: int,
    registry,
) -> RunResult:
    if registry.enabled:
        registry.counter(
            "sccp_runs_total",
            "Scheduled nmsccp executions, by final status.",
            labelnames=("status",),
        ).labels(status.value).inc()
        registry.histogram(
            "sccp_run_steps",
            "Transitions per scheduled run.",
            buckets=(1, 2, 5, 10, 25, 50, 100, 250, 1000, 10_000),
        ).observe(steps)
    return RunResult(status, configuration, trace, steps)


@dataclass
class ExplorationResult:
    """Every terminal configuration of the reachable state space."""

    successes: List[Configuration] = field(default_factory=list)
    deadlocks: List[Configuration] = field(default_factory=list)
    configurations_visited: int = 0
    truncated: bool = False

    @property
    def always_succeeds(self) -> bool:
        """True when every maximal run terminates in success."""
        return bool(self.successes) and not self.deadlocks and not self.truncated

    @property
    def never_succeeds(self) -> bool:
        """True when no interleaving reaches success."""
        return not self.successes and not self.truncated

    def success_consistencies(self) -> list:
        """``σ ⇓∅`` of each distinct successful terminal store."""
        return [c.store.consistency() for c in self.successes]


def explore(
    agent: Agent,
    store: Optional[ConstraintStore] = None,
    semiring: Optional[Semiring] = None,
    procedures: ProcedureTable = EMPTY_PROCEDURES,
    max_configurations: int = 50_000,
) -> ExplorationResult:
    """Breadth-first search of the full configuration graph.

    Visited-state pruning uses per-backend store fingerprints (the
    monolith's extensional table, the factored store's multiset digest),
    so the search terminates whenever the reachable store lattice is
    finite.  ``truncated`` reports a hit of the configuration budget
    (results are then lower bounds).
    """
    if store is None:
        if semiring is None:
            raise ValueError("explore() needs either a store or a semiring")
        store = empty_store(semiring)

    initial = Configuration(agent, store)
    result = ExplorationResult()
    seen = {config_key(initial)}
    queue = deque([initial])
    terminal_keys = set()

    with get_tracer().span("sccp.explore"):
        _explore_loop(result, seen, queue, terminal_keys, procedures,
                      max_configurations)
    registry = get_registry()
    if registry.enabled:
        registry.counter(
            "sccp_configurations_visited_total",
            "Configurations expanded by exhaustive exploration.",
        ).inc(result.configurations_visited)
        registry.counter(
            "sccp_explorations_total",
            "Exhaustive explorations, by verdict.",
            labelnames=("verdict",),
        ).labels(
            "truncated"
            if result.truncated
            else ("always-succeeds" if result.always_succeeds else "mixed")
        ).inc()
    return result


def _explore_loop(
    result: ExplorationResult,
    seen: set,
    queue: deque,
    terminal_keys: set,
    procedures: ProcedureTable,
    max_configurations: int,
) -> None:
    while queue:
        if result.configurations_visited >= max_configurations:
            result.truncated = True
            break
        configuration = queue.popleft()
        result.configurations_visited += 1
        if configuration.is_terminal:
            key = config_key(configuration)
            if key not in terminal_keys:
                terminal_keys.add(key)
                result.successes.append(configuration)
            continue
        enabled = successors(configuration, procedures)
        if not enabled:
            key = config_key(configuration)
            if key not in terminal_keys:
                terminal_keys.add(key)
                result.deadlocks.append(configuration)
            continue
        for step in enabled:
            key = config_key(step.configuration)
            if key not in seen:
                seen.add(key)
                queue.append(step.configuration)
