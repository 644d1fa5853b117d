"""Invariant checking over the nmsccp configuration graph.

`explore` classifies terminal states; this module checks *path*
properties — the dependability questions one asks about a negotiation:

* ``check_invariant`` — does a store predicate hold in **every** reachable
  configuration?  (safety: "the consistency never drops below α while
  negotiating");
* ``check_eventually`` — does every maximal run **reach** a configuration
  satisfying a predicate?  (liveness-on-finite-graphs: "every schedule
  ends in an agreement at level 2");
* counterexamples come back as the actual transition path, replayable
  against the operational semantics.

All checks are exact on finite reachable graphs (the usual case: finite
domains and bounded policies) and report truncation otherwise.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from typing import Callable, List, Optional, Tuple

from ..constraints.store import ConstraintStore, empty_store
from ..semirings.base import Semiring
from .procedures import EMPTY_PROCEDURES, ProcedureTable
from .syntax import Agent
from .transitions import Configuration, Step, config_key, successors

StorePredicate = Callable[[ConstraintStore], bool]


@dataclass
class Counterexample:
    """A concrete path refuting a property."""

    path: List[Step]
    configuration: Configuration
    reason: str

    @property
    def length(self) -> int:
        return len(self.path)

    def describe(self) -> str:
        lines = [f"counterexample ({self.reason}), {self.length} step(s):"]
        lines.extend(
            f"  {i}: {step.rule} {step.action}"
            for i, step in enumerate(self.path)
        )
        lines.append(f"  reaches: {self.configuration.describe()}")
        return "\n".join(lines)


@dataclass
class VerificationResult:
    """Outcome of a graph check."""

    holds: bool
    counterexample: Optional[Counterexample] = None
    configurations_checked: int = 0
    truncated: bool = False

    def __bool__(self) -> bool:
        return self.holds


def _initial(
    agent: Agent,
    store: Optional[ConstraintStore],
    semiring: Optional[Semiring],
) -> Configuration:
    if store is None:
        if semiring is None:
            raise ValueError("need either a store or a semiring")
        store = empty_store(semiring)
    return Configuration(agent, store)


def check_invariant(
    agent: Agent,
    predicate: StorePredicate,
    store: Optional[ConstraintStore] = None,
    semiring: Optional[Semiring] = None,
    procedures: ProcedureTable = EMPTY_PROCEDURES,
    max_configurations: int = 50_000,
) -> VerificationResult:
    """Safety: ``predicate(σ)`` in every reachable configuration.

    BFS with parent pointers, so a violation returns the shortest
    refuting path.
    """
    initial = _initial(agent, store, semiring)
    result = VerificationResult(holds=True)

    if not predicate(initial.store):
        result.holds = False
        result.counterexample = Counterexample(
            [], initial, "initial store violates the invariant"
        )
        return result

    seen = {config_key(initial)}
    queue: deque[Tuple[Configuration, List[Step]]] = deque(
        [(initial, [])]
    )
    while queue:
        if result.configurations_checked >= max_configurations:
            result.truncated = True
            break
        configuration, path = queue.popleft()
        result.configurations_checked += 1
        for step in successors(configuration, procedures):
            key = config_key(step.configuration)
            if key in seen:
                continue
            seen.add(key)
            new_path = path + [step]
            if not predicate(step.configuration.store):
                result.holds = False
                result.counterexample = Counterexample(
                    new_path,
                    step.configuration,
                    "store violates the invariant",
                )
                return result
            queue.append((step.configuration, new_path))
    return result


def check_eventually(
    agent: Agent,
    predicate: StorePredicate,
    store: Optional[ConstraintStore] = None,
    semiring: Optional[Semiring] = None,
    procedures: ProcedureTable = EMPTY_PROCEDURES,
    max_configurations: int = 50_000,
    require_success: bool = False,
) -> VerificationResult:
    """Every *maximal* run reaches a configuration satisfying the
    predicate (and, with ``require_success``, terminates in success).

    A maximal run ends in a terminal/stuck configuration or a cycle; the
    check fails when some stuck state (or cycle re-entry) is reached with
    the predicate never having held along the way.
    """
    initial = _initial(agent, store, semiring)
    result = VerificationResult(holds=True)

    # State = (configuration, predicate already satisfied on this path?).
    start_satisfied = predicate(initial.store) and not require_success
    seen = {(config_key(initial), start_satisfied)}
    queue: deque[Tuple[Configuration, bool, List[Step]]] = deque(
        [(initial, start_satisfied, [])]
    )
    while queue:
        if result.configurations_checked >= max_configurations:
            result.truncated = True
            break
        configuration, satisfied, path = queue.popleft()
        result.configurations_checked += 1
        steps = successors(configuration, procedures)
        if not steps:
            terminal_ok = satisfied or (
                predicate(configuration.store)
                and (configuration.is_terminal or not require_success)
            )
            if require_success and not configuration.is_terminal:
                terminal_ok = False
            if not terminal_ok:
                result.holds = False
                result.counterexample = Counterexample(
                    path,
                    configuration,
                    "maximal run ends without satisfying the property",
                )
                return result
            continue
        for step in steps:
            next_satisfied = satisfied or (
                predicate(step.configuration.store)
                and (
                    not require_success
                    or step.configuration.is_terminal
                )
            )
            key = (config_key(step.configuration), next_satisfied)
            if key in seen:
                continue
            seen.add(key)
            queue.append(
                (step.configuration, next_satisfied, path + [step])
            )
    return result


def consistency_invariant(
    semiring: Semiring, worst_acceptable
) -> StorePredicate:
    """Sugar: 'σ⇓∅ never drops below ``worst_acceptable``' (¬< — see the
    Fig. 3 convention for partial orders)."""

    def predicate(store: ConstraintStore) -> bool:
        return not semiring.lt(store.consistency(), worst_acceptable)

    return predicate
