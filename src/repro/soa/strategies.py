"""Time-dependent concession tactics for SLA negotiation.

The paper's Examples 1–2 show a provider *relaxing* its policy when
agreement fails; this module supplies the standard tactics deciding
*when* and *how much* to relax (time-dependent functions in the style of
Faratin, Sierra & Jennings, 1998):

* each party owns a **policy ladder** — an ordered list of soft
  constraints from its strictest to its laxest acceptable policy (each
  rung entailed by the previous one: relaxing is a `retract`-like move);
* a tactic maps normalized time ``t/T`` to a rung: **Boulware** (β < 1)
  concedes late, **Conceder** (β > 1) early, β = 1 linearly;
* :func:`alternating_offers` runs the classic protocol on a shared
  store: at each round both parties put their current rungs on the
  table, the broker combines them and checks both acceptance intervals;
  first mutually acceptable round wins, the deadline kills the rest.

Everything is expressed through the store algebra, so an agreement comes
back as an honest constraint (the SLA body) plus its consistency level.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, List, Optional, Sequence

from ..constraints.constraint import SoftConstraint
from ..constraints.operations import combine, constraint_leq
from ..constraints.store import empty_store
from ..sccp.check import CheckSpec
from ..semirings.base import Semiring


class StrategyError(Exception):
    """Raised on malformed ladders or tactic parameters."""


def concession_index(
    step: int, deadline: int, rungs: int, beta: float
) -> int:
    """Which ladder rung to offer at ``step`` of ``deadline``.

    ``index = floor(((step/deadline) ** (1/β)) · (rungs − 1))`` — the
    standard time-dependent decision function: β < 1 keeps the strict
    rungs long (Boulware), β > 1 jumps to lax rungs quickly (Conceder).
    """
    if deadline <= 0:
        raise StrategyError("deadline must be positive")
    if rungs <= 0:
        raise StrategyError("a ladder needs at least one rung")
    if beta <= 0:
        raise StrategyError("beta must be positive")
    t = min(max(step, 0), deadline) / deadline
    fraction = t ** (1.0 / beta)
    return min(rungs - 1, int(fraction * (rungs - 1) + 1e-12))


@dataclass
class Tactic:
    """A policy ladder plus its concession temperament."""

    name: str
    ladder: Sequence[SoftConstraint]
    beta: float = 1.0
    acceptance: Optional[CheckSpec] = None

    def __post_init__(self) -> None:
        if not self.ladder:
            raise StrategyError(f"{self.name}: empty policy ladder")
        if self.beta <= 0:
            raise StrategyError(f"{self.name}: beta must be positive")

    def offer_at(self, step: int, deadline: int) -> SoftConstraint:
        index = concession_index(step, deadline, len(self.ladder), self.beta)
        return self.ladder[index]

    def validate_ladder_monotone(self) -> bool:
        """Whether each rung genuinely relaxes the previous one
        (``rung_{i} ⊑ rung_{i+1}``: later offers are weaker constraints).
        """
        return all(
            constraint_leq(stricter, laxer)
            for stricter, laxer in zip(self.ladder, self.ladder[1:])
        )


def boulware(
    name: str,
    ladder: Sequence[SoftConstraint],
    acceptance: Optional[CheckSpec] = None,
    beta: float = 0.3,
) -> Tactic:
    """Concede late (hold the strict policy almost to the deadline)."""
    if beta >= 1:
        raise StrategyError("Boulware needs beta < 1")
    return Tactic(name, ladder, beta=beta, acceptance=acceptance)


def conceder(
    name: str,
    ladder: Sequence[SoftConstraint],
    acceptance: Optional[CheckSpec] = None,
    beta: float = 3.0,
) -> Tactic:
    """Concede early (drop to lax policies quickly)."""
    if beta <= 1:
        raise StrategyError("Conceder needs beta > 1")
    return Tactic(name, ladder, beta=beta, acceptance=acceptance)


@dataclass
class NegotiationRound:
    """What was on the table at one round."""

    step: int
    offers: List[int]  # rung index per party
    consistency: Any
    accepted: bool


@dataclass
class ProtocolOutcome:
    """Result of an alternating-offers run."""

    agreed: bool
    at_step: Optional[int]
    agreement: Optional[SoftConstraint]
    agreed_level: Any
    rounds: List[NegotiationRound] = field(default_factory=list)

    def concession_curve(self) -> List[Any]:
        """The consistency trail over rounds (the plot a dashboard shows)."""
        return [r.consistency for r in self.rounds]


def alternating_offers(
    semiring: Semiring,
    parties: Sequence[Tactic],
    deadline: int,
) -> ProtocolOutcome:
    """Run the rounds until every acceptance interval holds, or time out.

    At round ``t`` each party offers its tactic's rung; the round's store
    (one told factor per offer) must satisfy *every* party's acceptance
    check (a missing check accepts anything consistent).
    """
    if not parties:
        raise StrategyError("alternating_offers needs parties")
    outcome = ProtocolOutcome(
        agreed=False, at_step=None, agreement=None, agreed_level=semiring.zero
    )
    for step in range(deadline + 1):
        offers = [
            party.offer_at(step, deadline) for party in parties
        ]
        indices = [
            concession_index(step, deadline, len(p.ladder), p.beta)
            for p in parties
        ]
        merged = combine(list(offers), semiring=semiring)
        store = empty_store(semiring)
        for offer in offers:
            store = store.tell(offer)
        consistency = store.consistency()
        acceptable = all(
            party.acceptance is None or party.acceptance.holds(store)
            for party in parties
        ) and semiring.gt(consistency, semiring.zero)
        outcome.rounds.append(
            NegotiationRound(step, indices, consistency, acceptable)
        )
        if acceptable:
            outcome.agreed = True
            outcome.at_step = step
            outcome.agreement = merged
            outcome.agreed_level = consistency
            return outcome
    return outcome
