"""Service Level Agreements (paper Sec. 4, computation step 5).

A successful negotiation binds client and provider(s) to an agreed
constraint — the final store of the nmsccp run — and its consistency
level.  The SLA also records the optimal resource assignment, so the
runtime monitor knows which operating point was promised.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from typing import Any, Dict, List, Tuple

from ..constraints.constraint import SoftConstraint
from ..constraints.store import ConstraintStore, empty_store
from ..semirings.base import Semiring

_sla_ids = itertools.count(1)


class SLAError(Exception):
    """Raised on malformed agreements."""


@dataclass
class SLA:
    """A signed agreement between a client and one or more providers."""

    client: str
    providers: Tuple[str, ...]
    attribute: str
    semiring: Semiring
    agreed_constraint: SoftConstraint
    agreed_level: Any
    resource_assignment: Dict[str, Any] = field(default_factory=dict)
    service_ids: Tuple[str, ...] = ()
    sla_id: int = field(default_factory=lambda: next(_sla_ids))
    created_at: int = 0
    active: bool = True

    def __post_init__(self) -> None:
        if not self.providers:
            raise SLAError("an SLA needs at least one provider")
        if not self.semiring.is_element(self.agreed_level):
            raise SLAError(
                f"agreed level {self.agreed_level!r} is not a "
                f"{self.semiring.name} element"
            )

    def as_store(self) -> ConstraintStore:
        """The agreement as a constraint store — the final σ of the
        negotiation, rebuilt so later checks (monitoring, renegotiation)
        can reuse the store algebra: ``entails`` for "is this tightening
        already guaranteed?", ``tell`` for drafting amendments.
        """
        return empty_store(self.semiring).tell(
            self.agreed_constraint
        )

    def satisfied_by(self, observed_level: Any) -> bool:
        """Whether an observed quality honours the agreement.

        The observation satisfies the SLA when it is at least as good as
        the agreed level in the semiring order.
        """
        return self.semiring.geq(observed_level, self.agreed_level)

    def terminate(self) -> None:
        self.active = False

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"SLA#{self.sla_id}({self.client!r} ↔ {self.providers!r}, "
            f"{self.attribute}={self.agreed_level!r})"
        )


@dataclass(frozen=True)
class SLAViolation:
    """One detected breach of an SLA."""

    sla_id: int
    attribute: str
    expected: Any
    observed: Any
    at_execution: int
    detail: str = ""

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"violation of SLA#{self.sla_id} [{self.attribute}] at "
            f"execution {self.at_execution}: observed {self.observed!r}, "
            f"agreed {self.expected!r} {self.detail}"
        )


class SLARepository:
    """The current agreement per client and attribute.

    A re-negotiated agreement replaces the one it supersedes — the
    nmsccp ``update`` of the store (paper Sec. 2.1), not a new fact kept
    forever — so a long-running broker holds one SLA per ``(client,
    attribute)`` pair.  A superseded SLA leaves the index but is not
    terminated.
    """

    def __init__(self) -> None:
        self._by_client: Dict[str, Dict[str, SLA]] = {}

    def add(self, sla: SLA) -> None:
        self._by_client.setdefault(sla.client, {})[sla.attribute] = sla

    def for_client(self, client: str) -> List[SLA]:
        """The client's current SLAs, at most one per attribute."""
        return list(self._by_client.get(client, {}).values())

    def __len__(self) -> int:
        return sum(len(slas) for slas in list(self._by_client.values()))

    def __iter__(self):
        return (
            sla
            for slas in list(self._by_client.values())
            for sla in list(slas.values())
        )
