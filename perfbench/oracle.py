"""The agreement oracle, run outside every timed window.

Each distinct (requirement, candidate) problem a run saw is solved once
more with ``solve(method="exhaustive")`` — the program's reference
backend, which enumerates every assignment — and each distinct session
outcome is judged against those reference levels:

* ``completed``: some candidate the broker considered passes the
  reference acceptance, the SLA carries the best level among those that
  pass, and its provider is one of the candidates reaching that level;
* ``degraded``: the served (last-known) SLA carries the reference level
  of the problem between this requirement and the provider it binds.
  Which candidates were visible when it was signed is not recorded, so
  optimality across providers is checked only for completed sessions;
* ``rejected``: no candidate passes the reference acceptance (a
  rejection with no candidate at all is correct by definition);
* any other status, or an internal error, is a failure.
"""

from __future__ import annotations

from typing import Any, Dict, List, Optional, Tuple

from repro.soa.qos import compile_document
from repro.solver import SCSP, solve

from drive import FAILED_STATUSES


class Oracle:
    """Reference levels for one workload's market and stream."""

    def __init__(self, stream: Any, registry: Any) -> None:
        self.stream = stream
        self.descriptions = {
            description.service_id: description
            for description in registry.find(include_unavailable=True)
        }
        self._levels: Dict[Tuple[Any, str], Any] = {}

    @property
    def problems_solved(self) -> int:
        return len(self._levels)

    def level(self, key: Any, service_id: str) -> Any:
        """The exhaustive blevel of requirement ``key`` ⊗ offer."""
        memo = (key[0], service_id)
        if memo not in self._levels:
            requirements, _ = self.stream.requirements(key)
            semiring = requirements[0].semiring
            pool = {
                var.name: var
                for constraint in requirements
                for var in constraint.scope
            }
            offer = compile_document(
                self.descriptions[service_id].qos,
                self.stream.attribute,
                semiring,
                pool,
            )
            result = solve(
                SCSP(list(requirements) + offer, name=service_id),
                method="exhaustive",
            )
            self._levels[memo] = result.blevel
        return self._levels[memo]

    def _accepts(self, key: Any, level: Any) -> bool:
        """The acceptance interval's check on a store whose consistency
        is ``level`` (paper Fig. 3, case C1)."""
        _, acceptance = self.stream.requirements(key)
        if acceptance is None:
            return True
        semiring = acceptance.semiring
        if acceptance.lower is not None and semiring.lt(level, acceptance.lower):
            return False
        if acceptance.upper is not None and semiring.gt(level, acceptance.upper):
            return False
        return True

    def judge(self, outcome: tuple) -> Optional[str]:
        """``None`` when ``outcome`` is right, else why it is wrong."""
        key, status, service, level, candidates = outcome
        if status in FAILED_STATUSES:
            return f"session ended {status}"
        if status == "degraded":
            expected = self.level(key, service)
            if level != expected:
                return f"degraded SLA level {level!r}, reference {expected!r}"
            return None
        accepted = {
            candidate: self.level(key, candidate)
            for candidate in candidates
            if self._accepts(key, self.level(key, candidate))
        }
        if status == "rejected":
            if accepted:
                return f"rejected, but {sorted(accepted)} pass acceptance"
            return None
        if status != "completed":
            return f"unknown status {status!r}"
        if not accepted:
            return "completed, but no candidate passes acceptance"
        semiring = self.stream.requirements(key)[0][0].semiring
        best = None
        for candidate_level in accepted.values():
            if best is None or semiring.gt(candidate_level, best):
                best = candidate_level
        if level != best:
            return f"agreed level {level!r}, reference optimum {best!r}"
        optimal = sorted(c for c, lv in accepted.items() if lv == best)
        if service not in optimal:
            return f"bound {service!r}, optimal providers {optimal}"
        return None


def verify(oracle: Oracle, outcomes: List[tuple]) -> List[Optional[str]]:
    """Judge every distinct outcome; the verdicts follow ``outcomes``."""
    return [oracle.judge(outcome) for outcome in outcomes]
