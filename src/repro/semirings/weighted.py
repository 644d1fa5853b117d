"""The Weighted semiring ``⟨ℝ⁺ ∪ {∞}, min, +, ∞, 0⟩``.

Models *additive* metrics (paper Sec. 4): costs, downtime hours, money —
quantities that accumulate under composition and should be minimized.
The negotiation Examples 1–3 of the paper run over this instance (the
preference is the number of hours spent managing failures).

Note the *inverted* order: the semiring ``+`` is numeric ``min``, so
``a ≤S b`` (b better) iff ``b ≤ a`` numerically; ``0`` (semiring ``one``)
is the best value and ``∞`` (semiring ``zero``) the worst.
"""

from __future__ import annotations

import math
from typing import Any

import numpy as np

from .base import SemiringError, TotallyOrderedSemiring

#: Positive infinity — the semiring ``0`` (total violation / no solution).
INFINITY = math.inf


class WeightedSemiring(TotallyOrderedSemiring[float]):
    """Non-negative costs combined by arithmetic sum, selected by ``min``.

    Residuated division is truncated subtraction::

        a ÷ b = a − b   if a > b     (numerically)
                0       otherwise

    the semiring-largest (numerically smallest) ``x`` with ``b + x ≥ a``.
    This is the operator that lets ``retract`` remove a previously told
    cost polynomial from an nmsccp store (paper Example 2).
    """

    name = "Weighted"

    def __init__(self, integral: bool = False) -> None:
        #: When ``True``, carrier is ℕ ∪ {∞} instead of ℝ⁺ ∪ {∞}.
        self.integral = integral

    @property
    def zero(self) -> float:
        return INFINITY

    @property
    def one(self) -> float:
        return 0.0

    def plus(self, a: float, b: float) -> float:
        return a if a <= b else b

    def times(self, a: float, b: float) -> float:
        return a + b

    def divide(self, a: float, b: float) -> float:
        if a <= b:
            # Covers a = b = ∞ as well: retracting everything leaves 0 cost.
            return 0.0
        if b == INFINITY:
            return 0.0
        return a - b

    def leq(self, a: float, b: float) -> bool:
        # a ≤S b iff min(a, b) = b iff b ≤ a numerically.
        return b <= a

    def equiv(self, a: float, b: float) -> bool:
        # Costs are floats; division/combination round trips may be off
        # by an ulp, which `equiv` (unlike `==`) is meant to absorb.
        if a == b:
            return True
        return math.isclose(a, b, rel_tol=1e-9, abs_tol=1e-12)

    def is_element(self, a: Any) -> bool:
        if isinstance(a, bool) or not isinstance(a, (int, float)):
            return False
        if math.isnan(a) or a < 0:
            return False
        if self.integral and a != INFINITY and a != int(a):
            return False
        return True

    def invalid_mask(self, values: np.ndarray) -> np.ndarray:
        # ``not a >= 0`` is ``isnan(a) or a < 0``, as in ``is_element``.
        bad = ~(values >= 0)
        if self.integral:
            bad |= np.isfinite(values) & (values != np.trunc(values))
        return bad

    def sample_elements(self) -> tuple[float, ...]:
        return (INFINITY, 7.0, 3.0, 1.0, 0.0)

    def supports_exact_retract(self) -> bool:
        # + over ℕ is cancellative and exact in binary64 up to 2⁵³, so
        # dropping a told integer-cost factor equals dividing it out,
        # bit for bit.  ∞ is excluded: divide(∞, ∞) = 0 ≠ ∞ − anything.
        return True

    def exact_retract_value(self, a: float) -> bool:
        return a != INFINITY and abs(a) <= 2.0**50 and float(a).is_integer()

    def check_element(self, a: Any) -> float:
        if not self.is_element(a):
            raise SemiringError(f"{a!r} is not a non-negative cost")
        return float(a)

    def __eq__(self, other: object) -> bool:
        return type(self) is type(other) and self.integral == other.integral

    def __hash__(self) -> int:
        return hash((type(self), self.integral))

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"WeightedSemiring(integral={self.integral})"


class BoundedWeightedSemiring(TotallyOrderedSemiring[float]):
    """Weighted semiring truncated at a cap: ``⟨[0, k], min, +ₖ, k, 0⟩``.

    ``a +ₖ b = min(a + b, k)``.  Useful to model saturating penalties
    (e.g. "any downtime beyond *k* hours is equally unacceptable") and as
    a finite-carrier instance for exhaustive axiom checking.
    """

    name = "BoundedWeighted"

    def __init__(self, cap: float) -> None:
        if not (isinstance(cap, (int, float)) and cap > 0):
            raise SemiringError(f"cap must be a positive number, got {cap!r}")
        self.cap = float(cap)

    @property
    def zero(self) -> float:
        return self.cap

    @property
    def one(self) -> float:
        return 0.0

    def plus(self, a: float, b: float) -> float:
        return a if a <= b else b

    def times(self, a: float, b: float) -> float:
        total = a + b
        return total if total < self.cap else self.cap

    def divide(self, a: float, b: float) -> float:
        # max_S{x | min(b + x, cap) ≥ a}: when a ≤ b, x = 0; when a = cap,
        # any x with b + x ≥ cap works, smallest is cap − b; else a − b.
        if a <= b:
            return 0.0
        return a - b

    def leq(self, a: float, b: float) -> bool:
        return b <= a

    def equiv(self, a: float, b: float) -> bool:
        # Same float tolerance rationale as WeightedSemiring.equiv.
        if a == b:
            return True
        return math.isclose(a, b, rel_tol=1e-9, abs_tol=1e-12)

    def is_element(self, a: Any) -> bool:
        if isinstance(a, bool) or not isinstance(a, (int, float)):
            return False
        return not math.isnan(a) and 0.0 <= a <= self.cap

    def sample_elements(self) -> tuple[float, ...]:
        return (self.cap, self.cap / 2.0, 1.0 if self.cap >= 1 else self.cap / 3.0, 0.0)

    def __eq__(self, other: object) -> bool:
        return type(self) is type(other) and self.cap == other.cap

    def __hash__(self) -> int:
        return hash((type(self), self.cap))

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"BoundedWeightedSemiring(cap={self.cap})"
