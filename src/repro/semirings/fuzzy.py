"""The Fuzzy semiring ``⟨[0, 1], max, min, 0, 1⟩``.

Models *concave* metrics (paper Sec. 4): the combination of several
preference levels flattens to the worst one, and optimization maximizes
that worst level.  The paper uses it for coarse reliability preferences
(low/medium/high) when detailed information is unavailable, for the
graphical SLA agreement of Fig. 5, and as the optimization criterion for
trustworthy coalitions (Sec. 6.1: "maximize the minimum trustworthiness of
all the obtained coalitions").
"""

from __future__ import annotations

import math
from typing import Any

import numpy as np

from .base import SemiringError, TotallyOrderedSemiring


class FuzzySemiring(TotallyOrderedSemiring[float]):
    """Preference levels in ``[0, 1]``; bigger is better, ``min`` combines.

    Residuated division (Gödel implication)::

        a ÷ b = 1   if b ≤ a
                a   otherwise

    which is the largest ``x`` with ``min(b, x) ≤ a``.
    """

    name = "Fuzzy"

    @property
    def zero(self) -> float:
        return 0.0

    @property
    def one(self) -> float:
        return 1.0

    def plus(self, a: float, b: float) -> float:
        return a if a >= b else b

    def times(self, a: float, b: float) -> float:
        return a if a <= b else b

    def divide(self, a: float, b: float) -> float:
        return 1.0 if b <= a else a

    def is_element(self, a: Any) -> bool:
        return (
            isinstance(a, (int, float))
            and not isinstance(a, bool)
            and not math.isnan(a)
            and 0.0 <= a <= 1.0
        )

    def invalid_mask(self, values: np.ndarray) -> np.ndarray:
        return ~((values >= 0.0) & (values <= 1.0))

    def is_multiplicative_idempotent(self) -> bool:
        return True

    def sample_elements(self) -> tuple[float, ...]:
        return (0.0, 0.25, 0.5, 0.75, 1.0)

    def check_element(self, a: Any) -> float:
        if not self.is_element(a):
            raise SemiringError(f"{a!r} is not a fuzzy level in [0, 1]")
        return float(a)
