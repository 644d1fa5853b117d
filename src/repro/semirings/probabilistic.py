"""The Probabilistic semiring ``⟨[0, 1], max, ×, 0, 1⟩``.

Models *multiplicative* metrics (paper Sec. 4): the probability that a
composed service behaves successfully is the product of its components'
success probabilities, and the broker maximizes that product.  It is the
instance used for the quantitative integrity analysis of Sec. 5 (module
reliabilities ``c1 ⊗ c2 ⊗ c3``).
"""

from __future__ import annotations

import math
from typing import Any

import numpy as np

from .base import SemiringError, TotallyOrderedSemiring

#: Tolerance used when comparing probabilities that went through division
#: and multiplication round trips.
_EPS = 1e-12


class ProbabilisticSemiring(TotallyOrderedSemiring[float]):
    """Success probabilities in ``[0, 1]``; ``max`` selects, ``×`` chains.

    Residuated division (Goguen implication)::

        a ÷ b = 1            if b ≤ a (in particular b = 0)
                min(1, a/b)  otherwise

    the largest ``x`` with ``b · x ≤ a``.
    """

    name = "Probabilistic"

    @property
    def zero(self) -> float:
        return 0.0

    @property
    def one(self) -> float:
        return 1.0

    def plus(self, a: float, b: float) -> float:
        return a if a >= b else b

    def times(self, a: float, b: float) -> float:
        return a * b

    def divide(self, a: float, b: float) -> float:
        if b <= a:
            return 1.0
        # b > a ≥ 0 here, so b > 0 and the quotient is well defined.
        return a / b

    def is_element(self, a: Any) -> bool:
        return (
            isinstance(a, (int, float))
            and not isinstance(a, bool)
            and not math.isnan(a)
            and 0.0 <= a <= 1.0
        )

    def invalid_mask(self, values: np.ndarray) -> np.ndarray:
        return ~((values >= 0.0) & (values <= 1.0))

    def equiv(self, a: float, b: float) -> bool:
        return abs(a - b) <= _EPS

    def sample_elements(self) -> tuple[float, ...]:
        return (0.0, 0.25, 0.5, 0.8, 1.0)

    def check_element(self, a: Any) -> float:
        if not self.is_element(a):
            raise SemiringError(f"{a!r} is not a probability in [0, 1]")
        return float(a)
