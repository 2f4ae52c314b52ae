"""Probability weighting: how users perceive advertised service guarantees.

Perception is the Prelec map w(p) = exp(-(-ln p)**alpha) with 0 < alpha <= 1.
At alpha = 1 it is the identity: expected-utility (objective) behavior.
Below 1 it is prospect-theoretic, an s-shaped function that overweights
small probabilities and underweights large ones, with fixed point at
p = 1/e.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

# Prelec fixed point: w(1/e) = 1/e for every exponent.
FIXED_POINT = math.exp(-1.0)


@dataclass(frozen=True)
class DecisionModel:
    """A user's perception: the Prelec exponent, 1 for objective (EUT)."""

    prelec_alpha: float = 1.0

    def __post_init__(self) -> None:
        if not 0.0 < self.prelec_alpha <= 1.0:
            raise ValueError(f"prelec_alpha must lie in (0, 1], got {self.prelec_alpha}")

    @classmethod
    def eut(cls) -> "DecisionModel":
        return cls()

    @classmethod
    def pt(cls, alpha: float) -> "DecisionModel":
        """A weighting user; the one check that alpha lies in (0, 1)."""
        if not 0.0 < alpha < 1.0:
            raise ValueError(f"prelec_alpha must lie in (0, 1), got {alpha}")
        return cls(alpha)

    @property
    def is_pt(self) -> bool:
        return self.prelec_alpha < 1.0


def weight(p: float, model: DecisionModel) -> float:
    """Perceived probability of an objective probability p in [0, 1]:
    exp(-(-ln p)**alpha), extended by continuity with w(0) = 0 and
    w(1) = 1.  Exactly p at alpha = 1."""
    if not 0.0 <= p <= 1.0:
        raise ValueError(f"probability must lie in [0, 1], got {p}")
    alpha = model.prelec_alpha
    if alpha == 1.0 or p == 0.0 or p == 1.0:
        return p
    return math.exp(-((-math.log(p)) ** alpha))


def weight_inverse(q: float, model: DecisionModel) -> float:
    """The objective probability whose perceived value equals q:
    exp(-(-ln q)**(1/alpha)); the endpoints 0 and 1 map to themselves by the
    same continuity convention as weight().  Exactly q at alpha = 1."""
    if not 0.0 <= q <= 1.0:
        raise ValueError(f"probability must lie in [0, 1], got {q}")
    alpha = model.prelec_alpha
    if alpha == 1.0 or q == 0.0 or q == 1.0:
        return q
    return math.exp(-((-math.log(q)) ** (1.0 / alpha)))
