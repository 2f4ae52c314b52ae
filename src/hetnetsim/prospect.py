"""Probability weighting: how users perceive advertised service guarantees.

Under expected-utility behavior the perceived guarantee equals the advertised
one.  Under prospect-theoretic behavior it is distorted by the Prelec map
w(p) = exp(-(-ln p)**alpha) with 0 < alpha < 1, an s-shaped function that
overweights small probabilities and underweights large ones, with fixed
point at p = 1/e.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

EUT = "eut"
PT = "pt"

# Prelec fixed point: w(1/e) = 1/e for every exponent.
FIXED_POINT = math.exp(-1.0)


@dataclass(frozen=True)
class DecisionModel:
    """Either objective ("eut") or Prelec-weighted ("pt") perception."""

    kind: str
    prelec_alpha: float = 0.7

    def __post_init__(self) -> None:
        if self.kind not in (EUT, PT):
            raise ValueError(f"kind must be '{EUT}' or '{PT}', got {self.kind!r}")
        if self.kind == PT and not 0.0 < self.prelec_alpha < 1.0:
            raise ValueError(
                f"Prelec exponent must lie in (0, 1), got {self.prelec_alpha}"
            )

    @classmethod
    def eut(cls) -> "DecisionModel":
        return cls(kind=EUT)

    @classmethod
    def pt(cls, alpha: float) -> "DecisionModel":
        return cls(kind=PT, prelec_alpha=alpha)

    @property
    def is_pt(self) -> bool:
        return self.kind == PT


def weight(p: float, model: DecisionModel) -> float:
    """Perceived probability of an objective probability p in [0, 1].

    Identity under EUT.  Under PT, exp(-(-ln p)**alpha), extended by
    continuity with w(0) = 0 and w(1) = 1.
    """
    if not 0.0 <= p <= 1.0:
        raise ValueError(f"probability must lie in [0, 1], got {p}")
    if model.kind == EUT:
        return p
    if p == 0.0:
        return 0.0
    if p == 1.0:
        return 1.0
    return math.exp(-((-math.log(p)) ** model.prelec_alpha))


def weight_inverse(q: float, model: DecisionModel) -> float:
    """The objective probability whose perceived value equals q.

    Identity under EUT.  Under PT, exp(-(-ln q)**(1/alpha)); the endpoints
    0 and 1 map to themselves by the same continuity convention as weight().
    """
    if not 0.0 <= q <= 1.0:
        raise ValueError(f"probability must lie in [0, 1], got {q}")
    if model.kind == EUT:
        return q
    if q == 0.0:
        return 0.0
    if q == 1.0:
        return 1.0
    return math.exp(-((-math.log(q)) ** (1.0 / model.prelec_alpha)))
