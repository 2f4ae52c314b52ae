"""Service-provider best response: marginal-bandwidth bidding and the
prospect-aware bandwidth expansion.

An SP offering rate b never allocates more bandwidth than the minimum that
keeps the user's rate floor satisfied in expectation, i.e. the bandwidth at
which b * guarantee(b, bw) = b_min holds with equality.  That reduces the
bid search to one dimension: maximize

    price(b) - cost_rate * b - cost_bw * marginal_bw(b)

over b in (b_min, b_max] subject to marginal_bw(b) <= bw_max.  The objective
is smooth but not provably unimodal, so a log-spaced grid locates the basin
and a golden-section pass refines it.

Under prospect-theoretic users a guarantee above 1/e is perceived as smaller
than it is; expand_bw_pt grows the allocated bandwidth until the *perceived*
guarantee matches what an objective user would have seen, keeping rate and
price untouched.
"""

from __future__ import annotations

import math

import numpy as np

from .channel import LinkState, guarantee_inverse_bw
from .model import Bid, InfeasibleError, NoBid, SpProfile, sp_price
from .prospect import FIXED_POINT, DecisionModel, weight_inverse

GRID_POINTS = 1024
RATE_TOL = 1e-9
# multiplicative offset opening the interval at b_min, where the required
# bandwidth diverges
_LOW_EDGE = 1e-6
# relative slack when testing the bandwidth budget, to absorb roundoff at
# corner solutions
_BUDGET_SLACK = 1e-12
# relative distance from the budget within which the array-evaluated rebid
# scan defers to the scalar formula (array and scalar differ by ~1e-12)
_GUARD_BAND = 1e-9
_GOLDEN = (math.sqrt(5.0) - 1.0) / 2.0


def marginal_bw(b: float, b_min: float, link: LinkState) -> float:
    """The unique bandwidth with b * guarantee(b, bw) = b_min.

    Only rates above b_min are meaningful: at b = b_min the required
    guarantee is 1, which no finite bandwidth reaches.
    """
    if b_min <= 0:
        raise ValueError(f"b_min must be positive, got {b_min}")
    if b <= b_min:
        raise InfeasibleError(
            f"rate {b} must exceed the floor {b_min} for a marginal bid"
        )
    return guarantee_inverse_bw(b, b_min / b, link)


def optimize_bid(
    sp: SpProfile,
    link: LinkState,
    b_min: float,
    grid_points: int = GRID_POINTS,
    tol: float = RATE_TOL,
) -> Bid | NoBid:
    """Best marginal bid of one SP toward one user, or NoBid.

    NoBid is returned when the link is uncovered, when no rate in
    (b_min, b_max] fits the bandwidth budget, or when the best achievable
    profit is negative (the SP prefers silence to a loss)."""
    if not link.covered or link.b_max <= 0:
        return NoBid("link not covered")
    if link.b_max <= b_min * (1.0 + _LOW_EDGE):
        return NoBid("rate cap does not exceed the minimum rate")

    budget = link.bw_max * (1.0 + _BUDGET_SLACK)
    snr = link.mean_snr

    def required_bw(b: float) -> float:
        return b / math.log2(1.0 + snr * math.log(b / b_min))

    def objective(b: float) -> float:
        bw = required_bw(b)
        if bw > budget:
            return -math.inf
        return sp.alpha * b**sp.beta - sp.cost_rate * b - sp.cost_bw * bw

    grid = np.geomspace(b_min * (1.0 + _LOW_EDGE), link.b_max, grid_points)
    bw_grid = grid / np.log2(1.0 + snr * np.log(grid / b_min))
    profit = sp.alpha * grid**sp.beta - sp.cost_rate * grid - sp.cost_bw * bw_grid
    profit[bw_grid > budget] = -np.inf

    best = int(np.argmax(profit))
    if not np.isfinite(profit[best]):
        return NoBid("bandwidth budget cannot support any rate")

    # golden-section refinement around the winning grid point; the -inf
    # penalty keeps the search on the feasible side of a budget corner
    lo = grid[best - 1] if best > 0 else grid[0]
    hi = grid[best + 1] if best < grid_points - 1 else grid[-1]
    x1 = hi - _GOLDEN * (hi - lo)
    x2 = lo + _GOLDEN * (hi - lo)
    f1, f2 = objective(x1), objective(x2)
    while hi - lo > tol:
        if f1 >= f2:
            hi, x2, f2 = x2, x1, f1
            x1 = hi - _GOLDEN * (hi - lo)
            f1 = objective(x1)
        else:
            lo, x1, f1 = x1, x2, f2
            x2 = lo + _GOLDEN * (hi - lo)
            f2 = objective(x2)

    candidates = [(float(profit[best]), float(grid[best])), (f1, x1), (f2, x2)]
    best_profit, b_star = max(candidates, key=lambda item: item[0])
    if best_profit < 0:
        return NoBid("no profitable rate")
    return Bid(
        rate=b_star,
        price=sp_price(b_star, sp),
        bandwidth=required_bw(b_star),
        guarantee=b_min / b_star,
    )


def expand_bw_pt(bid: Bid, model: DecisionModel, link: LinkState) -> Bid | NoBid:
    """Re-issue a marginal bid with enough extra bandwidth that a weighting
    user perceives the original guarantee.

    Guarantees at or below the 1/e fixed point are perceived at least as
    large as they are, so the bid is returned unchanged (bandwidth is never
    shrunk).  Otherwise the new guarantee is the pre-image of the old one
    under the weighting map, and the bandwidth grows accordingly; rate and
    price never change.  Returns NoBid when no finite bandwidth works or the
    required bandwidth exceeds the link budget.
    """
    if not model.is_pt:
        return bid
    if bid.guarantee <= FIXED_POINT:
        return bid
    lam = weight_inverse(bid.guarantee, model)
    if lam >= 1.0:
        return NoBid("cannot expand within any budget")
    new_bw = guarantee_inverse_bw(bid.rate, lam, link)
    if new_bw > link.bw_max * (1.0 + _BUDGET_SLACK):
        return NoBid("budget exhausted")
    return Bid(rate=bid.rate, price=bid.price, bandwidth=new_bw, guarantee=lam)


def _expanded_bw(b: float, b_min: float, link: LinkState, model: DecisionModel) -> float:
    """Bandwidth a floor-tight rate-b bid needs once expanded for a weighting
    user, or inf when no finite bandwidth reaches the expansion target (for
    small Prelec exponents the target rounds to 1 just above b_min)."""
    try:
        return guarantee_inverse_bw(b, weight_inverse(b_min / b, model), link)
    except InfeasibleError:
        return math.inf


def expansion_rebid(
    sp: SpProfile,
    link: LinkState,
    b_min: float,
    model: DecisionModel,
    grid_points: int = 256,
    tol: float = RATE_TOL,
) -> Bid | NoBid:
    """Highest-rate bid whose post-expansion bandwidth still fits the budget.

    When the profit-optimal bid already exhausts the bandwidth budget,
    expanding it is impossible and the SP must concede some rate instead.
    Lowering the rate raises the guarantee, which raises the expansion
    target, so the post-expansion bandwidth is not monotone in the rate; a
    coarse scan brackets the highest feasible rate and a bisection pins the
    budget crossing.  Bidding at the crossing maximizes revenue among
    expandable bids and spends the whole budget, matching what an
    unexpanded bid would have consumed.

    The coarse scan evaluates the closed-form expanded bandwidth (the Prelec
    inverse of the guarantee b_min / b, then the Rayleigh bandwidth inverse)
    over the whole log-spaced rate grid as one array pass, in the scalar
    path's operation order.  Array and scalar results agree to about 1e-12
    relative, so a grid point whose array bandwidth lies within a relative
    _GUARD_BAND of the budget is re-judged by the scalar formula; the
    bracket is therefore the one a point-by-point scalar scan would pick.
    The bisection and the final bid stay scalar.

    Returns NoBid when the link is down, no rate admits an expansion within
    budget, or the crossing bid loses money once the expanded bandwidth is
    paid for.
    """
    if not model.is_pt:
        return NoBid("expansion applies to weighting users only")
    if not link.covered or link.b_max <= 0:
        return NoBid("link not covered")

    # above e * b_min the guarantee sits at or below the weighting fixed
    # point and no expansion is needed, so the search stays below it
    cap = min(link.b_max, math.e * b_min)
    lo_edge = b_min * (1.0 + _LOW_EDGE)
    if cap <= lo_edge:
        return NoBid("rate cap does not exceed the minimum rate")

    grid = np.geomspace(lo_edge, cap, grid_points)
    lam = np.exp(-((-np.log(b_min / grid)) ** (1.0 / model.prelec_alpha)))
    with np.errstate(divide="ignore"):
        bw_grid = grid / np.log2(1.0 - link.mean_snr * np.log(lam))
    feasible = bw_grid <= link.bw_max
    for k in np.flatnonzero(np.abs(bw_grid - link.bw_max) <= _GUARD_BAND * link.bw_max):
        feasible[k] = _expanded_bw(float(grid[k]), b_min, link, model) <= link.bw_max
    if not feasible.any():
        return NoBid("expansion exceeds the budget at every rate")

    j = int(np.flatnonzero(feasible)[-1])
    b_up = float(grid[j])
    if j + 1 < grid_points:
        lo, hi = b_up, float(grid[j + 1])
        while hi - lo > tol:
            mid = 0.5 * (lo + hi)
            if _expanded_bw(mid, b_min, link, model) <= link.bw_max:
                lo = mid
            else:
                hi = mid
        b_up = lo

    bw = _expanded_bw(b_up, b_min, link, model)
    if sp_price(b_up, sp) - sp.cost_rate * b_up - sp.cost_bw * bw < 0:
        return NoBid("no profitable expandable rate")
    candidate = Bid(
        rate=b_up,
        price=sp_price(b_up, sp),
        bandwidth=marginal_bw(b_up, b_min, link),
        guarantee=b_min / b_up,
    )
    return expand_bw_pt(candidate, model, link)


def participation_check(bid: Bid, acceptance_prob: float, sp: SpProfile) -> bool:
    """Whether bidding beats silence at the given acceptance probability:
    expected revenue must cover the sunk provisioning cost."""
    if not 0.0 <= acceptance_prob <= 1.0:
        raise ValueError(f"acceptance probability must lie in [0, 1], got {acceptance_prob}")
    cost = sp.cost_rate * bid.rate + sp.cost_bw * bid.bandwidth
    return acceptance_prob * bid.price - cost >= 0.0
