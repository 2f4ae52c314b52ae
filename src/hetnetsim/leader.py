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

import functools
import math

import numpy as np

from .channel import LinkState, guarantee_inverse_bw
from .model import Bid, InfeasibleError, NoBid, SpParams, sp_price
from .prospect import FIXED_POINT, DecisionModel, weight_inverse

# rate grid sizes of the bid search and of the rate-conceding rebid's scan,
# and the rate width both searches refine their bracket to
GRID_POINTS = 1024
REBID_POINTS = 256
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

# shared results of the fixed-reason exits (NoBid is frozen)
_UNCOVERED = NoBid("link not covered")
_NO_HEADROOM = NoBid("rate cap does not exceed the minimum rate")
_NO_FEASIBLE_RATE = NoBid("bandwidth budget cannot support any rate")
_UNPROFITABLE = NoBid("no profitable rate")
_NOT_WEIGHTING = NoBid("expansion applies to weighting users only")
_NO_EXPANDABLE_RATE = NoBid("expansion exceeds the budget at every rate")
_UNPROFITABLE_EXPANSION = NoBid("no profitable expandable rate")
_UNEXPANDABLE = NoBid("cannot expand within any budget")
_BUDGET_EXHAUSTED = NoBid("budget exhausted")


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


@functools.cache
def _ladder(num: int) -> np.ndarray:
    """The read-only ladder 0, 1, ..., num - 1 that _log_grid scales."""
    ladder = np.arange(num, dtype=float)
    ladder.flags.writeable = False
    return ladder


def _log_grid(lo: float, hi: float, num: int) -> np.ndarray:
    """np.geomspace(lo, hi, num) for positive endpoints, bit for bit.

    The arithmetic is geomspace's, step for step: a cached ladder
    0, 1, ..., num - 1 scaled between the base-10 logarithms of the
    endpoints, raised to the power of ten, with both endpoints pinned.  Only
    geomspace's per-call dtype and sign handling is skipped.  The logarithms
    are numpy's, not math.log10, which differs from it in the last bit on
    some inputs.  Every call returns a fresh array the caller may modify.
    """
    log_lo = np.log10(np.float64(lo))
    log_hi = np.log10(np.float64(hi))
    grid = _ladder(num) * ((log_hi - log_lo) / (num - 1))
    grid += log_lo
    np.power(10.0, grid, out=grid)
    grid[0] = lo
    grid[-1] = hi
    return grid


def optimize_bid(sp: SpParams, link: LinkState, b_min: float) -> Bid | NoBid:
    """Best marginal bid of one SP toward one user, or NoBid.

    NoBid is returned when the link is uncovered, when no rate in
    (b_min, b_max] fits the bandwidth budget, or when the best achievable
    profit is negative (the SP prefers silence to a loss)."""
    if not link.covered or link.b_max <= 0:
        return _UNCOVERED
    if link.b_max <= b_min * (1.0 + _LOW_EDGE):
        return _NO_HEADROOM

    budget = link.bw_max * (1.0 + _BUDGET_SLACK)
    snr = link.mean_snr
    alpha, beta, cost_rate, cost_bw = sp.alpha, sp.beta, sp.cost_rate, sp.cost_bw

    def objective(b: float) -> float:
        bw = b / math.log2(1.0 + snr * math.log(b / b_min))
        if bw > budget:
            return -math.inf
        return alpha * b**beta - cost_rate * b - cost_bw * bw

    # bw = grid / log2(1 + snr * log(grid / b_min)) and
    # profit = alpha * grid**beta - cost_rate * grid - cost_bw * bw,
    # evaluated in place in that operation order
    grid = _log_grid(b_min * (1.0 + _LOW_EDGE), link.b_max, GRID_POINTS)
    bw_grid = np.divide(grid, b_min)
    np.log(bw_grid, out=bw_grid)
    np.multiply(bw_grid, snr, out=bw_grid)
    np.add(bw_grid, 1.0, out=bw_grid)
    np.log2(bw_grid, out=bw_grid)
    np.divide(grid, bw_grid, out=bw_grid)
    profit = grid**beta
    profit *= alpha
    term = np.multiply(grid, cost_rate)
    profit -= term
    np.multiply(bw_grid, cost_bw, out=term)
    profit -= term
    profit[bw_grid > budget] = -np.inf

    best = int(np.argmax(profit))
    best_profit = float(profit[best])
    if not math.isfinite(best_profit):
        return _NO_FEASIBLE_RATE

    # golden-section refinement around the winning grid point; the -inf
    # penalty keeps the search on the feasible side of a budget corner
    lo = float(grid[best - 1] if best > 0 else grid[0])
    hi = float(grid[best + 1] if best < GRID_POINTS - 1 else grid[-1])
    golden = _GOLDEN
    x1 = hi - golden * (hi - lo)
    x2 = lo + golden * (hi - lo)
    f1, f2 = objective(x1), objective(x2)
    while hi - lo > RATE_TOL:
        if f1 >= f2:
            hi, x2, f2 = x2, x1, f1
            x1 = hi - golden * (hi - lo)
            f1 = objective(x1)
        else:
            lo, x1, f1 = x1, x2, f2
            x2 = lo + golden * (hi - lo)
            f2 = objective(x2)

    candidates = [(best_profit, float(grid[best])), (f1, x1), (f2, x2)]
    best_profit, b_star = max(candidates, key=lambda item: item[0])
    if best_profit < 0:
        return _UNPROFITABLE
    return Bid(
        rate=b_star,
        price=sp_price(b_star, sp),
        bandwidth=b_star / math.log2(1.0 + snr * math.log(b_star / b_min)),
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
    try:
        new_bw = guarantee_inverse_bw(bid.rate, lam, link)
    except InfeasibleError:
        return _UNEXPANDABLE
    if new_bw > link.bw_max * (1.0 + _BUDGET_SLACK):
        return _BUDGET_EXHAUSTED
    return Bid(rate=bid.rate, price=bid.price, bandwidth=new_bw, guarantee=lam)


def _expanded_bw(b: float, b_min: float, snr: float, inv_alpha: float) -> float:
    """Bandwidth a floor-tight rate-b bid needs once expanded for a weighting
    user with Prelec exponent 1 / inv_alpha: guarantee_inverse_bw of
    weight_inverse(b_min / b), in their operation order.  inf when no finite
    bandwidth reaches the expansion target: a target that rounds to 1 (small
    exponents just above b_min) or an SNR of 0 leaves no positive logarithm."""
    target = math.exp(-((-math.log(b_min / b)) ** inv_alpha))
    denom = math.log2(1.0 - snr * math.log(target))
    return b / denom if denom > 0.0 else math.inf


def expansion_rebid(
    sp: SpParams, link: LinkState, b_min: float, model: DecisionModel
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

    _expanded_bw is the one scalar formula for the expanded bandwidth.  The
    coarse scan evaluates it over the whole log-spaced rate grid as one
    array pass, in the same operation order.  Array and scalar results
    agree to about 1e-12 relative, so a grid point whose array bandwidth
    lies within a relative _GUARD_BAND of the budget is re-judged by
    _expanded_bw; the bracket is therefore the one a point-by-point scalar
    scan would pick.  The bisection and the final bid call _expanded_bw.

    Returns NoBid when the link is down, no rate admits an expansion within
    budget, or the crossing bid loses money once the expanded bandwidth is
    paid for.
    """
    if not model.is_pt:
        return _NOT_WEIGHTING
    if not link.covered or link.b_max <= 0:
        return _UNCOVERED

    # above e * b_min the guarantee sits at or below the weighting fixed
    # point and no expansion is needed, so the search stays below it
    cap = min(link.b_max, math.e * b_min)
    lo_edge = b_min * (1.0 + _LOW_EDGE)
    if cap <= lo_edge:
        return _NO_HEADROOM

    inv_alpha = 1.0 / model.prelec_alpha
    snr, bw_max = link.mean_snr, link.bw_max
    grid = _log_grid(lo_edge, cap, REBID_POINTS)
    lam = np.exp(-((-np.log(b_min / grid)) ** inv_alpha))
    with np.errstate(divide="ignore"):
        bw_grid = grid / np.log2(1.0 - snr * np.log(lam))
    feasible = bw_grid <= bw_max
    for k in np.flatnonzero(np.abs(bw_grid - bw_max) <= _GUARD_BAND * bw_max):
        feasible[k] = _expanded_bw(float(grid[k]), b_min, snr, inv_alpha) <= bw_max
    feasible_at = np.flatnonzero(feasible)
    if not feasible_at.size:
        return _NO_EXPANDABLE_RATE

    j = int(feasible_at[-1])
    b_up = float(grid[j])
    if j + 1 < REBID_POINTS:
        lo, hi = b_up, float(grid[j + 1])
        while hi - lo > RATE_TOL:
            mid = 0.5 * (lo + hi)
            if _expanded_bw(mid, b_min, snr, inv_alpha) <= bw_max:
                lo = mid
            else:
                hi = mid
        b_up = lo

    # b_up passed the budget test, so bw is finite and within bw_max and the
    # expansion target weight_inverse(guarantee) lies below 1
    bw = _expanded_bw(b_up, b_min, snr, inv_alpha)
    price = sp_price(b_up, sp)
    if price - sp.cost_rate * b_up - sp.cost_bw * bw < 0:
        return _UNPROFITABLE_EXPANSION
    guarantee = b_min / b_up
    # at the scan cap b_min / b_up can land on or just below the fixed point,
    # where the bid needs no expansion: it stays floor-tight, as expand_bw_pt
    # would leave it
    if guarantee <= FIXED_POINT:
        return Bid(
            rate=b_up,
            price=price,
            bandwidth=marginal_bw(b_up, b_min, link),
            guarantee=guarantee,
        )
    return Bid(rate=b_up, price=price, bandwidth=bw, guarantee=weight_inverse(guarantee, model))
