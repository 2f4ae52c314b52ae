"""Service-provider best response: marginal-bandwidth bidding and the
prospect-aware bandwidth expansion.

An SP offering rate b never allocates more bandwidth than the minimum that
keeps the user's rate floor satisfied in expectation, i.e. the bandwidth at
which b * guarantee(b, bw) = b_min holds with equality.  That reduces the
bid search to one dimension: maximize

    price(b) - cost_rate * b - cost_bw * marginal_bw(b)

over b in (b_min, b_max] subject to marginal_bw(b) <= bw_max.  The objective
is smooth but not unimodal in general, so a log-spaced grid locates the
basin and a golden-section pass refines it.  The grid's argmax usually sits
at its last feasible rate, the rate cap or the budget corner, and
_certified_window proves that from three grid points when it holds; the
full grid is evaluated only where that certificate fails.  At a rate cap
that no rate the refinement prices can beat, the certificate returns the
cap's Bid itself, priced once, and optimize_bid refines nothing.
Both this search and the rate-conceding rebid compute only the grid rates
they read, each with _grid_rate in math.*, so a bid's bits depend on the
platform's libm and on nothing numpy dispatches for the host CPU.

Under prospect-theoretic users a guarantee above 1/e is perceived as smaller
than it is; expand_bw_pt grows the allocated bandwidth until the *perceived*
guarantee matches what an objective user would have seen, keeping rate and
price untouched.
"""

from __future__ import annotations

import math

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
# the bid grid's certificate: the least SNR it runs at, the excess over the
# budget that answers NoBid without a grid, bounds on the relative roundoff
# of a float operation (a few ulps) and of a grid bandwidth, and the least
# log-rate step, far above the few-ulp gap between its rates and the grid's
_MIN_SNR = 1e-8
_NO_FIT_MARGIN = 1e-6
_ROUNDOFF = 1e-15
_BW_ROUNDOFF = 1e-7
_MIN_LOG_STEP = 1e-9
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


def _grid_rate(i: int, lo: float, hi: float, num: int) -> float:
    """Rate i of the num-point log-spaced grid from lo to hi, both ends pinned:
    10 ** (i * step + log10(lo)) with step = (log10(hi) - log10(lo)) / (num - 1),
    geomspace's arithmetic in math.*."""
    if i == 0:
        return lo
    if i == num - 1:
        return hi
    log_lo = math.log10(lo)
    return 10.0 ** (i * ((math.log10(hi) - log_lo) / (num - 1)) + log_lo)


def _grid_bw(b: float, b_min: float, snr: float) -> float:
    """Marginal bandwidth of grid rate b, in the bid search's operation order;
    inf where the log2 under it rounds to 0 at a tiny snr."""
    d = math.log2(math.log(b / b_min) * snr + 1.0)
    return b / d if d else math.inf


def _bw_roundoff(x: float, snr: float) -> float:
    """Bound on a grid bandwidth's relative roundoff at snr * L >= x."""
    return _ROUNDOFF * (1.0 + (1.0 + snr + 6.0 * x) / ((1.0 + x) * math.log1p(x)))


def _slope_bound(b: float, room: float, coeffs: tuple[float, float, float, float]) -> float:
    """The certificate's h(b) = ab * b**(beta - 1) - cost_rate - bw_cost / b for
    coeffs (ab, beta, cost_rate, bw_cost), less room times the size of its terms."""
    ab, beta, cost_rate, bw_cost = coeffs
    gain, cost = ab * b ** (beta - 1.0), cost_rate + bw_cost / b
    return gain - cost - room * (gain + cost)


def _certified_window(
    sp: SpParams, b_min: float, lo_edge: float, b_max: float, snr: float, budget: float
) -> tuple[float, float, float, float] | Bid | NoBid | None:
    """The full bid grid's argmax, found without the grid: the grid rates
    around it and its profit, bit for bit, or optimize_bid's answer at the
    rate cap; _NO_FEASIBLE_RATE when no grid rate fits; or None where the
    certificate fails.

    With L = ln(b / b_min) and x = snr * L, the bandwidth B has d ln B / dL =
    1 - snr / ((1 + x) ln(1 + x)), rising with L, and the grid g is uniform
    in L.  So the rates that fit form one run, and a binary search finds j,
    the last index that fits or where B still falls; if j does not fit, the
    least bandwidth is at j or j + 1.  The grid's values at j - 1, j and j + 1
    then certify j as the argmax, with margins above the roundoff:
      - B[j] fits and B[j + 1] does not and exceeds it, so no later rate fits;
      - no rate below an index i earns more than alpha * g[i]**beta -
        cost_rate * b_min, since the bandwidth term only subtracts;
      - where B fits, B' <= B / b, so with beta > 1 the profit's slope is at
        least h(b) = alpha*beta*b**(beta-1) - cost_rate - cost_bw*budget/b,
        which rises with b: with h(g[i]) > 0, the rates i..j-1 earn less
        than rate j by at least h(g[j-1]) * (g[j] - g[j-1]).
    At the cap, the refinement prices no rate within gap = phi * (1 - phi) *
    min(RATE_TOL, g[j] - g[j-1]) of it, less a few ulps: if h(g[j-1]) * gap
    exceeds twice eps, its bandwidth bound retaken at g[j-1], it would price
    only the cap, by best's operations with operands swapped around + and *,
    which round alike, so the cap's Bid is built here from best's terms.
    """
    num = GRID_POINTS
    alpha, beta, cost_rate, cost_bw = sp.alpha, sp.beta, sp.cost_rate, sp.cost_bw
    exp, log1p, ln2 = math.exp, math.log1p, math.log(2.0)
    # scalar rate i is lo_edge * e**(i * dl), at L = l0 + i * dl
    l0, dl = log1p(_LOW_EDGE), math.log(b_max / lo_edge) / (num - 1)
    lo, hi, i, bw_lo, bw_hi = -1, num, num - 1, math.inf, math.inf
    while hi - lo > 1:
        x = snr * (l0 + i * dl)
        y = log1p(x)
        bw = lo_edge * exp(i * dl) * ln2 / y
        if bw <= budget or (1.0 + x) * y < snr:
            lo, bw_lo = i, bw
        else:
            hi, bw_hi = i, bw
        i = (lo + hi) // 2
    j = lo
    if not bw_lo <= budget:  # _bw_roundoff peaks at rate 0, where L is least
        no_fit = min(bw_lo, bw_hi) > budget * (1.0 + _NO_FIT_MARGIN)
        return _NO_FEASIBLE_RATE if no_fit and _bw_roundoff(snr * l0, snr) <= _BW_ROUNDOFF else None

    g_0, g_j = _grid_rate(max(j - 1, 0), lo_edge, b_max, num), _grid_rate(j, lo_edge, b_max, num)
    bw_j, p_j = _grid_bw(g_j, b_min, snr), g_j**beta
    best = p_j * alpha - g_j * cost_rate - bw_j * cost_bw
    if not (bw_j <= budget and best < math.inf and dl >= _MIN_LOG_STEP):
        return None
    last = j == num - 1
    g_1 = g_j if last else _grid_rate(j + 1, lo_edge, b_max, num)
    # a grid bandwidth that fits costs at most bw_cost exactly, and eps bounds
    # the roundoff of the profits up to rate j
    bw_cost = cost_bw * (budget * (1.0 + 2.0 * _BW_ROUNDOFF))
    eps = _ROUNDOFF * (alpha * p_j + cost_rate * g_j + bw_cost) + bw_cost * _BW_ROUNDOFF
    bound = (best - 2.0 * eps + cost_rate * b_min) / alpha
    i = math.floor((math.log(bound) / beta - math.log(lo_edge)) / dl) if bound > 0.0 else 0
    i = min(max(i, 0), j)
    g_i, x = lo_edge * exp(i * dl), snr * (l0 + i * dl)
    # the bandwidths' relative roundoff falls with L; h(g_i) has room for the
    # few-ulp gap between g_i and the grid's rate i
    coeffs = alpha * beta, beta, cost_rate, bw_cost
    h_0 = _slope_bound(g_0, _ROUNDOFF, coeffs)
    if not (
        (last or _grid_bw(g_1, b_min, snr) > max(budget, bw_j * (1.0 + 6.0 * _BW_ROUNDOFF)))
        and _bw_roundoff(x, snr) <= _BW_ROUNDOFF
        and (i == 0 or alpha * g_i**beta - cost_rate * b_min < best - 2.0 * eps)
        and (i == j or _slope_bound(g_i, 1e-10, coeffs) > 0.0 and h_0 * (g_j - g_0) > 2.0 * eps)
    ):
        return None
    gap = _GOLDEN * (1.0 - _GOLDEN) * min(RATE_TOL, g_j - g_0) - _ROUNDOFF * g_j
    if last and i < j and h_0 * gap > 2.0 * (
        eps + bw_cost * (_bw_roundoff(snr * (l0 + (j - 1) * dl), snr) - _BW_ROUNDOFF)
    ):
        if best < 0:
            return _UNPROFITABLE
        return Bid(rate=g_j, price=p_j * alpha, bandwidth=bw_j, guarantee=b_min / g_j)
    return g_0, g_j, g_1, best


def _full_grid_window(
    sp: SpParams, b_min: float, lo_edge: float, b_max: float, snr: float, budget: float
) -> tuple[float, float, float, float] | NoBid:
    """The full bid grid's argmax where _certified_window gives no answer:
    the grid rates around the first best profit among the rates that fit,
    and that profit; _NO_FEASIBLE_RATE when no rate fits."""
    alpha, beta, cost_rate, cost_bw = sp.alpha, sp.beta, sp.cost_rate, sp.cost_bw
    best, best_profit = 0, -math.inf
    for i in range(GRID_POINTS):
        g = _grid_rate(i, lo_edge, b_max, GRID_POINTS)
        bw = _grid_bw(g, b_min, snr)
        profit = g**beta * alpha - g * cost_rate - bw * cost_bw if bw <= budget else -math.inf
        if profit > best_profit:
            best, best_profit = i, profit
    if not math.isfinite(best_profit):
        return _NO_FEASIBLE_RATE
    near = (max(best - 1, 0), best, min(best + 1, GRID_POINTS - 1))
    return (*(_grid_rate(i, lo_edge, b_max, GRID_POINTS) for i in near), best_profit)


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
    snr, b_max = link.mean_snr, link.b_max
    lo_edge = b_min * (1.0 + _LOW_EDGE)
    # below _MIN_SNR the bandwidths' roundoff, eps / (snr * L), can pass the margins
    window = _certified_window(sp, b_min, lo_edge, b_max, snr, budget) if snr >= _MIN_SNR else None
    if window is None:
        window = _full_grid_window(sp, b_min, lo_edge, b_max, snr, budget)
    if not isinstance(window, tuple):  # a NoBid, or the certified cap's Bid
        return window
    lo, b_star, hi, best_profit = window
    alpha, beta, cost_rate, cost_bw = sp.alpha, sp.beta, sp.cost_rate, sp.cost_bw

    # golden-section refinement around the winning grid point; the -inf
    # penalty keeps the search on the feasible side of a budget corner.  Each
    # pass prices the one inner point whose profit is missing (None): x1,
    # then x2, then the point each step moves in.  A certified rate cap never
    # gets here, its Bid built by the certificate.
    golden, log, log2, inf, infeasible = _GOLDEN, math.log, math.log2, math.inf, -math.inf
    x1 = hi - golden * (hi - lo)
    x2 = lo + golden * (hi - lo)
    f1 = f2 = None
    while True:
        x = x1 if f1 is None else x2
        d = log2(1.0 + snr * log(x / b_min))
        bw = x / d if d else inf
        f = infeasible if bw > budget else alpha * x**beta - cost_rate * x - cost_bw * bw
        if f1 is None:
            f1 = f
            if f2 is None:
                continue
        else:
            f2 = f
        if hi - lo <= RATE_TOL:
            break
        if f1 >= f2:
            hi, x2, f2 = x2, x1, f1
            x1 = hi - golden * (hi - lo)
            f1 = None
        else:
            lo, x1, f1 = x1, x2, f2
            x2 = lo + golden * (hi - lo)
            f2 = None

    # the first of the three best profits wins a tie, as max() would pick it
    if f1 > best_profit:
        best_profit, b_star = f1, x1
    if f2 > best_profit:
        best_profit, b_star = f2, x2
    if best_profit < 0:
        return _UNPROFITABLE
    return Bid(
        rate=b_star,
        price=sp_price(b_star, sp),
        bandwidth=_grid_bw(b_star, b_min, snr),
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


def _last_feasible(
    lo: float, hi: float, b_min: float, snr: float, inv_alpha: float, bw_max: float
) -> int:
    """Index of the last rate of the REBID_POINTS-point grid from lo to hi
    whose _expanded_bw fits bw_max, or -1.

    A binary search finds the end of the prefix where "feasible, or still
    falling" holds (see expansion_rebid).  It leaves out the lowest rates,
    where the relative roundoff of _expanded_bw, about
    eps * (1 + 1 / snr) / L**k, exceeds a thousandth of the relative step
    k * dL / L to the next rate, so that the two can come out of order;
    those are scanned top down when no higher rate fits."""
    num = REBID_POINTS

    def expanded(i: int) -> float:
        return _expanded_bw(_grid_rate(i, lo, hi, num), b_min, snr, inv_alpha)

    # the scanned rates have L**(k - 1) <= 1e3 * eps * (1 + 1 / snr) / (k * dL),
    # where L = ln(rate i / b_min) grows by dL per index
    dl = max(math.log(hi / lo) / (num - 1), 1e-300)
    noise = 2.2e-13 * (1.0 + 1.0 / snr) if snr > 0.0 else math.inf
    ln_l = min((math.log(noise) - math.log(inv_alpha * dl)) / (inv_alpha - 1.0), 1.0)
    scanned = (math.exp(ln_l) - math.log(lo / b_min)) / dl
    i_lo = max(0, math.ceil(min(scanned, num))) - 1
    scan, i_hi, j = i_lo, num, -1
    while i_hi - i_lo > 1:
        mid = (i_lo + i_hi) // 2
        bw = expanded(mid)
        if bw <= bw_max:
            i_lo = j = mid
        elif mid + 1 < num and bw > expanded(mid + 1):
            i_lo, j = mid, -1
        else:
            i_hi = mid
    while j < 0 <= scan:
        if expanded(scan) <= bw_max:
            j = scan
        scan -= 1
    return j


def expansion_rebid(
    sp: SpParams, link: LinkState, b_min: float, model: DecisionModel
) -> Bid | NoBid:
    """Highest-rate bid whose post-expansion bandwidth still fits the budget.

    When the profit-optimal bid already exhausts the bandwidth budget,
    expanding it is impossible and the SP must concede some rate instead.
    Lowering the rate raises the guarantee, which raises the expansion
    target, so the post-expansion bandwidth E is not monotone in the rate.
    With L = ln(b / b_min), k = 1 / alpha and h(x) = x / ((1 + x) ln(1 + x)),
    which decreases, d ln E / dL = 1 - (k / L) * h(snr * L**k) rises with L:
    E falls, then rises.  So over the log-spaced rate grid "feasible, or E
    still falls" holds on a prefix ended by the last feasible index j, which
    _last_feasible finds with _expanded_bw, the one scalar formula for E; a
    bisection pins the budget crossing between grid[j] and grid[j + 1].
    Bidding there maximizes revenue among expandable bids and spends the
    whole budget, as an unexpanded bid would have.

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
    j = _last_feasible(lo_edge, cap, b_min, snr, inv_alpha, bw_max)
    if j < 0:
        return _NO_EXPANDABLE_RATE

    b_up = _grid_rate(j, lo_edge, cap, REBID_POINTS)
    if j + 1 < REBID_POINTS:
        lo, hi = b_up, _grid_rate(j + 1, lo_edge, cap, REBID_POINTS)
        while hi - lo > RATE_TOL:
            mid = 0.5 * (lo + hi)
            if _expanded_bw(mid, b_min, snr, inv_alpha) <= bw_max:
                lo = mid
            else:
                hi = mid
        b_up = lo

    # b_up passed the budget test, so bw is finite and within bw_max: it is
    # the bandwidth expand_bw_pt gives the floor-tight bid, whose marginal
    # bandwidth is at most bw below e * b_min; at the scan cap the guarantee
    # can land on the fixed point, where expand_bw_pt leaves the bid as it is
    bw = _expanded_bw(b_up, b_min, snr, inv_alpha)
    price = sp_price(b_up, sp)
    if price - sp.cost_rate * b_up - sp.cost_bw * bw < 0:
        return _UNPROFITABLE_EXPANSION
    floor_tight = Bid(
        rate=b_up, price=price, bandwidth=marginal_bw(b_up, b_min, link), guarantee=b_min / b_up
    )
    return expand_bw_pt(floor_tight, model, link)
