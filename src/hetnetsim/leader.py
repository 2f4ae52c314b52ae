"""Service-provider best response: marginal-bandwidth bidding and the
prospect-aware bandwidth expansion.

An SP offering rate b never allocates more bandwidth than the minimum that
keeps the user's rate floor satisfied in expectation, i.e. the bandwidth at
which b * guarantee(b, bw) = b_min holds with equality.  That reduces the
bid search to one dimension: maximize

    price(b) - cost_rate * b - cost_bw * marginal_bw(b)

over b in (b_min, b_max] subject to marginal_bw(b) <= bw_max.  The objective
is smooth but not unimodal in general, so a log-spaced grid locates the
basin and a golden-section pass refines it.  Both price a rate with
_grid_profit, and the winner's Bid takes sp_price's price and _grid_bw's
bandwidth, the bits its profit was summed from.  The grid's argmax usually sits
at its last feasible rate, the rate cap or the budget corner, and
_certified_window proves that from three grid points when it holds; the
full grid is evaluated only where that certificate fails.  At a rate cap
that no rate the refinement prices can beat, the certificate returns the
cap's Bid itself, priced once, and optimize_bid refines nothing.  At a
budget corner where any probe that fits beats every lower one, it returns
a band around the budget crossing with the window: each golden-section
step is then decided by whether x2 fits, which the band answers for every
x2 outside it, so optimize_bid replays the steps' arithmetic without
pricing a rate, and the golden section then prices only the last two probes.
This search and the rate-conceding rebid find their last feasible grid rate
alike, with _grid_bracket: the log of either bandwidth is convex in the
log-rate, so Newton's method solves the budget crossing once and only the
grid rates next to it are judged, or tangents show that no rate fits.  Both
compute only the grid rates they read, each with _grid_rate in math.*, so a
bid's bits depend on the platform's libm and on nothing numpy dispatches for
the host CPU.

Under prospect-theoretic users a guarantee above 1/e is perceived as smaller
than it is; expand_bw_pt grows the allocated bandwidth until the *perceived*
guarantee matches what an objective user would have seen, keeping rate and
price untouched.
"""

from __future__ import annotations

import math
from collections.abc import Callable

from .channel import LinkState, guarantee_inverse_bw
from .model import Bid, NoBid, SpParams, sp_price
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
# the certificates: the least SNR of the bid grid's, the least excess of ln B
# over ln budget that shows no rate fits, bounds on the relative roundoff of a
# float operation (a few ulps) and of a bid-grid bandwidth, and the least
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

    Only rates above b_min are meaningful: at or below it the required
    guarantee is at least 1, which no finite bandwidth reaches, so math.inf.
    """
    if b_min <= 0:
        raise ValueError(f"b_min must be positive, got {b_min}")
    if b <= 0:
        raise ValueError(f"rate must be positive, got {b}")
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


def _slope_bound(b: float, room: float, coeffs: tuple[float, float, float, float]) -> float:
    """The certificate's h(b) = ab * b**(beta - 1) - cost_rate - bw_cost / b for
    coeffs (ab, beta, cost_rate, bw_cost), less room times the size of its terms."""
    ab, beta, cost_rate, bw_cost = coeffs
    gain, cost = ab * b ** (beta - 1.0), cost_rate + bw_cost / b
    return gain - cost - room * (gain + cost)


def _rise(l: float, snr: float, k: float) -> tuple[float, float]:
    """d ln B / dL = 1 - k x / (L (1 + x) ln(1 + x)) at x = snr * L**k, for B(L)
    = b_min e**L ln 2 / ln(1 + x) (_expanded_bw's bandwidth at k = inv_alpha,
    _grid_bw's at k = 1), less its roundoff at a float L, and rho, the bound
    on their relative roundoff at L >= l; -inf and inf where x is 0."""
    x = snr * l**k
    d = l * (1.0 + x) * math.log1p(x)
    if not d > 0.0:
        return -math.inf, math.inf
    rho = _ROUNDOFF * (1.0 + (1.0 + snr + (6.0 + k + k / l) * x) * l / d)
    return 1.0 - k * x / d - _ROUNDOFF * (1.0 + k + k / l), rho


def _budget_crossing(
    b_min: float, lo: float, top: float, snr: float, k: float, budget: float
) -> tuple[float, float] | tuple[()] | None:
    """(c, slope) with B(c) = budget on B's rising side below top, B of _rise;
    () where every computed B of a grid from lo up to top exceeds the budget;
    None where neither is shown.

    ln B is convex in L, so Newton from L = ln(top / b_min) falls onto c
    without passing B's bottom, and each tangent bounds ln B from below.  A
    step past L = 0 or onto B's falling side shows that no c exists; then the
    rising tangent's value at L = 0, or the lower of the last rising and
    falling tangents where they meet (the next point, closing in on the
    bottom), bounds ln B - ln budget.  A bound above a few times rho at lo
    and above _NO_FIT_MARGIN answers (); a point at or below that, None."""
    log, log1p = math.log, math.log1p
    want, l = log(budget / b_min / log(2.0)), log(top / b_min)
    # the last (L, ln B - ln budget, slope) on each side of B's bottom, and
    # the margin once a bound needs it
    rising = falling = margin = None
    for _ in range(64):
        x = snr * l**k
        y = log1p(x)
        d = l * (1.0 + x) * y
        if not d > 0.0:
            return None
        f, slope = l - log(y) - want, 1.0 - k * x / d
        if slope > 0.0:
            rising = l, f, slope
        else:
            falling = l, f, slope
        if falling is None:
            step = f / slope
            if step < l:
                l -= step
                if abs(step) <= 1e-9 * l:
                    return b_min * math.exp(l), slope
                continue
            bound = f - slope * l
        elif rising is None:  # B falls up to top
            bound = f
        else:
            (a, f_a, s_a), (b, f_b, s_b) = falling, rising
            l = (f_a - f_b + s_b * b - s_a * a) / (s_b - s_a)
            bound = min(f_a + s_a * (l - a), f_b + s_b * (l - b))
        if margin is None:
            margin = max(_NO_FIT_MARGIN, 4.0 * _rise(log(lo / b_min), snr, k)[1])
        if bound > margin:
            return ()
        if f <= margin or not (rising and falling):
            return None
    return None


def _grid_bracket(
    bw: Callable[..., float], args: tuple, k: float, lo: float, hi: float, num: int, budget: float
) -> tuple[int, float, float, float, tuple[float, float] | None] | tuple[()] | None:
    """(j, grid[j], grid[j + 1], bw(grid[j]), crossing) for j the last index of
    the num-point grid from lo to hi whose bw(rate, *args) fits the budget (args
    = (b_min, snr, ...), B of _rise at exponent k), crossing None where the cap fits;
    () where no grid rate fits; None where neither is certified.  Past the
    cap, j is m or m - 1 as grid[m], the rate nearest _budget_crossing's c,
    fits or not, kept where grid[j] fits, grid[j + 1] does not and B rises
    there so that each later rate, dl beyond grid[j + 1], needs more past
    both roundoffs (rho falls with L)."""
    b_min, snr = args[0], args[1]
    if (bw_hi := bw(hi, *args)) <= budget:
        return num - 1, hi, hi, bw_hi, None
    # the L step less the few-ulp roundoff of two grid rates' L
    dl = math.log(hi / lo) / (num - 1) - 16.0 * _ROUNDOFF * (1.0 + abs(math.log10(lo)))
    if not dl > 0.0 < budget:
        return None
    crossing = _budget_crossing(b_min, lo, hi, snr, k, budget)
    if not crossing:
        return crossing
    m = min(max(round(math.log(crossing[0] / lo) / dl), 1), num - 2)
    g_m = _grid_rate(m, lo, hi, num)
    # grid[m] is grid[j] where it fits, else grid[j + 1]; then the other end
    if (bw_j := bw(g_m, *args)) <= budget:
        j, g_j, g_1 = m, g_m, _grid_rate(m + 1, lo, hi, num)
        bracketed = bw(g_1, *args) > budget
    else:
        j, g_j, g_1 = m - 1, _grid_rate(m - 1, lo, hi, num), g_m
        bracketed = (bw_j := bw(g_j, *args)) <= budget
    rise, rho = _rise(math.log(g_1 / b_min), snr, k)
    return (j, g_j, g_1, bw_j, crossing) if bracketed and rise * dl > 3.0 * rho else None


def _crossing_band(
    bw: Callable[..., float],
    args: tuple,
    crossing: tuple[float, float],
    rho: float,
    lo: float,
    hi: float,
    budget: float,
) -> tuple[float, float]:
    """The band (c_lo, c_hi) around a crossing (c, slope) of bw(rate, *args)
    with the budget, w = 8 rho / slope < 1: c (1 - w) if strictly inside (lo,
    hi) with bw(c_lo, *args) <= budget (1 - 3 rho), else 0.0, and c (1 + w) if
    inside with bw(c_hi, *args) > budget (1 + 3 rho), else inf.  Where bw rises
    from lo on with relative roundoff rho, a computed bw then fits at or below
    c_lo and not at or above c_hi, as (1 - 3 rho) (1 + rho) <= 1 - rho and (1 +
    3 rho) (1 - rho) >= 1 + rho for rho <= 1/3."""
    c, slope = crossing
    w = 8.0 * rho / slope
    c_lo, c_hi = c * (1.0 - w), c * (1.0 + w)
    fits = lo < c_lo < hi and bw(c_lo, *args) <= budget * (1.0 - 3.0 * rho)
    over = w < 1.0 and lo < c_hi < hi and bw(c_hi, *args) > budget * (1.0 + 3.0 * rho)
    return c_lo if fits else 0.0, c_hi if over else math.inf


def _certified_window(
    sp: SpParams, b_min: float, lo_edge: float, b_max: float, snr: float, budget: float
) -> tuple[float, float, float, float, tuple[float, float] | None] | Bid | NoBid | None:
    """The full bid grid's argmax, found without the grid: the grid rates
    around it, its profit, bit for bit, and the band of its budget crossing
    where the refinement may be replayed, else None; or optimize_bid's answer
    at the rate cap; _NO_FEASIBLE_RATE when no grid rate fits; or None where
    the certificate fails.

    With L = ln(b / b_min) and x = snr * L, the bandwidth B has d ln B / dL =
    1 - snr / ((1 + x) ln(1 + x)), rising with L, and the grid g is uniform
    in L.  So the rates that fit form one run, and _grid_bracket finds j, the
    last index that fits, or shows that none does.  The grid's values at
    j - 1 and j then certify j as the argmax, with margins above the roundoff:
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
    Every rate the refinement prices lies in [g[j-1], g[j+1]], and two it
    compares lie gap apart or more, so with eps retaken at g[j+1] the same
    margin shows that a probe that fits beats every lower probe.  Below the
    cap, where B also rises from g[j-1] on, a probe fits exactly where its
    computed B does, and _crossing_band's band around the crossing c that
    _grid_bracket solved decides that for every probe outside it.
    """
    num = GRID_POINTS
    bracket = _grid_bracket(_grid_bw, (b_min, snr), 1.0, lo_edge, b_max, num, budget)
    if not bracket:
        return None if bracket is None else _NO_FEASIBLE_RATE
    j, g_j, g_1, bw_j, crossing = bracket
    alpha, beta, cost_rate, cost_bw = sp.alpha, sp.beta, sp.cost_rate, sp.cost_bw
    # scalar rate i is lo_edge * e**(i * dl), at L = l0 + i * dl
    l0, dl = math.log1p(_LOW_EDGE), math.log(b_max / lo_edge) / (num - 1)
    g_0 = _grid_rate(max(j - 1, 0), lo_edge, b_max, num)
    p_j = g_j**beta
    best = p_j * alpha - g_j * cost_rate - bw_j * cost_bw
    if not (best < math.inf and dl >= _MIN_LOG_STEP):
        return None
    last = j == num - 1
    # a grid bandwidth that fits costs at most bw_cost exactly, and eps bounds
    # the roundoff of the profits up to rate j
    bw_cost = cost_bw * (budget * (1.0 + 2.0 * _BW_ROUNDOFF))
    eps = _ROUNDOFF * (alpha * p_j + cost_rate * g_j + bw_cost) + bw_cost * _BW_ROUNDOFF
    bound = (best - 2.0 * eps + cost_rate * b_min) / alpha
    i = math.floor((math.log(bound) / beta - math.log(lo_edge)) / dl) if bound > 0.0 else 0
    i = min(max(i, 0), j)
    g_i = lo_edge * math.exp(i * dl)
    # the bandwidths' relative roundoff falls with L; h(g_i) has room for the
    # few-ulp gap between g_i and the grid's rate i
    coeffs = alpha * beta, beta, cost_rate, bw_cost
    h_0 = _slope_bound(g_0, _ROUNDOFF, coeffs)
    if not (
        _rise(l0 + i * dl, snr, 1.0)[1] <= _BW_ROUNDOFF
        and (i == 0 or alpha * g_i**beta - cost_rate * b_min < best - 2.0 * eps)
        and (i == j or _slope_bound(g_i, 1e-10, coeffs) > 0.0 and h_0 * (g_j - g_0) > 2.0 * eps)
    ):
        return None
    gap = _GOLDEN * (1.0 - _GOLDEN) * min(RATE_TOL, g_j - g_0) - _ROUNDOFF * g_j
    band = None
    if i < j:
        rise, rho = _rise(math.log(g_0 / b_min), snr, 1.0)
        if h_0 * gap > 2.0 * (
            _ROUNDOFF * (alpha * g_1**beta + cost_rate * g_1 + bw_cost) + bw_cost * rho
        ):
            if last:
                if best < 0:
                    return _UNPROFITABLE
                return Bid(rate=g_j, price=p_j * alpha, bandwidth=bw_j, guarantee=b_min / g_j)
            if rise > 0.0:
                band = _crossing_band(_grid_bw, (b_min, snr), crossing, rho, g_0, g_1, budget)
    return g_0, g_j, g_1, best, band


def _grid_profit(b: float, sp: SpParams, b_min: float, snr: float, budget: float) -> float:
    """Profit of rate b at its marginal bandwidth, in the bid grid's operation
    order, with _grid_bw's bandwidth; -inf where that bandwidth exceeds the
    budget."""
    bw = _grid_bw(b, b_min, snr)
    return b**sp.beta * sp.alpha - b * sp.cost_rate - bw * sp.cost_bw if bw <= budget else -math.inf


def _full_grid_window(
    sp: SpParams, b_min: float, lo_edge: float, b_max: float, snr: float, budget: float
) -> tuple[float, float, float, float, None] | NoBid:
    """The full bid grid's argmax where _certified_window gives no answer:
    the grid rates around the first best profit among the rates that fit,
    that profit and no band; _NO_FEASIBLE_RATE when no rate fits."""
    best, best_profit = 0, -math.inf
    for i in range(GRID_POINTS):
        profit = _grid_profit(_grid_rate(i, lo_edge, b_max, GRID_POINTS), sp, b_min, snr, budget)
        if profit > best_profit:
            best, best_profit = i, profit
    if not math.isfinite(best_profit):
        return _NO_FEASIBLE_RATE
    near = (max(best - 1, 0), best, min(best + 1, GRID_POINTS - 1))
    return (*(_grid_rate(i, lo_edge, b_max, GRID_POINTS) for i in near), best_profit, None)


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
    lo, b_star, hi, best_profit, band = window

    # golden-section refinement around the winning grid point; the -inf
    # profit keeps the search on the feasible side of a budget corner.  A
    # certified corner's band decides each step by whether x2 fits alone, so
    # the replay prices nothing and leaves hi - lo within RATE_TOL; the plain
    # golden section then prices only its first two probes, x1 and x2.  A
    # certified rate cap never gets here, its Bid built by the certificate.
    x1 = hi - _GOLDEN * (hi - lo)
    x2 = lo + _GOLDEN * (hi - lo)
    if band:
        c_lo, c_hi = band
        while hi - lo > RATE_TOL:
            if x2 <= c_lo or x2 < c_hi and _grid_bw(x2, b_min, snr) <= budget:
                lo, x1 = x1, x2
                x2 = lo + _GOLDEN * (hi - lo)
            else:
                hi, x2 = x2, x1
                x1 = hi - _GOLDEN * (hi - lo)
    f1 = _grid_profit(x1, sp, b_min, snr, budget)
    f2 = _grid_profit(x2, sp, b_min, snr, budget)
    while hi - lo > RATE_TOL:
        if f1 >= f2:
            hi, x2, f2 = x2, x1, f1
            x1 = hi - _GOLDEN * (hi - lo)
            f1 = _grid_profit(x1, sp, b_min, snr, budget)
        else:
            lo, x1, f1 = x1, x2, f2
            x2 = lo + _GOLDEN * (hi - lo)
            f2 = _grid_profit(x2, sp, b_min, snr, budget)

    # the first of the three best profits wins a tie, as max() would pick it
    if f1 > best_profit:
        best_profit, b_star = f1, x1
    if f2 > best_profit:
        best_profit, b_star = f2, x2
    if best_profit < 0:
        return _UNPROFITABLE
    bw = _grid_bw(b_star, b_min, snr)
    return Bid(rate=b_star, price=sp_price(b_star, sp), bandwidth=bw, guarantee=b_min / b_star)


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
    if not model.is_pt or bid.guarantee <= FIXED_POINT:
        return bid
    lam = weight_inverse(bid.guarantee, model)
    new_bw = guarantee_inverse_bw(bid.rate, lam, link)
    if new_bw == math.inf:
        return _UNEXPANDABLE
    if new_bw > link.bw_max * (1.0 + _BUDGET_SLACK):
        return _BUDGET_EXHAUSTED
    return Bid(rate=bid.rate, price=bid.price, bandwidth=new_bw, guarantee=lam)


def _expanded_bw(b: float, b_min: float, snr: float, inv_alpha: float) -> float:
    """Bandwidth a floor-tight rate-b bid needs once expanded for a weighting
    user with Prelec exponent 1 / inv_alpha: guarantee_inverse_bw of
    weight_inverse(b_min / b), in their operation order.  inf when no finite
    bandwidth reaches the expansion target: a target that rounds to 1 (small
    exponents just above b_min) or an SNR of 0 leaves no positive logarithm.

    With k = inv_alpha, L = ln(b / b_min) > 0 and x = snr * L**k its relative
    roundoff is at most rho = 1e-15 * (1 + (1 + snr + (6 + k + k / L) x) / ((1 + x)
    ln(1 + x))) (_rise), falling with L: the quotient's ulp costs L**k k / L ulps,
    the exp-log trip 1 / L**k, each times x / (1 + x), and 1 + x a log ulp."""
    target = math.exp(-((-math.log(b_min / b)) ** inv_alpha))
    denom = math.log2(1.0 - snr * math.log(target))
    return b / denom if denom > 0.0 else math.inf


def _rebid_rate(
    lo: float, hi: float, b_min: float, snr: float, inv_alpha: float, bw_max: float
) -> float | None:
    """grid[j], j the last index whose E fits bw_max, bisected toward grid[j + 1];
    None where none fits.  _grid_bracket finds j; where it certifies nothing,
    the reference's definition does, scanning the grid top down.  Where E rises
    from grid[j] on, only midpoints inside _crossing_band's band are judged."""
    num, args = REBID_POINTS, (b_min, snr, inv_alpha)
    bracket = _grid_bracket(_expanded_bw, args, inv_alpha, lo, hi, num, bw_max)
    if bracket is None:  # the cap does not fit
        for j in range(num - 2, -1, -1):
            g_j = _grid_rate(j, lo, hi, num)
            if (bw_j := _expanded_bw(g_j, *args)) <= bw_max:
                bracket = j, g_j, _grid_rate(j + 1, lo, hi, num), bw_j, None
                break
    if not bracket:
        return None
    _, g_j, g_1, _, crossing = bracket
    c_lo, c_hi = 0.0, math.inf
    if crossing:
        rise, rho = _rise(math.log(g_j / b_min), snr, inv_alpha)
        if rise > 0.0:
            c_lo, c_hi = _crossing_band(_expanded_bw, args, crossing, rho, g_j, g_1, bw_max)
    while g_1 - g_j > RATE_TOL:
        mid = 0.5 * (g_j + g_1)
        if mid <= c_lo or mid < c_hi and _expanded_bw(mid, *args) <= bw_max:
            g_j = mid
        else:
            g_1 = mid
    return g_j


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
    _grid_bracket finds from the budget crossing solved once, as the bid
    search does (else the reference's top-down scan), judged by _expanded_bw,
    the one scalar formula for E; _rebid_rate bisects toward grid[j + 1] to
    the crossing.  Bidding there maximizes revenue among expandable bids and
    spends the whole budget, as an unexpanded bid would have.  The Bid is the
    one expand_bw_pt would make of the floor-tight bid at that rate.

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
    b_up = _rebid_rate(lo_edge, cap, b_min, snr, inv_alpha, bw_max)
    if b_up is None:
        return _NO_EXPANDABLE_RATE

    # b_up passed the budget test, so bw is finite and within bw_max: it is
    # the bandwidth expand_bw_pt gives the floor-tight bid, whose marginal
    # bandwidth is at most bw below e * b_min; at the scan cap the guarantee
    # can land on the fixed point, where expand_bw_pt leaves the bid as it is
    bw = _expanded_bw(b_up, b_min, snr, inv_alpha)
    price = sp_price(b_up, sp)
    if price - sp.cost_rate * b_up - sp.cost_bw * bw < 0:
        return _UNPROFITABLE_EXPANSION
    guarantee = b_min / b_up
    if guarantee <= FIXED_POINT:
        return Bid(b_up, price, marginal_bw(b_up, b_min, link), guarantee)
    return Bid(b_up, price, bw, weight_inverse(guarantee, model))
