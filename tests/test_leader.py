"""Tests for provider-side bid optimization and bandwidth expansion.

The dense-grid profit oracle and the bisection inverse, shared in conftest,
are written directly from the closed-form guarantee model so the optimizer
is checked against independent arithmetic, not against itself.
"""

import decimal
import itertools
import math

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from conftest import (
    bisect_bw,
    calls_named,
    dense_grid_bid,
    make_link,
    make_sp,
    provider_cost,
    watch,
)
from hetnetsim import leader
from hetnetsim.channel import LinkState, guarantee_inverse_bw, service_guarantee
from hetnetsim.leader import (
    expand_bw_pt,
    expansion_rebid,
    marginal_bw,
    optimize_bid,
)
from hetnetsim.model import (
    Bid,
    NoBid,
    sp_price,
    sp_utility,
)
from hetnetsim.prospect import FIXED_POINT, DecisionModel, weight, weight_inverse


def signed_pow10(lo, hi):
    """Strategy for -10**e and 10**e with e in [lo, hi]."""
    return st.tuples(st.sampled_from([-1.0, 1.0]), st.floats(lo, hi)).map(
        lambda t: t[0] * 10.0 ** t[1]
    )


def bid_profit(bid, sp):
    return bid.price - provider_cost(bid.rate, bid.bandwidth, sp)


def scalar_expanded_bw(b, b_min, link, model):
    """Post-expansion bandwidth of a floor-tight rate-b bid, one rate at a
    time; inf where the expansion target is out of reach."""
    return guarantee_inverse_bw(b, weight_inverse(b_min / b, model), link)


def reference_grid(lo, hi, num):
    """The num-point log-spaced rate grid from lo to hi, both ends pinned:
    rate i is 10 ** (i * step + log10(lo)), step = (log10(hi) - log10(lo)) /
    (num - 1), in math.*, the leader's formula for it."""
    log_lo = math.log10(lo)
    step = (math.log10(hi) - log_lo) / (num - 1)
    return [lo, *(10.0 ** (i * step + log_lo) for i in range(1, num - 1)), hi]


def reference_optimize_bid(sp, link, b_min, grid_points=1024, tol=1e-9):
    """The bid search as first written, the reference for optimize_bid.

    The whole scalar grid, an argmax over it and a golden-section pass over
    a closure objective; optimize_bid must agree with it field for field.
    Calls production sp_price for the bid's price."""
    if not link.covered or link.b_max <= 0:
        return NoBid("link not covered")
    if link.b_max <= b_min * (1.0 + 1e-6):
        return NoBid("rate cap does not exceed the minimum rate")

    budget = link.bw_max * (1.0 + 1e-12)
    snr = link.mean_snr

    def required_bw(b):
        d = math.log2(1.0 + snr * math.log(b / b_min))
        return b / d if d else math.inf

    def objective(b):
        bw = required_bw(b)
        if bw > budget:
            return -math.inf
        return sp.alpha * b**sp.beta - sp.cost_rate * b - sp.cost_bw * bw

    grid = reference_grid(b_min * (1.0 + 1e-6), link.b_max, grid_points)
    profit = [objective(b) for b in grid]
    # max() keeps the first of equal profits, as an argmax does
    best = max(range(grid_points), key=profit.__getitem__)
    if not math.isfinite(profit[best]):
        return NoBid("bandwidth budget cannot support any rate")

    golden = (math.sqrt(5.0) - 1.0) / 2.0
    lo = grid[best - 1] if best > 0 else grid[0]
    hi = grid[best + 1] if best < grid_points - 1 else grid[-1]
    x1 = hi - golden * (hi - lo)
    x2 = lo + golden * (hi - lo)
    f1, f2 = objective(x1), objective(x2)
    while hi - lo > tol:
        if f1 >= f2:
            hi, x2, f2 = x2, x1, f1
            x1 = hi - golden * (hi - lo)
            f1 = objective(x1)
        else:
            lo, x1, f1 = x1, x2, f2
            x2 = lo + golden * (hi - lo)
            f2 = objective(x2)

    candidates = [(profit[best], grid[best]), (f1, x1), (f2, x2)]
    best_profit, b_star = max(candidates, key=lambda item: item[0])
    if best_profit < 0:
        return NoBid("no profitable rate")
    return Bid(
        rate=b_star,
        price=sp_price(b_star, sp),
        bandwidth=required_bw(b_star),
        guarantee=b_min / b_star,
    )


def reference_bw_floor(b_min, snr):
    """The bottom of the marginal bandwidth B at snr > 0, the tests' own
    oracle (the bid search computes no floor): the rate above b_min whose B
    is least, and that least B.  With y = 1 + snr * ln(b / b_min), B is
    b_min * exp((y - 1) / snr) * ln 2 / ln y, which falls until y ln y = snr,
    then rises, so ln y = W(snr) (Lambert W) there.  Newton steps fall to W
    from log1p(snr) >= W."""
    w = math.log1p(snr)
    for _ in range(64):
        w -= (step := (w - snr * math.exp(-w)) / (w + 1.0))
        if step <= 1e-15 * w:
            break
    rate = b_min * math.exp(math.expm1(w) / snr)
    return rate, rate * math.log(2.0) / w


def reference_expansion_rebid(sp, link, b_min, model, grid_points=256, tol=1e-9):
    """Point-by-point scalar scan, the reference for expansion_rebid's search.

    It judges every grid rate with the scalar closed forms, then runs the
    same bisection and final bid construction; expansion_rebid must agree
    with it field for field.  Calls production code: guarantee_inverse_bw
    and weight_inverse (through scalar_expanded_bw), sp_price, marginal_bw,
    and expand_bw_pt for the final expansion."""
    if not model.is_pt:
        return NoBid("expansion applies to weighting users only")
    if not link.covered or link.b_max <= 0:
        return NoBid("link not covered")
    cap = min(link.b_max, math.e * b_min)
    if cap <= b_min * (1.0 + 1e-6):
        return NoBid("rate cap does not exceed the minimum rate")

    def expanded_bw(b):
        return scalar_expanded_bw(b, b_min, link, model)

    grid = reference_grid(b_min * (1.0 + 1e-6), cap, grid_points)
    feasible = [expanded_bw(b) <= link.bw_max for b in grid]
    if not any(feasible):
        return NoBid("expansion exceeds the budget at every rate")

    j = max(i for i, ok in enumerate(feasible) if ok)
    b_up = grid[j]
    if j + 1 < grid_points:
        lo, hi = b_up, grid[j + 1]
        while hi - lo > tol:
            mid = 0.5 * (lo + hi)
            if expanded_bw(mid) <= link.bw_max:
                lo = mid
            else:
                hi = mid
        b_up = lo

    bw = expanded_bw(b_up)
    if sp_price(b_up, sp) - sp.cost_rate * b_up - sp.cost_bw * bw < 0:
        return NoBid("no profitable expandable rate")
    candidate = Bid(
        rate=b_up,
        price=sp_price(b_up, sp),
        bandwidth=marginal_bw(b_up, b_min, link),
        guarantee=b_min / b_up,
    )
    return expand_bw_pt(candidate, model, link)


def nudged(x, ulps):
    """x moved by |ulps| units in the last place, up for positive ulps."""
    for _ in range(abs(ulps)):
        x = math.nextafter(x, math.inf if ulps > 0 else 0.0)
    return x


def bisection_point(lo, hi, path):
    """The bisection midpoint reached from (lo, hi) by path, each True
    keeping the upper half, as the rebid's bisection steps."""
    for upper in path:
        mid = 0.5 * (lo + hi)
        lo, hi = (mid, hi) if upper else (lo, mid)
    return 0.5 * (lo + hi)


class TestMarginalBw:
    def test_rate_at_or_below_floor_is_infeasible(self):
        link = make_link(10.0)
        assert marginal_bw(1.0, 1.0, link) == math.inf
        assert marginal_bw(0.5, 1.0, link) == math.inf

    @pytest.mark.parametrize(
        "b, b_min, message",
        [
            (2.0, 0.0, "b_min must be positive, got 0.0"),
            (2.0, -1.0, "b_min must be positive, got -1.0"),
            (0.0, 1.0, "rate must be positive, got 0.0"),
            (-2.0, 1.0, "rate must be positive, got -2.0"),
        ],
    )
    def test_nonpositive_rate_or_floor_rejected(self, b, b_min, message):
        with pytest.raises(ValueError) as err:
            marginal_bw(b, b_min, make_link(10.0))
        assert str(err.value) == message

    def test_known_value(self):
        link = make_link(10.0)
        bw = marginal_bw(2.0, 1.0, link)
        assert bw == pytest.approx(0.6694, abs=1e-4)

    def test_floor_identity_round_trip(self):
        rng = np.random.default_rng(7)
        for _ in range(200):
            snr = 10.0 ** rng.uniform(0.0, 3.0)
            b_min = rng.uniform(0.5, 5.0)
            b = b_min * rng.uniform(1.001, 20.0)
            link = make_link(snr, bw_max=1e9)
            bw = marginal_bw(b, b_min, link)
            assert b * service_guarantee(b, bw, link) == pytest.approx(b_min, rel=1e-9)

    def test_matches_bisection_oracle(self):
        rng = np.random.default_rng(11)
        for _ in range(100):
            snr = 10.0 ** rng.uniform(0.0, 2.5)
            b_min = rng.uniform(0.5, 4.0)
            b = b_min * rng.uniform(1.01, 10.0)
            link = make_link(snr, bw_max=1e9)
            assert marginal_bw(b, b_min, link) == pytest.approx(
                bisect_bw(b, b_min / b, link), rel=1e-6
            )

    def test_less_bandwidth_needed_at_higher_snr(self):
        lo = make_link(5.0)
        hi = make_link(50.0)
        assert marginal_bw(3.0, 1.0, hi) < marginal_bw(3.0, 1.0, lo)


class TestOptimizeBid:
    def link(self):
        # hand-built state: rate cap 10, bandwidth budget 5, mean SNR 10
        return LinkState(path_loss_db=0.0, mean_snr=10.0, covered=True, bw_max=5.0, b_max=10.0)

    def test_reference_instance_matches_fine_grid(self):
        sp = make_sp()
        link = self.link()
        bid = optimize_bid(sp, link, b_min=1.0)
        assert isinstance(bid, Bid)
        rate_star, profit_star = dense_grid_bid(sp, link, 1.0, 200_000, 1e-12)
        got = bid_profit(bid, sp)
        assert got >= profit_star - 1e-6 * abs(profit_star)
        assert bid.rate == pytest.approx(rate_star, rel=1e-3)

    def test_floor_equality_and_consistency(self):
        rng = np.random.default_rng(23)
        reals = 0
        for _ in range(120):
            sp = make_sp(
                alpha=rng.uniform(0.2, 2.0),
                beta=rng.uniform(1.05, 2.0),
                cost_rate=rng.uniform(0.01, 0.5),
                cost_bw=rng.uniform(0.05, 1.5),
            )
            snr = 10.0 ** rng.uniform(0.3, 2.5)
            bw_max = rng.uniform(0.5, 30.0)
            b_min = rng.uniform(0.5, 4.0)
            link = make_link(snr, bw_max=bw_max)
            bid = optimize_bid(sp, link, b_min)
            if not bid:
                continue
            reals += 1
            assert abs(bid.rate * bid.guarantee - b_min) <= 1e-6 * b_min
            assert bid.guarantee == pytest.approx(
                service_guarantee(bid.rate, bid.bandwidth, link), rel=1e-9
            )
            assert bid.bandwidth <= link.bw_max * (1.0 + 1e-9)
            assert bid.price == pytest.approx(sp_price(bid.rate, sp), rel=1e-12)
            assert bid_profit(bid, sp) >= -1e-12
        assert reals >= 40

    def test_local_optimality(self):
        sp = make_sp()
        link = self.link()
        b_min = 1.0
        bid = optimize_bid(sp, link, b_min)
        base = bid_profit(bid, sp)
        for factor in (0.999, 1.001):
            b = bid.rate * factor
            if b <= b_min or b > link.b_max:
                continue
            bw = marginal_bw(b, b_min, link)
            if bw > link.bw_max * (1.0 + 1e-12):
                continue
            perturbed = sp_price(b, sp) - provider_cost(b, bw, sp)
            assert base >= perturbed - 1e-9 * abs(base)

    def test_full_acceptance_matches_profit_sign(self):
        # a bid is only placed when full acceptance covers its cost
        sp = make_sp()
        bid = optimize_bid(sp, make_link(10.0, bw_max=5.0), 1.0)
        assert isinstance(bid, Bid)
        assert sp_utility(True, bid, sp) >= 0.0

    def test_uncovered_link(self):
        sp = make_sp()
        out = optimize_bid(sp, make_link(10.0, covered=False), 1.0)
        assert isinstance(out, NoBid)
        assert out.reason == "link not covered"
        assert not out

    def test_rate_cap_below_floor(self):
        from hetnetsim.channel import LinkState

        link = LinkState(path_loss_db=0.0, mean_snr=10.0, covered=True, bw_max=5.0, b_max=0.8)
        out = optimize_bid(make_sp(), link, b_min=1.0)
        assert isinstance(out, NoBid)
        assert out.reason == "rate cap does not exceed the minimum rate"

    def test_budget_cannot_reach_floor(self):
        from hetnetsim.channel import LinkState

        link = LinkState(path_loss_db=0.0, mean_snr=1.0, covered=True, bw_max=0.05, b_max=50.0)
        out = optimize_bid(make_sp(), link, b_min=2.0)
        assert isinstance(out, NoBid)
        assert out.reason == "bandwidth budget cannot support any rate"

    def test_unprofitable_market(self):
        sp = make_sp(alpha=0.05, beta=1.05, cost_rate=50.0, cost_bw=5.0)
        out = optimize_bid(sp, self.link(), 1.0)
        assert isinstance(out, NoBid)
        assert out.reason == "no profitable rate"
        assert sp_utility(True, out, sp) == 0.0
        assert sp_utility(False, out, sp) == 0.0

    def test_minus_one_percent_bandwidth_breaks_floor(self):
        sp = make_sp()
        link = self.link()
        bid = optimize_bid(sp, link, b_min=1.0)
        shaved = service_guarantee(bid.rate, 0.99 * bid.bandwidth, link)
        assert bid.rate * shaved < 1.0

    def test_plus_one_percent_bandwidth_lowers_utility(self):
        sp = make_sp()
        bid = optimize_bid(sp, self.link(), b_min=1.0)
        inflated = sp_price(bid.rate, sp) - provider_cost(bid.rate, 1.01 * bid.bandwidth, sp)
        assert inflated < bid_profit(bid, sp)

    def test_log2_rounding_to_zero_is_infeasible(self):
        # at a mean SNR of 3e-16, 1 + snr * ln(b / b_min) rounds to 1 at the
        # lowest rates, so the log2 under the bandwidth is 0 there: the
        # bandwidth is infinite, on the grid and in the refinement alike,
        # with no division error
        link = LinkState(
            path_loss_db=0.0, mean_snr=2.99e-16, covered=True, bw_max=1.91e16, b_max=40.1
        )
        out = optimize_bid(make_sp(), link, b_min=3.03)
        assert out == reference_optimize_bid(make_sp(), link, 3.03)
        assert out.reason == "no profitable rate"

    def test_grid_narrower_than_the_least_log_step_is_scanned(self):
        # a rate cap 1e-8 above the grid's low edge spaces the grid's rates
        # below _MIN_LOG_STEP apart in log-rate, so the certificate gives no
        # answer and the full grid runs
        b_min, snr = 2.0, 100.0
        lo_edge = b_min * (1.0 + 1e-6)
        link = LinkState(0.0, snr, True, 1e5, lo_edge * (1.0 + 1e-8))
        budget = link.bw_max * (1.0 + 1e-12)
        sp = make_sp()
        assert leader._certified_window(sp, b_min, lo_edge, link.b_max, snr, budget) is None
        assert optimize_bid(sp, link, b_min) == reference_optimize_bid(sp, link, b_min)


class TestOptimizeBidOracle:
    """optimize_bid against the first-written bid search."""

    @settings(max_examples=500, deadline=None)
    @given(
        snr=st.floats(1e-8, 1e9),
        bw_max=st.floats(1e-4, 30.0),
        b_max_factor=st.floats(0.0, 2.0),
        b_min=st.floats(0.1, 10.0),
        price_alpha=st.floats(0.01, 3.0),
        beta=st.floats(1.01, 2.5),
        cost_rate=st.floats(0.0, 1.0, exclude_min=True),
        cost_bw=st.floats(0.0, 5.0, exclude_min=True),
    )
    def test_matches_reference_search(
        self, snr, bw_max, b_max_factor, b_min, price_alpha, beta, cost_rate, cost_bw
    ):
        # b_max_factor scales the Shannon cap, so the rate cap falls on
        # either side of b_min, and the search ends at the cap, at a budget
        # corner, with no rate that fits, or on the full grid
        link = LinkState(
            path_loss_db=0.0,
            mean_snr=snr,
            covered=True,
            bw_max=bw_max,
            b_max=b_max_factor * bw_max * math.log2(1.0 + snr),
        )
        sp = make_sp(alpha=price_alpha, beta=beta, cost_rate=cost_rate, cost_bw=cost_bw)
        got = optimize_bid(sp, link, b_min)
        want = reference_optimize_bid(sp, link, b_min)
        # dataclass equality compares field values exactly; a NoBid equals
        # another only with the same reason
        assert type(got) is type(want)
        assert got == want

    @settings(max_examples=300, deadline=None)
    @given(
        snr=st.one_of(st.floats(-8.0, -6.0), st.floats(-6.0, 6.0)).map(lambda e: 10.0**e),
        b_min=st.floats(0.1, 10.0),
        headroom=st.floats(-5.0, 2.0),
        beta=st.floats(1.01, 2.5),
        cost_bw=st.floats(0.01, 5.0),
        corner=st.one_of(signed_pow10(-12.0, -6.0), st.floats(-2.0, 2.0).map(lambda e: 10.0**e)),
        slope=st.floats(-0.01, 4.0).map(lambda e: 10.0**e) | signed_pow10(-9.0, -0.01),
        cost_rate=st.one_of(st.floats(1e-3, 1.0), st.none()),
        profit=signed_pow10(-15.0, -3.0),
    )
    def test_rate_cap_skip_matches_reference_search(
        self, snr, b_min, headroom, beta, cost_bw, corner, slope, cost_rate, profit
    ):
        # aimed at the edges of the refinement skip at the rate cap: SNR down
        # to 1e-8; the cap within 1e-12..1e-6 of the budget corner, on either
        # side, or well inside the budget; the certificate's slope bound h at
        # the grid rate below the cap a multiple of its cost terms from -0.98
        # to 1e4, signed 1e-9 (a nearly flat profit) and up, so that alpha >
        # 0; and, where cost_rate is drawn as None, cost_rate and alpha
        # solved so that the profit at the cap is a signed 1e-15..1e-3 of its
        # bandwidth cost, around the "no profitable rate" exit, with h then
        # 1e-9..1e4 of the cost terms above the least h that keeps cost_rate
        # above 0
        b_max = b_min * (1.0 + 10.0**headroom)
        cap_bw = b_max / math.log2(1.0 + snr * math.log(b_max / b_min))
        bw_max = cap_bw * (1.0 + corner)
        lo_edge, num = b_min * (1.0 + leader._LOW_EDGE), leader.GRID_POINTS
        g_0 = leader._grid_rate(num - 2, lo_edge, b_max, num)
        budget_hi = bw_max * (1.0 + leader._BUDGET_SLACK) * (1.0 + 2.0 * leader._BW_ROUNDOFF)
        bw_cost, slope_gain = cost_bw * budget_hi / g_0, beta * g_0 ** (beta - 1.0)
        if cost_rate is None:
            # h(g_0) = slope * bw_cost and alpha*b_max**beta - cost_rate*b_max
            # - cost_bw*cap_bw = profit * cost_bw*cap_bw, linear in both;
            # cost_rate > 0 where slope > slope_gain * margin / (bw_cost *
            # b_max**beta) - 1
            margin = (1.0 + profit) * cost_bw * cap_bw
            slope = slope_gain * margin / (bw_cost * b_max**beta) - 1.0 + abs(slope)
            h = slope * bw_cost
            alpha = (margin - b_max * (bw_cost + h)) / (b_max**beta - b_max * slope_gain)
            cost_rate = alpha * slope_gain - bw_cost - h
        else:
            alpha = (cost_rate + bw_cost) * (1.0 + slope) / slope_gain
        assume(alpha > 0.0 and cost_rate > 0.0 and math.isfinite(bw_max) and bw_max > 0.0)
        link = LinkState(0.0, snr, True, bw_max, b_max)
        sp = make_sp(alpha=alpha, beta=beta, cost_rate=cost_rate, cost_bw=cost_bw)
        got = optimize_bid(sp, link, b_min)
        want = reference_optimize_bid(sp, link, b_min)
        assert type(got) is type(want)
        assert got == want

    @pytest.mark.parametrize("snr", [1e-7, 1e-6])
    @pytest.mark.parametrize("corner", [1e-9, 1.0])
    def test_rate_cap_skip_threshold_matches_reference(self, monkeypatch, snr, corner):
        # at these SNRs the grid bandwidths' roundoff, not the certificate,
        # decides the skip: alpha is bisected onto the least price at which
        # the certificate returns the cap's Bid itself, and on both sides of
        # it the cap is certified and the bid matches the reference
        b_min, b_max = 2.0, 20.0
        cap_bw = b_max / math.log2(1.0 + snr * math.log(b_max / b_min))
        link = LinkState(0.0, snr, True, cap_bw * (1.0 + corner), b_max)
        windows = watch(monkeypatch, [(leader, "_certified_window")])

        def skips(alpha):
            sp = make_sp(alpha=alpha, beta=1.3, cost_rate=0.12, cost_bw=1.0)
            bid = optimize_bid(sp, link, b_min)
            assert bid == reference_optimize_bid(sp, link, b_min)
            window = windows.pop().result
            if isinstance(window, Bid):
                assert window is bid and bid.rate == b_max
                return True
            assert window is not None and window[1] == window[2] == b_max
            return False

        lo, hi = 1.0 / snr, 1e3 / snr
        assert not skips(lo) and skips(hi)
        while (mid := math.sqrt(lo * hi)) not in (lo, hi):
            lo, hi = (lo, mid) if skips(mid) else (mid, hi)
        assert hi == math.nextafter(lo, math.inf)

    def test_budget_corner_replay_matches_reference_search(self):
        replayed = []

        @settings(max_examples=300, deadline=None)
        @given(
            snr=st.floats(-8.0, 6.0).map(lambda e: 10.0**e),
            b_min=st.floats(0.1, 10.0),
            headroom=st.floats(-2.0, 2.0),
            place=st.floats(0.0, 1.0),
            offset=signed_pow10(-15.0, -2.0),
            beta=st.floats(1.01, 2.5),
            cost_rate=st.floats(1e-3, 1.0),
            cost_bw=st.floats(0.01, 5.0),
            slope=st.floats(-0.01, 4.0).map(lambda e: 10.0**e) | signed_pow10(-9.0, -0.01),
        )
        def check(snr, b_min, headroom, place, offset, beta, cost_rate, cost_bw, slope):
            # aimed at the edges of the golden-section replay at a budget
            # corner, built rather than filtered for: the cap 1e-2..1e2
            # relative above B's bottom, so that some ten or more grid rates
            # lie on B's rising side; the budget the bandwidth of a rate a
            # signed 1e-15 (a few ulps) to 1e-2 relative from a grid rate on
            # that side; and alpha puts the certificate's slope bound h at
            # the grid rate below the last that fits at a multiple of its
            # cost terms from -0.98 to 1e4, signed 1e-9 and up (alpha > 0)
            b_max = reference_bw_floor(b_min, snr)[0] * (1.0 + 10.0**headroom)
            lo_edge, num = b_min * (1.0 + leader._LOW_EDGE), leader.GRID_POINTS
            grid = reference_grid(lo_edge, b_max, num)
            bws = [leader._grid_bw(b, b_min, snr) for b in grid]
            bottom = bws.index(min(bws))
            assume(bottom < num - 3)
            index = bottom + 1 + round(place * (num - 3 - bottom))
            bw_max = leader._grid_bw(grid[index] * (1.0 + offset), b_min, snr)
            budget = bw_max * (1.0 + leader._BUDGET_SLACK)
            fits = [i for i, bw in enumerate(bws) if bw <= budget]
            # the offset can move the budget past a grid neighbour's
            assume(fits and 0 < fits[-1] < num - 1)
            g_0 = grid[fits[-1] - 1]
            bw_cost = cost_bw * budget * (1.0 + 2.0 * leader._BW_ROUNDOFF)
            alpha = (cost_rate + bw_cost / g_0) * (1.0 + slope) / (beta * g_0 ** (beta - 1.0))
            link = LinkState(0.0, snr, True, bw_max, b_max)
            sp = make_sp(alpha=alpha, beta=beta, cost_rate=cost_rate, cost_bw=cost_bw)
            with pytest.MonkeyPatch.context() as patch:
                windows = watch(patch, [(leader, "_certified_window")])
                got = optimize_bid(sp, link, b_min)
            want = reference_optimize_bid(sp, link, b_min)
            assert type(got) is type(want)
            assert got == want
            replayed.append(any(isinstance(w.result, tuple) and w.result[4] for w in windows))

        check()
        # a certificate that never allowed the replay would pass the equality
        # above; the band came in 18-44% of the examples over 200 hypothesis
        # seeds (h at or below its margin, or no certified window, in most
        # of the rest)
        assert sum(replayed) >= 0.1 * len(replayed)

    @pytest.mark.parametrize(("snr", "lo", "hi"), [(1e-6, 1e6, 1e7), (1e-5, 1e5, 1e6)])
    def test_budget_corner_replay_threshold_matches_reference(self, monkeypatch, snr, lo, hi):
        # at these SNRs the grid bandwidths' roundoff decides the replay's
        # margin: alpha is bisected onto the least price at which the
        # certified window carries the crossing's band, and on both sides of
        # it the window is certified and the bid matches the reference
        b_min, b_max = 2.0, 20.0
        link = LinkState(0.0, snr, True, leader._grid_bw(10.0, b_min, snr), b_max)
        windows = watch(monkeypatch, [(leader, "_certified_window")])

        def replays(alpha):
            sp = make_sp(alpha=alpha, beta=1.3, cost_rate=0.12, cost_bw=1.0)
            bid = optimize_bid(sp, link, b_min)
            assert isinstance(bid, Bid) and bid == reference_optimize_bid(sp, link, b_min)
            window = windows.pop().result
            assert isinstance(window, tuple) and window[1] < bid.rate < window[2]
            return window[4] is not None

        assert not replays(lo) and replays(hi)
        while (mid := math.sqrt(lo * hi)) not in (lo, hi):
            lo, hi = (lo, mid) if replays(mid) else (mid, hi)
        assert hi == math.nextafter(lo, math.inf)

    @pytest.mark.parametrize("n", [50, 500])
    def test_sweep_grid_searches_take_the_certified_path(self, watched_trials, monkeypatch, n):
        # every search of the watched default trial 0 that gets past the
        # early exits is answered by the certificate, never by scanning the
        # full grid; a Bid on its rate cap is the certificate's own return
        # value, and every other Bid refines a certified window that carries
        # the band around its budget crossing, so the refinement is replayed
        # and prices only its last two probes
        calls = watched_trials[n].calls
        windows = [call.result for call in calls_named(calls, "_certified_window")]
        assert windows and None not in windows
        assert not calls_named(calls, "_full_grid_window")
        built, refined = [], []  # per Bid, whether the certificate built it
        for search in calls_named(calls, "optimize_bid"):
            if isinstance(bid := search.result, Bid):
                (window,) = calls_named(search.inner, "_certified_window")
                built.append(bid is window.result)
                assert (bid.rate == search.args[1].b_max) == built[-1]
                assert len(calls_named(search.inner, "_grid_profit")) == (0 if built[-1] else 2)
                if not built[-1]:
                    assert window.result[4] is not None
                    refined.append(search)
        # every n=50 Bid is the certificate's; at n=500 some are and most refine
        assert built and (all(built) if n == 50 else 0 < sum(built) < len(built) / 2)
        # without the band, the golden section prices every probe and gives
        # each replayed Bid field for field (at n=50 none is refined)
        certify = leader._certified_window
        monkeypatch.setattr(leader, "_certified_window", lambda *args: (*certify(*args)[:4], None))
        assert all(leader.optimize_bid(*search.args) == search.result for search in refined)


class TestBandwidthFloor:
    """reference_bw_floor, this test's own oracle for the least marginal
    bandwidth, against the bid grid; and optimize_bid at budgets aimed at
    it, around the certificate's no-fit exit, over the domain of the
    bid-search oracle test."""

    @staticmethod
    def grid_bandwidths(link, b_min):
        # the rates and bandwidths _full_grid_window scans
        lo, num = b_min * (1.0 + 1e-6), leader.GRID_POINTS
        rates = (leader._grid_rate(i, lo, link.b_max, num) for i in range(num))
        return [leader._grid_bw(b, b_min, link.mean_snr) for b in rates]

    @settings(max_examples=300, deadline=None)
    @given(
        snr=st.floats(0.5, 1e6),
        headroom=st.floats(-9.0, 3.0),
        b_min=st.floats(0.1, 10.0),
    )
    def test_floor_is_at_most_every_grid_bandwidth(self, snr, headroom, b_min):
        # to within roundoff: the floor is the bandwidth at the computed
        # minimizer, which a grid point can hit; the rate cap lies a relative
        # 1e-9..1e3 above the grid's lowest rate
        b_max = b_min * (1.0 + 1e-6) * (1.0 + 10.0**headroom)
        link = LinkState(0.0, snr, True, 1.0, b_max)
        _, floor = reference_bw_floor(b_min, snr)
        assert all(floor <= bw * (1.0 + 1e-12) for bw in self.grid_bandwidths(link, b_min))

    @settings(max_examples=300, deadline=None)
    @given(
        snr=st.floats(0.5, 1e6),
        b_max_factor=st.floats(0.0, 2.0),
        b_min=st.floats(0.1, 10.0),
        rel=st.sampled_from([-1e-5, -1e-6, 1e-6, 1e-5]),
        price_alpha=st.floats(0.01, 3.0),
        beta=st.floats(1.01, 2.5),
    )
    def test_budget_near_the_floor_matches_reference(
        self, snr, b_max_factor, b_min, rel, price_alpha, beta
    ):
        bw_max = reference_bw_floor(b_min, snr)[1] * (1.0 + rel)
        link = LinkState(0.0, snr, True, bw_max, b_max_factor * bw_max * math.log2(1.0 + snr))
        sp = make_sp(alpha=price_alpha, beta=beta)
        with pytest.MonkeyPatch.context() as patch:
            rates = watch(patch, [(leader, "_grid_rate")])
            got = optimize_bid(sp, link, b_min)
        assert got == reference_optimize_bid(sp, link, b_min)
        # 1e-5 under the floor is past the margin: no grid rate is computed
        if rel == -1e-5 and link.b_max > b_min * (1.0 + 1e-6):
            assert got.reason == "bandwidth budget cannot support any rate"
            assert not rates


class TestExpandBwPt:
    def floor_bid(self, guarantee, link, b_min=2.0, price=1.0):
        rate = b_min / guarantee
        bw = guarantee_inverse_bw(rate, guarantee, link)
        return Bid(rate=rate, price=price, bandwidth=bw, guarantee=guarantee)

    def test_expected_utility_model_is_identity(self):
        link = make_link(20.0)
        bid = self.floor_bid(0.8, link)
        assert expand_bw_pt(bid, DecisionModel.eut(), link) is bid

    def test_below_weighting_fixed_point_is_identity(self):
        link = make_link(20.0)
        bid = self.floor_bid(0.3, link)
        assert expand_bw_pt(bid, DecisionModel.pt(0.7), link) is bid

    def test_known_target_guarantee(self):
        link = make_link(20.0, bw_max=100.0)
        model = DecisionModel.pt(0.7)
        bid = self.floor_bid(0.8, link)
        out = expand_bw_pt(bid, model, link)
        assert isinstance(out, Bid)
        assert out.guarantee == pytest.approx(0.8892, abs=1e-3)
        assert weight(out.guarantee, model) == pytest.approx(0.8, rel=1e-9)

    def test_round_trip_recovers_objective_guarantee(self):
        link = make_link(35.0, bw_max=500.0)
        model = DecisionModel.pt(0.55)
        for g in (0.40, 0.55, 0.70, 0.85, 0.95):
            bid = self.floor_bid(g, link)
            out = expand_bw_pt(bid, model, link)
            realized = service_guarantee(out.rate, out.bandwidth, link)
            assert weight(realized, model) == pytest.approx(g, abs=1e-9)

    def test_rate_and_price_invariant(self):
        link = make_link(20.0, bw_max=100.0)
        bid = self.floor_bid(0.7, link, price=3.25)
        out = expand_bw_pt(bid, DecisionModel.pt(0.7), link)
        assert out.rate == bid.rate
        assert out.price == bid.price
        assert out.bandwidth > bid.bandwidth

    def test_gap_grows_with_committed_guarantee(self):
        link = make_link(20.0, bw_max=1e9)
        model = DecisionModel.pt(0.7)
        prev_gap = 0.0
        prev_ratio = 1.0
        for g in np.linspace(0.40, 0.95, 12):
            bid = self.floor_bid(float(g), link)
            out = expand_bw_pt(bid, model, link)
            gap = out.bandwidth - bid.bandwidth
            ratio = out.bandwidth / bid.bandwidth
            assert gap > prev_gap
            assert ratio > prev_ratio
            prev_gap, prev_ratio = gap, ratio

    def test_target_out_of_reach_is_unexpandable(self):
        # the pre-image of this guarantee lies below 1, yet 1 - snr * ln(lam)
        # rounds to 1, so no finite bandwidth reaches it
        bid = Bid(rate=3.0, price=1.0, bandwidth=1.0, guarantee=0.99999999999582)
        link = LinkState(0.0, 1.0, True, 10.0, 10.0)
        model = DecisionModel.pt(0.7)
        assert weight_inverse(bid.guarantee, model) < 1.0
        out = expand_bw_pt(bid, model, link)
        assert isinstance(out, NoBid)
        assert out.reason == "cannot expand within any budget"

    def test_budget_exhausted(self):
        link = make_link(20.0, bw_max=100.0)
        bid = self.floor_bid(0.8, link)
        tight = make_link(20.0, bw_max=bid.bandwidth * 1.001)
        out = expand_bw_pt(bid, DecisionModel.pt(0.7), tight)
        assert isinstance(out, NoBid)
        assert out.reason == "budget exhausted"


class TestExpansionRebid:
    def budget_bound_setup(self):
        # budget binds the plain bid at a guarantee above the weighting
        # fixed point, so perceived collapse is in play
        from hetnetsim.channel import LinkState

        snr = 50.0
        bw_max = 0.9
        link = LinkState(
            path_loss_db=0.0,
            mean_snr=snr,
            covered=True,
            bw_max=bw_max,
            b_max=bw_max * math.log2(1.0 + snr),
        )
        return make_sp(), link, 2.0

    def test_plain_bid_is_triggered_here(self):
        sp, link, b_min = self.budget_bound_setup()
        bid = optimize_bid(sp, link, b_min)
        assert isinstance(bid, Bid)
        assert bid.guarantee > FIXED_POINT
        assert bid.bandwidth == pytest.approx(link.bw_max, rel=1e-6)

    def test_expected_utility_model_rejected(self):
        sp, link, b_min = self.budget_bound_setup()
        out = expansion_rebid(sp, link, b_min, DecisionModel.eut())
        assert isinstance(out, NoBid)
        assert out.reason == "expansion applies to weighting users only"

    def test_uncovered_link_rejected(self):
        sp, _, b_min = self.budget_bound_setup()
        out = expansion_rebid(sp, make_link(50.0, covered=False), b_min, DecisionModel.pt(0.7))
        assert isinstance(out, NoBid)
        assert out.reason == "link not covered"

    def test_rebid_restores_perceived_floor(self):
        sp, link, b_min = self.budget_bound_setup()
        model = DecisionModel.pt(0.7)
        out = expansion_rebid(sp, link, b_min, model)
        assert isinstance(out, Bid)
        assert b_min < out.rate <= math.e * b_min * (1.0 + 1e-9)
        assert out.bandwidth <= link.bw_max * (1.0 + 1e-9)
        assert out.rate * weight(out.guarantee, model) == pytest.approx(b_min, rel=1e-6)
        assert out.guarantee == pytest.approx(
            service_guarantee(out.rate, out.bandwidth, link), rel=1e-6
        )
        assert bid_profit(out, sp) >= -1e-12

    def test_rebid_rate_sits_at_budget_crossing(self):
        sp, link, b_min = self.budget_bound_setup()
        model = DecisionModel.pt(0.7)
        out = expansion_rebid(sp, link, b_min, model)
        probe = out.rate * 1.01
        if probe < math.e * b_min:
            lam = weight_inverse(b_min / probe, model)
            needed = guarantee_inverse_bw(probe, lam, link)
            assert needed > link.bw_max * (1.0 - 1e-6)

    def test_no_room_for_any_expanded_rate(self):
        from hetnetsim.channel import LinkState

        snr = 50.0
        link = LinkState(
            path_loss_db=0.0,
            mean_snr=snr,
            covered=True,
            bw_max=0.3,
            b_max=0.3 * math.log2(1.0 + snr),
        )
        out = expansion_rebid(make_sp(), link, 2.0, DecisionModel.pt(0.7))
        assert isinstance(out, NoBid)

    def test_profitless_expansion_rejected(self):
        sp, link, b_min = self.budget_bound_setup()
        dear = make_sp(alpha=0.01, beta=1.05, cost_rate=20.0, cost_bw=10.0)
        out = expansion_rebid(dear, link, b_min, DecisionModel.pt(0.7))
        assert isinstance(out, NoBid)


class TestExpansionRebidOracle:
    """The crossing search against the point-by-point scalar reference."""

    @settings(max_examples=300, deadline=None)
    @given(
        snr=st.floats(1.0, 1e3),
        bw_max=st.floats(0.02, 20.0),
        b_max_factor=st.floats(0.5, 4.0),
        b_min=st.floats(0.2, 8.0),
        alpha=st.floats(0.05, 0.99),
        price_alpha=st.floats(0.05, 3.0),
        beta=st.floats(1.01, 2.0),
        cost_rate=st.floats(0.0, 1.0, exclude_min=True),
        cost_bw=st.floats(0.0, 2.0, exclude_min=True),
    )
    def test_matches_scalar_scan(
        self, snr, bw_max, b_max_factor, b_min, alpha, price_alpha, beta, cost_rate, cost_bw
    ):
        # b_max spans both sides of e * b_min, so the scan cap comes from
        # either the link or the weighting fixed point
        link = LinkState(
            path_loss_db=0.0,
            mean_snr=snr,
            covered=True,
            bw_max=bw_max,
            b_max=b_max_factor * math.e * b_min,
        )
        sp = make_sp(alpha=price_alpha, beta=beta, cost_rate=cost_rate, cost_bw=cost_bw)
        model = DecisionModel.pt(alpha)
        got = expansion_rebid(sp, link, b_min, model)
        assert got == reference_expansion_rebid(sp, link, b_min, model)
        # a rebid is within budget with no slack and its guarantee reachable,
        # so it needs no budget or target check after the scan
        if isinstance(got, Bid):
            assert got.bandwidth <= link.bw_max
            assert got.guarantee < 1.0

    @pytest.mark.parametrize("k", [0, 1, 40, 128, 200, 254])
    @pytest.mark.parametrize("nudge", [0.0, -1.0])
    def test_budget_on_a_grid_point_is_judged_by_the_scalar_formula(
        self, monkeypatch, k, nudge
    ):
        # bw_max equal to (or one ulp below) the scalar expanded bandwidth
        # of grid[k] puts the budget on a grid point, where only the scalar
        # value can give the verdict; on the falling branch (k = 0, 1, 40)
        # that point does not decide the last feasible index j
        snr, b_min, model = 30.0, 2.0, DecisionModel.pt(0.7)
        probe = LinkState(0.0, snr, True, 1.0, 4.0 * math.e * b_min)
        b_k = reference_grid(b_min * (1.0 + 1e-6), min(probe.b_max, math.e * b_min), 256)[k]
        bw_k = scalar_expanded_bw(b_k, b_min, probe, model)
        if nudge:
            bw_k = math.nextafter(bw_k, 0.0)
        link = LinkState(0.0, snr, True, bw_k, probe.b_max)
        sp = make_sp(cost_rate=0.01, cost_bw=0.01)

        judged = watch(monkeypatch, [(leader, "_expanded_bw")])
        got = expansion_rebid(sp, link, b_min, model)
        # grid[j] and grid[j + 1], the bracket points that decide j, are
        # judged before the bisection's off-grid midpoints and the final bid
        # (which sits on grid[255] when no bisection runs)
        grid = reference_grid(b_min * (1.0 + 1e-6), min(link.b_max, math.e * b_min), 256)
        j = max(
            i
            for i, b in enumerate(grid)
            if scalar_expanded_bw(b, b_min, link, model) <= link.bw_max
        )
        on_grid = set(grid)
        rates = (call.args[0] for call in judged)
        searched = set(itertools.takewhile(on_grid.__contains__, rates))
        assert set(grid[j : j + 2]) <= searched
        assert got == reference_expansion_rebid(sp, link, b_min, model)

    @settings(max_examples=300, deadline=None)
    @given(
        snr=st.floats(1.0, 1e3),
        bw_max=st.floats(0.02, 20.0),
        b_max_factor=st.floats(0.5, 4.0),
        b_min=st.floats(0.2, 8.0),
        alpha=st.floats(0.05, 0.99),
    )
    def test_feasible_rates_are_one_run_the_search_ends(
        self, snr, bw_max, b_max_factor, b_min, alpha
    ):
        # the expanded bandwidth falls, then rises, over the grid, so the
        # scalar-judged feasible indices are one run; infinite values (small
        # exponents near b_min) sit on the falling side
        link = LinkState(0.0, snr, True, bw_max, b_max_factor * math.e * b_min)
        assume(min(link.b_max, math.e * b_min) > b_min * (1.0 + 1e-6))
        grid = reference_grid(b_min * (1.0 + 1e-6), min(link.b_max, math.e * b_min), 256)
        inv_alpha = 1.0 / alpha
        bws = [leader._expanded_bw(b, b_min, snr, inv_alpha) for b in grid]
        feasible = [i for i, bw in enumerate(bws) if bw <= bw_max]
        if feasible:
            assert feasible == list(range(feasible[0], feasible[-1] + 1))
        if math.inf in bws:
            assert bws.index(math.inf) == 0 and all(
                bw == math.inf for bw in bws[: bws.count(math.inf)]
            )
        # these costs leave every expandable rate profitable, so the rebid's
        # rate, bisected up from the last feasible grid rate, pins that index
        sp, model = make_sp(cost_rate=1e-20, cost_bw=1e-20), DecisionModel.pt(alpha)
        got = expansion_rebid(sp, link, b_min, model)
        assert got == reference_expansion_rebid(sp, link, b_min, model)
        assert isinstance(got, Bid) == bool(feasible)

    @pytest.mark.parametrize(
        "snr, alpha, cap_factor, bw_max",
        [
            # every finite rate of this short grid sits where the target
            # rounds near 1, and neighbours come out of order
            (3.2142588236453427, 0.08720870255155085, 1.0662339, 21913507067564.867),
            # E bottoms out on the first rate whose target is below 1
            (1e80, 0.05, math.e, 0.010997063870969753),
            # a grid a few ulps wide, over which E barely moves
            (1731.121891103067, 0.5739160952230059, 1.000001000000897, 22804409.66907643),
        ],
    )
    def test_rates_with_roundoff_out_of_order_are_scanned(self, snr, alpha, cap_factor, bw_max):
        # a search on neighbour order alone lost the last feasible rate here
        b_min, model, sp = 2.0, DecisionModel.pt(alpha), make_sp()
        link = LinkState(0.0, snr, True, bw_max, b_min * cap_factor)
        grid = reference_grid(b_min * (1.0 + 1e-6), min(link.b_max, math.e * b_min), 256)
        fits = [scalar_expanded_bw(b, b_min, link, model) <= bw_max for b in grid]
        want = max(i for i, ok in enumerate(fits) if ok)
        assert expansion_rebid(sp, link, b_min, model) == reference_expansion_rebid(
            sp, link, b_min, model
        )
        # these costs leave every expandable rate profitable, so the rebid's
        # rate, bisected up from the last feasible grid rate, pins that index
        cheap = make_sp(cost_rate=1e-20, cost_bw=1e-20)
        got = expansion_rebid(cheap, link, b_min, model)
        assert got == reference_expansion_rebid(cheap, link, b_min, model)
        assert grid[want] <= got.rate <= grid[min(want + 1, len(grid) - 1)]

    def test_unreachable_target_is_infeasible_not_an_error(self):
        # at alpha = 0.3 the target for the lowest grid rates rounds to 1
        model = DecisionModel.pt(0.3)
        b_min = 2.0
        link = make_link(50.0, bw_max=5.0)
        low = b_min * (1.0 + 1e-6)
        assert weight_inverse(b_min / low, model) == 1.0
        inv_alpha = 1.0 / model.prelec_alpha
        assert leader._expanded_bw(low, b_min, link.mean_snr, inv_alpha) == math.inf
        out = expansion_rebid(make_sp(), link, b_min, model)
        assert out == reference_expansion_rebid(make_sp(), link, b_min, model)
        assert isinstance(out, Bid)

    @pytest.mark.parametrize("b_max", [2.2, 5.0])
    def test_subnormal_snr_is_scanned(self, b_max):
        # at the least subnormal SNR, snr * L**k rounds to 0 at every rate of
        # a cap of 2.2 and near the low edge of a cap of 5.0: neither the
        # crossing nor the roundoff bound of such a rate exists, and the
        # top-down scan answers
        b_min, snr, model = 2.0, 5e-324, DecisionModel.pt(0.7)
        k = 1.0 / model.prelec_alpha
        lo_edge, cap = b_min * (1.0 + 1e-6), min(b_max, math.e * b_min)
        assert leader._rise(math.log(lo_edge / b_min), snr, k) == (-math.inf, math.inf)
        if b_max == 2.2:
            assert leader._budget_crossing(b_min, lo_edge, cap, snr, k, 10.0) is None
        link = LinkState(0.0, snr, True, 10.0, b_max)
        got = expansion_rebid(make_sp(), link, b_min, model)
        assert got == reference_expansion_rebid(make_sp(), link, b_min, model)
        assert got.reason == "expansion exceeds the budget at every rate"


def decimal_bw(b, b_min, snr, k):
    """b * ln 2 / ln(1 + snr * L**k), L = ln(b / b_min), in 50-digit decimal
    arithmetic on the floats' exact values: the bandwidth _expanded_bw (k =
    1 / alpha) and the bid grid (k = 1) round."""
    with decimal.localcontext() as ctx:
        ctx.prec = 50
        b, snr = decimal.Decimal(b), decimal.Decimal(snr)
        big_l = (b / decimal.Decimal(b_min)).ln()
        x = snr * big_l ** decimal.Decimal(k)
        return float(b * decimal.Decimal(2).ln() / (1 + x).ln())


class TestBandwidthRoundoff:
    """The relative roundoff bounds that _grid_bracket and the crossing band
    are built from, against exact decimal arithmetic."""

    @settings(max_examples=400, deadline=None)
    @given(
        snr=st.floats(-3.0, 8.0).map(lambda e: 10.0**e),
        b_min=st.floats(-2.0, 2.0).map(lambda e: 10.0**e),
        alpha=st.floats(0.05, 0.999),
        frac=st.floats(0.0, 1.0),
    )
    def test_expanded_bw_within_its_stated_bound(self, snr, b_min, alpha, frac):
        # rates over the rebid's window, b_min (1 + 1e-6) to e * b_min
        lo, k = b_min * (1.0 + 1e-6), 1.0 / alpha
        b = min(max(lo * math.e**frac, lo), math.e * b_min)
        got = leader._expanded_bw(b, b_min, snr, k)
        assume(math.isfinite(got))
        l = math.log(b / b_min)
        rho = leader._rise(l, snr, k)[1]
        assert abs(got / decimal_bw(b, b_min, snr, k) - 1.0) <= rho
        # the bound falls with L, so the band may take it at the bracket's low end
        assert leader._rise(l * 1.5, snr, k)[1] <= rho

    @settings(max_examples=300, deadline=None)
    @given(
        snr=st.floats(-3.0, 8.0).map(lambda e: 10.0**e),
        b_min=st.floats(-2.0, 2.0).map(lambda e: 10.0**e),
        log_headroom=st.floats(-5.0, 3.0),
    )
    def test_grid_bw_within_bw_roundoff(self, snr, b_min, log_headroom):
        b = b_min * (1.0 + 10.0**log_headroom)
        got = leader._grid_bw(b, b_min, snr)
        assume(math.isfinite(got))
        # _rise's bound at exponent 1 holds term by term: (7 + 1 / L) x >= 6 x
        rho = leader._rise(math.log(b / b_min), snr, 1.0)[1]
        assert abs(got / decimal_bw(b, b_min, snr, 1.0) - 1.0) <= rho


class TestBudgetCrossing:
    """The rebid replayed from the budget crossing, field for field against
    the point-by-point reference, at budgets aimed at the points it judges:
    the scalar bandwidth of a grid rate or a bisection midpoint, nudged by up
    to 100 ulps either way."""

    def test_rebid_matches_reference_at_judged_points(self):
        banded = []

        @settings(max_examples=300, deadline=None)
        @given(
            snr=st.floats(1.0, 1e3),
            b_min=st.floats(0.2, 8.0),
            alpha=st.floats(0.05, 0.99),
            b_max_factor=st.floats(0.5, 4.0),
            index=st.integers(0, 254),
            path=st.one_of(st.none(), st.lists(st.booleans(), max_size=34)),
            ulps=st.integers(-100, 100),
            beta=st.floats(1.01, 2.0),
            cost_bw=st.floats(0.0, 2.0, exclude_min=True),
        )
        def check(snr, b_min, alpha, b_max_factor, index, path, ulps, beta, cost_bw):
            model = DecisionModel.pt(alpha)
            probe = LinkState(0.0, snr, True, 1.0, b_max_factor * math.e * b_min)
            grid = reference_grid(b_min * (1.0 + 1e-6), min(probe.b_max, math.e * b_min), 256)
            b = grid[index] if path is None else bisection_point(*grid[index : index + 2], path)
            bw_max = nudged(scalar_expanded_bw(b, b_min, probe, model), ulps)
            assume(0.0 < bw_max < math.inf)
            link = LinkState(0.0, snr, True, bw_max, probe.b_max)
            sp = make_sp(beta=beta, cost_rate=0.01, cost_bw=cost_bw)
            with pytest.MonkeyPatch.context() as patch:
                bands = watch(patch, [(leader, "_crossing_band")])
                got = expansion_rebid(sp, link, b_min, model)
            assert got == reference_expansion_rebid(sp, link, b_min, model)
            banded.append(any(band.result != (0.0, math.inf) for band in bands))

        check()
        # a replay that always fell back would pass the equality above; the
        # band came in 15-38% of the examples over 13 hypothesis seeds (the
        # cap fits or no crossing exists in most of the rest)
        assert sum(banded) >= 0.1 * len(banded)

    @staticmethod
    def last_fit(grid, b_min, link, model):
        fits = (scalar_expanded_bw(b, b_min, link, model) <= link.bw_max for b in grid)
        return max(i for i, ok in enumerate(fits) if ok)

    def test_crossing_below_its_bracket_is_judged_by_the_scalar_formula(self, monkeypatch):
        # a budget equal to grid[144]'s scalar bandwidth: Newton's crossing
        # lands a few ulps below grid[144], outside the bracket [grid[j],
        # grid[j + 1]] that the scalar formula certifies, so the band keeps
        # only its upper edge, inside the bracket; the rebid matches the
        # reference
        snr, alpha, b_min = 574.1739741615331, 0.6543592024193908, 3.1601495118924308
        model = DecisionModel.pt(alpha)
        link = LinkState(0.0, snr, True, 0.7025875597885886, math.e * b_min)
        crossings = watch(monkeypatch, [(leader, "_budget_crossing")])
        bands = watch(monkeypatch, [(leader, "_crossing_band")])
        got = expansion_rebid(make_sp(), link, b_min, model)
        assert got == reference_expansion_rebid(make_sp(), link, b_min, model)
        grid = reference_grid(b_min * (1.0 + 1e-6), min(link.b_max, math.e * b_min), 256)
        j = self.last_fit(grid, b_min, link, model)
        (c, _), [(c_lo, c_hi)] = crossings[0].result, [band.result for band in bands]
        assert j == 144 and c < grid[j] < c_hi < grid[j + 1] and c_lo == 0.0

    def test_band_edge_above_the_crossing_is_refused(self, monkeypatch):
        # a crossing estimate too high puts c_lo above the budget crossing,
        # where a band taken on trust would pass rates that do not fit; the
        # scalar bandwidth at the edge refuses it
        snr, bw_max, b_min, model = 50.0, 0.9, 2.0, DecisionModel.pt(0.7)
        link = LinkState(0.0, snr, True, bw_max, math.e * b_min)
        bands = watch(monkeypatch, [(leader, "_crossing_band")])
        expansion_rebid(make_sp(), link, b_min, model)
        [(c_lo, c_hi)] = [band.result for band in bands]
        assert c_lo > 0.0 and c_hi < math.inf
        grid = reference_grid(b_min * (1.0 + 1e-6), min(link.b_max, math.e * b_min), 256)
        k = 1.0 / model.prelec_alpha
        j = self.last_fit(grid, b_min, link, model)
        rho = leader._rise(math.log(grid[j] / b_min), snr, k)[1]
        args = leader._expanded_bw, (b_min, snr, k)
        for c, kept in ((0.5 * (c_hi + grid[j + 1]), False), (0.5 * (c_lo + c_hi), True)):
            band = leader._crossing_band(*args, (c, 1.0), rho, grid[j], grid[j + 1], bw_max)
            assert (band[0] > 0.0) is kept

    @pytest.mark.parametrize("bw_max", [0.0, -1.0])
    def test_no_budget_is_no_rate(self, bw_max):
        # a hand-built link with no bandwidth budget has no crossing to solve
        link, model = LinkState(0.0, 50.0, True, bw_max, 10.0), DecisionModel.pt(0.7)
        got = expansion_rebid(make_sp(), link, 2.0, model)
        assert got == reference_expansion_rebid(make_sp(), link, 2.0, model)
        assert got.reason == "expansion exceeds the budget at every rate"

    def test_budget_at_the_bottom_of_the_bandwidth_u(self):
        # a budget at the bottom of B's U, where B falls at g[j - 1] and rises
        # at g[j + 1]: a golden-section replay from the budget crossing that
        # takes B as rising over the window ends at 5.667756074910705, whose
        # bandwidth exceeds bw_max; the search must keep the reference's rate
        sp = make_sp(
            alpha=0.4919729581079389,
            beta=2.10125294966259,
            cost_rate=0.006014630650257735,
            cost_bw=0.055626362629838666,
        )
        b_min, snr = 3.750643420582437, 18.13223964037785
        link = LinkState(0.0, snr, True, 1.8371291159582863, 55.26414947806559)
        budget = link.bw_max * (1.0 + 1e-12)
        window = leader._certified_window(sp, b_min, b_min * (1.0 + 1e-6), link.b_max, snr, budget)
        g_0, _, g_1 = window[:3]
        rise = [leader._rise(math.log(g / b_min), snr, 1.0)[0] for g in (g_0, g_1)]
        assert rise[0] < 0.0 < rise[1]
        got = optimize_bid(sp, link, b_min)
        assert got == reference_optimize_bid(sp, link, b_min)
        assert got.rate == 5.667756068321067 and got.bandwidth <= link.bw_max

    @pytest.mark.parametrize("n", [50, 500])
    def test_sweep_takes_the_crossing(self, watched_trials, n):
        # at n=500 every rebid of the watched default trial 0 that returns a
        # Bid is answered from a band around the crossing; at n=50 no rebid
        # runs.  A regression to "always fall back" passes every equality
        # test and loses the gain
        rebids = calls_named(watched_trials[n].calls, "expansion_rebid")
        found = [rebid for rebid in rebids if isinstance(rebid.result, Bid)]
        assert found if n == 500 else not rebids
        for rebid in found:
            [(c_lo, c_hi)] = [band.result for band in calls_named(rebid.inner, "_crossing_band")]
            assert 0.0 < c_lo < c_hi < math.inf


class TestGridBracket:
    """_grid_bracket, the last-fit search the bid grid (k = 1, _grid_bw) and
    the rebid's grid (k = 1 / alpha, _expanded_bw) share, against the full
    scan of the grid."""

    @staticmethod
    def answer(bid_grid, alpha, b_min, snr, lo, hi, budget_of):
        """_grid_bracket's answer on one grid, checked against the scan; the
        budget is budget_of(the grid's scalar bandwidths)."""
        k = 1.0 if bid_grid else 1.0 / alpha
        if bid_grid:
            bw, args, num = leader._grid_bw, (b_min, snr), leader.GRID_POINTS
        else:
            bw, args, num = leader._expanded_bw, (b_min, snr, k), leader.REBID_POINTS
        grid = reference_grid(lo, hi, num)
        bws = [bw(b, *args) for b in grid]
        budget = budget_of(bws)
        assume(0.0 < budget < math.inf)
        bracket = leader._grid_bracket(bw, args, k, lo, hi, num, budget)
        fits = [i for i, b in enumerate(bws) if b <= budget]
        if bracket == ():
            assert not fits
        elif bracket is not None:
            j, g_j, g_1, bw_j, _ = bracket
            assert j == fits[-1] and (g_j, g_1) == (grid[j], grid[min(j + 1, num - 1)])
            assert bw_j == bws[j]
        return bracket

    def test_no_fit_answers_match_the_full_scan(self):
        no_fit = []

        @settings(max_examples=400, deadline=None)
        @given(
            snr=st.floats(-3.0, 6.0).map(lambda e: 10.0**e),
            alpha=st.floats(0.05, 0.999),
            bid_grid=st.booleans(),
            b_min=st.floats(0.2, 8.0),
            headroom=st.floats(-5.0, 2.0),
            rel=signed_pow10(-9.0, -2.0),
        )
        def check(snr, alpha, bid_grid, b_min, headroom, rel):
            # budgets within rel of the least grid bandwidth, on either side:
            # below it, "no rate fits" must clear the roundoff of every rate
            lo, hi = b_min * (1.0 + 1e-6), b_min * (1.0 + 10.0**headroom)
            hi = hi if bid_grid else min(hi, math.e * b_min)
            assume(hi > lo)
            bracket = self.answer(
                bid_grid, alpha, b_min, snr, lo, hi, lambda bws: min(bws) * (1.0 + rel)
            )
            if rel < -1e-5:
                no_fit.append(bracket == ())

        check()
        # a certificate that never answered would pass the checks above; most
        # budgets 1e-5 or more below the least bandwidth get the answer
        assert sum(no_fit) >= 0.5 * len(no_fit)

    @settings(max_examples=400, deadline=None)
    @given(
        snr=st.floats(-3.0, 6.0).map(lambda e: 10.0**e),
        place=st.floats(0.0, 1.0),
        bid_grid=st.booleans(),
        b_min=st.floats(0.2, 8.0),
        width=st.floats(-12.0, 0.0).map(lambda e: 10.0**e),
        shift=st.floats(-1.0, 1.0),
        index=st.integers(0, 1023),
        ulps=st.integers(-50, 50),
    )
    def test_last_fit_near_the_bottom_matches_the_full_scan(
        self, snr, place, bid_grid, b_min, width, shift, index, ulps
    ):
        # a grid a relative width wide in L around B's bottom, where the
        # bandwidths of neighbouring rates differ by little more than their
        # roundoff, and a budget on one of them, nudged by up to 50 ulps.
        # Built to fit: the rebid's grid ends at L = 1, below which its
        # bottom lies where k < (1 + snr) ln(1 + snr) / snr, so alpha = 1 / k
        # is placed from there to 0.999
        alpha = 1.0
        if not bid_grid:
            least = max(snr / ((1.0 + snr) * math.log1p(snr)) * (1.0 + 1e-6), 0.05)
            alpha = least + place * (0.999 - least)
        k = 1.0 / alpha
        a, b = 1e-12, 50.0  # bisected on the sign of d ln B / dL onto the bottom
        for _ in range(200):
            mid = math.sqrt(a * b)
            x = snr * mid**k
            a, b = (a, mid) if mid * (1.0 + x) * math.log1p(x) > k * x else (mid, b)
        # the grid's ends lie at L = a (1 + (shift -+ 1) width); the shift is
        # mapped onto the range that puts them above L = 0 and, for the
        # rebid's grid, below L = 1, which holds a shift for widths up to (1 /
        # a - 1e-2) / 2
        if not bid_grid:
            width = min(width, 0.5 / a - 5e-3)
        low = max(-1.0, 1.0 - 0.999 / width)
        high = 1.0 if bid_grid else min(1.0, (1.0 / a - 1.0) * (1.0 - 1e-9) / width - 1.0)
        shift = low + 0.5 * (shift + 1.0) * (high - low)
        lo, hi = (b_min * math.exp(a * (1.0 + (shift + s) * width)) for s in (-1.0, 1.0))
        assume(b_min < lo < hi and (bid_grid or alpha <= 0.999 and hi <= math.e * b_min))
        self.answer(
            bid_grid, alpha, b_min, snr, lo, hi, lambda bws: nudged(bws[index % len(bws)], ulps)
        )

    @pytest.mark.parametrize("n", [50, 500])
    def test_sweep_needs_no_fallback(self, watched_trials, n):
        # every search of the watched default trial 0 gets a certified
        # answer, a bracket or "no rate fits", so neither the bid grid's full
        # scan nor the rebid's top-down scan runs; the rebid runs only at n=500
        calls = watched_trials[n].calls
        assert not calls_named(calls, "_full_grid_window")
        brackets = calls_named(calls, "_grid_bracket")
        want = {"_grid_bw"} if n == 50 else {"_grid_bw", "_expanded_bw"}
        assert {call.args[0].__name__ for call in brackets} == want
        assert None not in [call.result for call in brackets]
