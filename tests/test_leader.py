"""Tests for provider-side bid optimization and bandwidth expansion.

The fine-grid profit oracle and the bisection inverse below are written
directly from the closed-form guarantee model so the optimizer is checked
against independent arithmetic, not against itself.
"""

import itertools
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import make_link
from hetnetsim import leader
from hetnetsim.channel import LinkState, guarantee_inverse_bw, service_guarantee
from hetnetsim.leader import (
    expand_bw_pt,
    expansion_rebid,
    marginal_bw,
    optimize_bid,
    participation_check,
)
from hetnetsim.model import (
    Bid,
    InfeasibleError,
    NoBid,
    SpKind,
    SpProfile,
    sp_cost,
    sp_price,
    sp_utility,
)
from hetnetsim.prospect import FIXED_POINT, DecisionModel, weight, weight_inverse


def make_sp(alpha=1.0, beta=1.2, cost_rate=0.1, cost_bw=0.5, **kw):
    kw.setdefault("kind", SpKind.CELLULAR)
    kw.setdefault("bw_total", 40.0)
    kw.setdefault("tx_power_dbm", 40.0)
    return SpProfile(alpha=alpha, beta=beta, cost_rate=cost_rate, cost_bw=cost_bw, **kw)


def bisect_marginal_bw(b, b_min, link, iters=200):
    """Smallest bandwidth whose guarantee lifts the offer onto the rate floor."""
    lo, hi = 1e-12, 1e9
    for _ in range(iters):
        mid = 0.5 * (lo + hi)
        if b * service_guarantee(b, mid, link) >= b_min:
            hi = mid
        else:
            lo = mid
    return hi


def grid_profit_oracle(sp, link, b_min, points=200_000):
    """Dense-grid maximizer of price minus cost over floor-tight offers."""
    low = b_min * (1.0 + 1e-6)
    if not link.covered or link.b_max <= low:
        return None
    grid = np.geomspace(low, link.b_max, points)
    bw = grid / np.log2(1.0 + link.mean_snr * np.log(grid / b_min))
    profit = sp.alpha * grid**sp.beta - sp.cost_rate * grid - sp.cost_bw * bw
    profit[bw > link.bw_max * (1.0 + 1e-12)] = -np.inf
    i = int(np.argmax(profit))
    if not np.isfinite(profit[i]) or profit[i] < 0.0:
        return None
    return float(grid[i]), float(profit[i])


def bid_profit(bid, sp):
    return bid.price - sp_cost(bid.rate, bid.bandwidth, sp)


def scalar_expanded_bw(b, b_min, link, model):
    """Post-expansion bandwidth of a floor-tight rate-b bid, one rate at a
    time; inf where the expansion target is out of reach."""
    try:
        return guarantee_inverse_bw(b, weight_inverse(b_min / b, model), link)
    except InfeasibleError:
        return math.inf


def reference_optimize_bid(sp, link, b_min, grid_points=1024, tol=1e-9):
    """The bid search as first written, the reference for optimize_bid.

    np.geomspace grid, whole-array temporaries and a golden-section pass
    over a closure objective; optimize_bid must agree with it field for
    field."""
    if not link.covered or link.b_max <= 0:
        return NoBid("link not covered")
    if link.b_max <= b_min * (1.0 + 1e-6):
        return NoBid("rate cap does not exceed the minimum rate")

    budget = link.bw_max * (1.0 + 1e-12)
    snr = link.mean_snr

    def required_bw(b):
        return b / math.log2(1.0 + snr * math.log(b / b_min))

    def objective(b):
        bw = required_bw(b)
        if bw > budget:
            return -math.inf
        return sp.alpha * b**sp.beta - sp.cost_rate * b - sp.cost_bw * bw

    grid = np.geomspace(b_min * (1.0 + 1e-6), link.b_max, grid_points)
    bw_grid = grid / np.log2(1.0 + snr * np.log(grid / b_min))
    profit = sp.alpha * grid**sp.beta - sp.cost_rate * grid - sp.cost_bw * bw_grid
    profit[bw_grid > budget] = -np.inf

    best = int(np.argmax(profit))
    if not np.isfinite(profit[best]):
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


def reference_rebid_grid(link, b_min, grid_points=256):
    cap = min(link.b_max, math.e * b_min)
    return np.geomspace(b_min * (1.0 + 1e-6), cap, grid_points)


def reference_expansion_rebid(sp, link, b_min, model, grid_points=256, tol=1e-9):
    """Point-by-point scalar scan, the reference for expansion_rebid's array pass.

    It judges every grid rate with the scalar closed forms, then runs the
    same bisection and final bid construction; expansion_rebid must agree
    with it field for field."""
    if not model.is_pt:
        return NoBid("expansion applies to weighting users only")
    if not link.covered or link.b_max <= 0:
        return NoBid("link not covered")
    if min(link.b_max, math.e * b_min) <= b_min * (1.0 + 1e-6):
        return NoBid("rate cap does not exceed the minimum rate")

    def expanded_bw(b):
        return scalar_expanded_bw(b, b_min, link, model)

    grid = reference_rebid_grid(link, b_min, grid_points)
    feasible = [expanded_bw(float(b)) <= link.bw_max for b in grid]
    if not any(feasible):
        return NoBid("expansion exceeds the budget at every rate")

    j = max(i for i, ok in enumerate(feasible) if ok)
    b_up = float(grid[j])
    if j + 1 < grid_points:
        lo, hi = b_up, float(grid[j + 1])
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


class TestMarginalBw:
    def test_rate_at_or_below_floor_is_infeasible(self):
        link = make_link(10.0)
        with pytest.raises(InfeasibleError):
            marginal_bw(1.0, 1.0, link)
        with pytest.raises(InfeasibleError):
            marginal_bw(0.5, 1.0, link)

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
                bisect_marginal_bw(b, b_min, link), rel=1e-6
            )

    def test_less_bandwidth_needed_at_higher_snr(self):
        lo = make_link(5.0)
        hi = make_link(50.0)
        assert marginal_bw(3.0, 1.0, hi) < marginal_bw(3.0, 1.0, lo)


class TestOptimizeBid:
    def reference_link(self):
        # hand-built state: rate cap 10, bandwidth budget 5, mean SNR 10
        from hetnetsim.channel import LinkState

        return LinkState(path_loss_db=0.0, mean_snr=10.0, covered=True, bw_max=5.0, b_max=10.0)

    def test_reference_instance_matches_fine_grid(self):
        sp = make_sp()
        link = self.reference_link()
        bid = optimize_bid(sp, link, b_min=1.0)
        assert isinstance(bid, Bid)
        rate_star, profit_star = grid_profit_oracle(sp, link, 1.0)
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
        link = self.reference_link()
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
            perturbed = sp_price(b, sp) - sp_cost(b, bw, sp)
            assert base >= perturbed - 1e-9 * abs(base)

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
        out = optimize_bid(sp, self.reference_link(), 1.0)
        assert isinstance(out, NoBid)
        assert out.reason == "no profitable rate"
        assert sp_utility(True, out, sp) == 0.0
        assert sp_utility(False, out, sp) == 0.0

    def test_minus_one_percent_bandwidth_breaks_floor(self):
        sp = make_sp()
        link = self.reference_link()
        bid = optimize_bid(sp, link, b_min=1.0)
        shaved = service_guarantee(bid.rate, 0.99 * bid.bandwidth, link)
        assert bid.rate * shaved < 1.0

    def test_plus_one_percent_bandwidth_lowers_utility(self):
        sp = make_sp()
        bid = optimize_bid(sp, self.reference_link(), b_min=1.0)
        inflated = sp_price(bid.rate, sp) - sp_cost(bid.rate, 1.01 * bid.bandwidth, sp)
        assert inflated < bid_profit(bid, sp)


class TestOptimizeBidOracle:
    """optimize_bid against the first-written bid search."""

    @settings(max_examples=500, deadline=None)
    @given(
        snr=st.floats(0.5, 1e6),
        bw_max=st.floats(0.01, 20.0),
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
        # either side of b_min and the budget binds or not
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
        # dataclass equality compares field values, so a float field equals
        # the reference's np.float64 field of the same value; a NoBid
        # equals another only with the same reason
        assert type(got) is type(want)
        assert got == want


class TestLogGrid:
    @settings(max_examples=300, deadline=None)
    @given(
        lo=st.floats(1e-300, 1e300),
        hi=st.floats(1e-300, 1e300),
        num=st.sampled_from([1, 2, 3, 256, 1024]),
    )
    def test_bit_identical_to_geomspace(self, lo, hi, num):
        assert leader._log_grid(lo, hi, num).tobytes() == np.geomspace(lo, hi, num).tobytes()

    def test_returned_grid_is_fresh(self):
        first = leader._log_grid(2.0, 150.0, 256)
        first[:] = -1.0
        second = leader._log_grid(2.0, 150.0, 256)
        assert second.tobytes() == np.geomspace(2.0, 150.0, 256).tobytes()
        assert not np.shares_memory(first, second)


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
    """The array scan against the point-by-point scalar reference."""

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
        assert expansion_rebid(sp, link, b_min, model) == reference_expansion_rebid(
            sp, link, b_min, model
        )

    @pytest.mark.parametrize("k", [0, 1, 40, 128, 200, 254])
    @pytest.mark.parametrize("nudge", [0.0, -1.0])
    def test_budget_on_a_grid_point_is_judged_by_the_scalar_formula(
        self, monkeypatch, k, nudge
    ):
        # bw_max equal to (or one ulp below) the scalar expanded bandwidth
        # of grid[k] puts that point inside the guard band, where the
        # array value alone could flip the feasibility verdict
        snr, b_min, model = 30.0, 2.0, DecisionModel.pt(0.7)
        probe = LinkState(0.0, snr, True, 1.0, 4.0 * math.e * b_min)
        b_k = float(reference_rebid_grid(probe, b_min)[k])
        bw_k = scalar_expanded_bw(b_k, b_min, probe, model)
        if nudge:
            bw_k = math.nextafter(bw_k, 0.0)
        link = LinkState(0.0, snr, True, bw_k, probe.b_max)
        sp = make_sp(cost_rate=0.01, cost_bw=0.01)

        judged = []
        scalar = leader._expanded_bw

        def spy(b, *args):
            judged.append(b)
            return scalar(b, *args)

        monkeypatch.setattr(leader, "_expanded_bw", spy)
        got = expansion_rebid(sp, link, b_min, model)
        # the guard re-checks run before the bisection's off-grid midpoints
        # and the final bid (which sits on grid[255] when no bisection runs)
        on_grid = set(reference_rebid_grid(link, b_min).tolist())
        assert b_k in itertools.takewhile(on_grid.__contains__, judged)
        assert got == reference_expansion_rebid(sp, link, b_min, model)

    def test_unreachable_target_is_infeasible_not_an_error(self):
        # at alpha = 0.3 the target for the lowest grid rates rounds to 1
        model = DecisionModel.pt(0.3)
        b_min = 2.0
        link = make_link(50.0, bw_max=5.0)
        low = b_min * (1.0 + 1e-6)
        assert weight_inverse(b_min / low, model) == 1.0
        assert leader._expanded_bw(low, b_min, link, model) == math.inf
        out = expansion_rebid(make_sp(), link, b_min, model)
        assert out == reference_expansion_rebid(make_sp(), link, b_min, model)
        assert isinstance(out, Bid)


class TestParticipationCheck:
    def test_full_acceptance_matches_profit_sign(self):
        sp = make_sp()
        link = make_link(10.0, bw_max=5.0)
        bid = optimize_bid(sp, link, 1.0)
        assert participation_check(bid, 1.0, sp)

    def test_zero_acceptance_fails_for_costly_bid(self):
        sp = make_sp()
        bid = Bid(rate=3.0, price=4.0, bandwidth=1.0, guarantee=0.5)
        assert not participation_check(bid, 0.0, sp)

    def test_half_acceptance_threshold(self):
        sp = make_sp(cost_rate=0.1, cost_bw=0.5)
        cost = sp_cost(3.0, 1.0, sp)
        at = Bid(rate=3.0, price=2.0 * cost, bandwidth=1.0, guarantee=0.5)
        below = Bid(rate=3.0, price=2.0 * cost * 0.999, bandwidth=1.0, guarantee=0.5)
        assert participation_check(at, 0.5, sp)
        assert not participation_check(below, 0.5, sp)
