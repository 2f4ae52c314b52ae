"""Domain types and the closed-form utility, pricing, and cost arithmetic."""

import math
from functools import partial

import numpy as np
import pytest

from conftest import make_sp as shared_make_sp
from hetnetsim import (
    Bid,
    GameOutcome,
    NeClass,
    NoBid,
    UserProfile,
    sp_price,
    sp_utility,
    user_benefit,
    user_utility,
)
from hetnetsim.model import SpParams, UserParams, doubling_gap

# the shared make_sp with this file's access-point budget and power as overrides
make_sp = partial(shared_make_sp, bw_total=10.0, tx_power_dbm=23.0)


def make_user(**overrides) -> UserProfile:
    params = dict(delta=1.0, theta=2.0, b_min=1.0)
    params.update(overrides)
    return UserProfile(**params)


class TestUserBenefit:
    def test_zero_rate(self):
        assert user_benefit(0.0, make_user()) == 0.0

    def test_square_root_identity(self):
        assert user_benefit(4.0, make_user(delta=1.0, theta=2.0)) == pytest.approx(2.0)

    def test_cube_root_case(self):
        assert user_benefit(8.0, make_user(delta=3.0, theta=3.0)) == pytest.approx(6.0)

    def test_negative_rejected(self):
        with pytest.raises(ValueError):
            user_benefit(-0.1, make_user())

    def test_strict_concavity_random_grid(self):
        rng = np.random.default_rng(7)
        user = make_user(delta=2.5, theta=3.0)
        for _ in range(200):
            x, y = rng.uniform(0.01, 50.0, size=2)
            assert user_benefit(x, user) + user_benefit(y, user) > user_benefit(
                x + y, user
            )

    def test_strictly_increasing(self):
        user = make_user(delta=2.0, theta=1.5)
        xs = np.linspace(0.1, 20.0, 100)
        vals = [user_benefit(float(x), user) for x in xs]
        assert all(a < b for a, b in zip(vals, vals[1:]))


class TestUserUtility:
    def test_reject_both_is_zero(self):
        bid = Bid(rate=2.0, price=1.0, bandwidth=1.0, guarantee=0.5)
        assert user_utility((0, 0), bid, bid, make_user(), 0.5, 0.5) == 0.0

    def test_symmetric_floor_bids(self):
        # each accepted bid contributes exactly b_min in expectation, so the
        # joint rate is 2*b_min and the user pays twice the common price
        user = make_user(delta=2.0, theta=2.0, b_min=1.0)
        bid = Bid(rate=2.0, price=0.7, bandwidth=1.0, guarantee=0.5)
        expected = user.delta * (2.0 * user.b_min) ** 0.5 - 2 * 0.7
        got = user_utility((1, 1), bid, bid, user, 0.5, 0.5)
        assert got == pytest.approx(expected, rel=1e-12)

    def test_wifi_only_hand_case(self):
        user = make_user(delta=1.0, theta=2.0, b_min=0.5)
        bid_w = Bid(rate=2.0, price=1.0, bandwidth=1.0, guarantee=0.5)
        got = user_utility((0, 1), NoBid(), bid_w, user, 0.0, 0.5)
        assert got == pytest.approx(0.0, abs=1e-12)

    def test_accepting_silent_slot_rejected(self):
        bid = Bid(rate=2.0, price=1.0, bandwidth=1.0, guarantee=0.5)
        with pytest.raises(ValueError):
            user_utility((1, 0), NoBid(), bid, make_user(), 0.0, 0.5)
        with pytest.raises(ValueError):
            user_utility((0, 1), bid, NoBid(), make_user(), 0.5, 0.0)


class TestSpPrice:
    def test_zero(self):
        assert sp_price(0.0, make_sp()) == 0.0

    def test_square(self):
        assert sp_price(3.0, make_sp(alpha=1.0, beta=2.0)) == pytest.approx(9.0)

    def test_fractional_exponent(self):
        got = sp_price(4.0, make_sp(alpha=0.5, beta=1.2))
        assert got == pytest.approx(0.5 * 4.0**1.2, rel=1e-12)
        assert got == pytest.approx(2.639, abs=1e-3)

    def test_negative_rejected(self):
        with pytest.raises(ValueError):
            sp_price(-1.0, make_sp())

    def test_convexity_random_triples(self):
        rng = np.random.default_rng(11)
        sp = make_sp(alpha=0.8, beta=1.7)
        for _ in range(200):
            x, y = rng.uniform(0.0, 30.0, size=2)
            lam = rng.uniform(0.0, 1.0)
            mid = sp_price(lam * x + (1 - lam) * y, sp)
            chord = lam * sp_price(x, sp) + (1 - lam) * sp_price(y, sp)
            assert mid <= chord + 1e-9


def sp_cost(rate: float, bw: float, sp) -> float:
    """The provisioning cost sp_utility charges a rejected bid of this rate
    and bandwidth."""
    return -sp_utility(False, Bid(rate=rate, price=0.0, bandwidth=bw, guarantee=1.0), sp)


class TestSpCost:
    def test_zero(self):
        assert sp_cost(0.0, 0.0, make_sp()) == 0.0

    def test_linear_arithmetic(self):
        assert sp_cost(2.0, 4.0, make_sp(cost_rate=0.1, cost_bw=0.5)) == pytest.approx(
            2.2
        )

    def test_strictly_increasing_in_bandwidth(self):
        sp = make_sp()
        assert sp_cost(2.0, 5.0, sp) > sp_cost(2.0, 4.0, sp)

    def test_negative_rejected(self):
        # a bid's fields are checked when it is built
        with pytest.raises(ValueError):
            sp_cost(-1.0, 0.0, make_sp())


class TestSpUtility:
    def test_rejected_bid_is_negative(self):
        bid = Bid(rate=2.0, price=5.0, bandwidth=4.0, guarantee=0.5)
        assert sp_utility(False, bid, make_sp()) < 0.0

    def test_no_bid_is_exactly_zero(self):
        assert sp_utility(True, NoBid(), make_sp()) == 0.0
        assert sp_utility(False, NoBid("quiet"), make_sp()) == 0.0

    def test_no_bid_without_a_provider_is_zero(self):
        # a game with no WiFi offer has no WiFi profile either
        assert sp_utility(False, NoBid(), None) == 0.0

    def test_accepted_arithmetic(self):
        bid = Bid(rate=2.0, price=5.0, bandwidth=4.0, guarantee=0.5)
        got = sp_utility(True, bid, make_sp(cost_rate=0.1, cost_bw=0.5))
        assert got == pytest.approx(2.8)

    def test_affine_in_acceptance(self):
        rng = np.random.default_rng(13)
        sp = make_sp(cost_rate=0.3, cost_bw=0.2)
        for _ in range(100):
            bid = Bid(
                rate=float(rng.uniform(0.1, 20)),
                price=float(rng.uniform(0.0, 50)),
                bandwidth=float(rng.uniform(0.0, 30)),
                guarantee=float(rng.uniform(0.0, 1.0)),
            )
            gap = sp_utility(True, bid, sp) - sp_utility(False, bid, sp)
            assert gap == pytest.approx(bid.price, rel=1e-12)


class TestDoublingGap:
    def test_formula(self):
        user = make_user(delta=3.0, theta=2.0, b_min=4.0)
        expected = 3.0 * (2.0**0.5 - 1.0) * 2.0
        assert doubling_gap(user) == pytest.approx(expected, rel=1e-12)

    def test_below_single_benefit(self):
        # H(2m) - H(m) < H(m) whenever theta > 1
        for theta in (1.1, 2.0, 5.0):
            user = make_user(delta=2.0, theta=theta, b_min=3.0)
            assert doubling_gap(user) < user_benefit(user.b_min, user)


class TestValidation:
    def test_user_profile_bounds(self):
        with pytest.raises(ValueError):
            make_user(delta=0.0)
        with pytest.raises(ValueError):
            make_user(theta=1.0)
        with pytest.raises(ValueError):
            make_user(b_min=0.0)

    def test_sp_profile_bounds(self):
        with pytest.raises(ValueError):
            make_sp(beta=1.0)
        with pytest.raises(ValueError):
            make_sp(alpha=0.0)
        with pytest.raises(ValueError):
            make_sp(g_ba=0.0)
        with pytest.raises(ValueError):
            make_sp(g_ba=1.5)

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    @pytest.mark.parametrize("key", ["delta", "theta", "b_min"])
    def test_user_params_reject_non_finite(self, key, bad):
        # a NaN passes every range comparison, and inf every lower bound
        with pytest.raises(ValueError, match=f"^{key} must be finite, got {bad}$"):
            UserParams(**{key: bad})
        with pytest.raises(ValueError, match=f"^{key} must be finite"):
            make_user(**{key: bad})

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    @pytest.mark.parametrize(
        "key",
        [
            "alpha",
            "beta",
            "cost_rate",
            "cost_bw",
            "bw_total",
            "tx_power_dbm",
            "g_ba",
            "frequency_mhz",
            "antenna_height_m",
            "coverage_snr_threshold_db",
            "coverage_radius",
        ],
    )
    def test_sp_params_reject_non_finite(self, key, bad):
        base = dict(alpha=1.0, beta=1.2, cost_rate=0.1, cost_bw=0.5, bw_total=10.0)
        with pytest.raises(ValueError, match=f"^{key} must be finite, got {bad}$"):
            SpParams(**{**base, "tx_power_dbm": 23.0, key: bad})
        with pytest.raises(ValueError, match=f"^{key} must be finite"):
            make_sp(**{key: bad})

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    @pytest.mark.parametrize("key", ["rate", "price", "bandwidth"])
    def test_bid_rejects_non_finite(self, key, bad):
        fields = dict(rate=2.0, price=1.0, bandwidth=1.0, guarantee=0.5)
        with pytest.raises(ValueError, match=f"^{key} must be finite, got {bad}$"):
            Bid(**{**fields, key: bad})

    def test_no_coverage_radius_stays_valid(self):
        assert make_sp(coverage_radius=None).coverage_radius is None

    def test_bid_bounds(self):
        with pytest.raises(ValueError):
            Bid(rate=-1.0, price=0.0, bandwidth=0.0, guarantee=0.5)
        with pytest.raises(ValueError):
            Bid(rate=1.0, price=0.0, bandwidth=0.0, guarantee=1.5)

    def test_truthiness(self):
        assert Bid(rate=1.0, price=0.0, bandwidth=0.0, guarantee=0.5)
        assert not NoBid()
        assert not NoBid("reasoned")


def test_bid_round_trips_through_dict():
    bid = Bid(rate=2.0, price=1.5, bandwidth=0.25, guarantee=0.75)
    assert bid.to_dict() == {
        "rate": 2.0,
        "price": 1.5,
        "bandwidth": 0.25,
        "guarantee": 0.75,
    }
    assert NoBid("silent").to_dict() == {"no_bid": True, "reason": "silent"}


def test_benefit_dominates_price_calibration_shape():
    # with the default-config user, the doubling gap exceeds any price that a
    # floor-level offer can carry, keeping multihoming attractive at low load
    user = UserProfile(delta=350.0, theta=2.0, b_min=2.0)
    dearest = 0.6 * (math.e * 2.0) ** 1.3
    assert doubling_gap(user) > dearest


class TestGameOutcome:
    def outcome(self, **overrides):
        bid = Bid(rate=4.0, price=1.5, bandwidth=2.0, guarantee=0.5)
        fields = dict(
            ne_class=NeClass.WIFI_ONLY01,
            strategy_draw=(0, 1),
            u_user=0.25,
            u_sp_w=0.5,
            u_sp_c=0.0,
            bids=(NoBid("withdrawn"), bid),
        )
        fields.update(overrides)
        return GameOutcome(**fields)

    def test_fields_in_order_with_wifi_index_defaulting_to_none(self):
        assert GameOutcome._fields == (
            "ne_class",
            "strategy_draw",
            "u_user",
            "u_sp_w",
            "u_sp_c",
            "bids",
            "wifi_index",
        )
        assert self.outcome().wifi_index is None
        assert self.outcome(wifi_index=3).wifi_index == 3

    def test_assigning_a_field_raises(self):
        out = self.outcome(wifi_index=3)
        for name in GameOutcome._fields:
            with pytest.raises(AttributeError):
                setattr(out, name, None)
        with pytest.raises(AttributeError):
            out.extra = None
        assert out.wifi_index == 3

    def test_to_dict(self):
        assert self.outcome(wifi_index=3).to_dict() == {
            "ne_class": "WifiOnly01",
            "strategy_draw": [0, 1],
            "u_user": 0.25,
            "u_sp_w": 0.5,
            "u_sp_c": 0.0,
            "bid_c": {"no_bid": True, "reason": "withdrawn"},
            "bid_w": {"rate": 4.0, "price": 1.5, "bandwidth": 2.0, "guarantee": 0.5},
            "wifi_index": 3,
        }
