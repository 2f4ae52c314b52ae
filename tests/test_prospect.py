"""Prelec probability weighting and its inverse."""

import math
import sys

import numpy as np
import pytest
from hypothesis import assume, given
from hypothesis import strategies as st

from hetnetsim import DecisionModel, weight, weight_inverse
from hetnetsim.prospect import FIXED_POINT

ALPHAS = [round(0.1 * k, 1) for k in range(1, 10)]

# Relative tolerance of a Prelec round trip.  The inverse raises -ln w(p) to
# the power 1/alpha, which multiplies its relative rounding error by up to
# 1/alpha = 20, and the final exp turns the error of -ln p (up to ~708 for a
# normal p) into a relative error of p: about 20 * 708 * 1.1e-16 = 1.6e-12.
# A random probe over the domains below found 1.39e-12 (p = 2.1e-305,
# alpha = 0.05).
ROUND_TRIP_RTOL = 2e-12
PRELEC_ALPHAS = st.floats(0.05, 0.95)
# normal probabilities: a subnormal p carries too few significant bits for
# a relative round trip
NORMAL_P = st.floats(sys.float_info.min, 1.0, exclude_max=True)


def bisect_weight_inverse(q: float, alpha: float) -> float:
    """Independent inverse: bisection on the forward map."""
    lo, hi = 1e-15, 1.0 - 1e-15
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if math.exp(-((-math.log(mid)) ** alpha)) < q:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


class TestWeight:
    def test_fixed_point_every_alpha(self):
        for alpha in ALPHAS:
            model = DecisionModel.pt(alpha)
            assert abs(weight(FIXED_POINT, model) - FIXED_POINT) <= 1e-12

    def test_eut_identity(self):
        model = DecisionModel.eut()
        for p in (0.0, 0.123, FIXED_POINT, 0.9, 1.0):
            assert weight(p, model) == p

    def test_endpoints(self):
        model = DecisionModel.pt(0.7)
        assert weight(0.0, model) == 0.0
        assert weight(1.0, model) == 1.0
        # an endpoint comes back as given, sign of zero included
        assert weight(-0.0, model).hex() == weight_inverse(-0.0, model).hex() == "-0x0.0p+0"

    def test_known_value(self):
        # 0.704721598... checked against a 60-digit Decimal evaluation
        assert weight(0.8, DecisionModel.pt(0.7)) == pytest.approx(0.7047216, abs=1e-6)

    def test_overweights_small_probabilities(self):
        model = DecisionModel.pt(0.7)
        for p in np.linspace(1e-6, FIXED_POINT * (1 - 1e-9), 1000):
            assert weight(float(p), model) > p

    def test_underweights_large_probabilities(self):
        for alpha in ALPHAS:
            model = DecisionModel.pt(alpha)
            for p in np.linspace(FIXED_POINT * (1 + 1e-9), 1.0 - 1e-9, 200):
                assert weight(float(p), model) < p

    def test_strictly_increasing(self):
        model = DecisionModel.pt(0.4)
        grid = np.linspace(1e-6, 1.0 - 1e-6, 2000)
        vals = [weight(float(p), model) for p in grid]
        assert all(a < b for a, b in zip(vals, vals[1:]))

    def test_s_shape_second_differences(self):
        # concave below the fixed point, convex above it
        model = DecisionModel.pt(0.7)
        lo = np.linspace(0.01, FIXED_POINT - 0.01, 400)
        hi = np.linspace(FIXED_POINT + 0.01, 0.99, 400)
        for grid, sign in ((lo, -1.0), (hi, 1.0)):
            vals = np.array([weight(float(p), model) for p in grid])
            second = np.diff(vals, 2)
            assert np.all(sign * second > 0)

    def test_domain_enforced(self):
        model = DecisionModel.pt(0.7)
        with pytest.raises(ValueError):
            weight(-0.01, model)
        with pytest.raises(ValueError):
            weight(1.01, model)


class TestWeightInverse:
    def test_eut_identity(self):
        assert weight_inverse(0.42, DecisionModel.eut()) == 0.42

    def test_fixed_point(self):
        for alpha in ALPHAS:
            model = DecisionModel.pt(alpha)
            assert abs(weight_inverse(FIXED_POINT, model) - FIXED_POINT) <= 1e-12

    def test_known_value_against_bisection(self):
        got = weight_inverse(0.8, DecisionModel.pt(0.7))
        assert got == pytest.approx(0.8892, abs=1e-3)
        assert got == pytest.approx(bisect_weight_inverse(0.8, 0.7), abs=1e-9)

    def test_round_trip_identity(self):
        # Target probabilities are taken as images w(p) over a full grid.
        # For small alpha the curve is so steep near 1 that adjacent
        # doubles map 1e-6 apart; between those images no double can
        # invert to 1e-12, so the image grid is the strongest float
        # statement of the identity, and it covers all of (0, 1).
        for alpha in ALPHAS:
            model = DecisionModel.pt(alpha)
            for p in np.linspace(0.001, 0.999, 500):
                q = weight(float(p), model)
                assert abs(weight_inverse(q, model) - p) <= 1e-12
                assert abs(weight(weight_inverse(q, model), model) - q) <= 1e-12

    def test_extreme_tail_underflows_to_zero(self):
        model = DecisionModel.pt(0.1)
        assert weight_inverse(1e-3, model) == 0.0
        assert weight(0.0, model) == 0.0

    def test_endpoints(self):
        model = DecisionModel.pt(0.5)
        assert weight_inverse(0.0, model) == 0.0
        assert weight_inverse(1.0, model) == 1.0

    def test_domain_enforced(self):
        model = DecisionModel.pt(0.5)
        with pytest.raises(ValueError):
            weight_inverse(-0.5, model)


class TestPrelecRoundTrips:
    @given(p=NORMAL_P, alpha=PRELEC_ALPHAS)
    def test_inverse_undoes_weight(self, p, alpha):
        model = DecisionModel.pt(alpha)
        got = weight_inverse(weight(p, model), model)
        assert abs(got - p) <= ROUND_TRIP_RTOL * p

    @given(q=st.floats(0.0, 1.0, exclude_min=True, exclude_max=True), alpha=PRELEC_ALPHAS)
    def test_weight_undoes_inverse(self, q, alpha):
        model = DecisionModel.pt(alpha)
        p = weight_inverse(q, model)
        # below, the pre-image underflows (test_extreme_tail_underflows_to_zero)
        assume(p >= sys.float_info.min)
        # Near 1 the weight is so steep for small alpha that adjacent doubles
        # map far apart (alpha = 0.05: 1 and the double below it map to 1
        # and 0.854), so q is pinned only between the weights of p's float
        # neighbours, widened by the tolerance for the rounding of p and of
        # weight itself.
        below = weight(math.nextafter(p, 0.0), model)
        above = weight(min(math.nextafter(p, 1.0), 1.0), model)
        assert below * (1.0 - ROUND_TRIP_RTOL) <= q <= above * (1.0 + ROUND_TRIP_RTOL)

    @given(alpha=PRELEC_ALPHAS)
    def test_zero_one_and_fixed_point_map_exactly(self, alpha):
        model = DecisionModel.pt(alpha)
        for p in (0.0, 1.0, FIXED_POINT):
            assert weight(p, model) == p
            assert weight_inverse(p, model) == p


class TestDecisionModel:
    def test_alpha_bounds(self):
        with pytest.raises(ValueError):
            DecisionModel.pt(0.0)
        with pytest.raises(ValueError):
            DecisionModel.pt(1.0)

    def test_objective_is_exponent_one(self):
        assert DecisionModel() == DecisionModel.eut() == DecisionModel(1.0)

    @pytest.mark.parametrize("alpha", [0.0, -0.1, 1.0 + 1e-12, 1.5, math.nan])
    def test_direct_exponent_outside_unit_interval_rejected(self, alpha):
        with pytest.raises(ValueError, match=r"prelec_alpha must lie in \(0, 1\]"):
            DecisionModel(alpha)

    @given(p=st.floats(0.0, 1.0))
    def test_objective_weights_are_bit_exact(self, p):
        model = DecisionModel.eut()
        assert weight(p, model).hex() == p.hex()
        assert weight_inverse(p, model).hex() == p.hex()

    def test_flags(self):
        assert DecisionModel.pt(0.7).is_pt
        assert not DecisionModel.eut().is_pt
