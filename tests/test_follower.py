"""The user's best response, checked against the independent enumerator in
conftest."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import oracle_best_response, oracle_feasible_utilities
from hetnetsim import (
    Bid,
    DecisionModel,
    NoBid,
    UserProfile,
    best_response,
    feasible_set,
    perceived_guarantee,
    select_wifi_sp,
)
from hetnetsim.follower import FLOOR_REL_TOL
from hetnetsim.model import user_benefit
from hetnetsim.prospect import FIXED_POINT, weight


def reference_select_wifi_sp(offers, user, model):
    """select_wifi_sp as first written: offers sorted by id, strict
    improvements kept, so ties go to the lowest id.  Calls production
    user_benefit and weight."""
    best_id = None
    best_u = -float("inf")
    for sp_id, bid in sorted(offers, key=lambda item: item[0]):
        if not isinstance(bid, Bid):
            continue
        u = user_benefit(bid.rate * weight(bid.guarantee, model), user) - bid.price
        if u > best_u:
            best_id, best_u = sp_id, u
    return best_id


# few distinct values, so that equal utilities (ties) are common; a Bid
# rejects a non-finite rate or price (test_model checks it)
_RATES = st.sampled_from([0.5, 2.0, 4.0]) | st.floats(0.0, 50.0)
_PRICES = st.sampled_from([0.0, 0.5, 1.0]) | st.floats(0.0, 40.0)
_GUARANTEES = st.sampled_from([0.0, 0.2, FIXED_POINT, 0.9, 1.0]) | st.floats(0.0, 1.0)
_BIDS = st.one_of(
    st.just(NoBid("silent")),
    st.builds(Bid, rate=_RATES, price=_PRICES, bandwidth=st.just(1.0), guarantee=_GUARANTEES),
)
_MODELS = st.sampled_from([DecisionModel.eut(), DecisionModel.pt(0.3), DecisionModel.pt(0.7)])
_USERS = st.builds(
    UserProfile,
    delta=st.floats(0.2, 20.0),
    theta=st.floats(1.1, 5.0),
    b_min=st.sampled_from([0.5, 2.0]) | st.floats(0.1, 8.0),
)


def random_instance(rng):
    user = UserProfile(
        delta=float(rng.uniform(0.2, 20.0)),
        theta=float(rng.uniform(1.1, 5.0)),
        b_min=float(rng.uniform(0.1, 8.0)),
    )

    def draw_bid():
        if rng.random() < 0.2:
            return NoBid("draw")
        return Bid(
            rate=float(rng.uniform(0.1, 20.0)),
            price=float(rng.uniform(0.0, 30.0)),
            bandwidth=float(rng.uniform(0.0, 10.0)),
            guarantee=float(rng.uniform(0.0, 1.0)),
        )

    return draw_bid(), draw_bid(), user


def marginal_bid(rate: float, b_min: float, price: float) -> Bid:
    # rate * guarantee == b_min by construction, the floor case
    return Bid(rate=rate, price=price, bandwidth=1.0, guarantee=b_min / rate)


class TestPerceivedGuarantee:
    def test_silent_slot_is_zero(self):
        assert perceived_guarantee(NoBid(), DecisionModel.pt(0.7)) == 0.0

    def test_weighting_applied(self):
        bid = Bid(rate=2.0, price=1.0, bandwidth=1.0, guarantee=0.8)
        assert perceived_guarantee(bid, DecisionModel.eut()) == 0.8
        assert perceived_guarantee(bid, DecisionModel.pt(0.7)) == pytest.approx(
            0.7047216, abs=1e-6
        )


class TestFeasibleSet:
    def test_both_silent(self):
        user = UserProfile(delta=1.0, theta=2.0, b_min=1.0)
        assert feasible_set(NoBid(), NoBid(), user, DecisionModel.eut()) == {(0, 0)}

    def test_floor_bids_under_objective_perception(self):
        # floor-tight offers keep every strategy rate-feasible; the price
        # condition then decides membership
        user = UserProfile(delta=5.0, theta=2.0, b_min=2.0)
        bid = marginal_bid(4.0, user.b_min, price=0.5)
        fs = feasible_set(bid, bid, user, DecisionModel.eut())
        assert fs == {(0, 0), (0, 1), (1, 0), (1, 1)}

    def test_pt_floor_bids_above_fixed_point_drop_singles(self):
        user = UserProfile(delta=50.0, theta=2.0, b_min=2.0)
        bid = marginal_bid(3.0, user.b_min, price=0.1)  # guarantee 2/3 > 1/e
        assert bid.guarantee > FIXED_POINT
        fs = feasible_set(bid, bid, user, DecisionModel.pt(0.7))
        assert (0, 1) not in fs
        assert (1, 0) not in fs
        assert fs <= {(0, 0), (1, 1)}

    def test_floor_tolerance_keeps_one_ulp_short_products(self):
        user = UserProfile(delta=50.0, theta=2.0, b_min=2.0)
        shy = Bid(rate=4.0, price=0.1, bandwidth=1.0, guarantee=0.5 * (1.0 - 1e-10))
        short = Bid(rate=4.0, price=0.1, bandwidth=1.0, guarantee=0.5 * (1.0 - 1e-6))
        assert (0, 1) in feasible_set(NoBid(), shy, user, DecisionModel.eut())
        assert (0, 1) not in feasible_set(NoBid(), short, user, DecisionModel.eut())

    def test_benefit_must_cover_price(self):
        user = UserProfile(delta=1.0, theta=2.0, b_min=1.0)
        dear = Bid(rate=4.0, price=100.0, bandwidth=1.0, guarantee=0.9)
        assert feasible_set(NoBid(), dear, user, DecisionModel.eut()) == {(0, 0)}


class TestBestResponse:
    def test_both_silent(self):
        user = UserProfile(delta=1.0, theta=2.0, b_min=1.0)
        assert best_response(NoBid(), NoBid(), user, DecisionModel.eut()) == ((0, 0), 0.0)

    def test_symmetric_floor_bids_multihome_when_gap_covers_price(self):
        user = UserProfile(delta=10.0, theta=2.0, b_min=2.0)
        gap = user.delta * (2.0**0.5 - 1.0) * user.b_min**0.5
        bid = marginal_bid(5.0, user.b_min, price=gap * 0.9)
        strategy, _ = best_response(bid, bid, user, DecisionModel.eut())
        assert strategy == (1, 1)

    def test_pt_floor_bids_collapse_single_strategies(self):
        user = UserProfile(delta=50.0, theta=2.0, b_min=2.0)
        bid = marginal_bid(3.0, user.b_min, price=0.1)
        strategy, _ = best_response(bid, bid, user, DecisionModel.pt(0.7))
        assert strategy in ((0, 0), (1, 1))

    def test_tie_prefers_fewer_acceptances(self):
        # a free second acceptance adds benefit, so build an exact-utility tie:
        # one real offer against an empty slot leaves only (0,1) vs (0,0);
        # at utility exactly zero the outside option wins
        user = UserProfile(delta=1.0, theta=2.0, b_min=0.5)
        zero = Bid(rate=2.0, price=1.0, bandwidth=1.0, guarantee=0.5)
        strategy, u = best_response(NoBid(), zero, user, DecisionModel.eut())
        assert strategy == (0, 0)
        assert u == 0.0

    def test_utility_never_negative(self):
        rng = np.random.default_rng(23)
        for _ in range(500):
            bid_c, bid_w, user = random_instance(rng)
            _, u = best_response(bid_c, bid_w, user, DecisionModel.eut())
            assert u >= 0.0

    def test_price_drop_never_flips_acceptance_away(self):
        rng = np.random.default_rng(29)
        model = DecisionModel.eut()
        checked = 0
        for _ in range(800):
            bid_c, bid_w, user = random_instance(rng)
            (p_c, p_w), _ = best_response(bid_c, bid_w, user, model)
            if p_w and isinstance(bid_w, Bid) and bid_w.price > 0:
                cheaper = Bid(
                    rate=bid_w.rate,
                    price=bid_w.price * float(rng.uniform(0.1, 0.9)),
                    bandwidth=bid_w.bandwidth,
                    guarantee=bid_w.guarantee,
                )
                (_, p_w2), _ = best_response(bid_c, cheaper, user, model)
                assert p_w2 == 1
                checked += 1
        assert checked > 50

    def test_oracle_agreement_spot(self):
        rng = np.random.default_rng(31)
        for model, alpha in ((DecisionModel.eut(), None), (DecisionModel.pt(0.7), 0.7)):
            for _ in range(2000):
                bid_c, bid_w, user = random_instance(rng)
                got = best_response(bid_c, bid_w, user, model)
                want = oracle_best_response(bid_c, bid_w, user, alpha)
                assert got[0] == want[0]
                assert got[1].hex() == want[1].hex()

    @settings(max_examples=300, deadline=None)
    @given(bid_c=_BIDS, bid_w=_BIDS, user=_USERS, model=_MODELS)
    def test_matches_the_enumerator(self, bid_c, bid_w, user, model):
        got = best_response(bid_c, bid_w, user, model)
        want = oracle_best_response(
            bid_c, bid_w, user, model.prelec_alpha if model.is_pt else None
        )
        assert got[0] == want[0]
        assert got[1].hex() == want[1].hex()

    @settings(max_examples=300, deadline=None)
    @given(bid_c=_BIDS, bid_w=_BIDS, user=_USERS, model=_MODELS)
    def test_equals_first_written_reference(self, bid_c, bid_w, user, model):
        # the feasible set best_response picks from is the enumerator's
        # strategies and the outside option
        alpha = model.prelec_alpha if model.is_pt else None
        want = {s for s, _ in oracle_feasible_utilities(bid_c, bid_w, user, alpha)}
        assert feasible_set(bid_c, bid_w, user, model) == {(0, 0)} | want


class TestSelectWifiSp:
    """select_wifi_sp on make_eut_bids' slot list: slot 0 is the cellular
    BS's, which the pre-selection never picks."""

    cell = Bid(rate=50.0, price=0.0, bandwidth=1.0, guarantee=1.0)

    def test_empty_or_silent(self):
        user = UserProfile(delta=1.0, theta=2.0, b_min=1.0)
        model = DecisionModel.eut()
        assert select_wifi_sp([], user, model) is None
        assert select_wifi_sp([self.cell], user, model) is None
        assert select_wifi_sp([self.cell, NoBid(), NoBid("x")], user, model) is None

    def test_identical_offers_tie_to_lowest_slot(self):
        user = UserProfile(delta=1.0, theta=2.0, b_min=1.0)
        bid = Bid(rate=2.0, price=0.1, bandwidth=1.0, guarantee=0.5)
        bids = [self.cell, NoBid(), bid, NoBid(), bid]
        assert select_wifi_sp(bids, user, DecisionModel.eut()) == 2

    def test_higher_single_acceptance_utility_wins(self):
        user = UserProfile(delta=3.0, theta=2.0, b_min=1.0)
        good = Bid(rate=4.0, price=0.2, bandwidth=1.0, guarantee=0.9)
        meh = Bid(rate=4.0, price=1.5, bandwidth=1.0, guarantee=0.6)
        assert select_wifi_sp([NoBid(), meh, good], user, DecisionModel.eut()) == 2
        assert select_wifi_sp([NoBid(), good, meh], user, DecisionModel.eut()) == 1

    def test_perception_changes_ranking(self):
        # a shallow-guarantee offer gains under weighting, a deep one loses
        user = UserProfile(delta=3.0, theta=2.0, b_min=1.0)
        deep = Bid(rate=3.0, price=1.0, bandwidth=1.0, guarantee=0.85)
        shallow = Bid(rate=12.0, price=1.0, bandwidth=1.0, guarantee=0.2)
        bids = [NoBid(), deep, shallow]
        assert select_wifi_sp(bids, user, DecisionModel.eut()) == 1
        assert select_wifi_sp(bids, user, DecisionModel.pt(0.3)) == 2

    def test_ties_and_bad_utilities(self):
        user = UserProfile(delta=1.0, theta=2.0, b_min=1.0)
        model = DecisionModel.eut()
        # a Bid's price is finite, so the worst offer is a ruinous one, whose
        # utility still beats having no offer
        bid = Bid(rate=2.0, price=0.1, bandwidth=1.0, guarantee=0.5)
        ruinous = Bid(rate=2.0, price=1e300, bandwidth=1.0, guarantee=0.5)
        silent = NoBid()
        for wifi, want in (
            ([silent, silent, bid, bid, bid], 3),
            ([ruinous, ruinous], 1),
            ([ruinous, silent, silent, silent, silent, bid], 6),
            ([ruinous, silent, silent, silent, silent, bid, bid, ruinous], 6),
            ([NoBid("x"), silent, silent], None),
        ):
            bids = [self.cell, *wifi]
            assert select_wifi_sp(bids, user, model) == want
            assert reference_select_wifi_sp(list(enumerate(bids))[1:], user, model) == want

    @settings(max_examples=300, deadline=None)
    @given(bids=st.lists(_BIDS, max_size=9), user=_USERS, model=_MODELS)
    def test_slot_lists_equal_sorted_reference(self, bids, user, model):
        want = reference_select_wifi_sp(list(enumerate(bids))[1:], user, model)
        assert select_wifi_sp(bids, user, model) == want


class TestFloorSlack:
    """The relative slack on the rate floor is 1e-9: a lone offer whose
    rate * guarantee falls short of b_min by a relative 5e-10 is feasible,
    one short by 2e-9 is not, whichever slot carries it."""

    user = UserProfile(delta=50.0, theta=2.0, b_min=2.0)

    def slots(self, shortfall, slot):
        # rate 4 and guarantee b_min/4 scaled by (1 - shortfall): scaling by
        # powers of two is exact, so the product is b_min * (1 - shortfall)
        bid = Bid(rate=4.0, price=0.1, bandwidth=1.0, guarantee=0.5 * (1.0 - shortfall))
        assert bid.rate * bid.guarantee == self.user.b_min * (1.0 - shortfall)
        return ((bid, NoBid()), (1, 0)) if slot == "cellular" else ((NoBid(), bid), (0, 1))

    @pytest.mark.parametrize("slot", ["cellular", "wifi"])
    @pytest.mark.parametrize("shortfall, feasible", [(2e-9, False), (5e-10, True)])
    def test_feasible_set(self, slot, shortfall, feasible):
        (bid_c, bid_w), lone = self.slots(shortfall, slot)
        got = feasible_set(bid_c, bid_w, self.user, DecisionModel.eut())
        assert got == ({(0, 0), lone} if feasible else {(0, 0)})

    @pytest.mark.parametrize("slot", ["cellular", "wifi"])
    @pytest.mark.parametrize("shortfall, feasible", [(2e-9, False), (5e-10, True)])
    def test_best_response(self, slot, shortfall, feasible):
        (bid_c, bid_w), lone = self.slots(shortfall, slot)
        strategy, u = best_response(bid_c, bid_w, self.user, DecisionModel.eut())
        if feasible:
            assert strategy == lone
            assert u > 0.0
        else:
            assert (strategy, u) == ((0, 0), 0.0)


def test_floor_tolerance_constant_is_tight():
    # the slack exists for one-ulp rounding, not material shortfalls
    assert FLOOR_REL_TOL <= 1e-8
