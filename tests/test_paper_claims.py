"""The paper's claims.

The Prelec exponent alpha as the paper's axis: users who underestimate
the advertised guarantees.  PT rows do not depend on alpha, and
PT_EXPANSION recovers association as alpha rises and reaches EUT's rows as
alpha nears 1.  Default config at n = 300 and 500, trials 0 and 1; the
values quoted below were measured on these four trials.  The default
trial 0 at n = 500 comes from conftest.watched_trials, and the other 15
run_trial calls take about 0.5 s in all.

The paper's example: one BS, one AP and one user over a plane of prices.
Some EUT equilibria become infeasible under PT, and where a label survives
PT's utility is lower, for guarantees above 1/e; below it, PT's is higher.
Expanding both bids brings the lost labels back, and every cell is the
exhaustive enumerator's best response.  The four maps take about 0.6 s,
the three expanded ones about 0.8 s, and the enumerator's pass over all
eight (map, model) pairs about 1.5 s.
"""

import math
from dataclasses import asdict, replace

import pytest

from conftest import oracle_best_response
from hetnetsim import Bid, NeClass, UserProfile, classify
from hetnetsim.channel import LinkState
from hetnetsim.equilibrium import WITHDRAWN
from hetnetsim.harness import DEFAULT_CONFIG, Scenario, run_trial
from hetnetsim.leader import expand_bw_pt
from hetnetsim.prospect import DecisionModel

TRIALS = [(300, 0), (300, 1), (500, 0), (500, 1)]
NEAR_ONE = 1.0 - 1e-6
COLUMNS = ("sum_sp_utility", "sum_user_utility", "avg_bw_per_user", "association_rate")


@pytest.fixture(scope="module")
def rows(watched_trials):
    """run_trial's rows by (alpha, n, trial); watched_trials has solved the
    default trial 0 at n = 500 already."""
    got = {(DEFAULT_CONFIG.prelec_alpha, 500, 0): watched_trials[500].rows}
    for alpha in (0.3, 0.7, 0.999, NEAR_ONE):
        cfg = replace(DEFAULT_CONFIG, prelec_alpha=alpha)
        for n, trial in TRIALS:
            if (alpha, n, trial) not in got:
                got[alpha, n, trial] = run_trial(cfg, n, trial)
    return got


@pytest.mark.parametrize("n, trial", TRIALS)
def test_pt_rows_do_not_depend_on_alpha(rows, n, trial):
    # the EUT bids are floor-tight, so for every alpha < 1 a guarantee above
    # 1/e is perceived below the floor and one at or below 1/e at least at
    # it: association 0.35, 0.2833, 0.05 and 0.032 on the four trials at
    # every alpha, and only perceived user utility moves
    columns = ("association_rate", "sum_sp_utility", "avg_bw_per_user")
    got = [
        [getattr(rows[alpha, n, trial][Scenario.PT], c) for c in columns]
        for alpha in (0.3, 0.7, NEAR_ONE)
    ]
    assert got[0] == got[1] == got[2]


@pytest.mark.parametrize("n, trial", TRIALS)
def test_expansion_association_rises_with_alpha(rows, n, trial):
    # measured at alpha 0.3, 0.7, 0.999: 0.4633, 0.5067, 0.5067 (n=300, trial 0);
    # 0.4567, 0.5633, 0.5633 (300, 1); 0.284, 0.364, 0.384 (500, 0);
    # 0.208, 0.408, 0.458 (500, 1)
    rates = [rows[a, n, trial][Scenario.PT_EXPANSION].association_rate for a in (0.3, 0.7, 0.999)]
    assert rates == sorted(rates)


@pytest.mark.parametrize("n, trial", TRIALS)
def test_expansion_reaches_eut_as_alpha_nears_one(rows, n, trial):
    # the largest relative gap measured is 1.0e-7 (sum_user_utility, n=300,
    # trial 0); association is equal on all four trials
    expansion = rows[NEAR_ONE, n, trial][Scenario.PT_EXPANSION]
    eut = rows[NEAR_ONE, n, trial][Scenario.EUT]
    assert expansion.association_rate == eut.association_rate
    for c in COLUMNS:
        assert getattr(expansion, c) == pytest.approx(getattr(eut, c), rel=1e-6, abs=0.0), c


# every price 5k for k = 0..120 on each offer: the default user's benefit at
# the floor, H(b_min) = 494.97, and doubling gap, 205.03, split the plane
PRICES = [5.0 * k for k in range(121)]
SINGLE = {NeClass.WIFI_ONLY01, NeClass.CELL_ONLY10}
LABEL = {
    (0, 0): NeClass.REJECT00,
    (0, 1): NeClass.WIFI_ONLY01,
    (1, 0): NeClass.CELL_ONLY10,
    (1, 1): NeClass.BOTH11,
}
USER = UserProfile(**asdict(DEFAULT_CONFIG.user))
SP_C, SP_W = DEFAULT_CONFIG.cellular, DEFAULT_CONFIG.wifi


def price_plane(g):
    """The (cellular, WiFi) bid pair of each price cell, in the maps' order:
    a floor-tight cellular bid with guarantee g and a floor-tight WiFi bid
    at 1.01 times its rate."""
    rate_c = USER.b_min / g
    rate_w = 1.01 * rate_c
    return [
        (Bid(rate_c, p_c, 1.0, g), Bid(rate_w, p_w, 1.0, USER.b_min / rate_w))
        for p_c in PRICES
        for p_w in PRICES
    ]


@pytest.fixture(scope="module")
def price_maps():
    """By guarantee g: the (EUT, PT(0.7)) outcome pair of each price_plane
    cell, each bid priced with DEFAULT_CONFIG's profile."""
    models = DecisionModel.eut(), DecisionModel.pt(0.7)
    return {
        g: [
            tuple(classify(bid_c, bid_w, USER, m, SP_C, SP_W) for m in models)
            for bid_c, bid_w in price_plane(g)
        ]
        for g in (0.3, 0.6, 0.8, 0.95)
    }


@pytest.mark.parametrize("model", [0, 1], ids=["eut", "pt"])
@pytest.mark.parametrize("g", [0.3, 0.6, 0.8, 0.95])
def test_every_cell_is_the_oracle_best_response(price_maps, g, model):
    # each cell's strategy, label and perceived utility are the exhaustive
    # enumerator's, at PT(0.7) for the weighting user (no cell is mixed: the
    # two offers differ); a slot the user rejects is withdrawn and an
    # accepted one keeps its bid
    alpha = (None, 0.7)[model]
    for outcomes, (bid_c, bid_w) in zip(price_maps[g], price_plane(g), strict=True):
        out = outcomes[model]
        strategy, u = oracle_best_response(bid_c, bid_w, USER, alpha)
        assert out.strategy_draw == strategy
        assert out.ne_class is LABEL[strategy]
        assert out.u_user == pytest.approx(u, rel=1e-9, abs=0.0)
        p_c, p_w = strategy
        assert out.bids == (bid_c if p_c else WITHDRAWN, bid_w if p_w else WITHDRAWN)


def shared_labels(cells):
    """The cells both models give the same label other than Reject00."""
    return [
        (eut, pt)
        for eut, pt in cells
        if eut.ne_class is pt.ne_class and eut.ne_class is not NeClass.REJECT00
    ]


@pytest.mark.parametrize("g", [0.6, 0.8, 0.95])
def test_pt_relabels_every_eut_single_acceptance(price_maps, g):
    # above 1/e a floor-tight offer alone is perceived below the floor
    single = [pt for eut, pt in price_maps[g] if eut.ne_class in SINGLE]
    assert len(single) == 12393
    assert all(pt.ne_class not in SINGLE for pt in single)


@pytest.mark.parametrize("g", [0.6, 0.8, 0.95])
def test_labels_both_models_give_are_worth_less_under_pt(price_maps, g):
    # the Both11 cells, where both prices are within the doubling gap
    shared = shared_labels(price_maps[g])
    assert len(shared) == 1764
    assert all(pt.u_user <= eut.u_user for eut, pt in shared)


def test_below_one_over_e_pt_utility_is_higher(price_maps):
    # at g = 0.3 < 1/e the guarantees are perceived above their value: 85 of
    # the 12,393 EUT single acceptances become Both11 and 160 Reject00 cells
    # single acceptances, and every label both models give is worth more
    # under PT
    shared = shared_labels(price_maps[0.3])
    assert len(shared) == 14072
    assert all(pt.u_user > eut.u_user for eut, pt in shared)


# a 20 MHz budget at a mean SNR of 100 (20 dB): the widest expansion of
# the three maps, the cellular bid's at g = 0.95, needs 1.64 MHz
WIDE_LINK = LinkState(
    path_loss_db=100.0, mean_snr=100.0, covered=True, bw_max=20.0, b_max=20.0 * math.log2(101.0)
)


@pytest.mark.parametrize("g", [0.6, 0.8, 0.95])
def test_expanding_both_bids_restores_every_eut_single_acceptance(price_maps, g):
    # expand_bw_pt keeps rate and price and raises the guarantee to the
    # pre-image of g under PT(0.7)'s weighting, so the offer is perceived as
    # EUT sees it, and every cell test_pt_relabels_every_eut_single_acceptance
    # finds relabeled gets its EUT label back
    pt = DecisionModel.pt(0.7)
    single = [
        (eut, bids)
        for (eut, _), bids in zip(price_maps[g], price_plane(g), strict=True)
        if eut.ne_class in SINGLE
    ]
    assert len(single) == 12393
    restored = 0
    for eut, (bid_c, bid_w) in single:
        expanded = expand_bw_pt(bid_c, pt, WIDE_LINK), expand_bw_pt(bid_w, pt, WIDE_LINK)
        assert all(isinstance(bid, Bid) for bid in expanded)
        restored += classify(*expanded, USER, pt, SP_C, SP_W).ne_class is eut.ne_class
    assert restored == 12393
