"""The Prelec exponent alpha as the paper's axis: users who underestimate
the advertised guarantees.  PT rows do not depend on alpha, and
PT_EXPANSION recovers association as alpha rises and reaches EUT's rows as
alpha nears 1.

Default config at n = 300 and 500, trials 0 and 1; the values quoted below
were measured on these four trials, and the 16 run_trial calls take about
0.5 s in all.
"""

from dataclasses import replace

import pytest

from hetnetsim.harness import DEFAULT_CONFIG, Scenario, run_trial

TRIALS = [(300, 0), (300, 1), (500, 0), (500, 1)]
NEAR_ONE = 1.0 - 1e-6
COLUMNS = ("sum_sp_utility", "sum_user_utility", "avg_bw_per_user", "association_rate")


@pytest.fixture(scope="module")
def rows():
    """run_trial's rows by (alpha, n, trial)."""
    return {
        (alpha, n, trial): run_trial(replace(DEFAULT_CONFIG, prelec_alpha=alpha), n, trial)
        for alpha in (0.3, 0.7, 0.999, NEAR_ONE)
        for n, trial in TRIALS
    }


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
