"""Whole-artifact acceptance checks.

Each test verifies one falsifiable, end-to-end contract of the package:
the marginal-bid floor identity, the weighting-function algebra, the
closed-form guarantee against Monte Carlo, follower and leader optimality
against brute-force oracles, the infeasibility of single acceptances under
probability weighting, the bandwidth-expansion round trip, the qualitative
shape of the default load sweep, and the default sweep's CSV at both
committed seeds, byte for byte.

The default sweep runs once per seed, in a module fixture that criteria 8
and 9 share.  The conftest reporter prints one PASS/FAIL line per
criterion number; a failed fixture fails its criteria.
"""

import math
import time
from pathlib import Path

import numpy as np
import pytest
import conftest
from conftest import dense_grid_bid, make_link, oracle_best_response

from hetnetsim.channel import guarantee_inverse_bw, service_guarantee
from hetnetsim.cli import main as cli_main
from hetnetsim.follower import best_response, feasible_set
from hetnetsim.harness import DEFAULT_CONFIG, Scenario, load_rows, solve_trial
from hetnetsim.leader import expand_bw_pt, optimize_bid
from hetnetsim.model import (
    Bid,
    NoBid,
    SpProfile,
    UserProfile,
    sp_cost,
)
from hetnetsim.prospect import DecisionModel, weight, weight_inverse

FIXED_POINT = math.exp(-1.0)
ALPHAS = [round(0.1 * k, 1) for k in range(1, 10)]
DATA = Path(__file__).resolve().parent / "data"


def random_sp(rng) -> SpProfile:
    return SpProfile(
        alpha=float(rng.uniform(0.3, 2.0)),
        beta=float(rng.uniform(1.05, 1.6)),
        cost_rate=float(rng.uniform(0.01, 0.3)),
        cost_bw=float(rng.uniform(0.05, 1.0)),
        bw_total=40.0,
        tx_power_dbm=40.0,
    )


def random_user(rng) -> UserProfile:
    return UserProfile(
        delta=float(rng.uniform(1.0, 12.0)),
        theta=float(rng.uniform(1.2, 4.0)),
        b_min=float(rng.uniform(0.5, 4.0)),
    )


def test_criterion_1_marginal_bid_floor():
    # every emitted bid must hold rate * guarantee exactly at the demand
    # floor; shaving bandwidth must break the floor and padding it must
    # cost utility
    rng = np.random.default_rng(101)
    start = time.perf_counter()
    emitted = 0
    for _ in range(1000):
        b_min = float(rng.uniform(0.5, 4.0))
        link = make_link(float(rng.uniform(3.0, 300.0)), float(rng.uniform(0.5, 30.0)))
        sp = random_sp(rng)
        bid = optimize_bid(sp, link, b_min)
        if not isinstance(bid, Bid):
            continue
        emitted += 1
        floor = bid.rate * service_guarantee(bid.rate, bid.bandwidth, link)
        assert abs(floor - b_min) <= 1e-6 * b_min
        shaved = bid.rate * service_guarantee(bid.rate, 0.99 * bid.bandwidth, link)
        assert shaved < b_min
        base = bid.price - sp_cost(bid.rate, bid.bandwidth, sp)
        padded = bid.price - sp_cost(bid.rate, 1.01 * bid.bandwidth, sp)
        assert padded < base
    assert emitted >= 250
    assert time.perf_counter() - start < 5.0


def test_criterion_2_weighting_function_suite():
    start = time.perf_counter()
    under = np.linspace(0.0, FIXED_POINT, 1002)[1:-1]
    over = np.linspace(FIXED_POINT, 1.0, 1002)[1:-1]
    images = np.linspace(0.001, 0.999, 1000)
    for alpha in ALPHAS:
        model = DecisionModel.pt(alpha)
        assert abs(weight(FIXED_POINT, model) - FIXED_POINT) <= 1e-12
        for p in under:
            assert weight(float(p), model) > p
        for p in over:
            assert weight(float(p), model) < p
        # identity checked on the image of the grid: every target is an
        # exactly representable weight, so both compositions are
        # well-conditioned everywhere in (0, 1)
        for p in images:
            q = weight(float(p), model)
            assert abs(weight_inverse(q, model) - p) <= 1e-12
            assert abs(weight(weight_inverse(q, model), model) - q) <= 1e-12
    assert time.perf_counter() - start < 1.0


def test_criterion_3_guarantee_against_monte_carlo():
    rng = np.random.default_rng(307)
    start = time.perf_counter()
    samples = 100_000
    triples = []
    while len(triples) < 50:
        b = float(rng.uniform(0.5, 8.0))
        bw = float(rng.uniform(0.5, 10.0))
        snr = float(rng.uniform(1.0, 100.0))
        q = service_guarantee(b, bw, make_link(snr, bw))
        if 0.02 <= q <= 0.98:
            triples.append((b, bw, snr, q))
    for b, bw, snr, q in triples:
        gains = rng.exponential(snr, samples)
        hits = np.count_nonzero(bw * np.log2(1.0 + gains) >= b)
        sigma = math.sqrt(q * (1.0 - q) / samples)
        assert abs(hits / samples - q) <= 3.0 * sigma
    assert time.perf_counter() - start < 10.0


def random_offer(rng, b_min):
    if rng.random() < 0.15:
        return NoBid("silent")
    rate = b_min * float(rng.uniform(0.4, 3.0))
    guarantee = float(rng.uniform(0.05, 0.99))
    price = float(rng.uniform(0.05, 1.3)) * rate * guarantee
    return Bid(rate=rate, price=price, bandwidth=1.0, guarantee=guarantee)


def test_criterion_4_best_response_matches_enumerator():
    rng = np.random.default_rng(401)
    for alpha in (None, 0.4, 0.7):
        model = DecisionModel.eut() if alpha is None else DecisionModel.pt(alpha)
        mismatches = 0
        for _ in range(10_000):
            user = random_user(rng)
            bid_c = random_offer(rng, user.b_min)
            bid_w = random_offer(rng, user.b_min)
            got = best_response(bid_c, bid_w, user, model)
            want = oracle_best_response(bid_c, bid_w, user, alpha)
            if got[0] != want[0] or abs(got[1] - want[1]) > 1e-9 * max(1.0, want[1]):
                mismatches += 1
        assert mismatches == 0


def test_criterion_5_weighted_singles_infeasible():
    # floor bids advertise rate * guarantee == b_min exactly; a weighting
    # user perceives less than b_min from either bid alone whenever the
    # guarantee exceeds the weighting fixed point
    rng = np.random.default_rng(501)
    for _ in range(10_000):
        user = random_user(rng)
        model = DecisionModel.pt(float(rng.uniform(0.1, 0.9)))
        bids = []
        for _ in range(2):
            g = float(rng.uniform(FIXED_POINT + 1e-6, 0.995))
            bids.append(
                Bid(
                    rate=user.b_min / g,
                    price=float(rng.uniform(0.05, 3.0)),
                    bandwidth=1.0,
                    guarantee=g,
                )
            )
        strategies = feasible_set(bids[0], bids[1], user, model)
        assert (0, 1) not in strategies
        assert (1, 0) not in strategies


def test_criterion_6_expansion_round_trip():
    rng = np.random.default_rng(601)
    for _ in range(1000):
        b_min = float(rng.uniform(0.5, 4.0))
        g = float(rng.uniform(FIXED_POINT + 0.01, 0.95))
        model = DecisionModel.pt(float(rng.uniform(0.3, 0.9)))
        link = make_link(float(rng.uniform(2.0, 200.0)), 1e6)
        rate = b_min / g
        bw_committed = guarantee_inverse_bw(rate, g, link)
        bid = Bid(rate=rate, price=1.0, bandwidth=bw_committed, guarantee=g)
        out = expand_bw_pt(bid, model, link)
        assert isinstance(out, Bid)
        committed = service_guarantee(rate, bw_committed, link)
        expanded = service_guarantee(out.rate, out.bandwidth, link)
        assert abs(weight(expanded, model) - committed) <= 1e-6

    # known target: a 0.8 guarantee under exponent 0.7 must be re-issued
    # at the pre-image 0.8892, checked against a bisection inverse
    model = DecisionModel.pt(0.7)
    lam = weight_inverse(0.8, model)
    lo, hi = FIXED_POINT, 1.0 - 1e-15
    for _ in range(100):
        mid = 0.5 * (lo + hi)
        if weight(mid, model) < 0.8:
            lo = mid
        else:
            hi = mid
    assert lam == pytest.approx(0.5 * (lo + hi), abs=1e-10)
    assert lam == pytest.approx(0.8892, abs=1e-3)


def test_criterion_7_optimizer_beats_dense_grid():
    rng = np.random.default_rng(701)
    start = time.perf_counter()
    compared = 0
    for _ in range(100):
        b_min = float(rng.uniform(0.5, 4.0))
        link = make_link(float(rng.uniform(3.0, 300.0)), float(rng.uniform(0.5, 30.0)))
        sp = random_sp(rng)
        bid = optimize_bid(sp, link, b_min)
        oracle = dense_grid_bid(sp, link, b_min, 1_000_000, 1e-9)
        if not isinstance(bid, Bid):
            # silence is consistent only if the dense grid also finds no
            # meaningfully profitable rate
            assert oracle is None or oracle[1] <= 1e-6
            continue
        achieved = bid.price - sp_cost(bid.rate, bid.bandwidth, sp)
        assert achieved >= 0.0
        if oracle is None:
            continue
        compared += 1
        assert oracle[1] - achieved <= 1e-6 * max(1.0, abs(oracle[1]))
    assert compared >= 60
    assert time.perf_counter() - start < 60.0


def _simulate(tmp_path_factory, *argv):
    """`hetnetsim simulate` in process: the CSV it wrote and its wall time."""
    out = tmp_path_factory.mktemp("sweep") / "rows.csv"
    start = time.perf_counter()
    assert cli_main(["simulate", *argv, "--out", str(out)]) == 0
    return out, time.perf_counter() - start


@pytest.fixture(scope="module")
def default_sweep(tmp_path_factory):
    return _simulate(tmp_path_factory)


@pytest.fixture(scope="module")
def default_sweep_4242(tmp_path_factory):
    return _simulate(tmp_path_factory, "--seed", "4242")


def test_criterion_8_load_sweep_shape(default_sweep):
    # the bound covers the sweep whose rows are read here
    path, sweep_s = default_sweep
    start = time.perf_counter() - sweep_s
    cfg = DEFAULT_CONFIG
    rows = load_rows(path)
    rows_by = {(row.n, row.scenario): row for row in rows}
    assert len(rows) == len(rows_by) == len(cfg.sweep) * len(Scenario)

    # (a) low-load prefix: all committed guarantees sit below the weighting
    # fixed point and weighting does not hurt aggregate provider utility
    def reaches_fixed_point(n):
        return any(
            isinstance(bid, Bid) and bid.guarantee >= FIXED_POINT
            for t in range(cfg.trials)
            for per_user in solve_trial(cfg, n, t).bids
            for bid in per_user
        )

    prefix = []
    for n in cfg.sweep:
        if reaches_fixed_point(n):
            break
        prefix.append(n)
    assert prefix
    for n in prefix:
        assert (
            rows_by[(n, "PT")].sum_sp_utility
            >= rows_by[(n, "EUT")].sum_sp_utility
        )

    # (b) under load, plain weighting sheds users while expansion recovers
    def drop_and_recover(n):
        eut = rows_by[(n, "EUT")].association_rate
        plain = rows_by[(n, "PT")].association_rate
        expanded = rows_by[(n, "PT_EXPANSION")].association_rate
        return eut - plain >= 0.20 and eut - expanded <= 0.10

    hit = [n for n in cfg.sweep if drop_and_recover(n)]
    assert hit
    for n in cfg.sweep[-3:]:
        assert drop_and_recover(n)

    # (c) extra bandwidth is free only while weighting never binds, and
    # grows with load at the heavy end
    def extra_bw(n):
        return (
            rows_by[(n, "PT_EXPANSION")].avg_bw_per_user
            - rows_by[(n, "EUT")].avg_bw_per_user
        )

    for n in prefix:
        assert abs(extra_bw(n)) <= 1e-9
    tail = [extra_bw(n) for n in cfg.sweep[-3:]]
    assert tail[0] < tail[1] < tail[2]
    assert time.perf_counter() - start < 300.0


def test_criterion_9_byte_identical_runs(default_sweep, default_sweep_4242):
    # the CLI's CSV at the default seed and at 4242 is the committed one
    assert default_sweep[0].read_bytes() == (DATA / "default_sweep.csv").read_bytes()
    assert default_sweep_4242[0].read_bytes() == (DATA / "default_sweep_4242.csv").read_bytes()


def test_reporter_fails_a_criterion_whose_fixture_fails(monkeypatch):
    # a criterion whose fixture fails never reaches its call phase; its
    # failed setup is what the summary must show
    monkeypatch.setattr(conftest, "_criterion_results", {})
    nodeid = "tests/test_acceptance.py::test_criterion_8_load_sweep_shape"

    def report(when, outcome):
        return pytest.TestReport(nodeid, ("", 0, ""), {}, outcome, None, when)

    conftest.pytest_runtest_logreport(report("setup", "passed"))
    assert conftest._criterion_results == {}
    conftest.pytest_runtest_logreport(report("setup", "failed"))
    assert conftest._criterion_results == {8: False}
