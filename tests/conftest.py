"""Shared builders (make_sp, make_user, make_link, and link_bits for a
link's exact bits), the oracles more than one test module uses, and the
acceptance-criteria summary reporter.

Each oracle checks one game computation and is written from the closed
forms rather than from the code under test:
  - oracle_feasible_utilities enumerates the follower's feasible strategies
    and their perceived utilities, the oracle of feasible_set
    (test_follower); oracle_best_response, the argmax over them, is
    best_response's only oracle (test_follower, test_equilibrium,
    test_paper_claims and criterion 4);
  - dense_grid_bid maximizes an SP's profit over a dense rate grid, the
    oracle of optimize_bid (test_leader and criterion 7);
  - bisect_bw inverts the guarantee in the bandwidth by bisection, the
    oracle of guarantee_inverse_bw and marginal_bw (test_channel,
    test_leader); it calls production service_guarantee, which test_channel
    checks against its closed form and a Monte Carlo sampler;
  - provider_cost is an SP's linear provisioning cost (test_equilibrium,
    test_leader and the acceptance criteria);
  - reference_hata_path_loss is the Hata and COST-231 path loss and
    reference_link_state one pair's link, both as first written, the
    oracles of link_state (test_channel) and of build_links' two passes
    (test_harness); reference_link_state reads the production constants
    MIN_DISTANCE_M and USER_HEIGHT_M.
An oracle one module needs lives in that module as a reference_* function:
the WiFi pre-selection in test_follower, the classifiers in
test_equilibrium, the bid and rebid searches in test_leader, and the pool
expansion pass in test_harness.

watch(patch, targets) records the calls made through module attributes as a
tree of Call records, which walk visits and calls_named searches by name.
The session fixture watched_trials runs the default trial 0 at n = 50 and
n = 500 once, with every name of WATCHED watched, and keeps each load's
rows, TrialSolution and call tree.  The tests that check what the default
trials do read those trees instead of spying on trials of their own:
TestCallContract, TestRecords and the pool-pass tests in test_harness, the
three sweep-path tests in test_leader, and the game and ne-classify
sweep checks in test_cli.  test_package checks that WATCHED holds every
trial-path name the benchmark's tracer wraps.
"""

import math
import re
from typing import NamedTuple

import numpy as np
import pytest

from hetnetsim import Bid, LinkState, SpProfile, UserProfile, equilibrium, harness, leader
from hetnetsim.channel import MIN_DISTANCE_M, service_guarantee
from hetnetsim.model import USER_HEIGHT_M

_CRITERION_RE = re.compile(r"test_criterion_(\d+)")
_criterion_results: dict[int, bool] = {}


def make_sp(**overrides) -> SpProfile:
    """An SpProfile with the tests' shared pricing, cost and radio numbers,
    any field overridden by keyword."""
    params = dict(alpha=1.0, beta=1.2, cost_rate=0.1, cost_bw=0.5, bw_total=40.0, tx_power_dbm=40.0)
    params.update(overrides)
    return SpProfile(**params)


def make_user(delta=1.0, theta=2.0, b_min=2.0) -> UserProfile:
    """A UserProfile at the origin from its payoff parameters, by position or
    keyword; theta and b_min default to the default config's."""
    return UserProfile(delta=delta, theta=theta, b_min=b_min)


def provider_cost(rate: float, bw: float, sp) -> float:
    """Linear provisioning cost cost_rate * rate + cost_bw * bw."""
    return sp.cost_rate * rate + sp.cost_bw * bw


def make_link(mean_snr: float, bw_max: float = 10.0, covered: bool = True) -> LinkState:
    """A LinkState with the given radio numbers and a consistent rate cap."""
    b_max = bw_max * math.log2(1.0 + mean_snr) if covered else 0.0
    return LinkState(
        path_loss_db=0.0,
        mean_snr=mean_snr,
        covered=covered,
        bw_max=bw_max,
        b_max=b_max,
    )


def oracle_feasible_utilities(bid_c, bid_w, user, alpha):
    """Each feasible strategy other than (0, 0), in the order (0,1), (1,0),
    (1,1), with its perceived utility: an enumerator coded from scratch.

    alpha None means objective perception; otherwise the Prelec exponent,
    with 0 and 1 mapped to themselves.  Mirrors the documented relative
    floor slack of 1e-9.
    """

    def w(p):
        if alpha is None or p in (0.0, 1.0):
            return p
        return math.exp(-((-math.log(p)) ** alpha))

    def offer(bid):
        return (bid.rate, bid.price, w(bid.guarantee)) if isinstance(bid, Bid) else None

    oc, ow = offer(bid_c), offer(bid_w)
    feasible = []
    for p_c, p_w in ((0, 1), (1, 0), (1, 1)):
        if p_c and oc is None or p_w and ow is None:
            continue
        rate = (oc[0] * oc[2] if p_c else 0.0) + (ow[0] * ow[2] if p_w else 0.0)
        paid = (oc[1] if p_c else 0.0) + (ow[1] if p_w else 0.0)
        if rate < user.b_min * (1.0 - 1e-9):
            continue
        benefit = user.delta * rate ** (1.0 / user.theta) if rate > 0 else 0.0
        if benefit >= paid:
            feasible.append(((p_c, p_w), benefit - paid))
    return feasible


def oracle_best_response(bid_c, bid_w, user, alpha):
    """The best of oracle_feasible_utilities, (0, 0) worth 0 when none is
    better.  Strict improvements in enumeration order give the tie order:
    fewer acceptances first, then the WiFi-only branch."""
    best, best_u = (0, 0), 0.0
    for strategy, u in oracle_feasible_utilities(bid_c, bid_w, user, alpha):
        if u > best_u:
            best, best_u = strategy, u
    return best, best_u


def dense_grid_bid(sp, link, b_min, points, slack):
    """Dense-grid maximizer of price minus cost over floor-tight offers, with
    the bandwidth budget widened by the relative slack: (rate, profit), or
    None when silence wins."""
    low = b_min * (1.0 + 1e-6)
    if not link.covered or link.b_max <= low:
        return None
    grid = np.geomspace(low, link.b_max, points)
    bw = grid / np.log2(1.0 + link.mean_snr * np.log(grid / b_min))
    profit = sp.alpha * grid**sp.beta - sp.cost_rate * grid - sp.cost_bw * bw
    profit[bw > link.bw_max * (1.0 + slack)] = -np.inf
    i = int(np.argmax(profit))
    if not np.isfinite(profit[i]) or profit[i] < 0.0:
        return None
    return float(grid[i]), float(profit[i])


def bisect_bw(b, target, link):
    """Bandwidth at which the rate-b guarantee reaches target: bisection on
    the forward guarantee, production service_guarantee."""
    lo, hi = 1e-12, 1e9
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if service_guarantee(b, mid, link) < target:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


def reference_hata_path_loss(freq_mhz, d_km, h_bs_m, h_ue_m):
    """The Hata path loss as first written, every constant recomputed per
    call; link_state's must agree with it bit for bit."""
    if d_km <= 0:
        raise ValueError(f"distance must be positive, got {d_km} km")
    if not 150.0 <= freq_mhz <= 2500.0:
        raise ValueError(f"frequency {freq_mhz} MHz outside supported range")
    if h_bs_m <= 0 or h_ue_m <= 0:
        raise ValueError("antenna heights must be positive")
    lf = math.log10(freq_mhz)
    lhb = math.log10(h_bs_m)
    a_hm = (1.1 * lf - 0.7) * h_ue_m - (1.56 * lf - 0.8)
    slope = 44.9 - 6.55 * lhb
    if freq_mhz <= 1500.0:
        base = 69.55 + 26.16 * lf
    else:
        base = 46.3 + 33.9 * lf
    return base - 13.82 * lhb - a_hm + slope * math.log10(d_km)


def reference_link_state(user, sp, noise_density_dbm_hz=-174.0, bw_max=None):
    """link_state as first written (indexed positions, max() clamp, the
    reference path loss, no first-pass reference); the rewritten one must
    agree with it bit for bit.  Reads production MIN_DISTANCE_M and
    USER_HEIGHT_M."""
    if bw_max is None:
        bw_max = sp.g_ba * sp.bw_total
    if bw_max <= 0:
        raise ValueError(f"bandwidth budget must be positive, got {bw_max}")
    dx = user.position[0] - sp.position[0]
    dy = user.position[1] - sp.position[1]
    dist_m = max(math.hypot(dx, dy), MIN_DISTANCE_M)
    loss_db = reference_hata_path_loss(
        sp.frequency_mhz, dist_m / 1000.0, sp.antenna_height_m, USER_HEIGHT_M
    )
    noise_dbm = noise_density_dbm_hz + 10.0 * math.log10(bw_max * 1e6)
    snr_db = sp.tx_power_dbm - loss_db - noise_dbm
    mean_snr = 10.0 ** (snr_db / 10.0)
    covered = user.active and snr_db >= sp.coverage_snr_threshold_db
    if sp.coverage_radius is not None and dist_m > sp.coverage_radius:
        covered = False
    b_max = bw_max * math.log2(1.0 + mean_snr) if covered else 0.0
    return LinkState(
        path_loss_db=loss_db,
        mean_snr=mean_snr,
        covered=covered,
        bw_max=bw_max,
        b_max=b_max,
    )


def link_bits(ln: LinkState) -> tuple:
    """The link's fields, every float as its exact bit pattern."""
    return tuple(x.hex() if isinstance(x, float) else x for x in ln)


class Call(NamedTuple):
    """One watched call that returned: the watched name, its arguments and
    result, and the watched calls made inside it, in the order made."""

    name: str
    args: tuple
    kwargs: dict
    result: object
    inner: list


def watch(patch, targets) -> list[Call]:
    """Wrap each (module, name) of targets through patch.setattr so that a
    call records itself; return the list the outermost calls join as they
    return.  A call that raises is not recorded."""
    top: list[Call] = []
    open_calls = [top]  # the inner list of each watched call under way

    def watched(name, fn):
        def wrapper(*args, **kwargs):
            open_calls.append(inner := [])
            try:
                result = fn(*args, **kwargs)
            finally:
                open_calls.pop()
            open_calls[-1].append(Call(name, args, kwargs, result, inner))
            return result

        return wrapper

    for module, name in targets:
        patch.setattr(module, name, watched(name, getattr(module, name)))
    return top


def walk(calls: list[Call]):
    """Every call in the trees calls, in the order made."""
    for call in calls:
        yield call
        yield from walk(call.inner)


def calls_named(calls: list[Call], name: str) -> list[Call]:
    return [call for call in walk(calls) if call.name == name]


# the trial path's module attributes: the benchmark's traced names, each
# leader search's certified and fallback steps, and solve_trial for the
# TrialSolution
WATCHED = [
    (module, name)
    for module, names in (
        (harness, "solve_trial generate_topology build_links link_state make_eut_bids"),
        (harness, "resolve_user_game _pool_expansion_pass"),
        (equilibrium, "optimize_bid expand_bw_pt expansion_rebid select_wifi_sp best_response"),
        (leader, "_certified_window _full_grid_window _grid_profit _grid_bracket _crossing_band"),
    )
    for name in names.split()
]


class WatchedTrial(NamedTuple):
    rows: dict
    solution: harness.TrialSolution
    calls: list[Call]


@pytest.fixture(scope="session")
def watched_trials() -> dict[int, WatchedTrial]:
    """The default trial 0 at n = 50 and n = 500, each run once by run_trial
    with WATCHED watched.  Session-scoped, so it is built before a test's
    monkeypatch applies; a test reads it and changes nothing in it."""
    trials = {}
    for n in (50, 500):
        with pytest.MonkeyPatch.context() as patch:
            calls = watch(patch, WATCHED)
            rows = harness.run_trial(harness.DEFAULT_CONFIG, n, 0)
        (solve,) = calls
        trials[n] = WatchedTrial(rows, solve.result, calls)
    return trials


def pytest_runtest_logreport(report):
    # a criterion whose fixture fails (such as the sweep criteria 8 and 9
    # read) fails at setup, and its call phase never runs
    if not (report.when == "call" or report.when == "setup" and report.failed):
        return
    m = _CRITERION_RE.search(report.nodeid)
    if m:
        num = int(m.group(1))
        _criterion_results[num] = report.passed


def pytest_terminal_summary(terminalreporter):
    if not _criterion_results:
        return
    terminalreporter.section("acceptance criteria")
    for num in sorted(_criterion_results):
        status = "PASS" if _criterion_results[num] else "FAIL"
        terminalreporter.write_line(f"ACCEPTANCE criterion {num}: {status}")
