"""Shared fixtures, the independent oracles, and the acceptance-criteria
summary reporter.

Each game computation has one oracle here, written from the closed forms
rather than from the code under test:
  - oracle_best_response enumerates the follower's four strategies;
  - dense_grid_bid maximizes an SP's profit over a dense rate grid;
  - bisect_bw inverts the service guarantee in the bandwidth.
  - provider_cost is an SP's linear provisioning cost.
"""

import math
import re

import numpy as np

from hetnetsim import Bid, LinkState, SpProfile
from hetnetsim.channel import service_guarantee

_CRITERION_RE = re.compile(r"test_criterion_(\d+)")
_criterion_results: dict[int, bool] = {}


def make_sp(**overrides) -> SpProfile:
    """An SpProfile with the tests' shared pricing, cost and radio numbers,
    any field overridden by keyword."""
    params = dict(alpha=1.0, beta=1.2, cost_rate=0.1, cost_bw=0.5, bw_total=40.0, tx_power_dbm=40.0)
    params.update(overrides)
    return SpProfile(**params)


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


def oracle_best_response(bid_c, bid_w, user, alpha):
    """Exhaustive four-strategy enumerator, coded from scratch.

    alpha None means objective perception; otherwise the Prelec exponent,
    with 0 and 1 mapped to themselves.  Mirrors the documented relative
    floor slack of 1e-9 and the tie order: strict improvements from (0,0),
    so fewer acceptances first, then the WiFi-only branch.
    """

    def w(p):
        if alpha is None or p in (0.0, 1.0):
            return p
        return math.exp(-((-math.log(p)) ** alpha))

    def offer(bid):
        return (bid.rate, bid.price, w(bid.guarantee)) if isinstance(bid, Bid) else None

    oc, ow = offer(bid_c), offer(bid_w)
    best, best_u = (0, 0), 0.0
    for p_c, p_w in ((0, 1), (1, 0), (1, 1)):
        if p_c and oc is None or p_w and ow is None:
            continue
        rate = (oc[0] * oc[2] if p_c else 0.0) + (ow[0] * ow[2] if p_w else 0.0)
        paid = (oc[1] if p_c else 0.0) + (ow[1] if p_w else 0.0)
        if rate < user.b_min * (1.0 - 1e-9):
            continue
        benefit = user.delta * rate ** (1.0 / user.theta) if rate > 0 else 0.0
        if benefit < paid:
            continue
        if benefit - paid > best_u:
            best, best_u = (p_c, p_w), benefit - paid
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
    the forward guarantee."""
    lo, hi = 1e-12, 1e9
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if service_guarantee(b, mid, link) < target:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


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
