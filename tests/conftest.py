"""Shared fixtures plus the acceptance-criteria summary reporter."""

import math
import re

import pytest

from hetnetsim import LinkState

_CRITERION_RE = re.compile(r"test_criterion_(\d+)")
_criterion_results: dict[int, bool] = {}


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


@pytest.fixture
def link_factory():
    return make_link


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
