"""Propagation, coverage, per-user bandwidth budgets, and the service
guarantee model.

Path loss follows the empirical Hata urban model (small/medium city mobile
correction) up to 1500 MHz and its COST-231 extension above that; the 2.4 GHz
WiFi band sits slightly past COST-231's formal ceiling and is treated as an
approximation.

The advertised-rate guarantee assumes Rayleigh fading: the instantaneous
rate is bw * log2(1 + snr * X) with channel power X ~ Exponential(mean 1),
so the probability of meeting an advertised rate b is

    F(b, bw) = exp(-(2**(b/bw) - 1) / mean_snr)

which is increasing in bandwidth, decreasing in rate, and analytically
invertible in bandwidth.
"""

from __future__ import annotations

import functools
import math
from typing import NamedTuple

from .model import SpProfile, UserProfile, _new_record

# Hata validity window.  The upper edge stretches to cover the 2.4 GHz ISM
# band via COST-231, a documented approximation.
FREQ_MIN_MHZ = 150.0
FREQ_MAX_MHZ = 2500.0
COST231_CROSSOVER_MHZ = 1500.0

# Distances below one meter are clamped before the propagation formula,
# which is not meant for the near field.
MIN_DISTANCE_M = 1.0

# Antenna height of every user terminal, in meters.
USER_HEIGHT_M = 1.5


class LinkState(NamedTuple):
    """Radio state of one user-SP pair.  Built twice per pair and trial, so
    a named tuple: as immutable as a frozen dataclass, and cheaper to build.
    The second build, over the split budget, takes the first as its
    reference and reuses its path loss and coverage.

    mean_snr is linear (not dB) and is the average SNR over the per-user
    bandwidth budget bw_max.  b_max is the Shannon-capacity rate cap
    bw_max * log2(1 + mean_snr), zeroed when the link is not covered.
    """

    path_loss_db: float
    mean_snr: float
    covered: bool
    bw_max: float
    b_max: float


@functools.cache
def _hata_terms(freq_mhz: float, h_bs_m: float, h_ue_m: float) -> tuple[float, float]:
    """(intercept, slope) of the Hata loss as a line in log10(d_km).

    Checks the frequency window and the antenna heights, which SpParams
    does when it is built.
    """
    if not FREQ_MIN_MHZ <= freq_mhz <= FREQ_MAX_MHZ:
        raise ValueError(
            f"frequency {freq_mhz} MHz outside supported range "
            f"[{FREQ_MIN_MHZ}, {FREQ_MAX_MHZ}]"
        )
    if h_bs_m <= 0 or h_ue_m <= 0:
        raise ValueError("antenna heights must be positive")

    lf = math.log10(freq_mhz)
    lhb = math.log10(h_bs_m)
    # small/medium city mobile antenna correction
    a_hm = (1.1 * lf - 0.7) * h_ue_m - (1.56 * lf - 0.8)
    slope = 44.9 - 6.55 * lhb
    if freq_mhz <= COST231_CROSSOVER_MHZ:
        base = 69.55 + 26.16 * lf
    else:
        base = 46.3 + 33.9 * lf  # COST-231, medium city (C = 0)
    return base - 13.82 * lhb - a_hm, slope


def hata_path_loss(freq_mhz: float, d_km: float, h_bs_m: float, h_ue_m: float) -> float:
    """Median urban path loss in dB at distance d_km kilometers."""
    if d_km <= 0:
        raise ValueError(f"distance must be positive, got {d_km} km")
    intercept, slope = _hata_terms(freq_mhz, h_bs_m, h_ue_m)
    return intercept + slope * math.log10(d_km)


def allocate_bw(sp: SpProfile, n_covered: int) -> float:
    """Per-user bandwidth budget: the discounted total g_ba * bw_total split
    evenly over n_covered covered links (link_state covers active users only).

    With no covered user there is no contention and the full discounted
    budget is reported; no bid will consume it in that case.
    """
    budget = sp.g_ba * sp.bw_total
    return budget if n_covered == 0 else budget / n_covered


def link_state(
    user: UserProfile,
    sp: SpProfile,
    noise_density_dbm_hz: float = -174.0,
    bw_max: float | None = None,
    reference: LinkState | None = None,
) -> LinkState:
    """Compute the LinkState of a user-SP pair.

    bw_max is the per-user bandwidth budget from allocate_bw; when omitted,
    the uncontended budget g_ba * bw_total is used, which is the conservative
    reference for coverage tests (noise integrated over a wider band can only
    understate the SNR achieved over the final, narrower budget).

    reference is the same pair's LinkState over such a wider budget.  When
    given, its path loss is reused and only the noise, SNR and rate cap are
    computed over bw_max; the pair is covered when the reference is and the
    SNR still clears the threshold.  A pair outside the reference's coverage
    stays outside, since no budget was reserved for it.
    """
    if bw_max is None:
        bw_max = sp.g_ba * sp.bw_total
    if bw_max <= 0:
        raise ValueError(f"bandwidth budget must be positive, got {bw_max}")

    if reference is None:
        ux, uy = user.position
        sx, sy = sp.position
        dist_m = math.hypot(ux - sx, uy - sy)
        if dist_m < MIN_DISTANCE_M:
            dist_m = MIN_DISTANCE_M
        intercept, slope = sp.hata_terms
        loss_db = intercept + slope * math.log10(dist_m / 1000.0)
        radius = sp.coverage_radius
        reachable = user.active and (radius is None or dist_m <= radius)
    else:
        loss_db = reference.path_loss_db
        reachable = reference.covered

    noise_dbm = noise_density_dbm_hz + 10.0 * math.log10(bw_max * 1e6)
    snr_db = sp.tx_power_dbm - loss_db - noise_dbm
    mean_snr = 10.0 ** (snr_db / 10.0)

    covered = reachable and snr_db >= sp.coverage_snr_threshold_db
    b_max = bw_max * math.log2(1.0 + mean_snr) if covered else 0.0
    return _new_record(LinkState, (loss_db, mean_snr, covered, bw_max, b_max))


def service_guarantee(b: float, bw: float, link: LinkState) -> float:
    """Probability that the realized rate over bandwidth bw meets the
    advertised rate b, under Rayleigh fading at the link's mean SNR."""
    if b < 0 or bw < 0:
        raise ValueError("rate and bandwidth must be nonnegative")
    if b == 0:
        return 1.0
    if bw == 0 or link.mean_snr <= 0:
        return 0.0
    exponent = b / bw
    if exponent >= 1024.0:
        # 2**exponent overflows a double; the guarantee has long underflowed
        return 0.0
    return math.exp(-(2.0**exponent - 1.0) / link.mean_snr)


def guarantee_inverse_bw(b: float, target: float, link: LinkState) -> float:
    """Smallest bandwidth at which the rate-b guarantee reaches target.

    Closed form: bw = b / log2(1 - mean_snr * ln(target)).  A target of 1 or
    more, a zero SNR, or a target so close to 1 that the logarithm rounds to
    zero needs unbounded bandwidth: math.inf.
    """
    if b <= 0:
        raise ValueError(f"rate must be positive, got {b}")
    if target <= 0:
        raise ValueError(f"target guarantee must be positive, got {target}")
    if target >= 1 or link.mean_snr <= 0:
        return math.inf
    denom = math.log2(1.0 - link.mean_snr * math.log(target))
    return b / denom if denom > 0.0 else math.inf
