"""Propagation, coverage, per-user bandwidth budgets, and the service
guarantee model.

Path loss is the Hata urban model (COST-231 above 1500 MHz) as a line in
log10(distance), whose terms each SpProfile carries (model._hata_terms).

The advertised-rate guarantee assumes Rayleigh fading: the instantaneous
rate is bw * log2(1 + snr * X) with channel power X ~ Exponential(mean 1),
so the probability of meeting an advertised rate b is

    F(b, bw) = exp(-(2**(b/bw) - 1) / mean_snr)

which is increasing in bandwidth, decreasing in rate, and analytically
invertible in bandwidth.
"""

from __future__ import annotations

import math
from typing import NamedTuple

from .model import SpProfile, UserProfile, _new_record

# Distances below one meter are clamped before the propagation formula,
# which is not meant for the near field.
MIN_DISTANCE_M = 1.0


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
