"""Core domain types, the Hata path-loss terms a provider profile is checked
against, and the closed-form utility and pricing functions.

A two-tier access network is modeled as a leader/follower game: service
providers (one cellular macro BS plus several WiFi APs) lead by offering a
bid triple (advertised rate, price, allocated bandwidth) together with a
service guarantee, and each end user follows by accepting or rejecting the
cellular and WiFi offers independently.

Conventions: rates in Mbps, bandwidth in MHz, transmit power in dBm,
positions in meters.  Currency units are abstract but consistent.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass, fields
from typing import NamedTuple

# Builds the hot-path records, LinkState and GameOutcome, from every field in
# order: half the cost of calling the NamedTuple, which also checks the count.
_new_record = tuple.__new__


def _check_finite(record) -> None:
    """Reject a NaN or an infinity in a dataclass's declared field values or their
    tuple items, naming the field."""
    for f in fields(record):
        value = getattr(record, f.name)
        for item in value if isinstance(value, tuple) else (value,):
            if isinstance(item, float) and not math.isfinite(item):
                raise ValueError(f"{f.name} must be finite, got {item}")


class NeClass(enum.Enum):
    """Equilibrium labels for the user's binary strategy pair (p_c, p_w)."""

    REJECT00 = "Reject00"
    WIFI_ONLY01 = "WifiOnly01"
    CELL_ONLY10 = "CellOnly10"
    BOTH11 = "Both11"
    MIXED0110 = "Mixed0110"


@dataclass(frozen=True)
class UserParams:
    """Payoff and demand parameters shared by a class of end users.

    delta scales the benefit of data rate, theta > 1 controls its concavity,
    b_min is the minimum acceptable aggregate rate in Mbps.
    """

    # delta is large enough that the doubling gap delta*(2^(1/theta)-1)*b_min^(1/theta)
    # dominates the dearest feasible price, so lightly loaded users accept both
    # offers under every decision model (keeps the low-load scenarios comparable).
    delta: float = 350.0
    theta: float = 2.0
    b_min: float = 2.0

    def __post_init__(self) -> None:
        # built for every placed user: one sum is finite only if all three are
        if not math.isfinite(self.delta + self.theta + self.b_min):
            _check_finite(self)
        if self.delta <= 0:
            raise ValueError(f"delta must be positive, got {self.delta}")
        if self.theta <= 1:
            raise ValueError(f"theta must exceed 1, got {self.theta}")
        if self.b_min <= 0:
            raise ValueError(f"b_min must be positive, got {self.b_min}")


@dataclass(frozen=True, kw_only=True)
class UserProfile(UserParams):
    """One placed end user."""

    position: tuple[float, float] = (0.0, 0.0)
    active: bool = True


# Hata validity window.  The upper edge stretches to cover the 2.4 GHz ISM
# band via COST-231, a documented approximation.
FREQ_MIN_MHZ = 150.0
FREQ_MAX_MHZ = 2500.0
COST231_CROSSOVER_MHZ = 1500.0

# Antenna height of every user terminal, in meters.
USER_HEIGHT_M = 1.5


def _hata_terms(freq_mhz: float, h_bs_m: float) -> tuple[float, float]:
    """(intercept, slope) of the Hata loss toward a user terminal as a line in
    log10(d_km): the urban model (small/medium city mobile correction) up to
    1500 MHz and its COST-231 extension above that.

    Checks the frequency window and the antenna height, which SpParams does
    when it is built.
    """
    if not FREQ_MIN_MHZ <= freq_mhz <= FREQ_MAX_MHZ:
        raise ValueError(
            f"frequency {freq_mhz} MHz outside supported range "
            f"[{FREQ_MIN_MHZ}, {FREQ_MAX_MHZ}]"
        )
    if h_bs_m <= 0:
        raise ValueError("antenna heights must be positive")

    lf = math.log10(freq_mhz)
    lhb = math.log10(h_bs_m)
    # small/medium city mobile antenna correction
    a_hm = (1.1 * lf - 0.7) * USER_HEIGHT_M - (1.56 * lf - 0.8)
    slope = 44.9 - 6.55 * lhb
    if freq_mhz <= COST231_CROSSOVER_MHZ:
        base = 69.55 + 26.16 * lf
    else:
        base = 46.3 + 33.9 * lf  # COST-231, medium city (C = 0)
    return base - 13.82 * lhb - a_hm, slope


@dataclass(frozen=True)
class SpParams:
    """Pricing, cost, radio, and coverage parameters of a provider class.

    Pricing is convex in the advertised rate: price = alpha * b**beta with
    beta > 1.  Costs are linear: cost_rate per Mbps offered plus cost_bw per
    MHz allocated.  coverage_radius is an optional hard cap in meters on top
    of the SNR threshold test (used for small-cell APs).
    """

    alpha: float
    beta: float
    cost_rate: float
    cost_bw: float
    bw_total: float
    tx_power_dbm: float
    g_ba: float = 0.9
    frequency_mhz: float = 900.0
    antenna_height_m: float = 30.0
    coverage_snr_threshold_db: float = 0.0
    coverage_radius: float | None = None

    def __post_init__(self) -> None:
        _check_finite(self)
        if self.beta <= 1:
            raise ValueError(f"pricing exponent beta must exceed 1, got {self.beta}")
        for name in ("alpha", "cost_rate", "cost_bw", "bw_total"):
            if getattr(self, name) <= 0:
                raise ValueError(f"{name} must be positive")
        if not 0 < self.g_ba <= 1:
            raise ValueError(f"g_ba must lie in (0, 1], got {self.g_ba}")
        if (radius := self.coverage_radius) is not None and radius <= 0:
            raise ValueError(f"coverage_radius must be positive or null, got {radius}")
        # the Hata frequency window and antenna height, so that a bad profile
        # fails here and not at its first link
        _hata_terms(self.frequency_mhz, self.antenna_height_m)


@dataclass(frozen=True, kw_only=True)
class SpProfile(SpParams):
    """One placed service provider.  hata_terms, _hata_terms toward a user
    terminal, is set once here and is no field: equality, hashing, repr and
    asdict leave it out."""

    position: tuple[float, float] = (0.0, 0.0)

    def __post_init__(self) -> None:
        super().__post_init__()
        terms = _hata_terms(self.frequency_mhz, self.antenna_height_m)
        object.__setattr__(self, "hata_terms", terms)


@dataclass(frozen=True)
class Bid:
    """An SP offer: advertised rate (Mbps), price, allocated bandwidth (MHz),
    and the advertised probability that the realized rate meets the offer."""

    rate: float
    price: float
    bandwidth: float
    guarantee: float

    def __post_init__(self) -> None:
        # built on the hot path: one sum is finite only if all three are
        if not math.isfinite(self.rate + self.price + self.bandwidth):
            _check_finite(self)
        if self.rate < 0 or self.price < 0 or self.bandwidth < 0:
            raise ValueError("bid fields must be nonnegative")
        if not 0.0 <= self.guarantee <= 1.0:
            raise ValueError(f"guarantee must lie in [0, 1], got {self.guarantee}")

    def to_dict(self) -> dict:
        return {
            "rate": self.rate,
            "price": self.price,
            "bandwidth": self.bandwidth,
            "guarantee": self.guarantee,
        }


@dataclass(frozen=True)
class NoBid:
    """A silent SP.  Distinct from a zero-rate bid: it carries no price, no
    cost, and cannot be accepted."""

    reason: str = ""

    def __bool__(self) -> bool:
        return False

    def to_dict(self) -> dict:
        return {"no_bid": True, "reason": self.reason}


# A strategy is the acceptance pair (p_c, p_w): cellular first, WiFi second.
Strategy = tuple[int, int]


class GameOutcome(NamedTuple):
    """Resolved per-user game: equilibrium label, the realized strategy (for a
    mixed equilibrium, the sampled branch), the three players' utilities, the
    pair of bids in force (cellular, WiFi), and the index of the WiFi SP
    pre-selected for the game.  Built once per game, so a named tuple: as
    immutable as a frozen dataclass, and cheaper to build."""

    ne_class: NeClass
    strategy_draw: Strategy
    u_user: float
    u_sp_w: float
    u_sp_c: float
    bids: tuple[Bid | NoBid, Bid | NoBid]
    wifi_index: int | None = None

    def to_dict(self) -> dict:
        bid_c, bid_w = self.bids
        return {
            "ne_class": self.ne_class.value,
            "strategy_draw": list(self.strategy_draw),
            "u_user": self.u_user,
            "u_sp_w": self.u_sp_w,
            "u_sp_c": self.u_sp_c,
            "bid_c": bid_c.to_dict(),
            "bid_w": bid_w.to_dict(),
            "wifi_index": self.wifi_index,
        }


def user_benefit(b_joint: float, user: UserProfile) -> float:
    """Concave benefit delta * B**(1/theta) of an aggregate rate B >= 0."""
    if b_joint < 0:
        raise ValueError(f"aggregate rate must be nonnegative, got {b_joint}")
    if b_joint == 0:
        return 0.0
    return user.delta * b_joint ** (1.0 / user.theta)


def joint_rate_and_price(
    strategy: Strategy, bid_c: Bid | NoBid, bid_w: Bid | NoBid, g_c: float, g_w: float
) -> tuple[float, float]:
    """A strategy's expected joint rate and total price, summed cellular then
    WiFi: each accepted bid counts at rate * perceived guarantee (g_c, g_w),
    and at its price.  Accepting a silent SP is a programming error."""
    p_c, p_w = strategy
    b_joint = paid = 0.0
    if p_c:
        if not isinstance(bid_c, Bid):
            raise ValueError("strategy accepts the cellular slot but no cellular bid is in force")
        b_joint += bid_c.rate * g_c
        paid += bid_c.price
    if p_w:
        if not isinstance(bid_w, Bid):
            raise ValueError("strategy accepts the WiFi slot but no WiFi bid is in force")
        b_joint += bid_w.rate * g_w
        paid += bid_w.price
    return b_joint, paid


def user_utility(
    strategy: Strategy,
    bid_c: Bid | NoBid,
    bid_w: Bid | NoBid,
    user: UserProfile,
    perceived_gc: float,
    perceived_gw: float,
) -> float:
    """Benefit of the expected aggregate rate minus the prices paid
    (joint_rate_and_price), where the perceived guarantees have already been
    transformed by the caller's decision model."""
    b_joint, paid = joint_rate_and_price(strategy, bid_c, bid_w, perceived_gc, perceived_gw)
    return user_benefit(b_joint, user) - paid


def sp_price(b: float, sp: SpParams) -> float:
    """Convex price alpha * b**beta charged for an advertised rate b >= 0."""
    if b < 0:
        raise ValueError(f"rate must be nonnegative, got {b}")
    if b == 0:
        return 0.0
    return sp.alpha * b**sp.beta


def sp_utility(accepted: bool, bid: Bid | NoBid, sp: SpParams | None) -> float:
    """Provider payoff: price if accepted, minus the linear provisioning cost
    cost_rate * rate + cost_bw * bandwidth.

    The cost is sunk once the bid is placed, so a rejected bid yields a
    strictly negative payoff.  A silent SP earns exactly zero; sp is None
    only with a NoBid, for a game with no WiFi offer.
    """
    if isinstance(bid, NoBid):
        return 0.0
    revenue = bid.price if accepted else 0.0
    return revenue - (sp.cost_rate * bid.rate + sp.cost_bw * bid.bandwidth)


def doubling_gap(user: UserProfile) -> float:
    """Benefit increment from doubling the rate floor:
    H(2*b_min) - H(b_min) = delta * (2**(1/theta) - 1) * b_min**(1/theta).

    This is the quantity a second acceptance must be worth at least as much
    as its price for the user to multihome.
    """
    return user.delta * (2.0 ** (1.0 / user.theta) - 1.0) * user.b_min ** (1.0 / user.theta)
