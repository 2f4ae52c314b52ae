"""Core domain types and closed-form utility, pricing, and cost functions.

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
import functools
import math
from dataclasses import dataclass
from typing import NamedTuple

# Builds the hot-path records, LinkState and GameOutcome, from every field in
# order: half the cost of calling the NamedTuple, which also checks the count.
_new_record = tuple.__new__


def _check_finite(values: dict) -> None:
    """Reject a NaN or an infinity in a dataclass's field values (its vars) or their tuple
    items, naming the field."""
    for name, value in values.items():
        for item in value if isinstance(value, tuple) else (value,):
            if isinstance(item, float) and not math.isfinite(item):
                raise ValueError(f"{name} must be finite, got {item}")


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
            _check_finite(vars(self))
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
        _check_finite(vars(self))
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
        from .channel import USER_HEIGHT_M, _hata_terms  # channel imports this module

        _hata_terms(self.frequency_mhz, self.antenna_height_m, USER_HEIGHT_M)


@dataclass(frozen=True, kw_only=True)
class SpProfile(SpParams):
    """One placed service provider."""

    position: tuple[float, float] = (0.0, 0.0)

    @functools.cached_property
    def hata_terms(self) -> tuple[float, float]:
        """channel._hata_terms toward a user terminal, cached by the first read."""
        from .channel import USER_HEIGHT_M, _hata_terms  # channel imports this module

        return _hata_terms(self.frequency_mhz, self.antenna_height_m, USER_HEIGHT_M)


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
            _check_finite(vars(self))
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


def user_utility(
    strategy: Strategy,
    bid_c: Bid | NoBid,
    bid_w: Bid | NoBid,
    user: UserProfile,
    perceived_gc: float,
    perceived_gw: float,
) -> float:
    """Benefit of the expected aggregate rate minus the prices paid.

    The expected rate counts each accepted bid at rate * perceived_guarantee,
    where the perceived guarantees have already been transformed by the
    caller's decision model.  Accepting a silent SP is a programming error.
    """
    p_c, p_w = strategy
    if p_c and not isinstance(bid_c, Bid):
        raise ValueError("strategy accepts the cellular slot but no cellular bid is in force")
    if p_w and not isinstance(bid_w, Bid):
        raise ValueError("strategy accepts the WiFi slot but no WiFi bid is in force")
    b_joint = 0.0
    paid = 0.0
    if p_c:
        b_joint += bid_c.rate * perceived_gc
        paid += bid_c.price
    if p_w:
        b_joint += bid_w.rate * perceived_gw
        paid += bid_w.price
    return user_benefit(b_joint, user) - paid


def sp_price(b: float, sp: SpParams) -> float:
    """Convex price alpha * b**beta charged for an advertised rate b >= 0."""
    if b < 0:
        raise ValueError(f"rate must be nonnegative, got {b}")
    if b == 0:
        return 0.0
    return sp.alpha * b**sp.beta


def sp_cost(b: float, bw: float, sp: SpParams) -> float:
    """Linear provisioning cost cost_rate * b + cost_bw * bw."""
    if b < 0 or bw < 0:
        raise ValueError("rate and bandwidth must be nonnegative")
    return _cost(b, bw, sp)


def _cost(b: float, bw: float, sp: SpParams) -> float:
    """sp_cost without the sign check, for a Bid's already checked fields."""
    return sp.cost_rate * b + sp.cost_bw * bw


def sp_utility(accepted: bool, bid: Bid | NoBid, sp: SpParams | None) -> float:
    """Provider payoff: price if accepted, minus provisioning cost.

    The cost is sunk once the bid is placed, so a rejected bid yields a
    strictly negative payoff.  A silent SP earns exactly zero; sp is None
    only with a NoBid, for a game with no WiFi offer.
    """
    if isinstance(bid, NoBid):
        return 0.0
    revenue = bid.price if accepted else 0.0
    return revenue - _cost(bid.rate, bid.bandwidth, sp)


def doubling_gap(user: UserProfile) -> float:
    """Benefit increment from doubling the rate floor:
    H(2*b_min) - H(b_min) = delta * (2**(1/theta) - 1) * b_min**(1/theta).

    This is the quantity a second acceptance must be worth at least as much
    as its price for the user to multihome.
    """
    return user.delta * (2.0 ** (1.0 / user.theta) - 1.0) * user.b_min ** (1.0 / user.theta)
