"""The user's best-response problem.

Given at most one cellular and one WiFi bid, the user picks the acceptance
pair (p_c, p_w) in {0,1}^2 maximizing perceived utility subject to two
constraints: the perceived aggregate rate must reach b_min, and the benefit
must cover the total price.  Rejecting everything is always allowed and
worth exactly zero; it is the outside option, exempt from the rate floor.

Perception is model-dependent: each advertised guarantee is passed through
the decision model's weighting before entering rate and utility arithmetic.
"""

from __future__ import annotations

from .model import Bid, NoBid, Strategy, UserProfile, user_benefit
from .prospect import DecisionModel, weight

# Relative slack on the minimum-rate floor.  Profit-optimal bids sit exactly
# on the floor (rate * guarantee == b_min in exact arithmetic), and the float
# product can land one ulp below it; the slack keeps those bids feasible
# without admitting anything meaningfully short of the floor.
FLOOR_REL_TOL = 1e-9


def perceived_guarantee(bid: Bid | NoBid, model: DecisionModel) -> float:
    """The advertised guarantee as the user perceives it (0 for a silent SP)."""
    if not isinstance(bid, Bid):
        return 0.0
    return weight(bid.guarantee, model)


def _feasible_utilities(
    bid_c: Bid | NoBid,
    bid_w: Bid | NoBid,
    user: UserProfile,
    g_c: float,
    g_w: float,
) -> list[tuple[Strategy, float]]:
    """Each feasible strategy other than (0, 0), in the order (0,1), (1,0),
    (1,1), with its perceived utility, given the perceived guarantees.

    The utility is user_utility's arithmetic: the benefit of the expected
    joint rate, already computed for the price test, minus the prices.
    """
    has_c = isinstance(bid_c, Bid)
    has_w = isinstance(bid_w, Bid)
    floor = user.b_min * (1.0 - FLOOR_REL_TOL)
    feasible = []
    for strategy in ((0, 1), (1, 0), (1, 1)):
        p_c, p_w = strategy
        if (p_c and not has_c) or (p_w and not has_w):
            continue
        b_joint = 0.0
        paid = 0.0
        if p_c:
            b_joint += bid_c.rate * g_c
            paid += bid_c.price
        if p_w:
            b_joint += bid_w.rate * g_w
            paid += bid_w.price
        if b_joint < floor:
            continue
        benefit = user_benefit(b_joint, user)
        if benefit < paid:
            continue
        feasible.append((strategy, benefit - paid))
    return feasible


def feasible_set(
    bid_c: Bid | NoBid,
    bid_w: Bid | NoBid,
    user: UserProfile,
    model: DecisionModel,
) -> set[Strategy]:
    """Strategies satisfying both constraints under perceived guarantees.

    A strategy is excluded outright if it accepts a slot with no bid in
    force.  (0, 0) is always feasible.
    """
    g_c = perceived_guarantee(bid_c, model)
    g_w = perceived_guarantee(bid_w, model)
    feasible: set[Strategy] = {(0, 0)}
    feasible.update(s for s, _ in _feasible_utilities(bid_c, bid_w, user, g_c, g_w))
    return feasible


def best_response(
    bid_c: Bid | NoBid,
    bid_w: Bid | NoBid,
    user: UserProfile,
    model: DecisionModel,
) -> tuple[Strategy, float]:
    """The feasible strategy with the highest perceived utility.

    Ties break toward fewer acceptances, then toward the WiFi-only branch;
    iterating (0,0), (0,1), (1,0), (1,1) and keeping strict improvements
    implements exactly that order.
    """
    g_c = perceived_guarantee(bid_c, model)
    g_w = perceived_guarantee(bid_w, model)
    best: Strategy = (0, 0)
    best_u = 0.0
    for strategy, u in _feasible_utilities(bid_c, bid_w, user, g_c, g_w):
        if u > best_u:
            best, best_u = strategy, u
    return best, best_u


def select_wifi_sp(
    offers: list[tuple[int, Bid | NoBid]],
    user: UserProfile,
    model: DecisionModel,
) -> int | None:
    """The WiFi SP whose lone acceptance gives the highest perceived utility.

    Entries without a real bid are skipped; ties go to the lowest SP index, so
    the result does not depend on the order of offers.  Returns None when
    no real offer exists.
    """
    best: int | None = None
    best_u = -float("inf")
    for index, bid in offers:
        if not isinstance(bid, Bid):
            continue
        u = user_benefit(bid.rate * weight(bid.guarantee, model), user) - bid.price
        if u > best_u or (u == best_u and index < best):
            best, best_u = index, u
    return best
