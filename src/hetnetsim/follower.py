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

from .model import Bid, NoBid, Strategy, UserProfile, joint_rate_and_price, user_benefit
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
    model: DecisionModel,
) -> list[tuple[Strategy, float]]:
    """Each feasible strategy other than (0, 0), in the order (0,1), (1,0),
    (1,1), with its perceived utility.

    The utility is user_utility's arithmetic: the benefit of the expected
    joint rate, already computed for the price test, minus the prices.
    """
    g_c = perceived_guarantee(bid_c, model)
    g_w = perceived_guarantee(bid_w, model)
    has_c = isinstance(bid_c, Bid)
    has_w = isinstance(bid_w, Bid)
    floor = user.b_min * (1.0 - FLOOR_REL_TOL)
    feasible = []
    for strategy in ((0, 1), (1, 0), (1, 1)):
        if strategy[0] > has_c or strategy[1] > has_w:  # accepts a silent slot
            continue
        b_joint, paid = joint_rate_and_price(strategy, bid_c, bid_w, g_c, g_w)
        if b_joint < floor:
            continue
        benefit = user_benefit(b_joint, user)
        if benefit >= paid:
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
    return {(0, 0)}.union(s for s, _ in _feasible_utilities(bid_c, bid_w, user, model))


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
    best: Strategy = (0, 0)
    best_u = 0.0
    for strategy, u in _feasible_utilities(bid_c, bid_w, user, model):
        if u > best_u:
            best, best_u = strategy, u
    return best, best_u


def select_wifi_sp(
    bids: list[Bid | NoBid],
    user: UserProfile,
    model: DecisionModel,
) -> int | None:
    """The WiFi slot of make_eut_bids' list (slots 1 and up; slot 0 is the
    cellular BS) whose lone acceptance gives the highest perceived utility.

    Silent slots are skipped; scanning the slots in order and keeping strict
    improvements sends a tie to the lowest slot.  Returns None when no WiFi
    slot holds a real offer.
    """
    best: int | None = None
    best_u = -float("inf")
    for index in range(1, len(bids)):
        bid = bids[index]
        if not isinstance(bid, Bid):
            continue
        u = user_benefit(bid.rate * weight(bid.guarantee, model), user) - bid.price
        if u > best_u:
            best, best_u = index, u
    return best
