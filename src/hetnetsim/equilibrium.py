"""Game resolution: equilibrium classification and the per-user pipeline.

Leaders commit to marginal bids, the follower best-responds, and classify
(the one classifier dispatch, shared by the sweep, `game` and `ne-classify`)
labels the outcome over the acceptance pair (p_c, p_w): Reject00 (also when
no bid is in force), WifiOnly01, CellOnly10, Both11, or the symmetric mixed
equilibrium Mixed0110.  NeClass.INFEASIBLE is never produced.

Leader payoffs are model.sp_utility, so a rejected bid strands its
provisioning cost; a leader that anticipates rejection withdraws and earns
exactly zero.  The one place a bid can be rejected while in force is the
realized branch of the mixed equilibrium, where both leaders bid with
probability one half and the follower flips a fair coin between the two
single-acceptance strategies.
"""

from __future__ import annotations

from .channel import LinkState
from .follower import best_response, select_wifi_sp
from .leader import expand_bw_pt, expansion_rebid, optimize_bid
from .model import (
    Bid,
    GameOutcome,
    NeClass,
    NoBid,
    SpKind,
    SpParams,
    SpProfile,
    Strategy,
    UserProfile,
    doubling_gap,
    sp_utility,
    user_benefit,
    user_utility,
)
from .prospect import DecisionModel

# relative tolerance when testing whether two bids are the same offer
SYMMETRY_RTOL = 1e-9

WITHDRAWN = NoBid("anticipated rejection")

_LABEL_BY_STRATEGY: dict[Strategy, NeClass] = {
    (0, 0): NeClass.REJECT00,
    (0, 1): NeClass.WIFI_ONLY01,
    (1, 0): NeClass.CELL_ONLY10,
    (1, 1): NeClass.BOTH11,
}


def _rejected(bids: tuple[Bid | NoBid, Bid | NoBid], wifi_index: int | None) -> GameOutcome:
    """Reject00 with every payoff zero."""
    return GameOutcome(NeClass.REJECT00, (0, 0), 0.0, 0.0, 0.0, bids, wifi_index)


def bids_symmetric(bid_a: Bid | NoBid, bid_b: Bid | NoBid, rtol: float = SYMMETRY_RTOL) -> bool:
    """Whether the two slots carry the same offer, field by field."""
    if not (isinstance(bid_a, Bid) and isinstance(bid_b, Bid)):
        return False
    for x, y in (
        (bid_a.rate, bid_b.rate),
        (bid_a.price, bid_b.price),
        (bid_a.bandwidth, bid_b.bandwidth),
        (bid_a.guarantee, bid_b.guarantee),
    ):
        if abs(x - y) > rtol * max(abs(x), abs(y), 1e-300):
            return False
    return True


def classify_eut_symmetric(
    bid: Bid,
    user: UserProfile,
    sp_w: SpParams,
    sp_c: SpParams,
    rng=None,
    wifi_index: int | None = None,
) -> GameOutcome:
    """Outcome when both leaders place the identical marginal bid and the
    follower weighs guarantees objectively.

    sp_w and sp_c price the WiFi and cellular slots; wifi_index is recorded
    on the outcome as given.

    Three regions in the price p = bid.price:
      * benefit of the rate floor below p       -> Reject00,
      * doubling gap at the floor at least p    -> Both11,
      * otherwise                               -> Mixed0110.

    In the mixed region each leader bids with probability one half and a
    lone offer is accepted; rng (anything with a .random() method) drives
    the realization.  Without an rng the deterministic branch is the
    follower's preferred tie order: the WiFi offer alone in force, accepted.
    """
    p = bid.price
    h_floor = user_benefit(user.b_min, user)
    if h_floor < p:
        return _rejected((WITHDRAWN, WITHDRAWN), wifi_index)
    if doubling_gap(user) >= p:
        u = user_utility((1, 1), bid, bid, user, bid.guarantee, bid.guarantee)
        return GameOutcome(
            ne_class=NeClass.BOTH11,
            strategy_draw=(1, 1),
            u_user=u,
            u_sp_w=sp_utility(True, bid, sp_w),
            u_sp_c=sp_utility(True, bid, sp_c),
            bids=(bid, bid),
            wifi_index=wifi_index,
        )

    if rng is None:
        c_in, w_in, coin = False, True, True
    else:
        c_in = rng.random() < 0.5
        w_in = rng.random() < 0.5
        coin = rng.random() < 0.5

    bid_c: Bid | NoBid = bid if c_in else NoBid("mixed draw: silent")
    bid_w: Bid | NoBid = bid if w_in else NoBid("mixed draw: silent")
    if c_in and w_in:
        strategy: Strategy = (0, 1) if coin else (1, 0)
    elif w_in:
        strategy = (0, 1)
    elif c_in:
        strategy = (1, 0)
    else:
        strategy = (0, 0)

    u = user_utility(strategy, bid_c, bid_w, user, bid.guarantee, bid.guarantee)
    return GameOutcome(
        ne_class=NeClass.MIXED0110,
        strategy_draw=strategy,
        u_user=u,
        u_sp_w=sp_utility(strategy[1] == 1, bid_w, sp_w),
        u_sp_c=sp_utility(strategy[0] == 1, bid_c, sp_c),
        bids=(bid_c, bid_w),
        wifi_index=wifi_index,
    )


def classify_eut_asymmetric(
    bid_w: Bid,
    bid_c: Bid,
    user: UserProfile,
    sp_w: SpParams,
    sp_c: SpParams,
    wifi_index: int | None = None,
) -> GameOutcome:
    """Outcome for two distinct marginal bids under objective weighting.

    With the cheaper offer's price p_lo and the dearer one's p_hi:
      * benefit of the rate floor below p_lo    -> Reject00,
      * doubling gap at the floor at least p_hi -> Both11,
      * otherwise accept only the cheaper offer.

    When the WiFi offer is not the cheaper one the roles are swapped
    internally and the single-acceptance label comes out as CellOnly10.
    """
    wifi_cheaper = bid_w.price <= bid_c.price
    cheap, dear = (bid_w, bid_c) if wifi_cheaper else (bid_c, bid_w)
    sp_cheap, sp_dear = (sp_w, sp_c) if wifi_cheaper else (sp_c, sp_w)

    h_floor = user_benefit(user.b_min, user)
    if h_floor < cheap.price:
        return _rejected((WITHDRAWN, WITHDRAWN), wifi_index)
    if doubling_gap(user) >= dear.price:
        u = user_utility((1, 1), bid_c, bid_w, user, bid_c.guarantee, bid_w.guarantee)
        return GameOutcome(
            ne_class=NeClass.BOTH11,
            strategy_draw=(1, 1),
            u_user=u,
            u_sp_w=sp_utility(True, bid_w, sp_w),
            u_sp_c=sp_utility(True, bid_c, sp_c),
            bids=(bid_c, bid_w),
            wifi_index=wifi_index,
        )

    u = user_benefit(cheap.rate * cheap.guarantee, user) - cheap.price
    payoff_cheap = sp_utility(True, cheap, sp_cheap)
    if wifi_cheaper:
        return GameOutcome(
            ne_class=NeClass.WIFI_ONLY01,
            strategy_draw=(0, 1),
            u_user=u,
            u_sp_w=payoff_cheap,
            u_sp_c=0.0,
            bids=(WITHDRAWN, bid_w),
            wifi_index=wifi_index,
        )
    return GameOutcome(
        ne_class=NeClass.CELL_ONLY10,
        strategy_draw=(1, 0),
        u_user=u,
        u_sp_w=0.0,
        u_sp_c=payoff_cheap,
        bids=(bid_c, WITHDRAWN),
        wifi_index=wifi_index,
    )


def classify_pt(
    bid_w: Bid | NoBid,
    bid_c: Bid | NoBid,
    user: UserProfile,
    model: DecisionModel,
    sp_w: SpParams | None,
    sp_c: SpParams | None,
    wifi_index: int | None = None,
) -> GameOutcome:
    """Outcome labeled from the follower's best response, for at least one
    bid in force (a silent slot's profile may be None).

    For unexpanded marginal bids with both guarantees above 1/e the single
    strategies are infeasible under weighted perception (the perceived lone
    rate falls short of the floor), so only Reject00 and Both11 can appear;
    expanded bids restore the single strategies, and the label follows
    whatever the best response turns out to be.
    """
    strategy, u = best_response(bid_c, bid_w, user, model)
    p_c, p_w = strategy
    out_c = bid_c if (p_c and isinstance(bid_c, Bid)) else WITHDRAWN
    out_w = bid_w if (p_w and isinstance(bid_w, Bid)) else WITHDRAWN
    return GameOutcome(
        ne_class=_LABEL_BY_STRATEGY[strategy],
        strategy_draw=strategy,
        u_user=u,
        u_sp_w=sp_utility(p_w == 1, out_w, sp_w),
        u_sp_c=sp_utility(p_c == 1, out_c, sp_c),
        bids=(out_c, out_w),
        wifi_index=wifi_index,
    )


def classify(
    bid_c: Bid | NoBid,
    bid_w: Bid | NoBid,
    user: UserProfile,
    model: DecisionModel,
    sp_c: SpParams | None,
    sp_w: SpParams | None,
    rng=None,
    wifi_index: int | None = None,
) -> GameOutcome:
    """Label one game from the bids in force and price it with each slot's
    provider profile (None only where the slot has no provider).

    No bid in force is Reject00.  An objective user gets the symmetric
    classifier for identical offers and the asymmetric one for two distinct
    offers; weighted perception, or a lone offer under objective
    perception, is labeled straight from the best response.  rng drives the
    mixed realization of the symmetric case.
    """
    if not (isinstance(bid_c, Bid) or isinstance(bid_w, Bid)):
        return _rejected((bid_c, bid_w), wifi_index)
    if not model.is_pt and bids_symmetric(bid_c, bid_w):
        return classify_eut_symmetric(bid_w, user, sp_w, sp_c, rng=rng, wifi_index=wifi_index)
    if not model.is_pt and isinstance(bid_c, Bid) and isinstance(bid_w, Bid):
        return classify_eut_asymmetric(bid_w, bid_c, user, sp_w, sp_c, wifi_index=wifi_index)
    return classify_pt(bid_w, bid_c, user, model, sp_w, sp_c, wifi_index=wifi_index)


def make_eut_bids(
    user: UserProfile,
    sps: list[SpProfile],
    links: list[LinkState],
) -> list[Bid | NoBid]:
    """Each leader's marginal bid toward this user (NoBid where the link or
    the economics rule one out)."""
    return [optimize_bid(sp, link, user.b_min) for sp, link in zip(sps, links, strict=True)]


def _expand_in_force(
    bid: Bid,
    sp: SpParams,
    link: LinkState,
    user: UserProfile,
    model: DecisionModel,
) -> Bid:
    """Expansion policy for one in-force bid under weighted perception.

    First try expanding the bid as committed.  When that fails (marginal
    bids at the budget corner leave no headroom to grow into), concede rate
    instead: re-bid at the highest rate whose expansion fits the budget.
    If no such rate exists either, the original bid stands unexpanded.
    """
    expanded = expand_bw_pt(bid, model, link)
    if isinstance(expanded, Bid):
        return expanded
    rebid = expansion_rebid(sp, link, user.b_min, model)
    if isinstance(rebid, Bid):
        return rebid
    return bid


def resolve_user_game(
    user: UserProfile,
    sps: list[SpProfile],
    links: list[LinkState],
    eut_bids: list[Bid | NoBid],
    model: DecisionModel,
    expansion_enabled: bool = False,
    rng=None,
) -> GameOutcome:
    """Resolve one user's game from make_eut_bids' marginal bids, which a
    sweep reuses across the scenarios that share them: WiFi pre-selection,
    optional expansion, withdrawal of bids that would be rejected, the
    follower's best response, and classification."""
    cell_idx = None
    wifi_offers = []
    for i, sp in enumerate(sps):
        if sp.kind is SpKind.WIFI:
            wifi_offers.append((i, eut_bids[i]))
        elif cell_idx is None:
            cell_idx = i
    wifi_idx = select_wifi_sp(wifi_offers, user, model)

    bid_c: Bid | NoBid = eut_bids[cell_idx] if cell_idx is not None else NoBid("no cellular SP")
    bid_w: Bid | NoBid = eut_bids[wifi_idx] if wifi_idx is not None else NoBid("no WiFi offer")
    sp_c = sps[cell_idx] if cell_idx is not None else None
    sp_w = sps[wifi_idx] if wifi_idx is not None else None

    if expansion_enabled and model.is_pt:
        if isinstance(bid_c, Bid):
            bid_c = _expand_in_force(bid_c, sp_c, links[cell_idx], user, model)
        if isinstance(bid_w, Bid):
            bid_w = _expand_in_force(bid_w, sp_w, links[wifi_idx], user, model)

    return classify(bid_c, bid_w, user, model, sp_c, sp_w, rng=rng, wifi_index=wifi_idx)
