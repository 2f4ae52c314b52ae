"""Game resolution: equilibrium classification and the per-user pipeline.

Leaders commit to marginal bids, the follower best-responds, and classify,
the one function that labels a game (shared by the sweep, `game` and
`ne-classify`), labels the outcome over the acceptance pair (p_c, p_w):
Reject00 (also when no bid is in force), WifiOnly01, CellOnly10, Both11,
or the symmetric mixed equilibrium Mixed0110.

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
    SpParams,
    SpProfile,
    Strategy,
    UserProfile,
    _new_record,
    doubling_gap,
    sp_utility,
    user_benefit,
    user_utility,
)
from .prospect import DecisionModel

# relative tolerance when testing whether two bids are the same offer
SYMMETRY_RTOL = 1e-9

WITHDRAWN = NoBid("anticipated rejection")
_SILENT = NoBid("mixed draw: silent")
_NO_WIFI_OFFER = NoBid("no WiFi offer")

_LABEL_BY_STRATEGY: dict[Strategy, NeClass] = {
    (0, 0): NeClass.REJECT00,
    (0, 1): NeClass.WIFI_ONLY01,
    (1, 0): NeClass.CELL_ONLY10,
    (1, 1): NeClass.BOTH11,
}


def bids_symmetric(bid_a: Bid | NoBid, bid_b: Bid | NoBid) -> bool:
    """Whether the two slots carry the same offer, field by field."""
    if not (isinstance(bid_a, Bid) and isinstance(bid_b, Bid)):
        return False
    for x, y in (
        (bid_a.rate, bid_b.rate),
        (bid_a.price, bid_b.price),
        (bid_a.bandwidth, bid_b.bandwidth),
        (bid_a.guarantee, bid_b.guarantee),
    ):
        if abs(x - y) > SYMMETRY_RTOL * max(abs(x), abs(y), 1e-300):
            return False
    return True


def _outcome(
    strategy: Strategy,
    u: float,
    bid_c: Bid | NoBid,
    bid_w: Bid | NoBid,
    sp_c: SpParams,
    sp_w: SpParams | None,
    wifi_index: int | None,
    label: NeClass | None = None,
) -> GameOutcome:
    """The outcome with the given slots in force, each provider priced by
    whether its slot is accepted, labeled by the strategy unless a label is
    given; sp_w is None only where no AP holds the WiFi slot."""
    label = label or _LABEL_BY_STRATEGY[strategy]
    u_sp_w = sp_utility(strategy[1] == 1, bid_w, sp_w)
    u_sp_c = sp_utility(strategy[0] == 1, bid_c, sp_c)
    bids = (bid_c, bid_w)
    return _new_record(GameOutcome, (label, strategy, u, u_sp_w, u_sp_c, bids, wifi_index))


def classify(
    bid_c: Bid | NoBid,
    bid_w: Bid | NoBid,
    user: UserProfile,
    model: DecisionModel,
    sp_c: SpParams,
    sp_w: SpParams | None,
    rng=None,
    wifi_index: int | None = None,
) -> GameOutcome:
    """Label one game from the bids in force and price it with each slot's
    provider profile: sp_c the BS's, and sp_w the WiFi slot's AP's, None
    only where no AP holds the slot.

    No bid in force is Reject00, with the slots as given.  Weighted
    perception, or a lone offer, is labeled from the follower's best
    response.  Two offers under objective perception fall in one of three
    regions of the cheaper price p_lo and the dearer one p_hi:
      * benefit of the rate floor below p_lo    -> Reject00,
      * doubling gap at the floor at least p_hi -> Both11,
      * otherwise the cheaper offer alone (WiFi on a price tie), or
        Mixed0110 when the offers are the same (bids_symmetric; both slots
        then carry the WiFi bid).
    Outside the mixed equilibrium a slot that is not accepted is WITHDRAWN.

    In the mixed region each leader bids with probability one half and a
    lone offer is accepted; with both in force the follower flips a fair
    coin, so the rejected bid strands its cost.  rng (anything with a
    .random() method) drives the realization.  Without an rng the
    deterministic branch is the follower's preferred tie order: the WiFi
    offer alone in force, accepted.
    """
    if not (isinstance(bid_c, Bid) or isinstance(bid_w, Bid)):
        return _outcome((0, 0), 0.0, bid_c, bid_w, sp_c, sp_w, wifi_index)
    if model.is_pt or not (isinstance(bid_c, Bid) and isinstance(bid_w, Bid)):
        strategy, u = best_response(bid_c, bid_w, user, model)
    else:
        symmetric = bids_symmetric(bid_c, bid_w)
        if symmetric:
            bid_c = bid_w
        wifi_cheaper = bid_w.price <= bid_c.price
        p_lo, p_hi = sorted((bid_w.price, bid_c.price))
        if user_benefit(user.b_min, user) < p_lo:
            strategy = (0, 0)
        elif doubling_gap(user) >= p_hi:
            strategy = (1, 1)
        elif not symmetric:
            strategy = (0, 1) if wifi_cheaper else (1, 0)
        else:
            if rng is None:
                c_in, w_in, coin = False, True, True
            else:
                c_in = rng.random() < 0.5
                w_in = rng.random() < 0.5
                coin = rng.random() < 0.5
            p_w = int(w_in and (coin or not c_in))
            strategy = (int(c_in and not p_w), p_w)
            u = user_utility(strategy, bid_c, bid_w, user, bid_w.guarantee, bid_w.guarantee)
            out_c, out_w = bid_c if c_in else _SILENT, bid_w if w_in else _SILENT
            return _outcome(strategy, u, out_c, out_w, sp_c, sp_w, wifi_index, NeClass.MIXED0110)
        u = user_utility(strategy, bid_c, bid_w, user, bid_c.guarantee, bid_w.guarantee)
    out_c = bid_c if strategy[0] else WITHDRAWN
    out_w = bid_w if strategy[1] else WITHDRAWN
    return _outcome(strategy, u, out_c, out_w, sp_c, sp_w, wifi_index)


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
    follower's best response, and classification.  The slots are build_sps'
    positions: sps[0] is the cellular BS and sps[1:] are the WiFi APs, whose
    slots of eut_bids select_wifi_sp scans."""
    wifi_idx = select_wifi_sp(eut_bids, user, model)

    bid_c = eut_bids[0]
    bid_w: Bid | NoBid = eut_bids[wifi_idx] if wifi_idx is not None else _NO_WIFI_OFFER
    sp_w = sps[wifi_idx] if wifi_idx is not None else None

    if expansion_enabled and model.is_pt:
        if isinstance(bid_c, Bid):
            bid_c = _expand_in_force(bid_c, sps[0], links[0], user, model)
        if isinstance(bid_w, Bid):
            bid_w = _expand_in_force(bid_w, sp_w, links[wifi_idx], user, model)

    return classify(bid_c, bid_w, user, model, sps[0], sp_w, rng=rng, wifi_index=wifi_idx)
