"""Two-tier access network association: a desk-scale simulator and game
solver for provider/user bidding under objective and weighted perception."""

from .channel import (
    LinkState,
    allocate_bw,
    guarantee_inverse_bw,
    link_state,
    service_guarantee,
)
from .equilibrium import (
    classify,
    make_eut_bids,
    resolve_user_game,
)
from .follower import best_response, feasible_set, perceived_guarantee, select_wifi_sp
from .harness import (
    DEFAULT_CONFIG,
    Scenario,
    ScenarioConfig,
    SweepRow,
    emit,
    generate_topology,
    load_rows,
    run_point,
    run_sweep,
    run_trial,
    solve_trial,
)
from .leader import (
    expand_bw_pt,
    expansion_rebid,
    marginal_bw,
    optimize_bid,
)
from .model import (
    Bid,
    GameOutcome,
    NeClass,
    NoBid,
    SpProfile,
    Strategy,
    UserProfile,
    sp_price,
    sp_utility,
    user_benefit,
    user_utility,
)
from .prospect import DecisionModel, weight, weight_inverse

__version__ = "0.1.0"

__all__ = [
    "Bid",
    "DecisionModel",
    "DEFAULT_CONFIG",
    "GameOutcome",
    "LinkState",
    "NeClass",
    "NoBid",
    "Scenario",
    "ScenarioConfig",
    "SpProfile",
    "Strategy",
    "SweepRow",
    "UserProfile",
    "allocate_bw",
    "best_response",
    "classify",
    "emit",
    "expand_bw_pt",
    "expansion_rebid",
    "feasible_set",
    "generate_topology",
    "guarantee_inverse_bw",
    "link_state",
    "load_rows",
    "make_eut_bids",
    "marginal_bw",
    "optimize_bid",
    "perceived_guarantee",
    "resolve_user_game",
    "run_point",
    "run_sweep",
    "run_trial",
    "select_wifi_sp",
    "service_guarantee",
    "solve_trial",
    "sp_price",
    "sp_utility",
    "user_benefit",
    "user_utility",
    "weight",
    "weight_inverse",
]
