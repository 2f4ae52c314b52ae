"""Two-tier access network association: a desk-scale simulator and game
solver for provider/user bidding under objective and weighted perception."""

from types import ModuleType as _ModuleType

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

# every public name imported above, and no submodule
__all__ = sorted(
    name
    for name, value in globals().items()
    if not name.startswith("_") and not isinstance(value, _ModuleType)
)
