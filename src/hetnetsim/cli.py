"""Command-line front end.

Subcommands:
  simulate     run the configured load sweep and write CSV or JSON rows
  game         solve one user's association game and print the outcome
  ne-classify  label a hand-specified game and print class plus thresholds

Every command exits 0 on success and 2 with a one-line diagnostic on
stderr otherwise.
"""

from __future__ import annotations

import argparse
import json
import sys
from dataclasses import dataclass, field, replace
from pathlib import Path

from .equilibrium import classify
from .harness import DEFAULT_CONFIG, Scenario, ScenarioConfig, emit, run_sweep, solve_trial
from .harness import _from_json
from .model import Bid, NoBid, UserParams, doubling_gap, user_benefit
from .prospect import DecisionModel, weight


def _load_config(path: str | None, seed: int | None) -> ScenarioConfig:
    cfg = DEFAULT_CONFIG if path is None else ScenarioConfig.from_json_file(path)
    if seed is not None:
        cfg = replace(cfg, seed=seed)
    return cfg


def _cmd_simulate(args: argparse.Namespace) -> int:
    cfg = _load_config(args.config, args.seed)
    out = Path(args.out)
    if out.is_dir():
        raise ValueError(f"output path {out} is a directory")
    if not out.parent.is_dir():
        raise ValueError(f"output directory {out.parent} does not exist")
    rows = run_sweep(cfg)
    emit(rows, args.format, args.out)
    print(f"wrote {len(rows)} rows to {args.out}")
    return 0


def _scenario_for(model_name: str, expand: bool) -> Scenario:
    if model_name == "eut":
        if expand:
            raise ValueError("--expand requires --model pt")
        return Scenario.EUT
    return Scenario.PT_EXPANSION if expand else Scenario.PT


def _cmd_game(args: argparse.Namespace) -> int:
    scenario = _scenario_for(args.model, args.expand)
    cfg = _load_config(args.config, args.seed)
    n = cfg.n_users
    if not 0 <= args.user_index < n:
        raise ValueError(f"user index {args.user_index} outside [0, {n})")
    outcome = solve_trial(cfg, n, 0)[scenario][args.user_index]
    print(json.dumps(outcome.to_dict(), indent=2))
    return 0


@dataclass(frozen=True, kw_only=True)
class _UserSection(UserParams):
    """The params file's user: every UserParams field, none defaulted (a bare
    annotation would keep the inherited default; field() drops it)."""

    delta: float = field()
    theta: float = field()
    b_min: float = field()


@dataclass(frozen=True, kw_only=True)
class _BidSection(Bid):
    """A bid in the params file; bandwidth may be left out."""

    bandwidth: float = 0.0


@dataclass(frozen=True)
class _Params:
    """The ne-classify params file; a null or absent bid is a silent slot."""

    user: _UserSection
    bid_c: _BidSection | None = None
    bid_w: _BidSection | None = None
    model: str = "eut"
    prelec_alpha: float = DEFAULT_CONFIG.prelec_alpha

    def __post_init__(self) -> None:
        if self.model not in ("eut", "pt"):
            raise ValueError(f"model must be 'eut' or 'pt', got {self.model!r}")
        if self.model == "pt":
            DecisionModel.pt(self.prelec_alpha)


def _cmd_ne_classify(args: argparse.Namespace) -> int:
    with open(args.params, encoding="utf-8") as fh:
        params = _from_json(_Params, json.load(fh), "params")
    user = params.user
    model = DecisionModel.pt(params.prelec_alpha) if params.model == "pt" else DecisionModel.eut()

    bid_w, bid_c = (b or NoBid("not specified") for b in (params.bid_w, params.bid_c))
    # priced like the sweep's games: the default cellular and WiFi classes
    outcome = classify(bid_c, bid_w, user, model, DEFAULT_CONFIG.cellular, DEFAULT_CONFIG.wifi)
    thresholds = {
        "floor_benefit": user_benefit(user.b_min, user),
        "doubling_gap": doubling_gap(user),
        "price_w": bid_w.price if isinstance(bid_w, Bid) else None,
        "price_c": bid_c.price if isinstance(bid_c, Bid) else None,
    }
    if model.is_pt:
        joint = 0.0
        total_price = 0.0
        for b in (bid_w, bid_c):
            if isinstance(b, Bid):
                joint += b.rate * weight(b.guarantee, model)
                total_price += b.price
        thresholds["perceived_joint_rate"] = joint
        thresholds["rate_floor"] = user.b_min
        thresholds["perceived_joint_benefit"] = user_benefit(joint, user)
        thresholds["total_price"] = total_price

    print(
        json.dumps(
            {
                "ne_class": outcome.ne_class.value,
                "thresholds": thresholds,
                "outcome": outcome.to_dict(),
            },
            indent=2,
        )
    )
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="hetnetsim",
        description="Two-tier access network association: simulator and game solver.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_sim = sub.add_parser("simulate", help="run the load sweep and write rows")
    p_sim.add_argument("--config", help="JSON config file (defaults built in)")
    p_sim.add_argument("--out", required=True, help="output file path")
    p_sim.add_argument("--format", choices=("csv", "json"), default="csv")
    p_sim.add_argument("--seed", type=int, help="override the config seed")
    p_sim.set_defaults(func=_cmd_simulate)

    p_game = sub.add_parser("game", help="solve one user's game")
    p_game.add_argument("--config", help="JSON config file (defaults built in)")
    p_game.add_argument("--user-index", type=int, required=True)
    p_game.add_argument("--model", choices=("eut", "pt"), required=True)
    p_game.add_argument(
        "--expand", action="store_true", help="enable bandwidth expansion (needs --model pt)"
    )
    p_game.add_argument("--seed", type=int, help="override the config seed")
    p_game.set_defaults(func=_cmd_game)

    p_ne = sub.add_parser("ne-classify", help="classify a hand-specified game")
    p_ne.add_argument("--params", required=True, help="JSON file with user, bids, model")
    p_ne.set_defaults(func=_cmd_ne_classify)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except Exception as exc:  # one-line diagnostic, nonzero exit
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
