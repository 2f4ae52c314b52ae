"""Command-line front end.

Subcommands:
  simulate     run the configured load sweep and write CSV or JSON rows
  game         solve one user's association game and print the outcome
  ne-classify  label a hand-specified game and print class plus thresholds
  expand-bw    raw bandwidth-expansion arithmetic for one bid

Every command exits 0 on success and 2 with a one-line diagnostic on
stderr otherwise.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from dataclasses import replace
from pathlib import Path

from .channel import LinkState, guarantee_inverse_bw
from .equilibrium import classify
from .harness import DEFAULT_CONFIG, Scenario, ScenarioConfig, emit, run_sweep, solve_trial
from .harness import _json_is
from .model import Bid, NoBid, UserProfile, doubling_gap, user_benefit
from .prospect import DecisionModel, weight, weight_inverse


def _load_config(path: str | None, seed: int | None) -> ScenarioConfig:
    cfg = DEFAULT_CONFIG if path is None else ScenarioConfig.from_json_file(path)
    if seed is not None:
        cfg = replace(cfg, seed=seed)
    return cfg


def _cmd_simulate(args: argparse.Namespace) -> int:
    cfg = _load_config(args.config, args.seed)
    out_dir = Path(args.out).parent
    if not out_dir.is_dir():
        raise ValueError(f"output directory {out_dir} does not exist")
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


_PARAMS_KEYS = ("user", "bid_c", "bid_w", "model", "prelec_alpha")
_USER_KEYS = ("delta", "theta", "b_min")
_BID_KEYS = ("rate", "price", "guarantee")


def _checked(section: str, data, required: tuple[str, ...], optional: tuple[str, ...] = ()) -> dict:
    """data as a JSON object holding every required key and no other key
    than the optional ones; a violation is a one-line error naming the
    section and the key."""
    if not isinstance(data, dict):
        raise ValueError(f"{section}: expected a JSON object")
    for key in data:
        if key not in required + optional:
            raise ValueError(f"{section}: unknown key {key!r}")
    for key in required:
        if key not in data:
            raise ValueError(f"{section}: missing key {key!r}")
    return data


def _number(section: str, key: str, value):
    """value, checked to be a JSON number as the config loader checks one."""
    if not _json_is(float, value):
        raise ValueError(f"{section}: {key}: expected float, got {value!r}")
    return value


def _build(section: str, cls, data, required: tuple[str, ...], defaults: dict):
    """cls built from the checked section, every value a JSON number."""
    data = {**defaults, **_checked(section, data, required, tuple(defaults))}
    values = {key: _number(section, key, value) for key, value in data.items()}
    try:
        return cls(**values)
    except ValueError as exc:
        raise ValueError(f"{section}: {exc}") from None


def _bid(params: dict, slot: str) -> Bid | NoBid:
    if params.get(slot) in (None, {}):
        return NoBid("not specified")
    return _build(slot, Bid, params[slot], _BID_KEYS, {"bandwidth": 0.0})


def _cmd_ne_classify(args: argparse.Namespace) -> int:
    with open(args.params, encoding="utf-8") as fh:
        params = _checked("params", json.load(fh), ("user",), _PARAMS_KEYS)
    user = _build("user", UserProfile, params["user"], _USER_KEYS, {})
    model_name = params.get("model", "eut")
    if model_name == "pt":
        alpha = params.get("prelec_alpha", DEFAULT_CONFIG.prelec_alpha)
        model = DecisionModel.pt(_number("params", "prelec_alpha", alpha))
    elif model_name == "eut":
        model = DecisionModel.eut()
    else:
        raise ValueError(f"model must be 'eut' or 'pt', got {model_name!r}")

    bid_w, bid_c = _bid(params, "bid_w"), _bid(params, "bid_c")
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


def _cmd_expand_bw(args: argparse.Namespace) -> int:
    for name in ("rate", "guarantee", "alpha", "mean_snr"):
        if not math.isfinite(value := getattr(args, name)):
            raise ValueError(f"--{name.replace('_', '-')} must be finite, got {value}")
    if args.rate <= 0:
        raise ValueError(f"rate must be positive, got {args.rate}")
    if not 0.0 < args.guarantee < 1.0:
        raise ValueError(f"guarantee must lie in (0, 1), got {args.guarantee}")
    if args.mean_snr <= 0:
        raise ValueError(f"mean SNR must be positive, got {args.mean_snr}")

    model = DecisionModel.pt(args.alpha)
    lam = weight_inverse(args.guarantee, model)
    if lam >= 1.0:
        raise ValueError("target guarantee cannot be expanded to at any bandwidth")
    link = LinkState(
        path_loss_db=0.0,
        mean_snr=args.mean_snr,
        covered=True,
        bw_max=float("inf"),
        b_max=float("inf"),
    )
    bw = guarantee_inverse_bw(args.rate, lam, link)
    print(json.dumps({"lambda": lam, "bandwidth": bw}, indent=2))
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

    p_ex = sub.add_parser("expand-bw", help="bandwidth expansion arithmetic for one bid")
    p_ex.add_argument("--rate", type=float, required=True, help="advertised rate (Mbps)")
    p_ex.add_argument("--guarantee", type=float, required=True, help="advertised guarantee")
    p_ex.add_argument("--alpha", type=float, required=True, help="Prelec exponent")
    p_ex.add_argument("--mean-snr", type=float, required=True, help="mean link SNR (linear)")
    p_ex.set_defaults(func=_cmd_expand_bw)

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
