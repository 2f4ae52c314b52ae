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
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np

from .channel import LinkState, guarantee_inverse_bw
from .equilibrium import (
    bids_symmetric,
    classify_eut_asymmetric,
    classify_eut_symmetric,
    classify_pt,
    make_eut_bids,
    resolve_user_game,
)
from .harness import (
    DEFAULT_CONFIG,
    Scenario,
    ScenarioConfig,
    build_links,
    emit,
    generate_topology,
    run_sweep,
)
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
        return Scenario.EUT
    return Scenario.PT_EXPANSION if expand else Scenario.PT


def _cmd_game(args: argparse.Namespace) -> int:
    cfg = _load_config(args.config, args.seed)
    n = cfg.n_users
    if not 0 <= args.user_index < n:
        raise ValueError(f"user index {args.user_index} outside [0, {n})")

    seq = np.random.SeedSequence([cfg.seed, n, 0])
    streams = seq.spawn(1 + len(Scenario))
    topo_rng = np.random.default_rng(streams[0])
    users, sps = generate_topology(cfg, topo_rng, n)
    links = build_links(users, sps, cfg)

    scenario = _scenario_for(args.model, args.expand)
    model = (
        DecisionModel.eut()
        if args.model == "eut"
        else DecisionModel.pt(cfg.prelec_alpha)
    )
    rng = np.random.default_rng(streams[1 + list(Scenario).index(scenario)])

    user = users[args.user_index]
    bids = make_eut_bids(user, sps, links[args.user_index])
    outcome = resolve_user_game(
        user,
        sps,
        links[args.user_index],
        bids,
        model,
        expansion_enabled=args.expand,
        rng=rng,
    )
    print(json.dumps(outcome.to_dict(), indent=2))
    return 0


def _bid_from_dict(data: dict | None) -> Bid | NoBid:
    if not data:
        return NoBid("not specified")
    return Bid(
        rate=float(data["rate"]),
        price=float(data["price"]),
        bandwidth=float(data.get("bandwidth", 0.0)),
        guarantee=float(data["guarantee"]),
    )


def _cmd_ne_classify(args: argparse.Namespace) -> int:
    with open(args.params, encoding="utf-8") as fh:
        params = json.load(fh)

    user = UserProfile(**params["user"])
    model_name = params.get("model", "eut")
    if model_name == "pt":
        model = DecisionModel.pt(float(params.get("prelec_alpha", 0.7)))
    elif model_name == "eut":
        model = DecisionModel.eut()
    else:
        raise ValueError(f"model must be 'eut' or 'pt', got {model_name!r}")

    bid_w = _bid_from_dict(params.get("bid_w"))
    bid_c = _bid_from_dict(params.get("bid_c"))
    both_real = isinstance(bid_w, Bid) and isinstance(bid_c, Bid)

    if not model.is_pt and both_real and bids_symmetric(bid_c, bid_w):
        outcome = classify_eut_symmetric(bid_w, user)
    elif not model.is_pt and both_real:
        outcome = classify_eut_asymmetric(bid_w, bid_c, user)
    else:
        outcome = classify_pt(bid_w, bid_c, user, model)

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
    p_game.add_argument("--expand", action="store_true", help="enable bandwidth expansion")
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
