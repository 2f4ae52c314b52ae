"""End-to-end tests of the command-line interface."""

import json
import math
from dataclasses import asdict, replace
from pathlib import Path

import pytest

from hetnetsim import cli
from hetnetsim.cli import main
from hetnetsim.harness import DEFAULT_CONFIG, Scenario, ScenarioConfig
from hetnetsim.follower import best_response
from hetnetsim.model import Bid, NeClass, UserProfile
from hetnetsim.prospect import DecisionModel

LABELS = {c.value for c in NeClass}


@pytest.fixture
def tiny_config(tmp_path):
    cfg = replace(DEFAULT_CONFIG, sweep=(4, 8), trials=1, n_users=6)
    path = tmp_path / "config.json"
    path.write_text(json.dumps(cfg.to_dict()), encoding="utf-8")
    return path


class TestSimulate:
    def test_writes_csv(self, tiny_config, tmp_path, capsys):
        out = tmp_path / "rows.csv"
        rc = main(["simulate", "--config", str(tiny_config), "--out", str(out)])
        assert rc == 0
        assert "wrote 6 rows" in capsys.readouterr().out
        lines = out.read_text(encoding="utf-8").strip().split("\n")
        committed = Path(__file__).parent / "data" / "default_sweep.csv"
        assert lines[0] == committed.read_text(encoding="utf-8").split("\n", 1)[0]
        assert len(lines) == 7

    def test_writes_json(self, tiny_config, tmp_path):
        out = tmp_path / "rows.json"
        rc = main(
            ["simulate", "--config", str(tiny_config), "--out", str(out), "--format", "json"]
        )
        assert rc == 0
        records = json.loads(out.read_text(encoding="utf-8"))
        assert len(records) == 6
        assert {r["scenario"] for r in records} == {"EUT", "PT", "PT_EXPANSION"}

    def test_repeat_runs_are_byte_identical(self, tiny_config, tmp_path):
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        assert main(["simulate", "--config", str(tiny_config), "--out", str(a)]) == 0
        assert main(["simulate", "--config", str(tiny_config), "--out", str(b)]) == 0
        assert a.read_bytes() == b.read_bytes()

    def test_seed_override_changes_output(self, tiny_config, tmp_path):
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        base = ["simulate", "--config", str(tiny_config)]
        assert main(base + ["--out", str(a)]) == 0
        assert main(base + ["--out", str(b), "--seed", "999"]) == 0
        assert a.read_bytes() != b.read_bytes()

    def test_unwritable_target_fails_cleanly(self, tiny_config, capsys, monkeypatch):
        def never(cfg):
            raise AssertionError("the sweep ran before the output directory was checked")

        monkeypatch.setattr(cli, "run_sweep", never)
        rc = main(
            ["simulate", "--config", str(tiny_config), "--out", "/nonexistent-dir-xyz/o.csv"]
        )
        assert rc == 2
        err = capsys.readouterr().err
        assert err.startswith("error: output directory")
        assert "/nonexistent-dir-xyz" in err

    def test_directory_target_fails_before_the_sweep(
        self, tiny_config, tmp_path, capsys, monkeypatch
    ):
        def never(cfg):
            raise AssertionError("the sweep ran before the output path was checked")

        monkeypatch.setattr(cli, "run_sweep", never)
        rc = main(["simulate", "--config", str(tiny_config), "--out", str(tmp_path)])
        assert rc == 2
        assert capsys.readouterr().err == f"error: output path {tmp_path} is a directory\n"

    @pytest.mark.parametrize(
        "key, value, message",
        [
            ("user", 5, "user: expected a JSON object"),
            ("sweep", [50.7], "sweep: expected a list of int"),
            ("cellular", {"bogus": 1}, "cellular: unknown config keys"),
            ("seed", -3, "seed must be nonnegative, got -3"),
            ("area_side_m", math.nan, "area_side_m: expected float, got nan"),
            ("noise_density_dbm_hz", math.inf, "noise_density_dbm_hz: expected float, got inf"),
            ("user", {"delta": math.inf}, "user: delta: expected float, got inf"),
            (
                "wifi",
                {**asdict(DEFAULT_CONFIG.wifi), "coverage_radius": math.nan},
                "wifi: coverage_radius: expected float | None, got nan",
            ),
            (
                "wifi",
                {**asdict(DEFAULT_CONFIG.wifi), "coverage_radius": -91.44},
                "wifi: coverage_radius must be positive or null, got -91.44",
            ),
        ],
    )
    def test_malformed_config_fails_before_the_sweep(
        self, tmp_path, capsys, monkeypatch, key, value, message
    ):
        def never(cfg):
            raise AssertionError("the sweep ran on a malformed config")

        monkeypatch.setattr(cli, "run_sweep", never)
        config = tmp_path / "config.json"
        config.write_text(json.dumps({key: value}), encoding="utf-8")
        rc = main(["simulate", "--config", str(config), "--out", str(tmp_path / "o.csv")])
        assert rc == 2
        err = capsys.readouterr().err
        assert err.startswith(f"error: {message}")
        assert err.count("\n") == 1


@pytest.mark.parametrize(
    "command",
    [
        ["simulate", "--seed", "-3"],
        ["game", "--seed", "-3", "--user-index", "0", "--model", "eut"],
    ],
)
def test_negative_seed_fails_before_any_trial(tmp_path, capsys, monkeypatch, command):
    def never(*args):
        raise AssertionError("a trial ran with a negative seed")

    monkeypatch.setattr(cli, "run_sweep", never)
    monkeypatch.setattr(cli, "solve_trial", never)
    out = ["--out", str(tmp_path / "o.csv")] if command[0] == "simulate" else []
    assert main(command + out) == 2
    assert capsys.readouterr().err == "error: seed must be nonnegative, got -3\n"


@pytest.mark.parametrize(
    "command",
    [["simulate", "--out", "o.csv"], ["game", "--user-index", "0", "--model", "pt"]],
)
@pytest.mark.parametrize(
    "key, value, message",
    [
        (
            "cellular",
            {**asdict(DEFAULT_CONFIG.cellular), "tx_power_dbm": 4000.0},
            "cellular: tx_power_dbm 4000.0 dBm over noise_density_dbm_hz -174.0 dBm/Hz "
            "gives a link SNR beyond the float range",
        ),
        (
            "noise_density_dbm_hz",
            -4000.0,
            "cellular: tx_power_dbm 43.0 dBm over noise_density_dbm_hz -4000.0 dBm/Hz "
            "gives a link SNR beyond the float range",
        ),
    ],
)
def test_out_of_range_radio_config_fails_at_load(
    tmp_path, capsys, monkeypatch, command, key, value, message
):
    # both ran until the mean SNR overflowed: "error: (34, 'Numerical
    # result out of range')"
    def never(*args):
        raise AssertionError("a trial ran on an out-of-range radio config")

    monkeypatch.setattr(cli, "run_sweep", never)
    monkeypatch.setattr(cli, "solve_trial", never)
    monkeypatch.chdir(tmp_path)
    config = tmp_path / "config.json"
    config.write_text(json.dumps({key: value}), encoding="utf-8")
    assert main([command[0], "--config", str(config), *command[1:]]) == 2
    assert capsys.readouterr().err == f"error: {message}\n"


class TestGame:
    @pytest.mark.parametrize("model", ["eut", "pt"])
    def test_outcome_json(self, tiny_config, capsys, model):
        rc = main(
            ["game", "--config", str(tiny_config), "--user-index", "0", "--model", model]
        )
        assert rc == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["ne_class"] in LABELS
        assert set(payload) >= {"strategy_draw", "u_user", "u_sp_w", "u_sp_c", "bid_c", "bid_w"}
        assert payload["strategy_draw"] in ([0, 0], [0, 1], [1, 0], [1, 1])

    def test_expansion_flag_accepted(self, tiny_config, capsys):
        rc = main(
            [
                "game",
                "--config",
                str(tiny_config),
                "--user-index",
                "2",
                "--model",
                "pt",
                "--expand",
            ]
        )
        assert rc == 0
        json.loads(capsys.readouterr().out)

    def test_expansion_needs_weighting_model(self, tiny_config, capsys, monkeypatch):
        def never(*args):
            raise AssertionError("a trial ran for a rejected flag pair")

        monkeypatch.setattr(cli, "solve_trial", never)
        rc = main(
            [
                "game",
                "--config",
                str(tiny_config),
                "--user-index",
                "0",
                "--model",
                "eut",
                "--expand",
            ]
        )
        assert rc == 2
        out = capsys.readouterr()
        assert out.out == ""
        assert out.err == "error: --expand requires --model pt\n"

    def test_out_of_range_index(self, tiny_config, capsys):
        rc = main(
            ["game", "--config", str(tiny_config), "--user-index", "99", "--model", "eut"]
        )
        assert rc == 2
        assert capsys.readouterr().err.startswith("error:")


_GOOD_USER = {"delta": 6.0, "theta": 2.0, "b_min": 2.0}
_GOOD_BID = {"rate": 3.0, "price": 1.0, "guarantee": 0.9}


def _without(section: dict, key: str) -> dict:
    return {k: v for k, v in section.items() if k != key}


class TestGameMatchesSweep:
    """`game` prints user i of trial 0 of the sweep's own solve (the watched
    default trial), pool pass and per-scenario mixed draws included.  At
    n=500 the pool pass changes user 0's PT_EXPANSION label and user 2's
    payoff."""

    N = 500

    @pytest.mark.parametrize("user", [0, 2])
    @pytest.mark.parametrize(
        "scenario, flags",
        [
            (Scenario.EUT, ["--model", "eut"]),
            (Scenario.PT, ["--model", "pt"]),
            (Scenario.PT_EXPANSION, ["--model", "pt", "--expand"]),
        ],
    )
    def test_prints_the_sweeps_outcome(
        self, watched_trials, tmp_path, capsys, user, scenario, flags
    ):
        config = tmp_path / "config.json"
        config.write_text(
            json.dumps(replace(DEFAULT_CONFIG, n_users=self.N).to_dict()), encoding="utf-8"
        )
        rc = main(["game", "--config", str(config), "--user-index", str(user), *flags])
        assert rc == 0
        solved = watched_trials[self.N].solution
        want = json.dumps(solved[scenario][user].to_dict(), indent=2) + "\n"
        assert capsys.readouterr().out == want


class TestNeClassify:
    def params(self, tmp_path, **overrides):
        payload = {
            "user": {"delta": 6.0, "theta": 2.0, "b_min": 2.0},
            "bid_c": {"rate": 3.0, "price": 2.0, "guarantee": 0.9},
            "bid_w": {"rate": 3.0, "price": 2.0, "guarantee": 0.9},
            "model": "eut",
        }
        payload.update(overrides)
        path = tmp_path / "params.json"
        path.write_text(json.dumps(payload), encoding="utf-8")
        return path

    def test_symmetric_eut(self, tmp_path, capsys):
        rc = main(["ne-classify", "--params", str(self.params(tmp_path))])
        assert rc == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["ne_class"] in LABELS
        assert "floor_benefit" in payload["thresholds"]
        assert payload["outcome"]["ne_class"] == payload["ne_class"]

    def test_weighting_model_reports_perceived_rate(self, tmp_path, capsys):
        path = self.params(tmp_path, model="pt", prelec_alpha=0.7)
        assert main(["ne-classify", "--params", str(path)]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert "perceived_joint_rate" in payload["thresholds"]
        assert payload["thresholds"]["perceived_joint_rate"] < 2 * 3.0

    def test_missing_bid_treated_as_silent(self, tmp_path, capsys):
        path = self.params(tmp_path, bid_w=None)
        assert main(["ne-classify", "--params", str(path)]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["thresholds"]["price_w"] is None

    @pytest.mark.parametrize("slot", ["bid_c", "bid_w"])
    @pytest.mark.parametrize("absent", [False, True])
    def test_null_or_absent_bid_is_silent(self, tmp_path, capsys, slot, absent):
        path = self.params(tmp_path, **{slot: None})
        if absent:
            payload = json.loads(path.read_text(encoding="utf-8"))
            del payload[slot]
            path.write_text(json.dumps(payload), encoding="utf-8")
        assert main(["ne-classify", "--params", str(path)]) == 0
        thresholds = json.loads(capsys.readouterr().out)["thresholds"]
        assert thresholds[f"price_{slot[-1]}"] is None
        other = "bid_w" if slot == "bid_c" else "bid_c"
        assert thresholds[f"price_{other[-1]}"] == 2.0


    def test_bad_model_rejected(self, tmp_path, capsys):
        path = self.params(tmp_path, model="cpt")
        assert main(["ne-classify", "--params", str(path)]) == 2
        assert capsys.readouterr().err == "error: params: model must be 'eut' or 'pt', got 'cpt'\n"

    def test_exponent_is_checked_only_where_used(self, tmp_path):
        # the objective model ignores prelec_alpha: DecisionModel.eut takes none
        path = self.params(tmp_path, prelec_alpha=1.5)
        assert main(["ne-classify", "--params", str(path)]) == 0

    @pytest.mark.parametrize("alpha", [0.0, 1.0, 1.5, -0.1])
    def test_exponent_has_one_check_on_every_entry_point(self, tmp_path, capsys, alpha):
        message = f"prelec_alpha must lie in (0, 1), got {alpha}"
        with pytest.raises(ValueError) as direct:
            DecisionModel.pt(alpha)
        with pytest.raises(ValueError) as config:
            ScenarioConfig(prelec_alpha=alpha)
        path = self.params(tmp_path, model="pt", prelec_alpha=alpha)
        assert main(["ne-classify", "--params", str(path)]) == 2
        assert str(direct.value) == str(config.value) == message
        assert capsys.readouterr().err == f"error: params: {message}\n"

    def test_matches_sweep_games_with_both_bids_in_force(self, tmp_path, capsys, watched_trials):
        # each default n=50 trial-0 EUT game whose cellular and selected WiFi
        # bids are both in force, handed to ne-classify as user and two bids
        solved = watched_trials[50].solution
        path = tmp_path / "params.json"
        checked = 0
        for bids, outcome in zip(solved.bids, solved[Scenario.EUT], strict=True):
            if outcome.wifi_index is None:
                continue
            bid_c, bid_w = bids[0], bids[outcome.wifi_index]
            if not (isinstance(bid_c, Bid) and isinstance(bid_w, Bid)):
                continue
            params = {
                "user": asdict(DEFAULT_CONFIG.user),
                "bid_c": bid_c.to_dict(),
                "bid_w": bid_w.to_dict(),
            }
            path.write_text(json.dumps(params), encoding="utf-8")
            assert main(["ne-classify", "--params", str(path)]) == 0
            printed = json.loads(capsys.readouterr().out)
            assert printed["outcome"] == {**outcome.to_dict(), "wifi_index": None}
            checked += 1
        assert checked >= 10

    # the default user, H(b_min) = 494.97, and two offers that each expect
    # 90 Mbps, far above the 2 Mbps floor
    _OFF_FLOOR = {
        "user": asdict(DEFAULT_CONFIG.user),
        "bid_c": {"rate": 100.0, "price": 1000.0, "guarantee": 0.9},
        "bid_w": {"rate": 100.0, "price": 1200.0, "guarantee": 0.9},
    }

    def test_off_floor_offers_are_worth_accepting_both(self, tmp_path, capsys):
        # the premise of the test below: the user's best response accepts
        # both offers, and a nearly objective weighting user is labeled so
        bid_c, bid_w = (Bid(**self._OFF_FLOOR[k], bandwidth=0.0) for k in ("bid_c", "bid_w"))
        user = UserProfile(**self._OFF_FLOOR["user"])
        strategy, u = best_response(bid_c, bid_w, user, DecisionModel.eut())
        assert strategy == (1, 1)
        assert u == pytest.approx(2495.7427527495583, rel=1e-12)
        path = self.params(tmp_path, **self._OFF_FLOOR, model="pt", prelec_alpha=0.999)
        assert main(["ne-classify", "--params", str(path)]) == 0
        assert json.loads(capsys.readouterr().out)["ne_class"] == "Both11"

    @pytest.mark.xfail(
        strict=True,
        reason="classify's EUT price regions hold only for floor-tight offers "
        "(rate * guarantee == b_min): they test H(b_min) against the cheaper "
        "price, so two offers far above the floor are rejected",
    )
    def test_eut_label_is_the_best_response_off_the_floor(self, tmp_path, capsys):
        path = self.params(tmp_path, **self._OFF_FLOOR)
        assert main(["ne-classify", "--params", str(path)]) == 0
        assert json.loads(capsys.readouterr().out)["ne_class"] == "Both11"

    @pytest.mark.parametrize(
        "payload, message",
        [
            ([1, 2], "params: expected a JSON object, got [1, 2]"),
            ({"bid_c": _GOOD_BID}, "params: missing config keys: ['user']"),
            ({"user": _GOOD_USER, "bids": {}}, "params: unknown config keys: ['bids']"),
            ({"user": _without(_GOOD_USER, "b_min")}, "user: missing config keys: ['b_min']"),
            (
                {"user": {**_GOOD_USER, "position": 5}},
                "user: unknown config keys: ['position']",
            ),
            ({"user": "alice"}, "user: expected a JSON object, got 'alice'"),
            ({"user": {**_GOOD_USER, "delta": -1.0}}, "user: delta must be positive, got -1.0"),
            *[
                (
                    {"user": _GOOD_USER, slot: _without(_GOOD_BID, k)},
                    f"{slot}: missing config keys: ['{k}']",
                )
                for slot, k in (("bid_c", "rate"), ("bid_w", "price"), ("bid_c", "guarantee"))
            ],
            (
                {"user": _GOOD_USER, "bid_w": {**_GOOD_BID, "cost": 1}},
                "bid_w: unknown config keys: ['cost']",
            ),
            (
                {"user": _GOOD_USER, "bid_w": [3.0, 1.0, 0.9]},
                "bid_w: expected a JSON object, got [3.0, 1.0, 0.9]",
            ),
            # an empty bid is a malformed section, not a silent slot
            (
                {"user": _GOOD_USER, "bid_w": {}},
                "bid_w: missing config keys: ['rate', 'price', 'guarantee']",
            ),
            ({"user": _GOOD_USER, "bid_c": 0}, "bid_c: expected a JSON object, got 0"),
            ({"user": _GOOD_USER, "model": 1}, "params: model: expected str, got 1"),
            # values are JSON numbers, as in the config loader: no bool,
            # string or null is coerced
            ({"user": {**_GOOD_USER, "delta": True}}, "user: delta: expected float, got True"),
            ({"user": {**_GOOD_USER, "theta": "2"}}, "user: theta: expected float, got '2'"),
            ({"user": {**_GOOD_USER, "b_min": None}}, "user: b_min: expected float, got None"),
            (
                {"user": _GOOD_USER, "bid_c": {**_GOOD_BID, "rate": False}},
                "bid_c: rate: expected float, got False",
            ),
            (
                {"user": _GOOD_USER, "bid_w": {**_GOOD_BID, "price": "1.0"}},
                "bid_w: price: expected float, got '1.0'",
            ),
            (
                {"user": _GOOD_USER, "bid_w": {**_GOOD_BID, "bandwidth": None}},
                "bid_w: bandwidth: expected float, got None",
            ),
            (
                {"user": _GOOD_USER, "model": "pt", "prelec_alpha": True},
                "params: prelec_alpha: expected float, got True",
            ),
            (
                {"user": _GOOD_USER, "model": "pt", "prelec_alpha": "0.7"},
                "params: prelec_alpha: expected float, got '0.7'",
            ),
            (
                {"user": _GOOD_USER, "model": "pt", "prelec_alpha": None},
                "params: prelec_alpha: expected float, got None",
            ),
            # typed under either model, not only where it is used
            (
                {"user": _GOOD_USER, "model": "eut", "prelec_alpha": "0.7"},
                "params: prelec_alpha: expected float, got '0.7'",
            ),
            # nor a non-finite number, which Python's json reads
            ({"user": {**_GOOD_USER, "delta": math.inf}}, "user: delta: expected float, got inf"),
            (
                {"user": _GOOD_USER, "bid_c": {**_GOOD_BID, "rate": math.nan}},
                "bid_c: rate: expected float, got nan",
            ),
            (
                {"user": _GOOD_USER, "bid_w": {**_GOOD_BID, "price": -math.inf}},
                "bid_w: price: expected float, got -inf",
            ),
            (
                {"user": _GOOD_USER, "model": "pt", "prelec_alpha": math.nan},
                "params: prelec_alpha: expected float, got nan",
            ),
        ],
    )
    def test_bad_params_fail_with_one_line(self, tmp_path, capsys, payload, message):
        path = tmp_path / "params.json"
        path.write_text(json.dumps(payload), encoding="utf-8")
        assert main(["ne-classify", "--params", str(path)]) == 2
        out, err = capsys.readouterr()
        assert out == ""
        assert err == f"error: {message}\n"


# Fixed inputs for `game` and `ne-classify`, and their stdout stored in
# tests/data/cli_golden.json: the printed JSON must not change when the
# records behind it change shape.  Like golden_sweep.csv, the float text
# depends on the platform's libm/numpy build.
GOLDEN = Path(__file__).parent / "data" / "cli_golden.json"

GAME_CASES = {
    # at n=500, expansion turns user 2's rejection into a WiFi association
    "pt_expand_n500_user2": (500, ["--user-index", "2", "--model", "pt", "--expand"]),
    "pt_n500_user2": (500, ["--user-index", "2", "--model", "pt"]),
    "eut_n50_user0": (50, ["--user-index", "0", "--model", "eut"]),
}

_USER = {"delta": 3.0, "theta": 2.0, "b_min": 2.0}
_CHEAP = {"rate": 4.0, "price": 0.5, "bandwidth": 1.0, "guarantee": 0.5}
NE_CLASSIFY_CASES = {
    "eut_symmetric_both": {"user": _USER, "bid_c": _CHEAP, "bid_w": _CHEAP},
    "eut_symmetric_mixed": {
        "user": _USER,
        "bid_c": {**_CHEAP, "price": 3.0},
        "bid_w": {**_CHEAP, "price": 3.0},
    },
    "eut_symmetric_reject": {
        "user": _USER,
        "bid_c": {**_CHEAP, "price": 5.0},
        "bid_w": {**_CHEAP, "price": 5.0},
    },
    "eut_asymmetric_cell_only": {
        "user": _USER,
        "bid_c": {**_CHEAP, "price": 2.0},
        "bid_w": {**_CHEAP, "price": 3.0},
    },
    "pt_both": {"user": _USER, "bid_c": _CHEAP, "bid_w": _CHEAP, "model": "pt"},
    "pt_lone_wifi": {
        "user": {**_USER, "delta": 20.0},
        "bid_w": {"rate": 8.0, "price": 1.0, "bandwidth": 2.0, "guarantee": 0.3},
        "model": "pt",
        "prelec_alpha": 0.5,
    },
}


def golden_stdout(capsys, tmp_path, command: str, case: str) -> str:
    """What `hetnetsim <command>` prints for a named golden case."""
    if command == "game":
        n_users, args = GAME_CASES[case]
        config = tmp_path / "config.json"
        config.write_text(
            json.dumps(replace(DEFAULT_CONFIG, n_users=n_users).to_dict()), encoding="utf-8"
        )
        argv = ["game", "--config", str(config), *args]
    else:
        params = tmp_path / "params.json"
        params.write_text(json.dumps(NE_CLASSIFY_CASES[case]), encoding="utf-8")
        argv = ["ne-classify", "--params", str(params)]
    assert main(argv) == 0
    return capsys.readouterr().out


@pytest.mark.parametrize(
    "command, case",
    [("game", c) for c in GAME_CASES] + [("ne-classify", c) for c in NE_CLASSIFY_CASES],
)
def test_printed_json_matches_golden(capsys, tmp_path, command, case):
    golden = json.loads(GOLDEN.read_text(encoding="utf-8"))
    assert golden_stdout(capsys, tmp_path, command, case) == golden[command][case]


@pytest.mark.parametrize("command", ["frobnicate", "expand-bw"])
def test_unknown_command_exits_via_argparse(command):
    with pytest.raises(SystemExit):
        main([command])
