"""End-to-end tests of the command-line interface."""

import json
from dataclasses import replace

import pytest

from hetnetsim.channel import LinkState, guarantee_inverse_bw
from hetnetsim import cli
from hetnetsim.cli import main
from hetnetsim.harness import CSV_HEADER, DEFAULT_CONFIG
from hetnetsim.model import NeClass
from hetnetsim.prospect import DecisionModel, weight_inverse

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
        assert lines[0] == CSV_HEADER
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

    def test_out_of_range_index(self, tiny_config, capsys):
        rc = main(
            ["game", "--config", str(tiny_config), "--user-index", "99", "--model", "eut"]
        )
        assert rc == 2
        assert capsys.readouterr().err.startswith("error:")


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

    def test_bad_model_rejected(self, tmp_path, capsys):
        path = self.params(tmp_path, model="cpt")
        assert main(["ne-classify", "--params", str(path)]) == 2
        assert capsys.readouterr().err.startswith("error:")


class TestExpandBw:
    def run(self, capsys, **kwargs):
        args = ["expand-bw"]
        for key, val in kwargs.items():
            args += [f"--{key.replace('_', '-')}", str(val)]
        rc = main(args)
        out, err = capsys.readouterr()
        return rc, out, err

    def test_matches_library_arithmetic(self, capsys):
        rc, out, _ = self.run(capsys, rate=2.0, guarantee=0.8, alpha=0.7, mean_snr=10.0)
        assert rc == 0
        payload = json.loads(out)
        model = DecisionModel.pt(0.7)
        lam = weight_inverse(0.8, model)
        link = LinkState(
            path_loss_db=0.0,
            mean_snr=10.0,
            covered=True,
            bw_max=float("inf"),
            b_max=float("inf"),
        )
        assert payload["lambda"] == pytest.approx(lam, rel=1e-12)
        assert payload["bandwidth"] == pytest.approx(
            guarantee_inverse_bw(2.0, lam, link), rel=1e-12
        )

    def test_certain_guarantee_rejected(self, capsys):
        rc, _, err = self.run(capsys, rate=2.0, guarantee=1.0, alpha=0.7, mean_snr=10.0)
        assert rc == 2
        assert err.startswith("error:")

    def test_negative_rate_rejected(self, capsys):
        rc, _, err = self.run(capsys, rate=-1.0, guarantee=0.8, alpha=0.7, mean_snr=10.0)
        assert rc == 2
        assert err.startswith("error:")


def test_unknown_command_exits_via_argparse():
    with pytest.raises(SystemExit):
        main(["frobnicate"])
