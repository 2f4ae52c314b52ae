"""Tests for topology generation, the sweep driver, and result emission."""

import json
import math
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from hetnetsim.harness import (
    CSV_HEADER,
    DEFAULT_CONFIG,
    Scenario,
    ScenarioConfig,
    SweepRow,
    build_links,
    build_sps,
    emit,
    generate_topology,
    load_rows,
    run_point,
    run_sweep,
    run_trial,
)
from hetnetsim.model import SpKind

TINY = replace(DEFAULT_CONFIG, sweep=(5, 10), trials=2, n_users=6)


def dist(a, b):
    return math.hypot(a[0] - b[0], a[1] - b[1])


class TestTopology:
    def test_deterministic_placement(self):
        users_a, sps_a = generate_topology(DEFAULT_CONFIG, np.random.default_rng(7))
        users_b, sps_b = generate_topology(DEFAULT_CONFIG, np.random.default_rng(7))
        assert [u.position for u in users_a] == [u.position for u in users_b]
        assert [u.active for u in users_a] == [u.active for u in users_b]
        assert [sp.position for sp in sps_a] == [sp.position for sp in sps_b]

    def test_station_count_and_kinds(self):
        sps = build_sps(DEFAULT_CONFIG)
        assert len(sps) == 1 + DEFAULT_CONFIG.n_wifi == 9
        assert sps[0].kind is SpKind.CELLULAR
        center = (DEFAULT_CONFIG.area_side_m / 2.0,) * 2
        assert sps[0].position == center
        assert [sp.sp_id for sp in sps] == list(range(9))
        assert all(sp.kind is SpKind.WIFI for sp in sps[1:])

    def test_access_points_sit_on_a_disjoint_ring(self):
        cfg = DEFAULT_CONFIG
        sps = build_sps(cfg)
        center = (cfg.area_side_m / 2.0,) * 2
        ring = cfg.wifi_ring_fraction * cfg.area_side_m
        aps = sps[1:]
        for ap in aps:
            assert dist(ap.position, center) == pytest.approx(ring, rel=1e-12)
        # adjacent coverage discs must not overlap, so each user sees at
        # most one WiFi AP
        for a, b in zip(aps, aps[1:] + aps[:1]):
            assert dist(a.position, b.position) > a.coverage_radius + b.coverage_radius

    def test_users_inside_area(self):
        users, _ = generate_topology(DEFAULT_CONFIG, np.random.default_rng(3), 200)
        for u in users:
            assert 0.0 <= u.position[0] <= DEFAULT_CONFIG.area_side_m
            assert 0.0 <= u.position[1] <= DEFAULT_CONFIG.area_side_m

    def test_positions_unchanged_by_activity_probability(self):
        quiet = replace(DEFAULT_CONFIG, activity_prob=0.5)
        users_a, _ = generate_topology(DEFAULT_CONFIG, np.random.default_rng(11), 40)
        users_b, _ = generate_topology(quiet, np.random.default_rng(11), 40)
        assert [u.position for u in users_a] == [u.position for u in users_b]


class TestLinks:
    def test_cellular_covers_active_users(self):
        users, sps = generate_topology(DEFAULT_CONFIG, np.random.default_rng(5), 80)
        links = build_links(users, sps, DEFAULT_CONFIG)
        for row in links:
            assert row[0].covered

    def test_wifi_coverage_limited_by_radius(self):
        users, sps = generate_topology(DEFAULT_CONFIG, np.random.default_rng(5), 200)
        links = build_links(users, sps, DEFAULT_CONFIG)
        for user, row in zip(users, links):
            for sp, ln in zip(sps, row):
                if sp.kind is SpKind.WIFI and dist(user.position, sp.position) > sp.coverage_radius:
                    assert not ln.covered
                    assert ln.b_max == 0.0

    def test_at_most_one_wifi_ap_in_range(self):
        users, sps = generate_topology(DEFAULT_CONFIG, np.random.default_rng(5), 300)
        links = build_links(users, sps, DEFAULT_CONFIG)
        for row in links:
            assert sum(1 for ln in row[1:] if ln.covered) <= 1

    def test_inactive_users_have_no_links(self):
        cfg = replace(DEFAULT_CONFIG, activity_prob=0.0)
        users, sps = generate_topology(cfg, np.random.default_rng(5), 30)
        links = build_links(users, sps, cfg)
        assert all(not ln.covered for row in links for ln in row)


class TestRunTrial:
    def test_deterministic(self):
        a = run_trial(TINY, 10, trial=3)
        b = run_trial(TINY, 10, trial=3)
        assert a == b

    def test_stats_sanity(self):
        stats = run_trial(TINY, 10, trial=0)
        assert set(stats) == set(Scenario)
        for s in stats.values():
            assert 0 <= s.n_associated <= s.n_users == 10
            assert 0.0 <= s.association_rate <= 1.0
            assert s.sum_accepted_bw >= 0.0
            assert 0.0 <= s.max_guarantee <= 1.0
            assert s.avg_bw_per_associated >= 0.0

    @pytest.mark.parametrize("n,trial", [(400, 0), (500, 1)])
    def test_budget_conservation(self, n, trial):
        stats = run_trial(DEFAULT_CONFIG, n, trial)
        sps = build_sps(DEFAULT_CONFIG)
        for s in stats.values():
            for sp, used in zip(sps, s.per_sp_accepted_bw):
                assert used <= sp.g_ba * sp.bw_total + 1e-9

    def test_expansion_never_loses_users_to_plain_weighting(self):
        stats = run_trial(DEFAULT_CONFIG, 400, 0)
        assert stats[Scenario.PT_EXPANSION].n_associated >= stats[Scenario.PT].n_associated

    def test_small_prelec_exponent_completes(self):
        # just above b_min the expansion target rounds to 1 at alpha = 0.3;
        # such rates must count as infeasible instead of aborting the trial
        stats = run_trial(replace(DEFAULT_CONFIG, prelec_alpha=0.3), 500, 0)
        for s in stats.values():
            assert math.isfinite(s.sum_sp_utility)
            assert math.isfinite(s.sum_user_utility)
            assert math.isfinite(s.avg_bw_per_associated)
            assert 0.0 <= s.association_rate <= 1.0


class TestRunPoint:
    def test_rows_shape_and_order(self):
        rows, stats = run_point(TINY, 5)
        assert [r.scenario for r in rows] == [s.value for s in Scenario]
        assert all(r.n == 5 for r in rows)
        assert all(r.trials == 2 for r in rows)
        assert len(stats) == 2
        for r in rows:
            assert 0.0 <= r.association_rate <= 1.0
            assert r.stderr_sp >= 0.0 and r.stderr_user >= 0.0

    def test_deterministic(self):
        rows_a, _ = run_point(TINY, 10)
        rows_b, _ = run_point(TINY, 10)
        assert rows_a == rows_b

    def test_single_trial_has_zero_stderr(self):
        cfg = replace(TINY, trials=1)
        rows, _ = run_point(cfg, 5)
        for r in rows:
            assert r.stderr_sp == 0.0
            assert r.stderr_user == 0.0

    def test_zero_activity_probability(self):
        cfg = replace(TINY, activity_prob=0.0)
        rows, _ = run_point(cfg, 8)
        for r in rows:
            assert r.association_rate == 0.0
            assert r.sum_sp_utility == 0.0
            assert r.sum_user_utility == 0.0
            assert r.avg_bw_per_user == 0.0


class TestRunSweep:
    def test_row_count_and_order(self):
        rows = run_sweep(TINY)
        assert len(rows) == len(TINY.sweep) * len(Scenario)
        expected = [(n, s.value) for n in TINY.sweep for s in Scenario]
        assert [(r.n, r.scenario) for r in rows] == expected

    def test_objective_scenario_ignores_weighting_parameter(self):
        rows_a = run_sweep(TINY)
        rows_b = run_sweep(replace(TINY, prelec_alpha=0.5))
        eut_a = [r for r in rows_a if r.scenario == Scenario.EUT.value]
        eut_b = [r for r in rows_b if r.scenario == Scenario.EUT.value]
        assert eut_a == eut_b


class TestEmission:
    def rows(self):
        return run_sweep(TINY)

    def test_csv_round_trip(self, tmp_path):
        rows = self.rows()
        path = tmp_path / "out.csv"
        emit(rows, "csv", path)
        text = path.read_text(encoding="utf-8")
        lines = text.strip().split("\n")
        assert lines[0] == CSV_HEADER
        assert len(lines) == len(rows) + 1
        assert load_rows(path, "csv") == rows

    def test_json_round_trip(self, tmp_path):
        rows = self.rows()
        path = tmp_path / "out.json"
        emit(rows, "json", path)
        records = json.loads(path.read_text(encoding="utf-8"))
        assert isinstance(records, list) and len(records) == len(rows)
        assert load_rows(path, "json") == rows

    def test_empty_rows_rejected(self, tmp_path):
        with pytest.raises(ValueError):
            emit([], "csv", tmp_path / "x.csv")

    def test_unknown_format_rejected(self, tmp_path):
        with pytest.raises(ValueError):
            emit(self.rows(), "xml", tmp_path / "x.xml")

    def test_unwritable_path_reports_target(self, tmp_path):
        missing = tmp_path / "no" / "such" / "dir" / "x.csv"
        with pytest.raises(OSError) as err:
            emit(self.rows(), "csv", missing)
        assert str(missing) in str(err.value)


class TestScenarioConfig:
    def test_dict_round_trip(self):
        assert ScenarioConfig.from_dict(DEFAULT_CONFIG.to_dict()) == DEFAULT_CONFIG

    def test_unknown_keys_rejected(self):
        payload = DEFAULT_CONFIG.to_dict()
        payload["bogus_knob"] = 1
        with pytest.raises(ValueError):
            ScenarioConfig.from_dict(payload)

    def test_validation(self):
        with pytest.raises(ValueError):
            replace(DEFAULT_CONFIG, n_users=0)
        with pytest.raises(ValueError):
            replace(DEFAULT_CONFIG, trials=0)
        with pytest.raises(ValueError):
            replace(DEFAULT_CONFIG, activity_prob=1.5)
        with pytest.raises(ValueError):
            replace(DEFAULT_CONFIG, sweep=(50, 0))

    @pytest.mark.parametrize("alpha", [0.0, 1.0, 1.5, -0.2])
    def test_prelec_alpha_outside_unit_interval_rejected(self, alpha):
        with pytest.raises(ValueError, match="prelec_alpha"):
            replace(DEFAULT_CONFIG, prelec_alpha=alpha)

    @pytest.mark.parametrize("side", [0.0, -1.0])
    def test_nonpositive_area_rejected(self, side):
        with pytest.raises(ValueError, match="area_side_m"):
            replace(DEFAULT_CONFIG, area_side_m=side)

    def test_empty_sweep_rejected(self):
        payload = DEFAULT_CONFIG.to_dict()
        payload["sweep"] = []
        with pytest.raises(ValueError, match="sweep"):
            ScenarioConfig.from_dict(payload)

    @pytest.mark.parametrize(
        "section, key, value, message",
        [
            ("wifi", "frequency_mhz", 5000.0, "wifi: frequency"),
            ("cellular", "beta", 0.9, "cellular: pricing exponent beta"),
            ("cellular", "g_ba", 1.5, "cellular: g_ba"),
            ("wifi", "antenna_height_m", 0.0, "wifi: antenna heights"),
            ("user", "b_min", 0.0, "user: b_min"),
            (None, "n_wifi", -2, "n_wifi"),
        ],
    )
    def test_invalid_field_rejected_at_load(self, section, key, value, message):
        # through the JSON path, before any trial runs
        payload = DEFAULT_CONFIG.to_dict()
        (payload[section] if section else payload)[key] = value
        with pytest.raises(ValueError, match=message) as err:
            ScenarioConfig.from_dict(payload)
        assert "\n" not in str(err.value)

    def test_shipped_default_file_matches_builtin(self):
        path = Path(__file__).resolve().parent.parent / "configs" / "default.json"
        assert ScenarioConfig.from_json_file(path) == DEFAULT_CONFIG


class TestGoldenOutput:
    """Byte-for-byte regression gate for changes that must not move results.

    tests/data/golden_sweep.csv holds the CSV of the default config with
    sweep=(50, 250, 500) and trials=2, as written by the scalar reference
    implementation.  Regenerate it only for a deliberate model change, and
    record the row diff when doing so.
    """

    def test_default_config_sweep_is_byte_identical(self, tmp_path):
        cfg = replace(DEFAULT_CONFIG, sweep=(50, 250, 500), trials=2)
        out = tmp_path / "rows.csv"
        emit(run_sweep(cfg), "csv", out)
        golden = Path(__file__).resolve().parent / "data" / "golden_sweep.csv"
        assert out.read_bytes() == golden.read_bytes()
