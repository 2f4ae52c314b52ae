"""Tests for topology generation, the sweep driver, and result emission."""

# declared types as text, as in the package, so loader messages read alike
from __future__ import annotations

import functools
import gc
import json
import math
import os
import random
import re
import subprocess
import sys
from collections import Counter
from dataclasses import asdict, dataclass, fields, replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import calls_named, link_bits, reference_link_state, walk, watch
from hetnetsim import equilibrium, harness
from hetnetsim.channel import LinkState, link_state
from hetnetsim.equilibrium import make_eut_bids, resolve_user_game
from hetnetsim.harness import (
    DEFAULT_CONFIG,
    Scenario,
    ScenarioConfig,
    SweepRow,
    _from_json,
    build_links,
    build_sps,
    emit,
    generate_topology,
    load_rows,
    run_point,
    run_sweep,
    run_trial,
    solve_trial,
)
from hetnetsim.model import (
    Bid,
    GameOutcome,
    NeClass,
    NoBid,
    SpParams,
    SpProfile,
    UserParams,
    UserProfile,
    sp_utility,
)
from hetnetsim.prospect import FIXED_POINT, DecisionModel

TINY = replace(DEFAULT_CONFIG, sweep=(5, 10), trials=2, n_users=6)
# one AP of the cellular class on the BS site: each user's two links, and so
# its two committed bids, are identical
COLOCATED = replace(
    DEFAULT_CONFIG, wifi=DEFAULT_CONFIG.cellular, n_wifi=1, wifi_ring_fraction=0.0
)


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
        # the positional layout the game reads: the BS first, then the APs
        cfg = DEFAULT_CONFIG
        sps = build_sps(cfg)
        assert len(sps) == 1 + cfg.n_wifi == 9
        center = (cfg.area_side_m / 2.0,) * 2
        assert sps[0] == SpProfile(position=center, **vars(cfg.cellular))
        assert all(sp == SpProfile(position=sp.position, **vars(cfg.wifi)) for sp in sps[1:])

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
            for sp, ln in zip(sps[1:], row[1:]):
                if dist(user.position, sp.position) > sp.coverage_radius:
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


def two_pass_links(users, sps, cfg) -> tuple[list[list[LinkState]], int]:
    """build_links from reference_link_state: both passes computed from
    scratch, then a fix-up that keeps a pair outside first-pass coverage at
    its first-pass record; also the number of those pairs that the split
    budget alone would have covered."""
    noise = cfg.noise_density_dbm_hz
    links_by_sp = []
    fixed = 0
    for sp in sps:
        reference = [reference_link_state(u, sp, noise) for u in users]
        n_covered = sum(ln.covered for ln in reference)
        bw_each = sp.g_ba * sp.bw_total / max(n_covered, 1)
        final = []
        for u, ref in zip(users, reference, strict=True):
            ln = reference_link_state(u, sp, noise, bw_max=bw_each)
            if not ref.covered:
                fixed += ln.covered
                ln = ref
            final.append(ln)
        links_by_sp.append(final)
    return [list(row) for row in zip(*links_by_sp)], fixed


_COORD = st.floats(0.0, 600.0)


def test_build_links_matches_the_two_pass_body():
    fixed_examples = []

    @settings(max_examples=150, deadline=None)
    @given(data=st.data())
    def check(data):
        n = data.draw(st.integers(1, 8), label="n")
        users = [
            UserProfile(
                position=data.draw(st.tuples(_COORD, _COORD)),
                active=data.draw(st.sampled_from([True, True, False])),
            )
            for _ in range(n)
        ]
        radius = data.draw(st.none() | st.floats(20.0, 400.0), label="radius")
        cfg = replace(
            DEFAULT_CONFIG,
            n_wifi=data.draw(st.integers(0, 3), label="n_wifi"),
            noise_density_dbm_hz=data.draw(st.floats(-180.0, -100.0), label="noise"),
            wifi=replace(DEFAULT_CONFIG.wifi, coverage_radius=radius),
        )
        # each SP's threshold just above one user's first-pass SNR, by less
        # than the gain of a split over n users, so that the second pass can
        # lift a pair that the first left outside
        sps = []
        for sp in build_sps(cfg):
            user = users[data.draw(st.integers(0, n - 1))]
            snr_db = 10.0 * math.log10(link_state(user, sp, cfg.noise_density_dbm_hz).mean_snr)
            margin = data.draw(st.floats(0.0, 10.0 * math.log10(n)))
            sps.append(replace(sp, coverage_snr_threshold_db=snr_db + margin))
        got = build_links(users, sps, cfg)
        want, fixed = two_pass_links(users, sps, cfg)
        assert all(is_record(ln, LinkState) for row in got for ln in row)
        assert [[*map(link_bits, row)] for row in got] == [[*map(link_bits, row)] for row in want]
        fixed_examples.append(fixed > 0)

    check()
    # some example has a pair that only the second pass covers
    assert any(fixed_examples)


def fresh_layout(cfg) -> list[SpProfile]:
    """build_sps's layout built anew, with no profile shared."""
    center = (cfg.area_side_m / 2.0, cfg.area_side_m / 2.0)
    sps = [SpProfile(position=center, **vars(cfg.cellular))]
    ring = cfg.wifi_ring_fraction * cfg.area_side_m
    for k in range(cfg.n_wifi):
        angle = 2.0 * math.pi * k / cfg.n_wifi
        pos = (center[0] + ring * math.cos(angle), center[1] + ring * math.sin(angle))
        sps.append(SpProfile(position=pos, **vars(cfg.wifi)))
    return sps


def _changed(value):
    """A valid value of an SpParams field other than value."""
    if value is None:
        return 50.0
    return 0.95 * value if value else 1.0


# one config per layout or radio field, each differing from TINY there alone
_LAYOUT_CHANGES = [
    pytest.param({"n_wifi": 3}, id="n_wifi"),
    pytest.param({"area_side_m": 500.0}, id="area_side_m"),
    pytest.param({"wifi_ring_fraction": 0.3}, id="wifi_ring_fraction"),
    *[
        pytest.param(
            {section: replace(params, **{f.name: _changed(getattr(params, f.name))})},
            id=f"{section}.{f.name}",
        )
        for section, params in (("cellular", TINY.cellular), ("wifi", TINY.wifi))
        for f in fields(SpParams)
    ],
]


class TestSpLayout:
    """build_sps hands every config with one layout the same profiles."""

    def test_trials_of_one_config_share_the_profiles(self):
        first, second = solve_trial(TINY, 5, 0).sps, solve_trial(TINY, 5, 1).sps
        assert first is not second
        assert all(a is b for a, b in zip(first, second, strict=True))
        assert first == fresh_layout(TINY)

    def test_fields_outside_the_layout_share_the_profiles(self):
        other = replace(
            TINY,
            seed=1,
            n_users=3,
            sweep=(7,),
            trials=1,
            prelec_alpha=0.5,
            noise_density_dbm_hz=-170.0,
            activity_prob=0.5,
            user=UserParams(delta=300.0),
        )
        assert all(a is b for a, b in zip(build_sps(TINY), build_sps(other), strict=True))

    @pytest.mark.parametrize("change", _LAYOUT_CHANGES)
    def test_a_different_layout_gets_its_own_profiles(self, change):
        cfg = replace(TINY, **change)
        own, tiny = build_sps(cfg), build_sps(TINY)
        assert own == fresh_layout(cfg) != tiny
        assert not any(a is b for a in own for b in tiny)
        assert build_sps(TINY) == fresh_layout(TINY)

    @pytest.mark.parametrize(
        "change",
        [
            pytest.param({"n_wifi": 3}, id="n_wifi"),
            pytest.param({"area_side_m": 500.0}, id="area_side_m"),
            pytest.param({"wifi": replace(TINY.wifi, tx_power_dbm=30.0)}, id="wifi.tx_power_dbm"),
            pytest.param(
                {"cellular": replace(TINY.cellular, bw_total=12.0)}, id="cellular.bw_total"
            ),
        ],
    )
    def test_rows_do_not_depend_on_an_earlier_sweep(self, change):
        tiny, other = replace(TINY, trials=1), replace(TINY, trials=1, **change)
        harness._layout_sps.cache_clear()
        tiny_first = run_sweep(tiny)
        other_second = run_sweep(other)
        harness._layout_sps.cache_clear()
        other_first = run_sweep(other)
        tiny_second = run_sweep(tiny)
        assert tiny_first == tiny_second
        assert other_first == other_second
        assert tiny_first != other_first

    def test_users_are_built_from_the_configs_parameters(self):
        cfg = replace(
            DEFAULT_CONFIG, user=UserParams(delta=120.0, theta=1.5, b_min=0.5), activity_prob=0.5
        )
        users, _ = generate_topology(cfg, np.random.default_rng(9), 40)
        assert {u.active for u in users} == {True, False}
        for u in users:
            want = UserProfile(position=u.position, active=u.active, **asdict(cfg.user))
            assert type(u) is UserProfile
            assert u == want and hash(u) == hash(want) and repr(u) == repr(want)
            assert asdict(u) == asdict(want)
        assert len({id(u) for u in users}) == len(users)

    def test_user_parameters_are_checked_for_every_trial(self):
        # a section altered after its checks ran still fails the trial
        bad = UserParams()
        object.__setattr__(bad, "theta", 0.5)
        cfg = replace(TINY, user=bad)
        with pytest.raises(ValueError, match="^theta must exceed 1, got 0.5$"):
            generate_topology(cfg, np.random.default_rng(9), 5)


class TestRunTrial:
    def test_deterministic(self):
        a = run_trial(TINY, 10, trial=3)
        b = run_trial(TINY, 10, trial=3)
        assert a == b

    def test_stats_sanity(self):
        rows = run_trial(TINY, 10, trial=0)
        assert set(rows) == set(Scenario)
        for scenario, r in rows.items():
            assert (r.n, r.scenario, r.trials) == (10, scenario.value, 1)
            assert r.stderr_sp == r.stderr_user == 0.0
            assert 0.0 <= r.association_rate <= 1.0
            assert (r.association_rate * 10).is_integer()
            assert r.avg_bw_per_user >= 0.0

    @pytest.mark.parametrize("n,trial", [(400, 0), (500, 1)])
    def test_budget_conservation(self, n, trial):
        solved = solve_trial(DEFAULT_CONFIG, n, trial)
        for scenario in Scenario:
            used = [0.0] * len(solved.sps)
            for outcome in solved[scenario]:
                p_c, p_w = outcome.strategy_draw
                bid_c, bid_w = outcome.bids
                if p_c:
                    used[0] += bid_c.bandwidth
                if p_w:
                    used[outcome.wifi_index] += bid_w.bandwidth
            for sp, bw in zip(solved.sps, used, strict=True):
                assert bw <= sp.g_ba * sp.bw_total + 1e-9

    def test_colocated_ap_reaches_the_mixed_equilibrium(self):
        # an objective game between the floor benefit and the doubling gap
        # of identical bids is Mixed0110
        solved = solve_trial(COLOCATED, 5, 0)
        eut = solved[Scenario.EUT]
        assert Counter(o.ne_class for o in eut) == {NeClass.BOTH11: 4, NeClass.MIXED0110: 1}
        for bids, outcome in zip(solved.bids, eut, strict=True):
            assert bids[0] == bids[1]
            if outcome.ne_class is not NeClass.MIXED0110:
                continue
            # each slot holds the committed bid or a silent draw, and each
            # provider is paid sp_utility of its drawn slot
            p_c, p_w = outcome.strategy_draw
            bid_c, bid_w = outcome.bids
            assert all(b == bids[0] or isinstance(b, NoBid) for b in outcome.bids)
            assert outcome.u_sp_c == sp_utility(p_c == 1, bid_c, solved.sps[0])
            assert outcome.u_sp_w == sp_utility(p_w == 1, bid_w, solved.sps[1])

    def test_mixed_draws_come_from_the_trials_second_stream(self, monkeypatch):
        # COLOCATED, whose one Mixed0110 game draws: the EUT games draw, in
        # user order, from the second child of the trial's seed sequence, and
        # a weighted game gets no generator at all
        cfg = COLOCATED
        original = harness.resolve_user_game
        eut_states, weighted_rngs = [], []

        def resolve(*args, **kwargs):
            rng = args[6] if len(args) > 6 else kwargs.get("rng")
            if args[4].is_pt:
                weighted_rngs.append(rng)
            else:
                eut_states.append(rng.bit_generator.state)
            return original(*args, **kwargs)

        monkeypatch.setattr(harness, "resolve_user_game", resolve)
        solved = solve_trial(cfg, 5, 0)
        assert weighted_rngs == [None] * (2 * 5)

        topology, draws = np.random.SeedSequence([cfg.seed, 5, 0]).spawn(2)
        users, sps = generate_topology(cfg, np.random.default_rng(topology), 5)
        links = build_links(users, sps, cfg)
        rng = np.random.default_rng(draws)
        states, want = [], []
        for user, row in zip(users, links, strict=True):
            states.append(rng.bit_generator.state)
            bids = make_eut_bids(user, sps, row)
            want.append(resolve_user_game(user, sps, row, bids, DecisionModel.eut(), rng=rng))
        assert solved[Scenario.EUT] == want
        # the generator, not only what its draws decided: each game starts
        # where the replay's does, which a wrong stream whose three draws
        # happen to give the same realization would not
        assert eut_states == states

    def test_expansion_never_loses_users_to_plain_weighting(self):
        rows = run_trial(DEFAULT_CONFIG, 400, 0)
        assert rows[Scenario.PT_EXPANSION].association_rate >= rows[Scenario.PT].association_rate

    def test_small_prelec_exponent_completes(self):
        # just above b_min the expansion target rounds to 1 at alpha = 0.3;
        # such rates must count as infeasible instead of aborting the trial
        rows = run_trial(replace(DEFAULT_CONFIG, prelec_alpha=0.3), 500, 0)
        for r in rows.values():
            assert math.isfinite(r.sum_sp_utility)
            assert math.isfinite(r.sum_user_utility)
            assert math.isfinite(r.avg_bw_per_user)
            assert 0.0 <= r.association_rate <= 1.0

    # trials down each branch of the trial path: the default ladder's two
    # ends, a Mixed0110 game's draw, no access point, idle users and a
    # strongly weighting exponent
    CYCLE_FREE = [
        (DEFAULT_CONFIG, 50),
        (DEFAULT_CONFIG, 500),
        (COLOCATED, 5),
        (replace(DEFAULT_CONFIG, n_wifi=0), 500),
        (replace(DEFAULT_CONFIG, activity_prob=0.6), 500),
        (replace(DEFAULT_CONFIG, prelec_alpha=0.4), 500),
    ]

    def test_trial_path_builds_no_reference_cycles(self, collector):
        # run_trial pauses the cyclic collector because reference counting
        # frees all of a trial's garbage; a cycle would stay alive until a
        # collection after the trial.  The first run of each config fills
        # its caches; the collector is off from the collection before the
        # checked runs until the one after them
        for cfg, n in self.CYCLE_FREE:
            run_trial(cfg, n, 0)
        gc.collect()
        gc.disable()
        for cfg, n in self.CYCLE_FREE:
            run_trial(cfg, n, 0)
        assert gc.collect() == 0
        assert gc.garbage == []

    def test_the_collector_is_paused_for_the_trial(self, monkeypatch, collector):
        # no collection runs inside a trial, the tally included, and the
        # collector is on again after it; at n=500 an unpaused trial runs
        # about 17
        seen, collections = [], []
        original = harness.solve_trial

        def solve(*args):
            seen.append(gc.isenabled())
            return original(*args)

        def count(phase, info):
            if phase == "start":
                collections.append(info["generation"])

        monkeypatch.setattr(harness, "solve_trial", solve)
        gc.enable()
        gc.callbacks.append(count)
        try:
            rows = run_trial(DEFAULT_CONFIG, 500, 0)
        finally:
            gc.callbacks.remove(count)
        assert (seen, collections) == ([False], [])
        assert gc.isenabled()
        # a caller that had paused the collector keeps it paused
        gc.disable()
        assert run_trial(DEFAULT_CONFIG, 500, 0) == rows
        assert not gc.isenabled()

    def test_the_collector_is_restored_when_the_trial_raises(self, monkeypatch, collector):
        def fail(*args):
            raise RuntimeError("trial failed")

        monkeypatch.setattr(harness, "solve_trial", fail)
        gc.enable()
        with pytest.raises(RuntimeError, match="^trial failed$"):
            run_trial(TINY, 10, 0)
        assert gc.isenabled()


@pytest.fixture
def collector():
    """Restores the cyclic collector's state after the test."""
    enabled = gc.isenabled()
    yield
    if enabled:
        gc.enable()
    else:
        gc.disable()


# The pool-expansion pass as first written: the oracle the harness's pass
# is compared against, outcome for outcome and retry for retry.
def reference_pool_expansion_pass(
    users: list[UserProfile],
    sps: list[SpProfile],
    links: list[list[LinkState]],
    all_bids: list[list],
    outcomes: list,
    model: DecisionModel,
    resolve,
) -> list:
    """Re-expand bids against each SP's pool share instead of its slice.
    Each retry calls resolve, given with resolve_user_game's signature; every
    test here gives production resolve_user_game, or a wrapper of it.

    The first resolution pass prices expansion against the contention-level
    per-user budget slice, which the committed bid already consumes in full
    whenever expansion is needed at all.  But slices of users the SP failed
    to retain go unsold, so the bandwidth available per retained user is the
    pool divided by the head count actually served, not by the coverage head
    count.  Two follow-up steps exploit that:

      * rescue: every in-force bid whose guarantee sits above the weighting
        fixed point but was rejected for lack of expansion headroom is
        retried at a conservative share, the pool split as if every such
        rescue succeeded;
      * re-expansion: all served bids are then re-expanded at the final
        share, the pool split over the users actually retained.

    Each SP ends up allocating at most (pool / served) to each of its served
    users, so total allocation never exceeds the discounted pool.
    """
    pools = [sp.g_ba * sp.bw_total for sp in sps]

    def slots(outcome) -> list[tuple[int, bool]]:
        p_c, p_w = outcome.strategy_draw
        pairs = [(0, bool(p_c))]
        if outcome.wifi_index is not None:
            pairs.append((outcome.wifi_index, bool(p_w)))
        return pairs

    def triggered(i: int, j: int) -> bool:
        bid = all_bids[i][j]
        return isinstance(bid, Bid) and bid.guarantee > FIXED_POINT

    def rescale(i: int, sanctioned: set[int], caps: list[float]):
        row = list(links[i])
        changed = False
        for j in sanctioned:
            ln = row[j]
            if ln.covered and caps[j] > ln.bw_max:
                row[j] = ln._replace(bw_max=caps[j], b_max=caps[j] * math.log2(1.0 + ln.mean_snr))
                changed = True
        return row, changed

    def accepted_set(outcome) -> set[int]:
        return {j for j, accepted in slots(outcome) if accepted}

    served = [0] * len(sps)
    candidates = [0] * len(sps)
    sanctioned: list[set[int]] = [set() for _ in outcomes]
    for i, outcome in enumerate(outcomes):
        for j, accepted in slots(outcome):
            if accepted:
                served[j] += 1
                sanctioned[i].add(j)
            elif triggered(i, j):
                candidates[j] += 1

    def caps_for(counts: list[int]) -> list[float]:
        return [
            pools[j] / counts[j] if counts[j] else 0.0 for j in range(len(sps))
        ]

    # Rescue at the conservative share.  Only the failed slots are scaled,
    # so already-accepted offers keep their first-pass pricing; a retry is
    # adopted only when it strictly adds slots from the wanted set, which
    # keeps the served head counts exact and monotone.
    caps = caps_for([served[j] + candidates[j] for j in range(len(sps))])
    result = list(outcomes)
    for i, outcome in enumerate(outcomes):
        wanted = {j for j, accepted in slots(outcome) if not accepted and triggered(i, j)}
        if not wanted:
            continue
        row, changed = rescale(i, wanted, caps)
        if not changed:
            continue
        retried = resolve(users[i], sps, row, all_bids[i], model, expansion_enabled=True)
        gained = accepted_set(retried) - sanctioned[i]
        if not gained or not gained <= wanted:
            continue
        if not sanctioned[i] <= accepted_set(retried):
            continue
        result[i] = retried
        for j in gained:
            served[j] += 1
        sanctioned[i] |= gained

    # Re-expand everything served at the final share.  Adopt the retry only
    # when the acceptance pattern is unchanged; otherwise the prior outcome
    # stands, whose allocations were priced at caps no larger than these.
    caps = caps_for(served)
    for i, outcome in enumerate(result):
        grown = {j for j in sanctioned[i] if triggered(i, j)}
        if not grown:
            continue
        row, changed = rescale(i, grown, caps)
        if not changed:
            continue
        retried = resolve(users[i], sps, row, all_bids[i], model, expansion_enabled=True)
        if accepted_set(retried) == accepted_set(outcome):
            result[i] = retried
    return result


STRATEGIES = [(0, 0), (0, 1), (1, 0), (1, 1)]


def logged(resolve):
    """resolve, and the log of the (user, links row) each call resolved, in
    order."""
    log = []

    def logged_resolve(user, sps, links, *rest, **kwargs):
        log.append((user, links))
        return resolve(user, sps, links, *rest, **kwargs)

    return logged_resolve, log


def assert_pool_pass_matches_reference(args, make_resolve):
    """Run the harness's pass and the reference on the same arguments, each
    with a fresh make_resolve(), and return the harness's outcomes."""
    outcomes = args[4]
    resolve, want_log = logged(make_resolve())
    want = reference_pool_expansion_pass(*args, resolve)
    resolve, got_log = logged(make_resolve())
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(harness, "resolve_user_game", resolve)
        got = harness._pool_expansion_pass(*args)
    assert got == want
    # adopted retries are new objects; every other outcome is passed through
    assert [g is o for g, o in zip(got, outcomes)] == [w is o for w, o in zip(want, outcomes)]
    assert got_log == want_log
    return got


def pool_pass_call(watched_trials, cfg, n: int, trial: int, patch=None):
    """solve_trial(cfg, n, trial)'s one pool pass call, the resolve_user_game
    calls of its retries inside: the watched default trial's, else watched
    through patch in a run of its own."""
    if (cfg, trial) == (DEFAULT_CONFIG, 0) and n in watched_trials:
        calls = watched_trials[n].calls
    else:
        calls = watch(patch, [(harness, "_pool_expansion_pass"), (harness, "resolve_user_game")])
        solve_trial(cfg, n, trial)
    (call,) = calls_named(calls, "_pool_expansion_pass")
    return call


@pytest.mark.parametrize("activity_prob", [1.0, 0.6])
@pytest.mark.parametrize("prelec_alpha", [0.3, 0.7])
@pytest.mark.parametrize("trial", [0, 1])
@pytest.mark.parametrize("n", [250, 400, 500])
def test_pool_pass_matches_reference(
    monkeypatch, watched_trials, n, trial, prelec_alpha, activity_prob
):
    # both passes run on the PT_EXPANSION first-pass outcomes of one
    # solve_trial; all but one of these cases retry users, and most adopt
    # some retries and refuse others
    cfg = replace(DEFAULT_CONFIG, prelec_alpha=prelec_alpha, activity_prob=activity_prob)
    args = pool_pass_call(watched_trials, cfg, n, trial, monkeypatch).args
    assert_pool_pass_matches_reference(args, lambda: equilibrium.resolve_user_game)


@pytest.mark.parametrize("prelec_alpha", [0.3, 0.7])
@pytest.mark.parametrize("trial", [0, 1])
def test_pool_retries_keep_the_first_pass_wifi_slot(
    monkeypatch, watched_trials, trial, prelec_alpha
):
    # the pass fixes each user's slots from its first-pass outcome: a retry
    # re-resolves the same committed bids under the same model, and
    # select_wifi_sp reads no link, so it picks the same AP
    cfg = replace(DEFAULT_CONFIG, prelec_alpha=prelec_alpha)
    pool_pass = pool_pass_call(watched_trials, cfg, 500, trial, monkeypatch)
    users, outcomes = pool_pass.args[0], pool_pass.args[4]
    first = {id(u): o.wifi_index for u, o in zip(users, outcomes, strict=True)}
    retried = [(first[id(call.args[0])], call.result.wifi_index) for call in pool_pass.inner]
    assert any(wifi is not None for wifi, _ in retried)
    assert all(got == want for want, got in retried)


@pytest.mark.parametrize("seed", range(4))
def test_pool_pass_matches_reference_whatever_a_retry_accepts(seed, watched_trials):
    # In 400 probed trials (prelec_alpha 0.2 to 0.9, activity_prob 0.4 to 1,
    # two seeds, n 100 to 500) no re-expansion retry changed what its user
    # accepts, so the check that refuses such a retry never bound.
    # Redrawing every retry's acceptance pattern at random reaches each
    # adoption branch of both passes.
    def make_resolve():
        rng = random.Random(seed)

        def redrawn(*args, **kwargs):
            outcome = equilibrium.resolve_user_game(*args, **kwargs)
            return outcome._replace(strategy_draw=rng.choice(STRATEGIES))

        return redrawn

    args = pool_pass_call(watched_trials, DEFAULT_CONFIG, 500, 0).args
    got = assert_pool_pass_matches_reference(args, make_resolve)
    assert any(g is not o for g, o in zip(got, args[4]))


@settings(max_examples=12, deadline=None)
@given(
    n=st.integers(1, 500),
    trial=st.integers(0, 19),
    prelec_alpha=st.floats(0.2, 0.95),
    activity_prob=st.floats(0.3, 1.0),
)
def test_each_served_user_gets_at_most_its_pool_share(n, trial, prelec_alpha, activity_prob):
    # the pool pass's promise, which the first pass keeps too: each provider
    # allocates at most g_ba * bw_total / served to each user it serves
    cfg = replace(DEFAULT_CONFIG, prelec_alpha=prelec_alpha, activity_prob=activity_prob)
    solved = solve_trial(cfg, n, trial)
    for scenario in Scenario:
        grants = [
            (j, bid.bandwidth)
            for outcome in solved[scenario]
            for j, p, bid in zip((0, outcome.wifi_index), outcome.strategy_draw, outcome.bids)
            if p
        ]
        served = Counter(j for j, _ in grants)
        for j, bandwidth in grants:
            sp = solved.sps[j]
            assert bandwidth <= sp.g_ba * sp.bw_total / served[j] * (1 + 1e-9), (scenario, j)


class TestCallContract:
    """The calls a trial makes per user-SP pair and per user game, and the
    module globals they go through, read from the watched default trials:
    the benchmark's per-layer trace wraps those names and fingerprints the
    counts, so a speed-only change must keep both."""

    @staticmethod
    def counts(calls) -> Counter:
        """Calls per name in the tree, and per "<name> Bid" those that
        returned a Bid."""
        every = list(walk(calls))
        bids = (f"{call.name} Bid" for call in every if isinstance(call.result, Bid))
        return Counter(call.name for call in every) + Counter(bids)

    def test_per_pair_and_per_game_counts(self, watched_trials):
        n = 50
        pairs = n * (1 + DEFAULT_CONFIG.n_wifi)
        calls = self.counts(watched_trials[n].calls)
        assert calls["link_state"] == 2 * pairs
        assert calls["optimize_bid"] == pairs
        # one game per user and scenario (no pool retry at this load), and
        # one WiFi pre-selection per game
        assert calls["resolve_user_game"] == len(Scenario) * n
        assert calls["select_wifi_sp"] == calls["resolve_user_game"]
        # the counts the default n=50 trial 0 made when they were pinned: a
        # classifier change that reroutes games through the best response,
        # or an expansion change, moves them
        assert calls["best_response"] == 125
        assert calls["expand_bw_pt"] == 75
        # watching changes no row
        assert run_trial(DEFAULT_CONFIG, n, 0) == watched_trials[n].rows

    def test_rate_conceding_rebid_goes_through_equilibrium(self, watched_trials):
        # the expansion layer of the default n=500 trial 0 as it was pinned:
        # calls to expand_bw_pt and to the rate-conceding rebid, and how
        # many of each returned a Bid; a change to either moves them
        calls = self.counts(watched_trials[500].calls)
        assert calls["expand_bw_pt"] == 348
        assert calls["expand_bw_pt Bid"] == 179
        assert calls["expansion_rebid"] == 169
        assert calls["expansion_rebid Bid"] == 131


def is_record(x, cls) -> bool:
    """x is a cls with every field: the trial builds its records through
    tuple.__new__, which does not check the field count."""
    return type(x) is cls and len(x) == len(cls._fields)


class TestRecords:
    """Links and outcomes as the trial builds them: LinkState rows from
    build_links and from the pool pass's widening, and outcomes that carry
    the WiFi pre-selection they were resolved with."""

    def test_build_links_rows_are_link_states(self):
        users, sps = generate_topology(DEFAULT_CONFIG, np.random.default_rng(3), 40)
        links = build_links(users, sps, DEFAULT_CONFIG)
        assert len(links) == len(users)
        assert all(len(row) == len(sps) for row in links)
        assert all(is_record(ln, LinkState) for row in links for ln in row)

    @pytest.mark.parametrize("n", [50, 500])
    def test_trial_outcomes_are_game_outcomes(self, n, watched_trials):
        # each game's outcome as resolve_user_game built it, the pool pass's
        # retries included, and the trial's final outcomes
        resolved = calls_named(watched_trials[n].calls, "resolve_user_game")
        assert all(is_record(call.result, GameOutcome) for call in resolved)
        solved = watched_trials[n].solution
        assert list(solved.outcomes) == list(Scenario)
        for scenario in Scenario:
            assert len(solved[scenario]) == n
            assert all(is_record(o, GameOutcome) for o in solved[scenario])

    def test_pool_pass_widened_rows_are_link_states(self, watched_trials):
        # each retry's row beside its user's first-pass links
        pool_pass = pool_pass_call(watched_trials, DEFAULT_CONFIG, 500, 0)
        users, _, links = pool_pass.args[:3]
        index = {id(u): i for i, u in enumerate(users)}
        retried = [
            (links[index[id(call.args[0])]], call.args[2])
            for call in calls_named(pool_pass.inner, "resolve_user_game")
        ]
        assert retried
        for first, row in retried:
            assert all(is_record(ln, LinkState) for ln in row)
            widened = [(old, new) for old, new in zip(first, row, strict=True) if new != old]
            assert widened
            for old, new in widened:
                assert new.covered and old.covered
                assert (new.path_loss_db, new.mean_snr) == (old.path_loss_db, old.mean_snr)
                assert new.bw_max > old.bw_max
                assert new.b_max == new.bw_max * math.log2(1.0 + new.mean_snr)

    def test_outcomes_carry_the_selected_wifi_index(self, watched_trials):
        # each game's outcome beside the pre-selection made inside it
        chosen, recorded = [], []
        for call in calls_named(watched_trials[500].calls, "resolve_user_game"):
            (select,) = calls_named(call.inner, "select_wifi_sp")
            chosen.append(select.result)
            recorded.append(call.result.wifi_index)
        assert recorded == chosen
        assert None in chosen
        assert len(set(chosen)) == 1 + DEFAULT_CONFIG.n_wifi


# loads on both sides of the capacity knee, so the shuffled runs include
# pool-pass retries, and a second layout whose trials, run in between, swap
# the cached SP profiles
ORDER_CONFIG = replace(DEFAULT_CONFIG, sweep=(8, 400), trials=2)
OTHER_LAYOUT = replace(ORDER_CONFIG, n_wifi=5, area_side_m=800.0)
ORDER_PAIRS = [
    (cfg, n, t)
    for cfg in (ORDER_CONFIG, OTHER_LAYOUT)
    for n in cfg.sweep
    for t in range(cfg.trials)
]


@functools.cache
def in_order_rows() -> dict:
    return {pair: run_trial(*pair) for pair in ORDER_PAIRS}


@settings(max_examples=8, deadline=None)
@given(
    order=st.permutations(ORDER_PAIRS),
    paused=st.lists(st.booleans(), min_size=len(ORDER_PAIRS), max_size=len(ORDER_PAIRS)),
)
def test_trial_rows_do_not_depend_on_trial_order(order, paused):
    # each trial runs with the caller's collector on or paused, and hands
    # it back as it found it
    want = in_order_rows()
    enabled = gc.isenabled()
    try:
        for pair, pause in zip(order, paused, strict=True):
            if pause:
                gc.disable()
            else:
                gc.enable()
            got = run_trial(*pair)
            assert gc.isenabled() is not pause
            assert list(got) == list(Scenario)
            assert got == want[pair], pair[1:]
    finally:
        if enabled:
            gc.enable()
        else:
            gc.disable()


class TestRunPoint:
    def test_rows_shape_and_order(self):
        rows = run_point(TINY, 5)
        assert [r.scenario for r in rows] == [s.value for s in Scenario]
        assert all(r.n == 5 for r in rows)
        assert all(r.trials == 2 for r in rows)
        for r in rows:
            assert 0.0 <= r.association_rate <= 1.0
            assert r.stderr_sp >= 0.0 and r.stderr_user >= 0.0

    def test_deterministic(self):
        rows_a = run_point(TINY, 10)
        rows_b = run_point(TINY, 10)
        assert rows_a == rows_b

    def test_single_trial_has_zero_stderr(self):
        cfg = replace(TINY, trials=1)
        rows = run_point(cfg, 5)
        for r in rows:
            assert r.stderr_sp == 0.0
            assert r.stderr_user == 0.0

    @pytest.mark.parametrize("n", [50, 300])
    def test_rows_aggregate_the_trials_rows(self, n):
        # one trial's rows pass through as they are; over three trials each
        # mean column is numpy's mean, and each stderr numpy's std, of the
        # trials' one-trial rows in trial order
        first = list(run_trial(DEFAULT_CONFIG, n, 0).values())
        assert run_point(replace(DEFAULT_CONFIG, trials=1), n) == first
        cfg = replace(DEFAULT_CONFIG, trials=3)
        trials = [run_trial(cfg, n, t) for t in range(3)]
        columns = ("sum_sp_utility", "sum_user_utility", "avg_bw_per_user", "association_rate")
        for got, scenario in zip(run_point(cfg, n), Scenario, strict=True):
            one = [t[scenario] for t in trials]
            sp, user, bw, assoc = (np.array([getattr(r, f) for r in one]) for f in columns)
            means = [float(np.mean(c)) for c in (sp, user, bw, assoc)]
            stderrs = [float(np.std(c, ddof=1) / math.sqrt(3)) for c in (sp, user)]
            assert got == SweepRow(n, scenario.value, *means, 3, *stderrs)

    def test_zero_activity_probability(self):
        cfg = replace(TINY, activity_prob=0.0)
        rows = run_point(cfg, 8)
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
        committed = Path(__file__).resolve().parent / "data" / "default_sweep.csv"
        assert lines[0] == committed.read_text(encoding="utf-8").split("\n", 1)[0]
        assert len(lines) == len(rows) + 1
        assert load_rows(path, "csv") == rows

    def test_json_round_trip(self, tmp_path):
        rows = self.rows()
        path = tmp_path / "out.json"
        emit(rows, "json", path)
        records = json.loads(path.read_text(encoding="utf-8"))
        assert isinstance(records, list) and len(records) == len(rows)
        assert load_rows(path, "json") == rows

    @pytest.mark.parametrize(
        "key, value, message",
        [
            ("n", "50", "row 0: n: expected int, got '50'"),
            ("trials", 1.5, "row 0: trials: expected int, got 1.5"),
            ("sum_user_utility", None, "row 0: sum_user_utility: expected float, got None"),
            ("n", True, "row 0: n: expected int, got True"),
            ("scenario", 1, "row 0: scenario: expected str, got 1"),
            ("avg_bw_per_user", math.inf, "row 0: avg_bw_per_user: expected float, got inf"),
        ],
    )
    def test_json_rows_are_type_checked(self, tmp_path, key, value, message):
        row = SweepRow(50, "EUT", 1.0, 2.0, 0.5, 0.9, 1, 0.0, 0.0)
        path = tmp_path / "bad.json"
        path.write_text(json.dumps([{**asdict(row), key: value}]), encoding="utf-8")
        with pytest.raises(ValueError) as err:
            load_rows(path, "json")
        assert str(err.value) == message

    @pytest.mark.parametrize(
        "record, message",
        [
            ({"extra": 1}, "row 0: unknown config keys: ['extra']"),
            ({"trials": None}, "row 0: missing config keys: ['trials']"),
            (3, "row 0: expected a JSON object, got 3"),
        ],
    )
    def test_json_row_shape_is_checked(self, tmp_path, record, message):
        # a record names every SweepRow field and no other; a None in the
        # override drops the key
        if isinstance(record, dict):
            base = asdict(SweepRow(50, "EUT", 1.0, 2.0, 0.5, 0.9, 1, 0.0, 0.0))
            record = {k: v for k, v in {**base, **record}.items() if v is not None}
        path = tmp_path / "bad.json"
        path.write_text(json.dumps([record]), encoding="utf-8")
        with pytest.raises(ValueError) as err:
            load_rows(path, "json")
        assert str(err.value) == message

    @pytest.mark.parametrize(
        "key, text, message",
        [
            ("avg_bw_per_user", "nan", "line 2: avg_bw_per_user: expected float, got nan"),
            ("sum_sp_utility", "-inf", "line 2: sum_sp_utility: expected float, got -inf"),
            ("trials", "1.5", "line 2: trials: expected int, got 1.5"),
            ("n", "fifty", "line 2: n: expected int, got 'fifty'"),
            ("stderr_sp", "", "line 2: stderr_sp: expected float, got ''"),
            ("sum_sp_utility", None, "line 2: missing config keys: ['sum_sp_utility']"),
            ("cost", "1.0", "line 2: unknown config keys: ['cost']"),
        ],
    )
    def test_csv_rows_are_checked_as_json_rows_are(self, tmp_path, key, text, message):
        # each cell is parsed by its column's type and the record checked by
        # the JSON row loader; a None drops the column
        row = SweepRow(50, "EUT", 1.0, 2.0, 0.5, 0.9, 1, 0.0, 0.0)
        cells = {**{k: str(v) for k, v in asdict(row).items()}, key: text}
        cells = {k: v for k, v in cells.items() if v is not None}
        path = tmp_path / "bad.csv"
        path.write_text(f"{','.join(cells)}\n{','.join(cells.values())}\n", encoding="utf-8")
        with pytest.raises(ValueError) as err:
            load_rows(path, "csv")
        assert str(err.value) == message

    @pytest.mark.parametrize(
        "edit, message",
        [
            (lambda line: line + ",7", "line 3: 10 cells, header has 9"),
            (lambda line: line.rsplit(",", 1)[0], "line 3: 8 cells, header has 9"),
            (
                lambda line: line.replace(",0.5,", ",nan,"),
                "line 3: avg_bw_per_user: expected float, got nan",
            ),
        ],
        ids=["extra-cell", "missing-cell", "nan"],
    )
    def test_csv_errors_name_the_line(self, tmp_path, edit, message):
        # the second data row is line 3 of the file; the blank line after
        # it is skipped
        path = tmp_path / "rows.csv"
        emit([SweepRow(50, "EUT", 1.0, 2.0, 0.5, 0.9, 1, 0.0, 0.0)] * 2, "csv", path)
        header, good, bad = path.read_text(encoding="utf-8").splitlines()
        path.write_text(f"{header}\n{good}\n{edit(bad)}\n\n", encoding="utf-8")
        with pytest.raises(ValueError) as err:
            load_rows(path, "csv")
        assert str(err.value) == message

    def test_json_errors_name_the_index(self, tmp_path):
        good = asdict(SweepRow(50, "EUT", 1.0, 2.0, 0.5, 0.9, 1, 0.0, 0.0))
        path = tmp_path / "rows.json"
        path.write_text(json.dumps([good, {**good, "trials": 0.5}]), encoding="utf-8")
        with pytest.raises(ValueError) as err:
            load_rows(path, "json")
        assert str(err.value) == "row 1: trials: expected int, got 0.5"
        path.write_text(json.dumps(good), encoding="utf-8")
        with pytest.raises(ValueError) as err:
            load_rows(path, "json")
        assert str(err.value) == "rows: expected a JSON array, got dict"

    def test_empty_rows_rejected(self, tmp_path):
        with pytest.raises(ValueError):
            emit([], "csv", tmp_path / "x.csv")

    def test_unknown_format_rejected(self, tmp_path):
        message = "unknown format 'xml'; expected 'csv' or 'json'"
        with pytest.raises(ValueError, match=message):
            emit(self.rows(), "xml", tmp_path / "x.xml")
        # checked before the file is opened
        with pytest.raises(ValueError, match=message):
            load_rows(tmp_path / "x.xml", "xml")

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

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    @pytest.mark.parametrize(
        "key",
        [
            "area_side_m",
            "wifi_ring_fraction",
            "prelec_alpha",
            "noise_density_dbm_hz",
            "activity_prob",
        ],
    )
    def test_non_finite_field_rejected(self, key, bad):
        # replace(DEFAULT_CONFIG, area_side_m=nan) used to build, and its
        # trials returned all-zero tallies
        with pytest.raises(ValueError, match=f"^{key} must be finite, got {bad}$"):
            replace(DEFAULT_CONFIG, **{key: bad})

    def test_non_finite_load_rejected(self):
        with pytest.raises(ValueError, match="^sweep must be finite, got inf$"):
            replace(DEFAULT_CONFIG, sweep=(50, math.inf))

    @pytest.mark.parametrize(
        "key, value, bad",
        [
            ("seed", 1.5, 1.5),
            ("n_users", 50.0, 50.0),
            ("n_wifi", True, True),
            ("trials", 2.5, 2.5),
            ("sweep", (50, True), True),
        ],
    )
    def test_non_integer_count_rejected(self, key, value, bad):
        # replace(DEFAULT_CONFIG, trials=2.5) used to build, and run_sweep
        # then failed at its first trial
        with pytest.raises(ValueError, match=re.escape(f"{key} must be an integer, got {bad!r}")):
            replace(DEFAULT_CONFIG, **{key: value})

    def test_non_finite_section_value_rejected(self):
        with pytest.raises(ValueError, match="^delta must be finite"):
            replace(DEFAULT_CONFIG, user=UserParams(delta=math.inf))
        with pytest.raises(ValueError, match="^alpha must be finite"):
            replace(DEFAULT_CONFIG.wifi, alpha=math.nan)

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
            (None, "seed", -3, "seed must be nonnegative, got -3"),
            # the declared field types: a section is an object, an int field
            # takes no fraction, a float field no string or bool, and a
            # section knows its keys
            (None, "user", 5, "user: expected a JSON object"),
            (None, "cellular", [1], "cellular: expected a JSON object"),
            (None, "trials", 2.5, "trials: expected int"),
            (None, "n_wifi", 2.5, "n_wifi: expected int"),
            (None, "sweep", [50.7], "sweep: expected a list of int"),
            (None, "sweep", [50.0], "sweep: expected a list of int"),
            (None, "sweep", "abc", "sweep: expected a list of int"),
            ("wifi", "tx_power_dbm", "23", "wifi: tx_power_dbm: expected float"),
            ("wifi", "coverage_radius", "91", "wifi: coverage_radius: expected float | None"),
            (None, "noise_density_dbm_hz", "x", "noise_density_dbm_hz: expected float"),
            ("user", "delta", True, "user: delta: expected float"),
            # Python's json reads NaN and Infinity; a float field takes
            # neither, and a nullable one takes null but not NaN
            (None, "area_side_m", math.nan, "area_side_m: expected float, got nan"),
            (None, "noise_density_dbm_hz", math.inf, "noise_density_dbm_hz: expected float"),
            ("user", "delta", math.inf, "user: delta: expected float, got inf"),
            ("cellular", "tx_power_dbm", -math.inf, "cellular: tx_power_dbm: expected float"),
            ("wifi", "coverage_radius", math.nan, "wifi: coverage_radius: expected float | None"),
            ("wifi", "coverage_radius", -91.44, "wifi: coverage_radius must be positive or null"),
            ("cellular", "coverage_radius", 0.0, "cellular: coverage_radius must be positive or"),
            ("cellular", "bogus", 1, r"cellular: unknown config keys: \['bogus'\]"),
            # a best-link SNR beyond the float range: the mean SNR overflowed
            # mid-run
            (
                "cellular",
                "tx_power_dbm",
                4000.0,
                "cellular: tx_power_dbm 4000.0 dBm over noise_density_dbm_hz -174.0 dBm/Hz "
                "gives a link SNR beyond the float range$",
            ),
            ("wifi", "tx_power_dbm", 4000.0, "wifi: tx_power_dbm 4000.0 dBm over"),
            (
                None,
                "noise_density_dbm_hz",
                -4000.0,
                "cellular: tx_power_dbm 43.0 dBm over noise_density_dbm_hz -4000.0 dBm/Hz",
            ),
        ],
    )
    def test_invalid_field_rejected_at_load(self, section, key, value, message):
        # through the JSON path, before any trial runs
        payload = DEFAULT_CONFIG.to_dict()
        (payload[section] if section else payload)[key] = value
        with pytest.raises(ValueError, match=f"^{message}") as err:
            ScenarioConfig.from_dict(payload)
        text = str(err.value)
        assert "\n" not in text
        # the section and the key are named once
        assert text.count(section or key) == 1

    @pytest.mark.parametrize("section", ["cellular", "wifi"])
    def test_radio_range_ends_where_the_best_link_overflows(self, section):
        small = replace(TINY, sweep=(5,), n_users=4, trials=1)

        def with_power(tx_power_dbm):
            params = replace(getattr(small, section), tx_power_dbm=tx_power_dbm)
            return replace(small, **{section: params})

        def best_link(tx_power_dbm):
            # a user at the 1 m clamp on the pool split over the largest load
            sp = SpProfile(**{**vars(getattr(small, section)), "tx_power_dbm": tx_power_dbm})
            user = UserProfile(position=(1.0, 0.0))
            return link_state(user, sp, small.noise_density_dbm_hz, sp.g_ba * sp.bw_total / 5)

        # 400 dBm ran before the range was checked, and still does
        run_sweep(with_power(400.0))
        lo, hi = 400.0, 4000.0
        while math.nextafter(lo, hi) < hi:
            mid = (lo + hi) / 2.0
            try:
                with_power(mid)
                lo = mid
            except ValueError:
                hi = mid
        best_link(lo)
        run_sweep(with_power(lo))
        with pytest.raises(OverflowError):
            best_link(hi)
        with pytest.raises(ValueError, match=f"^{section}: tx_power_dbm {hi} dBm over"):
            with_power(hi)

    def test_partial_section_names_missing_keys(self):
        payload = DEFAULT_CONFIG.to_dict()
        del payload["wifi"]["alpha"]
        with pytest.raises(ValueError, match=r"^wifi: missing config keys: \['alpha'\]$"):
            ScenarioConfig.from_dict(payload)

    def test_json_numbers_and_null_load_as_declared(self):
        payload = DEFAULT_CONFIG.to_dict()
        payload["area_side_m"] = 600
        payload["cellular"]["tx_power_dbm"] = 43
        payload["wifi"]["coverage_radius"] = None
        payload["user"] = {"b_min": 2}
        cfg = ScenarioConfig.from_dict(payload)
        assert cfg.area_side_m == 600 and cfg.cellular.tx_power_dbm == 43
        assert cfg.wifi.coverage_radius is None
        assert cfg.user == DEFAULT_CONFIG.user

    def test_shipped_default_file_matches_builtin(self):
        path = Path(__file__).resolve().parent.parent / "configs" / "default.json"
        assert ScenarioConfig.from_json_file(path) == DEFAULT_CONFIG

    def test_shipped_default_file_is_the_schema(self):
        # every key written out, in declaration order, at its default
        path = Path(__file__).resolve().parent.parent / "configs" / "default.json"
        shipped = json.loads(path.read_text(encoding="utf-8"))
        schema = DEFAULT_CONFIG.to_dict()
        assert shipped == schema
        assert list(shipped) == list(schema)
        for section in ("user", "cellular", "wifi"):
            assert list(shipped[section]) == list(schema[section])


@dataclass(frozen=True)
class _Inner:
    x: float


@dataclass(frozen=True)
class _Outer:
    inner: _Inner | None = None


class TestOptionalSection:
    """A field typed `Section | None` takes null, or an object loaded as
    Section under the same rules as any other section."""

    @pytest.mark.parametrize(
        "data, want",
        [
            ({}, _Outer(None)),
            ({"inner": None}, _Outer(None)),
            ({"inner": {"x": 1.5}}, _Outer(_Inner(1.5))),
        ],
    )
    def test_null_absent_or_object_accepted(self, data, want):
        assert _from_json(_Outer, data, "outer") == want

    @pytest.mark.parametrize(
        "inner, message",
        [
            ({"x": "a"}, "inner: x: expected float, got 'a'"),
            ({}, "inner: missing config keys: ['x']"),
            (3, "inner: expected a JSON object, got 3"),
        ],
    )
    def test_malformed_section_rejected(self, inner, message):
        with pytest.raises(ValueError) as err:
            _from_json(_Outer, {"inner": inner}, "outer")
        assert str(err.value) == message


class TestGoldenOutput:
    """Byte-for-byte regression gate for changes that must not move results.

    tests/data/golden_sweep.csv holds the CSV of the default config with
    sweep=(50, 250, 500) and trials=2.  Every value that reaches a row is
    computed with Python's math module (the platform libm), or by numpy's
    random generator, its correctly rounded arithmetic and its mean and std;
    never by numpy's log10, log or power, whose last bit depends on the SIMD
    kernels numpy dispatches on the host CPU.  Regenerate the file only for
    a deliberate model change, and record the row diff when doing so.
    """

    GOLDEN = Path(__file__).resolve().parent / "data" / "golden_sweep.csv"
    CONFIG = replace(DEFAULT_CONFIG, sweep=(50, 250, 500), trials=2)

    def test_default_config_sweep_is_byte_identical(self, tmp_path):
        out = tmp_path / "rows.csv"
        emit(run_sweep(self.CONFIG), "csv", out)
        assert out.read_bytes() == self.GOLDEN.read_bytes()

    @pytest.mark.parametrize(
        "disabled", ["X86_V4 AVX512_ICL AVX512_SPR", "X86_V3 X86_V4 AVX512_ICL AVX512_SPR"]
    )
    def test_rows_do_not_depend_on_numpy_cpu_dispatch(self, tmp_path, disabled):
        # numpy reads NPY_DISABLE_CPU_FEATURES at import and ignores the
        # names of features the host lacks, so the CLI sweep in a fresh
        # process runs without AVX-512 (and without AVX2) kernels where the
        # host has them
        config = tmp_path / "config.json"
        config.write_text(json.dumps(self.CONFIG.to_dict()), encoding="utf-8")
        out = tmp_path / "rows.csv"
        src = str(Path(harness.__file__).resolve().parents[1])
        env = {**os.environ, "NPY_DISABLE_CPU_FEATURES": disabled}
        env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
        argv = ["-m", "hetnetsim", "simulate", "--config", str(config), "--out", str(out)]
        subprocess.run([sys.executable, *argv], env=env, check=True, capture_output=True)
        assert out.read_bytes() == self.GOLDEN.read_bytes()
