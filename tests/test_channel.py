"""Propagation, coverage, budget split, and the fading guarantee model."""

import math
from dataclasses import asdict, fields
from functools import partial

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hetnetsim import (
    UserProfile,
    allocate_bw,
    guarantee_inverse_bw,
    link_state,
    service_guarantee,
)
from hetnetsim.channel import MIN_DISTANCE_M, LinkState
from hetnetsim.model import USER_HEIGHT_M, SpParams, _hata_terms
from conftest import bisect_bw, make_link
from conftest import make_sp as shared_make_sp


def hata_urban_reference(freq_mhz: float, d_km: float, h_bs: float, h_ue: float) -> float:
    """Textbook Hata urban formula, written out independently."""
    a_hm = (1.1 * math.log10(freq_mhz) - 0.7) * h_ue - (
        1.56 * math.log10(freq_mhz) - 0.8
    )
    return (
        69.55
        + 26.16 * math.log10(freq_mhz)
        - 13.82 * math.log10(h_bs)
        - a_hm
        + (44.9 - 6.55 * math.log10(h_bs)) * math.log10(d_km)
    )


def cost231_reference(freq_mhz: float, d_km: float, h_bs: float, h_ue: float) -> float:
    a_hm = (1.1 * math.log10(freq_mhz) - 0.7) * h_ue - (
        1.56 * math.log10(freq_mhz) - 0.8
    )
    return (
        46.3
        + 33.9 * math.log10(freq_mhz)
        - 13.82 * math.log10(h_bs)
        - a_hm
        + (44.9 - 6.55 * math.log10(h_bs)) * math.log10(d_km)
    )


def reference_hata_path_loss(freq_mhz, d_km, h_bs_m, h_ue_m):
    """The Hata path loss as first written, every constant recomputed per
    call; link_state's must agree with it bit for bit."""
    if d_km <= 0:
        raise ValueError(f"distance must be positive, got {d_km} km")
    if not 150.0 <= freq_mhz <= 2500.0:
        raise ValueError(f"frequency {freq_mhz} MHz outside supported range")
    if h_bs_m <= 0 or h_ue_m <= 0:
        raise ValueError("antenna heights must be positive")
    lf = math.log10(freq_mhz)
    lhb = math.log10(h_bs_m)
    a_hm = (1.1 * lf - 0.7) * h_ue_m - (1.56 * lf - 0.8)
    slope = 44.9 - 6.55 * lhb
    if freq_mhz <= 1500.0:
        base = 69.55 + 26.16 * lf
    else:
        base = 46.3 + 33.9 * lf
    return base - 13.82 * lhb - a_hm + slope * math.log10(d_km)


def reference_link_state(user, sp, noise_density_dbm_hz=-174.0, bw_max=None):
    """link_state as first written (indexed positions, max() clamp, the
    reference path loss); the rewritten one must agree with it bit for bit."""
    if bw_max is None:
        bw_max = sp.g_ba * sp.bw_total
    if bw_max <= 0:
        raise ValueError(f"bandwidth budget must be positive, got {bw_max}")
    dx = user.position[0] - sp.position[0]
    dy = user.position[1] - sp.position[1]
    dist_m = max(math.hypot(dx, dy), MIN_DISTANCE_M)
    loss_db = reference_hata_path_loss(
        sp.frequency_mhz, dist_m / 1000.0, sp.antenna_height_m, USER_HEIGHT_M
    )
    noise_dbm = noise_density_dbm_hz + 10.0 * math.log10(bw_max * 1e6)
    snr_db = sp.tx_power_dbm - loss_db - noise_dbm
    mean_snr = 10.0 ** (snr_db / 10.0)
    covered = user.active and snr_db >= sp.coverage_snr_threshold_db
    if sp.coverage_radius is not None and dist_m > sp.coverage_radius:
        covered = False
    b_max = bw_max * math.log2(1.0 + mean_snr) if covered else 0.0
    return LinkState(
        path_loss_db=loss_db,
        mean_snr=mean_snr,
        covered=covered,
        bw_max=bw_max,
        b_max=b_max,
    )


def link_bits(ln: LinkState) -> tuple:
    """The link's fields with every float as its exact bit pattern."""
    return (
        ln.path_loss_db.hex(),
        ln.mean_snr.hex(),
        ln.covered,
        ln.bw_max.hex(),
        ln.b_max.hex(),
    )


# the whole Hata window, both branch edges and the COST-231 crossover
frequencies = st.one_of(
    st.sampled_from([150.0, 900.0, 1500.0, 1500.0000000000002, 2400.0, 2500.0]),
    st.floats(150.0, 2500.0),
)
heights = st.floats(0.5, 300.0)


def path_loss(freq_mhz: float, d_km: float, h_bs_m: float) -> float:
    """The path loss link_state reports for a user d_km east of a provider
    at the origin with the given frequency and antenna height."""
    sp = make_sp(frequency_mhz=freq_mhz, antenna_height_m=h_bs_m)
    return link_state(UserProfile(position=(d_km * 1000.0, 0.0)), sp).path_loss_db


class TestHataPathLoss:
    def test_textbook_900mhz_point(self):
        got = path_loss(900.0, 1.0, 50.0)
        assert got == pytest.approx(hata_urban_reference(900.0, 1.0, 50.0, 1.5), abs=1e-9)
        assert got == pytest.approx(123.34, abs=0.05)

    def test_cost231_branch(self):
        got = path_loss(2400.0, 0.05, 6.0)
        assert got == pytest.approx(cost231_reference(2400.0, 0.05, 6.0, 1.5), abs=1e-9)

    def test_monotone_in_distance(self):
        losses = [path_loss(900.0, d, 30.0) for d in (0.1, 0.5, 1.0, 2.0, 5.0)]
        assert all(a < b for a, b in zip(losses, losses[1:]))

    def test_monotone_in_frequency_within_branch(self):
        lo = [path_loss(f, 1.0, 30.0) for f in (300.0, 600.0, 900.0, 1400.0)]
        hi = [path_loss(f, 1.0, 30.0) for f in (1600.0, 2000.0, 2400.0)]
        assert all(a < b for a, b in zip(lo, lo[1:]))
        assert all(a < b for a, b in zip(hi, hi[1:]))

    def test_bad_inputs(self):
        # a user at the provider is clamped to the near-field distance, and
        # a profile outside the Hata window fails when built
        assert path_loss(900.0, 0.0, 30.0) == path_loss(900.0, MIN_DISTANCE_M / 1000.0, 30.0)
        with pytest.raises(ValueError):
            path_loss(100.0, 1.0, 30.0)
        with pytest.raises(ValueError):
            path_loss(900.0, 1.0, -1.0)

    @settings(max_examples=400, deadline=None)
    @given(freq=frequencies, d_km=st.floats(1e-4, 1e3), h_bs=heights)
    def test_bit_identical_to_reference(self, freq, d_km, h_bs):
        got = path_loss(freq, d_km, h_bs)
        d_km = max(d_km * 1000.0, MIN_DISTANCE_M) / 1000.0
        assert got.hex() == reference_hata_path_loss(freq, d_km, h_bs, USER_HEIGHT_M).hex()

    def test_bad_profile_raises_on_every_call(self):
        # nothing is cached, so every build of a bad profile raises
        for _ in range(3):
            with pytest.raises(ValueError, match="outside supported range"):
                path_loss(3000.0, 1.0, 30.0)
            with pytest.raises(ValueError, match="antenna heights"):
                path_loss(900.0, 1.0, 0.0)
        assert path_loss(900.0, 1.0, 30.0) == reference_hata_path_loss(
            900.0, 1.0, 30.0, USER_HEIGHT_M
        )


# the shared make_sp with this file's macro-cell numbers as overrides
make_sp = partial(
    shared_make_sp,
    alpha=0.6,
    beta=1.3,
    cost_rate=0.12,
    cost_bw=1.0,
    bw_total=20.0,
    tx_power_dbm=43.0,
)


class TestAllocateBw:
    def test_even_split(self):
        assert allocate_bw(make_sp(), 10) == pytest.approx(1.8)

    def test_no_contention_full_budget(self):
        assert allocate_bw(make_sp(), 0) == pytest.approx(18.0)

    def test_split_over_covered_links(self):
        # 7 active users near the SP, 2 inactive ones beside them and 1 active
        # user out of range: only the 7 are covered, so only they split the
        # budget (an inactive user is never covered; see
        # TestLinkState.test_inactive_user_is_never_covered)
        sp = make_sp()
        users = [
            UserProfile(delta=1.0, theta=2.0, b_min=1.0, position=(50.0 + k, 0.0))
            for k in range(7)
        ]
        users += [
            UserProfile(delta=1.0, theta=2.0, b_min=1.0, position=(60.0, 0.0), active=False)
        ] * 2
        users.append(UserProfile(delta=1.0, theta=2.0, b_min=1.0, position=(1e6, 0.0)))
        n_covered = sum(link_state(u, sp).covered for u in users)
        assert n_covered == 7
        assert allocate_bw(sp, n_covered) == pytest.approx(0.9 * 20.0 / 7)

    def test_total_handed_out_is_exact(self):
        sp = make_sp(g_ba=0.75, bw_total=12.0)
        for n in (1, 3, 7, 64):
            per_user = allocate_bw(sp, n)
            assert n * per_user == pytest.approx(0.75 * 12.0, rel=1e-12)


class TestLinkState:
    def test_record_fields_and_immutability(self):
        ln = make_link(10.0, bw_max=4.0)
        assert LinkState._fields == ("path_loss_db", "mean_snr", "covered", "bw_max", "b_max")
        assert ln == LinkState(0.0, 10.0, True, 4.0, 4.0 * math.log2(11.0))
        for name in LinkState._fields:
            with pytest.raises(AttributeError):
                setattr(ln, name, 1.0)
        with pytest.raises(AttributeError):
            ln.extra = 1.0
        assert ln.bw_max == 4.0

    def test_inactive_user_is_uncovered(self):
        user = UserProfile(delta=1.0, theta=2.0, b_min=1.0, position=(100.0, 0.0), active=False)
        ln = link_state(user, make_sp())
        assert not ln.covered
        assert ln.b_max == 0.0

    @settings(max_examples=200, deadline=None)
    @given(
        x=st.floats(-5e4, 5e4),
        y=st.floats(-5e4, 5e4),
        tx_power_dbm=st.floats(-50.0, 200.0),
        threshold_db=st.floats(-200.0, 60.0),
        radius=st.none() | st.floats(1e-3, 1e6),
        bw_max=st.none() | st.floats(1e-6, 1e4),
    )
    def test_inactive_user_is_never_covered(
        self, x, y, tx_power_dbm, threshold_db, radius, bw_max
    ):
        # build_links counts covered links as the active covered users;
        # this is the invariant that count relies on
        user = UserProfile(delta=1.0, theta=2.0, b_min=1.0, position=(x, y), active=False)
        sp = make_sp(
            tx_power_dbm=tx_power_dbm,
            coverage_snr_threshold_db=threshold_db,
            coverage_radius=radius,
        )
        ln = link_state(user, sp, bw_max=bw_max)
        assert ln.covered is False
        assert ln.b_max == 0.0

    def test_wifi_radius_cap(self):
        sp = make_sp(
            frequency_mhz=2400.0,
            tx_power_dbm=23.0,
            antenna_height_m=6.0,
            coverage_radius=91.44,
        )
        near = UserProfile(delta=1.0, theta=2.0, b_min=1.0, position=(50.0, 0.0))
        far = UserProfile(delta=1.0, theta=2.0, b_min=1.0, position=(120.0, 0.0))
        assert link_state(near, sp).covered
        assert not link_state(far, sp).covered

    def test_rate_cap_consistency(self):
        user = UserProfile(delta=1.0, theta=2.0, b_min=1.0, position=(200.0, 0.0))
        ln = link_state(user, make_sp(), bw_max=2.5)
        assert ln.covered
        assert ln.bw_max == 2.5
        assert ln.b_max == pytest.approx(2.5 * math.log2(1.0 + ln.mean_snr), rel=1e-12)

    def test_default_budget_is_discounted_total(self):
        user = UserProfile(delta=1.0, theta=2.0, b_min=1.0, position=(200.0, 0.0))
        ln = link_state(user, make_sp())
        assert ln.bw_max == pytest.approx(18.0)

    def test_nonpositive_budget_rejected(self):
        user = UserProfile(delta=1.0, theta=2.0, b_min=1.0, position=(200.0, 0.0))
        with pytest.raises(ValueError):
            link_state(user, make_sp(), bw_max=0.0)

    def test_near_field_clamped(self):
        at_sp = UserProfile(delta=1.0, theta=2.0, b_min=1.0, position=(0.0, 0.0))
        ln = link_state(at_sp, make_sp())
        assert math.isfinite(ln.path_loss_db)

    @settings(max_examples=400, deadline=None)
    @given(
        ux=st.floats(-3000.0, 3000.0),
        uy=st.floats(-3000.0, 3000.0),
        sx=st.floats(-300.0, 300.0),
        sy=st.floats(-300.0, 300.0),
        near=st.floats(0.0, 2.0),
        freq=frequencies,
        h_bs=heights,
        tx=st.floats(-10.0, 60.0),
        threshold=st.floats(-20.0, 40.0),
        radius=st.one_of(st.none(), st.floats(1.0, 2000.0)),
        bw_max=st.one_of(st.none(), st.floats(1e-3, 100.0)),
        active=st.booleans(),
    )
    def test_bit_identical_to_reference(
        self, ux, uy, sx, sy, near, freq, h_bs, tx, threshold, radius, bw_max, active
    ):
        # every other example sits within 2 m of the SP, across the near-field clamp
        if near < 1.0:
            ux, uy = sx + near, sy
        user = UserProfile(delta=1.0, theta=2.0, b_min=1.0, position=(ux, uy), active=active)
        sp = make_sp(
            position=(sx, sy),
            frequency_mhz=freq,
            antenna_height_m=h_bs,
            tx_power_dbm=tx,
            coverage_snr_threshold_db=threshold,
            coverage_radius=radius,
        )
        got = link_state(user, sp, -174.0, bw_max=bw_max)
        assert link_bits(got) == link_bits(reference_link_state(user, sp, -174.0, bw_max))

    @pytest.mark.parametrize(
        "overrides, message",
        [
            (dict(frequency_mhz=3000.0), "outside supported range"),
            (dict(frequency_mhz=100.0), "outside supported range"),
            (dict(antenna_height_m=0.0), "antenna heights"),
            (dict(antenna_height_m=-5.0), "antenna heights"),
        ],
    )
    def test_bad_profile_fails_when_built(self, overrides, message):
        # a profile outside the Hata window never reaches a link; the
        # failures are not cached, so every build raises
        good = make_sp()
        params = {f.name: getattr(good, f.name) for f in fields(SpParams)}
        for _ in range(3):
            with pytest.raises(ValueError, match=message):
                make_sp(**overrides)
            with pytest.raises(ValueError, match=message):
                SpParams(**{**params, **overrides})


class TestProfileHataTerms:
    @settings(max_examples=200, deadline=None)
    @given(freq=st.floats(150.0, 2500.0), height=st.floats(0.5, 200.0))
    def test_match_the_scalar_terms(self, freq, height):
        sp = make_sp(frequency_mhz=freq, antenna_height_m=height)
        assert sp.hata_terms == _hata_terms(freq, height)

    def test_not_a_field(self):
        # the terms stored at construction stay out of equality, hashing,
        # repr and asdict
        sp, twin = make_sp(), make_sp()
        assert sp.hata_terms and sp == twin and hash(sp) == hash(twin)
        assert "hata_terms" not in repr(sp) and "hata_terms" not in asdict(sp)
        assert "hata_terms" not in {f.name for f in fields(sp)}


class TestServiceGuarantee:
    def test_unit_ratio_point(self):
        link = make_link(10.0)
        assert service_guarantee(2.0, 2.0, link) == pytest.approx(
            math.exp(-0.1), rel=1e-12
        )

    def test_wide_band_limit(self):
        link = make_link(10.0)
        assert service_guarantee(1.0, 1e9, link) == pytest.approx(1.0, abs=1e-6)

    def test_high_rate_limit(self):
        link = make_link(10.0)
        assert service_guarantee(1e6, 1.0, link) == pytest.approx(0.0, abs=1e-12)

    @pytest.mark.parametrize("b, bw", [(-1.0, 1.0), (1.0, -1.0)])
    def test_negative_rate_or_bandwidth_rejected(self, b, bw):
        with pytest.raises(ValueError, match="^rate and bandwidth must be nonnegative$"):
            service_guarantee(b, bw, make_link(10.0))

    def test_edge_conventions(self):
        link = make_link(10.0)
        assert service_guarantee(0.0, 1.0, link) == 1.0
        assert service_guarantee(1.0, 0.0, link) == 0.0

    def test_monotonicity_triple(self):
        rng = np.random.default_rng(5)
        informative = 0
        for _ in range(300):
            b = rng.uniform(0.5, 10.0)
            bw = rng.uniform(0.5, 10.0)
            snr = rng.uniform(0.5, 100.0)
            link = make_link(snr)
            base = service_guarantee(b, bw, link)
            if base == 0.0 or base == 1.0:
                # saturated draws underflow and degenerate strictness
                continue
            informative += 1
            assert service_guarantee(b, bw * 1.1, link) > base
            assert service_guarantee(b * 1.1, bw, link) < base
            assert service_guarantee(b, bw, make_link(snr * 1.1)) > base
        assert informative >= 150

    def test_monte_carlo_consistency_spot(self):
        rng = np.random.default_rng(99)
        n = 100_000
        for b, bw, snr in ((2.0, 2.0, 10.0), (1.0, 0.7, 5.0), (4.0, 3.0, 25.0)):
            link = make_link(snr)
            p = service_guarantee(b, bw, link)
            x = rng.exponential(size=n)
            hits = np.mean(bw * np.log2(1.0 + snr * x) >= b)
            sigma = math.sqrt(p * (1.0 - p) / n)
            assert abs(hits - p) <= 3.0 * sigma


class TestGuaranteeInverseBw:
    def test_matches_bisection_oracle(self):
        link = make_link(10.0)
        got = guarantee_inverse_bw(2.0, 0.5, link)
        assert got == pytest.approx(bisect_bw(2.0, 0.5, link), rel=1e-9)
        assert got == pytest.approx(0.6694, abs=1e-3)

    def test_round_trip(self):
        rng = np.random.default_rng(17)
        for _ in range(300):
            b = rng.uniform(0.5, 20.0)
            q = rng.uniform(0.01, 0.99)
            snr = rng.uniform(0.5, 200.0)
            link = make_link(snr)
            bw = guarantee_inverse_bw(b, q, link)
            assert service_guarantee(b, bw, link) == pytest.approx(q, rel=1e-9)

    def test_certainty_is_infeasible(self):
        link = make_link(10.0)
        assert guarantee_inverse_bw(2.0, 1.0, link) == math.inf

    def test_target_rounding_to_certainty_is_infeasible(self):
        # at unit SNR, 1 - ln(q) rounds to 1 for the largest double below 1,
        # so no finite bandwidth reaches it
        assert guarantee_inverse_bw(2.0, math.nextafter(1.0, 0.0), make_link(1.0)) == math.inf

    def test_bad_inputs(self):
        link = make_link(10.0)
        with pytest.raises(ValueError):
            guarantee_inverse_bw(2.0, 0.0, link)
        with pytest.raises(ValueError):
            guarantee_inverse_bw(0.0, 0.5, link)
        assert guarantee_inverse_bw(2.0, 0.5, make_link(0.0)) == math.inf

