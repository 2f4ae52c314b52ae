"""Scenario generation, load sweep, aggregation, and CSV/JSON emission.

Topology: one cellular macro BS at the center of a square service area and
n_wifi small-cell APs on a regular ring around it; users are placed uniformly
at random.  For each load N the per-user games are solved under three
scenarios sharing one topology and one set of committed bids:

  * EUT           -- objective perception,
  * PT            -- Prelec-weighted perception, same bids,
  * PT_EXPANSION  -- Prelec-weighted perception with the bandwidth-expansion
                     bidding policy enabled.

Bandwidth budgets are settled in two passes.  Coverage is first judged with
noise integrated over the full discounted budget of each SP; the resulting
head counts fix the per-user budget split, and final link states are then
computed over the split budgets.  Shrinking the noise bandwidth can only
raise the SNR, so the first pass is conservative and the committed split is
never invalidated (nor widened: users outside the first-pass coverage stay
outside, since no budget was reserved for them).

Determinism: every (seed, N, trial) triple derives its own generator, so
results are bit-identical for a fixed config regardless of execution order.
"""

from __future__ import annotations

import csv
import enum
import json
import math
from dataclasses import asdict, dataclass, field, replace
from pathlib import Path

import numpy as np

from .channel import USER_HEIGHT_M, LinkState, allocate_bw, hata_path_loss, link_state
from .equilibrium import make_eut_bids, resolve_user_game
from .model import Bid, SpKind, SpProfile, UserProfile
from .prospect import FIXED_POINT, DecisionModel


class Scenario(enum.Enum):
    EUT = "EUT"
    PT = "PT"
    PT_EXPANSION = "PT_EXPANSION"


CSV_HEADER = (
    "n,scenario,sum_sp_utility,sum_user_utility,avg_bw_per_user,"
    "association_rate,trials,stderr_sp,stderr_user"
)


@dataclass(frozen=True)
class SpParams:
    """Config-level parameters of one provider class."""

    alpha: float
    beta: float
    cost_rate: float
    cost_bw: float
    bw_total: float
    tx_power_dbm: float
    g_ba: float = 0.9
    frequency_mhz: float = 900.0
    antenna_height_m: float = 30.0
    coverage_snr_threshold_db: float = 0.0
    coverage_radius: float | None = None


@dataclass(frozen=True)
class UserParams:
    # delta is large enough that the doubling gap delta*(2^(1/theta)-1)*b_min^(1/theta)
    # dominates the dearest feasible price, so lightly loaded users accept both
    # offers under every decision model (keeps the low-load scenarios comparable).
    delta: float = 350.0
    theta: float = 2.0
    b_min: float = 2.0


DEFAULT_CELLULAR = SpParams(
    alpha=0.6,
    beta=1.3,
    cost_rate=0.12,
    cost_bw=1.0,
    bw_total=20.0,
    tx_power_dbm=43.0,
    frequency_mhz=900.0,
    antenna_height_m=30.0,
)

# 300 ft ~ 91.44 m small-cell radius; the per-AP budget is deliberately small
# enough that guarantees cross the 1/e perception threshold, and the capacity
# knee lands inside the swept load range (see the calibration notes in the
# README).
DEFAULT_WIFI = SpParams(
    alpha=0.25,
    beta=1.15,
    cost_rate=0.08,
    cost_bw=0.4,
    bw_total=10.0,
    tx_power_dbm=23.0,
    frequency_mhz=2400.0,
    antenna_height_m=6.0,
    coverage_radius=91.44,
)


@dataclass(frozen=True)
class ScenarioConfig:
    """Everything a sweep needs; JSON-serializable, seed-deterministic."""

    seed: int = 20250814
    n_users: int = 50
    n_wifi: int = 8
    area_side_m: float = 600.0
    # 0.42 keeps the access-point discs disjoint (ring spacing > 2 radii), so a
    # user never has to choose between two live offers and association sets stay
    # comparable across decision models.
    wifi_ring_fraction: float = 0.42
    sweep: tuple[int, ...] = (50, 100, 150, 200, 250, 300, 350, 400, 450, 500)
    trials: int = 20
    prelec_alpha: float = 0.7
    noise_density_dbm_hz: float = -174.0
    activity_prob: float = 1.0
    user: UserParams = field(default_factory=UserParams)
    cellular: SpParams = field(default_factory=lambda: DEFAULT_CELLULAR)
    wifi: SpParams = field(default_factory=lambda: DEFAULT_WIFI)

    def __post_init__(self) -> None:
        if self.n_users < 1:
            raise ValueError("n_users must be at least 1")
        if self.trials < 1:
            raise ValueError("trials must be at least 1")
        if not self.sweep:
            raise ValueError("sweep must list at least one load")
        if any(n < 1 for n in self.sweep):
            raise ValueError("sweep loads must be positive")
        if self.area_side_m <= 0:
            raise ValueError(f"area_side_m must be positive, got {self.area_side_m}")
        if not 0.0 < self.prelec_alpha < 1.0:
            raise ValueError(f"prelec_alpha must lie in (0, 1), got {self.prelec_alpha}")
        if not 0.0 <= self.activity_prob <= 1.0:
            raise ValueError("activity_prob must lie in [0, 1]")
        if self.n_wifi < 0:
            raise ValueError(f"n_wifi must be nonnegative, got {self.n_wifi}")
        # the checks the first trial would run (provider and user fields,
        # the Hata frequency window and antenna heights), so a bad field
        # fails here; section names the config key at fault
        try:
            for kind, params in ((SpKind.CELLULAR, self.cellular), (SpKind.WIFI, self.wifi)):
                section = kind.value
                SpProfile(kind=kind, **asdict(params))
                hata_path_loss(params.frequency_mhz, 1.0, params.antenna_height_m, USER_HEIGHT_M)
            section = "user"
            UserProfile(self.user.delta, self.user.theta, self.user.b_min)
        except ValueError as exc:
            raise ValueError(f"{section}: {exc}") from None

    def to_dict(self) -> dict:
        d = asdict(self)
        d["sweep"] = list(self.sweep)
        return d

    @classmethod
    def from_dict(cls, data: dict) -> "ScenarioConfig":
        data = dict(data)
        unknown = set(data) - {f for f in cls.__dataclass_fields__}
        if unknown:
            raise ValueError(f"unknown config keys: {sorted(unknown)}")
        if "sweep" in data:
            data["sweep"] = tuple(int(n) for n in data["sweep"])
        if "user" in data and isinstance(data["user"], dict):
            data["user"] = UserParams(**data["user"])
        for key in ("cellular", "wifi"):
            if key in data and isinstance(data[key], dict):
                data[key] = SpParams(**data[key])
        return cls(**data)

    @classmethod
    def from_json_file(cls, path: str | Path) -> "ScenarioConfig":
        with open(path, "r", encoding="utf-8") as fh:
            return cls.from_dict(json.load(fh))


DEFAULT_CONFIG = ScenarioConfig()


@dataclass(frozen=True)
class SweepRow:
    """One aggregated (load, scenario) record.

    sum_* fields are trial means of per-trial sums; avg_bw_per_user is the
    trial mean of accepted bandwidth per associated user; stderr_* are
    standard errors across trials (0 with a single trial).
    """

    n: int
    scenario: str
    sum_sp_utility: float
    sum_user_utility: float
    avg_bw_per_user: float
    association_rate: float
    trials: int
    stderr_sp: float
    stderr_user: float


@dataclass
class TrialStats:
    """Raw per-(trial, scenario) tallies before aggregation."""

    n_users: int
    n_associated: int = 0
    sum_sp_utility: float = 0.0
    sum_user_utility: float = 0.0
    sum_accepted_bw: float = 0.0
    max_guarantee: float = 0.0
    per_sp_accepted_bw: list[float] = field(default_factory=list)

    @property
    def association_rate(self) -> float:
        return self.n_associated / self.n_users

    @property
    def avg_bw_per_associated(self) -> float:
        if self.n_associated == 0:
            return 0.0
        return self.sum_accepted_bw / self.n_associated


def build_sps(cfg: ScenarioConfig) -> list[SpProfile]:
    """The cellular BS (id 0) plus n_wifi APs (ids 1..n) on a regular ring."""
    center = (cfg.area_side_m / 2.0, cfg.area_side_m / 2.0)
    sps = [
        SpProfile(
            kind=SpKind.CELLULAR,
            position=center,
            sp_id=0,
            **asdict(cfg.cellular),
        )
    ]
    ring = cfg.wifi_ring_fraction * cfg.area_side_m
    for k in range(cfg.n_wifi):
        angle = 2.0 * math.pi * k / cfg.n_wifi
        pos = (center[0] + ring * math.cos(angle), center[1] + ring * math.sin(angle))
        sps.append(
            SpProfile(
                kind=SpKind.WIFI,
                position=pos,
                sp_id=k + 1,
                **asdict(cfg.wifi),
            )
        )
    return sps


def generate_topology(
    cfg: ScenarioConfig, rng: np.random.Generator, n_users: int | None = None
) -> tuple[list[UserProfile], list[SpProfile]]:
    """Place n_users users uniformly over the square and build the SPs.

    Activity draws are consumed for every user even when activity_prob is 1,
    keeping downstream draws aligned across configs that differ only there.
    """
    n = cfg.n_users if n_users is None else n_users
    positions = rng.random((n, 2)) * cfg.area_side_m
    activity = rng.random(n) < cfg.activity_prob
    users = [
        UserProfile(
            delta=cfg.user.delta,
            theta=cfg.user.theta,
            b_min=cfg.user.b_min,
            position=(float(x), float(y)),
            active=bool(a),
        )
        for (x, y), a in zip(positions, activity, strict=True)
    ]
    return users, build_sps(cfg)


def build_links(
    users: list[UserProfile], sps: list[SpProfile], cfg: ScenarioConfig
) -> list[list[LinkState]]:
    """Two-pass link construction; links[u][s] aligns with users and sps."""
    noise = cfg.noise_density_dbm_hz
    links_by_sp: list[list[LinkState]] = []
    for sp in sps:
        reference = [link_state(u, sp, noise) for u in users]
        flags = [(u.active, ln.covered) for u, ln in zip(users, reference, strict=True)]
        bw_each = allocate_bw(sp, flags)
        final = []
        for u, ref in zip(users, reference, strict=True):
            ln = link_state(u, sp, noise, bw_max=bw_each)
            if ln.covered and not ref.covered:
                ln = replace(ln, covered=False, b_max=0.0)
            final.append(ln)
        links_by_sp.append(final)
    # transpose to per-user lists
    return [[links_by_sp[s][u] for s in range(len(sps))] for u in range(len(users))]


def _scenario_model(scenario: Scenario, cfg: ScenarioConfig) -> tuple[DecisionModel, bool]:
    if scenario is Scenario.EUT:
        return DecisionModel.eut(), False
    if scenario is Scenario.PT:
        return DecisionModel.pt(cfg.prelec_alpha), False
    return DecisionModel.pt(cfg.prelec_alpha), True


def _pool_expansion_pass(
    users: list[UserProfile],
    sps: list[SpProfile],
    links: list[list[LinkState]],
    all_bids: list[list],
    outcomes: list,
    model: DecisionModel,
) -> list:
    """Re-expand bids against each SP's pool share instead of its slice.

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
    cell_idx = next((i for i, sp in enumerate(sps) if sp.kind is SpKind.CELLULAR), None)
    pools = [sp.g_ba * sp.bw_total for sp in sps]

    def slots(outcome) -> list[tuple[int, bool]]:
        p_c, p_w = outcome.strategy_draw
        pairs = []
        if cell_idx is not None:
            pairs.append((cell_idx, bool(p_c)))
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
                row[j] = replace(
                    ln,
                    bw_max=caps[j],
                    b_max=caps[j] * math.log2(1.0 + ln.mean_snr),
                )
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
        retried = resolve_user_game(
            users[i], sps, row, all_bids[i], model, expansion_enabled=True
        )
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
        retried = resolve_user_game(
            users[i], sps, row, all_bids[i], model, expansion_enabled=True
        )
        if accepted_set(retried) == accepted_set(outcome):
            result[i] = retried
    return result


def run_trial(cfg: ScenarioConfig, n: int, trial: int) -> dict[Scenario, TrialStats]:
    """Solve all n per-user games once for each scenario.

    Topology, links, and committed bids are computed once and shared; the
    weighted scenarios differ only in perception and (for PT_EXPANSION) in
    the expansion policy applied to the bids in force.
    """
    seq = np.random.SeedSequence([cfg.seed, n, trial])
    streams = seq.spawn(1 + len(Scenario))
    topo_rng = np.random.default_rng(streams[0])

    users, sps = generate_topology(cfg, topo_rng, n)
    links = build_links(users, sps, cfg)
    all_bids = [make_eut_bids(u, sps, links[i]) for i, u in enumerate(users)]

    max_guarantee = 0.0
    for per_user in all_bids:
        for bid in per_user:
            if isinstance(bid, Bid):
                max_guarantee = max(max_guarantee, bid.guarantee)

    out: dict[Scenario, TrialStats] = {}
    for s_idx, scenario in enumerate(Scenario):
        model, expand = _scenario_model(scenario, cfg)
        rng = np.random.default_rng(streams[1 + s_idx])
        outcomes = [
            resolve_user_game(
                user,
                sps,
                links[i],
                all_bids[i],
                model,
                expansion_enabled=expand,
                rng=rng,
            )
            for i, user in enumerate(users)
        ]
        if expand:
            outcomes = _pool_expansion_pass(users, sps, links, all_bids, outcomes, model)

        stats = TrialStats(n_users=n, max_guarantee=max_guarantee)
        stats.per_sp_accepted_bw = [0.0] * len(sps)
        for outcome in outcomes:
            p_c, p_w = outcome.strategy_draw
            if p_c or p_w:
                stats.n_associated += 1
            stats.sum_sp_utility += outcome.u_sp_w + outcome.u_sp_c
            stats.sum_user_utility += outcome.u_user
            bid_c, bid_w = outcome.bids
            if p_c and isinstance(bid_c, Bid):
                stats.sum_accepted_bw += bid_c.bandwidth
                stats.per_sp_accepted_bw[0] += bid_c.bandwidth
            if p_w and isinstance(bid_w, Bid):
                stats.sum_accepted_bw += bid_w.bandwidth
                stats.per_sp_accepted_bw[outcome.wifi_index] += bid_w.bandwidth
        out[scenario] = stats
    return out


def run_point(
    cfg: ScenarioConfig, n: int
) -> tuple[list[SweepRow], list[dict[Scenario, TrialStats]]]:
    """Aggregate cfg.trials independent trials at load n into three rows."""
    trials = [run_trial(cfg, n, t) for t in range(cfg.trials)]
    rows = []
    for scenario in Scenario:
        sp_sums = np.array([t[scenario].sum_sp_utility for t in trials])
        user_sums = np.array([t[scenario].sum_user_utility for t in trials])
        bw_avgs = np.array([t[scenario].avg_bw_per_associated for t in trials])
        assoc = np.array([t[scenario].association_rate for t in trials])
        k = len(trials)
        stderr_sp = float(np.std(sp_sums, ddof=1) / math.sqrt(k)) if k > 1 else 0.0
        stderr_user = float(np.std(user_sums, ddof=1) / math.sqrt(k)) if k > 1 else 0.0
        rows.append(
            SweepRow(
                n=n,
                scenario=scenario.value,
                sum_sp_utility=float(np.mean(sp_sums)),
                sum_user_utility=float(np.mean(user_sums)),
                avg_bw_per_user=float(np.mean(bw_avgs)),
                association_rate=float(np.mean(assoc)),
                trials=k,
                stderr_sp=stderr_sp,
                stderr_user=stderr_user,
            )
        )
    return rows, trials


def run_sweep(cfg: ScenarioConfig) -> list[SweepRow]:
    """Rows for every (load, scenario) pair, loads in sweep order and
    scenarios in EUT, PT, PT_EXPANSION order within each load."""
    rows: list[SweepRow] = []
    for n in cfg.sweep:
        point_rows, _ = run_point(cfg, n)
        rows.extend(point_rows)
    return rows


def _row_values(row: SweepRow) -> list[str]:
    return [
        str(row.n),
        row.scenario,
        repr(row.sum_sp_utility),
        repr(row.sum_user_utility),
        repr(row.avg_bw_per_user),
        repr(row.association_rate),
        str(row.trials),
        repr(row.stderr_sp),
        repr(row.stderr_user),
    ]


def emit(rows: list[SweepRow], fmt: str, path: str | Path) -> None:
    """Write rows as CSV (fixed header) or a JSON array of records."""
    if not rows:
        raise ValueError("nothing to emit: rows is empty")
    path = Path(path)
    try:
        if fmt == "csv":
            with open(path, "w", newline="", encoding="utf-8") as fh:
                writer = csv.writer(fh)
                writer.writerow(CSV_HEADER.split(","))
                for row in rows:
                    writer.writerow(_row_values(row))
        elif fmt == "json":
            records = [asdict(row) for row in rows]
            with open(path, "w", encoding="utf-8") as fh:
                json.dump(records, fh, indent=2)
                fh.write("\n")
        else:
            raise ValueError(f"unknown format {fmt!r}; expected 'csv' or 'json'")
    except OSError as exc:
        raise OSError(f"cannot write results to {path}: {exc}") from exc


def load_rows(path: str | Path, fmt: str = "csv") -> list[SweepRow]:
    """Inverse of emit, for round-trip checks and downstream analysis."""
    path = Path(path)
    rows: list[SweepRow] = []
    if fmt == "csv":
        with open(path, newline="", encoding="utf-8") as fh:
            reader = csv.DictReader(fh)
            for rec in reader:
                rows.append(
                    SweepRow(
                        n=int(rec["n"]),
                        scenario=rec["scenario"],
                        sum_sp_utility=float(rec["sum_sp_utility"]),
                        sum_user_utility=float(rec["sum_user_utility"]),
                        avg_bw_per_user=float(rec["avg_bw_per_user"]),
                        association_rate=float(rec["association_rate"]),
                        trials=int(rec["trials"]),
                        stderr_sp=float(rec["stderr_sp"]),
                        stderr_user=float(rec["stderr_user"]),
                    )
                )
    elif fmt == "json":
        with open(path, encoding="utf-8") as fh:
            for rec in json.load(fh):
                rows.append(SweepRow(**rec))
    else:
        raise ValueError(f"unknown format {fmt!r}; expected 'csv' or 'json'")
    return rows
