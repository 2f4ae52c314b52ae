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
computed over the split budgets, each from its pair's first-pass state: the
path loss and coverage carry over, and only the noise, SNR and rate cap are
computed again.  Shrinking the noise bandwidth can only raise the SNR, so
the first pass is conservative and the committed split is never invalidated
(nor widened: users outside the first-pass coverage stay outside, since no
budget was reserved for them).

Determinism: each (seed, N, trial) spawns a topology stream and an EUT
mixed-draw stream; rows are bit-identical whatever the execution order.
"""

from __future__ import annotations

import csv
import enum
import functools
import json
import math
import typing
from collections import Counter
from dataclasses import MISSING, asdict, astuple, dataclass, fields, is_dataclass
from pathlib import Path

import numpy as np

from . import channel
from .channel import MIN_DISTANCE_M, LinkState, allocate_bw, link_state
from .equilibrium import make_eut_bids, resolve_user_game
from .model import Bid, GameOutcome, NoBid, SpParams, SpProfile, UserParams, UserProfile
from .model import _check_finite
from .prospect import FIXED_POINT, DecisionModel


class Scenario(enum.Enum):
    EUT = "EUT"
    PT = "PT"
    PT_EXPANSION = "PT_EXPANSION"


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
    user: UserParams = UserParams()
    cellular: SpParams = SpParams(
        alpha=0.6,
        beta=1.3,
        cost_rate=0.12,
        cost_bw=1.0,
        bw_total=20.0,
        tx_power_dbm=43.0,
        frequency_mhz=900.0,
        antenna_height_m=30.0,
    )
    # 300 ft ~ 91.44 m small-cell radius; the per-AP budget is deliberately
    # small enough that guarantees cross the 1/e perception threshold, and the
    # capacity knee lands inside the swept load range (see the calibration
    # notes in the README).
    wifi: SpParams = SpParams(
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

    def __post_init__(self) -> None:
        _check_finite(self)
        if self.seed < 0:
            raise ValueError(f"seed must be nonnegative, got {self.seed}")
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
        DecisionModel.pt(self.prelec_alpha)
        if not 0.0 <= self.activity_prob <= 1.0:
            raise ValueError("activity_prob must lie in [0, 1]")
        if self.n_wifi < 0:
            raise ValueError(f"n_wifi must be nonnegative, got {self.n_wifi}")
        self._check_best_links()

    def _check_best_links(self) -> None:
        """Reject radio settings under which link_state's mean SNR overflows
        a float on the best link a sweep can build: the narrowest budget (the
        pool split over every user of the largest load) at the least path
        loss.  Users lie within side/sqrt(2) of the center and SPs within
        |wifi_ring_fraction| * side of it, and the loss is monotone in the
        distance, so the least loss is at the 1 m clamp or at that bound."""
        noise = self.noise_density_dbm_hz
        heads = max(max(self.sweep), self.n_users)
        farthest_m = self.area_side_m * (math.sqrt(0.5) + abs(self.wifi_ring_fraction))
        for section in ("cellular", "wifi"):
            sp = SpProfile(**vars(getattr(self, section)))
            for dist_m in (MIN_DISTANCE_M, farthest_m):
                user = UserProfile(position=(dist_m, 0.0))
                # channel's own name: the benchmark counts a trial's calls
                # of this module's link_state, and this is no trial's call
                try:
                    channel.link_state(user, sp, noise, allocate_bw(sp, heads))
                except OverflowError:
                    raise ValueError(
                        f"{section}: tx_power_dbm {sp.tx_power_dbm} dBm over noise_density_dbm_hz "
                        f"{noise} dBm/Hz gives a link SNR beyond the float range"
                    ) from None

    def to_dict(self) -> dict:
        d = asdict(self)
        d["sweep"] = list(self.sweep)
        return d

    @classmethod
    def from_dict(cls, data: dict) -> "ScenarioConfig":
        return _from_json(cls, data)

    @classmethod
    def from_json_file(cls, path: str | Path) -> "ScenarioConfig":
        with open(path, "r", encoding="utf-8") as fh:
            return cls.from_dict(json.load(fh))


def _json_is(hint, value) -> bool:
    """Whether a JSON value has the declared scalar type: a JSON integer is
    a valid float, a bool is no number, and neither is a non-finite float
    (Python's json reads NaN, Infinity and -Infinity)."""
    allowed = typing.get_args(hint) or (hint,)
    if float in allowed:
        allowed += (int,)
    ok = isinstance(value, allowed) and not isinstance(value, bool)
    return ok and (not isinstance(value, float) or math.isfinite(value))


def _from_json(cls, data, section: str | None = None):
    """cls built from a JSON object, every value checked against its field's
    declared type: a dataclass field is a section, loaded the same way (a
    `Section | None` field also takes null), and a tuple field a JSON array.
    A violation is a one-line error naming the section and the key."""
    where = f"{section}: " if section else ""
    if not isinstance(data, dict):
        raise ValueError(f"{section or 'config'}: expected a JSON object, got {data!r}")
    hints = typing.get_type_hints(cls)
    unknown = set(data) - set(hints)
    if unknown:
        raise ValueError(f"{where}unknown config keys: {sorted(unknown)}")
    missing = [f.name for f in fields(cls) if f.default is MISSING and f.name not in data]
    if missing:
        raise ValueError(f"{where}missing config keys: {missing}")
    values = {}
    for key, value in data.items():
        hint = hints[key]
        if value is not None and type(None) in typing.get_args(hint):
            hint = next((a for a in typing.get_args(hint) if is_dataclass(a)), hint)
        if is_dataclass(hint):
            value = _from_json(hint, value, key)
        elif typing.get_origin(hint) is tuple:
            item = typing.get_args(hint)[0]
            if not isinstance(value, (list, tuple)) or not all(_json_is(item, v) for v in value):
                raise ValueError(f"{where}{key}: expected a list of {item.__name__}, got {value!r}")
            value = tuple(value)
        elif not _json_is(hint, value):
            declared = cls.__dataclass_fields__[key].type
            raise ValueError(f"{where}{key}: expected {declared}, got {value!r}")
        values[key] = value
    try:
        return cls(**values)
    except ValueError as exc:
        raise ValueError(f"{where}{exc}") from None


DEFAULT_CONFIG = ScenarioConfig()


@dataclass(frozen=True)
class SweepRow:
    """One (load, scenario) record over `trials` trials.

    sum_* fields are trial means of per-trial sums; avg_bw_per_user is the
    trial mean of accepted bandwidth per associated user; stderr_* are
    standard errors across trials (0 with a single trial).  A one-trial
    row is run_trial's tally of a single trial.
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


# the CSV schema: one column per SweepRow field, in field order.  A cell is
# read back by its column's declared type, else as a float, else as its
# text, so that _from_json names the key of a value of the wrong type
_ROW_FIELDS = fields(SweepRow)
_CELL_PARSERS = {
    f.name: {"int": (int, float), "float": (float,)}.get(f.type, ()) for f in _ROW_FIELDS
}


def build_sps(cfg: ScenarioConfig) -> list[SpProfile]:
    """The cellular BS (index 0) plus n_wifi APs (indices 1..n) on a regular
    ring: the one SP layout, which resolve_user_game and the pool pass read.

    A fresh list of SpProfiles shared by every config with the same layout:
    the profiles are frozen, and each computed its Hata terms when built.
    """
    layout = (cfg.cellular, cfg.wifi, cfg.n_wifi, cfg.area_side_m, cfg.wifi_ring_fraction)
    return list(_layout_sps(*layout))


# bounded, so that a process that builds many configs keeps only recent layouts
@functools.lru_cache(maxsize=16)
def _layout_sps(
    cellular: SpParams, wifi: SpParams, n_wifi: int, side_m: float, ring_fraction: float
) -> tuple[SpProfile, ...]:
    center = (side_m / 2.0, side_m / 2.0)
    # every SpParams field is a scalar, so its instance dict is a complete
    # shallow copy; asdict would deep-copy it recursively
    sps = [SpProfile(position=center, **vars(cellular))]
    ring = ring_fraction * side_m
    for k in range(n_wifi):
        angle = 2.0 * math.pi * k / n_wifi
        pos = (center[0] + ring * math.cos(angle), center[1] + ring * math.sin(angle))
        sps.append(SpProfile(position=pos, **vars(wifi)))
    return tuple(sps)


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
    params = vars(cfg.user)
    users = [
        UserProfile(position=(x, y), active=a, **params)
        for (x, y), a in zip(positions.tolist(), activity.tolist(), strict=True)
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
        bw_each = allocate_bw(sp, sum(ln.covered for ln in reference))
        pairs = zip(users, reference, strict=True)
        links_by_sp.append([link_state(u, sp, noise, bw_each, ref) for u, ref in pairs])
    # transpose to per-user lists
    return [list(row) for row in zip(*links_by_sp)]


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
    pools = [sp.g_ba * sp.bw_total for sp in sps]
    # a retry resolves the same bids under one model, so a user's slots (the
    # BS's, then select_wifi_sp's AP) and triggered slots (committed guarantee
    # above the weighting fixed point) hold; only users with a triggered one retry
    own = [(0,) if o.wifi_index is None else (0, o.wifi_index) for o in outcomes]
    triggered = [
        {j for j in slots if isinstance(bids[j], Bid) and bids[j].guarantee > FIXED_POINT}
        for bids, slots in zip(all_bids, own)
    ]
    tried = [i for i, trig in enumerate(triggered) if trig]

    def accepted_by(i: int, outcome) -> set[int]:
        return {j for j, p in zip(own[i], outcome.strategy_draw) if p}

    def retry(i: int, widen: set[int], heads: Counter):
        """User i's game resolved again with each covered link in widen
        widened to the share pools[j] / heads[j], or None when no link
        widens.  Every slot in widen is counted in heads, so no share
        divides by zero."""
        row = None
        for j in widen:
            ln, share = links[i][j], pools[j] / heads[j]
            if ln.covered and share > ln.bw_max:
                row = row or list(links[i])
                row[j] = ln._replace(bw_max=share, b_max=share * math.log2(1.0 + ln.mean_snr))
        if row is None:
            return None
        return resolve_user_game(users[i], sps, row, all_bids[i], model, expansion_enabled=True)

    # per user, the slots its current outcome accepts; heads[j] counts the
    # users who accept slot j or are triggered on it
    accepted = [accepted_by(i, outcome) for i, outcome in enumerate(outcomes)]
    heads = Counter(j for acc, trig in zip(accepted, triggered) for j in acc | trig)

    # Rescue at the conservative share.  Only the failed slots are widened,
    # so already-accepted offers keep their first-pass pricing; a retry is
    # adopted only when it keeps every accepted slot and adds at least one,
    # all of them wanted, which keeps the served head counts exact and
    # monotone.
    result = list(outcomes)
    for i in tried:
        wanted = triggered[i] - accepted[i]
        retried = retry(i, wanted, heads)
        if retried is None:
            continue
        now = accepted_by(i, retried)
        if accepted[i] < now <= accepted[i] | wanted:
            result[i], accepted[i] = retried, now

    # Re-expand everything served at the final share.  Adopt the retry only
    # when the acceptance pattern is unchanged; otherwise the prior outcome
    # stands, whose allocations were priced at shares no larger than these.
    served = Counter(j for acc in accepted for j in acc)
    for i in tried:
        retried = retry(i, accepted[i] & triggered[i], served)
        if retried is not None and accepted_by(i, retried) == accepted[i]:
            result[i] = retried
    return result


@dataclass(frozen=True)
class TrialSolution:
    """One solved trial: the SPs, each user's committed bids (aligned with
    sps), and each scenario's final per-user outcomes, pool pass included.
    Indexing by a Scenario gives that scenario's outcomes."""

    sps: list[SpProfile]
    bids: list[list[Bid | NoBid]]
    outcomes: dict[Scenario, list[GameOutcome]]

    def __getitem__(self, scenario: Scenario) -> list[GameOutcome]:
        return self.outcomes[scenario]


def solve_trial(cfg: ScenarioConfig, n: int, trial: int) -> TrialSolution:
    """Solve all n per-user games once for each scenario.

    Topology, links, and committed bids are computed once and shared; the
    weighted scenarios differ only in perception and (for PT_EXPANSION) in
    the expansion policy applied to the bids in force.
    """
    topology, draws = np.random.SeedSequence([cfg.seed, n, trial]).spawn(2)
    users, sps = generate_topology(cfg, np.random.default_rng(topology), n)
    links = build_links(users, sps, cfg)
    all_bids = [make_eut_bids(u, sps, links[i]) for i, u in enumerate(users)]

    outcomes: dict[Scenario, list[GameOutcome]] = {}
    for scenario in Scenario:
        eut = scenario is Scenario.EUT
        model = DecisionModel.eut() if eut else DecisionModel.pt(cfg.prelec_alpha)
        expand = scenario is Scenario.PT_EXPANSION
        # only EUT games draw: a weighted game never reaches classify's mixed branch
        rng = np.random.default_rng(draws) if eut else None
        resolved = [
            resolve_user_game(user, sps, ln, bids, model, expansion_enabled=expand, rng=rng)
            for user, ln, bids in zip(users, links, all_bids)
        ]
        if expand:
            resolved = _pool_expansion_pass(users, sps, links, all_bids, resolved, model)
        outcomes[scenario] = resolved
    return TrialSolution(sps, all_bids, outcomes)


def run_trial(cfg: ScenarioConfig, n: int, trial: int) -> dict[Scenario, SweepRow]:
    """Each scenario's one-trial row of solve_trial's outcomes."""
    rows: dict[Scenario, SweepRow] = {}
    for scenario, outcomes in solve_trial(cfg, n, trial).outcomes.items():
        associated = 0
        sp_sum = user_sum = bw_sum = 0.0
        for outcome in outcomes:
            p_c, p_w = outcome.strategy_draw
            if p_c or p_w:
                associated += 1
            sp_sum += outcome.u_sp_w + outcome.u_sp_c
            user_sum += outcome.u_user
            # classify keeps each accepted slot's Bid
            bid_c, bid_w = outcome.bids
            if p_c:
                bw_sum += bid_c.bandwidth
            if p_w:
                bw_sum += bid_w.bandwidth
        avg_bw = bw_sum / associated if associated else 0.0
        rows[scenario] = SweepRow(
            n, scenario.value, sp_sum, user_sum, avg_bw, associated / n, 1, 0.0, 0.0
        )
    return rows


def run_point(cfg: ScenarioConfig, n: int) -> list[SweepRow]:
    """Aggregate cfg.trials independent trials at load n into three rows."""
    trials = [run_trial(cfg, n, t) for t in range(cfg.trials)]
    rows = []
    for scenario in Scenario:
        sp_sums = np.array([t[scenario].sum_sp_utility for t in trials])
        user_sums = np.array([t[scenario].sum_user_utility for t in trials])
        bw_avgs = np.array([t[scenario].avg_bw_per_user for t in trials])
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
    return rows


def run_sweep(cfg: ScenarioConfig) -> list[SweepRow]:
    """Rows for every (load, scenario) pair, loads in sweep order and
    scenarios in EUT, PT, PT_EXPANSION order within each load."""
    rows: list[SweepRow] = []
    for n in cfg.sweep:
        rows.extend(run_point(cfg, n))
    return rows


def emit(rows: list[SweepRow], fmt: str, path: str | Path) -> None:
    """Write rows as CSV (fixed header) or a JSON array of records."""
    if not rows:
        raise ValueError("nothing to emit: rows is empty")
    path = Path(path)
    try:
        if fmt == "csv":
            with open(path, "w", newline="", encoding="utf-8") as fh:
                writer = csv.writer(fh)
                # csv writes a float as its repr, so the text round-trips exactly
                writer.writerow(f.name for f in _ROW_FIELDS)
                writer.writerows(astuple(row) for row in rows)
        elif fmt == "json":
            records = [asdict(row) for row in rows]
            with open(path, "w", encoding="utf-8") as fh:
                json.dump(records, fh, indent=2)
                fh.write("\n")
        else:
            raise ValueError(f"unknown format {fmt!r}; expected 'csv' or 'json'")
    except OSError as exc:
        raise OSError(f"cannot write results to {path}: {exc}") from exc


def _parse_cell(key: str, text: str):
    for parse in _CELL_PARSERS.get(key, ()):
        try:
            return parse(text)
        except ValueError:
            pass
    return text


def load_rows(path: str | Path, fmt: str = "csv") -> list[SweepRow]:
    """Inverse of emit, for round-trip checks and downstream analysis.  Every
    record is checked as a JSON row is, with a one-line error naming the
    record (a CSV row by its line in the file, a JSON row by its index in
    the array) and the key."""
    if fmt not in ("csv", "json"):
        raise ValueError(f"unknown format {fmt!r}; expected 'csv' or 'json'")
    with open(path, newline="", encoding="utf-8") as fh:
        if fmt == "json":
            data = json.load(fh)
            if not isinstance(data, list):
                raise ValueError(f"rows: expected a JSON array, got {type(data).__name__}")
            records = [(f"row {i}", rec) for i, rec in enumerate(data)]
        else:
            # a blank line is no record
            reader = csv.reader(fh)
            header = next(reader, [])
            records = []
            for cells in filter(None, reader):
                where = f"line {reader.line_num}"
                if len(cells) != len(header):
                    raise ValueError(f"{where}: {len(cells)} cells, header has {len(header)}")
                records.append((where, {k: _parse_cell(k, v) for k, v in zip(header, cells)}))
    return [_from_json(SweepRow, rec, where) for where, rec in records]
