"""Timers and spans that the benchmark wraps around hetnetsim's layer entry
points.

Nothing under src/ is edited: wrappers replace module attributes for the
length of one block and the originals are restored afterwards.  A wrapper
goes on the *calling* module's attribute, because the package's modules
import each other's names with ``from ... import``; e.g. the CLI writes rows
through ``hetnetsim.cli.emit``, not ``hetnetsim.harness.emit``.

Self time of a span is its duration minus the durations of the spans opened
inside it.  Durations are integer nanoseconds, so the self times of every
span opened inside a trial add up exactly to the trial's duration.
"""

from __future__ import annotations

import contextlib
import time
from collections import Counter

from calibrate import REFERENCE_KERNEL_MS, kernel_ms
from checks import SCENARIOS

NE_CLASSES = ("Reject00", "WifiOnly01", "CellOnly10", "Both11", "Mixed0110", "Infeasible")


@contextlib.contextmanager
def patched(targets):
    """Replace each (module, name) attribute by make(original) until exit.

    targets is a list of (module, name, make) triples.
    """
    saved = [(module, name, getattr(module, name)) for module, name, _ in targets]
    try:
        for (module, name, make), (_, _, original) in zip(targets, saved):
            setattr(module, name, make(original))
        yield
    finally:
        for module, name, original in reversed(saved):
            setattr(module, name, original)


class TrialTimer:
    """Wall time of every completed run_trial call, in milliseconds, keyed
    by the trial's load n: as measured (raw_ms) and restated at the
    reference speed (samples_ms).  The calibration kernel runs right before
    and right after each trial, outside the timed span; the trial's speed is
    the mean of the two kernel times."""

    def __init__(self) -> None:
        self.samples_ms: dict[int, list[float]] = {}
        self.raw_ms: dict[int, list[float]] = {}

    def count(self) -> int:
        return sum(len(v) for v in self.samples_ms.values())

    def targets(self, harness) -> list:
        def make(fn):
            def timed(cfg, n, *args, **kwargs):
                before = kernel_ms()
                start = time.perf_counter()
                result = fn(cfg, n, *args, **kwargs)
                wall_ms = (time.perf_counter() - start) * 1e3
                speed = REFERENCE_KERNEL_MS / ((before + kernel_ms()) / 2)
                self.raw_ms.setdefault(n, []).append(wall_ms)
                self.samples_ms.setdefault(n, []).append(wall_ms * speed)
                return result

            return timed

        return [(harness, "run_trial", make)]


def scenario_of(is_pt: bool, expansion_enabled: bool) -> str:
    """The sweep scenario a resolve call belongs to."""
    if not is_pt:
        return "EUT"
    return "PT_EXPANSION" if expansion_enabled else "PT"


class Tracer:
    """Self time per span key and counts per counter key, for traced blocks.

    ``ns[key]`` is self time and ``wall_ns[key]`` full duration, both summed
    over calls; ``counts[key]`` is the number of calls, ``counts[key +
    '.bids']`` how many returned a Bid, and ``counts['label.<SCENARIO>.<class>']``
    the final equilibrium labels.  Resolve calls made inside the pool pass
    are pool retries: they are counted, not timed, so their own work is part
    of the pool pass's self time.
    """

    def __init__(self, bid_type: type) -> None:
        self.ns: Counter = Counter()
        self.wall_ns: Counter = Counter()
        self.counts: Counter = Counter()
        self._bid_type = bid_type
        self._open: list[list[int]] = []  # child time of each open span
        self._in_pool = False

    def _span(self, key, fn, args, kwargs):
        child = [0]
        self._open.append(child)
        start = time.perf_counter_ns()
        try:
            return fn(*args, **kwargs)
        finally:
            dur = time.perf_counter_ns() - start
            self._open.pop()
            self.ns[key] += dur - child[0]
            self.wall_ns[key] += dur
            self.counts[key] += 1
            if self._open:
                self._open[-1][0] += dur

    def timed(self, key: str, count_bids: bool = False):
        def make(fn):
            def wrapper(*args, **kwargs):
                result = self._span(key, fn, args, kwargs)
                if count_bids and isinstance(result, self._bid_type):
                    self.counts[key + ".bids"] += 1
                return result

            return wrapper

        return make

    def counted(self, key: str):
        def make(fn):
            def wrapper(*args, **kwargs):
                self.counts[key] += 1
                return fn(*args, **kwargs)

            return wrapper

        return make

    def _resolve(self, fn):
        # resolve_user_game(user, sps, links, eut_bids, model, expansion_enabled, rng)
        def wrapper(*args, **kwargs):
            if self._in_pool:
                self.counts["pool_retry"] += 1
                return fn(*args, **kwargs)
            model = args[4] if len(args) > 4 else kwargs["model"]
            expand = args[5] if len(args) > 5 else kwargs.get("expansion_enabled", False)
            scenario = scenario_of(model.is_pt, expand)
            outcome = self._span("resolve." + scenario, fn, args, kwargs)
            self.counts[f"label.{scenario}.{outcome.ne_class.value}"] += 1
            return outcome

        return wrapper

    def _pool(self, fn):
        # _pool_expansion_pass(users, sps, links, all_bids, outcomes, model)
        def wrapper(*args, **kwargs):
            outcomes = args[4] if len(args) > 4 else kwargs["outcomes"]
            model = args[5] if len(args) > 5 else kwargs["model"]
            scenario = scenario_of(model.is_pt, True)
            self._in_pool = True
            try:
                result = self._span("pool_pass", fn, args, kwargs)
            finally:
                self._in_pool = False
            # relabel users whose outcome a retry replaced
            for old, new in zip(outcomes, result, strict=True):
                if new is not old:
                    self.counts["pool_adopted"] += 1
                    self.counts[f"label.{scenario}.{old.ne_class.value}"] -= 1
                    self.counts[f"label.{scenario}.{new.ne_class.value}"] += 1
            return result

        return wrapper

    def targets(self, harness, equilibrium, cli) -> list:
        return [
            (harness, "run_point", self.timed("aggregate")),
            (harness, "run_trial", self.timed("trial")),
            (harness, "generate_topology", self.timed("topology")),
            (harness, "build_links", self.timed("links")),
            (harness, "link_state", self.counted("link_state")),
            (harness, "make_eut_bids", self.timed("bids")),
            (harness, "resolve_user_game", self._resolve),
            (harness, "_pool_expansion_pass", self._pool),
            (cli, "emit", self.timed("emit")),
            (equilibrium, "optimize_bid", self.timed("optimize_bid", count_bids=True)),
            (equilibrium, "expand_bw_pt", self.timed("expand_bw_pt", count_bids=True)),
            (equilibrium, "expansion_rebid", self.timed("expansion_rebid", count_bids=True)),
            (equilibrium, "select_wifi_sp", self.timed("select_wifi_sp")),
            (equilibrium, "best_response", self.timed("best_response")),
        ]

    def unaccounted_ns(self) -> int:
        """Trial time not covered by the self time of a span inside a trial
        (0 while every wrapped call happens inside run_trial)."""
        inside = sum(v for k, v in self.ns.items() if k not in ("aggregate", "emit"))
        return self.wall_ns["trial"] - inside


# (metric name, span or counter key, kind); kinds: "ms" self time and
# "wall_ms" full span time per trial, "count" count per trial, "frac" Bids
# returned per call
_LAYER_METRICS = [
    ("harness.trial_ms", "trial", "wall_ms"),
    ("harness.trial_self_ms", "trial", "ms"),
    ("harness.topology_ms", "topology", "ms"),
    ("channel.links_ms", "links", "ms"),
    ("channel.link_state_calls", "link_state", "count"),
    ("harness.bids_self_ms", "bids", "ms"),
    ("leader.optimize_bid_ms", "optimize_bid", "ms"),
    ("leader.optimize_bid_calls", "optimize_bid", "count"),
    ("leader.optimize_bid_bid_frac", "optimize_bid", "frac"),
    ("leader.expand_bw_pt_ms", "expand_bw_pt", "ms"),
    ("leader.expand_bw_pt_calls", "expand_bw_pt", "count"),
    ("leader.expand_bw_pt_bid_frac", "expand_bw_pt", "frac"),
    ("leader.expansion_rebid_ms", "expansion_rebid", "ms"),
    ("leader.expansion_rebid_calls", "expansion_rebid", "count"),
    ("leader.expansion_rebid_bid_frac", "expansion_rebid", "frac"),
    ("follower.select_wifi_sp_ms", "select_wifi_sp", "ms"),
    ("follower.select_wifi_sp_calls", "select_wifi_sp", "count"),
    ("follower.best_response_ms", "best_response", "ms"),
    ("follower.best_response_calls", "best_response", "count"),
    *[
        (f"equilibrium.resolve_{s}_{suffix}", f"resolve.{s}", kind)
        for s in SCENARIOS
        for suffix, kind in (("self_ms", "ms"), ("calls", "count"))
    ],
    ("harness.pool_pass_self_ms", "pool_pass", "ms"),
    ("harness.pool_pass_retries", "pool_retry", "count"),
    ("harness.pool_pass_adopted", "pool_adopted", "count"),
    ("harness.aggregate_ms", "aggregate", "ms"),
    ("harness.emit_ms", "emit", "ms"),
    *[
        (f"equilibrium.label.{s}.{c}", f"label.{s}.{c}", "count")
        for s in SCENARIOS
        for c in NE_CLASSES
    ],
]

_UNITS = {"ms": "ms/trial", "wall_ms": "ms/trial", "count": "count/trial", "frac": "ratio"}


def layer_metrics(times: Tracer, counts: Counter, timed_trials: int, counted_trials: int) -> dict:
    """Per-trial layer metrics: times over every traced trial, counts over
    the fixed fingerprint trials (so that they repeat exactly)."""
    out = {}
    for name, key, kind in _LAYER_METRICS:
        if kind == "ms":
            value = times.ns[key] / 1e6 / timed_trials
        elif kind == "wall_ms":
            value = times.wall_ns[key] / 1e6 / timed_trials
        elif kind == "count":
            value = counts[key] / counted_trials
        else:
            value = counts[key + ".bids"] / counts[key] if counts[key] else 0.0
        out[name] = {"value": value, "unit": _UNITS[kind]}
    return out

