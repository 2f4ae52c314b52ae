"""Output checks: sweep rows against the row structure and, where stored,
the reference rows; and the traced count fingerprint against earlier runs."""

from __future__ import annotations

import json
import math
from pathlib import Path

SCENARIOS = ("EUT", "PT", "PT_EXPANSION")
FLOAT_FIELDS = (
    "sum_sp_utility",
    "sum_user_utility",
    "avg_bw_per_user",
    "association_rate",
    "stderr_sp",
    "stderr_user",
)
# largest relative difference from the reference a row may show; a
# reordering of floating-point sums must stay within it
REL_TOL = 1e-12


def _structure_ok(row: dict, n: int, scenario: str, trials: int) -> bool:
    return (
        row.get("n") == n
        and row.get("scenario") == scenario
        and row.get("trials") == trials
        and all(isinstance(row.get(f), float) and math.isfinite(row[f]) for f in FLOAT_FIELDS)
        and 0.0 <= row["association_rate"] <= 1.0
    )


def _matches(row: dict, ref: dict) -> bool:
    for key, want in ref.items():
        got = row.get(key)
        if isinstance(want, float):
            if not (isinstance(got, float) and math.isclose(got, want, rel_tol=REL_TOL, abs_tol=0.0)):
                return False
        elif got != want:
            return False
    return True


def check_rows(
    rows: list[dict] | None,
    sweep: tuple[int, ...],
    trials: int,
    reference: list[dict] | None = None,
) -> tuple[int, int]:
    """(rows attempted, rows failed) for one block's rows.

    rows is None when the block raised: every row it owed fails.  Each row
    must have the expected load, scenario and trial count, finite values
    and an association rate in [0, 1]; with a reference it must also match
    the reference row field by field within REL_TOL.
    """
    expected = [(n, s) for n in sweep for s in SCENARIOS]
    if rows is None:
        return len(expected), len(expected)
    failed = 0
    for i, (n, scenario) in enumerate(expected):
        row = rows[i] if i < len(rows) else None
        ok = row is not None and _structure_ok(row, n, scenario, trials)
        if ok and reference is not None:
            ok = i < len(reference) and _matches(row, reference[i])
        failed += not ok
    extra = max(0, len(rows) - len(expected))
    return len(expected) + extra, failed + extra


def fingerprint_diff(current: dict, previous: dict) -> list[str]:
    """Keys whose value differs between two fingerprints."""
    keys = sorted(set(current) | set(previous))
    return [k for k in keys if current.get(k) != previous.get(k)]


def compare_with_previous(fingerprint: dict, path: Path) -> list[str] | None:
    """Diff against the fingerprint that the first run with the same
    workload and seed stored at path; store this one if there is none yet
    (and return None)."""
    if path.exists():
        return fingerprint_diff(fingerprint, json.loads(path.read_text()))
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps(fingerprint, indent=1, sort_keys=True) + "\n")
    return None
