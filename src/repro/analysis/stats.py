"""Statistics used by the paper's tables.

Table 4 reports, per scheme and per (platform, task, environment)
cell, the mean energy (or error) over the cell's 35-40 constraint
settings, *normalised to OracleStatic*, with violated settings (>10%
of inputs breaking a constraint) excluded from the average but counted
in a superscript.  The bottom row aggregates cells with a harmonic
mean.  This module implements those conventions once so every
experiment driver agrees on them.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.errors import ConfigurationError
from repro.runtime.results import RunResult

__all__ = [
    "harmonic_mean",
    "normalize_to_baseline",
    "SchemeCell",
    "summarize_runs",
]


def harmonic_mean(values: list[float]) -> float:
    """Harmonic mean of positive values (the Table 4 aggregate).

    >>> round(harmonic_mean([1.0, 1.0]), 6)
    1.0
    >>> round(harmonic_mean([0.5, 1.0]), 6)
    0.666667
    """
    if not values:
        raise ConfigurationError("harmonic mean of an empty list")
    array = np.asarray(values, dtype=float)
    if np.any(array <= 0):
        raise ConfigurationError("harmonic mean requires positive values")
    return float(len(array) / np.sum(1.0 / array))


@dataclass(frozen=True)
class SchemeCell:
    """One Table 4 cell: a scheme's aggregate over constraint settings.

    Attributes
    ----------
    scheme:
        Scheduler name.
    normalized_objective:
        Mean of per-setting (scheme objective / OracleStatic objective)
        over settings where the scheme stayed within the 10% rule;
        NaN when every setting was violated.
    violated_settings:
        Table 4's superscript: settings with >10% of inputs violating.
    n_settings:
        Total settings in the cell.
    raw_objective:
        Unnormalised mean objective over non-violated settings.
    """

    scheme: str
    normalized_objective: float
    violated_settings: int
    n_settings: int
    raw_objective: float

    def describe(self) -> str:
        """Table-style ``0.64^3``-like rendering."""
        sup = f"^{self.violated_settings}" if self.violated_settings else ""
        if np.isnan(self.normalized_objective):
            return f"--{sup}"
        return f"{self.normalized_objective:.2f}{sup}"


def normalize_to_baseline(
    runs: list[RunResult], baseline_runs: list[RunResult]
) -> list[float]:
    """Per-setting objective ratios scheme/baseline.

    Both lists must be index-aligned over the same constraint settings.
    """
    if len(runs) != len(baseline_runs):
        raise ConfigurationError(
            f"mismatched setting counts: {len(runs)} vs {len(baseline_runs)}"
        )
    ratios: list[float] = []
    for run, base in zip(runs, baseline_runs):
        denom = base.objective_value
        if denom <= 0:
            denom = 1e-9
        ratios.append(run.objective_value / denom)
    return ratios


def summarize_runs(
    scheme: str,
    runs: list[RunResult],
    baseline_runs: list[RunResult],
) -> SchemeCell:
    """Aggregate one scheme's runs into a Table 4 cell.

    ``runs`` and ``baseline_runs`` are index-aligned per constraint
    setting.  Only ``objective_value`` and ``setting_violated`` are
    read, so the sweep's per-setting
    :class:`~repro.runtime.sweep.CellSummary` rows serve as well as
    :class:`RunResult` runs (the tables pass summaries).
    """
    if not runs:
        raise ConfigurationError("cannot summarise an empty run list")
    ratios = normalize_to_baseline(runs, baseline_runs)
    kept = [
        (ratio, run.objective_value)
        for ratio, run in zip(ratios, runs)
        if not run.setting_violated
    ]
    violated = sum(1 for run in runs if run.setting_violated)
    if kept:
        normalized = float(np.mean([ratio for ratio, _ in kept]))
        raw = float(np.mean([value for _, value in kept]))
    else:
        normalized = float("nan")
        raw = float("nan")
    return SchemeCell(
        scheme=scheme,
        normalized_objective=normalized,
        violated_settings=violated,
        n_settings=len(runs),
        raw_objective=raw,
    )
