"""Table 4 / Figure 7: the headline end-to-end comparison.

For every (platform, task, environment) cell, run every scheme over
the Table 3 constraint grid for both optimisation modes, normalise to
OracleStatic, exclude violated settings from the averages (counting
them as the superscript), and aggregate with harmonic means.

The full paper grid (3 platforms x 2 tasks x 3 environments x 70
settings x 7 schemes) is expensive; ``run`` takes platform/task/env
subsets, a settings stride, and an input count so callers choose their
budget.  The bench uses a single cell; ``repro.runtime.sweep`` runs
larger grids with checkpoints.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.analysis.stats import SchemeCell, harmonic_mean, summarize_runs
from repro.analysis.tables import render_table
from repro.errors import ConfigurationError
from repro.experiments.harness import evaluate_schemes
from repro.workloads.scenarios import build_scenario, constraint_grid, stride_settings

__all__ = ["CellKey", "Table4Result", "run", "DEFAULT_SCHEMES"]

DEFAULT_SCHEMES = (
    "ALERT",
    "ALERT-Any",
    "Sys-only",
    "App-only",
    "No-coord",
    "Oracle",
    "OracleStatic",
)


@dataclass(frozen=True)
class CellKey:
    """Identifies one Table 4 cell."""

    platform: str
    task: str
    env: str
    objective: str


@dataclass
class Table4Result:
    """All evaluated cells plus the Figure 7 style aggregates."""

    cells: dict[CellKey, dict[str, SchemeCell]] = field(default_factory=dict)

    def schemes(self) -> list[str]:
        for cell in self.cells.values():
            return list(cell.keys())
        return []

    def harmonic_means(self, objective: str) -> dict[str, float]:
        """Figure 7's bottom-row aggregate for one objective."""
        means: dict[str, float] = {}
        for scheme in self.schemes():
            values = [
                cell[scheme].normalized_objective
                for key, cell in self.cells.items()
                if key.objective == objective
                and cell[scheme].normalized_objective
                == cell[scheme].normalized_objective  # not NaN
            ]
            if values:
                means[scheme] = harmonic_mean(values)
        return means

    def violation_percentage(self, objective: str) -> dict[str, float]:
        """Figure 7's star markers: % of settings violated per scheme."""
        out: dict[str, float] = {}
        for scheme in self.schemes():
            violated = 0
            total = 0
            for key, cell in self.cells.items():
                if key.objective != objective:
                    continue
                violated += cell[scheme].violated_settings
                total += cell[scheme].n_settings
            if total:
                out[scheme] = 100.0 * violated / total
        return out

    def describe(self) -> str:
        schemes = self.schemes()
        rows = []
        for key, cell in sorted(
            self.cells.items(),
            key=lambda kv: (kv[0].objective, kv[0].platform, kv[0].task, kv[0].env),
        ):
            rows.append(
                [key.platform, key.task, key.env, key.objective]
                + [cell[s].describe() for s in schemes]
            )
        table = render_table(
            ["platform", "task", "env", "objective"] + list(schemes), rows,
            title="Table 4: normalized objective (superscript = violated settings)",
        )
        lines = [table]
        for objective in ("min_energy", "min_error"):
            means = self.harmonic_means(objective)
            if means:
                lines.append(
                    f"harmonic mean ({objective}): "
                    + ", ".join(f"{k}={v:.2f}" for k, v in means.items())
                )
        return "\n".join(lines)


def run(
    platforms: tuple[str, ...] = ("CPU1",),
    tasks: tuple[str, ...] = ("image",),
    envs: tuple[str, ...] = ("default", "compute", "memory"),
    schemes: tuple[str, ...] = DEFAULT_SCHEMES,
    objectives: tuple[str, ...] = ("min_energy", "min_error"),
    settings_stride: int = 3,
    n_inputs: int = 100,
    seed: int = 20200707,
    workers: int = 1,
) -> Table4Result:
    """Evaluate the Table 4 grid over the requested subsets.

    ``settings_stride`` subsamples the 35-setting grids (stride 3
    keeps 12 settings per cell); the GPU platform skips the sentence
    task, as in the paper, and a request that leaves no cell raises
    :class:`ConfigurationError`.  ``workers`` > 1 fans each cell's
    runs out over a process pool (results are bit-identical to
    serial).
    """
    if "OracleStatic" not in schemes:
        raise ConfigurationError(
            "OracleStatic must be included: it is the normalisation baseline"
        )
    result = Table4Result()
    for platform in platforms:
        for task in tasks:
            if platform.upper() == "GPU" and task != "image":
                continue
            for env in envs:
                scenario = build_scenario(platform, task, env, "standard", seed)
                grid = constraint_grid(scenario)
                for objective in objectives:
                    goals = (
                        grid.min_energy_goals
                        if objective == "min_energy"
                        else grid.min_error_goals
                    )
                    subset = stride_settings(goals, settings_stride)
                    cell_runs = evaluate_schemes(
                        scenario, subset, schemes, n_inputs=n_inputs,
                        workers=workers,
                    )
                    baseline = cell_runs.scheme_runs("OracleStatic")
                    cell: dict[str, SchemeCell] = {}
                    for scheme in schemes:
                        cell[scheme] = summarize_runs(
                            scheme, cell_runs.scheme_runs(scheme), baseline
                        )
                    key = CellKey(
                        platform=platform,
                        task=task,
                        env=env,
                        objective=objective,
                    )
                    result.cells[key] = cell
    if not result.cells:
        raise ConfigurationError(
            "no Table 4 cell left to evaluate: the GPU platform reports "
            "the image task only, as in the paper"
        )
    return result
