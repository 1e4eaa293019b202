"""Table 4 / Figure 7: the headline end-to-end comparison.

For every (platform, task, environment) cell, run every scheme over
the Table 3 constraint grid for both optimisation modes, normalise to
OracleStatic, exclude violated settings from the averages (counting
them as the superscript), and aggregate with harmonic means.

The full paper grid (3 platforms x 2 tasks x 3 environments x 70
settings x 7 schemes) is expensive; ``run`` takes platform/task/env
subsets, a settings stride, and an input count so callers choose their
budget.  The table is one sweep (:func:`repro.runtime.sweep.run_sweep`):
each scenario runs both objectives' settings as one cell, so every
scheme sees the same inputs and environment under both objectives,
and the table renders from the sweep's per-setting summaries.  The
bench uses a single cell.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.analysis.stats import SchemeCell, harmonic_mean, summarize_runs
from repro.analysis.tables import render_table
from repro.errors import ConfigurationError
from repro.runtime.sweep import SweepSpec, run_sweep

__all__ = ["CellKey", "Table4Result", "run", "sweep_cells", "DEFAULT_SCHEMES"]

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
    :class:`ConfigurationError`.  The whole table is one
    :class:`~repro.runtime.sweep.SweepSpec` and one
    :func:`~repro.runtime.sweep.run_sweep` call: each (platform, task,
    environment) scenario runs every objective's settings as one
    lockstep cell (24 goals at stride 3), and each objective's
    per-setting summaries are aggregated as its own cell, against its
    own OracleStatic summaries.  ``workers`` > 1 runs the sweep's
    specs on a process pool whose workers return summaries (results
    are bit-identical to serial).
    """
    if "OracleStatic" not in schemes:
        raise ConfigurationError(
            "OracleStatic must be included: it is the normalisation baseline"
        )
    spec = SweepSpec(
        platforms=platforms, tasks=tasks, envs=envs, schemes=schemes,
        objectives=objectives, settings_stride=settings_stride,
        n_inputs=n_inputs, seeds=(seed,),
    )
    result = Table4Result()
    for scenario, objective, cell in sweep_cells(spec, workers):
        key = CellKey(
            platform=scenario.platform, task=scenario.task, env=scenario.env,
            objective=objective,
        )
        result.cells[key] = cell
    return result


def sweep_cells(spec: SweepSpec, workers: int):
    """Run a table's sweep; yield each (scenario, objective)'s cell.

    Yields ``(scenario, objective, cell)`` in scenario order, then
    ``spec.objectives`` order; ``cell`` maps each scheme to
    :func:`summarize_runs` over its per-setting summaries against the
    OracleStatic ones, called once per (cell, scheme) in that order.
    """
    sweep = run_sweep(spec, workers=workers)
    baseline = spec.schemes.index("OracleStatic")
    for scenario, objective, cells in sweep.objective_cells(spec.objectives):
        baseline_summaries = [cell[baseline] for cell in cells]
        yield scenario, objective, {
            scheme: summarize_runs(
                scheme, [cell[position] for cell in cells], baseline_summaries
            )
            for position, scheme in enumerate(spec.schemes)
        }
