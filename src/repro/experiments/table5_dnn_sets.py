"""Table 5: ALERT with different DNN candidate sets.

Compares ALERT (traditional + anytime), ALERT-Any (anytime only), and
ALERT-Trad (traditional only) on the image task.  The paper's
findings: all three work well; ALERT-Trad violates more accuracy
constraints under contention (a traditional network crashes hard when
it misses); mixing both candidate kinds is slightly better than
either alone.

The table is one sweep, as Table 4 is
(:func:`repro.experiments.table4_overall.sweep_cells`): each scenario
runs both objectives' settings as one cell, and each objective's
per-setting summaries are aggregated as its own cell.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.analysis.stats import SchemeCell, harmonic_mean
from repro.analysis.tables import render_table
from repro.experiments.table4_overall import sweep_cells
from repro.runtime.sweep import SweepSpec

__all__ = ["Table5Result", "run"]

SCHEMES = ("ALERT", "ALERT-Any", "ALERT-Trad", "OracleStatic")


@dataclass
class Table5Result:
    """Cells keyed by (platform, env, objective)."""

    cells: dict[tuple[str, str, str], dict[str, SchemeCell]] = field(
        default_factory=dict
    )

    def harmonic_means(self, objective: str) -> dict[str, float]:
        """Bottom-row aggregates per scheme."""
        means: dict[str, float] = {}
        for scheme in SCHEMES:
            values = [
                cell[scheme].normalized_objective
                for (_, _, obj), cell in self.cells.items()
                if obj == objective
                and cell[scheme].normalized_objective
                == cell[scheme].normalized_objective
            ]
            if values:
                means[scheme] = harmonic_mean(values)
        return means

    def violated_settings(self, scheme: str) -> int:
        """Total violated settings for one scheme across all cells."""
        return sum(cell[scheme].violated_settings for cell in self.cells.values())

    def describe(self) -> str:
        rows = [
            [platform, env, obj] + [cell[s].describe() for s in SCHEMES]
            for (platform, env, obj), cell in sorted(self.cells.items())
        ]
        return render_table(
            ["platform", "env", "objective"] + list(SCHEMES),
            rows,
            title="Table 5: ALERT with different DNN candidate sets",
        )


def run(
    platforms: tuple[str, ...] = ("CPU1",),
    envs: tuple[str, ...] = ("default", "compute", "memory"),
    objectives: tuple[str, ...] = ("min_energy", "min_error"),
    settings_stride: int = 3,
    n_inputs: int = 100,
    seed: int = 20200808,
    workers: int = 1,
) -> Table5Result:
    """Evaluate the candidate-set comparison on the image task.

    As in :func:`repro.experiments.table4_overall.run`, the table is
    one sweep whose scenarios each run every objective's settings as
    one cell.  ``workers`` > 1 runs the sweep's specs on a process pool
    (results are bit-identical to serial).
    """
    spec = SweepSpec(
        platforms=platforms, tasks=("image",), envs=envs, schemes=SCHEMES,
        objectives=objectives, settings_stride=settings_stride,
        n_inputs=n_inputs, seeds=(seed,),
    )
    result = Table5Result()
    for scenario, objective, cell in sweep_cells(spec, workers):
        result.cells[(scenario.platform, scenario.env, objective)] = cell
    return result
