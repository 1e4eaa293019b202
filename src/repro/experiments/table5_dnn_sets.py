"""Table 5: ALERT with different DNN candidate sets.

Compares ALERT (traditional + anytime), ALERT-Any (anytime only), and
ALERT-Trad (traditional only) on the image task.  The paper's
findings: all three work well; ALERT-Trad violates more accuracy
constraints under contention (a traditional network crashes hard when
it misses); mixing both candidate kinds is slightly better than
either alone.

Each scenario runs both objectives' settings as one cell, as Table 4
does (:func:`repro.experiments.table4_overall.scenario_cells`).
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.analysis.stats import SchemeCell, harmonic_mean
from repro.analysis.tables import render_table
from repro.experiments.table4_overall import scenario_cells
from repro.workloads.scenarios import build_scenario

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

    As in :func:`repro.experiments.table4_overall.run`, each
    (platform, environment) scenario is one evaluation over every
    objective's settings, split into the objectives' cells.
    ``workers`` > 1 fans each scenario's runs out over a process pool
    (results are bit-identical to serial).
    """
    result = Table5Result()
    for platform in platforms:
        for env in envs:
            scenario = build_scenario(platform, "image", env, "standard", seed)
            cells = scenario_cells(
                scenario, SCHEMES, objectives, settings_stride, n_inputs,
                workers,
            )
            for objective, cell in zip(objectives, cells):
                result.cells[(platform, env, objective)] = cell
    return result
