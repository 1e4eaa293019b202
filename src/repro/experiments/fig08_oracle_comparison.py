"""Figure 8: ALERT versus Oracle and OracleStatic, whisker view.

For the minimise-energy task, Figure 8 plots each scheme's mean
per-setting energy with whiskers over the whole constraint range, per
platform/task/environment.  The paper's reading: ALERT's whole range
sits close to Oracle's, while OracleStatic has both the worst mean and
the worst tail.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.analysis.tables import render_table
from repro.experiments.harness import evaluate_schemes
from repro.workloads.scenarios import build_scenario, constraint_grid, stride_settings

__all__ = ["Whisker", "Fig08Result", "run"]

SCHEMES = ("OracleStatic", "ALERT", "Oracle")


@dataclass(frozen=True)
class Whisker:
    """Mean and range of per-setting energies for one scheme."""

    scheme: str
    env: str
    mean_j: float
    min_j: float
    max_j: float


@dataclass
class Fig08Result:
    """All whiskers for one (platform, task)."""

    platform: str
    task: str
    whiskers: list[Whisker]

    def whisker(self, scheme: str, env: str) -> Whisker:
        for w in self.whiskers:
            if w.scheme == scheme and w.env == env:
                return w
        raise KeyError((scheme, env))

    def describe(self) -> str:
        rows = [
            [w.env, w.scheme, w.mean_j, w.min_j, w.max_j] for w in self.whiskers
        ]
        return render_table(
            ["env", "scheme", "mean_J", "min_J", "max_J"],
            rows,
            title=f"Figure 8: {self.platform} {self.task}, minimize-energy task",
        )


def run(
    platform: str = "CPU1",
    task: str = "image",
    envs: tuple[str, ...] = ("default", "compute", "memory"),
    settings_stride: int = 3,
    n_inputs: int = 100,
    seed: int = 20200909,
    workers: int = 1,
) -> Fig08Result:
    """Collect the Figure 8 whiskers for one platform/task.

    ``workers`` > 1 fans each environment's runs out over a process
    pool (results are bit-identical to serial).
    """
    whiskers: list[Whisker] = []
    for env in envs:
        scenario = build_scenario(platform, task, env, "standard", seed)
        grid = constraint_grid(scenario)
        goals = stride_settings(grid.min_energy_goals, settings_stride)
        runs = evaluate_schemes(
            scenario, goals, SCHEMES, n_inputs, workers=workers
        )
        for scheme in SCHEMES:
            energies = [r.mean_energy_j for r in runs.scheme_runs(scheme)]
            whiskers.append(
                Whisker(
                    scheme=scheme,
                    env=env,
                    mean_j=float(np.mean(energies)),
                    min_j=float(np.min(energies)),
                    max_j=float(np.max(energies)),
                )
            )
    return Fig08Result(platform=platform, task=task, whiskers=whiskers)
