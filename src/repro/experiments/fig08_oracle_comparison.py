"""Figure 8: ALERT versus Oracle and OracleStatic, whisker view.

For the minimise-energy task, Figure 8 plots each scheme's mean
per-setting energy with whiskers over the whole constraint range, per
platform/task/environment.  The paper's reading: ALERT's whole range
sits close to Oracle's, while OracleStatic has both the worst mean and
the worst tail.  The figure is one sweep
(:func:`repro.runtime.sweep.run_sweep`) over the minimise-energy
settings of every environment, and the whiskers are read from its
per-setting summaries.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.analysis.tables import render_table
from repro.runtime.sweep import SweepSpec, run_sweep

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

    The GPU platform reports the image task only, as in Table 4.
    ``workers`` > 1 runs the sweep's specs on a process pool (results
    are bit-identical to serial).
    """
    spec = SweepSpec(
        platforms=(platform,), tasks=(task,), envs=envs, schemes=SCHEMES,
        objectives=("min_energy",), settings_stride=settings_stride,
        n_inputs=n_inputs, seeds=(seed,),
    )
    sweep = run_sweep(spec, workers=workers)
    whiskers: list[Whisker] = []
    for scenario, _objective, cells in sweep.objective_cells(spec.objectives):
        for position, scheme in enumerate(SCHEMES):
            energies = [cell[position].mean_energy_j for cell in cells]
            whiskers.append(
                Whisker(
                    scheme=scheme,
                    env=scenario.env,
                    mean_j=float(np.mean(energies)),
                    min_j=float(np.min(energies)),
                    max_j=float(np.max(energies)),
                )
            )
    return Fig08Result(platform=platform, task=task, whiskers=whiskers)
