"""Bench: regenerate a Table 4 / Figure 7 cell (the headline result).

One (platform, task, environment) cell with all schemes and both
objectives; ``repro sweep`` runs the full grid.
"""

from __future__ import annotations

from repro.experiments import table4_overall
from repro.experiments.table4_overall import CellKey


def test_table4_cpu1_image_memory(once):
    result = once(
        table4_overall.run,
        platforms=("CPU1",),
        tasks=("image",),
        envs=("memory",),
        schemes=(
            "ALERT",
            "ALERT-Any",
            "Sys-only",
            "App-only",
            "No-coord",
            "Oracle",
            "OracleStatic",
        ),
        objectives=("min_energy", "min_error"),
        settings_stride=3,
        n_inputs=100,
    )
    energy_cell = result.cells[
        CellKey("CPU1", "image", "memory", "min_energy")
    ]
    # Paper orderings (minimise-energy): the single-layer and
    # uncoordinated baselines waste energy or violate; ALERT tracks
    # the oracles.
    assert energy_cell["App-only"].normalized_objective > 2.0
    assert energy_cell["No-coord"].normalized_objective > 1.5
    assert energy_cell["ALERT"].normalized_objective < 1.2
    assert energy_cell["Oracle"].normalized_objective <= 1.02
    assert (
        energy_cell["Sys-only"].violated_settings
        > energy_cell["ALERT"].violated_settings
    )
    # ALERT violates no settings the Oracle does not also violate.
    assert (
        energy_cell["ALERT"].violated_settings
        <= energy_cell["Oracle"].violated_settings
    )

    error_cell = result.cells[CellKey("CPU1", "image", "memory", "min_error")]
    # Minimise-error: the budget-oblivious baselines blow their energy
    # budgets on most settings; Sys-only leaves accuracy on the table.
    assert error_cell["App-only"].violated_settings >= 6
    assert error_cell["No-coord"].violated_settings >= 6
    assert (
        error_cell["Sys-only"].normalized_objective
        > error_cell["Oracle"].normalized_objective
    )
    means = result.harmonic_means("min_energy")
    assert means["ALERT"] < means["App-only"]
