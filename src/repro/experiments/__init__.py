"""Experiment drivers: one module per paper figure/table.

Every driver exposes a ``run(...)`` function with sensible
small-by-default parameters (the benches call them with even smaller
ones) returning a plain dataclass of rows/series that mirrors what the
paper plots, plus a ``describe()`` rendering for humans.  Each
module is named after the figure or table it reproduces, and its
docstring states the paper's claim; ``ablations`` and
``overload_study`` go beyond the paper.
"""

from repro.experiments import (
    ablations,
    fig02_tradeoffs,
    fig03_power_sweep,
    fig04_variability,
    fig05_contention,
    fig06_single_layer,
    fig08_oracle_comparison,
    fig09_trace,
    fig10_alert_star,
    fig11_xi_distribution,
    overload_study,
    table4_overall,
    table5_dnn_sets,
)
from repro.experiments.harness import SCHEMES, evaluate_schemes, make_scheme

__all__ = [
    "ablations",
    "fig02_tradeoffs",
    "fig03_power_sweep",
    "fig04_variability",
    "fig05_contention",
    "fig06_single_layer",
    "fig08_oracle_comparison",
    "fig09_trace",
    "fig10_alert_star",
    "fig11_xi_distribution",
    "overload_study",
    "table4_overall",
    "table5_dnn_sets",
    "SCHEMES",
    "evaluate_schemes",
    "make_scheme",
]
