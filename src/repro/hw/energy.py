"""Energy accounting over serving windows.

The paper accounts energy per *period*: the inference itself draws the
capped power for its latency, and the remainder of the period up to the
next input draws the idle power (Section 2.1: "the average energy
consumed for the whole period (run-time plus idle energy)").  This
module centralises that bookkeeping so the engine, the estimators, and
the oracles all use one definition.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.errors import SimulationError

__all__ = [
    "EnergyBreakdown",
    "EnergyAccount",
    "period_energy",
    "period_energy_arrays",
]


@dataclass(frozen=True)
class EnergyBreakdown:
    """Energy of one serving period, split by phase.

    Attributes
    ----------
    inference_j:
        Energy drawn while the DNN executed.
    idle_j:
        Energy drawn between the end of inference and the end of the
        period (zero when inference overran the period).
    """

    inference_j: float
    idle_j: float

    @property
    def total_j(self) -> float:
        """Whole-period energy."""
        return self.inference_j + self.idle_j


def period_energy(
    latency_s: float,
    period_s: float,
    inference_power_w: float,
    idle_power_w: float,
) -> EnergyBreakdown:
    """Energy of a period with one inference at its head.

    When the inference overruns the period there is no idle interval;
    the inference energy covers its full latency (the overrun eats into
    the next period's budget, which the serving loop accounts for via
    deadline adjustment, not via energy).
    """
    if latency_s < 0 or period_s < 0:
        raise SimulationError(
            f"negative durations: latency={latency_s}, period={period_s}"
        )
    if inference_power_w < 0 or idle_power_w < 0:
        raise SimulationError("power draws must be non-negative")
    idle_time = max(0.0, period_s - latency_s)
    return EnergyBreakdown(
        inference_j=latency_s * inference_power_w,
        idle_j=idle_time * idle_power_w,
    )


def period_energy_arrays(
    latency_s: np.ndarray,
    period_s,
    inference_power_w: np.ndarray,
    idle_power_w: np.ndarray,
) -> tuple[np.ndarray, np.ndarray]:
    """:func:`period_energy` over aligned arrays.

    ``period_s`` is one period or an array of them that broadcasts
    against ``latency_s`` (each goal of a stacked decision, or each run
    of a lockstep lane, keeps its own).  Returns ``(inference_j,
    idle_j)`` computed with the exact per-element arithmetic of the
    scalar bookkeeping, so the batch evaluation path and the metered
    path agree to the bit.
    """
    latency = np.asarray(latency_s, dtype=float)
    if np.any(np.asarray(period_s) < 0) or np.any(latency < 0):
        raise SimulationError(
            f"negative durations: latency={latency_s}, period={period_s}"
        )
    if np.any(np.asarray(inference_power_w) < 0) or np.any(
        np.asarray(idle_power_w) < 0
    ):
        raise SimulationError("power draws must be non-negative")
    idle_time = np.maximum(0.0, period_s - latency)
    return (
        np.multiply(latency, inference_power_w),
        np.multiply(idle_time, idle_power_w),
    )


class EnergyAccount:
    """Running totals of inference and idle energy for one run."""

    def __init__(self) -> None:
        self._inference_j = 0.0
        self._idle_j = 0.0
        self._periods = 0

    def add(self, breakdown: EnergyBreakdown) -> None:
        """Accumulate one period's breakdown."""
        self._inference_j += breakdown.inference_j
        self._idle_j += breakdown.idle_j
        self._periods += 1

    @property
    def inference_j(self) -> float:
        """Total inference-phase energy so far."""
        return self._inference_j

    @property
    def idle_j(self) -> float:
        """Total idle-phase energy so far."""
        return self._idle_j

    @property
    def total_j(self) -> float:
        """Total energy so far."""
        return self._inference_j + self._idle_j

    @property
    def periods(self) -> int:
        """Number of periods accumulated."""
        return self._periods

    def mean_period_j(self) -> float:
        """Average per-period energy; 0.0 before any period lands."""
        if self._periods == 0:
            return 0.0
        return self.total_j / self._periods
