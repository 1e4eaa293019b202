"""Per-input records and run-level aggregation.

The paper's violation accounting (Table 4's superscripts): a constraint
*setting* counts as violated when a scheme breaks a constraint on more
than 10% of that setting's inputs; violated settings are excluded from
the energy/error averages.  :class:`RunResult` implements the per-run
half of that (violation fraction and means); the experiment drivers
apply the 10% rule across settings.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.core.goals import Goal, ObjectiveKind
from repro.errors import SimulationError
from repro.models.inference import InferenceOutcome

__all__ = ["ServedInput", "RunArrays", "RunResult", "VIOLATION_SETTING_THRESHOLD"]

#: A setting is "violated" when more than this fraction of its inputs
#: break a constraint (the paper's 10% rule).
VIOLATION_SETTING_THRESHOLD = 0.10


@dataclass(frozen=True)
class ServedInput:
    """One input's full story: goal, configuration, and outcome.

    Attributes
    ----------
    outcome:
        The engine's measurement record.
    goal:
        The *base* goal in force for this input (before group/overhead
        adjustment).
    effective_deadline_s:
        The adjusted deadline actually enforced.
    latency_violation / accuracy_violation / energy_violation:
        Constraint checks against the base goal.
    xi_mean / xi_sigma:
        The scheduler's slowdown belief when it decided (0/0 for
        feedback-free policies) — Figure 9's trace material.
    """

    outcome: InferenceOutcome
    goal: Goal
    effective_deadline_s: float
    latency_violation: bool
    accuracy_violation: bool
    energy_violation: bool
    xi_mean: float = 0.0
    xi_sigma: float = 0.0

    @property
    def violated(self) -> bool:
        """Whether any applicable constraint broke on this input."""
        return (
            self.latency_violation
            or self.accuracy_violation
            or self.energy_violation
        )


@dataclass(frozen=True)
class RunArrays:
    """Vectorized per-input series of one run, aligned with ``records``.

    The native output of the batch path and the lockstep lanes: every
    element equals the corresponding record field exactly (both are
    read from the same derived planes), so aggregates computed here are
    bit-identical to the record walk — pinned by
    ``tests/test_sweep_parity.py`` and ``tests/test_lockstep_parity.py``.
    """

    latency_s: np.ndarray
    quality: np.ndarray
    energy_j: np.ndarray
    metric_value: np.ndarray
    violated: np.ndarray
    latency_violation: np.ndarray


class RunResult:
    """Aggregates one policy's run over one constraint setting.

    ``records`` may be deferred: the batch path and the lockstep lanes
    construct the result from its vectorized :class:`RunArrays` plus a
    ``materialize`` thunk, and the per-input :class:`ServedInput`
    objects are only assembled on first ``records`` access.  Aggregate
    properties read the arrays when present, so summary-only consumers
    (the sweep driver's streaming aggregation) never pay the O(inputs)
    record build.
    """

    def __init__(
        self,
        scheduler_name: str,
        goal: Goal,
        records: list[ServedInput] | None = None,
        *,
        arrays: "RunArrays | None" = None,
        materialize=None,
    ) -> None:
        self.scheduler_name = scheduler_name
        self.goal = goal
        self.arrays = arrays
        self._records = records
        self._materialize = materialize
        if records is None:
            if materialize is None or arrays is None:
                raise SimulationError(
                    "a deferred run needs both arrays and a materializer"
                )
            if len(arrays.latency_s) == 0:
                raise SimulationError("a run must serve at least one input")
        elif not records:
            raise SimulationError("a run must serve at least one input")

    @property
    def records(self) -> list[ServedInput]:
        """Per-input records, assembled on first access when deferred."""
        if self._records is None:
            self._records = self._materialize()
            self._materialize = None
        return self._records

    def __eq__(self, other):
        # The old dataclass semantics: equal on (name, goal, records).
        # Arrays are derived data and deferral is an implementation
        # detail, so comparison materializes.
        if other.__class__ is not self.__class__:
            return NotImplemented
        return (
            self.scheduler_name == other.scheduler_name
            and self.goal == other.goal
            and self.records == other.records
        )

    def __repr__(self) -> str:
        return (
            f"RunResult(scheduler_name={self.scheduler_name!r}, "
            f"goal={self.goal!r}, n_inputs={self.n_inputs})"
        )

    # ------------------------------------------------------------------
    # Means
    # ------------------------------------------------------------------
    @property
    def n_inputs(self) -> int:
        """Number of inputs served."""
        if self.arrays is not None:
            return len(self.arrays.latency_s)
        return len(self.records)

    @property
    def mean_energy_j(self) -> float:
        """Mean whole-period energy per input."""
        if self.arrays is not None:
            return float(np.mean(self.arrays.energy_j))
        return float(np.mean([r.outcome.energy_j for r in self.records]))

    @property
    def mean_quality(self) -> float:
        """Mean delivered quality per input."""
        if self.arrays is not None:
            return float(np.mean(self.arrays.quality))
        return float(np.mean([r.outcome.quality for r in self.records]))

    @property
    def mean_error(self) -> float:
        """Mean delivered error (1 - quality)."""
        return 1.0 - self.mean_quality

    @property
    def mean_metric(self) -> float:
        """Mean of the task's reported metric (e.g. perplexity)."""
        if self.arrays is not None:
            return float(np.mean(self.arrays.metric_value))
        return float(np.mean([r.outcome.metric_value for r in self.records]))

    @property
    def mean_latency_s(self) -> float:
        """Mean inference latency per input."""
        if self.arrays is not None:
            return float(np.mean(self.arrays.latency_s))
        return float(np.mean([r.outcome.latency_s for r in self.records]))

    # ------------------------------------------------------------------
    # Violations
    # ------------------------------------------------------------------
    @property
    def violation_fraction(self) -> float:
        """Fraction of inputs that broke any applicable constraint."""
        if self.arrays is not None:
            return float(np.mean(self.arrays.violated))
        return float(np.mean([r.violated for r in self.records]))

    @property
    def setting_violated(self) -> bool:
        """The paper's 10% rule for this constraint setting."""
        return self.violation_fraction > VIOLATION_SETTING_THRESHOLD

    @property
    def deadline_miss_fraction(self) -> float:
        """Fraction of inputs whose final answer missed the deadline."""
        if self.arrays is not None:
            return float(np.mean(self.arrays.latency_violation))
        return float(np.mean([r.latency_violation for r in self.records]))

    # ------------------------------------------------------------------
    # Objective value
    # ------------------------------------------------------------------
    @property
    def objective_value(self) -> float:
        """The quantity the goal optimises (energy or error)."""
        if self.goal.objective is ObjectiveKind.MINIMIZE_ENERGY:
            return self.mean_energy_j
        return self.mean_error

    def describe(self) -> str:
        """Human-readable summary line."""
        return (
            f"{self.scheduler_name}: {self.n_inputs} inputs, "
            f"energy={self.mean_energy_j:.3f}J, quality={self.mean_quality:.4f}, "
            f"violations={self.violation_fraction * 100:.1f}%"
        )

    # ------------------------------------------------------------------
    # Trace extraction (Figure 9 material)
    # ------------------------------------------------------------------
    def series(self, field: str) -> list[float]:
        """A per-input series of one outcome attribute.

        ``field`` may be any numeric attribute of
        :class:`repro.models.inference.InferenceOutcome` (for example
        ``"latency_s"``, ``"quality"``, ``"power_cap_w"``) or
        ``"xi_mean"`` / ``"xi_sigma"`` from the scheduler belief.
        """
        if field in ("xi_mean", "xi_sigma"):
            return [getattr(r, field) for r in self.records]
        return [float(getattr(r.outcome, field)) for r in self.records]
