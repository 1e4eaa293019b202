"""User goals: constraints in two dimensions, optimise the third.

ALERT "focuses on meeting constraints in any two dimensions while
optimizing the third" (Section 1.2).  The two practically useful modes
(Eqs. 1 and 2) are:

* :attr:`ObjectiveKind.MAXIMIZE_ACCURACY` — maximise inference quality
  subject to an energy budget and a deadline;
* :attr:`ObjectiveKind.MINIMIZE_ENERGY` — minimise energy subject to a
  quality floor and a deadline.

:class:`GoalAdjuster` implements the paper's step 2 ("Goal
adjustment") for deadline-sharing groups: shrinking per-word deadlines
when earlier words of the same sentence overran.  The other half of
step 2, reserving the scheduler's own worst-case overhead so ALERT
never causes the violation it is trying to prevent, is made by the
decision kernel (:class:`repro.core.kernel.AlertKernel`).
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass
from typing import TYPE_CHECKING

import numpy as np

from repro.errors import ConfigurationError

if TYPE_CHECKING:  # avoid a core <-> workloads import cycle
    from repro.workloads.inputs import InputItem

__all__ = [
    "ObjectiveKind",
    "Goal",
    "GoalAdjuster",
    "MIN_DEADLINE_S",
    "ACCURACY_EPS",
    "ENERGY_REL_EPS",
    "outcome_feasible",
    "violation_limits",
]

#: Tolerance on the quality floor, *absolute* because quality lives on
#: the fixed [0, 1] scale.  One definition, shared by the serving
#: loop's violation bookkeeping and the oracles' feasibility masks.
ACCURACY_EPS = 1e-9
#: Tolerance on the energy budget, *relative* because budgets span
#: orders of magnitude across platforms (embedded mJ to GPU tens of J).
ENERGY_REL_EPS = 1e-9


class ObjectiveKind(enum.Enum):
    """Which dimension is optimised (the other two are constrained)."""

    MINIMIZE_ENERGY = "minimize_energy"
    MAXIMIZE_ACCURACY = "maximize_accuracy"


@dataclass(frozen=True)
class Goal:
    """A complete requirement specification for one input.

    Parameters
    ----------
    objective:
        The optimisation direction.
    deadline_s:
        Latency constraint ``T_goal`` (always required).
    period_s:
        Input inter-arrival period for energy accounting; defaults to
        the deadline (the paper's periodic-sensor setting).
    accuracy_min:
        Quality floor ``Q_goal`` (required when minimising energy).
    energy_budget_j:
        Per-period energy budget ``E_goal`` (required when maximising
        accuracy).
    prob_threshold:
        Optional ``Pr_th`` (Eqs. 10-12): reject configurations whose
        probability of meeting the constraints falls below this; also
        switches the energy estimate to the ``Pr_th`` latency
        percentile (Eq. 12).  ``None`` keeps the default full-
        expectation behaviour.
    """

    objective: ObjectiveKind
    deadline_s: float
    period_s: float | None = None
    accuracy_min: float | None = None
    energy_budget_j: float | None = None
    prob_threshold: float | None = None

    def __post_init__(self) -> None:
        # ``not 0 < x < inf`` also refuses NaN, which every ordered
        # comparison answers False.
        if not 0 < self.deadline_s < math.inf:
            raise ConfigurationError(
                f"deadline must be positive and finite, got {self.deadline_s}"
            )
        if self.period_s is not None and not 0 < self.period_s < math.inf:
            raise ConfigurationError(
                f"period must be positive and finite, got {self.period_s}"
            )
        if self.objective is ObjectiveKind.MINIMIZE_ENERGY:
            if self.accuracy_min is None:
                raise ConfigurationError(
                    "minimising energy requires an accuracy_min constraint"
                )
        if self.objective is ObjectiveKind.MAXIMIZE_ACCURACY:
            if self.energy_budget_j is None:
                raise ConfigurationError(
                    "maximising accuracy requires an energy_budget_j constraint"
                )
        if self.accuracy_min is not None and not 0.0 <= self.accuracy_min <= 1.0:
            raise ConfigurationError(
                f"accuracy_min must lie in [0, 1], got {self.accuracy_min}"
            )
        if self.energy_budget_j is not None and not (
            0 < self.energy_budget_j < math.inf
        ):
            raise ConfigurationError(
                "energy budget must be positive and finite, got "
                f"{self.energy_budget_j}"
            )
        if self.prob_threshold is not None and not 0.0 < self.prob_threshold < 1.0:
            raise ConfigurationError(
                f"prob_threshold must lie in (0, 1), got {self.prob_threshold}"
            )

    @property
    def period(self) -> float:
        """Effective period: explicit period or the deadline."""
        return self.period_s if self.period_s is not None else self.deadline_s

    def with_deadline(self, deadline_s: float) -> "Goal":
        """A copy of this goal with a different deadline (validated).

        Only the deadline is new, so only it is checked: the other
        fields passed validation when this goal was built.  Sentence
        words get a fresh goal per word, so the copy skips the frozen
        dataclass ``__init__``.
        """
        if not 0 < deadline_s < math.inf:
            raise ConfigurationError(
                f"deadline must be positive and finite, got {deadline_s}"
            )
        goal = object.__new__(type(self))
        object.__setattr__(
            goal, "__dict__", {**self.__dict__, "deadline_s": deadline_s}
        )
        return goal

    # ------------------------------------------------------------------
    # Constraint checks (the single source of tolerance truth)
    # ------------------------------------------------------------------
    @property
    def accuracy_constrained(self) -> bool:
        """Whether the quality floor applies under this objective."""
        return (
            self.objective is ObjectiveKind.MINIMIZE_ENERGY
            and self.accuracy_min is not None
        )

    @property
    def energy_constrained(self) -> bool:
        """Whether the energy budget applies under this objective."""
        return (
            self.objective is ObjectiveKind.MAXIMIZE_ACCURACY
            and self.energy_budget_j is not None
        )

    def quality_violated(self, quality):
        """Whether a delivered quality breaks the floor.

        Accepts a scalar or a NumPy array (elementwise).  Always False
        when the floor does not apply under this objective.
        """
        if not self.accuracy_constrained:
            return False
        return quality < self.accuracy_min - ACCURACY_EPS

    def energy_violated(self, energy_j):
        """Whether a period energy breaks the budget (scalar or array)."""
        if not self.energy_constrained:
            return False
        return energy_j > self.energy_budget_j * (1.0 + ENERGY_REL_EPS)

    def describe(self) -> str:
        """Human-readable one-liner for logs and examples."""
        parts = [f"{self.objective.value}", f"T<={self.deadline_s * 1e3:.0f}ms"]
        if self.accuracy_min is not None:
            parts.append(f"q>={self.accuracy_min:.3f}")
        if self.energy_budget_j is not None:
            parts.append(f"E<={self.energy_budget_j:.2f}J")
        if self.prob_threshold is not None:
            parts.append(f"Pr>={self.prob_threshold:.2f}")
        return " ".join(parts)


def outcome_feasible(goal: Goal, met_deadline, quality, energy_j):
    """True constraint satisfaction of realised outcomes.

    Scalar in, scalar out; arrays in, an elementwise boolean mask out.
    This is the one feasibility predicate the serving loop's violation
    flags and the oracles' masks both derive from, so the tolerance on
    each constraint is defined exactly once (:data:`ACCURACY_EPS`,
    :data:`ENERGY_REL_EPS`).
    """
    feasible = np.asarray(met_deadline) if not np.isscalar(met_deadline) else bool(met_deadline)
    if goal.accuracy_constrained:
        feasible = feasible & np.logical_not(goal.quality_violated(quality))
    if goal.energy_constrained:
        feasible = feasible & np.logical_not(goal.energy_violated(energy_j))
    return feasible


def violation_limits(goals) -> tuple[np.ndarray, np.ndarray]:
    """Every goal's quality floor and energy ceiling, as arrays.

    ``quality < floor`` is :meth:`Goal.quality_violated` and ``energy >
    ceiling`` is :meth:`Goal.energy_violated`, elementwise, for planes
    whose last axis runs over ``goals``; a constraint that does not
    apply to a goal gets a limit nothing crosses (-inf, +inf).
    """
    floors = [
        goal.accuracy_min - ACCURACY_EPS if goal.accuracy_constrained
        else -math.inf
        for goal in goals
    ]
    ceilings = [
        goal.energy_budget_j * (1.0 + ENERGY_REL_EPS)
        if goal.energy_constrained else math.inf
        for goal in goals
    ]
    return np.array(floors), np.array(ceilings)


#: Floor on every adjusted deadline, so a badly overrun sentence still
#: leaves a schedulable (if tight) deadline for its last words.
MIN_DEADLINE_S = 1e-4


class GoalAdjuster:
    """Per-input deadline adjustment for shared group deadlines
    (paper workflow step 2).

    In the NLP1 task a whole sentence of ``G`` words shares one
    deadline of ``G * deadline_s``.  If early words overran, the
    remaining words split what is left:
    ``remaining_budget / words_remaining``, floored at
    :data:`MIN_DEADLINE_S`.  The scheduler's overhead reservation is
    the decision kernel's, not this class's.
    """

    def __init__(self) -> None:
        self._group_id: int | None = None
        self._group_budget_s = 0.0
        self._group_remaining = 0

    def adjust(self, goal: Goal, item: InputItem) -> Goal:
        """The effective goal for one input item."""
        deadline = goal.deadline_s
        if item.group_size > 1:
            if item.is_group_start or item.group_id != self._group_id:
                self._group_id = item.group_id
                self._group_budget_s = goal.deadline_s * item.group_size
                self._group_remaining = item.group_size
            words_left = max(1, self._group_remaining)
            deadline = self._group_budget_s / words_left
        deadline = max(MIN_DEADLINE_S, deadline)
        if deadline == goal.deadline_s:
            return goal
        return goal.with_deadline(deadline)

    def consume(self, item: InputItem, latency_s: float) -> None:
        """Record how much of the group budget one word consumed."""
        if latency_s < 0:
            raise ConfigurationError(f"latency must be >= 0, got {latency_s}")
        if item.group_size > 1 and item.group_id == self._group_id:
            self._group_budget_s = max(0.0, self._group_budget_s - latency_s)
            self._group_remaining = max(0, self._group_remaining - 1)
            if item.is_group_end:
                self._group_id = None

    @property
    def mid_group(self) -> bool:
        """Whether a deadline-sharing group is currently in progress.

        The serving loop's batch fast path refuses runs that start
        mid-group: the remaining budget would couple the new run's
        deadlines to latencies observed before it began.
        """
        return self._group_id is not None
