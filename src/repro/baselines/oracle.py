"""Perfect-knowledge oracles (paper Section 5.1).

The paper builds oracles "by running 90 inputs in all possible DNN and
system configurations, from which we find the best configuration for
each input".  Our engine's :meth:`evaluate` is pure and shares one
per-input environment draw across configurations, so the oracles can do
exactly that:

* :class:`OracleScheduler` — per input, evaluate every configuration
  under the true realised environment and pick the best feasible one
  ("Oracle": dynamic optimal, impractical);
* :func:`best_static_config` / :func:`make_oracle_static` — evaluate
  every configuration over the whole horizon and fix the best single
  one ("OracleStatic": the best any non-adaptive deployment could do,
  and the normalisation baseline of Table 4).

Infeasible inputs degrade through the same latency > accuracy > power
hierarchy ALERT uses, so comparisons stay apples-to-apples.

**The batch path.**  Both oracles read a timing-free outcome grid
(:meth:`repro.models.inference.InferenceEngine.evaluate_batch`, the
whole (configuration × input) table realised once) and derive the
deadline and period they decide under
(:meth:`~repro.models.inference.BatchOutcomeGrid.timing`).  Selection
is a feasibility mask plus a lexicographic argmin
(:func:`~repro.core.selector.lexargmin`) over three degradation tiers,
each with its keys in priority order:

* feasible tier — minimise the goal objective
  (``(energy, -quality, cap)`` when minimising energy,
  ``(-quality, energy, cap)`` when maximising accuracy);
* deadline-met tier — ``(-quality, energy, power)``: accuracy first,
  then energy, then the gentler cap;
* last-resort tier — ``(latency, -quality, power)``: fail as fast and
  as accurately as possible.

The tiers fold into one argmin — each column keeps its best tier's
rows and ranks them by that tier's keys — shared by the per-input
:meth:`OracleScheduler.decide`, the whole-run
:meth:`OracleScheduler.decide_batch`, and the lockstep
:class:`OracleCell`, which decides every goal of a step from one
(configurations × goals) derivation of the step's grid column.
Because the argmin breaks ties by enumeration order, the batch pick
is *identical* to the scalar ``min``-over-tuples references,
:meth:`OracleScheduler.decide_scalar` and
:func:`best_static_config_scalar`, which the randomized parity suite
(``tests/test_oracle_parity.py``) calls by name.
:func:`best_static_config` applies the paper's 10% rule the same way
as its reference: qualifying configurations rank by
``(objective, violation fraction, power)``; when none qualifies, the
least-violating configuration wins — ``(violation fraction, objective,
power)``.
"""

from __future__ import annotations

import numpy as np

from repro.core.config_space import Configuration, ConfigurationSpace
from repro.core.goals import (
    Goal,
    ObjectiveKind,
    outcome_feasible,
    violation_limits,
)
from repro.core.kernel import lockstep_stats_dict
from repro.core.selector import BaselineSelection, lexargmin
from repro.errors import ConfigurationError
from repro.models.inference import (
    BatchOutcomeGrid,
    GridView,
    InferenceEngine,
    InferenceOutcome,
    OutcomePlanes,
)
from repro.runtime.results import VIOLATION_SETTING_THRESHOLD
from repro.runtime.scheduler import StaticScheduler
from repro.workloads.inputs import InputItem, InputStream

__all__ = [
    "OracleScheduler",
    "OracleCell",
    "best_static_config",
    "best_static_config_scalar",
    "make_oracle_static",
    "oracle_outcome_grid",
]


def _outcome_feasible(outcome: InferenceOutcome, goal: Goal) -> bool:
    """True constraint satisfaction of one realised outcome."""
    return bool(
        outcome_feasible(
            goal, outcome.met_deadline, outcome.quality, outcome.energy_j
        )
    )


def _objective_key(outcome: InferenceOutcome, goal: Goal):
    """Smaller-is-better ranking of realised outcomes."""
    if goal.objective is ObjectiveKind.MINIMIZE_ENERGY:
        return (outcome.energy_j, -outcome.quality, outcome.power_cap_w)
    return (-outcome.quality, outcome.energy_j, outcome.power_cap_w)


def _folded_pick(latency, met, quality, energy, feasible, min_energy, cap_w, power_w):
    """Each column's best row, the decide() tier hierarchy in one pass.

    The planes are ``(configurations, columns)``; ``feasible`` is their
    feasibility mask, ``min_energy`` whether each column's goal
    minimises energy (one bool, or one per column), and ``cap_w`` /
    ``power_w`` are ``(configurations, 1)`` columns of enforced and
    requested caps.  Each column keeps only the rows of its best tier
    (feasible, else met-deadline, else last resort) and ranks them by
    that tier's keys; a column's rows share one tier, so the pick
    matches the tiered scalar reference exactly (first occurrence on
    ties).
    """
    neg_quality = -quality
    first = np.where(min_energy, energy, neg_quality)
    second = np.where(min_energy, neg_quality, energy)
    tier = 2 - met - feasible  # 0 feasible, 1 met-deadline, 2 neither
    key1 = np.where(feasible, first, np.where(met, neg_quality, latency))
    key2 = np.where(feasible, second, np.where(met, energy, neg_quality))
    key3 = np.where(feasible, cap_w, power_w)
    return lexargmin((key1, key2, key3), mask=tier == tier.min(axis=0))


def oracle_outcome_grid(
    engine: InferenceEngine,
    space: ConfigurationSpace,
    stream: InputStream,
    n_inputs: int,
    allocator=None,
) -> BatchOutcomeGrid:
    """The full (configuration × input) outcome grid of one scenario.

    One vectorized pass over the engine's true environment draws —
    the "run 90 inputs in all possible configurations" table both
    oracles read from.  The grid is timing-free, so every constraint
    setting of the scenario reads the one grid at its own deadline and
    period.  ``allocator`` passes through to
    :meth:`~repro.models.inference.InferenceEngine.evaluate_batch`, so
    a grid store can realise the grid directly inside a shared-memory
    segment (bit-identical to private realisation).
    """
    if n_inputs < 1:
        raise ConfigurationError(f"need at least one input, got {n_inputs}")
    return engine.evaluate_batch(
        configs=space.configs,
        indices=range(n_inputs),
        work_factors=[stream.item(i).work_factor for i in range(n_inputs)],
        allocator=allocator,
    )


class OracleScheduler:
    """Per-input optimal configuration with perfect knowledge.

    Parameters
    ----------
    engine:
        The *same* engine instance the serving loop uses (or a
        bit-identical twin built from the same scenario seed), so the
        oracle sees the true environment draw of each input.
    space:
        The candidate configuration space.
    grid_view:
        Optional :class:`~repro.models.inference.GridView` over the
        precomputed outcome grid (:func:`oracle_outcome_grid`) of the
        same candidates.  The grid is timing-free, so every decision
        whose input :meth:`~repro.models.inference.GridView.column`
        admits — work factor, plus the environment draw when the view
        is untrusted — derives its column from the grid at the goal's
        own deadline and period, group-adjusted sentence deadlines
        included.  Only an off-grid input realises a fresh one-input
        grid.
    """

    #: Perfect knowledge needs no feedback; the serving loop may
    #: realise whole Oracle runs on the batch fast path.
    feedback_free = True

    def __init__(
        self,
        engine: InferenceEngine,
        space: ConfigurationSpace,
        name: str = "Oracle",
        grid_view: GridView | None = None,
    ) -> None:
        self.engine = engine
        self.space = space
        self.name = name
        self._configs = space.configs
        self._power_w = np.array([c.power_w for c in self._configs])
        if grid_view is not None and (
            tuple(grid_view.grid.configs) != self._configs
        ):
            raise ConfigurationError(
                "oracle grid was built for a different configuration space"
            )
        self.grid_view = grid_view

    # ------------------------------------------------------------------
    # Batch path
    # ------------------------------------------------------------------
    def _column(
        self, item: InputItem, goal: Goal
    ) -> tuple[OutcomePlanes, np.ndarray]:
        """Every candidate's outcome on one input at the goal's timing,
        with the candidates' enforced caps."""
        view = self.grid_view
        position = view.column(self.engine, item) if view is not None else None
        if position is not None:
            grid, columns = view.grid, [position]
        else:
            grid = self.engine.evaluate_batch(
                configs=self._configs,
                indices=[item.index],
                work_factors=[item.work_factor],
            )
            columns = slice(None)
        planes = grid.timing(goal.deadline_s, goal.period, columns=columns)
        return planes, grid.power_cap_w

    def decide(self, item: InputItem, goal: Goal) -> Configuration:
        planes, cap_w = self._column(item, goal)
        met, quality, energy = (
            planes.met_deadline, planes.quality, planes.energy_j
        )
        rows = _folded_pick(
            planes.latency_s, met, quality, energy,
            outcome_feasible(goal, met, quality, energy),
            goal.objective is ObjectiveKind.MINIMIZE_ENERGY,
            cap_w[:, None], self._power_w[:, None],
        )
        return self._configs[int(rows[0])]

    def decide_batch(
        self, items: list[InputItem], goal: Goal
    ) -> list[Configuration]:
        """All of a run's decisions in one vectorized pass.

        Requires every item to be answerable from the precomputed grid,
        whose planes at the goal's timing the view derives once;
        otherwise (no grid, diverged draws, off-grid inputs) falls back
        to per-item :meth:`decide`.  Every column is picked by the one
        folded-tier argmin :meth:`decide` and :class:`OracleCell` use.
        """
        if not items:
            return []
        view = self.grid_view
        columns = None
        if view is not None:
            columns = view.columns(self.engine, items)
        if columns is None:
            return [self.decide(item, goal) for item in items]

        planes = view.planes(goal.deadline_s, goal.period)
        # The common serving pattern is a prefix of the grid's own
        # columns; basic slices keep the big arrays as views.
        n = columns.size
        if np.array_equal(columns, np.arange(n)):
            selector = slice(None, n)
        else:
            selector = columns
        met = planes.met_deadline[:, selector]
        quality = planes.quality[:, selector]
        energy = planes.energy_j[:, selector]
        rows = _folded_pick(
            planes.latency_s[:, selector], met, quality, energy,
            outcome_feasible(goal, met, quality, energy),
            goal.objective is ObjectiveKind.MINIMIZE_ENERGY,
            view.grid.power_cap_w[:, None], self._power_w[:, None],
        )
        configs = self._configs
        return [configs[row] for row in rows.tolist()]

    @staticmethod
    def stack_into_cell(schedulers):
        """Lockstep hook: every goal's Oracle decision per step in one
        stacked pass (:class:`OracleCell`), or None when the schedulers
        do not share an engine, view and space."""
        return OracleCell.from_schedulers(schedulers)

    # ------------------------------------------------------------------
    # Scalar reference path (pinned by the parity suite)
    # ------------------------------------------------------------------
    def decide_scalar(self, item: InputItem, goal: Goal) -> Configuration:
        outcomes: list[tuple[Configuration, InferenceOutcome]] = []
        for config in self.space:
            outcome = self.engine.evaluate(
                model=config.model,
                power_cap_w=config.power_w,
                index=item.index,
                deadline_s=goal.deadline_s,
                period_s=goal.period,
                work_factor=item.work_factor,
                rung_cap=config.rung_cap,
            )
            outcomes.append((config, outcome))

        feasible = [
            (config, outcome)
            for config, outcome in outcomes
            if _outcome_feasible(outcome, goal)
        ]
        if feasible:
            best = min(feasible, key=lambda pair: _objective_key(pair[1], goal))
            return best[0]

        # Latency > accuracy > power fallback, on true outcomes.
        met = [
            (config, outcome)
            for config, outcome in outcomes
            if outcome.met_deadline
        ]
        if met:
            best = min(
                met,
                key=lambda pair: (
                    -pair[1].quality,
                    pair[1].energy_j,
                    pair[0].power_w,
                ),
            )
            return best[0]
        best = min(
            outcomes,
            key=lambda pair: (pair[1].latency_s, -pair[1].quality, pair[0].power_w),
        )
        return best[0]

    def observe(self, outcome: InferenceOutcome) -> None:
        """Oracles need no feedback."""


class OracleCell:
    """Lockstep Oracle across a cell's goal grid.

    Each step decides every goal from one ``(configurations × goals)``
    derivation of the step's grid column: each goal keeps its own
    adjusted deadline, period (``goal.period``, as :meth:`decide`
    uses), thresholds and objective, and one folded-tier argmin picks
    every goal's configuration.  Each goal's pick equals
    :meth:`OracleScheduler.decide` on that goal alone
    (``tests/test_oracle_parity.py``).  A step whose input the view
    does not hold decides goal by goal through :meth:`decide`.
    Perfect knowledge needs no feedback: the cell is ``feedback_free``,
    so a lane never observes it and its records carry a 0/0 belief.
    """

    feedback_free = True

    def __init__(self, schedulers: list[OracleScheduler]) -> None:
        first = schedulers[0]
        self.n_goals = len(schedulers)
        self._schedulers = schedulers
        self._engine = first.engine
        self._view = first.grid_view
        self._cap_w = None
        if self._view is not None:
            self._cap_w = self._view.grid.power_cap_w[:, None]
        self._power_w = first._power_w[:, None]
        self._picks = [BaselineSelection(config) for config in first._configs]
        self._stacked_calls = 0
        self._stacked_states = 0

    @classmethod
    def from_schedulers(cls, schedulers) -> "OracleCell | None":
        """A stacked Oracle over ``schedulers``, or None.

        None — never raises — unless every scheduler is a plain
        :class:`OracleScheduler` over the same engine, grid view and
        candidate configurations.
        """
        if not schedulers:
            return None
        first = schedulers[0]
        for scheduler in schedulers:
            if (
                type(scheduler) is not OracleScheduler
                or scheduler.engine is not first.engine
                or scheduler.grid_view is not first.grid_view
                or scheduler._configs != first._configs
            ):
                return None
        return cls(list(schedulers))

    def decide_many(self, goals, item: InputItem) -> list[BaselineSelection]:
        """Every goal's Oracle configuration for ``item``."""
        if len(goals) != self.n_goals:
            raise ConfigurationError(
                f"expected {self.n_goals} goals, got {len(goals)}"
            )
        self._stacked_calls += 1
        self._stacked_states += self.n_goals
        view = self._view
        column = None if view is None else view.column(self._engine, item)
        if column is None:
            return [
                BaselineSelection(scheduler.decide(item, goal))
                for scheduler, goal in zip(self._schedulers, goals)
            ]
        planes = view.grid.timing(
            np.array([goal.deadline_s for goal in goals]),
            np.array([goal.period for goal in goals]),
            columns=np.full(self.n_goals, column),
        )
        floors, ceilings = violation_limits(goals)
        met, quality, energy = (
            planes.met_deadline, planes.quality, planes.energy_j
        )
        feasible = (
            met
            & np.logical_not(quality < floors)
            & np.logical_not(energy > ceilings)
        )
        rows = _folded_pick(
            planes.latency_s, met, quality, energy, feasible,
            np.array(
                [goal.objective is ObjectiveKind.MINIMIZE_ENERGY for goal in goals]
            ),
            self._cap_w, self._power_w,
        )
        picks = self._picks
        return [picks[row] for row in rows.tolist()]

    @property
    def lockstep_stats(self) -> dict:
        return lockstep_stats_dict(
            self.n_goals, self._stacked_calls, self._stacked_states
        )


def best_static_config(
    engine: InferenceEngine,
    space: ConfigurationSpace,
    goal: Goal,
    stream: InputStream,
    n_inputs: int,
    violation_threshold: float = VIOLATION_SETTING_THRESHOLD,
    grid_view: GridView | None = None,
) -> Configuration:
    """The best single configuration over a whole horizon.

    Evaluates every configuration on every input (with the true
    environment draws) and picks the one optimising the goal among
    those whose violation fraction stays within the 10% rule; when none
    qualifies, the least-violating configuration wins (ties broken by
    the objective, then the lower power cap).

    ``grid_view`` short-circuits the evaluation with a precomputed
    outcome grid when its rows are this space and it holds inputs
    ``0..n_inputs-1`` in order, each admitted by
    :meth:`~repro.models.inference.GridView.columns`; the view derives
    the goal's timing once.  Otherwise the grid is realised afresh.
    The reference is :func:`best_static_config_scalar`.
    """
    if n_inputs < 1:
        raise ConfigurationError(f"need at least one input, got {n_inputs}")
    configs = space.configs
    planes = None
    if grid_view is not None and tuple(grid_view.grid.configs) == configs:
        columns = grid_view.columns(engine, stream.items(n_inputs))
        if columns is not None and np.array_equal(columns, np.arange(n_inputs)):
            planes = grid_view.planes(goal.deadline_s, goal.period)
    if planes is None:
        grid = oracle_outcome_grid(engine, space, stream, n_inputs)
        planes = grid.timing(goal.deadline_s, goal.period)
    met = planes.met_deadline[:, :n_inputs]
    quality = planes.quality[:, :n_inputs]
    energy = planes.energy_j[:, :n_inputs]
    feasible = outcome_feasible(goal, met, quality, energy)
    violation_fraction = (n_inputs - feasible.sum(axis=1)) / n_inputs
    if goal.objective is ObjectiveKind.MINIMIZE_ENERGY:
        objective = energy.sum(axis=1) / n_inputs
    else:
        objective = (1.0 - quality).sum(axis=1) / n_inputs
    power_w = np.array([config.power_w for config in configs])

    qualifying = violation_fraction <= violation_threshold
    if qualifying.any():
        keys = (objective, violation_fraction, power_w)
        return configs[lexargmin(keys, mask=qualifying)]
    # Nothing meets the 10% rule; prefer the least violating.
    return configs[lexargmin((violation_fraction, objective, power_w))]


def best_static_config_scalar(
    engine: InferenceEngine,
    space: ConfigurationSpace,
    goal: Goal,
    stream: InputStream,
    n_inputs: int,
    violation_threshold: float = VIOLATION_SETTING_THRESHOLD,
) -> Configuration:
    """Scalar reference for :func:`best_static_config`."""
    if n_inputs < 1:
        raise ConfigurationError(f"need at least one input, got {n_inputs}")
    scored: list[tuple[float, float, Configuration]] = []
    for config in space:
        violations = 0
        objective_total = 0.0
        for index in range(n_inputs):
            item = stream.item(index)
            outcome = engine.evaluate(
                model=config.model,
                power_cap_w=config.power_w,
                index=index,
                deadline_s=goal.deadline_s,
                period_s=goal.period,
                work_factor=item.work_factor,
                rung_cap=config.rung_cap,
            )
            if not _outcome_feasible(outcome, goal):
                violations += 1
            if goal.objective is ObjectiveKind.MINIMIZE_ENERGY:
                objective_total += outcome.energy_j
            else:
                objective_total += 1.0 - outcome.quality
        violation_fraction = violations / n_inputs
        scored.append((violation_fraction, objective_total / n_inputs, config))

    qualifying = [
        entry for entry in scored if entry[0] <= violation_threshold
    ]
    if qualifying:
        return min(
            qualifying, key=lambda entry: (entry[1], entry[0], entry[2].power_w)
        )[2]
    # Nothing meets the 10% rule; prefer the least violating.
    return min(
        scored, key=lambda entry: (entry[0], entry[1], entry[2].power_w)
    )[2]


def make_oracle_static(
    engine: InferenceEngine,
    space: ConfigurationSpace,
    goal: Goal,
    stream: InputStream,
    n_inputs: int,
    grid_view: GridView | None = None,
) -> StaticScheduler:
    """Build the OracleStatic scheduler for one setting.

    ``grid_view`` passes through to :func:`best_static_config`, which
    reads the static selection off its grid when the grid answers the
    question.
    """
    config = best_static_config(
        engine, space, goal, stream, n_inputs, grid_view=grid_view
    )
    return StaticScheduler(
        model=config.model,
        power_w=config.power_w,
        rung_cap=config.rung_cap,
        name="OracleStatic",
    )
