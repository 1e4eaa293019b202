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

**The batch path.**  Both oracles run on
:meth:`repro.models.inference.InferenceEngine.evaluate_batch`, which
realises the whole (configuration × input) outcome grid as NumPy
arrays in one pass.  Selection is a feasibility mask plus one stable
``np.lexsort`` per degradation tier; ``np.lexsort`` lists keys
least-significant first, so the hierarchy is encoded back to front:

* feasible tier — minimise the goal objective
  (``(energy, -quality, cap)`` when minimising energy,
  ``(-quality, energy, cap)`` when maximising accuracy);
* deadline-met tier — ``(-quality, energy, power)``: accuracy first,
  then energy, then the gentler cap;
* last-resort tier — ``(latency, -quality, power)``: fail as fast and
  as accurately as possible.

Because the stable sort breaks ties by enumeration order, the batch
pick is *identical* to the scalar ``min``-over-tuples references,
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
from repro.core.goals import Goal, ObjectiveKind, outcome_feasible
from repro.errors import ConfigurationError
from repro.models.inference import (
    BatchOutcomeGrid,
    GridView,
    InferenceEngine,
    InferenceOutcome,
)
from repro.runtime.results import VIOLATION_SETTING_THRESHOLD
from repro.runtime.scheduler import StaticScheduler
from repro.workloads.inputs import InputItem, InputStream

__all__ = [
    "OracleScheduler",
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


def _lexargmin_columns(keys: tuple[np.ndarray, ...]) -> np.ndarray:
    """Per-column lexicographic argmin over axis 0, first occurrence.

    Progressively restricts each column's candidate rows to the argmin
    set of each key in significance order; the final ``argmax`` picks
    the first surviving row, matching Python's ``min`` over key tuples
    (and a stable ``np.lexsort``) exactly — at the cost of a few
    masked reductions instead of a full sort.
    """
    mask = np.ones(keys[0].shape, dtype=bool)
    for key in keys:
        masked = np.where(mask, key, np.inf)
        best = masked.min(axis=0)
        mask &= masked == best[None, :]
    return mask.argmax(axis=0)


def _lexmin(mask: np.ndarray, *keys: np.ndarray) -> int:
    """Index of the lexicographic minimum of ``keys`` within ``mask``.

    ``np.lexsort`` takes keys least-significant first and sorts stably,
    so the returned index matches Python's ``min`` over key tuples
    (first occurrence wins ties) exactly.
    """
    candidates = np.flatnonzero(mask)
    order = np.lexsort(tuple(k[candidates] for k in reversed(keys)))
    return int(candidates[order[0]])


def _candidates(space) -> tuple[Configuration, ...]:
    """The candidates as one tuple: a space's own, so the engine's
    identity-keyed config table hits on every grid and fallback
    column; any other iterable of configurations is copied."""
    if isinstance(space, ConfigurationSpace):
        return space.configs
    return tuple(space)


def oracle_outcome_grid(
    engine: InferenceEngine,
    space: ConfigurationSpace,
    goal: Goal,
    stream: InputStream,
    n_inputs: int,
    allocator=None,
) -> BatchOutcomeGrid:
    """The full (configuration × input) outcome grid for one setting.

    One vectorized pass over the engine's true environment draws —
    the "run 90 inputs in all possible configurations" table both
    oracles read from.  The experiment harness computes this once per
    (scenario, goal) cell and shares it between Oracle and
    OracleStatic.  ``allocator`` passes through to
    :meth:`~repro.models.inference.InferenceEngine.evaluate_batch`, so
    a grid store can realise the grid directly inside a shared-memory
    segment (bit-identical to private realisation).
    """
    if n_inputs < 1:
        raise ConfigurationError(f"need at least one input, got {n_inputs}")
    return engine.evaluate_batch(
        configs=_candidates(space),
        indices=range(n_inputs),
        deadline_s=goal.deadline_s,
        period_s=goal.period,
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
        same candidates.  Decisions whose timing matches the grid and
        whose input :meth:`~repro.models.inference.GridView.column`
        admits — work factor, plus the environment draw when the view
        is untrusted — are answered from the grid; anything else, e.g.
        group-adjusted sentence deadlines, falls back to a fresh
        single-input batch evaluation.
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
        self._configs = _candidates(space)
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
    def decide(self, item: InputItem, goal: Goal) -> Configuration:
        view = self.grid_view
        position = None
        if view is not None and view.matches_timing(goal.deadline_s, goal.period):
            position = view.column(self.engine, item)
        if position is not None:
            grid = view.grid
            energy = grid.energy_j[:, position]
            quality = grid.quality[:, position]
            met = grid.met_deadline[:, position]
            latency = grid.latency_s[:, position]
            cap_w = grid.power_cap_w
        else:
            column = self.engine.evaluate_batch(
                configs=self._configs,
                indices=[item.index],
                deadline_s=goal.deadline_s,
                period_s=goal.period,
                work_factors=[item.work_factor],
            )
            energy = column.energy_j[:, 0]
            quality = column.quality[:, 0]
            met = column.met_deadline[:, 0]
            latency = column.latency_s[:, 0]
            cap_w = column.power_cap_w

        feasible = outcome_feasible(goal, met, quality, energy)
        if feasible.any():
            if goal.objective is ObjectiveKind.MINIMIZE_ENERGY:
                keys = (energy, -quality, cap_w)
            else:
                keys = (-quality, energy, cap_w)
            return self._configs[_lexmin(feasible, *keys)]

        # Latency > accuracy > power fallback, on true outcomes.
        if met.any():
            return self._configs[_lexmin(met, -quality, energy, self._power_w)]
        everything = np.ones(len(self._configs), dtype=bool)
        return self._configs[_lexmin(everything, latency, -quality, self._power_w)]

    def decide_batch(
        self, items: list[InputItem], goal: Goal
    ) -> list[Configuration]:
        """All of a run's decisions in one vectorized pass.

        Requires every item to be answerable from the precomputed grid;
        otherwise (no grid, trace-adjusted deadlines, diverged draws)
        falls back to per-item :meth:`decide`.  Per column, the scalar
        tier hierarchy is folded into one lexicographic argmin with the
        tier number as the most significant key; within a column,
        cross-tier key comparisons never decide, so the winner matches
        :meth:`decide` exactly (first occurrence on ties).
        """
        if not items:
            return []
        view = self.grid_view
        columns = None
        if view is not None and view.matches_timing(goal.deadline_s, goal.period):
            columns = view.columns(self.engine, items)
        if columns is None:
            return [self.decide(item, goal) for item in items]

        grid = view.grid
        # The common serving pattern is a prefix of the grid's own
        # columns; basic slices keep the big arrays as views.
        n = columns.size
        if np.array_equal(columns, np.arange(n)):
            selector = slice(None, n)
        else:
            selector = columns
        energy = grid.energy_j[:, selector]
        quality = grid.quality[:, selector]
        met = grid.met_deadline[:, selector]
        latency = grid.latency_s[:, selector]
        shape = energy.shape
        cap_w = np.broadcast_to(grid.power_cap_w[:, None], shape)
        power_w = np.broadcast_to(self._power_w[:, None], shape)
        neg_quality = -quality

        feasible = outcome_feasible(goal, met, quality, energy)
        if goal.objective is ObjectiveKind.MINIMIZE_ENERGY:
            first, second = energy, neg_quality
        else:
            first, second = neg_quality, energy
        # Tier per (configuration, input): 0 feasible, 1 met-deadline
        # fallback, 2 last resort — the decide() branch order — with
        # that tier's own ranking keys behind it.
        tier = np.where(feasible, 0.0, np.where(met, 1.0, 2.0))
        key1 = np.where(feasible, first, np.where(met, neg_quality, latency))
        key2 = np.where(feasible, second, np.where(met, energy, neg_quality))
        key3 = np.where(feasible, cap_w, power_w)
        rows = _lexargmin_columns((tier, key1, key2, key3))
        configs = self._configs
        return [configs[row] for row in rows.tolist()]

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
    outcome grid when its rows are this space, its timing is the
    goal's, and it holds inputs ``0..n_inputs-1`` in order, each
    admitted by :meth:`~repro.models.inference.GridView.columns`;
    otherwise the grid is realised afresh.  The reference is
    :func:`best_static_config_scalar`.
    """
    if n_inputs < 1:
        raise ConfigurationError(f"need at least one input, got {n_inputs}")
    configs = _candidates(space)
    grid = None
    if (
        grid_view is not None
        and tuple(grid_view.grid.configs) == configs
        and grid_view.matches_timing(goal.deadline_s, goal.period)
    ):
        columns = grid_view.columns(engine, stream.items(n_inputs))
        if columns is not None and np.array_equal(columns, np.arange(n_inputs)):
            grid = grid_view.grid
    if grid is None:
        grid = oracle_outcome_grid(engine, space, goal, stream, n_inputs)
    met = grid.met_deadline[:, :n_inputs]
    quality = grid.quality[:, :n_inputs]
    energy = grid.energy_j[:, :n_inputs]
    feasible = outcome_feasible(goal, met, quality, energy)
    violation_fraction = (n_inputs - feasible.sum(axis=1)) / n_inputs
    if goal.objective is ObjectiveKind.MINIMIZE_ENERGY:
        objective = energy.sum(axis=1) / n_inputs
    else:
        objective = (1.0 - quality).sum(axis=1) / n_inputs
    power_w = np.array([config.power_w for config in configs])

    qualifying = violation_fraction <= violation_threshold
    if qualifying.any():
        return configs[_lexmin(qualifying, objective, violation_fraction, power_w)]
    # Nothing meets the 10% rule; prefer the least violating.
    everything = np.ones(len(configs), dtype=bool)
    return configs[_lexmin(everything, violation_fraction, objective, power_w)]


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
