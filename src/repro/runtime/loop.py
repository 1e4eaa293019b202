"""The serving loops: one policy, one scenario, one constraint setting.

Implements the paper's deployment model: inputs arrive periodically;
before each input the policy picks a (DNN, power, rung) configuration;
the engine realises latency, quality, and energy; measurements feed
back to the policy.  The loops own goal adjustment (workflow step 2):
requirement-trace overrides and shared sentence deadlines.  A policy
reserves its own overhead from the deadline it is given (ALERT's
kernel does).

In the spec → executor → loop architecture the loops are the innermost
layer: :mod:`repro.runtime.executor` turns a declarative plan of cells
into serving-loop runs, in this process
(:class:`~repro.runtime.executor.RunExecutor`) or on the sweep's
process pool (:func:`repro.runtime.sweep.run_sweep`).

**Three serving paths.**

* the *sequential* path (:meth:`ServingLoop.run_sequential`) — the
  faithful per-input round trip above, one run at a time.  It is the
  reference the other two are pinned to, and it serves every run they
  do not: narrow cells' feedback runs, and schedulers that cannot
  stack;
* the *batch* path (:meth:`ServingLoop.run`) — when the policy declares
  itself **feedback-free** (``scheduler.feedback_free`` is True:
  decisions never read observations and ``observe`` is a no-op, e.g.
  Oracle, OracleStatic, App-only) and the run's goal cannot change
  from one input to the next (:meth:`ServingLoop.batch_eligible`),
  every decision is known up front, so the loop realises the whole run
  as column slices of one grid derivation (or, without a grid that
  covers the run, one
  :meth:`~repro.models.inference.InferenceEngine.evaluate_batch` pass
  per distinct configuration) plus vectorized violation bookkeeping
  instead of ``n_inputs`` engine round trips.  The batch path is pure
  with respect to the engine's RAPL meter (nothing is metered) and
  matches the sequential records exactly up to floating-point
  associativity (≤ 1 ulp; discrete fields identical), pinned by
  ``tests/test_serving_batch_parity.py``;
* the *lockstep* path — in a cell with enough goals, every scheme whose
  runs the batch path refuses (the feedback schemes, and on sentence
  cells the feedback-free ones too) becomes one :class:`LockstepLane`,
  and all lanes of the cell advance together through one
  :class:`CrossSchemeLockstepLoop`: one stacked decide and (for
  feedback schemes) one stacked observe pass per lane per input, array
  in and array out (the :class:`LockstepLane` contract).  Base goals
  come from each goal's own :class:`ServingLoop` (requirement traces)
  and shared sentence deadlines from the one
  :class:`~repro.core.goals.GoalAdjuster` rule in its vector form, so
  neither needs a second implementation.

The batch path and the lockstep lanes return the same thing: a run's
:class:`~repro.runtime.results.RunArrays` plus a materializer that
fills the records straight into ``__dict__`` (:func:`_fill_group`)
from plain lists (:class:`_RowGroup`) on first access.

**Shared realisations.**  Every path can additionally serve from a
:class:`~repro.models.inference.GridView` over a precomputed
(configuration × input) outcome grid — the fused-cell execution path
realises one timing-free grid per scenario and every scheme and goal
of the cell reads it.  The grid holds no deadline or period: every
read derives the timing it actually serves, so group-adjusted
sentence deadlines and requirement-trace overrides are served from the
grid like any other.  A decision's row is looked up by its
machine-clamped requested cap, and each row was computed at the cap
the actuator enforces for that request, so decisions resolve on every
platform, GPU power-table caps included.  On the sequential path each
decision that resolves to a grid (row, column) is answered by
:meth:`GridView.outcome` instead of :meth:`InferenceEngine.run` (the
actuator is still driven, so end state matches the live path; nothing
is metered); in the lockstep lanes each step's stop latency comes from
the grid and one paired derivation gives every grid-served step its
outcome afterwards; on the batch path whole configuration groups
become column slices of the view's planes at the run's timing instead
of fresh ``evaluate_batch`` passes.  Any lookup miss — off-grid input
or unknown configuration — falls back to the live engine, so a view
is always an optimisation, never a semantics change
(``tests/test_cell_fusion_parity.py`` pins grid-served runs to the
live-engine reference).  The view comes from the ``grid_view``
constructor argument only; every path asks it, never the grid, whether
a column may serve an input (:meth:`GridView.column` per input,
:meth:`GridView.columns` per run).

Violation bookkeeping follows the paper:

* **latency** — the final answer landed after the (base) deadline;
* **accuracy** — in minimise-energy mode, the delivered quality fell
  below ``accuracy_min``;
* **energy** — in minimise-error mode, the period energy exceeded
  ``energy_budget_j``.
"""

from __future__ import annotations

from functools import partial
from typing import NamedTuple

import numpy as np

from repro.core.goals import Goal, GoalAdjuster, violation_limits
from repro.core.kernel import stacked_measurements
from repro.errors import ConfigurationError
from repro.hw.energy import EnergyBreakdown
from repro.models.inference import (
    GridView,
    InferenceEngine,
    InferenceOutcome,
    OutcomePlanes,
)
from repro.runtime.clock import SimulatedClock
from repro.runtime.results import RunArrays, RunResult, ServedInput
from repro.runtime.scheduler import Scheduler
from repro.workloads.inputs import InputItem, InputStream
from repro.workloads.traces import RequirementTrace

__all__ = [
    "ServingLoop",
    "LockstepLane",
    "CrossSchemeLockstepLoop",
    "LockstepTelemetry",
    "LOCKSTEP_TELEMETRY",
]


class LockstepTelemetry:
    """In-process counters for the lockstep decision path.

    Benches and smoke artifacts read these to show decision-path
    health (how many runs took the lockstep path, the stacked batch
    sizes) without threading plumbing through every
    result type.  Counters are per-process: pool workers accumulate
    their own and the numbers are meaningful for ``workers=1`` runs,
    which is how the benches use them.
    """

    def __init__(self) -> None:
        self.reset()

    def reset(self) -> None:
        self.lockstep_cells = 0
        self.lockstep_runs = 0
        self.fallback_runs = 0
        self.stacked_calls = 0
        self.stacked_states = 0
        self.sequential_inputs = 0

    def record_cell(self, cell) -> None:
        """Fold in one finished cell's counters.

        ``cell`` is any stacked cell exposing the ``lockstep_stats``
        dict built by :func:`repro.core.kernel.lockstep_stats_dict`
        (the shared shape contract) — e.g. ``AlertCellKernel`` or
        ``SysOnlyCellController``.
        """
        stats = cell.lockstep_stats
        self.lockstep_cells += 1
        self.lockstep_runs += stats["goals"]
        self.stacked_calls += stats["stacked_calls"]
        self.stacked_states += stats["stacked_states"]

    def record_fallback(self, n_runs: int = 1) -> None:
        self.fallback_runs += n_runs

    def record_sequential(self, n_inputs: int) -> None:
        """Count inputs served by per-input Python decide/observe.

        Incremented by the sequential reference path only.  A wide cell
        leaves this at zero — every scheme advances as a lockstep lane,
        except feedback-free runs the batch path takes (image cells) —
        which the lockstep parity tests assert.
        """
        self.sequential_inputs += n_inputs

    def snapshot(self) -> dict:
        calls = self.stacked_calls
        return {
            "lockstep_cells": self.lockstep_cells,
            "lockstep_runs": self.lockstep_runs,
            "fallback_runs": self.fallback_runs,
            "stacked_calls": calls,
            "stacked_states": self.stacked_states,
            "mean_batch_size": (
                round(self.stacked_states / calls, 2) if calls else 0.0
            ),
            "sequential_inputs": self.sequential_inputs,
        }


#: Process-wide lockstep counters (reset from benches before a run).
LOCKSTEP_TELEMETRY = LockstepTelemetry()


class _RowGroup(NamedTuple):
    """One grid row's outcomes over a group of inputs, as plain lists.

    The per-input lists align with the group's positions.  Holding no
    array, a deferred record build that keeps groups pins no grid.
    """

    model_name: str
    effective_cap_w: float
    inference_power_w: float
    latency: list
    full_latency: list
    met: list
    quality: list
    metric: list
    rungs: list
    inference_j: list
    idle_j: list
    idle_power: list
    env: list
    latency_violation: list
    accuracy_violation: list
    energy_violation: list


def _flags(violated, size: int) -> list:
    """A constraint check as a list: elementwise, or one constant
    repeated when the constraint does not apply to the goal."""
    if isinstance(violated, np.ndarray):
        return violated.tolist()
    return [bool(violated)] * size


def _read_rows(
    planes, row: int, columns, model, effective_cap_w: float, goal: Goal
) -> tuple[_RowGroup, tuple]:
    """Read one row group of an outcome grid into plain lists.

    ``planes`` is a :class:`~repro.models.inference.OutcomePlanes`: a
    whole grid's planes read at ``row`` over the ``columns`` index
    array, or one row's planes read at row 0 over every column.
    ``effective_cap_w`` is the cap the actuator enforced, which the
    records report (the planes carry no caps).  The violation flags are
    checked against ``goal`` with the tolerances of
    :mod:`repro.core.goals`, shared with :func:`_served_record` and the
    oracles' feasibility masks.

    Returns ``(group, series)``: the :class:`_RowGroup`, and the arrays
    it was read from that the batch path copies into its whole-run
    series — ``(latency, quality, energy, missed, accuracy, budget)``,
    where the two constraint checks are one bool when they do not
    apply to ``goal``.
    """
    latency_row = planes.latency_s[row, columns]
    met_row = planes.met_deadline[row, columns]
    quality_row = planes.quality[row, columns]
    energy_row = planes.energy_j[row, columns]
    missed = np.logical_not(met_row)
    accuracy = goal.quality_violated(quality_row)
    budget = goal.energy_violated(energy_row)
    quality = quality_row.tolist()
    size = len(quality)
    group = _RowGroup(
        model.name,
        effective_cap_w,
        float(planes.inference_power_w[row]),
        latency_row.tolist(),
        planes.full_latency_s[row, columns].tolist(),
        met_row.tolist(),
        quality,
        model.task.quality_to_metric_list(quality),
        planes.completed_rungs[row, columns].tolist(),
        planes.inference_j[row, columns].tolist(),
        planes.idle_j[row, columns].tolist(),
        planes.idle_power_w[row, columns].tolist(),
        planes.env_factor[columns].tolist(),
        missed.tolist(),
        _flags(accuracy, size),
        _flags(budget, size),
    )
    series = (latency_row, quality_row, energy_row, missed, accuracy, budget)
    return group, series


def _fill_group(
    records: list,
    positions: list[int],
    caps: list[float],
    group: _RowGroup,
    goal: Goal,
    deadlines: list[float],
    period_s: float,
    indices: list[int],
    xi_means: list[float],
    xi_sigmas: list[float],
) -> None:
    """Assemble one row group's records into ``records``.

    ``positions`` are the group's inputs, ``caps`` their requested
    caps and ``deadlines`` their adjusted deadlines, all in the order
    of the group's lists; ``records``,
    ``indices`` and the ξ lists align with the whole run.  Records are
    assembled by direct ``__dict__`` fill: the frozen dataclass
    ``__init__`` (one ``object.__setattr__`` per field) is this build's
    dominant cost, and these classes have no ``__post_init__`` to skip.
    The parity suites pin the result against constructor-built
    sequential records field by field.
    """
    (
        model_name, effective, power, latency, full, met, quality, metric,
        rungs, inference_j, idle_j, idle_power, env,
        latency_violation, accuracy_violation, energy_violation,
    ) = group
    fill = object.__setattr__  # frozen dataclasses veto assignment
    for j, position in enumerate(positions):
        deadline_s = deadlines[j]
        energy = object.__new__(EnergyBreakdown)
        fill(energy, "__dict__", {
            "inference_j": inference_j[j],
            "idle_j": idle_j[j],
        })
        outcome = object.__new__(InferenceOutcome)
        fill(outcome, "__dict__", {
            "index": indices[position],
            "model_name": model_name,
            "power_cap_w": caps[j],
            "effective_cap_w": effective,
            "latency_s": latency[j],
            "full_latency_s": full[j],
            "met_deadline": met[j],
            "quality": quality[j],
            "metric_value": metric[j],
            "completed_rungs": rungs[j],
            "energy": energy,
            "inference_power_w": power,
            "idle_power_w": idle_power[j],
            "env_factor": env[j],
            "deadline_s": deadline_s,
            "period_s": period_s,
        })
        record = object.__new__(ServedInput)
        fill(record, "__dict__", {
            "outcome": outcome,
            "goal": goal,
            "effective_deadline_s": deadline_s,
            "latency_violation": latency_violation[j],
            "accuracy_violation": accuracy_violation[j],
            "energy_violation": energy_violation[j],
            "xi_mean": xi_means[position],
            "xi_sigma": xi_sigmas[position],
        })
        records[position] = record


def _served_record(
    outcome: InferenceOutcome,
    goal: Goal,
    deadline_s: float,
    xi_mean: float,
    xi_sigma: float,
) -> ServedInput:
    """One engine-served input's record, with its violation flags.

    Tolerances live in one place — :mod:`repro.core.goals` — shared
    with the oracles' feasibility masks, so "violated" means the same
    thing to the bookkeeping and to the perfect-knowledge baselines.
    ``goal`` is the base goal in force and ``deadline_s`` the adjusted
    deadline the input was served under.
    """
    return ServedInput(
        outcome=outcome,
        goal=goal,
        effective_deadline_s=deadline_s,
        latency_violation=not outcome.met_deadline,
        accuracy_violation=bool(goal.quality_violated(outcome.quality)),
        energy_violation=bool(goal.energy_violated(outcome.energy_j)),
        xi_mean=xi_mean,
        xi_sigma=xi_sigma,
    )


class ServingLoop:
    """Drives one scheduler over one engine and input stream.

    Parameters
    ----------
    engine:
        The inference engine (owns the environment realisation).
    stream:
        The input stream (owns work factors and grouping).
    scheduler:
        The policy under evaluation.
    goal:
        The base constraint setting.
    requirement_trace:
        Optional mid-run requirement changes.
    grid_view:
        Optional shared-realisation view (see the module docstring).

    The loop owns its :class:`~repro.core.goals.GoalAdjuster`
    (``adjuster``) and its :class:`~repro.runtime.clock.SimulatedClock`
    (``clock``).  It ticks the clock by each served input's occupied
    time (``max(latency, period)`` — the blocking-device model), so
    after a run ``clock.now()`` is the simulated wall time the trace
    consumed.  Decisions never read it: the kernel split keeps the
    policy clock-free, and this loop is just one driver of the kernel
    (the :mod:`repro.serve` front-end is another).
    """

    def __init__(
        self,
        engine: InferenceEngine,
        stream: InputStream,
        scheduler: Scheduler,
        goal: Goal,
        requirement_trace: RequirementTrace | None = None,
        grid_view: GridView | None = None,
    ) -> None:
        self.engine = engine
        self.stream = stream
        self.scheduler = scheduler
        self.goal = goal
        self.trace = requirement_trace or RequirementTrace()
        self.adjuster = GoalAdjuster()
        self.clock = SimulatedClock()
        self.grid_view = grid_view

    # ------------------------------------------------------------------
    # Goal plumbing
    # ------------------------------------------------------------------
    def _base_goal_at(self, index: int) -> Goal:
        """The base goal with any requirement-trace override applied."""
        if self.trace.is_empty:
            return self.goal
        return self.trace.apply(self.goal, index)

    # ------------------------------------------------------------------
    # Main loop
    # ------------------------------------------------------------------
    def batch_eligible(self, items: list[InputItem]) -> bool:
        """Whether the run can take the feedback-free batch fast path.

        Requires a scheduler that declares ``feedback_free``, no
        requirement trace, no deadline-sharing groups among the items,
        and an adjuster that is not mid-group from an earlier run —
        anything else threads state between inputs.  Streams declaring
        ``has_groups`` False (the :class:`InputStream` contract) skip
        the per-item group scan.
        """
        if not getattr(self.scheduler, "feedback_free", False):
            return False
        if not self.trace.is_empty:
            return False
        if self.adjuster.mid_group:
            return False
        if not self.stream.has_groups:
            return True
        return all(item.group_size == 1 for item in items)

    def _items(self, n_inputs: int) -> list[InputItem]:
        if n_inputs < 1:
            raise ConfigurationError(f"need at least one input, got {n_inputs}")
        return self.stream.items(n_inputs)

    def run(self, n_inputs: int) -> RunResult:
        """Serve ``n_inputs`` inputs and aggregate the records.

        Takes the batch fast path exactly when :meth:`batch_eligible`
        allows it, and the sequential path otherwise.
        """
        items = self._items(n_inputs)
        if not self.batch_eligible(items):
            return self._run_sequential(items)
        arrays, materialize = self._run_batch(items)
        return RunResult(
            scheduler_name=self.scheduler.name, goal=self.goal,
            arrays=arrays, materialize=materialize,
        )

    def run_sequential(self, n_inputs: int) -> RunResult:
        """Serve ``n_inputs`` inputs through the per-input round trip.

        The reference the batch path and the lockstep lanes are pinned
        to, whatever :meth:`batch_eligible` says.
        """
        return self._run_sequential(self._items(n_inputs))

    # ------------------------------------------------------------------
    # Sequential reference path
    # ------------------------------------------------------------------
    def _grid_outcome(
        self, view: GridView, config, item: InputItem, adjusted: Goal, period: float
    ) -> InferenceOutcome | None:
        """Serve one decision from the shared grid, or None on any miss.

        Mirrors :meth:`InferenceEngine.run` exactly minus the metering:
        the actuator is driven to the requested cap, and the outcome is
        derived at the adjusted deadline from the grid row of the
        machine-clamped request, whose physics is at the cap the
        actuator enforces for it.
        """
        engine = self.engine
        engine.actuator.set_power_cap(config.power_w)
        row = view.row_for(
            config.model, engine.machine.clamp_power(config.power_w),
            config.rung_cap,
        )
        if row is None:
            return None
        position = view.column(engine, item)
        if position is None:
            return None
        return view.outcome(
            row,
            position,
            index=item.index,
            deadline_s=adjusted.deadline_s,
            period_s=period,
        )

    def _run_sequential(self, items: list[InputItem]) -> RunResult:
        """The per-input round trip: decide → run → observe → record."""
        LOCKSTEP_TELEMETRY.record_sequential(len(items))
        records: list[ServedInput] = []
        # Resolve the optional state accessor once per run, not per
        # input; the state itself is still read per input (ALERT's ξ
        # belief evolves with every observation — Figure 9's traces).
        has_state = hasattr(self.scheduler, "state")
        view = self.grid_view
        for item in items:
            index = item.index
            base_goal = self._base_goal_at(index)
            adjusted = self.adjuster.adjust(base_goal, item)

            config = self.scheduler.decide(item, adjusted)
            outcome = None
            if view is not None:
                outcome = self._grid_outcome(
                    view, config, item, adjusted, base_goal.period
                )
            if outcome is None:
                outcome = self.engine.run(
                    model=config.model,
                    power_cap_w=config.power_w,
                    index=index,
                    deadline_s=adjusted.deadline_s,
                    period_s=base_goal.period,
                    work_factor=item.work_factor,
                    rung_cap=config.rung_cap,
                )
            self.scheduler.observe(outcome)
            self.adjuster.consume(item, outcome.latency_s)
            xi_mean, xi_sigma = 0.0, 0.0
            if has_state:
                state = self.scheduler.state
                xi_mean, xi_sigma = state.xi_mean, state.xi_sigma
            # The "input served" commit point: the simulated clock
            # advances by the input's occupied time (the batch path and
            # the lockstep lanes tick the same times with tick_many).
            latency, period = outcome.latency_s, outcome.period_s
            self.clock.tick(latency if latency > period else period)
            records.append(
                _served_record(
                    outcome, base_goal, adjusted.deadline_s, xi_mean, xi_sigma
                )
            )
        return RunResult(
            scheduler_name=self.scheduler.name, goal=self.goal, records=records
        )

    # ------------------------------------------------------------------
    # Feedback-free batch fast path
    # ------------------------------------------------------------------
    def _run_batch(self, items: list[InputItem]):
        """Realise a feedback-free run in vectorized passes.

        All decisions are collected up front (``decide_batch`` when the
        scheduler offers it) and grouped by configuration; each group
        is read from the view's planes at the run's timing, or
        realised with one pure ``evaluate_batch`` pass of its
        configuration when the view cannot serve it; violation flags
        are computed on each group's arrays.  Nothing
        is metered and ``observe`` is never called (feedback-free
        policies declare it a no-op).

        Returns ``(arrays, materialize)``: the run's vectorized
        :class:`~repro.runtime.results.RunArrays` plus a thunk that
        assembles the per-input :class:`ServedInput` list on demand.
        Building 3·n record objects is the fast path's dominant cost,
        and summary-only consumers (the sweep driver) never need them
        — :class:`~repro.runtime.results.RunResult` defers the build
        to first ``records`` access.  All engine side effects (actuator
        caps, the simulated clock) still happen here, eagerly.
        """
        base_goal = self.goal
        # Trace is empty and no item is grouped, so the adjusted goal
        # is the same for every input.
        adjusted = self.adjuster.adjust(base_goal, items[0])
        scheduler = self.scheduler
        decide_batch = getattr(scheduler, "decide_batch", None)
        if decide_batch is not None:
            configs = decide_batch(items, adjusted)
        else:
            configs = [scheduler.decide(item, adjusted) for item in items]

        engine = self.engine
        clamp = engine.machine.clamp_power
        deadline = adjusted.deadline_s
        period = base_goal.period
        item_indices = [item.index for item in items]

        # Group input positions by decided configuration.  Identity
        # grouping suffices: schedulers hand out their candidate
        # objects, so equal decisions are the same object (and a
        # duplicate object would only cost one extra engine pass).
        groups: dict[int, list[int]] = {}
        group_config: dict[int, object] = {}
        for position, config in enumerate(configs):
            key = id(config)
            bucket = groups.get(key)
            if bucket is None:
                groups[key] = [position]
                group_config[key] = config
            else:
                bucket.append(position)

        n = len(items)
        # Whole-run series, filled group by group from the same rows
        # the records are built from (so aggregates over either are
        # bit-identical).
        arr_latency = np.empty(n)
        arr_quality = np.empty(n)
        arr_energy = np.empty(n)
        arr_metric = np.empty(n)
        arr_violated = np.empty(n, dtype=bool)
        arr_missed = np.empty(n, dtype=bool)
        # Per-group payloads captured for the deferred record build.
        group_payloads = []
        # Occupied simulated time across the run (the per-input ticks
        # the sequential path would have made), folded into the clock
        # in one tick_many at the end.
        total_occupied = 0.0

        # Shared-realisation serving: when a grid view covers every
        # input, configuration groups become column slices of the
        # view's planes at this run's timing instead of fresh
        # evaluate_batch passes.
        view = self.grid_view
        planes = None
        grid_columns = None
        if view is not None:
            grid_columns = view.columns(engine, items)
            if grid_columns is not None:
                planes = view.planes(deadline, period)

        # Feedback-free schedulers promise constant state (observe is
        # a no-op), so the belief trace is one snapshot for the run.
        state = getattr(scheduler, "state", None)
        if state is not None:
            xi_mean, xi_sigma = state.xi_mean, state.xi_sigma
        else:
            xi_mean, xi_sigma = 0.0, 0.0

        for key, positions in groups.items():
            config = group_config[key]
            model = config.model
            effective = engine.actuator.set_power_cap(config.power_w)
            cap = clamp(config.power_w)
            # One index array per group: indexing with the list itself
            # would convert it again on every access.
            index = np.fromiter(positions, np.intp, len(positions))
            row = None
            if planes is not None:
                row = view.row_for(model, cap, config.rung_cap)
            if row is not None:
                source, columns = planes, grid_columns[index]
            else:
                source = engine.evaluate_batch(
                    configs=(config,),
                    indices=[item_indices[p] for p in positions],
                    work_factors=[items[p].work_factor for p in positions],
                ).timing(deadline, period)
                row, columns = 0, slice(None)
            group, series = _read_rows(
                source, row, columns, model, effective, base_goal
            )
            latency, quality, energy, missed, accuracy, budget = series
            total_occupied += sum(
                t if t > period else period for t in group.latency
            )
            arr_latency[index] = latency
            arr_quality[index] = quality
            arr_energy[index] = energy
            arr_metric[index] = group.metric
            arr_violated[index] = missed | accuracy | budget
            arr_missed[index] = missed
            group_payloads.append((positions, cap, group))
        # The sequential path leaves the actuator at the last decision.
        engine.actuator.set_power_cap(configs[-1].power_w)
        self.clock.tick_many(total_occupied, n)

        arrays = RunArrays(
            latency_s=arr_latency, quality=arr_quality, energy_j=arr_energy,
            metric_value=arr_metric, violated=arr_violated,
            latency_violation=arr_missed,
        )

        def materialize() -> list[ServedInput]:
            # The closure holds only plain lists — no engine or grid
            # references.
            records: list[ServedInput | None] = [None] * n
            xi_means = [xi_mean] * n
            xi_sigmas = [xi_sigma] * n
            for positions, cap, group in group_payloads:
                size = len(positions)
                _fill_group(
                    records, positions, [cap] * size, group, base_goal,
                    [deadline] * size, period, item_indices,
                    xi_means, xi_sigmas,
                )
            return records

        return arrays, materialize


class LockstepLane(NamedTuple):
    """One scheme's runs of a lockstep cell, as plain data.

    ``loops`` holds one :class:`ServingLoop` per goal (base goal,
    requirement trace, simulated clock), all over one engine, stream
    and grid view; ``cell`` is the stacked cell deciding for all of
    them, e.g. :class:`~repro.core.kernel.AlertCellKernel`.

    **The stacked-cell contract.**  A cell has ``n_goals`` and
    ``lockstep_stats``, and ``decide_many(goals, deadlines, item)``
    answers one step: ``goals`` is the tuple of base goals (the same
    object every step unless a requirement trace rebases them),
    ``deadlines`` a ``(G,)`` array of their group-adjusted deadlines,
    and the answer one configuration per goal.  A goal's period is its
    ``period_s`` where set, else its deadline after the cell's own
    overhead reserve (``Goal.period``'s rule).  Unless the cell
    declares ``feedback_free``, it also has
    ``observe_many(StackedMeasurements)`` and ``xi_snapshot()``.
    Build a lane through :meth:`CrossSchemeLockstepLoop.lane` or
    :meth:`CrossSchemeLockstepLoop.lane_of`.
    """

    loops: list[ServingLoop]
    cell: object


class _LaneSteps(NamedTuple):
    """What stepping one lane leaves for its records, step-major.

    ``rows`` holds each (step, goal)'s grid row, -1 where the live
    engine served it (``fallbacks`` holds those ``(step, goal,
    outcome)`` in step order); ``caps`` the requested caps,
    ``deadlines`` the adjusted deadlines and ``latency`` the served
    latencies, all ``(n_inputs, n_goals)``.  ``bases`` holds each
    step's base goals — one tuple object for every step unless
    ``traced`` (a requirement trace moves them); ``xi`` the per-step
    belief planes, or None.
    """

    rows: np.ndarray
    caps: np.ndarray
    deadlines: np.ndarray
    latency: np.ndarray
    fallbacks: list
    bases: list
    traced: bool
    xi: tuple | None


class CrossSchemeLockstepLoop:
    """Advance a whole Table-4 cell — every scheme's lockstep lanes —
    over one input stream.

    The one lockstep path: the executor puts every scheme of a wide
    enough cell here unless its runs take the batch path, and a lone
    lane runs as a one-lane cell.  Each *lane* is a
    :class:`LockstepLane` (one scheme, all goals).  All goals advance
    input-by-input **together**: one stacked ``decide_many`` pass
    computes every goal's decision per step, the grid-served goals'
    stop latencies come from one vectorized read of the shared
    :class:`~repro.models.inference.GridView` (live-engine fallback per
    miss), and one stacked ``observe_many`` pass folds the step's
    :class:`~repro.core.kernel.StackedMeasurements` back in — zero
    per-input Python ``decide``/``observe`` calls.  A feedback-free
    cell (``feedback_free`` True) observes nothing.  Lanes share the
    per-view column resolution, computed once per (view, engine) pair.

    Each step takes every goal's base goal from that goal's own
    :class:`ServingLoop` (its requirement trace, if any), adjusts all
    their deadlines at once through one vector
    :class:`~repro.core.goals.GoalAdjuster` (every goal sees the same
    items, so only the group budgets differ) and hands the served
    latencies back to it — the sequential path's goal plumbing, step
    for step, with no goal object built.  A lane carries its goals as
    ``(n_inputs, n_goals)`` arrays of grid rows, requested caps and
    adjusted deadlines, and each cell answers a step array in, array
    out (the :class:`LockstepLane` contract).

    After the last step one paired derivation
    (:meth:`~repro.models.inference.BatchOutcomeGrid.timing_at`) gives
    every grid-served step its outcome at its own deadline and period,
    the clocks tick, and each goal's :class:`RunResult` comes back as
    :class:`~repro.runtime.results.RunArrays` plus a materializer that
    builds the records on first access, as the batch path's runs do.
    Every goal's run is value-identical to serving that goal alone
    sequentially (``tests/test_lockstep_parity.py``: discrete exact,
    floats ≤ 1e-12, pool ≡ serial).
    """

    def __init__(self, lanes: "list[LockstepLane]") -> None:
        if not lanes:
            raise ConfigurationError(
                "a lockstep cell needs at least one lane"
            )
        for loops, cell in lanes:
            if not loops:
                raise ConfigurationError(
                    "a lockstep lane needs at least one run"
                )
            if len(loops) != cell.n_goals:
                raise ConfigurationError(
                    f"cell tracks {cell.n_goals} goals but {len(loops)} "
                    "runs given"
                )
        stream = lanes[0].loops[0].stream
        for lane in lanes:
            for loop in lane.loops:
                if loop.stream is not stream:
                    raise ConfigurationError(
                        "lockstep lanes must share one input stream"
                    )
        self.lanes = lanes
        self.stream = stream

    @classmethod
    def lane(
        cls,
        engine: InferenceEngine,
        stream: InputStream,
        schedulers,
        goals,
        grid_views,
        requirement_trace: RequirementTrace | None = None,
    ) -> "LockstepLane | None":
        """A lockstep lane over one scheme's per-goal runs, or None.

        ``schedulers``/``goals``/``grid_views`` align one-to-one; each
        goal gets its own :class:`ServingLoop` and :meth:`lane_of`
        stacks them.
        """
        if len(schedulers) < 1 or len(schedulers) != len(goals):
            return None
        return cls.lane_of([
            ServingLoop(
                engine, stream, scheduler, goal,
                requirement_trace=requirement_trace, grid_view=view,
            )
            for scheduler, goal, view in zip(schedulers, goals, grid_views)
        ])

    @staticmethod
    def lane_of(loops: list[ServingLoop]) -> "LockstepLane | None":
        """The lockstep lane over ``loops``, or None.

        None sends the caller to the per-goal path: it comes back
        whenever the runs cannot advance in lockstep (custom scheduler
        types, incompatible or already-warm kernels, runs that do not
        share one engine and grid view, a loop whose adjuster is in the
        middle of a deadline-sharing group).  A scheduler class opts into
        lockstep by defining a ``stack_into_cell(schedulers)``
        staticmethod **on the class itself** that returns a stacked
        cell (or None when the given instances cannot stack — warm
        state, mismatched spaces).  The hook is looked up on the exact
        class, never inherited, so subclasses with overridden behaviour
        fall back to the sequential reference path unless they re-opt
        in.  :class:`~repro.runtime.scheduler.AlertScheduler`,
        :class:`~repro.baselines.sys_only.SysOnlyScheduler`,
        :class:`~repro.baselines.no_coord.NoCoordScheduler`, and the
        feedback-free :class:`~repro.baselines.oracle.OracleScheduler`,
        :class:`~repro.runtime.scheduler.StaticScheduler` (OracleStatic)
        and :class:`~repro.baselines.app_only.AppOnlyScheduler` define
        it.
        """
        if not loops:
            return None
        first = loops[0]
        leader = type(first.scheduler)
        for loop in loops:
            if (
                type(loop.scheduler) is not leader
                or loop.engine is not first.engine
                or loop.grid_view is not first.grid_view
                or loop.adjuster.mid_group
            ):
                return None
        builder = leader.__dict__.get("stack_into_cell")
        if builder is None:
            return None
        cell = builder.__get__(None, leader)(
            [loop.scheduler for loop in loops]
        )
        if cell is None:
            return None
        return LockstepLane(list(loops), cell)

    def run(self, n_inputs: int) -> "list[list[RunResult]]":
        """Serve ``n_inputs`` for every lane; results align lane-major
        with the constructor's lane order, goal-major within a lane."""
        if n_inputs < 1:
            raise ConfigurationError(f"need at least one input, got {n_inputs}")
        items = self.stream.items(n_inputs)
        column_cache: dict[tuple[int, int], np.ndarray] = {}
        results = []
        for lane in self.lanes:
            view = lane.loops[0].grid_view
            columns = None
            if view is not None:
                engine = lane.loops[0].engine
                key = (id(view), id(engine))
                columns = column_cache.get(key)
                if columns is None:
                    columns = self._columns(view, engine, items)
                    column_cache[key] = columns
            steps = self._step_lane(lane, items, columns)
            results.append(self._finish_lane(lane, items, columns, steps))
            LOCKSTEP_TELEMETRY.record_cell(lane.cell)
        return results

    def _columns(
        self, view: GridView, engine: InferenceEngine, items: list[InputItem]
    ) -> np.ndarray:
        """Per-step grid columns for one view (-1 where any miss)."""
        positions = np.full(len(items), -1, dtype=np.intp)
        for position, item in enumerate(items):
            column = view.column(engine, item)
            if column is not None:
                positions[position] = column
        return positions

    @staticmethod
    def _resolve(memo: dict, engine: InferenceEngine, view, config) -> tuple:
        """``(row or -1, requested clamped cap, config)`` of one decision.

        Config identities are stable (cells hand out their candidate
        objects), so the actuator/row resolution runs once per distinct
        decision; the entry pins its config, keeping the id unambiguous.
        Rows are looked up by the clamped request, as on every path.
        """
        engine.actuator.set_power_cap(config.power_w)
        cap = engine.machine.clamp_power(config.power_w)
        row = view.row_for(config.model, cap, config.rung_cap)
        entry = (row if row is not None else -1, cap, config)
        memo[id(config)] = entry
        return entry

    def _step_lane(
        self, lane: LockstepLane, items: list[InputItem], columns
    ) -> _LaneSteps:
        """Advance every goal of one lane through ``items``.

        Decisions, the actuator, goal adjustment and the stacked filters
        move here, step by step, array in and array out; nothing builds
        a goal or a record.
        """
        loops, cell = lane
        n_goals = len(loops)
        n = len(items)
        engine = loops[0].engine
        view = loops[0].grid_view
        grid = view.grid if view is not None else None
        column_list = columns.tolist() if columns is not None else [-1] * n
        names = [] if grid is None else [c.model.name for c in grid.configs]
        traced = any(not loop.trace.is_empty for loop in loops)
        bases = tuple(loop.goal for loop in loops)
        base_deadlines = np.array([goal.deadline_s for goal in bases])
        periods = np.array([goal.period for goal in bases])
        step_bases = []
        # Every goal sees the same items, so one vector adjuster holds
        # the group and the words left; only the budgets differ.
        adjuster = GoalAdjuster()
        observe = not getattr(cell, "feedback_free", False)
        rows = np.full((n, n_goals), -1, dtype=np.intp)
        caps = np.zeros((n, n_goals))
        deadlines = np.empty((n, n_goals))
        latency = np.empty((n, n_goals))
        fallbacks: list[tuple[int, int, InferenceOutcome]] = []
        memo: dict[int, tuple] = {}
        xi_mean: np.ndarray | None = None
        xi_sigma: np.ndarray | None = None
        unresolved = [-1] * n_goals

        for step, item in enumerate(items):
            if traced:
                # Each goal's own loop applies the trace, as on the
                # sequential path; an unchanged step keeps the previous
                # tuple, so the cells' goal-keyed plans keep hitting.
                stepped = tuple(loop._base_goal_at(item.index) for loop in loops)
                if stepped != bases:
                    bases = stepped
                    base_deadlines = np.array([goal.deadline_s for goal in bases])
                    periods = np.array([goal.period for goal in bases])
                step_bases.append(bases)
            step_deadlines = deadlines[step]
            step_deadlines[:] = adjuster.adjust_many(base_deadlines, item)
            configs = cell.decide_many(bases, step_deadlines, item)
            step_latency = latency[step]
            column = column_list[step]
            if column >= 0:
                entries = [
                    memo.get(id(config))
                    or self._resolve(memo, engine, view, config)
                    for config in configs
                ]
                row_list = [entry[0] for entry in entries]
                cap_list = [entry[1] for entry in entries]
                step_rows = rows[step]
                step_rows[:] = row_list
                caps[step] = cap_list
                full = grid.full_latency_s[step_rows, column]
                idle = grid.idle_power_w[step_rows, column]
                step_latency[:] = grid.ladder.stop(
                    step_rows, full, step_deadlines
                )
                served_names = [names[row] for row in row_list]
            else:
                row_list = unresolved
                cap_list = [0.0] * n_goals
                full = np.empty(n_goals)
                idle = np.empty(n_goals)
                served_names = [""] * n_goals
            if min(row_list) < 0:
                deadline_list = step_deadlines.tolist()
                period_list = periods.tolist()
                for g, row in enumerate(row_list):
                    if row >= 0:
                        continue
                    config = configs[g]
                    outcome = engine.run(
                        model=config.model,
                        power_cap_w=config.power_w,
                        index=item.index,
                        deadline_s=deadline_list[g],
                        period_s=period_list[g],
                        work_factor=item.work_factor,
                        rung_cap=config.rung_cap,
                    )
                    fallbacks.append((step, g, outcome))
                    step_latency[g] = outcome.latency_s
                    served_names[g] = outcome.model_name
                    cap_list[g] = outcome.power_cap_w
                    full[g] = outcome.full_latency_s
                    idle[g] = outcome.idle_power_w
            adjuster.consume_many(item, step_latency)
            if not observe:
                continue
            cell.observe_many(stacked_measurements(
                served_names, cap_list, step_latency, full, idle, periods
            ))
            snapshot = cell.xi_snapshot()
            if snapshot is not None:
                if xi_mean is None:
                    xi_mean = np.zeros((n, n_goals))
                    xi_sigma = np.zeros((n, n_goals))
                # Row-copy: the cell may mutate (or rebind) its live
                # arrays on the next observe.
                xi_mean[step] = snapshot[0]
                xi_sigma[step] = snapshot[1]

        # The sequential path leaves the actuator at the last decision.
        engine.actuator.set_power_cap(configs[-1].power_w)
        return _LaneSteps(
            rows, caps, deadlines, latency, fallbacks,
            step_bases if traced else [bases] * n, traced,
            None if xi_mean is None else (xi_mean, xi_sigma),
        )

    def _finish_lane(
        self, lane: LockstepLane, items: list[InputItem], columns, steps
    ) -> "list[RunResult]":
        """Derive, tick and summarise one stepped lane.

        Every grid-served (step, goal) is derived in one paired
        :meth:`~repro.models.inference.BatchOutcomeGrid.timing_at` call,
        its runs ordered goal by goal and, within a goal, in groups of
        one (base goal, row) in the order the groups first occur.  Each
        clock ticks its groups' occupied time in that order, then its
        engine-served steps one by one.  The runs come back as
        :class:`RunArrays` and a materializer per goal.
        """
        loops = lane.loops
        n_goals = len(loops)
        n = len(items)
        view = loops[0].grid_view
        # Base goals as small ids: each goal's own when no trace moves
        # them, else one id per distinct (equal-valued) base.
        if steps.traced:
            ids: dict[Goal, int] = {}
            base_ids = np.array([
                [ids.setdefault(base, len(ids)) for base in bases]
                for bases in steps.bases
            ])
            goals_by_id = list(ids)
        else:
            base_ids = np.broadcast_to(np.arange(n_goals), (n, n_goals))
            goals_by_id = steps.bases[0]

        goal_of, step_of = np.nonzero(steps.rows.T >= 0)
        row_of = steps.rows[step_of, goal_of]
        base_of = base_ids[step_of, goal_of]
        n_rows = 0 if view is None else len(view.grid.configs)
        key = (goal_of * len(goals_by_id) + base_of) * n_rows + row_of
        _, first, inverse = np.unique(key, return_index=True, return_inverse=True)
        head = first[inverse]
        order = np.argsort(head, kind="stable")
        goal_of, step_of = goal_of[order], step_of[order]
        row_of, base_of = row_of[order], base_of[order]
        starts = np.flatnonzero(np.diff(head[order], prepend=-1)).tolist()
        bounds = starts + [len(order)]
        period_of = np.array([goal.period for goal in goals_by_id])[base_of]

        latency = np.ascontiguousarray(steps.latency.T)
        quality = np.empty((n_goals, n))
        energy = np.empty((n_goals, n))
        metric = np.empty((n_goals, n))
        missed = np.empty((n_goals, n), dtype=bool)
        violated = np.empty((n_goals, n), dtype=bool)
        totals = [0.0] * n_goals
        runs = None
        if len(order):
            grid = view.grid
            planes = grid.timing_at(
                row_of, columns[step_of], steps.deadlines[step_of, goal_of],
                period_of,
            )
            occupied = np.maximum(planes.latency_s, period_of).tolist()
            group_goal = goal_of[starts].tolist()
            group_row = row_of[starts].tolist()
            for g, a, b in zip(group_goal, bounds, bounds[1:]):
                totals[g] += sum(occupied[a:b])
            qualities = planes.quality.tolist()
            tasks = [config.model.task for config in grid.configs]
            if all(task is tasks[0] for task in tasks):
                metrics = tasks[0].quality_to_metric_list(qualities)
            else:
                metrics = []
                for row, a, b in zip(group_row, bounds, bounds[1:]):
                    metrics += tasks[row].quality_to_metric_list(qualities[a:b])
            floors, ceilings = violation_limits(goals_by_id)
            run_missed = np.logical_not(planes.met_deadline)
            accuracy = planes.quality < floors[base_of]
            budget = planes.energy_j > ceilings[base_of]
            quality[goal_of, step_of] = planes.quality
            energy[goal_of, step_of] = planes.energy_j
            metric[goal_of, step_of] = metrics
            missed[goal_of, step_of] = run_missed
            violated[goal_of, step_of] = run_missed | accuracy | budget
            runs = _LaneRuns(
                planes, step_of, steps.caps[step_of, goal_of],
                steps.deadlines[step_of, goal_of], metrics, run_missed,
                accuracy, budget, bounds, group_row,
                [goals_by_id[i] for i in base_of[starts].tolist()],
                [config.model.name for config in grid.configs],
                grid.effective_cap_w.tolist(), grid.inference_power_w.tolist(),
                np.searchsorted(goal_of, np.arange(n_goals + 1)).tolist(),
                np.searchsorted(group_goal, np.arange(n_goals + 1)).tolist(),
            )

        served = np.bincount(goal_of, minlength=n_goals).tolist()
        for loop, total, count in zip(loops, totals, served):
            loop.clock.tick_many(total, count)
        fallbacks: list[list] = [[] for _ in range(n_goals)]
        for step, g, outcome in steps.fallbacks:
            base = steps.bases[step][g]
            t, period = outcome.latency_s, outcome.period_s
            loops[g].clock.tick(t if t > period else period)
            miss = not outcome.met_deadline
            quality[g, step] = outcome.quality
            energy[g, step] = outcome.energy_j
            metric[g, step] = outcome.metric_value
            missed[g, step] = miss
            violated[g, step] = (
                miss
                or bool(base.quality_violated(outcome.quality))
                or bool(base.energy_violated(outcome.energy_j))
            )
            fallbacks[g].append(
                (step, outcome, base, float(steps.deadlines[step, g]))
            )

        indices = [item.index for item in items]
        results = []
        for g, loop in enumerate(loops):
            arrays = RunArrays(
                latency_s=latency[g], quality=quality[g], energy_j=energy[g],
                metric_value=metric[g], violated=violated[g],
                latency_violation=missed[g],
            )
            results.append(RunResult(
                scheduler_name=loop.scheduler.name, goal=loop.goal,
                arrays=arrays,
                materialize=partial(
                    _lane_records, g, indices, runs, fallbacks[g], steps.xi
                ),
            ))
        return results


class _LaneRuns(NamedTuple):
    """A finished lane's grid-served runs, for its deferred records.

    Runs are ordered goal by goal and, within a goal, by (base goal,
    row) group; ``bounds`` delimit the groups, whose rows and base goals
    are ``group_row`` and ``group_goal``.  ``run_bounds`` and
    ``group_bounds`` delimit each goal's runs and groups.  The per-row
    lists describe the grid's rows, so the materializers pin no grid.
    """

    planes: OutcomePlanes
    steps: np.ndarray
    caps: np.ndarray
    deadlines: np.ndarray
    metric: list
    missed: np.ndarray
    accuracy: np.ndarray
    budget: np.ndarray
    bounds: list
    group_row: list
    group_goal: list
    names: list
    effective_cap_w: list
    inference_power_w: list
    run_bounds: list
    group_bounds: list


def _lane_records(
    g: int,
    indices: list[int],
    runs: _LaneRuns | None,
    fallbacks: list,
    xi: tuple | None,
) -> list[ServedInput]:
    """Goal ``g``'s records of a finished lane (its materializer).

    Grid-served groups fill through :func:`_fill_group`, as the batch
    path's do; engine-served steps build through
    :func:`_served_record`, as the sequential path's do.
    """
    n = len(indices)
    if xi is None:
        xi_means = xi_sigmas = [0.0] * n
    else:
        xi_means = xi[0][:, g].tolist()
        xi_sigmas = xi[1][:, g].tolist()
    records: list[ServedInput | None] = [None] * n
    if runs is not None:
        ra, rb = runs.run_bounds[g], runs.run_bounds[g + 1]
        planes = runs.planes

        def take(array) -> list:
            return array[ra:rb].tolist()

        latency, full, met = (
            take(planes.latency_s), take(planes.full_latency_s),
            take(planes.met_deadline),
        )
        quality, rungs = take(planes.quality), take(planes.completed_rungs)
        inference_j, idle_j = take(planes.inference_j), take(planes.idle_j)
        idle_power, env = take(planes.idle_power_w), take(planes.env_factor)
        missed, accuracy, budget = (
            take(runs.missed), take(runs.accuracy), take(runs.budget)
        )
        steps, caps, deadlines = (
            take(runs.steps), take(runs.caps), take(runs.deadlines)
        )
        metric = runs.metric[ra:rb]
        for k in range(runs.group_bounds[g], runs.group_bounds[g + 1]):
            a, b = runs.bounds[k] - ra, runs.bounds[k + 1] - ra
            row, base = runs.group_row[k], runs.group_goal[k]
            group = _RowGroup(
                runs.names[row], runs.effective_cap_w[row],
                runs.inference_power_w[row], latency[a:b], full[a:b],
                met[a:b], quality[a:b], metric[a:b], rungs[a:b],
                inference_j[a:b], idle_j[a:b], idle_power[a:b], env[a:b],
                missed[a:b], accuracy[a:b], budget[a:b],
            )
            _fill_group(
                records, steps[a:b], caps[a:b], group, base, deadlines[a:b],
                base.period, indices, xi_means, xi_sigmas,
            )
    for step, outcome, base, deadline in fallbacks:
        records[step] = _served_record(
            outcome, base, deadline, xi_means[step], xi_sigmas[step]
        )
    return records
