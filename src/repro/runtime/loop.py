"""The serving loops: one policy, one scenario, one constraint setting.

Implements the paper's deployment model: inputs arrive periodically;
before each input the policy picks a (DNN, power, rung) configuration;
the engine realises latency, quality, and energy; measurements feed
back to the policy.  The loops own goal adjustment (workflow step 2):
requirement-trace overrides and shared sentence deadlines.  A policy
reserves its own overhead from the deadline it is given (ALERT's
kernel does).

In the spec → executor → loop architecture the loops are the innermost
layer: :class:`repro.runtime.executor.RunExecutor` turns a declarative
plan of cells into serving-loop runs (serially or across a process
pool), and the experiment harness builds those plans.

**Three serving paths.**

* the *sequential* path (:meth:`ServingLoop.run_sequential`) — the
  faithful per-input round trip above, one run at a time.  It is the
  reference the other two are pinned to, and it serves every run they
  do not;
* the *batch* path (:meth:`ServingLoop.run`) — when the policy declares
  itself **feedback-free** (``scheduler.feedback_free`` is True:
  decisions never read observations and ``observe`` is a no-op, e.g.
  Oracle, OracleStatic, App-only) and the run's goal cannot change
  from one input to the next, every decision is known up front, so the
  loop realises the whole run as one
  :meth:`~repro.models.inference.InferenceEngine.evaluate_batch` pass
  per distinct configuration plus vectorized violation bookkeeping
  instead of ``n_inputs`` engine round trips.  The batch path is pure
  with respect to the engine's RAPL meter (nothing is metered) and
  matches the sequential records exactly up to floating-point
  associativity (≤ 1 ulp; discrete fields identical), pinned by
  ``tests/test_serving_batch_parity.py``;
* the *lockstep* path — in a cell with enough goals, every stacking
  scheme's runs become one :class:`LockstepLane`, and all lanes of the
  cell advance together through one :class:`CrossSchemeLockstepLoop`:
  one stacked decide and one stacked observe pass per lane per input.
  Each goal is derived at every input through that goal's own
  :class:`ServingLoop`, as on the sequential path, so shared sentence
  deadlines and requirement traces need no second loop.

The batch path and the lockstep lanes build their records the same
way: the outcomes of one grid row are read into plain lists once
(:func:`_read_rows`) and the records are filled straight into
``__dict__`` (:func:`_fill_group`).

**Shared realisations.**  Every path can additionally serve from a
:class:`~repro.models.inference.GridView` over a precomputed
(configuration × input) outcome grid — the fused-cell execution path
realises one grid per (scenario, timing) and every scheme of the cell
reads it.  On the sequential path and in the lockstep lanes each
decision that resolves to a grid (row, column) is answered from the
grid instead of :meth:`InferenceEngine.run` (the actuator is still
driven, so effective caps and end state match the live path; nothing
is metered); on the batch path whole configuration groups become
column slices instead of fresh ``evaluate_batch`` passes.  Any lookup
miss — off-grid input, unknown configuration, quantized cap,
trace-adjusted deadline — falls back to the live engine per input, so
a view is always an optimisation, never a semantics change
(``tests/test_cell_fusion_parity.py`` pins grid-served runs to the
live-engine reference).  The view comes from the ``grid_view``
constructor argument only; every path asks it, never the grid, whether
a column may serve an input (:meth:`GridView.column` per input,
:meth:`GridView.columns` per run, after
:meth:`GridView.matches_timing`).

Violation bookkeeping follows the paper:

* **latency** — the final answer landed after the (base) deadline;
* **accuracy** — in minimise-energy mode, the delivered quality fell
  below ``accuracy_min``;
* **energy** — in minimise-error mode, the period energy exceeded
  ``energy_budget_j``.
"""

from __future__ import annotations

from typing import NamedTuple

import numpy as np

from repro.core.goals import Goal, GoalAdjuster
from repro.errors import ConfigurationError
from repro.hw.energy import EnergyBreakdown
from repro.models.inference import GridView, InferenceEngine, InferenceOutcome
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

        Incremented by the sequential reference path only; a fully
        fused cell (stacked schemes in lockstep, feedback-free schemes
        on the batch path) leaves this at zero, which the lockstep
        parity tests assert.
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


class _CapOverride:
    """A configuration view evaluated at the actuator's effective cap.

    The sequential path runs physics at the cap the actuator actually
    enforced; the batch path mirrors that by re-labelling the
    configuration with the effective cap before the grid evaluation.
    """

    __slots__ = ("model", "power_w", "rung_cap")

    def __init__(self, model, power_w: float, rung_cap: int | None) -> None:
        self.model = model
        self.power_w = power_w
        self.rung_cap = rung_cap


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

    ``planes`` is a :class:`~repro.models.inference.BatchOutcomeGrid`:
    a shared grid read at ``row`` over the ``columns`` index array, or
    a one-row ``evaluate_batch`` column read at row 0 over every
    column.  ``effective_cap_w`` is the cap the actuator enforced,
    which a column realised at a quantized cap does not carry.  The
    violation flags are checked against ``goal`` with the tolerances of
    :mod:`repro.core.goals`, shared with :meth:`ServingLoop._record`
    and the oracles' feasibility masks.

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
    deadline_s: float,
    period_s: float,
    indices: list[int],
    xi_means: list[float],
    xi_sigmas: list[float],
) -> None:
    """Assemble one row group's records into ``records``.

    ``positions`` are the group's inputs and ``caps`` their requested
    caps, both in the order of the group's lists; ``records``,
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
        # Batch-path configuration tuples, keyed on (model, effective
        # cap, rung): reusing the same tuple object across runs lets
        # the engine's identity-keyed config-table memo hit.
        self._batch_configs: dict[tuple, tuple] = {}

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
        the actuator is driven to the requested cap, the outcome is the
        grid row realised at the cap the actuator actually enforced,
        and the reported ``power_cap_w`` is the machine-clamped request.
        """
        engine = self.engine
        effective = engine.actuator.set_power_cap(config.power_w)
        row = view.row_for(config.model, effective, config.rung_cap)
        if row is None:
            return None
        position = view.column(engine, item)
        if position is None:
            return None
        return view.outcome(
            row,
            position,
            index=item.index,
            power_cap_w=engine.machine.clamp_power(config.power_w),
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
            if view is not None and view.matches_timing(
                adjusted.deadline_s, base_goal.period
            ):
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
            records.append(
                self._record(
                    item_goal=base_goal,
                    adjusted=adjusted,
                    outcome=outcome,
                    xi_mean=xi_mean,
                    xi_sigma=xi_sigma,
                )
            )
        return RunResult(
            scheduler_name=self.scheduler.name, goal=self.goal, records=records
        )

    def _record(
        self,
        item_goal: Goal,
        adjusted: Goal,
        outcome,
        xi_mean: float = 0.0,
        xi_sigma: float = 0.0,
    ) -> ServedInput:
        """Build one input's record with violation flags.

        Tolerances live in one place — :mod:`repro.core.goals` — shared
        with the oracles' feasibility masks, so "violated" means the
        same thing to the bookkeeping and to the perfect-knowledge
        baselines.

        Also the "input served" commit point for the inputs recorded
        here — every input of the sequential path, and each lockstep
        lane's engine-served inputs: the simulated clock advances by
        the input's occupied time.  The inputs recorded through
        :func:`_fill_group` (the batch path's, and the lanes'
        grid-served ones) tick the same occupied time with
        ``tick_many``.
        """
        latency = outcome.latency_s
        period = outcome.period_s
        self.clock.tick(latency if latency > period else period)
        latency_violation = not outcome.met_deadline
        accuracy_violation = bool(item_goal.quality_violated(outcome.quality))
        energy_violation = bool(item_goal.energy_violated(outcome.energy_j))

        return ServedInput(
            outcome=outcome,
            goal=item_goal,
            effective_deadline_s=adjusted.deadline_s,
            latency_violation=latency_violation,
            accuracy_violation=accuracy_violation,
            energy_violation=energy_violation,
            xi_mean=xi_mean,
            xi_sigma=xi_sigma,
        )

    # ------------------------------------------------------------------
    # Feedback-free batch fast path
    # ------------------------------------------------------------------
    def _run_batch(self, items: list[InputItem]):
        """Realise a feedback-free run in vectorized passes.

        All decisions are collected up front (``decide_batch`` when the
        scheduler offers it), grouped by configuration, and each group
        is realised with one pure ``evaluate_batch`` pass at the cap
        the actuator would have enforced; violation flags are computed
        on each group's arrays.  Nothing is metered and ``observe`` is
        never called (feedback-free policies declare it a no-op).

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

        # Shared-realisation serving: when a grid view covers this
        # run's timing and every input, configuration groups become
        # column slices of the precomputed grid instead of fresh
        # evaluate_batch passes.
        view = self.grid_view
        grid = None
        grid_columns = None
        if view is not None and view.matches_timing(deadline, period):
            grid_columns = view.columns(engine, items)
            if grid_columns is not None:
                grid = view.grid

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
            # One index array per group: indexing with the list itself
            # would convert it again on every access.
            index = np.fromiter(positions, np.intp, len(positions))
            row = None
            if grid is not None:
                row = view.row_for(model, effective, config.rung_cap)
            if row is not None:
                planes, columns = grid, grid_columns[index]
            else:
                shim_key = (id(model), effective, config.rung_cap)
                shim = self._batch_configs.get(shim_key)
                if shim is None:
                    shim = (_CapOverride(model, effective, config.rung_cap),)
                    self._batch_configs[shim_key] = shim
                planes = engine.evaluate_batch(
                    configs=shim,
                    indices=[item_indices[p] for p in positions],
                    deadline_s=deadline,
                    period_s=period,
                    work_factors=[items[p].work_factor for p in positions],
                )
                row, columns = 0, slice(None)
            group, series = _read_rows(
                planes, row, columns, model, effective, base_goal
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
            group_payloads.append((positions, clamp(config.power_w), group))
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
                _fill_group(
                    records, positions, [cap] * len(positions), group,
                    base_goal, deadline, period, item_indices,
                    xi_means, xi_sigmas,
                )
            return records

        return arrays, materialize


class LockstepLane(NamedTuple):
    """One scheme's runs of a lockstep cell, as plain data.

    ``loops`` holds one :class:`ServingLoop` per goal (goal adjustment,
    simulated clock, engine-served records); ``cell`` is the stacked
    cell deciding for all of them (``decide_many`` / ``observe_many``
    / ``xi_snapshot`` / ``lockstep_stats``), e.g.
    :class:`~repro.core.kernel.AlertCellKernel`.  Build one through
    :meth:`CrossSchemeLockstepLoop.lane`.
    """

    loops: list[ServingLoop]
    cell: object


class _ObservedProxy:
    """Grid-read measurement record for the stacked observe pass.

    Carries exactly the fields the stacked cell controllers' measurement
    conventions read (``observe_many`` over ALERT, Sys-only, No-coord):
    the proxy contract.  One mutable instance per goal is refilled from
    the grid arrays each step — ``observe_many`` consumes the values
    immediately, so nothing is retained — sparing the lockstep loop a
    full :class:`~repro.models.inference.InferenceOutcome` construction
    per (goal, input) just to feed six numbers to the filters.
    """

    __slots__ = (
        "model_name",
        "power_cap_w",
        "latency_s",
        "full_latency_s",
        "idle_power_w",
        "period_s",
    )


class CrossSchemeLockstepLoop:
    """Advance a whole Table-4 cell — every scheme's lockstep lanes —
    over one input stream.

    The one lockstep path: the executor puts every stacking scheme of
    a wide enough cell here, and a lone lane runs as a one-lane cell.
    Each *lane* is a :class:`LockstepLane` (one scheme, all goals).
    All goals advance input-by-input **together**: one stacked
    ``decide_many`` pass computes every goal's decision per step, each
    goal's outcome is read from its timing's shared
    :class:`~repro.models.inference.GridView` (live-engine fallback on
    any miss), and one stacked ``observe_many`` pass folds all
    measurements back in, fed by lightweight :class:`_ObservedProxy`
    reads of the grid — zero per-input Python ``decide``/``observe``
    calls.  Lanes share the per-view column resolution, computed once
    per (view, engine) pair.

    Each step derives every goal's base and adjusted goal through that
    goal's own :class:`ServingLoop` (requirement trace, shared sentence
    deadline), serves the goal from the grid only when the step's
    timing is the grid's, and hands the realised latency back to the
    goal's adjuster — the sequential path's goal plumbing, step for
    step.

    Records are built after the stepping loop, goal by goal: the
    grid-served steps of one row (and one base goal) through the same
    read-and-fill helpers as the batch path, the engine-served steps
    through :meth:`ServingLoop._record`.  Either way every goal's
    :class:`RunResult` is value-identical to serving that goal alone
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

        None sends the caller to the sequential path: it comes back
        whenever the runs cannot advance in lockstep (custom scheduler
        types, incompatible or already-warm kernels).
        ``schedulers``/``goals``/``grid_views`` align one-to-one.  A
        scheduler class opts into lockstep by defining a
        ``stack_into_cell(schedulers)`` staticmethod **on the class
        itself** that returns a stacked cell (or None when
        the given instances cannot stack — warm state, mismatched
        spaces).  The hook is looked up on the exact class, never
        inherited, so subclasses with overridden behaviour fall back
        to the sequential reference path unless they re-opt in.
        :class:`~repro.runtime.scheduler.AlertScheduler` and
        :class:`~repro.baselines.sys_only.SysOnlyScheduler` define it.
        """
        if len(schedulers) < 1 or len(schedulers) != len(goals):
            return None
        leader = type(schedulers[0])
        if any(type(s) is not leader for s in schedulers):
            return None
        builder = leader.__dict__.get("stack_into_cell")
        if builder is None:
            return None
        cell = builder.__get__(None, leader)(schedulers)
        if cell is None:
            return None
        loops = [
            ServingLoop(
                engine, stream, scheduler, goal,
                requirement_trace=requirement_trace, grid_view=view,
            )
            for scheduler, goal, view in zip(schedulers, goals, grid_views)
        ]
        return LockstepLane(loops, cell)

    def run(self, n_inputs: int) -> "list[list[RunResult]]":
        """Serve ``n_inputs`` for every lane; results align lane-major
        with the constructor's lane order, goal-major within a lane."""
        if n_inputs < 1:
            raise ConfigurationError(f"need at least one input, got {n_inputs}")
        items = self.stream.items(n_inputs)
        column_cache: dict[tuple[int, int], np.ndarray] = {}
        return [
            self._run_lane(lane, items, column_cache) for lane in self.lanes
        ]

    def _columns(
        self, view: GridView, engine: InferenceEngine, items: list[InputItem]
    ) -> np.ndarray:
        """Per-step grid columns for one view (-1 where any miss)."""
        positions = np.full(len(items), -1, dtype=np.int64)
        for position, item in enumerate(items):
            column = view.column(engine, item)
            if column is not None:
                positions[position] = column
        return positions

    def _run_lane(
        self,
        lane: LockstepLane,
        items: list[InputItem],
        column_cache: dict,
    ) -> "list[RunResult]":
        loops, cell = lane
        n_goals = len(loops)
        n = len(items)

        # Column resolution is shared across every lane and goal
        # reading one view.
        cols: list[np.ndarray | None] = []
        for loop in loops:
            view = loop.grid_view
            if view is None:
                cols.append(None)
                continue
            cache_key = (id(view), id(loop.engine))
            cached = column_cache.get(cache_key)
            if cached is None:
                cached = self._columns(view, loop.engine, items)
                column_cache[cache_key] = cached
            cols.append(cached)

        # Grid-served steps per goal with their requested caps, keyed
        # by (row, base goal): every grid-served step runs at the
        # grid's timing, so the base goal is the one thing that can
        # change between steps of one row.  Engine-served outcomes per
        # goal by step.
        served: list[dict] = [{} for _ in range(n_goals)]
        fallbacks: list[dict[int, InferenceOutcome]] = [
            {} for _ in range(n_goals)
        ]
        step_bases: list[list[Goal]] = []
        step_adjusteds: list[list[Goal]] = []
        proxies = [_ObservedProxy() for _ in range(n_goals)]
        observed: list = [None] * n_goals
        # (view, config) -> (row or -1, requested clamped cap).  Config
        # identities are stable (schedulers hand out their candidate
        # objects), so the actuator/row resolution runs once per
        # distinct decision instead of once per (goal, input).
        row_memo: dict[tuple[int, int], tuple[int, float]] = {}
        xi_mean_hist: np.ndarray | None = None
        xi_sigma_hist: np.ndarray | None = None

        for step, item in enumerate(items):
            # Each goal's own loop derives its goal for this input, as
            # on the sequential path.  A goal that does not change
            # comes back as the same object every step, which keeps the
            # identity-keyed plan and adjusted-goal caches hitting.
            index = item.index
            bases = [loop._base_goal_at(index) for loop in loops]
            adjusteds = [
                loop.adjuster.adjust(base, item)
                for loop, base in zip(loops, bases)
            ]
            step_bases.append(bases)
            step_adjusteds.append(adjusteds)
            selections = cell.decide_many(adjusteds)
            for g, loop in enumerate(loops):
                config = selections[g].config
                base = bases[g]
                period = base.period
                view = loop.grid_view
                columns = cols[g]
                row = -1
                if columns is not None and view.matches_timing(
                    adjusteds[g].deadline_s, period
                ):
                    column = columns[step]
                    if column >= 0:
                        memo_key = (id(view), id(config))
                        entry = row_memo.get(memo_key)
                        if entry is None:
                            engine = loop.engine
                            effective = engine.actuator.set_power_cap(
                                config.power_w
                            )
                            resolved = view.row_for(
                                config.model, effective, config.rung_cap
                            )
                            entry = (
                                resolved if resolved is not None else -1,
                                engine.machine.clamp_power(config.power_w),
                            )
                            row_memo[memo_key] = entry
                        row, cap = entry
                if row >= 0:
                    grid = view.grid
                    key = (row, base)
                    group = served[g].get(key)
                    if group is None:
                        served[g][key] = ([step], [cap])
                    else:
                        group[0].append(step)
                        group[1].append(cap)
                    proxy = proxies[g]
                    proxy.model_name = grid.configs[row].model.name
                    proxy.power_cap_w = cap
                    proxy.latency_s = latency = grid.latency_s[row, column]
                    proxy.full_latency_s = grid.full_latency_s[row, column]
                    proxy.idle_power_w = grid.idle_power_w[row, column]
                    proxy.period_s = period
                    observed[g] = proxy
                else:
                    outcome = loop.engine.run(
                        model=config.model,
                        power_cap_w=config.power_w,
                        index=index,
                        deadline_s=adjusteds[g].deadline_s,
                        period_s=period,
                        work_factor=item.work_factor,
                        rung_cap=config.rung_cap,
                    )
                    fallbacks[g][step] = outcome
                    observed[g] = outcome
                    latency = outcome.latency_s
                loop.adjuster.consume(item, float(latency))
            cell.observe_many(observed)
            snapshot = cell.xi_snapshot()
            if snapshot is not None:
                if xi_mean_hist is None:
                    xi_mean_hist = np.zeros((n, n_goals))
                    xi_sigma_hist = np.zeros((n, n_goals))
                # Row-copy: the cell may mutate (or rebind) its live
                # arrays on the next observe.
                xi_mean_hist[step] = snapshot[0]
                xi_sigma_hist[step] = snapshot[1]

        # The sequential path leaves the actuator at the last decision.
        loops[-1].engine.actuator.set_power_cap(selections[-1].config.power_w)

        item_indices = [item.index for item in items]
        # Cells without a ξ belief record 0/0, as the sequential path
        # does for schedulers without a ``state``.
        zeros = [0.0] * n
        results = []
        for g, loop in enumerate(loops):
            if xi_mean_hist is None:
                xi_means = xi_sigmas = zeros
            else:
                xi_means = xi_mean_hist[:, g].tolist()
                xi_sigmas = xi_sigma_hist[:, g].tolist()
            records: list[ServedInput | None] = [None] * n
            occupied = 0.0
            n_served = 0
            for (row, base), (positions, caps) in served[g].items():
                period = base.period
                grid = loop.grid_view.grid
                group, _ = _read_rows(
                    grid, row, cols[g][positions], grid.configs[row].model,
                    float(grid.power_cap_w[row]), base,
                )
                occupied += sum(
                    t if t > period else period for t in group.latency
                )
                n_served += len(positions)
                # Grid-served steps all run at the grid's timing, so
                # the group's first step carries the group's deadline.
                _fill_group(
                    records, positions, caps, group, base,
                    step_adjusteds[positions[0]][g].deadline_s, period,
                    item_indices, xi_means, xi_sigmas,
                )
            loop.clock.tick_many(occupied, n_served)
            for step, outcome in fallbacks[g].items():
                records[step] = loop._record(
                    item_goal=step_bases[step][g],
                    adjusted=step_adjusteds[step][g],
                    outcome=outcome,
                    xi_mean=xi_means[step],
                    xi_sigma=xi_sigmas[step],
                )
            results.append(
                RunResult(
                    scheduler_name=loop.scheduler.name,
                    goal=loop.goal,
                    records=records,
                )
            )
        LOCKSTEP_TELEMETRY.record_cell(cell)
        return results
