"""The serving loop: one policy, one scenario, one constraint setting.

Implements the paper's deployment model: inputs arrive periodically;
before each input the policy picks a (DNN, power, rung) configuration;
the engine realises latency, quality, and energy; measurements feed
back to the policy.  The loop owns goal adjustment (workflow step 2):
requirement-trace overrides, shared sentence deadlines, and the
policy's declared overhead reservation.

In the spec → executor → loop architecture the loop is the innermost
layer: :class:`repro.runtime.executor.RunExecutor` turns a declarative
plan of cells into serving-loop runs (serially or across a process
pool), and the experiment harness builds those plans.

**Three serving paths.**  A run is served one of three ways — the two
:class:`ServingLoop` paths below, plus lockstep at the bottom of this
module: in a cell with enough goals, every stacking scheme's runs
become one :class:`LockstepServingLoop` lane, and all lanes of the
cell advance together through one :class:`CrossSchemeLockstepLoop`:

* the *sequential* path — the faithful per-input round trip above,
  required whenever the policy's decisions can depend on observed
  outcomes (ALERT and every feedback scheme), a requirement trace
  rewrites goals mid-run, or inputs share group deadlines (NLP
  sentences), since all three thread state from one input to the next;
* the *batch fast path* — when the policy declares itself
  **feedback-free** (``scheduler.feedback_free`` is True: decisions
  never read observations and ``observe`` is a no-op, e.g. Oracle,
  OracleStatic, App-only) and no cross-input goal state applies, every
  decision is known up front, so the loop realises the whole run as
  one :meth:`~repro.models.inference.InferenceEngine.evaluate_batch`
  pass per distinct configuration plus vectorized violation
  bookkeeping instead of ``n_inputs`` engine round trips.  The fast
  path is pure with respect to the engine's RAPL meter (nothing is
  metered) and matches the sequential records exactly up to
  floating-point associativity (≤ 1 ulp; discrete fields identical),
  pinned by ``tests/test_serving_batch_parity.py``.

**Shared realisations.**  Both paths can additionally serve from a
:class:`~repro.models.inference.GridView` over a precomputed
(configuration × input) outcome grid — the fused-cell execution path
realises one grid per (scenario, timing) and every scheme of the cell
reads it.  On the sequential path each decision that resolves to a
grid (row, column) is answered from the grid instead of
:meth:`InferenceEngine.run` (the actuator is still driven, so effective
caps and end state match the live path; nothing is metered); on the
batch path whole configuration groups become column slices instead of
fresh ``evaluate_batch`` passes.  Any lookup miss — off-grid input,
unknown configuration, quantized cap, trace-adjusted deadline —
falls back to the live engine per input, so a view is always an
optimisation, never a semantics change
(``tests/test_cell_fusion_parity.py`` pins grid-served runs to the
live-engine reference).  The view
comes from the ``grid_view`` constructor argument, or, failing that,
from an optional ``grid_view`` attribute on the scheduler (the
baselines accept one).

Violation bookkeeping follows the paper:

* **latency** — the final answer landed after the (base) deadline;
* **accuracy** — in minimise-energy mode, the delivered quality fell
  below ``accuracy_min``;
* **energy** — in minimise-error mode, the period energy exceeded
  ``energy_budget_j``.
"""

from __future__ import annotations

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
    "LockstepServingLoop",
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

        ``cell`` is any stacked cell controller exposing the
        ``lockstep_stats`` dict built by
        :func:`repro.core.controller.lockstep_stats_dict` (the shared
        shape contract) — e.g. ``AlertCellController`` or
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
    adjuster:
        Goal adjuster; a fresh one is built when omitted.
    grid_view:
        Optional shared-realisation view (see the module docstring).
        When omitted, the loop probes the scheduler for a ``grid_view``
        attribute.
    clock:
        The :class:`~repro.runtime.clock.SimulatedClock` this driver
        advances (a fresh one is built when omitted).  The loop ticks
        it by each served input's occupied time
        (``max(latency, period)`` — the blocking-device model), so
        after a run ``clock.now()`` is the simulated wall time the
        trace consumed.  Decisions never read it: the kernel split
        keeps the policy clock-free, and this loop is just one driver
        of the kernel (the :mod:`repro.serve` front-end is another).
    """

    def __init__(
        self,
        engine: InferenceEngine,
        stream: InputStream,
        scheduler: Scheduler,
        goal: Goal,
        requirement_trace: RequirementTrace | None = None,
        adjuster: GoalAdjuster | None = None,
        grid_view: GridView | None = None,
        clock: SimulatedClock | None = None,
    ) -> None:
        self.engine = engine
        self.stream = stream
        self.scheduler = scheduler
        self.goal = goal
        self.trace = requirement_trace or RequirementTrace()
        self.adjuster = adjuster if adjuster is not None else GoalAdjuster()
        self.clock = clock if clock is not None else SimulatedClock()
        if grid_view is None:
            grid_view = getattr(scheduler, "grid_view", None)
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

    def run(self, n_inputs: int, batch: bool | None = None) -> RunResult:
        """Serve ``n_inputs`` inputs and aggregate the records.

        ``batch`` selects the serving path: None (the default) takes
        the batch fast path whenever :meth:`batch_eligible` allows it,
        False forces the sequential reference path, and True demands
        the fast path (raising :class:`ConfigurationError` when the
        run is ineligible — useful in tests and benchmarks).
        """
        if n_inputs < 1:
            raise ConfigurationError(f"need at least one input, got {n_inputs}")
        items = self.stream.items(n_inputs)
        if batch is None:
            batch = self.batch_eligible(items)
        elif batch and not self.batch_eligible(items):
            raise ConfigurationError(
                f"scheduler {self.scheduler.name!r} cannot take the batch "
                "path: it needs feedback, a requirement trace is active, "
                "or inputs share group deadlines"
            )
        if batch:
            arrays, materialize = self._run_batch(items)
            return RunResult(
                scheduler_name=self.scheduler.name, goal=self.goal,
                arrays=arrays, materialize=materialize,
            )
        records = self._run_sequential(items)
        return RunResult(
            scheduler_name=self.scheduler.name, goal=self.goal, records=records
        )

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
        index = item.index
        effective = engine.actuator.set_power_cap(config.power_w)
        row = view.row_for(config.model, effective, config.rung_cap)
        if row is None:
            return None
        position = view.column_for(index, item.work_factor)
        if position is None:
            return None
        if not view.trusted and not view.env_matches(engine, index, position):
            return None
        return view.outcome(
            row,
            position,
            index=index,
            power_cap_w=engine.machine.clamp_power(config.power_w),
            deadline_s=adjusted.deadline_s,
            period_s=period,
        )

    def _run_sequential(self, items: list[InputItem]) -> list[ServedInput]:
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
        return records

    def _record(
        self,
        item_goal: Goal,
        adjusted: Goal,
        outcome,
        xi_mean: float = 0.0,
        xi_sigma: float = 0.0,
    ) -> ServedInput:
        """Build the per-input record with violation flags.

        Tolerances live in one place — :mod:`repro.core.goals` — shared
        with the oracles' feasibility masks, so "violated" means the
        same thing to the bookkeeping and to the perfect-knowledge
        baselines.

        Also the "input served" commit point: the sequential and
        lockstep stepwise paths record every input through here (the
        fused lockstep path its engine-served ones), so this is where
        the simulated clock advances by the input's occupied time.  The
        batch path and the fused lockstep fill build their records
        directly and tick the same occupied time with ``tick_many``.
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
        on the whole arrays.  Nothing is metered and ``observe`` is
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
        # (overhead reservation only) is the same for every input.
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
        # Whole-run series, filled group by group from the same numpy
        # rows the records are built from (so aggregates over either
        # are bit-identical).
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
            grid_columns = view.columns_for(
                item_indices, [item.work_factor for item in items]
            )
            if grid_columns is not None and not view.trusted:
                engine.environment(max(item_indices))
                observed = np.array(
                    [engine.environment(i).env_factor for i in item_indices],
                    dtype=float,
                )
                if not np.array_equal(
                    observed, view.grid.env_factor[grid_columns]
                ):
                    grid_columns = None
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
            requested = clamp(config.power_w)
            row = None
            if grid is not None:
                row = view.row_for(model, effective, config.rung_cap)
            if row is not None:
                cols = grid_columns[positions]
                power = float(grid.inference_power_w[row])
                met_row = grid.met_deadline[row, cols]
                quality_row = grid.quality[row, cols]
                energy_row = grid.energy_j[row, cols]
                latency_row = grid.latency_s[row, cols]
                latency = latency_row.tolist()
                full = grid.full_latency_s[row, cols].tolist()
                rungs = grid.completed_rungs[row, cols].tolist()
                inference_j = grid.inference_j[row, cols].tolist()
                idle_j = grid.idle_j[row, cols].tolist()
                idle_power = grid.idle_power_w[row, cols].tolist()
                env = grid.env_factor[cols].tolist()
            else:
                shim_key = (id(model), effective, config.rung_cap)
                shim = self._batch_configs.get(shim_key)
                if shim is None:
                    shim = (_CapOverride(model, effective, config.rung_cap),)
                    self._batch_configs[shim_key] = shim
                column = engine.evaluate_batch(
                    configs=shim,
                    indices=[item_indices[p] for p in positions],
                    deadline_s=deadline,
                    period_s=period,
                    work_factors=[items[p].work_factor for p in positions],
                )
                power = float(column.inference_power_w[0])
                met_row = column.met_deadline[0]
                quality_row = column.quality[0]
                energy_row = column.energy_j[0]
                latency_row = column.latency_s[0]
                latency = latency_row.tolist()
                full = column.full_latency_s[0].tolist()
                rungs = column.completed_rungs[0].tolist()
                inference_j = column.inference_j[0].tolist()
                idle_j = column.idle_j[0].tolist()
                idle_power = column.idle_power_w[0].tolist()
                env = column.env_factor.tolist()

            model_name = model.name
            total_occupied += sum(
                t if t > period else period for t in latency
            )
            met = met_row.tolist()
            quality = quality_row.tolist()
            metric = model.task.quality_to_metric_list(quality)

            # Vectorized violation bookkeeping (one place of tolerance
            # truth: repro.core.goals, shared with the sequential
            # _record and the oracles' feasibility masks).
            missed_row = np.logical_not(met_row)
            latency_violation = missed_row.tolist()
            accuracy = base_goal.quality_violated(quality_row)
            if isinstance(accuracy, np.ndarray):
                accuracy_row = accuracy
            else:
                accuracy_row = np.full(len(positions), bool(accuracy))
            accuracy_violation = accuracy_row.tolist()
            budget = base_goal.energy_violated(energy_row)
            if isinstance(budget, np.ndarray):
                budget_row = budget
            else:
                budget_row = np.full(len(positions), bool(budget))
            energy_violation = budget_row.tolist()

            arr_latency[positions] = latency_row
            arr_quality[positions] = quality_row
            arr_energy[positions] = energy_row
            arr_metric[positions] = metric
            arr_violated[positions] = missed_row | accuracy_row | budget_row
            arr_missed[positions] = missed_row

            group_payloads.append((
                positions, model_name, power, requested, effective,
                met, quality, metric, latency, full, rungs,
                inference_j, idle_j, idle_power, env,
                latency_violation, accuracy_violation, energy_violation,
            ))
        # The sequential path leaves the actuator at the last decision.
        engine.actuator.set_power_cap(configs[-1].power_w)
        self.clock.tick_many(total_occupied, n)

        arrays = RunArrays(
            latency_s=arr_latency, quality=arr_quality, energy_j=arr_energy,
            metric_value=arr_metric, violated=arr_violated,
            latency_violation=arr_missed,
        )

        def materialize() -> list[ServedInput]:
            # Records are assembled by direct __dict__ fill: the frozen
            # dataclass __init__ (one object.__setattr__ per field) is
            # this build's dominant cost, and these classes have no
            # __post_init__ to skip.  The parity suite pins the result
            # against constructor-built sequential records field by
            # field.  The closure holds only plain per-group lists —
            # no engine or grid references.
            records: list[ServedInput | None] = [None] * n
            fill = object.__setattr__  # frozen dataclasses veto assignment
            for (
                positions, model_name, power, requested, effective,
                met, quality, metric, latency, full, rungs,
                inference_j, idle_j, idle_power, env,
                latency_violation, accuracy_violation, energy_violation,
            ) in group_payloads:
                for j, position in enumerate(positions):
                    energy = object.__new__(EnergyBreakdown)
                    fill(energy, "__dict__", {
                        "inference_j": inference_j[j],
                        "idle_j": idle_j[j],
                    })
                    outcome = object.__new__(InferenceOutcome)
                    fill(outcome, "__dict__", {
                        "index": item_indices[position],
                        "model_name": model_name,
                        "power_cap_w": requested,
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
                        "deadline_s": deadline,
                        "period_s": period,
                    })
                    record = object.__new__(ServedInput)
                    fill(record, "__dict__", {
                        "outcome": outcome,
                        "goal": base_goal,
                        "effective_deadline_s": deadline,
                        "latency_violation": latency_violation[j],
                        "accuracy_violation": accuracy_violation[j],
                        "energy_violation": energy_violation[j],
                        "xi_mean": xi_mean,
                        "xi_sigma": xi_sigma,
                    })
                    records[position] = record
            return records

        return arrays, materialize


class LockstepServingLoop:
    """Serve every goal of a cell's ALERT-family scheme in lockstep.

    All goals advance input-by-input **together**: one stacked
    :meth:`~repro.core.controller.AlertCellController.decide_many` pass
    computes every goal's decision (single fused erf / lexsort per
    step), each goal's outcome is read from its timing's shared
    :class:`~repro.models.inference.GridView` (live-engine fallback on
    any miss), and one stacked ``observe_many`` pass folds all
    measurements back in.  Per-goal goal adjustment, violation
    bookkeeping, and record assembly reuse the sequential
    :class:`ServingLoop` helpers, so each goal's :class:`RunResult` is
    value-identical to serving that goal alone on the sequential path
    (``tests/test_lockstep_parity.py``; the acceptance bar is
    discrete-exact + floats ≤1e-12).

    Build through :meth:`for_schedulers`, which returns ``None`` —
    sending the caller to the sequential path — whenever the runs
    cannot advance in lockstep: custom scheduler types, incompatible
    or already-warm controllers.
    """

    def __init__(self, loops: list[ServingLoop], cell) -> None:
        """``cell`` is a stacked cell controller (``decide_many`` /
        ``observe_many`` / ``xi_snapshot`` / ``lockstep_stats``), e.g.
        :class:`~repro.core.controller.AlertCellController`."""
        if not loops:
            raise ConfigurationError("a lockstep cell needs at least one run")
        if len(loops) != cell.n_goals:
            raise ConfigurationError(
                f"cell tracks {cell.n_goals} goals but {len(loops)} runs given"
            )
        self.loops = loops
        self.cell = cell

    @classmethod
    def for_schedulers(
        cls,
        engine: InferenceEngine,
        stream: InputStream,
        schedulers,
        goals,
        grid_views,
        requirement_trace: RequirementTrace | None = None,
    ) -> "LockstepServingLoop | None":
        """A lockstep loop over one scheme's per-goal runs, or None.

        ``schedulers``/``goals``/``grid_views`` align one-to-one.  A
        scheduler class opts into lockstep by defining a
        ``stack_into_cell(schedulers)`` staticmethod **on the class
        itself** that returns a stacked cell controller (or None when
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
        return cls(loops, cell)

    def run(self, n_inputs: int) -> list[RunResult]:
        """Serve ``n_inputs`` inputs for every goal; results align with
        the constructor's run order.

        Delegates to a single-lane :class:`CrossSchemeLockstepLoop`, so
        even a lone scheme's lockstep run gets the deferred goal-major
        record fill when it is eligible.
        """
        return CrossSchemeLockstepLoop([self]).run(n_inputs)[0]

    def _run_stepwise(self, items: list[InputItem]) -> list[RunResult]:
        """The per-step reference path: adjust → decide_many → serve →
        observe_many → record, one input at a time.

        Required whenever per-step state threads between inputs beyond
        the stacked filters themselves (a requirement trace rewriting
        goals, deadline-sharing groups); the fused fast path in
        :class:`CrossSchemeLockstepLoop` matches it bit-for-bit when
        neither applies.
        """
        loops = self.loops
        cell = self.cell
        n_goals = len(loops)
        records: list[list[ServedInput]] = [[] for _ in range(n_goals)]
        bases: list[Goal] = [None] * n_goals  # type: ignore[list-item]
        adjusted: list[Goal] = [None] * n_goals  # type: ignore[list-item]
        outcomes: list[InferenceOutcome] = [None] * n_goals  # type: ignore[list-item]

        for item in items:
            for g, loop in enumerate(loops):
                base = loop._base_goal_at(item.index)
                bases[g] = base
                adjusted[g] = loop.adjuster.adjust(base, item)
            selections = cell.decide_many(adjusted)
            for g, loop in enumerate(loops):
                config = selections[g].config
                outcome = None
                view = loop.grid_view
                if view is not None and view.matches_timing(
                    adjusted[g].deadline_s, bases[g].period
                ):
                    outcome = loop._grid_outcome(
                        view, config, item, adjusted[g], bases[g].period
                    )
                if outcome is None:
                    outcome = loop.engine.run(
                        model=config.model,
                        power_cap_w=config.power_w,
                        index=item.index,
                        deadline_s=adjusted[g].deadline_s,
                        period_s=bases[g].period,
                        work_factor=item.work_factor,
                        rung_cap=config.rung_cap,
                    )
                outcomes[g] = outcome
            cell.observe_many(outcomes)
            # Schedulers without a ``state`` attribute record 0/0 on
            # the sequential path; a cell returning None mirrors that.
            snapshot = cell.xi_snapshot()
            for g, loop in enumerate(loops):
                loop.adjuster.consume(item, outcomes[g].latency_s)
                records[g].append(
                    loop._record(
                        item_goal=bases[g],
                        adjusted=adjusted[g],
                        outcome=outcomes[g],
                        xi_mean=(
                            float(snapshot[0][g]) if snapshot is not None else 0.0
                        ),
                        xi_sigma=(
                            float(snapshot[1][g]) if snapshot is not None else 0.0
                        ),
                    )
                )
        LOCKSTEP_TELEMETRY.record_cell(cell)
        return [
            RunResult(
                scheduler_name=loop.scheduler.name,
                goal=loop.goal,
                records=records[g],
            )
            for g, loop in enumerate(loops)
        ]


class _ObservedProxy:
    """Grid-read measurement record for the stacked observe pass.

    Carries exactly the fields the stacked cell controllers' measurement
    conventions read (``observe_many`` over ALERT, Sys-only, No-coord):
    the proxy contract.  One mutable instance per goal is refilled from
    the grid arrays each step — ``observe_many`` consumes the values
    immediately, so nothing is retained — sparing the fused loop a full
    :class:`~repro.models.inference.InferenceOutcome` construction per
    (goal, input) just to feed six numbers to the filters.
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
    a wide enough cell here, and a lone
    :meth:`LockstepServingLoop.run` is a single-lane pass.  Each *lane*
    is a :class:`LockstepServingLoop` (one scheme, all goals).  Lanes
    share the per-input grid bookkeeping: the per-view
    column resolution is computed once per (view, engine) pair and
    reused by every lane and goal that reads that view, and each lane's
    records are realised *after* the stepping loop in one goal-major
    direct-``__dict__`` fill from the grid columns (the PR 3 batch-path
    fill, extended to feedback schemes) instead of per-(goal, input)
    Python record construction.  During the stepping loop only the
    stacked filters advance: one ``decide_many`` and one
    ``observe_many`` per lane per step, fed by lightweight
    :class:`_ObservedProxy` reads — zero per-input Python
    ``decide``/``observe`` calls.

    A lane that threads per-step state beyond its filters (a
    requirement trace, deadline-sharing groups, an adjuster already
    mid-group) runs on the per-step reference path
    (:meth:`LockstepServingLoop._run_stepwise`) instead; either way
    every goal's :class:`RunResult` is value-identical to serving that
    goal alone sequentially (``tests/test_lockstep_parity.py``:
    discrete exact, floats ≤ 1e-12, pool ≡ serial).
    """

    def __init__(self, lanes: "list[LockstepServingLoop]") -> None:
        if not lanes:
            raise ConfigurationError(
                "a lockstep cell needs at least one lane"
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

    def run(self, n_inputs: int) -> "list[list[RunResult]]":
        """Serve ``n_inputs`` for every lane; results align lane-major
        with the constructor's lane order, goal-major within a lane."""
        if n_inputs < 1:
            raise ConfigurationError(f"need at least one input, got {n_inputs}")
        items = self.stream.items(n_inputs)
        grouped = self.stream.has_groups and any(
            item.group_size > 1 for item in items
        )
        column_cache: dict[tuple[int, int], np.ndarray] = {}
        results = []
        for lane in self.lanes:
            if self._fast_eligible(lane, grouped):
                results.append(self._run_fast(lane, items, column_cache))
            else:
                results.append(lane._run_stepwise(items))
        return results

    @staticmethod
    def _fast_eligible(lane: "LockstepServingLoop", grouped: bool) -> bool:
        """Whether a lane's goal state is constant across the run.

        Mirrors :meth:`ServingLoop.batch_eligible` minus the
        feedback-free requirement: the stacked filters *are* the
        feedback, but the per-goal base and adjusted goals must not
        change from one input to the next.
        """
        if grouped:
            return False
        return all(
            loop.trace.is_empty and not loop.adjuster.mid_group
            for loop in lane.loops
        )

    def _columns(
        self, view: GridView, engine: InferenceEngine, items: list[InputItem]
    ) -> np.ndarray:
        """Per-step grid columns for one view (-1 where any miss)."""
        positions = np.full(len(items), -1, dtype=np.int64)
        trusted = view.trusted
        for position, item in enumerate(items):
            column = view.column_for(item.index, item.work_factor)
            if column is None:
                continue
            if not trusted and not view.env_matches(engine, item.index, column):
                continue
            positions[position] = column
        return positions

    def _run_fast(
        self,
        lane: "LockstepServingLoop",
        items: list[InputItem],
        column_cache: dict,
    ) -> "list[RunResult]":
        loops = lane.loops
        cell = lane.cell
        n_goals = len(loops)
        n = len(items)

        # Goal state is constant across the run (the eligibility
        # gate): one base/adjusted pair per goal, like the batch path.
        bases = [loop.goal for loop in loops]
        adjusteds = [
            loop.adjuster.adjust(loop.goal, items[0]) for loop in loops
        ]
        periods = [base.period for base in bases]
        deadlines = [adjusted.deadline_s for adjusted in adjusteds]

        # Column resolution is shared across every lane and goal
        # reading one view.
        cols: list[np.ndarray | None] = []
        for g, loop in enumerate(loops):
            view = loop.grid_view
            if view is None or not view.matches_timing(
                deadlines[g], periods[g]
            ):
                cols.append(None)
                continue
            cache_key = (id(view), id(loop.engine))
            cached = column_cache.get(cache_key)
            if cached is None:
                cached = self._columns(view, loop.engine, items)
                column_cache[cache_key] = cached
            cols.append(cached)

        rows = np.full((n_goals, n), -1, dtype=np.int64)
        requested = np.zeros((n_goals, n), dtype=np.float64)
        fallbacks: list[dict[int, InferenceOutcome]] = [
            {} for _ in range(n_goals)
        ]
        proxies = [_ObservedProxy() for _ in range(n_goals)]
        observed: list = [None] * n_goals
        # (view, config) -> (row or -1, requested clamped cap).  Config
        # identities are stable (schedulers hand out their candidate
        # objects), so the actuator/row resolution runs once per
        # distinct decision instead of once per (goal, input).
        row_memo: dict[tuple[int, int], tuple[int, float]] = {}
        xi_mean_hist: np.ndarray | None = None
        xi_sigma_hist: np.ndarray | None = None
        last_config = None

        for step, item in enumerate(items):
            selections = cell.decide_many(adjusteds)
            for g, loop in enumerate(loops):
                config = selections[g].config
                columns = cols[g]
                column = columns[step] if columns is not None else -1
                row = -1
                cap = 0.0
                if column >= 0:
                    view = loop.grid_view
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
                    grid = loop.grid_view.grid
                    rows[g, step] = row
                    requested[g, step] = cap
                    proxy = proxies[g]
                    proxy.model_name = grid.configs[row].model.name
                    proxy.power_cap_w = cap
                    proxy.latency_s = grid.latency_s[row, column]
                    proxy.full_latency_s = grid.full_latency_s[row, column]
                    proxy.idle_power_w = grid.idle_power_w[row, column]
                    proxy.period_s = periods[g]
                    observed[g] = proxy
                else:
                    outcome = loop.engine.run(
                        model=config.model,
                        power_cap_w=config.power_w,
                        index=item.index,
                        deadline_s=deadlines[g],
                        period_s=periods[g],
                        work_factor=item.work_factor,
                        rung_cap=config.rung_cap,
                    )
                    fallbacks[g][step] = outcome
                    observed[g] = outcome
                last_config = config
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
        if last_config is not None:
            loops[-1].engine.actuator.set_power_cap(last_config.power_w)

        item_indices = [item.index for item in items]
        results = []
        for g, loop in enumerate(loops):
            records = self._fill_records(
                loop=loop,
                base=bases[g],
                adjusted=adjusteds[g],
                period=periods[g],
                rows_g=rows[g],
                cols_g=cols[g],
                requested_g=requested[g],
                fallback_g=fallbacks[g],
                item_indices=item_indices,
                xi_mean_hist=xi_mean_hist,
                xi_sigma_hist=xi_sigma_hist,
                g=g,
                n=n,
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

    @staticmethod
    def _fill_records(
        loop: ServingLoop,
        base: Goal,
        adjusted: Goal,
        period: float,
        rows_g: np.ndarray,
        cols_g: "np.ndarray | None",
        requested_g: np.ndarray,
        fallback_g: "dict[int, InferenceOutcome]",
        item_indices: list[int],
        xi_mean_hist: "np.ndarray | None",
        xi_sigma_hist: "np.ndarray | None",
        g: int,
        n: int,
    ) -> list[ServedInput]:
        """One goal's records, goal-major from the grid columns.

        Grid-served steps are grouped by row and realised with the
        batch path's vectorized slices + direct ``__dict__`` fill (the
        parity suite pins the result against constructor-built
        sequential records field by field); engine-fallback steps reuse
        :meth:`ServingLoop._record` on their stored outcomes.  ξ per
        record comes from the per-step history snapshots, matching what
        the per-step path reads right after each ``observe_many``.  The
        loop's clock advances by every step's occupied time, grid-served
        steps in one ``tick_many`` as on the batch path.
        """
        records: list[ServedInput | None] = [None] * n
        deadline = adjusted.deadline_s
        served = np.nonzero(rows_g >= 0)[0]
        if served.size:
            view = loop.grid_view
            grid = view.grid
            fill = object.__setattr__
            occupied = 0.0
            for row in np.unique(rows_g[served]).tolist():
                positions = served[rows_g[served] == row]
                columns = cols_g[positions]
                model = grid.configs[row].model
                model_name = model.name
                effective = float(grid.power_cap_w[row])
                power = float(grid.inference_power_w[row])
                met_row = grid.met_deadline[row, columns]
                quality_row = grid.quality[row, columns]
                energy_row = grid.energy_j[row, columns]
                latency = grid.latency_s[row, columns].tolist()
                occupied += sum(t if t > period else period for t in latency)
                full = grid.full_latency_s[row, columns].tolist()
                rungs = grid.completed_rungs[row, columns].tolist()
                inference_j = grid.inference_j[row, columns].tolist()
                idle_j = grid.idle_j[row, columns].tolist()
                idle_power = grid.idle_power_w[row, columns].tolist()
                env = grid.env_factor[columns].tolist()
                met = met_row.tolist()
                quality = quality_row.tolist()
                metric = model.task.quality_to_metric_list(quality)
                caps = requested_g[positions].tolist()

                latency_violation = np.logical_not(met_row).tolist()
                accuracy = base.quality_violated(quality_row)
                if isinstance(accuracy, np.ndarray):
                    accuracy_violation = accuracy.tolist()
                else:
                    accuracy_violation = [bool(accuracy)] * len(positions)
                budget = base.energy_violated(energy_row)
                if isinstance(budget, np.ndarray):
                    energy_violation = budget.tolist()
                else:
                    energy_violation = [bool(budget)] * len(positions)
                if xi_mean_hist is not None:
                    xi_means = xi_mean_hist[positions, g].tolist()
                    xi_sigmas = xi_sigma_hist[positions, g].tolist()
                else:
                    xi_means = xi_sigmas = None

                for j, position in enumerate(positions.tolist()):
                    energy = object.__new__(EnergyBreakdown)
                    fill(energy, "__dict__", {
                        "inference_j": inference_j[j],
                        "idle_j": idle_j[j],
                    })
                    outcome = object.__new__(InferenceOutcome)
                    fill(outcome, "__dict__", {
                        "index": item_indices[position],
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
                        "deadline_s": deadline,
                        "period_s": period,
                    })
                    record = object.__new__(ServedInput)
                    fill(record, "__dict__", {
                        "outcome": outcome,
                        "goal": base,
                        "effective_deadline_s": deadline,
                        "latency_violation": latency_violation[j],
                        "accuracy_violation": accuracy_violation[j],
                        "energy_violation": energy_violation[j],
                        "xi_mean": (
                            xi_means[j] if xi_means is not None else 0.0
                        ),
                        "xi_sigma": (
                            xi_sigmas[j] if xi_sigmas is not None else 0.0
                        ),
                    })
                    records[position] = record
            loop.clock.tick_many(occupied, int(served.size))
        for step, outcome in fallback_g.items():
            records[step] = loop._record(
                item_goal=base,
                adjusted=adjusted,
                outcome=outcome,
                xi_mean=(
                    float(xi_mean_hist[step, g])
                    if xi_mean_hist is not None
                    else 0.0
                ),
                xi_sigma=(
                    float(xi_sigma_hist[step, g])
                    if xi_sigma_hist is not None
                    else 0.0
                ),
            )
        return records
