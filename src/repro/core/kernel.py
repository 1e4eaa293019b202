"""The clock-free decision kernel behind every feedback scheme.

ALERT's runtime is two state transitions (paper Section 3.2):

* ``observe(measurement) -> state'`` — fold the previous input's
  measurements into the belief state (ξ filter, idle-power filter,
  tail model);
* ``decide(goal[, item]) -> selection`` — estimate every candidate
  configuration under the current belief and pick the best one.

Neither transition needs to know *when* inputs happen: periods, input
streams, arrival processes, and record realisation are all properties
of whatever drives the kernel — the batch harness's simulated clock
(:mod:`repro.runtime.clock`), or the open-loop serving front-end's
event loop (:mod:`repro.serve`).  This module pins that boundary:

* :class:`Measurement` is the clock-free observation record.  The one
  piece of timing knowledge a driver must resolve before observing —
  whether the period had an idle phase, which decides if the idle-power
  filter gets a sample — is resolved *by the driver* via
  :func:`measurement_from_outcome`.
* :class:`AlertKernel` owns ALERT's scalar belief state and the
  estimate/select step, with an exact per-belief selection cache.
  :class:`repro.core.controller.AlertController` is a thin adapter
  that builds the candidate machinery and delegates here.
* :class:`AlertCellKernel` is the stacked (lockstep) twin: one belief
  state per goal of a fused cell, advanced with one stacked
  ``observe_many``/``decide_many`` pass per input step.
  :class:`repro.core.controller.AlertCellController` adapts it to the
  harness's outcome-record convention.

The baselines follow the same split: :class:`repro.baselines.sys_only`
and :class:`repro.baselines.no_coord` define their own kernels, and
feedback-free schemes (Oracle, OracleStatic, App-only, Static) satisfy
the protocol trivially — their ``observe`` is a no-op, so they are
their own kernels.  Every split is behaviour-preserving: the parity
suites pin the adapters bit-identical to their pre-split trajectories.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Protocol, runtime_checkable

import numpy as np

from repro.core.goals import Goal
from repro.core.kalman import IdlePowerFilter, StackedIdlePowerFilter
from repro.core.selector import ConfigSelector, SelectionResult
from repro.core.slowdown import GlobalSlowdownEstimator, StackedSlowdownEstimator
from repro.errors import ConfigurationError
from repro.models.profiles import ProfileTable

__all__ = [
    "Measurement",
    "measurement_from_outcome",
    "DecisionKernel",
    "kernel_of",
    "AlertKernel",
    "AlertCellKernel",
]


@dataclass(slots=True)
class Measurement:
    """One served input's feedback, stripped of all timing context.

    Attributes
    ----------
    model_name / power_cap_w:
        The configuration that served the input (the machine-clamped
        *requested* cap, the frame of reference feedback is keyed on).
    full_latency_s:
        The run-to-completion latency (extrapolated from the last
        completed rung for anytime runs stopped early).
    idle_power_w:
        Measured package power during the period's idle phase, or
        ``None`` when the period had no idle phase.  Deciding *whether*
        there was one is the driver's job — see
        :func:`measurement_from_outcome`.
    """

    model_name: str
    power_cap_w: float
    full_latency_s: float
    idle_power_w: float | None = None


def measurement_from_outcome(outcome) -> Measurement:
    """The clock-free measurement of one outcome-shaped record.

    ``outcome`` is anything carrying the
    :class:`~repro.models.inference.InferenceOutcome` measurement
    fields (the loops' ``_ObservedProxy`` qualifies).  This is the one
    place the period is consulted: a period longer than the occupied
    latency had an idle phase, so its idle-power sample is real;
    otherwise the idle-power filter sees nothing — exactly the
    :class:`~repro.runtime.scheduler.AlertScheduler` measurement
    convention the paper describes.
    """
    idle_power = None
    if outcome.period_s > outcome.latency_s:
        idle_power = outcome.idle_power_w
    return Measurement(
        model_name=outcome.model_name,
        power_cap_w=outcome.power_cap_w,
        full_latency_s=outcome.full_latency_s,
        idle_power_w=idle_power,
    )


@runtime_checkable
class DecisionKernel(Protocol):
    """What a serving driver needs from a policy's decision state.

    ``decide`` picks a configuration for the next input under a goal
    (``item`` carries the clock-free input descriptor — index, work
    factor — which perfect-knowledge baselines read and feedback
    kernels ignore); ``observe`` folds a :class:`Measurement` in.
    Feedback-free schedulers satisfy the protocol as-is: their
    ``observe`` ignores its argument.
    """

    def decide(self, item, goal: Goal):
        """Pick the configuration for ``item`` under ``goal``."""
        ...  # pragma: no cover - protocol

    def observe(self, measurement: Measurement) -> None:
        """Fold one input's measurement into the belief state."""
        ...  # pragma: no cover - protocol


def kernel_of(scheduler):
    """The decision kernel behind a scheduler.

    Feedback schedulers expose their kernel as a ``kernel`` attribute;
    feedback-free schedulers *are* their kernel (``observe`` is a
    no-op that accepts any record).  The serving front-end uses this to
    drive measurement-level feedback without threading outcome records
    through the policy layer.
    """
    kernel = getattr(scheduler, "kernel", None)
    return kernel if kernel is not None else scheduler


#: Adjusted goals kept before a cache restarts; group-adjusted
#: deadlines make a fresh goal per input on sentence tasks.
_GOAL_CACHE_CAP = 4096


def _adjusted(cache: dict, goal: Goal, overhead_s: float) -> Goal:
    """``goal`` with ``overhead_s`` reserved from its deadline, cached.

    Drivers re-decide the same goals for thousands of inputs, so the
    dataclass replace and validation are paid once per goal value.
    """
    effective = cache.get(goal)
    if effective is None:
        effective = goal
        adjusted = max(1e-6, goal.deadline_s - overhead_s)
        if adjusted != goal.deadline_s:
            effective = goal.with_deadline(adjusted)
        if len(cache) >= _GOAL_CACHE_CAP:
            cache.clear()
        cache[goal] = effective
    return effective


class AlertKernel:
    """ALERT's belief state and estimate/select step, clock-free.

    Owns the global-slowdown ξ filter and the idle-power filter; knows
    nothing about periods, input streams, or how outcomes are realised.
    Construction happens in :class:`repro.core.controller.AlertController`,
    which builds the candidate space and selector and passes them in.

    Parameters mirror the controller's: ``selector`` runs steps 3-4,
    ``profile`` anchors observed latencies, and ``overhead_s`` is the
    worst-case scheduler overhead reserved from every deadline.

    ``decide`` is a pure function of the goal and the belief state, and
    the belief only changes in :meth:`observe`.  So the kernel keeps the
    selections made since the last observation, one per goal, and
    answers a repeated goal from them exactly — the cost-aware fleet
    probes every replica's ``decide`` before dispatching to one.
    """

    def __init__(
        self,
        selector: ConfigSelector,
        profile: ProfileTable,
        slowdown: GlobalSlowdownEstimator,
        idle_filter: IdlePowerFilter,
        overhead_s: float,
    ) -> None:
        self.selector = selector
        self.profile = profile
        self.slowdown = slowdown
        self.idle_filter = idle_filter
        self.overhead_s = overhead_s
        self.last_selection: SelectionResult | None = None
        # Selections under the current belief; observe() clears them.
        self._selections: dict[Goal, SelectionResult] = {}
        # Overhead-adjusted goals, a pure function of (goal, overhead_s).
        self._effective: dict[Goal, Goal] = {}

    # ------------------------------------------------------------------
    # Step 1: measurement feedback
    # ------------------------------------------------------------------
    def observe(self, measurement: Measurement) -> float:
        """Fold one measurement in; returns the observed slowdown."""
        self._selections.clear()
        t_prof = self.profile.latency(
            measurement.model_name, measurement.power_cap_w
        )
        ratio = self.slowdown.observe(measurement.full_latency_s, t_prof)
        if measurement.idle_power_w is not None:
            inference_power = self.profile.power(
                measurement.model_name, measurement.power_cap_w
            )
            self.idle_filter.update(measurement.idle_power_w, inference_power)
        return ratio

    # ------------------------------------------------------------------
    # Steps 3-4: estimate and pick
    # ------------------------------------------------------------------
    def decide(self, goal: Goal) -> SelectionResult:
        """Select the configuration for the next input.

        ``goal`` should already be group-adjusted (workflow step 2);
        the kernel additionally reserves its own worst-case overhead
        from the deadline.
        """
        result = self._selections.get(goal)
        if result is None:
            effective = _adjusted(self._effective, goal, self.overhead_s)
            slowdown = self.slowdown
            xi_mean, xi_sigma = slowdown.snapshot()
            result = self.selector.select(
                effective,
                xi_mean,
                xi_sigma,
                self.idle_filter.phi,
                tail=(slowdown.tail_fraction, slowdown.tail_ratio),
            )
            self._selections[goal] = result
        self.last_selection = result
        return result


class AlertCellKernel:
    """Stacked ALERT belief states for a lockstep cell, clock-free.

    One ξ/idle-power/tail state per goal, advanced together: one
    stacked :meth:`observe_many` pass folds every goal's measurement
    in, and one :meth:`decide_many` pass computes every goal's
    selection through
    :meth:`~repro.core.selector.ConfigSelector.select_many` (single
    fused erf + lexsort per step, covering every goal).  Knows nothing
    about periods or outcome records —
    :class:`repro.core.controller.AlertCellController` adapts the
    harness's outcome convention onto it.
    """

    def __init__(
        self,
        selector: ConfigSelector,
        profile: ProfileTable,
        n_goals: int,
        overhead_s: float,
        q0: float,
        min_sigma: float,
        tail_threshold_sigmas: float,
        tail_ewma: float,
        phi0: np.ndarray,
        idle_m0: float,
        idle_s: float,
        idle_v: float,
    ) -> None:
        if n_goals < 1:
            raise ConfigurationError(f"need at least one goal, got {n_goals}")
        self.selector = selector
        self.profile = profile
        self.n_goals = n_goals
        self.overhead_s = overhead_s
        self.slowdown = StackedSlowdownEstimator(
            n_goals,
            q0=q0,
            min_sigma=min_sigma,
            tail_threshold_sigmas=tail_threshold_sigmas,
            tail_ewma=tail_ewma,
        )
        self.idle_filter = StackedIdlePowerFilter(
            phi0, m0=idle_m0, s=idle_s, v=idle_v
        )
        self.stacked_calls = 0
        self.stacked_states = 0
        # Overhead-adjusted goals, a pure function of (goal, overhead_s).
        self._effective: dict[Goal, Goal] = {}
        # The lockstep loops pass the identical goal-list objects every
        # step; resolving the whole list through ``_effective`` per
        # step would hash every (frozen, hash-recomputing) Goal on
        # every input.  One id-tuple lookup replaces all of it;
        # the entry pins its goals, keeping the ids stable.
        self._adjusted_lists: dict[tuple, tuple[list, list]] = {}

    # ------------------------------------------------------------------
    # Step 1: measurement feedback, all goals at once
    # ------------------------------------------------------------------
    def observe_many(self, measurements: list[Measurement]) -> None:
        """Fold every goal's previous-input measurement in, stacked.

        One :class:`Measurement` per goal; the idle-power filter only
        sees goals whose measurement carries an idle-phase sample —
        the drivers resolved that from their own clocks.
        """
        profile = self.profile
        measured = np.array([m.full_latency_s for m in measurements])
        t_prof = np.array(
            [
                profile.latency(m.model_name, m.power_cap_w)
                for m in measurements
            ]
        )
        self.slowdown.observe(measured, t_prof)
        idle_mask = np.array(
            [m.idle_power_w is not None for m in measurements]
        )
        if idle_mask.any():
            inference = np.array(
                [
                    profile.power(m.model_name, m.power_cap_w)
                    for m in measurements
                ]
            )
            idle = np.array(
                [
                    m.idle_power_w if m.idle_power_w is not None else 0.0
                    for m in measurements
                ]
            )
            self.idle_filter.update_where(idle_mask, idle, inference)

    # ------------------------------------------------------------------
    # Steps 3-4: estimate and pick, all goals at once
    # ------------------------------------------------------------------
    def decide_many(self, goals) -> list[SelectionResult]:
        """One selection per goal (already group-adjusted), stacked.

        Every goal goes into one
        :meth:`~repro.core.selector.ConfigSelector.select_many` pass:
        :meth:`observe_many` moves every goal's belief each step, so
        no selection could be reused from the step before.
        """
        if len(goals) != self.n_goals:
            raise ConfigurationError(
                f"expected {self.n_goals} goals, got {len(goals)}"
            )
        ids = tuple(map(id, goals))
        adjusted_entry = self._adjusted_lists.get(ids)
        if adjusted_entry is None:
            effectives = [
                _adjusted(self._effective, goal, self.overhead_s)
                for goal in goals
            ]
            if len(self._adjusted_lists) >= 64:
                self._adjusted_lists.clear()
            # Pin the goals: live references keep every id in the key
            # unambiguous.
            self._adjusted_lists[ids] = (list(goals), effectives)
        else:
            effectives = adjusted_entry[1]

        slowdown = self.slowdown
        # One bulk tolist per tail vector: identical doubles to
        # per-element float() casts, without G numpy scalar reads.
        tails = list(
            zip(slowdown.tail_fraction.tolist(), slowdown.tail_ratio.tolist())
        )
        self.stacked_calls += 1
        self.stacked_states += self.n_goals
        return self.selector.select_many(
            effectives,
            slowdown.mean,
            slowdown.sigma,
            self.idle_filter.phi,
            tails=tails,
        )
