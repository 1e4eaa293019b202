"""ALERT's decision state, clock-free (paper Section 3.2).

ALERT's runtime is two state transitions:

* ``observe(measurement) -> state'`` — fold the previous input's
  measurements into the belief state (ξ filter, idle-power filter,
  tail model);
* ``decide(goal) -> selection`` — estimate every candidate
  configuration under the current belief and pick the best one.

Goal adjustment (step 2) lives in :class:`repro.core.goals.GoalAdjuster`
and is owned by the serving driver, because it needs the input-group
structure the kernel is agnostic to.

Neither transition needs to know *when* inputs happen: periods, input
streams, arrival processes, and record realisation are all properties
of whatever drives the kernel — the batch harness's simulated clock
(:mod:`repro.runtime.clock`), or the open-loop serving front-end's
event loop (:mod:`repro.serve`).  This module pins that boundary:

* :class:`Measurement` is the clock-free observation record, and
  :class:`StackedMeasurements` its per-step form for every goal of a
  stacked cell.  The one piece of timing knowledge a driver must
  resolve before observing — whether the period had an idle phase,
  which decides if the idle-power filter gets a sample — is resolved
  *by the driver* via :func:`measurement_from_outcome` (or
  :func:`stacked_measurements`).
* :class:`AlertKernel` builds the candidate space, estimator, selector
  and filters, and owns ALERT's scalar belief state and the
  estimate/select step, with an exact per-belief selection cache.
* :class:`AlertCellKernel` is the stacked (lockstep) twin: one belief
  state per goal of a fused cell, advanced with one stacked
  ``observe_many``/``decide_many`` pass per input step.  Build it from
  fresh per-goal kernels with :meth:`AlertCellKernel.from_kernels`.

The kernel also models its own cost: the paper measures ALERT's
scheduler at 0.6-1.7% of an input's inference time, and the kernel
subtracts its worst case from the deadline so the scheduler never
causes the violation it is preventing.  Two mechanisms keep the real
cost far below that reservation: selection runs on the vectorized batch
estimator (see :mod:`repro.core.batch_estimator`), and the kernel
reuses a goal's selection exactly until the next observation changes
its belief.

The baselines follow the same split: :class:`repro.baselines.sys_only`
and :class:`repro.baselines.no_coord` define their own kernels, and
feedback-free schemes (Oracle, OracleStatic, App-only, Static) are
their own kernels — their ``observe`` is a no-op (see
:func:`kernel_of`).
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import NamedTuple

import numpy as np

from repro.core.config_space import Configuration, ConfigurationSpace
from repro.core.estimator import AlertEstimator
from repro.core.goals import Goal
from repro.core.kalman import IdlePowerFilter, StackedIdlePowerFilter
from repro.core.selector import ConfigSelector, SelectionResult
from repro.core.slowdown import GlobalSlowdownEstimator, StackedSlowdownEstimator
from repro.errors import ConfigurationError
from repro.models.base import DnnModel
from repro.models.profiles import ProfileTable

__all__ = [
    "Measurement",
    "measurement_from_outcome",
    "StackedMeasurements",
    "stacked_measurements",
    "kernel_of",
    "ControllerState",
    "AlertKernel",
    "AlertCellKernel",
]

#: Fraction of the mean profiled latency charged as worst-case
#: scheduler overhead (the paper's measured range is 0.6-1.7%).
DEFAULT_OVERHEAD_FRACTION = 0.017


@dataclass(frozen=True)
class ControllerState:
    """Snapshot of ALERT's filter state (for traces/tests)."""

    xi_mean: float
    xi_sigma: float
    phi: float
    observations: int


def lockstep_stats_dict(
    n_goals: int,
    stacked_calls: int,
    stacked_states: int,
) -> dict:
    """The decision-path health counters of one lockstep cell.

    The single place the stats-dict shape is defined: every stacked
    cell's ``lockstep_stats`` builds through this, and
    :meth:`repro.runtime.loop.LockstepTelemetry.record_cell` reads the
    same keys.
    """
    return {
        "goals": n_goals,
        "stacked_calls": stacked_calls,
        "stacked_states": stacked_states,
        "mean_batch_size": (
            stacked_states / stacked_calls if stacked_calls else 0.0
        ),
    }


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
    fields.  This is the one place the period is consulted (with
    :func:`stacked_measurements`, its array form): a period longer
    than the occupied latency had an idle phase, so its idle-power
    sample is real; otherwise the idle-power filter sees nothing —
    exactly the :class:`~repro.runtime.scheduler.AlertScheduler`
    measurement convention the paper describes.
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


class StackedMeasurements(NamedTuple):
    """One step's feedback for every goal of a stacked cell.

    Each field aligns with the cell's goals: the configurations that
    served (``model_name`` and the machine-clamped requested
    ``power_cap_w``, as lists), the run-to-completion latencies, and
    the idle-power samples, which count only where ``idle_mask`` says
    the period had an idle phase (other entries are finite
    placeholders).  Build it through :func:`stacked_measurements`.
    """

    model_name: list
    power_cap_w: list
    full_latency_s: np.ndarray
    idle_power_w: np.ndarray
    idle_mask: np.ndarray


def stacked_measurements(
    model_name, power_cap_w, latency_s, full_latency_s, idle_power_w, period_s
) -> StackedMeasurements:
    """:func:`measurement_from_outcome` for every goal of a step: the
    fields are aligned sequences, and a goal's idle-power sample counts
    where its period outlasted its latency."""
    return StackedMeasurements(
        model_name,
        power_cap_w,
        np.asarray(full_latency_s, dtype=float),
        np.asarray(idle_power_w, dtype=float),
        np.asarray(period_s) > np.asarray(latency_s),
    )


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
    """ALERT: joint DNN / power-cap selection with feedback, clock-free.

    Builds the candidate space, estimator and selector (the space and
    selector on first use), and owns the
    global-slowdown ξ filter and the idle-power filter; knows nothing
    about periods, input streams, or how outcomes are realised.

    ``decide`` is a pure function of the goal and the belief state, and
    the belief only changes in :meth:`observe`.  So the kernel keeps the
    selections made since the last observation, one per goal, and
    answers a repeated goal from them exactly — the cost-aware fleet
    probes every replica's ``decide`` before dispatching to one.

    Parameters
    ----------
    profile:
        Offline profile of every candidate configuration.
    models:
        Candidate networks; defaults to everything in the profile.
    powers:
        Candidate power caps; defaults to the profiled levels.
    variance_aware:
        False reproduces the mean-only ALERT* ablation.
    expand_anytime_rungs:
        Whether anytime models may be stopped at intermediate rungs
        (Section 3.5's energy saving); on by default.
    q0:
        Process-noise floor of the ξ filter (Section 3.6's robustness
        knob for heavy-tailed environments).
    overhead_fraction:
        Worst-case scheduler overhead as a fraction of the mean
        profiled latency; the resulting :attr:`overhead_s` is reserved
        out of every deadline.
    confidence:
        Per-constraint confidence floor for feasibility (see
        :class:`repro.core.estimator.AlertEstimator`).
    keep_xi_history:
        Retain every observed slowdown ratio for trace consumers
        (Figure 11).  Off by default — see
        :class:`repro.core.slowdown.GlobalSlowdownEstimator`.
    """

    def __init__(
        self,
        profile: ProfileTable,
        models: list[DnnModel] | None = None,
        powers: list[float] | None = None,
        variance_aware: bool = True,
        expand_anytime_rungs: bool = True,
        q0: float = 0.1,
        overhead_fraction: float = DEFAULT_OVERHEAD_FRACTION,
        confidence: float = 0.95,
        keep_xi_history: bool = False,
    ) -> None:
        if overhead_fraction < 0 or overhead_fraction > 0.2:
            raise ConfigurationError(
                f"overhead fraction {overhead_fraction} outside [0, 0.2]"
            )
        self.profile = profile
        #: What :attr:`space` is built from, and what a lockstep cell
        #: compares kernels on (see :meth:`AlertCellKernel.from_kernels`).
        self._space_args = (
            tuple(models) if models is not None else tuple(profile.models),
            tuple(sorted(powers if powers is not None else profile.powers)),
            expand_anytime_rungs,
        )
        self.estimator = AlertEstimator(
            profile, variance_aware=variance_aware, confidence=confidence
        )
        self.slowdown = GlobalSlowdownEstimator(
            q0=q0, keep_history=keep_xi_history
        )
        self.idle_filter = IdlePowerFilter(
            phi0=profile.idle_power_w / max(profile.inference_power_w.values())
        )
        mean_latency = sum(profile.latency_s.values()) / len(profile.latency_s)
        self.overhead_s = overhead_fraction * mean_latency
        self.last_selection: SelectionResult | None = None
        # Selections under the current belief; observe() clears them.
        self._selections: dict[Goal, SelectionResult] = {}
        # Overhead-adjusted goals, a pure function of (goal, overhead_s).
        self._effective: dict[Goal, Goal] = {}

    @cached_property
    def space(self) -> ConfigurationSpace:
        """The candidate space, built on first use.

        A lockstep cell decides through its first kernel's selector
        only, so the other kernels of the cell never build one.
        """
        models, powers, expand_anytime_rungs = self._space_args
        return ConfigurationSpace(
            models=list(models),
            powers=list(powers),
            expand_anytime_rungs=expand_anytime_rungs,
        )

    @cached_property
    def selector(self) -> ConfigSelector:
        """The selector over :attr:`space`, built on first use."""
        return ConfigSelector(self.space, self.estimator)

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

    def state(self) -> ControllerState:
        """Snapshot of the filters for traces and tests."""
        return ControllerState(
            xi_mean=self.slowdown.mean,
            xi_sigma=self.slowdown.sigma,
            phi=self.idle_filter.phi,
            observations=self.slowdown.observations,
        )


class AlertCellKernel:
    """Stacked ALERT belief states for a lockstep cell, clock-free.

    Every goal of a fused cell consumes the same input sequence, so
    their independent ALERT states — ξ filter, idle-power filter, tail
    model — can advance in lockstep: one stacked :meth:`observe_many`
    pass folds every goal's measurement in, and one :meth:`decide_many`
    pass computes every goal's selection through
    :meth:`~repro.core.selector.ConfigSelector.select_many` (single
    fused erf + lexicographic argmin per step, covering every goal).
    A step passes the base goals and a vector of their adjusted
    deadlines, and gets the configurations back.  Each goal's
    trajectory is bit-identical to a fresh :class:`AlertKernel` serving
    that goal alone (``tests/test_lockstep_parity.py``).

    Build through :meth:`from_kernels`, which validates that the
    per-goal kernels are fresh and structurally identical and returns
    ``None`` when they are not — callers fall back to the sequential
    per-goal path.
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

    @classmethod
    def from_kernels(cls, kernels: list[AlertKernel]) -> "AlertCellKernel | None":
        """A stacked kernel equivalent to ``kernels``, or None.

        Returns ``None`` — never raises — when the kernels cannot be
        stacked: not plain :class:`AlertKernel` instances, not fresh
        (any filter already observed, any decision already made),
        keeping a ξ history, or structurally different (profile,
        candidate space, estimator mode, overhead, filter parameters).
        Subclasses are rejected on purpose: their overridden behaviour
        must keep running on the sequential reference path.
        """
        if not kernels:
            return None
        for kernel in kernels:
            if type(kernel) is not AlertKernel:
                return None
            if (
                kernel.slowdown.observations != 0
                or kernel.idle_filter.updates != 0
                or kernel.last_selection is not None
            ):
                return None
            # ξ-history retention is a trace contract the stacked
            # estimator does not replicate; such runs stay sequential
            # so history() keeps returning the full trace.
            if kernel.slowdown.keeps_history:
                return None
        first = kernels[0]

        def fingerprint(kernel: AlertKernel) -> tuple:
            xi = kernel.slowdown._filter
            idle = kernel.idle_filter
            models, powers, expand_anytime_rungs = kernel._space_args
            return (
                id(kernel.profile),
                tuple(map(id, models)),
                powers,
                expand_anytime_rungs,
                kernel.estimator.variance_aware,
                kernel.estimator.confidence,
                kernel.overhead_s,
                (xi.mu, xi.var, xi.gain, xi.measurement_noise, xi.q_cap, xi.alpha),
                (
                    kernel.slowdown._min_sigma,
                    kernel.slowdown._tail_threshold,
                    kernel.slowdown._tail_ewma,
                ),
                (
                    idle.phi,
                    idle.variance,
                    idle.process_noise,
                    idle.measurement_noise,
                ),
            )

        reference = fingerprint(first)
        if any(fingerprint(k) != reference for k in kernels[1:]):
            return None
        xi = first.slowdown._filter
        idle = first.idle_filter
        return cls(
            selector=first.selector,
            profile=first.profile,
            n_goals=len(kernels),
            overhead_s=first.overhead_s,
            q0=xi.q_cap,
            min_sigma=first.slowdown._min_sigma,
            tail_threshold_sigmas=first.slowdown._tail_threshold,
            tail_ewma=first.slowdown._tail_ewma,
            phi0=np.array([k.idle_filter.phi for k in kernels]),
            idle_m0=idle.variance,
            idle_s=idle.process_noise,
            idle_v=idle.measurement_noise,
        )

    # ------------------------------------------------------------------
    # Step 1: measurement feedback, all goals at once
    # ------------------------------------------------------------------
    def observe_many(self, measured: StackedMeasurements) -> None:
        """Fold every goal's previous-input measurement in, stacked.

        The ξ observation uses the run-to-completion latency, and the
        idle-power filter only sees goals whose period had an idle
        phase (``measured.idle_mask``).
        """
        profile = self.profile
        keys = list(zip(measured.model_name, measured.power_cap_w))
        t_prof = np.array([profile.latency(*key) for key in keys])
        self.slowdown.observe(measured.full_latency_s, t_prof)
        idle_mask = measured.idle_mask
        if idle_mask.any():
            inference = np.array([profile.power(*key) for key in keys])
            self.idle_filter.update_where(
                idle_mask, measured.idle_power_w, inference
            )

    # ------------------------------------------------------------------
    # Steps 3-4: estimate and pick, all goals at once
    # ------------------------------------------------------------------
    def decide_many(self, goals, deadlines, item) -> list[Configuration]:
        """Every goal's configuration for the next input, stacked.

        ``goals`` are the base goals and ``deadlines`` their
        group-adjusted deadlines, one per goal.  The kernel reserves
        its overhead from every deadline, as :meth:`AlertKernel.decide`
        does (``max(1e-6, deadline - overhead_s)``, elementwise), and
        one :meth:`~repro.core.selector.ConfigSelector.select_many`
        pass picks for every goal: :meth:`observe_many` moves every
        goal's belief each step, so no selection could be reused from
        the step before.  ALERT decides from its profile and belief,
        never from the step's ``item``.
        """
        if len(goals) != self.n_goals:
            raise ConfigurationError(
                f"expected {self.n_goals} goals, got {len(goals)}"
            )
        slowdown = self.slowdown
        self.stacked_calls += 1
        self.stacked_states += self.n_goals
        return self.selector.select_many(
            goals,
            np.maximum(1e-6, deadlines - self.overhead_s),
            slowdown.mean,
            slowdown.sigma,
            self.idle_filter.phi,
            tails=(slowdown.tail_fraction, slowdown.tail_ratio),
        )

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    def xi_snapshot(self) -> tuple[np.ndarray, np.ndarray]:
        """The per-goal (mean, sigma) arrays (record bookkeeping)."""
        return self.slowdown.mean, self.slowdown.sigma

    @property
    def lockstep_stats(self) -> dict:
        """Decision-path health counters for benches and telemetry."""
        return lockstep_stats_dict(
            self.n_goals, self.stacked_calls, self.stacked_states
        )
