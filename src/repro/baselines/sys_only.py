"""Sys-only: fixed fastest DNN + a feedback power manager.

The system-level state of the art (paper Table 3): following the
CALOREE/POET line of work [38, 63], a Kalman-filter latency predictor
drives the power cap to minimise energy under a soft latency
constraint, while the application is pinned to "the fastest candidate
DNN to avoid latency violations".

Because the DNN never changes, the scheme cannot trade accuracy for
anything: it violates accuracy floors it could have met with a bigger
network (minimise-energy mode) and leaves accuracy on the table when
energy is plentiful (minimise-error mode) — the Table 4 pattern.

The implementation reuses ALERT's estimator/selector machinery
restricted to a single model and mean-only prediction, which is
faithful to [63]'s mean-latency Kalman feedback.  Like ALERT itself,
it runs on the selector's vectorized batch decision path, so
per-decision cost stays flat as the power grid grows.

The scheme follows the repository's kernel split
(:mod:`repro.core.kernel`): :class:`SysOnlyKernel` owns the clock-free
state transitions (ξ filter in, power selection out), and
:class:`SysOnlyScheduler` adapts it to the harness's outcome-record
protocol.
"""

from __future__ import annotations

import numpy as np

from repro.core.config_space import Configuration, ConfigurationSpace
from repro.core.estimator import AlertEstimator
from repro.core.goals import Goal
from repro.core.kernel import (
    Measurement,
    lockstep_stats_dict,
    measurement_from_outcome,
)
from repro.core.selector import ConfigSelector, SelectionResult
from repro.core.slowdown import GlobalSlowdownEstimator, StackedSlowdownEstimator
from repro.errors import ConfigurationError
from repro.models.base import DnnModel
from repro.models.inference import InferenceOutcome
from repro.models.profiles import ProfileTable
from repro.workloads.inputs import InputItem

__all__ = ["SysOnlyKernel", "SysOnlyScheduler", "SysOnlyCellController"]


class SysOnlyKernel:
    """Sys-only's clock-free decision kernel.

    One mean-only ξ filter over the pinned model's latency, one
    vectorized power selection per decide.  φ is a pure function of
    the profile (idle draw over the top cap's inference draw) — the
    identical double the pre-split scheduler recomputed per decision —
    so it is evaluated once here.
    """

    def __init__(
        self,
        selector: ConfigSelector,
        profile: ProfileTable,
        model_name: str,
        top_power: float,
    ) -> None:
        self.selector = selector
        self.profile = profile
        self.slowdown = GlobalSlowdownEstimator()
        self.phi = profile.idle_power_w / profile.power(model_name, top_power)

    def decide(self, goal: Goal) -> SelectionResult:
        xi_mean, xi_sigma = self.slowdown.snapshot()
        return self.selector.select(goal, xi_mean, xi_sigma, self.phi)

    def observe(self, measurement: Measurement) -> None:
        t_prof = self.profile.latency(
            measurement.model_name, measurement.power_cap_w
        )
        self.slowdown.observe(measurement.full_latency_s, t_prof)


class SysOnlyScheduler:
    """Power-only adaptation around a pinned fastest DNN."""

    #: The Kalman latency filter feeds every power decision.
    feedback_free = False

    def __init__(
        self,
        profile: ProfileTable,
        models: list[DnnModel],
        powers: list[float] | None = None,
        name: str = "Sys-only",
    ) -> None:
        traditional = [m for m in models if not m.is_anytime]
        if not traditional:
            raise ConfigurationError(
                "Sys-only needs at least one traditional candidate"
            )
        fastest = min(traditional, key=lambda m: m.base_latency_s)
        power_list = list(powers) if powers is not None else list(profile.powers)
        self.model = fastest
        self.space = ConfigurationSpace(models=[fastest], powers=power_list)
        self.estimator = AlertEstimator(profile, variance_aware=False)
        self.profile = profile
        self.name = name
        self.kernel = SysOnlyKernel(
            selector=ConfigSelector(self.space, self.estimator),
            profile=profile,
            model_name=fastest.name,
            top_power=self.space.powers[-1],
        )

    def decide(self, item: InputItem, goal: Goal) -> Configuration:
        return self.kernel.decide(goal).config

    def observe(self, outcome: InferenceOutcome) -> None:
        self.kernel.observe(measurement_from_outcome(outcome))

    @staticmethod
    def stack_into_cell(schedulers):
        """Lockstep hook: stack per-goal runs into one cell controller.

        Defined on the class itself (the lockstep loop refuses
        inherited hooks); returns ``None`` for warm or structurally
        different schedulers — see
        :meth:`SysOnlyCellController.from_schedulers`.
        """
        return SysOnlyCellController.from_schedulers(schedulers)


class SysOnlyCellController:
    """Lockstep Sys-only across a cell's goal grid.

    Sys-only is "ALERT & co." machinery — a Kalman latency filter
    driving the vectorized selector over a single-model space — so its
    per-goal runs stack exactly like ALERT's: one
    :class:`~repro.core.slowdown.StackedSlowdownEstimator` advances
    every goal's ξ filter per input, and one
    :meth:`~repro.core.selector.ConfigSelector.select_many` pass
    computes every goal's power decision.  φ is the profiled constant
    the scalar kernel computes once.  Each goal's
    trajectory is bit-identical to a fresh :class:`SysOnlyScheduler`
    serving that goal alone (``tests/test_lockstep_parity.py``).
    """

    def __init__(
        self,
        selector: ConfigSelector,
        profile: ProfileTable,
        phi: float,
        n_goals: int,
    ) -> None:
        self.selector = selector
        self.profile = profile
        self.n_goals = n_goals
        self.slowdown = StackedSlowdownEstimator(n_goals)
        self._phi = np.full(n_goals, phi)
        self._stacked_calls = 0
        self._stacked_states = 0

    @classmethod
    def from_schedulers(cls, schedulers) -> "SysOnlyCellController | None":
        """A stacked controller equivalent to ``schedulers``, or None."""
        if not schedulers:
            return None
        for scheduler in schedulers:
            if type(scheduler) is not SysOnlyScheduler:
                return None
            if scheduler.kernel.slowdown.observations != 0:
                return None
        first = schedulers[0]

        def fingerprint(scheduler: SysOnlyScheduler) -> tuple:
            return (
                id(scheduler.model),
                tuple(
                    (id(config.model), config.power_w, config.rung_cap)
                    for config in scheduler.space
                ),
                scheduler.estimator.variance_aware,
                scheduler.estimator.confidence,
                id(scheduler.profile),
            )

        reference = fingerprint(first)
        if any(fingerprint(s) != reference for s in schedulers[1:]):
            return None
        return cls(
            selector=first.kernel.selector,
            profile=first.profile,
            phi=first.kernel.phi,
            n_goals=len(schedulers),
        )

    def decide_many(self, goals, deadlines, item) -> list[Configuration]:
        """Every goal's configuration at its adjusted deadline, every
        step (the step's ``item`` is not read).  Sys-only reserves no
        overhead, as :meth:`SysOnlyKernel.decide` does not."""
        if len(goals) != self.n_goals:
            raise ConfigurationError(
                f"expected {self.n_goals} goals, got {len(goals)}"
            )
        configs = self.selector.select_many(
            goals, deadlines, self.slowdown.mean, self.slowdown.sigma,
            self._phi,
        )
        self._stacked_calls += 1
        self._stacked_states += self.n_goals
        return configs

    def observe_many(self, measured) -> None:
        """Fold every goal's previous-input latency in, stacked.

        ``measured`` is a :class:`~repro.core.kernel.StackedMeasurements`.
        """
        profile = self.profile
        t_prof = np.array([
            profile.latency(name, cap)
            for name, cap in zip(measured.model_name, measured.power_cap_w)
        ])
        self.slowdown.observe(measured.full_latency_s, t_prof)

    def xi_snapshot(self) -> None:
        """Sys-only exposes no ``state``; records carry 0/0 like the
        sequential path."""
        return None

    @property
    def lockstep_stats(self) -> dict:
        return lockstep_stats_dict(
            self.n_goals, self._stacked_calls, self._stacked_states
        )
