"""Ablations of ALERT's design decisions.

* :func:`run_global_xi` — the global slowdown factor versus one Kalman
  filter *per configuration* (Idea 1).  Per-config filters starve:
  configurations not recently used keep stale beliefs, so regime
  changes propagate slowly and violations rise.
* :func:`run_adaptive_q` — the Akhlaghi adaptive process noise versus
  a fixed ``Q`` (Idea 2's machinery).  Fixed process noise either
  reacts slowly (small Q) or stays permanently mushy (large Q).
* :func:`run_prth` — the effect of the optional probabilistic
  threshold ``Pr_th`` (Eqs. 10-12): higher thresholds trade optimality
  for fewer violations.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.baselines import make_alert
from repro.core.config_space import Configuration, ConfigurationSpace
from repro.core.estimator import AlertEstimator
from repro.core.goals import Goal
from repro.core.kalman import AdaptiveKalmanFilter
from repro.core.selector import ConfigSelector
from repro.models.inference import InferenceOutcome
from repro.runtime.loop import ServingLoop
from repro.workloads.inputs import InputItem
from repro.workloads.scenarios import (
    Scenario,
    build_scenario,
    constraint_grid,
    stride_settings,
)

__all__ = [
    "PerConfigScheduler",
    "AblationRow",
    "run_global_xi",
    "run_adaptive_q",
    "run_prth",
]


class PerConfigScheduler:
    """ALERT variant with an independent Kalman filter per configuration.

    Only the configuration that actually served an input updates its
    filter; every other configuration's belief goes stale.  This is
    the strawman Section 3.3 dismisses: "most models and power
    settings will not have been picked recently and hence would have
    no recent history".
    """

    def __init__(self, scenario: Scenario, name: str = "Per-config") -> None:
        profile = scenario.profile()
        self.profile = profile
        self.space = ConfigurationSpace(
            list(scenario.candidates.models), list(profile.powers)
        )
        self.estimator = AlertEstimator(profile, variance_aware=True)
        self.selector = ConfigSelector(self.space, self.estimator)
        self._filters: dict[tuple[str, float], AdaptiveKalmanFilter] = {}
        self._phi = profile.idle_power_w / max(profile.inference_power_w.values())
        self.name = name

    def _filter_for(self, model_name: str, power_w: float) -> AdaptiveKalmanFilter:
        key = (model_name, power_w)
        if key not in self._filters:
            self._filters[key] = AdaptiveKalmanFilter()
        return self._filters[key]

    def decide(self, item: InputItem, goal: Goal) -> Configuration:
        best = None
        best_estimate = None
        for config in self.space:
            filt = self._filter_for(config.model.name, config.power_w)
            estimate = self.estimator.estimate(
                config, goal, filt.mu, max(filt.sigma, 1e-6), self._phi
            )
            if best_estimate is None or self._better(goal, estimate, best_estimate):
                best, best_estimate = config, estimate
        assert best is not None
        return best

    @staticmethod
    def _better(goal: Goal, challenger, incumbent) -> bool:
        ranker = ConfigSelector._objective_key
        if challenger.feasible != incumbent.feasible:
            return challenger.feasible
        return ranker(goal, challenger) < ranker(goal, incumbent)

    def observe(self, outcome: InferenceOutcome) -> None:
        filt = self._filter_for(outcome.model_name, outcome.power_cap_w)
        t_prof = self.profile.latency(outcome.model_name, outcome.power_cap_w)
        filt.update(outcome.full_latency_s / t_prof)


@dataclass(frozen=True)
class AblationRow:
    """One variant's aggregate over the ablation settings."""

    variant: str
    mean_objective: float
    violated_settings: int
    n_settings: int


def _evaluate(
    scenario: Scenario,
    goals,
    scheduler_factory,
    n_inputs: int,
) -> AblationRow:
    objectives = []
    violated = 0
    for goal in goals:
        engine = scenario.make_engine()
        stream = scenario.make_stream()
        scheduler = scheduler_factory()
        result = ServingLoop(engine, stream, scheduler, goal).run(n_inputs)
        if result.setting_violated:
            violated += 1
        else:
            objectives.append(result.objective_value)
    return AblationRow(
        variant=scheduler_factory().name,
        mean_objective=float(np.mean(objectives)) if objectives else float("nan"),
        violated_settings=violated,
        n_settings=len(goals),
    )


def _default_setup(env: str, seed: int, settings_stride: int):
    scenario = build_scenario("CPU1", "image", env, "standard", seed)
    grid = constraint_grid(scenario)
    goals = stride_settings(grid.min_energy_goals, settings_stride)
    return scenario, goals


def run_global_xi(
    env: str = "memory",
    settings_stride: int = 6,
    n_inputs: int = 100,
    seed: int = 20210101,
) -> list[AblationRow]:
    """Global ξ (ALERT) versus per-configuration filters."""
    scenario, goals = _default_setup(env, seed, settings_stride)
    profile = scenario.profile()
    return [
        _evaluate(scenario, goals, lambda: make_alert(profile), n_inputs),
        _evaluate(scenario, goals, lambda: PerConfigScheduler(scenario), n_inputs),
    ]


def run_adaptive_q(
    env: str = "memory",
    settings_stride: int = 6,
    n_inputs: int = 100,
    seed: int = 20210202,
    fixed_alpha: float = 1.0,
) -> list[AblationRow]:
    """Adaptive process noise versus a fixed ``Q``.

    ``fixed_alpha=1.0`` freezes the process noise at its cap — the
    non-adaptive strawman.
    """
    scenario, goals = _default_setup(env, seed, settings_stride)
    profile = scenario.profile()

    def adaptive():
        return make_alert(profile, name="ALERT(adaptive-Q)")

    def fixed():
        scheduler = make_alert(profile, name="ALERT(fixed-Q)")
        scheduler.kernel.slowdown._filter.alpha = fixed_alpha
        return scheduler

    return [
        _evaluate(scenario, goals, adaptive, n_inputs),
        _evaluate(scenario, goals, fixed, n_inputs),
    ]


def run_prth(
    env: str = "memory",
    thresholds: tuple[float | None, ...] = (None, 0.90, 0.99),
    settings_stride: int = 6,
    n_inputs: int = 100,
    seed: int = 20210303,
) -> dict[str, AblationRow]:
    """Sweep the probabilistic threshold ``Pr_th`` (Eqs. 10-12)."""
    scenario, goals = _default_setup(env, seed, settings_stride)
    profile = scenario.profile()
    rows: dict[str, AblationRow] = {}
    for threshold in thresholds:
        label = "default" if threshold is None else f"prth={threshold}"
        adjusted = [
            Goal(
                objective=g.objective,
                deadline_s=g.deadline_s,
                period_s=g.period_s,
                accuracy_min=g.accuracy_min,
                energy_budget_j=g.energy_budget_j,
                prob_threshold=threshold,
            )
            for g in goals
        ]
        row = _evaluate(
            scenario,
            adjusted,
            lambda: make_alert(profile, name=f"ALERT[{label}]"),
            n_inputs,
        )
        rows[label] = row
    return rows
