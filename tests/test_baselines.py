"""Tests for the baseline schedulers."""

from __future__ import annotations

import numpy as np
import pytest

from repro.baselines import (
    AppOnlyScheduler,
    NoCoordScheduler,
    OracleScheduler,
    SysOnlyScheduler,
    best_static_config,
    make_alert,
    make_alert_star,
    make_oracle_static,
)
from repro.baselines.oracle import best_static_config_scalar
from repro.core.config_space import Configuration, ConfigurationSpace
from repro.core.goals import Goal, ObjectiveKind
from repro.errors import ConfigurationError
from repro.hw.energy import EnergyBreakdown
from repro.models.base import IMAGE_TASK, DnnModel
from repro.models.inference import BatchOutcomeGrid, InferenceOutcome
from repro.runtime.loop import ServingLoop
from repro.workloads.inputs import ImageStream, InputItem


def _goal(deadline=0.6, accuracy=0.9):
    return Goal(
        objective=ObjectiveKind.MINIMIZE_ENERGY,
        deadline_s=deadline,
        accuracy_min=accuracy,
    )


@pytest.fixture()
def space(image_scenario):
    profile = image_scenario.profile()
    return ConfigurationSpace(
        list(image_scenario.candidates.models), list(profile.powers)
    )


def test_app_only_is_static_anytime(image_scenario):
    anytime = image_scenario.candidates.anytime
    scheduler = AppOnlyScheduler(anytime, 45.0)
    config = scheduler.decide(InputItem(index=0), _goal())
    assert config.model is anytime
    assert config.power_w == 45.0
    assert config.rung_cap is None
    with pytest.raises(ConfigurationError):
        AppOnlyScheduler(image_scenario.candidates.models[0], 45.0)


def test_sys_only_pins_fastest_traditional(image_scenario):
    profile = image_scenario.profile()
    scheduler = SysOnlyScheduler(profile, list(image_scenario.candidates.models))
    assert scheduler.model.name == "sparse_resnet50_s95"
    config = scheduler.decide(InputItem(index=0), _goal())
    assert config.model.name == "sparse_resnet50_s95"


def test_sys_only_adapts_power_to_deadline(image_scenario):
    profile = image_scenario.profile()
    scheduler = SysOnlyScheduler(profile, list(image_scenario.candidates.models))
    loose = scheduler.decide(InputItem(index=0), _goal(deadline=2.0, accuracy=0.8))
    tight = scheduler.decide(InputItem(index=0), _goal(deadline=0.17, accuracy=0.8))
    assert tight.power_w >= loose.power_w


def test_no_coord_combines_independent_decisions(image_scenario):
    profile = image_scenario.profile()
    anytime = image_scenario.candidates.anytime
    scheduler = NoCoordScheduler(profile, anytime)
    config = scheduler.decide(InputItem(index=0), _goal())
    assert config.model is anytime
    assert config.rung_cap is not None


def test_oracle_picks_feasible_optimum(image_scenario, space):
    engine = image_scenario.make_engine()
    oracle = OracleScheduler(engine, space)
    goal = _goal()
    config = oracle.decide(InputItem(index=0), goal)
    outcome = engine.evaluate(
        config.model, config.power_w, 0, goal.deadline_s, rung_cap=config.rung_cap
    )
    assert outcome.met_deadline
    assert outcome.quality >= goal.accuracy_min
    # No cheaper feasible configuration exists on this input.
    for other in space:
        alt = engine.evaluate(
            other.model, other.power_w, 0, goal.deadline_s, rung_cap=other.rung_cap
        )
        if alt.met_deadline and alt.quality >= goal.accuracy_min:
            assert outcome.energy_j <= alt.energy_j + 1e-9


def test_oracle_beats_or_matches_alert(memory_scenario, space):
    goal = _goal()
    results = {}
    for name in ("Oracle", "ALERT"):
        engine = memory_scenario.make_engine()
        stream = memory_scenario.make_stream()
        if name == "Oracle":
            scheduler = OracleScheduler(engine, space)
        else:
            scheduler = make_alert(memory_scenario.profile())
        results[name] = ServingLoop(engine, stream, scheduler, goal).run(60)
    kept = lambda r: (not r.setting_violated, -r.mean_energy_j)
    assert results["Oracle"].mean_energy_j <= results["ALERT"].mean_energy_j * 1.02
    assert results["Oracle"].violation_fraction <= (
        results["ALERT"].violation_fraction + 1e-9
    )


def test_oracle_static_respects_violation_rule(image_scenario, space):
    engine = image_scenario.make_engine()
    stream = image_scenario.make_stream()
    goal = _goal()
    config = best_static_config(engine, space, goal, stream, n_inputs=40)
    # Verify the chosen static config indeed stays within the 10% rule.
    violations = 0
    for index in range(40):
        outcome = engine.evaluate(
            config.model,
            config.power_w,
            index,
            goal.deadline_s,
            rung_cap=config.rung_cap,
        )
        if not outcome.met_deadline or outcome.quality < goal.accuracy_min:
            violations += 1
    assert violations <= 4


class _ScriptedEngine:
    """Engine stub with scripted per-(model, input) outcomes.

    Both oracle evaluation paths read it: ``evaluate`` for the scalar
    reference, ``evaluate_batch`` for the vectorized one, so the pinned
    rule is asserted against both.
    """

    def __init__(self, script):
        # script: model name -> (met_fn(index), energy_j)
        self._script = script

    def _point(self, model, index):
        met_fn, energy = self._script[model.name]
        return bool(met_fn(index)), float(energy)

    def evaluate(
        self,
        model,
        power_cap_w,
        index,
        deadline_s,
        period_s=None,
        work_factor=1.0,
        rung_cap=None,
    ):
        met, energy = self._point(model, index)
        return InferenceOutcome(
            index=index,
            model_name=model.name,
            power_cap_w=power_cap_w,
            effective_cap_w=power_cap_w,
            latency_s=deadline_s * (0.5 if met else 2.0),
            full_latency_s=deadline_s,
            met_deadline=met,
            quality=model.quality,
            metric_value=model.quality * 100.0,
            completed_rungs=0,
            energy=EnergyBreakdown(inference_j=energy, idle_j=0.0),
            inference_power_w=power_cap_w,
            idle_power_w=0.0,
            env_factor=1.0,
            deadline_s=deadline_s,
            period_s=period_s if period_s is not None else deadline_s,
        )

    def evaluate_batch(
        self, configs, indices, deadline_s, period_s=None, work_factors=None
    ):
        configs = tuple(configs)
        indices = np.asarray(list(indices), dtype=int)
        n_configs, n_inputs = len(configs), indices.size
        met = np.empty((n_configs, n_inputs), dtype=bool)
        energy = np.empty((n_configs, n_inputs), dtype=float)
        quality = np.empty((n_configs, n_inputs), dtype=float)
        for row, config in enumerate(configs):
            for col, index in enumerate(indices):
                m, e = self._point(config.model, int(index))
                met[row, col] = m
                energy[row, col] = e
                quality[row, col] = config.model.quality
        period = period_s if period_s is not None else deadline_s
        latency = np.where(met, deadline_s * 0.5, deadline_s * 2.0)
        return BatchOutcomeGrid(
            configs=configs,
            indices=indices,
            deadline_s=deadline_s,
            period_s=period,
            work_factors=np.ones(n_inputs),
            env_factor=np.ones(n_inputs),
            power_cap_w=np.array([c.power_w for c in configs]),
            inference_power_w=np.array([c.power_w for c in configs]),
            idle_power_w=np.zeros((n_configs, n_inputs)),
            latency_s=latency,
            full_latency_s=np.full((n_configs, n_inputs), deadline_s),
            met_deadline=met,
            quality=quality,
            completed_rungs=np.zeros((n_configs, n_inputs), dtype=int),
            inference_j=energy,
            idle_j=np.zeros((n_configs, n_inputs)),
        )


def _scripted_case():
    """Two configs, neither inside the 10% rule, with conflicting keys.

    Config A violates less often (30%) but costs more energy; config B
    violates more (50%) but is cheaper.  The documented rule — least
    violating first, objective as tie-break — must pick A; ranking by
    objective first (the discarded key order of the old double-``min``)
    would pick B.
    """
    model_a = DnnModel(
        name="scripted_a", task=IMAGE_TASK, family="cnn",
        quality=0.9, base_latency_s=0.1,
    )
    model_b = DnnModel(
        name="scripted_b", task=IMAGE_TASK, family="cnn",
        quality=0.9, base_latency_s=0.1,
    )
    engine = _ScriptedEngine(
        {
            "scripted_a": (lambda i: i % 10 < 7, 5.0),
            "scripted_b": (lambda i: i % 2 == 0, 1.0),
        }
    )
    space = [
        Configuration(model=model_a, power_w=20.0),
        Configuration(model=model_b, power_w=30.0),
    ]
    goal = Goal(
        objective=ObjectiveKind.MINIMIZE_ENERGY,
        deadline_s=1.0,
        accuracy_min=0.5,
    )
    return engine, space, goal


STATIC_PATHS = pytest.mark.parametrize(
    "static_config",
    [best_static_config, best_static_config_scalar],
    ids=["batch", "scalar"],
)


@STATIC_PATHS
def test_oracle_static_least_violating_rule_pinned(static_config):
    engine, space, goal = _scripted_case()
    stream = ImageStream(np.random.default_rng(0))
    chosen = static_config(engine, space, goal, stream, n_inputs=20)
    # Neither config meets the 10% rule (30% and 50% violations), so
    # the least-violating config wins despite its worse objective.
    assert chosen.model.name == "scripted_a"


@STATIC_PATHS
def test_oracle_static_qualifying_ranks_by_objective(static_config):
    engine, space, goal = _scripted_case()
    stream = ImageStream(np.random.default_rng(0))
    chosen = static_config(
        engine, space, goal, stream, n_inputs=20, violation_threshold=0.6
    )
    # Both qualify under the loosened threshold: the objective decides.
    assert chosen.model.name == "scripted_b"


def test_oracle_static_scheduler_name(image_scenario, space):
    engine = image_scenario.make_engine()
    stream = image_scenario.make_stream()
    scheduler = make_oracle_static(engine, space, _goal(), stream, 20)
    assert scheduler.name == "OracleStatic"


def test_alert_star_ignores_variance(image_scenario):
    profile = image_scenario.profile()
    star = make_alert_star(profile)
    assert star.name == "ALERT*"
    assert star.controller.estimator.variance_aware is False
    full = make_alert(profile)
    assert full.controller.estimator.variance_aware is True
