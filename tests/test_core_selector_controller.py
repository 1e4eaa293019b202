"""Tests for configuration selection and the ALERT kernel."""

from __future__ import annotations

import math

import pytest

from repro.core.config_space import Configuration, ConfigurationSpace
from repro.core.estimator import AlertEstimator
from repro.core.goals import MIN_DEADLINE_S, Goal, GoalAdjuster, ObjectiveKind
from repro.core.kernel import AlertKernel, Measurement
from repro.core.selector import ConfigSelector
from repro.errors import ConfigurationError
from repro.models.families import depth_nest_anytime, sparse_resnet_family
from repro.workloads.inputs import InputItem


@pytest.fixture()
def selector(cpu1_profile, image_models):
    space = ConfigurationSpace(image_models, list(cpu1_profile.powers))
    return ConfigSelector(space, AlertEstimator(cpu1_profile))


# ----------------------------------------------------------------------
# Configuration space
# ----------------------------------------------------------------------
def test_space_expands_anytime_rungs(image_models, cpu1_profile):
    space = ConfigurationSpace(image_models, [45.0])
    nest = depth_nest_anytime()
    # 6 traditional + 5 rungs of the anytime network.
    assert len(space) == 6 + nest.n_outputs
    assert len(space.anytime_models) == 1
    assert len(space.traditional_models) == 6


def test_space_without_rung_expansion(image_models):
    space = ConfigurationSpace(image_models, [45.0], expand_anytime_rungs=False)
    assert len(space) == 7


def test_configuration_validation():
    dense = sparse_resnet_family().by_name("sparse_resnet50_dense")
    with pytest.raises(ConfigurationError):
        Configuration(model=dense, power_w=45.0, rung_cap=1)  # not anytime
    with pytest.raises(ConfigurationError):
        Configuration(model=depth_nest_anytime(), power_w=45.0, rung_cap=99)
    with pytest.raises(ConfigurationError):
        Configuration(model=dense, power_w=0.0)


def test_duplicate_models_rejected(image_models):
    with pytest.raises(ConfigurationError):
        ConfigurationSpace(image_models + [image_models[0]], [45.0])


# ----------------------------------------------------------------------
# Selection
# ----------------------------------------------------------------------
def test_min_energy_picks_cheapest_feasible(selector):
    goal = Goal(
        objective=ObjectiveKind.MINIMIZE_ENERGY,
        deadline_s=1.5,
        accuracy_min=0.90,
    )
    result = selector.select(goal, 1.0, 0.02, 0.15)
    assert result.feasible
    # With a loose deadline, the winner should be a low cap.
    assert result.config.power_w <= 25.0
    assert result.estimate.expected_quality >= 0.90


def test_max_accuracy_uses_budget(selector):
    loose = Goal(
        objective=ObjectiveKind.MAXIMIZE_ACCURACY,
        deadline_s=1.5,
        energy_budget_j=60.0,
    )
    tight = Goal(
        objective=ObjectiveKind.MAXIMIZE_ACCURACY,
        deadline_s=1.5,
        energy_budget_j=6.0,
    )
    rich = selector.select(loose, 1.0, 0.02, 0.15)
    poor = selector.select(tight, 1.0, 0.02, 0.15)
    assert rich.estimate.expected_quality >= poor.estimate.expected_quality
    assert poor.estimate.expected_energy_j <= 6.0


def test_impossible_accuracy_relaxes_with_max_quality(selector):
    goal = Goal(
        objective=ObjectiveKind.MINIMIZE_ENERGY,
        deadline_s=1.5,
        accuracy_min=0.999,  # nothing delivers this
    )
    result = selector.select(goal, 1.0, 0.02, 0.15)
    assert not result.feasible
    assert result.relaxation == "constraint"
    # Still meets the deadline and gets close to the best quality.
    assert result.estimate.meets_latency_mean
    assert result.estimate.expected_quality > 0.92


def test_impossible_deadline_falls_back_to_fastest(selector):
    goal = Goal(
        objective=ObjectiveKind.MINIMIZE_ENERGY,
        deadline_s=1e-4,
        accuracy_min=0.9,
    )
    result = selector.select(goal, 1.0, 0.02, 0.15)
    assert result.relaxation in ("constraint", "probability", "latency")
    if result.relaxation == "latency":
        # The best-effort pick chases minimum latency.
        fastest = min(
            selector.space,
            key=lambda c: selector.estimator.profile.latency(
                c.model.name, c.power_w
            )
            * c.latency_fraction,
        )
        assert result.estimate.latency_mean_s <= (
            selector.estimator.profile.latency(
                fastest.model.name, fastest.power_w
            )
            * 1.5
        )


def test_high_variance_prefers_safer_configs(selector):
    # The Section 3.4 example: volatility pushes the choice toward
    # configurations with better completion odds.
    goal = Goal(
        objective=ObjectiveKind.MINIMIZE_ENERGY,
        deadline_s=0.45,
        accuracy_min=0.90,
    )
    calm = selector.select(goal, 1.2, 0.02, 0.15)
    stormy = selector.select(goal, 1.2, 0.45, 0.15)
    assert stormy.estimate.deadline_probability >= 0.5
    calm_time = calm.estimate.latency_mean_s
    stormy_time = stormy.estimate.latency_mean_s
    assert stormy_time <= calm_time * 1.05  # never slower under storm


def test_prth_filters_marginal_configs(selector):
    base = dict(
        objective=ObjectiveKind.MINIMIZE_ENERGY,
        deadline_s=0.5,
        accuracy_min=0.88,
    )
    plain = selector.select(Goal(**base), 1.3, 0.25, 0.15)
    strict = selector.select(
        Goal(prob_threshold=0.999, **base), 1.3, 0.25, 0.15
    )
    assert strict.estimate.quality_meet_probability >= (
        plain.estimate.quality_meet_probability - 1e-9
    )


# ----------------------------------------------------------------------
# Kernel
# ----------------------------------------------------------------------
def test_controller_observe_updates_state(cpu1_profile):
    kernel = AlertKernel(cpu1_profile)
    before = kernel.state()
    ratio = kernel.observe(
        Measurement(
            "sparse_resnet50_dense",
            45.0,
            full_latency_s=2.0 * cpu1_profile.latency("sparse_resnet50_dense", 45.0),
            idle_power_w=5.0,
        )
    )
    after = kernel.state()
    assert ratio == pytest.approx(2.0)
    assert after.observations == before.observations + 1
    assert after.xi_mean > before.xi_mean


def test_controller_reserves_overhead(cpu1_profile):
    kernel = AlertKernel(cpu1_profile, overhead_fraction=0.017)
    assert kernel.overhead_s > 0
    goal = Goal(
        objective=ObjectiveKind.MINIMIZE_ENERGY,
        deadline_s=0.5,
        accuracy_min=0.9,
    )
    result = kernel.decide(goal)
    assert kernel.last_selection is result


def test_controller_rejects_bad_overhead(cpu1_profile):
    with pytest.raises(ConfigurationError):
        AlertKernel(cpu1_profile, overhead_fraction=0.5)


def test_controller_adapts_to_slowdown(cpu1_profile):
    kernel = AlertKernel(cpu1_profile)
    goal = Goal(
        objective=ObjectiveKind.MINIMIZE_ENERGY,
        deadline_s=0.45,
        accuracy_min=0.90,
    )
    calm_choice = kernel.decide(goal).config
    # Feed a sustained 1.9x slowdown.
    for _ in range(10):
        t_prof = cpu1_profile.latency(calm_choice.model.name, calm_choice.power_w)
        kernel.observe(
            Measurement(calm_choice.model.name, calm_choice.power_w, 1.9 * t_prof)
        )
    stormy_result = kernel.decide(goal)
    stormy_choice = stormy_result.config
    calm_time = cpu1_profile.latency(
        calm_choice.model.name, calm_choice.power_w
    ) * calm_choice.latency_fraction
    stormy_time = cpu1_profile.latency(
        stormy_choice.model.name, stormy_choice.power_w
    ) * stormy_choice.latency_fraction
    # Never slower under a sustained slowdown, and the chosen operating
    # point still clears the (now much harder) deadline in expectation.
    assert stormy_time <= calm_time
    assert kernel.state().xi_mean > 1.5
    assert stormy_result.estimate.latency_mean_s <= goal.deadline_s


# ----------------------------------------------------------------------
# Goal adjustment
# ----------------------------------------------------------------------
def test_goal_validation():
    with pytest.raises(ConfigurationError):
        Goal(objective=ObjectiveKind.MINIMIZE_ENERGY, deadline_s=0.5)
    with pytest.raises(ConfigurationError):
        Goal(objective=ObjectiveKind.MAXIMIZE_ACCURACY, deadline_s=0.5)
    with pytest.raises(ConfigurationError):
        Goal(
            objective=ObjectiveKind.MINIMIZE_ENERGY,
            deadline_s=-1.0,
            accuracy_min=0.9,
        )


@pytest.mark.parametrize("value", [math.nan, math.inf], ids=["nan", "inf"])
@pytest.mark.parametrize("field", ["deadline_s", "period_s", "energy_budget_j"])
def test_goal_refuses_non_finite_values(field, value):
    """NaN passes every ``x <= 0`` check, and infinity is positive."""
    values = {"deadline_s": 0.5, "energy_budget_j": 2.0, field: value}
    with pytest.raises(ConfigurationError, match="finite"):
        Goal(objective=ObjectiveKind.MAXIMIZE_ACCURACY, **values)


def test_group_deadline_shrinks_after_overrun():
    adjuster = GoalAdjuster()
    goal = Goal(
        objective=ObjectiveKind.MINIMIZE_ENERGY, deadline_s=0.1, accuracy_min=0.9
    )
    first = InputItem(index=0, group_id=1, group_size=2, position_in_group=0)
    second = InputItem(index=1, group_id=1, group_size=2, position_in_group=1)
    adjusted = adjuster.adjust(goal, first)
    assert adjusted.deadline_s == pytest.approx(0.1)
    # The first word burnt 0.15 s of the 0.2 s sentence budget.
    adjuster.consume(first, 0.15)
    adjusted = adjuster.adjust(goal, second)
    assert adjusted.deadline_s == pytest.approx(0.05)


def test_group_deadline_grows_after_fast_words():
    adjuster = GoalAdjuster()
    goal = Goal(
        objective=ObjectiveKind.MINIMIZE_ENERGY, deadline_s=0.1, accuracy_min=0.9
    )
    first = InputItem(index=0, group_id=2, group_size=2, position_in_group=0)
    second = InputItem(index=1, group_id=2, group_size=2, position_in_group=1)
    adjuster.adjust(goal, first)
    adjuster.consume(first, 0.02)
    adjusted = adjuster.adjust(goal, second)
    assert adjusted.deadline_s == pytest.approx(0.18)


def test_deadline_floor_protects_overrun_groups():
    adjuster = GoalAdjuster()
    goal = Goal(
        objective=ObjectiveKind.MINIMIZE_ENERGY, deadline_s=0.1, accuracy_min=0.9
    )
    first = InputItem(index=0, group_id=3, group_size=2, position_in_group=0)
    second = InputItem(index=1, group_id=3, group_size=2, position_in_group=1)
    adjuster.adjust(goal, first)
    adjuster.consume(first, 10.0)  # blew the whole budget
    adjusted = adjuster.adjust(goal, second)
    assert adjusted.deadline_s == MIN_DEADLINE_S
