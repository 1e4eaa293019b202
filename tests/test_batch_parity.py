"""Randomized parity: the batch estimator against the scalar reference.

The vectorized fast path (:mod:`repro.core.batch_estimator`) must be
indistinguishable from the readable scalar implementation — every
:class:`ConfigEstimate` field to <= 1e-9, every feasibility flag
bit-equal, and every :class:`SelectionResult` (configuration, the
relaxation stage that produced it, feasibility, candidate accounting)
identical across the full goal grammar: both objectives, with/without
``accuracy_min`` / ``energy_budget_j`` / ``prob_threshold``, explicit
periods, tail mixtures, the mean-only ALERT* mode, and the
``phi >= 1`` energy corner — over the mixed anytime/traditional space,
a traditional-only space (ALERT-Trad's) and a one-model space
(Sys-only's), whose queries skip the estimator's rung-ladder branches.
"""

from __future__ import annotations

import math

import numpy as np
import pytest

from repro.core import batch_estimator as be
from repro.core.batch_estimator import BatchAlertEstimator, normal_cdf_array
from repro.core.config_space import ConfigurationSpace
from repro.core.estimator import AlertEstimator, normal_cdf
from repro.core.goals import Goal, ObjectiveKind
from repro.core.kernel import AlertKernel, Measurement
from repro.core.selector import ConfigSelector
from repro.models.anytime import AnytimeDnn

PARITY_TOL = 1e-9

FIELD_NAMES = (
    "latency_mean_s",
    "deadline_probability",
    "expected_quality",
    "quality_meet_probability",
    "expected_energy_j",
)
FLAG_NAMES = (
    "meets_latency",
    "meets_accuracy",
    "meets_energy",
    "meets_prob",
    "meets_latency_mean",
)


def _goal_grid() -> list[Goal]:
    """Every structural variant of the goal grammar, at several scales."""
    goals: list[Goal] = []
    for deadline in (0.04, 0.18, 0.7):
        for prob in (None, 0.9, 0.999):
            goals.append(
                Goal(
                    objective=ObjectiveKind.MINIMIZE_ENERGY,
                    deadline_s=deadline,
                    accuracy_min=0.9,
                    prob_threshold=prob,
                )
            )
            goals.append(
                Goal(
                    objective=ObjectiveKind.MAXIMIZE_ACCURACY,
                    deadline_s=deadline,
                    energy_budget_j=7.0,
                    prob_threshold=prob,
                )
            )
    # Explicit period, joint constraints, unreachable floor, tiny budget.
    goals.append(
        Goal(
            objective=ObjectiveKind.MAXIMIZE_ACCURACY,
            deadline_s=0.3,
            period_s=0.5,
            energy_budget_j=25.0,
            accuracy_min=0.85,
            prob_threshold=0.95,
        )
    )
    goals.append(
        Goal(
            objective=ObjectiveKind.MINIMIZE_ENERGY,
            deadline_s=0.25,
            accuracy_min=0.999,
        )
    )
    goals.append(
        Goal(
            objective=ObjectiveKind.MAXIMIZE_ACCURACY,
            deadline_s=0.15,
            energy_budget_j=0.5,
        )
    )
    # Impossible deadline: exercises the best-effort latency stage.
    goals.append(
        Goal(
            objective=ObjectiveKind.MINIMIZE_ENERGY,
            deadline_s=1e-4,
            accuracy_min=0.9,
        )
    )
    return goals


def _random_states(n: int, seed: int) -> list[tuple]:
    rng = np.random.default_rng(seed)
    states = []
    for _ in range(n):
        xi_mean = float(rng.uniform(0.6, 3.0))
        xi_sigma = float(rng.choice([1e-6, rng.uniform(0.01, 0.6)]))
        phi = float(rng.choice([rng.uniform(0.05, 0.95), 1.05, 1.4]))
        if rng.random() < 0.3:
            tail = None
        elif rng.random() < 0.5:
            tail = (0.0, 1.0)  # inactive tail
        else:
            tail = (float(rng.uniform(0.01, 0.1)), float(rng.uniform(1.2, 3.0)))
        states.append((xi_mean, xi_sigma, phi, tail))
    return states


def _candidates(kind: str, image_models) -> list:
    """The mixed space, ALERT-Trad's and Sys-only's candidate models."""
    traditional = [m for m in image_models if not isinstance(m, AnytimeDnn)]
    if kind == "standard":
        return image_models
    if kind == "trad":
        return traditional
    return [min(traditional, key=lambda m: m.base_latency_s)]


@pytest.fixture(
    params=[
        (True, "standard"),
        (False, "standard"),
        (True, "trad"),
        (False, "trad"),
        (True, "one_model"),
        (False, "one_model"),
    ],
    ids=[
        "variance",
        "mean_only",
        "variance-trad",
        "mean_only-trad",
        "variance-one_model",
        "mean_only-one_model",
    ],
)
def paths(request, cpu1_profile, image_models):
    variance_aware, kind = request.param
    space = ConfigurationSpace(
        _candidates(kind, image_models), list(cpu1_profile.powers)
    )
    estimator = AlertEstimator(cpu1_profile, variance_aware=variance_aware)
    selector = ConfigSelector(space, estimator)
    return space, estimator, selector


# ----------------------------------------------------------------------
# The vectorized normal CDF
# ----------------------------------------------------------------------
def test_normal_cdf_array_matches_math_erf():
    xs = np.concatenate(
        [
            np.linspace(-40.0, 40.0, 4001),
            np.array([0.0, 1.0, -1.0, 6.5, -6.5, 1e9, -1e9]),
        ]
    )
    got = normal_cdf_array(xs)
    ref = np.array([normal_cdf(float(x)) for x in xs])
    assert np.max(np.abs(got - ref)) <= 1e-12
    # Saturation must be exact so tie-breaks cannot diverge.
    assert normal_cdf_array(np.array([50.0]))[0] == 1.0
    assert normal_cdf_array(np.array([-50.0]))[0] == 0.0


def _erf_clip_fill_reference(x: np.ndarray) -> np.ndarray:
    """The erf kernel as first written: ``np.clip`` and a filled Horner."""

    def polevl(v, coeffs):
        result = np.full_like(v, coeffs[0])
        for c in coeffs[1:]:
            result *= v
            result += c
        return result

    x = np.clip(np.asarray(x, dtype=np.float64), -6.5, 6.5)
    a = np.abs(x)
    z = x * x
    small_mask = a < 1.0
    small = x * polevl(z, be._ERF_T) / be._p1evl(z, be._ERF_U)
    erfc = np.exp(-z) * (polevl(a, be._ERFC_P) / be._p1evl(a, be._ERFC_Q))
    large = np.sign(x) * (1.0 - erfc)
    return np.where(small_mask, small, large)


def test_erf_kernel_bit_identical_to_clip_fill_reference():
    specials = np.array(
        [np.inf, -np.inf, 6.5, -6.5, 1.0, -1.0, 0.0, -0.0, 1e9, -1e9]
    )
    grid = np.concatenate([np.linspace(-9.0, 9.0, 2001), specials])
    rng = np.random.default_rng(5)
    inputs = [grid, specials]
    # Decision-sized calls (143-300 elements) on every branch mix:
    # all |x| < 1, all |x| >= 1, and both.
    for size in (143, 300):
        inputs.append(rng.uniform(-0.99, 0.99, size))
        inputs.append(rng.uniform(1.0, 7.0, size) * rng.choice([-1, 1], size))
        inputs.append(rng.uniform(-7.0, 7.0, size))
    for x in inputs:
        got = be._erf_array(x)
        want = _erf_clip_fill_reference(x)
        assert np.array_equal(got.view(np.uint64), want.view(np.uint64))


def test_erf_saturation_matches_math():
    # The clip point must agree with math.erf's own rounding to +/-1.
    for x in (6.5, 7.0, 10.0, 1e6):
        assert math.erf(x) == 1.0
        assert math.erf(-x) == -1.0


# ----------------------------------------------------------------------
# Estimate-level parity
# ----------------------------------------------------------------------
def test_estimates_match_scalar_reference(paths):
    space, estimator, selector = paths
    batch = selector.batch
    assert isinstance(batch, BatchAlertEstimator)
    states = _random_states(6, seed=2020)
    for goal in _goal_grid():
        for xi_mean, xi_sigma, phi, tail in states:
            planes = batch.estimate_batch(goal, xi_mean, xi_sigma, phi, tail)
            assert batch.configs == tuple(space)
            for i, config in enumerate(space):
                want = estimator.estimate(
                    config, goal, xi_mean, xi_sigma, phi, tail
                )
                for name in FIELD_NAMES:
                    assert planes[name][i] == pytest.approx(
                        getattr(want, name), abs=PARITY_TOL
                    ), (name, config.describe(), goal.describe())
                for name in FLAG_NAMES:
                    assert planes[name][i] == getattr(want, name), (
                        name,
                        config.describe(),
                        goal.describe(),
                    )


def test_phi_above_one_energy_corner(paths):
    """The degenerate idle-power regime of the energy CDF."""
    space, estimator, selector = paths
    goal = Goal(
        objective=ObjectiveKind.MAXIMIZE_ACCURACY,
        deadline_s=0.2,
        energy_budget_j=5.0,
        prob_threshold=0.9,
    )
    for phi in (1.0 - 1e-13, 1.0, 1.05, 1.5):
        planes = selector.batch.estimate_batch(goal, 1.2, 0.15, phi, None)
        for i, config in enumerate(space):
            want = estimator.estimate(config, goal, 1.2, 0.15, phi, None)
            assert planes["expected_energy_j"][i] == pytest.approx(
                want.expected_energy_j, abs=PARITY_TOL
            )
            assert planes["meets_energy"][i] == want.meets_energy
            assert planes["meets_prob"][i] == want.meets_prob


def test_phi_exactly_one_huge_budget_always_met(paths):
    """phi == 1.0 with an effectively unlimited budget: the in-window
    energy is constant, so every configuration must meet the budget
    (regression for the -inf crossing boundary in both paths)."""
    space, estimator, selector = paths
    goal = Goal(
        objective=ObjectiveKind.MAXIMIZE_ACCURACY,
        deadline_s=0.2,
        energy_budget_j=1e9,
    )
    planes = selector.batch.estimate_batch(goal, 1.2, 0.15, 1.0, None)
    assert bool(np.all(planes["meets_energy"]))
    for config in space:
        want = estimator.estimate(config, goal, 1.2, 0.15, 1.0, None)
        assert want.meets_energy


# ----------------------------------------------------------------------
# Selection-level parity
# ----------------------------------------------------------------------
def test_selection_identical_across_paths(paths):
    _, _, selector = paths
    states = _random_states(8, seed=777)
    relaxations_seen = set()
    for goal in _goal_grid():
        for xi_mean, xi_sigma, phi, tail in states:
            fast = selector.select(goal, xi_mean, xi_sigma, phi, tail)
            ref = selector.select_scalar(goal, xi_mean, xi_sigma, phi, tail)
            context = (goal.describe(), xi_mean, xi_sigma, phi, tail)
            assert fast.config.key == ref.config.key, context
            assert fast.relaxation == ref.relaxation, context
            assert fast.feasible == ref.feasible, context
            assert fast.n_candidates == ref.n_candidates, context
            assert fast.n_feasible == ref.n_feasible, context
            for name in FIELD_NAMES:
                assert getattr(fast.estimate, name) == pytest.approx(
                    getattr(ref.estimate, name), abs=PARITY_TOL
                ), (name, context)
            relaxations_seen.add(fast.relaxation)
    # The grid must actually exercise the fallback hierarchy.
    assert None in relaxations_seen
    assert relaxations_seen & {"constraint", "probability", "latency"}


def test_fresh_goal_per_decision_matches_scalar(cpu1_profile, image_models):
    """Width-1 selections where every decision gets a fresh goal, as a
    sentence's words do.  Each goal is dropped after use, so CPython
    recycles ids: a per-goal cache keyed on ``id`` must never answer a
    new goal with a dropped goal's plan."""
    space = ConfigurationSpace(image_models, list(cpu1_profile.powers))
    selector = ConfigSelector(space, AlertEstimator(cpu1_profile))
    rng = np.random.default_rng(31)
    states = _random_states(4, seed=31)
    ids = []
    for step in range(400):
        deadline = float(rng.uniform(0.03, 0.8))
        prob = None if step % 3 else 0.9
        if step % 2:
            goal = Goal(
                objective=ObjectiveKind.MINIMIZE_ENERGY,
                deadline_s=deadline,
                accuracy_min=float(rng.uniform(0.8, 0.99)),
                prob_threshold=prob,
            )
        else:
            goal = Goal(
                objective=ObjectiveKind.MAXIMIZE_ACCURACY,
                deadline_s=deadline,
                energy_budget_j=float(rng.uniform(0.5, 20.0)),
                prob_threshold=prob,
            )
        ids.append(id(goal))
        xi_mean, xi_sigma, phi, tail = states[step % len(states)]
        fast = selector.select(goal, xi_mean, xi_sigma, phi, tail)
        ref = selector.select_scalar(goal, xi_mean, xi_sigma, phi, tail)
        context = (step, goal.describe())
        assert fast.config is ref.config, context
        assert fast.relaxation == ref.relaxation, context
        for name in FIELD_NAMES:
            assert getattr(fast.estimate, name) == pytest.approx(
                getattr(ref.estimate, name), abs=PARITY_TOL
            ), (name, context)
        del goal
    # The run must actually have handed out recycled ids.
    assert len(set(ids)) < len(ids)


# ----------------------------------------------------------------------
# The kernel's exact per-belief selection cache
# ----------------------------------------------------------------------
def _count_selects(monkeypatch, kernel) -> list:
    """Record every ``select`` the kernel's selector runs."""
    calls = []
    real = kernel.selector.select

    def counting(*args, **kwargs):
        calls.append(args)
        return real(*args, **kwargs)

    monkeypatch.setattr(kernel.selector, "select", counting)
    return calls


def _fresh_selection(kernel, goal):
    """``select`` under the adjusted goal and the exact current belief."""
    slowdown = kernel.slowdown
    xi_mean, xi_sigma = slowdown.snapshot()
    adjusted = goal.with_deadline(
        max(1e-6, goal.deadline_s - kernel.overhead_s)
    )
    return kernel.selector.select(
        adjusted,
        xi_mean,
        xi_sigma,
        kernel.idle_filter.phi,
        tail=(slowdown.tail_fraction, slowdown.tail_ratio),
    )


def test_repeated_decide_reuses_one_select(cpu1_profile, monkeypatch):
    kernel = AlertKernel(cpu1_profile)
    calls = _count_selects(monkeypatch, kernel)
    goal = Goal(
        objective=ObjectiveKind.MINIMIZE_ENERGY,
        deadline_s=0.4,
        accuracy_min=0.9,
    )
    first = kernel.decide(goal)
    second = kernel.decide(goal)  # no observe in between
    assert second is first
    assert kernel.last_selection is first
    assert len(calls) == 1


def test_sub_quantum_observe_forces_fresh_select(cpu1_profile, monkeypatch):
    """Any observation invalidates, however little it moves the belief.

    A cache keyed on the state rounded to 1e-4 would answer the second
    decide with the selection made for the previous state.
    """
    kernel = AlertKernel(cpu1_profile)
    goal = Goal(
        objective=ObjectiveKind.MINIMIZE_ENERGY,
        deadline_s=0.4,
        accuracy_min=0.9,
    )
    name, power = "sparse_resnet50_dense", 45.0
    t_prof = cpu1_profile.latency(name, power)
    for _ in range(300):  # converge the ξ filter on a steady 1.2x
        kernel.observe(Measurement(name, power, 1.2 * t_prof))

    def belief():
        slowdown = kernel.slowdown
        return (
            *slowdown.snapshot(),
            kernel.idle_filter.phi,
            slowdown.tail_fraction,
            slowdown.tail_ratio,
        )

    calls = _count_selects(monkeypatch, kernel)
    kernel.decide(goal)
    before = belief()
    kernel.observe(Measurement(name, power, 1.2 * t_prof))
    after = belief()
    assert after != before
    assert all(abs(a - b) < 1e-4 for a, b in zip(after, before))
    assert [round(v, 4) for v in after] == [round(v, 4) for v in before]

    result = kernel.decide(goal)
    assert len(calls) == 2
    assert result == _fresh_selection(kernel, goal)


def test_decide_is_exact_along_a_trajectory(cpu1_profile):
    """Every decide equals a fresh select on the exact belief state."""
    kernel = AlertKernel(cpu1_profile)
    rng = np.random.default_rng(12)
    goals = [
        Goal(
            objective=ObjectiveKind.MINIMIZE_ENERGY,
            deadline_s=0.4,
            accuracy_min=0.9,
        ),
        Goal(
            objective=ObjectiveKind.MAXIMIZE_ACCURACY,
            deadline_s=0.3,
            energy_budget_j=7.0,
            prob_threshold=0.9,
        ),
    ]
    for _ in range(200):
        # Zero to three decides per belief epoch, over both goals.
        for _ in range(int(rng.integers(0, 4))):
            goal = goals[int(rng.integers(len(goals)))]
            assert kernel.decide(goal) == _fresh_selection(kernel, goal)
        selection = kernel.decide(goals[0])
        assert selection == _fresh_selection(kernel, goals[0])
        config = selection.config
        ratio = float(rng.lognormal(0.1, 0.3))
        idle = float(rng.uniform(2.0, 8.0)) if rng.random() < 0.5 else None
        kernel.observe(
            Measurement(
                config.model.name,
                config.power_w,
                ratio * cpu1_profile.latency(config.model.name, config.power_w),
                idle,
            )
        )
