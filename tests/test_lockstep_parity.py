"""Parity suite for the lockstep multi-goal decision engine.

Pins the contract of PR 5's stacked-state machinery at every layer:

* stacked Kalman / idle-power filters ≡ scalar filters, elementwise,
  across randomized measurement sequences;
* ``BatchAlertEstimator.estimate_many`` ≡ per-state ``estimate_batch``
  (single fused erf pass, same numbers);
* ``ConfigSelector.select_many`` ≡ per-state ``select`` (segment-wise
  lexsort picks identical winners at identical fallback stages);
* lockstep-served fused cells ≡ the per-goal sequential fused path for
  ALERT-family schemes — discrete record fields exactly, float fields
  to ≤1e-12 relative — across platforms, objectives, and goal grids;
* the fallback contract: custom scheduler types and warm controllers
  must land on the sequential path, never on a wrong lockstep one.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.cli import build_parser
from repro.core.config_space import ConfigurationSpace
from repro.core.controller import AlertCellController, AlertController
from repro.core.estimator import AlertEstimator
from repro.core.goals import Goal, ObjectiveKind
from repro.core.kalman import (
    AdaptiveKalmanFilter,
    IdlePowerFilter,
    StackedIdlePowerFilter,
    StackedKalmanFilter,
)
from repro.core.selector import ConfigSelector
from repro.core.slowdown import GlobalSlowdownEstimator, StackedSlowdownEstimator
from repro.errors import ConfigurationError
from repro.experiments.harness import evaluate_schemes, make_scheme
from repro.runtime.executor import LockstepCellSpec, RunExecutor, ScenarioKey
from repro.runtime.loop import LOCKSTEP_TELEMETRY, LockstepServingLoop
from repro.runtime.scheduler import AlertScheduler
from repro.workloads.scenarios import build_scenario

#: Float tolerance of the lockstep path (the acceptance bar; in
#: practice the stacked state advances bit-identically).
REL_TOL = 1e-12

FEEDBACK_SCHEMES = ("ALERT", "ALERT*", "ALERT-Any")


# ----------------------------------------------------------------------
# Stacked filters ≡ scalar filters
# ----------------------------------------------------------------------
@pytest.mark.parametrize("seed", [0, 7, 23, 101])
def test_stacked_kalman_matches_scalar(seed):
    rng = np.random.default_rng(seed)
    n_states, n_steps = 6, 120
    scalars = [AdaptiveKalmanFilter(q0=0.1) for _ in range(n_states)]
    stacked = StackedKalmanFilter(n_states, q0=0.1)
    for _ in range(n_steps):
        measurements = rng.uniform(0.5, 3.5, size=n_states)
        for state, filt in enumerate(scalars):
            filt.update(measurements[state])
        stacked.update(measurements)
        for state, filt in enumerate(scalars):
            assert stacked.mu[state] == filt.mu
            assert stacked.var[state] == filt.var
            assert stacked.gain[state] == filt.gain
            assert stacked.process_noise[state] == filt.process_noise
            assert stacked.sigma[state] == filt.sigma


@pytest.mark.parametrize("seed", [3, 19])
def test_stacked_idle_filter_matches_scalar_with_gaps(seed):
    rng = np.random.default_rng(seed)
    n_states, n_steps = 5, 80
    phi0 = rng.uniform(0.1, 0.4, size=n_states)
    scalars = [IdlePowerFilter(phi0=p) for p in phi0]
    stacked = StackedIdlePowerFilter(phi0)
    for _ in range(n_steps):
        mask = rng.random(n_states) < 0.6
        idle = rng.uniform(1.0, 20.0, size=n_states)
        inference = rng.uniform(30.0, 90.0, size=n_states)
        for state, filt in enumerate(scalars):
            if mask[state]:
                filt.update(idle[state], inference[state])
        stacked.update_where(mask, idle, inference)
        for state, filt in enumerate(scalars):
            assert stacked.phi[state] == filt.phi
            assert stacked.variance[state] == filt.variance


@pytest.mark.parametrize("seed", [11, 47])
def test_stacked_slowdown_matches_scalar_tail_model(seed):
    rng = np.random.default_rng(seed)
    n_states, n_steps = 4, 150
    scalars = [GlobalSlowdownEstimator(q0=0.1) for _ in range(n_states)]
    stacked = StackedSlowdownEstimator(n_states, q0=0.1)
    for _ in range(n_steps):
        # Occasional large spikes so the tail EWMA engages.
        profiled = rng.uniform(0.05, 0.3, size=n_states)
        factor = np.where(
            rng.random(n_states) < 0.05,
            rng.uniform(3.0, 6.0, size=n_states),
            rng.uniform(0.8, 1.6, size=n_states),
        )
        measured = profiled * factor
        for state, est in enumerate(scalars):
            est.observe(measured[state], profiled[state])
        stacked.observe(measured, profiled)
        for state, est in enumerate(scalars):
            assert stacked.mean[state] == est.mean
            assert stacked.sigma[state] == est.sigma
            assert stacked.tail_fraction[state] == est.tail_fraction
            assert stacked.tail_ratio[state] == est.tail_ratio


# ----------------------------------------------------------------------
# Stacked estimator / selector ≡ per-state batch paths
# ----------------------------------------------------------------------
def _selector(scenario):
    profile = scenario.profile()
    space = ConfigurationSpace(
        list(scenario.candidates.models), list(profile.powers)
    )
    return ConfigSelector(space, AlertEstimator(profile))


def _random_states(rng, n_states):
    means = rng.uniform(0.7, 2.8, size=n_states)
    sigmas = np.where(
        rng.random(n_states) < 0.2,
        1e-6,
        rng.uniform(0.01, 0.5, size=n_states),
    )
    phis = rng.uniform(0.05, 0.9, size=n_states)
    tails = [
        None
        if rng.random() < 0.3
        else (float(rng.uniform(0.0, 0.08)), float(rng.uniform(1.0, 2.5)))
        for _ in range(n_states)
    ]
    return means, sigmas, phis, tails


def _goal_grid(scenario, rng, n_goals):
    anchor = scenario.anchor_latency_s()
    budget_anchor = scenario.machine.default_power() * anchor
    goals = []
    for _ in range(n_goals):
        deadline = float(anchor * rng.uniform(0.6, 2.0))
        prob = None if rng.random() < 0.5 else float(rng.uniform(0.6, 0.97))
        if rng.random() < 0.5:
            goals.append(
                Goal(
                    objective=ObjectiveKind.MINIMIZE_ENERGY,
                    deadline_s=deadline,
                    accuracy_min=float(rng.uniform(0.7, 0.97)),
                    prob_threshold=prob,
                )
            )
        else:
            goals.append(
                Goal(
                    objective=ObjectiveKind.MAXIMIZE_ACCURACY,
                    deadline_s=deadline,
                    energy_budget_j=float(
                        budget_anchor * rng.uniform(0.3, 1.5)
                    ),
                    prob_threshold=prob,
                )
            )
    return goals


@pytest.mark.parametrize(
    ("platform", "task", "seed"),
    [("CPU1", "image", 1), ("GPU", "image", 2), ("EMBEDDED", "image", 3)],
)
def test_estimate_many_matches_estimate_batch(platform, task, seed):
    scenario = build_scenario(platform, task, "default", "standard", seed=seed)
    selector = _selector(scenario)
    batch = selector.batch
    rng = np.random.default_rng(seed)
    goals = _goal_grid(scenario, rng, 10)
    means, sigmas, phis, tails = _random_states(rng, len(goals))
    stacked = batch.estimate_many(goals, means, sigmas, phis, tails)
    for state, goal in enumerate(goals):
        single = batch.estimate_batch(
            goal, means[state], sigmas[state], phis[state], tails[state]
        )
        for field in (
            "latency_mean_s",
            "deadline_probability",
            "expected_quality",
            "quality_meet_probability",
            "expected_energy_j",
        ):
            np.testing.assert_array_equal(
                getattr(stacked[state], field),
                getattr(single, field),
                err_msg=f"{platform} state {state} field {field}",
            )
        for field in (
            "meets_latency",
            "meets_accuracy",
            "meets_energy",
            "meets_prob",
            "meets_latency_mean",
        ):
            np.testing.assert_array_equal(
                np.asarray(getattr(stacked[state], field)),
                getattr(single, field),
                err_msg=f"{platform} state {state} field {field}",
            )


@pytest.mark.parametrize("seed", [5, 13, 37, 61])
def test_select_many_matches_select(seed):
    scenario = build_scenario("CPU1", "image", "default", "standard", seed=7)
    selector = _selector(scenario)
    rng = np.random.default_rng(seed)
    goals = _goal_grid(scenario, rng, 12)
    means, sigmas, phis, tails = _random_states(rng, len(goals))
    stacked = selector.select_many(goals, means, sigmas, phis, tails)
    for state, goal in enumerate(goals):
        single = selector.select(
            goal, means[state], sigmas[state], phis[state], tails[state]
        )
        assert stacked[state].config is single.config, state
        assert stacked[state].feasible == single.feasible
        assert stacked[state].relaxation == single.relaxation
        assert stacked[state].n_candidates == single.n_candidates
        assert stacked[state].n_feasible == single.n_feasible
        assert (
            stacked[state].estimate.expected_energy_j
            == single.estimate.expected_energy_j
        )


# ----------------------------------------------------------------------
# Lockstep fused cells ≡ per-goal sequential fused cells
# ----------------------------------------------------------------------
FLOAT_FIELDS = (
    "latency_s",
    "full_latency_s",
    "quality",
    "metric_value",
    "energy_j",
    "inference_power_w",
    "idle_power_w",
    "env_factor",
)
DISCRETE_FIELDS = (
    "index",
    "model_name",
    "power_cap_w",
    "effective_cap_w",
    "met_deadline",
    "completed_rungs",
    "deadline_s",
    "period_s",
)


def _assert_runs_match(lockstep_cell, sequential_cell, schemes):
    assert lockstep_cell.goals == sequential_cell.goals
    for name in schemes:
        pairs = zip(
            lockstep_cell.scheme_runs(name), sequential_cell.scheme_runs(name)
        )
        for a, b in pairs:
            assert a.scheduler_name == b.scheduler_name
            assert len(a.records) == len(b.records)
            for ra, rb in zip(a.records, b.records):
                for field in DISCRETE_FIELDS:
                    assert getattr(ra.outcome, field) == getattr(
                        rb.outcome, field
                    ), (name, field)
                for field in FLOAT_FIELDS:
                    assert getattr(ra.outcome, field) == pytest.approx(
                        getattr(rb.outcome, field), rel=REL_TOL, abs=0.0
                    ), (name, field)
                assert ra.goal == rb.goal
                assert ra.effective_deadline_s == rb.effective_deadline_s
                assert ra.latency_violation == rb.latency_violation
                assert ra.accuracy_violation == rb.accuracy_violation
                assert ra.energy_violation == rb.energy_violation
                assert (ra.xi_mean, ra.xi_sigma) == pytest.approx(
                    (rb.xi_mean, rb.xi_sigma), rel=REL_TOL, abs=0.0
                )


def _grid_goals(scenario, objective):
    anchor = scenario.anchor_latency_s()
    if objective is ObjectiveKind.MINIMIZE_ENERGY:
        return [
            Goal(objective=objective, deadline_s=anchor * f, accuracy_min=q)
            for f in (1.0, 1.5)
            for q in (0.85, 0.9, 0.95)
        ]
    budget = scenario.machine.default_power() * anchor * 0.6
    return [
        Goal(objective=objective, deadline_s=anchor * f, energy_budget_j=b)
        for f in (1.0, 1.5)
        for b in (budget, budget * 1.5)
    ]


@pytest.mark.parametrize(
    ("platform", "task", "env", "seed"),
    [
        ("CPU1", "image", "default", 5),
        ("CPU2", "image", "memory", 17),
        ("GPU", "image", "compute", 23),
        ("CPU1", "sentence", "compute", 29),
        ("EMBEDDED", "image", "memory", 41),
    ],
)
@pytest.mark.parametrize(
    "objective",
    [ObjectiveKind.MINIMIZE_ENERGY, ObjectiveKind.MAXIMIZE_ACCURACY],
)
def test_lockstep_matches_sequential(platform, task, env, seed, objective):
    scenario = build_scenario(platform, task, env, "standard", seed=seed)
    goals = _grid_goals(scenario, objective)
    lockstep = evaluate_schemes(
        scenario, goals, FEEDBACK_SCHEMES, n_inputs=16, fuse_cells=True
    )
    sequential = evaluate_schemes(
        scenario, goals, FEEDBACK_SCHEMES, n_inputs=16, fuse_cells=True,
        lockstep=False,
    )
    _assert_runs_match(lockstep, sequential, FEEDBACK_SCHEMES)


def test_lockstep_pool_bit_identical_to_serial(image_scenario):
    goals = _grid_goals(image_scenario, ObjectiveKind.MINIMIZE_ENERGY)
    serial = evaluate_schemes(
        image_scenario, goals, FEEDBACK_SCHEMES, n_inputs=12, fuse_cells=True
    )
    pooled = evaluate_schemes(
        image_scenario, goals, FEEDBACK_SCHEMES, n_inputs=12, fuse_cells=True,
        workers=2,
    )
    for name in FEEDBACK_SCHEMES:
        for a, b in zip(serial.scheme_runs(name), pooled.scheme_runs(name)):
            for ra, rb in zip(a.records, b.records):
                assert ra == rb  # frozen dataclasses: bit-identity


def test_lockstep_zoo_cell_matches_per_goal_cellspec(image_scenario):
    """The whole Table 4 zoo through one lockstep grid cell."""
    schemes = ("ALERT", "ALERT-Any", "Sys-only", "App-only", "Oracle")
    goals = _grid_goals(image_scenario, ObjectiveKind.MINIMIZE_ENERGY)
    lockstep = evaluate_schemes(
        image_scenario, goals, schemes, n_inputs=12, fuse_cells=True
    )
    per_goal = evaluate_schemes(
        image_scenario, goals, schemes, n_inputs=12, fuse_cells=True,
        lockstep=False,
    )
    _assert_runs_match(lockstep, per_goal, schemes)


def test_lockstep_never_calls_engine_run(image_scenario, monkeypatch):
    from repro.models.inference import InferenceEngine

    calls = []
    real = InferenceEngine.run

    def counting(self, *args, **kwargs):
        calls.append(args)
        return real(self, *args, **kwargs)

    monkeypatch.setattr(InferenceEngine, "run", counting)
    goals = _grid_goals(image_scenario, ObjectiveKind.MINIMIZE_ENERGY)[:3]
    evaluate_schemes(
        image_scenario, goals, ("ALERT", "ALERT*"), n_inputs=15,
        fuse_cells=True,
    )
    assert calls == []


def test_lockstep_telemetry_counts(image_scenario):
    goals = _grid_goals(image_scenario, ObjectiveKind.MINIMIZE_ENERGY)
    LOCKSTEP_TELEMETRY.reset()
    evaluate_schemes(
        image_scenario, goals, ("ALERT", "Oracle"), n_inputs=10,
        fuse_cells=True,
    )
    snapshot = LOCKSTEP_TELEMETRY.snapshot()
    assert snapshot["lockstep_cells"] == 1
    assert snapshot["lockstep_runs"] == len(goals)
    assert snapshot["fallback_runs"] == len(goals)  # Oracle runs per goal
    assert snapshot["stacked_calls"] >= 1
    assert snapshot["stacked_states"] >= snapshot["stacked_calls"]


# ----------------------------------------------------------------------
# Fallback contract
# ----------------------------------------------------------------------
class _CustomAlert(AlertScheduler):
    """A subclass must never be stacked (it may override behaviour)."""


def test_custom_scheduler_type_refuses_lockstep(image_scenario):
    engine = image_scenario.make_engine()
    stream = image_scenario.make_stream()
    goals = _grid_goals(image_scenario, ObjectiveKind.MINIMIZE_ENERGY)[:2]
    profile = image_scenario.profile()
    schedulers = [
        _CustomAlert(AlertController(profile=profile)) for _ in goals
    ]
    assert (
        LockstepServingLoop.for_schedulers(
            engine, stream, schedulers, goals, [None] * len(goals)
        )
        is None
    )


def test_warm_controller_refuses_stacking(image_scenario):
    profile = image_scenario.profile()
    fresh = AlertController(profile=profile)
    warm = AlertController(profile=profile)
    model = list(profile.models)[0]
    power = list(profile.powers)[0]
    warm.observe(model.name, power, 0.2)
    assert AlertCellController.from_controllers([fresh, warm]) is None
    assert AlertCellController.from_controllers([]) is None


def test_history_keeping_controllers_refuse_stacking(image_scenario):
    """A ξ-trace consumer must stay sequential, keeping its history."""
    profile = image_scenario.profile()
    keepers = [
        AlertController(profile=profile, keep_xi_history=True)
        for _ in range(2)
    ]
    assert AlertCellController.from_controllers(keepers) is None


def test_mismatched_spaces_refuse_stacking(image_scenario):
    profile = image_scenario.profile()
    full = AlertController(profile=profile)
    reduced = AlertController(
        profile=profile, models=[list(profile.models)[0]]
    )
    assert AlertCellController.from_controllers([full, reduced]) is None


def test_mismatched_profiles_refuse_stacking():
    """Distinct ProfileTables over the same models must not stack —
    the cell would silently serve every goal from the first one."""
    from repro.hw.machine import CPU1
    from repro.models.families import sparse_resnet_family
    from repro.models.profiles import Profiler

    models = list(sparse_resnet_family())
    first = AlertController(profile=Profiler(CPU1).analytic(models))
    second = AlertController(profile=Profiler(CPU1).analytic(models))
    assert AlertCellController.from_controllers([first, second]) is None


def test_lockstep_factory_built_cell_matches_direct_loop(image_scenario):
    """for_schedulers over make_scheme products serves like ServingLoop."""
    goals = _grid_goals(image_scenario, ObjectiveKind.MINIMIZE_ENERGY)[:3]
    engine = image_scenario.make_engine()
    stream = image_scenario.make_stream()
    schedulers = [
        make_scheme("ALERT", image_scenario, engine, stream, goal, 10)
        for goal in goals
    ]
    lock = LockstepServingLoop.for_schedulers(
        engine, stream, schedulers, goals, [None] * len(goals)
    )
    assert lock is not None
    runs = lock.run(10)
    for goal, run in zip(goals, runs):
        reference_engine = image_scenario.make_engine()
        reference_stream = image_scenario.make_stream()
        scheduler = make_scheme(
            "ALERT", image_scenario, reference_engine, reference_stream,
            goal, 10,
        )
        from repro.runtime.loop import ServingLoop

        reference = ServingLoop(
            reference_engine, reference_stream, scheduler, goal
        ).run(10)
        for ra, rb in zip(run.records, reference.records):
            assert ra == rb


# ----------------------------------------------------------------------
# Spec plumbing and CLI
# ----------------------------------------------------------------------
def test_lockstep_cellspec_validation():
    key = ScenarioKey("CPU1", "image", "default")
    goal = Goal(
        objective=ObjectiveKind.MINIMIZE_ENERGY, deadline_s=0.1,
        accuracy_min=0.9,
    )
    with pytest.raises(ConfigurationError):
        LockstepCellSpec(
            scenario=key, goals=(), schemes=("ALERT",), n_inputs=5
        )
    with pytest.raises(ConfigurationError):
        LockstepCellSpec(
            scenario=key, goals=(goal,), schemes=(), n_inputs=5
        )
    with pytest.raises(ConfigurationError):
        LockstepCellSpec(
            scenario=key, goals=(goal,), schemes=("ALERT",), n_inputs=0
        )
    spec = LockstepCellSpec(
        scenario=key, goals=[goal], schemes=["ALERT"], n_inputs=5
    )
    assert spec.goals == (goal,)
    assert spec.schemes == ("ALERT",)


def test_lockstep_cellspec_results_align(image_scenario):
    key = ScenarioKey.for_scenario(image_scenario)
    assert key is not None
    goals = tuple(_grid_goals(image_scenario, ObjectiveKind.MINIMIZE_ENERGY)[:2])
    schemes = ("ALERT", "Oracle")
    spec = LockstepCellSpec(
        scenario=key, goals=goals, schemes=schemes, n_inputs=8
    )
    (results,) = RunExecutor(workers=1).run_plan(
        [spec], scenarios={key: image_scenario}
    )
    assert len(results) == len(goals)
    for per_goal, goal in zip(results, goals):
        assert [r.scheduler_name for r in per_goal] == list(schemes)
        assert all(r.goal == goal for r in per_goal)


def test_lockstep_true_demands_fusion_and_importable_factory(image_scenario):
    goals = _grid_goals(image_scenario, ObjectiveKind.MINIMIZE_ENERGY)[:1]
    with pytest.raises(ConfigurationError):
        evaluate_schemes(
            image_scenario, goals, ("ALERT",), n_inputs=5,
            fuse_cells=False, lockstep=True,
        )

    def closure_factory(name, scenario, engine, stream, goal, n_inputs):
        return make_scheme(name, scenario, engine, stream, goal, n_inputs)

    with pytest.raises(ConfigurationError):
        evaluate_schemes(
            image_scenario, goals, ("ALERT",), n_inputs=5,
            scheme_factory=closure_factory, lockstep=True,
        )


@pytest.mark.parametrize("command", ["table4", "table5", "fig08"])
def test_cli_lockstep_flags(command):
    parser = build_parser()
    assert parser.parse_args([command]).lockstep is None
    assert parser.parse_args([command, "--no-lockstep"]).lockstep is False
    assert parser.parse_args([command, "--lockstep"]).lockstep is True
