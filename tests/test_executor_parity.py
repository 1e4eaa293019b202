"""Parity suite for the run executor.

Pins the contract of :mod:`repro.runtime.executor`: a plan executed
across a process pool must return results *bit-identical* to the same
plan executed serially (common random numbers — every run rebuilds its
environment from the scenario seed), and the per-timing oracle grid
cache must never change a run's outcome.  Also covers hand-built
scenarios that a worker cannot rebuild from their key: they run
in-process from the live object, whatever ``workers`` asks for.
"""

from __future__ import annotations

import dataclasses
import importlib.util
import pickle
from pathlib import Path

import pytest

import repro.baselines.oracle as oracle_module
from repro.core.goals import Goal, ObjectiveKind
from repro.errors import ConfigurationError
from repro.experiments.harness import evaluate_schemes
from repro.runtime.executor import (
    LOCKSTEP_MIN_GOALS,
    CellSpec,
    RunExecutor,
    ScenarioKey,
)
from repro.runtime.loop import LOCKSTEP_TELEMETRY
from repro.workloads.scenarios import Scenario, build_scenario


def _goals(scenario, objective=ObjectiveKind.MINIMIZE_ENERGY):
    anchor = scenario.anchor_latency_s()
    if objective is ObjectiveKind.MINIMIZE_ENERGY:
        return [
            Goal(objective=objective, deadline_s=anchor, accuracy_min=0.9),
            Goal(objective=objective, deadline_s=anchor * 1.5, accuracy_min=0.85),
        ]
    budget = scenario.machine.default_power() * anchor * 0.6
    return [
        Goal(objective=objective, deadline_s=anchor, energy_budget_j=budget),
    ]


def _spec_plan(key, goals, schemes, n_inputs):
    return [
        CellSpec(scenario=key, goals=(goal,), schemes=schemes, n_inputs=n_inputs)
        for goal in goals
    ]


def _assert_runs_identical(a, b):
    assert a.scheduler_name == b.scheduler_name
    assert a.goal == b.goal
    assert len(a.records) == len(b.records)
    for ra, rb in zip(a.records, b.records):
        # ServedInput and InferenceOutcome are (frozen) dataclasses:
        # equality compares every field, so this pins bit-identity.
        assert ra == rb


# ----------------------------------------------------------------------
# Spec plumbing
# ----------------------------------------------------------------------
def test_cellspec_is_picklable():
    key = ScenarioKey("CPU1", "image", "memory")
    goal = Goal(
        objective=ObjectiveKind.MINIMIZE_ENERGY, deadline_s=0.1, accuracy_min=0.9
    )
    spec = CellSpec(scenario=key, goals=(goal,), schemes=("Oracle",), n_inputs=10)
    clone = pickle.loads(pickle.dumps(spec))
    assert clone == spec


def test_scenario_key_roundtrip():
    scenario = build_scenario("CPU2", "sentence", "compute", "trad", seed=77)
    key = ScenarioKey.for_scenario(scenario)
    assert key is not None
    rebuilt = key.build()
    assert rebuilt.name == scenario.name
    assert rebuilt.seed == scenario.seed
    # The rebuilt scenario draws the same environment and inputs.
    assert [
        rebuilt.make_stream().item(i).work_factor for i in range(5)
    ] == [scenario.make_stream().item(i).work_factor for i in range(5)]


def _tweaked(stock):
    """``stock`` with a customized machine that keeps the stock name."""
    return Scenario(
        name=stock.name,
        machine=dataclasses.replace(stock.machine, peak_power_w=21.0),
        task=stock.task,
        candidates=stock.candidates,
        env=stock.env,
        seed=stock.seed,
    )


def test_scenario_key_rejects_customized_stock_platform():
    """Regression: a tweaked MachineSpec reusing a stock name must not
    round-trip — a worker would silently rebuild the stock machine."""
    stock = build_scenario("CPU1", "image", "memory", "standard", seed=3)
    tweaked = _tweaked(stock)
    assert ScenarioKey.for_scenario(stock) is not None
    assert ScenarioKey.for_scenario(tweaked) is None
    # It still has a name: the stock key it would wrongly rebuild as.
    assert ScenarioKey.of(tweaked) == ScenarioKey.for_scenario(stock)


def test_scenario_key_rejects_unregistered_platform():
    scenario = build_scenario("CPU1", "image", "default", "standard", seed=3)
    custom = Scenario(
        name=scenario.name,
        machine=dataclasses.replace(scenario.machine, name="CPU1-custom"),
        task=scenario.task,
        candidates=scenario.candidates,
        env=scenario.env,
        seed=scenario.seed,
    )
    assert ScenarioKey.for_scenario(custom) is None


# ----------------------------------------------------------------------
# Parallel execution is bit-identical to serial
# ----------------------------------------------------------------------
@pytest.mark.parametrize(
    ("platform", "task", "env", "seed"),
    [
        ("CPU1", "image", "default", 5),
        ("CPU2", "image", "memory", 17),
        ("CPU1", "sentence", "compute", 29),
    ],
)
def test_parallel_plan_bit_identical_to_serial(platform, task, env, seed):
    scenario = build_scenario(platform, task, env, "standard", seed=seed)
    key = ScenarioKey.for_scenario(scenario)
    assert key is not None
    schemes = ("ALERT", "Oracle", "OracleStatic", "App-only")
    plan = _spec_plan(key, _goals(scenario), schemes, n_inputs=15)

    serial = RunExecutor(workers=1).run_plan(plan, scenarios={key: scenario})
    pooled = RunExecutor(workers=2).run_plan(plan)
    assert len(serial) == len(pooled) == len(plan)
    for (runs_a,), (runs_b,) in zip(serial, pooled):
        for a, b in zip(runs_a, runs_b):
            _assert_runs_identical(a, b)


def test_evaluate_schemes_workers_bit_identical(image_scenario):
    goals = _goals(image_scenario, ObjectiveKind.MAXIMIZE_ACCURACY)
    schemes = ("ALERT", "Oracle", "OracleStatic")
    one = evaluate_schemes(image_scenario, goals, schemes, n_inputs=12)
    two = evaluate_schemes(
        image_scenario, goals, schemes, n_inputs=12, workers=2
    )
    assert one.goals == two.goals
    for name in schemes:
        for a, b in zip(one.scheme_runs(name), two.scheme_runs(name)):
            _assert_runs_identical(a, b)


def test_executor_rejects_bad_configuration():
    with pytest.raises(ConfigurationError):
        RunExecutor(workers=0)
    assert RunExecutor(workers=1).run_plan([]) == []


# ----------------------------------------------------------------------
# Hand-built scenarios run in-process, from the live object
# ----------------------------------------------------------------------
@pytest.mark.parametrize("workers", [1, 2])
@pytest.mark.parametrize("wide", [False, True])
def test_hand_built_scenario_matches_reference(workers, wide, reference_cell):
    """A scenario its key cannot rebuild ≡ the sequential reference at
    any ``workers``; a wide cell still takes the lockstep path."""
    stock = build_scenario("CPU1", "image", "memory", "standard", seed=3)
    tweaked = _tweaked(stock)
    assert ScenarioKey.for_scenario(tweaked) is None
    anchor = tweaked.anchor_latency_s()
    goals = [
        Goal(
            objective=ObjectiveKind.MINIMIZE_ENERGY,
            deadline_s=anchor * factor,
            accuracy_min=floor,
        )
        for factor in (1.0, 1.5)
        for floor in (0.85, 0.9, 0.95)
    ]
    if not wide:
        goals = goals[::3]
    assert (len(goals) >= LOCKSTEP_MIN_GOALS) is wide
    schemes = ("ALERT", "Oracle", "OracleStatic", "No-coord")
    LOCKSTEP_TELEMETRY.reset()
    cell = evaluate_schemes(
        tweaked, goals, schemes, n_inputs=10, workers=workers
    )
    # The cell ran in this process (the telemetry is process-global).
    lockstep_runs = LOCKSTEP_TELEMETRY.snapshot()["lockstep_runs"]
    assert (lockstep_runs > 0) is wide
    reference = reference_cell(tweaked, goals, schemes, 10)
    for name in schemes:
        for a, b in zip(cell.scheme_runs(name), reference.scheme_runs(name)):
            _assert_runs_identical(a, b)
    # The tweak shows: a worker-side stock rebuild could not pass.
    stock_cell = evaluate_schemes(stock, goals, schemes, n_inputs=10)
    assert any(
        a.records != b.records
        for name in schemes
        for a, b in zip(cell.scheme_runs(name), stock_cell.scheme_runs(name))
    )


def test_image_serving_example_prints_every_scheme(capsys):
    """``examples/image_serving_comparison.py`` serves its cell through
    :func:`evaluate_schemes` and prints one row per scheme, in order."""
    path = (
        Path(__file__).resolve().parent.parent
        / "examples"
        / "image_serving_comparison.py"
    )
    spec = importlib.util.spec_from_file_location(
        "image_serving_comparison_example", path
    )
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    module.main()
    rows = [
        line.split("|")[0].strip()
        for line in capsys.readouterr().out.splitlines()
        if "|" in line
    ]
    assert rows == ["scheme", *module.SCHEMES]


# ----------------------------------------------------------------------
# Grid sharing: one grid per timing
# ----------------------------------------------------------------------
def test_goals_sharing_timing_share_one_grid(image_scenario, monkeypatch):
    anchor = image_scenario.anchor_latency_s()
    goals = [
        Goal(
            objective=ObjectiveKind.MINIMIZE_ENERGY,
            deadline_s=anchor,
            accuracy_min=floor,
        )
        for floor in (0.85, 0.90, 0.95)
    ]
    calls = []
    real = oracle_module.oracle_outcome_grid

    def counting(*args, **kwargs):
        calls.append(args)
        return real(*args, **kwargs)

    monkeypatch.setattr(oracle_module, "oracle_outcome_grid", counting)
    evaluate_schemes(
        image_scenario, goals, ("Oracle", "OracleStatic"), n_inputs=10
    )
    # Three goals, one shared deadline/period: one grid build.
    assert len(calls) == 1


def test_shared_grid_does_not_change_runs(image_scenario, reference_cell):
    goal = _goals(image_scenario)[0]
    schemes = ("Oracle", "OracleStatic")
    shared = evaluate_schemes(image_scenario, [goal], schemes, n_inputs=12)
    isolated = reference_cell(image_scenario, [goal], schemes, 12)
    for name in schemes:
        for a, b in zip(shared.scheme_runs(name), isolated.scheme_runs(name)):
            assert a.scheduler_name == b.scheduler_name
            assert [r.outcome.model_name for r in a.records] == [
                r.outcome.model_name for r in b.records
            ]
            assert [r.outcome.power_cap_w for r in a.records] == [
                r.outcome.power_cap_w for r in b.records
            ]
            assert a.violation_fraction == b.violation_fraction
            assert a.mean_energy_j == pytest.approx(
                b.mean_energy_j, rel=1e-12
            )
