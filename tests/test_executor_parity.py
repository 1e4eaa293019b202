"""Parity suite for the run executor and the pool that runs plans.

Pins the contract of :mod:`repro.runtime.executor`: a plan's specs
share one scenario's outcome grid without changing a run's outcome,
and a plan executed across the sweep's process pool returns summaries
*bit-identical* to the same plan executed serially (common random
numbers — every run rebuilds its environment from the scenario seed).
Also pins the one planning rule,
:func:`~repro.runtime.executor.plan_cells` (one spec per scenario,
split only for idle workers and never below the lockstep width), and
covers hand-built scenarios: :func:`evaluate_schemes` serves them from
the live object, never a stock rebuild.
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
    plan_cells,
)
from repro.runtime.loop import LOCKSTEP_TELEMETRY
from repro.runtime.sweep import SweepSpec, compile_sweep, run_sweep
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
    key = ScenarioKey.of(scenario)
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


def test_scenario_key_rejects_unregistered_platform():
    """A scenario on an unregistered platform still has a key, but the
    key refuses to rebuild it, and so does a sweep naming that platform:
    only :func:`evaluate_schemes`, serving the live object, runs it."""
    scenario = build_scenario("CPU1", "image", "default", "standard", seed=3)
    custom = Scenario(
        name=scenario.name,
        machine=dataclasses.replace(scenario.machine, name="CPU1-custom"),
        task=scenario.task,
        candidates=scenario.candidates,
        env=scenario.env,
        seed=scenario.seed,
    )
    key = ScenarioKey.of(custom)
    assert key.platform == "CPU1-custom"
    with pytest.raises(ConfigurationError):
        key.build()
    with pytest.raises(ConfigurationError):
        compile_sweep(SweepSpec(platforms=(key.platform,)))
    goals = _goals(custom)
    cell = evaluate_schemes(custom, goals, ("Oracle", "ALERT"), n_inputs=6)
    stock = evaluate_schemes(scenario, goals, ("Oracle", "ALERT"), n_inputs=6)
    # Renaming the machine changes nothing it serves.
    for name in ("Oracle", "ALERT"):
        for a, b in zip(cell.scheme_runs(name), stock.scheme_runs(name)):
            _assert_runs_identical(a, b)


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
    """A scenario of 24 goals plans two lockstep-wide specs at two
    workers, so the sweep's pool starts; its summaries equal the
    serial sweep's, field for field."""
    spec = SweepSpec(
        platforms=(platform,), tasks=(task,), envs=(env,),
        schemes=("ALERT", "Oracle", "OracleStatic", "App-only"),
        settings_stride=3, n_inputs=15, seeds=(seed,),
    )
    work = [(unit.scenario, unit.goal) for unit in compile_sweep(spec)]
    assert len(plan_cells(work, spec.schemes, 15, workers=2)) == 2
    serial = run_sweep(spec, workers=1)
    pooled = run_sweep(spec, workers=2)
    assert pooled.grid_store_stats is not None  # the pool really ran
    assert pooled.cells == serial.cells


# ----------------------------------------------------------------------
# The planning rule
# ----------------------------------------------------------------------
def _work(n_scenarios, n_goals):
    keys = [
        ScenarioKey("CPU1", "image", env, seed=1)
        for env in ("default", "memory", "compute")[:n_scenarios]
    ]
    goals = [
        Goal(
            objective=ObjectiveKind.MINIMIZE_ENERGY,
            deadline_s=0.1 * (1 + g // 4),
            accuracy_min=0.5 + 0.01 * g,
        )
        for g in range(n_goals)
    ]
    return [(key, goal) for key in keys for goal in goals]


@pytest.mark.parametrize(
    ("n_scenarios", "n_goals", "workers", "widths"),
    [
        (2, 24, 1, [24, 24]),  # serial: one spec per scenario
        (2, 24, 2, [24, 24]),  # as many scenarios as workers: no split
        (3, 24, 2, [24, 24, 24]),  # never split to fill idle workers
        (1, 24, 2, [12, 12]),  # fewer scenarios than workers: split
        (1, 24, 4, [6, 6, 6, 6]),
        (1, 24, 8, [6, 6, 6, 6]),  # chunks never narrower than lockstep
        (1, 13, 2, [7, 6]),
        (1, 11, 2, [11]),  # too narrow for two lockstep chunks
        (2, 14, 4, [7, 7, 7, 7]),
        (1, 3, 4, [3]),
        (0, 24, 2, []),  # no work, no plan
    ],
)
def test_plan_cells_groups_by_scenario(n_scenarios, n_goals, workers, widths):
    work = _work(n_scenarios, n_goals)
    schemes = ("ALERT", "OracleStatic")
    plan = plan_cells(work, schemes, 10, workers=workers)
    assert [len(spec.goals) for spec, _ in plan] == widths
    covered = []
    for spec, positions in plan:
        # One scenario per spec, contiguous goals, in work order.
        assert {work[p][0] for p in positions} == {spec.scenario}
        assert positions == tuple(range(positions[0], positions[-1] + 1))
        assert spec.goals == tuple(work[p][1] for p in positions)
        assert spec.schemes == schemes
        assert spec.n_inputs == 10
        covered.extend(positions)
    assert covered == list(range(len(work)))


def test_executor_rejects_bad_configuration():
    with pytest.raises(ConfigurationError):
        run_sweep(SweepSpec(), workers=0)
    assert RunExecutor().run_plan([]) == []


# ----------------------------------------------------------------------
# Hand-built scenarios run in-process, from the live object
# ----------------------------------------------------------------------
@pytest.mark.parametrize("workers", [1, 2])
@pytest.mark.parametrize("wide", [False, True])
def test_hand_built_scenario_matches_reference(workers, wide, reference_cell):
    """A customized machine that keeps its stock name ≡ the sequential
    reference, served from the live object both by
    :func:`evaluate_schemes` and by a plan split for ``workers``
    workers (its key names the stock scenario, so a rebuild would lose
    the tweak); a wide cell still takes the lockstep path."""
    stock = build_scenario("CPU1", "image", "memory", "standard", seed=3)
    tweaked = _tweaked(stock)
    key = ScenarioKey.of(tweaked)
    assert key == ScenarioKey.of(stock)
    anchor = tweaked.anchor_latency_s()
    goals = [
        Goal(
            objective=ObjectiveKind.MINIMIZE_ENERGY,
            deadline_s=anchor * factor,
            accuracy_min=floor,
        )
        for factor in (1.0, 1.5)
        for floor in (0.8, 0.83, 0.85, 0.88, 0.9, 0.95)
    ]
    if not wide:
        goals = goals[::6]
    assert (len(goals) >= LOCKSTEP_MIN_GOALS) is wide
    schemes = ("ALERT", "Oracle", "OracleStatic", "No-coord")
    plan = plan_cells([(key, goal) for goal in goals], schemes, 10, workers)
    # Only a wide cell splits, into specs still wide enough to lockstep.
    assert len(plan) == (workers if wide else 1)
    LOCKSTEP_TELEMETRY.reset()
    cell = evaluate_schemes(tweaked, goals, schemes, n_inputs=10)
    split = RunExecutor().run_plan(
        [spec for spec, _ in plan], scenarios={key: tweaked}
    )
    # Both ran in this process (the telemetry is process-global).
    lockstep_runs = LOCKSTEP_TELEMETRY.snapshot()["lockstep_runs"]
    assert (lockstep_runs > 0) is wide
    reference = reference_cell(tweaked, goals, schemes, 10)
    for name in schemes:
        for a, b in zip(cell.scheme_runs(name), reference.scheme_runs(name)):
            _assert_runs_identical(a, b)
    for (_spec, positions), per_goal in zip(plan, split):
        for position, goal_runs in zip(positions, per_goal):
            for name, run in zip(schemes, goal_runs):
                _assert_runs_identical(run, reference.scheme_runs(name)[position])
    # The tweak shows: serving a stock rebuild could not pass.
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
