"""Parity suite for the run executor.

Pins the contract of :mod:`repro.runtime.executor`: a plan executed
across a process pool must return results *bit-identical* to the same
plan executed serially (common random numbers — every run rebuilds its
environment from the scenario seed), and the per-timing oracle grid
cache must never change a run's outcome.  Also covers the grid
handoff of :func:`repro.experiments.harness.evaluate_schemes`: any
factory whose *signature* accepts an ``oracle_grid`` kwarg receives
the cell's grid, whatever its identity.
"""

from __future__ import annotations

import dataclasses
import pickle

import pytest

import repro.baselines.oracle as oracle_module
from repro.core.goals import Goal, ObjectiveKind
from repro.errors import ConfigurationError
from repro.experiments.harness import evaluate_schemes, make_scheme
from repro.runtime.executor import (
    CellSpec,
    RunExecutor,
    ScenarioKey,
    factory_accepts_oracle_grid,
    factory_path,
)
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


def test_scenario_key_rejects_customized_stock_platform():
    """Regression: a tweaked MachineSpec reusing a stock name must not
    round-trip — a worker would silently rebuild the stock machine."""
    stock = build_scenario("CPU1", "image", "memory", "standard", seed=3)
    tweaked = Scenario(
        name=stock.name,
        machine=dataclasses.replace(stock.machine, peak_power_w=21.0),
        task=stock.task,
        candidates=stock.candidates,
        env=stock.env,
        seed=stock.seed,
    )
    assert ScenarioKey.for_scenario(stock) is not None
    assert ScenarioKey.for_scenario(tweaked) is None


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


def test_factory_path_roundtrips_module_level_functions():
    path = factory_path(make_scheme)
    assert path == "repro.experiments.harness:make_scheme"

    def local_factory(name, scenario, engine, stream, goal, n_inputs):
        return make_scheme(name, scenario, engine, stream, goal, n_inputs)

    assert factory_path(local_factory) is None
    assert factory_path(lambda *a, **k: None) is None


def test_factory_accepts_oracle_grid_by_signature():
    assert factory_accepts_oracle_grid(make_scheme)

    def with_kwargs(name, scenario, engine, stream, goal, n_inputs, **extras):
        return None

    def without(name, scenario, engine, stream, goal, n_inputs):
        return None

    assert factory_accepts_oracle_grid(with_kwargs)
    assert not factory_accepts_oracle_grid(without)


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


def _renaming_factory(
    name, scenario, engine, stream, goal, n_inputs,
    oracle_grid=None, grid_view=None,
):
    """A dotted-path-resolvable custom factory (module level)."""
    scheduler = make_scheme(
        name, scenario, engine, stream, goal, n_inputs,
        oracle_grid=oracle_grid, grid_view=grid_view,
    )
    scheduler.name = f"custom:{scheduler.name}"
    return scheduler


def test_custom_dotted_factory_pool_matches_closure_fallback(image_scenario):
    """A dotted-path custom factory rides the pool; wrapping the same
    factory in a closure forces the in-process fallback — both must
    produce bit-identical runs (and actually take those two paths)."""
    assert factory_path(_renaming_factory) is not None
    goals = _goals(image_scenario)
    schemes = ("ALERT", "Oracle", "OracleStatic")

    def closure_wrapper(*args, **kwargs):
        return _renaming_factory(*args, **kwargs)

    assert factory_path(closure_wrapper) is None
    pooled = evaluate_schemes(
        image_scenario, goals, schemes, n_inputs=12,
        scheme_factory=_renaming_factory, workers=2,
    )
    in_process = evaluate_schemes(
        image_scenario, goals, schemes, n_inputs=12,
        scheme_factory=closure_wrapper,
    )
    assert pooled.goals == in_process.goals
    for name in schemes:
        for a, b in zip(pooled.scheme_runs(name), in_process.scheme_runs(name)):
            assert a.scheduler_name == f"custom:{name}"
            _assert_runs_identical(a, b)


def test_executor_rejects_bad_configuration():
    with pytest.raises(ConfigurationError):
        RunExecutor(workers=0)
    assert RunExecutor(workers=1).run_plan([]) == []


# ----------------------------------------------------------------------
# Grid sharing: per-timing cache and the signature-based gate
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


def test_custom_factory_with_oracle_grid_kwarg_gets_shared_grid(image_scenario):
    """Regression: sharing used to be disabled for any custom factory."""
    goal = _goals(image_scenario)[0]
    received = []

    def recording_factory(
        name, scenario, engine, stream, goal, n_inputs, oracle_grid=None
    ):
        received.append(oracle_grid)
        return make_scheme(
            name, scenario, engine, stream, goal, n_inputs,
            oracle_grid=oracle_grid,
        )

    evaluate_schemes(
        image_scenario, [goal], ("Oracle", "OracleStatic"), n_inputs=10,
        scheme_factory=recording_factory,
    )
    assert received and all(grid is not None for grid in received)


def test_oracle_grid_offered_without_oracle_schemes(image_scenario):
    """The grid goes to every capable factory, not only oracle cells."""
    goal = _goals(image_scenario)[0]
    received = []

    def recording_factory(name, scenario, engine, stream, goal, n_inputs, **extras):
        received.append(extras.get("oracle_grid"))
        return make_scheme(name, scenario, engine, stream, goal, n_inputs)

    evaluate_schemes(
        image_scenario, [goal], ("ALERT",), n_inputs=10,
        scheme_factory=recording_factory,
    )
    assert received and all(grid is not None for grid in received)


def _grid_unaware_factory(name, scenario, engine, stream, goal, n_inputs):
    """A dotted-path factory that accepts none of the grid keywords."""
    return make_scheme(name, scenario, engine, stream, goal, n_inputs)


def test_grid_unaware_factory_matches_reference(image_scenario, reference_cell):
    """A factory offered no grid still serves a wide (lockstep) cell,
    pooled or serial, identically to the sequential reference."""
    assert factory_path(_grid_unaware_factory) is not None
    assert not factory_accepts_oracle_grid(_grid_unaware_factory)
    anchor = image_scenario.anchor_latency_s()
    goals = [
        Goal(
            objective=ObjectiveKind.MINIMIZE_ENERGY,
            deadline_s=anchor * factor,
            accuracy_min=floor,
        )
        for factor in (1.0, 1.5)
        for floor in (0.85, 0.9, 0.95)
    ]
    schemes = ("ALERT", "Oracle", "No-coord")
    reference = reference_cell(
        image_scenario, goals, schemes, 10, _grid_unaware_factory
    )
    for workers in (1, 2):
        cell = evaluate_schemes(
            image_scenario, goals, schemes, n_inputs=10,
            scheme_factory=_grid_unaware_factory, workers=workers,
        )
        for name in schemes:
            for a, b in zip(cell.scheme_runs(name), reference.scheme_runs(name)):
                _assert_runs_identical(a, b)


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
