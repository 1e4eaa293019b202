"""Parity suite for the shared-realisation execution path.

Pins the contract of the grid machinery: a cell (one outcome grid per
timing serving every scheme, via
:class:`repro.runtime.executor.CellSpec` and the serving loop's
:class:`~repro.models.inference.GridView` path) must reproduce the
sequential reference — every run alone on a fresh engine, no grid —
discrete record fields exactly, float fields to ≤1e-12 relative, for
feedback-free *and* feedback-driven schemes; a pooled sweep's
summaries must equal the serial sweep's.  Also covers the grid
machinery itself: one grid build per timing per cell, zero
:meth:`InferenceEngine.run` calls on grid-served runs, the untrusted
view's environment guard, and the model-fingerprinted grid cache
(regression: a scenario rebuilt after eviction must not be handed a
grid over its predecessor's models).
"""

from __future__ import annotations

import pytest

import repro.baselines.oracle as oracle_module
from repro.baselines.oracle import oracle_outcome_grid
from repro.core.goals import Goal, ObjectiveKind
from repro.errors import ConfigurationError
from repro.experiments.harness import evaluate_schemes, make_scheme
from repro.models.inference import GridView
from repro.runtime.executor import (
    CellSpec,
    RunExecutor,
    ScenarioKey,
    _WorkerState,
    plan_cells,
    timing_grid,
)
from repro.runtime.loop import CrossSchemeLockstepLoop, ServingLoop
from repro.runtime.sweep import SweepSpec, compile_sweep, run_sweep
from repro.workloads.scenarios import build_scenario

#: Float tolerance of the fused path (the acceptance bar; in practice
#: the grid read is bit-identical to the live engine).
REL_TOL = 1e-12

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

#: The full Table 3 zoo: feedback-free and feedback-driven members.
ALL_SCHEMES = (
    "Oracle",
    "OracleStatic",
    "ALERT",
    "ALERT*",
    "App-only",
    "Sys-only",
    "No-coord",
)


def _goals(scenario, objective=ObjectiveKind.MINIMIZE_ENERGY):
    anchor = scenario.anchor_latency_s()
    if objective is ObjectiveKind.MINIMIZE_ENERGY:
        return [
            Goal(objective=objective, deadline_s=anchor, accuracy_min=0.9),
            Goal(objective=objective, deadline_s=anchor, accuracy_min=0.85),
            Goal(objective=objective, deadline_s=anchor * 1.5, accuracy_min=0.9),
        ]
    budget = scenario.machine.default_power() * anchor * 0.6
    return [
        Goal(objective=objective, deadline_s=anchor, energy_budget_j=budget),
        Goal(objective=objective, deadline_s=anchor * 1.5, energy_budget_j=budget),
    ]


def _assert_cells_match(cell, reference, schemes):
    assert cell.goals == reference.goals
    for name in schemes:
        for a, b in zip(cell.scheme_runs(name), reference.scheme_runs(name)):
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
            assert a.violation_fraction == b.violation_fraction


# ----------------------------------------------------------------------
# Grid-served cells == the sequential reference, whole scheme zoo
# ----------------------------------------------------------------------
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
def test_cell_matches_reference(
    platform, task, env, seed, objective, reference_cell
):
    scenario = build_scenario(platform, task, env, "standard", seed=seed)
    goals = _goals(scenario, objective)
    cell = evaluate_schemes(scenario, goals, ALL_SCHEMES, n_inputs=18)
    reference = reference_cell(scenario, goals, ALL_SCHEMES, 18)
    _assert_cells_match(cell, reference, ALL_SCHEMES)


def test_pool_bit_identical_to_serial():
    """Every scheme through the sweep's pool: a 12-goal scenario plans
    two six-goal specs at two workers, and the pooled summaries equal
    the serial ones."""
    spec = SweepSpec(
        platforms=("CPU1",), tasks=("image",), envs=("default",),
        schemes=ALL_SCHEMES, settings_stride=6, n_inputs=15, seeds=(99,),
    )
    work = [(unit.scenario, unit.goal) for unit in compile_sweep(spec)]
    plan = plan_cells(work, ALL_SCHEMES, 15, workers=2)
    assert [len(cell.goals) for cell, _ in plan] == [6, 6]
    serial = run_sweep(spec, workers=1)
    pooled = run_sweep(spec, workers=2)
    assert pooled.grid_store_stats is not None  # the pool really ran
    assert pooled.cells == serial.cells


# ----------------------------------------------------------------------
# Grid machinery: one realisation per timing, no live engine calls
# ----------------------------------------------------------------------
def test_cell_builds_one_grid_for_every_timing(image_scenario, monkeypatch):
    anchor = image_scenario.anchor_latency_s()
    goals = [
        Goal(
            objective=ObjectiveKind.MINIMIZE_ENERGY,
            deadline_s=anchor * factor,
            accuracy_min=floor,
        )
        for factor, floor in ((1.0, 0.85), (1.0, 0.90), (1.6, 0.95))
    ]
    calls = []
    real = oracle_module.oracle_outcome_grid

    def counting(*args, **kwargs):
        calls.append(args)
        return real(*args, **kwargs)

    monkeypatch.setattr(oracle_module, "oracle_outcome_grid", counting)
    evaluate_schemes(image_scenario, goals, ALL_SCHEMES, n_inputs=10)
    # Three goals, two timings, seven schemes: one grid build.
    assert len(calls) == 1


def test_grid_served_feedback_run_never_calls_engine_run(
    image_scenario, monkeypatch
):
    from repro.models.inference import InferenceEngine

    calls = []
    real = InferenceEngine.run

    def counting(self, *args, **kwargs):
        calls.append(args)
        return real(self, *args, **kwargs)

    monkeypatch.setattr(InferenceEngine, "run", counting)
    goal = _goals(image_scenario)[0]
    evaluate_schemes(
        image_scenario, [goal], ("ALERT", "Sys-only", "No-coord"),
        n_inputs=20,
    )
    assert calls == []


@pytest.mark.parametrize(
    "objective",
    [ObjectiveKind.MINIMIZE_ENERGY, ObjectiveKind.MAXIMIZE_ACCURACY],
)
def test_sentence_cell_serves_every_word_from_the_grid(objective, monkeypatch):
    """A CPU1 sentence cell at the e2e benchmark's scale (every third
    setting, 40 inputs, Table 4's schemes) serves every word from its
    one grid: group-adjusted deadlines are derived, never realised."""
    from repro.experiments.table4_overall import DEFAULT_SCHEMES
    from repro.models.inference import InferenceEngine
    from repro.workloads.scenarios import constraint_grid

    scenario = build_scenario("CPU1", "sentence", "default", "standard", seed=3)
    grid = constraint_grid(scenario)
    goals = (
        grid.min_energy_goals
        if objective is ObjectiveKind.MINIMIZE_ENERGY
        else grid.min_error_goals
    )[::3]
    runs = []
    columns = []
    real_run = InferenceEngine.run
    real_batch = InferenceEngine.evaluate_batch

    def counting_run(self, *args, **kwargs):
        runs.append(args)
        return real_run(self, *args, **kwargs)

    def counting_batch(self, configs, indices, *args, **kwargs):
        indices = list(indices)
        if len(indices) == 1:
            columns.append(indices)
        return real_batch(self, configs, indices, *args, **kwargs)

    monkeypatch.setattr(InferenceEngine, "run", counting_run)
    monkeypatch.setattr(InferenceEngine, "evaluate_batch", counting_batch)
    cell = evaluate_schemes(scenario, goals, DEFAULT_SCHEMES, n_inputs=40)
    assert len(goals) >= 6  # every stacking scheme runs as a lane
    assert all(
        run.n_inputs == 40
        for name in DEFAULT_SCHEMES
        for run in cell.scheme_runs(name)
    )
    assert runs == []
    assert columns == []


def test_cellspec_validation():
    key = ScenarioKey("CPU1", "image", "default")
    goal = Goal(
        objective=ObjectiveKind.MINIMIZE_ENERGY, deadline_s=0.1, accuracy_min=0.9
    )
    with pytest.raises(ConfigurationError):
        CellSpec(scenario=key, goals=(), schemes=("Oracle",), n_inputs=5)
    with pytest.raises(ConfigurationError):
        CellSpec(scenario=key, goals=(goal,), schemes=(), n_inputs=5)
    with pytest.raises(ConfigurationError):
        CellSpec(scenario=key, goals=(goal,), schemes=("Oracle",), n_inputs=0)
    spec = CellSpec(scenario=key, goals=[goal], schemes=["Oracle"], n_inputs=5)
    assert spec.goals == (goal,)
    assert spec.schemes == ("Oracle",)


def test_cellspec_results_are_goal_major(image_scenario):
    key = ScenarioKey.of(image_scenario)
    goals = tuple(_goals(image_scenario)[:2])
    schemes = ("Oracle", "App-only", "ALERT")
    spec = CellSpec(scenario=key, goals=goals, schemes=schemes, n_inputs=8)
    (results,) = RunExecutor().run_plan(
        [spec], scenarios={key: image_scenario}
    )
    assert len(results) == len(goals)
    for per_goal, goal in zip(results, goals):
        assert [r.scheduler_name for r in per_goal] == list(schemes)
        assert all(r.goal == goal for r in per_goal)


# ----------------------------------------------------------------------
# GridView: lookups, misses, and the untrusted environment guard
# ----------------------------------------------------------------------
def _view_for(scenario, n_inputs, trusted):
    return GridView(timing_grid(scenario, n_inputs), trusted=trusted)


def _run_with_view(scenario, scheme, goal, n_inputs, view):
    """One run whose loop reads ``view``; as in the executor, the
    oracles' schedulers read it too."""
    engine = scenario.make_engine()
    stream = scenario.make_stream()
    scheduler = make_scheme(
        scheme, scenario, engine, stream, goal, n_inputs, grid_view=view
    )
    loop = ServingLoop(engine, stream, scheduler, goal, grid_view=view)
    return loop.run(n_inputs)


def test_trusted_view_serves_sequential_and_batch(image_scenario):
    goal = _goals(image_scenario)[0]
    view = _view_for(image_scenario, 12, trusted=True)
    # ALERT needs feedback (sequential path); App-only takes the batch path.
    for scheme, batch in (("ALERT", False), ("App-only", True)):
        with_view = _run_with_view(image_scenario, scheme, goal, 12, view)
        without = _run_with_view(image_scenario, scheme, goal, 12, None)
        assert (with_view.arrays is not None) == batch
        assert (without.arrays is not None) == batch
        for ra, rb in zip(with_view.records, without.records):
            assert ra == rb


@pytest.mark.parametrize(
    "case", ["Oracle", "OracleStatic", "App-only", "ALERT", "ALERT-lane"]
)
def test_untrusted_view_from_diverged_draws_falls_back(image_scenario, case):
    """A grid realised under different draws must never be served.

    The grid covers the scenario's own space and stream, realised from
    another seed's engine, so every row and column lookup resolves and
    only the environment-draw guard keeps it out.  Oracle, OracleStatic
    and App-only take the batch path, ALERT the sequential one, and
    ``ALERT-lane`` is a six-goal lockstep lane.  As a control, the same
    grid marked trusted is served and changes the records.
    """
    scenario = image_scenario
    n_inputs = 12
    anchor = scenario.anchor_latency_s()
    floors = (0.9,)
    if case == "ALERT-lane":
        floors = (0.8, 0.83, 0.85, 0.88, 0.9, 0.93)
    goals = [
        Goal(
            objective=ObjectiveKind.MINIMIZE_ENERGY,
            deadline_s=anchor,
            accuracy_min=floor,
        )
        for floor in floors
    ]
    other = build_scenario("CPU1", "image", "default", "standard", seed=12345)
    stale = oracle_outcome_grid(
        other.make_engine(), scenario.space(), scenario.make_stream(), n_inputs
    )

    def records(view):
        if case != "ALERT-lane":
            run = _run_with_view(scenario, case, goals[0], n_inputs, view)
            return [run.records]
        engine = scenario.make_engine()
        stream = scenario.make_stream()
        schedulers = [
            make_scheme("ALERT", scenario, engine, stream, goal, n_inputs)
            for goal in goals
        ]
        lane = CrossSchemeLockstepLoop.lane(
            engine, stream, schedulers, goals, [view] * len(goals)
        )
        assert lane is not None
        runs = CrossSchemeLockstepLoop([lane]).run(n_inputs)[0]
        return [run.records for run in runs]

    reference = records(None)
    assert records(GridView(stale)) == reference
    assert records(GridView(stale, trusted=True)) != reference


def test_view_serves_every_timing(image_scenario):
    """One timing-free grid serves any deadline and period, on the
    sequential path (ALERT) and the batch path (App-only)."""
    goal = _goals(image_scenario)[0]
    view = _view_for(image_scenario, 12, trusted=True)
    for timed in (
        goal.with_deadline(goal.deadline_s * 2),
        Goal(
            objective=goal.objective,
            deadline_s=goal.deadline_s * 0.5,
            period_s=goal.deadline_s * 3,
            accuracy_min=goal.accuracy_min,
        ),
    ):
        for scheme in ("ALERT", "App-only"):
            with_view = _run_with_view(image_scenario, scheme, timed, 12, view)
            without = _run_with_view(image_scenario, scheme, timed, 12, None)
            assert with_view.records == without.records


def test_view_off_grid_inputs_fall_back(image_scenario):
    """Inputs beyond the grid's horizon are served by the live engine."""
    goal = _goals(image_scenario)[0]
    view = _view_for(image_scenario, 6, trusted=True)
    with_view = _run_with_view(image_scenario, "ALERT", goal, 12, view)
    without = _run_with_view(image_scenario, "ALERT", goal, 12, None)
    for ra, rb in zip(with_view.records, without.records):
        assert ra == rb


# ----------------------------------------------------------------------
# Regression: the grid cache keys on the scenario's model objects
# ----------------------------------------------------------------------
def test_rebuilt_scenario_gets_a_grid_over_its_own_models(image_scenario):
    """A scenario evicted from the worker's cache and rebuilt has new
    model objects; a grid over the old ones would never resolve a row,
    sending every decision to the live engine."""
    key = ScenarioKey.of(image_scenario)
    state = _WorkerState()
    first = state.grid(key, 8)
    state._scenarios.clear()
    state._realisations.clear()
    rebuilt = state.grid(key, 8)
    assert rebuilt is not first
    view = GridView(rebuilt, trusted=True)
    for config in state.space(key):
        row = view.row_for(config.model, config.power_w, config.rung_cap)
        assert row is not None
    assert state.grid(key, 8) is rebuilt
