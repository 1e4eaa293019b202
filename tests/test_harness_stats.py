"""Tests for the experiment harness and Table 4 statistics."""

from __future__ import annotations

import pytest

from repro.analysis.stats import SchemeCell, normalize_to_baseline, summarize_runs
from repro.core.goals import Goal, ObjectiveKind
from repro.errors import ConfigurationError
from repro.experiments.harness import SCHEMES, evaluate_schemes, make_scheme
from repro.runtime.loop import LOCKSTEP_TELEMETRY
from repro.workloads.scenarios import build_scenario, constraint_grid


@pytest.fixture(scope="module")
def scenario():
    return build_scenario("CPU1", "image", "default", "standard", seed=5)


def _goal(scenario):
    return Goal(
        objective=ObjectiveKind.MINIMIZE_ENERGY,
        deadline_s=scenario.anchor_latency_s(),
        accuracy_min=0.9,
    )


def test_make_scheme_builds_every_name(scenario):
    goal = _goal(scenario)
    engine = scenario.make_engine()
    stream = scenario.make_stream()
    for name in SCHEMES:
        scheduler = make_scheme(name, scenario, engine, stream, goal, 10)
        assert hasattr(scheduler, "decide") and hasattr(scheduler, "observe")


def test_make_scheme_unknown_rejected(scenario):
    with pytest.raises(ConfigurationError):
        make_scheme(
            "Magic",
            scenario,
            scenario.make_engine(),
            scenario.make_stream(),
            _goal(scenario),
            10,
        )


def test_alert_trad_needs_traditional_candidates():
    anytime_only = build_scenario("CPU1", "image", "default", "any", seed=5)
    with pytest.raises(ConfigurationError):
        make_scheme(
            "ALERT-Trad",
            anytime_only,
            anytime_only.make_engine(),
            anytime_only.make_stream(),
            _goal(anytime_only),
            10,
        )


def test_evaluate_schemes_aligned_runs(scenario):
    grid = constraint_grid(scenario)
    goals = list(grid.min_energy_goals)[::12]
    cell = evaluate_schemes(scenario, goals, ("ALERT", "OracleStatic"), 30)
    assert len(cell.scheme_runs("ALERT")) == len(goals)
    assert len(cell.scheme_runs("OracleStatic")) == len(goals)
    with pytest.raises(ConfigurationError):
        cell.scheme_runs("nope")


def test_summarize_runs_excludes_violated(scenario):
    grid = constraint_grid(scenario)
    goals = list(grid.min_energy_goals)[::12]
    cell = evaluate_schemes(scenario, goals, ("ALERT", "OracleStatic"), 30)
    baseline = cell.scheme_runs("OracleStatic")
    summary = summarize_runs("ALERT", cell.scheme_runs("ALERT"), baseline)
    assert isinstance(summary, SchemeCell)
    assert summary.n_settings == len(goals)
    assert summary.violated_settings + 1 >= 0
    if summary.normalized_objective == summary.normalized_objective:
        assert 0.3 < summary.normalized_objective < 3.0
    # The rendering carries the superscript convention.
    text = summary.describe()
    assert text.startswith(("0", "1", "2", "-"))


def test_normalize_requires_aligned_lists(scenario):
    grid = constraint_grid(scenario)
    goals = list(grid.min_energy_goals)[::12]
    cell = evaluate_schemes(scenario, goals, ("ALERT", "OracleStatic"), 20)
    with pytest.raises(ConfigurationError):
        normalize_to_baseline(
            cell.scheme_runs("ALERT"), cell.scheme_runs("OracleStatic")[:-1]
        )


def test_evaluate_schemes_common_randomness(scenario):
    # Two schemes see the same environment: identical env factors on
    # the same inputs.
    goal = _goal(scenario)
    cell = evaluate_schemes(scenario, [goal], ("ALERT", "App-only"), 15)
    alert_run = cell.scheme_runs("ALERT")[0]
    app_run = cell.scheme_runs("App-only")[0]
    alert_env = [r.outcome.env_factor for r in alert_run.records]
    app_env = [r.outcome.env_factor for r in app_run.records]
    assert alert_env == app_env


# ----------------------------------------------------------------------
# Infeasible goals: every scheme degrades to full violation, none crashes
# ----------------------------------------------------------------------
#: Accuracy floors (minimise energy) or budgets in µJ (maximise
#: accuracy) no configuration can meet, one per goal of a cell.
INFEASIBLE_FLOORS = (0.999, 0.9992, 0.9994, 0.9996, 0.9998, 1.0)
INFEASIBLE_BUDGETS_UJ = (1.0, 1.5, 2.0, 2.5, 3.0, 3.5)


def _infeasible_goals(scenario, objective, width):
    anchor = scenario.anchor_latency_s()
    if objective is ObjectiveKind.MINIMIZE_ENERGY:
        return [
            Goal(objective=objective, deadline_s=0.02 * anchor, accuracy_min=q)
            for q in INFEASIBLE_FLOORS[:width]
        ]
    return [
        Goal(objective=objective, deadline_s=anchor, energy_budget_j=b * 1e-6)
        for b in INFEASIBLE_BUDGETS_UJ[:width]
    ]


@pytest.mark.parametrize("width", [1, 6], ids=["per-goal", "lockstep"])
@pytest.mark.parametrize(
    "objective",
    [ObjectiveKind.MINIMIZE_ENERGY, ObjectiveKind.MAXIMIZE_ACCURACY],
    ids=["min-energy", "max-accuracy"],
)
@pytest.mark.parametrize("task", ["image", "sentence"])
def test_infeasible_goals_violate_every_input_of_every_scheme(
    task, objective, width
):
    """A one-goal cell serves each run on its own path; a six-goal cell
    puts every stacking scheme on a lockstep lane.  Either way every
    scheme must relax its way through the whole run."""
    scenario = build_scenario("CPU1", task, "default", "standard", seed=5)
    goals = _infeasible_goals(scenario, objective, width)
    LOCKSTEP_TELEMETRY.reset()
    cell = evaluate_schemes(scenario, goals, SCHEMES, n_inputs=12)
    lockstep_runs = LOCKSTEP_TELEMETRY.snapshot()["lockstep_runs"]
    assert (lockstep_runs > 0) == (width == 6)
    for name in SCHEMES:
        runs = cell.scheme_runs(name)
        assert len(runs) == width
        for run in runs:
            assert run.n_inputs == 12
            assert run.violation_fraction == 1.0, (name, run.goal)
