"""Mid-run requirement changes: the example, the harness, and parity.

``examples/dynamic_requirements.py`` (paper Section 1.1) replays an
"event of interest" that tightens and then relaxes the goal mid-run.
These tests give that scenario coverage: the example itself runs and
returns its result, the harness threads a
:class:`~repro.workloads.traces.RequirementTrace` through every
execution path, and traced cells keep full parity between the
per-goal and lockstep serving paths and the sequential reference.
"""

from __future__ import annotations

import importlib.util
from pathlib import Path

import pytest

from repro.baselines import make_alert
from repro.core.goals import Goal, ObjectiveKind
from repro.experiments.harness import SCHEMES, evaluate_schemes, make_scheme
from repro.runtime.executor import LOCKSTEP_MIN_GOALS
from repro.runtime.loop import LOCKSTEP_TELEMETRY, ServingLoop
from repro.runtime.results import RunResult
from repro.workloads.scenarios import build_scenario
from repro.workloads.traces import RequirementChange, RequirementTrace

EXAMPLE_PATH = (
    Path(__file__).resolve().parent.parent
    / "examples"
    / "dynamic_requirements.py"
)


def _load_example():
    spec = importlib.util.spec_from_file_location(
        "dynamic_requirements_example", EXAMPLE_PATH
    )
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _event_trace(anchor: float, n_inputs: int) -> RequirementTrace:
    return RequirementTrace(
        [
            RequirementChange(
                start_index=n_inputs // 3,
                deadline_s=0.7 * anchor,
                accuracy_min=0.925,
            ),
            RequirementChange(
                start_index=2 * n_inputs // 3,
                deadline_s=1.6 * anchor,
                accuracy_min=0.88,
            ),
        ]
    )


def test_example_returns_the_run(capsys):
    example = _load_example()
    n_inputs = 30
    result = example.main(n_inputs=n_inputs)
    assert isinstance(result, RunResult)
    assert len(result.records) == n_inputs
    out = capsys.readouterr().out
    assert "relaxed" in out and "tight" in out

    scenario = build_scenario("CPU1", "image", "default", "standard")
    anchor = scenario.anchor_latency_s()
    first, second = n_inputs // 3, 2 * n_inputs // 3
    # The trace's phases are visible in the served deadlines.
    relaxed = pytest.approx(1.6 * anchor)
    tight = pytest.approx(0.7 * anchor)
    assert result.records[0].effective_deadline_s == relaxed
    assert result.records[first].effective_deadline_s == tight
    assert result.records[second - 1].effective_deadline_s == tight
    assert result.records[second].effective_deadline_s == relaxed


def test_example_matches_direct_serving_loop():
    example = _load_example()
    scenario = build_scenario("CPU1", "image", "default", "standard")
    anchor = scenario.anchor_latency_s()
    n_inputs = 24
    direct = ServingLoop(
        scenario.make_engine(),
        scenario.make_stream(),
        make_alert(scenario.profile()),
        example.base_goal(anchor),
        requirement_trace=example.event_trace(anchor, n_inputs),
    ).run(n_inputs)
    via_example = example.main(n_inputs=n_inputs)
    assert via_example == direct


def _goals(scenario, n_goals=3):
    anchor = scenario.anchor_latency_s()
    return [
        Goal(
            objective=ObjectiveKind.MINIMIZE_ENERGY,
            deadline_s=1.6 * anchor,
            accuracy_min=0.85 + 0.01 * g,
        )
        for g in range(n_goals)
    ]


def test_harness_trace_matches_per_run_serving_loop():
    scenario = build_scenario("CPU1", "image", "default", "standard", seed=5)
    anchor = scenario.anchor_latency_s()
    n_inputs = 18
    trace = _event_trace(anchor, n_inputs)
    goals = _goals(scenario)
    schemes = ("ALERT", "No-coord")
    cell = evaluate_schemes(
        scenario, goals, schemes, n_inputs=n_inputs, requirement_trace=trace
    )
    for scheme in schemes:
        for goal, run in zip(goals, cell.scheme_runs(scheme)):
            engine = scenario.make_engine()
            stream = scenario.make_stream()
            scheduler = make_scheme(
                scheme, scenario, engine, stream, goal, n_inputs
            )
            reference = ServingLoop(
                engine, stream, scheduler, goal, requirement_trace=trace
            ).run(n_inputs)
            assert run == reference, scheme


#: Outcome fields compared exactly, and to 1e-12 relative.
DISCRETE_FIELDS = (
    "index", "model_name", "power_cap_w", "effective_cap_w",
    "met_deadline", "completed_rungs", "deadline_s", "period_s",
)
FLOAT_FIELDS = (
    "latency_s", "full_latency_s", "quality", "metric_value",
    "energy_j", "inference_power_w", "idle_power_w", "env_factor",
)


@pytest.mark.parametrize(
    ("task", "env", "seed", "n_inputs", "n_goals"),
    [
        ("image", "default", 5, 12, 1),
        ("image", "default", 5, 12, 3),
        ("image", "default", 5, 12, LOCKSTEP_MIN_GOALS),
        # Shared sentence deadlines under the trace, in a cell wide
        # enough to serve its stacking schemes as lockstep lanes.
        ("sentence", "compute", 29, 16, LOCKSTEP_MIN_GOALS),
    ],
    ids=["1", "3", str(LOCKSTEP_MIN_GOALS), "sentence"],
)
def test_traced_cell_parity_across_serving_paths(
    task, env, seed, n_inputs, n_goals, reference_cell
):
    """Mid-run goal changes keep per-goal and lockstep cells ≡ the
    sequential reference, full zoo: discrete record fields exactly,
    floats ≤1e-12 relative."""
    scenario = build_scenario("CPU1", task, env, "standard", seed=seed)
    anchor = scenario.anchor_latency_s()
    trace = _event_trace(anchor, n_inputs)
    goals = _goals(scenario, n_goals)
    LOCKSTEP_TELEMETRY.reset()
    fused = evaluate_schemes(
        scenario, goals, SCHEMES, n_inputs=n_inputs, requirement_trace=trace
    )
    lockstep_runs = LOCKSTEP_TELEMETRY.snapshot()["lockstep_runs"]
    assert (lockstep_runs > 0) == (n_goals >= LOCKSTEP_MIN_GOALS)
    sequential = reference_cell(
        scenario, goals, SCHEMES, n_inputs, requirement_trace=trace
    )
    assert fused.goals == sequential.goals
    for scheme in SCHEMES:
        for run, reference in zip(
            fused.scheme_runs(scheme), sequential.scheme_runs(scheme)
        ):
            assert len(run.records) == len(reference.records) == n_inputs
            for ra, rb in zip(run.records, reference.records):
                for field in DISCRETE_FIELDS:
                    assert getattr(ra.outcome, field) == getattr(
                        rb.outcome, field
                    ), (scheme, field)
                for field in FLOAT_FIELDS:
                    assert getattr(ra.outcome, field) == pytest.approx(
                        getattr(rb.outcome, field), rel=1e-12, abs=0.0
                    ), (scheme, field)
                assert ra.goal == rb.goal, scheme
                assert ra.effective_deadline_s == rb.effective_deadline_s
                assert ra.latency_violation == rb.latency_violation
                assert ra.accuracy_violation == rb.accuracy_violation
                assert ra.energy_violation == rb.energy_violation
                assert (ra.xi_mean, ra.xi_sigma) == pytest.approx(
                    (rb.xi_mean, rb.xi_sigma), rel=1e-12, abs=0.0
                )
