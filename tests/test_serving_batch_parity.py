"""Parity suite for the feedback-free batch serving fast path.

Pins the contract of :meth:`repro.runtime.loop.ServingLoop.run`: for
schedulers that declare ``feedback_free`` (Oracle, OracleStatic,
App-only), the batch fast path must reproduce the sequential reference
run (:meth:`~repro.runtime.loop.ServingLoop.run_sequential`) —
identical decisions, identical discrete record fields, float fields
equal to within 1 ulp of floating-point associativity (the engine's
vectorized pass reorders no arithmetic, but ``numpy`` and ``libm`` may
round ``**`` differently), and identical violation flags and
aggregates.  Feedback schemes, requirement traces, and grouped
(sentence) streams must keep the sequential path.
"""

from __future__ import annotations

import pytest

from repro.core.goals import Goal, ObjectiveKind
from repro.experiments.harness import make_scheme
from repro.runtime.loop import ServingLoop
from repro.workloads.scenarios import build_scenario
from repro.workloads.traces import RequirementChange, RequirementTrace

#: Float fields must agree to 1 ulp; violation flags use 1e-9-scale
#: tolerances, so this margin can never flip a flag in practice.
REL_TOL = 1e-12

FEEDBACK_FREE_SCHEMES = ("Oracle", "OracleStatic", "App-only")

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
EXACT_FIELDS = (
    "index",
    "model_name",
    "power_cap_w",
    "effective_cap_w",
    "met_deadline",
    "completed_rungs",
    "deadline_s",
    "period_s",
)


def _goal(scenario, objective):
    anchor = scenario.anchor_latency_s()
    if objective is ObjectiveKind.MINIMIZE_ENERGY:
        return Goal(
            objective=objective, deadline_s=anchor, accuracy_min=0.9
        )
    return Goal(
        objective=objective,
        deadline_s=anchor,
        energy_budget_j=scenario.machine.default_power() * anchor * 0.6,
    )


def _loop(scenario, scheme, goal, n_inputs):
    engine = scenario.make_engine()
    stream = scenario.make_stream()
    scheduler = make_scheme(scheme, scenario, engine, stream, goal, n_inputs)
    return ServingLoop(engine, stream, scheduler, goal)


def _assert_record_parity(sequential, batch):
    assert sequential.scheduler_name == batch.scheduler_name
    assert len(sequential.records) == len(batch.records)
    for ra, rb in zip(sequential.records, batch.records):
        for field in EXACT_FIELDS:
            assert getattr(ra.outcome, field) == getattr(rb.outcome, field)
        for field in FLOAT_FIELDS:
            assert getattr(ra.outcome, field) == pytest.approx(
                getattr(rb.outcome, field), rel=REL_TOL, abs=0.0
            ), field
        assert ra.goal == rb.goal
        assert ra.effective_deadline_s == rb.effective_deadline_s
        assert ra.latency_violation == rb.latency_violation
        assert ra.accuracy_violation == rb.accuracy_violation
        assert ra.energy_violation == rb.energy_violation
        assert (ra.xi_mean, ra.xi_sigma) == (rb.xi_mean, rb.xi_sigma)
    assert sequential.violation_fraction == batch.violation_fraction
    assert sequential.mean_energy_j == pytest.approx(
        batch.mean_energy_j, rel=REL_TOL
    )
    assert sequential.mean_quality == pytest.approx(
        batch.mean_quality, rel=REL_TOL
    )


@pytest.mark.parametrize("scheme", FEEDBACK_FREE_SCHEMES)
@pytest.mark.parametrize(
    ("platform", "env", "seed"),
    [
        ("CPU1", "default", 13),
        ("CPU2", "memory", 31),
        ("GPU", "compute", 47),
        ("EMBEDDED", "memory", 59),
    ],
)
@pytest.mark.parametrize(
    "objective",
    [ObjectiveKind.MINIMIZE_ENERGY, ObjectiveKind.MAXIMIZE_ACCURACY],
)
def test_batch_path_matches_sequential(platform, env, seed, scheme, objective):
    scenario = build_scenario(platform, "image", env, "standard", seed=seed)
    goal = _goal(scenario, objective)
    sequential = _loop(scenario, scheme, goal, 25).run_sequential(25)
    batch = _loop(scenario, scheme, goal, 25).run(25)
    assert batch.arrays is not None  # the batch path served it
    _assert_record_parity(sequential, batch)


def test_decide_batch_matches_per_item_decides(image_scenario):
    from repro.baselines.oracle import OracleScheduler, oracle_outcome_grid
    from repro.experiments.harness import scheme_space
    from repro.models.inference import GridView

    scenario = image_scenario
    goal = _goal(scenario, ObjectiveKind.MINIMIZE_ENERGY)
    space = scheme_space(scenario)
    n = 30
    grid = oracle_outcome_grid(
        scenario.make_engine(), space, scenario.make_stream(), n
    )
    engine = scenario.make_engine()
    stream = scenario.make_stream()
    oracle = OracleScheduler(engine, space, grid_view=GridView(grid))
    items = [stream.item(i) for i in range(n)]
    vectorized = oracle.decide_batch(items, goal)
    one_by_one = [oracle.decide(item, goal) for item in items]
    assert [c.key for c in vectorized] == [c.key for c in one_by_one]


def test_auto_mode_uses_batch_for_feedback_free(image_scenario, monkeypatch):
    goal = _goal(image_scenario, ObjectiveKind.MINIMIZE_ENERGY)
    engine = image_scenario.make_engine()
    stream = image_scenario.make_stream()
    scheduler = make_scheme("App-only", image_scenario, engine, stream, goal, 10)
    loop = ServingLoop(engine, stream, scheduler, goal)

    def boom(items):
        raise AssertionError("sequential path must not run")

    monkeypatch.setattr(loop, "_run_sequential", boom)
    result = loop.run(10)
    assert result.n_inputs == 10


def test_auto_mode_keeps_feedback_schemes_sequential(image_scenario, monkeypatch):
    goal = _goal(image_scenario, ObjectiveKind.MINIMIZE_ENERGY)
    engine = image_scenario.make_engine()
    stream = image_scenario.make_stream()
    scheduler = make_scheme("ALERT", image_scenario, engine, stream, goal, 10)
    loop = ServingLoop(engine, stream, scheduler, goal)

    def boom(items):
        raise AssertionError("batch path must not run for ALERT")

    monkeypatch.setattr(loop, "_run_batch", boom)
    result = loop.run(10)
    assert result.n_inputs == 10


def test_run_sequential_never_takes_the_batch_path(image_scenario, monkeypatch):
    """The reference stays sequential for a batch-eligible run too, so
    the parity tests never compare the batch path with itself."""
    goal = _goal(image_scenario, ObjectiveKind.MINIMIZE_ENERGY)
    loop = _loop(image_scenario, "App-only", goal, 10)
    assert loop.batch_eligible(loop.stream.items(10))

    def boom(items):
        raise AssertionError("the sequential reference took the batch path")

    monkeypatch.setattr(loop, "_run_batch", boom)
    result = loop.run_sequential(10)
    assert result.n_inputs == 10
    assert result.arrays is None


def test_grouped_streams_fall_back_to_sequential(monkeypatch):
    scenario = build_scenario("CPU1", "sentence", "default", "standard", seed=7)
    goal = _goal(scenario, ObjectiveKind.MINIMIZE_ENERGY)
    engine = scenario.make_engine()
    stream = scenario.make_stream()
    scheduler = make_scheme("App-only", scenario, engine, stream, goal, 12)
    loop = ServingLoop(engine, stream, scheduler, goal)

    def boom(items):
        raise AssertionError("grouped inputs must stay sequential")

    monkeypatch.setattr(loop, "_run_batch", boom)
    result = loop.run(12)
    assert result.n_inputs == 12


def test_requirement_trace_falls_back_to_sequential(image_scenario, monkeypatch):
    goal = _goal(image_scenario, ObjectiveKind.MINIMIZE_ENERGY)
    engine = image_scenario.make_engine()
    stream = image_scenario.make_stream()
    scheduler = make_scheme("App-only", image_scenario, engine, stream, goal, 8)
    trace = RequirementTrace(
        [RequirementChange(start_index=4, deadline_s=goal.deadline_s * 2)]
    )
    loop = ServingLoop(engine, stream, scheduler, goal, requirement_trace=trace)

    def boom(items):
        raise AssertionError("trace-driven runs must stay sequential")

    monkeypatch.setattr(loop, "_run_batch", boom)
    result = loop.run(8)
    assert result.n_inputs == 8
