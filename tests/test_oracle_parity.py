"""Randomized parity: the batch oracle path against the scalar reference.

The vectorized whole-grid evaluation
(:meth:`repro.models.inference.InferenceEngine.evaluate_batch`, read at
a timing through :meth:`~repro.models.inference.BatchOutcomeGrid.timing`)
and the oracles built on it must be indistinguishable from the scalar
:meth:`evaluate` reference — every outcome field to <= 1e-9 and every
oracle *selection* (per-input Oracle picks and the OracleStatic
configuration) identical, across seeds, environments, both objectives,
and candidate sets mixing anytime and traditional networks.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.baselines.oracle import (
    OracleCell,
    OracleScheduler,
    best_static_config,
    best_static_config_scalar,
    make_oracle_static,
    oracle_outcome_grid,
)
from repro.core.config_space import ConfigurationSpace
from repro.core.goals import Goal, ObjectiveKind
from repro.errors import ConfigurationError
from repro.experiments.harness import evaluate_schemes
from repro.models.inference import GridView
from repro.workloads.inputs import InputItem
from repro.workloads.scenarios import build_scenario

PARITY_TOL = 1e-9

#: (platform, task, env, candidate set, seed) — anytime/traditional
#: mixes on both tasks, quiet and contended environments.
SCENARIO_GRID = [
    ("CPU1", "image", "default", "standard", 99),
    ("CPU1", "image", "memory", "standard", 7),
    ("CPU1", "image", "default", "trad", 2020),
    ("CPU1", "image", "compute", "any", 41),
    ("CPU1", "sentence", "default", "standard", 1234),
]


def _scenario(spec):
    platform, task, env, candidates, seed = spec
    return build_scenario(platform, task, env, candidates, seed)


def _space(scenario) -> ConfigurationSpace:
    profile = scenario.profile()
    return ConfigurationSpace(
        list(scenario.candidates.models), list(profile.powers)
    )


def _goals(scenario) -> list[Goal]:
    """Both objectives across tight / mid / loose deadlines."""
    anchor = scenario.anchor_latency_s()
    budget_power = scenario.machine.default_power()
    goals: list[Goal] = []
    for fraction in (0.5, 1.0, 1.8):
        deadline = anchor * fraction
        goals.append(
            Goal(
                objective=ObjectiveKind.MINIMIZE_ENERGY,
                deadline_s=deadline,
                accuracy_min=0.9,
            )
        )
        goals.append(
            Goal(
                objective=ObjectiveKind.MAXIMIZE_ACCURACY,
                deadline_s=deadline,
                energy_budget_j=budget_power * deadline * 0.6,
            )
        )
    # Unreachable floor / tiny budget: exercises the fallback tiers.
    goals.append(
        Goal(
            objective=ObjectiveKind.MINIMIZE_ENERGY,
            deadline_s=anchor * 0.05,
            accuracy_min=0.999,
        )
    )
    goals.append(
        Goal(
            objective=ObjectiveKind.MAXIMIZE_ACCURACY,
            deadline_s=anchor,
            energy_budget_j=0.01,
        )
    )
    return goals


# ----------------------------------------------------------------------
# Grid-level parity: evaluate_batch vs the scalar evaluate
# ----------------------------------------------------------------------
@pytest.mark.parametrize("spec", SCENARIO_GRID, ids=lambda s: "-".join(map(str, s)))
def test_grid_matches_scalar_evaluate(spec):
    scenario = _scenario(spec)
    engine = scenario.make_engine()
    configs = list(_space(scenario))
    anchor = scenario.anchor_latency_s()
    rng = np.random.default_rng(spec[-1])
    n_inputs = 12
    work_factors = rng.uniform(0.5, 2.0, size=n_inputs)
    grid = engine.evaluate_batch(
        configs, range(n_inputs), work_factors=work_factors
    )
    for deadline, period in ((anchor * 0.6, None), (anchor * 1.4, anchor * 1.7)):
        planes = grid.timing(deadline, period if period is not None else deadline)
        for row, config in enumerate(configs):
            for col in range(n_inputs):
                want = engine.evaluate(
                    model=config.model,
                    power_cap_w=config.power_w,
                    index=col,
                    deadline_s=deadline,
                    period_s=period,
                    work_factor=float(work_factors[col]),
                    rung_cap=config.rung_cap,
                )
                context = (config.describe(), col, deadline)
                assert planes.latency_s[row, col] == pytest.approx(
                    want.latency_s, abs=PARITY_TOL
                ), context
                assert grid.full_latency_s[row, col] == pytest.approx(
                    want.full_latency_s, abs=PARITY_TOL
                ), context
                assert planes.quality[row, col] == pytest.approx(
                    want.quality, abs=PARITY_TOL
                ), context
                assert planes.inference_j[row, col] == pytest.approx(
                    want.energy.inference_j, abs=PARITY_TOL
                ), context
                assert planes.idle_j[row, col] == pytest.approx(
                    want.energy.idle_j, abs=PARITY_TOL
                ), context
                assert bool(planes.met_deadline[row, col]) == want.met_deadline, context
                assert int(planes.completed_rungs[row, col]) == want.completed_rungs, (
                    context
                )
                assert grid.idle_power_w[row, col] == pytest.approx(
                    want.idle_power_w, abs=PARITY_TOL
                ), context
            assert grid.power_cap_w[row] == want.power_cap_w
            assert grid.inference_power_w[row] == pytest.approx(
                want.inference_power_w, abs=PARITY_TOL
            )


def _timings(model, full):
    """Deadlines below the first rung, between rungs, at the full
    latency and above it, each with a period shorter than the run and
    one longer."""
    fractions = [0.5, 1.0, 1.5]
    outputs = getattr(model, "outputs", None)
    if outputs is not None:
        first, second = (o.latency_fraction for o in outputs[:2])
        fractions += [first * 0.5, (first + second) / 2]
    for fraction in fractions:
        deadline = full * fraction
        for period in (deadline * 0.5, full * 3.0):
            yield deadline, period


def _fields(outcome) -> dict:
    fields = dict(outcome.__dict__)
    fields.pop("power_cap_w")
    fields.pop("effective_cap_w")
    energy = fields.pop("energy")
    fields["energy"] = (energy.inference_j, energy.idle_j)
    return fields


@pytest.mark.parametrize(
    ("platform", "task"),
    [
        ("CPU1", "image"),
        ("CPU1", "sentence"),
        ("CPU2", "image"),
        ("CPU2", "sentence"),
        ("GPU", "image"),
    ],
)
def test_grid_derived_outcomes_equal_run(platform, task):
    """Every configuration's outcome derived from the timing-free grid
    equals the metered engine's on every field but the cap labels, at
    every kind of deadline and period.  GPU rows resolve only where the
    actuator enforces the requested cap."""
    scenario = build_scenario(platform, task, "memory", "standard", seed=17)
    space = scenario.space()
    stream = scenario.make_stream()
    grid_engine = scenario.make_engine()
    view = GridView(oracle_outcome_grid(grid_engine, space, stream, 4))
    engine = scenario.make_engine()
    resolved = 0
    for config in space:
        effective = engine.actuator.set_power_cap(config.power_w)
        row = view.row_for(config.model, effective, config.rung_cap)
        if row is None:
            continue
        resolved += 1
        for index in (0, 3):
            item = stream.item(index)
            position = view.column(engine, item)
            full = float(view.grid.full_latency_s[row, position])
            for deadline, period in _timings(config.model, full):
                want = engine.run(
                    model=config.model,
                    power_cap_w=config.power_w,
                    index=index,
                    deadline_s=deadline,
                    period_s=period,
                    work_factor=item.work_factor,
                    rung_cap=config.rung_cap,
                )
                context = (config.describe(), index, deadline, period)
                got = view.outcome(
                    row, position, index, want.power_cap_w, deadline, period
                )
                assert _fields(got) == _fields(want), context
                paired = view.grid.timing_at(
                    np.array([row]), np.array([position]),
                    np.array([deadline]), np.array([period]),
                )
                whole = view.planes(deadline, period)
                for derived, at in ((paired, 0), (whole, (row, position))):
                    assert derived.latency_s[at] == want.latency_s
                    assert derived.met_deadline[at] == want.met_deadline
                    assert derived.quality[at] == want.quality
                    assert derived.completed_rungs[at] == want.completed_rungs
                    assert derived.inference_j[at] == (
                        want.energy.inference_j
                    ), context
                    assert derived.idle_j[at] == want.energy.idle_j
    if platform == "GPU":
        assert 0 < resolved < len(space)
    else:
        assert resolved == len(space)


# ----------------------------------------------------------------------
# Selection-level parity: the oracles pick identical configurations
# ----------------------------------------------------------------------
@pytest.mark.parametrize("spec", SCENARIO_GRID, ids=lambda s: "-".join(map(str, s)))
def test_oracle_decisions_identical_across_paths(spec):
    scenario = _scenario(spec)
    engine = scenario.make_engine()
    stream = scenario.make_stream()
    oracle = OracleScheduler(engine, _space(scenario))
    fallback_tiers_hit = 0
    for goal in _goals(scenario):
        for index in range(10):
            item = stream.item(index)
            fast = oracle.decide(item, goal)
            ref = oracle.decide_scalar(item, goal)
            assert fast.key == ref.key, (goal.describe(), index)
            outcome = engine.evaluate(
                model=fast.model,
                power_cap_w=fast.power_w,
                index=index,
                deadline_s=goal.deadline_s,
                period_s=goal.period,
                work_factor=item.work_factor,
                rung_cap=fast.rung_cap,
            )
            if not outcome.met_deadline or goal.quality_violated(outcome.quality):
                fallback_tiers_hit += 1
    # The goal grid must actually exercise the degradation hierarchy.
    assert fallback_tiers_hit > 0


def _random_goals(scenario, rng, n_goals) -> list[Goal]:
    """Goals mixing objectives, thresholds, deadlines and periods, some
    out of reach (the fallback tiers)."""
    anchor = scenario.anchor_latency_s()
    budget_power = scenario.machine.default_power()
    goals = []
    for _ in range(n_goals):
        deadline = float(anchor * rng.uniform(0.05, 2.0))
        period = None
        if rng.random() < 0.6:
            period = float(deadline * rng.uniform(0.5, 3.0))
        if rng.random() < 0.5:
            goals.append(Goal(
                objective=ObjectiveKind.MINIMIZE_ENERGY,
                deadline_s=deadline,
                period_s=period,
                accuracy_min=float(rng.uniform(0.6, 0.999)),
            ))
        else:
            goals.append(Goal(
                objective=ObjectiveKind.MAXIMIZE_ACCURACY,
                deadline_s=deadline,
                period_s=period,
                energy_budget_j=float(
                    budget_power * deadline * rng.uniform(0.01, 1.2)
                ),
            ))
    return goals


@pytest.mark.parametrize("spec", SCENARIO_GRID, ids=lambda s: "-".join(map(str, s)))
def test_stacked_oracle_matches_scalar_on_random_goals(spec):
    """One stacked Oracle step picks, for every goal, what the scalar
    reference picks for that goal alone — per-goal objectives,
    thresholds, deadlines and periods, grid columns and inputs past the
    grid's horizon (decided goal by goal) alike."""
    scenario = _scenario(spec)
    engine = scenario.make_engine()
    stream = scenario.make_stream()
    space = _space(scenario)
    n_grid = 6
    view = GridView(oracle_outcome_grid(engine, space, stream, n_grid))
    rng = np.random.default_rng(spec[-1])
    goals = _random_goals(scenario, rng, 9)
    oracles = [
        OracleScheduler(engine, space, grid_view=view) for _ in goals
    ]
    cell = OracleScheduler.stack_into_cell(oracles)
    assert isinstance(cell, OracleCell)
    tiers = set()
    for index in range(n_grid + 2):
        item = stream.item(index)
        assert (view.column(engine, item) is None) == (index >= n_grid)
        picks = cell.decide_many(goals, item)
        assert len(picks) == len(goals)
        for pick, oracle, goal in zip(picks, oracles, goals):
            want = oracle.decide_scalar(item, goal)
            assert pick.config.key == want.key, (goal.describe(), index)
            outcome = engine.evaluate(
                model=want.model,
                power_cap_w=want.power_w,
                index=index,
                deadline_s=goal.deadline_s,
                period_s=goal.period,
                work_factor=item.work_factor,
                rung_cap=want.rung_cap,
            )
            tiers.add(
                bool(
                    outcome.met_deadline
                    and not goal.quality_violated(outcome.quality)
                    and not goal.energy_violated(outcome.energy_j)
                )
            )
    # Both feasible picks and the fallback tiers were exercised.
    assert tiers == {True, False}
    stats = cell.lockstep_stats
    assert stats["goals"] == len(goals)
    assert stats["stacked_calls"] == n_grid + 2


def test_oracle_cell_refuses_schedulers_it_cannot_stack(image_scenario):
    engine = image_scenario.make_engine()
    stream = image_scenario.make_stream()
    space = _space(image_scenario)
    view = GridView(oracle_outcome_grid(engine, space, stream, 4))
    stacked = [OracleScheduler(engine, space, grid_view=view) for _ in range(2)]
    assert isinstance(OracleScheduler.stack_into_cell(stacked), OracleCell)
    for odd in (
        OracleScheduler(engine, space),
        OracleScheduler(image_scenario.make_engine(), space, grid_view=view),
    ):
        assert OracleScheduler.stack_into_cell([stacked[0], odd]) is None
    assert OracleScheduler.stack_into_cell([]) is None


@pytest.mark.parametrize("spec", SCENARIO_GRID, ids=lambda s: "-".join(map(str, s)))
def test_best_static_identical_across_paths(spec):
    scenario = _scenario(spec)
    space = _space(scenario)
    for goal in _goals(scenario):
        engine = scenario.make_engine()
        stream = scenario.make_stream()
        fast = best_static_config(engine, space, goal, stream, n_inputs=30)
        ref = best_static_config_scalar(engine, space, goal, stream, n_inputs=30)
        assert fast.key == ref.key, goal.describe()


# ----------------------------------------------------------------------
# Grid reuse: precomputed grids change nothing
# ----------------------------------------------------------------------
def test_oracle_view_backed_decisions_match_fresh(image_scenario):
    scenario = image_scenario
    space = _space(scenario)
    goal = Goal(
        objective=ObjectiveKind.MINIMIZE_ENERGY,
        deadline_s=scenario.anchor_latency_s(),
        accuracy_min=0.9,
    )
    n_inputs = 20
    grid = oracle_outcome_grid(
        scenario.make_engine(), space, scenario.make_stream(), n_inputs
    )
    gridded = OracleScheduler(
        scenario.make_engine(), space, grid_view=GridView(grid)
    )
    fresh = OracleScheduler(scenario.make_engine(), space)
    stream = scenario.make_stream()
    for index in range(n_inputs):
        item = stream.item(index)
        assert gridded.decide(item, goal).key == fresh.decide(item, goal).key
    # Off-grid inputs and off-grid deadlines still answer correctly.
    beyond = stream.item(n_inputs + 3)
    assert (
        gridded.decide(beyond, goal).key
        == fresh.decide(beyond, goal).key
    )
    shrunk = goal.with_deadline(goal.deadline_s * 0.8)
    item = stream.item(0)
    assert gridded.decide(item, shrunk).key == fresh.decide(item, shrunk).key


def test_one_config_table_per_engine_and_space(image_scenario):
    """The grid and every Oracle fallback column evaluate the space's
    own tuple, so one engine builds the space's config table once."""
    scenario = image_scenario
    space = scenario.space()
    engine = scenario.make_engine()
    stream = scenario.make_stream()
    goal = Goal(
        objective=ObjectiveKind.MINIMIZE_ENERGY,
        deadline_s=scenario.anchor_latency_s(),
        accuracy_min=0.9,
    )
    view = GridView(oracle_outcome_grid(engine, space, stream, 8))
    oracle = OracleScheduler(engine, space, grid_view=view)
    # Input 11 is off the grid: a fresh one-input column.
    oracle.decide(stream.item(11), goal)
    assert len(engine._config_tables) == 1


def test_view_backed_oracle_at_off_grid_timings_matches_scalar(
    image_scenario, monkeypatch
):
    """A grid holds no timing: view-backed Oracle decisions at
    deadlines and periods the grid never saw equal the scalar
    reference, and are derived from the grid without realising a
    column."""
    scenario = image_scenario
    space = scenario.space()
    engine = scenario.make_engine()
    stream = scenario.make_stream()
    n_inputs = 8
    view = GridView(oracle_outcome_grid(engine, space, stream, n_inputs))
    oracle = OracleScheduler(engine, space, grid_view=view)
    anchor = scenario.anchor_latency_s()
    budget_power = scenario.machine.default_power()
    goals = []
    for fraction, period in ((0.37, None), (0.8, None), (1.9, anchor * 0.5)):
        goals.append(
            Goal(
                objective=ObjectiveKind.MINIMIZE_ENERGY,
                deadline_s=anchor * fraction,
                period_s=period,
                accuracy_min=0.9,
            )
        )
        goals.append(
            Goal(
                objective=ObjectiveKind.MAXIMIZE_ACCURACY,
                deadline_s=anchor * fraction,
                period_s=period,
                energy_budget_j=budget_power * anchor * fraction * 0.6,
            )
        )
    items = [stream.item(i) for i in range(n_inputs)]
    expected = [
        [oracle.decide_scalar(item, goal).key for item in items]
        for goal in goals
    ]

    def realise(*args, **kwargs):
        raise AssertionError("a view-backed decision realised a column")

    monkeypatch.setattr(engine, "evaluate_batch", realise)
    for goal, want in zip(goals, expected):
        assert [oracle.decide(item, goal).key for item in items] == want
        assert [c.key for c in oracle.decide_batch(items, goal)] == want


def test_view_over_another_space_is_refused_or_bypassed(image_scenario):
    """Oracle refuses a view whose rows are not its space;
    OracleStatic realises its own grid instead."""
    scenario = image_scenario
    space = _space(scenario)
    fewer = ConfigurationSpace(
        list(scenario.candidates.models), list(scenario.profile().powers)[:2]
    )
    goal = Goal(
        objective=ObjectiveKind.MINIMIZE_ENERGY,
        deadline_s=scenario.anchor_latency_s(),
        accuracy_min=0.9,
    )
    n_inputs = 10
    view = GridView(
        oracle_outcome_grid(
            scenario.make_engine(), fewer, scenario.make_stream(), n_inputs
        ),
        trusted=True,
    )
    with pytest.raises(ConfigurationError, match="configuration space"):
        OracleScheduler(scenario.make_engine(), space, grid_view=view)
    fast = best_static_config(
        scenario.make_engine(), space, goal, scenario.make_stream(), n_inputs,
        grid_view=view,
    )
    fresh = best_static_config(
        scenario.make_engine(), space, goal, scenario.make_stream(), n_inputs
    )
    assert fast.key == fresh.key


def test_oracle_static_grid_equivalence(image_scenario):
    scenario = image_scenario
    space = _space(scenario)
    goal = Goal(
        objective=ObjectiveKind.MAXIMIZE_ACCURACY,
        deadline_s=scenario.anchor_latency_s(),
        energy_budget_j=scenario.machine.default_power()
        * scenario.anchor_latency_s()
        * 0.5,
    )
    n_inputs = 25
    grid = oracle_outcome_grid(
        scenario.make_engine(), space, scenario.make_stream(), n_inputs
    )
    with_grid = make_oracle_static(
        scenario.make_engine(), space, goal, scenario.make_stream(), n_inputs,
        grid_view=GridView(grid),
    )
    without = make_oracle_static(
        scenario.make_engine(), space, goal, scenario.make_stream(), n_inputs
    )
    item = InputItem(index=0)
    assert with_grid.decide(item, goal).key == without.decide(item, goal).key


def test_evaluate_schemes_shared_grid_unchanged(image_scenario, reference_cell):
    """The harness's per-cell grid reuse must not change any run."""
    goal = Goal(
        objective=ObjectiveKind.MINIMIZE_ENERGY,
        deadline_s=image_scenario.anchor_latency_s(),
        accuracy_min=0.9,
    )
    schemes = ("Oracle", "OracleStatic")
    shared = evaluate_schemes(image_scenario, [goal], schemes, n_inputs=20)
    fresh = reference_cell(image_scenario, [goal], schemes, 20)
    for name in schemes:
        a = shared.scheme_runs(name)[0]
        b = fresh.scheme_runs(name)[0]
        assert [r.outcome.model_name for r in a.records] == [
            r.outcome.model_name for r in b.records
        ]
        assert [r.outcome.power_cap_w for r in a.records] == [
            r.outcome.power_cap_w for r in b.records
        ]
        assert a.mean_energy_j == pytest.approx(b.mean_energy_j, abs=PARITY_TOL)
        assert a.violation_fraction == b.violation_fraction
