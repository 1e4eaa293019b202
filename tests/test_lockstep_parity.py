"""Parity suite for the lockstep multi-goal decision engine.

Pins the contract of the stacked-state machinery at every layer:

* stacked Kalman / idle-power / slowdown filters ≡ scalar filters,
  elementwise, across randomized measurement sequences;
* ``BatchAlertEstimator.stacked_fields`` rows ≡ per-state
  ``estimate_batch`` planes, the two shapes of one estimator body
  (single fused erf pass, same numbers);
* ``ConfigSelector.select_many``'s winners ≡ per-state ``select``'s;
* the stacked No-coord cell controller ≡ fresh scalar
  ``NoCoordScheduler`` runs, elementwise bit-identical;
* the deadline-vector cell contract: ALERT, Sys-only, No-coord and
  Oracle cells fed base goals and adjusted deadlines ≡ each goal's own
  scheduler at that deadline, and a lane builds no goal or selection
  while stepping;
* the width rule: a cell with at least ``LOCKSTEP_MIN_GOALS`` goals
  advances every stacking scheme as a lane of one
  :class:`~repro.runtime.loop.CrossSchemeLockstepLoop`, a narrower one
  serves each goal alone — both ≡ the sequential reference, and the
  whole nine-scheme zoo ≡ the reference across platforms and
  objectives (discrete record fields exactly, floats ≤1e-12 relative);
* the loops themselves are width-agnostic: hand-driven lanes of a
  narrow cell, alone or together, ≡ the reference; a wide cell ≡ the
  same goals as one-goal cells;
* pool execution ≡ serial; a wide cell serves **zero** inputs through
  per-input Python ``decide``/``observe``; grid-complete lanes never
  call ``InferenceEngine.run``; every lane's simulated clock ends where
  the sequential run's does;
* the fallback contract: custom scheduler and kernel types, warm
  kernels and mismatched ladders must land on the sequential path,
  never on a wrong lockstep one.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.baselines import (
    NoCoordCellController,
    NoCoordScheduler,
    OracleScheduler,
    SysOnlyScheduler,
    make_alert,
    oracle_outcome_grid,
)
from repro.core.config_space import ConfigurationSpace
from repro.core.estimator import AlertEstimator
from repro.core.goals import Goal, ObjectiveKind
from repro.core.kalman import (
    AdaptiveKalmanFilter,
    IdlePowerFilter,
    StackedIdlePowerFilter,
    StackedKalmanFilter,
)
from repro.core.kernel import (
    AlertCellKernel,
    AlertKernel,
    Measurement,
    StackedMeasurements,
)
from repro.core.selector import ConfigSelector, lexargmin
from repro.core.slowdown import GlobalSlowdownEstimator, StackedSlowdownEstimator
from repro.errors import ConfigurationError
from repro.experiments.harness import (
    SCHEMES,
    CellResult,
    evaluate_schemes,
    make_scheme,
)
from repro.experiments.table4_overall import DEFAULT_SCHEMES as TABLE4_SCHEMES
from repro.models.inference import GridView, InferenceEngine
from repro.runtime.executor import (
    LOCKSTEP_MIN_GOALS,
    CellSpec,
    RunExecutor,
    ScenarioKey,
    plan_cells,
    timing_grid,
)
from repro.runtime.loop import (
    LOCKSTEP_TELEMETRY,
    CrossSchemeLockstepLoop,
    ServingLoop,
)
from repro.runtime.results import RunResult
from repro.runtime.scheduler import AlertScheduler
from repro.runtime.sweep import (
    SweepSpec,
    compile_sweep,
    run_sweep,
    summarize_cell,
)
from repro.workloads.scenarios import build_scenario
from repro.workloads.traces import RequirementChange, RequirementTrace

#: Float tolerance of the lockstep path (the acceptance bar; in
#: practice the stacked state advances bit-identically).
REL_TOL = 1e-12

#: Schemes whose schedulers are feedback-free: they ride the batch
#: fast path when their runs allow it, and stack into lanes otherwise.
FEEDBACK_FREE = ("Oracle", "OracleStatic", "App-only")

#: The feedback schemes whose schedulers stack into a lockstep lane.
STACKING = ("ALERT", "Sys-only", "No-coord")

#: Width of the hand-driven lockstep cells: below the width rule, so
#: the executor would serve them per goal — only a loop driven directly
#: advances them in lockstep.
NARROW = 4


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


def _tail_arrays(tails):
    """Per-state ``(fraction, ratio)`` tuples (or None) as the stacked
    form's pair of arrays; a missing tail is fraction 0."""
    return (
        np.array([0.0 if tail is None else tail[0] for tail in tails]),
        np.array([1.0 if tail is None else tail[1] for tail in tails]),
    )


def _deadlines(goals):
    return np.array([goal.deadline_s for goal in goals])


def _stacked_planes(batch, groups, n_states):
    """A stacked query's groups reassembled into ``(G × C)`` planes."""
    planes = {}
    for rows, _objective, group_planes in groups:
        for name, plane in group_planes.items():
            full = planes.setdefault(
                name, np.empty((n_states, batch.n_configs), dtype=plane.dtype)
            )
            full[rows] = plane
    return planes


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
def test_stacked_fields_match_estimate_batch(platform, task, seed):
    scenario = build_scenario(platform, task, "default", "standard", seed=seed)
    selector = _selector(scenario)
    batch = selector.batch
    rng = np.random.default_rng(seed)
    goals = _goal_grid(scenario, rng, 10)
    means, sigmas, phis, tails = _random_states(rng, len(goals))
    groups = batch.stacked_fields(
        goals, _deadlines(goals), means, sigmas, phis, _tail_arrays(tails)
    )
    for rows, objective, _planes in groups:
        assert all(goals[row].objective is objective for row in rows)
    stacked = _stacked_planes(batch, groups, len(goals))
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
            "meets_latency",
            "meets_accuracy",
            "meets_energy",
            "meets_prob",
            "meets_latency_mean",
        ):
            np.testing.assert_array_equal(
                stacked[field][state],
                single[field],
                err_msg=f"{platform} state {state} field {field}",
            )


@pytest.mark.parametrize("seed", [5, 13, 37, 61])
def test_select_many_matches_select(seed):
    scenario = build_scenario("CPU1", "image", "default", "standard", seed=7)
    selector = _selector(scenario)
    rng = np.random.default_rng(seed)
    goals = _goal_grid(scenario, rng, 12)
    means, sigmas, phis, tails = _random_states(rng, len(goals))
    stacked = selector.select_many(
        goals, _deadlines(goals), means, sigmas, phis, _tail_arrays(tails)
    )
    assert len(stacked) == len(goals)
    for state, goal in enumerate(goals):
        single = selector.select(
            goal, means[state], sigmas[state], phis[state], tails[state]
        )
        assert stacked[state] is single.config, state


_FIELDS = (
    "latency_mean_s",
    "deadline_probability",
    "expected_quality",
    "quality_meet_probability",
    "expected_energy_j",
    "meets_latency",
    "meets_accuracy",
    "meets_energy",
    "meets_prob",
    "meets_latency_mean",
)


@pytest.mark.parametrize("seed", [3, 8])
def test_stacked_fields_for_moving_deadlines_each_step(seed):
    """Sentence lanes pass the same base goals every word with a new
    vector of deadlines: the stacked planes still equal width-1
    ``estimate_batch`` of each goal at its deadline, whether the
    deadlines move, stay or come back, with explicit periods kept off
    the deadline."""
    scenario = build_scenario("CPU1", "sentence", "default", "standard", seed=seed)
    batch = _selector(scenario).batch
    rng = np.random.default_rng(seed)
    bases = _goal_grid(scenario, rng, 9)
    anchor = scenario.anchor_latency_s()
    # An explicit period keeps a goal's period off its deadline.
    bases[0] = Goal(
        objective=ObjectiveKind.MAXIMIZE_ACCURACY,
        deadline_s=anchor,
        period_s=anchor * 1.3,
        energy_budget_j=scenario.machine.default_power() * anchor * 0.7,
    )
    bases[1] = Goal(
        objective=ObjectiveKind.MINIMIZE_ENERGY,
        deadline_s=anchor,
        period_s=anchor * 0.8,
        accuracy_min=0.9,
    )
    bases = tuple(bases)
    base_deadlines = _deadlines(bases)
    factors = rng.uniform(0.3, 1.6, size=(4, len(bases)))
    for step in range(8):
        # Steps 4-7 replay steps 0-3's deadlines.
        deadlines = base_deadlines * factors[step % 4]
        means, sigmas, phis, tails = _random_states(rng, len(bases))
        stacked = _stacked_planes(batch, batch.stacked_fields(
            bases, deadlines, means, sigmas, phis, _tail_arrays(tails)
        ), len(bases))
        for state, base in enumerate(bases):
            goal = base.with_deadline(float(deadlines[state]))
            single = batch.estimate_batch(
                goal, means[state], sigmas[state], phis[state], tails[state]
            )
            for field in _FIELDS:
                np.testing.assert_array_equal(
                    stacked[field][state],
                    single[field],
                    err_msg=f"step {step} state {state} field {field}",
                )


def _lexsort_argmin(keys, mask):
    """The reference: a stable lexsort over the masked candidates."""
    candidates = np.flatnonzero(mask)
    order = np.lexsort(tuple(key[candidates] for key in reversed(keys)))
    return int(candidates[order[0]])


@pytest.mark.parametrize("seed", [1, 2, 3, 4])
def test_lexargmin_matches_lexsort(seed):
    """Forced ties in every key, ±0.0, ±inf and NaN (which orders last)."""
    rng = np.random.default_rng(seed)
    values = np.array([-np.inf, -1.0, -0.0, 0.0, 1.0, np.inf, np.nan])
    for _ in range(50):
        rows, cols = rng.integers(1, 6), rng.integers(1, 9)
        keys = tuple(
            rng.choice(values, size=(rows, cols)) for _ in range(rng.integers(1, 5))
        )
        mask = rng.random((rows, cols)) < 0.7
        mask[np.arange(rows), rng.integers(0, cols, size=rows)] = True
        got = lexargmin(keys, axis=1, mask=mask)
        for r in range(rows):
            want = _lexsort_argmin([key[r] for key in keys], mask[r])
            assert got[r] == want
        transposed = lexargmin(tuple(key.T for key in keys), axis=0, mask=mask.T)
        np.testing.assert_array_equal(transposed, got)
        assert lexargmin([keys[0][0]], mask=mask[0]) == _lexsort_argmin(
            [keys[0][0]], mask[0]
        )


@pytest.mark.parametrize("seed", [21, 22, 23])
def test_select_many_matches_lexsort_select_on_random_planes(seed, monkeypatch):
    """Random estimate planes with ties in every key, ±0.0 and ±inf:
    the row-wise argmin picks what the width-1 lexsort ``select`` picks,
    in every fallback stage."""
    scenario = build_scenario("CPU1", "image", "default", "standard", seed=7)
    selector = _selector(scenario)
    batch = selector.batch
    rng = np.random.default_rng(seed)
    n_states, n = 12, batch.n_configs
    values = np.array([-np.inf, -2.0, -0.0, 0.0, 0.5, 2.0, np.inf])
    goals = _goal_grid(scenario, rng, n_states)
    means, sigmas, phis, tails = _random_states(rng, n_states)
    for _ in range(20):
        fields = {}
        for name in _FIELDS[:5]:
            fields[name] = rng.choice(values, size=(n_states, n))
        for name in _FIELDS[5:]:
            # Sparse flags reach every stage, dense ones stage 0.
            fields[name] = rng.random((n_states, n)) < rng.choice([0.02, 0.9])
        groups = [
            (rows, objective, {name: plane[rows] for name, plane in fields.items()})
            for objective in ObjectiveKind
            for rows in [np.array([
                g for g, goal in enumerate(goals) if goal.objective is objective
            ], dtype=np.intp)]
            if rows.size
        ]
        monkeypatch.setattr(batch, "stacked_fields", lambda *a, **k: groups)
        stacked = selector.select_many(
            goals, _deadlines(goals), means, sigmas, phis, _tail_arrays(tails)
        )
        for state, goal in enumerate(goals):
            row = {name: plane[state] for name, plane in fields.items()}
            monkeypatch.setattr(batch, "estimate_batch", lambda *a, **k: row)
            single = selector.select(goal, 1.0, 0.1, 0.5)
            assert stacked[state] is single.config, state


# ----------------------------------------------------------------------
# Stacked No-coord ≡ scalar No-coord
# ----------------------------------------------------------------------
def _grid_goals(scenario, objective):
    """A six-goal grid: two deadlines × three floors or budgets."""
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
        for b in (budget, budget * 1.25, budget * 1.5)
    ]


def _no_coord(scenario):
    return NoCoordScheduler(scenario.profile(), scenario.candidates.anytime)


class _Measured:
    """Minimal outcome stub carrying what No-coord's observe reads."""

    def __init__(self, full_latency_s: float, power_cap_w: float) -> None:
        self.full_latency_s = full_latency_s
        self.power_cap_w = power_cap_w


@pytest.mark.parametrize("seed", [0, 11, 42])
@pytest.mark.parametrize(
    "objective",
    [ObjectiveKind.MINIMIZE_ENERGY, ObjectiveKind.MAXIMIZE_ACCURACY],
)
def test_stacked_no_coord_matches_scalar(seed, objective):
    scenario = build_scenario("CPU1", "image", "default", "standard", seed=9)
    goals = _grid_goals(scenario, objective)
    scalars = [_no_coord(scenario) for _ in goals]
    cell = NoCoordScheduler.stack_into_cell(
        [_no_coord(scenario) for _ in goals]
    )
    assert isinstance(cell, NoCoordCellController)

    rng = np.random.default_rng(seed)
    item = scenario.make_stream().item(0)
    powers = scalars[0].powers
    for _ in range(25):
        stacked = cell.decide_many(goals, _deadlines(goals), item)
        for g, (scheduler, goal) in enumerate(zip(scalars, goals)):
            config = scheduler.decide(item, goal)
            assert stacked[g].model is config.model
            assert stacked[g].rung_cap == config.rung_cap
            assert stacked[g].power_w == config.power_w
        outcomes = [
            _Measured(
                full_latency_s=float(rng.uniform(0.01, 0.3)),
                power_cap_w=float(rng.choice(powers)),
            )
            for _ in goals
        ]
        cell.observe_many(
            StackedMeasurements(
                model_name=[scalars[0].model.name] * len(goals),
                power_cap_w=[o.power_cap_w for o in outcomes],
                full_latency_s=np.array([o.full_latency_s for o in outcomes]),
                idle_power_w=np.zeros(len(goals)),
                idle_mask=np.zeros(len(goals), dtype=bool),
            )
        )
        for scheduler, outcome in zip(scalars, outcomes):
            scheduler.observe(outcome)
        for g, scheduler in enumerate(scalars):
            assert cell._app.mean[g] == scheduler.kernel.app_filter.mean
            assert cell._app.sigma[g] == scheduler.kernel.app_filter.sigma
            assert cell._sys.mean[g] == scheduler.kernel.sys_filter.mean
            assert cell._sys.sigma[g] == scheduler.kernel.sys_filter.sigma


def test_no_coord_stats_and_snapshot_contract():
    scenario = build_scenario("CPU1", "image", "default", "standard", seed=9)
    goals = _grid_goals(scenario, ObjectiveKind.MINIMIZE_ENERGY)
    cell = NoCoordScheduler.stack_into_cell([_no_coord(scenario) for _ in goals])
    assert cell.xi_snapshot() is None
    cell.decide_many(goals, _deadlines(goals), scenario.make_stream().item(0))
    stats = cell.lockstep_stats
    assert stats["goals"] == len(goals)
    assert stats["stacked_calls"] == 1
    assert stats["stacked_states"] == len(goals)


def test_no_coord_refuses_warm_schedulers():
    scenario = build_scenario("CPU1", "image", "default", "standard", seed=9)
    warm = _no_coord(scenario)
    warm.observe(_Measured(0.1, warm.powers[-1]))
    assert NoCoordScheduler.stack_into_cell([warm, _no_coord(scenario)]) is None


def test_no_coord_refuses_subclasses():
    scenario = build_scenario("CPU1", "image", "default", "standard", seed=9)

    class Tweaked(NoCoordScheduler):
        pass

    tweaked = Tweaked(scenario.profile(), scenario.candidates.anytime)
    assert NoCoordCellController.from_schedulers([tweaked]) is None


def test_no_coord_refuses_mismatched_ladders():
    scenario = build_scenario("CPU1", "image", "default", "standard", seed=9)
    profile = scenario.profile()
    anytime = scenario.candidates.anytime
    reduced = NoCoordScheduler(
        profile, anytime, powers=list(profile.powers)[:2]
    )
    assert (
        NoCoordCellController.from_schedulers([_no_coord(scenario), reduced])
        is None
    )


def test_no_coord_refuses_empty():
    assert NoCoordCellController.from_schedulers([]) is None


# ----------------------------------------------------------------------
# The deadline-vector cell contract ≡ per-goal decide
# ----------------------------------------------------------------------
def _contract_goals(scenario, rng, n_goals):
    """Random base goals of both objectives; about half set a period."""
    anchor = scenario.anchor_latency_s()
    budget_power = scenario.machine.default_power()
    goals = []
    for _ in range(n_goals):
        deadline = float(anchor * rng.uniform(0.3, 2.0))
        period = None
        if rng.random() < 0.5:
            period = float(deadline * rng.uniform(0.5, 3.0))
        prob = None if rng.random() < 0.7 else float(rng.uniform(0.6, 0.97))
        if rng.random() < 0.5:
            goals.append(Goal(
                objective=ObjectiveKind.MINIMIZE_ENERGY, deadline_s=deadline,
                period_s=period, accuracy_min=float(rng.uniform(0.6, 0.99)),
                prob_threshold=prob,
            ))
        else:
            goals.append(Goal(
                objective=ObjectiveKind.MAXIMIZE_ACCURACY, deadline_s=deadline,
                period_s=period,
                energy_budget_j=float(
                    budget_power * deadline * rng.uniform(0.05, 1.2)
                ),
                prob_threshold=prob,
            ))
    return tuple(goals)


def _contract_case(scheme, scenario, n_goals, n_grid):
    """``(cell, references)``: one stacked cell and ``n_goals`` fresh
    per-goal schedulers of ``scheme``."""
    profile = scenario.profile()
    if scheme == "ALERT":
        build = lambda: make_alert(profile)  # noqa: E731
    elif scheme == "Sys-only":
        models = list(scenario.candidates.models)
        build = lambda: SysOnlyScheduler(profile, models)  # noqa: E731
    elif scheme == "No-coord":
        build = lambda: _no_coord(scenario)  # noqa: E731
    else:
        engine = scenario.make_engine()
        space = scenario.space()
        view = GridView(oracle_outcome_grid(
            engine, space, scenario.make_stream(), n_grid
        ))
        build = lambda: OracleScheduler(engine, space, grid_view=view)  # noqa: E731
    references = [build() for _ in range(n_goals)]
    cell = type(references[0]).stack_into_cell([build() for _ in range(n_goals)])
    assert cell is not None
    return cell, references


@pytest.mark.parametrize("scheme", ["ALERT", "Sys-only", "No-coord", "Oracle"])
@pytest.mark.parametrize("seed", [4, 17])
def test_deadline_vector_contract_matches_per_goal_decide(scheme, seed):
    """A stacked cell fed the base goals and a vector of adjusted
    deadlines picks, for every goal, what that goal's own scheduler
    picks for the base goal at that deadline — explicit periods,
    deadlines under ALERT's overhead reserve (its 1e-6 floor), tails,
    degenerate idle ratios, inputs past the grid and a rebase of every
    goal mid-run included."""
    scenario = build_scenario("CPU1", "image", "default", "standard", seed=seed)
    profile = scenario.profile()
    stream = scenario.make_stream()
    rng = np.random.default_rng(seed)
    n_goals, n_steps, n_grid = 9, 12, 9
    cell, references = _contract_case(scheme, scenario, n_goals, n_grid)
    bases = _contract_goals(scenario, rng, n_goals)
    overhead = getattr(cell, "overhead_s", 0.0)
    floored = 0
    # Mid-run, a requirement change moves every deadline and sets a
    # floor on every goal (a new structure for the maximise-accuracy
    # goals).
    trace = RequirementTrace([RequirementChange(
        start_index=n_steps // 2, deadline_s=scenario.anchor_latency_s(),
        accuracy_min=0.8,
    )])
    originals = bases
    for step in range(n_steps):
        item = stream.item(step)
        rebased = tuple(trace.apply(goal, step) for goal in originals)
        if rebased != bases:
            bases = rebased
        deadlines = _deadlines(bases) * rng.uniform(0.2, 1.5, size=n_goals)
        tiny = rng.random(n_goals) < 0.2
        deadlines[tiny] = max(overhead, 1e-4) * 0.5
        floored += int(np.count_nonzero(deadlines - overhead <= 1e-6))
        picks = cell.decide_many(bases, deadlines, item)
        wants = []
        for reference, base, deadline in zip(references, bases, deadlines):
            goal = base.with_deadline(float(deadline))
            if scheme in ("ALERT", "Sys-only"):
                wants.append(reference.kernel.decide(goal).config)
            else:
                wants.append(reference.decide(item, goal))
        assert [pick.key for pick in picks] == [want.key for want in wants]
        if getattr(cell, "feedback_free", False):
            continue
        names = [want.model.name for want in wants]
        caps = [want.power_w for want in wants]
        full = np.array([
            profile.latency(name, cap) for name, cap in zip(names, caps)
        ]) * np.where(
            rng.random(n_goals) < 0.1, 4.0, rng.uniform(0.7, 1.6, n_goals)
        )
        idle_mask = rng.random(n_goals) < 0.6
        idle = np.array([
            profile.power(name, cap) for name, cap in zip(names, caps)
        ]) * rng.uniform(0.2, 1.4, size=n_goals)
        cell.observe_many(StackedMeasurements(
            names, caps, full, np.where(idle_mask, idle, 0.0), idle_mask,
        ))
        for g, reference in enumerate(references):
            reference.kernel.observe(Measurement(
                model_name=names[g], power_cap_w=caps[g],
                full_latency_s=float(full[g]),
                idle_power_w=float(idle[g]) if idle_mask[g] else None,
            ))
    if scheme == "ALERT":
        assert floored > 0


# ----------------------------------------------------------------------
# Cells ≡ the sequential reference
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


def _assert_runs_match(cell, reference, schemes):
    assert cell.goals == reference.goals
    for name in schemes:
        pairs = zip(cell.scheme_runs(name), reference.scheme_runs(name))
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
def test_zoo_cell_matches_reference(
    platform, task, env, seed, objective, reference_cell
):
    scenario = build_scenario(platform, task, env, "standard", seed=seed)
    goals = _grid_goals(scenario, objective)
    n_inputs = 12
    LOCKSTEP_TELEMETRY.reset()
    cell = evaluate_schemes(scenario, goals, SCHEMES, n_inputs=n_inputs)
    assert LOCKSTEP_TELEMETRY.snapshot()["lockstep_runs"] > 0
    reference = reference_cell(scenario, goals, SCHEMES, n_inputs)
    _assert_runs_match(cell, reference, SCHEMES)


def _lanes(scenario, goals, schemes, n_inputs, engine, stream, views):
    """One hand-built lockstep lane per scheme over ``goals``."""
    lanes = []
    for scheme in schemes:
        schedulers = [
            make_scheme(scheme, scenario, engine, stream, goal, n_inputs)
            for goal in goals
        ]
        lane = CrossSchemeLockstepLoop.lane(
            engine, stream, schedulers, goals, views
        )
        assert lane is not None, scheme
        lanes.append(lane)
    return lanes


def _trusted_views(scenario, goals, n_inputs, engine, stream):
    """One trusted view over the scenario's grid, shared by every goal
    whatever its timing."""
    grid = timing_grid(scenario, n_inputs, engine=engine, stream=stream)
    return [GridView(grid, trusted=True)] * len(goals)


CELLS = [
    ("CPU1", "image", "default", 5),
    ("CPU2", "image", "memory", 17),
    ("GPU", "image", "compute", 23),
    ("CPU1", "sentence", "compute", 29),
    ("EMBEDDED", "image", "memory", 41),
]


@pytest.mark.parametrize(("platform", "task", "env", "seed"), CELLS)
@pytest.mark.parametrize(
    "objective",
    [ObjectiveKind.MINIMIZE_ENERGY, ObjectiveKind.MAXIMIZE_ACCURACY],
)
def test_lockstep_matches_sequential(
    platform, task, env, seed, objective, reference_cell
):
    """Each scheme's lane, run alone on a live engine (no grid view)
    over a narrow cell, ≡ the sequential reference."""
    scenario = build_scenario(platform, task, env, "standard", seed=seed)
    goals = tuple(_grid_goals(scenario, objective)[:NARROW])
    assert len(goals) < LOCKSTEP_MIN_GOALS
    n_inputs = 12
    runs = {}
    for scheme in SCHEMES:
        engine = scenario.make_engine()
        stream = scenario.make_stream()
        (lane,) = _lanes(
            scenario, goals, (scheme,), n_inputs, engine, stream,
            [None] * len(goals),
        )
        runs[scheme] = CrossSchemeLockstepLoop([lane]).run(n_inputs)[0]
    lockstep = CellResult(scenario=scenario, goals=goals, runs=runs)
    reference = reference_cell(scenario, goals, SCHEMES, n_inputs)
    _assert_runs_match(lockstep, reference, SCHEMES)


@pytest.mark.parametrize(("platform", "task", "env", "seed"), CELLS)
@pytest.mark.parametrize(
    "objective",
    [ObjectiveKind.MINIMIZE_ENERGY, ObjectiveKind.MAXIMIZE_ACCURACY],
)
def test_multi_lane_loop_matches_lone_lanes_and_reference(
    platform, task, env, seed, objective, reference_cell
):
    """The multi-lane loop over grid-served lanes ≡ each lane run
    alone ≡ the sequential reference, whatever the cell's width."""
    scenario = build_scenario(platform, task, env, "standard", seed=seed)
    goals = tuple(_grid_goals(scenario, objective)[:NARROW])
    n_inputs = 12
    engine = scenario.make_engine()
    stream = scenario.make_stream()
    views = _trusted_views(scenario, goals, n_inputs, engine, stream)
    lanes = _lanes(
        scenario, goals, SCHEMES, n_inputs, engine, stream, views
    )
    cross = CellResult(
        scenario=scenario,
        goals=goals,
        runs=dict(
            zip(SCHEMES, CrossSchemeLockstepLoop(lanes).run(n_inputs))
        ),
    )
    per_lane = {}
    for scheme in SCHEMES:
        engine = scenario.make_engine()
        stream = scenario.make_stream()
        views = _trusted_views(scenario, goals, n_inputs, engine, stream)
        (lane,) = _lanes(
            scenario, goals, (scheme,), n_inputs, engine, stream, views
        )
        per_lane[scheme] = CrossSchemeLockstepLoop([lane]).run(n_inputs)[0]
    alone = CellResult(scenario=scenario, goals=goals, runs=per_lane)
    reference = reference_cell(scenario, goals, SCHEMES, n_inputs)
    _assert_runs_match(cross, alone, SCHEMES)
    _assert_runs_match(cross, reference, SCHEMES)


@pytest.mark.parametrize(
    "n_goals",
    [1, LOCKSTEP_MIN_GOALS - 1, LOCKSTEP_MIN_GOALS, 2 * LOCKSTEP_MIN_GOALS],
)
def test_width_rule_picks_the_serving_path(n_goals, reference_cell):
    scenario = build_scenario("CPU1", "image", "default", "standard", seed=5)
    anchor = scenario.anchor_latency_s()
    goals = [
        Goal(
            objective=ObjectiveKind.MINIMIZE_ENERGY,
            deadline_s=anchor * (1.0 + 0.1 * g),
            accuracy_min=0.85 + 0.01 * g,
        )
        for g in range(n_goals)
    ]
    n_inputs = 10
    LOCKSTEP_TELEMETRY.reset()
    cell = evaluate_schemes(scenario, goals, STACKING, n_inputs=n_inputs)
    snapshot = LOCKSTEP_TELEMETRY.snapshot()
    if n_goals < LOCKSTEP_MIN_GOALS:
        assert snapshot["lockstep_runs"] == 0
        assert snapshot["fallback_runs"] == len(STACKING) * n_goals
    else:
        assert snapshot["lockstep_runs"] == len(STACKING) * n_goals
        assert snapshot["sequential_inputs"] == 0
    reference = reference_cell(scenario, goals, STACKING, n_inputs)
    for name in STACKING:
        for run, expected in zip(
            cell.scheme_runs(name), reference.scheme_runs(name)
        ):
            assert run == expected, name


def test_wide_cell_serves_zero_sequential_inputs(reference_cell):
    scenario = build_scenario("CPU1", "image", "default", "standard", seed=5)
    goals = _grid_goals(scenario, ObjectiveKind.MINIMIZE_ENERGY)
    LOCKSTEP_TELEMETRY.reset()
    evaluate_schemes(scenario, goals, SCHEMES, n_inputs=10)
    snapshot = LOCKSTEP_TELEMETRY.snapshot()
    # Every stacked scheme advanced through decide_many/observe_many;
    # the feedback-free schemes rode the batch fast path.  Nothing
    # went through the per-input sequential reference loop.
    assert snapshot["sequential_inputs"] == 0
    assert snapshot["fallback_runs"] == len(FEEDBACK_FREE) * len(goals)
    assert snapshot["lockstep_runs"] == (
        (len(SCHEMES) - len(FEEDBACK_FREE)) * len(goals)
    )

    # A sentence's words share its deadline, so no run is batch
    # eligible: every Table 4 scheme, the feedback-free ones too,
    # advances as a lane, and every run equals its sequential
    # reference record for record.
    sentence = build_scenario("CPU1", "sentence", "default", "standard", seed=5)
    goals = _grid_goals(sentence, ObjectiveKind.MAXIMIZE_ACCURACY)
    LOCKSTEP_TELEMETRY.reset()
    cell = evaluate_schemes(sentence, goals, TABLE4_SCHEMES, n_inputs=10)
    snapshot = LOCKSTEP_TELEMETRY.snapshot()
    assert snapshot["sequential_inputs"] == 0
    assert snapshot["fallback_runs"] == 0
    assert snapshot["lockstep_runs"] == len(TABLE4_SCHEMES) * len(goals)
    reference = reference_cell(sentence, goals, TABLE4_SCHEMES, 10)
    for name in TABLE4_SCHEMES:
        for run, expected in zip(
            cell.scheme_runs(name), reference.scheme_runs(name)
        ):
            assert run.records == expected.records, name


@pytest.mark.parametrize("task", ["sentence", "image"])
def test_lanes_build_no_goal_or_selection_while_stepping(task, monkeypatch):
    """A lane decides array in, array out: stepping a wide CPU1 cell
    over the Table 4 schemes builds no ``SelectionResult`` and calls
    ``Goal.with_deadline`` zero times, though a sentence cell adjusts
    every word's deadline and ALERT reserves its overhead from each."""
    from repro.core import selector as selector_module

    scenario = build_scenario("CPU1", task, "default", "standard", seed=5)
    goals = _grid_goals(scenario, ObjectiveKind.MINIMIZE_ENERGY) + _grid_goals(
        scenario, ObjectiveKind.MAXIMIZE_ACCURACY
    )
    counts = {"selections": 0, "with_deadline": 0}
    stepping = [False]
    selection_init = selector_module.SelectionResult.__init__
    with_deadline = Goal.with_deadline

    def counting_init(self, *args, **kwargs):
        counts["selections"] += stepping[0]
        selection_init(self, *args, **kwargs)

    def counting_with_deadline(self, deadline_s):
        counts["with_deadline"] += stepping[0]
        return with_deadline(self, deadline_s)

    run = CrossSchemeLockstepLoop.run

    def stepping_run(self, n_inputs):
        stepping[0] = True
        try:
            return run(self, n_inputs)
        finally:
            stepping[0] = False

    monkeypatch.setattr(selector_module.SelectionResult, "__init__", counting_init)
    monkeypatch.setattr(Goal, "with_deadline", counting_with_deadline)
    monkeypatch.setattr(CrossSchemeLockstepLoop, "run", stepping_run)
    LOCKSTEP_TELEMETRY.reset()
    evaluate_schemes(scenario, goals, TABLE4_SCHEMES, n_inputs=12)
    assert LOCKSTEP_TELEMETRY.snapshot()["lockstep_cells"] >= 1
    assert counts == {"selections": 0, "with_deadline": 0}


def test_lockstep_telemetry_counts(image_scenario):
    goals = _grid_goals(image_scenario, ObjectiveKind.MINIMIZE_ENERGY)
    LOCKSTEP_TELEMETRY.reset()
    evaluate_schemes(image_scenario, goals, ("ALERT", "Oracle"), n_inputs=10)
    snapshot = LOCKSTEP_TELEMETRY.snapshot()
    assert snapshot["lockstep_cells"] == 1
    assert snapshot["lockstep_runs"] == len(goals)
    assert snapshot["fallback_runs"] == len(goals)  # Oracle runs per goal
    assert snapshot["stacked_calls"] >= 1
    assert snapshot["stacked_states"] >= snapshot["stacked_calls"]


def test_lockstep_never_calls_engine_run(image_scenario, monkeypatch):
    calls = []
    real = InferenceEngine.run

    def counting(self, *args, **kwargs):
        calls.append(args)
        return real(self, *args, **kwargs)

    monkeypatch.setattr(InferenceEngine, "run", counting)
    goals = _grid_goals(image_scenario, ObjectiveKind.MINIMIZE_ENERGY)
    LOCKSTEP_TELEMETRY.reset()
    evaluate_schemes(image_scenario, goals, ("ALERT", "ALERT*"), n_inputs=15)
    assert LOCKSTEP_TELEMETRY.snapshot()["lockstep_runs"] == 2 * len(goals)
    assert calls == []


def test_grid_complete_cell_never_calls_engine_run(monkeypatch):
    scenario = build_scenario("CPU1", "image", "default", "standard", seed=5)
    anchor = scenario.anchor_latency_s()
    # One grid serves the whole cell, whatever each goal's timing.
    goals = [
        Goal(
            objective=ObjectiveKind.MINIMIZE_ENERGY,
            deadline_s=anchor * factor,
            accuracy_min=q,
        )
        for factor, q in ((1.4, 0.85), (1.0, 0.9), (0.7, 0.95))
    ]
    n_inputs = 10
    engine = scenario.make_engine()
    stream = scenario.make_stream()
    grid = timing_grid(scenario, n_inputs, engine=engine, stream=stream)
    view = GridView(grid, trusted=True)
    lanes = []
    for scheme in STACKING:
        schedulers = [
            make_scheme(scheme, scenario, engine, stream, goal, n_inputs)
            for goal in goals
        ]
        lane = CrossSchemeLockstepLoop.lane(
            engine, stream, schedulers, goals, [view] * len(goals)
        )
        assert lane is not None
        lanes.append(lane)

    def boom(self, **kwargs):
        raise AssertionError("engine.run must not be called on a full grid")

    monkeypatch.setattr(InferenceEngine, "run", boom)
    results = CrossSchemeLockstepLoop(lanes).run(n_inputs)
    assert len(results) == len(lanes)
    for lane_runs in results:
        for run in lane_runs:
            assert len(run.records) == n_inputs
            assert all(record is not None for record in run.records)


@pytest.mark.parametrize(
    ("platform", "task", "env", "seed"),
    [("CPU1", "image", "default", 5), ("CPU1", "sentence", "compute", 29)],
)
def test_lockstep_lanes_advance_their_clocks(platform, task, env, seed):
    """Regression: the fused fill built grid-served records without
    ticking, so every lane's clock read 0 after a run.  Each lane loop
    must tick once per input, by the occupied time the sequential run
    ticks."""
    scenario = build_scenario(platform, task, env, "standard", seed=seed)
    goals = tuple(_grid_goals(scenario, ObjectiveKind.MINIMIZE_ENERGY))
    assert len(goals) >= LOCKSTEP_MIN_GOALS
    n_inputs = 20
    engine = scenario.make_engine()
    stream = scenario.make_stream()
    views = _trusted_views(scenario, goals, n_inputs, engine, stream)
    schemes = STACKING + FEEDBACK_FREE
    lanes = _lanes(scenario, goals, schemes, n_inputs, engine, stream, views)
    CrossSchemeLockstepLoop(lanes).run(n_inputs)
    for scheme, lane in zip(schemes, lanes):
        for goal, loop in zip(goals, lane.loops):
            reference_engine = scenario.make_engine()
            reference_stream = scenario.make_stream()
            reference = ServingLoop(
                reference_engine,
                reference_stream,
                make_scheme(
                    scheme, scenario, reference_engine, reference_stream,
                    goal, n_inputs,
                ),
                goal,
            )
            reference.run(n_inputs)
            assert loop.clock.ticks == reference.clock.ticks == n_inputs
            assert reference.clock.now() > 0.0
            assert loop.clock.now() == pytest.approx(
                reference.clock.now(), rel=REL_TOL, abs=0.0
            ), scheme


@pytest.mark.parametrize(
    ("platform", "task", "env", "seed", "viewed"),
    [
        ("CPU1", "image", "default", 5, True),
        ("CPU1", "sentence", "compute", 29, True),
        # Quantized caps: grid-served and engine-served steps mix.
        ("GPU", "image", "compute", 23, True),
        # No grid: every step is engine-served.
        ("CPU1", "sentence", "compute", 29, False),
    ],
)
def test_lane_arrays_match_records(
    platform, task, env, seed, viewed, assert_own_aggregates
):
    """The batch path's contract, for lanes: every lane run comes back
    as RunArrays plus deferred records, the arrays equal the
    materialized records field by field, and the stacked summary of
    every lane's runs is bit-identical either way and equals each
    run's own aggregates."""
    scenario = build_scenario(platform, task, env, "standard", seed=seed)
    goals = tuple(_grid_goals(scenario, ObjectiveKind.MAXIMIZE_ACCURACY))
    n_inputs = 12
    engine = scenario.make_engine()
    stream = scenario.make_stream()
    views = [None] * len(goals)
    if viewed:
        views = _trusted_views(scenario, goals, n_inputs, engine, stream)
    lanes = _lanes(scenario, goals, SCHEMES, n_inputs, engine, stream, views)
    fused = CrossSchemeLockstepLoop(lanes).run(n_inputs)
    # Goal-major, as a spec's results are.
    per_goal = [list(goal_runs) for goal_runs in zip(*fused)]
    summaries = summarize_cell(SCHEMES, per_goal)
    record_backed = []
    for goal_runs, cell in zip(per_goal, summaries):
        record_backed.append([])
        for run, summary in zip(goal_runs, cell):
            arrays = run.arrays
            assert arrays is not None
            assert run._records is None  # summarising reads the arrays
            records = run.records
            assert len(records) == n_inputs
            outcomes = [record.outcome for record in records]
            for field in ("latency_s", "quality", "energy_j", "metric_value"):
                assert np.array_equal(
                    getattr(arrays, field),
                    [getattr(outcome, field) for outcome in outcomes],
                ), (run.scheduler_name, field)
            assert np.array_equal(
                arrays.violated, [record.violated for record in records]
            )
            assert np.array_equal(
                arrays.latency_violation,
                [record.latency_violation for record in records],
            )
            assert_own_aggregates(summary, run)
            record_backed[-1].append(
                RunResult(run.scheduler_name, run.goal, records)
            )
    assert summarize_cell(SCHEMES, record_backed) == summaries


def test_lockstep_loop_rejects_empty_and_mixed_streams():
    scenario = build_scenario("CPU1", "image", "default", "standard", seed=5)
    goals = _grid_goals(scenario, ObjectiveKind.MINIMIZE_ENERGY)[:2]
    engine = scenario.make_engine()
    with pytest.raises(ConfigurationError):
        CrossSchemeLockstepLoop([])
    lanes = []
    for _ in range(2):
        stream = scenario.make_stream()
        schedulers = [
            make_scheme("ALERT", scenario, engine, stream, goal, 4)
            for goal in goals
        ]
        lanes.append(
            CrossSchemeLockstepLoop.lane(
                engine, stream, schedulers, goals, [None] * len(goals)
            )
        )
    with pytest.raises(ConfigurationError):
        CrossSchemeLockstepLoop(lanes)


def test_lockstep_loop_rejects_empty_horizon():
    scenario = build_scenario("CPU1", "image", "default", "standard", seed=5)
    goals = _grid_goals(scenario, ObjectiveKind.MINIMIZE_ENERGY)[:2]
    engine = scenario.make_engine()
    stream = scenario.make_stream()
    lanes = _lanes(
        scenario, goals, STACKING, 4, engine, stream, [None] * len(goals)
    )
    with pytest.raises(ConfigurationError):
        CrossSchemeLockstepLoop(lanes).run(0)


# ----------------------------------------------------------------------
# One wide cell ≡ the same goals served narrow
# ----------------------------------------------------------------------
def test_wide_cell_matches_one_goal_cells():
    """A lockstep cell and the same goals as one-goal cells (the
    sweep's shape) return equal runs, goal-major."""
    key = ScenarioKey("CPU1", "image", "memory", "standard", 13)
    scenario = key.build()
    goals = tuple(_grid_goals(scenario, ObjectiveKind.MAXIMIZE_ACCURACY))
    assert len(goals) >= LOCKSTEP_MIN_GOALS
    executor = RunExecutor()
    (wide,) = executor.run_plan(
        [CellSpec(scenario=key, goals=goals, schemes=SCHEMES, n_inputs=10)]
    )
    narrow = executor.run_plan(
        [
            CellSpec(scenario=key, goals=(goal,), schemes=SCHEMES, n_inputs=10)
            for goal in goals
        ]
    )
    assert len(wide) == len(goals)
    for goal, wide_runs, (narrow_runs,) in zip(goals, wide, narrow):
        assert [r.scheduler_name for r in wide_runs] == [
            r.scheduler_name for r in narrow_runs
        ]
        for a, b in zip(wide_runs, narrow_runs):
            assert a.goal == b.goal == goal
            assert a.records == b.records


def test_split_plan_matches_serial_wide_cell():
    """Serial evaluation serves all twelve goals as one lockstep cell;
    a two-worker plan splits them into two contiguous six-goal specs,
    each still wide enough to lockstep.  Both return identical runs."""
    scenario = build_scenario("CPU1", "image", "default", "standard", seed=5)
    goals = _grid_goals(scenario, ObjectiveKind.MINIMIZE_ENERGY) + _grid_goals(
        scenario, ObjectiveKind.MAXIMIZE_ACCURACY
    )
    key = ScenarioKey.of(scenario)
    plan = plan_cells([(key, g) for g in goals], SCHEMES, 10, workers=2)
    assert [len(spec.goals) for spec, _ in plan] == [LOCKSTEP_MIN_GOALS] * 2
    serial = evaluate_schemes(scenario, goals, SCHEMES, n_inputs=10)
    split = RunExecutor().run_plan(
        [spec for spec, _ in plan], scenarios={key: scenario}
    )
    for (_spec, positions), per_goal in zip(plan, split):
        for position, goal_runs in zip(positions, per_goal):
            for name, run in zip(SCHEMES, goal_runs):
                assert run.records == serial.scheme_runs(name)[position].records


def test_pooled_split_matches_serial_wide_cell():
    """The same split across the sweep's pool: serial evaluation serves
    the scenario's twelve goals as one lockstep cell, two workers run
    two six-goal specs, and the pooled summaries equal the serial
    cell's runs summarised."""
    spec = SweepSpec(
        platforms=("CPU1",), tasks=("image",), envs=("default",),
        schemes=SCHEMES, settings_stride=6, n_inputs=10, seeds=(5,),
    )
    units = compile_sweep(spec)
    work = [(unit.scenario, unit.goal) for unit in units]
    plan = plan_cells(work, SCHEMES, 10, workers=2)
    assert [len(cell.goals) for cell, _ in plan] == [LOCKSTEP_MIN_GOALS] * 2
    goals = [unit.goal for unit in units]
    serial = evaluate_schemes(units[0].scenario.build(), goals, SCHEMES, 10)
    pooled = run_sweep(spec, workers=2)
    assert pooled.grid_store_stats is not None  # the pool really ran
    per_goal = [
        [serial.scheme_runs(name)[position] for name in SCHEMES]
        for position in range(len(goals))
    ]
    assert pooled.cells == summarize_cell(SCHEMES, per_goal)


# ----------------------------------------------------------------------
# Pool ≡ serial
# ----------------------------------------------------------------------
def test_wide_cell_pool_matches_serial():
    """Both objectives of one scenario, every scheme: two 12-goal specs
    at two workers, whose pooled summaries equal the serial ones."""
    spec = SweepSpec(
        platforms=("CPU1",), tasks=("image",), envs=("default",),
        schemes=SCHEMES, settings_stride=3, n_inputs=10, seeds=(7,),
    )
    serial = run_sweep(spec, workers=1)
    pooled = run_sweep(spec, workers=2)
    assert pooled.grid_store_stats is not None  # the pool really ran
    assert pooled.cells == serial.cells


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
        _CustomAlert(AlertKernel(profile=profile)) for _ in goals
    ]
    assert (
        CrossSchemeLockstepLoop.lane(
            engine, stream, schedulers, goals, [None] * len(goals)
        )
        is None
    )


class _CustomKernel(AlertKernel):
    """A kernel subclass must never be stacked (it may override behaviour)."""


def test_subclassed_kernel_refuses_stacking(image_scenario):
    engine = image_scenario.make_engine()
    stream = image_scenario.make_stream()
    goals = _grid_goals(image_scenario, ObjectiveKind.MINIMIZE_ENERGY)[:2]
    profile = image_scenario.profile()
    # Plain kernels of the same shape stack, so only the type refuses.
    assert AlertCellKernel.from_kernels(
        [AlertKernel(profile=profile) for _ in goals]
    ) is not None
    custom = [_CustomKernel(profile=profile) for _ in goals]
    assert AlertCellKernel.from_kernels(custom) is None
    mixed = [AlertKernel(profile=profile), _CustomKernel(profile=profile)]
    assert AlertCellKernel.from_kernels(mixed) is None
    schedulers = [AlertScheduler(kernel) for kernel in custom]
    assert (
        CrossSchemeLockstepLoop.lane(
            engine, stream, schedulers, goals, [None] * len(goals)
        )
        is None
    )


def test_warm_controller_refuses_stacking(image_scenario):
    profile = image_scenario.profile()
    fresh = AlertKernel(profile=profile)
    warm = AlertKernel(profile=profile)
    model = list(profile.models)[0]
    power = list(profile.powers)[0]
    warm.observe(Measurement(model.name, power, 0.2))
    assert AlertCellKernel.from_kernels([fresh, warm]) is None
    assert AlertCellKernel.from_kernels([]) is None


def test_history_keeping_controllers_refuse_stacking(image_scenario):
    """A ξ-trace consumer must stay sequential, keeping its history."""
    profile = image_scenario.profile()
    keepers = [
        AlertKernel(profile=profile, keep_xi_history=True)
        for _ in range(2)
    ]
    assert AlertCellKernel.from_kernels(keepers) is None


def test_mismatched_spaces_refuse_stacking(image_scenario):
    profile = image_scenario.profile()
    full = AlertKernel(profile=profile)
    reduced = AlertKernel(
        profile=profile, models=[list(profile.models)[0]]
    )
    assert AlertCellKernel.from_kernels([full, reduced]) is None


def test_mismatched_profiles_refuse_stacking():
    """Distinct ProfileTables over the same models must not stack —
    the cell would silently serve every goal from the first one."""
    from repro.hw.machine import CPU1
    from repro.models.families import sparse_resnet_family
    from repro.models.profiles import Profiler

    models = list(sparse_resnet_family())
    first = AlertKernel(profile=Profiler(CPU1).analytic(models))
    second = AlertKernel(profile=Profiler(CPU1).analytic(models))
    assert AlertCellKernel.from_kernels([first, second]) is None


def test_lockstep_factory_built_cell_matches_direct_loop(image_scenario):
    """A lane over make_scheme products serves like ServingLoop."""
    goals = _grid_goals(image_scenario, ObjectiveKind.MINIMIZE_ENERGY)[:3]
    engine = image_scenario.make_engine()
    stream = image_scenario.make_stream()
    schedulers = [
        make_scheme("ALERT", image_scenario, engine, stream, goal, 10)
        for goal in goals
    ]
    lock = CrossSchemeLockstepLoop.lane(
        engine, stream, schedulers, goals, [None] * len(goals)
    )
    assert lock is not None
    runs = CrossSchemeLockstepLoop([lock]).run(10)[0]
    for goal, run in zip(goals, runs):
        reference_engine = image_scenario.make_engine()
        reference_stream = image_scenario.make_stream()
        scheduler = make_scheme(
            "ALERT", image_scenario, reference_engine, reference_stream,
            goal, 10,
        )
        reference = ServingLoop(
            reference_engine, reference_stream, scheduler, goal
        ).run(10)
        for ra, rb in zip(run.records, reference.records):
            assert ra == rb
