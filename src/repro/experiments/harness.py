"""Shared evaluation harness for the Table 3 scheme zoo.

Builds each scheme the paper compares (Table 3, bottom) for a given
scenario and evaluates whole (goal × scheme) cells.  All experiment
drivers go through this module so the scheme definitions exist in
exactly one place.

**Architecture (spec → executor → loop).**  :func:`evaluate_schemes`
does not run anything itself: it compiles the cell into a plan of
:class:`repro.runtime.executor.CellSpec` entries and hands it to a
:class:`repro.runtime.executor.RunExecutor`.  Serially the plan is one
spec holding every goal; with ``workers`` > 1 it is one spec per
timing, so the plan fans out across the pool while each spec still
shares its outcome grid.  The executing process realises the
(configuration × input) outcome grid once per timing and serves every
scheme from it; how a stacking scheme is served (lockstep lanes or
per-goal loops) follows the spec's goal count, never a caller's flag.
Specs are picklable and rebuilt from the scenario's seeds in whichever
process executes them, so the merged :class:`CellResult` is
bit-identical regardless of worker count (common random numbers).
Custom ``scheme_factory`` callables that are not importable by dotted
path (closures, lambdas) fall back to an equivalent in-process loop
that serves every run per goal from the same shared grids.
"""

from __future__ import annotations

from collections.abc import Callable, Iterable
from dataclasses import dataclass

from repro.baselines import (
    AppOnlyScheduler,
    NoCoordScheduler,
    OracleScheduler,
    SysOnlyScheduler,
    make_alert,
    make_alert_star,
    make_oracle_static,
)
from repro.core.config_space import ConfigurationSpace
from repro.core.goals import Goal
from repro.errors import ConfigurationError
from repro.models.inference import BatchOutcomeGrid, GridView
from repro.runtime.executor import (
    CellSpec,
    RunExecutor,
    ScenarioKey,
    factory_path,
    run_single,
    space_fingerprint,
    timing_grid,
)
from repro.runtime.results import RunResult
from repro.runtime.scheduler import Scheduler
from repro.workloads.scenarios import Scenario

__all__ = ["SCHEMES", "make_scheme", "evaluate_schemes", "CellResult"]

#: Scheme names in the paper's presentation order.
SCHEMES = (
    "Oracle",
    "OracleStatic",
    "ALERT",
    "ALERT-Any",
    "ALERT-Trad",
    "ALERT*",
    "App-only",
    "Sys-only",
    "No-coord",
)


def scheme_space(scenario: Scenario) -> ConfigurationSpace:
    """The candidate configuration space every scheme selects from.

    Memoised on the scenario, so every run of a cell (and the cell's
    outcome grid) shares one space object.
    """
    return scenario.space()


def make_scheme(
    name: str,
    scenario: Scenario,
    engine,
    stream,
    goal: Goal,
    n_inputs: int,
    oracle_grid: BatchOutcomeGrid | None = None,
    grid_view: GridView | None = None,
) -> Scheduler:
    """Instantiate one of the Table 3 schemes for a single run.

    Oracles need the run's engine/stream (perfect knowledge); the
    feedback schemes only need the offline profile.  ``oracle_grid``
    optionally supplies the precomputed (configuration × input) outcome
    grid so Oracle and OracleStatic skip re-deriving it (the draws are
    bit-identical across fresh engines of one scenario seed);
    ``grid_view`` is carried by the built scheduler so any serving
    loop — not just the executor's — can serve the run from the shared
    realisation.
    """
    profile = scenario.profile()
    candidates = scenario.candidates
    space = scheme_space(scenario)
    anytime = candidates.anytime
    if name == "Oracle":
        return OracleScheduler(engine, space, grid=oracle_grid, grid_view=grid_view)
    if name == "OracleStatic":
        return make_oracle_static(
            engine, space, goal, stream, n_inputs, grid=oracle_grid,
            grid_view=grid_view,
        )
    if name == "ALERT":
        return make_alert(profile, grid_view=grid_view)
    if name == "ALERT-Any":
        if anytime is None:
            raise ConfigurationError("ALERT-Any needs an anytime candidate")
        return make_alert(
            profile, models=[anytime], name="ALERT-Any", grid_view=grid_view
        )
    if name == "ALERT-Trad":
        traditional = list(candidates.traditional)
        if not traditional:
            raise ConfigurationError("ALERT-Trad needs traditional candidates")
        return make_alert(
            profile, models=traditional, name="ALERT-Trad", grid_view=grid_view
        )
    if name == "ALERT*":
        return make_alert_star(profile, grid_view=grid_view)
    if name == "App-only":
        if anytime is None:
            raise ConfigurationError("App-only needs an anytime candidate")
        return AppOnlyScheduler(
            anytime, scenario.machine.default_power(), grid_view=grid_view
        )
    if name == "Sys-only":
        return SysOnlyScheduler(
            profile, list(candidates.models), grid_view=grid_view
        )
    if name == "No-coord":
        if anytime is None:
            raise ConfigurationError("No-coord needs an anytime candidate")
        return NoCoordScheduler(profile, anytime, grid_view=grid_view)
    raise ConfigurationError(f"unknown scheme {name!r}; choose from {SCHEMES}")


@dataclass
class CellResult:
    """All schemes' runs over one cell's constraint settings."""

    scenario: Scenario
    goals: tuple[Goal, ...]
    runs: dict[str, list[RunResult]]

    def scheme_runs(self, name: str) -> list[RunResult]:
        """All runs of one scheme, aligned with ``goals``."""
        if name not in self.runs:
            raise ConfigurationError(f"no runs recorded for scheme {name!r}")
        return self.runs[name]


def _evaluate_in_process(
    scenario: Scenario,
    goals: tuple[Goal, ...],
    schemes: tuple[str, ...],
    n_inputs: int,
    scheme_factory: Callable[..., Scheduler],
    requirement_trace=None,
) -> dict[str, list[RunResult]]:
    """Fallback for factories that cannot cross a process boundary.

    Serves every run per goal through
    :func:`repro.runtime.executor.run_single` from one shared
    engine/stream realisation and a per-timing grid cache
    (candidate-fingerprinted), calling the factory object directly.
    """
    grids: dict[tuple, BatchOutcomeGrid] = {}
    default_fingerprint = space_fingerprint(scheme_space(scenario))
    engine = scenario.make_engine()
    stream = scenario.make_stream()

    def cached_grid(goal: Goal, space=None) -> BatchOutcomeGrid:
        fingerprint = (
            default_fingerprint if space is None else space_fingerprint(space)
        )
        timing = (goal.deadline_s, goal.period, n_inputs, fingerprint)
        grid = grids.get(timing)
        if grid is None:
            grid = timing_grid(
                scenario, goal, n_inputs, space=space,
                engine=engine, stream=stream,
            )
            grids[timing] = grid
        return grid

    runs: dict[str, list[RunResult]] = {name: [] for name in schemes}
    for goal in goals:
        grid = cached_grid(goal)
        view = GridView(grid, trusted=True)

        def provider(space, _goal=goal):
            return cached_grid(_goal, space)

        for name in schemes:
            runs[name].append(
                run_single(
                    scenario, goal, name, n_inputs, scheme_factory,
                    oracle_grid=grid,
                    grid_view=view,
                    grid_provider=provider,
                    engine=engine,
                    stream=stream,
                    requirement_trace=requirement_trace,
                )
            )
    return runs


def evaluate_schemes(
    scenario: Scenario,
    goals: Iterable[Goal],
    schemes: Iterable[str],
    n_inputs: int = 100,
    scheme_factory: Callable[..., Scheduler] = make_scheme,
    workers: int = 1,
    requirement_trace=None,
    grid_store=None,
) -> CellResult:
    """Run every scheme over every constraint setting of a cell.

    Every (scheme, goal) run faces the environment drawn from the
    scenario's seed, so all schemes face bit-identical environments
    (common random numbers) and the cell can be executed by any number
    of ``workers`` with bit-identical results.  One outcome grid per
    timing serves every scheme (see the module docstring), and factories
    accepting an ``oracle_grid`` keyword receive that same grid.

    ``requirement_trace`` applies one mid-run goal-override trace
    (Figure 9's dynamic requirements) to every run of the cell; traced
    cells take the per-step serving paths but keep full parity across
    worker counts.

    ``grid_store`` optionally plugs a
    :class:`repro.runtime.grid_store.GridStoreClient` under every
    executing process, so pooled cells attach shared-memory outcome
    grids instead of realising per-process copies (the sweep engine's
    zero-copy path; value-identical either way).
    """
    goal_list = tuple(goals)
    scheme_list = tuple(schemes)
    if not goal_list:
        raise ConfigurationError("need at least one constraint setting")

    key = ScenarioKey.for_scenario(scenario)
    path = factory_path(scheme_factory)
    if key is None or path is None:
        runs = _evaluate_in_process(
            scenario, goal_list, scheme_list, n_inputs, scheme_factory,
            requirement_trace=requirement_trace,
        )
        return CellResult(scenario=scenario, goals=goal_list, runs=runs)

    # One spec spans the goals sharing a worker: the whole grid when
    # serial (maximum stacking width), one spec per timing when pooled
    # (keeps the plan parallelisable while every spec still shares its
    # outcome grid).  Either grouping is value-identical — each goal's
    # trajectory is independent.
    if workers == 1:
        groups = [list(range(len(goal_list)))]
    else:
        by_timing: dict[tuple, list[int]] = {}
        for position, goal in enumerate(goal_list):
            by_timing.setdefault((goal.deadline_s, goal.period), []).append(
                position
            )
        groups = list(by_timing.values())
    plan = [
        CellSpec(
            scenario=key,
            goals=tuple(goal_list[position] for position in group),
            schemes=scheme_list,
            n_inputs=n_inputs,
            factory=path,
            requirement_trace=requirement_trace,
        )
        for group in groups
    ]
    executor = RunExecutor(workers=workers, grid_store=grid_store)
    cell_results = executor.run_plan(plan, scenarios={key: scenario})
    runs = {name: [None] * len(goal_list) for name in scheme_list}
    for group, per_goal in zip(groups, cell_results):
        for local, position in enumerate(group):
            for name, result in zip(scheme_list, per_goal[local]):
                runs[name][position] = result
    return CellResult(scenario=scenario, goals=goal_list, runs=runs)
