"""The Table 3 scheme zoo and the cell evaluator.

:func:`make_scheme` builds each scheme the paper compares (Table 3,
bottom) for a given scenario.  It is the one place the scheme
definitions exist: every cell — table4, table5, fig08, the sweep, the
CLI and the examples — builds its schedulers through it.

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
bit-identical regardless of worker count (common random numbers).  A
hand-built scenario that its key cannot rebuild runs the same plan
serially, from the live scenario object.
"""

from __future__ import annotations

from collections.abc import Iterable
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
from repro.runtime.executor import CellSpec, RunExecutor, ScenarioKey
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


def evaluate_schemes(
    scenario: Scenario,
    goals: Iterable[Goal],
    schemes: Iterable[str],
    n_inputs: int = 100,
    workers: int = 1,
    requirement_trace=None,
) -> CellResult:
    """Run every scheme over every constraint setting of a cell.

    Every (scheme, goal) run faces the environment drawn from the
    scenario's seed, so all schemes face bit-identical environments
    (common random numbers) and the cell can be executed by any number
    of ``workers`` with bit-identical results.  One outcome grid per
    timing serves every scheme (see the module docstring).  A scenario
    that :meth:`ScenarioKey.for_scenario` cannot round-trip runs in
    this process, whatever ``workers`` asks for.

    ``requirement_trace`` applies one mid-run goal-override trace
    (Figure 9's dynamic requirements) to every run of the cell; traced
    cells take the per-step serving paths but keep full parity across
    worker counts.
    """
    goal_list = tuple(goals)
    scheme_list = tuple(schemes)
    if not goal_list:
        raise ConfigurationError("need at least one constraint setting")

    key = ScenarioKey.for_scenario(scenario)
    if key is None:
        # A worker would rebuild the stock scenario, not this one: serve
        # the plan here, from the live object seeded under its name.
        key = ScenarioKey.of(scenario)
        workers = 1

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
            requirement_trace=requirement_trace,
        )
        for group in groups
    ]
    executor = RunExecutor(workers=workers)
    cell_results = executor.run_plan(plan, scenarios={key: scenario})
    runs = {name: [None] * len(goal_list) for name in scheme_list}
    for group, per_goal in zip(groups, cell_results):
        for local, position in enumerate(group):
            for name, result in zip(scheme_list, per_goal[local]):
                runs[name][position] = result
    return CellResult(scenario=scenario, goals=goal_list, runs=runs)
