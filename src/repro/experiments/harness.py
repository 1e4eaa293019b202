"""The Table 3 scheme zoo and the cell evaluator.

:func:`make_scheme` builds each scheme the paper compares (Table 3,
bottom) for a given scenario.  It is the one place the scheme
definitions exist: every cell — table4, table5, fig08, the sweep, the
CLI and the examples — builds its schedulers through it.

**Architecture (spec → executor → loop).**  :func:`evaluate_schemes`
does not run anything itself: it makes one
:class:`repro.runtime.executor.CellSpec` holding every goal and serves
it through :class:`repro.runtime.executor.RunExecutor`, in this
process, from the live scenario object (so a hand-built scenario runs
as built).  The executor realises the timing-free
(configuration × input) outcome grid once and serves every scheme and
goal from it; how a stacking scheme is served (lockstep lanes or
per-goal loops) follows the spec's goal count, never a caller's flag.
It returns every run, records included; the tables, which need only
summaries, run as sweeps instead
(:func:`repro.runtime.sweep.run_sweep`).
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
from repro.models.inference import GridView
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
    grid_view: GridView | None = None,
) -> Scheduler:
    """Instantiate one of the Table 3 schemes for a single run.

    Oracles need the run's engine/stream (perfect knowledge); the
    feedback schemes only need the offline profile.  ``grid_view``
    optionally supplies the precomputed (configuration × input) outcome
    grid to Oracle and OracleStatic, so they skip re-deriving it (the
    draws are bit-identical across fresh engines of one scenario seed);
    every other scheme ignores it.  A serving loop reads the same view
    only through its own ``grid_view`` argument.
    """
    profile = scenario.profile()
    candidates = scenario.candidates
    space = scheme_space(scenario)
    anytime = candidates.anytime
    if name == "Oracle":
        return OracleScheduler(engine, space, grid_view=grid_view)
    if name == "OracleStatic":
        return make_oracle_static(
            engine, space, goal, stream, n_inputs, grid_view=grid_view
        )
    if name == "ALERT":
        return make_alert(profile)
    if name == "ALERT-Any":
        if anytime is None:
            raise ConfigurationError("ALERT-Any needs an anytime candidate")
        return make_alert(profile, models=[anytime], name="ALERT-Any")
    if name == "ALERT-Trad":
        traditional = list(candidates.traditional)
        if not traditional:
            raise ConfigurationError("ALERT-Trad needs traditional candidates")
        return make_alert(profile, models=traditional, name="ALERT-Trad")
    if name == "ALERT*":
        return make_alert_star(profile)
    if name == "App-only":
        if anytime is None:
            raise ConfigurationError("App-only needs an anytime candidate")
        return AppOnlyScheduler(anytime, scenario.machine.default_power())
    if name == "Sys-only":
        return SysOnlyScheduler(profile, list(candidates.models))
    if name == "No-coord":
        if anytime is None:
            raise ConfigurationError("No-coord needs an anytime candidate")
        return NoCoordScheduler(profile, anytime)
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
    requirement_trace=None,
) -> CellResult:
    """Run every scheme over every constraint setting of a cell.

    Every (scheme, goal) run faces the environment drawn from the
    scenario's seed, so all schemes face bit-identical environments
    (common random numbers).  One outcome grid serves every scheme and
    timing, and the cell is one spec, so with at least
    :data:`~repro.runtime.executor.LOCKSTEP_MIN_GOALS` goals its
    stacking schemes step every goal together; ``goals`` may mix
    objectives.  The spec runs in this process from the live
    ``scenario`` object.

    ``requirement_trace`` applies one mid-run goal-override trace
    (Figure 9's dynamic requirements) to every run of the cell; traced
    cells take the per-step serving paths.
    """
    goal_list = tuple(goals)
    scheme_list = tuple(schemes)
    if not goal_list:
        raise ConfigurationError("need at least one constraint setting")

    key = ScenarioKey.of(scenario)
    spec = CellSpec(
        scenario=key, goals=goal_list, schemes=scheme_list,
        n_inputs=n_inputs, requirement_trace=requirement_trace,
    )
    (per_goal,) = RunExecutor().run_plan([spec], scenarios={key: scenario})
    runs = {
        name: [goal_runs[position] for goal_runs in per_goal]
        for position, name in enumerate(scheme_list)
    }
    return CellResult(scenario=scenario, goals=goal_list, runs=runs)
