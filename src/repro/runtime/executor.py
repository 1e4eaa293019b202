"""The run executor: declarative cell specs, serial or parallel.

The experiment stack evaluates (scenario × goal × scheme) grids, and
every run in such a grid is independent: each derives its engine
draws and input stream from the scenario's root seed (common random
numbers), so no state crosses run boundaries.  This module turns that
independence into an execution plan:

* :class:`ScenarioKey` — the picklable identity of a scenario
  (platform, task, env, candidate set, seed) from which a worker can
  rebuild the full :class:`~repro.workloads.scenarios.Scenario`;
* :class:`CellSpec` — the one unit of work: every scheme × every goal
  of one scenario, plus an input count.  Specs are plain picklable
  data, so a plan can cross a process boundary.  The executing process
  realises the scenario's timing-free (configuration × input) outcome
  grid once and builds every scheduler with
  :func:`~repro.experiments.harness.make_scheme` over it:
  feedback-free schemes ride the serving loop's batch path over grid
  column slices, feedback schemes read their latency/energy from the
  same grid instead of calling
  :meth:`~repro.models.inference.InferenceEngine.run` per input.  How
  a stacking scheme (the ALERT family, Sys-only, No-coord) is served
  follows the cell's width: with at least :data:`LOCKSTEP_MIN_GOALS`
  goals its runs become one lane of a
  :class:`~repro.runtime.loop.CrossSchemeLockstepLoop` (one stacked
  decide/observe pass per input for all goals), below that each goal
  runs alone through :class:`~repro.runtime.loop.ServingLoop`;
* :func:`plan_cells` — the one planning rule: (scenario, goal) work
  groups into one scenario-wide spec per scenario, so every cell is as
  wide as its scenario allows.  A plan parallelises across scenarios,
  never across timings; a scenario splits only when there are fewer
  scenarios than workers, and then into contiguous chunks of at least
  :data:`LOCKSTEP_MIN_GOALS` goals.  Both the table drivers (through
  :func:`~repro.experiments.harness.evaluate_schemes`) and the sweep
  plan through it;
* :class:`RunExecutor` — executes a plan either serially in-process or
  across a ``concurrent.futures`` process pool.  Results are merged
  back in plan order, so the output is *bit-identical* regardless of
  worker count: every run derives from its scenario seed, never from
  which worker ran it or in what order.

Each worker keeps a small per-process cache of oracle outcome grids
keyed on ``(scenario, n_inputs)`` — a grid holds no deadline or period
(every consumer derives the timing it serves), so every goal of a
scenario reads one grid — plus the fingerprint of the candidate
configurations the grid's rows hold (see :func:`space_fingerprint`).

:func:`run_single` is the sequential reference: one run alone on a
fresh engine and stream, no grid.  No production path calls it; the
parity suites compare every grid-served, lockstep and pooled path
against it (``tests/test_lockstep_parity.py``).
"""

from __future__ import annotations

import math
from collections import OrderedDict
from collections.abc import Iterable, Mapping
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass

from repro.core.goals import Goal
from repro.errors import ConfigurationError
from repro.models.inference import GridView
from repro.runtime.loop import (
    LOCKSTEP_TELEMETRY,
    CrossSchemeLockstepLoop,
    ServingLoop,
)
from repro.runtime.results import RunResult
from repro.workloads.scenarios import Scenario, build_scenario
from repro.workloads.traces import RequirementTrace

__all__ = [
    "ScenarioKey",
    "CellSpec",
    "LOCKSTEP_MIN_GOALS",
    "RunExecutor",
    "plan_cells",
    "run_single",
    "space_fingerprint",
    "structural_space_fingerprint",
]

#: Fewest goals a cell needs before its stacking schemes advance in
#: lockstep.  Measured on CPU1 and GPU image cells (table4's seven
#: schemes): lockstep loses to per-goal serving at one goal (0.4-0.5×),
#: ties around three to four, and wins from six goals up (1.4-1.5×).
LOCKSTEP_MIN_GOALS = 6

#: Upper bound on per-process cached oracle outcome grids.  The cache
#: is LRU: a hit refreshes recency, so a long interleaved plan evicts
#: the grid touched longest ago, not the one inserted first.
_GRID_CACHE_CAPACITY = 32
#: Upper bound on the per-scenario caches (scenarios and shared
#: engine/stream realisations).  A production sweep walks hundreds of
#: scenarios through one worker; unbounded maps would pin every
#: engine's memoised environment draws for the life of the process.
_SCENARIO_CACHE_CAPACITY = 16


@dataclass(frozen=True)
class ScenarioKey:
    """Picklable identity of a scenario, rebuildable in any process.

    Workers never receive live :class:`Scenario` objects; they receive
    this key and call :meth:`build`, which derives engines, streams,
    and profiles from the root ``seed`` — the same construction the
    submitting process would have performed.
    """

    platform: str
    task: str
    env: str
    candidates: str = "standard"
    seed: int = 20200417

    def build(self) -> Scenario:
        """Rebuild the full scenario from its seeds."""
        return build_scenario(
            self.platform, self.task, self.env, self.candidates, self.seed
        )

    @classmethod
    def of(cls, scenario: Scenario) -> "ScenarioKey":
        """The key naming a scenario, without checking that it rebuilds."""
        return cls(
            platform=scenario.machine.name,
            task=scenario.task.kind.value,
            env=scenario.env.value,
            candidates=scenario.candidates.name,
            seed=scenario.seed,
        )

    @classmethod
    def for_scenario(cls, scenario: Scenario) -> "ScenarioKey | None":
        """The key of a scenario, or None when it cannot round-trip.

        Scenarios made by :func:`~repro.workloads.scenarios.build_scenario`
        always round-trip.  Hand-built scenarios may not — a customized
        machine spec or candidate set reusing a stock name must not be
        silently replaced by the stock one in a worker — so the rebuilt
        scenario is compared field by field, not by name.  (An
        explicitly injected ``_profile`` is the one customization this
        cannot see; workers always re-derive the analytic profile.)
        """
        key = cls.of(scenario)
        try:
            rebuilt = key.build()
        except ConfigurationError:
            return None
        if (
            rebuilt.name != scenario.name
            or rebuilt.seed != scenario.seed
            or rebuilt.machine != scenario.machine
            or rebuilt.task != scenario.task
            or rebuilt.env is not scenario.env
            or rebuilt.candidates != scenario.candidates
        ):
            return None
        return key


@dataclass(frozen=True)
class CellSpec:
    """One cell: every scheme × every goal of one scenario.

    The unit of the paper's Table-4 protocol: all ``schemes`` over the
    cell's constraint ``goals``, on the scenario's common random
    numbers.  ``requirement_trace`` optionally rewrites goals mid-run
    (Figure 9's dynamic requirements); traces are plain picklable data,
    so they cross the process boundary with the spec.  Results come back
    goal-major: one list per goal, aligned with ``schemes``.
    """

    scenario: ScenarioKey
    goals: tuple[Goal, ...]
    schemes: tuple[str, ...]
    n_inputs: int
    requirement_trace: RequirementTrace | None = None

    def __post_init__(self) -> None:
        if not isinstance(self.goals, tuple):
            object.__setattr__(self, "goals", tuple(self.goals))
        if not isinstance(self.schemes, tuple):
            object.__setattr__(self, "schemes", tuple(self.schemes))
        if not self.goals:
            raise ConfigurationError("a cell needs at least one goal")
        if not self.schemes:
            raise ConfigurationError("a cell needs at least one scheme")
        if self.n_inputs < 1:
            raise ConfigurationError(
                f"need at least one input, got {self.n_inputs}"
            )


def plan_cells(
    work: Iterable[tuple[ScenarioKey, Goal]],
    schemes: tuple[str, ...],
    n_inputs: int,
    workers: int = 1,
    requirement_trace: RequirementTrace | None = None,
) -> list[tuple[CellSpec, tuple[int, ...]]]:
    """Group (scenario, goal) work into scenario-wide cell specs.

    Each scenario's goals become one :class:`CellSpec`, in the order
    they first appear in ``work``, so a cell holds every timing of its
    scenario and its stacking schemes run as lockstep lanes.  Work is
    parallelised across scenarios, never across timings: a scenario is
    split only when the plan has fewer scenarios than ``workers``, and
    then into contiguous chunks of at least :data:`LOCKSTEP_MIN_GOALS`
    goals each (as many as give every worker a spec, where the goals
    allow).  A goal's runs do not depend on the cell holding them, so
    every grouping returns identical runs.

    Returns one ``(spec, positions)`` pair per cell, in plan order;
    ``positions`` index the cell's goals in ``work``.
    """
    items = list(work)
    by_scenario: dict[ScenarioKey, list[int]] = {}
    for position, (key, _goal) in enumerate(items):
        by_scenario.setdefault(key, []).append(position)
    if not by_scenario:
        return []
    chunks_wanted = math.ceil(workers / len(by_scenario))
    plan = []
    for key, positions in by_scenario.items():
        n_chunks = max(
            1, min(chunks_wanted, len(positions) // LOCKSTEP_MIN_GOALS)
        )
        size, extra = divmod(len(positions), n_chunks)
        start = 0
        for chunk in range(n_chunks):
            stop = start + size + (chunk < extra)
            group = tuple(positions[start:stop])
            spec = CellSpec(
                scenario=key,
                goals=tuple(items[position][1] for position in group),
                schemes=schemes,
                n_inputs=n_inputs,
                requirement_trace=requirement_trace,
            )
            plan.append((spec, group))
            start = stop
    return plan


def space_fingerprint(configs: Iterable) -> tuple:
    """A hashable identity of a candidate configuration list.

    Grids are cached per scenario, but a cached grid serves a run only
    when its configuration rows hold the very model objects the run's
    schedulers pick from: :meth:`~repro.models.inference.GridView.row_for`
    resolves rows by model identity.  A scenario evicted from the
    bounded scenario cache and rebuilt has new model objects; keying
    on ``id(model)`` gives it a fresh grid instead of the old one,
    whose rows it could never resolve (every decision would fall back
    to the live engine).  Safe per process because every cached grid
    keeps its configuration (and therefore model) objects alive,
    pinning the ids in its key.
    """
    return tuple(
        (
            id(config.model),
            config.model.name,
            config.power_w,
            config.rung_cap,
        )
        for config in configs
    )


def structural_space_fingerprint(configs: Iterable) -> tuple:
    """A *cross-process* identity of a candidate configuration list.

    The per-process :func:`space_fingerprint` keys on ``id(model)``,
    which never survives a process boundary; the shared grid store
    instead keys on structure — (model name, cap, rung) rows in order.
    Safe there because the store only serves a scenario's *default*
    candidate space, whose rows are a deterministic enumeration of the
    scenario key: same key, same structure, every process.
    """
    return tuple(
        (config.model.name, config.power_w, config.rung_cap)
        for config in configs
    )


def run_single(
    scenario: Scenario,
    goal: Goal,
    scheme: str,
    n_inputs: int,
    requirement_trace: RequirementTrace | None = None,
) -> RunResult:
    """The sequential reference: one run alone, nothing shared.

    A fresh engine and stream, the scheme built by
    :func:`~repro.experiments.harness.make_scheme` with no grid, and one
    :class:`ServingLoop` run.  No production path calls it; the parity
    suites compare every grid-served, lockstep and pooled cell against
    it.
    """
    # Imported lazily: the harness imports this module.
    from repro.experiments.harness import make_scheme

    engine = scenario.make_engine()
    stream = scenario.make_stream()
    scheduler = make_scheme(scheme, scenario, engine, stream, goal, n_inputs)
    return ServingLoop(
        engine, stream, scheduler, goal, requirement_trace=requirement_trace
    ).run(n_inputs)


def timing_grid(
    scenario: Scenario,
    n_inputs: int,
    space=None,
    engine=None,
    stream=None,
    allocator=None,
):
    """The oracle outcome grid of one scenario, for every timing.

    The grid realises every candidate configuration on every input; it
    holds no deadline or period, so every goal of the scenario reads
    it at its own timing.  ``space`` passes the scenario's candidate
    space when the caller already holds it; ``engine``/``stream`` reuse
    an existing realisation (one engine's memoised draws serve every
    grid of a scenario); ``allocator``
    (see :func:`repro.models.inference.buffer_grid_allocator`) lets a
    grid store realise the arrays directly inside a shared segment.
    """
    # Imported lazily: baselines imports repro.runtime, so a module
    # level import here would be circular.
    from repro.baselines.oracle import oracle_outcome_grid

    if space is None:
        space = scenario.space()
    if engine is None:
        engine = scenario.make_engine()
    if stream is None:
        stream = scenario.make_stream()
    return oracle_outcome_grid(
        engine, space, stream, n_inputs, allocator=allocator
    )


class _WorkerState:
    """Per-process caches: scenarios, engine/stream realisations, grids.

    Every cache is LRU-bounded (hit refreshes recency, insertion at
    capacity evicts the least recently used entry), so a worker that
    walks an arbitrarily large sweep holds a bounded working set.
    ``grid_store`` optionally plugs a cross-process
    :class:`repro.runtime.grid_store.GridStoreClient` under the grid
    cache: a local miss attaches the store's shared copy before falling
    back to realising (and publishing) the grid here.
    """

    def __init__(
        self,
        scenarios: Mapping[ScenarioKey, Scenario] | None = None,
        grid_store=None,
    ):
        self._scenarios: OrderedDict[ScenarioKey, Scenario] = OrderedDict(
            scenarios or {}
        )
        self._grids: OrderedDict[tuple, object] = OrderedDict()
        self._realisations: OrderedDict[ScenarioKey, tuple] = OrderedDict()
        self._grid_store = grid_store

    @staticmethod
    def _cache_get(cache: OrderedDict, key):
        cached = cache.get(key)
        if cached is not None:
            cache.move_to_end(key)
        return cached

    @staticmethod
    def _cache_put(cache: OrderedDict, key, value, capacity: int) -> None:
        while len(cache) >= capacity:
            cache.popitem(last=False)
        cache[key] = value

    def scenario(self, key: ScenarioKey) -> Scenario:
        cached = self._cache_get(self._scenarios, key)
        if cached is None:
            cached = key.build()
            self._cache_put(
                self._scenarios, key, cached, _SCENARIO_CACHE_CAPACITY
            )
        return cached

    def space(self, key: ScenarioKey):
        return self.scenario(key).space()

    def realisation(self, key: ScenarioKey) -> tuple:
        """One shared (engine, stream) pair per scenario.

        Engines are deterministic functions of the scenario seed and
        memoise their environment draws; streams memoise their items.
        Fused cells share this pair across every run and grid build of
        a scenario, so a plan realises each scenario's environment
        exactly once (per residency in the bounded cache).
        """
        cached = self._cache_get(self._realisations, key)
        if cached is None:
            scenario = self.scenario(key)
            cached = (scenario.make_engine(), scenario.make_stream())
            self._cache_put(
                self._realisations, key, cached, _SCENARIO_CACHE_CAPACITY
            )
        return cached

    def grid(self, key: ScenarioKey, n_inputs: int):
        space = self.space(key)
        # The fingerprint keeps a rebuilt scenario off a grid over its
        # evicted predecessor's model objects (see space_fingerprint).
        cache_key = (key, n_inputs, space_fingerprint(space))
        cached = self._cache_get(self._grids, cache_key)
        if cached is None:
            cached = self._build_grid(key, n_inputs, space)
            self._cache_put(self._grids, cache_key, cached, _GRID_CACHE_CAPACITY)
        return cached

    def _build_grid(self, key: ScenarioKey, n_inputs: int, space):
        """Attach the shared copy when a store is plugged in, else realise.

        The store's cross-process keys are structural: the scenario's
        candidate space enumerates its rows deterministically from the
        scenario key, so every process derives the same key.
        """

        def realize(allocator=None):
            engine, stream = self.realisation(key)
            return timing_grid(
                self.scenario(key), n_inputs, space=space,
                engine=engine, stream=stream, allocator=allocator,
            )

        store = self._grid_store
        if store is None:
            return realize()
        store_key = (key, n_inputs, structural_space_fingerprint(space))
        return store.get_or_realize(
            store_key, tuple(space), realize, n_inputs=n_inputs
        )

    def execute(self, spec: CellSpec) -> list[list[RunResult]]:
        """Serve every scheme over every goal of one cell.

        One grid and one trusted view for the whole cell (the grid is
        timing-free, and the grid and every run's engine derive from the
        same scenario seed; the view derives each timing's planes
        once), one shared engine/stream realisation; every scheduler is
        built by :func:`~repro.experiments.harness.make_scheme` with the
        view (only the oracles read it), and every loop and lane serves
        from it.  When the cell holds at least
        :data:`LOCKSTEP_MIN_GOALS` goals, every scheme whose schedulers
        stack becomes a lane of one
        :class:`~repro.runtime.loop.CrossSchemeLockstepLoop`; every
        other run goes through :class:`ServingLoop` with the view,
        where feedback-free schemes take the batch path.
        Results are goal-major, aligned with ``spec.goals`` ×
        ``spec.schemes``.
        """
        # Imported lazily: the harness imports this module.
        from repro.experiments.harness import make_scheme

        scenario = self.scenario(spec.scenario)
        engine, stream = self.realisation(spec.scenario)

        view = GridView(self.grid(spec.scenario, spec.n_inputs), trusted=True)

        lockstep = len(spec.goals) >= LOCKSTEP_MIN_GOALS
        results: list[list[RunResult | None]] = [
            [None] * len(spec.schemes) for _ in spec.goals
        ]
        lanes: list = []
        lane_positions: list[int] = []
        for position, scheme in enumerate(spec.schemes):
            schedulers = [
                make_scheme(
                    scheme, scenario, engine, stream, goal, spec.n_inputs,
                    grid_view=view,
                )
                for goal in spec.goals
            ]
            lane = None
            if lockstep:
                lane = CrossSchemeLockstepLoop.lane(
                    engine, stream, schedulers, spec.goals,
                    [view] * len(spec.goals),
                    requirement_trace=spec.requirement_trace,
                )
            if lane is not None:
                lanes.append(lane)
                lane_positions.append(position)
                continue
            LOCKSTEP_TELEMETRY.record_fallback(len(spec.goals))
            for g, goal in enumerate(spec.goals):
                results[g][position] = ServingLoop(
                    engine, stream, schedulers[g], goal,
                    requirement_trace=spec.requirement_trace,
                    grid_view=view,
                ).run(spec.n_inputs)
        if lanes:
            fused = CrossSchemeLockstepLoop(lanes).run(spec.n_inputs)
            for position, lane_runs in zip(lane_positions, fused):
                for g, run in enumerate(lane_runs):
                    results[g][position] = run
        return results


#: Lazily-created state of a pool worker process.
_POOL_STATE: _WorkerState | None = None


def _pool_initializer() -> None:
    """Pool-worker setup: reset state.

    Runs once per worker process.  Resetting ``_POOL_STATE`` matters
    under fork start methods: a forked worker inherits whatever module
    globals the parent had, and stale state must not leak between
    pools.
    """
    global _POOL_STATE
    _POOL_STATE = None


def _pool_execute(spec: CellSpec) -> list[list[RunResult]]:
    """Top-level pool entry point (must be picklable by reference)."""
    global _POOL_STATE
    if _POOL_STATE is None:
        _POOL_STATE = _WorkerState()
    return _POOL_STATE.execute(spec)


class RunExecutor:
    """Executes a plan of :class:`CellSpec` entries.

    Parameters
    ----------
    workers:
        1 executes in-process; >1 fans cells out over a
        ``ProcessPoolExecutor`` of that many workers, one cell per
        task.  Results come back in plan order either way, and because
        every run rebuilds its environment from the scenario seed,
        parallel output is bit-identical to serial output.
    """

    def __init__(self, workers: int = 1) -> None:
        if workers < 1:
            raise ConfigurationError(
                f"need at least one worker, got {workers}"
            )
        self.workers = workers

    def run_plan(
        self,
        specs: Iterable[CellSpec],
        scenarios: Mapping[ScenarioKey, Scenario] | None = None,
    ) -> list[list[list[RunResult]]]:
        """Execute every spec; results align one-to-one with the plan.

        Each :class:`CellSpec` yields a goal-major list of per-goal
        lists aligned with its ``schemes``.  ``scenarios`` optionally
        seeds the serial path's scenario cache with already-built
        objects (preserving their memoised profiles); pool workers
        always rebuild from keys.
        """
        plan = list(specs)
        if not plan:
            return []
        if self.workers == 1 or len(plan) == 1:
            state = _WorkerState(scenarios)
            return [state.execute(spec) for spec in plan]
        n_workers = min(self.workers, len(plan))
        with ProcessPoolExecutor(
            max_workers=n_workers, initializer=_pool_initializer
        ) as pool:
            return list(pool.map(_pool_execute, plan))
