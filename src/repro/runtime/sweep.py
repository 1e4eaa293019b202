"""The sweep engine: declarative million-cell (scenario × goal) sweeps.

The experiment drivers evaluate one Table-4 cell at a time and hold
every run's full per-input record list in the driver.  This module is
the production-scale front: a **declarative sweep spec** (platforms ×
tasks × envs × seeds × the constraint grid × schemes) compiles into
one-goal :class:`SweepUnit` entries, the checkpoint key and result
slot of each (scenario, goal) pair.  The units still to run are
planned by :func:`~repro.runtime.executor.plan_cells` into
scenario-wide cell specs, so every stacking scheme (the ALERT family,
Sys-only, No-coord) runs as a lockstep lane across all of a
scenario's goals.  Specs execute serially or one per pool task, and
the sweep scales along three axes the drivers do not:

* **zero-copy grids** — whenever the sweep runs a process pool, a
  :class:`~repro.runtime.grid_store.SharedGridStore` realises each
  (scenario, timing) outcome grid once per *sweep* and publishes it
  via ``multiprocessing.shared_memory``; workers attach read-only
  views instead of re-realising per process.  A store that cannot be
  created degrades to per-process caches, and the result reports why;
* **streaming aggregation** — workers return compact per-cell
  :class:`CellSummary` rows (violation rate, means, latency
  percentiles, normalized scores), so driver memory is O(cells), not
  O(inputs); ``tests/test_sweep_parity.py`` pins the summaries to
  those of :func:`~repro.experiments.harness.evaluate_schemes` runs;
* **checkpoint/resume** — each completed unit appends one JSONL line
  keyed by a deterministic :meth:`SweepUnit.fingerprint`, written when
  the spec holding it finishes; a restarted sweep skips finished units
  and merges checkpointed summaries bit-identically with fresh ones
  (JSON round-trips Python floats exactly, and a goal's runs do not
  depend on the width of the spec that served it).

Results are merged in plan order, so pooled output is bit-identical
to serial output (common random numbers, as everywhere in this stack).
"""

from __future__ import annotations

import hashlib
import json
import os
import time
from concurrent.futures import FIRST_COMPLETED, ProcessPoolExecutor, wait
from dataclasses import dataclass, field

import numpy as np

from repro.core.goals import Goal, ObjectiveKind
from repro.errors import ConfigurationError
from repro.runtime.executor import (
    CellSpec,
    ScenarioKey,
    _WorkerState,
    plan_cells,
)
from repro.runtime.results import VIOLATION_SETTING_THRESHOLD, RunResult
from repro.workloads.scenarios import constraint_grid

__all__ = [
    "SweepSpec",
    "SweepUnit",
    "CellSummary",
    "SweepResult",
    "compile_sweep",
    "run_sweep",
    "summarize_cell",
    "load_checkpoint",
]

#: The scheme whose objective value anchors normalized scores (the
#: Table-4 convention: everything is reported relative to the static
#: oracle).
_BASELINE_SCHEME = "OracleStatic"


# ----------------------------------------------------------------------
# Spec and compiled units
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class SweepSpec:
    """One declarative sweep: the cross product the compiler expands.

    ``objectives`` picks which halves of each scenario's constraint
    grid participate (``"min_energy"`` / ``"min_error"``);
    ``settings_stride`` subsamples each half's settings (the drivers'
    ``--stride`` convention).  The GPU column reports only the image
    task, as in the Table-4 driver, so GPU × non-image combinations
    are skipped at compile time (:func:`run_sweep` refuses a spec left
    with none); an unknown platform, task, env or candidate-set name
    raises :class:`~repro.errors.ConfigurationError`.
    """

    platforms: tuple[str, ...] = ("CPU1",)
    tasks: tuple[str, ...] = ("image",)
    envs: tuple[str, ...] = ("memory",)
    schemes: tuple[str, ...] = ("Oracle", "OracleStatic", "ALERT")
    objectives: tuple[str, ...] = ("min_energy", "min_error")
    settings_stride: int = 1
    n_inputs: int = 100
    seeds: tuple[int, ...] = (20200417,)
    candidates: str = "standard"

    def __post_init__(self) -> None:
        for name in ("platforms", "tasks", "envs", "schemes", "objectives"):
            value = getattr(self, name)
            if not isinstance(value, tuple):
                object.__setattr__(self, name, tuple(value))
            if not getattr(self, name):
                raise ConfigurationError(f"sweep needs at least one of {name}")
        if not isinstance(self.seeds, tuple):
            object.__setattr__(self, "seeds", tuple(self.seeds))
        if not self.seeds:
            raise ConfigurationError("sweep needs at least one seed")
        unknown = set(self.objectives) - {"min_energy", "min_error"}
        if unknown:
            raise ConfigurationError(
                f"unknown objectives {sorted(unknown)}; "
                "choose from 'min_energy'/'min_error'"
            )
        if self.settings_stride < 1:
            raise ConfigurationError(
                f"settings_stride must be >= 1, got {self.settings_stride}"
            )
        if self.n_inputs < 1:
            raise ConfigurationError(
                f"need at least one input, got {self.n_inputs}"
            )

    def fingerprint(self) -> str:
        """Deterministic identity of the whole spec (checkpoint key)."""
        payload = {
            "platforms": list(self.platforms),
            "tasks": list(self.tasks),
            "envs": list(self.envs),
            "schemes": list(self.schemes),
            "objectives": list(self.objectives),
            "settings_stride": self.settings_stride,
            "n_inputs": self.n_inputs,
            "seeds": list(self.seeds),
            "candidates": self.candidates,
        }
        return _digest(payload)


def _digest(payload) -> str:
    canonical = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canonical.encode("utf-8")).hexdigest()[:16]


def _goal_identity(goal: Goal) -> dict:
    return {
        "objective": goal.objective.value,
        "deadline_s": goal.deadline_s,
        "period_s": goal.period_s,
        "accuracy_min": goal.accuracy_min,
        "energy_budget_j": goal.energy_budget_j,
        "prob_threshold": goal.prob_threshold,
    }


@dataclass(frozen=True)
class SweepUnit:
    """One compiled cell: every scheme of one (scenario, goal) pair."""

    scenario: ScenarioKey
    goal: Goal
    schemes: tuple[str, ...]
    n_inputs: int

    def cell_spec(self) -> CellSpec:
        """This unit alone as a one-goal executor spec.

        :func:`run_sweep` serves units in scenario-wide specs instead;
        a unit's summaries equal this spec's either way.
        """
        return CellSpec(
            scenario=self.scenario,
            goals=(self.goal,),
            schemes=self.schemes,
            n_inputs=self.n_inputs,
        )

    def fingerprint(self) -> str:
        """Deterministic cell identity (the checkpoint line key)."""
        payload = {
            "platform": self.scenario.platform,
            "task": self.scenario.task,
            "env": self.scenario.env,
            "candidates": self.scenario.candidates,
            "seed": self.scenario.seed,
            "goal": _goal_identity(self.goal),
            "schemes": list(self.schemes),
            "n_inputs": self.n_inputs,
        }
        return _digest(payload)


def compile_sweep(spec: SweepSpec) -> list[SweepUnit]:
    """Expand a sweep spec into its one-goal units, in checkpoint order.

    Units are the checkpoint keys and result slots; :func:`run_sweep`
    groups the pending ones into scenario-wide specs through
    :func:`~repro.runtime.executor.plan_cells`.  Within one scenario,
    units are ordered timing-major (all goals sharing a deadline are
    consecutive).  Combinations the Table-4 driver would not report
    (GPU × non-image) are skipped; a name that builds no scenario
    raises :class:`~repro.errors.ConfigurationError` instead of
    compiling to an empty sweep.
    """
    units: list[SweepUnit] = []
    stride = spec.settings_stride
    for seed in spec.seeds:
        for platform in spec.platforms:
            for task in spec.tasks:
                # The Table-4 driver's platform policy: the GPU column
                # only reports the image task.
                if platform.upper() == "GPU" and task != "image":
                    continue
                for env in spec.envs:
                    key = ScenarioKey(
                        platform=platform,
                        task=task,
                        env=env,
                        candidates=spec.candidates,
                        seed=seed,
                    )
                    grid = constraint_grid(key.build())
                    goals: list[Goal] = []
                    if "min_energy" in spec.objectives:
                        goals.extend(grid.min_energy_goals[::stride])
                    if "min_error" in spec.objectives:
                        goals.extend(grid.min_error_goals[::stride])
                    # Stable sort groups goals by timing while keeping
                    # the objective/floor order within each group.
                    goals.sort(key=lambda g: (g.deadline_s, g.period))
                    units.extend(
                        SweepUnit(
                            scenario=key,
                            goal=goal,
                            schemes=spec.schemes,
                            n_inputs=spec.n_inputs,
                        )
                        for goal in goals
                    )
    return units


# ----------------------------------------------------------------------
# Per-cell summaries (the streaming unit of aggregation)
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class CellSummary:
    """Compact aggregate of one scheme's run over one cell.

    Everything here derives deterministically from the
    :class:`~repro.runtime.results.RunResult`, and every float
    round-trips exactly through JSON (``repr`` serialisation), so
    checkpointed summaries merge bit-identically with fresh ones.
    ``normalized_score`` is the run's objective value relative to the
    cell's ``OracleStatic`` run (None when the cell has no baseline
    scheme or the baseline objective is zero).
    """

    scheme: str
    n_inputs: int
    violation_fraction: float
    deadline_miss_fraction: float
    mean_quality: float
    mean_error: float
    mean_energy_j: float
    mean_latency_s: float
    p50_latency_s: float
    p99_latency_s: float
    objective_value: float
    setting_violated: bool
    normalized_score: float | None = None

    @classmethod
    def from_run(cls, run: RunResult) -> "CellSummary":
        # Streaming aggregation: a batch-path run carries its series
        # as RunArrays — summarise those directly and never touch (or
        # materialize) the O(inputs) record list.  Otherwise one pass
        # over the records: reading each aggregate off the RunResult
        # properties would re-walk the record list per property (~9
        # walks, each chasing Python attributes per record), and a
        # sweep summarises every cell.  Either source holds the same
        # float64 values in the same order the properties would
        # reduce, so every aggregate is bit-identical to its property
        # counterpart (the parity suite compares them).
        arrays = run.arrays
        if arrays is not None:
            n = len(arrays.latency_s)
            latency = arrays.latency_s
            quality = arrays.quality
            energy = arrays.energy_j
            violated = arrays.violated
            missed = arrays.latency_violation
        else:
            n = len(run.records)
            latency = np.empty(n)
            quality = np.empty(n)
            energy = np.empty(n)
            violated = np.empty(n, dtype=bool)
            missed = np.empty(n, dtype=bool)
            for i, record in enumerate(run.records):
                outcome = record.outcome
                latency[i] = outcome.latency_s
                quality[i] = outcome.quality
                energy[i] = outcome.energy_j
                violated[i] = record.violated
                missed[i] = record.latency_violation
        mean_quality = float(np.mean(quality))
        mean_energy_j = float(np.mean(energy))
        violation_fraction = float(np.mean(violated))
        objective_value = (
            mean_energy_j
            if run.goal.objective is ObjectiveKind.MINIMIZE_ENERGY
            else 1.0 - mean_quality
        )
        return cls(
            scheme=run.scheduler_name,
            n_inputs=n,
            violation_fraction=violation_fraction,
            deadline_miss_fraction=float(np.mean(missed)),
            mean_quality=mean_quality,
            mean_error=1.0 - mean_quality,
            mean_energy_j=mean_energy_j,
            mean_latency_s=float(np.mean(latency)),
            p50_latency_s=float(np.percentile(latency, 50.0)),
            p99_latency_s=float(np.percentile(latency, 99.0)),
            objective_value=objective_value,
            setting_violated=violation_fraction > VIOLATION_SETTING_THRESHOLD,
        )

    def to_json(self) -> dict:
        return {
            "scheme": self.scheme,
            "n_inputs": self.n_inputs,
            "violation_fraction": self.violation_fraction,
            "deadline_miss_fraction": self.deadline_miss_fraction,
            "mean_quality": self.mean_quality,
            "mean_error": self.mean_error,
            "mean_energy_j": self.mean_energy_j,
            "mean_latency_s": self.mean_latency_s,
            "p50_latency_s": self.p50_latency_s,
            "p99_latency_s": self.p99_latency_s,
            "objective_value": self.objective_value,
            "setting_violated": self.setting_violated,
            "normalized_score": self.normalized_score,
        }

    @classmethod
    def from_json(cls, payload: dict) -> "CellSummary":
        return cls(**payload)


def summarize_cell(
    schemes: tuple[str, ...], runs: list[RunResult]
) -> tuple[CellSummary, ...]:
    """Summaries for one cell's runs, aligned with ``schemes``.

    Computes each scheme's normalized score against the cell's
    ``OracleStatic`` run when present — worker-side, so the driver
    never needs the runs themselves.
    """
    summaries = [CellSummary.from_run(run) for run in runs]
    baseline = None
    for name, summary in zip(schemes, summaries):
        if name == _BASELINE_SCHEME:
            baseline = summary.objective_value
            break
    if baseline:
        summaries = [
            CellSummary(
                **{
                    **summary.to_json(),
                    "normalized_score": summary.objective_value / baseline,
                }
            )
            for summary in summaries
        ]
    return tuple(summaries)


# ----------------------------------------------------------------------
# Checkpoint I/O
# ----------------------------------------------------------------------
def _checkpoint_line(spec_fp: str, unit_fp: str, summaries) -> str:
    payload = {
        "spec": spec_fp,
        "cell": unit_fp,
        "summaries": [summary.to_json() for summary in summaries],
    }
    return json.dumps(payload, sort_keys=True, separators=(",", ":"))


def load_checkpoint(path, spec_fp: str) -> dict[str, tuple[CellSummary, ...]]:
    """Completed cells from a JSONL checkpoint: fingerprint → summaries.

    Tolerates a corrupted or truncated trailing line (a crash mid-append)
    by skipping anything that does not parse back into a well-formed
    cell record; lines written under a *different* spec fingerprint are
    ignored rather than merged into the wrong sweep.
    """
    cells: dict[str, tuple[CellSummary, ...]] = {}
    if path is None or not os.path.exists(path):
        return cells
    with open(path, "r", encoding="utf-8") as handle:
        for line in handle:
            line = line.strip()
            if not line:
                continue
            try:
                payload = json.loads(line)
                if not isinstance(payload, dict):
                    continue
                if payload.get("spec") != spec_fp:
                    continue
                fingerprint = payload["cell"]
                if not isinstance(fingerprint, str):
                    continue
                summaries = tuple(
                    CellSummary.from_json(entry)
                    for entry in payload["summaries"]
                )
            except (json.JSONDecodeError, KeyError, TypeError):
                continue
            cells[fingerprint] = summaries
    return cells


def _open_for_append(path):
    """Open a checkpoint for appending, ending a cut-off last line.

    A crash mid-append leaves a last line without its newline; a line
    appended straight after it would merge with it, and neither would
    load.
    """
    cut = False
    if os.path.exists(path) and os.path.getsize(path) > 0:
        with open(path, "rb") as existing:
            existing.seek(-1, os.SEEK_END)
            cut = existing.read(1) != b"\n"
    handle = open(path, "a", encoding="utf-8")
    if cut:
        handle.write("\n")
    return handle


# ----------------------------------------------------------------------
# Execution
# ----------------------------------------------------------------------
#: Lazily-created state of a sweep pool worker (separate from the
#: executor's ``_POOL_STATE``: a sweep worker returns summaries, not
#: RunResults, so the driver never holds O(inputs) pickled records).
_SWEEP_STATE = None
_SWEEP_GRID_STORE = None


def _sweep_initializer(grid_store=None) -> None:
    global _SWEEP_STATE, _SWEEP_GRID_STORE
    _SWEEP_STATE = None
    _SWEEP_GRID_STORE = grid_store


def _summarize_spec(state: _WorkerState, cell: CellSpec):
    """Run one spec; one summary tuple per goal."""
    return [summarize_cell(cell.schemes, runs) for runs in state.execute(cell)]


def _sweep_execute(cell: CellSpec):
    """Pool entry point: run one spec, return its compact summaries."""
    global _SWEEP_STATE
    if _SWEEP_STATE is None:
        _SWEEP_STATE = _WorkerState(grid_store=_SWEEP_GRID_STORE)
    return _summarize_spec(_SWEEP_STATE, cell)


@dataclass
class SweepResult:
    """A sweep's plan-ordered outcome: O(cells) summaries.

    ``cells`` aligns one-to-one with ``units``; entries are None only
    for an aborted (``cell_limit``) sweep's unexecuted tail.
    ``grid_store_stats`` holds a pooled sweep's store counters;
    ``grid_store_error`` says why a pooled sweep ran without its store.
    """

    spec: SweepSpec
    units: list[SweepUnit]
    cells: list[tuple[CellSummary, ...] | None]
    resumed: int
    executed: int
    complete: bool
    elapsed_s: float
    checkpoint_path: str | None = None
    grid_store_stats: dict | None = field(default=None)
    grid_store_error: str | None = None

    @property
    def n_cells(self) -> int:
        return len(self.units)

    def cell(self, index: int) -> tuple[CellSummary, ...]:
        completed = self.cells[index]
        if completed is None:
            raise ConfigurationError(
                f"cell {index} was not executed (aborted sweep)"
            )
        return completed

    def describe(self) -> str:
        done = sum(1 for cell in self.cells if cell is not None)
        rate = self.executed / self.elapsed_s if self.elapsed_s > 0 else 0.0
        lines = [
            f"sweep: {done}/{self.n_cells} cells "
            f"({self.resumed} resumed, {self.executed} executed, "
            f"{'complete' if self.complete else 'partial'}) "
            f"in {self.elapsed_s:.2f}s ({rate:.1f} cells/s executed)",
        ]
        if self.grid_store_stats is not None:
            stats = self.grid_store_stats
            lines.append(
                f"  grid store: {stats['grids']} shared grids, "
                f"{stats['nbytes'] / 1e6:.1f} MB published"
            )
        if self.grid_store_error is not None:
            lines.append(
                f"  grid store unavailable ({self.grid_store_error}): "
                "workers realised their grids privately"
            )
        by_scheme: dict[str, list[float]] = {}
        for cell in self.cells:
            if cell is None:
                continue
            for summary in cell:
                by_scheme.setdefault(summary.scheme, []).append(
                    summary.violation_fraction
                )
        for scheme, fractions in by_scheme.items():
            lines.append(
                f"  {scheme}: mean violation "
                f"{float(np.mean(fractions)) * 100:.1f}% "
                f"over {len(fractions)} cells"
            )
        return "\n".join(lines)


def run_sweep(
    spec: SweepSpec,
    workers: int = 1,
    checkpoint_path: str | None = None,
    resume: bool = True,
    cell_limit: int | None = None,
) -> SweepResult:
    """Execute a sweep spec: compile, (re)run, stream, checkpoint.

    Parameters
    ----------
    workers:
        1 runs in-process; >1 runs each scenario-wide spec as one task
        of a process pool (see :func:`~repro.runtime.executor.plan_cells`
        for when a scenario splits).  A plan of one spec runs
        in-process whatever ``workers`` asks for.  Output is
        bit-identical either way (plan-ordered merge).  A pooled sweep
        shares realised outcome grids across its workers through a
        :class:`~repro.runtime.grid_store.SharedGridStore`; when the
        store cannot be created (an ``OSError`` from shared memory or
        semaphores) the workers fall back to per-process caches and
        ``grid_store_error`` says why.  An in-process sweep keeps its
        one process's grid cache.
    checkpoint_path:
        JSONL file completed units append to, one line each, written
        when the spec holding the unit finishes: a kill loses every
        unit of the specs in flight (up to one scenario's goals per
        spec), never a finished one.  With ``resume`` (the default)
        units already checkpointed under this spec's fingerprint are
        skipped and their summaries merged as-is — bit-identical to
        recomputing them.
    cell_limit:
        Execute at most this many *new* units (the first pending ones
        in plan order), then stop, leaving a checkpoint that holds
        part of the sweep for resume testing (the cut is applied
        before planning, so it may fall inside a scenario, where a
        real kill loses the whole in-flight spec); the result reports
        ``complete=False`` and the unexecuted tail stays None.
    """
    if workers < 1:
        raise ConfigurationError(f"need at least one worker, got {workers}")
    if cell_limit is not None and cell_limit < 0:
        raise ConfigurationError(
            f"cell_limit must be >= 0, got {cell_limit}"
        )
    started = time.perf_counter()
    spec_fp = spec.fingerprint()
    units = compile_sweep(spec)
    if not units:
        raise ConfigurationError(
            "sweep compiles to no cell: the GPU platform reports the "
            "image task only, as in the Table-4 driver"
        )
    fingerprints = [unit.fingerprint() for unit in units]

    checkpointed: dict[str, tuple[CellSummary, ...]] = {}
    if checkpoint_path is not None and resume:
        checkpointed = load_checkpoint(checkpoint_path, spec_fp)

    cells: list[tuple[CellSummary, ...] | None] = [None] * len(units)
    resumed = 0
    pending: list[int] = []
    for position, fingerprint in enumerate(fingerprints):
        summaries = checkpointed.get(fingerprint)
        if summaries is not None:
            cells[position] = summaries
            resumed += 1
        else:
            pending.append(position)
    if cell_limit is not None:
        pending = pending[:cell_limit]
    # Every unit of a sweep shares its spec's schemes and input count.
    plan = [
        (cell, tuple(pending[index] for index in group))
        for cell, group in plan_cells(
            [(units[position].scenario, units[position].goal)
             for position in pending],
            spec.schemes,
            spec.n_inputs,
            workers=workers,
        )
    ]

    pooled = workers > 1 and len(plan) > 1
    store = None
    client = None
    store_error = None
    if pooled:
        from repro.runtime.grid_store import SharedGridStore

        try:
            store = SharedGridStore()
        except OSError as error:
            store_error = f"{type(error).__name__}: {error}"
        else:
            client = store.client()

    handle = None
    try:
        if checkpoint_path is not None and pending:
            handle = _open_for_append(checkpoint_path)

        def record(positions, results) -> None:
            """Store and checkpoint a finished spec's units."""
            for position, summaries in zip(positions, results):
                cells[position] = summaries
                if handle is not None:
                    handle.write(
                        _checkpoint_line(
                            spec_fp, fingerprints[position], summaries
                        )
                        + "\n"
                    )
                    handle.flush()

        if not pooled:
            state = _WorkerState()
            for cell, positions in plan:
                record(positions, _summarize_spec(state, cell))
        else:
            n_workers = min(workers, len(plan))
            with ProcessPoolExecutor(
                max_workers=n_workers,
                initializer=_sweep_initializer,
                initargs=(client,),
            ) as pool:
                futures = {
                    pool.submit(_sweep_execute, cell): positions
                    for cell, positions in plan
                }
                outstanding = set(futures)
                while outstanding:
                    done, outstanding = wait(
                        outstanding, return_when=FIRST_COMPLETED
                    )
                    for future in done:
                        record(futures[future], future.result())
    finally:
        if handle is not None:
            handle.close()
        stats = store.stats() if store is not None else None
        if store is not None:
            store.close()

    executed = len(pending)
    complete = all(cell is not None for cell in cells)
    return SweepResult(
        spec=spec,
        units=units,
        cells=cells,
        resumed=resumed,
        executed=executed,
        complete=complete,
        elapsed_s=time.perf_counter() - started,
        checkpoint_path=checkpoint_path,
        grid_store_stats=stats,
        grid_store_error=store_error,
    )
