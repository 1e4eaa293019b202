"""Parity and crash-resume suite for the zero-copy sweep engine.

Pins the sweep engine's contract: a pooled shared-store sweep, a
serial per-process-cache sweep, and the summaries of
:func:`repro.experiments.harness.evaluate_schemes` runs must all be
the same cells, exactly; a killed sweep resumed from its JSONL
checkpoint must merge bit-identically with an uninterrupted run
(including a ``repro sweep`` child SIGKILLed mid-run, a corrupted or
truncated checkpoint line, and a checkpoint holding part of a
scenario); a spec's checkpoint lines land when the spec finishes;
pooled execution must equal serial, also when the grid store cannot
be created.  Also covers the LRU-bounded
:class:`repro.runtime.executor._WorkerState` caches and the read-only
guarantee of shared-buffer-adopted
:class:`~repro.models.inference.BatchOutcomeGrid` arrays.
"""

from __future__ import annotations

import dataclasses
import json
import os
import signal
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import pytest

import repro
import repro.runtime.grid_store as grid_store_module
import repro.runtime.sweep as sweep_module
from repro.cli import build_parser, main
from repro.core.goals import Goal, ObjectiveKind
from repro.errors import ConfigurationError
from repro.experiments.harness import evaluate_schemes
from repro.models.inference import (
    SHARED_GRID_ARRAYS,
    adopt_shared_grid,
    shared_grid_layout,
    shared_grid_payload,
    write_shared_grid,
)
from repro.runtime.executor import (
    _GRID_CACHE_CAPACITY,
    _SCENARIO_CACHE_CAPACITY,
    LOCKSTEP_MIN_GOALS,
    ScenarioKey,
    _WorkerState,
    plan_cells,
    structural_space_fingerprint,
    timing_grid,
)
from repro.runtime.grid_store import SharedGridStore
from repro.runtime.results import RunResult
from repro.runtime.sweep import (
    CellSummary,
    SweepSpec,
    compile_sweep,
    load_checkpoint,
    run_sweep,
    summarize_cell,
)
from repro.workloads.scenarios import build_scenario

#: A small but representative sweep: one scenario, mixed objectives,
#: feedback-free and feedback-driven schemes, goals sharing timings.
SPEC = SweepSpec(
    platforms=("CPU1",),
    tasks=("image",),
    envs=("memory",),
    schemes=("Oracle", "OracleStatic", "ALERT"),
    objectives=("min_energy", "min_error"),
    settings_stride=9,
    n_inputs=12,
    seeds=(99,),
)

#: The same sweep over two scenarios: with two workers it plans two
#: specs, so it starts a pool (one scenario would plan one spec and
#: run in-process).
TWO_SCENARIOS = dataclasses.replace(SPEC, envs=("memory", "compute"))

#: Three scenarios of 12 goals each, as ``repro sweep`` options and as
#: the same spec: the sweep the kill test runs in a child process.
KILL_OPTIONS = [
    "--envs", "default", "memory", "compute",
    "--schemes", "ALERT", "OracleStatic",
    "--stride", "6", "--inputs", "40", "--seeds", "7",
]
KILL_SPEC = SweepSpec(
    envs=("default", "memory", "compute"),
    schemes=("ALERT", "OracleStatic"),
    settings_stride=6,
    n_inputs=40,
    seeds=(7,),
)

#: Two scenarios of 24 goals each (stride 3), with every stacking
#: scheme family and the normalisation baseline: each scenario is one
#: lockstep-wide spec.
WIDE_SPEC = SweepSpec(
    platforms=("CPU1",),
    tasks=("image",),
    envs=("memory", "compute"),
    schemes=("ALERT", "Sys-only", "No-coord", "OracleStatic"),
    objectives=("min_energy", "min_error"),
    settings_stride=3,
    n_inputs=10,
    seeds=(7,),
)


# ----------------------------------------------------------------------
# The compiler
# ----------------------------------------------------------------------
def test_compile_expands_cross_product():
    units = compile_sweep(SPEC)
    assert units, "spec compiled to an empty plan"
    for unit in units:
        assert unit.scenario == ScenarioKey("CPU1", "image", "memory", seed=99)
        assert unit.schemes == SPEC.schemes
        assert unit.n_inputs == SPEC.n_inputs
    # Timing-major order: goals sharing a timing form one contiguous
    # block, so the per-timing grid caches see each grid's users back
    # to back.
    timings = [(u.goal.deadline_s, u.goal.period) for u in units]
    blocks = []
    for timing in timings:
        if not blocks or blocks[-1] != timing:
            blocks.append(timing)
    assert len(blocks) == len(set(timings))


def test_compile_skips_unavailable_combinations():
    spec = SweepSpec(
        platforms=("GPU",),
        tasks=("sentence",),  # the GPU column reports the image task only
        envs=("memory",),
        schemes=("OracleStatic",),
        settings_stride=9,
        n_inputs=8,
    )
    assert compile_sweep(spec) == []


@pytest.mark.parametrize(
    ("field", "name"),
    [("platforms", "CPU9"), ("envs", "memroy"), ("tasks", "imgae")],
)
def test_compile_rejects_unknown_names(field, name):
    """Regression: a misspelled name compiled to an empty sweep that
    reported itself complete."""
    spec = dataclasses.replace(SPEC, **{field: (name,)})
    with pytest.raises(ConfigurationError):
        compile_sweep(spec)


def test_fingerprints_are_deterministic_and_distinct():
    units = compile_sweep(SPEC)
    fingerprints = [unit.fingerprint() for unit in units]
    assert fingerprints == [unit.fingerprint() for unit in compile_sweep(SPEC)]
    assert len(set(fingerprints)) == len(fingerprints)
    assert SPEC.fingerprint() == SPEC.fingerprint()
    other = SweepSpec(
        platforms=("CPU1",),
        tasks=("image",),
        envs=("memory",),
        schemes=("Oracle", "OracleStatic", "ALERT"),
        objectives=("min_energy", "min_error"),
        settings_stride=9,
        n_inputs=13,  # differs
        seeds=(99,),
    )
    assert other.fingerprint() != SPEC.fingerprint()


def test_spec_validation():
    with pytest.raises(ConfigurationError):
        SweepSpec(platforms=())
    with pytest.raises(ConfigurationError):
        SweepSpec(objectives=("min_fun",))
    with pytest.raises(ConfigurationError):
        SweepSpec(settings_stride=0)
    with pytest.raises(ConfigurationError):
        SweepSpec(seeds=())


# ----------------------------------------------------------------------
# Parity: pooled store == serial cache == evaluate_schemes
# ----------------------------------------------------------------------
def test_sweep_matches_evaluate_schemes():
    result = run_sweep(SPEC, workers=1)
    assert result.complete
    scenario = build_scenario("CPU1", "image", "memory", "standard", 99)
    reference = evaluate_schemes(
        scenario,
        tuple(unit.goal for unit in result.units),
        SPEC.schemes,
        n_inputs=SPEC.n_inputs,
    )
    for position in range(len(result.units)):
        runs = [reference.scheme_runs(name)[position] for name in SPEC.schemes]
        assert result.cells[position] == summarize_cell(SPEC.schemes, runs)
        for name, summary, run in zip(SPEC.schemes, result.cells[position], runs):
            # The streamed summary is the run's own aggregate.
            assert summary.scheme == name
            assert summary.violation_fraction == run.violation_fraction
            assert summary.mean_energy_j == run.mean_energy_j
            assert summary.objective_value == run.objective_value


def test_pool_and_store_match_serial():
    serial = run_sweep(TWO_SCENARIOS, workers=1)
    pooled = run_sweep(TWO_SCENARIOS, workers=2)
    assert pooled.cells == serial.cells
    # The store is on exactly when the sweep starts a pool.
    assert serial.grid_store_stats is None
    assert pooled.grid_store_stats is not None
    assert pooled.grid_store_stats["grids"] > 0
    assert pooled.grid_store_stats["failed"] == 0
    assert pooled.grid_store_error is None


def test_single_pending_cell_runs_in_process_without_store():
    """With one spec to run, a pooled request starts no pool, so it
    also starts no store: one cell left, or one scenario whose eight
    goals are too few to split into two lockstep-wide specs."""
    serial = run_sweep(SPEC, workers=1, cell_limit=1)
    one = run_sweep(SPEC, workers=2, cell_limit=1)
    assert one.executed == 1
    assert one.grid_store_stats is None
    assert one.cells == serial.cells

    units = compile_sweep(SPEC)
    work = [(unit.scenario, unit.goal) for unit in units]
    assert len(plan_cells(work, SPEC.schemes, SPEC.n_inputs, workers=2)) == 1
    whole = run_sweep(SPEC, workers=2)
    assert whole.executed == len(units)
    assert whole.grid_store_stats is None
    assert whole.cells == run_sweep(SPEC, workers=1).cells


def test_failed_store_degrades_visibly(monkeypatch):
    """Regression: a store that could not be created fell back to
    per-process caches silently, reporting like a serial sweep."""

    def unavailable():
        raise OSError(28, "No space left on device")

    monkeypatch.setattr(grid_store_module, "SharedGridStore", unavailable)
    serial = run_sweep(TWO_SCENARIOS, workers=1)
    pooled = run_sweep(TWO_SCENARIOS, workers=2)
    assert pooled.cells == serial.cells
    assert pooled.grid_store_stats is None
    assert "No space left on device" in pooled.grid_store_error
    described = pooled.describe()
    assert "grid store unavailable" in described
    assert "No space left on device" in described
    assert "unavailable" not in serial.describe()


# ----------------------------------------------------------------------
# Checkpoint / crash-resume
# ----------------------------------------------------------------------
def test_killed_sweep_resumes_bit_identical(tmp_path):
    uninterrupted = run_sweep(SPEC, workers=1)
    checkpoint = tmp_path / "sweep.jsonl"
    partial = run_sweep(
        SPEC, workers=1, checkpoint_path=str(checkpoint), cell_limit=3
    )
    assert not partial.complete
    assert partial.executed == 3
    assert sum(1 for cell in partial.cells if cell is not None) == 3
    resumed = run_sweep(SPEC, workers=1, checkpoint_path=str(checkpoint))
    assert resumed.complete
    assert resumed.resumed == 3
    assert resumed.executed == len(resumed.units) - 3
    assert resumed.cells == uninterrupted.cells


def test_checkpoint_lines_land_when_their_spec_finishes(
    tmp_path, monkeypatch
):
    """A serial sweep runs one spec per scenario, and a spec's lines
    reach the checkpoint only after the whole spec has run: when the
    second spec starts, exactly the first spec's lines are on disk."""
    checkpoint = tmp_path / "specs.jsonl"
    started = []
    summarize_spec = sweep_module._summarize_spec

    def spy(state, cell):
        written = len(checkpoint.read_text().splitlines())
        started.append((written, len(cell.goals)))
        return summarize_spec(state, cell)

    monkeypatch.setattr(sweep_module, "_summarize_spec", spy)
    result = run_sweep(
        TWO_SCENARIOS, workers=1, checkpoint_path=str(checkpoint)
    )
    per_scenario = len(result.units) // 2
    assert started == [(0, per_scenario), (per_scenario, per_scenario)]
    assert len(checkpoint.read_text().splitlines()) == len(result.units)


@pytest.fixture(scope="module")
def wide_reference():
    """WIDE_SPEC's units one goal at a time, plus its uninterrupted run."""
    units = compile_sweep(WIDE_SPEC)
    state = _WorkerState()
    one_goal = []
    for unit in units:
        (runs,) = state.execute(unit.cell_spec())
        one_goal.append(summarize_cell(unit.schemes, runs))
    return one_goal, run_sweep(WIDE_SPEC, workers=1)


@pytest.mark.parametrize("workers", [1, 2])
def test_resume_from_part_of_a_wide_scenario_bit_identical(
    workers, wide_reference, tmp_path
):
    """Resume from a checkpoint holding part of a scenario: the first
    run stops after 9 of the first scenario's 24 goals, the resume
    serves its other goals as a partial spec beside the second
    scenario's full one, and every summary equals both the
    uninterrupted sweep's and the goal's one-goal cell's exactly."""
    one_goal, uninterrupted = wide_reference
    units = uninterrupted.units
    first = sum(unit.scenario == units[0].scenario for unit in units)
    assert first >= 2 * LOCKSTEP_MIN_GOALS
    stop = 9
    assert stop < first
    assert uninterrupted.cells == one_goal

    checkpoint = tmp_path / "wide.jsonl"
    partial = run_sweep(
        WIDE_SPEC, workers=workers, checkpoint_path=str(checkpoint),
        cell_limit=stop,
    )
    assert not partial.complete
    assert partial.executed == stop
    assert len(checkpoint.read_text().splitlines()) == stop
    assert partial.cells[:stop] == one_goal[:stop]
    assert partial.cells[stop:] == [None] * (len(units) - stop)

    resumed = run_sweep(
        WIDE_SPEC, workers=workers, checkpoint_path=str(checkpoint)
    )
    assert resumed.complete
    assert resumed.resumed == stop
    assert resumed.executed == len(units) - stop
    assert resumed.cells == uninterrupted.cells
    assert resumed.cells == one_goal
    # Pooled, the resume ran the partial and the full spec as two tasks
    # (so it shared grids through the store).
    assert (resumed.grid_store_stats is not None) == (workers > 1)


@pytest.fixture(scope="module")
def kill_reference():
    """KILL_SPEC's uninterrupted sweep."""
    return run_sweep(KILL_SPEC, workers=1)


@pytest.mark.parametrize("workers", [1, 2])
def test_sigkilled_sweep_resumes_bit_identical(workers, kill_reference, tmp_path):
    """A real kill: ``repro sweep`` runs in a child process group that
    gets SIGKILL as soon as the first spec's lines reach the checkpoint.
    Every whole line loads, the resume skips exactly those units, and
    the merged cells equal an uninterrupted sweep's."""
    checkpoint = tmp_path / "killed.jsonl"
    src = str(Path(repro.__file__).resolve().parents[1])
    pythonpath = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    child = subprocess.Popen(
        [
            sys.executable, "-m", "repro", "sweep", *KILL_OPTIONS,
            "--workers", str(workers), "--checkpoint", str(checkpoint),
        ],
        env={**os.environ, "PYTHONPATH": pythonpath},
        stdout=subprocess.DEVNULL,
        stderr=subprocess.DEVNULL,
        start_new_session=True,
    )
    try:
        give_up = time.monotonic() + 120
        while child.poll() is None and time.monotonic() < give_up:
            if checkpoint.exists() and checkpoint.stat().st_size > 0:
                break
            time.sleep(0.001)
    finally:
        # The whole group: the driver and its pool workers.
        try:
            os.killpg(child.pid, signal.SIGKILL)
        except ProcessLookupError:
            pass
        child.wait(timeout=60)
    assert child.returncode == -signal.SIGKILL

    lines = checkpoint.read_text().splitlines(keepends=True)
    whole = [line for line in lines if line.endswith("\n")]
    assert len(lines) - len(whole) <= 1  # only the last line may be cut
    loaded = load_checkpoint(str(checkpoint), KILL_SPEC.fingerprint())
    assert len(loaded) == len(whole)
    # Killed before it finished.
    assert 0 < len(loaded) < len(kill_reference.units)

    resumed = run_sweep(KILL_SPEC, workers=workers, checkpoint_path=str(checkpoint))
    assert resumed.resumed == len(loaded)
    assert resumed.complete
    assert resumed.cells == kill_reference.cells


def test_resume_tolerates_truncated_trailing_line(tmp_path):
    uninterrupted = run_sweep(SPEC, workers=1)
    checkpoint = tmp_path / "sweep.jsonl"
    run_sweep(SPEC, workers=1, checkpoint_path=str(checkpoint), cell_limit=4)
    text = checkpoint.read_text()
    lines = text.splitlines(keepends=True)
    # A crash mid-append: the last line is cut short.
    checkpoint.write_text("".join(lines[:-1]) + lines[-1][: len(lines[-1]) // 2])
    resumed = run_sweep(SPEC, workers=1, checkpoint_path=str(checkpoint))
    assert resumed.complete
    assert resumed.resumed == 3  # the cut line re-runs
    assert resumed.cells == uninterrupted.cells


def test_resume_after_truncated_line_keeps_every_new_line(tmp_path):
    """The resume's first line must not be glued onto the cut one."""
    spec = dataclasses.replace(SPEC, schemes=("OracleStatic", "ALERT"), n_inputs=8)
    checkpoint = tmp_path / "sweep.jsonl"
    run_sweep(spec, workers=1, checkpoint_path=str(checkpoint), cell_limit=3)
    lines = checkpoint.read_text().splitlines(keepends=True)
    checkpoint.write_text("".join(lines[:-1]) + lines[-1][: len(lines[-1]) // 2])
    resumed = run_sweep(spec, workers=1, checkpoint_path=str(checkpoint))
    n_units = len(resumed.units)
    assert resumed.complete
    assert (resumed.resumed, resumed.executed) == (2, n_units - 2)
    assert len(load_checkpoint(str(checkpoint), spec.fingerprint())) == n_units
    again = run_sweep(spec, workers=1, checkpoint_path=str(checkpoint))
    assert (again.resumed, again.executed) == (n_units, 0)
    assert again.cells == resumed.cells


def test_resume_skips_lines_whose_cell_is_not_a_string(tmp_path):
    uninterrupted = run_sweep(SPEC, workers=1)
    checkpoint = tmp_path / "sweep.jsonl"
    run_sweep(SPEC, workers=1, checkpoint_path=str(checkpoint), cell_limit=2)
    with open(checkpoint, "a", encoding="utf-8") as handle:
        for cell in (["x"], {"x": 1}, 5, None):
            line = {"spec": SPEC.fingerprint(), "cell": cell, "summaries": []}
            handle.write(json.dumps(line) + "\n")
    assert len(load_checkpoint(str(checkpoint), SPEC.fingerprint())) == 2
    resumed = run_sweep(SPEC, workers=1, checkpoint_path=str(checkpoint))
    assert resumed.complete
    assert resumed.resumed == 2
    assert resumed.cells == uninterrupted.cells


def test_resume_tolerates_corrupt_line(tmp_path):
    uninterrupted = run_sweep(SPEC, workers=1)
    checkpoint = tmp_path / "sweep.jsonl"
    run_sweep(SPEC, workers=1, checkpoint_path=str(checkpoint), cell_limit=2)
    with open(checkpoint, "a", encoding="utf-8") as handle:
        handle.write('{"spec": "garbage", not json\n')
        handle.write('{"spec": "wrong-spec", "cell": "x", "summaries": []}\n')
        # Valid JSON that is not an object.
        handle.write('null\n42\n[1, 2]\n"text"\n')
    resumed = run_sweep(SPEC, workers=1, checkpoint_path=str(checkpoint))
    assert resumed.complete
    assert resumed.resumed == 2
    assert resumed.cells == uninterrupted.cells


def test_checkpoint_ignores_foreign_spec(tmp_path):
    checkpoint = tmp_path / "sweep.jsonl"
    run_sweep(SPEC, workers=1, checkpoint_path=str(checkpoint))
    other = SweepSpec(
        platforms=("CPU1",),
        tasks=("image",),
        envs=("memory",),
        schemes=("Oracle", "OracleStatic", "ALERT"),
        settings_stride=9,
        n_inputs=11,  # different spec, same file
        seeds=(99,),
    )
    cells = load_checkpoint(str(checkpoint), other.fingerprint())
    assert cells == {}
    result = run_sweep(other, workers=1, checkpoint_path=str(checkpoint))
    assert result.resumed == 0
    assert result.complete


def test_resume_off_reruns_everything(tmp_path):
    checkpoint = tmp_path / "sweep.jsonl"
    run_sweep(SPEC, workers=1, checkpoint_path=str(checkpoint))
    rerun = run_sweep(
        SPEC, workers=1, checkpoint_path=str(checkpoint), resume=False
    )
    assert rerun.resumed == 0
    assert rerun.executed == len(rerun.units)


def test_summary_single_pass_matches_run_properties(memory_scenario):
    # CellSummary.from_run aggregates in one pass over the records; it
    # must reproduce the RunResult property values bit for bit.
    goal, _grid = _realized_grid(memory_scenario)
    state = _WorkerState()
    key = ScenarioKey.for_scenario(memory_scenario)
    from repro.runtime.executor import CellSpec

    (runs,) = state.execute(
        CellSpec(
            scenario=key,
            goals=(goal,),
            schemes=("OracleStatic", "ALERT"),
            n_inputs=24,
        )
    )
    for run in runs:
        summary = CellSummary.from_run(run)
        latencies = run.series("latency_s")
        assert summary.n_inputs == run.n_inputs
        assert summary.violation_fraction == run.violation_fraction
        assert summary.deadline_miss_fraction == run.deadline_miss_fraction
        assert summary.mean_quality == run.mean_quality
        assert summary.mean_error == run.mean_error
        assert summary.mean_energy_j == run.mean_energy_j
        assert summary.mean_latency_s == run.mean_latency_s
        assert summary.p50_latency_s == float(np.percentile(latencies, 50.0))
        assert summary.p99_latency_s == float(np.percentile(latencies, 99.0))
        assert summary.objective_value == run.objective_value
        assert summary.setting_violated == run.setting_violated


def test_batch_run_defers_records_and_arrays_match(memory_scenario):
    # The batch fast path returns RunArrays plus a deferred record
    # build.  Summarising must never materialize the O(inputs) record
    # list, and the records — built on first access — must carry
    # exactly the array values.
    goal, _grid = _realized_grid(memory_scenario)
    state = _WorkerState()
    key = ScenarioKey.for_scenario(memory_scenario)
    from repro.runtime.executor import CellSpec

    ((run,),) = state.execute(
        CellSpec(
            scenario=key, goals=(goal,), schemes=("OracleStatic",), n_inputs=24
        )
    )
    arrays = run.arrays
    assert arrays is not None
    assert run._records is None
    summary = CellSummary.from_run(run)
    assert run._records is None  # summarising reads the arrays only
    records = run.records
    assert run._records is records
    assert len(records) == 24
    assert np.array_equal(
        arrays.latency_s, [r.outcome.latency_s for r in records]
    )
    assert np.array_equal(arrays.quality, [r.outcome.quality for r in records])
    assert np.array_equal(
        arrays.energy_j, [r.outcome.energy_j for r in records]
    )
    assert np.array_equal(
        arrays.metric_value, [r.outcome.metric_value for r in records]
    )
    assert np.array_equal(arrays.violated, [r.violated for r in records])
    assert np.array_equal(
        arrays.latency_violation, [r.latency_violation for r in records]
    )
    # A record-backed result over the materialized records summarises
    # to the same cell, closing the arrays == records loop.
    record_backed = RunResult(run.scheduler_name, run.goal, records)
    assert CellSummary.from_run(record_backed) == summary


def test_deferred_run_pickles_with_records(memory_scenario):
    # The materializer is a local closure; pickling materializes the
    # records first so the receiver sees a complete, equal result.
    import pickle

    goal, _grid = _realized_grid(memory_scenario)
    state = _WorkerState()
    key = ScenarioKey.for_scenario(memory_scenario)
    from repro.runtime.executor import CellSpec

    ((run,),) = state.execute(
        CellSpec(
            scenario=key, goals=(goal,), schemes=("OracleStatic",), n_inputs=12
        )
    )
    assert run._records is None
    clone = pickle.loads(pickle.dumps(run))
    assert run._records is not None  # pickling forced the build
    assert clone.n_inputs == run.n_inputs
    assert clone.records == run.records
    assert np.array_equal(clone.arrays.latency_s, run.arrays.latency_s)
    assert CellSummary.from_run(clone) == CellSummary.from_run(run)


def test_summary_json_round_trip():
    result = run_sweep(SPEC, workers=1, cell_limit=1)
    for summary in result.cells[0]:
        payload = json.loads(json.dumps(summary.to_json()))
        assert CellSummary.from_json(payload) == summary


def test_normalized_score_anchors_on_oracle_static():
    result = run_sweep(SPEC, workers=1, cell_limit=1)
    summaries = {s.scheme: s for s in result.cells[0]}
    static = summaries["OracleStatic"]
    assert static.normalized_score == pytest.approx(1.0)
    for summary in summaries.values():
        assert summary.normalized_score == pytest.approx(
            summary.objective_value / static.objective_value
        )


# ----------------------------------------------------------------------
# Satellite: bounded, LRU worker caches
# ----------------------------------------------------------------------
def test_worker_caches_are_bounded():
    state = _WorkerState()
    for i in range(_SCENARIO_CACHE_CAPACITY * 2 + 3):
        state._cache_put(
            state._scenarios, ("key", i), object(), _SCENARIO_CACHE_CAPACITY
        )
        state._cache_put(
            state._realisations, ("key", i), object(), _SCENARIO_CACHE_CAPACITY
        )
        state._cache_put(
            state._grids, ("grid", i), object(), _GRID_CACHE_CAPACITY
        )
    assert len(state._scenarios) <= _SCENARIO_CACHE_CAPACITY
    assert len(state._realisations) <= _SCENARIO_CACHE_CAPACITY
    assert len(state._grids) <= _GRID_CACHE_CAPACITY


def test_grid_cache_eviction_is_lru_not_fifo():
    state = _WorkerState()
    for i in range(_GRID_CACHE_CAPACITY):
        state._cache_put(state._grids, i, f"grid{i}", _GRID_CACHE_CAPACITY)
    # Touch the oldest entry: a hit must refresh recency...
    assert state._cache_get(state._grids, 0) == "grid0"
    state._cache_put(state._grids, "new", "gridN", _GRID_CACHE_CAPACITY)
    # ...so the eviction victim is entry 1, not the refreshed entry 0.
    assert state._cache_get(state._grids, 0) == "grid0"
    assert state._cache_get(state._grids, 1) is None


# ----------------------------------------------------------------------
# Satellite: shared-buffer grids are read-only
# ----------------------------------------------------------------------
def _realized_grid(scenario):
    goal = Goal(
        objective=ObjectiveKind.MINIMIZE_ENERGY,
        deadline_s=scenario.anchor_latency_s(),
        accuracy_min=0.9,
    )
    return goal, timing_grid(scenario, 6)


def test_adopted_grid_arrays_are_read_only(memory_scenario):
    _goal, grid = _realized_grid(memory_scenario)
    meta, arrays = shared_grid_payload(grid)
    buffer = bytearray(meta["nbytes"])
    write_shared_grid(meta, arrays, buffer)
    adopted = adopt_shared_grid(grid.configs, meta, buffer)
    for name in SHARED_GRID_ARRAYS:
        array = getattr(adopted, name)
        assert not array.flags.writeable, name
        with pytest.raises(ValueError):
            array[(0,) * array.ndim] = 0
    # Parity: the adopted grid is the realised grid, bit for bit.
    for name in SHARED_GRID_ARRAYS:
        np.testing.assert_array_equal(
            getattr(adopted, name), getattr(grid, name)
        )
    assert adopted.configs == grid.configs


def test_store_round_trip_is_read_only_and_exact(memory_scenario):
    _goal, grid = _realized_grid(memory_scenario)
    key = ScenarioKey.for_scenario(memory_scenario)
    space = memory_scenario.space()
    store_key = (key, 6, structural_space_fingerprint(space))
    with SharedGridStore() as store:
        client = store.client()
        published = client.get_or_realize(store_key, tuple(space), lambda: grid)
        attached = client.get_or_realize(
            store_key,
            tuple(space),
            lambda: pytest.fail("second lookup must attach, not realise"),
        )
        for adopted in (published, attached):
            for name in SHARED_GRID_ARRAYS:
                array = getattr(adopted, name)
                assert not array.flags.writeable, name
                np.testing.assert_array_equal(array, getattr(grid, name))
            with pytest.raises(ValueError):
                adopted.full_latency_s[0, 0] = 0.0
        assert store.stats() == {
            "grids": 1,
            "nbytes": store.stats()["nbytes"],
            "failed": 0,
            "pending": 0,
            "pooled": 0,
        }


def test_layout_matches_payload_of_realized_grid(memory_scenario):
    # shared_grid_layout sizes the segment *before* the grid exists; it
    # must agree exactly with what shared_grid_payload derives from the
    # realised grid, or zero-copy realisation would write fields at
    # offsets the attachers don't read from.
    _goal, grid = _realized_grid(memory_scenario)
    meta, _arrays = shared_grid_payload(grid)
    fields, nbytes = shared_grid_layout(grid.n_configs, grid.n_inputs)
    assert fields == meta["fields"]
    assert nbytes == meta["nbytes"]


def test_zero_copy_publish_is_bit_identical(memory_scenario):
    _goal, plain = _realized_grid(memory_scenario)
    key = ScenarioKey.for_scenario(memory_scenario)
    space = memory_scenario.space()
    store_key = (key, 6, structural_space_fingerprint(space))
    seen_allocators = []

    def realize(allocator=None):
        seen_allocators.append(allocator)
        return timing_grid(
            memory_scenario, 6, space=space, allocator=allocator
        )

    with SharedGridStore() as store:
        client = store.client()
        published = client.get_or_realize(
            store_key, tuple(space), realize, n_inputs=6
        )
        # The winner realised straight into the segment (no copy pass).
        assert seen_allocators == [seen_allocators[0]]
        assert seen_allocators[0] is not None
        for name in SHARED_GRID_ARRAYS:
            array = getattr(published, name)
            assert not array.flags.writeable, name
            np.testing.assert_array_equal(array, getattr(plain, name))
        assert store.stats()["grids"] == 1
        assert store.stats()["failed"] == 0


def test_preallocated_segments_are_claimed_and_reclaimed(memory_scenario):
    _goal, plain = _realized_grid(memory_scenario)
    key = ScenarioKey.for_scenario(memory_scenario)
    space = memory_scenario.space()
    store_key = (key, 6, structural_space_fingerprint(space))
    _fields, nbytes = shared_grid_layout(len(space), 6)
    store = SharedGridStore()
    try:
        store.preallocate(nbytes, 2)
        assert store.stats()["pooled"] == 2

        def realize(allocator=None):
            return timing_grid(
                memory_scenario, 6, space=space, allocator=allocator
            )

        published = store.client().get_or_realize(
            store_key, tuple(space), realize, n_inputs=6
        )
        # The publish consumed a pooled segment rather than creating one.
        assert store.stats()["pooled"] == 1
        assert store.stats()["grids"] == 1
        for name in SHARED_GRID_ARRAYS:
            np.testing.assert_array_equal(
                getattr(published, name), getattr(plain, name)
            )
        pool_names = list(store._pool_names)
    finally:
        store.close()
    # Close retires both the claimed and the never-claimed segments.
    from multiprocessing import shared_memory

    for name in pool_names:
        with pytest.raises(FileNotFoundError):
            shared_memory.SharedMemory(name=name)


def test_zero_copy_publish_degrades_when_realize_rejects_allocator():
    # A realize callable that predates the allocator keyword must still
    # produce a correct grid: the claim turns *failed* and the caller
    # gets the locally realised result.
    sentinel = object()
    with SharedGridStore() as store:
        client = store.client()
        got = client.get_or_realize(
            ("legacy",), (), lambda: sentinel, n_inputs=6
        )
        assert got is sentinel
        assert store.stats()["failed"] == 1
        assert store.stats()["grids"] == 0


def test_worker_state_serves_default_space_from_store(memory_scenario):
    key = ScenarioKey.for_scenario(memory_scenario)
    with SharedGridStore() as store:
        publisher = _WorkerState(grid_store=store.client())
        first = publisher.grid(key, 6)
        assert store.stats()["grids"] == 1
        # A different worker (fresh caches) attaches instead of realising.
        attacher = _WorkerState(grid_store=store.client())
        second = attacher.grid(key, 6)
        assert not second.full_latency_s.flags.writeable
        np.testing.assert_array_equal(
            first.full_latency_s, second.full_latency_s
        )
        assert store.stats()["grids"] == 1


# ----------------------------------------------------------------------
# CLI
# ----------------------------------------------------------------------
def test_cli_sweep_parser_flags():
    args = build_parser().parse_args(
        [
            "sweep",
            "--platforms",
            "CPU1",
            "GPU",
            "--workers",
            "2",
            "--checkpoint",
            "out.jsonl",
            "--cell-limit",
            "5",
        ]
    )
    assert args.platforms == ["CPU1", "GPU"]
    assert args.workers == 2
    assert args.checkpoint == "out.jsonl"
    assert args.cell_limit == 5
    assert args.resume is True


@pytest.mark.parametrize(
    "selection",
    [["--platforms", "CPU9"], ["--platforms", "GPU", "--tasks", "sentence"]],
    ids=["unknown-platform", "gpu-sentence"],
)
def test_cli_sweep_rejects_unknown_platform(selection, capsys):
    """Regression: ``repro sweep --platforms CPU9``, and a GPU-only
    sentence sweep, printed an empty "complete" sweep and exited 0."""
    with pytest.raises(ConfigurationError):
        main(["sweep", *selection, "--inputs", "5"])
    assert "complete" not in capsys.readouterr().out


def test_cli_sweep_smoke_writes_checkpoint(tmp_path, capsys):
    checkpoint = tmp_path / "smoke.jsonl"
    assert (
        main(["sweep", "--smoke", "--checkpoint", str(checkpoint)]) == 0
    )
    assert checkpoint.exists()
    lines = checkpoint.read_text().strip().splitlines()
    assert lines
    for line in lines:
        payload = json.loads(line)
        assert payload["summaries"]
    out = capsys.readouterr().out
    assert "cells" in out
