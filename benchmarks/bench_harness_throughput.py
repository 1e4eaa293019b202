"""Harness throughput: serving, fleet front-end, sweep.

Three layers of the spec → executor → loop stack are measured on the
Table 4 image scenario (CPU1, default environment):

* **Serving loop** — for each feedback-free scheme (Oracle and
  OracleStatic reading a precomputed grid through an untrusted
  ``GridView``, App-only), one run served by the sequential per-input
  round trip (``ServingLoop.run_sequential``) versus the batch fast
  path ``ServingLoop.run`` takes for it, in inputs/second.
* **Serving front-end** — the open-loop fleet (:mod:`repro.serve`)
  against the sequential harness: a one-replica fleet serves the same
  outcomes through the virtual-time event loop, so the ratio isolates
  the front-end's per-request overhead; multi-replica per-policy rates
  ride along as absolute context.
* **Sweep engine** — a compiled sweep plan (PR 8) executed with the
  :class:`repro.runtime.grid_store.SharedGridStore` versus plain
  per-process grid caches, at one worker and at two dedicated worker
  processes splitting the plan evenly, in cells/second; plus the
  driver's peak RSS per cell at two plan sizes ≥4× apart, pinning the
  streaming-aggregation claim that driver memory is O(cells) in
  compact summaries, not O(inputs) in retained runs.  Cells are
  bit-identical either way (``tests/test_sweep_parity.py``), so the
  store ratio is purely a wall-clock measurement.

Every section records the measuring box's ``cpu_count``: ratio
metrics transfer across machines, but the sweep's two-worker store
ratio does not, so the CI gate compares it only when the committed
artifact was written on a box with enough cores.

Results land in ``BENCH_harness.json`` at the repository root so the
harness-path performance trajectory is tracked from PR to PR.  Run
directly (no pytest machinery needed)::

    PYTHONPATH=src python benchmarks/bench_harness_throughput.py
    PYTHONPATH=src python benchmarks/bench_harness_throughput.py --smoke

``--smoke`` runs a seconds-scale miniature of every measurement and
writes nothing — CI invokes it so the script cannot rot.  The CI
bench-regression gate additionally calls :func:`quick_metrics` and
compares the machine-relative speedup ratios against the committed
baseline (see ``benchmarks/README.md``).

The file is named ``bench_*`` on purpose: the tier-1 pytest run only
collects ``test_*`` files, so this never slows the test gate.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import multiprocessing
import os
import subprocess
import sys
import time
from pathlib import Path

from repro.baselines import make_alert
from repro.core.goals import Goal, ObjectiveKind
from repro.experiments.harness import make_scheme
from repro.models.inference import GridView, shared_grid_layout
from repro.runtime.executor import _WorkerState, timing_grid
from repro.runtime.grid_store import SharedGridStore
from repro.runtime.loop import ServingLoop
from repro.runtime.sweep import SweepSpec, compile_sweep, summarize_cell
from repro.serve import FleetConfig, build_fleet
from repro.serve.policies import POLICY_KINDS
from repro.workloads.scenarios import build_scenario

REPO_ROOT = Path(__file__).resolve().parent.parent
OUTPUT = REPO_ROOT / "BENCH_harness.json"

FEEDBACK_FREE_SCHEMES = ("Oracle", "OracleStatic", "App-only")


def _repeat(fn, min_seconds: float) -> tuple[int, float]:
    """(repetitions, elapsed seconds) of ``fn`` over at least a window."""
    fn()  # warm-up outside the clock
    count = 0
    start = time.perf_counter()
    while time.perf_counter() - start < min_seconds:
        fn()
        count += 1
    return count, time.perf_counter() - start


def _best_rate(fn, units: int, min_seconds: float, windows: int = 3) -> float:
    """Best units/second over several windows (robust to noise spikes)."""
    best = 0.0
    for _ in range(windows):
        reps, elapsed = _repeat(fn, min_seconds)
        best = max(best, reps * units / elapsed)
    return best


def _scenario(seed: int = 20200501):
    return build_scenario("CPU1", "image", "default", "standard", seed=seed)


def bench_serving(n_inputs: int, min_seconds: float) -> dict:
    """Sequential loop vs. batch fast path, per feedback-free scheme."""
    scenario = _scenario()
    goal = Goal(
        objective=ObjectiveKind.MINIMIZE_ENERGY,
        deadline_s=scenario.anchor_latency_s(),
        accuracy_min=0.9,
    )
    # The harness always shares the scenario's outcome grid with the
    # oracles; serve them the same way here, through an untrusted view
    # (each decision is guarded against the run's own draws).  The loop
    # gets no view, so both paths realise the run's outcomes afresh.
    view = GridView(timing_grid(scenario, n_inputs))
    schemes: dict = {}
    for name in FEEDBACK_FREE_SCHEMES:
        engine = scenario.make_engine()
        stream = scenario.make_stream()
        scheduler = make_scheme(
            name, scenario, engine, stream, goal, n_inputs, grid_view=view
        )
        loop = ServingLoop(engine, stream, scheduler, goal)
        # ``run`` falls back to the sequential path for an ineligible
        # loop, which would make the ratio compare a path with itself.
        if not loop.batch_eligible(stream.items(n_inputs)):
            raise RuntimeError(f"{name} cannot take the batch path")

        sequential_ips = _best_rate(
            lambda: loop.run_sequential(n_inputs), n_inputs, min_seconds
        )
        batch_ips = _best_rate(lambda: loop.run(n_inputs), n_inputs, min_seconds)
        schemes[name] = {
            "sequential_inputs_per_sec": round(sequential_ips, 1),
            "batch_inputs_per_sec": round(batch_ips, 1),
            "speedup": round(batch_ips / sequential_ips, 2),
        }
    return {
        "n_inputs": n_inputs,
        "cpu_count": os.cpu_count(),
        "schemes": schemes,
        "min_speedup": min(entry["speedup"] for entry in schemes.values()),
    }


def bench_serving_frontend(
    n_requests: int, min_seconds: float, fleet_replicas: int = 4
) -> dict:
    """Event-loop fleet vs. the sequential closed-loop harness.

    The gated ratios are the apples-to-apples ones: a *one-replica*
    fleet performs exactly the harness's engine/controller work per
    request (the parity test pins the outcomes bit-identical), so
    ``relative_throughput`` isolates the virtual-time event-loop
    overhead of the front-end — arrival events, admission, dispatch,
    completion callbacks.  ``batching.speedup`` compares the same
    overloaded one-replica fleet at ``batch_size`` 8 vs 1: a deep
    queue lets one kernel decide carry a whole batch, so the ratio
    measures the decision cost batching amortises away.  The
    multi-replica per-policy rates are informational (absolute,
    machine-dependent).
    """
    scenario = _scenario()
    profile = scenario.profile()
    anchor = scenario.anchor_latency_s()
    goal = Goal(
        objective=ObjectiveKind.MINIMIZE_ENERGY,
        deadline_s=1.25 * anchor,
        accuracy_min=0.9,
    )

    def harness_once():
        ServingLoop(
            scenario.make_engine(), scenario.make_stream(),
            make_alert(profile), goal,
        ).run_sequential(n_requests)

    def fleet_once(
        n_replicas: int,
        policy: str,
        rate_hz: float | None = None,
        batch_size: int = 1,
    ):
        # Through the one construction path (FleetConfig names the
        # bench scenario's seed, so the lanes are the harness's twins).
        build_fleet(
            FleetConfig(
                platform="CPU1", task="image", env="default",
                seed=20200501, deadline_factor=1.25, accuracy_min=0.9,
                replicas=n_replicas, policy=policy,
                arrivals="poisson", rate_hz=rate_hz, arrival_seed=7,
                queue_capacity=None, batch_size=batch_size,
            )
        ).run_requests(n_requests)

    harness_rps = _best_rate(harness_once, n_requests, min_seconds)
    single_rps = _best_rate(
        lambda: fleet_once(1, "round-robin"), n_requests, min_seconds
    )
    policies = {
        policy: round(
            _best_rate(
                lambda: fleet_once(fleet_replicas, policy),
                n_requests,
                min_seconds,
            ),
            1,
        )
        for policy in POLICY_KINDS
    }
    # Batching only amortises when the queue is deep: overload one
    # replica fourfold so dispatches drain whole batches.
    burst_hz = 4.0 / anchor
    unbatched_rps = _best_rate(
        lambda: fleet_once(1, "round-robin", rate_hz=burst_hz),
        n_requests,
        min_seconds,
    )
    batched_rps = _best_rate(
        lambda: fleet_once(1, "round-robin", rate_hz=burst_hz, batch_size=8),
        n_requests,
        min_seconds,
    )
    return {
        "n_requests": n_requests,
        "fleet_replicas": fleet_replicas,
        "cpu_count": os.cpu_count(),
        "harness_requests_per_sec": round(harness_rps, 1),
        "single_replica_requests_per_sec": round(single_rps, 1),
        "relative_throughput": round(single_rps / harness_rps, 2),
        "fleet_requests_per_sec": policies,
        "batching": {
            "batch_size": 8,
            "unbatched_requests_per_sec": round(unbatched_rps, 1),
            "batched_requests_per_sec": round(batched_rps, 1),
            "speedup": round(batched_rps / unbatched_rps, 2),
        },
        "note": (
            "relative_throughput = one-replica fleet rps / sequential "
            "ServingLoop rps on the same scenario and controller: both "
            "serve identical outcomes (tests/test_traces_arrivals.py), "
            "so the ratio is pure front-end overhead and transfers "
            "across machines.  batching.speedup = the same overloaded "
            "one-replica fleet at batch_size 8 vs 1 (one kernel decide "
            "per drained batch) — a ratio of two virtual-time runs, so "
            "it transfers too.  fleet_requests_per_sec is the "
            f"{fleet_replicas}-replica virtual-time rate per policy, "
            "absolute and machine-dependent."
        ),
    }


def _sweep_spec(n_inputs: int, stride: int) -> SweepSpec:
    """The measured sweep: one grid-heavy Table-4 cell family.

    GPU/image with ``OracleStatic`` only and both objective families
    keeps the plan's serve work light relative to grid realisation —
    the duplicated work the store removes — so the store's effect is
    visible above scheduling noise even on small boxes.
    """
    return SweepSpec(
        platforms=("GPU",),
        tasks=("image",),
        envs=("memory",),
        schemes=("OracleStatic",),
        objectives=("min_energy", "min_error"),
        settings_stride=stride,
        n_inputs=n_inputs,
    )


def _sweep_worker(units, client, queue, barrier) -> None:
    """One dedicated bench worker: warm up, sync on the barrier, sweep.

    The warm-up executes the first unit at a throwaway input count —
    a *different* grid key, so no plan grid is pre-realised — which
    pays the per-process constants (scenario build, candidate space,
    numpy dispatch, and for store arms the registry handshake) outside
    the clock.  Both arms warm identically, so the measured window
    contains only the work the store can actually change: plan-grid
    realisation, publish/attach, and serving.
    """
    state = _WorkerState(grid_store=client)
    warm = dataclasses.replace(units[0], n_inputs=16)
    summarize_cell(warm.schemes, state.execute(warm.cell_spec()))
    barrier.wait()
    for unit in units:
        summarize_cell(unit.schemes, state.execute(unit.cell_spec()))
    queue.put(len(units))


def _sweep_splits(units, workers: int):
    """The plan split each arm's dedicated worker processes execute.

    Two workers get an even/odd interleave — each half holds one cell
    of every timing — and the second half is *reversed*: without a
    store both processes realise every grid privately, with a store
    each grid is realised once fleet-wide and the publishes of one
    worker's front half overlap the other's attaches.  A dedicated
    fixed split — rather than a work-stealing pool — keeps the
    duplicated-realisation workload identical on every box, including
    single-core runners where a pool would let one worker drain the
    whole queue and hide the duplication being measured.
    """
    if workers == 1:
        return (list(units),)
    return (units[0::2], list(reversed(units[1::2])))


def _sweep_arm(splits, client) -> float:
    """Wall-clock of dedicated fresh processes executing the splits.

    Every arm — the one-worker arms included — runs in freshly forked
    children: executing units in the bench process itself would warm
    module-level state that later forked workers inherit, silently
    deflating the duplicated realisation cost the store arms exist to
    remove.  The clock runs from barrier release to the *last worker's
    completion message*: interpreter teardown (segment unmapping,
    tracker unregistration) stays outside, since a real sweep pool
    amortises worker lifetime over the whole plan, not per slice.
    """
    ctx = multiprocessing.get_context("fork")
    queue = ctx.SimpleQueue()
    barrier = ctx.Barrier(len(splits) + 1)
    procs = [
        ctx.Process(target=_sweep_worker, args=(split, client, queue, barrier))
        for split in splits
    ]
    for proc in procs:
        proc.start()
    barrier.wait()  # every worker is warmed; the clock sees only sweep work
    start = time.perf_counter()
    done = 0
    for _ in procs:
        done += queue.get()  # blocks until one worker finishes its split
    elapsed = time.perf_counter() - start
    for proc in procs:
        proc.join()
    total = sum(len(split) for split in splits)
    if done != total or any(proc.exitcode != 0 for proc in procs):
        raise RuntimeError("sweep bench worker failed")
    return elapsed


def _sweep_driver_rss(n_inputs: int, strides) -> dict:
    """Driver peak RSS per cell at two plan sizes (streaming claim).

    Each measurement runs ``run_sweep`` (which keeps only summaries)
    in a fresh subprocess and reads the child's own
    ``ru_maxrss``, so the parent's allocations cannot leak into the
    number.  The plan grows by shrinking the settings stride; flat
    ``kb_per_cell`` growth across a ≥4× cell-count jump is the
    streaming-aggregation property the sweep tests cannot see.
    """
    env = dict(os.environ)
    src = str(REPO_ROOT / "src")
    existing = env.get("PYTHONPATH", "")
    env["PYTHONPATH"] = src + (os.pathsep + existing if existing else "")
    points = []
    for stride in strides:
        code = (
            "import resource\n"
            "from repro.runtime.sweep import SweepSpec, run_sweep\n"
            "spec = SweepSpec(platforms=('CPU1',), tasks=('image',),"
            " envs=('memory',), schemes=('OracleStatic',),"
            " objectives=('min_energy', 'min_error'),"
            f" settings_stride={stride}, n_inputs={n_inputs})\n"
            "result = run_sweep(spec, workers=1)\n"
            "assert result.complete\n"
            "rss = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss\n"
            "print(len(result.cells), rss)\n"
        )
        proc = subprocess.run(
            [sys.executable, "-c", code],
            capture_output=True, text=True, check=True, env=env,
        )
        cells, rss_kb = (int(v) for v in proc.stdout.split()[-2:])
        points.append(
            {
                "settings_stride": stride,
                "cells": cells,
                "peak_rss_kb": rss_kb,
                "kb_per_cell": round(rss_kb / cells, 1),
            }
        )
    small, large = points[0], points[-1]
    return {
        "n_inputs": n_inputs,
        "small": small,
        "large": large,
        "cells_growth": round(large["cells"] / small["cells"], 2),
        "rss_growth": round(
            large["peak_rss_kb"] / small["peak_rss_kb"], 2
        ),
        "note": (
            "each point is a fresh subprocess running run_sweep with "
            "summaries only; rss_growth far below cells_growth means "
            "driver memory is dominated by the interpreter + one "
            "working set, with O(cells) compact summaries on top — "
            "not O(inputs) retained runs"
        ),
    }


def bench_sweep(
    n_inputs: int,
    stride: int = 5,
    repeats: int = 3,
    rss_inputs: int | None = 60,
    rss_strides=(5, 1),
) -> dict:
    """Shared grid store vs. per-process caches, 1 and 2 workers."""
    spec = _sweep_spec(n_inputs, stride)
    units = compile_sweep(spec)
    # Segment-pool sizing for the store arms: byte size is a static
    # function of the plan's dimensions (shared_grid_layout), count is
    # the plan's distinct scenarios.  Preallocation happens per store,
    # outside the measured window — it is the sweep-startup cost a
    # resumable driver pays once, not steady-state cell work.
    n_configs = len(_WorkerState().space(units[0].scenario))
    _fields, grid_nbytes = shared_grid_layout(n_configs, n_inputs)
    n_grids = len({u.scenario for u in units})
    _sweep_arm(_sweep_splits(units, 1), None)  # warm-up (OS/page caches)
    timings = {
        (workers, shared): float("inf")
        for workers in (1, 2)
        for shared in (False, True)
    }
    store_stats = None
    # Interleave the arms inside each repeat so clock/load drift hits
    # every arm alike.  Every measurement forks fresh worker processes
    # — and, for the store arms, builds a fresh store — because
    # duplicated realisation across fresh caches is exactly the effect
    # under measurement.
    for _ in range(repeats):
        for shared in (False, True):
            for workers in (1, 2):
                store = SharedGridStore() if shared else None
                try:
                    if store is not None:
                        store.preallocate(grid_nbytes, n_grids)
                    client = store.client() if store is not None else None
                    timings[(workers, shared)] = min(
                        timings[(workers, shared)],
                        _sweep_arm(_sweep_splits(units, workers), client),
                    )
                    if shared and workers == 2:
                        store_stats = store.stats()
                finally:
                    if store is not None:
                        store.close()
    worker_sections = {}
    for workers in (1, 2):
        cache_s = timings[(workers, False)]
        store_s = timings[(workers, True)]
        worker_sections[str(workers)] = {
            "cache_seconds": round(cache_s, 4),
            "store_seconds": round(store_s, 4),
            "cache_cells_per_sec": round(len(units) / cache_s, 2),
            "store_cells_per_sec": round(len(units) / store_s, 2),
            "store_speedup": round(cache_s / store_s, 2),
        }
    return {
        "plan_cells": len(units),
        "n_inputs": n_inputs,
        "settings_stride": stride,
        "schemes": list(spec.schemes),
        "cpu_count": os.cpu_count(),
        "workers": worker_sections,
        "store_stats": store_stats,
        "driver_rss": (
            _sweep_driver_rss(rss_inputs, rss_strides)
            if rss_inputs is not None
            else None
        ),
        "note": (
            "store_speedup compares the same balanced two-process plan "
            "split (each half holds one cell of every timing, second "
            "half reversed) with a SharedGridStore — first process to "
            "need a grid realises and publishes, the other attaches "
            "zero-copy — against per-process caches where both "
            "processes realise every grid privately.  Cells are "
            "bit-identical either way (tests/test_sweep_parity.py).  "
            "The win needs ≥2 workers: a single worker's cache already "
            "realises each grid exactly once, so workers.1 records the "
            "store's pure publish overhead, not a win."
        ),
    }


def run(n_inputs: int = 240, min_seconds: float = 1.0) -> dict:
    return {
        "benchmark": "harness_throughput",
        "platform": "CPU1",
        "task": "image",
        "serving": bench_serving(n_inputs, min_seconds),
        "serving_frontend": bench_serving_frontend(
            n_requests=n_inputs, min_seconds=min_seconds
        ),
        "sweep": bench_sweep(n_inputs=1920, repeats=5),
    }


def quick_metrics(min_seconds: float = 0.1) -> dict:
    """A fast, reduced measurement with the committed JSON's shape.

    The CI bench-regression gate compares the *ratio* metrics of this
    against the committed ``BENCH_harness.json`` — ratios (batch vs
    sequential, fleet vs harness) are machine-relative, so they
    transfer across runner hardware where absolute throughput does
    not.
    """
    return {
        "serving": bench_serving(n_inputs=120, min_seconds=min_seconds),
        # The fleet front-end's event-loop overhead ratio (one-replica
        # fleet vs. the sequential harness serving identical outcomes).
        "serving_frontend": bench_serving_frontend(
            n_requests=120, min_seconds=min_seconds
        ),
        # The store ratio needs the committed plan size: the effect is
        # duplicated grid *realisation*, whose share of the cell cost
        # grows with n_inputs, so a smaller quick plan would measure a
        # structurally different (smaller) ratio than the artifact's.
        # It is only compared on a box with enough cores for its two
        # workers (see check_bench_regression.py).  The RSS subprocess
        # points are skipped — they carry no gated ratio.
        "sweep": bench_sweep(n_inputs=1920, repeats=3, rss_inputs=None),
    }


def smoke() -> None:
    """Seconds-scale end-to-end exercise of every bench path (for CI)."""
    serving = bench_serving(n_inputs=20, min_seconds=0.05)
    assert set(serving["schemes"]) == set(FEEDBACK_FREE_SCHEMES)
    frontend = bench_serving_frontend(n_requests=15, min_seconds=0.05)
    assert frontend["relative_throughput"] > 0
    assert set(frontend["fleet_requests_per_sec"]) == set(POLICY_KINDS)
    assert frontend["batching"]["speedup"] > 0
    sweep = bench_sweep(
        n_inputs=40, stride=9, repeats=1, rss_inputs=10, rss_strides=(9, 3)
    )
    assert sweep["plan_cells"] == 8
    assert set(sweep["workers"]) == {"1", "2"}
    assert sweep["workers"]["2"]["store_speedup"] > 0
    assert sweep["store_stats"]["grids"] > 0
    assert sweep["store_stats"]["failed"] == 0
    assert sweep["driver_rss"]["large"]["cells"] > sweep["driver_rss"][
        "small"
    ]["cells"]
    print("bench_harness_throughput smoke ok")


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument(
        "--smoke",
        action="store_true",
        help="tiny run exercising every path; writes no JSON",
    )
    args = parser.parse_args()
    if args.smoke:
        smoke()
        return
    result = run()
    OUTPUT.write_text(json.dumps(result, indent=2) + "\n")
    print(json.dumps(result, indent=2))
    if result["serving"]["min_speedup"] < 5.0:
        print("WARNING: batch serving path below the 5x target")
    if result["serving_frontend"]["relative_throughput"] < 0.5:
        print("WARNING: fleet front-end overhead above 2x the harness")
    if result["sweep"]["workers"]["2"]["store_speedup"] < 1.5:
        print("WARNING: shared grid store below the 1.5x two-worker target")
    if result["sweep"]["driver_rss"]["rss_growth"] > 1.5:
        print("WARNING: driver peak RSS not flat across the cell-count jump")


if __name__ == "__main__":
    main()
