"""Layer spans timed from outside the program.

The benchmark edits nothing under ``src/``.  :meth:`Tracer.install`
replaces each public function named in :data:`LAYERS` with a timing
wrapper, in the benchmark's own process only: a class method is
replaced on its class (and on every subclass that overrides it), and a
module-level function is replaced in every ``repro`` module that binds
it, so ``from x import f`` aliases are caught too.

Each call records one span: the function, the span open when it
started (its parent), start and end times, and for a few functions a
size (goal-states decided, grid bytes, events run) read from the
arguments or the return value.  Spans stay in memory and are written
out once the run ends.  A layer's self time is its spans' durations
minus the time of their child spans.

Forked pool workers inherit the wrappers.  A worker drops the spans it
inherited on its first traced call and writes its own to
``spans-<pid>.json`` when it exits (``multiprocessing`` runs
``Finalize`` callbacks at worker exit, not ``atexit`` ones); the
driver merges the files.  Under another start method the workers run
untraced, and :func:`layer_metrics` reports their layers as
``not_measurable``.
"""

from __future__ import annotations

import functools
import importlib
import json
import multiprocessing
import multiprocessing.util
import os
import pkgutil
import sys
import time
from pathlib import Path

import numpy as np

#: Layer -> the public calls timed as that layer, ``module:qualname``.
LAYERS: dict[str, tuple[str, ...]] = {
    "workloads": (
        "repro.workloads.scenarios:build_scenario",
        "repro.workloads.scenarios:constraint_grid",
        "repro.workloads.traces:make_arrivals",
    ),
    "models.grid": ("repro.models.inference:InferenceEngine.evaluate_batch",),
    "models.engine": ("repro.models.inference:InferenceEngine.run",),
    "core.estimate": (
        "repro.core.batch_estimator:BatchAlertEstimator.estimate_batch",
        "repro.core.batch_estimator:BatchAlertEstimator.stacked_fields",
    ),
    "core.select": (
        "repro.core.selector:ConfigSelector.select",
        "repro.core.selector:ConfigSelector.select_many",
    ),
    "core.decide": (
        "repro.core.kernel:AlertKernel.decide",
        "repro.core.kernel:AlertCellKernel.decide_many",
    ),
    "core.filter": (
        "repro.core.slowdown:GlobalSlowdownEstimator.observe",
        "repro.core.slowdown:StackedSlowdownEstimator.observe",
        "repro.core.kalman:IdlePowerFilter.update",
        "repro.core.kalman:StackedIdlePowerFilter.update_where",
    ),
    "baselines.oracle": (
        "repro.baselines.oracle:OracleScheduler.decide_batch",
        "repro.baselines.oracle:best_static_config",
    ),
    "runtime.loop": (
        "repro.runtime.loop:ServingLoop.run",
        "repro.runtime.loop:CrossSchemeLockstepLoop.run",
    ),
    "runtime.executor": (
        "repro.runtime.executor:RunExecutor.run_plan",
        "repro.runtime.executor:run_single",
        "repro.runtime.executor:timing_grid",
    ),
    "runtime.grid_store": (
        "repro.runtime.grid_store:GridStoreClient.get_or_realize",
    ),
    "runtime.sweep": (
        "repro.runtime.sweep:run_sweep",
        "repro.runtime.sweep:compile_sweep",
        "repro.runtime.sweep:summarize_cell",
        "repro.runtime.sweep:load_checkpoint",
    ),
    "analysis": ("repro.analysis.stats:summarize_runs",),
    "serve.frontend": ("repro.runtime.clock:VirtualClock.run",),
    "serve.policy": (
        "repro.serve.policies:RoundRobinPolicy.select",
        "repro.serve.policies:LeastLoadedPolicy.select",
        "repro.serve.policies:CostAwarePolicy.select",
    ),
    "serve.replica": ("repro.serve.replica:Replica.submit",),
    "serve.autoscaler": ("repro.serve.autoscaler:Autoscaler.maybe_evaluate",),
    "serve.budget": (
        "repro.serve.budget:PowerBudget.partition",
        "repro.serve.budget:PowerBudget.needs_repartition",
    ),
}

TARGETS: tuple[str, ...] = tuple(t for ts in LAYERS.values() for t in ts)
LAYER_OF: tuple[str, ...] = tuple(
    layer for layer, ts in LAYERS.items() for _ in ts
)

DECIDE = LAYERS["core.decide"]
SELECT = LAYERS["core.select"]
ESTIMATE = LAYERS["core.estimate"]
ENGINE_RUN = "repro.models.inference:InferenceEngine.run"
GRID_FILL = "repro.models.inference:InferenceEngine.evaluate_batch"
TIMING_GRID = "repro.runtime.executor:timing_grid"
STORE_GET = "repro.runtime.grid_store:GridStoreClient.get_or_realize"
CLOCK_RUN = "repro.runtime.clock:VirtualClock.run"


def _grid_bytes(grid) -> int:
    return sum(
        value.nbytes for value in vars(grid).values()
        if isinstance(value, np.ndarray)
    )


def _one(args, result):
    return 1, 0.0


def _goal_states(args, result):
    return len(args[1]), 0.0


#: Per-target ``measure(args, result) -> (size, budget_s)``; the
#: decide entries also carry the kernel's reserved overhead.
MEASURES = {
    DECIDE[0]: lambda args, result: (1, args[0].overhead_s),
    DECIDE[1]: lambda args, result: (len(args[1]), args[0].overhead_s),
    SELECT[0]: _one,
    SELECT[1]: _goal_states,
    ESTIMATE[0]: _one,
    ESTIMATE[1]: _goal_states,
    GRID_FILL: lambda args, result: (_grid_bytes(result), 0.0),
    TIMING_GRID: lambda args, result: (_grid_bytes(result), 0.0),
    CLOCK_RUN: lambda args, result: (int(result), 0.0),
}


def _import_all_repro_modules() -> None:
    """Import every ``repro`` module so every alias can be replaced."""
    package = importlib.import_module("repro")
    for info in pkgutil.walk_packages(package.__path__, "repro."):
        if info.name.endswith("__main__"):
            continue
        importlib.import_module(info.name)


class Tracer:
    """In-memory span recorder behind the installed wrappers.

    A span is ``[target, parent, start, end, size, budget_s]``, with
    ``target`` an index into :data:`TARGETS` and ``parent`` an index
    into the same process's span list (-1 at top level).
    """

    def __init__(self) -> None:
        self.spans: list[list] = []
        self._stack: list[int] = []
        self._forked = False
        self._flush_dir: Path | None = None
        self.pid = os.getpid()

    @classmethod
    def install(cls) -> "Tracer":
        tracer = cls()
        _import_all_repro_modules()
        repro_modules = [
            module for name, module in sys.modules.items()
            if (name == "repro" or name.startswith("repro.")) and module
        ]
        for index, target in enumerate(TARGETS):
            module_name, _, qualname = target.partition(":")
            module = importlib.import_module(module_name)
            if "." in qualname:
                class_name, method = qualname.split(".")
                cls._wrap_method(
                    tracer, index, getattr(module, class_name), method
                )
            else:
                original = getattr(module, qualname)
                wrapper = tracer._wrap(index, original)
                for holder in repro_modules:
                    for attr, value in list(vars(holder).items()):
                        if value is original:
                            setattr(holder, attr, wrapper)
        os.register_at_fork(after_in_child=tracer._mark_forked)
        return tracer

    @staticmethod
    def _wrap_method(tracer, index, klass, method) -> None:
        pending = [klass]
        while pending:
            current = pending.pop()
            pending.extend(current.__subclasses__())
            if method in vars(current):
                setattr(
                    current, method,
                    tracer._wrap(index, vars(current)[method]),
                )

    def _wrap(self, index: int, func):
        spans = self.spans
        stack = self._stack
        clock = time.perf_counter
        measure = MEASURES.get(TARGETS[index])
        tracer = self

        @functools.wraps(func)
        def wrapper(*args, **kwargs):
            if tracer._forked:
                tracer._enter_worker()
            span = [index, stack[-1] if stack else -1, clock(), 0.0, 0, 0.0]
            stack.append(len(spans))
            spans.append(span)
            try:
                result = func(*args, **kwargs)
            finally:
                span[3] = clock()
                stack.pop()
            if measure is not None:
                span[4], span[5] = measure(args, result)
            return result

        return wrapper

    # ------------------------------------------------------------------
    # Driver side
    # ------------------------------------------------------------------
    def begin(self, flush_dir: Path) -> None:
        """Drop earlier spans (e.g. from building inputs); start fresh."""
        self.spans.clear()
        self._stack.clear()
        self._flush_dir = flush_dir

    def snapshot(self) -> list[list]:
        """The spans recorded so far, detached from later calls."""
        return list(self.spans)

    def worker_spans(self) -> dict[int, list[list]]:
        """Spans flushed by pool workers that exited since :meth:`begin`."""
        dumps = {}
        for path in sorted(self._flush_dir.glob("spans-*.json")):
            payload = json.loads(path.read_text(encoding="utf-8"))
            dumps[payload["pid"]] = payload["spans"]
        return dumps

    # ------------------------------------------------------------------
    # Worker side
    # ------------------------------------------------------------------
    def _mark_forked(self) -> None:
        self._forked = True

    def _enter_worker(self) -> None:
        # Runs on the first traced call after fork, i.e. after the
        # worker's bootstrap cleared the finalizer registry.
        self._forked = False
        self.pid = os.getpid()
        self.spans.clear()
        self._stack.clear()
        multiprocessing.util.Finalize(None, self._flush, exitpriority=100)

    def _flush(self) -> None:
        if self._flush_dir is None:
            return
        path = self._flush_dir / f"spans-{self.pid}.json"
        path.write_text(
            json.dumps({"pid": self.pid, "spans": self.spans}),
            encoding="utf-8",
        )


def workers_traceable() -> bool:
    """Whether pool workers inherit the wrappers (fork start method)."""
    return multiprocessing.get_start_method() == "fork"


def _percentile(values: list[float], q: float) -> float:
    return float(np.percentile(np.asarray(values), q)) if values else 0.0


def layer_metrics(
    driver: list[list],
    workers: dict[int, list[list]],
    wall_s: float,
    n_workers: int,
    records: int,
) -> tuple[dict[str, float], dict[str, float | str]]:
    """Per-layer metrics of one traced call of ``wall_s`` seconds.

    ``records`` is how many per-input records the call served (the
    fallback-share denominator).  Returns ``(metrics, report_only)``:
    ``metrics`` holds a number for every layer on every workload;
    ``report_only`` holds the values that exist only on some workloads
    (pool efficiency, store attach share), as numbers or ``"n/a"``.
    """
    target_index = {target: i for i, target in enumerate(TARGETS)}
    decide_ids = {target_index[t] for t in DECIDE}
    select_ids = {target_index[t] for t in SELECT}
    engine_id = target_index[ENGINE_RUN]
    grid_id = target_index[GRID_FILL]
    timing_id = target_index[TIMING_GRID]
    store_id = target_index[STORE_GET]
    clock_id = target_index[CLOCK_RUN]
    estimate_ids = {target_index[t] for t in ESTIMATE}

    calls = dict.fromkeys(LAYERS, 0)
    self_s = dict.fromkeys(LAYERS, 0.0)
    decide_us: list[float] = []
    decide_budget_share: list[float] = []
    decided = selected = states = events = engine_runs = 0
    grid_bytes = published_bytes = 0
    store_gets = store_realised = 0
    top_level_s = 0.0
    worker_busy_s = 0.0

    for pid, spans in [(None, driver)] + list(workers.items()):
        child_s = [0.0] * len(spans)
        realised = set()
        for target, parent, start, end, size, budget in spans:
            if parent >= 0:
                child_s[parent] += end - start
                if target == timing_id:
                    realised.add(parent)
            elif pid is None:
                top_level_s += end - start
            else:
                worker_busy_s += end - start
        for i, (target, parent, start, end, size, budget) in enumerate(spans):
            layer = LAYER_OF[target]
            calls[layer] += 1
            self_s[layer] += (end - start) - child_s[i]
            if target in decide_ids:
                decided += size
                decide_us.append((end - start) * 1e6)
                if budget > 0:
                    decide_budget_share.append((end - start) / budget)
            elif target in select_ids:
                if parent >= 0 and spans[parent][0] in decide_ids:
                    selected += size
            elif target in estimate_ids:
                states += size
            elif target == engine_id:
                engine_runs += 1
            elif target == grid_id:
                grid_bytes += size
            elif target == timing_id:
                if parent >= 0 and spans[parent][0] == store_id:
                    published_bytes += size
            elif target == store_id:
                store_gets += 1
                store_realised += i in realised
            elif target == clock_id:
                events += size

    metrics: dict[str, float] = {}
    for layer in LAYERS:
        metrics[f"{layer}.calls"] = calls[layer]
        metrics[f"{layer}.self_s"] = self_s[layer]
        metrics[f"{layer}.share"] = self_s[layer] / wall_s
    metrics["models.grid.grid_mb"] = grid_bytes / 1e6
    metrics["models.engine.fallback_share"] = engine_runs / records
    metrics["core.estimate.states"] = states
    metrics["core.decide.memo_hit_rate"] = (
        1.0 - selected / decided if decided else 0.0
    )
    metrics["core.decide.p50_us"] = _percentile(decide_us, 50.0)
    metrics["core.decide.p99_us"] = _percentile(decide_us, 99.0)
    metrics["core.decide.overhead_budget_share"] = _percentile(
        decide_budget_share, 99.0
    )
    metrics["runtime.grid_store.published_mb"] = published_bytes / 1e6
    metrics["serve.frontend.events"] = events
    metrics["trace.coverage"] = top_level_s / wall_s

    report: dict[str, float | str] = {
        "runtime.grid_store.attach_share": (
            1.0 - store_realised / store_gets if store_gets else "n/a"
        ),
        "runtime.executor.pool_efficiency": (
            worker_busy_s / (n_workers * wall_s) if n_workers > 1 else "n/a"
        ),
    }
    return metrics, report


def write_trace(
    path: Path,
    header: dict,
    driver: list[list],
    workers: dict[int, list[list]],
    driver_pid: int,
) -> None:
    """One JSON line of run metadata, then one line per span."""
    path.parent.mkdir(parents=True, exist_ok=True)
    with path.open("w", encoding="utf-8") as handle:
        handle.write(json.dumps(header) + "\n")
        for pid, spans in [(driver_pid, driver)] + list(workers.items()):
            for i, (target, parent, start, end, size, _) in enumerate(spans):
                handle.write(
                    json.dumps(
                        {
                            "pid": pid,
                            "id": i,
                            "parent": parent,
                            "layer": LAYER_OF[target],
                            "fn": TARGETS[target],
                            "start": start,
                            "end": end,
                            "size": size,
                        }
                    )
                    + "\n"
                )
