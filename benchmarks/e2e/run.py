"""End-to-end benchmark of the four user-facing commands, by layer.

Run from the repository root (no ``PYTHONPATH`` needed)::

    python3 benchmarks/e2e/run.py [--workload NAME] [--seed S]
        [--repeats R] [--seconds T] [--trace [0|1]] [--trace-out DIR]
        [--smoke]

One workload (``table4``, ``sweep``, ``fleet``, ``overload``; see
``workloads.py``) runs in this process, the driver:

1. ``R`` fresh processes each time their own import of ``repro`` plus
   building the workload's inputs; ``setup_s`` is their median.
2. The driver builds the inputs and times the entry call, rebuilding
   the inputs outside the timer before each call, until it has made
   ``R`` calls and spent ``T`` seconds in them; ``wall_s`` is the
   median.  ``peak_rss_mb`` is the driver's ``ru_maxrss`` (MiB).
   Every call's outputs are checked and digested; the digests must
   agree.
3. With ``--trace 1``, one more call runs in a fresh process with the
   layer wrappers of ``tracer.py`` installed, and the per-layer
   metrics come from its spans (written to ``DIR/trace-NAME.jsonl``).

Without ``--workload`` every workload runs, each in its own driver
process.  ``--smoke`` runs them scaled down with one repeat and
tracing on.  The last stdout line is one JSON object: ``correct``,
``attempted``, ``failed`` and ``metrics`` (the end-to-end metrics, or
with ``--trace 1`` the per-layer ones).  A failed check exits 1;
a tree without ``src/repro`` exits 2 before printing a result.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
import traceback
from dataclasses import asdict
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
SRC = ROOT / "src"
WORKDIR = ROOT / ".e2e-bench"
WORKLOADS = ("table4", "sweep", "fleet", "overload")

#: Printed with the per-layer metrics but kept out of the result line:
#: defined on some workloads only.  Each layer's ``self_s`` is printed
#: too; it stays out of the result because a time that reads 0 on every
#: run (a layer the workload never crosses) is not a measurement.
REPORT_ONLY = {
    "runtime.executor.pool_efficiency": "share",
    "runtime.grid_store.attach_share": "share",
}
PROBE_TIMEOUT_S = 170


def parse_args(argv=None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--repeats", type=int, default=5)
    parser.add_argument("--seconds", type=float, default=0.0)
    parser.add_argument(
        "--trace", type=int, nargs="?", const=1, default=0, choices=(0, 1)
    )
    parser.add_argument("--trace-out", type=Path, default=WORKDIR)
    parser.add_argument("--smoke", action="store_true")
    parser.add_argument(
        "--role", choices=("driver", "setup", "traced"), default="driver",
        help=argparse.SUPPRESS,
    )
    parser.add_argument("--workdir", type=Path, help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.repeats < 1:
        parser.error("--repeats must be at least 1")
    if args.smoke:
        args.repeats = 1
        args.trace = 1
    return args


# ----------------------------------------------------------------------
# Child processes: setup probe and traced call
# ----------------------------------------------------------------------
def setup_probe(args) -> dict:
    start = time.perf_counter()
    import workloads

    workload = workloads.make(args.workload, args.smoke)
    workload.prepare(workloads.Seeds.derive(args.seed), args.workdir)
    return {"setup_s": time.perf_counter() - start}


def traced_probe(args) -> dict:
    import tracer as tracing

    tracer = tracing.Tracer.install()
    import workloads

    workload = workloads.make(args.workload, args.smoke)
    inputs = workload.prepare(workloads.Seeds.derive(args.seed), args.workdir)
    flush_dir = Path(tempfile.mkdtemp(prefix="spans-", dir=args.workdir))
    tracer.begin(flush_dir)
    gc.collect()
    start = time.perf_counter()
    result = workload.call(inputs)
    wall_s = time.perf_counter() - start
    spans = tracer.snapshot()
    outcome = workload.check(inputs, result)
    worker_spans = tracer.worker_spans()
    metrics, report = tracing.layer_metrics(
        spans, worker_spans, wall_s, workload.workers,
        max(outcome.records, 1),
    )
    metrics["serve.autoscaler.scale_events"] = outcome.scale_events
    if workload.workers > 1:
        if not tracing.workers_traceable():
            metrics = dict.fromkeys(metrics, "not_measurable")
            report = dict.fromkeys(report, "not_measurable")
        elif usable_cpus() < workload.workers:
            report["runtime.executor.pool_efficiency"] = "not_measurable"
    tracing.write_trace(
        args.trace_out / f"trace-{args.workload}.jsonl",
        {"workload": args.workload, "seed": args.seed, "wall_s": wall_s,
         "machine": machine_record()},
        spans, worker_spans, os.getpid(),
    )
    return {
        "wall_s": wall_s,
        "metrics": metrics,
        "report": report,
        "outcome": asdict(outcome),
    }


def run_probe(role: str, args) -> dict:
    """Run one ``setup`` or ``traced`` child; a failed child is an error."""
    command = [
        sys.executable, str(HERE / "run.py"), "--role", role,
        "--workload", args.workload, "--seed", str(args.seed),
        "--workdir", str(args.workdir), "--trace-out", str(args.trace_out),
    ]
    if args.smoke:
        command.append("--smoke")
    proc = subprocess.run(
        command, cwd=ROOT, stdout=subprocess.PIPE, text=True,
        timeout=PROBE_TIMEOUT_S,
    )
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise RuntimeError(f"{role} probe failed ({proc.returncode})")
    return json.loads(lines[-1])


# ----------------------------------------------------------------------
# Driver
# ----------------------------------------------------------------------
def usable_cpus() -> int:
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def benchmark_metrics() -> tuple[dict[str, str], dict[str, str]]:
    """``name -> unit`` of the end-to-end and per-layer metrics."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    return tuple(
        {metric["name"]: metric["unit"] for metric in spec[kind]}
        for kind in ("end_to_end", "per_layer")
    )


def git_sha() -> str:
    """The checkout's commit, read from ``.git`` inside the tree only."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text(encoding="utf-8").strip()
        if not head.startswith("ref: "):
            return head
        ref = head.removeprefix("ref: ")
        if (git / ref).is_file():
            return (git / ref).read_text(encoding="utf-8").strip()
        packed = (git / "packed-refs").read_text(encoding="utf-8")
    except OSError:
        return "unknown"
    for line in packed.splitlines():
        if line.endswith(" " + ref):
            return line.split()[0]
    return "unknown"


def machine_record() -> dict:
    import multiprocessing

    import numpy

    return {
        "cpu_count": os.cpu_count(),
        "cpus_usable": usable_cpus(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "start_method": multiprocessing.get_start_method(),
        "git": git_sha(),
    }


def stop_resource_tracker() -> None:
    """Stop (and reap) the shared-memory resource tracker, if started.

    ``multiprocessing`` starts it for the sweep's grid store and has no
    public way to stop it; its private ``_stop`` closes the pipe and
    waits for the process.
    """
    from multiprocessing import resource_tracker

    tracker = resource_tracker._resource_tracker
    if getattr(tracker, "_pid", None) is not None and hasattr(tracker, "_stop"):
        tracker._stop()


def metric_line(name: str, value, unit: str) -> str:
    shown = value if isinstance(value, str) else f"{value:.6g}"
    return f"metric {name} {shown} {unit}"


def drive(args) -> int:
    import tracer as tracing
    import workloads

    end_to_end_units, per_layer_units = benchmark_metrics()
    workload = workloads.make(args.workload, args.smoke)
    seeds = workloads.Seeds.derive(args.seed)

    setup = [run_probe("setup", args) for _ in range(args.repeats)]
    walls: list[float] = []
    outcomes = []
    while len(walls) < args.repeats or sum(walls) < args.seconds:
        inputs = workload.prepare(seeds, args.workdir)
        gc.collect()
        start = time.perf_counter()
        result = workload.call(inputs)
        walls.append(time.perf_counter() - start)
        outcomes.append(workload.check(inputs, result))
        del inputs, result
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    stop_resource_tracker()
    traced = run_probe("traced", args) if args.trace else None

    problems = [p for outcome in outcomes for p in outcome.problems]
    attempted = sum(o.attempted for o in outcomes)
    failed = sum(o.failed for o in outcomes)
    digest = outcomes[0].digest
    for outcome in outcomes[1:]:
        if outcome.digest != digest:
            problems.append("outputs differ between repeats")
            failed += outcome.attempted
    if traced is not None:
        t_outcome = traced["outcome"]
        attempted += t_outcome["attempted"]
        failed += t_outcome["failed"]
        problems.extend(t_outcome["problems"])
        if t_outcome["digest"] != digest:
            problems.append("tracing changed the outputs")
            failed += t_outcome["attempted"]

    wall_s = statistics.median(walls)
    setup_s = [probe["setup_s"] for probe in setup]
    end_to_end = {
        "wall_s": wall_s,
        "setup_s": statistics.median(setup_s),
        "peak_rss_mb": peak_rss_mb,
    }

    scale = "smoke" if args.smoke else "full"
    print(f"== e2e {args.workload}  seed={args.seed}  calls={len(walls)}"
          f"  scale={scale} ==")
    print("machine " + " ".join(f"{k}={v}" for k, v in machine_record().items()))
    print("samples wall_s " + " ".join(f"{w:.4f}" for w in walls))
    print("samples setup_s " + " ".join(f"{s:.4f}" for s in setup_s))
    print(f"digest {digest}")
    for name, unit in end_to_end_units.items():
        print(metric_line(name, end_to_end[name], unit))
    print(metric_line("error_rate", failed / max(attempted, 1), "ratio"))
    for name, (value, unit) in outcomes[0].quality.items():
        print(metric_line(name, value, unit))

    layer_metrics = {}
    if traced is not None:
        layer_metrics = dict(traced["metrics"])
        layer_metrics["trace.overhead"] = traced["wall_s"] / wall_s
        for name, unit in per_layer_units.items():
            print(metric_line(name, layer_metrics[name], unit))
        for layer in tracing.LAYERS:
            name = f"{layer}.self_s"
            print(metric_line(name, layer_metrics[name], "s"))
        for name, unit in REPORT_ONLY.items():
            print(metric_line(name, traced["report"][name], unit))
        print(f"trace {args.trace_out / f'trace-{args.workload}.jsonl'}")
    for problem in problems:
        print(f"problem {problem}")

    values, units = (
        (layer_metrics, per_layer_units) if args.trace
        else (end_to_end, end_to_end_units)
    )
    metrics = {
        name: {"value": values[name], "unit": unit}
        for name, unit in units.items()
    }
    correct = failed == 0 and not problems
    print(json.dumps({
        "correct": correct, "attempted": attempted, "failed": failed,
        "metrics": metrics,
    }))
    return 0 if correct else 1


def drive_all(args) -> int:
    """Every workload, each in a fresh driver process."""
    correct, attempted, failed, metrics = True, 0, 0, {}
    for name in WORKLOADS:
        command = [
            sys.executable, str(HERE / "run.py"), "--workload", name,
            "--seed", str(args.seed), "--repeats", str(args.repeats),
            "--seconds", str(args.seconds), "--trace", str(args.trace),
            "--trace-out", str(args.trace_out),
        ]
        if args.smoke:
            command.append("--smoke")
        proc = subprocess.run(command, cwd=ROOT, stdout=subprocess.PIPE, text=True)
        print(proc.stdout, end="", flush=True)
        lines = proc.stdout.strip().splitlines()
        try:
            result = json.loads(lines[-1])
        except (IndexError, json.JSONDecodeError):
            result = {"correct": False, "attempted": 1, "failed": 1, "metrics": {}}
        correct = correct and proc.returncode == 0 and result["correct"]
        attempted += result["attempted"]
        failed += result["failed"]
        for metric, entry in result["metrics"].items():
            metrics[f"{name}.{metric}"] = entry
    print(json.dumps({
        "correct": correct, "attempted": attempted, "failed": failed,
        "metrics": metrics,
    }))
    return 0 if correct else 1


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"no repro package under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    args.trace_out = args.trace_out.resolve()
    if args.role == "setup":
        print(json.dumps(setup_probe(args)))
        return 0
    if args.role == "traced":
        print(json.dumps(traced_probe(args)))
        stop_resource_tracker()
        return 0
    if args.workload is None:
        return drive_all(args)
    WORKDIR.mkdir(exist_ok=True)
    args.workdir = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=WORKDIR))
    try:
        return drive(args)
    except Exception:
        traceback.print_exc()
        return 1
    finally:
        shutil.rmtree(args.workdir, ignore_errors=True)


if __name__ == "__main__":
    sys.exit(main())
