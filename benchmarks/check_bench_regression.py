"""CI bench-regression gate: keep the perf trajectory honest.

Re-measures the repository's throughput benchmarks with short windows
and compares their *speedup ratios* against the committed
``BENCH_*.json`` baselines at the repository root.  Ratios (batch vs
scalar, fleet vs harness) are machine-relative, so they transfer from
the box that wrote the baseline to whatever runner CI lands on, where
absolute throughput numbers would not.  A measured ratio more than
``--tolerance`` (default 30%) below its committed value fails the
gate; the slack absorbs runner noise and the short measurement
windows.

Robustness rules (so the gate never cries wolf):

* a missing baseline file skips that benchmark with a notice;
* a metric absent from the baseline (older JSON shape) skips that
  metric with a notice;
* only ratio metrics are gated — absolute inputs/second numbers are
  informational only;
* the executor's pool ratios additionally depend on the runner's core
  count, so they are listed as ``cpu_gated_metrics`` and compared
  only when the committed artifact's recorded ``cpu_count`` matches
  the measuring box's (a 1-CPU container pins meaningless pool
  numbers for a 16-core runner, and vice versa).

Run from the repository root::

    PYTHONPATH=src python benchmarks/check_bench_regression.py
    PYTHONPATH=src python benchmarks/check_bench_regression.py --tolerance 0.5
"""

from __future__ import annotations

import argparse
import importlib.util
import json
import os
import sys
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
REPO_ROOT = BENCH_DIR.parent

#: (baseline file, bench module file, measure call, dotted ratio metrics).
CHECKS = (
    {
        "name": "decide",
        "baseline": "BENCH_decide.json",
        "module": "bench_decide_throughput.py",
        "measure": lambda module: module.run(min_seconds=0.25),
        "metrics": ("speedup", "multi_goal.speedup"),
    },
    {
        "name": "oracle",
        "baseline": "BENCH_oracle.json",
        "module": "bench_oracle_throughput.py",
        "measure": lambda module: module.run(min_seconds=0.2),
        "metrics": (
            "grid_speedup",
            "static_speedup",
            "decide_speedup",
            "speedup",
        ),
    },
    {
        "name": "harness",
        "baseline": "BENCH_harness.json",
        "module": "bench_harness_throughput.py",
        "measure": lambda module: module.quick_metrics(min_seconds=0.15),
        "metrics": (
            "serving.min_speedup",
            "serving_frontend.relative_throughput",
            "serving_frontend.batching.speedup",
        ),
        # Pool ratios only transfer between same-core-count boxes:
        # each dotted metric is compared only when the baseline
        # section's recorded cpu_count equals os.cpu_count().
        "cpu_gated_metrics": (
            "executor.workers.2.speedup_vs_serial",
            "sweep.workers.2.store_speedup",
        ),
    },
)


def _cpu_gate_passes(baseline, metric: str) -> bool:
    """Whether the baseline's section was written on a same-CPU box.

    The section is the metric's first dotted component; its
    ``cpu_count`` records the core count of the box that wrote the
    committed artifact.  An artifact predating the field (or written
    on a different box) skips the comparison rather than gating on
    numbers that do not transfer.  A ``workers.<N>`` ratio *against a
    serial baseline* (``speedup_vs_serial``) is additionally skipped
    when the box has fewer than N cores: with the pool pinned to one
    core the ratio measures nothing but process overhead, and
    overhead noise would gate the build.  Pool-vs-pool ratios at the
    same worker count (the sweep's ``store_speedup``) carry no such
    clause — both arms timeslice identically, so the ratio measures
    duplicated work and transfers to any box with the committed
    cpu_count.
    """
    section = metric.split(".", 1)[0]
    committed_cpus = _dig(baseline, f"{section}.cpu_count")
    if committed_cpus is None or committed_cpus != os.cpu_count():
        return False
    parts = metric.split(".")
    if "workers" in parts and parts[-1] == "speedup_vs_serial":
        workers = int(parts[parts.index("workers") + 1])
        if os.cpu_count() < workers:
            return False
    return True


def _load_module(filename: str):
    path = BENCH_DIR / filename
    spec = importlib.util.spec_from_file_location(path.stem, path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _dig(tree, dotted: str):
    """Fetch a dotted path out of nested dicts; None when absent."""
    node = tree
    for part in dotted.split("."):
        if not isinstance(node, dict) or part not in node:
            return None
        node = node[part]
    return node


def check(tolerance: float) -> int:
    failures = 0
    for entry in CHECKS:
        baseline_path = REPO_ROOT / entry["baseline"]
        if not baseline_path.exists():
            print(f"[skip] {entry['name']}: no {entry['baseline']} baseline")
            continue
        baseline = json.loads(baseline_path.read_text())
        wanted = [
            (metric, _dig(baseline, metric)) for metric in entry["metrics"]
        ]
        gated = [(metric, value) for metric, value in wanted if value is not None]
        for metric, value in wanted:
            if value is None:
                print(
                    f"[skip] {entry['name']}.{metric}: absent from baseline"
                )
        for metric in entry.get("cpu_gated_metrics", ()):
            value = _dig(baseline, metric)
            if value is None:
                print(
                    f"[skip] {entry['name']}.{metric}: absent from baseline"
                )
            elif not _cpu_gate_passes(baseline, metric):
                print(
                    f"[skip] {entry['name']}.{metric}: baseline written on "
                    f"a different core count than this box "
                    f"(os.cpu_count()={os.cpu_count()})"
                )
            else:
                gated.append((metric, value))
        if not gated:
            continue
        module = _load_module(entry["module"])
        measured_tree = entry["measure"](module)
        for metric, committed in gated:
            measured = _dig(measured_tree, metric)
            if measured is None:
                print(f"[skip] {entry['name']}.{metric}: not measured")
                continue
            floor = committed * (1.0 - tolerance)
            status = "ok" if measured >= floor else "FAIL"
            if status == "FAIL":
                failures += 1
            print(
                f"[{status}] {entry['name']}.{metric}: measured "
                f"{measured:.2f}x vs committed {committed:.2f}x "
                f"(floor {floor:.2f}x)"
            )
    return failures


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument(
        "--tolerance",
        type=float,
        default=0.30,
        help="allowed fractional drop below the committed ratio "
        "(default 0.30 = fail on >30%% regression)",
    )
    args = parser.parse_args()
    failures = check(args.tolerance)
    if failures:
        print(f"bench regression gate: {failures} metric(s) regressed >"
              f"{args.tolerance:.0%}")
        return 1
    print("bench regression gate: ok")
    return 0


if __name__ == "__main__":
    sys.exit(main())
