"""Decision throughput: scalar vs. batch vs. stacked multi-goal.

Measures ``ConfigSelector`` decisions/second on the Table 4 candidate
set (the full image model family plus the anytime ladder, across every
CPU1 power level) over a representative mix of goals and filter
states drawn from the Table 4 constraint grid, and writes the result
to ``BENCH_decide.json`` at the repository root so the performance
trajectory of the decision engine is tracked from PR to PR.

Two comparisons are recorded: the scalar reference loop vs. the
vectorized single-state batch path (PR 1), and per-goal ``select``
calls vs. one stacked ``select_many`` pass over a whole goal grid —
the lockstep engine's inner step, where every goal's estimate comes
from a single fused erf evaluation and every ranking from one
row-wise lexicographic argmin.

Run directly (no pytest machinery needed)::

    PYTHONPATH=src python benchmarks/bench_decide_throughput.py
    PYTHONPATH=src python benchmarks/bench_decide_throughput.py --smoke

``--smoke`` runs a sub-second miniature and writes nothing — CI
invokes it so the script cannot rot, and the bench-regression gate
reuses :func:`run` with a short window to compare the measured
``speedup`` ratio against the committed baseline (ratios are
machine-relative, so they transfer across runner hardware).

The file is named ``bench_*`` on purpose: the tier-1 pytest run only
collects ``test_*`` files, so this never slows the test gate.
"""

from __future__ import annotations

import argparse
import json
import time
from pathlib import Path

import numpy as np

from repro.core.config_space import ConfigurationSpace
from repro.core.estimator import AlertEstimator
from repro.core.goals import Goal, ObjectiveKind
from repro.core.selector import ConfigSelector
from repro.models.families import depth_nest_anytime, sparse_resnet_family
from repro.models.profiles import Profiler
from repro.hw.machine import CPU1

REPO_ROOT = Path(__file__).resolve().parent.parent
OUTPUT = REPO_ROOT / "BENCH_decide.json"

#: Filter states a serving loop actually visits: converged quiet,
#: drifting, stormy (high sigma + tail), and mean-only-like points.
STATES = [
    (1.0, 0.02, 0.15, (0.0, 1.0)),
    (1.05, 0.05, 0.18, (0.01, 1.8)),
    (1.4, 0.12, 0.3, (0.02, 2.2)),
    (1.9, 0.4, 0.5, (0.06, 2.6)),
    (0.85, 1e-6, 0.22, None),
    (2.6, 0.25, 0.9, (0.04, 2.0)),
]


def _goal_mix() -> list[Goal]:
    """Both objectives, with and without Pr_th, several tightnesses."""
    goals: list[Goal] = []
    for deadline in (0.08, 0.2, 0.5):
        for prob in (None, 0.95):
            goals.append(
                Goal(
                    objective=ObjectiveKind.MINIMIZE_ENERGY,
                    deadline_s=deadline,
                    accuracy_min=0.9,
                    prob_threshold=prob,
                )
            )
            goals.append(
                Goal(
                    objective=ObjectiveKind.MAXIMIZE_ACCURACY,
                    deadline_s=deadline,
                    energy_budget_j=8.0,
                    prob_threshold=prob,
                )
            )
    return goals


def _throughput(select, workload, min_seconds: float) -> float:
    """Decisions per second of one select callable over the workload."""
    # Warm up caches (thresholds, q_min statics) outside the clock.
    for goal, (xi_mean, xi_sigma, phi, tail) in workload:
        select(goal, xi_mean, xi_sigma, phi, tail=tail)
    count = 0
    start = time.perf_counter()
    while time.perf_counter() - start < min_seconds:
        for goal, (xi_mean, xi_sigma, phi, tail) in workload:
            select(goal, xi_mean, xi_sigma, phi, tail=tail)
        count += len(workload)
    return count / (time.perf_counter() - start)


def _multi_goal_throughput(selector, min_seconds: float) -> dict:
    """Stacked ``select_many`` vs. per-goal ``select`` on a goal grid.

    The workload is one lockstep step: a Table-3-shaped constraint
    grid (one objective, 3 deadlines × 5 accuracy floors — the
    homogeneous structure a fused cell's goals actually have) with one
    filter state per goal (each goal's ALERT run owns its own state,
    so every state differs), decided either with one stacked pass or
    with a per-goal loop.  Decisions/second counts one decision per
    (goal, step).
    """
    goals = [
        Goal(
            objective=ObjectiveKind.MINIMIZE_ENERGY,
            deadline_s=deadline,
            accuracy_min=floor,
        )
        for deadline in (0.08, 0.2, 0.5)
        for floor in (0.82, 0.86, 0.9, 0.94, 0.98)
    ]
    tailed = [state for state in STATES if state[3] is not None]
    states = [tailed[i % len(tailed)] for i in range(len(goals))]
    goals = tuple(goals)
    deadlines = np.array([goal.deadline_s for goal in goals])
    means = np.array([s[0] for s in states])
    sigmas = np.array([s[1] for s in states])
    phis = np.array([s[2] for s in states])
    tails = (
        np.array([s[3][0] for s in states]),
        np.array([s[3][1] for s in states]),
    )

    def stacked() -> None:
        selector.select_many(goals, deadlines, means, sigmas, phis, tails)

    def per_goal() -> None:
        for goal, (mean, sigma, phi, tail) in zip(goals, states):
            selector.select(goal, mean, sigma, phi, tail=tail)

    def rate(fn) -> float:
        fn()  # warm caches outside the clock
        count = 0
        start = time.perf_counter()
        while time.perf_counter() - start < min_seconds:
            fn()
            count += len(goals)
        return count / (time.perf_counter() - start)

    stacked_dps = rate(stacked)
    per_goal_dps = rate(per_goal)
    return {
        "n_goals": len(goals),
        "per_goal_decisions_per_sec": round(per_goal_dps, 1),
        "stacked_decisions_per_sec": round(stacked_dps, 1),
        "speedup": round(stacked_dps / per_goal_dps, 2),
    }


def run(min_seconds: float = 2.0) -> dict:
    models = list(sparse_resnet_family()) + [depth_nest_anytime()]
    profile = Profiler(CPU1).analytic(models)
    space = ConfigurationSpace(models, list(profile.powers))
    estimator = AlertEstimator(profile)
    selector = ConfigSelector(space, estimator)

    workload = [(goal, state) for goal in _goal_mix() for state in STATES]
    batch_dps = _throughput(selector.select, workload, min_seconds)
    scalar_dps = _throughput(selector.select_scalar, workload, min_seconds)

    result = {
        "benchmark": "decide_throughput",
        "platform": "CPU1",
        "candidate_set": "table4_image",
        "n_configs": len(space),
        "n_workload_points": len(workload),
        "scalar_decisions_per_sec": round(scalar_dps, 1),
        "batch_decisions_per_sec": round(batch_dps, 1),
        "speedup": round(batch_dps / scalar_dps, 2),
        "multi_goal": _multi_goal_throughput(selector, min_seconds),
    }
    return result


def smoke() -> None:
    """Sub-second end-to-end exercise of every path (for CI)."""
    result = run(min_seconds=0.05)
    assert result["speedup"] > 0
    assert result["multi_goal"]["speedup"] > 0
    print("bench_decide_throughput smoke ok")


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument(
        "--smoke",
        action="store_true",
        help="tiny run exercising both paths; writes no JSON",
    )
    args = parser.parse_args()
    if args.smoke:
        smoke()
        return
    result = run()
    OUTPUT.write_text(json.dumps(result, indent=2) + "\n")
    print(json.dumps(result, indent=2))
    if result["speedup"] < 10.0:
        print("WARNING: batch path below the 10x target")


if __name__ == "__main__":
    main()
