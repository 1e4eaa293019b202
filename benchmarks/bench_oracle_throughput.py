"""Oracle grid throughput: scalar reference vs. vectorized batch path.

The oracles are built "by running 90 inputs in all possible DNN and
system configurations" (paper Section 5.1); this bench measures that
grid evaluation on the Table 4 candidate set (the full image family
plus the anytime ladder across every CPU1 power level) three ways:

* raw (configuration × input) outcome evaluations/second —
  ``engine.evaluate`` per pair vs. one ``evaluate_batch`` pass;
* ``best_static_config`` wall time against its scalar reference
  ``best_static_config_scalar``;
* per-input ``OracleScheduler`` decisions/second, scalar vs. batch.

Results land in ``BENCH_oracle.json`` at the repository root so the
oracle-path performance trajectory is tracked from PR to PR.  Run
directly (no pytest machinery needed)::

    PYTHONPATH=src python benchmarks/bench_oracle_throughput.py
    PYTHONPATH=src python benchmarks/bench_oracle_throughput.py --smoke

``--smoke`` runs a seconds-scale miniature and writes nothing — CI
invokes it so the script cannot rot, and the bench-regression gate
reuses :func:`run` with a short window to compare the measured
speedup ratios against the committed baseline (ratios are
machine-relative, so they transfer across runner hardware).

The file is named ``bench_*`` on purpose: the tier-1 pytest run only
collects ``test_*`` files, so this never slows the test gate.
"""

from __future__ import annotations

import argparse
import json
import time
from pathlib import Path

from repro.baselines.oracle import (
    OracleScheduler,
    best_static_config,
    best_static_config_scalar,
)
from repro.core.config_space import ConfigurationSpace
from repro.core.goals import Goal, ObjectiveKind
from repro.workloads.scenarios import build_scenario

REPO_ROOT = Path(__file__).resolve().parent.parent
OUTPUT = REPO_ROOT / "BENCH_oracle.json"

#: The paper's oracle horizon.
N_INPUTS = 90


def _repeat(fn, min_seconds: float) -> tuple[int, float]:
    """(repetitions, elapsed seconds) of ``fn`` over at least a window."""
    fn()  # warm-up outside the clock
    count = 0
    start = time.perf_counter()
    while time.perf_counter() - start < min_seconds:
        fn()
        count += 1
    return count, time.perf_counter() - start


def run(min_seconds: float = 1.5) -> dict:
    scenario = build_scenario("CPU1", "image", "default", "standard", seed=20200501)
    profile = scenario.profile()
    space = ConfigurationSpace(
        list(scenario.candidates.models), list(profile.powers)
    )
    configs = list(space)
    engine = scenario.make_engine()
    stream = scenario.make_stream()
    work_factors = [stream.item(i).work_factor for i in range(N_INPUTS)]
    goal = Goal(
        objective=ObjectiveKind.MINIMIZE_ENERGY,
        deadline_s=scenario.anchor_latency_s(),
        accuracy_min=0.9,
    )
    n_pairs = len(configs) * N_INPUTS

    # Raw grid evaluation: every configuration on every input.
    def scalar_grid():
        for config in configs:
            for index in range(N_INPUTS):
                engine.evaluate(
                    model=config.model,
                    power_cap_w=config.power_w,
                    index=index,
                    deadline_s=goal.deadline_s,
                    period_s=goal.period,
                    work_factor=work_factors[index],
                    rung_cap=config.rung_cap,
                )

    def batch_grid():
        engine.evaluate_batch(
            configs, range(N_INPUTS), work_factors=work_factors
        ).timing(goal.deadline_s, goal.period)

    reps, elapsed = _repeat(scalar_grid, min_seconds)
    scalar_eps = reps * n_pairs / elapsed
    reps, elapsed = _repeat(batch_grid, min_seconds)
    batch_eps = reps * n_pairs / elapsed

    # OracleStatic: the whole-horizon best configuration.
    def static(static_config):
        static_config(engine, space, goal, stream, N_INPUTS)

    reps, elapsed = _repeat(
        lambda: static(best_static_config_scalar), min_seconds
    )
    static_scalar_s = elapsed / reps
    reps, elapsed = _repeat(lambda: static(best_static_config), min_seconds)
    static_batch_s = elapsed / reps

    # Oracle: per-input decisions (no precomputed grid — the serving
    # loop's fallback path).
    oracle = OracleScheduler(engine, space)
    items = [stream.item(i) for i in range(N_INPUTS)]

    def decisions(decide):
        for item in items:
            decide(item, goal)

    reps, elapsed = _repeat(lambda: decisions(oracle.decide_scalar), min_seconds)
    decide_scalar_dps = reps * N_INPUTS / elapsed
    reps, elapsed = _repeat(lambda: decisions(oracle.decide), min_seconds)
    decide_batch_dps = reps * N_INPUTS / elapsed

    combined_scalar_s = static_scalar_s + N_INPUTS / decide_scalar_dps
    combined_batch_s = static_batch_s + N_INPUTS / decide_batch_dps
    return {
        "benchmark": "oracle_throughput",
        "platform": "CPU1",
        "candidate_set": "table4_image",
        "n_configs": len(configs),
        "n_inputs": N_INPUTS,
        "grid_scalar_evals_per_sec": round(scalar_eps, 1),
        "grid_batch_evals_per_sec": round(batch_eps, 1),
        "grid_speedup": round(batch_eps / scalar_eps, 2),
        "static_scalar_seconds": round(static_scalar_s, 5),
        "static_batch_seconds": round(static_batch_s, 5),
        "static_speedup": round(static_scalar_s / static_batch_s, 2),
        "oracle_scalar_decisions_per_sec": round(decide_scalar_dps, 1),
        "oracle_batch_decisions_per_sec": round(decide_batch_dps, 1),
        "decide_speedup": round(decide_batch_dps / decide_scalar_dps, 2),
        # best_static_config + the OracleScheduler horizon, end to end.
        "speedup": round(combined_scalar_s / combined_batch_s, 2),
    }


def smoke() -> None:
    """Seconds-scale end-to-end exercise of every path (for CI)."""
    result = run(min_seconds=0.05)
    assert result["speedup"] > 0
    print("bench_oracle_throughput smoke ok")


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
    if result["speedup"] < 5.0:
        print("WARNING: batch oracle path below the 5x target")


if __name__ == "__main__":
    main()
