"""Figure 10: ALERT versus the mean-only ALERT* ablation.

Minimise error (reported as perplexity) for sentence prediction on
CPU1, for three candidate sets (Standard = traditional + anytime,
Trad-only, Any-only) in the Default and Memory environments.  The
paper's claim: ALERT always beats ALERT*, with the largest margin on
the mixed candidate set — distinguishing the step-function accuracy of
traditional networks (Eq. 3) from the anytime ladder (Eq. 13) requires
the latency *distribution*, not just its mean.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.analysis.tables import render_table
from repro.baselines import make_alert, make_alert_star
from repro.runtime.loop import ServingLoop
from repro.workloads.scenarios import build_scenario, constraint_grid, stride_settings

__all__ = ["PerplexityBar", "Fig10Result", "run"]

CANDIDATE_SETS = ("standard", "trad", "any")


@dataclass(frozen=True)
class PerplexityBar:
    """Mean and range of per-setting average perplexity."""

    scheduler: str
    candidate_set: str
    env: str
    mean_perplexity: float
    min_perplexity: float
    max_perplexity: float


@dataclass
class Fig10Result:
    """All bars of the Figure 10 comparison."""

    bars: list[PerplexityBar]

    def bar(self, scheduler: str, candidate_set: str, env: str) -> PerplexityBar:
        for b in self.bars:
            if (
                b.scheduler == scheduler
                and b.candidate_set == candidate_set
                and b.env == env
            ):
                return b
        raise KeyError((scheduler, candidate_set, env))

    def advantage(self, candidate_set: str, env: str) -> float:
        """ALERT* mean perplexity minus ALERT's (positive = ALERT wins)."""
        return (
            self.bar("ALERT*", candidate_set, env).mean_perplexity
            - self.bar("ALERT", candidate_set, env).mean_perplexity
        )

    def describe(self) -> str:
        rows = [
            [
                b.env,
                b.candidate_set,
                b.scheduler,
                b.mean_perplexity,
                b.min_perplexity,
                b.max_perplexity,
            ]
            for b in self.bars
        ]
        return render_table(
            ["env", "candidates", "scheduler", "mean_ppl", "min_ppl", "max_ppl"],
            rows,
            title="Figure 10: ALERT vs ALERT* (sentence prediction, CPU1)",
        )


def run(
    envs: tuple[str, ...] = ("default", "memory"),
    candidate_sets: tuple[str, ...] = CANDIDATE_SETS,
    settings_stride: int = 4,
    n_inputs: int = 120,
    seed: int = 20201111,
) -> Fig10Result:
    """Run ALERT and ALERT* over the sentence-prediction grid."""
    bars: list[PerplexityBar] = []
    for env in envs:
        for candidate_set in candidate_sets:
            scenario = build_scenario("CPU1", "sentence", env, candidate_set, seed)
            profile = scenario.profile()
            grid = constraint_grid(scenario)
            goals = stride_settings(grid.min_error_goals, settings_stride)
            for name, factory in (
                ("ALERT", make_alert),
                ("ALERT*", make_alert_star),
            ):
                perplexities = []
                for goal in goals:
                    engine = scenario.make_engine()
                    stream = scenario.make_stream()
                    scheduler = factory(profile, name=name)
                    result = ServingLoop(engine, stream, scheduler, goal).run(
                        n_inputs
                    )
                    perplexities.append(result.mean_metric)
                bars.append(
                    PerplexityBar(
                        scheduler=name,
                        candidate_set=candidate_set,
                        env=env,
                        mean_perplexity=float(np.mean(perplexities)),
                        min_perplexity=float(np.min(perplexities)),
                        max_perplexity=float(np.max(perplexities)),
                    )
                )
    return Fig10Result(bars=bars)
