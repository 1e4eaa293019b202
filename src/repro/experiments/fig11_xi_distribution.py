"""Figure 11: the distribution of observed global slowdown factors.

Runs ALERT on the image task (CPU1) in each environment, collects the
raw ξ observations its filter consumed, and fits a Gaussian.  The
paper's reading: the observations are *not* perfectly Gaussian (the
histogram has structure the fit misses) but a Gaussian is a workable
approximation — Default concentrates just above 1.0, Compute and
Memory shift right and widen.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.analysis.distributions import GaussianFit, fit_gaussian, histogram
from repro.analysis.tables import render_table
from repro.baselines import make_alert
from repro.core.goals import Goal, ObjectiveKind
from repro.runtime.loop import ServingLoop
from repro.workloads.scenarios import build_scenario

__all__ = ["EnvDistribution", "Fig11Result", "run"]


@dataclass
class EnvDistribution:
    """One environment's ξ sample, histogram, and Gaussian fit."""

    env: str
    samples: list[float]
    fit: GaussianFit
    densities: list[float]
    bin_centers: list[float]


@dataclass
class Fig11Result:
    """Distributions for every environment."""

    distributions: list[EnvDistribution]

    def for_env(self, env: str) -> EnvDistribution:
        for dist in self.distributions:
            if dist.env == env:
                return dist
        raise KeyError(env)

    def describe(self) -> str:
        rows = [
            [
                d.env,
                d.fit.mean,
                d.fit.sigma,
                d.fit.ks_statistic,
                d.fit.skewness,
            ]
            for d in self.distributions
        ]
        return render_table(
            ["env", "mean", "sigma", "ks_stat", "skewness"],
            rows,
            title="Figure 11: observed xi distribution vs Gaussian fit",
            float_format="{:.4f}",
        )


def run(
    envs: tuple[str, ...] = ("default", "compute", "memory"),
    n_inputs: int = 300,
    deadline_factor: float = 1.25,
    seed: int = 20201212,
) -> Fig11Result:
    """Collect ξ observations from an ALERT run per environment."""
    distributions: list[EnvDistribution] = []
    for env in envs:
        scenario = build_scenario("CPU1", "image", env, "standard", seed)
        profile = scenario.profile()
        deadline = deadline_factor * scenario.anchor_latency_s()
        goal = Goal(
            objective=ObjectiveKind.MINIMIZE_ENERGY,
            deadline_s=deadline,
            accuracy_min=0.90,
        )
        engine = scenario.make_engine()
        stream = scenario.make_stream()
        # The one consumer of the raw ξ trace: opt into retention.
        scheduler = make_alert(profile, keep_xi_history=True)
        ServingLoop(engine, stream, scheduler, goal).run(n_inputs)
        samples = scheduler.kernel.slowdown.history()
        densities, centers = histogram(samples, bins=24)
        distributions.append(
            EnvDistribution(
                env=env,
                samples=samples,
                fit=fit_gaussian(samples),
                densities=densities,
                bin_centers=centers,
            )
        )
    return Fig11Result(distributions=distributions)
