"""Quickstart: serve an image-classification stream with ALERT.

Builds the paper's CPU1 image scenario under dynamic memory
contention, asks ALERT to minimise energy subject to a latency
deadline and an accuracy floor, and prints what happened.

Run:  python examples/quickstart.py
"""

from __future__ import annotations

from repro.baselines import make_alert
from repro.core.goals import Goal, ObjectiveKind
from repro.runtime.loop import ServingLoop
from repro.workloads.scenarios import build_scenario


def main() -> None:
    # A scenario bundles platform, task, DNN candidates, and the
    # environment; everything derives from one seed.
    scenario = build_scenario(
        platform="CPU1", task="image", env="memory", candidates="standard"
    )

    # Deadline anchored on the anytime network's quiet-environment
    # latency (the paper's convention), accuracy floor at 90% top-5.
    goal = Goal(
        objective=ObjectiveKind.MINIMIZE_ENERGY,
        deadline_s=1.25 * scenario.anchor_latency_s(),
        accuracy_min=0.90,
    )
    print(f"goal: {goal.describe()}")

    # ALERT only needs the offline profile; the engine realises the
    # (hidden) environment.
    scheduler = make_alert(scenario.profile())
    loop = ServingLoop(
        engine=scenario.make_engine(),
        stream=scenario.make_stream(),
        scheduler=scheduler,
        goal=goal,
    )
    result = loop.run(n_inputs=200)

    print(result.describe())
    print(
        f"deadline misses: {result.deadline_miss_fraction * 100:.1f}% of inputs; "
        f"setting violated (10% rule): {result.setting_violated}"
    )
    state = scheduler.kernel.state()
    print(
        f"final belief: xi = {state.xi_mean:.2f} +- {state.xi_sigma:.2f} "
        f"after {state.observations} observations, idle-power ratio "
        f"phi = {state.phi:.2f}"
    )


if __name__ == "__main__":
    main()
