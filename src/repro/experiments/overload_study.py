"""Overload study: the adaptivity matrix under one bursty timeline.

The fleet front-end has three balancing policies, two power-budget
partitions (equal vs ξ-belief-weighted), and optional signal-driven
autoscaling.  This driver pits the full matrix — every policy ×
{static, autoscaled} × {equal, ξ-weighted} — against the *same*
bursty arrival timeline (MMPP by default, diurnal optionally) on the
same scenario seeds, so every difference between cells is the control
policy and nothing else.

The operating point is deliberately hostile: the static fleet is
provisioned so the MMPP burst phase (1.5× the mean rate) exceeds its
aggregate service capacity, and a fleet-wide power budget tight
enough that the per-replica share matters.  A static fleet falls
behind during bursts (queue growth → deadline violations → drops); an
autoscaled fleet recruits replicas when the burst hits and sheds them
in the calm phase; the ξ-weighted budget steers watts toward the
replicas whose kernels believe they are slowed down.

The headline comparison — the acceptance bar this artifact pins — is
per policy: the fully adaptive fleet (autoscaler + ξ-weighted budget)
must *strictly dominate* the fully static one (no autoscaler, equal
split) on deadline violations and p99 response under the MMPP trace.

Everything runs on virtual time, so the whole matrix is deterministic
and completes in seconds; ``--out`` writes a fig-style JSON and a
flat CSV for plotting.
"""

from __future__ import annotations

import csv
import json
from dataclasses import dataclass

from repro.errors import SimulationError
from repro.serve import FleetConfig, build_fleet
from repro.serve.policies import POLICY_KINDS
from repro.workloads.scenarios import build_scenario

__all__ = ["OverloadCell", "OverloadResult", "run"]

#: (autoscaler kind, budget kind) corners of the adaptivity matrix.
MODES = (
    ("none", "equal"),
    ("none", "xi-weighted"),
    ("signal", "equal"),
    ("signal", "xi-weighted"),
)

#: Static lanes; the autoscaled cells may grow to three times this.
BASE_REPLICAS = 2
MAX_REPLICAS = 3 * BASE_REPLICAS

#: Mean arrival load relative to the static fleet's anchor-latency
#: capacity.  The MMPP burst phase multiplies this by 1.5, pushing the
#: static fleet past saturation while the calm phase lets it drain —
#: the regime autoscaling exists for.
MEAN_LOAD = 0.9

#: Fleet-wide budget in W per *static* replica.  45 W is the top of the
#: CPU platforms' power rails, so the static fleet is power-comfortable
#: while a fully scaled-out fleet must ration — which is exactly when
#: the ξ-weighted partition has something to decide.
BUDGET_W_PER_BASE_REPLICA = 45.0


@dataclass
class OverloadCell:
    """One fleet's summary under the shared arrival timeline."""

    policy: str
    autoscaler: str
    budget: str
    arrived: int
    served: int
    dropped: int
    violations: int
    violation_rate: float
    p50_response_s: float
    p99_response_s: float
    energy_j: float
    scale_ups: int
    scale_downs: int
    max_active: int

    @property
    def adaptive(self) -> bool:
        return self.autoscaler != "none" and self.budget == "xi-weighted"

    def row(self) -> dict:
        return {
            "policy": self.policy,
            "autoscaler": self.autoscaler,
            "budget": self.budget,
            "arrived": self.arrived,
            "served": self.served,
            "dropped": self.dropped,
            "violations": self.violations,
            "violation_rate": self.violation_rate,
            "p50_response_s": self.p50_response_s,
            "p99_response_s": self.p99_response_s,
            "energy_j": self.energy_j,
            "scale_ups": self.scale_ups,
            "scale_downs": self.scale_downs,
            "max_active": self.max_active,
        }


@dataclass
class OverloadResult:
    """The full matrix plus the study's constants."""

    platform: str
    task: str
    env: str
    arrivals: str
    rate_hz: float
    duration_s: float
    power_budget_w: float
    cells: list[OverloadCell]

    def cell(self, policy: str, autoscaler: str, budget: str) -> OverloadCell:
        for cell in self.cells:
            if (cell.policy, cell.autoscaler, cell.budget) == (
                policy, autoscaler, budget,
            ):
                return cell
        raise KeyError((policy, autoscaler, budget))

    def dominance(self) -> dict[str, bool]:
        """Per policy: does adaptive strictly beat static on tails?

        "Strictly" means fewer deadline violations *and* a lower p99
        response — the two tail metrics the study is about.
        """
        verdict = {}
        for policy in sorted({cell.policy for cell in self.cells}):
            adaptive = self.cell(policy, "signal", "xi-weighted")
            static = self.cell(policy, "none", "equal")
            verdict[policy] = (
                adaptive.violations < static.violations
                and adaptive.p99_response_s < static.p99_response_s
            )
        return verdict

    def to_json(self) -> dict:
        return {
            "study": "overload",
            "platform": self.platform,
            "task": self.task,
            "env": self.env,
            "arrivals": self.arrivals,
            "rate_hz": self.rate_hz,
            "duration_s": self.duration_s,
            "power_budget_w": self.power_budget_w,
            "base_replicas": BASE_REPLICAS,
            "max_replicas": MAX_REPLICAS,
            "dominance": self.dominance(),
            "cells": [cell.row() for cell in self.cells],
        }

    def write(self, prefix: str) -> None:
        """Emit ``<prefix>.json`` and ``<prefix>.csv``."""
        with open(f"{prefix}.json", "w", encoding="utf-8") as fh:
            json.dump(self.to_json(), fh, indent=2, sort_keys=True)
            fh.write("\n")
        rows = [cell.row() for cell in self.cells]
        with open(f"{prefix}.csv", "w", encoding="utf-8", newline="") as fh:
            writer = csv.DictWriter(fh, fieldnames=list(rows[0]))
            writer.writeheader()
            writer.writerows(rows)

    def describe(self) -> str:
        lines = [
            f"overload study: {self.platform}/{self.task}/{self.env}"
            f"  arrivals={self.arrivals} @ {self.rate_hz:.2f} req/s"
            f"  duration={self.duration_s:g}s (virtual)"
            f"  budget={self.power_budget_w:g} W"
            f"  replicas={BASE_REPLICAS}..{MAX_REPLICAS}",
            f"  {'policy':<13} {'scaling':<7} {'budget':<12} "
            f"{'served':>6} {'drop':>5} {'viol':>5} "
            f"{'p99(ms)':>8} {'maxN':>4}",
        ]
        for cell in self.cells:
            scaling = "auto" if cell.autoscaler != "none" else "static"
            lines.append(
                f"  {cell.policy:<13} {scaling:<7} {cell.budget:<12} "
                f"{cell.served:>6} {cell.dropped:>5} {cell.violations:>5} "
                f"{cell.p99_response_s * 1e3:>8.1f} {cell.max_active:>4}"
            )
        for policy, wins in self.dominance().items():
            verdict = "dominates" if wins else "DOES NOT dominate"
            lines.append(
                f"  {policy}: adaptive (auto + xi-weighted) {verdict} "
                f"static equal-split on violations and p99"
            )
        return "\n".join(lines)


def run(
    platform: str = "CPU1",
    task: str = "image",
    env: str = "memory",
    arrivals: str = "mmpp",
    duration_s: float = 240.0,
    seed: int = 20200417,
    arrival_seed: int = 7,
    smoke: bool = False,
    out_prefix: str | None = None,
) -> OverloadResult:
    """Run the adaptivity matrix; optionally write the artifact.

    ``smoke`` shortens the horizon and *asserts* the study's headline:
    every cell served traffic and the adaptive fleet dominates the
    static baseline for every policy — the CI guard for the adaptive
    machinery.
    """
    if smoke:
        duration_s = min(duration_s, 120.0)
    scenario = build_scenario(platform, task, env, "standard", seed)
    rate_hz = MEAN_LOAD * BASE_REPLICAS / scenario.anchor_latency_s()
    power_budget_w = BUDGET_W_PER_BASE_REPLICA * BASE_REPLICAS
    cells = []
    for policy in POLICY_KINDS:
        for autoscaler, budget in MODES:
            config = FleetConfig(
                platform=platform,
                task=task,
                env=env,
                seed=seed,
                arrivals=arrivals,
                rate_hz=rate_hz,
                arrival_seed=arrival_seed,
                replicas=BASE_REPLICAS,
                policy=policy,
                queue_capacity=64,
                budget=budget,
                power_budget_w=power_budget_w,
                autoscaler=autoscaler,
                max_replicas=MAX_REPLICAS,
            )
            summary = build_fleet(config).run(duration_s)
            scaling = summary.get("autoscaler") or {}
            cells.append(
                OverloadCell(
                    policy=policy,
                    autoscaler=autoscaler,
                    budget=budget,
                    arrived=summary["arrived"],
                    served=summary["served"],
                    dropped=summary["dropped"],
                    violations=summary["violations"],
                    violation_rate=summary["violation_rate"],
                    p50_response_s=summary["p50_response_s"],
                    p99_response_s=summary["p99_response_s"],
                    energy_j=summary["energy_j"],
                    scale_ups=scaling.get("scale_ups", 0),
                    scale_downs=scaling.get("scale_downs", 0),
                    max_active=scaling.get(
                        "max_active", summary["active_replicas"]
                    ),
                )
            )
    result = OverloadResult(
        platform=platform,
        task=task,
        env=env,
        arrivals=arrivals,
        rate_hz=rate_hz,
        duration_s=duration_s,
        power_budget_w=power_budget_w,
        cells=cells,
    )
    if smoke:
        if any(cell.served == 0 for cell in result.cells):
            raise SimulationError("overload smoke: a cell served nothing")
        losers = [p for p, wins in result.dominance().items() if not wins]
        if losers:
            raise SimulationError(
                "overload smoke: adaptive fleet failed to dominate the "
                f"static baseline for {losers}"
            )
    if out_prefix is not None:
        result.write(out_prefix)
    return result
