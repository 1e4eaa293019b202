"""Factories for ALERT and its mean-only ablation ALERT*.

ALERT* (paper Section 5.3) is ALERT with the probabilistic machinery
removed: the ξ estimate collapses to its mean, so completion
probabilities become step functions and the selector can no longer
distinguish "almost certainly in time" from "coin flip".  Figure 10
shows ALERT beating ALERT* across candidate sets, most visibly when
traditional and anytime networks are mixed.
"""

from __future__ import annotations

from repro.core.kernel import AlertKernel
from repro.models.base import DnnModel
from repro.models.profiles import ProfileTable
from repro.runtime.scheduler import AlertScheduler

__all__ = ["make_alert", "make_alert_star"]


def make_alert(
    profile: ProfileTable,
    models: list[DnnModel] | None = None,
    powers: list[float] | None = None,
    name: str = "ALERT",
    q0: float = 0.1,
    keep_xi_history: bool = False,
) -> AlertScheduler:
    """The full ALERT scheduler (variance-aware, rung expansion on).

    ``keep_xi_history`` opts into retaining every ξ observation for
    trace consumers (Figure 11); throughput paths leave it off.
    """
    kernel = AlertKernel(
        profile=profile,
        models=models,
        powers=powers,
        variance_aware=True,
        expand_anytime_rungs=True,
        q0=q0,
        keep_xi_history=keep_xi_history,
    )
    return AlertScheduler(kernel, name=name)


def make_alert_star(
    profile: ProfileTable,
    models: list[DnnModel] | None = None,
    powers: list[float] | None = None,
    name: str = "ALERT*",
) -> AlertScheduler:
    """The mean-only ablation: identical except variance is ignored."""
    kernel = AlertKernel(
        profile=profile,
        models=models,
        powers=powers,
        variance_aware=False,
        expand_anytime_rungs=True,
    )
    return AlertScheduler(kernel, name=name)
