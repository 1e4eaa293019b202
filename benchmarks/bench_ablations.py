"""Benches: the ablations of ``repro.experiments.ablations``."""

from __future__ import annotations

from repro.experiments import ablations


def test_ablation_global_xi(once):
    rows = once(ablations.run_global_xi, settings_stride=6, n_inputs=80)
    alert, per_config = rows
    # The global slowdown factor (Idea 1) never violates more settings
    # than starving per-configuration filters.
    assert alert.violated_settings <= per_config.violated_settings


def test_ablation_adaptive_q(once):
    rows = once(ablations.run_adaptive_q, settings_stride=6, n_inputs=80)
    adaptive, fixed = rows
    assert adaptive.variant == "ALERT(adaptive-Q)"
    # Frozen process noise keeps the variance pinned at its cap, which
    # costs energy (permanent conservatism) or violations; adaptive Q
    # is never worse on violations by more than one setting.
    assert adaptive.violated_settings <= fixed.violated_settings + 1


def test_ablation_prth(once):
    rows = once(
        ablations.run_prth, thresholds=(None, 0.9, 0.99), settings_stride=6,
        n_inputs=80,
    )
    assert set(rows) == {"default", "prth=0.9", "prth=0.99"}
    # Tighter probabilistic guarantees cannot be cheaper: energy is
    # monotone (weakly) in the threshold over non-violated settings.
    default = rows["default"].mean_objective
    strict = rows["prth=0.99"].mean_objective
    if default == default and strict == strict:  # both defined
        assert strict >= default * 0.95
