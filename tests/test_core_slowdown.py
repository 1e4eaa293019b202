"""Tests for the global slowdown factor estimator."""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.slowdown import GlobalSlowdownEstimator, StackedSlowdownEstimator
from repro.errors import ConfigurationError


def test_observe_returns_ratio():
    est = GlobalSlowdownEstimator()
    assert est.observe(0.2, 0.1) == pytest.approx(2.0)
    assert est.observations == 1


def test_history_preserved_when_opted_in():
    est = GlobalSlowdownEstimator(keep_history=True)
    est.observe(0.15, 0.1)
    est.observe(0.12, 0.1)
    assert est.keeps_history
    assert est.history() == [pytest.approx(1.5), pytest.approx(1.2)]


def test_history_off_by_default():
    # Regression: retention used to be unconditional, growing one float
    # per observation forever on long serving runs.
    est = GlobalSlowdownEstimator()
    est.observe(0.15, 0.1)
    assert not est.keeps_history
    with pytest.raises(ConfigurationError):
        est.history()


def test_shares_history_across_configurations():
    # Idea 1: observations from any configuration inform the estimate.
    est = GlobalSlowdownEstimator()
    for t_prof in (0.05, 0.1, 0.2, 0.4):  # four different configs
        est.observe(t_prof * 1.5, t_prof)  # all slowed by 1.5x
    assert est.mean == pytest.approx(1.5, abs=0.1)


def test_sigma_floor():
    est = GlobalSlowdownEstimator(min_sigma=1e-6)
    for _ in range(500):
        est.observe(0.1, 0.1)
    assert est.sigma >= 1e-6


def test_tail_tracking():
    est = GlobalSlowdownEstimator()
    rng = np.random.default_rng(0)
    for _ in range(100):
        est.observe(0.1 * (1 + rng.normal(0, 0.01)), 0.1)
    # A quiet stream has essentially no tail mass once converged.
    quiet_fraction = est.tail_fraction
    assert quiet_fraction < 0.2
    # A single 3x outlier immediately registers as a tail event.
    est.observe(0.3, 0.1)
    assert est.tail_fraction > quiet_fraction
    assert est.tail_ratio > 1.0
    assert 0.0 <= est.tail_fraction <= 1.0


def test_rejects_nonpositive():
    est = GlobalSlowdownEstimator()
    with pytest.raises(ConfigurationError):
        est.observe(0.0, 0.1)
    with pytest.raises(ConfigurationError):
        est.observe(0.1, 0.0)


@pytest.mark.parametrize(
    ("measured", "profiled"),
    [
        ([0.1, 0.0, 0.2], [0.1, 0.1, 0.1]),
        ([0.1, -0.1, 0.2], [0.1, 0.1, 0.1]),
        ([0.1, 0.1, 0.2], [0.1, 0.0, 0.1]),
        ([0.1, -0.1, 0.2], [0.1, -0.1, 0.1]),
        ([0.1, 0.1], [0.1, 0.1]),
    ],
)
def test_stacked_rejects_nonpositive_and_misshapen(measured, profiled):
    """One check per stacked observe refuses what the scalar estimator
    and the Kalman filter refuse, before any state moves."""
    est = StackedSlowdownEstimator(3)
    est.observe(np.full(3, 0.12), np.full(3, 0.1))
    before = (est.mean.copy(), est.tail_fraction.copy(), est.observations)
    with pytest.raises(ConfigurationError):
        est.observe(np.array(measured), np.array(profiled))
    np.testing.assert_array_equal(est.mean, before[0])
    np.testing.assert_array_equal(est.tail_fraction, before[1])
    assert est.observations == before[2]


def test_snapshot_matches_properties():
    est = GlobalSlowdownEstimator()
    est.observe(0.13, 0.1)
    mean, sigma = est.snapshot()
    assert mean == est.mean
    assert sigma == est.sigma
