"""Arrival-process family and fleet determinism/parity tests.

Covers the open-loop generators in :mod:`repro.workloads.traces`
(seeded determinism, distributional shape) and the two end-to-end
determinism guarantees of the fleet front-end: same seeds give
bit-identical runs, and a one-replica fleet is the sequential
harness in disguise.
"""

import math

import numpy as np
import pytest

from repro.baselines.mean_only import make_alert
from repro.core.goals import Goal, ObjectiveKind
from repro.errors import ConfigurationError
from repro.runtime.loop import ServingLoop
from repro.serve import FleetConfig, build_fleet
from repro.workloads.scenarios import build_scenario
from repro.workloads.traces import (
    ARRIVAL_KINDS,
    DiurnalArrivals,
    MMPPArrivals,
    PoissonArrivals,
    make_arrivals,
)


# ----------------------------------------------------------------------
# Seeded determinism
# ----------------------------------------------------------------------
@pytest.mark.parametrize("kind", ARRIVAL_KINDS)
def test_same_seed_same_schedule(kind):
    a = make_arrivals(kind, rate_hz=5.0, seed=11)
    b = make_arrivals(kind, rate_hz=5.0, seed=11)
    assert a.schedule(300) == b.schedule(300)


@pytest.mark.parametrize("kind", ARRIVAL_KINDS)
def test_different_seed_different_schedule(kind):
    a = make_arrivals(kind, rate_hz=5.0, seed=11)
    b = make_arrivals(kind, rate_hz=5.0, seed=12)
    assert a.schedule(50) != b.schedule(50)


def test_timeline_is_memoised_and_monotonic():
    arrivals = PoissonArrivals(rate_hz=3.0, seed=0)
    first = arrivals.schedule(100)
    assert arrivals.schedule(100) == first  # re-reads never redraw
    assert all(t < u for t, u in zip(first, first[1:]))
    assert first[0] > 0.0
    assert arrivals.time_of(42) == first[42]


def test_arrival_validation():
    with pytest.raises(ConfigurationError):
        PoissonArrivals(rate_hz=0.0)
    with pytest.raises(ConfigurationError):
        make_arrivals("poisson", rate_hz=-1.0)
    with pytest.raises(ConfigurationError):
        make_arrivals("bursty", rate_hz=1.0)
    with pytest.raises(ConfigurationError):
        MMPPArrivals(rates_hz=(2.0,), mean_dwell_s=1.0)
    with pytest.raises(ConfigurationError):
        DiurnalArrivals(rate_hz=1.0, period_s=10.0, depth=1.5)
    with pytest.raises(ConfigurationError):
        PoissonArrivals(rate_hz=1.0).time_of(-1)


@pytest.mark.parametrize("value", [math.nan, math.inf], ids=["nan", "inf"])
@pytest.mark.parametrize(
    "build",
    [
        lambda x: PoissonArrivals(rate_hz=x),
        lambda x: make_arrivals("mmpp", rate_hz=x),
        lambda x: MMPPArrivals(rates_hz=(1.0, x), mean_dwell_s=1.0),
        lambda x: MMPPArrivals(rates_hz=(1.0, 2.0), mean_dwell_s=x),
        lambda x: DiurnalArrivals(rate_hz=x, period_s=10.0),
        lambda x: DiurnalArrivals(rate_hz=1.0, period_s=x),
    ],
    ids=[
        "poisson-rate", "factory-rate", "mmpp-rate", "mmpp-dwell",
        "diurnal-rate", "diurnal-period",
    ],
)
def test_arrivals_refuse_non_finite_parameters(build, value):
    """A NaN or infinite rate, dwell or period passed ``x <= 0`` and
    left the fleet's event loop spinning forever."""
    with pytest.raises(ConfigurationError, match="finite"):
        build(value)


# ----------------------------------------------------------------------
# Distributional shape
# ----------------------------------------------------------------------
def test_poisson_mean_interarrival():
    rate = 4.0
    gaps = PoissonArrivals(rate_hz=rate, seed=2).intervals(5000)
    assert np.mean(gaps) == pytest.approx(1.0 / rate, rel=0.05)


def test_mmpp_switches_between_visible_regimes():
    """Windowed rates must show both the calm and the burst regime."""
    rate = 5.0
    arrivals = make_arrivals("mmpp", rate_hz=rate, seed=4)
    times = np.asarray(arrivals.schedule(4000))
    window = arrivals.mean_dwell_s
    edges = np.arange(0.0, times[-1], window)
    counts, _ = np.histogram(times, bins=edges)
    windowed = counts / window
    # Calm windows run near 0.5x the mean, burst windows near 1.5x.
    assert windowed.min() < 0.8 * rate
    assert windowed.max() > 1.2 * rate
    # The long-run mean stays at the requested rate.
    assert len(times) / times[-1] == pytest.approx(rate, rel=0.15)


def test_mmpp_regime_chain_cycles():
    arrivals = MMPPArrivals(rates_hz=(1.0, 10.0), mean_dwell_s=5.0, seed=1)
    arrivals.schedule(2000)
    assert arrivals.regime_at(0.0) in (0, 1)
    with pytest.raises(ConfigurationError):
        arrivals.regime_at(arrivals._switch_at + 1.0)


def test_diurnal_day_half_beats_night_half():
    """More arrivals land in the sin>0 half-period than the sin<0 half."""
    arrivals = DiurnalArrivals(rate_hz=5.0, period_s=50.0, depth=0.8, seed=6)
    times = np.asarray(arrivals.schedule(3000))
    phase = np.mod(times, 50.0)
    day = int(np.sum(phase < 25.0))
    night = len(times) - day
    assert day > 1.5 * night
    assert arrivals.rate_at(12.5) == pytest.approx(5.0 * 1.8)
    assert arrivals.rate_at(37.5) == pytest.approx(5.0 * 0.2)


# ----------------------------------------------------------------------
# Fleet determinism and harness parity
# ----------------------------------------------------------------------
@pytest.mark.parametrize("kind", ARRIVAL_KINDS)
def test_fleet_same_seed_is_bit_identical(kind):
    def summary():
        fleet = build_fleet(
            FleetConfig(
                replicas=3, arrivals=kind, policy="cost-aware", seed=99,
                arrival_seed=5,
            )
        )
        return fleet.run(duration_s=25.0)

    assert summary() == summary()


def test_single_replica_fleet_matches_serving_loop():
    """One FIFO replica reproduces the sequential harness bit for bit.

    The decide/observe interleaving of a single-flight FIFO lane is
    exactly the harness's per-input round trip, so with twin engines
    and twin controllers every outcome field must match — the core
    guarantee that the kernel split changed nothing about the
    decision logic, only who drives it.
    """
    scenario = build_scenario("CPU1", "image", "memory", "standard", 20200417)
    goal = Goal(
        objective=ObjectiveKind.MINIMIZE_ENERGY,
        deadline_s=1.25 * scenario.anchor_latency_s(),
        accuracy_min=0.90,
    )
    n = 80
    harness = ServingLoop(
        scenario.make_engine(), scenario.make_stream(),
        make_alert(scenario.profile()), goal,
    ).run(n)

    outcomes = []
    # Built through the one construction path; the config's scenario is
    # a seeded twin of the harness's, so outcomes must still match.
    fleet = build_fleet(
        FleetConfig(
            platform="CPU1", task="image", env="memory", seed=20200417,
            deadline_factor=1.25, accuracy_min=0.90,
            replicas=1, policy="round-robin", queue_capacity=None,
            arrivals="poisson", rate_hz=1.0 / goal.deadline_s,
            arrival_seed=3,
        )
    )
    fleet.on_served = lambda request, outcome: outcomes.append(outcome)
    summary = fleet.run_requests(n)

    assert summary["served"] == n
    assert summary["dropped"] == 0
    for record, outcome in zip(harness.records, outcomes):
        assert outcome.model_name == record.outcome.model_name
        assert outcome.power_cap_w == record.outcome.power_cap_w
        assert outcome.completed_rungs == record.outcome.completed_rungs
        assert outcome.latency_s == record.outcome.latency_s
        assert outcome.quality == record.outcome.quality
        assert outcome.energy.total_j == record.outcome.energy.total_j
