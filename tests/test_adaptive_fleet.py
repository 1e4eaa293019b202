"""Adaptive-fleet tests: autoscaler, ξ-weighted budget, batching.

Covers the adaptivity layer on top of the fleet front-end: the
budget/autoscaler registries, the ξ-weighted partition math and its
drift trigger, the autoscaler's corridor/cooldown behaviour under
bursty load, contention-driven scale-up, request batching, the wall
clock run mode, and the determinism guarantees the virtual clock
makes about all of it.
"""

import dataclasses
from collections import Counter
from types import SimpleNamespace

import pytest

from repro.errors import ConfigurationError
from repro.hw.contention import ContentionPhase, ContentionProcess
from repro.serve import (
    AUTOSCALER_KINDS,
    BUDGET_KINDS,
    Autoscaler,
    FleetConfig,
    PowerBudget,
    XiWeightedBudget,
    build_fleet,
    make_autoscaler,
    make_budget,
)
from repro.serve.replica import Replica
from repro.workloads.scenarios import build_scenario


# ----------------------------------------------------------------------
# Registries
# ----------------------------------------------------------------------
def test_budget_registry():
    assert BUDGET_KINDS == ("equal", "xi-weighted")
    assert isinstance(make_budget("equal", 100.0), PowerBudget)
    weighted = make_budget("xi-weighted", 100.0, drift_threshold=0.3)
    assert isinstance(weighted, XiWeightedBudget)
    assert weighted.drift_threshold == 0.3
    for kind in BUDGET_KINDS:
        assert make_budget(kind).kind == kind
    with pytest.raises(ConfigurationError):
        make_budget("proportional")
    with pytest.raises(ConfigurationError):
        make_budget("equal", -10.0)


def test_autoscaler_registry():
    assert AUTOSCALER_KINDS == ("none", "signal")
    assert make_autoscaler("none") is None
    scaler = make_autoscaler("signal", min_replicas=2, max_replicas=5)
    assert isinstance(scaler, Autoscaler)
    assert (scaler.min_replicas, scaler.max_replicas) == (2, 5)
    with pytest.raises(ConfigurationError):
        make_autoscaler("none", min_replicas=2)  # silent intent drop
    with pytest.raises(ConfigurationError):
        make_autoscaler("reactive")


def test_autoscaler_validation():
    with pytest.raises(ConfigurationError):
        Autoscaler(min_replicas=0)
    with pytest.raises(ConfigurationError):
        Autoscaler(min_replicas=4, max_replicas=2)
    with pytest.raises(ConfigurationError):
        Autoscaler(interval_s=0.0)
    with pytest.raises(ConfigurationError):
        Autoscaler(cooldown_s=-1.0)
    with pytest.raises(ConfigurationError):
        Autoscaler(up_backlog=1.0, down_backlog=1.5)


# ----------------------------------------------------------------------
# ξ-weighted partition math (stub replicas, no fleet)
# ----------------------------------------------------------------------
def _stub_replica(replica_id, xi=None):
    kernel = SimpleNamespace()
    if xi is not None:
        kernel.slowdown = SimpleNamespace(snapshot=lambda xi=xi: (xi, 0.1))
    return SimpleNamespace(replica_id=replica_id, kernel=kernel)


def test_xi_weighted_shares_follow_beliefs():
    budget = XiWeightedBudget(100.0)
    slowed = _stub_replica(0, xi=3.0)
    nominal = _stub_replica(1, xi=1.0)
    shares = budget.partition([slowed, nominal])
    assert sum(shares) == pytest.approx(100.0)
    # The replica that believes it is 3x slowed needs (and gets) 3x
    # the watts of the unperturbed one.
    assert shares[0] == pytest.approx(75.0)
    assert shares[1] == pytest.approx(25.0)


def test_estimate_free_replicas_degrade_to_equal_split():
    budget = XiWeightedBudget(90.0)
    blind = [_stub_replica(i) for i in range(3)]
    assert budget.partition(blind) == pytest.approx([30.0, 30.0, 30.0])


def test_drift_triggers_repartition():
    budget = XiWeightedBudget(100.0, drift_threshold=0.2)
    kernel = SimpleNamespace(
        slowdown=SimpleNamespace(snapshot=lambda: (1.0, 0.1))
    )
    replica = SimpleNamespace(replica_id=0, kernel=kernel)
    other = _stub_replica(1, xi=1.0)
    budget.partition([replica, other])
    assert not budget.needs_repartition([replica, other])
    # Belief moves 10% — inside the threshold, no re-cut.
    kernel.slowdown = SimpleNamespace(snapshot=lambda: (1.1, 0.1))
    assert not budget.needs_repartition([replica, other])
    # Belief moves 50% — past the threshold.
    kernel.slowdown = SimpleNamespace(snapshot=lambda: (1.5, 0.1))
    assert budget.needs_repartition([replica, other])
    # Membership changes always re-cut.
    budget.partition([replica, other])
    assert budget.needs_repartition([replica, _stub_replica(7, xi=1.0)])
    # An uncapped budget never bothers.
    assert not XiWeightedBudget(None).needs_repartition([replica])


# ----------------------------------------------------------------------
# Autoscaler behaviour on real fleets (virtual time)
# ----------------------------------------------------------------------
@pytest.mark.parametrize(
    "replicas, min_replicas, max_replicas",
    [(2, 3, 6), (4, 1, 2), (2, 3, None)],  # None resolves to 2 x replicas
)
def test_fleet_must_start_inside_the_autoscaler_corridor(
    replicas, min_replicas, max_replicas
):
    config = FleetConfig(
        replicas=replicas,
        autoscaler="signal",
        min_replicas=min_replicas,
        max_replicas=max_replicas,
    )
    with pytest.raises(ConfigurationError, match="corridor"):
        build_fleet(config)
    # Starting on the corridor's floor is fine.
    build_fleet(dataclasses.replace(config, replicas=min_replicas))


def test_underloaded_fleet_scales_to_min_floor():
    fleet = build_fleet(
        FleetConfig(
            env="default",  # no contention noise: a genuinely calm fleet
            replicas=3,
            rate_hz=0.5,  # a trickle: three replicas are two too many
            autoscaler="signal",
            min_replicas=1,
            seed=11,
        )
    )
    summary = fleet.run(120.0)
    # The over-provisioned lanes were shed, and the run ends at the
    # floor (sparse windows can make the violation-rate signal noisy —
    # one late request out of two served — so the scaler may briefly
    # bounce, but it always settles back to min and never below it).
    assert summary["active_replicas"] == 1
    scaling = summary["autoscaler"]
    assert scaling["scale_downs"] >= 2
    assert all(e.n_active >= 1 for e in fleet.autoscaler.events)


def test_cooldown_spaces_actions_under_mmpp_burst():
    cooldown = 12.0
    fleet = build_fleet(
        FleetConfig(
            replicas=2,
            arrivals="mmpp",
            rate_hz=6.5,  # bursts overload two replicas
            autoscaler="signal",
            max_replicas=6,
            autoscaler_params={"interval_s": 2.0, "cooldown_s": cooldown},
            seed=11,
        )
    )
    fleet.run(180.0)
    events = fleet.autoscaler.events
    assert len(events) >= 2  # the burst actually churned the fleet
    gaps = [
        later.time_s - earlier.time_s
        for earlier, later in zip(events, events[1:])
    ]
    # Hysteresis: consecutive actions never land closer than the
    # cooldown, however hard the MMPP regimes flip the signals.
    assert all(gap >= cooldown for gap in gaps)


def test_scale_events_repartition_the_budget():
    total = 120.0
    fleet = build_fleet(
        FleetConfig(
            replicas=2,
            arrivals="mmpp",
            rate_hz=6.5,
            power_budget_w=total,
            budget="xi-weighted",
            autoscaler="signal",
            max_replicas=6,
            seed=11,
        )
    )
    summary = fleet.run(180.0)
    assert summary["autoscaler"]["events"] > 0
    # However many lanes the run ended on, the *current* partition
    # spans exactly the active set and spends the whole budget.
    caps = [r.power_cap_w for r in fleet.active_replicas]
    assert sum(caps) == pytest.approx(total)
    # Inactive lanes keep the stale share they last held — proof the
    # re-cut happened on the active set, not the full roster.
    assert len(caps) == summary["active_replicas"]


def test_autoscaled_fleet_same_seed_is_bit_identical():
    config = FleetConfig(
        replicas=2,
        arrivals="mmpp",
        rate_hz=6.5,
        power_budget_w=90.0,
        budget="xi-weighted",
        autoscaler="signal",
        max_replicas=6,
        batch_size=2,
        seed=47,
    )

    def run():
        return build_fleet(config).run(150.0)

    assert run() == run()


def test_contention_phase_triggers_scale_up():
    """A co-located job switching on mid-run must recruit replicas.

    Explicit contention phases (hw/contention.py) drive every lane's
    engine: the quiet prefix fits comfortably in two replicas, then
    the memory job starts at request 60 and nearly doubles service
    times — backlog and violations climb until the autoscaler reacts.
    The corridor floor is pinned at the starting size so the calm
    prefix cannot shed lanes: every event is a reaction to the job.
    """
    quiet_then_contended = (
        ContentionPhase(start=60, stop=100_000, active=True),
    )
    fleet = build_fleet(
        FleetConfig(
            env="memory",
            phases=quiet_then_contended,
            replicas=2,
            rate_hz=5.2,  # ~0.7 load quiet; past saturation contended
            autoscaler="signal",
            min_replicas=2,
            max_replicas=5,
            seed=23,
        )
    )
    summary = fleet.run(150.0)
    scaling = summary["autoscaler"]
    assert scaling["scale_ups"] >= 1
    assert scaling["max_active"] > 2
    # Nothing scaled before the job switched on.
    onset_s = fleet.arrivals.time_of(60)
    assert all(e.time_s > onset_s for e in fleet.autoscaler.events)


# ----------------------------------------------------------------------
# Batching
# ----------------------------------------------------------------------
def test_batching_amortises_kernel_decisions():
    def decisions(batch_size):
        fleet = build_fleet(
            FleetConfig(
                replicas=1,
                rate_hz=12.0,  # well past one replica's capacity
                queue_capacity=None,
                batch_size=batch_size,
                seed=31,
            )
        )
        summary = fleet.run_requests(120)
        replica = fleet.replicas[0]
        assert summary["served"] == 120
        return replica.decisions

    assert decisions(1) == 120  # classic path: one decide per request
    assert decisions(8) < 120 / 4  # deep queue: most requests ride along


def test_batch_size_validation():
    with pytest.raises(ConfigurationError):
        Replica(0, None, lambda: None, None, None, batch_size=0)
    with pytest.raises(ConfigurationError):
        FleetConfig(replicas=0)
    with pytest.raises(ConfigurationError):
        FleetConfig(clock="cuckoo")


# ----------------------------------------------------------------------
# Wall-clock run mode
# ----------------------------------------------------------------------
def test_run_wall_serves_real_traffic():
    fleet = build_fleet(
        FleetConfig(
            replicas=1,
            rate_hz=300.0,
            queue_capacity=8,
            clock="wall",
            seed=3,
        )
    )
    summary = fleet.serve(0.25)
    # Real quarter-second of traffic: arrivals fired from the asyncio
    # loop, the bounded queue dropped the excess, accounting balances.
    assert summary["arrived"] > 0
    assert summary["admitted"] + summary["dropped"] == summary["arrived"]


def test_replicas_are_twins_that_draw_each_input_once(monkeypatch):
    """Every replica, the autoscaled ones too, is a twin of one engine:
    the fleet draws each input's environment once, each replica keeps
    its own actuator, and a twin reads the draws a fresh engine of the
    scenario makes, whichever engine reaches an input first."""
    draws = Counter()
    sample = ContentionProcess.sample

    def counting_sample(self, index):
        draws[index] += 1
        return sample(self, index)

    monkeypatch.setattr(ContentionProcess, "sample", counting_sample)
    phases = (ContentionPhase(start=60, stop=100_000, active=True),)
    fleet = build_fleet(FleetConfig(
        env="memory", phases=phases, replicas=2, rate_hz=5.2,
        autoscaler="signal", min_replicas=2, max_replicas=5, seed=23,
    ))
    summary = fleet.run(150.0)
    assert summary["autoscaler"]["scale_ups"] >= 1
    assert len(fleet.replicas) > 2
    assert len(draws) > 100 and set(draws.values()) == {1}
    actuators = {id(replica.engine.actuator) for replica in fleet.replicas}
    assert len(actuators) == len(fleet.replicas)

    scenario = build_scenario("CPU1", "image", "memory", "standard", 23)
    engine = scenario.make_engine(list(phases))
    twin = engine.twin()
    assert twin.actuator is not engine.actuator
    twin.environment(70)  # the twin draws ahead; the engine re-reads
    fresh = scenario.make_engine(list(phases))
    for index in range(80):
        assert engine.environment(index) is twin.environment(index)
        assert twin.environment(index) == fresh.environment(index)
