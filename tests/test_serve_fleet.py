"""Fleet front-end unit and behaviour tests.

Clocks, load-balancing policies, bounded admission, power-budget
partitioning with churn, contention sensitivity, and mid-run
requirement-trace rewrites — the serving-system behaviours layered on
top of the clock-free decision kernel.
"""

import pytest

from repro.core.kernel import AlertKernel
from repro.core.selector import ConfigSelector
from repro.errors import ConfigurationError
from repro.runtime.clock import SimulatedClock, VirtualClock, WallClock
from repro.serve import FleetConfig, PowerBudget, build_fleet, make_policy
from repro.serve.policies import (
    POLICY_KINDS,
    CostAwarePolicy,
    LeastLoadedPolicy,
    RoundRobinPolicy,
)
from repro.workloads.traces import RequirementChange, RequirementTrace


# ----------------------------------------------------------------------
# Clocks
# ----------------------------------------------------------------------
def test_simulated_clock_is_an_odometer():
    clock = SimulatedClock()
    assert clock.now() == 0.0
    clock.tick(0.5)
    clock.tick(0.25)
    assert clock.now() == 0.75
    assert clock.ticks == 2
    clock.tick_many(1.0, 4)
    assert clock.now() == 1.75
    assert clock.ticks == 6
    with pytest.raises(ConfigurationError):
        clock.tick(-0.1)
    with pytest.raises(ConfigurationError):
        clock.tick_many(-1.0, 2)


def test_virtual_clock_fires_in_time_then_insertion_order():
    clock = VirtualClock()
    fired = []
    clock.schedule(2.0, lambda: fired.append("late"))
    clock.schedule(1.0, lambda: fired.append("tie-first"))
    clock.schedule(1.0, lambda: fired.append("tie-second"))
    assert clock.run() == 3
    assert fired == ["tie-first", "tie-second", "late"]
    assert clock.now() == 2.0


def test_virtual_clock_cancel_and_reentrancy():
    clock = VirtualClock()
    fired = []
    doomed = clock.schedule(1.0, lambda: fired.append("doomed"))
    doomed.cancel()
    # Callbacks may schedule further events, including at zero delay.
    clock.schedule(
        2.0, lambda: clock.schedule(0.0, lambda: fired.append("chained"))
    )
    clock.run()
    assert fired == ["chained"]
    with pytest.raises(ConfigurationError):
        clock.schedule(-1.0, lambda: None)


def test_virtual_clock_run_until_lands_exactly_on_horizon():
    clock = VirtualClock()
    fired = []
    clock.schedule(1.0, lambda: fired.append(1))
    clock.schedule(5.0, lambda: fired.append(5))
    assert clock.run(until_s=3.0) == 1
    assert fired == [1]
    assert clock.now() == 3.0  # window closes at the horizon
    assert clock.pending == 1  # the late event survives for a later run
    clock.run()
    assert fired == [1, 5]


def test_wall_clock_starts_at_zero_and_rejects_past_scheduling():
    import asyncio

    loop = asyncio.new_event_loop()
    try:
        clock = WallClock(loop)
        # Origin-at-construction: the wall clock shares the virtual
        # clocks' starts-near-zero convention, so arrival timelines
        # and response arithmetic transfer unchanged.
        assert 0.0 <= clock.now() < 1.0
        with pytest.raises(ConfigurationError):
            clock.schedule(-0.5, lambda: None)
    finally:
        loop.close()


# ----------------------------------------------------------------------
# Policies
# ----------------------------------------------------------------------
class StubReplica:
    def __init__(self, replica_id, backlog, expected=None):
        self.replica_id = replica_id
        self.backlog = backlog
        self._expected = expected
        self.active = True

    def expected_latency_s(self, goal):
        return self._expected


def test_round_robin_cycles_deterministically():
    policy = RoundRobinPolicy()
    replicas = [StubReplica(i, 0) for i in range(3)]
    picks = [policy.select(replicas, None).replica_id for _ in range(6)]
    assert picks == [0, 1, 2, 0, 1, 2]


def test_least_loaded_breaks_ties_on_lowest_id():
    policy = LeastLoadedPolicy()
    replicas = [StubReplica(0, 2), StubReplica(1, 1), StubReplica(2, 1)]
    assert policy.select(replicas, None).replica_id == 1


def test_cost_aware_weighs_backlog_by_kernel_estimate():
    policy = CostAwarePolicy()
    # Replica 0 is idle but believes it is slow; replica 1 has one
    # request queued but expects to drain twice as fast per request.
    slow_idle = StubReplica(0, 0, expected=1.0)
    fast_busy = StubReplica(1, 1, expected=0.4)
    assert policy.select([slow_idle, fast_busy], None).replica_id == 1
    # Without estimates anywhere, degrade to least-loaded.
    blind = [StubReplica(0, 3, None), StubReplica(1, 1, None)]
    assert policy.select(blind, None).replica_id == 1


def test_cost_aware_fleet_selects_once_per_belief_epoch(monkeypatch):
    """Probes and the dispatch between two observations share a select.

    Every replica's kernel answers repeated decides from its cache until
    its next observation, so selects are bounded by observations plus
    the one decide each replica makes before its first observation —
    and the fleet serves exactly what it serves with the cache bypassed.
    """
    config = FleetConfig(replicas=4, policy="cost-aware")
    counts = {"select": 0, "observe": 0}
    real_select = ConfigSelector.select
    real_observe = AlertKernel.observe

    def counting_select(self, *args, **kwargs):
        counts["select"] += 1
        return real_select(self, *args, **kwargs)

    def counting_observe(self, measurement):
        counts["observe"] += 1
        return real_observe(self, measurement)

    monkeypatch.setattr(ConfigSelector, "select", counting_select)
    monkeypatch.setattr(AlertKernel, "observe", counting_observe)
    summary = build_fleet(config).run_requests(300)
    assert summary["served"] == 300
    assert counts["select"] <= counts["observe"] + config.replicas
    cached_selects = counts["select"]

    real_decide = AlertKernel.decide

    def uncached_decide(self, goal):
        self._selections.clear()
        return real_decide(self, goal)

    monkeypatch.setattr(AlertKernel, "decide", uncached_decide)
    counts["select"] = 0
    assert build_fleet(config).run_requests(300) == summary
    # Bypassed, every probe pays its own select.
    assert counts["select"] > 2 * cached_selects


def test_policy_factory():
    for kind in POLICY_KINDS:
        assert make_policy(kind).kind == kind
    with pytest.raises(ConfigurationError):
        make_policy("random")


# ----------------------------------------------------------------------
# Budget
# ----------------------------------------------------------------------
def test_power_budget_partition():
    assert PowerBudget(None).share_w(3) is None
    assert PowerBudget(120.0).share_w(4) == 30.0
    with pytest.raises(ConfigurationError):
        PowerBudget(-5.0)
    with pytest.raises(ConfigurationError):
        PowerBudget(120.0).share_w(0)


def test_budget_clamps_replica_power_decisions():
    capped = build_fleet(FleetConfig(replicas=2, power_budget_w=40.0, seed=7))
    for replica in capped.replicas:
        assert replica.power_cap_w == 20.0
    capped_summary = capped.run(duration_s=20.0)
    uncapped = build_fleet(
        FleetConfig(replicas=2, power_budget_w=None, seed=7)
    )
    uncapped_summary = uncapped.run(duration_s=20.0)
    assert capped_summary["served"] > 0
    # A 20 W per-replica cap forces lower-power (slower) configurations
    # than the unconstrained fleet picks on this platform.
    assert (
        capped_summary["mean_service_s"] > uncapped_summary["mean_service_s"]
    )


def test_churn_repartitions_budget_and_redispatches():
    fleet = build_fleet(FleetConfig(replicas=3, power_budget_w=90.0, seed=13))
    assert [r.power_cap_w for r in fleet.replicas] == [30.0, 30.0, 30.0]
    # Drain replica 0 mid-run; its queue must flow to the survivors
    # and the survivors' power share must grow to 45 W each.
    fleet.clock.schedule(10.0, lambda: fleet.deactivate_replica(0))
    summary = fleet.run(duration_s=40.0)
    assert not fleet.replicas[0].active
    assert fleet.replicas[0].power_cap_w == 30.0  # last share it held
    for survivor in fleet.replicas[1:]:
        assert survivor.power_cap_w == 45.0
    assert summary["served"] > 0
    # The drained lane serves nothing after the churn instant, the
    # survivors keep serving.
    assert summary["per_replica_served"][1] > 0
    assert summary["per_replica_served"][2] > 0
    with pytest.raises(ConfigurationError):
        fleet.deactivate_replica(99)


# ----------------------------------------------------------------------
# Admission and drops
# ----------------------------------------------------------------------
def test_bounded_queue_drops_and_accounts():
    scenario_rate = None  # default ~0.7 utilisation
    comfortable = build_fleet(
        FleetConfig(
            replicas=2, rate_hz=scenario_rate, queue_capacity=64, seed=3
        )
    ).run(duration_s=20.0)
    assert comfortable["dropped"] == 0
    overloaded = build_fleet(
        FleetConfig(
            replicas=2,
            rate_hz=40.0,  # far beyond two replicas' capacity
            queue_capacity=4,
            seed=3,
        )
    ).run(duration_s=20.0)
    assert overloaded["drops"]["queue_full"] > 0
    assert (
        overloaded["admitted"] + overloaded["dropped"]
        == overloaded["arrived"]
    )
    # Conservation: everything admitted is served or still in flight
    # when the window closes.
    assert overloaded["served"] <= overloaded["admitted"]


# ----------------------------------------------------------------------
# Contention reaches the fleet path (satellite: hw/contention.py)
# ----------------------------------------------------------------------
def test_contention_shifts_fleet_tails():
    """The co-located contention process must shape fleet metrics.

    Same seeds, same arrivals, same policy — only the environment
    changes.  Memory contention slows inference, so the loaded fleet's
    response tail and violation count must move.
    """
    quiet = build_fleet(
        FleetConfig(env="default", replicas=2, seed=21)
    ).run(90.0)
    contended = build_fleet(
        FleetConfig(env="memory", replicas=2, seed=21)
    ).run(90.0)
    assert contended["p99_response_s"] > quiet["p99_response_s"]
    assert contended["violations"] >= quiet["violations"]
    assert contended["mean_service_s"] > quiet["mean_service_s"]


# ----------------------------------------------------------------------
# Requirement traces rewrite goals at arrival boundaries
# ----------------------------------------------------------------------
def test_requirement_trace_changes_goals_mid_run():
    tight = 0.06
    trace = RequirementTrace(
        [RequirementChange(start_index=25, deadline_s=tight)]
    )
    served = []
    fleet = build_fleet(FleetConfig(replicas=2, seed=5, trace=trace))
    fleet.on_served = lambda request, outcome: served.append(
        (request.index, request.goal.deadline_s, outcome.deadline_s)
    )
    fleet.run_requests(60)
    assert len(served) == 60
    base_deadline = fleet.goal.deadline_s
    for index, goal_deadline, outcome_deadline in served:
        expected = tight if index >= 25 else base_deadline
        # The goal the request travelled under and the deadline the
        # engine actually enforced both follow the trace boundary.
        assert goal_deadline == expected
        assert outcome_deadline == expected
