"""The open-loop fleet front-end: arrivals, admission, dispatch.

This is the serving-system counterpart of the closed-loop harness.
Where :class:`~repro.runtime.loop.ServingLoop` *pulls* the next input
the instant the previous one finishes, the front-end is *open loop*:
an arrival process (:mod:`repro.workloads.traces`) pushes requests at
its own pace, a bounded admission queue drops what the fleet cannot
absorb, and a load-balancing policy (:mod:`repro.serve.policies`)
spreads the admitted requests over N replicas, each running its own
ALERT controller.

The fleet adapts itself: an optional
:class:`~repro.serve.autoscaler.Autoscaler` churns replicas from the
queue/drop/violation signals (reactivating drained lanes warm, or
building fresh ones through ``replica_factory``), and the
:class:`~repro.serve.budget.PowerBudget` partition is re-cut on every
churn *and* — for belief-weighted budgets — whenever a replica's ξ
estimate drifts past the partition's threshold.

Everything runs on a scheduling clock.  With
:class:`~repro.runtime.clock.VirtualClock` (the default and the test
mode) a run is fully deterministic — same seeds, same event order,
same metrics — and a simulated hour completes in however long the
Python work takes; :meth:`FleetFrontend.run_wall` drives the same
event flow on a live :mod:`asyncio` loop under real concurrency.

Requirement traces compose: when one is supplied, each arrival's goal
is the trace-rewritten goal at that arrival index, so fleet goals
change at arrival boundaries exactly as harness goals change at input
boundaries.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

from repro.core.goals import Goal
from repro.errors import ConfigurationError
from repro.runtime.clock import VirtualClock, WallClock
from repro.serve.budget import PowerBudget
from repro.serve.metrics import FleetMetrics
from repro.workloads.inputs import InputItem
from repro.workloads.traces import ArrivalProcess, RequirementTrace

__all__ = ["Request", "FleetFrontend"]


@dataclass(slots=True)
class Request:
    """One admitted unit of work travelling through the fleet."""

    index: int
    item: InputItem
    goal: Goal
    arrival_s: float
    on_served: object | None = field(default=None, repr=False)


class FleetFrontend:
    """Drive N replicas from an arrival process on one clock.

    Parameters
    ----------
    replicas:
        The :class:`~repro.serve.replica.Replica` lanes, id order.
    arrivals:
        Seeded :class:`~repro.workloads.traces.ArrivalProcess`.
    stream:
        Input stream; arrival ``i`` serves ``stream.item(i)``.
    goal:
        The base goal every request arrives under (before trace
        rewrites).
    policy:
        :class:`~repro.serve.policies.LoadBalancingPolicy` instance.
    clock:
        Shared scheduling clock; defaults to a fresh
        :class:`~repro.runtime.clock.VirtualClock`.
    queue_capacity:
        Fleet-wide backlog bound (queued + in flight, summed over
        active replicas).  Arrivals beyond it are dropped and
        accounted; ``None`` means unbounded.
    budget:
        Optional :class:`~repro.serve.budget.PowerBudget` partitioned
        over active replicas, re-cut on churn (and on ξ drift for
        belief-weighted budgets).
    autoscaler:
        Optional :class:`~repro.serve.autoscaler.Autoscaler`; evaluated
        on every arrival and completion event.
    replica_factory:
        ``factory(replica_id) -> Replica`` the autoscaler uses to grow
        past the lanes it can reactivate.  Without one, scale-ups stop
        at the constructed fleet size.
    trace:
        Optional :class:`~repro.workloads.traces.RequirementTrace`
        rewriting goals at arrival-index boundaries.
    on_served:
        Optional ``(request, outcome)`` callback invoked as each
        request finishes — the observability hook the parity tests and
        trace consumers use.
    """

    def __init__(
        self,
        replicas,
        arrivals: ArrivalProcess,
        stream,
        goal: Goal,
        policy,
        clock=None,
        *,
        queue_capacity: int | None = None,
        budget: PowerBudget | None = None,
        autoscaler=None,
        replica_factory=None,
        trace: RequirementTrace | None = None,
        metrics: FleetMetrics | None = None,
        on_served=None,
    ) -> None:
        if not replicas:
            raise ConfigurationError("a fleet needs at least one replica")
        if queue_capacity is not None and queue_capacity < 1:
            raise ConfigurationError(
                f"queue capacity must be >= 1, got {queue_capacity}"
            )
        self.replicas = list(replicas)
        self.arrivals = arrivals
        self.stream = stream
        self.goal = goal
        self.policy = policy
        self.clock = clock if clock is not None else VirtualClock()
        self.queue_capacity = queue_capacity
        self.budget = budget if budget is not None else PowerBudget(None)
        self.autoscaler = autoscaler
        self.replica_factory = replica_factory
        self.trace = trace if trace is not None else RequirementTrace()
        self.metrics = metrics if metrics is not None else FleetMetrics()
        self.on_served = on_served
        #: Which run mode :meth:`serve` picks ("virtual" or "wall");
        #: ``build_fleet`` sets it from the config.
        self.clock_kind = "virtual"
        self._next_index = 0
        self._max_arrivals: int | None = None
        for replica in self.replicas:
            self._adopt(replica)
        self._apply_budget()
        if self.autoscaler is not None:
            self.autoscaler.attach(self)

    # ------------------------------------------------------------------
    # Fleet membership
    # ------------------------------------------------------------------
    @property
    def active_replicas(self) -> list:
        return [r for r in self.replicas if r.active]

    def _adopt(self, replica) -> None:
        replica.clock = self.clock
        replica.metrics = self.metrics
        replica.on_finish = self._replica_finished

    def _apply_budget(self) -> None:
        active = self.active_replicas
        if not active:
            return
        for replica, share in zip(active, self.budget.partition(active)):
            replica.power_cap_w = share

    def add_replica(self, replica) -> None:
        """Join a new lane mid-run; the budget is re-partitioned."""
        self._adopt(replica)
        replica.active = True
        self.replicas.append(replica)
        self._apply_budget()

    def deactivate_replica(self, replica_id: int) -> None:
        """Drain one lane: re-dispatch its queue, re-partition power."""
        for replica in self.replicas:
            if replica.replica_id == replica_id:
                stranded = replica.drain()
                break
        else:
            raise ConfigurationError(f"no replica with id {replica_id}")
        self._apply_budget()
        for request in stranded:
            self._dispatch(request)

    def scale_up(self):
        """Grow by one lane: reactivate the warmest drained lane, or
        build a fresh twin through ``replica_factory``.

        Reactivation is preferred because a drained lane's kernel keeps
        the ξ/idle-power beliefs it learned — it rejoins warm.  Returns
        the replica, or ``None`` when the fleet cannot grow (no
        inactive lane and no factory).
        """
        inactive = [r for r in self.replicas if not r.active]
        if inactive:
            replica = max(inactive, key=lambda r: r.replica_id)
            replica.active = True
            self._apply_budget()
            return replica
        if self.replica_factory is None:
            return None
        replica = self.replica_factory(len(self.replicas))
        self.add_replica(replica)
        return replica

    def scale_down(self):
        """Shrink by one lane (highest active id); never below one.

        The drained lane's queue re-dispatches to the survivors and the
        budget is re-cut, exactly as a manual ``deactivate_replica``.
        Returns the drained replica, or ``None`` at the floor.
        """
        active = self.active_replicas
        if len(active) <= 1:
            return None
        victim = max(active, key=lambda r: r.replica_id)
        self.deactivate_replica(victim.replica_id)
        return victim

    # ------------------------------------------------------------------
    # Arrival and admission
    # ------------------------------------------------------------------
    def backlog(self) -> int:
        """Fleet-wide owed requests: queued + in flight, active lanes."""
        return sum(replica.backlog for replica in self.active_replicas)

    def _goal_at(self, index: int) -> Goal:
        return self.trace.apply(self.goal, index)

    def _dispatch(self, request: Request) -> None:
        active = self.active_replicas
        if not active:
            self.metrics.record_drop("no_replica")
            return
        self.policy.select(active, request.goal).submit(request)

    def _on_arrival(self) -> None:
        index = self._next_index
        self._next_index += 1
        self._chain_next_arrival()
        self.metrics.record_arrival()
        if self.autoscaler is not None:
            self.autoscaler.maybe_evaluate()
        if (
            self.queue_capacity is not None
            and self.backlog() >= self.queue_capacity
        ):
            self.metrics.record_drop("queue_full")
            return
        request = Request(
            index=index,
            item=self.stream.item(index),
            goal=self._goal_at(index),
            arrival_s=self.clock.now(),
            on_served=self.on_served,
        )
        self.metrics.record_admitted()
        self._dispatch(request)

    def _replica_finished(self, replica) -> None:
        """Per-completion hook: belief-drift repartition + autoscaling.

        Installed on every lane.  Both checks are O(active) float
        compares on the no-op path, so the classic fleet (equal budget,
        no autoscaler) pays nothing measurable per request.
        """
        if self.budget.needs_repartition(self.active_replicas):
            self._apply_budget()
        if self.autoscaler is not None:
            self.autoscaler.maybe_evaluate()

    def _chain_next_arrival(self) -> None:
        """Post the next arrival event lazily, one ahead of *now*.

        Chaining (rather than pre-scheduling a whole schedule) keeps
        the heap small and lets a duration-bounded run stop generating
        arrivals past the horizon for free.
        """
        index = self._next_index
        if self._max_arrivals is not None and index >= self._max_arrivals:
            return
        when = self.arrivals.time_of(index)
        delay = when - self.clock.now()
        if delay < 0:
            if isinstance(self.clock, VirtualClock):
                raise ConfigurationError(
                    f"arrival {index} at {when} is already in the past"
                )
            # A live clock lags its own callbacks by real scheduling
            # latency; arrivals the wall already passed fire now.
            delay = 0.0
        self.clock.schedule(delay, self._on_arrival)

    # ------------------------------------------------------------------
    # Run modes
    # ------------------------------------------------------------------
    def summary(self) -> dict:
        """The metrics summary plus fleet-level adaptivity read-outs."""
        data = self.metrics.summary()
        data["active_replicas"] = len(self.active_replicas)
        if self.autoscaler is not None:
            data["autoscaler"] = self.autoscaler.summary()
        return data

    def serve(self, duration_s: float) -> dict:
        """Run for ``duration_s`` in whichever mode the fleet was built
        for: virtual time (:meth:`run`) or a live asyncio loop
        (:meth:`run_wall`)."""
        if self.clock_kind == "wall":
            return self.run_wall(duration_s)
        return self.run(duration_s)

    def run(self, duration_s: float) -> dict:
        """Serve the arrival timeline for ``duration_s`` virtual seconds.

        Only meaningful on a :class:`VirtualClock`.  The metrics window
        closes exactly at ``duration_s``: requests still in flight at
        the horizon are neither served nor violations — they are simply
        outside the window, as in any fixed-duration load test.
        """
        if not 0 < duration_s < math.inf:
            raise ConfigurationError(
                f"duration must be positive and finite, got {duration_s}"
            )
        self._chain_next_arrival()
        self.clock.run(until_s=duration_s)
        return self.summary()

    def run_requests(self, n_requests: int) -> dict:
        """Serve exactly ``n_requests`` arrivals and drain completely.

        The finite-workload mode the parity tests use: every admitted
        request finishes before the call returns, so counts are exact.
        """
        if n_requests < 1:
            raise ConfigurationError(
                f"need at least one request, got {n_requests}"
            )
        self._max_arrivals = self._next_index + n_requests
        self._chain_next_arrival()
        self.clock.run()
        return self.summary()

    def run_wall(self, duration_s: float) -> dict:
        """Serve the arrival timeline for ``duration_s`` *real* seconds.

        The real-concurrency mode: the fleet is re-bound onto a
        :class:`~repro.runtime.clock.WallClock` over a fresh asyncio
        event loop, arrivals and completions fire as ``call_later``
        callbacks at real instants, and the loop runs until the
        horizon.  The event flow — admission, dispatch, batching,
        autoscaling, budget drift — is byte-for-byte the code the
        virtual-time tests pin; only the time authority changes.
        Requests still in flight at the horizon fall outside the
        window, exactly as in :meth:`run`.
        """
        if not 0 < duration_s < math.inf:
            raise ConfigurationError(
                f"duration must be positive and finite, got {duration_s}"
            )
        import asyncio

        loop = asyncio.new_event_loop()
        try:
            self._bind_clock(WallClock(loop))
            self._chain_next_arrival()
            loop.run_until_complete(asyncio.sleep(duration_s))
        finally:
            loop.close()
        return self.summary()

    def _bind_clock(self, clock) -> None:
        """Move the whole fleet (and its autoscaler windows) to a clock."""
        self.clock = clock
        for replica in self.replicas:
            replica.clock = clock
        if self.autoscaler is not None:
            self.autoscaler.attach(self)
