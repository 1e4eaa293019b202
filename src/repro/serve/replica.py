"""One serving replica: an engine + controller pair on the event loop.

A replica is the event-loop re-expression of the closed-loop
:class:`~repro.runtime.loop.ServingLoop` round trip, rebased on the
clock-free kernel split:

* **decide** happens at dispatch time (a request leaves the FIFO);
* the engine realises the outcome and the replica goes *busy* for the
  outcome's service latency (one dispatch in flight per replica — the
  paper's single-accelerator machine model);
* **observe** happens at finish time, feeding the kernel a
  :class:`~repro.core.kernel.Measurement` via the same
  ``measurement_from_outcome`` convention the harness uses — it is the
  driver, not the kernel, that owns the idle-phase question.

With one replica, a FIFO queue, and ``batch_size=1`` this interleaving
(decide_n, serve_n, observe_n, decide_{n+1}, ...) is exactly the
sequential harness path, which is what the fleet/harness parity test
pins.

**Batching.**  With ``batch_size > 1`` a dispatch drains up to
``batch_size`` queued requests that share the head request's goal
through *one* kernel ``decide``: the whole batch runs back-to-back
under the chosen configuration, each request finishing (and feeding
its own measurement back) at its cumulative completion instant.  Under
burst this amortises the decision cost across the batch — the kernel's
belief cannot meaningfully move between two requests that are already
queued — while queue-time accounting and per-request response times
stay exact.  ``decisions`` counts kernel decides, so tests and benches
can see the amortisation directly.
"""

from __future__ import annotations

from collections import deque

from repro.core.kernel import kernel_of, measurement_from_outcome
from repro.errors import ConfigurationError

__all__ = ["Replica"]


class Replica:
    """A serving lane owning its own controller state.

    Parameters
    ----------
    replica_id:
        Stable integer id; policies use it for deterministic ties.
    engine / scheduler:
        The replica's private engine realisation and policy adapter
        (per-replica controller state — each replica tracks its own ξ).
    clock:
        A scheduling clock (:class:`~repro.runtime.clock.VirtualClock`
        or ``WallClock``); service completions are posted onto it.
    metrics:
        Shared :class:`~repro.serve.metrics.FleetMetrics` sink.
    power_cap_w:
        The replica's share of the fleet power budget, or ``None`` for
        uncapped.  Re-assigned by the front-end on churn and belief
        drift; decisions requesting more power are clamped to the
        share.
    batch_size:
        Maximum queued requests dispatched through one kernel decide
        (1 = the classic one-decision-per-request path).
    """

    def __init__(
        self,
        replica_id: int,
        engine,
        scheduler,
        clock,
        metrics,
        power_cap_w: float | None = None,
        batch_size: int = 1,
    ) -> None:
        if batch_size < 1:
            raise ConfigurationError(
                f"batch size must be >= 1, got {batch_size}"
            )
        self.replica_id = replica_id
        self.engine = engine
        self.scheduler = scheduler
        self.kernel = kernel_of(scheduler)
        self.clock = clock
        self.metrics = metrics
        self.power_cap_w = power_cap_w
        self.batch_size = batch_size
        self.queue: deque = deque()
        self.active = True
        self.served = 0
        self.decisions = 0
        self._in_flight = 0
        #: Hook the front-end installs to observe completions (belief
        #: drift checks, autoscaler window evaluation).
        self.on_finish = None

    @property
    def busy(self) -> bool:
        """Whether a dispatch (one request or one batch) is in flight."""
        return self._in_flight > 0

    @property
    def backlog(self) -> int:
        """Requests this replica still owes: queued plus in flight."""
        return len(self.queue) + self._in_flight

    def expected_latency_s(self, goal) -> float | None:
        """The kernel's current latency belief for ``goal``, or ``None``.

        Probes ``kernel.decide`` — which never touches filter state,
        and whose selection the dispatch under the same belief reuses
        exactly — and reads the selection's estimate.
        Kernels that return a bare configuration (no estimate record)
        yield ``None`` and the cost-aware policy degrades gracefully.
        """
        selection = self.kernel.decide(goal)
        estimate = getattr(selection, "estimate", None)
        if estimate is None:
            return None
        return estimate.latency_mean_s

    def _clamp_power(self, power_w: float) -> float:
        """Hold a decision's power to this replica's budget share.

        Belief-weighted partitions hand out arbitrary watt shares, but
        observation replays need *profiled* operating points — so the
        clamp snaps down to the highest profiled power rung under the
        cap (never below the lowest rung; a share that small is an
        upper bound the hardware cannot express).  Kernels without a
        profile table fall back to the raw cap.
        """
        if self.power_cap_w is None or power_w <= self.power_cap_w:
            return power_w
        profile = getattr(self.kernel, "profile", None)
        powers = getattr(profile, "powers", None)
        if not powers:
            return self.power_cap_w
        eligible = [p for p in powers if p <= self.power_cap_w]
        return max(eligible) if eligible else min(powers)

    # ------------------------------------------------------------------
    # Event flow: submit -> dispatch -> finish -> dispatch next
    # ------------------------------------------------------------------
    def submit(self, request) -> None:
        """Accept an admitted request; dispatch immediately if idle."""
        self.queue.append(request)
        self._maybe_start()

    def drain(self) -> list:
        """Deactivate: stop accepting dispatches, return queued requests.

        In-flight requests (if any) finish normally and still record;
        the queued remainder is handed back to the front-end for
        re-dispatch to the surviving replicas.
        """
        self.active = False
        stranded = list(self.queue)
        self.queue.clear()
        return stranded

    def _maybe_start(self) -> None:
        if self._in_flight or not self.active or not self.queue:
            return
        head = self.queue.popleft()
        batch = [head]
        # Only requests arriving under the *same* goal may share the
        # head's decision — a requirement-trace boundary inside the
        # queue ends the batch.
        while (
            len(batch) < self.batch_size
            and self.queue
            and self.queue[0].goal == head.goal
        ):
            batch.append(self.queue.popleft())
        goal = head.goal
        config = self.scheduler.decide(head.item, goal)
        self.decisions += 1
        power_w = self._clamp_power(config.power_w)
        self._in_flight = len(batch)
        offset = 0.0
        for request in batch:
            outcome = self.engine.run(
                model=config.model,
                power_cap_w=power_w,
                index=request.item.index,
                deadline_s=goal.deadline_s,
                period_s=goal.period,
                work_factor=request.item.work_factor,
                rung_cap=config.rung_cap,
            )
            offset += outcome.latency_s
            self.clock.schedule(
                offset,
                lambda r=request, o=outcome: self._finish(r, o),
            )

    def _finish(self, request, outcome) -> None:
        """Service completed: observe, account, dispatch the next."""
        self._in_flight -= 1
        # Same measurement convention as the closed-loop harness (idle
        # sample iff the accounting period had an idle phase), so a
        # one-replica fleet reproduces the ServingLoop filter states
        # bit for bit — pinned by the fleet/harness parity test.
        self.kernel.observe(measurement_from_outcome(outcome))
        self.served += 1
        response_s = self.clock.now() - request.arrival_s
        self.metrics.record_served(
            replica_id=self.replica_id,
            response_s=response_s,
            service_s=outcome.latency_s,
            violated=response_s > request.goal.deadline_s + 1e-12,
            energy_j=outcome.energy.total_j,
        )
        if request.on_served is not None:
            request.on_served(request, outcome)
        if self.on_finish is not None:
            self.on_finish(self)
        self._maybe_start()
