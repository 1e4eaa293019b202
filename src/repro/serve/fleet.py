"""FleetConfig + build_fleet: the one way to assemble a fleet.

Fleet construction used to be hand-wired in three places (the CLI, the
throughput bench, and the tests), each repeating the same dance:
build a scenario, derive a goal, spin N replica twins, pick an arrival
rate, wrap a :class:`~repro.serve.frontend.FleetFrontend`.  The
adaptive fleet added four more knobs (budget kind, autoscaler,
batching, run-mode clock) and would have quadrupled the duplication —
so this module makes the dance a value.

:class:`FleetConfig` is a frozen dataclass naming every fleet decision
by its registry kind (``make_arrivals`` / ``make_policy`` /
``make_budget`` / ``make_autoscaler``); :func:`build_fleet` turns one
into a ready-to-run front-end.  Same config ⇒ same fleet ⇒ (on virtual
time) bit-identical runs.

Replica determinism: every lane is an identical twin — its own engine
(:meth:`~repro.models.inference.InferenceEngine.twin` of one engine:
its own actuator and energy counter over one shared environment
realisation, drawn from the scenario seed) and its own controller —
and the front-end's ``replica_factory`` (installed here) builds
further twins on demand, so an autoscaled fleet stays exactly as
reproducible as a static one, and draws each input's environment
once.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.baselines import make_alert
from repro.core.goals import Goal, ObjectiveKind
from repro.errors import ConfigurationError
from repro.serve.autoscaler import make_autoscaler
from repro.serve.budget import make_budget
from repro.serve.frontend import FleetFrontend
from repro.serve.policies import make_policy
from repro.serve.replica import Replica
from repro.workloads.scenarios import build_scenario
from repro.workloads.traces import make_arrivals

__all__ = ["FleetConfig", "build_fleet"]

#: Run-mode clocks ``FleetConfig.clock`` accepts.
CLOCK_KINDS = ("virtual", "wall")


@dataclass(frozen=True)
class FleetConfig:
    """Everything that determines a fleet, by name.

    Scenario / goal
        ``platform`` / ``task`` / ``env`` / ``candidates`` / ``seed``
        pick the evaluation cell; ``deadline_factor`` × the scenario's
        anchor latency and ``accuracy_min`` form the base goal.
    Traffic
        ``arrivals`` (a :data:`~repro.workloads.traces.ARRIVAL_KINDS`
        name) at ``rate_hz`` requests/s under ``arrival_seed``.
        ``rate_hz=None`` loads the *initial* fleet at ~0.7 of its
        aggregate anchor-latency capacity — the comfortably loaded
        operating point.
    Fleet shape
        ``replicas`` initial lanes, balanced by ``policy``, behind a
        fleet-wide ``queue_capacity`` (``None`` = unbounded), each
        dispatching up to ``batch_size`` same-goal requests through
        one kernel decide.
    Power
        ``budget`` kind (:data:`~repro.serve.budget.BUDGET_KINDS`)
        partitioning ``power_budget_w`` watts; ``budget_params`` go to
        the partition policy's constructor.
    Autoscaling
        ``autoscaler`` kind
        (:data:`~repro.serve.autoscaler.AUTOSCALER_KINDS`) over the
        ``min_replicas``..``max_replicas`` corridor
        (``max_replicas=None`` defaults to ``2 * replicas``), which
        ``replicas`` must lie in.  Window
        and cooldown default scale-invariantly to the goal's deadline
        (8× and 16× respectively) unless overridden in
        ``autoscaler_params``.
    Environment
        ``phases`` — explicit
        :class:`~repro.hw.contention.ContentionPhase` windows driving
        every replica's engine (how contention studies overload a
        fleet on purpose).
    Run mode
        ``clock`` — ``"virtual"`` (deterministic, test/CI mode) or
        ``"wall"`` (live asyncio; ``FleetFrontend.serve`` picks
        :meth:`~repro.serve.frontend.FleetFrontend.run_wall`).
    """

    platform: str = "CPU1"
    task: str = "image"
    env: str = "memory"
    candidates: str = "standard"
    seed: int = 20200417
    deadline_factor: float = 1.25
    accuracy_min: float = 0.90

    arrivals: str = "poisson"
    rate_hz: float | None = None
    arrival_seed: int = 7

    replicas: int = 4
    policy: str = "cost-aware"
    queue_capacity: int | None = 64
    batch_size: int = 1

    budget: str = "equal"
    power_budget_w: float | None = None
    budget_params: dict = field(default_factory=dict)

    autoscaler: str = "none"
    min_replicas: int = 1
    max_replicas: int | None = None
    autoscaler_params: dict = field(default_factory=dict)

    phases: tuple = ()
    trace: object | None = None
    clock: str = "virtual"

    def __post_init__(self) -> None:
        if self.replicas < 1:
            raise ConfigurationError(
                f"need at least one replica, got {self.replicas}"
            )
        if self.clock not in CLOCK_KINDS:
            raise ConfigurationError(
                f"unknown clock kind {self.clock!r}; "
                f"expected one of {CLOCK_KINDS}"
            )


def build_fleet(config: FleetConfig) -> FleetFrontend:
    """Assemble the fleet a :class:`FleetConfig` describes.

    The single construction path the CLI, the benches, and the tests
    all share.  On ``clock="virtual"`` (the default) the result is a
    deterministic virtual-time fleet: same config, same metrics, bit
    for bit.
    """
    if not isinstance(config, FleetConfig):
        raise ConfigurationError(
            f"build_fleet takes a FleetConfig, got {type(config).__name__}"
        )
    scenario = build_scenario(
        config.platform, config.task, config.env, config.candidates,
        config.seed,
    )
    goal = Goal(
        objective=ObjectiveKind.MINIMIZE_ENERGY,
        deadline_s=config.deadline_factor * scenario.anchor_latency_s(),
        accuracy_min=config.accuracy_min,
    )
    rate_hz = config.rate_hz
    if rate_hz is None:
        rate_hz = 0.7 * config.replicas / scenario.anchor_latency_s()
    phases = list(config.phases) if config.phases else None
    # Every replica is a twin of one engine: its own actuator and
    # energy counter, one shared environment realisation.
    environment = scenario.make_engine(phases)

    def replica_factory(replica_id: int) -> Replica:
        return Replica(
            replica_id=replica_id,
            engine=environment.twin(),
            scheduler=make_alert(scenario.profile()),
            clock=None,
            metrics=None,
            batch_size=config.batch_size,
        )

    autoscaler_params = dict(config.autoscaler_params)
    if config.autoscaler != "none":
        max_replicas = config.max_replicas
        if max_replicas is None:
            max_replicas = 2 * config.replicas
        autoscaler_params.setdefault("min_replicas", config.min_replicas)
        autoscaler_params.setdefault("max_replicas", max_replicas)
        low = autoscaler_params["min_replicas"]
        high = autoscaler_params["max_replicas"]
        # The autoscaler never leaves its corridor, so it must start
        # inside it.
        if not low <= config.replicas <= high:
            raise ConfigurationError(
                f"{config.replicas} replicas lie outside the autoscaler's "
                f"corridor {low}..{high}"
            )
        # Deadline-relative defaults: windows long enough for the
        # signals to mean something on any platform's timescale.
        autoscaler_params.setdefault("interval_s", 8.0 * goal.deadline_s)
        autoscaler_params.setdefault(
            "cooldown_s", 2.0 * autoscaler_params["interval_s"]
        )
    lanes = [replica_factory(i) for i in range(config.replicas)]
    fleet = FleetFrontend(
        lanes,
        make_arrivals(config.arrivals, rate_hz, seed=config.arrival_seed),
        scenario.make_stream(),
        goal,
        make_policy(config.policy),
        queue_capacity=config.queue_capacity,
        budget=make_budget(
            config.budget, config.power_budget_w, **config.budget_params
        ),
        autoscaler=make_autoscaler(config.autoscaler, **autoscaler_params),
        replica_factory=replica_factory,
        trace=config.trace,
    )
    fleet.clock_kind = config.clock
    return fleet
