"""The scheduler protocol, ALERT's scheduler and the static one.

Every policy evaluated in the paper — ALERT and its ablations, the
oracles, and the single-layer baselines — implements the same tiny
interface: *decide* a configuration for the next input and *observe*
the measured outcome of the previous one.  The serving loop is policy
agnostic; all behavioural differences live behind this protocol.
"""

from __future__ import annotations

from typing import Protocol, runtime_checkable

from repro.core.config_space import Configuration
from repro.core.goals import Goal
from repro.core.kernel import (
    AlertCellKernel,
    AlertKernel,
    lockstep_stats_dict,
    measurement_from_outcome,
)
from repro.errors import ConfigurationError
from repro.models.base import DnnModel
from repro.models.inference import InferenceOutcome
from repro.workloads.inputs import InputItem

__all__ = ["Scheduler", "AlertScheduler", "StaticScheduler", "FixedConfigCell"]


@runtime_checkable
class Scheduler(Protocol):
    """What the serving loop needs from a policy.

    Policies may additionally declare two optional members the loop
    probes with ``getattr``:

    * ``feedback_free`` (bool, default False) — a promise that
      ``decide`` never depends on anything ``observe`` saw and that
      ``observe`` is a no-op.  The serving loop realises such runs on
      the vectorized batch fast path (one engine pass instead of
      per-input round trips) and may skip ``observe`` entirely.
    * ``decide_batch(items, goal)`` — vectorized decisions for a whole
      run at once; only consulted on the batch fast path.

    The loop's shared-realisation view is the loop's own constructor
    argument, never a scheduler member.
    """

    name: str

    def decide(self, item: InputItem, goal: Goal) -> Configuration:
        """Pick the configuration for ``item`` under ``goal``."""
        ...  # pragma: no cover - protocol

    def observe(self, outcome: InferenceOutcome) -> None:
        """Fold in the measured outcome of the input just served."""
        ...  # pragma: no cover - protocol


class AlertScheduler:
    """Serves ALERT's :class:`~repro.core.kernel.AlertKernel` through
    the scheduler protocol.

    The scheduler also implements the measurement conventions the
    kernel documents (via
    :func:`~repro.core.kernel.measurement_from_outcome`):

    * the ξ observation uses the run-to-completion latency; for anytime
      runs stopped early the engine's ``full_latency_s`` stands in for
      the rung-timestamp extrapolation a real deployment performs;
    * the idle-power filter only receives samples from periods that
      actually had an idle phase.

    Event-loop drivers (:mod:`repro.serve`) feed :attr:`kernel`
    :class:`~repro.core.kernel.Measurement` records directly; the batch
    harness calls :meth:`observe` with outcome records.
    """

    #: ALERT's whole point is reacting to observed slowdowns.
    feedback_free = False

    def __init__(
        self,
        kernel: AlertKernel,
        name: str = "ALERT",
    ) -> None:
        self.kernel = kernel
        self.name = name

    def decide(self, item: InputItem, goal: Goal) -> Configuration:
        return self.kernel.decide(goal).config

    def observe(self, outcome: InferenceOutcome) -> None:
        self.kernel.observe(measurement_from_outcome(outcome))

    @property
    def state(self):
        """The kernel's filter state (for traces)."""
        return self.kernel.state()

    @staticmethod
    def stack_into_cell(schedulers):
        """Lockstep hook: stack per-goal runs into one cell kernel.

        Defined on the class itself (the lockstep loop refuses
        inherited hooks, so subclasses with overridden behaviour stay
        on the sequential path).  Returns ``None`` when the underlying
        kernels cannot stack — see
        :meth:`repro.core.kernel.AlertCellKernel.from_kernels`.
        """
        return AlertCellKernel.from_kernels(
            [scheduler.kernel for scheduler in schedulers]
        )


class StaticScheduler:
    """Serves every input with one fixed configuration.

    The building block of OracleStatic and of ad-hoc experiments that
    sweep single configurations (Figures 2 and 3).
    """

    #: A fixed configuration never reads feedback; the serving loop
    #: may realise whole runs in one batch pass.
    feedback_free = True

    def __init__(
        self,
        model: DnnModel,
        power_w: float,
        rung_cap: int | None = None,
        name: str | None = None,
    ) -> None:
        if power_w <= 0:
            raise ConfigurationError(f"power must be positive, got {power_w}")
        self.config = Configuration(model=model, power_w=power_w, rung_cap=rung_cap)
        self.name = name if name is not None else f"static:{self.config.describe()}"

    def decide(self, item: InputItem, goal: Goal) -> Configuration:
        return self.config

    def decide_batch(self, items, goal: Goal) -> list[Configuration]:
        """A whole run's decisions at once: the fixed configuration."""
        return [self.config] * len(items)

    def observe(self, outcome: InferenceOutcome) -> None:
        """Static policies ignore feedback."""

    @staticmethod
    def stack_into_cell(schedulers):
        """Lockstep hook: one :class:`FixedConfigCell` over the goals'
        configurations."""
        return FixedConfigCell(schedulers)


class FixedConfigCell:
    """Lockstep cell of fixed-configuration schedulers.

    Every step answers each goal with that goal's own configuration
    (OracleStatic's per-setting pick, App-only's default-power ladder).
    The cell is ``feedback_free``: a lane never observes it, and its
    records carry a 0/0 belief, as on the sequential path.  Built by
    the ``stack_into_cell`` hooks of :class:`StaticScheduler` and
    :class:`~repro.baselines.app_only.AppOnlyScheduler`.
    """

    feedback_free = True

    def __init__(self, schedulers) -> None:
        self.n_goals = len(schedulers)
        self._configs = [scheduler.config for scheduler in schedulers]
        self._stacked_calls = 0
        self._stacked_states = 0

    def decide_many(self, goals, deadlines, item: InputItem) -> list[Configuration]:
        """Every goal's fixed configuration (the same list each step),
        whatever its deadline."""
        if len(goals) != self.n_goals:
            raise ConfigurationError(
                f"expected {self.n_goals} goals, got {len(goals)}"
            )
        self._stacked_calls += 1
        self._stacked_states += self.n_goals
        return self._configs

    @property
    def lockstep_stats(self) -> dict:
        return lockstep_stats_dict(
            self.n_goals, self._stacked_calls, self._stacked_states
        )
