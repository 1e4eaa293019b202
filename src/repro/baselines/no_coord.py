"""No-coord: application and system adaptation without coordination.

The cautionary baseline (paper Table 3): the anytime network adapts
itself *and* the CALOREE-style power manager adapts the cap, but each
keeps its own model of the world and neither knows what the other just
did:

* the **application side** picks how far down the anytime ladder to
  run, predicting rung latencies with its own Kalman filter calibrated
  against the *default power* profile — it has no idea the system may
  have capped power far below that;
* the **system side** picks the cheapest cap whose predicted latency
  meets the deadline, predicting with its own filter against the *full
  ladder* profile — it has no idea the application may stop early.

Each side's feedback is polluted by the other's action (the app
attributes cap-induced slowdowns to the environment and vice versa), so
"the two levels can work at cross purposes; e.g., the application
switches to a faster DNN to save energy while the system makes more
power available" — producing both energy waste and violations
(Table 4's No-coord column).

Both decision rules are pure functions of the profile arrays, which the
kernel precomputes once; the per-decision loops in
:meth:`NoCoordKernel._app_decide_rung` and
:meth:`NoCoordKernel._sys_decide_power` are the pinned scalar
reference, and :class:`NoCoordCellController` is the lockstep twin that
advances a whole goal grid per input with the same arithmetic evaluated
as feasibility masks (``tests/test_lockstep_parity.py`` pins the
two elementwise bit-identical).
"""

from __future__ import annotations

import numpy as np

from repro.core.config_space import Configuration
from repro.core.goals import Goal, ObjectiveKind
from repro.core.kernel import Measurement, lockstep_stats_dict
from repro.core.selector import BaselineSelection
from repro.core.slowdown import GlobalSlowdownEstimator, StackedSlowdownEstimator
from repro.errors import ConfigurationError
from repro.models.anytime import AnytimeDnn
from repro.models.inference import InferenceOutcome
from repro.models.profiles import ProfileTable
from repro.workloads.inputs import InputItem

__all__ = ["NoCoordKernel", "NoCoordScheduler", "NoCoordCellController"]


class NoCoordKernel:
    """No-coord's clock-free decision kernel.

    Owns both mutually oblivious Kalman filters and both scalar
    decision rules (the pinned references the stacked cell reproduces
    with masks).  Knows nothing about periods or outcome records —
    :class:`NoCoordScheduler` adapts the harness convention onto it.
    """

    def __init__(self, profile: ProfileTable, anytime: AnytimeDnn,
                 powers: tuple[float, ...]) -> None:
        self.profile = profile
        self.model = anytime
        self.powers = powers
        self.default_power = powers[-1]
        self.app_filter = GlobalSlowdownEstimator()
        self.sys_filter = GlobalSlowdownEstimator()
        self.last_power = self.default_power
        # Profile lookups are pure functions of the (model, cap) pair,
        # so everything a decision reads is precomputed here once:
        # the rung ladder at the default power (app side) and the
        # per-cap full-ladder latency/draw arrays (sys side).
        model_name = anytime.name
        self.rung_latencies = tuple(
            profile.rung_latencies(model_name, self.default_power)
        )
        self.power_latencies = tuple(
            profile.latency(model_name, power) for power in powers
        )
        self.power_draws = tuple(
            profile.power(model_name, power) for power in powers
        )
        self.app_reference = self.power_latencies[-1]
        # observe() sees machine-clamped caps, which may lie off the
        # candidate ladder; unknown caps fall back to the profile once
        # and are memoised.
        self.latency_by_cap = dict(zip(powers, self.power_latencies))
        # Decisions recur over a small (rung, power) lattice; handing
        # out one Configuration object per point keeps identities
        # stable so downstream identity-keyed memos (grid-row lookup,
        # batch grouping) hit.
        self._configs: dict[tuple[int, float], Configuration] = {}

    # ------------------------------------------------------------------
    # Application side: pick the stop rung, assuming default power.
    # ------------------------------------------------------------------
    def _app_decide_rung(self, goal: Goal) -> int:
        xi = self.app_filter.mean
        chosen = 0
        for k, rung_latency in enumerate(self.rung_latencies):
            if xi * rung_latency <= goal.deadline_s:
                chosen = k
        return chosen

    # ------------------------------------------------------------------
    # System side: pick the cheapest cap, assuming the full ladder.
    # ------------------------------------------------------------------
    def _sys_decide_power(self, goal: Goal) -> float:
        xi = self.sys_filter.mean
        deadline = goal.deadline_s
        feasible: list[int] = []
        for k, t_full in enumerate(self.power_latencies):
            if xi * t_full <= deadline:
                feasible.append(k)
        if goal.objective is ObjectiveKind.MAXIMIZE_ACCURACY:
            budget = goal.energy_budget_j
            if budget is not None:
                affordable = [
                    k
                    for k in feasible
                    if self.power_draws[k]
                    * min(xi * self.power_latencies[k], deadline)
                    <= budget
                ]
                if affordable:
                    return self.powers[affordable[-1]]
            return self.powers[feasible[-1]] if feasible else self.powers[-1]
        # Minimise energy: cheapest cap that still meets the deadline.
        if feasible:
            return self.powers[feasible[0]]
        return self.powers[-1]

    def decide(self, goal: Goal) -> Configuration:
        rung = self._app_decide_rung(goal)
        power = self._sys_decide_power(goal)
        self.last_power = power
        key = (rung, power)
        config = self._configs.get(key)
        if config is None:
            config = Configuration(model=self.model, power_w=power, rung_cap=rung)
            self._configs[key] = config
        return config

    def observe(self, measurement: Measurement) -> None:
        # Each side interprets the measurement through its own (wrong)
        # frame of reference — this is the lack of coordination.
        self.app_filter.observe(measurement.full_latency_s, self.app_reference)
        cap = measurement.power_cap_w
        sys_reference = self.latency_by_cap.get(cap)
        if sys_reference is None:
            sys_reference = self.profile.latency(self.model.name, cap)
            self.latency_by_cap[cap] = sys_reference
        self.sys_filter.observe(measurement.full_latency_s, sys_reference)


class NoCoordScheduler:
    """Independent app-level and system-level adaptation."""

    #: Both (mutually oblivious) latency filters read feedback.
    feedback_free = False

    def __init__(
        self,
        profile: ProfileTable,
        anytime: AnytimeDnn,
        powers: list[float] | None = None,
        name: str = "No-coord",
    ) -> None:
        if not isinstance(anytime, AnytimeDnn):
            raise ConfigurationError("No-coord requires an anytime network")
        self.profile = profile
        self.model = anytime
        self.powers = (
            tuple(sorted(powers)) if powers is not None else tuple(profile.powers)
        )
        self.default_power = self.powers[-1]
        self.name = name
        self.kernel = NoCoordKernel(profile, anytime, self.powers)

    # ------------------------------------------------------------------
    # Protocol
    # ------------------------------------------------------------------
    def decide(self, item: InputItem, goal: Goal) -> Configuration:
        return self.kernel.decide(goal)

    def observe(self, outcome: InferenceOutcome) -> None:
        # No-coord never measures idle power, and each side supplies
        # its own frame of reference, so the measurement is built from
        # exactly the two fields the scheme reads (pinning the
        # pre-split observe contract: any outcome-shaped record
        # carrying latency + cap works).
        self.kernel.observe(
            Measurement(
                model_name=self.model.name,
                power_cap_w=outcome.power_cap_w,
                full_latency_s=outcome.full_latency_s,
            )
        )

    @staticmethod
    def stack_into_cell(schedulers):
        """Lockstep hook: stack per-goal runs into one cell controller.

        Defined on the class itself (the lockstep loop refuses
        inherited hooks); returns ``None`` for warm or structurally
        different schedulers — see
        :meth:`NoCoordCellController.from_schedulers`.
        """
        return NoCoordCellController.from_schedulers(schedulers)


class NoCoordCellController:
    """Lockstep No-coord across a cell's goal grid.

    Both mutually oblivious filters become
    :class:`~repro.core.slowdown.StackedSlowdownEstimator` planes (one
    state per goal), and the two decision rules evaluate over the whole
    (goal × rung) and (goal × power) grids at once: feasibility masks
    against the precomputed latency arrays, then a last/first-index
    reduction that reproduces the scalar loops' pick exactly.  Each
    goal's trajectory is bit-identical to a fresh
    :class:`NoCoordScheduler` serving that goal alone
    (``tests/test_lockstep_parity.py``).
    """

    def __init__(
        self,
        profile: ProfileTable,
        model: AnytimeDnn,
        powers: tuple[float, ...],
        rung_latencies: tuple[float, ...],
        power_latencies: tuple[float, ...],
        power_draws: tuple[float, ...],
        n_goals: int,
    ) -> None:
        if n_goals < 1:
            raise ConfigurationError(f"need at least one goal, got {n_goals}")
        self.profile = profile
        self.model = model
        self.powers = powers
        self.n_goals = n_goals
        self._rungs = np.asarray(rung_latencies, dtype=np.float64)
        self._latencies = np.asarray(power_latencies, dtype=np.float64)
        self._draws = np.asarray(power_draws, dtype=np.float64)
        self._app = StackedSlowdownEstimator(n_goals)
        self._sys = StackedSlowdownEstimator(n_goals)
        self._app_reference = power_latencies[-1]
        self._latency_by_cap = dict(zip(powers, power_latencies))
        self._configs: dict[tuple[int, int], Configuration] = {}
        self._stacked_calls = 0
        self._stacked_states = 0

    @classmethod
    def from_schedulers(cls, schedulers) -> "NoCoordCellController | None":
        """A stacked controller equivalent to ``schedulers``, or None.

        Returns ``None`` — never raises — for anything that cannot
        stack: subclasses (overridden behaviour stays on the sequential
        reference path), warm filters, history-keeping filters, or
        structurally different schedulers (profile, model, ladder).
        """
        if not schedulers:
            return None
        for scheduler in schedulers:
            if type(scheduler) is not NoCoordScheduler:
                return None
            kernel = scheduler.kernel
            if (
                kernel.app_filter.observations != 0
                or kernel.sys_filter.observations != 0
            ):
                return None
            if kernel.app_filter.keeps_history or kernel.sys_filter.keeps_history:
                return None
        first = schedulers[0]

        def fingerprint(scheduler: NoCoordScheduler) -> tuple:
            return (
                id(scheduler.profile),
                id(scheduler.model),
                scheduler.powers,
                scheduler.default_power,
            )

        reference = fingerprint(first)
        if any(fingerprint(s) != reference for s in schedulers[1:]):
            return None
        return cls(
            profile=first.profile,
            model=first.model,
            powers=first.powers,
            rung_latencies=first.kernel.rung_latencies,
            power_latencies=first.kernel.power_latencies,
            power_draws=first.kernel.power_draws,
            n_goals=len(schedulers),
        )

    # ------------------------------------------------------------------
    # Decisions: both sides, every goal, one pass
    # ------------------------------------------------------------------
    def decide_many(self, goals, item) -> list[BaselineSelection]:
        """One (rung, power) pick per goal, via feasibility masks.

        Mirrors the scalar rules exactly: the app side takes the *last*
        rung whose predicted latency fits (rung 0 when none does); the
        sys side takes the last affordable cap, else the last feasible,
        else the top cap when maximising accuracy, and the *first*
        feasible cap (else the top) when minimising energy.  All
        products and comparisons are the same IEEE-double operations
        the scalar loops perform, so the masks pick identical indices.
        The step's ``item`` is not read.
        """
        if len(goals) != self.n_goals:
            raise ConfigurationError(
                f"expected {self.n_goals} goals, got {len(goals)}"
            )
        deadlines = np.array([goal.deadline_s for goal in goals])
        xi_app = self._app.mean
        xi_sys = self._sys.mean

        n_rungs = self._rungs.shape[0]
        fits = xi_app[:, None] * self._rungs[None, :] <= deadlines[:, None]
        rung_arange = np.arange(n_rungs)
        last_fit = np.where(fits, rung_arange[None, :], -1).max(axis=1)
        rungs = np.maximum(last_fit, 0)

        n_powers = self._latencies.shape[0]
        pred = xi_sys[:, None] * self._latencies[None, :]
        feasible = pred <= deadlines[:, None]
        power_arange = np.arange(n_powers)
        last_feasible = np.where(feasible, power_arange[None, :], -1).max(axis=1)
        first_feasible = np.where(
            feasible, power_arange[None, :], n_powers
        ).min(axis=1)
        budgets = np.array(
            [
                goal.energy_budget_j
                if (
                    goal.objective is ObjectiveKind.MAXIMIZE_ACCURACY
                    and goal.energy_budget_j is not None
                )
                else np.inf
                for goal in goals
            ]
        )
        cost = self._draws[None, :] * np.minimum(pred, deadlines[:, None])
        affordable = feasible & (cost <= budgets[:, None])
        last_affordable = np.where(
            affordable, power_arange[None, :], -1
        ).max(axis=1)
        maximize = np.array(
            [goal.objective is ObjectiveKind.MAXIMIZE_ACCURACY for goal in goals]
        )
        max_pick = np.where(
            last_affordable >= 0,
            last_affordable,
            np.where(last_feasible >= 0, last_feasible, n_powers - 1),
        )
        min_pick = np.where(
            first_feasible < n_powers, first_feasible, n_powers - 1
        )
        power_idx = np.where(maximize, max_pick, min_pick)

        selections = []
        for g in range(self.n_goals):
            key = (int(rungs[g]), int(power_idx[g]))
            config = self._configs.get(key)
            if config is None:
                config = Configuration(
                    model=self.model,
                    power_w=self.powers[key[1]],
                    rung_cap=key[0],
                )
                self._configs[key] = config
            selections.append(BaselineSelection(config=config))
        self._stacked_calls += 1
        self._stacked_states += self.n_goals
        return selections

    # ------------------------------------------------------------------
    # Feedback: both planes, every goal, one pass
    # ------------------------------------------------------------------
    def observe_many(self, measured) -> None:
        """Fold every goal's previous-input measurement in, stacked.

        ``measured`` is a :class:`~repro.core.kernel.StackedMeasurements`.
        The app plane references the default-power profile (a constant),
        the sys plane the profiled latency at each goal's reported cap —
        the same two wrong frames of reference as the scalar scheduler,
        elementwise.
        """
        full = measured.full_latency_s
        self._app.observe(full, np.full(self.n_goals, self._app_reference))
        by_cap = self._latency_by_cap
        references = []
        for cap in measured.power_cap_w:
            reference = by_cap.get(cap)
            if reference is None:
                reference = self.profile.latency(self.model.name, cap)
                by_cap[cap] = reference
            references.append(reference)
        self._sys.observe(full, np.array(references))

    def xi_snapshot(self) -> None:
        """No-coord exposes no ``state``; records carry 0/0 like the
        sequential path."""
        return None

    @property
    def lockstep_stats(self) -> dict:
        return lockstep_stats_dict(
            self.n_goals, self._stacked_calls, self._stacked_states
        )
