"""Requirement traces, arrival processes, and contention schedules.

ALERT's requirements "are also highly dynamic" (Section 1.1): the
deadline, the power budget, and the accuracy requirement can all change
mid-stream.  A :class:`RequirementTrace` describes such changes as a
piecewise-constant schedule over input indices, which the serving loop
applies before each decision.

:func:`fig9_phases` reproduces the exact environment of Figure 9:
memory contention switched on from roughly input 46 to input 119 of a
160-input image-classification run.

**Open-loop arrivals.**  The closed-loop harness feeds the controller
one input per simulated period; the serving front-end
(:mod:`repro.serve`) instead faces traffic it does not control.  The
:class:`ArrivalProcess` family generates that traffic as seeded,
memoised arrival timelines:

* :class:`PoissonArrivals` — memoryless traffic at a constant rate;
* :class:`MMPPArrivals` — Markov-modulated Poisson: the rate jumps
  between regimes (calm/burst) at exponentially distributed dwell
  times, the standard bursty-traffic model;
* :class:`DiurnalArrivals` — a sinusoidal day/night rate profile
  realised by Lewis-Shedler thinning.

All three are exact simulations (the memoryless property makes the
MMPP boundary-restart construction exact, and thinning is exact for
any bounded rate function), and all are deterministic per seed: the
timeline is drawn from one ``numpy`` Generator in a fixed order and
memoised, so ``schedule(n)`` is reproducible and extending a timeline
never rewrites its prefix.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from repro.errors import ConfigurationError
from repro.hw.contention import ContentionPhase

__all__ = [
    "RequirementChange",
    "RequirementTrace",
    "fig9_phases",
    "ArrivalProcess",
    "PoissonArrivals",
    "MMPPArrivals",
    "DiurnalArrivals",
    "make_arrivals",
    "ARRIVAL_KINDS",
]


@dataclass(frozen=True)
class RequirementChange:
    """A goal override taking effect at one input index.

    Only the fields that change need to be set; ``None`` leaves the
    previous value in force.
    """

    start_index: int
    deadline_s: float | None = None
    accuracy_min: float | None = None
    energy_budget_j: float | None = None

    def __post_init__(self) -> None:
        if self.start_index < 0:
            raise ConfigurationError("start_index must be >= 0")
        if self.deadline_s is not None and self.deadline_s <= 0:
            raise ConfigurationError("deadline override must be positive")


class RequirementTrace:
    """Piecewise-constant requirement overrides over a run.

    Examples
    --------
    >>> trace = RequirementTrace([
    ...     RequirementChange(start_index=0, deadline_s=0.10),
    ...     RequirementChange(start_index=50, deadline_s=0.06),
    ... ])
    >>> trace.active_at(10).deadline_s
    0.1
    >>> trace.active_at(70).deadline_s
    0.06
    """

    def __init__(self, changes: list[RequirementChange] | None = None) -> None:
        changes = sorted(changes or [], key=lambda c: c.start_index)
        for early, late in zip(changes, changes[1:]):
            if early.start_index == late.start_index:
                raise ConfigurationError(
                    f"two requirement changes at input {early.start_index}"
                )
        self._changes = changes

    def active_at(self, index: int) -> RequirementChange:
        """The merged override in force at input ``index``."""
        deadline = None
        accuracy = None
        energy = None
        for change in self._changes:
            if change.start_index > index:
                break
            if change.deadline_s is not None:
                deadline = change.deadline_s
            if change.accuracy_min is not None:
                accuracy = change.accuracy_min
            if change.energy_budget_j is not None:
                energy = change.energy_budget_j
        return RequirementChange(
            start_index=0,
            deadline_s=deadline,
            accuracy_min=accuracy,
            energy_budget_j=energy,
        )

    @property
    def is_empty(self) -> bool:
        """Whether the trace contains no overrides at all."""
        return not self._changes

    def apply(self, goal, index: int):
        """``goal`` with the override in force at input ``index``.

        The single definition of how a requirement trace rewrites a
        :class:`~repro.core.goals.Goal`: the closed-loop serving loop
        applies it per input index, and the serving front-end applies
        it per *arrival* index — goals change at arrival boundaries.
        Returns ``goal`` itself when nothing is in force.
        """
        if not self._changes:
            return goal
        override = self.active_at(index)
        if override.deadline_s is not None:
            goal = goal.with_deadline(override.deadline_s)
        if (
            override.accuracy_min is not None
            or override.energy_budget_j is not None
        ):
            kwargs = {}
            if override.accuracy_min is not None:
                kwargs["accuracy_min"] = override.accuracy_min
            if override.energy_budget_j is not None:
                kwargs["energy_budget_j"] = override.energy_budget_j
            goal = replace(goal, **kwargs)
        return goal


def fig9_phases(
    contention_start: int = 46,
    contention_stop: int = 119,
    run_length: int = 160,
) -> list[ContentionPhase]:
    """The Figure 9 environment: one memory-contention burst.

    Returns an explicit phase schedule: quiet, contended from
    ``contention_start`` to ``contention_stop``, then quiet again.
    """
    if not 0 < contention_start < contention_stop <= run_length:
        raise ConfigurationError(
            "need 0 < contention_start < contention_stop <= run_length"
        )
    return [
        ContentionPhase(start=0, stop=contention_start, active=False),
        ContentionPhase(
            start=contention_start, stop=contention_stop, active=True
        ),
        ContentionPhase(start=contention_stop, stop=run_length + 10_000, active=False),
    ]


# ----------------------------------------------------------------------
# Open-loop arrival processes
# ----------------------------------------------------------------------
class ArrivalProcess:
    """A seeded, memoised open-loop arrival timeline.

    Subclasses implement :meth:`_next_gap`, the stateful draw of the
    next inter-arrival gap; the base class owns the timeline —
    absolute arrival instants starting from time 0, extended lazily
    and never rewritten, so any two consumers of the same process
    object (or of two same-seed twins) see identical schedules.
    """

    #: CLI/config name of the process family.
    kind = "base"

    def __init__(self, seed: int) -> None:
        self._rng = np.random.default_rng(seed)
        self._times: list[float] = []
        self._now = 0.0

    def _next_gap(self) -> float:
        raise NotImplementedError  # pragma: no cover - abstract

    def time_of(self, index: int) -> float:
        """Absolute arrival instant of request ``index`` (0-based)."""
        if index < 0:
            raise ConfigurationError(f"arrival index must be >= 0, got {index}")
        while len(self._times) <= index:
            self._now += self._next_gap()
            self._times.append(self._now)
        return self._times[index]

    def schedule(self, n: int) -> list[float]:
        """Absolute instants of the first ``n`` arrivals."""
        if n < 0:
            raise ConfigurationError(f"need n >= 0 arrivals, got {n}")
        if n:
            self.time_of(n - 1)
        return self._times[:n]

    def intervals(self, n: int) -> list[float]:
        """The first ``n`` inter-arrival gaps."""
        times = self.schedule(n)
        return [
            t - p for t, p in zip(times, [0.0] + times[:-1])
        ]


class PoissonArrivals(ArrivalProcess):
    """Memoryless arrivals at a constant mean rate (requests/second)."""

    kind = "poisson"

    def __init__(self, rate_hz: float, seed: int = 0) -> None:
        if not 0 < rate_hz < math.inf:
            raise ConfigurationError(
                f"rate must be positive and finite, got {rate_hz}"
            )
        super().__init__(seed)
        self.rate_hz = rate_hz

    def _next_gap(self) -> float:
        return float(self._rng.exponential(1.0 / self.rate_hz))


class MMPPArrivals(ArrivalProcess):
    """Markov-modulated Poisson arrivals: the rate jumps between regimes.

    The regime chain cycles through ``rates_hz`` (calm → burst → calm …
    for the default two regimes), dwelling in each for an
    exponentially distributed time with mean ``mean_dwell_s``.  Within
    a regime, arrivals are Poisson at the regime's rate.  Simulation is
    the exact boundary-restart construction: a candidate gap drawn at
    the current regime's rate either lands before the next regime
    switch (it is the arrival) or is discarded and the draw restarts
    at the switch instant under the new rate — exact because the
    exponential is memoryless.
    """

    kind = "mmpp"

    def __init__(
        self,
        rates_hz: tuple[float, ...],
        mean_dwell_s: float,
        seed: int = 0,
    ) -> None:
        if len(rates_hz) < 2:
            raise ConfigurationError("MMPP needs at least two regimes")
        if not all(0 < rate < math.inf for rate in rates_hz):
            raise ConfigurationError(
                f"rates must be positive and finite, got {rates_hz}"
            )
        if not 0 < mean_dwell_s < math.inf:
            raise ConfigurationError(
                f"mean dwell must be positive and finite, got {mean_dwell_s}"
            )
        super().__init__(seed)
        self.rates_hz = tuple(float(rate) for rate in rates_hz)
        self.mean_dwell_s = float(mean_dwell_s)
        self._regime = 0
        self._switch_at = float(self._rng.exponential(mean_dwell_s))

    def regime_at(self, time_s: float) -> int:
        """The regime index in force at ``time_s`` (for tests/traces).

        Only valid for instants not beyond the generated timeline's
        current frontier (regime history ahead of it is not yet drawn).
        """
        if time_s > self._switch_at:
            raise ConfigurationError(
                "regime history beyond the generated timeline is undrawn"
            )
        return self._regime

    def _next_gap(self) -> float:
        start = self._now
        t = start
        while True:
            candidate = t + float(
                self._rng.exponential(1.0 / self.rates_hz[self._regime])
            )
            if candidate <= self._switch_at:
                return candidate - start
            t = self._switch_at
            self._regime = (self._regime + 1) % len(self.rates_hz)
            self._switch_at = t + float(
                self._rng.exponential(self.mean_dwell_s)
            )


class DiurnalArrivals(ArrivalProcess):
    """Sinusoidal day/night traffic via Lewis-Shedler thinning.

    The instantaneous rate is
    ``rate_hz * (1 + depth * sin(2π t / period_s))`` — mean ``rate_hz``
    over a whole period, peak ``rate_hz * (1 + depth)`` — and arrivals
    are realised by drawing candidates at the peak rate and accepting
    each with probability ``λ(t)/λ_peak`` (exact for any bounded rate).
    """

    kind = "diurnal"

    def __init__(
        self,
        rate_hz: float,
        period_s: float,
        depth: float = 0.8,
        seed: int = 0,
    ) -> None:
        if not 0 < rate_hz < math.inf:
            raise ConfigurationError(
                f"rate must be positive and finite, got {rate_hz}"
            )
        if not 0 < period_s < math.inf:
            raise ConfigurationError(
                f"period must be positive and finite, got {period_s}"
            )
        if not 0 < depth < 1:
            raise ConfigurationError(f"depth must be in (0, 1), got {depth}")
        super().__init__(seed)
        self.rate_hz = float(rate_hz)
        self.period_s = float(period_s)
        self.depth = float(depth)
        self._peak = rate_hz * (1.0 + depth)

    def rate_at(self, time_s: float) -> float:
        """The instantaneous rate λ(t)."""
        return self.rate_hz * (
            1.0 + self.depth * math.sin(2.0 * math.pi * time_s / self.period_s)
        )

    def _next_gap(self) -> float:
        start = self._now
        t = start
        while True:
            t += float(self._rng.exponential(1.0 / self._peak))
            if float(self._rng.random()) * self._peak <= self.rate_at(t):
                return t - start


#: Arrival kinds the factory (and the ``repro fleet`` CLI) accepts.
ARRIVAL_KINDS = ("poisson", "mmpp", "diurnal")


def make_arrivals(
    kind: str,
    rate_hz: float,
    seed: int = 0,
    *,
    calm_factor: float = 0.5,
    burst_factor: float = 1.5,
    dwell_arrivals: float = 40.0,
    period_arrivals: float = 200.0,
    depth: float = 0.8,
) -> ArrivalProcess:
    """Build an arrival process by CLI name with derived parameters.

    ``rate_hz`` is always the long-run mean rate.  The MMPP variant
    alternates a calm regime at ``calm_factor`` × the mean and a burst
    regime at ``burst_factor`` × the mean (equal expected dwell ≈
    ``dwell_arrivals`` mean inter-arrivals, so the time-averaged rate
    stays at the mean and regimes last long enough to be visible in
    windowed rates); the diurnal variant cycles one full day/night
    period per ``period_arrivals`` mean inter-arrivals at ``depth``.
    The keyword shape parameters default to the historical constants,
    so existing call sites are unchanged; overload studies override
    them to sharpen or soften the burst without writing their own
    process wiring.
    """
    if not 0 < rate_hz < math.inf:
        raise ConfigurationError(f"rate must be positive and finite, got {rate_hz}")
    if not 0 < calm_factor < burst_factor:
        raise ConfigurationError(
            f"need 0 < calm_factor < burst_factor, got "
            f"({calm_factor}, {burst_factor})"
        )
    if kind == "poisson":
        return PoissonArrivals(rate_hz, seed=seed)
    if kind == "mmpp":
        return MMPPArrivals(
            rates_hz=(calm_factor * rate_hz, burst_factor * rate_hz),
            mean_dwell_s=dwell_arrivals / rate_hz,
            seed=seed,
        )
    if kind == "diurnal":
        return DiurnalArrivals(
            rate_hz,
            period_s=period_arrivals / rate_hz,
            depth=depth,
            seed=seed,
        )
    raise ConfigurationError(
        f"unknown arrival kind {kind!r}; expected one of {ARRIVAL_KINDS}"
    )
