"""Canonical evaluation scenarios (paper Table 3).

A :class:`Scenario` bundles a platform, a task, a candidate DNN set,
and an environment into one reproducible unit: it can build the input
stream, the contention process, the inference engine, and the offline
profile, all derived from one root seed.

:func:`constraint_grid` generates the constraint settings of Table 3:

* latency constraints spanning 0.4x-2x the mean latency of the largest
  anytime DNN (measured in the default environment);
* accuracy constraints spanning the range achievable by the candidates
  *under each deadline* (so the grid is feasible in the nominal
  environment — the paper's "whole range achievable");
* energy budgets spanning the feasible power-cap range (budget = cap x
  period).

Each (latency x accuracy) pair is a minimise-energy setting and each
(latency x power) pair a minimise-error setting — 35 settings per task,
matching the paper's "35-40 combinations".
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.core.goals import Goal, ObjectiveKind
from repro.errors import ConfigurationError
from repro.hw.contention import ContentionKind, ContentionPhase, ContentionProcess
from repro.hw.machine import MachineSpec, get_platform
from repro.models.anytime import AnytimeDnn
from repro.models.base import IMAGE_TASK, SENTENCE_TASK, DnnModel, Task, TaskKind
from repro.models.families import (
    depth_nest_anytime,
    rnn_family,
    sparse_resnet_family,
    width_nest_anytime,
)
from repro.models.inference import InferenceEngine
from repro.models.profiles import ProfileTable, Profiler
from repro.rng import SeedSequenceFactory
from repro.workloads.inputs import ImageStream, InputStream, SentenceStream

__all__ = [
    "CandidateSet",
    "Scenario",
    "ConstraintGrid",
    "build_scenario",
    "constraint_grid",
    "candidate_set",
    "stride_settings",
]

#: Deadline multipliers relative to the anytime anchor (Table 3's
#: "0.4x-2x mean latency of the largest Anytime DNN").
DEADLINE_FRACTIONS = (0.4, 0.6, 0.8, 1.0, 1.33, 1.66, 2.0)
#: Positions within the achievable quality range.
QUALITY_FRACTIONS = (0.10, 0.30, 0.50, 0.70, 0.90)
#: Positions within the feasible power-cap range for energy budgets.
POWER_FRACTIONS = (0.15, 0.33, 0.50, 0.70, 0.90)


@dataclass(frozen=True)
class CandidateSet:
    """A named candidate DNN set (Table 3's ALERT variants).

    ``"standard"`` mixes traditional and anytime networks (ALERT),
    ``"trad"`` keeps only traditional ones (ALERT-Trad), and ``"any"``
    keeps only the anytime network (ALERT-Any).
    """

    name: str
    models: tuple[DnnModel, ...]

    def __post_init__(self) -> None:
        if not self.models:
            raise ConfigurationError(f"candidate set {self.name!r} is empty")

    @property
    def anytime(self) -> AnytimeDnn | None:
        """The anytime member, if any."""
        for model in self.models:
            if isinstance(model, AnytimeDnn):
                return model
        return None

    @property
    def traditional(self) -> tuple[DnnModel, ...]:
        """The traditional members."""
        return tuple(m for m in self.models if not isinstance(m, AnytimeDnn))


def candidate_set(task: Task, which: str = "standard") -> CandidateSet:
    """Build a candidate set for a task.

    >>> cs = candidate_set(IMAGE_TASK, "standard")
    >>> len(cs.traditional), cs.anytime is not None
    (6, True)
    """
    if task.kind is TaskKind.IMAGE_CLASSIFICATION:
        traditional = tuple(sparse_resnet_family())
        anytime = depth_nest_anytime()
    elif task.kind is TaskKind.SENTENCE_PREDICTION:
        traditional = tuple(rnn_family())
        anytime = width_nest_anytime()
    else:
        raise ConfigurationError(
            f"no evaluation candidate set for task {task.kind}"
        )
    which = which.lower()
    if which == "standard":
        return CandidateSet(name="standard", models=traditional + (anytime,))
    if which in ("trad", "traditional"):
        return CandidateSet(name="trad", models=traditional)
    if which in ("any", "anytime"):
        return CandidateSet(name="any", models=(anytime,))
    raise ConfigurationError(
        f"unknown candidate set {which!r}; use standard/trad/any"
    )


@dataclass
class Scenario:
    """One reproducible evaluation cell: platform x task x env x set."""

    name: str
    machine: MachineSpec
    task: Task
    candidates: CandidateSet
    env: ContentionKind
    seed: int
    _profile: ProfileTable | None = field(default=None, repr=False)
    _space: object | None = field(default=None, repr=False)

    @property
    def seeds(self) -> SeedSequenceFactory:
        """The scenario's root seed factory."""
        return SeedSequenceFactory(self.seed)

    def make_stream(self) -> InputStream:
        """The input stream matching the task."""
        rng = self.seeds.stream("inputs")
        if self.task.kind is TaskKind.SENTENCE_PREDICTION:
            return SentenceStream(rng)
        return ImageStream(rng)

    def make_contention(
        self, phases: list[ContentionPhase] | None = None
    ) -> ContentionProcess:
        """The contention process for this environment."""
        return ContentionProcess(
            kind=self.env,
            machine=self.machine,
            rng=self.seeds.stream("contention"),
            phases=phases,
        )

    def make_engine(
        self, phases: list[ContentionPhase] | None = None
    ) -> InferenceEngine:
        """A fresh engine over this scenario's environment."""
        return InferenceEngine(
            machine=self.machine,
            contention=self.make_contention(phases),
            noise_rng=self.seeds.stream("noise"),
        )

    def profile(self) -> ProfileTable:
        """The offline profile of the candidates on this machine."""
        if self._profile is None:
            profiler = Profiler(self.machine)
            self._profile = profiler.analytic(list(self.candidates.models))
        return self._profile

    def space(self):
        """The full candidate configuration space (memoised).

        Every consumer — the scheme factory, the oracles, the timing
        grids — shares one space object per scenario, so the grid's
        configuration rows and a scheduler's candidates are the *same*
        objects and tuple comparisons collapse to pointer checks.
        """
        if self._space is None:
            # Imported here: core.config_space must stay importable
            # without the workloads package (and vice versa).
            from repro.core.config_space import ConfigurationSpace

            self._space = ConfigurationSpace(
                list(self.candidates.models), list(self.profile().powers)
            )
        return self._space

    def anchor_latency_s(self) -> float:
        """Mean default-environment latency of the largest anytime DNN.

        Table 3 anchors the deadline range on this value; when the
        candidate set has no anytime model (ALERT-Trad) the slowest
        traditional model anchors instead.
        """
        anytime = self.candidates.anytime
        anchor = anytime if anytime is not None else max(
            self.candidates.models, key=lambda m: m.base_latency_s
        )
        return anchor.nominal_latency(self.machine)


def build_scenario(
    platform: str | MachineSpec = "CPU1",
    task: str | Task = "image",
    env: str | ContentionKind = "default",
    candidates: str = "standard",
    seed: int = 20200417,
) -> Scenario:
    """Convenience scenario builder accepting the paper's names.

    >>> sc = build_scenario("CPU1", "image", "memory")
    >>> sc.machine.name, sc.env.value
    ('CPU1', 'memory')
    """
    machine = platform if isinstance(platform, MachineSpec) else get_platform(platform)
    if isinstance(task, str):
        lowered = task.lower()
        if lowered in ("image", "img", "image_classification"):
            task = IMAGE_TASK
        elif lowered in ("sentence", "nlp", "rnn", "sentence_prediction"):
            task = SENTENCE_TASK
        else:
            raise ConfigurationError(f"unknown task {task!r}")
    if isinstance(env, str):
        env = ContentionKind.from_name(env)
    cand = candidate_set(task, candidates)
    name = f"{machine.name}-{task.kind.value}-{env.value}-{cand.name}"
    return Scenario(
        name=name,
        machine=machine,
        task=task,
        candidates=cand,
        env=env,
        seed=seed,
    )


@dataclass(frozen=True)
class ConstraintGrid:
    """The Table 3 constraint settings for one scenario."""

    min_energy_goals: tuple[Goal, ...]
    min_error_goals: tuple[Goal, ...]

    @property
    def n_settings(self) -> int:
        """Total constraint settings across both tasks."""
        return len(self.min_energy_goals) + len(self.min_error_goals)


def _achievable_quality_bounds(
    scenario: Scenario, profile: ProfileTable, deadline_s: float
) -> tuple[float, float]:
    """Quality range achievable under ``deadline_s`` at full power.

    The lower bound is the weakest *delivered* quality any candidate
    offers (the first anytime rung or the smallest traditional model),
    mirroring the paper's goal ranges (85-95% for image classification)
    — accuracy goals never sink toward the random-guess floor.  The
    upper bound is the best quality any candidate completes within the
    deadline at full power.
    """
    default_power = scenario.machine.default_power()
    achievable: list[float] = []
    floors: list[float] = []
    for model in scenario.candidates.models:
        if isinstance(model, AnytimeDnn):
            floors.append(model.outputs[0].quality)
            full = profile.latency(model.name, default_power)
            fraction = min(1.0, deadline_s / full)
            achievable.append(model.quality_at_fraction(fraction))
        else:
            floors.append(model.quality)
            latency = profile.latency(model.name, default_power)
            if latency <= deadline_s:
                achievable.append(model.quality)
            else:
                achievable.append(model.q_fail)
    lower = min(floors)
    upper = max(max(achievable), lower)
    return lower, upper


def constraint_grid(
    scenario: Scenario,
    deadline_fractions: tuple[float, ...] = DEADLINE_FRACTIONS,
    quality_fractions: tuple[float, ...] = QUALITY_FRACTIONS,
    power_fractions: tuple[float, ...] = POWER_FRACTIONS,
) -> ConstraintGrid:
    """Generate the constraint settings of Table 3 for one scenario."""
    profile = scenario.profile()
    anchor = scenario.anchor_latency_s()
    machine = scenario.machine
    power_span = machine.power_max_w - machine.power_min_w

    min_energy: list[Goal] = []
    min_error: list[Goal] = []
    for fraction in deadline_fractions:
        deadline = anchor * fraction
        lower_q, upper_q = _achievable_quality_bounds(scenario, profile, deadline)
        for q_fraction in quality_fractions:
            target = lower_q + q_fraction * (upper_q - lower_q)
            min_energy.append(
                Goal(
                    objective=ObjectiveKind.MINIMIZE_ENERGY,
                    deadline_s=deadline,
                    accuracy_min=float(np.round(target, 6)),
                )
            )
        for p_fraction in power_fractions:
            budget_power = machine.power_min_w + p_fraction * power_span
            min_error.append(
                Goal(
                    objective=ObjectiveKind.MAXIMIZE_ACCURACY,
                    deadline_s=deadline,
                    energy_budget_j=float(np.round(budget_power * deadline, 6)),
                )
            )
    return ConstraintGrid(
        min_energy_goals=tuple(min_energy),
        min_error_goals=tuple(min_error),
    )


def stride_settings(goals, settings_stride: int) -> list[Goal]:
    """Every ``settings_stride``-th constraint setting (the drivers'
    ``--stride``); a stride below 1 raises
    :class:`~repro.errors.ConfigurationError`."""
    if settings_stride < 1:
        raise ConfigurationError(
            f"settings_stride must be >= 1, got {settings_stride}"
        )
    return list(goals)[::settings_stride]
