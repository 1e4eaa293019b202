"""Core DNN and task abstractions.

A :class:`DnnModel` is everything ALERT knows about a network: a name,
the family it belongs to (which fixes cross-platform speed ratios), its
quality when it completes in time, its fallback quality when it misses
the deadline, and the latency/power fingerprint the simulator needs.

Quality is always an internal scalar in ``[0, 1]`` where higher is
better; the :class:`Task` owns the conversion to the metric the paper
reports (top-5 accuracy for images, perplexity for sentence
prediction).  Keeping the controller metric-agnostic mirrors the paper,
where the same machinery maximises image accuracy and minimises
sentence perplexity.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass, field

from repro.errors import ConfigurationError
from repro.hw.machine import MachineSpec

__all__ = [
    "TaskKind",
    "Task",
    "DnnModel",
    "IMAGE_TASK",
    "SENTENCE_TASK",
    "QA_TASK",
]


class TaskKind(enum.Enum):
    """The inference tasks used in the paper's evaluation (Table 2)."""

    IMAGE_CLASSIFICATION = "image_classification"
    SENTENCE_PREDICTION = "sentence_prediction"
    QUESTION_ANSWERING = "question_answering"


#: Perplexity of the fallback (deadline-miss) predictor for the
#: sentence task: a cache/unigram guess, far worse than any model but
#: far better than uniform-over-vocabulary.
PERPLEXITY_FAIL = 1200.0
#: Perplexity anchor for quality 1.0 (slightly better than the best
#: model so qualities stay strictly below 1).
PERPLEXITY_BEST = 75.0


@dataclass(frozen=True)
class Task:
    """An inference task plus its reporting metric.

    Parameters
    ----------
    kind:
        Which of the paper's tasks this is.
    metric_name:
        Name of the reported metric (``"top5_accuracy_pct"`` or
        ``"perplexity"``).
    metric_higher_is_better:
        Direction of the reported metric; internal quality is always
        higher-is-better.
    q_fail:
        Internal quality of the fallback answer produced on a deadline
        miss (paper Eq. 3's ``q_fail``): a random top-5 guess over 1000
        classes for images, the unigram-cache guess for sentences.
    """

    kind: TaskKind
    metric_name: str
    metric_higher_is_better: bool
    q_fail: float

    def quality_to_metric(self, quality: float) -> float:
        """Convert internal quality to the reported metric."""
        if self.kind is TaskKind.SENTENCE_PREDICTION:
            return _quality_to_perplexity(quality)
        return quality * 100.0

    def quality_to_metric_list(self, qualities: list[float]) -> list[float]:
        """:meth:`quality_to_metric` over a whole run's qualities.

        The affine accuracy conversion vectorises bit-identically; the
        perplexity map stays per element because ``math.exp`` and
        NumPy's ``exp`` may round differently, once per distinct
        quality (a run's qualities come off a few ladder rungs).
        """
        if self.kind is TaskKind.SENTENCE_PREDICTION:
            perplexity = {q: _quality_to_perplexity(q) for q in set(qualities)}
            return [perplexity[quality] for quality in qualities]
        return [quality * 100.0 for quality in qualities]

    def metric_to_quality(self, metric: float) -> float:
        """Convert the reported metric to internal quality."""
        if self.kind is TaskKind.SENTENCE_PREDICTION:
            return _perplexity_to_quality(metric)
        return metric / 100.0


def _perplexity_to_quality(perplexity: float) -> float:
    """Map perplexity to internal quality via normalised log-perplexity.

    ``PERPLEXITY_FAIL`` maps to 0.0 and ``PERPLEXITY_BEST`` to 1.0, so
    "maximise quality" is exactly "minimise log perplexity".
    """
    if perplexity <= 0:
        raise ConfigurationError(f"perplexity must be positive, got {perplexity}")
    span = math.log(PERPLEXITY_FAIL) - math.log(PERPLEXITY_BEST)
    quality = (math.log(PERPLEXITY_FAIL) - math.log(perplexity)) / span
    return max(0.0, min(1.0, quality))


def _quality_to_perplexity(quality: float) -> float:
    """Inverse of :func:`_perplexity_to_quality`."""
    quality = max(0.0, min(1.0, quality))
    span = math.log(PERPLEXITY_FAIL) - math.log(PERPLEXITY_BEST)
    return math.exp(math.log(PERPLEXITY_FAIL) - quality * span)


IMAGE_TASK = Task(
    kind=TaskKind.IMAGE_CLASSIFICATION,
    metric_name="top5_accuracy_pct",
    metric_higher_is_better=True,
    # Random top-5 guess over the 1000 ImageNet classes.
    q_fail=0.005,
)

SENTENCE_TASK = Task(
    kind=TaskKind.SENTENCE_PREDICTION,
    metric_name="perplexity",
    metric_higher_is_better=False,
    q_fail=0.0,
)

QA_TASK = Task(
    kind=TaskKind.QUESTION_ANSWERING,
    metric_name="f1_pct",
    metric_higher_is_better=True,
    q_fail=0.0,
)


@dataclass(frozen=True)
class DnnModel:
    """A traditional (single-output) DNN, as ALERT sees it.

    Parameters
    ----------
    name:
        Unique identifier, e.g. ``"resnet_v1_50"``.
    task:
        The :class:`Task` this network solves.
    family:
        Architecture family (``"cnn"``, ``"rnn"``, ``"transformer"``),
        which selects the per-platform speed ratio.
    quality:
        Internal quality delivered when inference completes before the
        deadline (the paper uses the model's training accuracy here).
    base_latency_s:
        Mean inference latency on the reference platform (CPU2) at the
        default (maximum) power cap in the quiet environment.
    memory_intensity:
        Fraction of execution bound by memory bandwidth; DVFS does not
        accelerate this part.
    power_utilization:
        Fraction of the available dynamic power headroom the network
        actually exercises — tiny networks cannot saturate a server
        package, so they draw below the cap.
    model_memory_mb:
        Working-set size; decides whether the network fits a platform
        (the Embedded board cannot hold the large image models —
        Figure 4's missing boxes).
    input_sensitivity:
        Exponent with which latency scales in the input's work factor:
        0 for fixed-size images, 1 for length-proportional RNNs.
    """

    name: str
    task: Task
    family: str
    quality: float
    base_latency_s: float
    memory_intensity: float = 0.05
    power_utilization: float = 1.0
    model_memory_mb: float = 100.0
    input_sensitivity: float = 0.0

    def __post_init__(self) -> None:
        if not 0.0 < self.quality <= 1.0:
            raise ConfigurationError(
                f"{self.name}: quality must lie in (0, 1], got {self.quality}"
            )
        if self.base_latency_s <= 0:
            raise ConfigurationError(
                f"{self.name}: base latency must be positive, got "
                f"{self.base_latency_s}"
            )
        if not 0.0 <= self.memory_intensity <= 1.0:
            raise ConfigurationError(
                f"{self.name}: memory_intensity must lie in [0, 1]"
            )
        if not 0.0 < self.power_utilization <= 1.0:
            raise ConfigurationError(
                f"{self.name}: power_utilization must lie in (0, 1]"
            )
        if self.input_sensitivity < 0:
            raise ConfigurationError(
                f"{self.name}: input_sensitivity must be >= 0"
            )

    # ------------------------------------------------------------------
    # Derived quantities
    # ------------------------------------------------------------------
    @property
    def is_anytime(self) -> bool:
        """Whether this model emits intermediate outputs."""
        return False

    @property
    def q_fail(self) -> float:
        """Quality of the answer delivered on a deadline miss."""
        return self.task.q_fail

    @property
    def error(self) -> float:
        """Internal error rate, ``1 - quality``."""
        return 1.0 - self.quality

    @property
    def metric_value(self) -> float:
        """The reported metric when the model completes in time."""
        return self.task.quality_to_metric(self.quality)

    def nominal_latency(self, machine: MachineSpec) -> float:
        """Uncapped, uncontended mean latency on ``machine``."""
        return self.base_latency_s * machine.family_speed_ratio(self.family)

    def fits(self, machine: MachineSpec) -> bool:
        """Whether the model's working set fits the platform."""
        return machine.supports_model_mb(self.model_memory_mb)

    def work_scale(self, work_factor: float) -> float:
        """Latency multiplier contributed by an input's work factor."""
        if work_factor <= 0:
            raise ConfigurationError(
                f"work factor must be positive, got {work_factor}"
            )
        if self.input_sensitivity == 0.0:
            return 1.0
        return float(work_factor**self.input_sensitivity)

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        return f"{self.name} (q={self.quality:.3f}, t={self.base_latency_s * 1e3:.1f} ms)"


@dataclass(frozen=True)
class _ModelSet:
    """A named, ordered collection of candidate models.

    Thin helper used by scenario builders; kept here because both
    families and the zoo return it.
    """

    name: str
    models: tuple[DnnModel, ...] = field(default_factory=tuple)

    def __iter__(self):
        return iter(self.models)

    def __len__(self) -> int:
        return len(self.models)

    def by_name(self, name: str) -> DnnModel:
        for model in self.models:
            if model.name == name:
                return model
        raise ConfigurationError(f"{self.name}: no model named {name!r}")

    def fastest(self) -> DnnModel:
        """The model with the smallest reference latency."""
        return min(self.models, key=lambda m: m.base_latency_s)

    def most_accurate(self) -> DnnModel:
        """The model with the highest in-time quality."""
        return max(self.models, key=lambda m: m.quality)


ModelSet = _ModelSet
