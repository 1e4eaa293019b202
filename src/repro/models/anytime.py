"""Anytime DNNs: networks that emit a ladder of intermediate outputs.

An anytime network (paper Section 3.5, using the nested design of
reference [5]) produces outputs ``o_1, o_2, ..., o_K`` at increasing
times with increasing reliability.  If the deadline lands between
output ``k`` and ``k+1``, the user gets ``o_k`` — far better than the
random guess a traditional network degrades to (Eq. 13 vs. Eq. 3).

The flexibility costs a little accuracy: the final output of an
anytime network is slightly below a traditional network of the same
cost, which is why ALERT mixing both candidate kinds beats either
alone (Table 5).
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.errors import ConfigurationError
from repro.models.base import DnnModel

__all__ = ["AnytimeOutput", "AnytimeDnn"]


@dataclass(frozen=True)
class AnytimeOutput:
    """One rung of the anytime ladder.

    Parameters
    ----------
    latency_fraction:
        When this output becomes available, as a fraction of the full
        network's latency (strictly increasing along the ladder; the
        last rung is 1.0).
    quality:
        Internal quality of this output (strictly increasing).
    """

    latency_fraction: float
    quality: float

    def __post_init__(self) -> None:
        if not 0.0 < self.latency_fraction <= 1.0:
            raise ConfigurationError(
                f"latency_fraction must lie in (0, 1], got {self.latency_fraction}"
            )
        if not 0.0 < self.quality <= 1.0:
            raise ConfigurationError(
                f"output quality must lie in (0, 1], got {self.quality}"
            )


@dataclass(frozen=True)
class AnytimeDnn(DnnModel):
    """A nested anytime network.

    The inherited ``quality`` and ``base_latency_s`` describe the final
    output; ``outputs`` lists every rung including the final one.
    """

    outputs: tuple[AnytimeOutput, ...] = field(default_factory=tuple)

    def __post_init__(self) -> None:
        super().__post_init__()
        if len(self.outputs) < 2:
            raise ConfigurationError(
                f"{self.name}: an anytime network needs at least two outputs"
            )
        fractions = [o.latency_fraction for o in self.outputs]
        qualities = [o.quality for o in self.outputs]
        if any(b <= a for a, b in zip(fractions, fractions[1:])):
            raise ConfigurationError(
                f"{self.name}: output latency fractions must strictly increase"
            )
        if any(b <= a for a, b in zip(qualities, qualities[1:])):
            raise ConfigurationError(
                f"{self.name}: output qualities must strictly increase"
            )
        if abs(self.outputs[-1].latency_fraction - 1.0) > 1e-9:
            raise ConfigurationError(
                f"{self.name}: the last output must land at latency fraction 1.0"
            )
        if abs(self.outputs[-1].quality - self.quality) > 1e-9:
            raise ConfigurationError(
                f"{self.name}: the last output's quality ({self.outputs[-1].quality}) "
                f"must equal the model quality ({self.quality})"
            )
        # Cached ladder arrays for the vectorized rung lookups; frozen
        # dataclass, so they go through object.__setattr__ once here.
        object.__setattr__(
            self,
            "_ladder_fractions",
            np.array([o.latency_fraction for o in self.outputs], dtype=float),
        )
        object.__setattr__(
            self,
            "_ladder_qualities",
            np.array([o.quality for o in self.outputs], dtype=float),
        )

    @property
    def is_anytime(self) -> bool:
        return True

    @property
    def n_outputs(self) -> int:
        """Number of rungs on the ladder."""
        return len(self.outputs)

    def quality_at_fraction(self, completed_fraction: float) -> float:
        """Quality of the best output available after running a
        ``completed_fraction`` of the full latency.

        Returns the task's ``q_fail`` when even the first output has
        not landed yet (Eq. 13's final case).
        """
        best = self.q_fail
        for output in self.outputs:
            if output.latency_fraction <= completed_fraction + 1e-12:
                best = output.quality
            else:
                break
        return best

    def outputs_completed(self, completed_fraction: float) -> int:
        """How many rungs completed within ``completed_fraction``."""
        count = 0
        for output in self.outputs:
            if output.latency_fraction <= completed_fraction + 1e-12:
                count += 1
        return count

    def outputs_completed_array(self, completed_fractions: np.ndarray) -> np.ndarray:
        """:meth:`outputs_completed` over an array of fractions.

        ``searchsorted`` on the cached ladder counts rungs with
        ``latency_fraction <= fraction + 1e-12`` — the same tolerance
        and comparison the scalar lookup applies per rung.
        """
        fractions = np.asarray(completed_fractions, dtype=float)
        ladder: np.ndarray = self._ladder_fractions  # type: ignore[attr-defined]
        return np.searchsorted(ladder, fractions + 1e-12, side="right")

    def quality_of_rungs(self, counts: np.ndarray) -> np.ndarray:
        """:meth:`quality_at_fraction` over an array of fractions, given
        their :meth:`outputs_completed_array` rung counts."""
        qualities: np.ndarray = self._ladder_qualities  # type: ignore[attr-defined]
        return np.where(
            counts > 0,
            qualities[np.maximum(counts - 1, 0)],
            self.q_fail,
        )

    def rung_latency_s(self, k: int, full_latency_s: float) -> float:
        """Absolute time of rung ``k`` (0-based) given the full latency."""
        if not 0 <= k < len(self.outputs):
            raise ConfigurationError(
                f"{self.name}: rung {k} out of range [0, {len(self.outputs)})"
            )
        return self.outputs[k].latency_fraction * full_latency_s
