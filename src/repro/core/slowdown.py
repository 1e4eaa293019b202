"""The global slowdown factor ξ (paper Section 3.3, Idea 1).

ξ is a *virtual* quantity: the ratio of the current environment's
latency to the profiled environment's latency, assumed common to all
(DNN, power) configurations.  Tracking one scalar instead of one
estimate per configuration is what makes the huge joint configuration
space tractable — every observation, no matter which configuration
produced it, refines the prediction for *all* configurations.

The estimator wraps the adaptive Kalman filter and adds the
bookkeeping the runtime needs: converting a measured latency plus the
profiled latency of whatever configuration just ran into a ratio
observation, and exposing the (mean, sigma) pair the estimators
consume.
"""

from __future__ import annotations

import numpy as np

from repro.core.kalman import AdaptiveKalmanFilter, StackedKalmanFilter
from repro.errors import ConfigurationError

__all__ = ["GlobalSlowdownEstimator", "StackedSlowdownEstimator"]


class GlobalSlowdownEstimator:
    """Online estimate of the global slowdown factor ξ.

    Besides the Gaussian (mean, sigma) the Kalman filter provides, the
    estimator tracks a light *tail model*: the EWMA frequency and
    magnitude of observations far above the current mean.  Section 3.6
    concedes that the Gaussian assumption "may not hold in practice";
    a three-sigma-in-the-model event that actually happens a few
    percent of the time makes traditional networks (which crash to a
    random guess on a miss) look far safer than they are relative to
    anytime networks (which just drop a rung).  The tail model lets the
    accuracy estimator price that risk.

    Parameters
    ----------
    q0:
        Process-noise cap forwarded to the Kalman filter; raise it
        for extremely heavy-tailed environments (Section 3.6).
    min_sigma:
        Numerical floor on the reported sigma so downstream CDFs stay
        well-defined in perfectly quiet environments.
    tail_threshold_sigmas:
        How many sigmas above the mean an observation must land to
        count as a tail event.
    tail_ewma:
        Smoothing factor of the tail frequency/magnitude EWMAs.
    keep_history:
        When True, every observed ratio is retained for trace
        consumers (Figure 11).  Off by default: the filters summarise
        the stream, so unbounded retention was pure memory growth on
        long-running serving loops — opt in only where
        :meth:`history` is actually read.
    """

    def __init__(
        self,
        q0: float = 0.1,
        min_sigma: float = 1e-6,
        tail_threshold_sigmas: float = 3.0,
        tail_ewma: float = 0.05,
        keep_history: bool = False,
    ) -> None:
        if not 0.0 < tail_ewma <= 1.0:
            raise ConfigurationError(
                f"tail_ewma must lie in (0, 1], got {tail_ewma}"
            )
        self._filter = AdaptiveKalmanFilter(q0=q0)
        self._min_sigma = min_sigma
        self._tail_threshold = tail_threshold_sigmas
        self._tail_ewma = tail_ewma
        self._tail_fraction = 0.0
        self._tail_ratio = 1.0
        self._history: list[float] | None = [] if keep_history else None

    def observe(self, measured_latency_s: float, profiled_latency_s: float) -> float:
        """Fold in one finished inference; returns the observed ratio.

        For traditional networks ``measured_latency_s`` is the full run
        time.  For anytime networks stopped early the runtime passes
        the *extrapolated* full latency (elapsed time divided by the
        profiled latency fraction of the last completed rung) — every
        rung completion is timestamped, so this is observable in a real
        deployment too.
        """
        if measured_latency_s <= 0 or profiled_latency_s <= 0:
            raise ConfigurationError(
                "latencies must be positive "
                f"(measured={measured_latency_s}, profiled={profiled_latency_s})"
            )
        ratio = measured_latency_s / profiled_latency_s
        threshold = self._filter.mu + self._tail_threshold * max(
            self._filter.sigma, self._min_sigma
        )
        is_tail = ratio > threshold and self._filter.updates > 0
        alpha = self._tail_ewma
        self._tail_fraction = (1 - alpha) * self._tail_fraction + alpha * float(
            is_tail
        )
        if is_tail and self._filter.mu > 0:
            observed_ratio = ratio / self._filter.mu
            self._tail_ratio = (1 - alpha) * self._tail_ratio + alpha * max(
                1.0, observed_ratio
            )
        self._filter.update(ratio)
        if self._history is not None:
            self._history.append(ratio)
        return ratio

    @property
    def mean(self) -> float:
        """Current estimate of E[ξ]."""
        return self._filter.mu

    @property
    def sigma(self) -> float:
        """Current estimate of std[ξ] (floored for numerical safety)."""
        return max(self._min_sigma, self._filter.sigma)

    @property
    def observations(self) -> int:
        """Number of ratios folded in so far."""
        return self._filter.updates

    @property
    def tail_fraction(self) -> float:
        """EWMA frequency of far-above-mean slowdown observations."""
        return self._tail_fraction

    @property
    def tail_ratio(self) -> float:
        """EWMA magnitude of tail observations, relative to the mean."""
        return self._tail_ratio

    @property
    def keeps_history(self) -> bool:
        """Whether observed ratios are being retained."""
        return self._history is not None

    def history(self) -> list[float]:
        """All observed ratios, in order (Figure 11's raw material).

        Only available when constructed with ``keep_history=True`` —
        retention is opt-in so long-running serving loops do not grow
        one float per observation forever.
        """
        if self._history is None:
            raise ConfigurationError(
                "history retention is off; construct the estimator with "
                "keep_history=True to record observed ratios"
            )
        return list(self._history)

    def snapshot(self) -> tuple[float, float]:
        """The (mean, sigma) pair estimators consume."""
        return self.mean, self.sigma

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"GlobalSlowdownEstimator(mean={self.mean:.4f}, "
            f"sigma={self.sigma:.4f}, n={self.observations})"
        )


class StackedSlowdownEstimator:
    """``n`` independent ξ estimators advancing in lockstep.

    The stacked twin of :class:`GlobalSlowdownEstimator` for the
    lockstep multi-goal decision engine: every goal of a cell observes
    one finished inference per step, so the ``n`` Kalman states and
    tail models update in one elementwise pass.  Each state's
    trajectory is bit-identical to a scalar estimator fed the same
    observation sequence (``tests/test_lockstep_parity.py``); no
    history is retained — lockstep cells are throughput paths, trace
    consumers use the scalar estimator with ``keep_history=True``.
    """

    def __init__(
        self,
        n: int,
        q0: float = 0.1,
        min_sigma: float = 1e-6,
        tail_threshold_sigmas: float = 3.0,
        tail_ewma: float = 0.05,
    ) -> None:
        if not 0.0 < tail_ewma <= 1.0:
            raise ConfigurationError(
                f"tail_ewma must lie in (0, 1], got {tail_ewma}"
            )
        self.n = n
        self._filter = StackedKalmanFilter(n, q0=q0)
        self._min_sigma = min_sigma
        self._tail_threshold = tail_threshold_sigmas
        self._tail_ewma = tail_ewma
        self._tail_fraction = np.zeros(n)
        self._tail_ratio = np.ones(n)

    def observe(
        self, measured_latency_s: np.ndarray, profiled_latency_s: np.ndarray
    ) -> np.ndarray:
        """Fold in one finished inference per state; returns the ratios.

        Mirrors :meth:`GlobalSlowdownEstimator.observe` elementwise:
        the tail threshold, the EWMA frequency/magnitude updates, and
        the Kalman update all use the state's own belief.
        """
        kalman = self._filter
        profiled = np.asarray(profiled_latency_s, dtype=np.float64)
        if (profiled <= 0).any():
            raise ConfigurationError("latencies must be positive")
        ratio = np.asarray(measured_latency_s, dtype=np.float64) / profiled
        # Over positive profiled latencies, a non-positive ratio is
        # exactly a non-positive measurement (or one the division
        # underflowed, which the filter refuses too): this one check
        # stands for the measurement's and the filter's.
        if ratio.shape != (self.n,) or (ratio <= 0).any():
            raise ConfigurationError(
                "latencies must be positive, one per state"
            )
        alpha = self._tail_ewma
        self._tail_fraction = (1 - alpha) * self._tail_fraction
        if kalman.updates > 0:
            threshold = kalman.mu + self._tail_threshold * np.maximum(
                kalman.sigma, self._min_sigma
            )
            is_tail = ratio > threshold
            # ``alpha * is_tail`` multiplies by exactly 1.0 or 0.0.
            self._tail_fraction += alpha * is_tail
            grow = is_tail & (kalman.mu > 0)
            if grow.any():
                # Guarded division: non-tail states may sit at any mu;
                # the masked result only reads the tail entries.
                with np.errstate(divide="ignore", invalid="ignore"):
                    observed_ratio = ratio / kalman.mu
                updated = (1 - alpha) * self._tail_ratio + alpha * np.maximum(
                    1.0, observed_ratio
                )
                self._tail_ratio = np.where(grow, updated, self._tail_ratio)
        kalman.advance(ratio)
        return ratio

    @property
    def mean(self) -> np.ndarray:
        """Per-state estimate of E[ξ]."""
        return self._filter.mu

    @property
    def sigma(self) -> np.ndarray:
        """Per-state estimate of std[ξ] (floored for numerical safety)."""
        return np.maximum(self._min_sigma, self._filter.sigma)

    @property
    def observations(self) -> int:
        """Number of lockstep observation rounds folded in so far."""
        return self._filter.updates

    @property
    def tail_fraction(self) -> np.ndarray:
        """Per-state EWMA frequency of far-above-mean observations."""
        return self._tail_fraction

    @property
    def tail_ratio(self) -> np.ndarray:
        """Per-state EWMA magnitude of tail observations."""
        return self._tail_ratio

    def snapshot(self) -> tuple[np.ndarray, np.ndarray]:
        """The per-state (mean, sigma) arrays estimators consume."""
        return self.mean, self.sigma
