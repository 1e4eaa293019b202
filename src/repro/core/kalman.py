"""The paper's two Kalman filters (Eqs. 5 and 8).

:class:`AdaptiveKalmanFilter` estimates the global slowdown factor ξ.
It is a scalar Kalman filter with the *adaptive process-noise*
extension of Akhlaghi et al. [2]: the process noise ``Q`` is inflated
from recent innovations with a forgetting factor, so the estimated
variance grows quickly when the environment turns volatile.  ALERT's
novelty (Section 3.3, Idea 2) is to *use* that variance — not just the
mean — when predicting accuracy and energy.

:class:`IdlePowerFilter` tracks φ, the ratio of inference-idle package
power to the inference power setting, with a standard constant-gain
formulation (Eq. 8).  φ feeds the idle term of the energy estimate
(Eq. 9); tracking it online is what lets ALERT handle co-located jobs
that burn power while the DNN waits for its next input.

Both filters follow the paper's equations and initial values exactly;
the attribute names mirror the paper's symbols.
"""

from __future__ import annotations

import math

import numpy as np

from repro.errors import ConfigurationError

__all__ = [
    "AdaptiveKalmanFilter",
    "IdlePowerFilter",
    "StackedKalmanFilter",
    "StackedIdlePowerFilter",
]


class AdaptiveKalmanFilter:
    """Scalar Kalman filter with adaptive process noise (Eq. 5).

    The update sequence for measurement ``x(n)`` (the observed
    slowdown ratio ``t(n-1) / t_prof``) is::

        y(n)    = x(n) - mu(n-1)
        Q(n)    = min(Q0, alpha * Q(n-1) + (1 - alpha) * (K(n-1) * y(n-1))^2)
        K(n)    = ((1 - K(n-1)) * var(n-1) + Q(n))
                  / ((1 - K(n-1)) * var(n-1) + Q(n) + R)
        mu(n)   = mu(n-1) + K(n) * y(n)
        var(n)  = (1 - K(n-1)) * var(n-1) + Q(n)

    Initial values follow the paper: ``K(0)=0.5``, ``R=0.001``,
    ``Q(0)=0.1``, ``mu(0)=1``, ``var(0)=0.1``, ``alpha=0.3``.

    A note on the ``Q(n)`` bound: the paper's typeset equation shows
    ``max{Q(0), ...}`` but its prose says "the process noise *capped*
    with Q(0)" — an upper bound.  The cap is the reading consistent
    with the rest of the paper: a ``max`` floor would pin the estimate
    variance at ``>= Q(0) = 0.1`` forever, whereas Figure 11 shows the
    fitted ξ distribution collapsing to a few-percent spread in the
    quiet environment, and Section 3.6 says *increasing* ``Q(0)``
    makes the filter more conservative (true for a cap: a higher cap
    lets volatility push the variance higher).  We implement the cap.

    Parameters
    ----------
    q0:
        Cap (and initial value) of the process noise.  Users "can
        compensate for extremely aberrant latency distributions by
        increasing the value of Q(0)" (Section 3.6).
    """

    def __init__(
        self,
        mu0: float = 1.0,
        var0: float = 0.1,
        k0: float = 0.5,
        r: float = 0.001,
        q0: float = 0.1,
        alpha: float = 0.3,
    ) -> None:
        if var0 <= 0 or r <= 0 or q0 <= 0:
            raise ConfigurationError("var0, R and Q0 must all be positive")
        if not 0.0 <= k0 < 1.0:
            raise ConfigurationError(f"K(0) must lie in [0, 1), got {k0}")
        if not 0.0 <= alpha <= 1.0:
            raise ConfigurationError(f"alpha must lie in [0, 1], got {alpha}")
        self.mu = mu0
        self.var = var0
        self.gain = k0
        self.measurement_noise = r
        self.q_cap = q0
        self.process_noise = q0
        self.alpha = alpha
        self._last_innovation = 0.0
        self._updates = 0

    def update(self, measurement: float) -> None:
        """Fold in one observed slowdown ratio."""
        if measurement <= 0:
            raise ConfigurationError(
                f"slowdown measurements must be positive, got {measurement}"
            )
        innovation = measurement - self.mu
        # Squared via explicit multiplication (not ``** 2``) so the
        # stacked twin's elementwise NumPy update is bit-identical.
        weighted = self.gain * self._last_innovation
        self.process_noise = min(
            self.q_cap,
            self.alpha * self.process_noise
            + (1.0 - self.alpha) * (weighted * weighted),
        )
        prior_var = (1.0 - self.gain) * self.var + self.process_noise
        new_gain = prior_var / (prior_var + self.measurement_noise)
        self.mu = self.mu + new_gain * innovation
        self.var = prior_var
        self.gain = new_gain
        self._last_innovation = innovation
        self._updates += 1

    @property
    def sigma(self) -> float:
        """Standard deviation of the ξ estimate.

        ``math.sqrt`` (correctly rounded, like ``np.sqrt``) rather than
        ``** 0.5`` keeps the stacked twin bit-identical.
        """
        return math.sqrt(self.var)

    @property
    def updates(self) -> int:
        """Number of measurements folded in so far."""
        return self._updates

    def snapshot(self) -> tuple[float, float]:
        """The current (mean, sigma) pair."""
        return self.mu, self.sigma

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"AdaptiveKalmanFilter(mu={self.mu:.4f}, sigma={self.sigma:.4f}, "
            f"Q={self.process_noise:.4f}, K={self.gain:.4f}, n={self._updates})"
        )


class IdlePowerFilter:
    """Kalman filter for the DNN-idle power ratio φ (Eq. 8).

    The update for an observed idle power ``p_idle`` while the previous
    configuration's inference power setting was ``p_prev`` is::

        W(n)   = (M(n-1) + S) / (M(n-1) + S + V)
        M(n)   = (1 - W(n)) * (M(n-1) + S)
        phi(n) = phi(n-1) + W(n) * (p_idle / p_prev - phi(n-1))

    Initial values follow the paper: ``M(0)=0.01``, ``S=0.0001``,
    ``V=0.001``.  ``phi(0)`` defaults to the profiled idle/peak ratio.
    """

    def __init__(
        self,
        phi0: float = 0.2,
        m0: float = 0.01,
        s: float = 0.0001,
        v: float = 0.001,
    ) -> None:
        if phi0 < 0:
            raise ConfigurationError(f"phi(0) must be >= 0, got {phi0}")
        if m0 <= 0 or s <= 0 or v <= 0:
            raise ConfigurationError("M(0), S and V must all be positive")
        self.phi = phi0
        self.variance = m0
        self.process_noise = s
        self.measurement_noise = v
        self._updates = 0

    def update(self, idle_power_w: float, inference_power_w: float) -> None:
        """Fold in one observed idle-period power sample."""
        if idle_power_w < 0:
            raise ConfigurationError(
                f"idle power must be >= 0, got {idle_power_w}"
            )
        if inference_power_w <= 0:
            raise ConfigurationError(
                f"inference power must be positive, got {inference_power_w}"
            )
        prior = self.variance + self.process_noise
        gain = prior / (prior + self.measurement_noise)
        self.variance = (1.0 - gain) * prior
        ratio = idle_power_w / inference_power_w
        self.phi = self.phi + gain * (ratio - self.phi)
        self._updates += 1

    def idle_power(self, inference_power_w: float) -> float:
        """Predicted idle power for a configuration's power setting."""
        if inference_power_w <= 0:
            raise ConfigurationError(
                f"inference power must be positive, got {inference_power_w}"
            )
        return self.phi * inference_power_w

    @property
    def updates(self) -> int:
        """Number of samples folded in so far."""
        return self._updates

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"IdlePowerFilter(phi={self.phi:.4f}, M={self.variance:.5f}, "
            f"n={self._updates})"
        )


class StackedKalmanFilter:
    """``n`` independent :class:`AdaptiveKalmanFilter` states, stacked.

    The lockstep decision engine advances every goal of a cell through
    the same input sequence, so the per-goal ξ filters update in
    lockstep too: one elementwise NumPy pass over length-``n`` state
    arrays replaces ``n`` scalar updates.  Every arithmetic expression
    mirrors :meth:`AdaptiveKalmanFilter.update` operation for
    operation, so a stacked state is bit-identical to ``n`` scalar
    filters fed the same measurements (pinned by
    ``tests/test_lockstep_parity.py``).
    """

    def __init__(
        self,
        n: int,
        mu0: float = 1.0,
        var0: float = 0.1,
        k0: float = 0.5,
        r: float = 0.001,
        q0: float = 0.1,
        alpha: float = 0.3,
    ) -> None:
        if n < 1:
            raise ConfigurationError(f"need at least one state, got {n}")
        if var0 <= 0 or r <= 0 or q0 <= 0:
            raise ConfigurationError("var0, R and Q0 must all be positive")
        if not 0.0 <= k0 < 1.0:
            raise ConfigurationError(f"K(0) must lie in [0, 1), got {k0}")
        if not 0.0 <= alpha <= 1.0:
            raise ConfigurationError(f"alpha must lie in [0, 1], got {alpha}")
        self.n = n
        self.mu = np.full(n, mu0)
        self.var = np.full(n, var0)
        self.gain = np.full(n, k0)
        self.measurement_noise = r
        self.q_cap = q0
        self.process_noise = np.full(n, q0)
        self.alpha = alpha
        self._last_innovation = np.zeros(n)
        self._updates = 0

    def update(self, measurements: np.ndarray) -> None:
        """Fold one measurement per state in, elementwise (Eq. 5)."""
        measurements = np.asarray(measurements, dtype=np.float64)
        if measurements.shape != (self.n,):
            raise ConfigurationError(
                f"expected {self.n} measurements, got shape {measurements.shape}"
            )
        if (measurements <= 0).any():
            raise ConfigurationError(
                "slowdown measurements must be positive, got "
                f"{measurements.min()}"
            )
        self.advance(measurements)

    def advance(self, measurements: np.ndarray) -> None:
        """:meth:`update` on measurements the caller already checked:
        a float64 array of ``n`` positive values."""
        innovation = measurements - self.mu
        weighted = self.gain * self._last_innovation
        self.process_noise = np.minimum(
            self.q_cap,
            self.alpha * self.process_noise
            + (1.0 - self.alpha) * (weighted * weighted),
        )
        prior_var = (1.0 - self.gain) * self.var + self.process_noise
        new_gain = prior_var / (prior_var + self.measurement_noise)
        self.mu = self.mu + new_gain * innovation
        self.var = prior_var
        self.gain = new_gain
        self._last_innovation = innovation
        self._updates += 1

    @property
    def sigma(self) -> np.ndarray:
        """Per-state standard deviation of the ξ estimate."""
        return np.sqrt(self.var)

    @property
    def updates(self) -> int:
        """Number of lockstep update rounds folded in so far."""
        return self._updates


class StackedIdlePowerFilter:
    """``n`` independent :class:`IdlePowerFilter` states, stacked.

    Idle-phase samples arrive per goal (a goal whose configuration
    filled the whole period contributes nothing), so the update takes
    a boolean mask: masked-out states keep their ``(phi, M)`` exactly,
    masked-in states update elementwise-identically to the scalar
    filter.
    """

    def __init__(
        self,
        phi0: np.ndarray,
        m0: float = 0.01,
        s: float = 0.0001,
        v: float = 0.001,
    ) -> None:
        phi0 = np.asarray(phi0, dtype=np.float64)
        if phi0.ndim != 1 or phi0.size < 1:
            raise ConfigurationError("phi0 must be a 1-D array of states")
        if np.any(phi0 < 0):
            raise ConfigurationError(f"phi(0) must be >= 0, got {phi0.min()}")
        if m0 <= 0 or s <= 0 or v <= 0:
            raise ConfigurationError("M(0), S and V must all be positive")
        self.n = phi0.size
        self.phi = phi0.copy()
        self.variance = np.full(self.n, m0)
        self.process_noise = s
        self.measurement_noise = v
        self._updates = 0

    def update_where(
        self,
        mask: np.ndarray,
        idle_power_w: np.ndarray,
        inference_power_w: np.ndarray,
    ) -> None:
        """Fold one idle-power sample into every masked-in state (Eq. 8).

        ``idle_power_w`` entries outside the mask may hold any finite
        placeholder; ``inference_power_w`` must be positive everywhere
        (profiled powers are) so the elementwise ratio stays defined.
        """
        mask = np.asarray(mask, dtype=bool)
        if not mask.any():
            return
        idle = np.asarray(idle_power_w, dtype=np.float64)
        inference = np.asarray(inference_power_w, dtype=np.float64)
        if np.any(idle[mask] < 0):
            raise ConfigurationError("idle power must be >= 0")
        if np.any(inference <= 0):
            raise ConfigurationError("inference power must be positive")
        prior = self.variance + self.process_noise
        gain = prior / (prior + self.measurement_noise)
        ratio = idle / inference
        self.variance = np.where(mask, (1.0 - gain) * prior, self.variance)
        self.phi = np.where(mask, self.phi + gain * (ratio - self.phi), self.phi)
        self._updates += 1

    @property
    def updates(self) -> int:
        """Number of lockstep update rounds with at least one sample."""
        return self._updates
