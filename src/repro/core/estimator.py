"""Per-configuration latency/accuracy/energy estimation (Eqs. 6-13).

Given the global slowdown estimate ``ξ ~ N(mu, sigma^2)`` and the idle
power ratio ``phi``, the estimator derives for every configuration:

* the probability of completing by the deadline (Eq. 6),
* the expected delivered quality (Eq. 7 for traditional networks,
  Eq. 13's ladder for anytime networks),
* the probability of delivering at least a target quality (the
  ``Pr_th`` machinery of Eqs. 10-11),
* the expected whole-period energy (Eq. 9, or the ``Pr_th`` latency
  percentile variant of Eq. 12).

The estimator is a pure function of ``(configuration, goal, ξ, phi)``
— all the state lives in the kernel — which keeps it trivially
testable and lets oracles and baselines reuse pieces of it.

**Architecture note — scalar reference vs. batch fast path.**  This
module is the *reference implementation*: one configuration at a time,
written to read like the paper's equations.  Production selection runs
on :class:`repro.core.batch_estimator.BatchAlertEstimator`, which
evaluates the same equations for the whole configuration space in one
pass of NumPy array operations and is over an order of magnitude
faster per decision (``benchmarks/bench_decide_throughput.py``).  The
randomized parity suite (``tests/test_batch_parity.py``) pins the two
paths together to <= 1e-9; change semantics here and the batch twin
must follow.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from repro.core.config_space import Configuration
from repro.core.goals import Goal, ObjectiveKind
from repro.errors import ConfigurationError
from repro.models.anytime import AnytimeDnn
from repro.models.profiles import ProfileTable

__all__ = ["ConfigEstimate", "AlertEstimator", "normal_cdf", "normal_quantile"]


def normal_cdf(x: float) -> float:
    """Standard normal CDF."""
    return 0.5 * (1.0 + math.erf(x / math.sqrt(2.0)))


def normal_quantile(p: float) -> float:
    """Standard normal quantile (inverse CDF) via Acklam's method.

    Accurate to ~1e-9 over (0, 1); raises for p outside (0, 1).
    """
    if not 0.0 < p < 1.0:
        raise ConfigurationError(f"quantile probability must be in (0,1), got {p}")
    # Coefficients for the rational approximations.
    a = (
        -3.969683028665376e01,
        2.209460984245205e02,
        -2.759285104469687e02,
        1.383577518672690e02,
        -3.066479806614716e01,
        2.506628277459239e00,
    )
    b = (
        -5.447609879822406e01,
        1.615858368580409e02,
        -1.556989798598866e02,
        6.680131188771972e01,
        -1.328068155288572e01,
    )
    c = (
        -7.784894002430293e-03,
        -3.223964580411365e-01,
        -2.400758277161838e00,
        -2.549732539343734e00,
        4.374664141464968e00,
        2.938163982698783e00,
    )
    d = (
        7.784695709041462e-03,
        3.224671290700398e-01,
        2.445134137142996e00,
        3.754408661907416e00,
    )
    p_low, p_high = 0.02425, 1.0 - 0.02425
    if p < p_low:
        q = math.sqrt(-2.0 * math.log(p))
        return (
            ((((c[0] * q + c[1]) * q + c[2]) * q + c[3]) * q + c[4]) * q + c[5]
        ) / ((((d[0] * q + d[1]) * q + d[2]) * q + d[3]) * q + 1.0)
    if p <= p_high:
        q = p - 0.5
        r = q * q
        return (
            (((((a[0] * r + a[1]) * r + a[2]) * r + a[3]) * r + a[4]) * r + a[5])
            * q
            / (((((b[0] * r + b[1]) * r + b[2]) * r + b[3]) * r + b[4]) * r + 1.0)
        )
    q = math.sqrt(-2.0 * math.log(1.0 - p))
    return -(
        ((((c[0] * q + c[1]) * q + c[2]) * q + c[3]) * q + c[4]) * q + c[5]
    ) / ((((d[0] * q + d[1]) * q + d[2]) * q + d[3]) * q + 1.0)


@dataclass(frozen=True)
class ConfigEstimate:
    """Everything ALERT predicts about one configuration for one input.

    Attributes
    ----------
    config:
        The configuration estimated.
    latency_mean_s:
        Expected wall time the inference will occupy (anytime runs are
        truncated at the deadline).
    deadline_probability:
        ``Pr_ij`` of Eq. 6: probability the configured run completes
        before the deadline.
    expected_quality:
        Expected delivered quality (Eq. 7 / Eq. 13).
    quality_meet_probability:
        Probability the delivered quality reaches the goal's
        ``accuracy_min`` (1.0 when no accuracy constraint is set).
    expected_energy_j:
        Expected whole-period energy (Eq. 9 / Eq. 12).
    meets_latency / meets_accuracy / meets_energy / meets_prob:
        Constraint satisfaction flags against the goal (these include
        the confidence floor).
    meets_latency_mean:
        The paper's plain Eq. 1/2 latency check (expected latency
        within the deadline) without the confidence floor — the filter
        used by the relaxation stages, where excluding the best
        available gamble would only make things worse.
    """

    config: Configuration
    latency_mean_s: float
    deadline_probability: float
    expected_quality: float
    quality_meet_probability: float
    expected_energy_j: float
    meets_latency: bool
    meets_accuracy: bool
    meets_energy: bool
    meets_prob: bool
    meets_latency_mean: bool = True

    @property
    def feasible(self) -> bool:
        """Whether every applicable constraint is satisfied."""
        return (
            self.meets_latency
            and self.meets_accuracy
            and self.meets_energy
            and self.meets_prob
        )


class AlertEstimator:
    """Derives :class:`ConfigEstimate` records from the filter state.

    Parameters
    ----------
    profile:
        The offline profile anchoring all predictions.
    variance_aware:
        The paper's default (True) uses the full ξ distribution.
        False reproduces the ALERT* ablation of Section 5.3, which
        collapses ξ to its mean — probabilities become step functions.
    """

    #: Sigma used when variance is disabled: small enough that the CDF
    #: is a numerical step function.
    _POINT_SIGMA = 1e-9

    def __init__(
        self,
        profile: ProfileTable,
        variance_aware: bool = True,
        confidence: float = 0.95,
    ) -> None:
        if not 0.0 < confidence < 1.0:
            raise ConfigurationError(
                f"confidence must lie in (0, 1), got {confidence}"
            )
        self.profile = profile
        self.variance_aware = variance_aware
        #: Minimum probability with which each constraint must hold for
        #: a configuration to count as feasible.  Defaults to 0.95: the
        #: complement of the evaluation's 10% violation rule plus a
        #: margin for the one-input feedback lag the Kalman filter has
        #: at environment phase transitions.
        self.confidence = confidence

    # ------------------------------------------------------------------
    # Eq. 6: deadline probability
    # ------------------------------------------------------------------
    def completion_probability(
        self,
        profiled_latency_s: float,
        deadline_s: float,
        xi_mean: float,
        xi_sigma: float,
        tail: tuple[float, float] | None = None,
    ) -> float:
        """``Pr[ξ * t_prof <= T]`` for ``ξ ~ N(mu, sigma^2)``.

        ``tail``, when given, is the slowdown estimator's
        ``(tail_fraction, tail_ratio)`` pair; ξ is then treated as the
        mixture ``(1-f) N(mu, sigma^2) + f N(mu*r, sigma^2)`` so the
        few-percent heavy-tail events the Gaussian cannot represent
        still discount configurations that would crash on them
        (Section 3.6's non-Gaussian robustness concern).
        """
        if profiled_latency_s <= 0:
            raise ConfigurationError(
                f"profiled latency must be positive, got {profiled_latency_s}"
            )
        sigma = xi_sigma if self.variance_aware else self._POINT_SIGMA
        sigma = max(sigma, self._POINT_SIGMA)
        threshold = deadline_s / profiled_latency_s
        body = normal_cdf((threshold - xi_mean) / sigma)
        if tail is None or not self.variance_aware:
            return body
        fraction, ratio = tail
        if fraction <= 0.0 or ratio <= 1.0:
            return body
        shifted = normal_cdf((threshold - xi_mean * ratio) / sigma)
        return (1.0 - fraction) * body + fraction * shifted

    # ------------------------------------------------------------------
    # Eqs. 7 / 13: expected quality
    # ------------------------------------------------------------------
    def expected_quality(
        self,
        config: Configuration,
        deadline_s: float,
        xi_mean: float,
        xi_sigma: float,
        tail: tuple[float, float] | None = None,
    ) -> float:
        """Expected delivered quality of a configuration."""
        model = config.model
        if not isinstance(model, AnytimeDnn):
            t_prof = self.profile.latency(model.name, config.power_w)
            pr = self.completion_probability(
                t_prof, deadline_s, xi_mean, xi_sigma, tail
            )
            return pr * model.quality + (1.0 - pr) * model.q_fail

        rung_probs = self._rung_probabilities(
            config, deadline_s, xi_mean, xi_sigma, tail
        )
        last = len(rung_probs) - 1
        expected = (1.0 - rung_probs[0]) * model.q_fail
        for k, pr_k in enumerate(rung_probs):
            pr_next = rung_probs[k + 1] if k < last else 0.0
            expected += model.outputs[k].quality * (pr_k - pr_next)
        return expected

    def _rung_probabilities(
        self,
        config: Configuration,
        deadline_s: float,
        xi_mean: float,
        xi_sigma: float,
        tail: tuple[float, float] | None = None,
    ) -> list[float]:
        """Completion probability of each reachable anytime rung.

        Probabilities are non-increasing along the ladder because rung
        latencies strictly increase.
        """
        model = config.model
        assert isinstance(model, AnytimeDnn)
        rungs = self.profile.rung_latencies(model.name, config.power_w)
        cap = config.rung_cap if config.rung_cap is not None else len(rungs) - 1
        return [
            self.completion_probability(
                rungs[k], deadline_s, xi_mean, xi_sigma, tail
            )
            for k in range(cap + 1)
        ]

    def quality_meet_probability(
        self,
        config: Configuration,
        quality_min: float,
        deadline_s: float,
        xi_mean: float,
        xi_sigma: float,
        tail: tuple[float, float] | None = None,
    ) -> float:
        """``Pr[delivered quality >= quality_min]``."""
        model = config.model
        if model.q_fail >= quality_min:
            return 1.0
        if not isinstance(model, AnytimeDnn):
            if model.quality < quality_min:
                return 0.0
            t_prof = self.profile.latency(model.name, config.power_w)
            return self.completion_probability(
                t_prof, deadline_s, xi_mean, xi_sigma, tail
            )
        rung_probs = self._rung_probabilities(
            config, deadline_s, xi_mean, xi_sigma, tail
        )
        for k, pr_k in enumerate(rung_probs):
            if model.outputs[k].quality >= quality_min:
                return pr_k
        return 0.0

    # ------------------------------------------------------------------
    # Eqs. 9 / 12: expected energy
    # ------------------------------------------------------------------
    def expected_inference_time(
        self,
        config: Configuration,
        deadline_s: float,
        xi_mean: float,
        xi_sigma: float,
        prob_threshold: float | None = None,
    ) -> float:
        """Expected wall time the inference occupies.

        With ``prob_threshold`` set, the ``Pr_th`` latency percentile
        is used instead of the mean (Eq. 12), which inflates the
        inference-phase energy estimate and tightens energy bounds.
        """
        model = config.model
        t_prof = (
            self.profile.latency(model.name, config.power_w)
            * config.latency_fraction
        )
        sigma = xi_sigma if self.variance_aware else self._POINT_SIGMA
        if prob_threshold is None:
            run = xi_mean * t_prof
        else:
            run = (xi_mean + normal_quantile(prob_threshold) * sigma) * t_prof
            run = max(run, 0.0)
        if isinstance(model, AnytimeDnn):
            return min(run, deadline_s)
        return run

    def expected_energy(
        self,
        config: Configuration,
        goal: Goal,
        xi_mean: float,
        xi_sigma: float,
        phi: float,
    ) -> float:
        """Expected whole-period energy of a configuration (Eq. 9/12)."""
        power = self.profile.power(config.model.name, config.power_w)
        run = self.expected_inference_time(
            config,
            goal.deadline_s,
            xi_mean,
            xi_sigma,
            prob_threshold=goal.prob_threshold,
        )
        idle_time = max(0.0, goal.period - run)
        return power * run + phi * power * idle_time

    def energy_meet_probability(
        self,
        config: Configuration,
        goal: Goal,
        xi_mean: float,
        xi_sigma: float,
        phi: float,
    ) -> float:
        """``Pr[period energy <= energy budget]``.

        Period energy is piecewise linear in ξ: while the run fits in
        the period (``ξ t <= T``) it is
        ``p t ξ + φ p (T - ξ t) = p t (1 - φ) ξ + φ p T``;
        beyond the period it is ``p t ξ`` (traditional) or saturates at
        ``p T`` (anytime, truncated at the deadline).  Both pieces are
        monotone in ξ for ``φ < 1``, so the probability reduces to one
        CDF evaluation at the crossing point; the ``φ >= 1`` corner
        (idle power above the inference draw, possible under contention
        at deep power caps) flips the first piece's direction and is
        handled explicitly.
        """
        if goal.energy_budget_j is None:
            return 1.0
        budget = goal.energy_budget_j
        model = config.model
        power = self.profile.power(model.name, config.power_w)
        t_run = (
            self.profile.latency(model.name, config.power_w)
            * config.latency_fraction
        )
        period = goal.period
        sigma = xi_sigma if self.variance_aware else self._POINT_SIGMA
        sigma = max(sigma, self._POINT_SIGMA)
        is_anytime = isinstance(model, AnytimeDnn)
        horizon = min(goal.deadline_s, period) if is_anytime else period
        xi_cross = horizon / t_run  # where the run fills its window

        def cdf(xi_threshold: float) -> float:
            return normal_cdf((xi_threshold - xi_mean) / sigma)

        if phi >= 1.0 - 1e-12:
            # Degenerate regime: idle power >= inference draw, so a
            # longer run is *cheaper* within the window.  Energy is
            # maximal (phi*p*T) at xi=0 and decreases toward p*horizon.
            floor = power * horizon + phi * power * max(0.0, period - horizon)
            if is_anytime:
                return 1.0 if budget >= floor - 1e-12 else 0.0
            # Traditional: beyond the window energy grows again as p*t*xi.
            if budget < floor - 1e-12:
                xi_b = budget / (power * t_run)
                return max(0.0, cdf(xi_b) - cdf(xi_cross))
            # Negative slope; boundary below.  At phi exactly 1 the
            # in-window energy is constant (p*T <= budget here), so
            # every in-window ξ qualifies: the boundary is -inf.
            denom = power * t_run * (1.0 - phi)
            if denom == 0.0:
                xi_a = float("-inf")
            else:
                xi_a = (budget - phi * power * period) / denom
            xi_b = budget / (power * t_run)
            return max(0.0, cdf(xi_b) - cdf(min(xi_a, xi_cross)))

        # Normal regime: energy is nondecreasing in xi everywhere.
        energy_at_cross = power * horizon + phi * power * max(
            0.0, period - horizon
        )
        if budget >= energy_at_cross - 1e-12:
            if is_anytime:
                # Anytime energy saturates at the crossing; any budget
                # at or above the saturation level is always met.
                return 1.0
            xi_star = budget / (power * t_run)
        else:
            denom = power * t_run * (1.0 - phi)
            xi_star = (budget - phi * power * period) / denom
        return cdf(xi_star)

    # ------------------------------------------------------------------
    # Full per-configuration record
    # ------------------------------------------------------------------
    def estimate(
        self,
        config: Configuration,
        goal: Goal,
        xi_mean: float,
        xi_sigma: float,
        phi: float,
        tail: tuple[float, float] | None = None,
    ) -> ConfigEstimate:
        """Everything the selector needs to rank one configuration."""
        model = config.model
        t_prof_run = (
            self.profile.latency(model.name, config.power_w)
            * config.latency_fraction
        )
        pr_deadline = self.completion_probability(
            t_prof_run, goal.deadline_s, xi_mean, xi_sigma, tail
        )
        expected_q = self.expected_quality(
            config, goal.deadline_s, xi_mean, xi_sigma, tail
        )
        energy = self.expected_energy(config, goal, xi_mean, xi_sigma, phi)
        latency_mean = self.expected_inference_time(
            config, goal.deadline_s, xi_mean, xi_sigma
        )

        if goal.accuracy_min is not None:
            q_meet = self.quality_meet_probability(
                config,
                goal.accuracy_min,
                goal.deadline_s,
                xi_mean,
                xi_sigma,
                tail,
            )
        else:
            q_meet = 1.0

        # Feasibility couples the paper's expectation constraints
        # (Eqs. 1-2) with a per-constraint confidence floor: the
        # evaluation counts a setting as violated when >10% of inputs
        # break a constraint, so ALERT only calls a configuration
        # feasible when each constraint holds with probability at
        # least ``confidence`` (default 0.90).
        confidence = self.confidence

        if isinstance(model, AnytimeDnn):
            # Anytime networks always deliver *something* by the
            # deadline; the latency dimension cannot be violated.
            meets_latency = True
            meets_latency_mean = True
            pr_constraints = q_meet
        else:
            meets_latency_mean = latency_mean <= goal.deadline_s
            meets_latency = meets_latency_mean and pr_deadline >= confidence
            pr_constraints = min(pr_deadline, q_meet)

        meets_accuracy = True
        if goal.objective is ObjectiveKind.MINIMIZE_ENERGY:
            assert goal.accuracy_min is not None
            meets_accuracy = (
                expected_q >= goal.accuracy_min and q_meet >= confidence
            )

        meets_energy = True
        if goal.energy_budget_j is not None:
            e_meet = self.energy_meet_probability(
                config, goal, xi_mean, xi_sigma, phi
            )
            meets_energy = energy <= goal.energy_budget_j and e_meet >= confidence
            pr_constraints = min(pr_constraints, e_meet)

        meets_prob = True
        if goal.prob_threshold is not None:
            meets_prob = pr_constraints >= goal.prob_threshold

        return ConfigEstimate(
            config=config,
            latency_mean_s=latency_mean,
            deadline_probability=pr_deadline,
            expected_quality=expected_q,
            quality_meet_probability=q_meet,
            expected_energy_j=energy,
            meets_latency=meets_latency,
            meets_accuracy=meets_accuracy,
            meets_energy=meets_energy,
            meets_prob=meets_prob,
            meets_latency_mean=meets_latency_mean,
        )
