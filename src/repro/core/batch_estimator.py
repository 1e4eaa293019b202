"""Vectorized batch estimation: Eqs. 6-13 for the whole space at once.

:class:`repro.core.estimator.AlertEstimator` is the *reference*
implementation: one configuration at a time, written to read like the
paper.  This module is the *fast path*: a :class:`BatchAlertEstimator`
precomputes, once per ``(space, profile)`` pair, flat NumPy arrays
covering the whole configuration space —

* profiled full latencies and inference powers,
* per-configuration latency fractions and capped qualities,
* the anytime rung ladders padded to a rectangle (latency, quality,
  validity mask),

— and then evaluates every estimate for *all* configurations in one
pass of array operations per :meth:`BatchAlertEstimator.estimate_batch`
call.  The standard normal CDF is evaluated scipy-free with a
vectorized Cephes-style ``erf``/``erfc`` (double precision, ~1 ulp),
so batch probabilities agree with the scalar path's ``math.erf`` to
well below the 1e-9 parity tolerance the test suite enforces.

Every arithmetic expression mirrors the scalar estimator's operation
order so the two paths agree bit-for-bit wherever the underlying
``erf`` does: the mixture tail of Section 3.6, the ``Pr_th`` latency
percentile of Eq. 12, and the piecewise-linear energy CDF including
its ``phi >= 1`` corner are all reproduced exactly.

The scheduler must cost a small fraction of an input's inference time
(the paper measures 0.6-1.7% and the kernel reserves it from every
deadline); on the Table 4 candidate set this path decides more than an
order of magnitude faster than the scalar loop (see
``benchmarks/bench_decide_throughput.py``).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.core.config_space import Configuration, ConfigurationSpace
from repro.core.estimator import AlertEstimator, ConfigEstimate, normal_quantile
from repro.core.goals import Goal, ObjectiveKind
from repro.errors import ConfigurationError
from repro.models.anytime import AnytimeDnn

__all__ = ["BatchEstimates", "BatchAlertEstimator", "normal_cdf_array"]


# ----------------------------------------------------------------------
# Vectorized erf / normal CDF (Cephes rational approximations)
# ----------------------------------------------------------------------
# Coefficients from the Cephes math library's erf/erfc (double
# precision; relative error ~1 ulp over the whole range), evaluated
# with Horner's scheme.  scipy-free on purpose: the runtime only
# depends on NumPy.
_ERF_T = (
    9.60497373987051638749e0,
    9.00260197203842689217e1,
    2.23200534594684319226e3,
    7.00332514112805075473e3,
    5.55923013010394962768e4,
)
_ERF_U = (
    3.35617141647503099647e1,
    5.21357949780152679795e2,
    4.59432382970980127987e3,
    2.26290000613890934246e4,
    4.92673942608635921086e4,
)
_ERFC_P = (
    2.46196981473530512524e-10,
    5.64189564831068821977e-1,
    7.46321056442269912687e0,
    4.86371970985681366614e1,
    1.96520832956077098242e2,
    5.26445194995477358631e2,
    9.34528527171957607540e2,
    1.02755188689515710272e3,
    5.57535335369399327526e2,
)
_ERFC_Q = (
    1.32281951154744992508e1,
    8.67072140885989742329e1,
    3.54937778887819891062e2,
    9.75708501743205489753e2,
    1.82390916687909736289e3,
    2.24633760818710981792e3,
    1.65666309194161350182e3,
    5.57535340817727675546e2,
)
#: Beyond this magnitude ``erf`` rounds to exactly +/-1.0 in double
#: precision (erfc(6.5) ~ 3.8e-20 < eps/2), so inputs are clipped here
#: and the Cephes far-tail rational (|x| >= 8) is never needed.
_ERF_SATURATION = 6.5


def _polevl(x: np.ndarray, coeffs: tuple[float, ...]) -> np.ndarray:
    # ``x * c0`` is the first Horner product ``c0 * x`` itself, without
    # filling a buffer with ``c0`` first.
    result = x * coeffs[0]
    result += coeffs[1]
    for c in coeffs[2:]:
        result *= x
        result += c
    return result


def _p1evl(x: np.ndarray, coeffs: tuple[float, ...]) -> np.ndarray:
    result = x + coeffs[0]
    for c in coeffs[1:]:
        result *= x
        result += c
    return result


def _erf_array(x: np.ndarray) -> np.ndarray:
    """Vectorized double-precision error function.

    Only the polynomial branches the inputs actually occupy are
    evaluated — decision CDF arguments are frequently all far from
    zero (small ξ sigma pushes them toward saturation) and skipping
    the unused rational costs one cheap reduction.
    """
    # minimum(maximum()) clips to the same values as np.clip, with less
    # per-call overhead on the small arrays decisions pass.
    x = np.minimum(
        np.maximum(np.asarray(x, dtype=np.float64), -_ERF_SATURATION),
        _ERF_SATURATION,
    )
    a = np.abs(x)
    z = x * x
    small_mask = a < 1.0
    any_small = bool(small_mask.any())
    if any_small and bool(small_mask.all()):
        # |x| < 1 everywhere: erf series.
        return x * _polevl(z, _ERF_T) / _p1evl(z, _ERF_U)
    # 1 <= |x| <= saturation: 1 - erfc(|x|).
    erfc = np.exp(-z) * (_polevl(a, _ERFC_P) / _p1evl(a, _ERFC_Q))
    large = np.sign(x) * (1.0 - erfc)
    if not any_small:
        return large
    small = x * _polevl(z, _ERF_T) / _p1evl(z, _ERF_U)
    return np.where(small_mask, small, large)


_SQRT2 = np.sqrt(2.0)


def normal_cdf_array(x: np.ndarray) -> np.ndarray:
    """Standard normal CDF over an array (mirrors ``normal_cdf``)."""
    result = _erf_array(np.asarray(x, dtype=np.float64) / _SQRT2)
    result += 1.0
    result *= 0.5
    return result


# ----------------------------------------------------------------------
# Batch estimates
# ----------------------------------------------------------------------
@dataclass
class BatchEstimates:
    """Per-configuration estimate arrays for one (goal, state) query.

    Index ``i`` of every array corresponds to ``configs[i]``; the
    fields parallel :class:`repro.core.estimator.ConfigEstimate`.
    """

    configs: tuple[Configuration, ...]
    latency_mean_s: np.ndarray
    deadline_probability: np.ndarray
    expected_quality: np.ndarray
    quality_meet_probability: np.ndarray
    expected_energy_j: np.ndarray
    meets_latency: np.ndarray
    meets_accuracy: np.ndarray
    meets_energy: np.ndarray
    meets_prob: np.ndarray
    meets_latency_mean: np.ndarray

    @property
    def n(self) -> int:
        return len(self.configs)

    @property
    def feasible(self) -> np.ndarray:
        """Elementwise ``ConfigEstimate.feasible``."""
        return (
            self.meets_latency
            & self.meets_accuracy
            & self.meets_energy
            & self.meets_prob
        )

    def estimate(self, i: int) -> ConfigEstimate:
        """Materialise the :class:`ConfigEstimate` record for index ``i``."""
        return ConfigEstimate(
            config=self.configs[i],
            latency_mean_s=float(self.latency_mean_s[i]),
            deadline_probability=float(self.deadline_probability[i]),
            expected_quality=float(self.expected_quality[i]),
            quality_meet_probability=float(self.quality_meet_probability[i]),
            expected_energy_j=float(self.expected_energy_j[i]),
            meets_latency=bool(self.meets_latency[i]),
            meets_accuracy=bool(self.meets_accuracy[i]),
            meets_energy=bool(self.meets_energy[i]),
            meets_prob=bool(self.meets_prob[i]),
            meets_latency_mean=bool(self.meets_latency_mean[i]),
        )

    def estimates(self) -> list[ConfigEstimate]:
        """All records, in space order (parity tests, diagnostics)."""
        return [self.estimate(i) for i in range(self.n)]


class BatchAlertEstimator:
    """Vectorized twin of :class:`AlertEstimator` over a whole space.

    Parameters
    ----------
    space:
        The candidate configuration space (fixes array order).
    estimator:
        The scalar reference estimator whose profile, variance mode,
        and confidence floor this batch engine mirrors.
    """

    def __init__(
        self, space: ConfigurationSpace, estimator: AlertEstimator
    ) -> None:
        self.space = space
        self.profile = estimator.profile
        self.variance_aware = estimator.variance_aware
        self.confidence = estimator.confidence
        self._point_sigma = AlertEstimator._POINT_SIGMA
        self._precompute()

    # ------------------------------------------------------------------
    # One-time precomputation per (space, profile)
    # ------------------------------------------------------------------
    def _precompute(self) -> None:
        profile = self.profile
        configs = tuple(self.space)
        n = len(configs)
        t_full = np.empty(n)
        power = np.empty(n)
        frac = np.empty(n)
        quality = np.empty(n)
        q_fail = np.empty(n)
        power_cap = np.empty(n)
        is_anytime = np.zeros(n, dtype=bool)
        names: list[str] = []

        ladder_width = 1
        for config in configs:
            if isinstance(config.model, AnytimeDnn):
                cap = (
                    config.rung_cap
                    if config.rung_cap is not None
                    else config.model.n_outputs - 1
                )
                ladder_width = max(ladder_width, cap + 1)

        # Padded rung latencies default to 1.0 so the vectorized
        # deadline/latency division stays finite; the validity mask
        # zeroes their probabilities before any reduction.
        rung_lat = np.ones((n, ladder_width))
        rung_q = np.zeros((n, ladder_width))
        rung_valid = np.zeros((n, ladder_width), dtype=bool)

        for i, config in enumerate(configs):
            model = config.model
            t_full[i] = profile.latency(model.name, config.power_w)
            power[i] = profile.power(model.name, config.power_w)
            frac[i] = config.latency_fraction
            quality[i] = model.quality
            q_fail[i] = model.q_fail
            power_cap[i] = config.power_w
            names.append(model.name)
            if isinstance(model, AnytimeDnn):
                is_anytime[i] = True
                rungs = profile.rung_latencies(model.name, config.power_w)
                cap = (
                    config.rung_cap
                    if config.rung_cap is not None
                    else len(rungs) - 1
                )
                width = cap + 1
                rung_lat[i, :width] = rungs[:width]
                rung_q[i, :width] = [
                    model.outputs[k].quality for k in range(width)
                ]
                rung_valid[i, :width] = True

        self.configs = configs
        self.t_full = t_full
        self.t_run = t_full * frac
        self.power = power
        self.quality = quality
        self.q_fail = q_fail
        self.power_cap = power_cap
        self.is_anytime = is_anytime
        self.names = np.array(names)
        self.rung_lat = rung_lat
        self.rung_q = rung_q
        self.rung_valid = rung_valid
        # All profiled latencies the deadline is divided by, flattened
        # into one vector so each decision computes every completion
        # threshold with a single division and every CDF with a single
        # erf evaluation: [t_run (n) | t_full (n) | valid rungs].  The
        # vector is deduplicated (t_run repeats t_full for traditional
        # configurations, rung ladders repeat across rung caps) and an
        # inverse index scatters the unique CDF values back out.
        concat = np.concatenate(
            [self.t_run, self.t_full, rung_lat[rung_valid]]
        )
        self._unique_lat, self._lat_inverse = np.unique(
            concat, return_inverse=True
        )
        self._row_index = np.arange(n)
        self._power_trun = self.power * self.t_run
        #: Whether any configuration is anytime: all-traditional
        #: spaces skip the rung-ladder arithmetic entirely (every
        #: ``np.where(is_anytime, ...)`` select reduces to its else
        #: branch).
        self._has_anytime = bool(is_anytime.any())
        # Reusable buffers/constants (treated as read-only downstream).
        self._rung_pr_buf = np.zeros((n, ladder_width))
        self._rung_next_buf = np.zeros((n, ladder_width))
        #: (K, config, rung) buffer pairs for the stacked path, per K.
        self._rung_many_bufs: dict[int, tuple[np.ndarray, np.ndarray]] = {}
        self._ones_f = np.ones(n)
        self._true = np.ones(n, dtype=bool)
        self._qmin_cache: dict[float, tuple] = {}
        self._thr_cache: dict[float, np.ndarray] = {}
        self._energy_cache: dict[tuple, tuple] = {}
        self._quantile_cache: dict[float, float] = {}
        #: Stacked-plan skeletons: every goal-only array of a stacked
        #: query (group partition, threshold stacks, quality statics,
        #: budget constants), keyed by the goal identity tuple and the
        #: per-state branch flags.  The lockstep serving loops pass the
        #: same adjusted-goal objects every input step, so the whole
        #: structural gather collapses to one dict hit per step.  The
        #: skeletons hold strong references to their goals, which pins
        #: the ids in the key for as long as the entry lives.
        self._stack_skeletons: dict[tuple, list[dict]] = {}
        #: Reusable (G × C) field buffers, one set per stack height:
        #: callers consume the planes before the next query.
        self._field_bufs: dict[int, dict[str, np.ndarray]] = {}
        # Static tie-break rank equivalent to comparing
        # (power_w, model.name, space index) lexicographically — the
        # exact order the scalar path's stable ``min`` over estimate
        # tuples resolves ties in.
        order = np.lexsort((self.names, self.power_cap))
        rank = np.empty(n, dtype=np.int64)
        rank[order] = np.arange(n)
        self.tie_rank = rank

    # ------------------------------------------------------------------
    # Full batch query
    # ------------------------------------------------------------------
    def estimate_batch(
        self,
        goal: Goal,
        xi_mean: float,
        xi_sigma: float,
        phi: float,
        tail: tuple[float, float] | None = None,
    ) -> BatchEstimates:
        """Everything the selector needs, for every configuration.

        Every normal-CDF argument of the decision — the deadline
        thresholds of Eq. 6 for the runs and every anytime rung, their
        Section 3.6 tail-mixture shifts, and the ξ crossings of the
        piecewise-linear energy CDF — is gathered into one flat vector
        and pushed through a single vectorized erf evaluation; the
        results are then sliced back apart.  This amortises NumPy's
        per-call overhead across the whole decision, which is where the
        >= 10x speedup over the scalar loop comes from.
        """
        n = self.n_configs
        deadline = goal.deadline_s
        period = goal.period
        budget = goal.energy_budget_j
        point = self._point_sigma
        sigma_cdf = xi_sigma if self.variance_aware else point
        sigma_cdf = max(sigma_cdf, point)
        # Eq. 12's percentile shift uses the unfloored sigma, exactly
        # like the scalar expected_inference_time.
        sigma_raw = xi_sigma if self.variance_aware else point

        is_any = self.is_anytime

        # --- Gather every CDF argument --------------------------------
        # Deadline thresholds for the deduplicated profiled latencies;
        # serving loops re-decide the same (goal-adjusted) deadline for
        # thousands of inputs, so the division is cached per deadline.
        thr_u = self._thr_cache.get(deadline)
        if thr_u is None:
            thr_u = deadline / self._unique_lat
            if len(self._thr_cache) >= 256:
                self._thr_cache.clear()
            self._thr_cache[deadline] = thr_u
        segments = [(thr_u - xi_mean) / sigma_cdf]
        use_tail = (
            self.variance_aware
            and tail is not None
            and tail[0] > 0.0
            and tail[1] > 1.0
        )
        if use_tail:
            segments.append((thr_u - xi_mean * tail[1]) / sigma_cdf)

        # ξ thresholds of the energy CDF (Eq. 9's piecewise pieces);
        # the scalar path evaluates these without the tail mixture.
        degenerate = phi >= 1.0 - 1e-12
        if budget is not None:
            cached = self._energy_cache.get((deadline, period, budget))
            if cached is None:
                horizon = np.where(is_any, min(deadline, period), period)
                xi_cross = horizon / self.t_run
                xi_b = budget / self._power_trun
                if len(self._energy_cache) >= 256:
                    self._energy_cache.clear()
                self._energy_cache[(deadline, period, budget)] = (
                    horizon,
                    xi_cross,
                    xi_b,
                )
            else:
                horizon, xi_cross, xi_b = cached
            floor = self.power * horizon + phi * self.power * np.maximum(
                0.0, period - horizon
            )
            if degenerate:
                # At phi exactly 1 the in-window energy is constant and
                # (1 - phi) is exactly zero: every in-window ξ
                # qualifies, so the lower boundary is -inf (mirrors the
                # scalar guard; the CDF clips -inf to 0).
                denom = self._power_trun * (1.0 - phi)
                with np.errstate(divide="ignore", invalid="ignore"):
                    xi_a = np.where(
                        denom == 0.0,
                        -np.inf,
                        (budget - phi * self.power * period) / denom,
                    )
                energy_args = np.concatenate(
                    [xi_b, xi_cross, np.minimum(xi_a, xi_cross)]
                )
            else:
                xi_a = (budget - phi * self.power * period) / (
                    self._power_trun * (1.0 - phi)
                )
                above_cross = budget >= floor - 1e-12
                energy_args = np.where(above_cross, xi_b, xi_a)
            segments.append((energy_args - xi_mean) / sigma_cdf)

        flat = segments[0] if len(segments) == 1 else np.concatenate(segments)
        cdf_flat = normal_cdf_array(flat)

        # --- Slice the CDFs back apart --------------------------------
        m = thr_u.size
        body = cdf_flat[:m]
        offset = m
        if use_tail:
            shifted = cdf_flat[m : 2 * m]
            offset = 2 * m
            fraction = tail[0]
            pr_unique = (1.0 - fraction) * body + fraction * shifted
        else:
            pr_unique = body
        pr_concat = pr_unique[self._lat_inverse]
        pr_deadline = pr_concat[:n]
        pr_full = pr_concat[n : 2 * n]
        rung_pr = self._rung_pr_buf  # invalid entries stay 0 forever
        rung_pr[self.rung_valid] = pr_concat[2 * n :]

        # --- Eqs. 7 / 13: expected quality ----------------------------
        expected_trad = pr_full * self.quality + (1.0 - pr_full) * self.q_fail
        rung_pr_next = self._rung_next_buf  # last column stays 0 forever
        rung_pr_next[:, :-1] = rung_pr[:, 1:]
        expected_any = (1.0 - rung_pr[:, 0]) * self.q_fail + np.sum(
            self.rung_q * (rung_pr - rung_pr_next), axis=1
        )
        expected_q = np.where(is_any, expected_any, expected_trad)

        # --- Eqs. 10-11: probability of delivering the floor ----------
        if goal.accuracy_min is not None:
            quality_below, has_rung, first, qfail_ok = self._qmin_static(
                goal.accuracy_min
            )
            q_meet_trad = np.where(quality_below, 0.0, pr_full)
            q_meet_any = np.where(
                has_rung, rung_pr[self._row_index, first], 0.0
            )
            q_meet = np.where(is_any, q_meet_any, q_meet_trad)
            q_meet = np.where(qfail_ok, 1.0, q_meet)
        else:
            q_meet = self._ones_f

        # --- Expected inference time (mean form) ----------------------
        run_mean = xi_mean * self.t_run
        latency_mean = np.where(
            is_any, np.minimum(run_mean, deadline), run_mean
        )

        # --- Eq. 9 / 12: expected whole-period energy -----------------
        if goal.prob_threshold is None:
            run_energy = run_mean
        else:
            z_q = self._quantile_cache.get(goal.prob_threshold)
            if z_q is None:
                z_q = normal_quantile(goal.prob_threshold)
                self._quantile_cache[goal.prob_threshold] = z_q
            shift = xi_mean + z_q * sigma_raw
            run_energy = np.maximum(shift * self.t_run, 0.0)
        run_energy = np.where(
            is_any, np.minimum(run_energy, deadline), run_energy
        )
        idle_time = np.maximum(0.0, period - run_energy)
        energy = self.power * run_energy + phi * self.power * idle_time

        # --- Feasibility flags (same confidence floors) ---------------
        confidence = self.confidence
        meets_latency_mean = is_any | (latency_mean <= deadline)
        meets_latency = is_any | (
            meets_latency_mean & (pr_deadline >= confidence)
        )
        # The joint constraint probability only gates ``meets_prob``,
        # so it is skipped entirely when no Pr_th is set.
        need_pr = goal.prob_threshold is not None
        if need_pr:
            pr_constraints = np.where(
                is_any, q_meet, np.minimum(pr_deadline, q_meet)
            )

        meets_accuracy = self._true
        if goal.objective is ObjectiveKind.MINIMIZE_ENERGY:
            assert goal.accuracy_min is not None
            meets_accuracy = (expected_q >= goal.accuracy_min) & (
                q_meet >= confidence
            )

        meets_energy = self._true
        if budget is not None:
            energy_cdfs = cdf_flat[offset:]
            if degenerate:
                # Degenerate regime: a longer run is cheaper in-window;
                # anytime energy pins at its saturation floor.
                cdf_b = energy_cdfs[:n]
                cdf_cross = energy_cdfs[n : 2 * n]
                cdf_min = energy_cdfs[2 * n :]
                res_any = np.where(budget >= floor - 1e-12, 1.0, 0.0)
                below = np.maximum(0.0, cdf_b - cdf_cross)
                above = np.maximum(0.0, cdf_b - cdf_min)
                res_trad = np.where(budget < floor - 1e-12, below, above)
                e_meet = np.where(is_any, res_any, res_trad)
            else:
                # Normal regime: energy nondecreasing in ξ everywhere;
                # anytime saturates at the crossing, so any budget at
                # or above it is always met.
                e_meet = np.where(is_any & above_cross, 1.0, energy_cdfs)
            meets_energy = (energy <= budget) & (e_meet >= confidence)
            if need_pr:
                pr_constraints = np.minimum(pr_constraints, e_meet)

        meets_prob = self._true
        if need_pr:
            meets_prob = pr_constraints >= goal.prob_threshold

        return BatchEstimates(
            configs=self.configs,
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

    @property
    def n_configs(self) -> int:
        return len(self.configs)

    # ------------------------------------------------------------------
    # Stacked multi-state query (the lockstep decision engine)
    # ------------------------------------------------------------------
    #: Field names of the stacked (G × C) estimate tensors.
    _STACK_FLOAT_FIELDS = (
        "latency_mean_s",
        "deadline_probability",
        "expected_quality",
        "quality_meet_probability",
        "expected_energy_j",
    )
    _STACK_BOOL_FIELDS = (
        "meets_latency",
        "meets_accuracy",
        "meets_energy",
        "meets_prob",
        "meets_latency_mean",
    )

    def stacked_fields(
        self,
        goals,
        xi_mean,
        xi_sigma,
        phi,
        tails=None,
    ) -> dict[str, np.ndarray]:
        """The raw ``(G × C)`` field tensors for ``G`` stacked states.

        The lockstep serving path decides for every goal of a cell at
        every input step; this is its engine.  States are stacked along
        a leading axis: all per-state CDF arguments — deadline
        thresholds, tail-mixture shifts, energy ξ crossings — are
        gathered into **one** flat vector and pushed through a single
        vectorized erf evaluation, and the post-CDF arithmetic runs as
        ``(G × C)`` tensor operations (states grouped by goal
        structure, so heterogeneous grids still vectorize within each
        structural group).  Every elementwise expression mirrors
        :meth:`estimate_batch` exactly, so row ``g`` of each tensor is
        bit-identical to the per-state call (pinned by
        ``tests/test_lockstep_parity.py``).

        Goal-only structure — the structural group partition,
        deadline-threshold stacks, quality-floor statics, energy-budget
        constants — is cached per goal tuple (:meth:`_stack_plans`), so
        the per-input work is just the state-dependent arithmetic plus
        one fused erf pass.

        ``goals`` holds one :class:`~repro.core.goals.Goal` per state;
        ``xi_mean`` / ``xi_sigma`` / ``phi`` are filter-state arrays of
        length ``G``; ``tails`` optionally holds per-state
        ``(fraction, ratio)`` tuples (or None), as in
        :meth:`estimate_batch`.  The returned tensors are per-``G``
        scratch buffers overwritten by the next query: consume them
        before querying again (the stacked selector materialises its
        winners at once).
        """
        G = len(goals)
        if G < 1:
            raise ConfigurationError("need at least one (goal, state) pair")
        xi_mean = np.asarray(xi_mean, dtype=np.float64)
        xi_sigma = np.asarray(xi_sigma, dtype=np.float64)
        phi = np.asarray(phi, dtype=np.float64)
        if xi_mean.shape != (G,) or xi_sigma.shape != (G,) or phi.shape != (G,):
            raise ConfigurationError(
                f"state arrays must all have shape ({G},), got "
                f"{xi_mean.shape}/{xi_sigma.shape}/{phi.shape}"
            )
        tail_list = list(tails) if tails is not None else [None] * G
        plans = [
            self._gather_group(skeleton, xi_mean, xi_sigma, phi, tail_list)
            for skeleton in self._stack_plans(goals, phi, tail_list)
        ]
        flats = [plan["flat"] for plan in plans]
        cdf_all = normal_cdf_array(
            flats[0] if len(flats) == 1 else np.concatenate(flats)
        )

        n = self.n_configs
        fields = self._field_bufs.get(G)
        if fields is None:
            fields = {
                name: np.empty((G, n)) for name in self._STACK_FLOAT_FIELDS
            }
            fields.update(
                {
                    name: np.empty((G, n), dtype=bool)
                    for name in self._STACK_BOOL_FIELDS
                }
            )
            if len(self._field_bufs) >= 8:
                self._field_bufs.clear()
            self._field_bufs[G] = fields
        offset = 0
        for plan in plans:
            size = plan["flat"].size
            self._finish_group(plan, cdf_all[offset : offset + size], fields)
            offset += size
        return fields

    def _stack_plans(self, goals, phi, tail_list) -> list[dict]:
        """The goal-only skeletons of a stacked query, cached.

        Keyed by goal identities plus the two state-dependent branch
        flags (tail mixture in play, degenerate ``phi`` for budget
        goals); everything else in a skeleton depends only on the
        goals.  The lockstep cells pass the identical adjusted-goal
        objects every input step, so steady state is one dict hit per
        step.  Each skeleton holds strong references to its goals,
        which pins the ids in the key for as long as the entry lives.
        """
        use_tail = tuple(
            bool(
                self.variance_aware
                and tail is not None
                and tail[0] > 0.0
                and tail[1] > 1.0
            )
            for tail in tail_list
        )
        degenerate = tuple(
            bool(phi[g] >= 1.0 - 1e-12)
            if goal.energy_budget_j is not None
            else False
            for g, goal in enumerate(goals)
        )
        key = (tuple(map(id, goals)), use_tail, degenerate)
        skeletons = self._stack_skeletons.get(key)
        if skeletons is None:
            skeletons = self._build_skeletons(goals, use_tail, degenerate)
            if len(self._stack_skeletons) >= 64:
                self._stack_skeletons.clear()
            self._stack_skeletons[key] = skeletons
        return skeletons

    def _build_skeletons(self, goals, use_tail, degenerate) -> list[dict]:
        """Group states by structure and gather every goal-only array.

        Group states by goal *structure*: which constraints exist, the
        objective, the tail/degenerate regimes.  Values (the deadline,
        the floor, the budget) vary freely within a group as per-row
        scalars; only the branch structure must agree for the tensor
        expressions to broadcast.
        """
        groups: dict[tuple, list[int]] = {}
        for g, goal in enumerate(goals):
            has_budget = goal.energy_budget_j is not None
            sig = (
                has_budget,
                degenerate[g] if has_budget else False,
                goal.accuracy_min is not None,
                goal.prob_threshold is not None,
                goal.objective,
                use_tail[g],
            )
            groups.setdefault(sig, []).append(g)

        skeletons: list[dict] = []
        for sig, idx in groups.items():
            has_budget, _, has_floor, has_prob, objective, _ = sig
            group_goals = [goals[g] for g in idx]
            # Deadline thresholds per state, via the same per-deadline
            # cache the scalar-state path fills (identical divisions).
            thr_rows = []
            for goal in group_goals:
                d = goal.deadline_s
                thr_u = self._thr_cache.get(d)
                if thr_u is None:
                    thr_u = d / self._unique_lat
                    if len(self._thr_cache) >= 256:
                        self._thr_cache.clear()
                    self._thr_cache[d] = thr_u
                thr_rows.append(thr_u)
            thr = np.stack(thr_rows)
            skeleton = {
                "sig": sig,
                "idx": idx,
                "rows": np.asarray(idx, dtype=np.intp),
                "K": len(idx),
                "U": thr.shape[1],
                "goals": group_goals,
                "deadline": np.array([g.deadline_s for g in group_goals]),
                "period": np.array([g.period for g in group_goals]),
                "thr": thr,
            }
            if has_budget:
                horizon_rows, cross_rows, xib_rows = [], [], []
                for goal in group_goals:
                    key = (goal.deadline_s, goal.period, goal.energy_budget_j)
                    cached = self._energy_cache.get(key)
                    if cached is None:
                        horizon = np.where(
                            self.is_anytime,
                            min(goal.deadline_s, goal.period),
                            goal.period,
                        )
                        xi_cross = horizon / self.t_run
                        xi_b = goal.energy_budget_j / self._power_trun
                        if len(self._energy_cache) >= 256:
                            self._energy_cache.clear()
                        cached = (horizon, xi_cross, xi_b)
                        self._energy_cache[key] = cached
                    horizon_rows.append(cached[0])
                    cross_rows.append(cached[1])
                    xib_rows.append(cached[2])
                skeleton["budget"] = np.array(
                    [goal.energy_budget_j for goal in group_goals]
                )
                skeleton["horizon"] = np.stack(horizon_rows)
                skeleton["xi_cross"] = np.stack(cross_rows)
                skeleton["xi_b"] = np.stack(xib_rows)
            if has_floor:
                statics = [
                    self._qmin_static(goal.accuracy_min)
                    for goal in group_goals
                ]
                skeleton["quality_below"] = np.stack([s[0] for s in statics])
                skeleton["has_rung"] = np.stack([s[1] for s in statics])
                skeleton["first_rung"] = np.stack([s[2] for s in statics])
                skeleton["qfail_ok"] = np.stack([s[3] for s in statics])
            if objective is ObjectiveKind.MINIMIZE_ENERGY:
                skeleton["acc_min"] = np.array(
                    [goal.accuracy_min for goal in group_goals]
                )
            if has_prob:
                z_rows = []
                for goal in group_goals:
                    z_q = self._quantile_cache.get(goal.prob_threshold)
                    if z_q is None:
                        z_q = normal_quantile(goal.prob_threshold)
                        self._quantile_cache[goal.prob_threshold] = z_q
                    z_rows.append(z_q)
                skeleton["z_q"] = np.array(z_rows)
                skeleton["prob"] = np.array(
                    [goal.prob_threshold for goal in group_goals]
                )
            skeletons.append(skeleton)
        return skeletons

    def _gather_group(
        self, skeleton, xi_mean, xi_sigma, phi, tail_list
    ) -> dict:
        """Pre-CDF arrays for one structural group of states.

        Everything here is state-dependent; the goal-only arrays come
        ready-stacked from the cached skeleton.
        """
        has_budget, degenerate, _, _, _, use_tail = skeleton["sig"]
        idx = skeleton["idx"]
        rows = skeleton["rows"]
        K = skeleton["K"]
        point = self._point_sigma
        period = skeleton["period"]
        mean = xi_mean[rows]
        phi_k = phi[rows]
        if self.variance_aware:
            sigma_raw = xi_sigma[rows]
        else:
            sigma_raw = np.full(K, point)
        sigma_cdf = np.maximum(sigma_raw, point)

        thr = skeleton["thr"]
        col_mean = mean[:, None]
        col_sigma = sigma_cdf[:, None]
        segments = [(thr - col_mean) / col_sigma]
        fraction = None
        if use_tail:
            ratio = np.array([tail_list[g][1] for g in idx])
            fraction = np.array([tail_list[g][0] for g in idx])
            segments.append((thr - (mean * ratio)[:, None]) / col_sigma)

        plan = dict(skeleton)
        plan["mean"] = mean
        plan["sigma_raw"] = sigma_raw
        plan["phi"] = phi_k
        plan["fraction"] = fraction

        if has_budget:
            budget = skeleton["budget"]
            horizon = skeleton["horizon"]
            xi_cross = skeleton["xi_cross"]
            xi_b = skeleton["xi_b"]
            col_phi = phi_k[:, None]
            floor = self.power * horizon + col_phi * self.power * np.maximum(
                0.0, period[:, None] - horizon
            )
            plan["floor"] = floor
            if degenerate:
                denom = self._power_trun * (1.0 - col_phi)
                with np.errstate(divide="ignore", invalid="ignore"):
                    xi_a = np.where(
                        denom == 0.0,
                        -np.inf,
                        (budget[:, None] - col_phi * self.power * period[:, None])
                        / denom,
                    )
                energy_args = np.concatenate(
                    [xi_b, xi_cross, np.minimum(xi_a, xi_cross)], axis=1
                )
            else:
                xi_a = (
                    budget[:, None] - col_phi * self.power * period[:, None]
                ) / (self._power_trun * (1.0 - col_phi))
                above_cross = budget[:, None] >= floor - 1e-12
                energy_args = np.where(above_cross, xi_b, xi_a)
                plan["above_cross"] = above_cross
            segments.append((energy_args - col_mean) / col_sigma)

        plan["flat"] = (
            segments[0].ravel()
            if len(segments) == 1
            else np.concatenate([segment.ravel() for segment in segments])
        )
        return plan

    def _finish_group(
        self, plan: dict, cdf_flat: np.ndarray, fields: dict[str, np.ndarray]
    ) -> None:
        """Post-CDF arithmetic for one group; fills the field tensors."""
        has_budget, degenerate, has_floor, has_prob, objective, use_tail = plan[
            "sig"
        ]
        K = plan["K"]
        U = plan["U"]
        n = self.n_configs
        is_any = self.is_anytime
        deadline = plan["deadline"][:, None]
        col_phi = plan["phi"][:, None]

        m = K * U
        body = cdf_flat[:m].reshape(K, U)
        offset = m
        if use_tail:
            shifted = cdf_flat[m : 2 * m].reshape(K, U)
            offset = 2 * m
            col_fraction = plan["fraction"][:, None]
            pr_unique = (1.0 - col_fraction) * body + col_fraction * shifted
        else:
            pr_unique = body
        pr_concat = pr_unique[:, self._lat_inverse]
        pr_deadline = pr_concat[:, :n]
        pr_full = pr_concat[:, n : 2 * n]
        has_anytime = self._has_anytime
        expected_trad = pr_full * self.quality + (1.0 - pr_full) * self.q_fail
        if has_anytime:
            width = self.rung_lat.shape[1]
            # Reusable (K, config, rung) buffers per batch width:
            # invalid entries and the next-buffer's last column stay 0
            # forever, exactly like the single-state buffers.
            buffers = self._rung_many_bufs.get(K)
            if buffers is None:
                if len(self._rung_many_bufs) >= 8:
                    self._rung_many_bufs.clear()
                buffers = (np.zeros((K, n, width)), np.zeros((K, n, width)))
                self._rung_many_bufs[K] = buffers
            rung_pr, rung_pr_next = buffers
            rung_pr[:, self.rung_valid] = pr_concat[:, 2 * n :]

            rung_pr_next[:, :, :-1] = rung_pr[:, :, 1:]
            expected_any = (1.0 - rung_pr[:, :, 0]) * self.q_fail + np.sum(
                self.rung_q * (rung_pr - rung_pr_next), axis=2
            )
            expected_q = np.where(is_any, expected_any, expected_trad)
        else:
            expected_q = expected_trad

        if has_floor:
            quality_below = plan["quality_below"]
            qfail_ok = plan["qfail_ok"]
            q_meet_trad = np.where(quality_below, 0.0, pr_full)
            if has_anytime:
                has_rung = plan["has_rung"]
                first = plan["first_rung"]
                q_meet_any = np.where(
                    has_rung,
                    rung_pr[
                        np.arange(K)[:, None], self._row_index[None, :], first
                    ],
                    0.0,
                )
                q_meet = np.where(is_any, q_meet_any, q_meet_trad)
            else:
                q_meet = q_meet_trad
            q_meet = np.where(qfail_ok, 1.0, q_meet)
        else:
            q_meet = self._ones_f  # broadcasts over the group rows

        run_mean = plan["mean"][:, None] * self.t_run
        latency_mean = (
            np.where(is_any, np.minimum(run_mean, deadline), run_mean)
            if has_anytime
            else run_mean
        )

        if not has_prob:
            run_energy = run_mean
        else:
            # Elementwise mean[k] + z_q * sigma[k], z_q pre-gathered in
            # the skeleton (identical float64 ops to the scalar loop).
            shifts = plan["mean"] + plan["z_q"] * plan["sigma_raw"]
            run_energy = np.maximum(shifts[:, None] * self.t_run, 0.0)
        if has_anytime:
            run_energy = np.where(
                is_any, np.minimum(run_energy, deadline), run_energy
            )
        idle_time = np.maximum(0.0, plan["period"][:, None] - run_energy)
        energy = self.power * run_energy + col_phi * self.power * idle_time

        confidence = self.confidence
        if has_anytime:
            meets_latency_mean = is_any | (latency_mean <= deadline)
            meets_latency = is_any | (
                meets_latency_mean & (pr_deadline >= confidence)
            )
        else:
            meets_latency_mean = latency_mean <= deadline
            meets_latency = meets_latency_mean & (pr_deadline >= confidence)
        if has_prob:
            pr_constraints = (
                np.where(is_any, q_meet, np.minimum(pr_deadline, q_meet))
                if has_anytime
                else np.minimum(pr_deadline, q_meet)
            )

        rows = plan["rows"]
        if objective is ObjectiveKind.MINIMIZE_ENERGY:
            acc_min = plan["acc_min"]
            fields["meets_accuracy"][rows] = (
                expected_q >= acc_min[:, None]
            ) & (q_meet >= confidence)
        else:
            fields["meets_accuracy"][rows] = True

        if has_budget:
            budget = plan["budget"][:, None]
            floor = plan["floor"]
            energy_cdfs = cdf_flat[offset:].reshape(K, -1)
            if degenerate:
                cdf_b = energy_cdfs[:, :n]
                cdf_cross = energy_cdfs[:, n : 2 * n]
                cdf_min = energy_cdfs[:, 2 * n :]
                below = np.maximum(0.0, cdf_b - cdf_cross)
                above = np.maximum(0.0, cdf_b - cdf_min)
                res_trad = np.where(budget < floor - 1e-12, below, above)
                if has_anytime:
                    res_any = np.where(budget >= floor - 1e-12, 1.0, 0.0)
                    e_meet = np.where(is_any, res_any, res_trad)
                else:
                    e_meet = res_trad
            elif has_anytime:
                e_meet = np.where(
                    is_any & plan["above_cross"], 1.0, energy_cdfs
                )
            else:
                e_meet = energy_cdfs
            fields["meets_energy"][rows] = (energy <= budget) & (
                e_meet >= confidence
            )
            if has_prob:
                pr_constraints = np.minimum(pr_constraints, e_meet)
        else:
            fields["meets_energy"][rows] = True

        if has_prob:
            fields["meets_prob"][rows] = pr_constraints >= plan["prob"][:, None]
        else:
            fields["meets_prob"][rows] = True

        fields["latency_mean_s"][rows] = latency_mean
        fields["deadline_probability"][rows] = pr_deadline
        fields["expected_quality"][rows] = expected_q
        fields["quality_meet_probability"][rows] = q_meet
        fields["expected_energy_j"][rows] = energy
        fields["meets_latency"][rows] = meets_latency
        fields["meets_latency_mean"][rows] = meets_latency_mean

    def _qmin_static(
        self, q_min: float
    ) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
        """State-independent pieces of the Eq. 10-11 floor check.

        Which configurations can possibly clear ``q_min`` — and at
        which rung — depends only on the static ladder, so it is
        cached per floor value (constraint grids reuse a handful).
        """
        cached = self._qmin_cache.get(q_min)
        if cached is None:
            reach = self.rung_valid & (self.rung_q >= q_min)
            cached = (
                self.quality < q_min,
                reach.any(axis=1),
                reach.argmax(axis=1),
                self.q_fail >= q_min,
            )
            if len(self._qmin_cache) >= 128:
                self._qmin_cache.clear()
            self._qmin_cache[q_min] = cached
        return cached
