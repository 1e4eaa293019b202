"""Vectorized batch estimation: Eqs. 6-13 for the whole space at once.

:class:`repro.core.estimator.AlertEstimator` is the *reference*
implementation: one configuration at a time, written to read like the
paper.  This module is the *fast path*: a :class:`BatchAlertEstimator`
precomputes, once per ``(space, profile)`` pair, flat NumPy arrays
covering the whole configuration space —

* profiled full latencies and inference powers,
* per-configuration latency fractions, qualities and failure
  qualities,
* the anytime rung ladders padded to a rectangle (latency, quality,
  validity mask),

— and then evaluates every estimate for *all* configurations in one
pass of array operations.  One body does it at every width:
:meth:`BatchAlertEstimator._gather_group` collects every normal-CDF
argument and :meth:`BatchAlertEstimator._finish_group` does the
arithmetic after the CDF, both written over an optional leading state
axis.  :meth:`BatchAlertEstimator.estimate_batch` (one state, behind
``ConfigSelector.select``) runs it on Python-float state and 1-D goal
rows, so a width-1 query costs only ``(C,)`` operations;
:meth:`BatchAlertEstimator.stacked_fields` (many states, behind
``select_many``) runs it on ``(K, 1)`` state columns.  The standard
normal CDF is evaluated scipy-free with a vectorized Cephes-style
``erf``/``erfc`` (double precision, ~1 ulp), so batch probabilities
agree with the scalar path's ``math.erf`` to well below the 1e-9
parity tolerance the test suite enforces.

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

import numpy as np

from repro.core.config_space import ConfigurationSpace
from repro.core.estimator import AlertEstimator, normal_quantile
from repro.core.goals import Goal, ObjectiveKind
from repro.errors import ConfigurationError
from repro.models.anytime import AnytimeDnn

__all__ = ["BatchAlertEstimator", "normal_cdf_array"]


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
        self._power_trun = self.power * self.t_run
        #: Whether any configuration is anytime: all-traditional
        #: spaces skip the rung-ladder arithmetic entirely (every
        #: ``np.where(is_anytime, ...)`` select reduces to its else
        #: branch).
        self._has_anytime = bool(is_anytime.any())
        #: Flat positions of the valid rungs within one state's
        #: ``(config, rung)`` plane.
        self._rung_put = np.flatnonzero(rung_valid)
        # Reusable buffers/constants (treated as read-only downstream).
        #: Rung-ladder buffers per leading state shape (see
        #: :meth:`_rung_buffers`).
        self._rung_bufs: dict[tuple, tuple] = {}
        self._ones_f = np.ones(n)
        self._true = np.ones(n, dtype=bool)
        self._qmin_cache: dict[float, tuple] = {}
        self._thr_cache: dict[float, np.ndarray] = {}
        self._energy_cache: dict[tuple, tuple] = {}
        self._quantile_cache: dict[float, float] = {}
        #: Stacked plans (one per structural group) keyed by goal
        #: identities plus each state's branch structure (see
        #: :meth:`_stack_plans`).
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
    # Front-ends: one state, or G stacked states
    # ------------------------------------------------------------------
    def estimate_batch(
        self,
        goal: Goal,
        xi_mean: float,
        xi_sigma: float,
        phi: float,
        tail: tuple[float, float] | None = None,
    ) -> dict[str, np.ndarray]:
        """The ten estimate planes of one (goal, state), each ``(C,)``.

        Element ``i`` of each plane is the matching
        :class:`~repro.core.estimator.ConfigEstimate` field of
        ``configs[i]``.  The width-1 shape of the stacked body: the
        state stays Python floats and the goal's arrays 1-D rows, so
        the query runs only ``(C,)`` operations.  The planes may share
        memory with constants of this estimator: read them only.
        """
        plan = self._plan(self._sig(goal, tail, phi), goal)
        sigma_raw = xi_sigma if self.variance_aware else self._point_sigma
        *_, use_tail = plan["sig"]
        fraction, ratio = tail if use_tail else (None, None)
        state = self._gather_group(
            plan, xi_mean, sigma_raw, max(sigma_raw, self._point_sigma),
            phi, fraction, ratio,
        )
        return self._finish_group(state, normal_cdf_array(state["flat"]))

    @property
    def n_configs(self) -> int:
        return len(self.configs)

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
        every input step; this is its engine.  States are grouped by
        goal structure (:meth:`_build_skeletons`), and each group runs
        the one estimator body with its states as ``(K, 1)`` columns:
        all per-state CDF arguments are gathered into **one** flat
        vector and pushed through a single vectorized erf evaluation.
        Row ``g`` of each tensor is bit-identical to the
        :meth:`estimate_batch` plane of state ``g``, its width-1 shape
        (pinned by ``tests/test_lockstep_parity.py``).

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
        point = self._point_sigma
        states = []
        for skeleton in self._stack_plans(goals, phi, tail_list):
            rows = skeleton["rows"]
            if self.variance_aware:
                sigma_raw = xi_sigma[rows][:, None]
            else:
                sigma_raw = np.full((len(rows), 1), point)
            fraction = ratio = None
            *_, use_tail = skeleton["sig"]
            if use_tail:
                tails_k = [tail_list[g] for g in skeleton["idx"]]
                fraction = np.array([tail[0] for tail in tails_k])[:, None]
                ratio = np.array([tail[1] for tail in tails_k])[:, None]
            states.append(
                self._gather_group(
                    skeleton, xi_mean[rows][:, None], sigma_raw,
                    np.maximum(sigma_raw, point), phi[rows][:, None],
                    fraction, ratio,
                )
            )
        flats = [state["flat"] for state in states]
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
        for state in states:
            size = state["flat"].size
            planes = self._finish_group(state, cdf_all[offset : offset + size])
            rows = state["rows"]
            for name, plane in planes.items():
                fields[name][rows] = plane
            offset += size
        return fields

    # ------------------------------------------------------------------
    # Goal-only plans
    # ------------------------------------------------------------------
    def _sig(self, goal: Goal, tail, phi) -> tuple:
        """The branch structure one (goal, state) puts the body in.

        Which constraints the goal sets and its objective, plus two
        flags of the state: whether a budget goal meets the degenerate
        ``phi >= 1`` energy regime (within the scalar guard's 1e-12),
        and whether the Section 3.6 tail mixture is in play.
        """
        has_budget = goal.energy_budget_j is not None
        return (
            has_budget,
            has_budget and bool(phi >= 1.0 - 1e-12),
            goal.accuracy_min is not None,
            goal.prob_threshold is not None,
            goal.objective,
            bool(
                self.variance_aware
                and tail is not None
                and tail[0] > 0.0
                and tail[1] > 1.0
            ),
        )

    def _stack_plans(self, goals, phi, tail_list) -> list[dict]:
        """The stacked plans of a query, one per structural group, cached.

        Keyed by goal identities plus each state's :meth:`_sig`, whose
        only state-dependent parts are the tail and degenerate-``phi``
        flags; everything else in a plan depends only on the goals.
        The lockstep cells pass the identical adjusted-goal objects
        every input step, so steady state is one dict hit per step.
        Each plan holds strong references to its goals, which pins the
        ids in the key for as long as the entry lives.
        """
        sigs = tuple(
            self._sig(goal, tail_list[g], phi[g]) for g, goal in enumerate(goals)
        )
        key = (tuple(map(id, goals)), sigs)
        skeletons = self._stack_skeletons.get(key)
        if skeletons is None:
            skeletons = self._build_skeletons(goals, sigs)
            if len(self._stack_skeletons) >= 64:
                self._stack_skeletons.clear()
            self._stack_skeletons[key] = skeletons
        return skeletons

    def _build_skeletons(self, goals, sigs) -> list[dict]:
        """Group states by structure and stack each group's goal plans.

        Values (the deadline, the floor, the budget) vary freely within
        a group of ``K`` states: each becomes a ``(K, 1)`` column and
        each 1-D row a ``(K, ·)`` stack.  Only the branch structure
        (:meth:`_sig`) must agree for the expressions to broadcast.
        """
        groups: dict[tuple, list[int]] = {}
        for g, sig in enumerate(sigs):
            groups.setdefault(sig, []).append(g)
        skeletons: list[dict] = []
        for sig, idx in groups.items():
            lead = (len(idx),)
            plans = [self._plan(sig, goals[g]) for g in idx]
            skeleton = {
                "sig": sig,
                "lead": lead,
                "rung_bufs": self._rung_buffers(lead),
                "goals": [goals[g] for g in idx],
                "idx": idx,
                "rows": np.asarray(idx, dtype=np.intp),
            }
            for name, value in plans[0].items():
                if name in skeleton:
                    continue
                values = [plan[name] for plan in plans]
                if isinstance(value, np.ndarray):
                    skeleton[name] = np.stack(values)
                else:
                    skeleton[name] = np.array(values)[:, None]
            if "first_rung" in skeleton:
                # Move each row's flat positions into its state's plane.
                skeleton["first_rung"] += skeleton["rung_bufs"][4]
            skeletons.append(skeleton)
        return skeletons

    def _plan(self, sig: tuple, goal: Goal) -> dict:
        """The goal-only inputs of the body for one goal.

        A one-state plan: the goal's values stay Python floats and its
        arrays are 1-D rows over the configurations (the unique
        latencies, for the thresholds), each from a per-value cache.
        """
        has_budget, _, has_floor, has_prob, objective, _ = sig
        plan = {
            "sig": sig,
            "lead": (),
            "rung_bufs": self._rung_buffers(()),
            "thr": self._thresholds(goal.deadline_s),
            "deadline": goal.deadline_s,
            "period": goal.period,
        }
        if has_budget:
            plan["budget"] = goal.energy_budget_j
            plan["horizon"], plan["xi_cross"], plan["xi_b"] = (
                self._energy_static(goal)
            )
        if has_floor:
            below, has_rung, first_rung, qfail_ok = self._qmin_static(
                goal.accuracy_min
            )
            plan["quality_below"] = below
            plan["qfail_ok"] = qfail_ok
            if self._has_anytime:
                plan["has_rung"] = has_rung
                plan["first_rung"] = first_rung
        if objective is ObjectiveKind.MINIMIZE_ENERGY:
            plan["acc_min"] = goal.accuracy_min
        if has_prob:
            plan["z_q"] = self._quantile(goal.prob_threshold)
            plan["prob"] = goal.prob_threshold
        return plan

    def _thresholds(self, deadline: float) -> np.ndarray:
        """Eq. 6's deadline/latency thresholds over the unique latencies.

        Serving loops re-decide the same (goal-adjusted) deadline for
        thousands of inputs, so the division is cached per deadline.
        """
        thr = self._thr_cache.get(deadline)
        if thr is None:
            thr = deadline / self._unique_lat
            if len(self._thr_cache) >= 256:
                self._thr_cache.clear()
            self._thr_cache[deadline] = thr
        return thr

    def _energy_static(self, goal: Goal) -> tuple:
        """``(horizon, xi_cross, xi_b)`` of Eq. 9's piecewise energy CDF,
        cached per ``(deadline, period, budget)``."""
        key = (goal.deadline_s, goal.period, goal.energy_budget_j)
        cached = self._energy_cache.get(key)
        if cached is None:
            horizon = np.where(
                self.is_anytime, min(goal.deadline_s, goal.period), goal.period
            )
            cached = (
                horizon,
                horizon / self.t_run,
                goal.energy_budget_j / self._power_trun,
            )
            if len(self._energy_cache) >= 256:
                self._energy_cache.clear()
            self._energy_cache[key] = cached
        return cached

    def _quantile(self, prob: float) -> float:
        """Eq. 12's standard-normal quantile of ``Pr_th``, cached."""
        z_q = self._quantile_cache.get(prob)
        if z_q is None:
            z_q = normal_quantile(prob)
            self._quantile_cache[prob] = z_q
        return z_q

    def _qmin_static(
        self, q_min: float
    ) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
        """State-independent pieces of the Eq. 10-11 floor check.

        Which configurations can possibly clear ``q_min`` — and at
        which rung, as a flat position in one state's ``(config,
        rung)`` plane — depends only on the static ladder, so it is
        cached per floor value (constraint grids reuse a handful).
        """
        cached = self._qmin_cache.get(q_min)
        if cached is None:
            reach = self.rung_valid & (self.rung_q >= q_min)
            n, width = reach.shape
            cached = (
                self.quality < q_min,
                reach.any(axis=1),
                np.arange(n) * width + reach.argmax(axis=1),
                self.q_fail >= q_min,
            )
            if len(self._qmin_cache) >= 128:
                self._qmin_cache.clear()
            self._qmin_cache[q_min] = cached
        return cached

    def _rung_buffers(self, lead: tuple) -> tuple:
        """Reusable rung-ladder planes for one leading state shape.

        ``(rung_pr, rung_pr_next, flat, put, offsets)``: ``flat`` is a
        flat view of ``rung_pr``, ``put`` the flat positions of every
        state's valid rungs in it, and ``offsets`` moves a position in
        one state's plane to that state's plane.  Invalid entries of
        ``rung_pr`` and the last column of ``rung_pr_next`` stay 0
        forever.  Flat positions keep the scatter and the gather as
        cheap per state at any width.
        """
        buffers = self._rung_bufs.get(lead)
        if buffers is None:
            n, width = self.rung_valid.shape
            rung_pr = np.zeros(lead + (n, width))
            if lead:
                offsets = (np.arange(lead[0]) * (n * width))[:, None]
                put = (offsets + self._rung_put).ravel()
            else:
                offsets, put = 0, self._rung_put
            buffers = (
                rung_pr, np.zeros(lead + (n, width)), rung_pr.reshape(-1),
                put, offsets,
            )
            if len(self._rung_bufs) >= 8:
                self._rung_bufs.clear()
            self._rung_bufs[lead] = buffers
        return buffers

    # ------------------------------------------------------------------
    # The estimator body (Eqs. 6-13), at any width
    # ------------------------------------------------------------------
    def _gather_group(
        self, plan, mean, sigma_raw, sigma_cdf, phi, fraction, ratio
    ) -> dict:
        """Every normal-CDF argument of one group, in one flat vector.

        The deadline thresholds of Eq. 6 for the runs and every anytime
        rung, their Section 3.6 tail-mixture shifts, and the ξ
        crossings of the piecewise-linear energy CDF all go through a
        single vectorized erf evaluation; :meth:`_finish_group` slices
        the results back apart.  The state (``mean``, the raw and the
        CDF ``sigma``, ``phi``, the tail ``fraction`` and ``ratio``)
        comes as Python floats for a one-state plan, as ``(K, 1)``
        columns for a stacked one.
        """
        has_budget, degenerate, _, _, _, use_tail = plan["sig"]
        thr = plan["thr"]
        segments = [(thr - mean) / sigma_cdf]
        if use_tail:
            segments.append((thr - mean * ratio) / sigma_cdf)
        state = dict(plan)
        state["mean"] = mean
        state["sigma_raw"] = sigma_raw
        state["phi"] = phi
        state["fraction"] = fraction

        if has_budget:
            # ξ thresholds of the energy CDF (Eq. 9's piecewise pieces);
            # the scalar path evaluates these without the tail mixture.
            budget = plan["budget"]
            period = plan["period"]
            horizon = plan["horizon"]
            xi_cross = plan["xi_cross"]
            power = self.power
            floor = power * horizon + phi * power * np.maximum(
                0.0, period - horizon
            )
            state["floor"] = floor
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
                        (budget - phi * power * period) / denom,
                    )
                energy_args = np.concatenate(
                    [plan["xi_b"], xi_cross, np.minimum(xi_a, xi_cross)],
                    axis=-1,
                )
            else:
                xi_a = (budget - phi * power * period) / (
                    self._power_trun * (1.0 - phi)
                )
                above_cross = budget >= floor - 1e-12
                energy_args = np.where(above_cross, plan["xi_b"], xi_a)
                state["above_cross"] = above_cross
            segments.append((energy_args - mean) / sigma_cdf)

        state["flat"] = (
            segments[0].ravel()
            if len(segments) == 1
            else np.concatenate(segments, axis=None)
        )
        return state

    def _finish_group(
        self, state: dict, cdf_flat: np.ndarray
    ) -> dict[str, np.ndarray]:
        """The arithmetic after the CDF: one group's ten estimate planes.

        Each plane has the group's leading state shape plus the config
        axis, or is a ``(C,)`` constant that broadcasts over it.
        """
        has_budget, degenerate, has_floor, has_prob, objective, use_tail = (
            state["sig"]
        )
        lead = state["lead"]
        n = self.n_configs
        is_any = self.is_anytime
        deadline = state["deadline"]
        phi = state["phi"]
        mean = state["mean"]

        # --- Slice the CDFs back apart --------------------------------
        # A one-state plan's slices are its planes already; a stacked
        # plan's are (K, U) once reshaped like its thresholds.
        thr = state["thr"]
        m = thr.size
        pr_unique = cdf_flat[:m]
        if lead:
            pr_unique = pr_unique.reshape(thr.shape)
        offset = m
        if use_tail:
            shifted = cdf_flat[m : 2 * m]
            if lead:
                shifted = shifted.reshape(thr.shape)
            offset = 2 * m
            fraction = state["fraction"]
            pr_unique = (1.0 - fraction) * pr_unique + fraction * shifted
        pr_concat = pr_unique.take(self._lat_inverse, axis=-1)
        pr_deadline = pr_concat[..., :n]
        pr_full = pr_concat[..., n : 2 * n]

        # --- Eqs. 7 / 13: expected quality ----------------------------
        has_anytime = self._has_anytime
        expected_trad = pr_full * self.quality + (1.0 - pr_full) * self.q_fail
        if has_anytime:
            rung_pr, rung_pr_next, rung_flat, put, _ = state["rung_bufs"]
            rung_flat[put] = pr_concat[..., 2 * n :].ravel()
            rung_pr_next[..., :-1] = rung_pr[..., 1:]
            # np.add.reduce is what np.sum runs, without its wrapper.
            expected_any = (1.0 - rung_pr[..., 0]) * self.q_fail + np.add.reduce(
                self.rung_q * (rung_pr - rung_pr_next), axis=-1
            )
            expected_q = np.where(is_any, expected_any, expected_trad)
        else:
            expected_q = expected_trad

        # --- Eqs. 10-11: probability of delivering the floor ----------
        if has_floor:
            q_meet = np.where(state["quality_below"], 0.0, pr_full)
            if has_anytime:
                q_meet_any = np.where(
                    state["has_rung"], rung_flat[state["first_rung"]], 0.0
                )
                q_meet = np.where(is_any, q_meet_any, q_meet)
            q_meet = np.where(state["qfail_ok"], 1.0, q_meet)
        else:
            q_meet = self._ones_f

        # --- Expected inference time (mean form) ----------------------
        run_mean = mean * self.t_run
        latency_mean = (
            np.where(is_any, np.minimum(run_mean, deadline), run_mean)
            if has_anytime
            else run_mean
        )

        # --- Eq. 9 / 12: expected whole-period energy -----------------
        if has_prob:
            # Eq. 12's percentile shift uses the unfloored sigma,
            # exactly like the scalar expected_inference_time.
            shift = mean + state["z_q"] * state["sigma_raw"]
            run_energy = np.maximum(shift * self.t_run, 0.0)
        else:
            run_energy = run_mean
        if has_anytime:
            run_energy = np.where(
                is_any, np.minimum(run_energy, deadline), run_energy
            )
        idle_time = np.maximum(0.0, state["period"] - run_energy)
        energy = self.power * run_energy + phi * self.power * idle_time

        # --- Feasibility flags (same confidence floors) ---------------
        confidence = self.confidence
        if has_anytime:
            meets_latency_mean = is_any | (latency_mean <= deadline)
            meets_latency = is_any | (
                meets_latency_mean & (pr_deadline >= confidence)
            )
        else:
            meets_latency_mean = latency_mean <= deadline
            meets_latency = meets_latency_mean & (pr_deadline >= confidence)
        # The joint constraint probability only gates ``meets_prob``,
        # so it is skipped entirely when no Pr_th is set.
        if has_prob:
            pr_constraints = (
                np.where(is_any, q_meet, np.minimum(pr_deadline, q_meet))
                if has_anytime
                else np.minimum(pr_deadline, q_meet)
            )

        meets_accuracy = self._true
        if objective is ObjectiveKind.MINIMIZE_ENERGY:
            meets_accuracy = (expected_q >= state["acc_min"]) & (
                q_meet >= confidence
            )

        meets_energy = self._true
        if has_budget:
            budget = state["budget"]
            floor = state["floor"]
            energy_cdfs = cdf_flat[offset:]
            if lead:
                energy_cdfs = energy_cdfs.reshape(lead + (-1,))
            if degenerate:
                # Degenerate regime: a longer run is cheaper in-window;
                # anytime energy pins at its saturation floor.
                cdf_b = energy_cdfs[..., :n]
                cdf_cross = energy_cdfs[..., n : 2 * n]
                cdf_min = energy_cdfs[..., 2 * n :]
                below = np.maximum(0.0, cdf_b - cdf_cross)
                above = np.maximum(0.0, cdf_b - cdf_min)
                e_meet = np.where(budget < floor - 1e-12, below, above)
                if has_anytime:
                    res_any = np.where(budget >= floor - 1e-12, 1.0, 0.0)
                    e_meet = np.where(is_any, res_any, e_meet)
            elif has_anytime:
                # Normal regime: energy nondecreasing in ξ everywhere;
                # anytime saturates at the crossing, so any budget at
                # or above it is always met.
                e_meet = np.where(
                    is_any & state["above_cross"], 1.0, energy_cdfs
                )
            else:
                e_meet = energy_cdfs
            meets_energy = (energy <= budget) & (e_meet >= confidence)
            if has_prob:
                pr_constraints = np.minimum(pr_constraints, e_meet)

        meets_prob = self._true
        if has_prob:
            meets_prob = pr_constraints >= state["prob"]

        return {
            "latency_mean_s": latency_mean,
            "deadline_probability": pr_deadline,
            "expected_quality": expected_q,
            "quality_meet_probability": q_meet,
            "expected_energy_j": energy,
            "meets_latency": meets_latency,
            "meets_accuracy": meets_accuracy,
            "meets_energy": meets_energy,
            "meets_prob": meets_prob,
            "meets_latency_mean": meets_latency_mean,
        }
