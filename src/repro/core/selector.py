"""Configuration selection (Eqs. 1/2/4/10/11) with priority fallback.

The selector ranks every configuration by the goal's objective among
those whose estimates satisfy all constraints.  When nothing is
feasible it degrades gracefully through the paper's priority hierarchy
— "If ALERT cannot meet all constraints, it prioritizes latency
highest, then accuracy, then power" (Section 4) — so the runtime always
has something to run:

1. **all** — every applicable constraint (plus ``Pr_th`` if set);
2. **drop the lowest-priority constraint** — the accuracy floor when
   minimising energy, the energy budget when maximising accuracy;
3. **drop Pr_th** — fall back to pure expectations;
4. **best effort** — nothing meets the deadline: pick the
   configuration most likely to, i.e. minimum expected latency.

:meth:`ConfigSelector.select` is vectorized: one
:meth:`repro.core.batch_estimator.BatchAlertEstimator.estimate_batch`
call produces the estimate planes for the whole space, and each stage
ranks candidates with a single ``np.lexsort`` over the same key tuples
the reference compares — this is what makes the scheduler cost a
small fraction of an input's inference time.
:meth:`ConfigSelector.select_many` ranks many (goal, filter-state)
pairs in one pass over
:meth:`~repro.core.batch_estimator.BatchAlertEstimator.stacked_fields`
and returns only the winning configurations; both estimator calls run
the same estimator body, at width 1 and stacked.  The reference is
:meth:`ConfigSelector.select_scalar`, a per-configuration loop over
:meth:`repro.core.estimator.AlertEstimator.estimate` kept as the
readable ground truth; the parity suites call it by name and assert
both paths pick identical configurations with estimates equal to
<= 1e-9.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.core.batch_estimator import BatchAlertEstimator
from repro.core.config_space import Configuration, ConfigurationSpace
from repro.core.estimator import AlertEstimator, ConfigEstimate
from repro.core.goals import Goal, ObjectiveKind
from repro.errors import ConfigurationError

__all__ = ["SelectionResult", "ConfigSelector", "lexargmin"]


def lexargmin(keys, axis: int = 0, mask=None):
    """Lexicographic argmin of ``keys`` along ``axis``, first occurrence.

    ``keys`` are equal-shape arrays in priority order; ``mask``
    optionally restricts the candidates (it must leave at least one
    along ``axis``).  Each key narrows the candidates to its minimum,
    stopping once one candidate is left per lane, and the first
    survivor wins: the pick of a stable ``np.lexsort`` over the same
    keys, and of Python's ``min`` over key tuples, for a few masked
    reductions instead of a sort.  As in ``np.lexsort``, -0.0 ties
    with 0.0 and NaN orders last: ``np.fmin`` skips it, and a key that
    is NaN on every candidate narrows nothing.
    """
    alive = np.ones(np.shape(keys[0]), dtype=bool) if mask is None else (
        np.array(mask, dtype=bool)
    )
    lanes = alive.size // alive.shape[axis]
    for key in keys:
        masked = np.where(alive, key, np.nan)
        best = np.fmin.reduce(masked, axis=axis, keepdims=True)
        alive &= (masked == best) | np.isnan(best)
        # Every lane keeps at least one candidate, so this many left
        # means exactly one each.
        if np.count_nonzero(alive) == lanes:
            break
    return alive.argmax(axis=axis)


def _quantize6(x: float) -> float:
    """Quantize to 1e-6 buckets (stage-2 ranking key).

    Scale / round-half-even / unscale, which is what ``np.rint`` does
    elementwise — keeping the scalar and batch stage-2 keys
    bit-identical.
    """
    return round(x * 1e6) / 1e6


@dataclass(frozen=True)
class SelectionResult:
    """Outcome of one selection round.

    Attributes
    ----------
    config / estimate:
        The winning configuration and its estimate record.
    feasible:
        Whether the winner satisfied every constraint (stage 1).
    relaxation:
        Which fallback stage produced the winner: ``None`` (feasible),
        ``"constraint"`` (lowest-priority constraint dropped),
        ``"probability"`` (``Pr_th`` dropped too) or ``"latency"``
        (best-effort minimum-latency pick).
    n_candidates / n_feasible:
        Search-space accounting, exposed for tests and traces.
    """

    config: Configuration
    estimate: ConfigEstimate
    feasible: bool
    relaxation: str | None
    n_candidates: int
    n_feasible: int


class ConfigSelector:
    """Ranks configurations for a goal given the filter state.

    Parameters
    ----------
    space / estimator:
        The candidate space and the scalar reference estimator.
    """

    def __init__(self, space: ConfigurationSpace, estimator: AlertEstimator) -> None:
        self.space = space
        self.estimator = estimator
        self.batch = BatchAlertEstimator(space, estimator)

    # ------------------------------------------------------------------
    # Ranking keys
    # ------------------------------------------------------------------
    @staticmethod
    def _objective_key(goal: Goal, estimate: ConfigEstimate):
        """Sort key: smaller is better for every objective."""
        if goal.objective is ObjectiveKind.MINIMIZE_ENERGY:
            # Minimise energy; tie-break on higher quality, then lower
            # power so results are deterministic.
            return (
                estimate.expected_energy_j,
                -estimate.expected_quality,
                estimate.config.power_w,
                estimate.config.model.name,
            )
        return (
            -estimate.expected_quality,
            estimate.expected_energy_j,
            estimate.config.power_w,
            estimate.config.model.name,
        )

    # ------------------------------------------------------------------
    # Selection
    # ------------------------------------------------------------------
    def select(
        self,
        goal: Goal,
        xi_mean: float,
        xi_sigma: float,
        phi: float,
        tail: tuple[float, float] | None = None,
    ) -> SelectionResult:
        """Pick the best configuration for the current goal and state."""
        f = self.batch.estimate_batch(goal, xi_mean, xi_sigma, phi, tail)
        energy = f["expected_energy_j"]
        quality = f["expected_quality"]
        # Precomputed rank equivalent to the scalar (power_w, name)
        # tie-break plus stable list order — keys stay purely numeric.
        rank = self.batch.tie_rank
        n = self.batch.n_configs

        def best(idxs: np.ndarray, keys: tuple[np.ndarray, ...]) -> int:
            # np.lexsort sorts by the *last* key first; pass the key
            # tuple reversed so ``keys`` reads in priority order, like
            # the scalar tuple comparison.
            order = np.lexsort(tuple(reversed(keys)))
            return int(idxs[order[0]])

        def result(winner, feasible, relaxation, n_feasible):
            return SelectionResult(
                config=self.batch.configs[winner],
                estimate=ConfigEstimate(
                    config=self.batch.configs[winner],
                    **{name: plane.item(winner) for name, plane in f.items()},
                ),
                feasible=feasible,
                relaxation=relaxation,
                n_candidates=n,
                n_feasible=n_feasible,
            )

        feasible_mask = (
            f["meets_latency"]
            & f["meets_accuracy"]
            & f["meets_energy"]
            & f["meets_prob"]
        )
        n_feasible = int(np.count_nonzero(feasible_mask))
        if n_feasible:
            idxs = np.flatnonzero(feasible_mask)
            if goal.objective is ObjectiveKind.MINIMIZE_ENERGY:
                keys = (
                    energy[idxs],
                    -quality[idxs],
                    rank[idxs],
                )
            else:
                keys = (
                    -quality[idxs],
                    energy[idxs],
                    rank[idxs],
                )
            return result(best(idxs, keys), True, None, n_feasible)

        for keep_prob, stage in ((True, "constraint"), (False, "probability")):
            mask = f["meets_latency_mean"]
            if keep_prob:
                mask = mask & f["meets_prob"]
            if not mask.any():
                continue
            idxs = np.flatnonzero(mask)
            if goal.objective is ObjectiveKind.MINIMIZE_ENERGY:
                # Bit-identical to the scalar key's _quantize6: scale,
                # round half-to-even, unscale — np.rint and Python
                # round() agree exactly on integer-rounding doubles.
                rounded = (
                    np.rint(f["quality_meet_probability"][idxs] * 1e6) / 1e6
                )
                keys = (
                    -rounded,
                    -quality[idxs],
                    energy[idxs],
                    rank[idxs],
                )
            else:
                keys = (
                    -quality[idxs],
                    energy[idxs],
                    rank[idxs],
                )
            return result(best(idxs, keys), False, stage, 0)

        idxs = np.arange(n)
        keys = (
            f["latency_mean_s"],
            -quality,
            rank,
        )
        return result(best(idxs, keys), False, "latency", 0)

    # ------------------------------------------------------------------
    # Stacked multi-state fast path (the lockstep decision engine)
    # ------------------------------------------------------------------
    def select_many(
        self,
        goals,
        deadlines,
        xi_means,
        xi_sigmas,
        phis,
        tails=None,
    ) -> list[Configuration]:
        """The winning configuration of every (goal, filter-state) pair.

        The lockstep serving path calls this once per input step with
        every base goal of the cell and the step's deadlines (see
        :meth:`~repro.core.batch_estimator.BatchAlertEstimator.stacked_fields`
        for the arguments).  The estimates come from one stacked query
        (single fused erf evaluation), and each structural group of
        states is ranked on its own planes (:meth:`_group_winners`):
        its row's argmin among its stage's valid candidates is exactly
        the configuration :meth:`select` picks for that goal at that
        deadline (pinned by ``tests/test_lockstep_parity.py``).
        """
        n_states = len(goals)
        if n_states < 1:
            raise ConfigurationError("need at least one (goal, state) pair")
        winners = np.empty(n_states, dtype=np.intp)
        for rows, objective, planes in self.batch.stacked_fields(
            goals, deadlines, xi_means, xi_sigmas, phis, tails
        ):
            winners[rows] = self._group_winners(
                planes, objective is ObjectiveKind.MINIMIZE_ENERGY
            )
        configs = self.batch.configs
        return [configs[winner] for winner in winners.tolist()]

    def _group_winners(self, planes: dict, min_energy: bool) -> np.ndarray:
        """Each state's winner among one group's ``(K × C)`` planes.

        The states share one objective; each resolves its fallback
        stage (0 = feasible, then the scalar hierarchy's relaxation
        order) and contributes its stage's ranking keys, as
        :meth:`select`'s key tuples, into shared key columns (padded
        with a constant where a stage has fewer keys).  One row-wise
        :func:`lexargmin` then picks every state's winner.
        """
        energy = planes["expected_energy_j"]
        neg_quality = -planes["expected_quality"]
        mlm = planes["meets_latency_mean"]
        meets_prob = planes["meets_prob"]
        feasible = (
            planes["meets_latency"]
            & planes["meets_accuracy"]
            & planes["meets_energy"]
            & meets_prob
        )
        keep_prob_mask = mlm & meets_prob
        stage = np.where(
            feasible.any(axis=1),
            0,
            np.where(
                keep_prob_mask.any(axis=1),
                1,
                np.where(mlm.any(axis=1), 2, 3),
            ),
        )
        rank = self.batch.tie_rank
        if not stage.any():
            # Every state resolved at stage 0 (the common steady
            # state): the keys are the objective's.
            keys = (
                (energy, neg_quality, rank) if min_energy
                else (neg_quality, energy, rank)
            )
            return lexargmin(keys, axis=1, mask=feasible)
        col = stage[:, None]
        valid = np.where(
            col == 0,
            feasible,
            np.where(col == 1, keep_prob_mask, np.where(col == 2, mlm, True)),
        )
        best_effort = col == 3
        if min_energy:
            relaxed = (col == 1) | (col == 2)
            # Bit-identical to the scalar key's _quantize6 (see select);
            # read only where ``relaxed`` holds.
            neg_rounded = -(
                np.rint(planes["quality_meet_probability"] * 1e6) / 1e6
            )
            keys = (
                np.where(
                    best_effort,
                    planes["latency_mean_s"],
                    np.where(relaxed, neg_rounded, energy),
                ),
                neg_quality,
                np.where(relaxed, energy, rank),
                np.where(relaxed, rank, 0.0),
            )
        else:
            keys = (
                np.where(best_effort, planes["latency_mean_s"], neg_quality),
                np.where(best_effort, neg_quality, energy),
                rank,
            )
        return lexargmin(keys, axis=1, mask=valid)

    # ------------------------------------------------------------------
    # Scalar reference path
    # ------------------------------------------------------------------
    def select_scalar(
        self,
        goal: Goal,
        xi_mean: float,
        xi_sigma: float,
        phi: float,
        tail: tuple[float, float] | None = None,
    ) -> SelectionResult:
        """The readable per-configuration reference implementation."""
        estimates = [
            self.estimator.estimate(config, goal, xi_mean, xi_sigma, phi, tail)
            for config in self.space
        ]

        feasible = [e for e in estimates if e.feasible]
        if feasible:
            best = min(feasible, key=lambda e: self._objective_key(goal, e))
            return SelectionResult(
                config=best.config,
                estimate=best,
                feasible=True,
                relaxation=None,
                n_candidates=len(estimates),
                n_feasible=len(feasible),
            )

        # Stage 2: drop the lowest-priority constraint but keep the
        # latency constraint and Pr_th; optimise what was constrained.
        relaxed = self._relax_constraint(goal, estimates, keep_prob=True)
        if relaxed is not None:
            return SelectionResult(
                config=relaxed.config,
                estimate=relaxed,
                feasible=False,
                relaxation="constraint",
                n_candidates=len(estimates),
                n_feasible=0,
            )

        # Stage 3: drop Pr_th as well.
        relaxed = self._relax_constraint(goal, estimates, keep_prob=False)
        if relaxed is not None:
            return SelectionResult(
                config=relaxed.config,
                estimate=relaxed,
                feasible=False,
                relaxation="probability",
                n_candidates=len(estimates),
                n_feasible=0,
            )

        # Stage 4: nothing meets the deadline — chase latency.
        best = min(
            estimates,
            key=lambda e: (
                e.latency_mean_s,
                -e.expected_quality,
                e.config.power_w,
                e.config.model.name,
            ),
        )
        return SelectionResult(
            config=best.config,
            estimate=best,
            feasible=False,
            relaxation="latency",
            n_candidates=len(estimates),
            n_feasible=0,
        )

    def _relax_constraint(
        self, goal: Goal, estimates: list[ConfigEstimate], keep_prob: bool
    ) -> ConfigEstimate | None:
        """Stage 2/3 candidate: keep latency, drop the weakest constraint.

        When the accuracy floor (min-energy mode) or energy budget
        (max-accuracy mode) is unreachable, ALERT still meets the
        deadline and pushes the dropped dimension as far as it can:
        maximise expected quality when the accuracy floor fell,
        maximise quality within latency when the energy budget fell.
        """
        candidates = [
            e
            for e in estimates
            if e.meets_latency_mean and (e.meets_prob or not keep_prob)
        ]
        if not candidates:
            return None
        if goal.objective is ObjectiveKind.MINIMIZE_ENERGY:
            # Accuracy floor dropped: chase the floor itself — maximise
            # the probability of *delivering* at least ``accuracy_min``
            # (the quantity the violation accounting checks), then
            # expected quality, then energy.  Ranking by expected
            # quality alone would favour a configuration that reliably
            # delivers just *below* the floor over one that clears it
            # on most inputs.
            return min(
                candidates,
                key=lambda e: (
                    -_quantize6(e.quality_meet_probability),
                    -e.expected_quality,
                    e.expected_energy_j,
                    e.config.power_w,
                    e.config.model.name,
                ),
            )
        # Energy budget dropped: maximise quality (the objective),
        # breaking ties toward lower energy.
        return min(
            candidates,
            key=lambda e: (
                -e.expected_quality,
                e.expected_energy_j,
                e.config.power_w,
                e.config.model.name,
            ),
        )
