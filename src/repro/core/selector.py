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
:meth:`~repro.core.batch_estimator.BatchAlertEstimator.stacked_fields`;
both estimator calls run the same estimator body, at width 1 and
stacked.  The reference is
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

__all__ = ["SelectionResult", "BaselineSelection", "ConfigSelector"]


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


@dataclass(frozen=True)
class BaselineSelection:
    """A bare winning configuration, no estimate attached.

    The lockstep cells of estimator-free baselines (No-coord) return
    these from ``decide_many``: the serving loops only ever read
    ``.config``, and those baselines have no estimate record, search
    accounting, or relaxation stage to report.
    """

    config: Configuration


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
        #: Per-G constant index vectors for the stacked path (segment
        #: labels, row indices) and per-goal-tuple objective masks;
        #: both pure functions of their keys, rebuilt every step
        #: otherwise.  Objective-mask entries pin their goals so the
        #: id-tuple key stays unambiguous.
        self._stack_index_cache: dict[int, tuple] = {}
        self._objective_mask_cache: dict[tuple, tuple] = {}

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
        xi_means,
        xi_sigmas,
        phis,
        tails=None,
    ) -> list[SelectionResult]:
        """One selection per (goal, filter-state) pair, in one pass.

        The lockstep serving path calls this once per input step with
        every goal of the cell.  The
        estimates come from one stacked
        :meth:`~repro.core.batch_estimator.BatchAlertEstimator.stacked_fields`
        query (single fused erf evaluation), and the 4-stage priority
        hierarchy then ranks the whole ``(state × config)`` plane with
        **one** segment-wise ``np.lexsort``: each state resolves its
        fallback stage, contributes its stage's ranking keys into
        shared key columns (padded to the widest stage), and a leading
        segment key keeps states independent — the winner of segment
        ``g`` is exactly the configuration :meth:`select` would pick
        for state ``g`` (pinned by ``tests/test_lockstep_parity.py``).
        """
        n_states = len(goals)
        if n_states < 1:
            raise ConfigurationError("need at least one (goal, state) pair")
        tail_list = list(tails) if tails is not None else [None] * n_states
        fields = self.batch.stacked_fields(
            goals, xi_means, xi_sigmas, phis, tail_list
        )
        configs = self.batch.configs
        n = self.batch.n_configs
        rank = self.batch.tie_rank

        # The (G × C) planes come straight from the stacked estimator.
        energy = fields["expected_energy_j"]
        neg_quality = -fields["expected_quality"]
        latency_mean = fields["latency_mean_s"]
        q_meet = fields["quality_meet_probability"]
        mlm = fields["meets_latency_mean"]
        meets_prob = fields["meets_prob"]
        feasible = (
            fields["meets_latency"]
            & fields["meets_accuracy"]
            & fields["meets_energy"]
            & meets_prob
        )

        # Resolve each state's fallback stage (0 = feasible, then the
        # scalar hierarchy's relaxation order).
        n_feasible = feasible.sum(axis=1)
        keep_prob_mask = mlm & meets_prob
        stage = np.where(
            n_feasible > 0,
            0,
            np.where(
                keep_prob_mask.any(axis=1),
                1,
                np.where(mlm.any(axis=1), 2, 3),
            ),
        )
        col = stage[:, None]
        # Candidate validity per stage; invalid entries stay in the
        # plane but sort after every valid one via the lexsort key.
        if not stage.any():
            valid = feasible
        else:
            valid = np.where(
                col == 0,
                feasible,
                np.where(
                    col == 1, keep_prob_mask, np.where(col == 2, mlm, True)
                ),
            )

        goal_ids = tuple(map(id, goals))
        mask_entry = self._objective_mask_cache.get(goal_ids)
        if mask_entry is None:
            mask = np.array(
                [
                    goal.objective is ObjectiveKind.MINIMIZE_ENERGY
                    for goal in goals
                ]
            )[:, None]
            if len(self._objective_mask_cache) >= 64:
                self._objective_mask_cache.clear()
            mask_entry = (mask, bool(mask.all()), bool(mask.any()), list(goals))
            self._objective_mask_cache[goal_ids] = mask_entry
        min_energy, all_min_energy, any_min_energy, _ = mask_entry
        rank_plane = np.broadcast_to(rank, (n_states, n))
        zeros_plane = np.broadcast_to(np.zeros(1), (n_states, n))

        # The four ranking-key columns, row-selected by (stage,
        # objective) to replicate each stage's scalar key tuple; unused
        # trailing keys are constant within a row.
        if not stage.any():
            # Every state resolved at stage 0 (the common steady
            # state): each row's key tuple is just its objective's, so
            # the fallback-stage plane selects reduce to the plain
            # objective columns; the constant k4 drops out of the sort.
            if all_min_energy:
                k1, k2 = energy, neg_quality
            elif not any_min_energy:
                k1, k2 = neg_quality, energy
            else:
                k1 = np.where(min_energy, energy, neg_quality)
                k2 = np.where(min_energy, neg_quality, energy)
            k3 = rank_plane
            k4 = None
        else:
            relaxed = (col == 1) | (col == 2)
            if relaxed.any():
                # Bit-identical to the scalar key's _quantize6 (see
                # select); read only where ``relaxed`` holds.
                neg_rounded = -(np.rint(q_meet * 1e6) / 1e6)
            else:
                neg_rounded = zeros_plane  # unused: relaxed is all-False
            k1 = np.where(
                col == 3,
                latency_mean,
                np.where(
                    min_energy,
                    np.where(relaxed, neg_rounded, energy),
                    neg_quality,
                ),
            )
            k2 = np.where(
                col == 3, neg_quality, np.where(min_energy, neg_quality, energy)
            )
            k3 = np.where(
                col == 3,
                rank_plane,
                np.where(
                    min_energy & relaxed,
                    energy,
                    rank_plane,
                ),
            )
            k4 = np.where(min_energy & relaxed, rank_plane, zeros_plane)

        # One lexsort over the whole (state × config) plane: segment id
        # most significant, validity next (valid first), then the key
        # columns in priority order (np.lexsort sorts by its *last* key
        # first).  Segments have exactly ``n`` entries each, so state
        # g's winner is the sorted position g * n.
        idx_entry = self._stack_index_cache.get(n_states)
        if idx_entry is None:
            if len(self._stack_index_cache) >= 8:
                self._stack_index_cache.clear()
            idx_entry = (
                np.repeat(np.arange(n_states, dtype=np.int64), n),
                np.arange(n_states),
                np.arange(n_states, dtype=np.int64) * n,
            )
            self._stack_index_cache[n_states] = idx_entry
        seg, gidx, offsets = idx_entry
        if k4 is None:
            # Stage-0 fast path left k4 an all-constant column; a
            # stable sort with a constant key is an order-preserving
            # no-op, so it drops out of the lexsort entirely.
            sort_keys = (k3.ravel(), k2.ravel(), k1.ravel(), ~valid.ravel(), seg)
        else:
            sort_keys = (
                k4.ravel(),
                k3.ravel(),
                k2.ravel(),
                k1.ravel(),
                ~valid.ravel(),
                seg,
            )
        order = np.lexsort(sort_keys)
        winners = order[::n] - offsets

        # Materialise every winner's estimate straight from the planes
        # — the same floats each state's ``estimate_batch`` planes
        # carry, gathered with vectorized fancy indexing + ``tolist``
        # (identical doubles to per-element ``float()`` casts); the
        # scratch tensors are fully consumed before returning.
        win_latency = latency_mean[gidx, winners].tolist()
        win_dprob = fields["deadline_probability"][gidx, winners].tolist()
        win_quality = fields["expected_quality"][gidx, winners].tolist()
        win_qmeet = q_meet[gidx, winners].tolist()
        win_energy = energy[gidx, winners].tolist()
        win_mlat = fields["meets_latency"][gidx, winners].tolist()
        win_macc = fields["meets_accuracy"][gidx, winners].tolist()
        win_menergy = fields["meets_energy"][gidx, winners].tolist()
        win_mprob = meets_prob[gidx, winners].tolist()
        win_mlm = mlm[gidx, winners].tolist()
        stages = stage.tolist()
        feas_counts = n_feasible.tolist()

        _RELAXATIONS = (None, "constraint", "probability", "latency")
        results: list[SelectionResult] = []
        for g in range(n_states):
            winner = int(winners[g])
            config = configs[winner]
            # Frozen-dataclass direct fill, as in the serving loops'
            # record bookkeeping.
            estimate = object.__new__(ConfigEstimate)
            estimate.__dict__.update(
                config=config,
                latency_mean_s=win_latency[g],
                deadline_probability=win_dprob[g],
                expected_quality=win_quality[g],
                quality_meet_probability=win_qmeet[g],
                expected_energy_j=win_energy[g],
                meets_latency=win_mlat[g],
                meets_accuracy=win_macc[g],
                meets_energy=win_menergy[g],
                meets_prob=win_mprob[g],
                meets_latency_mean=win_mlm[g],
            )
            state_stage = stages[g]
            results.append(
                SelectionResult(
                    config=config,
                    estimate=estimate,
                    feasible=state_stage == 0,
                    relaxation=_RELAXATIONS[state_stage],
                    n_candidates=n,
                    n_feasible=feas_counts[g] if state_stage == 0 else 0,
                )
            )
        return results

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
