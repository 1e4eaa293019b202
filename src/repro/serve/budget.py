"""Global power budget partitioned across fleet replicas.

The paper evaluates ALERT per machine; a fleet front-end adds one new
resource decision above the per-replica controllers: how much of a
global power budget each replica may spend.  Two partition policies
live here, behind one surface (:meth:`PowerBudget.partition`):

* :class:`PowerBudget` — the predictable baseline: an equal split over
  the *active* replicas, re-partitioned on churn so each per-replica
  ALERT controller always optimises under the cap it will actually be
  held to.
* :class:`XiWeightedBudget` — belief-weighted partitioning: each
  replica's share is proportional to its kernel's current global
  slowdown estimate ξ.  A replica that believes it is slowed down
  (co-located contention raised its ξ filter) needs *more* power to
  hit the same deadlines, so it receives a larger slice of the budget;
  an unperturbed replica cedes headroom it was not using.  Besides
  churn, the front-end re-partitions whenever any replica's ξ has
  drifted beyond ``drift_threshold`` relative to the belief the
  current partition was cut from (:meth:`needs_repartition`) — the
  fast-convergence property of belief-weighted resource control.

Replicas whose kernels expose no ξ estimate (feedback-free schedulers)
weigh in at exactly 1.0, so an all-estimate-free fleet degrades to the
equal split.
"""

from __future__ import annotations

import math

from repro.errors import ConfigurationError

__all__ = [
    "PowerBudget",
    "XiWeightedBudget",
    "BUDGET_KINDS",
    "make_budget",
    "replica_xi",
]


def replica_xi(replica) -> float | None:
    """The replica kernel's current mean slowdown belief, or ``None``.

    Reads the ξ filter's posterior mean without mutating any state.
    Kernels without a slowdown estimator (feedback-free schedulers)
    yield ``None`` and are weighted neutrally by the callers.
    """
    slowdown = getattr(replica.kernel, "slowdown", None)
    if slowdown is None:
        return None
    snapshot = getattr(slowdown, "snapshot", None)
    if snapshot is None:
        return None
    return float(snapshot()[0])


class PowerBudget:
    """An equal-share partition of a fleet-wide power budget.

    ``total_w`` of ``None`` means uncapped: every replica runs its
    controller's own power decisions unclamped.
    """

    kind = "equal"

    def __init__(self, total_w: float | None = None) -> None:
        if total_w is not None and not 0 < total_w < math.inf:
            raise ConfigurationError(
                f"power budget must be positive and finite, got {total_w}"
            )
        self.total_w = total_w

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"{type(self).__name__}(total_w={self.total_w})"

    def share_w(self, n_active: int) -> float | None:
        """Per-replica cap when ``n_active`` replicas split the budget."""
        if self.total_w is None:
            return None
        if n_active < 1:
            raise ConfigurationError(
                f"cannot partition a budget over {n_active} replicas"
            )
        return self.total_w / n_active

    def partition(self, replicas) -> list[float | None]:
        """Per-replica caps for the active replicas, in list order.

        The front-end calls this on churn (and, for belief-weighted
        budgets, on ξ drift) and assigns the returned caps positionally.
        """
        if not replicas:
            raise ConfigurationError("cannot partition over zero replicas")
        share = self.share_w(len(replicas))
        return [share] * len(replicas)

    def needs_repartition(self, replicas) -> bool:
        """Whether beliefs drifted enough to justify a fresh partition.

        The equal split ignores beliefs entirely, so only churn (which
        the front-end handles separately) ever re-partitions it.
        """
        return False


class XiWeightedBudget(PowerBudget):
    """Partition the budget proportionally to each replica's ξ belief.

    ``share_i = total_w * ξ_i / Σ_j ξ_j`` over the active replicas,
    with estimate-free replicas weighted at 1.0 and every weight
    floored at ``min_weight`` (a defensive clamp — ξ estimates are
    slowdowns, so they live near [1, tail]).  The partition remembers
    the beliefs it was cut from; :meth:`needs_repartition` answers
    whether any replica's ξ has since moved more than
    ``drift_threshold`` relatively, which is the front-end's trigger
    for re-cutting between churn events.
    """

    kind = "xi-weighted"

    def __init__(
        self,
        total_w: float | None = None,
        drift_threshold: float = 0.15,
        min_weight: float = 0.1,
    ) -> None:
        super().__init__(total_w)
        if drift_threshold <= 0:
            raise ConfigurationError(
                f"drift threshold must be positive, got {drift_threshold}"
            )
        if min_weight <= 0:
            raise ConfigurationError(
                f"min weight must be positive, got {min_weight}"
            )
        self.drift_threshold = drift_threshold
        self.min_weight = min_weight
        self._cut_from: dict[int, float] = {}

    def _weight(self, replica) -> float:
        xi = replica_xi(replica)
        weight = 1.0 if xi is None else xi
        return max(self.min_weight, weight)

    def partition(self, replicas) -> list[float | None]:
        if not replicas:
            raise ConfigurationError("cannot partition over zero replicas")
        weights = [self._weight(replica) for replica in replicas]
        self._cut_from = {
            replica.replica_id: weight
            for replica, weight in zip(replicas, weights)
        }
        if self.total_w is None:
            return [None] * len(replicas)
        scale = self.total_w / sum(weights)
        return [weight * scale for weight in weights]

    def needs_repartition(self, replicas) -> bool:
        if self.total_w is None or not replicas:
            return False
        for replica in replicas:
            then = self._cut_from.get(replica.replica_id)
            if then is None:
                return True  # membership changed under us
            now = self._weight(replica)
            if abs(now - then) / then > self.drift_threshold:
                return True
        return False


#: Budget kinds the factory (and the ``repro fleet`` CLI) accepts.
BUDGET_KINDS = ("equal", "xi-weighted")

_BUDGETS = {
    "equal": PowerBudget,
    "xi-weighted": XiWeightedBudget,
}


def make_budget(kind: str, total_w: float | None = None, **params) -> PowerBudget:
    """Instantiate a budget partition policy by CLI name.

    Extra keyword parameters go to the policy's constructor (e.g.
    ``drift_threshold`` for ``xi-weighted``).
    """
    try:
        cls = _BUDGETS[kind]
    except KeyError:
        raise ConfigurationError(
            f"unknown power-budget kind {kind!r}; "
            f"expected one of {BUDGET_KINDS}"
        ) from None
    return cls(total_w, **params)
