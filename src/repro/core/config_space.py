"""The joint configuration space: (DNN, power cap, anytime stop rung).

A :class:`Configuration` is one point ALERT can pick: which network to
run, under which power cap, and — for anytime networks — after which
output rung to stop.  The rung cap is how ALERT "naturally improves
Anytime DNN energy efficiency, stopping the inference sometimes before
the deadline" (Section 3.5): running only to rung ``k`` costs the
latency of rung ``k``, not of the whole ladder.

:class:`ConfigurationSpace` enumerates every candidate: the cross
product of models and power levels, with each anytime model expanded
into one configuration per stop rung.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.errors import ConfigurationError
from repro.models.anytime import AnytimeDnn
from repro.models.base import DnnModel

__all__ = ["Configuration", "ConfigurationSpace"]


@dataclass(frozen=True)
class Configuration:
    """One joint application/system operating point.

    Attributes
    ----------
    model:
        The network to run.
    power_w:
        The power cap to set.
    rung_cap:
        For anytime models, the 0-based index of the last rung to
        compute (``None`` means run the full ladder / a traditional
        network).
    """

    model: DnnModel
    power_w: float
    rung_cap: int | None = None

    def __post_init__(self) -> None:
        if self.power_w <= 0:
            raise ConfigurationError(
                f"power cap must be positive, got {self.power_w}"
            )
        if self.rung_cap is not None:
            if not isinstance(self.model, AnytimeDnn):
                raise ConfigurationError(
                    f"{self.model.name} is not anytime; rung_cap is meaningless"
                )
            if not 0 <= self.rung_cap < self.model.n_outputs:
                raise ConfigurationError(
                    f"rung_cap {self.rung_cap} outside "
                    f"[0, {self.model.n_outputs})"
                )
        # Precompute the latency fraction once; the estimators read it
        # on every decision, for every input.
        if self.rung_cap is None or not isinstance(self.model, AnytimeDnn):
            fraction = 1.0
        else:
            fraction = self.model.outputs[self.rung_cap].latency_fraction
        object.__setattr__(self, "_latency_fraction", fraction)

    @property
    def key(self) -> tuple[str, float, int]:
        """Hashable identity used in tables and logs."""
        rung = -1 if self.rung_cap is None else self.rung_cap
        return (self.model.name, self.power_w, rung)

    @property
    def latency_fraction(self) -> float:
        """Fraction of the model's full latency this configuration runs.

        1.0 for traditional models and uncapped anytime ladders.
        Precomputed in ``__post_init__`` — this is on the estimators'
        per-decision hot path.
        """
        return self._latency_fraction  # type: ignore[attr-defined]

    def describe(self) -> str:
        """Human-readable one-liner for traces and examples."""
        rung = "" if self.rung_cap is None else f", stop@rung{self.rung_cap}"
        return f"{self.model.name} @ {self.power_w:g} W{rung}"


class ConfigurationSpace:
    """Enumerates every candidate configuration.

    Parameters
    ----------
    models:
        Candidate networks (traditional and/or anytime).
    powers:
        Candidate power caps (typically ``machine.power_levels()``).
    expand_anytime_rungs:
        When True (the default) each anytime model contributes one
        configuration per stop rung, letting the selector trade tail
        accuracy for energy.  When False anytime models always run
        their full ladder — the behaviour of the App-only baseline.
    """

    def __init__(
        self,
        models: list[DnnModel] | tuple[DnnModel, ...],
        powers: list[float] | tuple[float, ...],
        expand_anytime_rungs: bool = True,
    ) -> None:
        if not models:
            raise ConfigurationError("need at least one candidate model")
        if not powers:
            raise ConfigurationError("need at least one candidate power cap")
        names = [model.name for model in models]
        if len(set(names)) != len(names):
            raise ConfigurationError(f"duplicate model names in {names}")
        self.models = tuple(models)
        self.powers = tuple(sorted(powers))
        self.expand_anytime_rungs = expand_anytime_rungs
        self._configs = tuple(self._enumerate())

    def _enumerate(self) -> list[Configuration]:
        configs: list[Configuration] = []
        for model in self.models:
            for power in self.powers:
                if isinstance(model, AnytimeDnn) and self.expand_anytime_rungs:
                    configs.extend(
                        Configuration(model=model, power_w=power, rung_cap=k)
                        for k in range(model.n_outputs)
                    )
                else:
                    configs.append(Configuration(model=model, power_w=power))
        return configs

    def __iter__(self):
        return iter(self._configs)

    def __len__(self) -> int:
        return len(self._configs)

    @property
    def configs(self) -> tuple[Configuration, ...]:
        """Every candidate, in enumeration order.

        The same tuple object on every call, so consumers that memoise
        on tuple identity (the engine's config tables) hit.
        """
        return self._configs

    @property
    def traditional_models(self) -> tuple[DnnModel, ...]:
        """The non-anytime candidates."""
        return tuple(m for m in self.models if not isinstance(m, AnytimeDnn))

    @property
    def anytime_models(self) -> tuple[AnytimeDnn, ...]:
        """The anytime candidates."""
        return tuple(m for m in self.models if isinstance(m, AnytimeDnn))
