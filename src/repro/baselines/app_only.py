"""App-only: anytime DNN adaptation at the default power setting.

The application-level state of the art (paper Table 3): the anytime
network [5] runs under the system's default (maximum) power and keeps
computing until the deadline arrives; the latest completed output is
delivered.  There is no system-level knob, so the scheme cannot respond
to energy budgets at all — the weakness Figure 7 and Table 4 expose
("App-only consumes significantly more energy ... 73% more energy in
energy-minimizing tasks").
"""

from __future__ import annotations

from repro.core.config_space import Configuration
from repro.core.goals import Goal
from repro.errors import ConfigurationError
from repro.models.anytime import AnytimeDnn
from repro.models.inference import InferenceOutcome
from repro.workloads.inputs import InputItem

__all__ = ["AppOnlyScheduler"]


class AppOnlyScheduler:
    """Anytime network, default power, run-to-deadline."""

    #: The anytime mechanism adapts inside the engine, not via
    #: feedback; the serving loop may batch whole runs.
    feedback_free = True

    def __init__(
        self,
        anytime: AnytimeDnn,
        default_power_w: float,
        name: str = "App-only",
    ) -> None:
        if not isinstance(anytime, AnytimeDnn):
            raise ConfigurationError(
                "App-only requires an anytime network; got "
                f"{type(anytime).__name__}"
            )
        if default_power_w <= 0:
            raise ConfigurationError(
                f"default power must be positive, got {default_power_w}"
            )
        self._config = Configuration(model=anytime, power_w=default_power_w)
        self.name = name

    def decide(self, item: InputItem, goal: Goal) -> Configuration:
        return self._config

    def decide_batch(self, items, goal: Goal) -> list[Configuration]:
        """A whole run's decisions at once: the fixed configuration."""
        return [self._config] * len(items)

    def observe(self, outcome: InferenceOutcome) -> None:
        """The anytime mechanism is self-adapting; no state to update."""
