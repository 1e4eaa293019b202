"""Offline profiling: building the ``t_prof[i][j]`` tables.

ALERT's estimates are anchored on an offline profile: the mean
inference latency of every (DNN, power cap) combination measured in a
quiet, nominal environment (paper Section 3.3: the global slowdown
factor "captures how the current environment differs from the profiled
environment").

Two profiling modes are provided:

* :meth:`Profiler.analytic` — closed-form expectation from the DVFS
  model (no noise); fast, used by default throughout the experiments;
* :meth:`Profiler.empirical` — actually runs warm-up inputs through a
  quiet-environment engine and averages, the way the real system
  profiles; tests assert the two agree to within the noise floor.

Both key each entry on the requested cap and measure it at the cap the
platform's actuator enforces for that request, as a real profile taken
at a requested cap measures the enforced frequency: on the GPU several
requests share one table draw and profile identically.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.errors import ProfileError
from repro.hw.contention import ContentionKind, ContentionProcess
from repro.hw.dvfs import DvfsModel
from repro.hw.machine import MachineSpec
from repro.hw.powercap import PowerActuator, make_actuator
from repro.models.anytime import AnytimeDnn
from repro.models.base import DnnModel
from repro.rng import SeedSequenceFactory

__all__ = ["ProfileTable", "Profiler"]


@dataclass(frozen=True)
class ProfileTable:
    """Profiled latencies and powers for a candidate set on a machine.

    The table is keyed by model name and power cap; it also records the
    anytime ladder so estimators can place every rung in time.
    """

    machine: MachineSpec
    models: tuple[DnnModel, ...]
    powers: tuple[float, ...]
    latency_s: dict[tuple[str, float], float]
    inference_power_w: dict[tuple[str, float], float]
    idle_power_w: float
    _by_name: dict[str, DnnModel] = field(default_factory=dict, repr=False)
    _rung_cache: dict[tuple[str, float], list[float]] = field(
        default_factory=dict, repr=False, compare=False
    )

    def __post_init__(self) -> None:
        object.__setattr__(
            self, "_by_name", {model.name: model for model in self.models}
        )
        for model in self.models:
            for power in self.powers:
                if (model.name, power) not in self.latency_s:
                    raise ProfileError(
                        f"profile is missing latency for ({model.name}, {power} W)"
                    )

    # ------------------------------------------------------------------
    # Lookups
    # ------------------------------------------------------------------
    def model(self, name: str) -> DnnModel:
        """The model object for a profiled name."""
        if name not in self._by_name:
            raise ProfileError(f"no profiled model named {name!r}")
        return self._by_name[name]

    def latency(self, model_name: str, power_w: float) -> float:
        """Profiled mean latency of a configuration."""
        key = (model_name, power_w)
        if key not in self.latency_s:
            raise ProfileError(f"no profiled latency for {key}")
        return self.latency_s[key]

    def power(self, model_name: str, power_w: float) -> float:
        """Profiled inference-phase draw of a configuration."""
        key = (model_name, power_w)
        if key not in self.inference_power_w:
            raise ProfileError(f"no profiled power for {key}")
        return self.inference_power_w[key]

    def rung_latencies(self, model_name: str, power_w: float) -> list[float]:
        """Absolute profiled times of an anytime model's rungs.

        For traditional models returns a single-element list holding
        the full latency, which lets estimator code treat both kinds
        uniformly.  The ladder is computed once per (model, power) and
        cached — this sits on the estimators' per-decision hot path —
        so callers must treat the returned list as read-only.
        """
        key = (model_name, power_w)
        cached = self._rung_cache.get(key)
        if cached is None:
            model = self.model(model_name)
            full = self.latency(model_name, power_w)
            if isinstance(model, AnytimeDnn):
                cached = [
                    output.latency_fraction * full for output in model.outputs
                ]
            else:
                cached = [full]
            self._rung_cache[key] = cached
        return cached

    def configurations(self) -> list[tuple[str, float]]:
        """All (model name, power cap) pairs in the table."""
        return [
            (model.name, power) for model in self.models for power in self.powers
        ]

    def fastest_latency(self) -> float:
        """The smallest profiled latency across the whole table."""
        return min(self.latency_s.values())

    def __len__(self) -> int:
        return len(self.models) * len(self.powers)


class Profiler:
    """Builds :class:`ProfileTable` objects for a machine."""

    def __init__(self, machine: MachineSpec, dvfs: DvfsModel | None = None) -> None:
        self.machine = machine
        self.dvfs = dvfs if dvfs is not None else DvfsModel(machine)

    def _inference_power(self, model: DnnModel, power_w: float) -> float:
        spec = self.machine
        demand = spec.static_power_w + model.power_utilization * (
            spec.peak_power_w - spec.static_power_w
        )
        return min(self.dvfs.draw_power(power_w), demand)

    def _enforced_caps(
        self, actuator: PowerActuator, powers: tuple[float, ...]
    ) -> dict[float, float]:
        """Each requested cap's physics cap: the cap ``actuator``
        enforces for it, clamped as the engine clamps it."""
        clamp = self.machine.clamp_power
        return {power: clamp(actuator.enforced_cap(power)) for power in powers}

    def analytic(
        self,
        models: list[DnnModel] | tuple[DnnModel, ...],
        powers: list[float] | None = None,
    ) -> ProfileTable:
        """Closed-form profile: nominal latency x DVFS multiplier."""
        models = tuple(models)
        if not models:
            raise ProfileError("cannot profile an empty candidate set")
        power_list = tuple(powers if powers is not None else self.machine.power_levels())
        caps = self._enforced_caps(make_actuator(self.machine), power_list)
        latency: dict[tuple[str, float], float] = {}
        draw: dict[tuple[str, float], float] = {}
        for model in models:
            nominal = model.nominal_latency(self.machine)
            for power in power_list:
                cap = caps[power]
                multiplier = self.dvfs.latency_multiplier(
                    cap, model.memory_intensity
                )
                latency[(model.name, power)] = nominal * multiplier
                draw[(model.name, power)] = self._inference_power(model, cap)
        return ProfileTable(
            machine=self.machine,
            models=models,
            powers=power_list,
            latency_s=latency,
            inference_power_w=draw,
            idle_power_w=self.machine.idle_power_w,
        )

    def empirical(
        self,
        models: list[DnnModel] | tuple[DnnModel, ...],
        powers: list[float] | None = None,
        n_inputs: int = 20,
        seed: int = 20200715,
    ) -> ProfileTable:
        """Measure the profile by running warm-up inputs.

        Builds a quiet-environment engine and averages ``n_inputs``
        evaluations per configuration — the offline procedure the real
        system performs once per platform.
        """
        # Imported here to avoid a models <-> inference import cycle at
        # module load time in user code that only needs the table.
        from repro.models.inference import InferenceEngine

        models = tuple(models)
        if not models:
            raise ProfileError("cannot profile an empty candidate set")
        if n_inputs < 1:
            raise ProfileError("need at least one profiling input")
        power_list = tuple(powers if powers is not None else self.machine.power_levels())
        seeds = SeedSequenceFactory(seed)
        contention = ContentionProcess(
            kind=ContentionKind.NONE,
            machine=self.machine,
            rng=seeds.stream("profiling", "contention"),
        )
        engine = InferenceEngine(
            machine=self.machine,
            contention=contention,
            noise_rng=seeds.stream("profiling", "noise"),
        )
        caps = self._enforced_caps(engine.actuator, power_list)
        latency: dict[tuple[str, float], float] = {}
        draw: dict[tuple[str, float], float] = {}
        for model in models:
            for power in power_list:
                cap = caps[power]
                samples = [
                    engine.full_latency(model, cap, index)
                    for index in range(n_inputs)
                ]
                latency[(model.name, power)] = float(np.mean(samples))
                draw[(model.name, power)] = self._inference_power(model, cap)
        return ProfileTable(
            machine=self.machine,
            models=models,
            powers=power_list,
            latency_s=latency,
            inference_power_w=draw,
            idle_power_w=self.machine.idle_power_w,
        )
