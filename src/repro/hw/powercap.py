"""Power actuators: the knob ALERT's implementation turns.

The paper (Section 4): "On CPUs, ALERT adjusts power through Intel's
RAPL interface [...].  On GPUs, ALERT uses PyNVML to control frequency
and builds a power-frequency lookup table."

Both mechanisms are wrapped behind one :class:`PowerActuator`
interface so the controller and the baselines are agnostic to the
platform — exactly the property that lets ALERT "be applied to other
approaches that translate power limits into settings for combinations
of resources".
"""

from __future__ import annotations

import abc
import bisect
from dataclasses import dataclass

from repro.errors import PowerCapError
from repro.hw.dvfs import DvfsModel
from repro.hw.machine import MachineSpec, PlatformKind
from repro.hw.rapl import RaplPackage

__all__ = ["PowerActuator", "RaplPowerActuator", "GpuPowerTable", "make_actuator"]


class PowerActuator(abc.ABC):
    """Abstract power-capping interface.

    Implementations expose the *requested* cap and the *effective* cap
    actually enforced — these differ on GPUs, where the cap snaps to
    the nearest entry of the power-frequency table.
    """

    def __init__(self, machine: MachineSpec) -> None:
        self.machine = machine
        self._requested_w = machine.default_power()

    @abc.abstractmethod
    def _apply(self, power_w: float) -> float:
        """Enforce the cap on the platform; return the effective cap."""

    def set_power_cap(self, power_w: float) -> float:
        """Request a power cap; returns the effective cap enforced."""
        if power_w <= 0:
            raise PowerCapError(f"power cap must be positive, got {power_w} W")
        clamped = self.machine.clamp_power(power_w)
        self._requested_w = clamped
        return self._apply(clamped)

    @property
    def requested_cap_w(self) -> float:
        """Most recently requested cap (after range clamping)."""
        return self._requested_w

    @property
    @abc.abstractmethod
    def effective_cap_w(self) -> float:
        """The cap the hardware is actually enforcing right now."""


class RaplPowerActuator(PowerActuator):
    """CPU power capping through the (simulated) RAPL interface."""

    def __init__(self, machine: MachineSpec, package: RaplPackage | None = None):
        super().__init__(machine)
        self.package = package if package is not None else RaplPackage()
        self._apply(machine.default_power())

    def _apply(self, power_w: float) -> float:
        self.package.set_power_limit_w(power_w)
        return power_w

    @property
    def effective_cap_w(self) -> float:
        return self.package.power_limit_w()


@dataclass(frozen=True)
class _FrequencyStep:
    """One row of the GPU power-frequency lookup table."""

    frequency_mhz: float
    power_w: float


class GpuPowerTable(PowerActuator):
    """GPU "power cap" implemented as a power→frequency lookup table.

    PyNVML only exposes frequency control, so the paper's GPU port
    measures the power drawn at each supported frequency once and then
    inverts that table at run time: given a desired power cap, pick the
    highest frequency whose measured draw stays under the cap.
    """

    def __init__(
        self,
        machine: MachineSpec,
        dvfs: DvfsModel | None = None,
        step_mhz: float = 90.0,
        base_mhz: float = 300.0,
        max_mhz: float = 1710.0,
    ) -> None:
        super().__init__(machine)
        if machine.kind is not PlatformKind.GPU:
            raise PowerCapError(
                f"GpuPowerTable requires a GPU platform, got {machine.name}"
            )
        self._dvfs = dvfs if dvfs is not None else DvfsModel(machine)
        self._table = self._build_table(base_mhz, max_mhz, step_mhz)
        self._current = self._table[-1]

    def _build_table(
        self, base_mhz: float, max_mhz: float, step_mhz: float
    ) -> list[_FrequencyStep]:
        """Profile draw at each frequency step, mimicking the NVML port."""
        spec = self.machine
        steps: list[_FrequencyStep] = []
        mhz = base_mhz
        while mhz <= max_mhz + step_mhz * 0.5:
            fraction = min(1.0, mhz / max_mhz)
            draw = spec.static_power_w + (
                spec.peak_power_w - spec.static_power_w
            ) * fraction ** self._dvfs.exponent
            steps.append(_FrequencyStep(frequency_mhz=min(mhz, max_mhz), power_w=draw))
            mhz += step_mhz
        return steps

    def _apply(self, power_w: float) -> float:
        draws = [step.power_w for step in self._table]
        index = bisect.bisect_right(draws, power_w) - 1
        index = max(0, index)
        self._current = self._table[index]
        return self._current.power_w

    @property
    def effective_cap_w(self) -> float:
        return self._current.power_w

    @property
    def current_frequency_mhz(self) -> float:
        """The frequency the table selected for the current cap."""
        return self._current.frequency_mhz

    def table(self) -> list[tuple[float, float]]:
        """The (frequency MHz, power W) rows, for inspection and tests."""
        return [(step.frequency_mhz, step.power_w) for step in self._table]


def make_actuator(machine: MachineSpec) -> PowerActuator:
    """Build the right actuator for a platform (RAPL vs. NVML table)."""
    if machine.kind is PlatformKind.GPU:
        return GpuPowerTable(machine)
    return RaplPowerActuator(machine)
