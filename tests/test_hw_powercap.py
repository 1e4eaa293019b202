"""Tests for the power actuators (RAPL facade and GPU table)."""

from __future__ import annotations

import pytest

from repro.errors import PowerCapError
from repro.hw.machine import CPU1, GPU
from repro.hw.powercap import GpuPowerTable, RaplPowerActuator, make_actuator


def test_rapl_actuator_programs_package():
    actuator = RaplPowerActuator(CPU1)
    effective = actuator.set_power_cap(25.0)
    assert effective == 25.0
    assert actuator.effective_cap_w == pytest.approx(25.0)
    assert actuator.package.power_limit_w() == pytest.approx(25.0)


def test_rapl_actuator_clamps_to_range():
    actuator = RaplPowerActuator(CPU1)
    actuator.set_power_cap(500.0)
    assert actuator.requested_cap_w == CPU1.power_max_w
    actuator.set_power_cap(1.0)
    assert actuator.requested_cap_w == CPU1.power_min_w


def test_rapl_actuator_rejects_nonpositive():
    actuator = RaplPowerActuator(CPU1)
    with pytest.raises(PowerCapError):
        actuator.set_power_cap(0.0)


def test_gpu_table_snaps_to_frequency_steps():
    table = GpuPowerTable(GPU)
    effective = table.set_power_cap(150.0)
    # The effective cap is a table entry at or below the request.
    assert effective <= 150.0
    draws = [draw for _, draw in table.table()]
    assert effective in draws


def test_gpu_table_monotone():
    table = GpuPowerTable(GPU)
    rows = table.table()
    frequencies = [f for f, _ in rows]
    draws = [d for _, d in rows]
    assert frequencies == sorted(frequencies)
    assert draws == sorted(draws)


def test_gpu_table_frequency_tracks_cap():
    table = GpuPowerTable(GPU)
    table.set_power_cap(GPU.power_max_w)
    high = table.current_frequency_mhz
    table.set_power_cap(GPU.power_min_w)
    low = table.current_frequency_mhz
    assert high > low


def test_gpu_table_requires_gpu_platform():
    with pytest.raises(PowerCapError):
        GpuPowerTable(CPU1)


def test_make_actuator_dispatches_on_kind():
    assert isinstance(make_actuator(CPU1), RaplPowerActuator)
    assert isinstance(make_actuator(GPU), GpuPowerTable)


@pytest.mark.parametrize("actuator", [RaplPowerActuator(CPU1), GpuPowerTable(GPU)])
def test_enforced_cap_is_the_query_set_power_cap_enforces(actuator):
    machine = actuator.machine
    requests = machine.power_levels() + [
        machine.power_min_w / 2, machine.power_max_w * 2
    ]
    for power in requests:
        enforced = actuator.effective_cap_w
        query = actuator.enforced_cap(power)
        # A pure query: nothing is actuated.
        assert actuator.effective_cap_w == enforced
        assert actuator.set_power_cap(power) == query
        assert actuator.effective_cap_w == pytest.approx(query)
    with pytest.raises(PowerCapError):
        actuator.enforced_cap(0.0)


def test_gpu_lattice_maps_onto_table_draws():
    # The paper's 5 W lattice (25 requests, 105-225 W) enforces the
    # eight table draws from 102.4 to 215.0 W: the highest draw at or
    # below each request, the lowest one below the first draw.
    table = GpuPowerTable(GPU)
    draws = [draw for _, draw in table.table()]
    enforced = [table.enforced_cap(power) for power in GPU.power_levels()]
    assert len(set(enforced)) == 8
    assert min(enforced) == pytest.approx(102.4, abs=0.01)
    assert max(enforced) == 215.0
    for power, cap in zip(GPU.power_levels(), enforced):
        assert cap in draws
        assert cap <= power
