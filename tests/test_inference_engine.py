"""Tests for the simulated inference engine."""

from __future__ import annotations

import math

import pytest

from repro.hw.contention import ContentionKind, ContentionProcess
from repro.hw.machine import CPU1
from repro.hw.powercap import PowerActuator
from repro.models.families import depth_nest_anytime, sparse_resnet_family
from repro.models.inference import InferenceEngine


@pytest.fixture()
def dense():
    return sparse_resnet_family().by_name("sparse_resnet50_dense")


@pytest.fixture()
def nest():
    return depth_nest_anytime()


def test_evaluate_is_pure(quiet_engine, dense):
    a = quiet_engine.evaluate(dense, 30.0, 0, deadline_s=0.5)
    b = quiet_engine.evaluate(dense, 30.0, 0, deadline_s=0.5)
    assert a == b


def test_environment_shared_across_configs(quiet_engine, dense):
    # Common random numbers: the same input sees the same environment
    # factor whatever configuration is evaluated.
    small = sparse_resnet_family().by_name("sparse_resnet50_s95")
    a = quiet_engine.evaluate(dense, 30.0, 3, deadline_s=0.5)
    b = quiet_engine.evaluate(small, 45.0, 3, deadline_s=0.5)
    assert a.env_factor == b.env_factor


def test_latency_scales_with_power(quiet_engine, dense):
    slow = quiet_engine.evaluate(dense, 12.5, 0, deadline_s=5.0)
    fast = quiet_engine.evaluate(dense, 45.0, 0, deadline_s=5.0)
    assert slow.latency_s > fast.latency_s * 1.5


def test_traditional_deadline_miss_gives_qfail(quiet_engine, dense):
    outcome = quiet_engine.evaluate(dense, 12.5, 0, deadline_s=0.01)
    assert not outcome.met_deadline
    assert outcome.quality == dense.q_fail
    # The run still occupied its full latency (it ran to completion).
    assert outcome.latency_s == outcome.full_latency_s > 0.01


def test_anytime_stops_at_deadline(quiet_engine, nest):
    outcome = quiet_engine.evaluate(nest, 45.0, 0, deadline_s=0.15)
    assert outcome.met_deadline
    assert outcome.latency_s <= 0.15 + 1e-12
    assert outcome.quality >= nest.outputs[0].quality
    assert 1 <= outcome.completed_rungs < nest.n_outputs


def test_anytime_rung_cap_stops_early(quiet_engine, nest):
    capped = quiet_engine.evaluate(nest, 45.0, 0, deadline_s=5.0, rung_cap=1)
    full = quiet_engine.evaluate(nest, 45.0, 0, deadline_s=5.0)
    assert capped.latency_s < full.latency_s
    assert capped.quality == nest.outputs[1].quality
    assert capped.completed_rungs == 2
    assert full.quality == nest.quality


def test_anytime_too_tight_deadline_gives_qfail(quiet_engine, nest):
    outcome = quiet_engine.evaluate(nest, 45.0, 0, deadline_s=0.001)
    assert outcome.quality == nest.q_fail
    assert outcome.completed_rungs == 0


def test_energy_includes_idle_tail(quiet_engine, dense):
    outcome = quiet_engine.evaluate(dense, 45.0, 0, deadline_s=1.0, period_s=1.0)
    assert outcome.energy.idle_j > 0
    assert outcome.energy.inference_j > 0
    assert outcome.energy_j == pytest.approx(
        outcome.energy.inference_j + outcome.energy.idle_j
    )


def test_small_model_draws_below_cap(quiet_engine):
    small = sparse_resnet_family().by_name("sparse_resnet50_s95")
    dense = sparse_resnet_family().by_name("sparse_resnet50_dense")
    assert quiet_engine.inference_power(small, 45.0) < quiet_engine.inference_power(
        dense, 45.0
    )


def test_idle_power_clipped_by_cap(memory_engine, dense):
    # RAPL caps the whole package: contended idle draw cannot exceed
    # the active power cap.
    for index in range(200):
        outcome = memory_engine.evaluate(dense, 15.0, index, deadline_s=2.0)
        assert outcome.idle_power_w <= 15.0 + 1e-9


def test_contention_slows_inference(memory_engine, quiet_engine, dense):
    slow = [
        memory_engine.evaluate(dense, 45.0, i, deadline_s=5.0).latency_s
        for i in range(300)
    ]
    quick = [
        quiet_engine.evaluate(dense, 45.0, i, deadline_s=5.0).latency_s
        for i in range(300)
    ]
    assert sum(slow) / len(slow) > sum(quick) / len(quick) * 1.15


def test_run_meters_energy_through_rapl(quiet_engine, dense):
    outcome = quiet_engine.run(dense, 30.0, 0, deadline_s=0.5)
    package = quiet_engine.actuator.package
    assert package.domain.total_energy_j() == pytest.approx(
        outcome.energy_j, rel=1e-3
    )


def test_run_matches_evaluate(quiet_engine, dense):
    evaluated = quiet_engine.evaluate(dense, 30.0, 5, deadline_s=0.5)
    ran = quiet_engine.run(dense, 30.0, 5, deadline_s=0.5)
    assert ran.latency_s == evaluated.latency_s
    assert ran.quality == evaluated.quality
    assert ran.energy_j == pytest.approx(evaluated.energy_j)


class _QuantizingActuator(PowerActuator):
    """Enforces caps snapped down to multiples of 10 W (GPU-table-like)."""

    def __init__(self, machine):
        super().__init__(machine)
        self._effective = machine.clamp_power(machine.default_power())

    def _enforced(self, clamped_w: float) -> float:
        quantized = math.floor(clamped_w / 10.0) * 10.0
        return max(self.machine.power_min_w, quantized)

    def _apply(self, enforced_w: float) -> None:
        self._effective = enforced_w

    @property
    def effective_cap_w(self) -> float:
        return self._effective


def test_run_computes_outcome_at_effective_cap(seeds, dense):
    # Regression: run() used to evaluate at the machine-clamped
    # *requested* cap and only patch effective_cap_w into the record,
    # describing a cap the hardware never set.  evaluate() now computes
    # at the cap the actuator would enforce, so a probe at the request
    # predicts the metered run exactly.
    contention = ContentionProcess(
        kind=ContentionKind.NONE, machine=CPU1, rng=seeds.stream("contention")
    )
    engine = InferenceEngine(
        machine=CPU1,
        contention=contention,
        noise_rng=seeds.stream("noise"),
        actuator=_QuantizingActuator(CPU1),
    )
    requested = 37.5
    assert engine.actuator.enforced_cap(requested) == 30.0
    outcome = engine.run(dense, requested, 0, deadline_s=5.0)
    assert outcome.power_cap_w == requested
    assert outcome.effective_cap_w == 30.0

    at_effective = engine.evaluate(dense, 30.0, 0, deadline_s=5.0)
    at_requested = engine.evaluate(dense, requested, 0, deadline_s=5.0)
    assert at_effective.latency_s == at_requested.latency_s
    assert at_requested == outcome
    assert outcome.latency_s == at_effective.latency_s
    assert outcome.inference_power_w == at_effective.inference_power_w
    assert outcome.energy_j == pytest.approx(at_effective.energy_j)


def test_run_effective_cap_noop_for_exact_actuators(quiet_engine, dense):
    # RAPL enforces exactly what was requested: behaviour unchanged.
    outcome = quiet_engine.run(dense, 32.5, 2, deadline_s=0.5)
    assert outcome.effective_cap_w == outcome.power_cap_w == 32.5
    assert outcome.latency_s == quiet_engine.evaluate(
        dense, 32.5, 2, deadline_s=0.5
    ).latency_s
