"""Shared fixtures: machines, engines, profiles, scenarios, and the
sequential reference every serving-path parity suite compares against."""

from __future__ import annotations

import asyncio

import numpy as np
import pytest

from repro.experiments.harness import CellResult
from repro.hw.contention import ContentionKind, ContentionProcess
from repro.hw.machine import CPU1, CPU2
from repro.models.families import depth_nest_anytime, sparse_resnet_family
from repro.models.inference import InferenceEngine
from repro.models.profiles import Profiler
from repro.rng import SeedSequenceFactory
from repro.runtime.clock import VirtualClock
from repro.runtime.executor import run_single
from repro.workloads.scenarios import build_scenario


@pytest.fixture()
def seeds() -> SeedSequenceFactory:
    return SeedSequenceFactory(1234)


@pytest.fixture()
def image_models():
    return list(sparse_resnet_family()) + [depth_nest_anytime()]


@pytest.fixture()
def cpu1_profile(image_models):
    return Profiler(CPU1).analytic(image_models)


@pytest.fixture()
def cpu2_profile(image_models):
    return Profiler(CPU2).analytic(image_models)


@pytest.fixture()
def quiet_engine(seeds) -> InferenceEngine:
    contention = ContentionProcess(
        kind=ContentionKind.NONE, machine=CPU1, rng=seeds.stream("contention")
    )
    return InferenceEngine(
        machine=CPU1, contention=contention, noise_rng=seeds.stream("noise")
    )


@pytest.fixture()
def memory_engine(seeds) -> InferenceEngine:
    contention = ContentionProcess(
        kind=ContentionKind.MEMORY, machine=CPU1, rng=seeds.stream("contention")
    )
    return InferenceEngine(
        machine=CPU1, contention=contention, noise_rng=seeds.stream("noise")
    )


@pytest.fixture()
def no_event_loop(monkeypatch):
    """Fail, instead of hang, when the code under test starts an event
    loop: virtual (``VirtualClock.run``) or real (asyncio)."""

    def refuse(*args, **kwargs):
        raise AssertionError("an event loop started")

    monkeypatch.setattr(VirtualClock, "run", refuse)
    monkeypatch.setattr(asyncio, "new_event_loop", refuse)


@pytest.fixture()
def image_scenario():
    return build_scenario("CPU1", "image", "default", "standard", seed=99)


@pytest.fixture()
def memory_scenario():
    return build_scenario("CPU1", "image", "memory", "standard", seed=99)


def _reference_cell(
    scenario, goals, schemes, n_inputs, requirement_trace=None
) -> CellResult:
    """Every (goal, scheme) run alone: fresh engine and stream, no grid.

    The sequential reference path — one :func:`run_single` per run,
    nothing shared — that lockstep, grid-served and pooled cells must
    reproduce.
    """
    goals = tuple(goals)
    runs = {
        name: [
            run_single(
                scenario, goal, name, n_inputs,
                requirement_trace=requirement_trace,
            )
            for goal in goals
        ]
        for name in schemes
    }
    return CellResult(scenario=scenario, goals=goals, runs=runs)


@pytest.fixture()
def reference_cell():
    """The sequential reference cell builder (see :func:`_reference_cell`)."""
    return _reference_cell


def _assert_own_aggregates(summary, run) -> None:
    """Every field of ``summary`` equals the aggregate of ``run``'s own
    per-input series, bit for bit: ``np.mean`` and ``np.percentile`` of
    that run alone, whatever the summariser stacked it with."""
    records = run.records
    latency = np.array([record.outcome.latency_s for record in records])
    quality = np.array([record.outcome.quality for record in records])
    energy = np.array([record.outcome.energy_j for record in records])
    violated = np.array([record.violated for record in records])
    missed = np.array([record.latency_violation for record in records])
    assert summary.scheme == run.scheduler_name
    assert summary.n_inputs == len(records) == run.n_inputs
    assert summary.violation_fraction == float(np.mean(violated))
    assert summary.violation_fraction == run.violation_fraction
    assert summary.deadline_miss_fraction == float(np.mean(missed))
    assert summary.mean_quality == float(np.mean(quality)) == run.mean_quality
    assert summary.mean_error == run.mean_error
    assert summary.mean_energy_j == float(np.mean(energy)) == run.mean_energy_j
    assert summary.mean_latency_s == float(np.mean(latency))
    assert summary.p50_latency_s == float(np.percentile(latency, 50.0))
    assert summary.p99_latency_s == float(np.percentile(latency, 99.0))
    assert summary.objective_value == run.objective_value
    assert summary.setting_violated == run.setting_violated


@pytest.fixture()
def assert_own_aggregates():
    """The per-run summary check (see :func:`_assert_own_aggregates`)."""
    return _assert_own_aggregates
