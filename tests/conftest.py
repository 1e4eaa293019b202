"""Shared fixtures: machines, engines, profiles, scenarios, and the
sequential reference every serving-path parity suite compares against."""

from __future__ import annotations

import asyncio

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
