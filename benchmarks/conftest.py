"""Benchmark configuration: single-round, warm benchmarks.

Each bench regenerates one paper figure/table at a reduced-but-
meaningful scale and asserts its shape claims; pytest-benchmark
records the generation cost.
"""

from __future__ import annotations

import pytest


@pytest.fixture()
def once(benchmark):
    """Run the benched callable exactly once (experiments are heavy)."""
    benchmark.pedantic.__self__  # touch to assert the fixture exists

    def runner(fn, *args, **kwargs):
        return benchmark.pedantic(fn, args=args, kwargs=kwargs, rounds=1,
                                  iterations=1)

    return runner
