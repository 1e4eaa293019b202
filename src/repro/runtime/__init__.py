"""The serving loop, its measurement records, and the run executor.

* :mod:`repro.runtime.scheduler` — the :class:`Scheduler` protocol all
  policies implement, plus :class:`AlertScheduler` serving
  :class:`repro.core.AlertKernel` through it.
* :mod:`repro.runtime.loop` — :class:`ServingLoop`, which drives one
  policy over one scenario's input stream and environment, applying
  goal adjustment and recording per-input measurements; feedback-free
  policies are served on a vectorized batch fast path.
* :mod:`repro.runtime.results` — :class:`ServedInput` and
  :class:`RunResult` with the violation accounting the paper's tables
  use (a setting "violates" when more than 10% of its inputs break a
  constraint).
* :mod:`repro.runtime.executor` — :class:`CellSpec` and
  :class:`RunExecutor`: declarative plans of cells (every scheme ×
  every goal of one scenario, sharing one outcome-grid realisation per
  timing) executed serially or across a process pool with a
  deterministic, bit-identical merge.
"""

from repro.runtime.loop import ServingLoop
from repro.runtime.results import RunResult, ServedInput
from repro.runtime.scheduler import AlertScheduler, Scheduler, StaticScheduler

# Imported last: the executor builds on the loop and results modules.
from repro.runtime.executor import CellSpec, RunExecutor, ScenarioKey

__all__ = [
    "ServingLoop",
    "RunResult",
    "ServedInput",
    "Scheduler",
    "AlertScheduler",
    "StaticScheduler",
    "RunExecutor",
    "CellSpec",
    "ScenarioKey",
]
