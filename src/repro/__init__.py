"""repro — a from-scratch reproduction of ALERT (USENIX ATC 2020).

ALERT (Accurate Learning for Energy and Timeliness) is a cross-stack
runtime that, for every Deep Neural Network inference input, jointly
selects an application-level knob (which DNN to run, traditional or
anytime) and a system-level knob (a power cap) so that user goals on
latency, accuracy, and energy are met with probabilistic guarantees in
dynamic environments.

The package is organised as:

``repro.hw``
    Hardware substrate: machine models, RAPL-style power capping and
    energy counters, a DVFS latency/power model, and co-located-job
    contention generators.
``repro.models``
    DNN model abstractions (traditional and anytime), the 42-model
    ImageNet zoo, task families, a simulated inference engine, and the
    offline profiler.
``repro.workloads``
    Input streams, environment traces, and canonical experiment
    scenarios.
``repro.core``
    The paper's contribution: the global-slowdown-factor Kalman
    filters, probabilistic latency/accuracy/energy estimators, and the
    configuration selector, wrapped in :class:`repro.core.AlertKernel`.
``repro.runtime``
    The feedback serving loop that wires a controller to the inference
    engine and records measurements and constraint violations.
``repro.baselines``
    Oracle, OracleStatic, App-only, Sys-only, No-coord, and the
    mean-only ALERT* ablation.
``repro.analysis``
    Violation accounting, harmonic means, convex hulls, distribution
    fits, and table rendering.
``repro.experiments``
    One driver per paper figure/table, each module named after the
    artifact it reproduces (``fig08_oracle_comparison``,
    ``table4_overall``); ``python -m repro --help`` lists the commands.
"""

from repro._version import __version__

__all__ = ["__version__"]
