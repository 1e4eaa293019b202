"""The simulated inference engine.

This is the substrate that stands in for "run the DNN on the hardware".
For every input it realises:

* **latency** — the model's nominal latency on the platform, scaled by
  the DVFS multiplier of the active power cap, the input's work factor
  (sentence length), the environment factor (contention slowdown x
  platform measurement noise), all drawn deterministically from named
  random streams;
* **quality** — the model's in-time quality, the anytime ladder rung
  reached, or the fallback quality on a miss (Eqs. 3 and 13);
* **energy** — drawn power over the inference phase plus idle power
  over the rest of the period, metered through the simulated RAPL
  counters exactly the way the real implementation meters it.

Two properties matter for the evaluation:

1. *Common random numbers*: the per-input environment factor is shared
   across all (model, power) configurations, so oracles can evaluate
   "what would configuration X have done on this exact input" — the
   paper builds its oracles the same way, by running every input under
   every configuration.
2. *Purity*: :meth:`InferenceEngine.evaluate` has no side effects, so
   schedulers and oracles can probe outcomes; only :meth:`run` advances
   the RAPL counters and the measured-energy account.  Both compute at
   the cap the actuator enforces for a request (on the GPU, a row of
   its power-frequency table), so a probe predicts exactly what a
   metered run serves.

Whole (configuration × input) tables are characterised once and read
per query: :meth:`InferenceEngine.evaluate_batch` realises the
timing-free half of every outcome (full latency, draws, environment)
as a :class:`BatchOutcomeGrid`, and :meth:`BatchOutcomeGrid.timing`
derives the rest for whatever deadline and period an input is served
under, with the element operations :meth:`InferenceEngine.evaluate`
uses, so the two agree bit for bit.
"""

from __future__ import annotations

from collections.abc import Sequence
from dataclasses import dataclass
from typing import TYPE_CHECKING, NamedTuple

import numpy as np

from repro.errors import ConfigurationError, SimulationError
from repro.hw.contention import ContentionProcess, ContentionSample
from repro.hw.dvfs import DvfsModel
from repro.hw.energy import EnergyBreakdown, period_energy, period_energy_arrays
from repro.hw.machine import MachineSpec
from repro.hw.powercap import PowerActuator, make_actuator
from repro.models.anytime import AnytimeDnn
from repro.models.base import DnnModel

if TYPE_CHECKING:
    from repro.workloads.inputs import InputItem

__all__ = [
    "EnvironmentDraw",
    "InferenceOutcome",
    "BatchOutcomeGrid",
    "OutcomePlanes",
    "GridView",
    "InferenceEngine",
    "stop_latency",
    "SHARED_GRID_ARRAYS",
    "shared_grid_payload",
    "write_shared_grid",
    "adopt_shared_grid",
]


@dataclass(frozen=True)
class EnvironmentDraw:
    """Everything the environment decided for one input.

    The environment factor multiplies every configuration's latency
    identically — this is the simulator's ground-truth analogue of the
    paper's global slowdown factor ξ.
    """

    env_factor: float
    idle_power_w: float
    contention_active: bool


@dataclass(frozen=True)
class InferenceOutcome:
    """The observable result of serving one input.

    Attributes
    ----------
    index:
        Input sequence number.
    model_name / power_cap_w / effective_cap_w:
        The configuration served and the cap the hardware enforced.
    latency_s:
        Wall-clock time the inference occupied (for anytime networks
        this is when it was stopped; for traditional networks the full
        run time, even past the deadline).
    full_latency_s:
        Time a run-to-completion would have taken.
    met_deadline:
        Whether a usable final answer landed by the deadline
        (anytime networks always deliver *something*; this flag tracks
        the latency constraint: answer-by-deadline).
    quality / metric_value:
        Internal quality delivered and its task-metric equivalent.
    completed_rungs:
        Anytime rungs that finished (0 for traditional models).
    energy:
        Whole-period energy breakdown.
    inference_power_w / idle_power_w:
        Draws during the two period phases.
    env_factor:
        Ground-truth environment multiplier (hidden from schedulers;
        exposed for analysis such as Figure 11).
    deadline_s / period_s:
        The timing context this input was served under.
    """

    index: int
    model_name: str
    power_cap_w: float
    effective_cap_w: float
    latency_s: float
    full_latency_s: float
    met_deadline: bool
    quality: float
    metric_value: float
    completed_rungs: int
    energy: EnergyBreakdown
    inference_power_w: float
    idle_power_w: float
    env_factor: float
    deadline_s: float
    period_s: float

    @property
    def energy_j(self) -> float:
        """Whole-period energy in joules."""
        return self.energy.total_j


@dataclass
class BatchOutcomeGrid:
    """Timing-free outcomes of a (configuration × input) cross product.

    Everything here is fixed by the configuration, the input and the
    environment draw, never by the deadline or period an input is
    served under: run-to-completion latency and idle draw are 2-D
    ``(n_configs, n_inputs)`` arrays with rows aligned to ``configs``
    and columns to ``indices``; per-configuration quantities
    (``power_cap_w``, ``effective_cap_w``, ``inference_power_w``) are
    1-D over configurations and per-input quantities (``env_factor``,
    ``work_factors``) 1-D over inputs.  A row's ``power_cap_w`` is its
    configuration's machine-clamped request, which keys the row, and
    ``effective_cap_w`` the cap the actuator enforces for it, at which
    the row's physics was computed.  :meth:`timing` derives the rest
    (latency, met deadline, quality, rungs, the energy split) for any
    deadline and period, so one grid serves every timing of a
    scenario.  Produced by :meth:`InferenceEngine.evaluate_batch`,
    consumed through :class:`GridView`.
    """

    configs: tuple
    indices: np.ndarray
    work_factors: np.ndarray
    env_factor: np.ndarray
    power_cap_w: np.ndarray
    effective_cap_w: np.ndarray
    inference_power_w: np.ndarray
    idle_power_w: np.ndarray
    full_latency_s: np.ndarray

    def __post_init__(self) -> None:
        # Built on first column_for() call; the serving fast path
        # realises single-row grids it never looks up by index.
        self._column_of: dict[int, int] | None = None
        self._ladder: _Ladder | None = None

    @property
    def n_configs(self) -> int:
        """Number of configuration rows."""
        return len(self.configs)

    @property
    def n_inputs(self) -> int:
        """Number of input columns."""
        return int(self.indices.size)

    def column_for(self, index: int) -> int | None:
        """Column position of input ``index``; None when not gridded."""
        if self._column_of is None:
            self._column_of = {
                int(i): pos for pos, i in enumerate(self.indices)
            }
        return self._column_of.get(int(index))

    def columns_of(self, indices) -> np.ndarray | None:
        """Column positions of ``indices``; None when any is off-grid.

        The serving fast paths resolve a whole run's columns per run,
        so the common case — the run asks for the grid's own leading
        inputs in order — is answered with one vectorized prefix
        compare instead of a per-index dictionary walk.
        """
        wanted = np.asarray(indices, dtype=int)
        own = np.asarray(self.indices, dtype=int)
        if len(wanted) <= len(own) and np.array_equal(
            own[: len(wanted)], wanted
        ):
            return np.arange(len(wanted))
        positions = [self.column_for(index) for index in indices]
        if any(position is None for position in positions):
            return None
        return np.asarray(positions, dtype=int)

    def timing(
        self, deadline_s, period_s, columns=slice(None)
    ) -> OutcomePlanes:
        """The grid's outcomes served under one deadline and period.

        The timing half of :meth:`InferenceEngine.evaluate`, in its
        element operations: each run stops at the earliest of its full
        latency, the deadline and its rung cap, the quality ladder and
        completed rungs follow from the stop, and the energy split
        from the stop and the period.  ``columns`` (an index array or
        slice; all inputs by default) picks inputs.  ``deadline_s`` and
        ``period_s`` are floats, or arrays aligned with the picked
        columns when inputs carry their own timing (one grid column
        repeated per goal, each at that goal's deadline and period).
        """
        full = self.full_latency_s[:, columns]
        idle_power = self.idle_power_w[:, columns]
        latency = np.empty(full.shape)
        met = np.empty(full.shape, dtype=bool)
        quality = np.empty(full.shape)
        rungs = np.zeros(full.shape, dtype=np.int64)
        for model, part, rung_fraction, q, q_fail in self.ladder.parts:
            latency[part], met[part], quality[part], rungs[part] = _stop_rows(
                model, rung_fraction, q, q_fail, full[part], deadline_s
            )
        return self._planes(
            (latency, met, quality, rungs), period_s, full, idle_power,
            self.inference_power_w, columns,
        )

    def timing_at(self, rows, columns, deadline_s, period_s) -> OutcomePlanes:
        """Paired outcomes: run ``i`` is row ``rows[i]`` on column
        ``columns[i]``, served at ``deadline_s[i]`` and ``period_s[i]``.

        The element operations of :meth:`timing`, so a run reads the
        same values either way; every plane of the result is 1-D over
        the runs, ``inference_power_w`` and ``env_factor`` too.  One
        call derives every grid-served step of a lockstep lane.
        """
        ladder = self.ladder
        full = self.full_latency_s[rows, columns]
        latency = np.empty(full.shape)
        met = np.empty(full.shape, dtype=bool)
        quality = np.empty(full.shape)
        rungs = np.zeros(full.shape, dtype=np.int64)
        part_of_run = ladder.row_part[rows]
        for part, (model, *_) in enumerate(ladder.parts):
            runs = np.flatnonzero(part_of_run == part)
            if runs.size:
                picked = rows[runs]
                (
                    latency[runs], met[runs], quality[runs], rungs[runs]
                ) = _stop_rows(
                    model, ladder.rung_fraction[picked], ladder.quality[picked],
                    ladder.q_fail[picked], full[runs], deadline_s[runs],
                )
        return self._planes(
            (latency, met, quality, rungs), period_s, full,
            self.idle_power_w[rows, columns], self.inference_power_w[rows],
            columns,
        )

    def _planes(
        self, stopped, period_s, full, idle_power, power, columns
    ) -> OutcomePlanes:
        """A derivation's planes: its ``(latency, met, quality, rungs)``
        plus the energy split over ``period_s``."""
        latency, met, quality, rungs = stopped
        inference_j, idle_j = period_energy_arrays(
            latency_s=latency,
            period_s=period_s,
            inference_power_w=power[:, None] if full.ndim == 2 else power,
            idle_power_w=idle_power,
        )
        return OutcomePlanes(
            latency_s=latency,
            met_deadline=met,
            quality=quality,
            completed_rungs=rungs,
            inference_j=inference_j,
            idle_j=idle_j,
            energy_j=inference_j + idle_j,
            full_latency_s=full,
            idle_power_w=idle_power,
            inference_power_w=power,
            env_factor=self.env_factor[columns],
        )

    @property
    def ladder(self) -> _Ladder:
        """The rows' stop rules (built once, from ``configs`` alone)."""
        if self._ladder is None:
            self._ladder = _Ladder.of(self.configs)
        return self._ladder


class OutcomePlanes(NamedTuple):
    """A grid's outcomes at one timing (:meth:`BatchOutcomeGrid.timing`).

    The 2-D planes are ``(rows, columns)`` of the derivation;
    ``inference_power_w`` is 1-D over its rows and ``env_factor`` 1-D
    over its columns.  A paired derivation
    (:meth:`BatchOutcomeGrid.timing_at`) holds every field 1-D over its
    runs.
    """

    latency_s: np.ndarray
    met_deadline: np.ndarray
    quality: np.ndarray
    completed_rungs: np.ndarray
    inference_j: np.ndarray
    idle_j: np.ndarray
    energy_j: np.ndarray
    full_latency_s: np.ndarray
    idle_power_w: np.ndarray
    inference_power_w: np.ndarray
    env_factor: np.ndarray


@dataclass(frozen=True)
class _Ladder:
    """How each grid row stops: the configuration half of a timing.

    ``parts`` splits the rows into runs of one stop rule — traditional
    rows (``model`` None: run to completion), or the rows of one
    anytime model (stop at the deadline or the row's rung cap) — as
    ``(model, rows, rung_fraction, quality, q_fail)``: ``rows`` is a
    slice (a space enumerates each model's rows together, so there are
    few runs) and the per-row values are ``(k, 1)`` columns.
    ``row_part`` maps each row to its part, ``anytime`` marks the rows
    that stop early, and ``rung_fraction`` is +inf where no rung cap
    applies.
    """

    rung_fraction: np.ndarray
    quality: np.ndarray
    q_fail: np.ndarray
    anytime: np.ndarray
    row_part: np.ndarray
    parts: tuple

    @classmethod
    def of(cls, configs: tuple) -> "_Ladder":
        rung_fraction = np.full(len(configs), np.inf)
        rules = []
        for row, config in enumerate(configs):
            model = config.model
            if not isinstance(model, AnytimeDnn):
                rules.append(None)
                continue
            rules.append(model)
            rung_cap = config.rung_cap
            if rung_cap is not None:
                if not 0 <= rung_cap < model.n_outputs:
                    raise ConfigurationError(
                        f"{model.name}: rung {rung_cap} out of range "
                        f"[0, {model.n_outputs})"
                    )
                rung_fraction[row] = model.outputs[rung_cap].latency_fraction
        quality = np.array([config.model.quality for config in configs], float)
        q_fail = np.array([config.model.q_fail for config in configs], float)
        row_part = np.empty(len(configs), dtype=np.intp)
        parts = []
        start = 0
        for row in range(1, len(configs) + 1):
            if row == len(configs) or rules[row] is not rules[start]:
                rows = slice(start, row)
                row_part[rows] = len(parts)
                parts.append((
                    rules[start], rows, rung_fraction[rows, None],
                    quality[rows, None], q_fail[rows, None],
                ))
                start = row
        anytime = np.array([rule is not None for rule in rules], dtype=bool)
        return cls(
            rung_fraction, quality, q_fail, anytime, row_part, tuple(parts)
        )

    def stop(self, rows, full, deadline_s) -> np.ndarray:
        """When runs of ``rows`` stop: :func:`stop_latency` over arrays
        aligned with ``rows``, in the operations of
        :meth:`BatchOutcomeGrid.timing`."""
        early = np.minimum(
            np.minimum(full, deadline_s), self.rung_fraction[rows] * full
        )
        return np.where(self.anytime[rows], early, full)


def _stop_rows(model, rung_fraction, quality, q_fail, full, deadline_s):
    """``(latency, met, quality, rungs)`` of rows sharing one stop rule.

    The array form of :func:`stop_latency` plus the quality ladder:
    ``model`` None runs traditional rows to completion (no rungs), an
    anytime model stops its rows at the deadline or their rung
    fraction of the full latency.
    """
    if model is None:
        met = full <= deadline_s + 1e-12
        return full, met, np.where(met, quality, q_fail), 0
    stop = np.minimum(full, deadline_s)
    # rung_fraction is +inf for uncapped ladders, so the early-stop
    # minimum is a no-op there (full > 0 always).
    stop = np.minimum(stop, rung_fraction * full)
    fraction = np.divide(stop, full, out=np.ones_like(stop), where=full > 0)
    rungs = model.outputs_completed_array(fraction)
    return stop, stop <= deadline_s + 1e-12, model.quality_of_rungs(rungs), rungs


def stop_latency(
    model: DnnModel, rung_cap: int | None, full: float, deadline_s: float
) -> float:
    """When one run stops: its full latency, or for an anytime network
    the deadline or its rung cap, whichever comes first."""
    if not isinstance(model, AnytimeDnn):
        return full
    stop = min(full, deadline_s)
    if rung_cap is not None:
        stop = min(stop, model.rung_latency_s(rung_cap, full))
    return stop


def _served(
    model: DnnModel,
    rung_cap: int | None,
    full: float,
    deadline_s: float,
    period_s: float,
    power: float,
    idle_power: float,
) -> tuple:
    """``(latency, met, quality, rungs, energy)`` of one run: the timing
    half of :meth:`InferenceEngine.evaluate`, shared with
    :meth:`GridView.outcome`."""
    latency = stop_latency(model, rung_cap, full, deadline_s)
    met = latency <= deadline_s + 1e-12
    if isinstance(model, AnytimeDnn):
        fraction = latency / full if full > 0 else 1.0
        quality = model.quality_at_fraction(fraction)
        rungs = model.outputs_completed(fraction)
    else:
        quality = model.quality if met else model.q_fail
        rungs = 0
    energy = period_energy(
        latency_s=latency,
        period_s=period_s,
        inference_power_w=power,
        idle_power_w=idle_power,
    )
    return latency, met, quality, rungs, energy


#: Timings whose whole-grid planes one view keeps (a scenario's
#: constraint grid holds seven deadlines).
_PLANES_CAPACITY = 16


class GridView:
    """The one handle through which a :class:`BatchOutcomeGrid` reaches
    its consumers: the serving loops and the two oracles.

    Answers the questions every consumer asks.  *May this grid column
    serve this input?* — :meth:`column` for one input and
    :meth:`columns` for a whole run.  *Which row realises this
    decision?* — :meth:`row_for`, keyed on the model identity, the
    machine-clamped requested cap, and the rung cap, so schedulers
    handing out their own :class:`Configuration` objects (ALERT's
    candidates are not the grid's row objects) still resolve, on every
    platform: each row's physics is already at the cap the actuator
    enforces for that request.  *What happened at this timing?* — the
    grid is timing-free, so every consumer derives the deadline and
    period it actually serves: :meth:`planes` for the whole grid
    (derived once per view and timing, for the batch path and the
    oracles' whole-run decisions), :meth:`outcome` for one
    :class:`InferenceOutcome`, value-identical to what
    :meth:`InferenceEngine.run` computes for the same request, and
    :meth:`BatchOutcomeGrid.timing` for row groups and single columns.
    One view serves every run and every timing of a fused cell; any
    miss (unknown configuration, off-grid input, mismatched work
    factor or environment draw) returns ``None`` and the caller falls
    back to the live engine.

    ``trusted`` is a provenance flag: True promises the grid was
    realised from the same scenario seed as the engines it serves (the
    executor builds fused-cell grids exactly that way), so the column
    lookups skip the environment-draw guard — and with it the cost of
    re-realising draws the run never otherwise needs.  Hand-built
    views default to untrusted and are guarded per input.
    """

    def __init__(self, grid: BatchOutcomeGrid, trusted: bool = False) -> None:
        self.grid = grid
        self.trusted = trusted
        self._rows: dict[tuple[int, float, int | None], int] | None = None
        self._planes: dict[tuple[float, float], OutcomePlanes] = {}

    def planes(self, deadline_s: float, period_s: float) -> OutcomePlanes:
        """The whole grid at one timing, derived once per view."""
        key = (deadline_s, period_s)
        planes = self._planes.get(key)
        if planes is None:
            planes = self.grid.timing(deadline_s, period_s)
            if len(self._planes) >= _PLANES_CAPACITY:
                self._planes.pop(next(iter(self._planes)))
            self._planes[key] = planes
        return planes

    def row_for(
        self, model, power_cap_w: float, rung_cap: int | None
    ) -> int | None:
        """Grid row realising ``model`` at a requested cap, or None.

        Rows are keyed on their configuration's machine-clamped
        requested cap (``BatchOutcomeGrid.power_cap_w``), so callers
        look a decision up by ``machine.clamp_power(config.power_w)``;
        the row's physics is at the cap the actuator enforces for that
        request, whatever the actuator quantizes.
        """
        rows = self._rows
        if rows is None:
            grid = self.grid
            caps = grid.power_cap_w
            rows = {}
            for position, config in enumerate(grid.configs):
                key = (id(config.model), float(caps[position]), config.rung_cap)
                # First occurrence wins; duplicates are physically
                # identical rows (same model, cap, and rung).
                rows.setdefault(key, position)
                # A cap at the final rung of a full-length ladder is
                # physically the uncapped ladder (stop = min(stop,
                # 1.0 * full) is a no-op), so grids built from
                # rung-expanded spaces also answer ``rung_cap=None``
                # decisions (App-only's run-to-deadline config).
                grid_rung = config.rung_cap
                if grid_rung is not None:
                    outputs = getattr(config.model, "outputs", None)
                    if (
                        outputs is not None
                        and grid_rung == len(outputs) - 1
                        and outputs[grid_rung].latency_fraction == 1.0
                    ):
                        rows.setdefault(
                            (id(config.model), float(caps[position]), None),
                            position,
                        )
            self._rows = rows
        return rows.get((id(model), power_cap_w, rung_cap))

    def column(self, engine: InferenceEngine, item: InputItem) -> int | None:
        """Grid column that may serve ``item`` on ``engine``, or None.

        The column must hold the item's index and work factor; an
        untrusted view also requires the engine's environment draw for
        the item, which guards against a grid realised from diverged
        draws.
        """
        grid = self.grid
        index = item.index
        position = grid.column_for(index)
        if position is None or item.work_factor != grid.work_factors[position]:
            return None
        if not self.trusted and (
            engine.environment(index).env_factor != grid.env_factor[position]
        ):
            return None
        return position

    def columns(
        self, engine: InferenceEngine, items: Sequence[InputItem]
    ) -> np.ndarray | None:
        """Columns that may serve a whole run, or None when any misses.

        The vectorized counterpart of :meth:`column`, under the same
        guards: one array comparison per guard instead of per-item
        checks.
        """
        grid = self.grid
        indices = [item.index for item in items]
        columns = grid.columns_of(indices)
        if columns is None:
            return None
        factors = np.array([item.work_factor for item in items], dtype=float)
        if not np.array_equal(factors, grid.work_factors[columns]):
            return None
        if not self.trusted:
            engine.environment(max(indices))
            draws = np.array(
                [engine.environment(index).env_factor for index in indices],
                dtype=float,
            )
            if not np.array_equal(draws, grid.env_factor[columns]):
                return None
        return columns

    def outcome(
        self,
        row: int,
        position: int,
        index: int,
        deadline_s: float,
        period_s: float,
    ) -> InferenceOutcome:
        """One :class:`InferenceOutcome` derived from the grid.

        The record reports the row's labels as :meth:`InferenceEngine.run`
        does: ``power_cap_w`` the machine-clamped *requested* cap
        (feedback stays keyed on what the scheduler picked) and
        ``effective_cap_w`` the enforced one.  Records are assembled by
        direct ``__dict__`` fill — this sits on the sequential path's
        per-input hot loop, and the frozen dataclass ``__init__`` would
        dominate it.
        """
        grid = self.grid
        config = grid.configs[row]
        model = config.model
        full = float(grid.full_latency_s[row, position])
        power = float(grid.inference_power_w[row])
        idle_power = float(grid.idle_power_w[row, position])
        latency, met, quality, rungs, energy = _served(
            model, config.rung_cap, full, deadline_s, period_s, power,
            idle_power,
        )
        outcome = object.__new__(InferenceOutcome)
        object.__setattr__(outcome, "__dict__", {
            "index": index,
            "model_name": model.name,
            "power_cap_w": float(grid.power_cap_w[row]),
            "effective_cap_w": float(grid.effective_cap_w[row]),
            "latency_s": latency,
            "full_latency_s": full,
            "met_deadline": met,
            "quality": quality,
            "metric_value": model.task.quality_to_metric(quality),
            "completed_rungs": rungs,
            "energy": energy,
            "inference_power_w": power,
            "idle_power_w": idle_power,
            "env_factor": float(grid.env_factor[position]),
            "deadline_s": deadline_s,
            "period_s": period_s,
        })
        return outcome


#: Array fields of :class:`BatchOutcomeGrid` that travel through a flat
#: shared buffer, in layout order (every dtype is 8 bytes, so all
#: offsets stay naturally aligned).  ``configs`` never crosses the
#: buffer: attachers supply their own configuration tuple (the
#: scenario's memoised space), which keeps :meth:`GridView.row_for`'s
#: identity keys process-local.
SHARED_GRID_ARRAYS = (
    "indices",
    "work_factors",
    "env_factor",
    "power_cap_w",
    "effective_cap_w",
    "inference_power_w",
    "idle_power_w",
    "full_latency_s",
)


def shared_grid_layout(n_configs: int, n_inputs: int) -> tuple[list, int]:
    """The flat-buffer layout of a grid *before* it exists: ``(fields, nbytes)``.

    Every array field's dtype and shape is a static function of the
    grid's dimensions, so the buffer a grid will occupy can be sized —
    and a shared-memory segment created — before realisation starts.
    Combined with :func:`buffer_grid_allocator` this makes publishing
    zero-copy end to end: the batch evaluation writes its output
    planes directly into the segment instead of realising privately
    and copying them afterwards.  The field table is identical to what
    :func:`shared_grid_payload` derives from a realised grid (the
    regression suite cross-checks the two).
    """
    two_d = [n_configs, n_inputs]
    shapes = {
        "indices": ([n_inputs], "<i8"),
        "work_factors": ([n_inputs], "<f8"),
        "env_factor": ([n_inputs], "<f8"),
        "power_cap_w": ([n_configs], "<f8"),
        "effective_cap_w": ([n_configs], "<f8"),
        "inference_power_w": ([n_configs], "<f8"),
        "idle_power_w": (two_d, "<f8"),
        "full_latency_s": (two_d, "<f8"),
    }
    fields = []
    offset = 0
    for name in SHARED_GRID_ARRAYS:
        shape, dtype = shapes[name]
        offset = -(-offset // 16) * 16
        fields.append([name, dtype, shape, offset])
        offset += int(np.prod(shape)) * np.dtype(dtype).itemsize
    return fields, offset


def buffer_grid_allocator(fields: list, buffer):
    """An allocator handing out writable views into a grid buffer.

    ``fields`` is a :func:`shared_grid_layout` field table; the
    returned callable maps ``(name, shape, dtype)`` requests from
    :meth:`InferenceEngine.evaluate_batch` to ndarray views at the
    field's buffer offset.  Shape and dtype are validated against the
    layout so a drifted caller fails loudly instead of writing past a
    neighbouring field.
    """
    table = {name: (dtype, shape, offset) for name, dtype, shape, offset in fields}

    def allocate(name: str, shape, dtype) -> np.ndarray:
        expected_dtype, expected_shape, offset = table[name]
        if list(shape) != expected_shape or np.dtype(dtype).str != expected_dtype:
            raise ConfigurationError(
                f"grid field {name!r} expects {expected_shape}/{expected_dtype}, "
                f"allocation asked for {list(shape)}/{np.dtype(dtype).str}"
            )
        return np.ndarray(
            tuple(shape), dtype=np.dtype(dtype), buffer=buffer, offset=offset
        )

    return allocate


def shared_grid_payload(grid: BatchOutcomeGrid) -> tuple[dict, list]:
    """Describe a grid for flat-buffer export: ``(meta, arrays)``.

    ``meta`` is plain picklable data — scalars plus a field table of
    ``[name, dtype, shape, offset]`` rows and the total ``nbytes`` —
    suitable for a manager dict; ``arrays`` aligns with the field table
    and holds the (contiguous) source arrays to copy.  The buffer
    layout is consumed by :func:`write_shared_grid` and
    :func:`adopt_shared_grid`.
    """
    fields = []
    arrays = []
    offset = 0
    for name in SHARED_GRID_ARRAYS:
        array = np.ascontiguousarray(getattr(grid, name))
        offset = -(-offset // 16) * 16
        fields.append([name, array.dtype.str, list(array.shape), offset])
        arrays.append(array)
        offset += array.nbytes
    meta = {
        "n_configs": grid.n_configs,
        "n_inputs": grid.n_inputs,
        "fields": fields,
        "nbytes": offset,
    }
    return meta, arrays


def write_shared_grid(meta: dict, arrays: list, buffer) -> None:
    """Copy a grid's arrays into ``buffer`` at the meta's offsets."""
    for (name, dtype, shape, offset), array in zip(meta["fields"], arrays):
        view = np.ndarray(
            tuple(shape), dtype=np.dtype(dtype), buffer=buffer, offset=offset
        )
        view[...] = array


def adopt_shared_grid(
    configs: tuple, meta: dict, buffer, owner=None
) -> BatchOutcomeGrid:
    """A :class:`BatchOutcomeGrid` over zero-copy views of ``buffer``.

    Every adopted array is explicitly marked read-only
    (``writeable=False``): the buffer is typically a shared-memory
    segment mapped by several worker processes at once, and a stray
    in-place mutation must raise instead of silently corrupting sibling
    workers' grids.  ``owner`` (e.g. the ``SharedMemory`` object whose
    ``buf`` this is) is pinned on the grid so the mapping outlives all
    array views.
    """
    if len(configs) != meta["n_configs"]:
        raise ConfigurationError(
            f"shared grid covers {meta['n_configs']} configuration rows, "
            f"got {len(configs)} configs to adopt it with"
        )
    values: dict = {"configs": tuple(configs)}
    for name, dtype, shape, offset in meta["fields"]:
        view = np.ndarray(
            tuple(shape), dtype=np.dtype(dtype), buffer=buffer, offset=offset
        )
        view.flags.writeable = False
        values[name] = view
    grid = BatchOutcomeGrid(**values)
    grid._shared_owner = owner
    return grid


@dataclass
class _ConfigTable:
    """Per-configuration static arrays, shared by every batch pass.

    Everything here depends only on the configuration list and the
    machine — never on inputs — so the engine computes it once per
    distinct configuration tuple and reuses it across decisions.
    """

    configs: tuple
    caps: np.ndarray
    effective: np.ndarray
    base_latency: np.ndarray
    draw: np.ndarray
    power: np.ndarray
    sensitivity: np.ndarray
    any_sensitive: bool


class InferenceEngine:
    """Simulates DNN inference on one machine in one environment.

    Parameters
    ----------
    machine:
        The platform to simulate.
    contention:
        The co-located-job process (use kind ``NONE`` for the quiet
        environment).
    noise_rng:
        Random stream for the platform's measurement noise.
    actuator / dvfs:
        Optional injected power actuator and DVFS model (defaults are
        built from the machine spec).
    """

    #: Upper bound on memoised per-configuration batch tables.
    _CONFIG_TABLE_CAPACITY = 16

    def __init__(
        self,
        machine: MachineSpec,
        contention: ContentionProcess,
        noise_rng: np.random.Generator,
        actuator: PowerActuator | None = None,
        dvfs: DvfsModel | None = None,
    ) -> None:
        if contention.machine is not machine:
            raise ConfigurationError(
                "contention process was built for a different machine"
            )
        self.machine = machine
        self.contention = contention
        self.dvfs = dvfs if dvfs is not None else DvfsModel(machine)
        self.actuator = actuator if actuator is not None else make_actuator(machine)
        self._noise_rng = noise_rng
        self._environment: list[EnvironmentDraw] = []
        # Config-static batch tables keyed by tuple identity; the
        # stored tuple keeps the id alive, so keys cannot be recycled.
        # FIFO-bounded so callers that build fresh tuples per call
        # cannot grow the cache without limit.
        self._config_tables: dict[int, tuple[tuple, _ConfigTable]] = {}

    def twin(self) -> "InferenceEngine":
        """A replica of this engine in the same environment realisation.

        The twin has its own actuator, so its own power cap and RAPL
        counter, and shares this engine's contention process, noise
        stream and memoised environment draws: each input index is
        drawn once, by whichever engine reaches it first, and both see
        the draws a fresh engine of the same scenario seed would make.
        """
        twin = type(self)(
            self.machine, self.contention, self._noise_rng, dvfs=self.dvfs
        )
        twin._environment = self._environment
        return twin

    # ------------------------------------------------------------------
    # Environment realisation (shared across configurations)
    # ------------------------------------------------------------------
    def environment(self, index: int) -> EnvironmentDraw:
        """The environment draw for input ``index`` (memoised)."""
        if index < 0:
            raise ConfigurationError(f"input index must be >= 0, got {index}")
        while len(self._environment) <= index:
            n = len(self._environment)
            sample: ContentionSample = self.contention.sample(n)
            noise = float(
                np.exp(self._noise_rng.normal(0.0, self.machine.latency_noise_sigma))
            )
            self._environment.append(
                EnvironmentDraw(
                    env_factor=sample.slowdown * noise,
                    idle_power_w=sample.idle_power_w,
                    contention_active=sample.active,
                )
            )
        return self._environment[index]

    # ------------------------------------------------------------------
    # Pure outcome computation
    # ------------------------------------------------------------------
    def inference_power(self, model: DnnModel, power_cap_w: float) -> float:
        """Average package draw while ``model`` runs under a cap.

        The cap binds unless the model cannot utilise the package
        (small networks draw below even a generous cap).
        """
        spec = self.machine
        cap = spec.clamp_power(power_cap_w)
        demand = spec.static_power_w + model.power_utilization * (
            spec.peak_power_w - spec.static_power_w
        )
        return min(self.dvfs.draw_power(cap), demand)

    def full_latency(
        self,
        model: DnnModel,
        power_cap_w: float,
        index: int,
        work_factor: float = 1.0,
    ) -> float:
        """Run-to-completion latency of a configuration on one input."""
        draw = self.environment(index)
        cap = self.machine.clamp_power(power_cap_w)
        multiplier = self.dvfs.latency_multiplier(cap, model.memory_intensity)
        return (
            model.nominal_latency(self.machine)
            * multiplier
            * model.work_scale(work_factor)
            * draw.env_factor
        )

    def evaluate(
        self,
        model: DnnModel,
        power_cap_w: float,
        index: int,
        deadline_s: float,
        period_s: float | None = None,
        work_factor: float = 1.0,
        rung_cap: int | None = None,
    ) -> InferenceOutcome:
        """Compute the outcome of one configuration on one input.

        Pure with respect to engine state: repeated calls with the same
        arguments return identical outcomes, and nothing is metered or
        actuated.  The outcome is the one :meth:`run` would serve: its
        physics follows the cap the actuator *would* enforce for the
        request (:meth:`~repro.hw.powercap.PowerActuator.enforced_cap`),
        ``power_cap_w`` reports the machine-clamped request and
        ``effective_cap_w`` the enforced cap.  ``rung_cap`` stops an
        anytime network as soon as rung ``rung_cap`` (0-based)
        completes — the energy-saving early stop of Section 3.5.
        """
        requested = self.machine.clamp_power(power_cap_w)
        return self._outcome(
            model, requested, self.actuator.enforced_cap(requested), index,
            deadline_s, period_s, work_factor, rung_cap,
        )

    def _outcome(
        self,
        model: DnnModel,
        requested_w: float,
        enforced_w: float,
        index: int,
        deadline_s: float,
        period_s: float | None,
        work_factor: float,
        rung_cap: int | None,
    ) -> InferenceOutcome:
        """The body :meth:`evaluate` and :meth:`run` share: one outcome
        whose physics runs at ``enforced_w`` (machine-clamped, so a
        table draw below the feasible floor computes at the floor),
        labelled with the clamped request and the enforced cap."""
        if deadline_s <= 0:
            raise ConfigurationError(f"deadline must be positive, got {deadline_s}")
        period = period_s if period_s is not None else deadline_s
        if period <= 0:
            raise ConfigurationError(f"period must be positive, got {period}")
        draw = self.environment(index)
        cap = self.machine.clamp_power(enforced_w)
        full = self.full_latency(model, cap, index, work_factor)
        power = self.inference_power(model, cap)
        # RAPL caps the whole package: the co-located job's idle-phase
        # draw is clipped by the same limit the inference runs under.
        idle_power = min(draw.idle_power_w, self.dvfs.draw_power(cap))
        latency, met, quality, rungs, energy = _served(
            model, rung_cap, full, deadline_s, period, power, idle_power
        )
        return InferenceOutcome(
            index=index,
            model_name=model.name,
            power_cap_w=requested_w,
            effective_cap_w=enforced_w,
            latency_s=latency,
            full_latency_s=full,
            met_deadline=met,
            quality=quality,
            metric_value=model.task.quality_to_metric(quality),
            completed_rungs=rungs,
            energy=energy,
            inference_power_w=power,
            idle_power_w=idle_power,
            env_factor=draw.env_factor,
            deadline_s=deadline_s,
            period_s=period,
        )

    # ------------------------------------------------------------------
    # Vectorized whole-grid evaluation
    # ------------------------------------------------------------------
    def evaluate_batch(
        self,
        configs: Sequence,
        indices: Sequence[int],
        work_factors: Sequence[float] | None = None,
        allocator=None,
    ) -> BatchOutcomeGrid:
        """Realise every configuration on every input in one pass.

        The timing-free half of :meth:`evaluate`, vectorized: pure,
        metering nothing, and per-element identical to the scalar
        reference once :meth:`BatchOutcomeGrid.timing` derives a
        deadline and period (the oracle parity suite pins every
        field).  ``configs`` is any sequence of objects exposing
        ``model``, ``power_w``, and ``rung_cap`` (duck-typed so the
        engine does not import the configuration space);
        ``work_factors`` aligns with ``indices`` and defaults to 1.0.
        Each row is keyed on its configuration's machine-clamped
        request and computed at the cap the actuator enforces for it,
        as :meth:`run` computes it, so every row equals what a metered
        run of that configuration serves.

        ``allocator`` optionally supplies the destination memory for
        every grid field (``allocator(name, shape, dtype) -> ndarray``,
        see :func:`buffer_grid_allocator`): the evaluation then writes
        its output planes directly into that memory — e.g. a
        shared-memory segment — via ``out=`` on the final producing
        ops.  The arithmetic and its order are unchanged, so results
        are bit-identical to the privately allocated default.
        """
        config_list = configs if isinstance(configs, tuple) else tuple(configs)
        if not config_list:
            raise ConfigurationError("need at least one configuration")
        index_array = np.asarray(list(indices), dtype=int)
        if index_array.ndim != 1 or index_array.size == 0:
            raise ConfigurationError("need a non-empty 1-D sequence of indices")
        if np.any(index_array < 0):
            raise ConfigurationError("input indices must be >= 0")
        if work_factors is None:
            factors = np.ones(index_array.size, dtype=float)
        else:
            factors = np.asarray(list(work_factors), dtype=float)
            if factors.shape != index_array.shape:
                raise ConfigurationError(
                    "work_factors must align one-to-one with indices"
                )
            if np.any(factors <= 0):
                raise ConfigurationError("work factors must be positive")

        # Realise every environment draw up front (memoised).
        self.environment(int(index_array.max()))
        env = np.array(
            [self._environment[i].env_factor for i in index_array], dtype=float
        )
        idle_draw = np.array(
            [self._environment[i].idle_power_w for i in index_array], dtype=float
        )

        grid_shape = (len(config_list), index_array.size)

        def alloc(name: str, shape, dtype) -> np.ndarray:
            if allocator is None:
                return np.empty(shape, dtype=dtype)
            return allocator(name, shape, dtype)

        table = self._config_table(config_list)
        full = alloc("full_latency_s", grid_shape, float)
        if table.any_sensitive:
            # work_scale short-circuits to exactly 1.0 for insensitive
            # models, matching DnnModel.work_scale.
            work_scale = np.where(
                table.sensitivity[:, None] == 0.0,
                1.0,
                factors[None, :] ** table.sensitivity[:, None],
            )
            # Multiplication order mirrors the scalar path:
            # ((nominal * multiplier) * work_scale) * env_factor.
            np.multiply(
                table.base_latency[:, None] * work_scale,
                env[None, :],
                out=full,
            )
        else:
            # work_scale == 1.0 exactly; x * 1.0 == x bit-for-bit.
            np.multiply(table.base_latency[:, None], env[None, :], out=full)
        idle_power = np.minimum(
            idle_draw[None, :],
            table.draw[:, None],
            out=alloc("idle_power_w", grid_shape, float),
        )
        vectors = {
            "indices": index_array,
            "work_factors": factors,
            "env_factor": env,
            "power_cap_w": table.caps,
            "effective_cap_w": table.effective,
            "inference_power_w": table.power,
        }
        if allocator is not None:
            # The small 1-D planes are copies into the buffer: the
            # config table's arrays are shared across grids and must
            # not alias externally owned memory.
            for name, src in vectors.items():
                view = allocator(name, src.shape, src.dtype)
                view[...] = src
                vectors[name] = view
        return BatchOutcomeGrid(
            configs=config_list,
            idle_power_w=idle_power,
            full_latency_s=full,
            **vectors,
        )

    def _config_table(self, config_list: tuple) -> _ConfigTable:
        """The config-static arrays for a configuration tuple (memoised).

        Keyed on tuple identity: repeated batch calls with the *same*
        tuple object (the oracles hold one) skip the Python-level
        per-configuration loops entirely.
        """
        cached = self._config_tables.get(id(config_list))
        if cached is not None and cached[0] is config_list:
            return cached[1]

        spec = self.machine
        requested = [spec.clamp_power(config.power_w) for config in config_list]
        enforced = [self.actuator.enforced_cap(cap) for cap in requested]
        # Physics at the enforced cap, clamped as run() clamps it.
        physics = np.array([spec.clamp_power(cap) for cap in enforced])
        intensity = np.array(
            [config.model.memory_intensity for config in config_list], dtype=float
        )
        multiplier = self.dvfs.latency_multiplier_array(physics, intensity)
        nominal = np.array(
            [config.model.nominal_latency(spec) for config in config_list],
            dtype=float,
        )
        draw = self.dvfs.draw_power_array(physics)
        demand = np.array(
            [
                spec.static_power_w
                + config.model.power_utilization
                * (spec.peak_power_w - spec.static_power_w)
                for config in config_list
            ],
            dtype=float,
        )
        sensitivity = np.array(
            [config.model.input_sensitivity for config in config_list], dtype=float
        )
        table = _ConfigTable(
            configs=config_list,
            caps=np.array(requested, dtype=float),
            effective=np.array(enforced, dtype=float),
            base_latency=nominal * multiplier,
            draw=draw,
            power=np.minimum(draw, demand),
            sensitivity=sensitivity,
            any_sensitive=bool(np.any(sensitivity != 0.0)),
        )
        if len(self._config_tables) >= self._CONFIG_TABLE_CAPACITY:
            self._config_tables.pop(next(iter(self._config_tables)))
        self._config_tables[id(config_list)] = (config_list, table)
        return table

    # ------------------------------------------------------------------
    # Metered execution
    # ------------------------------------------------------------------
    def run(
        self,
        model: DnnModel,
        power_cap_w: float,
        index: int,
        deadline_s: float,
        period_s: float | None = None,
        work_factor: float = 1.0,
        rung_cap: int | None = None,
    ) -> InferenceOutcome:
        """Serve one input for real: actuate the cap and meter energy.

        The outcome is computed at the cap the actuator enforced (the
        cap :meth:`~repro.hw.powercap.PowerActuator.set_power_cap`
        returns), through the body :meth:`evaluate` uses, so the two
        agree on every field: on platforms whose actuator quantizes
        (the GPU power-frequency table), latency, draw, and energy all
        follow the enforced setting, exactly as the real hardware
        behaves.  The outcome's ``power_cap_w`` still reports the
        machine-clamped *requested* cap so feedback stays keyed on the
        configuration the scheduler picked.

        The energy that lands in the outcome is read back through the
        simulated RAPL counter (wraparound handling and all), the same
        way the paper's implementation meters energy, and is asserted
        against the analytic breakdown.
        """
        actuator = self.actuator
        effective = actuator.set_power_cap(power_cap_w)
        outcome = self._outcome(
            model, actuator.requested_cap_w, effective, index, deadline_s,
            period_s, work_factor, rung_cap,
        )
        measured = self._meter(outcome)
        if abs(measured - outcome.energy.total_j) > max(
            1e-6, 1e-4 * outcome.energy.total_j
        ):
            raise SimulationError(
                f"RAPL-metered energy {measured} J diverged from the analytic "
                f"breakdown {outcome.energy.total_j} J"
            )
        return outcome

    def _meter(self, outcome: InferenceOutcome) -> float:
        """Advance the energy counter across one period and read it."""
        package = getattr(self.actuator, "package", None)
        if package is None:
            # GPU actuator: no RAPL counters; trust the analytic value.
            return outcome.energy.total_j
        begin = package.read_energy_uj()
        package.domain.advance(outcome.latency_s, outcome.inference_power_w)
        idle_time = max(0.0, outcome.period_s - outcome.latency_s)
        package.domain.advance(idle_time, outcome.idle_power_w)
        end = package.read_energy_uj()
        return package.energy_delta_j(begin, end)
