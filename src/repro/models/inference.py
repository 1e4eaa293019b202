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
   the RAPL counters and the measured-energy account.
"""

from __future__ import annotations

from collections.abc import Sequence
from dataclasses import dataclass
from typing import TYPE_CHECKING

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
    "GridView",
    "InferenceEngine",
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
    """Vectorized outcomes of a (configuration × input) cross product.

    The batch analogue of a grid of :class:`InferenceOutcome` records:
    every 2-D array is shaped ``(n_configs, n_inputs)`` with rows
    aligned to ``configs`` and columns to ``indices``; per-configuration
    quantities (``power_cap_w``, ``inference_power_w``) are 1-D over
    configurations and per-input quantities (``env_factor``,
    ``work_factors``) 1-D over inputs.  Produced by
    :meth:`InferenceEngine.evaluate_batch`, consumed by the oracles and
    the experiment harness.
    """

    configs: tuple
    indices: np.ndarray
    deadline_s: float
    period_s: float
    work_factors: np.ndarray
    env_factor: np.ndarray
    power_cap_w: np.ndarray
    inference_power_w: np.ndarray
    idle_power_w: np.ndarray
    latency_s: np.ndarray
    full_latency_s: np.ndarray
    met_deadline: np.ndarray
    quality: np.ndarray
    completed_rungs: np.ndarray
    inference_j: np.ndarray
    idle_j: np.ndarray

    def __post_init__(self) -> None:
        # Built on first column_for() call; the serving fast path
        # realises single-row grids it never looks up by index.
        self._column_of: dict[int, int] | None = None
        # Summed once; per-decision grid hits slice columns of this
        # instead of re-adding the whole grid on every access.
        self._energy_j = self.inference_j + self.idle_j

    @property
    def n_configs(self) -> int:
        """Number of configuration rows."""
        return len(self.configs)

    @property
    def n_inputs(self) -> int:
        """Number of input columns."""
        return int(self.indices.size)

    @property
    def energy_j(self) -> np.ndarray:
        """Whole-period energy per (configuration, input)."""
        return self._energy_j

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


class GridView:
    """The one handle through which a :class:`BatchOutcomeGrid` reaches
    its consumers: the serving loops and the two oracles.

    Answers the two questions every consumer asks.  *May this grid
    column serve this input?* — :meth:`column` for one input and
    :meth:`columns` for a whole run; callers check the timing first
    with :meth:`matches_timing`.  *Which row realises this decision?*
    — :meth:`row_for`, keyed on the model identity, the cap the
    actuator enforced, and the rung cap, so schedulers handing out
    their own :class:`Configuration` objects (ALERT's candidates are
    not the grid's row objects) still resolve.  :meth:`outcome` then
    realises a single :class:`InferenceOutcome` straight from the grid,
    value-identical to what :meth:`InferenceEngine.run` would have
    computed for the same enforced cap.  One view serves every run of
    a fused cell; any miss (unknown configuration, off-grid input,
    mismatched timing, work factor or environment draw) returns
    ``None`` and the caller falls back to the live engine.

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

    def matches_timing(self, deadline_s: float, period_s: float) -> bool:
        """Whether the grid was realised under this exact timing."""
        grid = self.grid
        return deadline_s == grid.deadline_s and period_s == grid.period_s

    def row_for(
        self, model, effective_cap_w: float, rung_cap: int | None
    ) -> int | None:
        """Grid row realising ``model`` at the enforced cap, or None.

        Rows are keyed on the cap the grid evaluation actually used
        (machine-clamped), so a decision only resolves when the
        actuator's *effective* cap equals a row's cap — on quantizing
        actuators a mismatch simply falls back to the live engine.
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
        return rows.get((id(model), effective_cap_w, rung_cap))

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
        power_cap_w: float,
        deadline_s: float,
        period_s: float,
    ) -> InferenceOutcome:
        """One :class:`InferenceOutcome` read out of the grid.

        ``power_cap_w`` is the machine-clamped *requested* cap the
        record reports (feedback stays keyed on what the scheduler
        picked); the row's own cap is the enforced one.  Records are
        assembled by direct ``__dict__`` fill — this sits on the fused
        sequential path's per-input hot loop, and the frozen dataclass
        ``__init__`` would dominate it.
        """
        grid = self.grid
        model = grid.configs[row].model
        quality = float(grid.quality[row, position])
        energy = object.__new__(EnergyBreakdown)
        fill = object.__setattr__
        fill(energy, "__dict__", {
            "inference_j": float(grid.inference_j[row, position]),
            "idle_j": float(grid.idle_j[row, position]),
        })
        outcome = object.__new__(InferenceOutcome)
        fill(outcome, "__dict__", {
            "index": index,
            "model_name": model.name,
            "power_cap_w": power_cap_w,
            "effective_cap_w": float(grid.power_cap_w[row]),
            "latency_s": float(grid.latency_s[row, position]),
            "full_latency_s": float(grid.full_latency_s[row, position]),
            "met_deadline": bool(grid.met_deadline[row, position]),
            "quality": quality,
            "metric_value": model.task.quality_to_metric(quality),
            "completed_rungs": int(grid.completed_rungs[row, position]),
            "energy": energy,
            "inference_power_w": float(grid.inference_power_w[row]),
            "idle_power_w": float(grid.idle_power_w[row, position]),
            "env_factor": float(grid.env_factor[position]),
            "deadline_s": deadline_s,
            "period_s": period_s,
        })
        return outcome


#: Array fields of :class:`BatchOutcomeGrid` that travel through a flat
#: shared buffer, in layout order.  Every dtype here is 8 bytes except
#: ``met_deadline`` (bool), which sits last so all offsets stay
#: naturally aligned.  ``configs`` never crosses the buffer: attachers
#: supply their own configuration tuple (the scenario's memoised space),
#: which keeps :meth:`GridView.row_for`'s identity keys process-local.
SHARED_GRID_ARRAYS = (
    "indices",
    "work_factors",
    "env_factor",
    "power_cap_w",
    "inference_power_w",
    "idle_power_w",
    "latency_s",
    "full_latency_s",
    "quality",
    "completed_rungs",
    "inference_j",
    "idle_j",
    "met_deadline",
)


def shared_grid_layout(n_configs: int, n_inputs: int) -> tuple[list, int]:
    """The flat-buffer layout of a grid *before* it exists: ``(fields, nbytes)``.

    Every array field's dtype and shape is a static function of the
    grid's dimensions, so the buffer a grid will occupy can be sized —
    and a shared-memory segment created — before realisation starts.
    Combined with :func:`buffer_grid_allocator` this makes publishing
    zero-copy end to end: the batch evaluation writes its output
    planes directly into the segment instead of realising privately
    and copying 30-odd megabytes per grid afterwards.  The field table
    is identical to what :func:`shared_grid_payload` derives from a
    realised grid (the regression suite cross-checks the two).
    """
    two_d = (n_configs, n_inputs)
    shapes = {
        "indices": ([n_inputs], "<i8"),
        "work_factors": ([n_inputs], "<f8"),
        "env_factor": ([n_inputs], "<f8"),
        "power_cap_w": ([n_configs], "<f8"),
        "inference_power_w": ([n_configs], "<f8"),
        "idle_power_w": (list(two_d), "<f8"),
        "latency_s": (list(two_d), "<f8"),
        "full_latency_s": (list(two_d), "<f8"),
        "quality": (list(two_d), "<f8"),
        "completed_rungs": (list(two_d), "<i8"),
        "inference_j": (list(two_d), "<f8"),
        "idle_j": (list(two_d), "<f8"),
        "met_deadline": (list(two_d), "|b1"),
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
        "deadline_s": grid.deadline_s,
        "period_s": grid.period_s,
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
    values: dict = {
        "configs": tuple(configs),
        "deadline_s": meta["deadline_s"],
        "period_s": meta["period_s"],
    }
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
    base_latency: np.ndarray
    draw: np.ndarray
    power: np.ndarray
    sensitivity: np.ndarray
    any_sensitive: bool
    rung_fraction: np.ndarray
    quality: np.ndarray
    q_fail: np.ndarray
    traditional_rows: np.ndarray
    anytime_groups: list[tuple[AnytimeDnn, np.ndarray]]


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
        arguments return identical outcomes, and nothing is metered.
        ``rung_cap`` stops an anytime network as soon as rung
        ``rung_cap`` (0-based) completes — the energy-saving early stop
        of Section 3.5.
        """
        if deadline_s <= 0:
            raise ConfigurationError(f"deadline must be positive, got {deadline_s}")
        period = period_s if period_s is not None else deadline_s
        if period <= 0:
            raise ConfigurationError(f"period must be positive, got {period}")
        draw = self.environment(index)
        cap = self.machine.clamp_power(power_cap_w)
        full = self.full_latency(model, cap, index, work_factor)
        power = self.inference_power(model, cap)
        # RAPL caps the whole package: the co-located job's idle-phase
        # draw is clipped by the same limit the inference runs under.
        idle_power = min(draw.idle_power_w, self.dvfs.draw_power(cap))

        if isinstance(model, AnytimeDnn):
            stop = min(full, deadline_s)
            if rung_cap is not None:
                stop = min(stop, model.rung_latency_s(rung_cap, full))
            fraction = stop / full if full > 0 else 1.0
            quality = model.quality_at_fraction(fraction)
            rungs = model.outputs_completed(fraction)
            latency = stop
            met = latency <= deadline_s + 1e-12
        else:
            latency = full
            met = latency <= deadline_s + 1e-12
            quality = model.quality if met else model.q_fail
            rungs = 0

        energy = period_energy(
            latency_s=latency,
            period_s=period,
            inference_power_w=power,
            idle_power_w=idle_power,
        )
        return InferenceOutcome(
            index=index,
            model_name=model.name,
            power_cap_w=cap,
            effective_cap_w=cap,
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
        deadline_s: float,
        period_s: float | None = None,
        work_factors: Sequence[float] | None = None,
        allocator=None,
    ) -> BatchOutcomeGrid:
        """Evaluate every configuration on every input in one pass.

        The batch counterpart of :meth:`evaluate`: pure, metering
        nothing, and per-element identical to the scalar reference (the
        oracle parity suite pins the two paths to <= 1e-9 on every
        field).  ``configs`` is any sequence of objects exposing
        ``model``, ``power_w``, and ``rung_cap`` (duck-typed so the
        engine does not import the configuration space);
        ``work_factors`` aligns with ``indices`` and defaults to 1.0.

        ``allocator`` optionally supplies the destination memory for
        every grid field (``allocator(name, shape, dtype) -> ndarray``,
        see :func:`buffer_grid_allocator`): the evaluation then writes
        its output planes directly into that memory — e.g. a
        shared-memory segment — via ``out=`` on the final producing
        ops.  The arithmetic and its order are unchanged, so results
        are bit-identical to the privately allocated default.
        """
        if deadline_s <= 0:
            raise ConfigurationError(f"deadline must be positive, got {deadline_s}")
        period = period_s if period_s is not None else deadline_s
        if period <= 0:
            raise ConfigurationError(f"period must be positive, got {period}")
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

        n_configs, n_inputs = len(config_list), index_array.size

        def alloc(name: str, shape, dtype) -> np.ndarray:
            if allocator is None:
                return np.empty(shape, dtype=dtype)
            return allocator(name, shape, dtype)

        grid_shape = (n_configs, n_inputs)
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

        latency = alloc("latency_s", grid_shape, float)
        quality = alloc("quality", grid_shape, float)
        rungs = alloc("completed_rungs", grid_shape, int)
        rungs.fill(0)
        met = alloc("met_deadline", grid_shape, bool)

        trad = table.traditional_rows
        if trad.size:
            latency[trad] = full[trad]
            met[trad] = full[trad] <= deadline_s + 1e-12
            quality[trad] = np.where(
                met[trad], table.quality[trad, None], table.q_fail[trad, None]
            )
        for model, rows in table.anytime_groups:
            sub_full = full[rows]
            stop = np.minimum(sub_full, deadline_s)
            # rung_fraction is +inf for uncapped ladders, so the
            # early-stop minimum is a no-op there (full > 0 always).
            stop = np.minimum(stop, table.rung_fraction[rows, None] * sub_full)
            fraction = np.divide(
                stop, sub_full, out=np.ones_like(stop), where=sub_full > 0
            )
            quality[rows] = model.quality_at_fraction_array(fraction)
            rungs[rows] = model.outputs_completed_array(fraction)
            latency[rows] = stop
            met[rows] = stop <= deadline_s + 1e-12

        inference_j, idle_j = period_energy_arrays(
            latency_s=latency,
            period_s=period,
            inference_power_w=table.power[:, None],
            idle_power_w=idle_power,
            out=(
                alloc("inference_j", grid_shape, float),
                alloc("idle_j", grid_shape, float),
            ),
        )
        indices_out = index_array
        caps_out = table.caps
        power_out = table.power
        if allocator is not None:
            # The small 1-D planes are copies into the buffer: the
            # config table's arrays are shared across grids and must
            # not alias externally owned memory.
            for name, src in (
                ("indices", index_array),
                ("work_factors", factors),
                ("env_factor", env),
                ("power_cap_w", table.caps),
                ("inference_power_w", table.power),
            ):
                view = allocator(name, src.shape, src.dtype)
                view[...] = src
                if name == "indices":
                    indices_out = view
                elif name == "work_factors":
                    factors = view
                elif name == "env_factor":
                    env = view
                elif name == "power_cap_w":
                    caps_out = view
                else:
                    power_out = view
        return BatchOutcomeGrid(
            configs=config_list,
            indices=indices_out,
            deadline_s=deadline_s,
            period_s=period,
            work_factors=factors,
            env_factor=env,
            power_cap_w=caps_out,
            inference_power_w=power_out,
            idle_power_w=idle_power,
            latency_s=latency,
            full_latency_s=full,
            met_deadline=met,
            quality=quality,
            completed_rungs=rungs,
            inference_j=inference_j,
            idle_j=idle_j,
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
        caps = np.array(
            [spec.clamp_power(config.power_w) for config in config_list], dtype=float
        )
        intensity = np.array(
            [config.model.memory_intensity for config in config_list], dtype=float
        )
        multiplier = self.dvfs.latency_multiplier_array(caps, intensity)
        nominal = np.array(
            [config.model.nominal_latency(spec) for config in config_list],
            dtype=float,
        )
        draw = self.dvfs.draw_power_array(caps)
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
        quality = np.array(
            [config.model.quality for config in config_list], dtype=float
        )
        q_fail = np.array(
            [config.model.q_fail for config in config_list], dtype=float
        )
        rung_fraction = np.full(len(config_list), np.inf)
        traditional_rows: list[int] = []
        groups: dict[int, tuple[AnytimeDnn, list[int]]] = {}
        for row, config in enumerate(config_list):
            model = config.model
            if not isinstance(model, AnytimeDnn):
                traditional_rows.append(row)
                continue
            rung_cap = config.rung_cap
            if rung_cap is not None:
                if not 0 <= rung_cap < model.n_outputs:
                    raise ConfigurationError(
                        f"{model.name}: rung {rung_cap} out of range "
                        f"[0, {model.n_outputs})"
                    )
                rung_fraction[row] = model.outputs[rung_cap].latency_fraction
            groups.setdefault(id(model), (model, []))[1].append(row)

        table = _ConfigTable(
            configs=config_list,
            caps=caps,
            base_latency=nominal * multiplier,
            draw=draw,
            power=np.minimum(draw, demand),
            sensitivity=sensitivity,
            any_sensitive=bool(np.any(sensitivity != 0.0)),
            rung_fraction=rung_fraction,
            quality=quality,
            q_fail=q_fail,
            traditional_rows=np.array(traditional_rows, dtype=int),
            anytime_groups=[
                (model, np.array(rows, dtype=int))
                for model, rows in groups.values()
            ],
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

        The outcome is computed at the cap the actuator actually
        enforced (its returned *effective* cap), not the requested one —
        on platforms whose actuator quantizes (the GPU power-frequency
        table), latency, draw, and energy all follow the enforced
        setting, exactly as the real hardware behaves.  The outcome's
        ``power_cap_w`` still reports the machine-clamped *requested*
        cap so feedback stays keyed on the configuration the scheduler
        picked.

        The energy that lands in the outcome is read back through the
        simulated RAPL counter (wraparound handling and all), the same
        way the paper's implementation meters energy, and is asserted
        against the analytic breakdown.
        """
        effective = self.actuator.set_power_cap(power_cap_w)
        outcome = self.evaluate(
            model=model,
            power_cap_w=effective,
            index=index,
            deadline_s=deadline_s,
            period_s=period_s,
            work_factor=work_factor,
            rung_cap=rung_cap,
        )
        measured = self._meter(outcome)
        if abs(measured - outcome.energy.total_j) > max(
            1e-6, 1e-4 * outcome.energy.total_j
        ):
            raise SimulationError(
                f"RAPL-metered energy {measured} J diverged from the analytic "
                f"breakdown {outcome.energy.total_j} J"
            )
        return InferenceOutcome(
            **{
                **outcome.__dict__,
                "power_cap_w": self.machine.clamp_power(power_cap_w),
                "effective_cap_w": effective,
            }
        )

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
