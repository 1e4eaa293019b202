"""Command-line interface: ``python -m repro <command>``.

Commands map 1:1 onto the experiment drivers so every paper artifact
can be regenerated from a shell::

    python -m repro fig02              # trade-off scatter
    python -m repro fig03              # power sweep
    python -m repro fig06              # single-layer oracles
    python -m repro fig08 --workers 4  # oracle whiskers
    python -m repro fig09              # contention-burst trace
    python -m repro fig10              # ALERT vs ALERT*
    python -m repro fig11              # xi distributions
    python -m repro table4 --platform CPU1 --env memory --workers 4
    python -m repro table5 --workers 4
    python -m repro serve --platform CPU1 --env memory --inputs 200
    python -m repro fleet --replicas 4 --arrivals poisson --policy cost-aware
    python -m repro overload --arrivals mmpp --out overload  # policy study
    python -m repro sweep --platforms CPU1 GPU --workers 4 \
        --checkpoint sweep.jsonl   # resumable multi-scenario sweep

``sweep`` is the production-scale front over the same executor: it
expands a declarative spec (platforms x tasks x envs x seeds x the
constraint grid x schemes) into one cell per (scenario, goal), runs
each scenario's cells as one scenario-wide spec (so ALERT and the
other stacking schemes advance all its goals in lockstep), streams
compact per-cell summaries back (O(cells) driver memory), shares
realised outcome grids across pool workers through
``multiprocessing.shared_memory``, and checkpoints completed cells to
JSONL so a killed sweep resumes bit-identically.

``fleet`` is the open-loop counterpart of ``serve``: N replicas (each
with its own ALERT controller) behind a bounded admission queue and a
load-balancing policy, driven by a seeded arrival process on a
deterministic virtual clock — same seeds, same metrics, every run.
The fleet can adapt itself: ``--autoscaler signal`` churns replicas
from queue/drop/violation signals, ``--budget xi-weighted`` partitions
the power budget by each kernel's slowdown belief, ``--batch-size``
amortises kernel decisions under burst, and ``--clock wall`` runs the
same event flow live on asyncio.  ``overload`` sweeps the adaptivity
matrix (policies x autoscaling x budget) under one bursty arrival
timeline and emits a fig-style JSON/CSV comparison.

The grid-evaluating commands (``table4``, ``table5``, ``fig08``) take
``--workers N`` to fan their cell plans out over a process pool via
:class:`repro.runtime.executor.RunExecutor` (use roughly the machine's
core count).  Every cell serves all its schemes and timings from one
shared outcome grid, and a cell wide enough in goals advances its
stacking schemes in lockstep; a cell splits across workers only into
chunks that stay that wide, so a narrow cell runs serially whatever
``--workers`` says.  Results are bit-identical whichever way the plan
executes, so ``--workers`` is purely a wall-clock knob.
"""

from __future__ import annotations

import argparse

from repro import experiments
from repro._version import __version__
from repro.baselines import make_alert
from repro.core.goals import Goal, ObjectiveKind
from repro.errors import SimulationError
from repro.runtime.loop import ServingLoop
from repro.serve import (
    AUTOSCALER_KINDS,
    BUDGET_KINDS,
    POLICY_KINDS,
    FleetConfig,
    build_fleet,
)
from repro.serve.fleet import CLOCK_KINDS
from repro.workloads.scenarios import build_scenario
from repro.workloads.traces import ARRIVAL_KINDS

__all__ = ["main", "build_parser"]


def build_parser() -> argparse.ArgumentParser:
    """The CLI argument parser (exposed for testing)."""
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Reproduction of ALERT (USENIX ATC 2020)",
    )
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    for name in ("fig02", "fig03", "fig06", "fig09", "fig10", "fig11"):
        sub.add_parser(name, help=f"regenerate {name} of the paper")

    workers_help = (
        "processes to fan runs out over (default 1 = serial; "
        "results are bit-identical either way)"
    )

    table4 = sub.add_parser("table4", help="regenerate a Table 4 cell")
    table4.add_argument("--platform", default="CPU1")
    table4.add_argument("--task", default="image")
    table4.add_argument("--env", default="memory")
    table4.add_argument("--inputs", type=int, default=100)
    table4.add_argument("--stride", type=int, default=3)
    table4.add_argument("--workers", type=int, default=1, help=workers_help)

    table5 = sub.add_parser("table5", help="regenerate Table 5")
    table5.add_argument("--platform", default="CPU1")
    table5.add_argument("--inputs", type=int, default=100)
    table5.add_argument("--stride", type=int, default=3)
    table5.add_argument("--workers", type=int, default=1, help=workers_help)

    fig08 = sub.add_parser("fig08", help="regenerate the Figure 8 whiskers")
    fig08.add_argument("--platform", default="CPU1")
    fig08.add_argument("--task", default="image")
    fig08.add_argument("--inputs", type=int, default=100)
    fig08.add_argument("--stride", type=int, default=3)
    fig08.add_argument("--workers", type=int, default=1, help=workers_help)

    serve = sub.add_parser("serve", help="run ALERT over one scenario")
    serve.add_argument("--platform", default="CPU1")
    serve.add_argument("--task", default="image")
    serve.add_argument("--env", default="memory")
    serve.add_argument("--inputs", type=int, default=200)
    serve.add_argument("--deadline-factor", type=float, default=1.25)
    serve.add_argument("--accuracy-min", type=float, default=0.90)
    serve.add_argument("--seed", type=int, default=20200417)

    fleet = sub.add_parser(
        "fleet",
        help="open-loop multi-replica serving front-end (virtual time)",
        description=(
            "Drive N ALERT replicas from a seeded open-loop arrival "
            "process on a deterministic virtual clock: a bounded "
            "admission queue drops what the fleet cannot absorb, a "
            "load-balancing policy spreads requests over the replicas "
            "(each with its own controller state), and an optional "
            "global power budget is split equally across them.  Same "
            "seeds => bit-identical metrics."
        ),
    )
    fleet.add_argument("--platform", default="CPU1")
    fleet.add_argument("--task", default="image")
    fleet.add_argument("--env", default="memory")
    fleet.add_argument("--replicas", type=int, default=4)
    fleet.add_argument(
        "--arrivals",
        choices=ARRIVAL_KINDS,
        default="poisson",
        help="arrival process shape (seeded, open loop)",
    )
    fleet.add_argument(
        "--rate",
        type=float,
        default=None,
        help=(
            "mean arrival rate in requests/s; default loads the fleet "
            "at ~0.7 of its aggregate service capacity"
        ),
    )
    fleet.add_argument(
        "--policy",
        choices=POLICY_KINDS,
        default="cost-aware",
        help="load-balancing policy",
    )
    fleet.add_argument(
        "--power-budget",
        type=float,
        default=None,
        help="fleet-wide power budget in W, partitioned across replicas",
    )
    fleet.add_argument(
        "--budget",
        choices=BUDGET_KINDS,
        default="equal",
        help=(
            "power-budget partition policy: equal split, or weighted "
            "by each replica kernel's slowdown belief"
        ),
    )
    fleet.add_argument(
        "--autoscaler",
        choices=AUTOSCALER_KINDS,
        default="none",
        help="replica autoscaling from queue/drop/violation signals",
    )
    fleet.add_argument(
        "--min-replicas",
        type=int,
        default=1,
        help="autoscaler floor (active replicas never drop below)",
    )
    fleet.add_argument(
        "--max-replicas",
        type=int,
        default=None,
        help="autoscaler ceiling (default 2 x --replicas)",
    )
    fleet.add_argument(
        "--batch-size",
        type=int,
        default=1,
        help=(
            "max queued same-goal requests dispatched through one "
            "kernel decide"
        ),
    )
    fleet.add_argument(
        "--clock",
        choices=CLOCK_KINDS,
        default="virtual",
        help=(
            "time authority: deterministic virtual time, or a live "
            "asyncio wall clock (real seconds)"
        ),
    )
    fleet.add_argument(
        "--duration",
        type=float,
        default=120.0,
        help="virtual-time horizon in seconds",
    )
    fleet.add_argument(
        "--queue-capacity",
        type=int,
        default=64,
        help="fleet-wide backlog bound (queued + in flight)",
    )
    fleet.add_argument("--deadline-factor", type=float, default=1.25)
    fleet.add_argument("--accuracy-min", type=float, default=0.90)
    fleet.add_argument("--seed", type=int, default=20200417)
    fleet.add_argument(
        "--arrival-seed",
        type=int,
        default=7,
        help="seed for the arrival process (separate from the scenario)",
    )
    fleet.add_argument(
        "--smoke",
        action="store_true",
        help="short CI run: 2 replicas, 20 virtual seconds, asserts traffic",
    )

    overload = sub.add_parser(
        "overload",
        help="policy x autoscaling overload study under bursty arrivals",
        description=(
            "Drive the same bursty arrival timeline (MMPP or diurnal) "
            "through every load-balancing policy x {static, autoscaled} "
            "x {equal, xi-weighted budget} fleet and compare tail "
            "behaviour: violations, p99 response, drops, energy.  "
            "Deterministic virtual time, fig-style JSON/CSV artifact "
            "via --out."
        ),
    )
    overload.add_argument("--platform", default="CPU1")
    overload.add_argument("--task", default="image")
    overload.add_argument("--env", default="memory")
    overload.add_argument(
        "--arrivals",
        choices=[k for k in ARRIVAL_KINDS if k != "poisson"],
        default="mmpp",
        help="bursty arrival shape driving the overload",
    )
    overload.add_argument(
        "--duration",
        type=float,
        default=240.0,
        help="virtual-time horizon in seconds per fleet",
    )
    overload.add_argument("--seed", type=int, default=20200417)
    overload.add_argument("--arrival-seed", type=int, default=7)
    overload.add_argument(
        "--out",
        default=None,
        help="artifact prefix: writes <out>.json and <out>.csv",
    )
    overload.add_argument(
        "--smoke",
        action="store_true",
        help=(
            "short CI run: shorter horizon, asserts every cell served "
            "traffic and the adaptive fleet dominates the static one"
        ),
    )

    sweep = sub.add_parser(
        "sweep",
        help="declarative (scenario x goal x scheme) sweep, resumable",
        description=(
            "Expand a declarative sweep spec (platforms x tasks x envs x "
            "seeds x the constraint grid x schemes) into one cell per "
            "(scenario, goal) and run each scenario's pending cells as "
            "one scenario-wide spec, with streaming per-cell summaries "
            "(driver memory stays O(cells)).  With --workers > 1 the "
            "specs run as pool tasks, parallel across scenarios (a "
            "scenario splits only when there are fewer scenarios than "
            "workers), and a shared-memory grid store realises each "
            "outcome grid once per sweep instead of once per worker.  "
            "With --checkpoint each cell appends a JSONL line when its "
            "spec finishes, and a restarted sweep resumes "
            "bit-identically."
        ),
    )
    sweep.add_argument("--platforms", nargs="+", default=["CPU1"])
    sweep.add_argument("--tasks", nargs="+", default=["image"])
    sweep.add_argument("--envs", nargs="+", default=["memory"])
    sweep.add_argument(
        "--schemes", nargs="+", default=["Oracle", "OracleStatic", "ALERT"]
    )
    sweep.add_argument(
        "--objectives",
        nargs="+",
        choices=("min_energy", "min_error"),
        default=["min_energy", "min_error"],
        help="which halves of each scenario's constraint grid to sweep",
    )
    sweep.add_argument("--seeds", nargs="+", type=int, default=[20200417])
    sweep.add_argument("--stride", type=int, default=3)
    sweep.add_argument("--inputs", type=int, default=100)
    sweep.add_argument("--workers", type=int, default=1, help=workers_help)
    sweep.add_argument(
        "--checkpoint",
        default=None,
        help="JSONL file completed cells append to (enables resume)",
    )
    sweep.add_argument(
        "--resume",
        action=argparse.BooleanOptionalAction,
        default=True,
        help="skip cells already in the checkpoint (default on)",
    )
    sweep.add_argument(
        "--cell-limit",
        type=int,
        default=None,
        help="execute at most N new cells, then stop (resume testing)",
    )
    sweep.add_argument(
        "--smoke",
        action="store_true",
        help=(
            "short CI run: one scenario, two schemes, strided goals; "
            "asserts every cell completed"
        ),
    )
    return parser


def _run_serve(args: argparse.Namespace) -> str:
    scenario = build_scenario(
        args.platform, args.task, args.env, "standard", args.seed
    )
    goal = Goal(
        objective=ObjectiveKind.MINIMIZE_ENERGY,
        deadline_s=args.deadline_factor * scenario.anchor_latency_s(),
        accuracy_min=args.accuracy_min,
    )
    scheduler = make_alert(scenario.profile())
    result = ServingLoop(
        scenario.make_engine(), scenario.make_stream(), scheduler, goal
    ).run(args.inputs)
    return f"{goal.describe()}\n{result.describe()}"


def _fleet_config(args: argparse.Namespace) -> FleetConfig:
    """Map the ``repro fleet`` argument namespace onto a FleetConfig."""
    return FleetConfig(
        platform=args.platform,
        task=args.task,
        env=args.env,
        replicas=args.replicas,
        arrivals=args.arrivals,
        rate_hz=args.rate,
        policy=args.policy,
        budget=args.budget,
        power_budget_w=args.power_budget,
        autoscaler=args.autoscaler,
        min_replicas=args.min_replicas,
        max_replicas=args.max_replicas,
        batch_size=args.batch_size,
        queue_capacity=args.queue_capacity,
        deadline_factor=args.deadline_factor,
        accuracy_min=args.accuracy_min,
        seed=args.seed,
        arrival_seed=args.arrival_seed,
        clock=args.clock,
    )


def _run_fleet(args: argparse.Namespace) -> str:
    if args.smoke:
        args.replicas = 2
        args.duration = 20.0
    fleet = build_fleet(_fleet_config(args))
    summary = fleet.serve(args.duration)
    if args.smoke and summary["served"] == 0:
        raise SimulationError("fleet smoke run served no requests")
    lines = [
        f"fleet: {args.replicas} x {args.platform}/{args.task}/{args.env}"
        f"  policy={args.policy}  arrivals={args.arrivals}"
        f"  duration={args.duration:g}s ({args.clock})",
        f"  arrived={summary['arrived']}  admitted={summary['admitted']}"
        f"  served={summary['served']}  dropped={summary['dropped']}",
        f"  violations={summary['violations']}"
        f"  (rate {summary['violation_rate']:.3f})",
        f"  p50={summary['p50_response_s'] * 1e3:.1f} ms"
        f"  p99={summary['p99_response_s'] * 1e3:.1f} ms"
        f"  mean service={summary['mean_service_s'] * 1e3:.1f} ms",
        f"  energy={summary['energy_j']:.1f} J"
        f"  per-replica={summary['per_replica_served']}",
    ]
    scaling = summary.get("autoscaler")
    if scaling is not None:
        lines.append(
            f"  autoscaler: {scaling['scale_ups']} up /"
            f" {scaling['scale_downs']} down"
            f"  max_active={scaling['max_active']}"
            f"  (corridor {scaling['min_replicas']}"
            f"..{scaling['max_replicas']})"
        )
    return "\n".join(lines)


def _run_overload(args: argparse.Namespace) -> str:
    result = experiments.overload_study.run(
        platform=args.platform,
        task=args.task,
        env=args.env,
        arrivals=args.arrivals,
        duration_s=args.duration,
        seed=args.seed,
        arrival_seed=args.arrival_seed,
        smoke=args.smoke,
        out_prefix=args.out,
    )
    return result.describe()


def _run_sweep(args: argparse.Namespace) -> str:
    # Imported lazily: the sweep engine pulls in the whole runtime
    # stack, which the lighter commands never need.
    from repro.runtime.sweep import SweepSpec, run_sweep

    if args.smoke:
        args.platforms = ["CPU1"]
        args.tasks = ["image"]
        args.envs = ["memory"]
        args.schemes = ["Oracle", "OracleStatic"]
        args.stride = max(args.stride, 7)
        args.inputs = min(args.inputs, 20)
    spec = SweepSpec(
        platforms=tuple(args.platforms),
        tasks=tuple(args.tasks),
        envs=tuple(args.envs),
        schemes=tuple(args.schemes),
        objectives=tuple(args.objectives),
        settings_stride=args.stride,
        n_inputs=args.inputs,
        seeds=tuple(args.seeds),
    )
    result = run_sweep(
        spec,
        workers=args.workers,
        checkpoint_path=args.checkpoint,
        resume=args.resume,
        cell_limit=args.cell_limit,
    )
    if args.smoke and not result.complete:
        raise SimulationError("sweep smoke run left cells unexecuted")
    return result.describe()


def main(argv: list[str] | None = None) -> int:
    """Entry point; returns a process exit code."""
    args = build_parser().parse_args(argv)
    if args.command == "fig02":
        print(experiments.fig02_tradeoffs.run().describe())
    elif args.command == "fig03":
        print(experiments.fig03_power_sweep.run().describe())
    elif args.command == "fig06":
        print(experiments.fig06_single_layer.run(n_inputs=30).describe())
    elif args.command == "fig08":
        print(
            experiments.fig08_oracle_comparison.run(
                platform=args.platform,
                task=args.task,
                settings_stride=args.stride,
                n_inputs=args.inputs,
                workers=args.workers,
            ).describe()
        )
    elif args.command == "fig09":
        print(experiments.fig09_trace.run().describe())
    elif args.command == "fig10":
        print(
            experiments.fig10_alert_star.run(
                settings_stride=6, n_inputs=80
            ).describe()
        )
    elif args.command == "fig11":
        print(experiments.fig11_xi_distribution.run().describe())
    elif args.command == "table4":
        print(
            experiments.table4_overall.run(
                platforms=(args.platform,),
                tasks=(args.task,),
                envs=(args.env,),
                settings_stride=args.stride,
                n_inputs=args.inputs,
                workers=args.workers,
            ).describe()
        )
    elif args.command == "table5":
        print(
            experiments.table5_dnn_sets.run(
                platforms=(args.platform,),
                settings_stride=args.stride,
                n_inputs=args.inputs,
                workers=args.workers,
            ).describe()
        )
    elif args.command == "serve":
        print(_run_serve(args))
    elif args.command == "fleet":
        print(_run_fleet(args))
    elif args.command == "overload":
        print(_run_overload(args))
    elif args.command == "sweep":
        print(_run_sweep(args))
    else:  # pragma: no cover - argparse enforces the choices
        return 2
    return 0
