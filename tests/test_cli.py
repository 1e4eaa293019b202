"""Tests for the command-line interface."""

from __future__ import annotations

import pytest

from repro import experiments
from repro.cli import build_parser, main
from repro.errors import ConfigurationError


def test_parser_knows_all_commands():
    parser = build_parser()
    for command in ("fig02", "fig03", "fig06", "fig08", "fig09", "fig10",
                    "fig11", "table4", "table5", "serve", "fleet", "overload",
                    "sweep"):
        args = parser.parse_args([command])
        assert args.command == command


#: The grid-evaluating commands and the experiment module each drives.
CELL_COMMANDS = {
    "table4": "table4_overall",
    "table5": "table5_dnn_sets",
    "fig08": "fig08_oracle_comparison",
}


@pytest.mark.parametrize("command", sorted(CELL_COMMANDS))
def test_cli_cell_commands_forward_options(command, monkeypatch, capsys):
    """Each grid command hands its size and pool options to the
    experiment's ``run`` and prints the result."""
    received = {}

    class _Result:
        def describe(self):
            return f"{command} described"

    def fake_run(**kwargs):
        received.update(kwargs)
        return _Result()

    module = getattr(experiments, CELL_COMMANDS[command])
    monkeypatch.setattr(module, "run", fake_run)
    code = main(
        [command, "--platform", "GPU", "--inputs", "7", "--stride", "5",
         "--workers", "2"]
    )
    assert code == 0
    assert capsys.readouterr().out.strip() == f"{command} described"
    assert received["n_inputs"] == 7
    assert received["settings_stride"] == 5
    assert received["workers"] == 2
    platform = received.get("platform", received.get("platforms"))
    assert platform in ("GPU", ("GPU",))


def test_cli_table4_rejects_gpu_sentence(capsys):
    """Regression: ``repro table4 --platform GPU --task sentence``
    printed a Table 4 with no rows and exited 0.  The GPU column reports
    the image task only; a mixed request still skips just that pair."""
    with pytest.raises(ConfigurationError, match="GPU"):
        main(["table4", "--platform", "GPU", "--task", "sentence",
              "--inputs", "5"])
    assert "Table 4" not in capsys.readouterr().out
    mixed = experiments.table4_overall.run(
        platforms=("GPU", "CPU1"), tasks=("sentence",), envs=("default",),
        schemes=("Oracle", "OracleStatic"), objectives=("min_energy",),
        settings_stride=35, n_inputs=4,
    )
    assert [key.platform for key in mixed.cells] == ["CPU1"]


def test_fleet_adaptive_arguments_parsed():
    parser = build_parser()
    args = parser.parse_args(
        [
            "fleet", "--autoscaler", "signal", "--min-replicas", "2",
            "--max-replicas", "6", "--budget", "xi-weighted",
            "--power-budget", "90", "--batch-size", "4",
            "--clock", "virtual",
        ]
    )
    assert args.autoscaler == "signal"
    assert (args.min_replicas, args.max_replicas) == (2, 6)
    assert args.budget == "xi-weighted"
    assert args.power_budget == 90.0
    assert args.batch_size == 4
    assert args.clock == "virtual"
    with pytest.raises(SystemExit):
        parser.parse_args(["fleet", "--budget", "proportional"])
    with pytest.raises(SystemExit):
        parser.parse_args(["fleet", "--autoscaler", "reactive"])


@pytest.mark.parametrize(
    "shape",
    [
        ["--replicas", "2", "--min-replicas", "3", "--max-replicas", "6"],
        ["--replicas", "4", "--max-replicas", "2"],
    ],
)
def test_fleet_refuses_to_start_outside_the_autoscaler_corridor(shape):
    with pytest.raises(ConfigurationError, match="corridor"):
        main(
            ["fleet", "--autoscaler", "signal", *shape,
             "--rate", "2", "--duration", "30"]
        )


@pytest.mark.parametrize(
    "argv",
    [
        ["fleet", "--rate", "nan", "--duration", "5"],
        ["fleet", "--rate", "inf", "--duration", "5"],
        ["fleet", "--duration", "nan"],
        ["fleet", "--duration", "inf"],
        ["fleet", "--deadline-factor", "nan", "--duration", "5"],
        ["fleet", "--power-budget", "nan", "--duration", "5"],
        ["overload", "--duration", "nan"],
        ["overload", "--duration", "inf"],
        ["serve", "--deadline-factor", "nan", "--inputs", "5"],
        ["serve", "--deadline-factor", "inf", "--inputs", "5"],
    ],
    ids=[
        "fleet-rate-nan", "fleet-rate-inf", "fleet-duration-nan",
        "fleet-duration-inf", "fleet-deadline-nan", "fleet-budget-nan",
        "overload-duration-nan", "overload-duration-inf",
        "serve-deadline-nan", "serve-deadline-inf",
    ],
)
def test_cli_refuses_non_finite_values(argv, no_event_loop):
    """Each of these hung, served with no deadline, or crashed deep in
    the meter; now each is refused before any event loop starts."""
    with pytest.raises(ConfigurationError, match="finite"):
        main(argv)


def test_overload_arguments_parsed():
    parser = build_parser()
    args = parser.parse_args(
        ["overload", "--arrivals", "diurnal", "--out", "study", "--smoke"]
    )
    assert args.arrivals == "diurnal"
    assert args.out == "study"
    assert args.smoke
    # The study is about bursts; steady poisson is not a valid shape.
    with pytest.raises(SystemExit):
        parser.parse_args(["overload", "--arrivals", "poisson"])


def test_fleet_smoke_runs_end_to_end(capsys):
    code = main(
        ["fleet", "--smoke", "--autoscaler", "signal",
         "--budget", "xi-weighted", "--power-budget", "90"]
    )
    assert code == 0
    out = capsys.readouterr().out
    assert "fleet: 2 x" in out
    assert "autoscaler:" in out


def test_serve_arguments_parsed():
    parser = build_parser()
    args = parser.parse_args(
        ["serve", "--platform", "CPU2", "--inputs", "50", "--env", "compute"]
    )
    assert args.platform == "CPU2"
    assert args.inputs == 50
    assert args.env == "compute"


def test_missing_command_errors():
    with pytest.raises(SystemExit):
        build_parser().parse_args([])


def test_serve_runs_end_to_end(capsys):
    code = main(["serve", "--inputs", "25", "--env", "default"])
    assert code == 0
    out = capsys.readouterr().out
    assert "minimize_energy" in out
    assert "ALERT" in out


def test_fig02_command_prints_table(capsys):
    code = main(["fig02"])
    assert code == 0
    out = capsys.readouterr().out
    assert "Figure 2" in out
    assert "nasnet_large" in out
