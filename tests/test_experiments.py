"""Integration tests: every experiment driver runs and its headline
shape claims hold (small parameters; the benches run larger ones)."""

from __future__ import annotations

from dataclasses import astuple

import numpy as np
import pytest

from repro.analysis.stats import summarize_runs
from repro.cli import main
from repro.errors import ConfigurationError
from repro.experiments import (
    ablations,
    fig02_tradeoffs,
    fig03_power_sweep,
    fig04_variability,
    fig05_contention,
    fig06_single_layer,
    fig08_oracle_comparison,
    fig09_trace,
    fig10_alert_star,
    fig11_xi_distribution,
    table4_overall,
    table5_dnn_sets,
)
from repro.experiments.harness import evaluate_schemes
from repro.hw.machine import CPU1, CPU2
from repro.workloads.scenarios import (
    build_scenario,
    constraint_grid,
    stride_settings,
)


def test_fig02_spreads():
    result = fig02_tradeoffs.run(n_inputs=4)
    assert 15.0 < result.latency_spread < 22.0
    assert 7.0 < result.error_spread < 9.0
    assert result.energy_spread > 15.0
    assert len(result.points) == 42
    assert result.n_dominated > 5  # many sub-optimal trade-offs
    assert len(result.hull) >= 4
    assert "Figure 2" in result.describe()


def test_fig03_shape():
    result = fig03_power_sweep.run(n_powers=13, n_inputs=6)
    assert result.latency_ratio > 2.0  # >2x faster at full power
    assert 1.15 < result.energy_spread < 1.6  # ~1.3x energy spread
    midpoint = (CPU2.power_min_w + CPU2.power_max_w) / 2
    # Lowest energy at the low-cap end, highest in the upper half.
    assert result.min_energy_power_w < midpoint
    assert result.max_energy_power_w > midpoint
    latencies = [p.latency_s for p in result.points]
    assert latencies == sorted(latencies, reverse=True)


def test_fig04_shape():
    result = fig04_variability.run(n_samples=25)
    # Big image models and BERT don't fit the embedded board.
    assert ("IMG1", "Embedded") in result.skipped
    assert ("NLP2", "Embedded") in result.skipped
    # NLP1 has much larger input-driven variance than images.
    nlp = result.box("NLP1", "CPU2")
    img = result.box("IMG2", "CPU2")
    assert nlp.iqr_ratio > img.iqr_ratio
    # GPU runs CNNs far faster than CPUs.
    assert result.box("IMG2", "GPU").median_s < result.box("IMG2", "CPU2").median_s


def test_fig05_contention_inflates_median_and_tail():
    result = fig05_contention.run(platforms=[CPU1, CPU2], n_samples=25)
    for task, platform in result.combinations():
        assert result.median_inflation(task, platform) > 1.15
        assert result.tail_inflation(task, platform) > 1.15


def test_fig06_single_layer_insufficient():
    result = fig06_single_layer.run(
        n_inputs=10,
        deadlines_s=(0.2, 0.5, 1.0, 1.3),
        accuracy_goals=(0.85, 0.90),
    )
    # Combined dominates: feasible everywhere App is, with less energy.
    assert result.feasible_fraction("combined") >= result.feasible_fraction("app")
    assert result.feasible_fraction("combined") > result.feasible_fraction("sys")
    assert result.mean_overhead_vs_combined("app") > 1.25
    # Sys-level cannot meet deadlines below its pinned model's latency.
    for outcome in result.outcomes:
        if outcome.deadline_s <= 0.5:
            assert outcome.sys_energy_j == fig06_single_layer.INFEASIBLE


def test_table4_cell_orderings():
    result = table4_overall.run(
        platforms=("CPU1",),
        tasks=("image",),
        envs=("memory",),
        schemes=("ALERT", "App-only", "Sys-only", "Oracle", "OracleStatic"),
        objectives=("min_energy",),
        settings_stride=6,
        n_inputs=60,
    )
    (cell,) = result.cells.values()
    # App-only wastes energy; ALERT lands near the oracles.
    assert cell["App-only"].normalized_objective > 1.5
    assert cell["ALERT"].normalized_objective < 1.25
    assert cell["Oracle"].normalized_objective <= 1.05
    # Sys-only violates accuracy constraints it cannot trade for.
    assert cell["Sys-only"].violated_settings >= cell["ALERT"].violated_settings
    means = result.harmonic_means("min_energy")
    assert "ALERT" in means
    assert "Table 4" in result.describe()


def test_table5_candidate_sets():
    result = table5_dnn_sets.run(
        platforms=("CPU1",),
        envs=("memory",),
        objectives=("min_energy",),
        settings_stride=6,
        n_inputs=60,
    )
    (cell,) = result.cells.values()
    for scheme in ("ALERT", "ALERT-Any", "ALERT-Trad"):
        assert scheme in cell
        # Every variant works (Table 5: "ALERT works well with all
        # three DNN sets") — sane normalised energy where defined.
        value = cell[scheme].normalized_objective
        if value == value:  # not NaN
            assert 0.5 < value < 2.5
    # The mixed candidate set is never more violation-prone than both
    # single-kind sets together (it subsumes their options).
    assert cell["ALERT"].violated_settings <= (
        max(
            cell["ALERT-Any"].violated_settings,
            cell["ALERT-Trad"].violated_settings,
        )
        + 1
    )


def _per_objective_cells(scenario, schemes, objectives, stride, n_inputs):
    """The reference: one cell evaluation per (scenario, objective)."""
    grid = constraint_grid(scenario)
    cells = []
    for objective in objectives:
        goals = (
            grid.min_energy_goals if objective == "min_energy"
            else grid.min_error_goals
        )
        runs = evaluate_schemes(
            scenario, stride_settings(goals, stride), schemes,
            n_inputs=n_inputs,
        )
        baseline = runs.scheme_runs("OracleStatic")
        cells.append({
            scheme: summarize_runs(scheme, runs.scheme_runs(scheme), baseline)
            for scheme in schemes
        })
    return cells


def _cell_values(cell):
    """Every field of a cell's summaries, NaN-safe (repr)."""
    return {scheme: repr(astuple(summary)) for scheme, summary in cell.items()}


def _assert_objective_cells_match(cells, reference):
    """``cells`` are one scenario's objective cells, ``reference`` the
    per-objective evaluation's; two objectives' slices swapped would
    fail, since the reference cells differ."""
    assert [_cell_values(cell) for cell in cells] == [
        _cell_values(cell) for cell in reference
    ]
    assert _cell_values(reference[0]) != _cell_values(reference[1])


@pytest.mark.parametrize("task", ["image", "sentence"])
def test_table4_scenario_cell_matches_per_objective_cells(task):
    """One evaluation per scenario, split by objective, summarises every
    objective's cell exactly as evaluating each objective alone."""
    objectives = ("min_energy", "min_error")
    result = table4_overall.run(
        tasks=(task,), envs=("memory",), objectives=objectives,
        settings_stride=6, n_inputs=10, seed=11,
    )
    scenario = build_scenario("CPU1", task, "memory", "standard", 11)
    reference = _per_objective_cells(
        scenario, table4_overall.DEFAULT_SCHEMES, objectives, 6, 10
    )
    assert [key.objective for key in result.cells] == list(objectives)
    _assert_objective_cells_match(list(result.cells.values()), reference)


def test_table5_scenario_cell_matches_per_objective_cells():
    objectives = ("min_energy", "min_error")
    result = table5_dnn_sets.run(
        envs=("compute",), objectives=objectives, settings_stride=6,
        n_inputs=10, seed=12,
    )
    scenario = build_scenario("CPU1", "image", "compute", "standard", 12)
    reference = _per_objective_cells(
        scenario, table5_dnn_sets.SCHEMES, objectives, 6, 10
    )
    assert [key[2] for key in result.cells] == list(objectives)
    _assert_objective_cells_match(list(result.cells.values()), reference)


def test_table4_regroups_every_scenario_in_order():
    """A table over CPU1 and GPU, image and sentence, two environments
    renders every (scenario, objective) cell from one sweep's summaries
    exactly as evaluating each objective alone; the cells come in
    platform, task, environment, objective order, and GPU × sentence
    is skipped."""
    objectives = ("min_energy", "min_error")
    envs = ("default", "memory")
    result = table4_overall.run(
        platforms=("CPU1", "GPU"), tasks=("image", "sentence"), envs=envs,
        objectives=objectives, settings_stride=9, n_inputs=8, seed=13,
    )
    scenarios = [
        (platform, task, env)
        for platform in ("CPU1", "GPU")
        for task in ("image", "sentence")
        for env in envs
        if not (platform == "GPU" and task == "sentence")
    ]
    assert [astuple(key) for key in result.cells] == [
        (*scenario, objective)
        for scenario in scenarios
        for objective in objectives
    ]
    cells = list(result.cells.values())
    for index, scenario in enumerate(scenarios):
        reference = _per_objective_cells(
            build_scenario(*scenario, "standard", 13),
            table4_overall.DEFAULT_SCHEMES, objectives, 9, 8,
        )
        _assert_objective_cells_match(
            cells[2 * index:2 * index + 2], reference
        )


def test_table5_pooled_equals_serial():
    """Two scenarios plan two specs, so two workers run a pool; the
    pooled table equals the serial one in every field."""
    settings = dict(
        envs=("default", "compute"), settings_stride=9, n_inputs=8, seed=12
    )
    serial = table5_dnn_sets.run(workers=1, **settings)
    pooled = table5_dnn_sets.run(workers=2, **settings)
    assert list(pooled.cells) == list(serial.cells)
    assert [_cell_values(cell) for cell in pooled.cells.values()] == [
        _cell_values(cell) for cell in serial.cells.values()
    ]


def test_fig08_whiskers_match_evaluated_runs():
    """Whiskers read from the sweep's summaries equal those of every
    environment's runs evaluated directly."""
    envs = ("default", "memory")
    result = fig08_oracle_comparison.run(
        envs=envs, settings_stride=6, n_inputs=12, seed=21
    )
    expected = []
    for env in envs:
        scenario = build_scenario("CPU1", "image", env, "standard", 21)
        goals = stride_settings(constraint_grid(scenario).min_energy_goals, 6)
        cell = evaluate_schemes(
            scenario, goals, fig08_oracle_comparison.SCHEMES, n_inputs=12
        )
        for scheme in fig08_oracle_comparison.SCHEMES:
            energies = [run.mean_energy_j for run in cell.scheme_runs(scheme)]
            expected.append(
                fig08_oracle_comparison.Whisker(
                    scheme=scheme,
                    env=env,
                    mean_j=float(np.mean(energies)),
                    min_j=float(np.min(energies)),
                    max_j=float(np.max(energies)),
                )
            )
    assert result.whiskers == expected


def test_fig08_whiskers():
    result = fig08_oracle_comparison.run(
        envs=("default",), settings_stride=8, n_inputs=40
    )
    static = result.whisker("OracleStatic", "default")
    oracle = result.whisker("Oracle", "default")
    alert = result.whisker("ALERT", "default")
    assert oracle.mean_j <= static.mean_j * 1.05
    assert alert.mean_j <= static.mean_j * 1.15
    assert static.min_j <= static.mean_j <= static.max_j


def test_fig09_trace_dynamics():
    result = fig09_trace.run(n_inputs=160)
    alert = result.alert
    assert len(alert.quality) == 160
    # Both runs pick the largest traditional network in the quiet
    # prefix ("due to a loose latency constraint").
    assert alert.model[20].startswith("sparse_resnet50")
    # ALERT leans on the anytime network during contention more than
    # outside it; ALERT-Trad cannot at all.
    window = slice(result.contention_start + 5, result.contention_stop)
    anytime_in_window = np.mean(np.asarray(alert.is_anytime[window]))
    anytime_outside = np.mean(
        np.asarray(alert.is_anytime[: result.contention_start])
    )
    assert anytime_in_window >= anytime_outside
    assert not any(result.alert_trad.is_anytime)
    # ALERT's contention-window quality is at least ALERT-Trad's.
    assert result.window_mean_quality(alert) >= (
        result.window_mean_quality(result.alert_trad) - 0.01
    )


def test_fig10_alert_beats_star():
    result = fig10_alert_star.run(
        envs=("memory",),
        candidate_sets=("standard", "trad"),
        settings_stride=10,
        n_inputs=50,
    )
    for candidate_set in ("standard", "trad"):
        assert result.advantage(candidate_set, "memory") > 0


def test_fig11_distribution_shapes():
    result = fig11_xi_distribution.run(n_inputs=120)
    default = result.for_env("default").fit
    memory = result.for_env("memory").fit
    assert default.mean == pytest.approx(1.0, abs=0.05)
    assert default.sigma < 0.1
    assert memory.mean > 1.2
    assert memory.sigma > default.sigma
    # Not perfectly Gaussian, but a workable fit (Section 3.6).
    assert 0.0 < memory.ks_statistic < 0.45


def test_ablation_global_xi_beats_per_config():
    rows = ablations.run_global_xi(settings_stride=12, n_inputs=50)
    alert, per_config = rows
    assert alert.variant == "ALERT"
    # The global filter yields no more violations than starving
    # per-configuration filters.
    assert alert.violated_settings <= per_config.violated_settings


def test_ablation_prth_tightens():
    rows = ablations.run_prth(
        thresholds=(None, 0.99), settings_stride=12, n_inputs=50
    )
    assert set(rows) == {"default", "prth=0.99"}
    # A strict threshold cannot increase violations.
    assert (
        rows["prth=0.99"].violated_settings <= rows["default"].violated_settings + 1
    )


@pytest.mark.parametrize("stride", [0, -3])
@pytest.mark.parametrize(
    "call",
    [
        lambda stride: table4_overall.run(
            envs=("memory",), settings_stride=stride, n_inputs=4
        ),
        lambda stride: table5_dnn_sets.run(
            envs=("memory",), settings_stride=stride, n_inputs=4
        ),
        lambda stride: fig08_oracle_comparison.run(
            envs=("memory",), settings_stride=stride, n_inputs=4
        ),
        lambda stride: fig10_alert_star.run(
            envs=("memory",), settings_stride=stride, n_inputs=4
        ),
        lambda stride: ablations.run_global_xi(settings_stride=stride, n_inputs=4),
        lambda stride: main(["table4", "--stride", str(stride), "--inputs", "4"]),
        lambda stride: main(["table5", "--stride", str(stride), "--inputs", "4"]),
        lambda stride: main(["fig08", "--stride", str(stride), "--inputs", "4"]),
    ],
    ids=[
        "table4", "table5", "fig08", "fig10", "ablations",
        "cli-table4", "cli-table5", "cli-fig08",
    ],
)
def test_drivers_reject_stride_below_one(call, stride):
    """Regression: stride 0 died in a slice ("slice step cannot be
    zero") and a negative stride silently evaluated a reversed set."""
    with pytest.raises(ConfigurationError, match="settings_stride"):
        call(stride)
