"""Config parsing, the experiment harness, and the CLI surface."""

import math
from dataclasses import replace

import numpy as np
import pytest

from uav_mec import experiment
from uav_mec.cli import main
from uav_mec.config import ExperimentConfig, load_config, parse_config
from uav_mec.errors import ParseError, ValidationError
from uav_mec.experiment import (ResultRow, chunked_metrics, format_rows,
                                run_cell, sweep, write_results)
from uav_mec.orchestrator import SCHEMES

from .conftest import counting


class TestConfigParsing:
    def test_defaults_match_reference_parameters(self):
        cfg = ExperimentConfig()
        assert cfg.bandwidth_hz == 10e6
        assert cfg.rho0 == pytest.approx(1e-6)
        assert cfg.noise_w == pytest.approx(10 ** -14.4)
        assert cfg.n0_cap == 4

    def test_overrides_and_comments(self):
        cfg = parse_config("# comment\n tx_power_w = 0.5 \nn_chunks = 2\n")
        assert cfg.tx_power_w == 0.5
        assert cfg.n_chunks == 2

    def test_unknown_key(self):
        with pytest.raises(ValidationError):
            parse_config("no_such_key = 1\n")

    def test_bad_value_reports_line(self):
        with pytest.raises(ParseError) as err:
            parse_config("tx_power_w = 0.5\nn_chunks = two\n")
        assert err.value.line == 2

    def test_duplicate_key(self):
        with pytest.raises(ParseError):
            parse_config("tx_power_w = 0.5\ntx_power_w = 0.6\n")

    def test_negative_bandwidth_rejected(self):
        with pytest.raises(ValidationError):
            parse_config("bandwidth_hz = -1\n")

    @pytest.mark.parametrize("text", [
        "bandwidth_hz = inf\n",
        "tx_power_w = nan\n",
        "chunk_kb_range = 100, inf\n",
        "ruav_box = -inf, 0, 100, 1000, 1000, 1000\n",
        "seeds = 0, -1\n",
    ], ids=["inf_bandwidth", "nan_power", "inf_chunk_range", "inf_ruav_box",
            "negative_seed"])
    def test_non_finite_values_and_negative_seeds_rejected(self, text):
        with pytest.raises(ValidationError):
            parse_config(text)

    def test_non_integral_seeds_rejected(self):
        # The seeds reach the generator's RNG, which takes integers only.
        cfg = replace(ExperimentConfig(), seeds=(0, 0.5))
        with pytest.raises(ValidationError,
                           match=r"^seeds must be integers, got 0\.5$"):
            cfg.validate()
        with pytest.raises(ValidationError, match="^seeds must be integers"):
            sweep(replace(cfg, seeds=(0.5,)), "n0_cap", [4],
                  schemes=("proposed",))
        replace(ExperimentConfig(), seeds=(np.int64(3), 4)).validate()

    def test_tuple_keys(self):
        cfg = parse_config("chunk_kb_range = 100, 150\nseeds = 0,1,2\n")
        assert cfg.chunk_kb_range == (100.0, 150.0)
        assert cfg.seeds == (0, 1, 2)


class TestRunCell:
    def test_metrics_match_report_for_single_chunk(self):
        cfg = replace(ExperimentConfig(), n_chunks=1, seeds=(0,))
        row = run_cell(cfg, 0, "proposed")
        from uav_mec.cost import evaluate_solution
        from uav_mec.orchestrator import run_scheme
        from uav_mec.scenario import (Association, generate_scenario,
                                      repositioned_scenario)
        sc = generate_scenario(cfg, 0)
        report = run_scheme(sc, "proposed")
        objective, spread, _, _ = evaluate_solution(
            repositioned_scenario(sc, report.alpha),
            Association(alpha=report.alpha, feasible_mask=report.alpha),
            report.beta, report.q_m)
        assert row.error == ""
        assert objective == report.objective_s
        assert row.objective_s == pytest.approx(objective, rel=1e-9)
        assert row.delay_stddev_s == pytest.approx(spread, rel=1e-9)

    def test_chunk_count_scales_latency(self):
        rows = {k: run_cell(replace(ExperimentConfig(), n_chunks=k), 0,
                            "proposed")
                for k in (1, 3)}
        assert rows[3].objective_s > rows[1].objective_s

    def test_error_rows_capture_failures(self):
        cfg = replace(ExperimentConfig(), energy_budget_suav_j=1e-6)
        row = run_cell(cfg, 0, "proposed")
        assert row.error != ""
        assert math.isnan(row.objective_s)

    @pytest.mark.parametrize("key", ["n_suavs", "n_targets", "n_chunks",
                                     "n0_cap", "r_max"])
    def test_a_non_integral_count_gives_an_error_row(self, key):
        # 2.5 passes every range check, so only the type test stops it
        # before it reaches range() or an array shape.
        cfg = replace(ExperimentConfig(), **{key: 2.5})
        with pytest.raises(ValidationError, match=f"^{key} must be an "
                           "integer, got 2.5$"):
            cfg.validate()
        row = run_cell(cfg, 0, "proposed")
        assert row.error == f"ValidationError: {key} must be an integer, " \
            "got 2.5"
        assert math.isnan(row.objective_s)
        # NumPy integers count as integers.
        default = getattr(ExperimentConfig(), key)
        replace(ExperimentConfig(), **{key: np.int64(default)}).validate()


@pytest.fixture(scope="module")
def small_sweep():
    cfg = replace(ExperimentConfig(), seeds=(0, 1))
    return sweep(cfg, "tx_power_w", [0.4, 0.8],
                 schemes=("proposed", "suav_only"))


class TestSweep:
    def test_row_grid_complete(self, small_sweep):
        assert len(small_sweep) == 2 * 2 * 2
        keys = {(r.seed, r.scheme, r.swept_value) for r in small_sweep}
        assert len(keys) == 8

    def test_rows_sorted(self, small_sweep):
        keys = [(r.seed, r.scheme, r.swept_value) for r in small_sweep]
        assert keys == sorted(keys)

    def test_deterministic_apart_from_timing(self, small_sweep):
        cfg = replace(ExperimentConfig(), seeds=(0, 1))
        again = sweep(cfg, "tx_power_w", [0.4, 0.8],
                      schemes=("proposed", "suav_only"))
        strip = lambda r: replace(r, wall_ms=0.0)
        assert [strip(r) for r in small_sweep] == [strip(r) for r in again]

    def test_sequential_and_pooled_sweeps_agree(self, monkeypatch):
        # The CLI sweeps in a process pool by default; the reference files
        # are written with one worker. Rows are compared as written.
        cfg = replace(ExperimentConfig(), seeds=(0, 1, 2))
        tables = []
        for workers in ("1", "2"):
            monkeypatch.setenv("UAV_MEC_WORKERS", workers)
            rows = sweep(cfg, "n0_cap", [2, 6])
            tables.append(format_rows([replace(r, wall_ms=0.0)
                                       for r in rows]))
        assert tables[0] == tables[1]
        assert len(tables[0].splitlines()) == 1 + 3 * 2 * 4

    def test_unknown_param_rejected(self):
        with pytest.raises(ValueError):
            sweep(ExperimentConfig(), "area_m", [1000.0])

    @pytest.mark.parametrize("param", ["n0_cap", "n_chunks"])
    def test_fractional_integer_values_rejected(self, param):
        cfg = replace(ExperimentConfig(), n_suavs=4, n_targets=5, seeds=(0,))
        with pytest.raises(ValidationError):
            sweep(cfg, param, [2.0, 1.5], schemes=("suav_only",))


def _slow_draws(monkeypatch):
    """Make experiment's clock move only in a draw, by 1 s a draw, so that a
    row's wall_ms shows whether it carries a draw. Returns the draw count."""
    class Clock:
        now = 0.0

        @classmethod
        def monotonic(cls):
            return cls.now

    real, draws = experiment.generate_scenario, []

    def draw(config, seed):
        draws.append(seed)
        Clock.now += 1.0
        return real(config, seed)

    monkeypatch.setattr(experiment, "time", Clock)
    monkeypatch.setattr(experiment, "generate_scenario", draw)
    return draws


def _without_wall_ms(rows) -> str:
    # format_rows prints nan as nan, so error rows compare equal too.
    return format_rows([replace(r, wall_ms=0.0) for r in rows])


class TestOneDrawPerGroup:
    """A sweep draws each (value, seed) scenario once, and every scheme of
    the group solves that draw. Its rows are run_cell's apart from wall_ms,
    and the group's draw time goes to its first row in schemes order."""

    def test_a_sequential_sweep_draws_once_per_value_and_seed(
            self, monkeypatch):
        monkeypatch.setenv("UAV_MEC_WORKERS", "1")
        cfg = replace(ExperimentConfig(), n_targets=10, seeds=(0, 1))
        draws = counting(monkeypatch, experiment, "generate_scenario")
        rows = sweep(cfg, "n0_cap", [2, 4])
        assert len(draws) == 2 * 2
        cells = sorted((run_cell(replace(cfg, n0_cap=cap), seed, scheme,
                                 "n0_cap", float(cap))
                        for cap in (2, 4) for seed in (0, 1)
                        for scheme in SCHEMES),
                       key=lambda r: (r.seed, r.scheme, r.swept_value))
        assert len(draws) == 4 + len(cells)
        assert not any(r.error for r in rows)
        assert _without_wall_ms(rows) == _without_wall_ms(cells)

    def test_exactly_one_row_per_group_carries_the_draw(self, monkeypatch):
        monkeypatch.setenv("UAV_MEC_WORKERS", "1")
        draws = _slow_draws(monkeypatch)
        cfg = replace(ExperimentConfig(), n_targets=10, seeds=(0, 1))
        schemes = ("suav_only", "proposed", "static_suavs")
        rows = sweep(cfg, "tx_power_w", [0.4, 0.8], schemes=schemes)
        assert len(draws) == 4
        for value in (0.4, 0.8):
            for seed in (0, 1):
                by_scheme = {r.scheme: r.wall_ms for r in rows
                             if (r.seed, r.swept_value) == (seed, value)}
                assert [by_scheme[s] for s in schemes] == [1e3, 0.0, 0.0]

    def test_an_infeasible_draw_gives_each_scheme_run_cells_error_row(
            self, monkeypatch):
        monkeypatch.setenv("UAV_MEC_WORKERS", "1")
        # No target of a 100 km square lands in a footprint of the grid.
        cfg = replace(ExperimentConfig(), area_m=1e5, n_suavs=2, n_targets=3,
                      n0_cap=1, seeds=(0,))
        draws = _slow_draws(monkeypatch)
        rows = sweep(cfg, "n0_cap", [1])
        # The group's draw fails, then each scheme's run_cell draws again.
        assert len(draws) == 1 + len(SCHEMES)
        assert all(r.error.startswith("InfeasibleScenario: ") for r in rows)
        assert sorted(r.wall_ms for r in rows) == [1e3, 1e3, 1e3, 2e3]
        cells = [run_cell(cfg, 0, scheme, "n0_cap", 1.0)
                 for scheme in sorted(SCHEMES)]
        assert _without_wall_ms(rows) == _without_wall_ms(cells)

    def test_a_pool_runs_one_group_per_task(self, monkeypatch):
        # One group on two workers still goes to the pool as one task.
        class InlinePool:
            mapped = []

            def __init__(self, max_workers):
                pass

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

            def map(self, fn, *args, chunksize):
                self.mapped.append(fn)
                return map(fn, *args)

        cfg = replace(ExperimentConfig(), n_targets=10, seeds=(0,))
        schemes = ("proposed", "suav_only")
        monkeypatch.setenv("UAV_MEC_WORKERS", "1")
        sequential = _without_wall_ms(sweep(cfg, "n_chunks", [2], schemes))
        monkeypatch.setenv("UAV_MEC_WORKERS", "2")
        monkeypatch.setattr(experiment, "ProcessPoolExecutor", InlinePool)
        draws = counting(monkeypatch, experiment, "generate_scenario")
        pooled = _without_wall_ms(sweep(cfg, "n_chunks", [2], schemes))
        assert InlinePool.mapped == [experiment.run_group]
        assert len(draws) == 1
        assert pooled == sequential

    def test_run_solves_its_schemes_on_one_draw(self, monkeypatch, tmp_path):
        cfg_path = tmp_path / "cfg.txt"
        cfg_path.write_text("n_targets = 10\n")
        out = tmp_path / "rows.txt"
        draws = counting(monkeypatch, experiment, "generate_scenario")
        assert main(["run", "--config", str(cfg_path), "--seed", "2",
                     "--out", str(out)]) == 0
        assert len(draws) == 1
        cfg = load_config(cfg_path)
        cells = [run_cell(cfg, 2, scheme) for scheme in SCHEMES]
        lines = out.read_text().splitlines()
        wall = lines[0].split(",").index("wall_ms")
        strip = lambda line: line.split(",")[:wall] + line.split(",")[wall + 1:]
        assert ([strip(line) for line in lines]
                == [strip(line) for line in format_rows(cells).splitlines()])


class TestOutput:
    def test_single_row_two_lines(self, tmp_path):
        row = ResultRow(seed=0, scheme="proposed", swept_param_name="",
                        swept_value=float("nan"), objective_s=1.0,
                        delay_stddev_s=0.5, suav_exec_energy_j=10.0,
                        ruav_energy_j=2.0, outer_iters=3, wall_ms=1.5)
        path = tmp_path / "out.txt"
        write_results([row], path)
        lines = path.read_text().splitlines()
        assert len(lines) == 2
        assert lines[0].startswith("seed,scheme,")

    def test_empty_refused(self, tmp_path):
        with pytest.raises(ValueError):
            write_results([], tmp_path / "out.txt")


class TestCli:
    def test_run_writes_rows(self, tmp_path, capsys):
        out = tmp_path / "rows.txt"
        code = main(["run", "--seed", "0", "--scheme", "suav_only",
                     "--out", str(out)])
        assert code == 0
        lines = out.read_text().splitlines()
        assert len(lines) == 2
        assert "suav_only" in lines[1]

    def test_run_with_config(self, tmp_path):
        cfg_path = tmp_path / "cfg.txt"
        cfg_path.write_text("n_chunks = 1\nn_targets = 10\n")
        out = tmp_path / "rows.txt"
        code = main(["run", "--config", str(cfg_path), "--scheme", "suav_only",
                     "--out", str(out)])
        assert code == 0

    def test_bad_config_exit_2(self, tmp_path, capsys):
        cfg_path = tmp_path / "cfg.txt"
        cfg_path.write_text("bandwidth_hz = -5\n")
        assert main(["run", "--config", str(cfg_path)]) == 2

    def test_non_numeric_sweep_values_exit_2(self, capsys):
        assert main(["sweep", "--param", "n0_cap", "--values", "abc"]) == 2
        err = capsys.readouterr().err
        assert err.startswith("config error: ") and err.count("\n") == 1

    def test_fractional_cap_sweep_values_exit_2(self, tmp_path, capsys):
        cfg_path = tmp_path / "cfg.txt"
        cfg_path.write_text("n_suavs = 4\nn_targets = 5\nseeds = 0\n")
        args = ["sweep", "--config", str(cfg_path), "--param", "n0_cap",
                "--scheme", "suav_only", "--values"]
        assert main(args + ["1.5,2.9"]) == 2
        err = capsys.readouterr().err
        assert err.startswith("config error: ") and "n0_cap" in err
        assert main(args + ["2,2.0"]) == 0  # integral floats stay valid

    def test_missing_config_file_exit_2(self, tmp_path, capsys):
        missing = tmp_path / "nonexistent.cfg"
        assert main(["run", "--config", str(missing)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("config error: ") and err.count("\n") == 1
        assert str(missing) in err

    def test_negative_seed_exit_2(self, capsys):
        assert main(["trace", "--seed", "-1"]) == 2
        err = capsys.readouterr().err
        assert err.startswith("config error: ") and err.count("\n") == 1

    def test_negative_config_seed_sweep_exit_2(self, tmp_path, capsys):
        cfg_path = tmp_path / "cfg.txt"
        cfg_path.write_text("seeds = -1\n")
        assert main(["sweep", "--config", str(cfg_path), "--param", "n0_cap",
                     "--values", "2", "--scheme", "suav_only"]) == 2
        err = capsys.readouterr().err
        assert err.startswith("config error: ") and "seeds" in err

    def test_non_integral_config_seed_sweep_exit_2(self, tmp_path, capsys,
                                                   monkeypatch):
        # A config file cannot give one (its seeds parse as integers), but
        # a config built in code can; sweep refuses it before any draw.
        from uav_mec import cli
        monkeypatch.setattr(cli, "load_config", lambda path: replace(
            ExperimentConfig(), seeds=(0.5,)))
        draws = counting(monkeypatch, experiment, "generate_scenario")
        assert main(["sweep", "--config", str(tmp_path / "cfg.txt"),
                     "--param", "n0_cap", "--values", "2",
                     "--scheme", "suav_only"]) == 2
        err = capsys.readouterr().err
        assert err == "config error: seeds must be integers, got 0.5\n"
        assert draws == []

    @pytest.mark.parametrize("workers", ["abc", "-1", "1.5"])
    def test_bad_workers_env_sweep_exit_2(self, tmp_path, capsys,
                                          monkeypatch, workers):
        monkeypatch.setenv("UAV_MEC_WORKERS", workers)
        cfg_path = tmp_path / "cfg.txt"
        cfg_path.write_text(
            "n_suavs = 2\nn_targets = 3\nn0_cap = 1\nseeds = 0\n")
        assert main(["sweep", "--config", str(cfg_path), "--param",
                     "n_chunks", "--values", "1,2",
                     "--scheme", "suav_only"]) == 2
        err = capsys.readouterr().err
        assert err.startswith("config error: ") and "UAV_MEC_WORKERS" in err

    @pytest.mark.parametrize("command", [
        ["run", "--scheme", "suav_only"],
        ["sweep", "--param", "n0_cap", "--values", "1", "--scheme",
         "suav_only"],
        ["trace"],
        ["oracle"],
    ])
    @pytest.mark.parametrize("missing_parent", [False, True])
    def test_unwritable_out_exit_2(self, monkeypatch, tmp_path, capsys,
                                   command, missing_parent):
        # The path is checked before any solve: no cell or scheme runs.
        from uav_mec import cli

        def unreachable(*args, **kwargs):
            raise AssertionError("solved before checking --out")
        for module, name in [(experiment, "run_cell"),
                             (experiment, "generate_scenario"),
                             (cli, "generate_scenario"), (cli, "run_scheme")]:
            monkeypatch.setattr(module, name, unreachable)
        cfg_path = tmp_path / "cfg.txt"
        cfg_path.write_text("n_suavs = 2\nn_targets = 3\nn0_cap = 1\n"
                            "seeds = 0\n")
        out = tmp_path / "missing" / "rows.txt" if missing_parent else tmp_path
        assert main(command + ["--config", str(cfg_path),
                               "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("config error: ") and err.count("\n") == 1
        assert str(out) in err

    @pytest.mark.parametrize("workers,expected",
                             [(None, None), ("0", None), ("3", 3)])
    def test_workers_env_values(self, monkeypatch, workers, expected):
        from uav_mec.experiment import sweep_workers
        if workers is None:
            monkeypatch.delenv("UAV_MEC_WORKERS", raising=False)
        else:
            monkeypatch.setenv("UAV_MEC_WORKERS", workers)
        assert sweep_workers() == expected

    def test_sweep_subcommand(self, tmp_path):
        cfg_path = tmp_path / "cfg.txt"
        cfg_path.write_text("seeds = 0\n")
        out = tmp_path / "sweep.txt"
        code = main(["sweep", "--config", str(cfg_path), "--param", "n0_cap",
                     "--values", "2,4", "--scheme", "suav_only",
                     "--out", str(out)])
        assert code == 0
        assert len(out.read_text().splitlines()) == 3

    def test_trace_subcommand(self, tmp_path):
        cfg_path = tmp_path / "cfg.txt"
        cfg_path.write_text("n_targets = 10\n")
        out = tmp_path / "trace.txt"
        code = main(["trace", "--config", str(cfg_path), "--seed", "1",
                     "--out", str(out)])
        assert code == 0
        text = out.read_text()
        assert text.startswith("iteration,objective_s")
        assert "sca_iteration" in text

    def test_trace_prints_the_solves_sca_traces(self, tmp_path, monkeypatch):
        from uav_mec import placement
        from uav_mec.orchestrator import run_scheme
        from uav_mec.scenario import generate_scenario
        cfg_path = tmp_path / "cfg.txt"
        cfg_path.write_text("n_targets = 10\n")
        out = tmp_path / "trace.txt"
        calls = counting(monkeypatch, placement, "sca_loop")
        assert main(["trace", "--config", str(cfg_path), "--seed", "1",
                     "--out", str(out)]) == 0
        trace_calls = len(calls)
        cfg = load_config(cfg_path)
        report = run_scheme(generate_scenario(cfg, 1), "proposed",
                            tol=cfg.tol, r_max=cfg.r_max)
        assert trace_calls == len(calls) - trace_calls == report.iterations
        lines = out.read_text().splitlines()
        header = lines.index("outer_iteration,sca_iteration,objective_s")
        rows = [line.split(",") for line in lines[header + 1:]]
        expected = [(k, i, value)
                    for k, sca in enumerate(report.sca_traces, start=1)
                    for i, value in enumerate(sca)]
        assert [(int(k), int(i), float(v)) for k, i, v in rows] == expected

    def test_oracle_subcommand(self, tmp_path, capsys):
        cfg_path = tmp_path / "cfg.txt"
        cfg_path.write_text("n_suavs = 2\nn_targets = 3\nn0_cap = 1\n")
        code = main(["oracle", "--config", str(cfg_path), "--seed", "0"])
        captured = capsys.readouterr()
        assert code == 0
        assert "relative_gap" in captured.out
        out = tmp_path / "gap.txt"
        assert main(["oracle", "--config", str(cfg_path), "--seed", "0",
                     "--out", str(out)]) == 0
        assert capsys.readouterr().out == ""
        assert out.read_text() == captured.out

    def test_oracle_refuses_a_fleet_it_cannot_enumerate(self, capsys):
        # 16 x 40 has more than 1e12 exactly-one associations: the joint
        # brute force counts them first and refuses instead of running on.
        import time
        from pathlib import Path

        from uav_mec.scenario import (feasible_association_mask,
                                      generate_scenario)
        cfg_path = Path(__file__).resolve().parents[1] / "scripts" / "fleet.cfg"
        start = time.monotonic()
        assert main(["oracle", "--config", str(cfg_path), "--seed", "0"]) == 2
        assert time.monotonic() - start < 30.0
        mask = feasible_association_mask(
            generate_scenario(load_config(cfg_path), 0))
        count = math.prod(int(n) for n in mask.sum(axis=1))
        err = capsys.readouterr().err
        assert err.startswith("config error: ") and err.count("\n") == 1
        assert f" {count} associations" in err


class TestChunkedMetrics:
    def test_sums_over_chunks(self):
        cfg = replace(ExperimentConfig(), n_chunks=2)
        from uav_mec.orchestrator import run_scheme
        from uav_mec.scenario import generate_scenario, repositioned_scenario
        sc = generate_scenario(cfg, 0)
        report = run_scheme(sc, "proposed")
        placed = repositioned_scenario(sc, report.alpha)
        objective, spread, exec_e, ruav_e = chunked_metrics(
            placed, report.alpha, report.beta, report.q_m, cfg.n_chunks)
        # Two chunks at the same decision cost twice the mean-size solve:
        # latency is linear in the bits on both branches.
        assert objective == 2.0 * report.objective_s
        assert exec_e > 0.0

    @pytest.mark.parametrize("n_chunks", [1, 2, 3, 4, 5])
    def test_row_is_n_chunks_times_the_evaluator(self, n_chunks):
        from uav_mec.cost import evaluate_solution
        from uav_mec.orchestrator import SCHEMES, run_scheme
        from uav_mec.scenario import (Association, feasible_association_mask,
                                      generate_scenario)
        cfg = replace(ExperimentConfig(), n_chunks=n_chunks)
        for seed in range(3):
            sc = generate_scenario(cfg, seed)
            mask = feasible_association_mask(sc)
            for scheme in SCHEMES:
                row = run_cell(cfg, seed, scheme)
                report = run_scheme(sc, scheme, tol=cfg.tol, r_max=cfg.r_max)
                assert row.error == ""
                assert row.objective_s == n_chunks * report.objective_s
                objective, spread, _, energies = evaluate_solution(
                    report.placed, Association(report.alpha, mask),
                    report.beta, report.q_m)
                assert row.objective_s == n_chunks * objective
                assert row.delay_stddev_s == n_chunks * spread
                assert row.suav_exec_energy_j == n_chunks * sum(
                    e.comm_j + e.comp_j for e in energies[:-1])
                assert row.ruav_energy_j == n_chunks * energies[-1].comp_j
