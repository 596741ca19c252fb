"""Config parsing, the experiment harness, and the CLI surface."""

import math
from dataclasses import replace

import numpy as np
import pytest

from uav_mec.cli import main
from uav_mec.config import (ExperimentConfig, format_config, load_config,
                            parse_config, save_config)
from uav_mec.errors import ParseError, ValidationError
from uav_mec.experiment import (ResultRow, chunked_metrics, format_rows,
                                run_cell, sweep, write_results)

from .conftest import counting


class TestConfigParsing:
    def test_defaults_match_reference_parameters(self):
        cfg = ExperimentConfig()
        assert cfg.bandwidth_hz == 10e6
        assert cfg.rho0 == pytest.approx(1e-6)
        assert cfg.noise_w == pytest.approx(10 ** -14.4)
        assert cfg.n0_cap == 4

    def test_round_trip_identity(self, tmp_path):
        cfg = replace(ExperimentConfig(), tx_power_w=0.4, n_chunks=5,
                      seeds=(1, 2, 3))
        path = tmp_path / "config.txt"
        save_config(cfg, path)
        assert load_config(path) == cfg

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

    def test_tuple_keys(self):
        cfg = parse_config("chunk_kb_range = 100, 150\nseeds = 0,1,2\n")
        assert cfg.chunk_kb_range == (100.0, 150.0)
        assert cfg.seeds == (0, 1, 2)


class TestRunCell:
    def test_metrics_match_report_for_single_chunk(self):
        cfg = replace(ExperimentConfig(), n_chunks=1, seeds=(0,))
        row = run_cell(cfg, 0, "proposed")
        from uav_mec.orchestrator import run_scheme
        from uav_mec.scenario import generate_scenario
        report = run_scheme(generate_scenario(cfg, 0), "proposed")
        assert row.error == ""
        assert row.objective_s == pytest.approx(report.objective_s, rel=1e-9)
        assert row.delay_stddev_s == pytest.approx(report.delay_stddev_s,
                                                   rel=1e-9)

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

    @pytest.mark.parametrize("workers", ["1", "2"])
    def test_solver_kwargs_reach_every_cell(self, monkeypatch, workers):
        # Seed 1 is one where a one-node association search changes the row.
        monkeypatch.setenv("UAV_MEC_WORKERS", workers)
        cfg = replace(ExperimentConfig(), seeds=(1,))
        rows = sweep(cfg, "n0_cap", [2, 4], schemes=("proposed",),
                     node_budget=1)
        direct = [run_cell(replace(cfg, n0_cap=v), 1, "proposed", "n0_cap",
                           float(v), node_budget=1) for v in (2, 4)]
        strip = lambda r: replace(r, wall_ms=0.0)
        assert [strip(r) for r in rows] == [strip(r) for r in direct]

    def test_unknown_param_rejected(self):
        with pytest.raises(ValueError):
            sweep(ExperimentConfig(), "area_m", [1000.0])

    @pytest.mark.parametrize("param", ["n0_cap", "n_chunks"])
    def test_fractional_integer_values_rejected(self, param):
        cfg = replace(ExperimentConfig(), n_suavs=4, n_targets=5, seeds=(0,))
        with pytest.raises(ValidationError):
            sweep(cfg, param, [2.0, 1.5], schemes=("suav_only",))


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


class TestChunkedMetrics:
    def test_sums_over_chunks(self):
        cfg = replace(ExperimentConfig(), n_chunks=2)
        from uav_mec.orchestrator import placed_for, run_scheme
        from uav_mec.scenario import (Association, feasible_association_mask,
                                      generate_scenario)
        sc = generate_scenario(cfg, 0)
        report = run_scheme(sc, "proposed")
        placed = placed_for(sc, report.alpha, report.scheme)
        assoc = Association(alpha=report.alpha,
                            feasible_mask=np.maximum(
                                report.alpha, feasible_association_mask(sc)))
        objective, spread, exec_e, ruav_e = chunked_metrics(
            placed, assoc, report.beta, report.q_m)
        # Two chunks at the same decision cost at least the single mean-size
        # solve and scale roughly linearly.
        assert objective > report.objective_s
        assert objective == pytest.approx(2.0 * report.objective_s, rel=0.2)
        assert exec_e > 0.0
