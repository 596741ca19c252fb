"""Smoke tests of the experiment scripts, each run as its own process."""

import importlib.util
import os
import subprocess
import sys
from pathlib import Path

import pytest

from uav_mec import orchestrator
from uav_mec.config import load_config, parse_seeds
from uav_mec.errors import ValidationError

ROOT = Path(__file__).resolve().parents[1]


def run_script(name, *args, cwd=None):
    path = filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")])
    env = dict(os.environ, UAV_MEC_WORKERS="1",
               PYTHONPATH=os.pathsep.join(path))
    return subprocess.run(
        [sys.executable, str(ROOT / "scripts" / name), *args], env=env,
        cwd=cwd, capture_output=True, text=True, timeout=300)


def load_script(name):
    """scripts/<name>.py as a module, run in this process."""
    spec = importlib.util.spec_from_file_location(
        name, ROOT / "scripts" / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


class TestGoldenDigests:
    """The four bit-identity gates of scripts/digest.py, rerun and compared
    with their outputs in tests/golden/: a change that moves any result in
    its last bit fails here. A golden file made under other Python or NumPy
    versions is skipped, since those may move the last bit on their own."""

    @pytest.mark.parametrize("name", ["reference", "relay_sweep", "fleet",
                                      "link"])
    def test_gate_matches_its_golden_file(self, monkeypatch, name):
        monkeypatch.setenv("UAV_MEC_WORKERS", "1")
        digest = load_script("digest")
        header, *golden = (digest.GOLDEN / f"digest_{name}.txt"
                           ).read_text().splitlines()
        made_by = header.removeprefix("# ")
        if made_by != digest.versions():
            pytest.skip(f"tests/golden/digest_{name}.txt was made by "
                        f"{made_by}, this is {digest.versions()}; rerun "
                        "scripts/digest.py --write on the parent commit to "
                        "compare")
        # pytest names the first line that differs: its seed and scheme.
        assert digest.gate_lines(name) == golden


class TestParseSeeds:
    @pytest.mark.parametrize("text,seeds", [("0-3", (0, 1, 2, 3)),
                                            ("4", (4,)), ("2,0,7", (2, 0, 7)),
                                            ("5-2", ())])
    def test_ranges_and_lists(self, text, seeds):
        assert parse_seeds(text) == seeds

    @pytest.mark.parametrize("text", ["abc", "-1", "1-2-3", "", "1,,2"])
    def test_non_integers_rejected(self, text):
        with pytest.raises(ValidationError):
            parse_seeds(text)


class TestScripts:
    def test_compare_schemes(self):
        done = run_script("compare_schemes.py", "--seeds", "0")
        assert done.returncode == 0, done.stderr
        assert done.stdout.splitlines()[-1].startswith("mean")

    # Either key alone stops proposed at seed 0 after one outer iteration;
    # at the defaults it takes two.
    @pytest.mark.parametrize("line", ["r_max = 1", "tol = 10"])
    def test_compare_schemes_solves_with_the_config_stopping_rule(
            self, monkeypatch, tmp_path, line):
        module = load_script("compare_schemes")
        iterations = []

        def run_scheme(*args, **kwargs):
            report = orchestrator.run_scheme(*args, **kwargs)
            iterations.append(report.iterations)
            return report

        monkeypatch.setattr(module, "run_scheme", run_scheme)
        cfg = tmp_path / "cfg.txt"
        cfg.write_text(line + "\n")
        assert module.main(["--seeds", "0", "--config", str(cfg)]) == 0
        assert iterations == [1] * len(orchestrator.SCHEMES)

    def test_oracle_gaps(self):
        done = run_script("oracle_gaps.py", "--seeds", "0",
                          "--n-suavs", "2", "--n-targets", "3")
        assert done.returncode == 0, done.stderr
        assert "worst relative gap" in done.stdout

    def test_oracle_gaps_refuses_a_fleet_it_cannot_enumerate(self):
        done = run_script("oracle_gaps.py", "--seeds", "0",
                          "--n-suavs", "16", "--n-targets", "40")
        assert done.returncode == 2
        assert done.stderr.startswith("config error: ")
        assert "associations" in done.stderr

    def test_run_sweeps(self, tmp_path):
        done = run_script("run_sweeps.py", "--seeds", "0",
                          "--schemes", "proposed", "--out", str(tmp_path))
        assert done.returncode == 0, done.stderr
        assert sorted(p.name for p in tmp_path.iterdir()) == [
            "sweep_cpu_suav_hz.txt", "sweep_n0_cap.txt", "sweep_n_chunks.txt",
            "sweep_tx_power_w.txt"]

    def test_digest(self):
        # One line per scheme at seed 0, then one for the n0_cap sweep, each
        # ending in a sha256.
        done = run_script("digest.py", "--seeds", "0")
        assert done.returncode == 0, done.stderr
        lines = [line.split() for line in done.stdout.splitlines()]
        assert [line[:2] for line in lines[:-1]] == [
            ["0", scheme] for scheme in orchestrator.SCHEMES]
        assert lines[-1][0] == "sweep"
        assert all(len(line[-1]) == 64 for line in lines)

    def test_relabel_spread(self):
        # One spread per seed, then the counts above 1e-6 and 1e-3 and the
        # largest spread.
        done = run_script("relabel_spread.py", "--seeds", "0-1")
        assert done.returncode == 0, done.stderr
        *rows, last = [line.split() for line in done.stdout.splitlines()]
        assert [row[0] for row in rows] == ["0", "1"]
        spreads = [float(row[1]) for row in rows]
        assert all(s >= 0.0 for s in spreads)
        assert last == ["above", "1e-6:", str(sum(s > 1e-6 for s in spreads)),
                        "above", "1e-3:", str(sum(s > 1e-3 for s in spreads)),
                        "largest:", f"{max(spreads):.3e}"]

    def test_loc(self):
        # One row per module of the package, then the totals of both columns.
        done = run_script("loc.py")
        assert done.returncode == 0, done.stderr
        header, *rows, total = [line.split()
                                for line in done.stdout.splitlines()]
        assert header == ["module", "lines", "code"]
        assert sorted(name for name, _, _ in rows) == sorted(
            p.name for p in (ROOT / "src" / "uav_mec").glob("*.py"))
        assert all(0 < int(code) <= int(lines) for _, lines, code in rows)
        assert total == ["total", str(sum(int(r[1]) for r in rows)),
                         str(sum(int(r[2]) for r in rows))]

    @pytest.mark.parametrize("name", ["relay_sweep", "fleet"])
    def test_gate_configs_are_the_benchmark_workloads(self, monkeypatch,
                                                      name):
        # The bit-identity gate digests the benchmark's configs.
        monkeypatch.syspath_prepend(str(ROOT / "perfbench"))
        import workloads
        assert load_config(ROOT / "scripts" / f"{name}.cfg") == \
            workloads.WORKLOADS[name].config

    def test_link_gate_config_is_link_bound(self):
        # Ten times both CPUs and a tenth of the bandwidth; nothing else
        # differs from the reference.
        from dataclasses import replace

        from uav_mec.config import ExperimentConfig
        assert load_config(ROOT / "scripts" / "link.cfg") == replace(
            ExperimentConfig(), cpu_suav_hz=2e9, cpu_ruav_hz=20e9,
            bandwidth_hz=1e6)

    @pytest.mark.parametrize("args", [
        ("compare_schemes.py", "--seeds", "abc"),
        ("compare_schemes.py", "--seeds", "-1"),
        ("digest.py", "--seeds", "abc"),
        ("oracle_gaps.py", "--seeds", "abc"),
        ("relabel_spread.py", "--seeds", "abc"),
        ("oracle_gaps.py", "--n-suavs", "0"),
        ("oracle_gaps.py", "--n-suavs", "16", "--n-targets", "40"),
        ("run_sweeps.py", "--seeds", "5-2"),
        ("run_sweeps.py", "--schemes", "nonsense"),
        # An output directory that cannot be made: a file holds its name,
        # or one of its parents.
        ("run_sweeps.py", "--seeds", "0", "--schemes", "suav_only",
         "--out", "taken"),
        ("run_sweeps.py", "--seeds", "0", "--schemes", "suav_only",
         "--out", "taken/results"),
    ])
    def test_bad_input_exit_2(self, tmp_path, args):
        (tmp_path / "taken").write_text("")
        done = run_script(*args, cwd=tmp_path)
        assert done.returncode == 2
        assert done.stderr.startswith("config error: ")
        assert done.stderr.count("\n") == 1
        assert done.stdout == ""
