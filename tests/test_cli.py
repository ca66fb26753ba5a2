"""Tests for the ``python -m repro`` command-line interface."""

import json

import pytest

from repro.__main__ import main


class TestCLI:
    def test_list_prints_all_benchmarks(self, capsys):
        assert main(["list"]) == 0
        out = capsys.readouterr().out
        for name in ("Mtrt", "Compress", "RayTracer", "Search"):
            assert name in out

    def test_bare_bench_runs_vm_suite(self, capsys, tmp_path):
        # Bare `repro bench` is the engine wall-clock suite; point the
        # timings at tiny trip counts via quick mode and a tmp report path.
        out = tmp_path / "BENCH_vm.json"
        assert main(["bench", "--quick", "--out", str(out)]) == 0
        captured = capsys.readouterr().out
        assert "speedup" in captured
        report = json.loads(out.read_text())
        assert report["quick"] is True
        assert report["speedup_compiled"]["geomean"] > 1.0

    def test_bare_bench_regression_gate(self, capsys, tmp_path):
        # A baseline demanding an impossible speedup must trip the gate.
        out = tmp_path / "BENCH_vm.json"
        assert main(["bench", "--quick", "--out", str(out)]) == 0
        report = json.loads(out.read_text())
        inflated = json.loads(out.read_text())
        inflated["speedup_compiled"]["geomean"] = (
            report["speedup_compiled"]["geomean"] * 100
        )
        baseline = tmp_path / "baseline.json"
        baseline.write_text(json.dumps(inflated))
        capsys.readouterr()
        assert (
            main(
                [
                    "bench",
                    "--quick",
                    "--out",
                    str(out),
                    "--baseline",
                    str(baseline),
                ]
            )
            == 1
        )
        assert "REGRESSION" in capsys.readouterr().err

    def test_bench_runs_scenarios(self, capsys):
        assert main(["bench", "Search", "4", "--seed", "3"]) == 0
        out = capsys.readouterr().out
        assert "evolve" in out
        assert out.count("\n") >= 5

    def test_bench_unknown_benchmark_is_one_line_error(self, capsys):
        assert main(["bench", "BadName"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        err = captured.err.strip()
        assert err.count("\n") == 0
        assert err.startswith("error: unknown benchmark 'BadName'")
        assert "Search" in err
        assert "Traceback" not in err

    def test_sweep_unknown_benchmark_is_one_line_error(self, capsys):
        assert main(["sweep", "Search", "Nope", "--no-cache"]) == 2
        err = capsys.readouterr().err.strip()
        assert err.startswith("error: unknown benchmark 'Nope'")

    def test_unknown_command_rejected(self):
        with pytest.raises(SystemExit):
            main(["frobnicate"])

    def test_table1_reduced(self, capsys):
        assert main(["table1", "--runs", "4"]) == 0
        out = capsys.readouterr().out
        assert "Program" in out and "RayTracer" in out

    def test_gc_study_reduced(self, capsys):
        assert main(["gc-study", "--runs", "8"]) == 0
        assert "GC-selection" in capsys.readouterr().out

    def test_fuzz_smoke(self, capsys, tmp_path):
        corpus = tmp_path / "corpus"
        assert (
            main(
                [
                    "fuzz",
                    "--seed",
                    "0",
                    "--iterations",
                    "3",
                    "--corpus-dir",
                    str(corpus),
                ]
            )
            == 0
        )
        out = capsys.readouterr().out
        assert "3/3" in out
        assert "0 divergence(s)" in out
        # clean campaign: nothing written to the corpus
        assert not corpus.exists() or not list(corpus.glob("*.ml"))
