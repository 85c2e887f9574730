"""Tests for the command-line front end: exit codes, determinism, schemas."""

import argparse
import csv
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import cvqkd
from cvqkd.cli import build_parser, load_manifest_schema, main, validate_manifest
from cvqkd.protocol import ChannelModel, Detection, ProtocolConfig, front_end_statistics
from cvqkd.symmetry import read_quadrature_csv
from cvqkd.verify import SUITES

BOUNDS_ARGS = [
    "bounds", "--n", "1000000", "--k", "100000", "--lambda", "1",
    "--y-test", "5", "--eps-test", "1e-10", "--eps-a", "1e-10",
    "--c", "0.001", "--delta", "0.01", "--detection", "heterodyne",
]


def run_cli(capsys, argv):
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def parse_manifest(out):
    doc = json.loads(out)
    validate_manifest(doc)
    return doc


class TestBounds:
    def test_minimal_heterodyne_schema(self, capsys):
        code, out, _ = run_cli(capsys, BOUNDS_ARGS)
        assert code == 0
        doc = parse_manifest(out)
        results = doc["results"]
        for field in ("d_A", "d_0", "d_B", "beta", "postselection_exponent",
                      "eps_total", "feasible", "notes", "d_A_ceil", "d_B_ceil"):
            assert field in results
        assert results["feasible"] is True
        assert doc["config_echo"]["eps_projection"] == 4e-10

    def test_byte_identical_reruns(self, capsys):
        code1, out1, _ = run_cli(capsys, BOUNDS_ARGS)
        code2, out2, _ = run_cli(capsys, BOUNDS_ARGS)
        assert code1 == code2 == 0
        assert out1 == out2

    def test_infeasible_homodyne_exit_code(self, capsys):
        argv = [
            "bounds", "--n", "50", "--k", "100000", "--lambda", "1",
            "--y-test", "2.66", "--eps-test", "1e-8", "--eps-a", "1e-9",
            "--c", "0.001", "--delta", "0.01", "--detection", "homodyne",
        ]
        code, out, _ = run_cli(capsys, argv)
        assert code == 2
        doc = parse_manifest(out)
        assert doc["results"]["feasible"] is False
        assert any("smallest feasible n" in note for note in doc["results"]["notes"])

    def test_config_file_with_flag_override(self, capsys, tmp_path):
        config = {
            "n": 10**6, "k": 10**5, "lambda": 1.0, "Y_test": 5.0,
            "eps_test": 1e-10, "eps_A": 1e-10, "c": 1e-3, "delta": 1e-2,
            "detection": "heterodyne",
        }
        path = tmp_path / "config.json"
        path.write_text(json.dumps(config))
        code, out, _ = run_cli(capsys, ["bounds", "--config", str(path)])
        assert code == 0
        base = parse_manifest(out)

        code, out, _ = run_cli(capsys, ["bounds", "--config", str(path), "--y-test", "7"])
        assert code == 0
        overridden = parse_manifest(out)
        assert overridden["config_echo"]["Y_test"] == 7.0
        assert overridden["results"]["d_0"] > base["results"]["d_0"]

    def test_missing_parameters(self, capsys):
        code, _, err = run_cli(capsys, ["bounds", "--n", "100"])
        assert code == 1
        assert "missing required parameter" in err

    @pytest.mark.parametrize("extra", [
        ["--eps-projection", "0"],
        ["--detection", "homodyne", "--y-k-observed", "-1"],
        ["--y-test", "nan"],
        ["--y-test", "inf"],
        ["--detection", "homodyne", "--y-k-observed", "inf"],
        ["--lambda", "inf"],
    ], ids=["eps-projection-0", "homodyne-y-k-observed-negative", "y-test-nan", "y-test-inf",
            "homodyne-y-k-observed-inf", "lambda-inf"])
    def test_bad_number_is_one_line_usage_error(self, capsys, extra):
        code, out, err = run_cli(capsys, BOUNDS_ARGS + extra)
        assert code == 1
        assert out == ""
        assert len(err.splitlines()) == 1 and err.startswith("cvqkd: error:")

    def test_malformed_config(self, capsys, tmp_path):
        path = tmp_path / "broken.json"
        path.write_text("{not json")
        code, _, err = run_cli(capsys, ["bounds", "--config", str(path)])
        assert code == 1
        assert "malformed JSON" in err

    def test_unknown_config_key(self, capsys, tmp_path):
        path = tmp_path / "extra.json"
        path.write_text(json.dumps({"n": 10, "mystery": 1}))
        code, _, err = run_cli(capsys, ["bounds", "--config", str(path)])
        assert code == 1
        assert "unknown config key" in err

    def test_out_file(self, capsys, tmp_path):
        out_path = tmp_path / "manifest.json"
        code, out, _ = run_cli(capsys, BOUNDS_ARGS + ["--out", str(out_path)])
        assert code == 0
        assert out == ""
        parse_manifest(out_path.read_text())


class TestVerify:
    def test_lemma1_passes(self, capsys):
        code, out, _ = run_cli(capsys, [
            "verify", "lemma1", "--n", "1000", "--k", "100", "--delta", "0.05",
            "--trials", "20000", "--seed", "7",
        ])
        assert code == 0
        doc = parse_manifest(out)
        assert doc["results"]["passed"] is True
        assert doc["results"]["details"]["rate"] <= 0.05

    def test_lemma1_worker_independent(self, capsys):
        argv = ["verify", "lemma1", "--n", "200", "--k", "100", "--delta", "0.1",
                "--trials", "8000", "--seed", "3"]
        _, out1, _ = run_cli(capsys, argv + ["--workers", "1"])
        _, out2, _ = run_cli(capsys, argv + ["--workers", "2"])
        assert out1 == out2

    def test_opineq(self, capsys):
        code, out, _ = run_cli(capsys, ["verify", "opineq", "--n", "10", "--d0", "3", "--kmax", "200"])
        assert code == 0
        doc = parse_manifest(out)
        assert doc["results"]["details"]["min_margin"] > 0.0

    def test_maxphoton_exact_equals_bound(self, capsys):
        code, out, _ = run_cli(capsys, ["verify", "maxphoton", "--n", "2", "--p", "2", "--m", "2"])
        assert code == 0
        doc = parse_manifest(out)
        details = doc["results"]["details"]
        assert details["exact"] == pytest.approx(2.0 / 3.0, rel=1e-12)
        assert details["bound"] == pytest.approx(2.0 / 3.0, rel=1e-12)

    def test_maxphoton_impossible_event_is_strict_json(self, capsys):
        # m > p: the union bound's exponent is log(0), which strict JSON
        # cannot hold as a number.
        def reject(name):
            raise ValueError(f"non-strict JSON constant {name}")

        code, out, _ = run_cli(capsys, ["verify", "maxphoton", "--n", "2", "--p", "2", "--m", "3"])
        assert code == 0
        doc = json.loads(out, parse_constant=reject)
        validate_manifest(doc)
        details = doc["results"]["details"]
        assert details["exact"] == 0.0 and details["bound"] == 0.0
        assert details["exponent"] is None

    def test_maxphoton_guard_is_usage_error(self, capsys):
        code, _, err = run_cli(capsys, ["verify", "maxphoton", "--n", "14", "--p", "14", "--m", "3"])
        assert code == 1
        assert "exceeds the guard" in err

    def test_integrals(self, capsys):
        code, out, _ = run_cli(capsys, ["verify", "integrals", "--samples", "100000", "--seed", "5"])
        assert code == 0
        doc = parse_manifest(out)
        details = doc["results"]["details"]
        assert details["identity_worst_rel_err"] <= 1e-10
        assert details["mc_worst_deviation_se"] <= 3.0

    def test_lm(self, capsys):
        code, out, _ = run_cli(capsys, ["verify", "lm", "--samples", "200000", "--seed", "11"])
        assert code == 0
        assert parse_manifest(out)["results"]["passed"] is True

    def test_chernoff(self, capsys):
        code, out, _ = run_cli(capsys, ["verify", "chernoff"])
        assert code == 0
        doc = parse_manifest(out)
        grid = doc["results"]["details"]["grid"]
        ten_half = next(g for g in grid if g["lambda"] == 10.0 and g["delta"] == 0.5)
        assert ten_half["exact"] == pytest.approx(0.0671, abs=2e-4)
        assert ten_half["bound"] == pytest.approx(0.21561430397073495, rel=1e-12)
        assert ten_half["bound"] <= 0.2163

    def test_unknown_suite_usage_error(self, capsys):
        code, _, _ = run_cli(capsys, ["verify", "nonsense"])
        assert code == 1

    def test_suite_names_agree(self):
        commands = next(a for a in build_parser()._actions if isinstance(a, argparse._SubParsersAction))
        choices = next(a for a in commands.choices["verify"]._actions if a.dest == "suite").choices
        branch = next(b for b in load_manifest_schema()["allOf"]
                      if b["if"]["properties"]["command"]["const"] == "verify")
        enum = branch["then"]["properties"]["results"]["properties"]["suite"]["enum"]
        assert set(SUITES) == set(choices) == set(enum)

    def test_cli_import_leaves_out_scipy_stats(self):
        # scipy.stats takes about a second to import; only the chernoff
        # suite needs it, and it imports it itself.
        env = dict(os.environ, PYTHONPATH=str(Path(cvqkd.__file__).parents[1]))
        code = "import cvqkd.cli, sys; sys.exit('scipy.stats' in sys.modules)"
        assert subprocess.run([sys.executable, "-c", code], env=env, timeout=60).returncode == 0


class TestSimulate:
    SIM_ARGS = ["simulate", "--n", "50", "--k", "500", "--lambda", "1",
                "--detection", "heterodyne", "--transmittance", "0.5",
                "--excess-noise", "0.05", "--trials", "500", "--seed", "21"]

    def test_default_threshold_and_low_abort_rate(self, capsys):
        code, out, _ = run_cli(capsys, self.SIM_ARGS)
        assert code == 0
        doc = parse_manifest(out)
        assert doc["results"]["Y_test"] == pytest.approx(1.2 * 3.025, rel=1e-12)
        assert doc["results"]["abort_rate"] <= 0.01

    def test_zero_threshold_always_aborts(self, capsys):
        code, out, _ = run_cli(capsys, self.SIM_ARGS + ["--y-test", "0"])
        assert code == 0
        doc = parse_manifest(out)
        assert doc["results"]["abort_rate"] == 1.0

    def test_zero_trials_usage_error(self, capsys):
        argv = [a for a in self.SIM_ARGS]
        argv[argv.index("--trials") + 1] = "0"
        code, _, err = run_cli(capsys, argv)
        assert code == 1
        assert "trials" in err

    def test_deterministic_output(self, capsys):
        _, out1, _ = run_cli(capsys, self.SIM_ARGS)
        _, out2, _ = run_cli(capsys, self.SIM_ARGS + ["--workers", "2"])
        assert out1 == out2

    def test_dump_record_round_trip(self, capsys, tmp_path):
        path = tmp_path / "record.csv"
        code, out, _ = run_cli(capsys, self.SIM_ARGS + ["--dump-record", str(path)])
        assert code == 0
        doc = parse_manifest(out)
        rec = read_quadrature_csv(path)
        assert rec.tested_modes == 500 and rec.kept_modes == 50
        summary = doc["results"]["record_run"]
        assert summary["Y_k"] == pytest.approx(rec.mode_energies()[:500].mean(), rel=1e-12)

    def test_per_trial_csv(self, capsys, tmp_path):
        path = tmp_path / "trials.csv"
        argv = self.SIM_ARGS + ["--y-test", "3.1", "--format", "csv", "--out", str(path)]
        code, out, _ = run_cli(capsys, argv)
        assert code == 0
        results = parse_manifest(out)["results"]  # manifest still on stdout
        lines = path.read_text().strip().splitlines()
        assert lines[0] == "trial,Y_k,Z_n,passed"
        assert len(lines) == 501

        rows = list(csv.DictReader(lines))
        assert results["aborts"] > 0
        assert sum(row["passed"] == "0" for row in rows) == results["aborts"]
        cfg = ProtocolConfig(n=50, k=500, lam=1.0, detection=Detection.HETERODYNE,
                             channel=ChannelModel(transmittance=0.5, excess_noise=0.05),
                             Y_test=3.1, seed=21)
        y_k, z_n = front_end_statistics(cfg, 500, 21)
        assert [(row["Y_k"], row["Z_n"]) for row in rows] == \
            [(repr(float(y)), repr(float(z))) for y, z in zip(y_k, z_n)]

    def test_non_finite_manifest_is_usage_error(self, capsys):
        # Strict JSON has no Infinity: the echoed excess noise cannot be written.
        argv = [a for a in self.SIM_ARGS]
        argv[argv.index("--excess-noise") + 1] = "inf"
        code, out, err = run_cli(capsys, argv)
        assert code == 1 and out == ""
        assert "non-finite" in err

    def test_csv_requires_out(self, capsys):
        code, _, err = run_cli(capsys, self.SIM_ARGS + ["--format", "csv"])
        assert code == 1
        assert "--out" in err


class TestSeeds:
    def test_env_seed_fallback(self, capsys, monkeypatch):
        monkeypatch.setenv("CVQKD_SEED", "777")
        code, out, _ = run_cli(capsys, ["verify", "chernoff"])
        assert code == 0
        assert parse_manifest(out)["seed"] == 777

    def test_flag_overrides_env(self, capsys, monkeypatch):
        monkeypatch.setenv("CVQKD_SEED", "777")
        _, out, _ = run_cli(capsys, ["verify", "chernoff", "--seed", "5"])
        assert parse_manifest(out)["seed"] == 5

    def test_bad_env_seed(self, capsys, monkeypatch):
        monkeypatch.setenv("CVQKD_SEED", "not-a-number")
        code, _, err = run_cli(capsys, ["verify", "chernoff"])
        assert code == 1
        assert "CVQKD_SEED" in err

    def test_default_seed_zero(self, capsys):
        _, out, _ = run_cli(capsys, ["verify", "chernoff"])
        assert parse_manifest(out)["seed"] == 0
