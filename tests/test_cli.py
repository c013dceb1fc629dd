"""CLI contract: exit codes, output schemas, determinism."""

import csv
import dataclasses
import hashlib
import json
import os
import shlex
import subprocess
import sys
import threading
from pathlib import Path

import pytest

from privsum import cli
from privsum.cli import EXIT_ABORT, EXIT_OK, EXIT_USAGE, ExperimentConfig, main
from privsum.core import calibrate
from privsum.errors import ParameterError, ScenarioError
from privsum.harness import Scenario, scenario_client_ids


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestCalibrateCommand:
    def test_reference_point(self, capsys, tmp_path):
        out_file = tmp_path / "report.json"
        code, out, _ = run_cli(
            capsys, "calibrate", "--eps", "1", "--delta", "1e-5",
            "--beta", "0.01", "--S", "2", "--k", "64", "--d", "1024",
            "--out", str(out_file),
        )
        assert code == EXIT_OK
        assert "sigma_v" in out and "10.67372" in out
        report = json.loads(out_file.read_text())
        assert report["params"]["sigma_v"] == pytest.approx(10.673720410837976)
        assert report["params"]["tau"] == pytest.approx(156.54616443109188)

    def test_missing_flag_is_usage_error(self, capsys):
        code, _, _ = run_cli(capsys, "calibrate", "--eps", "1")
        assert code == EXIT_USAGE

    def test_infeasible_is_usage_error(self, capsys):
        code, _, err = run_cli(
            capsys, "calibrate", "--eps", "1", "--delta", "1e-5",
            "--beta", "1e-12", "--S", "2", "--k", "16", "--d", "64",
        )
        assert code == EXIT_USAGE
        assert "k <= 4*ln(1/beta)" in err

    def test_exact_cdf_reports_smaller_tau(self, capsys):
        def tau_of(*extra):
            code, out, _ = run_cli(
                capsys, "calibrate", "--eps", "1", "--delta", "1e-2",
                "--beta", "0.05", "--S", "2", "--k", "64", "--d", "64", *extra,
            )
            assert code == EXIT_OK
            line = [l for l in out.splitlines() if l.startswith("tau ")][0]
            return float(line.split()[1])

        assert tau_of("--exact-cdf") < tau_of()

    def test_report_file_bytes_are_pinned(self, capsys, tmp_path):
        # rho_exact is written from params.rho, beside the derivation
        out_file = tmp_path / "report.json"
        code, _, _ = run_cli(
            capsys, "calibrate", "--eps", "1", "--delta", "1e-5", "--beta", "0.01",
            "--S", "2", "--k", "64", "--d", "128", "--out", str(out_file),
        )
        assert code == EXIT_OK
        assert (hashlib.sha256(out_file.read_bytes()).hexdigest()
                == "0ca713dbbf0f024ded42045844c3bf3c52ce00cd088185055074bbc55b140ec0")

    # sigma_v ~ 1/eps overflows in tau, sigma_ss ~ 1/eps_ss in itself
    @pytest.mark.parametrize("flag, value, name", [
        ("--eps", "1e-300", "eps"), ("--eps", "1e-320", "eps"),
        ("--eps-ss", "1e-320", "eps_ss")])
    def test_overflowing_epsilon_is_named(self, capsys, flag, value, name):
        code, _, err = run_cli(
            capsys, "calibrate", "--eps", "1", "--delta", "1e-2", "--beta", "0.05",
            "--S", "2", "--k", "16", "--d", "8", flag, value,
        )
        assert code == EXIT_USAGE
        assert err.startswith(f"error: {name} must be large enough"), err


class TestShareCommand:
    def test_writes_bundle(self, capsys, tmp_path):
        out_file = tmp_path / "bundle.json"
        code, out, _ = run_cli(
            capsys, "share", "--d", "8", "--S", "3", "--sigma-ss", "5.0",
            "--seed", "4", "--out", str(out_file),
        )
        assert code == EXIT_OK
        bundle = json.loads(out_file.read_text())
        assert len(bundle["shares"]) == 3
        assert len(bundle["shares"][0]) == 8


class TestVerifyNormCommand:
    def test_honest_run_accepts(self, capsys, tmp_path):
        transcript = tmp_path / "run.jsonl"
        code, out, _ = run_cli(
            capsys, "verify-norm", "--eps", "1", "--delta", "1e-2",
            "--beta", "0.05", "--S", "2", "--k", "16", "--d", "8",
            "--seed", "3", "--transcript", str(transcript),
        )
        assert code == EXIT_OK
        assert "accept=1" in out
        lines = transcript.read_text().strip().split("\n")
        assert len(lines) == 2 + 3 * 1  # S shares + 3(S-1) protocol messages

    def test_stdout_line_is_pinned(self, capsys):
        # the accept bit, v_norm, params.tau and the transcript hash
        code, out, _ = run_cli(
            capsys, "verify-norm", "--eps", "1", "--delta", "1e-2", "--beta", "0.05",
            "--S", "3", "--k", "16", "--d", "32", "--seed", "42",
        )
        assert code == EXIT_OK
        assert out == ("accept=1 v_norm=48.7163 tau=82.6249 transcript_sha256="
                       "25b127714fe09aae6cc7e31dde3f0b5b571f847a720256539bd331b353060f57\n")

    # a norm whose projection overflows is rejected without a numpy warning
    @pytest.mark.filterwarnings("error")
    def test_huge_norm_rejected_quietly(self, capsys):
        code, out, err = run_cli(
            capsys, "verify-norm", "--eps", "1", "--delta", "1e-2",
            "--beta", "0.05", "--S", "2", "--k", "16", "--d", "8", "--norm", "1e200",
        )
        assert (code, err) == (EXIT_OK, "")
        assert "accept=0" in out


class TestAggregateCommand:
    def write_scenario(self, tmp_path, **overrides):
        data = {
            "schema_version": 1, "n": 4, "S": 2, "d": 8,
            "clients": [{"behavior": "honest", "count": 4}],
        }
        data.update(overrides)
        path = tmp_path / "scenario.json"
        path.write_text(json.dumps(data))
        return path

    def flags(self):
        return ["--eps", "1", "--delta", "1e-2", "--beta", "0.05", "--k", "16"]

    def test_honest_run_exits_zero(self, capsys, tmp_path):
        config = self.write_scenario(tmp_path)
        code, out, _ = run_cli(capsys, "aggregate", "--config", str(config),
                               *self.flags(), "--seed", "5")
        assert code == EXIT_OK
        summary = json.loads(out[: out.rindex("}") + 1])
        assert summary["accepted_count"] == 4

    @pytest.mark.filterwarnings("error")
    def test_huge_norm_client_rejected_quietly(self, capsys, tmp_path):
        config = self.write_scenario(tmp_path, n=3, clients=[
            {"behavior": "honest", "count": 2},
            {"behavior": "norm-inflating", "norm": 1e308, "id": "huge"},
        ])
        code, out, err = run_cli(capsys, "aggregate", "--config", str(config),
                                 *self.flags(), "--seed", "5")
        assert (code, err) == (EXIT_OK, "")
        summary = json.loads(out[: out.rindex("}") + 1])
        assert summary["accepted_count"] == 2 and "huge" not in summary["accepted"]

    def test_majority_malicious_aborts_with_exit_3(self, capsys, tmp_path):
        config = self.write_scenario(
            tmp_path, n=10,
            validity_threshold=0.5,
            clients=[
                {"behavior": "honest", "count": 4},
                {"behavior": "norm-inflating", "norm": 1e5, "count": 6},
            ],
        )
        code, out, _ = run_cli(capsys, "aggregate", "--config", str(config),
                               *self.flags(), "--seed", "5")
        assert code == EXIT_ABORT

    def test_missing_config_is_usage_error(self, capsys, tmp_path):
        code, _, _ = run_cli(capsys, "aggregate", "--config",
                             str(tmp_path / "nope.json"), *self.flags())
        assert code == EXIT_USAGE

    def test_overlong_client_id_is_usage_error(self, capsys, tmp_path):
        config = self.write_scenario(tmp_path, clients=[
            {"behavior": "honest", "count": 3},
            {"behavior": "honest", "id": "x" * 70_000},
        ])
        code, _, err = run_cli(capsys, "aggregate", "--config", str(config),
                               *self.flags())
        assert code == EXIT_USAGE
        assert "65535" in err

    def test_same_seed_same_transcript_hash(self, capsys, tmp_path):
        config = self.write_scenario(tmp_path)

        def hash_of():
            code, out, _ = run_cli(capsys, "aggregate", "--config", str(config),
                                   *self.flags(), "--seed", "42")
            assert code == EXIT_OK
            return json.loads(out[: out.rindex("}") + 1])["transcript_sha256"]

        assert hash_of() == hash_of()

    def test_integral_float_params_run_as_integers(self, capsys, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        config = self.write_scenario(tmp_path)

        def summary(**overrides):
            (tmp_path / "p.json").write_text(json.dumps({**PARAMS, **overrides}))
            code, out, _ = run_cli(capsys, "aggregate", "--config", str(config),
                                   "--params", "p.json", "--seed", "3")
            assert code == EXIT_OK
            return out

        assert summary(d=8.0) == summary(d=8.0, S=2.0, k=16.0) == summary(d=8)

    @pytest.mark.parametrize("flag, value", [("--S", "7"), ("--d", "999")])
    def test_sizes_come_from_the_scenario_only(self, capsys, tmp_path, flag, value):
        config = self.write_scenario(tmp_path)
        code, _, _ = run_cli(capsys, "aggregate", "--config", str(config),
                             *self.flags(), flag, value)
        assert code == EXIT_USAGE

    def test_params_file_roundtrip(self, capsys, tmp_path):
        params_file = tmp_path / "params.json"
        code, _, _ = run_cli(
            capsys, "calibrate", "--eps", "1", "--delta", "1e-2",
            "--beta", "0.05", "--S", "2", "--k", "16", "--d", "8",
            "--out", str(params_file),
        )
        assert code == EXIT_OK
        config = self.write_scenario(tmp_path)
        code, out, _ = run_cli(capsys, "aggregate", "--config", str(config),
                               "--params", str(params_file), "--seed", "1")
        assert code == EXIT_OK


class TestExperimentCommand:
    def test_completeness_sweep(self, capsys, tmp_path):
        out_file = tmp_path / "sweep.csv"
        code, _, _ = run_cli(
            capsys, "experiment", "--kind", "completeness",
            "--k-grid", "16,64", "--S", "2", "--d", "16", "--beta", "0.05",
            "--trials", "400", "--seed", "2", "--out", str(out_file),
        )
        assert code == EXIT_OK
        lines = out_file.read_text().strip().split("\n")
        assert lines[0] == "# schema: privsum.experiment.v1"
        rows = list(csv.DictReader(lines[1:]))
        assert len(rows) == 2
        for row in rows:
            assert float(row["rate"]) >= 1 - 0.05 - 3 * 0.011

    def test_soundness_sweep(self, capsys, tmp_path):
        out_file = tmp_path / "sweep.csv"
        code, _, _ = run_cli(
            capsys, "experiment", "--kind", "soundness",
            "--k-grid", "64", "--S", "2", "--d", "16", "--beta", "0.05",
            "--trials", "400", "--seed", "2", "--out", str(out_file),
        )
        assert code == EXIT_OK
        rows = list(csv.DictReader(out_file.read_text().strip().split("\n")[1:]))
        assert len(rows) == 1
        assert float(rows[0]["rate"]) <= 0.05 + 3 * 0.011

    def test_empty_grid_is_usage_error(self, capsys):
        code, _, _ = run_cli(capsys, "experiment", "--kind", "completeness",
                             "--k-grid", "")
        assert code == EXIT_USAGE

    def test_config_roundtrip(self, tmp_path, capsys):
        # a schema-1 file that sets every field; 2.0 and 8.0 run as integers
        data = {"kind": "completeness", "k_grid": [16, 32.0], "S": 2.0, "d": 8.0,
                "beta": 0.05, "eps": 1.0, "delta": 1e-2, "trials": 200, "seed": 9,
                "norm_factor": 1.5}
        config = ExperimentConfig(kind="completeness", k_grid=(16, 32), trials=200,
                                  d=8, seed=9, norm_factor=1.5)
        path = tmp_path / "exp.json"
        path.write_text(json.dumps(data))
        loaded = ExperimentConfig.from_dict(json.loads(path.read_text()))
        assert loaded == config
        assert type(loaded.S) is type(loaded.d) is type(loaded.k_grid[1]) is int
        out_file = tmp_path / "out.csv"
        code, _, _ = run_cli(capsys, "experiment", "--config", str(path),
                             "--out", str(out_file))
        assert code == EXIT_OK

    def test_file_without_sharing_budget_matches_flags(self, tmp_path):
        # the flags and a file with the same settings build one sweep through
        # ExperimentConfig.from_dict; unset flags keep the dataclass defaults
        path = tmp_path / "exp.json"
        path.write_text(json.dumps({"kind": "soundness", "k_grid": [16, 32], "d": 8,
                                    "eps": 2.0, "delta": 1e-3, "norm_factor": 1.5}))
        parser = cli.build_parser()
        from_flags = cli._experiment_config(parser.parse_args(
            ["experiment", "--kind", "soundness", "--k-grid", "16,32", "--d", "8",
             "--eps", "2", "--delta", "1e-3", "--norm-factor", "1.5"]))
        from_file = cli._experiment_config(
            parser.parse_args(["experiment", "--config", str(path)]))
        assert from_flags == from_file == ExperimentConfig(
            kind="soundness", k_grid=(16, 32), d=8, eps=2.0, delta=1e-3, norm_factor=1.5)

    def test_help_shows_the_config_defaults(self, capsys):
        code, out, _ = run_cli(capsys, "experiment", "--help")
        assert code == EXIT_OK
        text = " ".join(out.split())
        for field in dataclasses.fields(ExperimentConfig):
            if field.name != "k_grid":
                assert f"(default: {field.default})" in text, field.name

    @pytest.mark.parametrize("config, message", [
        (dict(kind="soundness", k_grid=(16,), norm_factor=-1.0), "^norm_factor must be >= 0"),
        (dict(k_grid=(16, 32, 16)), "^k_grid must not repeat"),
    ])
    def test_refused_by_the_settings_name(self, config, message):
        with pytest.raises(ScenarioError, match=message):
            ExperimentConfig(**config)

    @pytest.mark.parametrize("field", ["trials", "k_grid", "eps"])
    def test_boolean_fields_refused(self, field):
        # JSON true is not the number 1
        value = [True] if field == "k_grid" else True
        with pytest.raises(ScenarioError, match=f"{field}.* must be"):
            ExperimentConfig.from_dict({"kind": "completeness", "k_grid": [16], field: value})


class TestAuditCommand:
    def test_report_schema_and_verdicts(self, capsys, tmp_path):
        out_file = tmp_path / "audit.tsv"
        code, out, _ = run_cli(capsys, "audit", "--samples", "20000",
                               "--seed", "1", "--out", str(out_file))
        assert code == EXIT_OK
        lines = out_file.read_text().strip().split("\n")
        assert lines[0] == "# schema: privsum.audit.v1"
        assert lines[1].split("\t") == ["check", "params", "statistic",
                                        "threshold", "verdict"]
        rows = [dict(zip(lines[1].split("\t"), l.split("\t"))) for l in lines[2:]]
        assert all(r["verdict"] == "consistent" for r in rows)
        checks = {r["check"] for r in rows}
        assert {"chi2-lower-tail", "gaussian-mech-mc", "gaussian-mech-analytic",
                "projection-privacy", "share-sim-exact", "completeness-rate",
                "soundness-rate", "truncation-clamp"} <= checks

    def test_report_bytes_are_pinned(self, capsys):
        # like the golden transcript hash, specific to the platform and numpy build;
        # recorded when the rate rows first drew their shares' span coordinates
        # from their exact law
        code, out, _ = run_cli(capsys, "audit", "--samples", "2000", "--seed", "0")
        assert code == EXIT_OK
        assert (hashlib.sha256(out.encode()).hexdigest()
                == "84c6c2b51a92c24b9a4bb4619839555bf10b66c698253b62a61c2bf1185932dd")

    @pytest.mark.parametrize("seed", [0, 1, 7])
    def test_two_lanes_give_the_rows_of_one(self, monkeypatch, seed):
        rows = {}
        for lanes in (2, 1):
            monkeypatch.setattr(cli, "_lane_count", lambda: lanes)
            rows[lanes] = cli._audit_rows(2000, seed)
        assert rows[2] == rows[1]
        assert len(rows[2]) == 27

    # the completeness check runs on the worker lane, the share simulations
    # and the chi^2 rows on the calling one; the chi^2 rows come first in
    # the report, though the share simulations run first
    FAILING = {
        "completeness": (("completeness_check",), "completeness_check failed"),
        "share-sim": (("share_simulation_check",), "share_simulation_check failed"),
        "share-sim and chi2": (("share_simulation_check", "chi2_tail_checks"),
                               "chi2_tail_checks failed"),
        "soundness and completeness": (("soundness_check", "completeness_check"),
                                       "completeness_check failed"),
    }

    @pytest.mark.parametrize("lanes", [2, 1])
    @pytest.mark.parametrize("failing, message", FAILING.values(), ids=FAILING.keys())
    def test_failing_check_is_one_error_line(self, capsys, monkeypatch, lanes, failing,
                                             message):
        def fail(name, original):
            def check(*args):
                # the S=3, T=(1, 2) share simulation alone, the last of the three
                if name != "share_simulation_check" or args[:2] == (3, (1, 2)):
                    raise ParameterError(f"{name} failed")
                return original(*args)
            return check

        for name in failing:
            monkeypatch.setattr(cli.audit_mod, name, fail(name, getattr(cli.audit_mod, name)))
        monkeypatch.setattr(cli, "_lane_count", lambda: lanes)
        threads = threading.active_count()
        code, out, err = run_cli(capsys, "audit", "--samples", "2000", "--seed", "0")
        assert threading.active_count() == threads
        assert code == EXIT_USAGE and out == ""
        assert err == f"error: {message}\n"


class TestOutputDirOverride:
    def test_env_var_redirects_relative_paths(self, capsys, tmp_path, monkeypatch):
        monkeypatch.setenv("PRIVSUM_OUTPUT_DIR", str(tmp_path))
        code, _, _ = run_cli(
            capsys, "calibrate", "--eps", "1", "--delta", "1e-2",
            "--beta", "0.05", "--S", "2", "--k", "16", "--d", "8",
            "--out", "nested/report.json",
        )
        assert code == EXIT_OK
        assert (tmp_path / "nested" / "report.json").exists()


SCENARIO = json.dumps({"schema_version": 1, "n": 4, "S": 2, "d": 8,
                       "clients": [{"behavior": "honest", "count": 4}]})
CALIBRATION = ("--eps", "1", "--delta", "1e-2", "--beta", "0.05", "--k", "16")
AGGREGATE = ("aggregate", "--config", "s.json", *CALIBRATION)
PARAMS = calibrate(eps=1.0, delta=1e-2, eps_ss=1.0, delta_ss=1e-2, beta=0.05,
                   S=2, k=16, d=8).params.to_dict()
WITH_PARAMS = ("aggregate", "--config", "s.json", "--params", "p.json")
EXPERIMENT = ("experiment", "--config", "e.json")
CALIBRATE = ("calibrate", "--eps", "1", "--delta", "1e-2", "--beta", "0.05",
             "--S", "2", "--k", "16", "--d", "8")
SHARE = ("share", "--d", "8", "--S", "2", "--sigma-ss", "1")
VERIFY_NORM = ("verify-norm", *CALIBRATE[1:])


def params_file(**overrides) -> dict:
    return {"s.json": SCENARIO, "p.json": json.dumps({"params": {**PARAMS, **overrides}})}


def scenario_file(**client) -> dict:
    return {"s.json": json.dumps({"n": 1, "S": 2, "d": 8, "clients": [client]})}


def experiment_file(**overrides) -> dict:
    config = {"kind": "completeness", "k_grid": [16], "d": 8, "trials": 200}
    return {"e.json": json.dumps({**config, **overrides})}


# name -> (files to create, None making a directory; argv)
MALFORMED = {
    "params file missing": ({"s.json": SCENARIO},
                            ("aggregate", "--config", "s.json", "--params", "p.json")),
    "params without fields": ({"s.json": SCENARIO, "p.json": '{"params": {"eps": 1}}'},
                              ("aggregate", "--config", "s.json", "--params", "p.json")),
    "scenario without n": ({"s.json": '{"S": 2, "d": 8, "clients": []}'}, AGGREGATE),
    "top-level list": ({"s.json": "[1, 2]"}, AGGREGATE),
    "client entry not an object": ({"s.json": '{"n": 1, "S": 2, "d": 8, "clients": [3]}'},
                                   AGGREGATE),
    "config is a directory": ({"s.json": None}, AGGREGATE),
    "config missing": ({}, AGGREGATE),
    "config not JSON": ({"s.json": "not-json{"}, AGGREGATE),
    "unknown experiment kind": ({"e.json": '{"kind": "bogus", "k_grid": [16]}'},
                                ("experiment", "--config", "e.json")),
    "non-integer k_grid entry": ({"e.json": '{"kind": "completeness", "k_grid": [16.5]}'},
                                 ("experiment", "--config", "e.json")),
    "non-integer --k-grid entry": ({}, ("experiment", "--k-grid", "16,x")),
    "string trials": (experiment_file(trials="many"), EXPERIMENT),
    "string d": (experiment_file(d="x"), EXPERIMENT),
    "non-integer trials": (experiment_file(trials=200.5), EXPERIMENT),
    "non-integer seed": (experiment_file(seed=1.5), EXPERIMENT),
    "string norm_factor": (experiment_file(kind="soundness", norm_factor="x"), EXPERIMENT),
    "non-integer params n": (params_file(n=1.5), WITH_PARAMS),
    "NaN params sigma_v": (params_file(sigma_v=float("nan")), WITH_PARAMS),
    "calibrate --eps nan": ({}, ("calibrate", "--eps", "nan", "--delta", "1e-2",
                                 "--beta", "0.05", "--S", "2", "--k", "16", "--d", "8")),
    "share --sigma-ss nan": ({}, ("share", "--d", "8", "--S", "2", "--sigma-ss", "nan")),
    "share --sigma-ss inf": ({}, ("share", "--d", "8", "--S", "2", "--sigma-ss", "inf")),
    "share --sigma-ss 1e308": ({}, ("share", "--d", "8", "--S", "3", "--sigma-ss", "1e308")),
    "share --d -1": ({}, ("share", "--d", "-1", "--S", "2", "--sigma-ss", "1")),
    "audit --samples 0": ({}, ("audit", "--samples", "0")),
    "audit --samples -3": ({}, ("audit", "--samples", "-3")),
    # sigma_v ~ 1/eps, and sigma_v**2 leaves the float range
    "calibrate --eps 1e-300": ({}, ("calibrate", "--eps", "1e-300", "--delta", "1e-2",
                                    "--beta", "0.05", "--S", "2", "--k", "16", "--d", "8")),
    "calibrate --eps-ss 1e-320": ({}, (*CALIBRATE, "--eps-ss", "1e-320")),
    "calibrate --quant-step above --trunc-b": ({}, (*CALIBRATE, "--trunc-b", "1",
                                                   "--quant-step", "4")),
    "calibrate --quant-step 1e-300": ({}, (*CALIBRATE, "--trunc-b", "64",
                                          "--quant-step", "1e-300")),
    "params quant_step above trunc_b": (params_file(trunc_b=1.0, quant_step=4.0), WITH_PARAMS),
    "params quant_step 1e-300": (params_file(trunc_b=64.0, quant_step=1e-300), WITH_PARAMS),
    "negative client scale": (scenario_file(behavior="inconsistent-shares", scale=-1.0),
                              AGGREGATE),
    # JSON true is not the number 1
    "client norm true": (scenario_file(norm=True), AGGREGATE),
    "params eps true": (params_file(eps=True), WITH_PARAMS),
    "params n true": (params_file(n=True), WITH_PARAMS),
    "experiment trials true": (experiment_file(trials=True), EXPERIMENT),
    # a flag beside the file that holds its setting would be dropped unread
    "calibration flag beside --params": (params_file(), (*WITH_PARAMS, "--eps", "5")),
    "--exact-cdf beside --params": (params_file(), (*WITH_PARAMS, "--exact-cdf")),
    "setting flag beside --config": (experiment_file(), (*EXPERIMENT, "--trials", "5")),
    "--k-grid beside --config": (experiment_file(), (*EXPERIMENT, "--k-grid", "99")),
    # a misspelled key would run with its default
    "misspelled scenario key": ({"s.json": json.dumps(
        {"n": 1, "S": 2, "d": 8, "validity_treshold": 0.5, "clients": [{}]})}, AGGREGATE),
    "misspelled client key": (scenario_file(behaviour="norm-inflating"), AGGREGATE),
    "retired experiment key n": (experiment_file(n=1), EXPERIMENT),
    "retired experiment key eps_ss": (experiment_file(eps_ss=0.5), EXPERIMENT),
    # sizes are JSON numbers, as in the constructors
    "string scenario n": ({"s.json": '{"n": "1", "S": 2, "d": 8, "clients": [{}]}'},
                          AGGREGATE),
    "string scenario d": ({"s.json": '{"n": 1, "S": 2, "d": "8", "clients": [{}]}'},
                          AGGREGATE),
    "string client count": ({"s.json": '{"n": 1, "S": 2, "d": 8, "clients": [{"count": "1"}]}'},
                            AGGREGATE),
    "repeated --k-grid point": ({}, ("experiment", "--k-grid", "16,16", "--d", "8",
                                     "--trials", "100")),
    # argparse's own errors print one line, not the usage block
    "calibrate --bogus 1": ({}, ("calibrate", "--bogus", "1")),
    "unknown flag beside a full command": ({}, (*CALIBRATE, "--bogus", "1")),
    # no abbreviations: --norm is not taken for --norm-factor
    "experiment --norm 2": ({}, ("experiment", "--kind", "soundness", "--k-grid", "16",
                                 "--d", "8", "--trials", "100", "--norm", "2")),
    # sizes are JSON numbers, as in a scenario file
    "numeric-string trials": (experiment_file(trials="200"), EXPERIMENT),
    "numeric-string k_grid entry": (experiment_file(k_grid=["16"]), EXPERIMENT),
    # a norm is a finite number >= 0: -5 used to run as 5, and nan or inf
    # were refused under the name of an internal vector
    "negative client norm": (scenario_file(norm=-5.0), AGGREGATE),
    "share --norm -1": ({}, (*SHARE, "--norm", "-1")),
    "share --norm nan": ({}, (*SHARE, "--norm", "nan")),
    "verify-norm --norm -1": ({}, (*VERIFY_NORM, "--norm", "-1")),
    "verify-norm --norm nan": ({}, (*VERIFY_NORM, "--norm", "nan")),
    "verify-norm --norm inf": ({}, (*VERIFY_NORM, "--norm", "inf")),
}


# a warning would print to stderr before the error line; here it fails the test
@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("files, argv", MALFORMED.values(), ids=MALFORMED.keys())
def test_malformed_input_is_one_error_line(capsys, tmp_path, monkeypatch, files, argv):
    monkeypatch.chdir(tmp_path)
    for name, text in files.items():
        if text is None:
            (tmp_path / name).mkdir()
        else:
            (tmp_path / name).write_text(text)
    code, _, err = run_cli(capsys, *argv)
    assert code == EXIT_USAGE
    assert len(err.splitlines()) == 1 and err.startswith("error:"), err
    assert "Traceback" not in err


@pytest.mark.parametrize("command", [SHARE, VERIFY_NORM], ids=["share", "verify-norm"])
@pytest.mark.parametrize("norm", ["-1", "nan", "inf"])
def test_norm_is_refused_under_its_own_name(capsys, command, norm):
    code, _, err = run_cli(capsys, *command, "--norm", norm)
    assert code == EXIT_USAGE and err.startswith("error: --norm must"), err


def test_readme_cli_block_runs_as_written(capsys, tmp_path, monkeypatch):
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    sh_block = readme.split("## CLI", 1)[1].split("```sh\n", 1)[1].split("```", 1)[0]
    scenario_json = readme.split("```json\n", 1)[1].split("```", 1)[0]
    monkeypatch.chdir(tmp_path)
    monkeypatch.delenv("PRIVSUM_OUTPUT_DIR", raising=False)
    (tmp_path / "scenario.json").write_text(scenario_json)
    commands = [shlex.split(line, comments=True)
                for line in sh_block.replace("\\\n", " ").splitlines()]
    commands = [argv for argv in commands if argv]
    assert [argv[1] for argv in commands] == [
        "calibrate", "share", "verify-norm", "aggregate", "experiment", "experiment", "audit"]
    for argv in commands:
        assert argv[0] == "privsum"
        code, out, err = run_cli(capsys, *argv[1:])
        assert code == EXIT_OK, (argv, err)
        if argv[1] == "aggregate":
            summary = json.loads(out[: out.rindex("}") + 1])
            seed = int(argv[argv.index("--seed") + 1])
            scenario = Scenario.from_dict(json.loads(scenario_json))
            adversary = scenario_client_ids(scenario, seed)[-1]
            assert scenario.clients[-1].kind == "norm-inflating"
            assert adversary not in summary["accepted"]
            assert summary["accepted_count"] < scenario.n


def test_import_leaves_scipy_stats_unloaded():
    # privsum never loads scipy.stats; it costs about a second and 45 MiB of
    # start-up, and only the tests use it
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = {**os.environ,
           "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    code = "import sys, privsum, privsum.cli; print(sorted(m for m in sys.modules if m.startswith('scipy.stats')))"
    proc = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                          text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"


SESSIONS_WITHOUT_SCIPY = """
import sys
import privsum, privsum.cli
from privsum import calibrate, honest_scenario, norm_verification_rate, privacy_loss_tail
from privsum import run_scenario

def scipy_modules():
    return sorted(m for m in sys.modules if m == "scipy" or m.startswith("scipy."))

params = calibrate(eps=1.0, delta=1e-2, eps_ss=1.0, delta_ss=1e-2, beta=0.05,
                   S=2, k=16, d=8, n=4).params
result, _ = run_scenario(honest_scenario(4, 2, 8), params, 0)
assert len(result.accepted) == 4, result.accepted
assert 0 < norm_verification_rate(params, 1.0, 100, 0).rate <= 1
assert privsum.cli.main(["verify-norm", "--eps", "1", "--delta", "1e-2", "--beta", "0.05",
                         "--S", "2", "--k", "16", "--d", "8", "--seed", "3"]) == 0
assert 0 < privacy_loss_tail(1.0, 1.0, 1.0) < 1
assert privsum.cli.main(["audit", "--samples", "1000", "--seed", "0"]) == 0
print(scipy_modules())
exact = calibrate(eps=1.0, delta=1e-2, eps_ss=1.0, delta_ss=1e-2, beta=0.05,
                  S=2, k=16, d=8, exact_cdf=True).params
assert 1 <= exact.rho < params.rho and exact.tau < params.tau
print("scipy.special" in scipy_modules())
"""


def test_sessions_leave_scipy_unloaded():
    # scipy.special adds about 0.25 s and 18 MiB to start-up; only exact
    # chi-square quantiles load it, on first use
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = {**os.environ,
           "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    proc = subprocess.run([sys.executable, "-c", SESSIONS_WITHOUT_SCIPY], env=env,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.strip().splitlines()
    assert lines[-2:] == ["[]", "True"], proc.stdout
