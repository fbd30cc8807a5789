"""End-to-end tests of the command-line interface.

Each subcommand is driven through main() with small grids so the whole
module stays fast. Determinism is asserted at the byte level after
stripping the timestamp line.
"""

import contextlib
import csv
import dataclasses
import io
import json
import os
import re
import subprocess
import sys
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from depolcap import capacity, cli, core
from depolcap.bounds import InequalityCheck
from depolcap.cli import main, run_replay
from depolcap.core import (
    random_bipartite_state,
    random_channel,
    random_density_matrices,
    random_unitaries,
)
from depolcap.depolarizing import DepolarizingChannel, lambda_min
from depolcap.phase_damping import PhaseDampingChannel
from depolcap.report import (
    DEFAULT_TOLERANCES,
    MAX_TRIALS,
    CheckRecord,
    ConfigError,
    Report,
    RunConfig,
    child_seed,
    deserialize_matrix,
    resolve_out_path,
    serialize_matrix,
)

FAST = ["--dims", "2", "--lambdas", "0.3", "--p-grid", "2", "--trials", "3"]


def run_cli(argv, capsys):
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


# The check function of each randomized verify family, in family order.
FAMILY_CHECKS = ["lieb_thirring_check", "tensor_output_norm_bound",
                 "local_unitary_invariance_check", "multiplicativity_check",
                 "tensor_relative_entropy_bound"]


def count_family_checks(monkeypatch) -> dict:
    """Wrap each family's check function on ``cli`` with a call counter."""
    calls = dict.fromkeys(FAMILY_CHECKS, 0)
    for name in FAMILY_CHECKS:
        def counted(*args, _real=getattr(cli, name), _name=name, **kwargs):
            calls[_name] += 1
            return _real(*args, **kwargs)
        monkeypatch.setattr(cli, name, counted)
    return calls


def strip_timestamp(text: str) -> str:
    return re.sub(r'^\s*"timestamp": "[^"]*",?\n', "", text, flags=re.M)


# ---------------------------------------------------------------------------
# Config handling
# ---------------------------------------------------------------------------

class TestRunConfig:
    def test_defaults(self):
        cfg = RunConfig()
        assert cfg.dims == (2, 3)
        assert cfg.format == "json"
        assert cfg.tolerance("additivity") == 1e-4

    def test_rejects_bad_dim(self):
        with pytest.raises(ConfigError):
            RunConfig(dims=(1,))
        with pytest.raises(ConfigError):
            RunConfig(dims=(7,))

    def test_rejects_small_p(self):
        with pytest.raises(ConfigError):
            RunConfig(p_grid=(0.5,))

    def test_rejects_lambda_outside_range(self):
        with pytest.raises(ConfigError):
            RunConfig(dims=(2,), lambdas=(-0.9,))

    def test_unchecked_lambda_allows_out_of_range(self):
        cfg = RunConfig(dims=(2,), lambdas=(-0.9,), unchecked_lambda=True)
        assert cfg.lambdas == (-0.9,)

    @pytest.mark.parametrize("grid", [{"dims": (2, 3, 2)},
                                      {"lambdas": (0.5, 0.5)},
                                      {"p_grid": (2, 2.0)}])
    def test_rejects_repeated_entries(self, grid):
        with pytest.raises(ConfigError, match="must not repeat"):
            RunConfig(**grid)

    def test_trials_bounded(self):
        assert RunConfig(trials=MAX_TRIALS).trials == MAX_TRIALS
        for trials in (0, MAX_TRIALS + 1, 10 ** 30):
            with pytest.raises(ConfigError, match="trials must lie in"):
                RunConfig(trials=trials)

    def test_rejects_unknown_tolerance(self):
        with pytest.raises(ConfigError):
            RunConfig(tolerances={"nope": 1e-3})

    def test_tolerance_override(self):
        cfg = RunConfig(tolerances={"additivity": 1e-2})
        assert cfg.tolerance("additivity") == 1e-2
        assert cfg.tolerance("reconstruction") == 1e-10


class TestChildSeed:
    def test_deterministic(self):
        assert child_seed(7, 1, 2, 3) == child_seed(7, 1, 2, 3)

    def test_distinct_paths(self):
        seeds = {child_seed(0, i, j) for i in range(4) for j in range(4)}
        assert len(seeds) == 16


class TestMatrixRoundTrip:
    def test_complex_round_trip(self):
        rng = np.random.default_rng(3)
        m = rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
        assert np.array_equal(deserialize_matrix(serialize_matrix(m)), m)


class TestResolveOutPath:
    def test_stdout_by_default(self, monkeypatch):
        monkeypatch.delenv("DEPOLCAP_OUT_DIR", raising=False)
        assert resolve_out_path(None, "measures", "json") is None

    def test_env_dir_supplies_default_name(self, monkeypatch):
        monkeypatch.setenv("DEPOLCAP_OUT_DIR", "/tmp/reports")
        assert (resolve_out_path(None, "verify", "csv")
                == "/tmp/reports/verify-report.csv")

    def test_explicit_relative_lands_in_env_dir(self, monkeypatch):
        monkeypatch.setenv("DEPOLCAP_OUT_DIR", "/tmp/reports")
        assert resolve_out_path("x.json", "verify", "json") == "/tmp/reports/x.json"

    def test_explicit_absolute_wins(self, monkeypatch):
        monkeypatch.setenv("DEPOLCAP_OUT_DIR", "/tmp/reports")
        assert resolve_out_path("/a/b.json", "verify", "json") == "/a/b.json"


# ---------------------------------------------------------------------------
# Exit codes
# ---------------------------------------------------------------------------

class TestExitCodes:
    def test_pass_exits_zero(self, capsys):
        code, out, _ = run_cli(["measures"] + FAST, capsys)
        assert code == 0
        assert json.loads(out)["summary"]["failed"] == 0

    def test_failed_check_exits_one(self, forced_failure):
        # A seeded fault in nu_p(Delta) forces a multiplicativity failure;
        # the run exits 1 (asserted by the fixture) and the failing record
        # carries a replayable witness.
        failed, _ = forced_failure
        assert failed["name"] == "nu-p-multiplicativity"
        assert failed["witness"] is not None

    def test_config_error_exits_two(self, capsys):
        code, _, err = run_cli(["measures", "--dims", "9"], capsys)
        assert code == 2
        assert "error:" in err

    @pytest.mark.parametrize("source", ["flag", "config"])
    def test_too_many_trials_exit_two(self, tmp_path, capsys, source):
        # Refused before anything is drawn: exit 2, an error line, no
        # traceback.
        trials = 10 ** 30
        argv = ["--trials", str(trials)]
        if source == "config":
            cfg = tmp_path / "cfg.json"
            cfg.write_text(json.dumps({"trials": trials}))
            argv = ["--config", str(cfg)]
        code, out, err = run_cli(["verify"] + argv, capsys)
        assert (code, out) == (2, "")
        assert err.startswith("error: trials must lie in 1..")

    def test_lambda_out_of_range_exits_two(self, capsys):
        code, _, err = run_cli(["measures", "--dims", "2",
                                "--lambdas", "-0.9"], capsys)
        assert code == 2
        assert "unchecked-lambda" in err

    def test_unchecked_lambda_outside_cp_range(self, capsys):
        # Outside CP range but the pure-output spectrum is still a
        # probability vector, so the measures stay finite; cp is flagged.
        code, out, _ = run_cli(
            ["measures", "--dims", "2", "--lambdas", "-0.9", "--p-grid", "2",
             "--unchecked-lambda"], capsys)
        assert code == 0
        report = json.loads(out)
        rows = [r for r in report["records"]
                if r["name"] == "measures-closed-form"]
        assert rows and all(r["passed"] for r in rows)
        assert all(r["values"]["cp"] is False for r in rows)
        assert all(r["values"]["min_choi_eig"] < 0 for r in rows)

    def test_unchecked_lambda_negative_spectrum_fails(self, capsys):
        # Below -1/(d-1) even the output spectrum goes negative: the
        # closed forms are undefined and the rows fail honestly.
        code, out, _ = run_cli(
            ["measures", "--dims", "2", "--lambdas", "-1.5", "--p-grid", "2",
             "--unchecked-lambda"], capsys)
        assert code == 1
        report = json.loads(out)
        rows = [r for r in report["records"]
                if r["name"] == "measures-closed-form"]
        assert rows and all(not r["passed"] for r in rows)
        assert all(r["values"]["s_min"] is None for r in rows)

    def test_bad_config_file_exits_two(self, capsys, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text("{not json")
        code, _, err = run_cli(["measures", "--config", str(cfg)], capsys)
        assert code == 2

    def test_unknown_config_key_exits_two(self, capsys, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"dms": [2]}))
        code, _, _ = run_cli(["measures", "--config", str(cfg)], capsys)
        assert code == 2

    def test_negative_lambda_in_exponent_notation(self, capsys):
        reports = []
        for spelling in ("-1e-05", "-0.00001"):
            code, out, _ = run_cli(["measures", "--dims", "2", "--lambdas",
                                    spelling, "--p-grid", "2"], capsys)
            assert code == 0
            reports.append(strip_timestamp(out))
        assert reports[0] == reports[1]

    @pytest.mark.parametrize("argv", [
        ["measures", "--unchecked-lambda", "--lambdas", "nan"],
        ["verify", "--unchecked-lambda", "--lambdas", "inf"],
        ["measures", "--p-grid", "inf"],
    ])
    def test_non_finite_grid_exits_two(self, capsys, argv):
        code, out, err = run_cli(argv + ["--dims", "2"], capsys)
        assert code == 2
        assert out == ""
        assert "must be finite" in err and "Traceback" not in err

    @pytest.mark.parametrize("config", [
        {"lambdas": ["abc"]},
        {"lambdas": 0.5},
        {"dims": [2.7]},
        {"seed": 2.5},
        {"seed": -1},
        {"tolerances": {"additivity": "x"}},
        {"tolerances": {"additivity": -1}},
        {"out": 5},
        {"out": ["a"]},
        {"bits": "no"},
        {"strict": 1},
        {"unchecked_lambda": "no"},
        {"fmt": "csv"},
    ])
    def test_wrongly_typed_config_value_exits_two(self, capsys, tmp_path,
                                                   config):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps(config))
        code, out, err = run_cli(["measures", "--config", str(cfg),
                                  "--p-grid", "2"], capsys)
        assert code == 2
        assert out == ""
        assert "error:" in err and "Traceback" not in err

    def test_unknown_format_exits_two(self, capsys):
        # The parser lists no formats: RunConfig alone names them.
        code, out, err = run_cli(["measures", "--format", "xml"], capsys)
        assert (code, out) == (2, "")
        assert err.startswith("error: unknown format 'xml'")

    # A non-finite token anywhere in a config file, as in a witness file.
    @pytest.mark.parametrize("token", ["NaN", "Infinity", "-Infinity", "1e400"])
    def test_non_finite_config_number_exits_two(self, capsys, tmp_path, token):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(f'{{"tolerances": {{"additivity": {token}}}}}')
        code, out, err = run_cli(["measures", "--config", str(cfg)], capsys)
        assert (code, out) == (2, "")
        assert "non-finite number" in err and "Traceback" not in err

    @pytest.mark.parametrize("content", [
        None, "{bad", "{}",
        '{"check": "lieb-thirring", "inputs": {"p": 1e400}}'])
    def test_bad_witness_file_exits_two(self, capsys, tmp_path, content):
        path = tmp_path / "witness.json"
        if content is not None:
            path.write_text(content)
        code, out, err = run_cli(["verify", "--replay", str(path)], capsys)
        assert code == 2
        assert out == ""
        assert "error:" in err and "Traceback" not in err

    def test_repeated_grid_entries_exit_two(self, capsys, tmp_path):
        # verify keys its partners by d': a repeated dimension would run one
        # cell twice and give its records one digest.
        code, out, err = run_cli(["verify", "--dims", "2", "2", "--trials",
                                  "2", "--p-grid", "2", "--lambdas", "0.5"],
                                 capsys)
        assert (code, out) == (2, "")
        assert "must not repeat" in err and "Traceback" not in err
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"lambdas": [0.5, 0.25, 0.5]}))
        code, out, err = run_cli(["measures", "--config", str(cfg)], capsys)
        assert (code, out) == (2, "")
        assert "must not repeat" in err and "Traceback" not in err

    def test_non_integer_trials_in_config_exits_two(self, capsys, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"trials": 2.7}))
        code, out, err = run_cli(["verify", "--config", str(cfg)], capsys)
        assert code == 2
        assert out == ""
        assert "trials must be an integer" in err

    # A JSON integer beyond float range: float() overflows at 401 digits,
    # and past 4300 digits the JSON reader refuses to convert it.
    @pytest.mark.parametrize("digits", [401, 5001])
    @pytest.mark.parametrize("key", ["tolerances", "lambdas", "p_grid"])
    def test_config_number_beyond_float_range_exits_two(self, capsys, tmp_path,
                                                         key, digits):
        big = "1" + "0" * (digits - 1)
        value = f'{{"invariance": {big}}}' if key == "tolerances" else f"[{big}]"
        cfg = tmp_path / "cfg.json"
        cfg.write_text(f'{{"{key}": {value}}}')
        code, out, err = run_cli(["measures", "--config", str(cfg)], capsys)
        assert (code, out) == (2, "")
        assert "error:" in err and "Traceback" not in err


# ---------------------------------------------------------------------------
# Config file and flag precedence
# ---------------------------------------------------------------------------

class TestConfigFile:
    def test_config_file_sets_values(self, capsys, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"dims": [3], "lambdas": [0.5],
                                   "p_grid": [2.0], "format": "csv"}))
        code, out, _ = run_cli(["measures", "--config", str(cfg)], capsys)
        assert code == 0
        assert out.startswith("name,")
        assert ",3," in out.splitlines()[1]

    def test_flags_override_config_file(self, capsys, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"dims": [3], "lambdas": [0.5],
                                   "p_grid": [2.0]}))
        code, out, _ = run_cli(
            ["measures", "--config", str(cfg), "--dims", "2"], capsys)
        assert code == 0
        report = json.loads(out)
        assert report["config"]["dims"] == [2]
        assert report["config"]["lambdas"] == [0.5]


# ---------------------------------------------------------------------------
# Output targets
# ---------------------------------------------------------------------------

class TestOutputTargets:
    def test_out_flag_writes_file(self, capsys, tmp_path):
        path = tmp_path / "m.json"
        code, out, _ = run_cli(["measures"] + FAST + ["--out", str(path)],
                               capsys)
        assert code == 0
        assert json.loads(path.read_text())["command"] == "measures"
        assert "checks passed" in out  # summary line replaces the report

    def test_env_dir_default_filename(self, capsys, tmp_path, monkeypatch):
        monkeypatch.setenv("DEPOLCAP_OUT_DIR", str(tmp_path))
        code, _, _ = run_cli(["measures"] + FAST, capsys)
        assert code == 0
        assert (tmp_path / "measures-report.json").exists()

    def test_env_dir_with_relative_out(self, capsys, tmp_path, monkeypatch):
        monkeypatch.setenv("DEPOLCAP_OUT_DIR", str(tmp_path))
        code, _, _ = run_cli(["measures"] + FAST + ["--out", "sub/m.csv",
                                                    "--format", "csv"], capsys)
        assert code == 0
        assert (tmp_path / "sub" / "m.csv").read_text().startswith("name,")

    @pytest.mark.parametrize("target", ["directory", "path_under_a_file"])
    def test_unwritable_out_exits_two(self, capsys, tmp_path, target):
        blocker = tmp_path / "blocker.json"
        blocker.write_text("")
        path = tmp_path if target == "directory" else blocker / "x.json"
        code, out, err = run_cli(["measures"] + FAST + ["--out", str(path)],
                                 capsys)
        assert code == 2
        assert out == ""
        assert "error: cannot write report" in err and "Traceback" not in err


# ---------------------------------------------------------------------------
# Determinism and formats
# ---------------------------------------------------------------------------

class TestDeterminism:
    @pytest.mark.parametrize("command", ["measures", "decompose", "capacity"])
    def test_same_seed_same_bytes(self, command, capsys):
        _, out1, _ = run_cli([command] + FAST, capsys)
        _, out2, _ = run_cli([command] + FAST, capsys)
        assert strip_timestamp(out1) == strip_timestamp(out2)

    def test_verify_same_seed_same_bytes(self, capsys):
        args = ["verify"] + FAST + ["--seed", "5"]
        _, out1, _ = run_cli(args, capsys)
        _, out2, _ = run_cli(args, capsys)
        assert strip_timestamp(out1) == strip_timestamp(out2)

    def test_different_seed_changes_randomized_values(self, capsys):
        _, out1, _ = run_cli(["verify"] + FAST + ["--seed", "1"], capsys)
        _, out2, _ = run_cli(["verify"] + FAST + ["--seed", "2"], capsys)
        v1 = json.loads(out1)
        v2 = json.loads(out2)
        pick = lambda rep: [r["values"]["min_slack"]
                            for r in rep["records"]
                            if r["name"] == "lieb-thirring"]
        assert pick(v1) != pick(v2)

    def test_csv_determinism(self, capsys):
        args = ["measures"] + FAST + ["--format", "csv"]
        _, out1, _ = run_cli(args, capsys)
        _, out2, _ = run_cli(args, capsys)
        assert out1 == out2  # CSV carries no timestamp at all


class TestFormats:
    def test_json_is_sorted_and_parseable(self, capsys):
        _, out, _ = run_cli(["measures"] + FAST, capsys)
        report = json.loads(out)
        assert list(report) == sorted(report)
        for record in report["records"]:
            assert record["name"] in {"measures-closed-form",
                                      "measures-consistency"}
            assert record["claim"]

    def test_csv_header_and_floats(self, capsys):
        _, out, _ = run_cli(["measures"] + FAST + ["--format", "csv"], capsys)
        lines = out.splitlines()
        assert lines[0].split(",")[:5] == ["name", "digest", "passed",
                                           "slack", "seed"]
        # 17 significant digits survive the round trip
        row = lines[1].split(",")
        header = lines[0].split(",")
        nu = float(row[header.index("val_nu_p")])
        assert nu == float(format(nu, ".17g"))

    def test_bits_conversion(self, capsys):
        _, nats_out, _ = run_cli(["measures", "--dims", "2", "--lambdas", "1",
                                  "--p-grid", "2"], capsys)
        _, bits_out, _ = run_cli(["measures", "--dims", "2", "--lambdas", "1",
                                  "--p-grid", "2", "--bits"], capsys)
        nats = json.loads(nats_out)
        bits = json.loads(bits_out)
        assert nats["units"] == "nats" and bits["units"] == "bits"
        row_n = [r for r in nats["records"]
                 if r["name"] == "measures-closed-form"][0]
        row_b = [r for r in bits["records"]
                 if r["name"] == "measures-closed-form"][0]
        # chi_star(lam=1) = ln 2 nats = exactly 1 bit; nu_p is not an
        # entropy and must not be rescaled.
        assert row_n["values"]["chi_star"] == pytest.approx(np.log(2), abs=1e-15)
        assert row_b["values"]["chi_star"] == pytest.approx(1.0, abs=1e-15)
        assert row_b["values"]["nu_p"] == row_n["values"]["nu_p"]


# ---------------------------------------------------------------------------
# Per-command content
# ---------------------------------------------------------------------------

class TestMeasuresContent:
    def test_closed_form_values(self, capsys):
        _, out, _ = run_cli(["measures", "--dims", "2", "--lambdas", "0.5",
                             "--p-grid", "2"], capsys)
        report = json.loads(out)
        row = [r for r in report["records"]
               if r["name"] == "measures-closed-form"][0]
        assert row["values"]["nu_p"] == pytest.approx(
            np.sqrt(0.75 ** 2 + 0.25 ** 2), abs=1e-15)
        cons = [r for r in report["records"]
                if r["name"] == "measures-consistency"][0]
        assert cons["values"]["consistency_gap"] <= 1e-15


class TestDecomposeContent:
    def test_census_and_term_counts(self, capsys):
        _, out, _ = run_cli(["decompose", "--dims", "2", "--lambdas", "0.5",
                             "--p-grid", "2"], capsys)
        report = json.loads(out)
        by_name = {r["name"]: r for r in report["records"]}
        assert by_name["diophantine-census"]["values"]["count"] == 6
        assert by_name["decomposition-reconstruction"]["values"]["n_terms"] == 24
        assert by_name["omega-split"]["passed"]
        assert by_name["phase-average"]["passed"]

    def test_signed_decomposition_flagged(self, capsys):
        lam = -0.2  # inside the admissible range at d = 2, below 0
        _, out, _ = run_cli(["decompose", "--dims", "2", "--lambdas",
                             str(lam), "--p-grid", "2"], capsys)
        report = json.loads(out)
        row = [r for r in report["records"]
               if r["name"] == "decomposition-reconstruction"][0]
        assert row["passed"]
        assert row["values"]["signed"] is True
        assert row["values"]["reconstruction_error"] < 1e-10

    @pytest.mark.parametrize("d", [2, 3, 4, 5, 6])
    def test_signed_at_depolarizing_lambda_min(self, capsys, d):
        # -1/(d^2 - 1), the lower edge of Delta's CP range, needs no
        # --unchecked-lambda; the decomposition there is signed.
        lam = lambda_min(d)
        code, out, _ = run_cli(["decompose", "--dims", str(d), "--lambdas",
                                repr(lam)], capsys)
        assert code == 0
        row = [r for r in json.loads(out)["records"]
               if r["name"] == "decomposition-reconstruction"][0]
        assert row["passed"]
        assert row["values"]["convex"] is False
        assert row["values"]["reconstruction_error"] <= 1e-10

    @pytest.mark.parametrize("d", [2, 3, 4, 5, 6])
    def test_singular_weight_denominator_is_an_error_record(self, capsys, d):
        # At lam = -1/(d - 1) the mixing weights are singular: the
        # decomposition's record carries the error and fails, the identity
        # checks of that lambda are skipped, and the run exits 1.
        code, out, err = run_cli(
            ["decompose", "--dims", str(d), "--lambdas", repr(-1.0 / (d - 1)),
             "--unchecked-lambda"], capsys)
        assert code == 1
        assert "Traceback" not in err
        records = json.loads(out)["records"]
        assert sorted(r["name"] for r in records) == [
            "decomposition-reconstruction", "diophantine-census"]
        row = [r for r in records if r["name"] == "decomposition-reconstruction"][0]
        assert row["passed"] is False
        assert list(row["values"]) == ["error"]
        assert "singular weight denominator" in row["values"]["error"]


class TestCapacityContent:
    def test_chain_rows_and_monotonicity(self, capsys):
        code, out, _ = run_cli(["capacity", "--dims", "2", "--lambdas",
                                "0", "0.5", "1", "--p-grid", "2"], capsys)
        assert code == 0
        report = json.loads(out)
        rows = [r for r in report["records"] if r["name"] == "capacity-chain"]
        assert len(rows) == 3
        for row in rows:
            assert abs(row["values"]["capacity_gap"]) <= 1e-8
            assert abs(row["values"]["holevo_gap"]) <= 1e-6
            assert row["values"]["converged"] is True
        mono = [r for r in report["records"]
                if r["name"] == "capacity-monotone"][0]
        assert mono["passed"]
        assert mono["values"]["min_increment"] >= -1e-12

    def test_full_dimension_sweep(self, capsys):
        # The largest optimizer supports: 36 basis states at d = 6, lambda
        # = 0, where the joint support ascent must stop at once.
        code, out, _ = run_cli(["capacity", "--dims", "2", "3", "4", "5",
                                "6"], capsys)
        assert code == 0
        report = json.loads(out)
        assert report["summary"]["passed"] == report["summary"]["total"] == 30
        rows = [r for r in report["records"] if r["name"] == "capacity-chain"]
        assert len(rows) == 25
        for row in rows:
            assert row["passed"] and row["values"]["converged"] is True
            assert (abs(row["values"]["capacity_gap"])
                    <= DEFAULT_TOLERANCES["capacity_chain"])
            assert (abs(row["values"]["holevo_gap"])
                    <= DEFAULT_TOLERANCES["holevo_agreement"])

    def test_out_of_range_lambda_skipped_with_warning(self, capsys):
        # A skipped check verified nothing, so it does not count as a pass.
        code, out, _ = run_cli(
            ["capacity", "--dims", "2", "--lambdas", "-0.5", "0.5",
             "--p-grid", "2", "--unchecked-lambda"], capsys)
        assert code == 1
        report = json.loads(out)
        skipped = [r for r in report["records"]
                   if r["values"].get("skipped")]
        assert len(skipped) == 1 and not skipped[0]["passed"]
        assert "skipped" in skipped[0]["warning"]
        assert report["summary"]["failed"] == 1


class TestVerifyContent:
    def test_families_present_and_pass(self, capsys):
        code, out, _ = run_cli(["verify"] + FAST, capsys)
        assert code == 0
        report = json.loads(out)
        names = {r["name"] for r in report["records"]}
        assert names == {"cp-range-witness", "lieb-thirring",
                         "tensor-output-norm-bound", "local-unitary-invariance",
                         "nu-p-multiplicativity", "relative-entropy-tensor-bound",
                         "chi-additivity"}
        assert report["summary"]["failed"] == 0

    def test_one_holevo_run_per_partner(self, capsys, monkeypatch):
        # One run per partner: the Psi of d' = 2 and 3, and the
        # Delta_2(0.7) partner. The random qubit row reuses its Psi's run,
        # and chi*(Delta_2) of each chi-additivity row is closed form.
        calls = []
        real = cli.holevo_quantity

        def counted(channel, *args, **kwargs):
            calls.append(channel)
            return real(channel, *args, **kwargs)

        monkeypatch.setattr(cli, "holevo_quantity", counted)
        monkeypatch.setattr(capacity, "holevo_quantity", counted)
        code, _, _ = run_cli(["verify"], capsys)
        assert code == 0
        assert len(calls) == 3

    def test_one_check_call_per_cell(self, capsys, monkeypatch):
        # Each cell evaluates its trials as one stack: one call per (d, p)
        # of the trace inequality, and per (d, d', lam) of the norm bound,
        # invariance, multiplicativity and relative-entropy bound, whose
        # one call serves every p of the grid.
        calls = count_family_checks(monkeypatch)
        code, _, _ = run_cli(["verify", "--dims", "2", "3", "--trials", "3"],
                             capsys)
        assert code == 0
        assert [calls[name] for name in FAMILY_CHECKS] == [6, 20, 20, 20, 20]

    def test_grid_rows_match_one_p_calls(self):
        # One cell's stack read at the whole p grid gives, bit for bit, what
        # the family function gives with the grid (p,) alone; the
        # multiplicativity stack keeps the trials and p's saturating row.
        ps = (1.0, 1.5, 2.0, 3.0, 700.0)
        d, dp, trials = 3, 2, 7
        dep = DepolarizingChannel(d, 0.4)
        psi = random_channel(dp, dp, 2, seed=31)
        states = random_density_matrices(d * dp, 32, trials)
        us = random_unitaries(d, 33, trials)
        sat = cli._saturating_stack(states, d, random_unitaries(dp, 34, len(ps))[:, 0])
        tol = {"tolerance": 1e-9}
        scalars = [{"bound": 0.5 + 0.1 * k, "saturation": 1e-6, **tol}
                   for k in range(len(ps))]
        cases = [
            (cli._norm_bound, (PhaseDampingChannel(d, 0.4),), (states,),
             [tol] * len(ps), lambda k: (states,)),
            (cli._invariance, (dep, psi), (states, us), [tol] * len(ps),
             lambda k: (states, us)),
            (cli._multiplicativity, (dep, psi), (sat,), scalars,
             lambda k: (np.concatenate([sat[:trials], sat[trials + k][None]]),)),
        ]
        for family, channels, stacks, grid_scalars, one_stacks in cases:
            rows = family(*channels, ps, *stacks, grid_scalars)
            assert len(rows) == len(ps)
            for k, p in enumerate(ps):
                [one] = family(*channels, (p,), *one_stacks(k), [grid_scalars[k]])
                assert rows[k][:3] == one[:3], (family.__name__, p)
                assert rows[k][3][0] == one[3][0]

    # An optimizer run that did not converge is a warning, and a failure
    # under --strict.
    @pytest.mark.parametrize("argv, name", [
        (["capacity", "--dims", "2", "--lambdas", "0.5"], "capacity-chain"),
        (["verify"] + FAST, "chi-additivity")])
    def test_strict_fails_unconverged_rows(self, capsys, monkeypatch, argv,
                                           name):
        real = cli.holevo_quantity
        monkeypatch.setattr(cli, "holevo_quantity", lambda *a, **k: (
            dataclasses.replace(real(*a, **k), converged=False)))

        def rows(extra):
            code, out, err = run_cli(argv + extra, capsys)
            found = [r for r in json.loads(out)["records"] if r["name"] == name]
            assert found and all(r["warning"] == "optimizer did not converge"
                                 for r in found)
            assert "optimizer did not converge" in err
            return code, found

        code, found = rows([])
        assert code == 0 and all(r["passed"] for r in found)
        code, found = rows(["--strict"])
        assert code == 1 and not any(r["passed"] for r in found)

    def test_nan_slack_fails_its_row(self, capsys, monkeypatch):
        # A NaN slack can show nothing and must not pass. Large p no longer
        # produces one (test_lieb_thirring_holds_at_large_p), so one trial's
        # lhs is made NaN here.
        real = cli.lieb_thirring_check

        def poisoned(a, b, p):
            chk = real(a, b, p)
            lhs = np.array(chk.lhs)
            lhs[3] = np.nan
            return InequalityCheck(lhs=lhs, rhs=chk.rhs)

        monkeypatch.setattr(cli, "lieb_thirring_check", poisoned)
        code, out, _ = run_cli(["verify", "--dims", "2", "3", "--p-grid",
                                "2", "--trials", "20"], capsys)
        assert code == 1
        rows = {r["inputs"]["dim"]: r for r in json.loads(out)["records"]
                if r["name"] == "lieb-thirring"}
        assert rows[3]["values"]["min_slack"] is None
        assert not rows[3]["passed"]
        assert all(r["passed"] is False for r in rows.values()
                   if r["values"]["min_slack"] is None)

    def test_lieb_thirring_slack_is_relative(self, capsys, monkeypatch):
        # Commuting pairs meet the trace inequality with equality. With
        # spectra in [0.2, 0.5] both sides are below 1e-30 at p = 50, so an
        # absolute slack would let a relative error of 1e-9 in lhs pass.
        # Both spectra ascend, so the top eigenvectors coincide and
        # rhs = Tr A^p B^p is accurate.
        u = random_unitaries(3, 4, 1)[0]
        spectra = np.sort(np.random.default_rng(6).uniform(0.2, 0.5, (5, 2, 3)))
        pairs = (u * spectra[..., None, :]) @ u.conj().T
        monkeypatch.setattr(cli, "random_psd_matrices",
                            lambda d, seed, lead: pairs)
        args = ["verify", "--dims", "3", "--lambdas", "0.5", "--p-grid", "50",
                "--trials", "5"]

        def lieb_thirring_row():
            report = json.loads(run_cli(args, capsys)[1])
            return next(r for r in report["records"]
                        if r["name"] == "lieb-thirring")

        exact = lieb_thirring_row()
        assert exact["passed"] and abs(exact["values"]["min_slack"]) < 1e-12
        real = cli.lieb_thirring_check
        monkeypatch.setattr(cli, "lieb_thirring_check", lambda a, b, p: (
            lambda chk: InequalityCheck(lhs=chk.lhs * (1.0 + 1e-9),
                                        rhs=chk.rhs))(real(a, b, p)))
        perturbed = lieb_thirring_row()
        assert not perturbed["passed"]
        assert perturbed["values"]["min_slack"] == pytest.approx(-1e-9,
                                                                 rel=1e-3)

    def test_lieb_thirring_holds_at_large_p(self, capsys):
        # Tr A^p B^p overflowed to a NaN slack here until the pairs were
        # scaled by their top eigenvalues.
        code, out, _ = run_cli(["verify", "--dims", "2", "3", "--p-grid",
                                "300", "--trials", "20"], capsys)
        rows = [r for r in json.loads(out)["records"]
                if r["name"] == "lieb-thirring"]
        assert len(rows) == 2
        assert all(r["passed"] and r["values"]["min_slack"] > 0.0 for r in rows)
        assert code == 0

    def test_norm_bound_holds_at_large_p(self, capsys):
        _, out, _ = run_cli(["verify", "--dims", "2", "3", "--p-grid", "700",
                             "--trials", "20"], capsys)
        rows = [r for r in json.loads(out)["records"]
                if r["name"] == "tensor-output-norm-bound"]
        assert len(rows) == 20 and all(r["passed"] for r in rows)

    def test_p_norm_search_at_p_100000(self, capsys):
        # nu_p of the pure-output qubit partner is 1. On Tr A^p the search
        # read 0.0 here, and five nu-p-multiplicativity rows failed with
        # bound 0.0.
        code, out, _ = run_cli(["verify", "--dims", "2", "--trials", "1",
                                "--p-grid", "100000"], capsys)
        report = json.loads(out)
        assert report["summary"]["passed"] == report["summary"]["total"] == 28
        rows = [r for r in report["records"]
                if r["name"] == "nu-p-multiplicativity"]
        assert rows and all(r["values"]["bound"] > 0.0 for r in rows)
        assert code == 0

    def test_generator_budget_of_the_default_verify(self, capsys, monkeypatch):
        # Every Monte-Carlo cell draws its trials from one generator, and
        # every optimizer search its starts: 129 in all. One draw per p of
        # a (d, d', lam) cell made 289, one generator per optimizer start
        # about 900, and one per trial 16,432.
        made = []
        inner = np.random.default_rng

        def counted(*args, **kwargs):
            made.append(1)
            return inner(*args, **kwargs)

        monkeypatch.setattr(np.random, "default_rng", counted)
        code, _, _ = run_cli(["verify"], capsys)
        assert code == 0
        assert len(made) <= 129

    def test_cp_witness_sign_flip(self, capsys):
        code, out, _ = run_cli(
            ["verify", "--dims", "2", "--lambdas", "-0.5", "--p-grid", "2",
             "--trials", "2", "--unchecked-lambda"], capsys)
        report = json.loads(out)
        row = [r for r in report["records"] if r["name"] == "cp-range-witness"][0]
        assert row["passed"]  # negative eigenvalue expected outside the range
        assert row["values"]["min_choi_eig"] < 0
        assert row["values"]["cp_expected"] is False


# ---------------------------------------------------------------------------
# Witness replay
# ---------------------------------------------------------------------------

# Two seeded faults, each of which fails one saturation clause of the fast
# verify at seed 11: nu_p(Delta) scaled by 1 + 1e-3 moves the product bound
# off the product input's norm (saturation_gap -7.4e-4), and chi*(Delta)
# raised by 1e-3 moves rhs off the saturating input (relent_saturation_gap
# 1.0e-3). Each entry: (check, gap key, attribute, faulty version).
_real_nu_p = DepolarizingChannel.nu_p
_real_chi_star = DepolarizingChannel.chi_star
SEEDED_FAULTS = {
    "nu_p": ("nu-p-multiplicativity", "saturation_gap", "nu_p",
             lambda self, p: _real_nu_p(self, p) * (1.0 + 1e-3)),
    "chi_star": ("relative-entropy-tensor-bound", "relent_saturation_gap",
                 "chi_star", lambda self: _real_chi_star(self) + 1e-3),
}


def faulty_verify(base, fault):
    """The fast verify at seed 11 run in-process under a seeded fault:
    returns (failed record of the fault's check, its witness file path)."""
    check, _, attr, faulty = SEEDED_FAULTS[fault]
    out = io.StringIO()
    with mock.patch.object(DepolarizingChannel, attr, faulty), \
            contextlib.redirect_stdout(out):
        code = main(["verify"] + FAST + ["--seed", "11"])
    assert code == 1
    failed = [r for r in json.loads(out.getvalue())["records"]
              if not r["passed"] and r["name"] == check]
    assert len(failed) == 1
    path = base / f"{fault}.json"
    path.write_text(json.dumps(failed[0]["witness"]))
    return failed[0], str(path)


@pytest.fixture(scope="module")
def forced_failure(tmp_path_factory):
    """The nu_p fault's failed record and witness file, reused by the
    replay tests."""
    return faulty_verify(tmp_path_factory.mktemp("replay"), "nu_p")


@pytest.fixture(scope="module")
def zero_tolerance_witnesses(tmp_path_factory):
    """One verify run with zero invariance and relent-saturation
    tolerances: returns {check name: (failed record, witness file path)}
    for the first failed record of each check."""
    base = tmp_path_factory.mktemp("replay0")
    cfg = base / "cfg.json"
    cfg.write_text(json.dumps({"tolerances": {"invariance": 0,
                                              "relent_saturation": 0}}))
    proc = subprocess.run(
        [sys.executable, "-m", "depolcap.cli", "verify"] + FAST
        + ["--config", str(cfg), "--seed", "11"],
        capture_output=True, text=True)
    assert proc.returncode == 1
    out = {}
    for rec in json.loads(proc.stdout)["records"]:
        if not rec["passed"] and rec["name"] not in out:
            path = base / f"{rec['name']}.json"
            path.write_text(json.dumps(rec["witness"]))
            out[rec["name"]] = (rec, str(path))
    return out


class TestReplay:
    def test_invariance_round_trip(self, zero_tolerance_witnesses):
        failed, path = zero_tolerance_witnesses["local-unitary-invariance"]
        record, passed = run_replay(path)
        assert not passed
        assert record["values"]["max_deviation"] == pytest.approx(
            failed["values"]["max_deviation"], abs=1e-12)
        assert record["slack"] == pytest.approx(
            -record["values"]["max_deviation"], abs=1e-15)

    def test_relent_round_trip(self, zero_tolerance_witnesses):
        failed, path = zero_tolerance_witnesses["relative-entropy-tensor-bound"]
        record, passed = run_replay(path)
        # Only the saturation tolerance was zeroed: the bound itself holds,
        # and the saturating input's gap fails again.
        assert not passed
        for key in ("relent_min_slack", "relent_saturation_gap"):
            assert record["values"][key] == pytest.approx(
                failed["values"][key], abs=1e-12)
        assert record["slack"] == pytest.approx(
            failed["values"]["relent_min_slack"], abs=1e-12)

    def test_every_zero_tolerance_witness_replays(self, tmp_path):
        # With every randomized tolerance at 0, each witness, whatever its
        # p's place in the grid, replays to its record's values and exit
        # code.
        cfg = tmp_path / "zero.json"
        cfg.write_text(json.dumps({"tolerances": {
            k: 0 for k in ("lieb_thirring", "norm_bound", "invariance",
                           "multiplicativity", "product_saturation",
                           "relent_bound", "relent_saturation")}}))
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            assert main(["verify", "--dims", "2", "3", "--trials", "5",
                         "--config", str(cfg)]) == 1
        failed = [r for r in json.loads(out.getvalue())["records"]
                  if r.get("witness")]
        assert {r["name"] for r in failed} >= {
            "tensor-output-norm-bound", "local-unitary-invariance",
            "nu-p-multiplicativity"}
        for k, rec in enumerate(failed):
            path = tmp_path / f"w{k}.json"
            path.write_text(json.dumps(rec["witness"]))
            replayed, passed = run_replay(str(path))
            assert passed is rec["passed"]
            # A witness keeps only the worst trial, so trials reads 1.
            assert replayed["values"].pop("trials") == 1
            rec["values"].pop("trials")
            assert replayed["values"] == pytest.approx(
                rec["values"], rel=1e-12, abs=1e-12), rec["name"]
            assert replayed["slack"] == pytest.approx(rec["slack"], rel=1e-12,
                                                      abs=1e-12)

    def test_witness_written_on_failure_and_replays(self, forced_failure):
        failed, path = forced_failure
        assert failed["witness"]["check"] == "nu-p-multiplicativity"
        record, passed = run_replay(path)
        # The recorded worst input still satisfies the bound; the failure
        # is the saturation clause, which replay checks again.
        assert record["check"] == "nu-p-multiplicativity"
        assert record["values"]["max_norm"] <= record["values"]["bound"] + 1e-8
        assert not passed

    def test_replay_cli_exit_codes(self, forced_failure, capsys):
        _, path = forced_failure
        code, out, _ = run_cli(["verify", "--replay", path], capsys)
        assert code == 1
        replayed = json.loads(out)
        assert replayed["command"] == "replay"
        assert replayed["passed"] is False

    def test_replay_reproduces_recorded_norm(self, forced_failure):
        failed, path = forced_failure
        record, _ = run_replay(path)
        for key in ("max_norm", "bound", "product_norm", "saturation_gap"):
            assert record["values"][key] == pytest.approx(
                failed["values"][key], abs=1e-12)

    # Each witness replays, in a fresh process without the fault, to its
    # record's verdict and gap.
    @pytest.mark.parametrize("fault", sorted(SEEDED_FAULTS))
    def test_seeded_fault_witness_replays_to_its_verdict(self, tmp_path,
                                                         fault):
        check, gap, _, _ = SEEDED_FAULTS[fault]
        failed, path = faulty_verify(tmp_path, fault)
        assert abs(failed["values"][gap]) > 5e-4
        proc = subprocess.run(
            [sys.executable, "-m", "depolcap.cli", "verify", "--replay", path],
            capture_output=True, text=True)
        assert proc.returncode == 1, proc.stderr
        record = json.loads(proc.stdout)
        assert record["check"] == check and record["passed"] is False
        assert abs(record["values"][gap] - failed["values"][gap]) <= 1e-12
        assert abs(record["slack"] - failed["slack"]) <= 1e-12

    # The witness's tolerances follow RunConfig's rule: a finite,
    # non-negative number that is not a bool. -1.0 made a 4.4e-16
    # deviation read as a reproduced violation, and true read as 1.0.
    @pytest.mark.parametrize("key", ["tolerance", "saturation"])
    @pytest.mark.parametrize("value", [-1.0, True, "x", "missing"])
    def test_witness_tolerance_follows_the_config_rule(
            self, forced_failure, tmp_path, capsys, key, value):
        witness = json.loads(open(forced_failure[1]).read())
        if value == "missing":
            del witness["scalars"][key]
        else:
            witness["scalars"][key] = value
        path = tmp_path / "w.json"
        path.write_text(json.dumps(witness))
        code, out, err = run_cli(["verify", "--replay", str(path)], capsys)
        assert code == 2
        assert out == "" and "error:" in err and "Traceback" not in err

    # p and lam follow RunConfig's rule too: numbers that are not bools, p
    # at least 1, and a damper's lam inside its CP range, where verify
    # builds its rows. "p": true replayed a lieb-thirring witness at p = 1,
    # and "lam": 5.0 a norm-bound witness on a non-CP damper, with exit 0.
    # A dimension is an integer, also when it equals the other one.
    @pytest.mark.parametrize("key, value", [
        ("p", True), ("p", "2"), ("p", 0.5),
        ("lam", True), ("lam", "2"), ("lam", 5.0),
        ("dim", 2.0), ("dp", 2.0)])
    def test_witness_p_and_lam_follow_the_config_rule(self, tmp_path, capsys,
                                                      key, value):
        a = np.array([[2.0, 0.5j], [-0.5j, 1.0]])
        lieb_thirring = {
            "check": "lieb-thirring", "inputs": {"dim": 2, "p": 2.5},
            "seed": 0, "matrices": {"a": serialize_matrix(a),
                                    "b": serialize_matrix(a @ a)},
            "scalars": {"tolerance": 1e-10}}
        # A diagonal state, which a damper at any lam leaves PSD.
        norm_bound = _valid_witness()
        norm_bound["matrices"]["rho12"] = serialize_matrix(
            np.diag([0.1, 0.2, 0.3, 0.4]))
        path = tmp_path / "w.json"
        for witness in (lieb_thirring, norm_bound):
            if key not in witness["inputs"]:
                continue
            path.write_text(json.dumps(witness))
            assert run_cli(["verify", "--replay", str(path)], capsys)[0] == 0
            witness["inputs"][key] = value
            path.write_text(json.dumps(witness))
            code, out, err = run_cli(["verify", "--replay", str(path)], capsys)
            assert (code, out) == (2, ""), (witness["check"], err)
            assert "error:" in err and "Traceback" not in err

    # The previous witness format kept only the worst trial and no
    # saturation tolerance; a saturating family's witness with either of
    # those is rejected, not replayed without its saturation clause.
    @pytest.mark.parametrize("change", ["one trial", "no saturation"])
    def test_earlier_saturating_witness_exits_two(
            self, forced_failure, zero_tolerance_witnesses, tmp_path, capsys,
            change):
        paths = [forced_failure[1],
                 zero_tolerance_witnesses["relative-entropy-tensor-bound"][1]]
        for path in paths:
            witness = json.loads(open(path).read())
            if change == "one trial":
                tau = deserialize_matrix(witness["matrices"]["tau12"])
                witness["matrices"]["tau12"] = serialize_matrix(tau[0])
            else:
                del witness["scalars"]["saturation"]
            old = tmp_path / "old.json"
            old.write_text(json.dumps(witness))
            code, out, err = run_cli(["verify", "--replay", str(old)], capsys)
            assert code == 2, err
            assert out == "" and "Traceback" not in err

    def test_replay_makes_one_check_call(self, forced_failure,
                                         zero_tolerance_witnesses, tmp_path,
                                         monkeypatch):
        a = np.array([[2.0, 0.5j], [-0.5j, 1.0]])
        hand_written = {
            "lieb-thirring": {
                "check": "lieb-thirring", "inputs": {"dim": 2, "p": 2.5},
                "matrices": {"a": serialize_matrix(a),
                             "b": serialize_matrix(a @ a)},
                "scalars": {"tolerance": 1e-10}},
            "tensor-output-norm-bound": _valid_witness()}
        paths = [forced_failure[1]] + [
            path for _, path in zero_tolerance_witnesses.values()]
        for name, witness in hand_written.items():
            paths.append(tmp_path / f"{name}.json")
            paths[-1].write_text(json.dumps(witness))
        calls = count_family_checks(monkeypatch)
        checked = set()
        for path in paths:
            calls.update(dict.fromkeys(calls, 0))
            record, _ = run_replay(str(path))
            assert sum(calls.values()) == 1
            checked.add(record["check"])
        assert checked == {"lieb-thirring", "tensor-output-norm-bound",
                           "local-unitary-invariance", "nu-p-multiplicativity",
                           "relative-entropy-tensor-bound"}

    def test_lieb_thirring_replay_slack_is_relative(self, tmp_path,
                                                     monkeypatch):
        # A commuting pair at p = 50, where both sides are about 1e-30.
        # Its top eigenvectors coincide, so rhs = Tr A^p B^p is accurate.
        u = random_unitaries(3, 4, 1)[0]
        a = (u * [0.2, 0.3, 0.5]) @ u.conj().T
        b = (u * [0.2, 0.4, 0.5]) @ u.conj().T
        path = tmp_path / "lt.json"
        path.write_text(json.dumps({
            "check": "lieb-thirring", "inputs": {"dim": 3, "p": 50.0},
            "seed": 0, "matrices": {"a": serialize_matrix(a),
                                    "b": serialize_matrix(b)},
            "scalars": {"tolerance": 1e-10}}))
        record, passed = run_replay(str(path))
        assert passed and abs(record["slack"]) < 1e-12
        real = cli.lieb_thirring_check
        monkeypatch.setattr(cli, "lieb_thirring_check", lambda a, b, p: (
            lambda chk: InequalityCheck(lhs=chk.lhs * (1.0 + 1e-9),
                                        rhs=chk.rhs))(real(a, b, p)))
        record, passed = run_replay(str(path))
        assert not passed
        assert record["slack"] == pytest.approx(-1e-9, rel=1e-3)
        assert type(record["slack"]) is float

    # A dim outside 2..6, or matrices that are not dim x dim.
    @pytest.mark.parametrize("dim, a_dim, b_dim", [(50, 9, 9), (1, 1, 1),
                                                   (3, 2, 2), (3, 3, 4)])
    def test_lieb_thirring_witness_out_of_scope_exits_two(
            self, tmp_path, capsys, dim, a_dim, b_dim):
        path = tmp_path / "w.json"
        path.write_text(json.dumps({
            "check": "lieb-thirring", "inputs": {"dim": dim, "p": 2.0},
            "seed": 0,
            "matrices": {"a": serialize_matrix(np.eye(a_dim)),
                         "b": serialize_matrix(np.eye(b_dim))},
            "scalars": {"tolerance": 1e-10}}))
        code, out, err = run_cli(["verify", "--replay", str(path)], capsys)
        assert code == 2
        assert out == ""
        assert "error:" in err and "Traceback" not in err

    # u = 2 I, u = 0 and a random non-unitary u: a malformed file, not a
    # reproduced violation. A unitary u replays and passes.
    @pytest.mark.parametrize("u, code", [
        (2.0 * np.eye(2), 2), (np.zeros((2, 2)), 2),
        (np.random.default_rng(5).normal(size=(2, 2, 2)) @ [1.0, 1.0j], 2),
        (random_unitaries(2, 5, 1)[0], 0)])
    def test_invariance_witness_needs_a_unitary(self, tmp_path, capsys, u,
                                                 code):
        path = tmp_path / "w.json"
        path.write_text(json.dumps({
            "check": "local-unitary-invariance",
            "inputs": {"d": 2, "dp": 2, "lam": 0.5, "p": 2.0}, "seed": 0,
            "matrices": {
                "tau12": serialize_matrix(random_density_matrices(4, 6, 1)[0]),
                "u": serialize_matrix(u),
                "psi_kraus": [serialize_matrix(k) for k in
                              random_channel(2, 2, 2, seed=7).kraus_ops]},
            "scalars": {"tolerance": 1e-10}}))
        got, out, err = run_cli(["verify", "--replay", str(path)], capsys)
        assert got == code, err
        assert "Traceback" not in err
        if code == 2:
            assert out == "" and "unitary" in err

    def test_replay_unknown_check_rejected(self, tmp_path, capsys):
        path = tmp_path / "w.json"
        path.write_text(json.dumps({"check": "bogus", "inputs": {}}))
        code, _, err = run_cli(["verify", "--replay", str(path)], capsys)
        assert code == 2
        assert "unknown check" in err


# ---------------------------------------------------------------------------
# Exit contract under generated inputs
# ---------------------------------------------------------------------------

def _valid_witness() -> dict:
    rho12 = random_bipartite_state(2, 2, seed=0)
    return {"check": "tensor-output-norm-bound",
            "inputs": {"d": 2, "dp": 2, "lam": 0.5, "p": 2.0},
            "seed": 0,
            "matrices": {"rho12": serialize_matrix(np.asarray(rho12))},
            "scalars": {"tolerance": 1e-8}}


WITNESS_PATHS = [("check",), ("inputs",), ("inputs", "d"), ("inputs", "dp"),
                 ("inputs", "lam"), ("inputs", "p"), ("matrices",),
                 ("matrices", "rho12"), ("matrices", "rho12", "shape"),
                 ("matrices", "rho12", "re"), ("scalars",),
                 ("scalars", "tolerance")]
JUNK = st.sampled_from([None, True, 0, -1, 7, 100, 0.5, -2.5, 1e300, "x",
                        [], [2, 2], {}])
GRID_VALUE = st.one_of(st.floats(-2.0, 12.0),
                       st.sampled_from(["nan", "inf", "-inf", "0", "1"]))


@st.composite
def witness_text(draw):
    """A witness file's text: valid, with a key dropped or a value swapped
    for junk, or not a witness at all. None stands for a missing file."""
    kind = draw(st.sampled_from(["valid", "drop", "junk", "raw"]))
    if kind == "raw":
        return draw(st.sampled_from([None, "", "{bad", "[]", "null", "3",
                                     '{"check": NaN}']))
    data = _valid_witness()
    path = draw(st.sampled_from(WITNESS_PATHS))
    parent = data
    for key in path[:-1]:
        parent = parent[key]
    if kind == "drop":
        del parent[path[-1]]
    elif kind == "junk":
        parent[path[-1]] = draw(JUNK)
    return json.dumps(data)


CONFIG_VALUES = {
    "dims": st.one_of(st.just([2]), JUNK),
    "lambdas": st.one_of(st.lists(st.floats(-2.0, 2.0), max_size=2), JUNK),
    "p_grid": st.one_of(st.lists(st.floats(0.0, 12.0), max_size=2), JUNK),
    "trials": JUNK, "seed": JUNK,
    "format": st.sampled_from(["json", "xml", 3]),
    "bits": JUNK, "strict": JUNK, "unchecked_lambda": JUNK,
    "tolerances": st.one_of(JUNK, st.dictionaries(
        st.sampled_from(["multiplicativity", "reconstruction", "nope"]),
        JUNK, max_size=2)),
    "nope": JUNK,
}


@st.composite
def run_case(draw):
    """(argv, file texts) of a measures or decompose run with drawn flags,
    output target and config file; the "{...}" paths are filled in by the
    test."""
    argv = [draw(st.sampled_from(["measures", "decompose"])),
            "--dims", "2", "--trials", "1"]
    for flag in ("--lambdas", "--p-grid"):
        values = draw(st.lists(GRID_VALUE, max_size=2))
        if values:
            argv += [flag] + [str(v) for v in values]
    if draw(st.booleans()):
        argv += ["--seed", str(draw(st.integers(-2, 2**40)))]
    for flag in ("--bits", "--strict", "--unchecked-lambda"):
        if draw(st.booleans()):
            argv.append(flag)
    if draw(st.booleans()):
        argv += ["--out", draw(st.sampled_from(
            ["{out}", "{out_dir}", "{out_under_file}"]))]
    files = {}
    if draw(st.booleans()):
        argv += ["--config", "{config}"]
        keys = draw(st.lists(st.sampled_from(sorted(CONFIG_VALUES)),
                             unique=True, max_size=3))
        config = {k: draw(CONFIG_VALUES[k]) for k in keys}
        files["config"] = draw(st.sampled_from(
            [json.dumps(config), "{not json", "[1, 2]", None]))
    return argv, files


VALID_LAMBDAS = st.lists(st.floats(lambda_min(2), 1.0), min_size=1, max_size=2,
                         unique=True)
VALID_PS = st.lists(st.floats(1.0, 12.0), min_size=1, max_size=2, unique=True)
VALID_CONFIG_VALUES = {
    "dims": st.just([2]),
    "lambdas": VALID_LAMBDAS,
    "p_grid": VALID_PS,
    "trials": st.integers(1, 5),
    "seed": st.integers(0, 2**40),
    "format": st.sampled_from(["json", "csv"]),
    "bits": st.booleans(), "strict": st.booleans(),
    "unchecked_lambda": st.booleans(),
    "tolerances": st.dictionaries(st.sampled_from(sorted(DEFAULT_TOLERANCES)),
                                  st.one_of(st.just(0.0), st.floats(0.0, 1.0)),
                                  max_size=3),
}


@st.composite
def valid_run_case(draw):
    """(argv, file texts, report format) of a measures or decompose run at
    d = 2 that the configuration accepts: grid values inside the CP range,
    known config keys with valid values, and a report on stdout or in a
    writable file."""
    argv = [draw(st.sampled_from(["measures", "decompose"])), "--dims", "2"]
    files = {}
    fmt = "json"
    if draw(st.booleans()):
        keys = draw(st.lists(st.sampled_from(sorted(VALID_CONFIG_VALUES)),
                             unique=True, max_size=4))
        config = {k: draw(VALID_CONFIG_VALUES[k]) for k in keys}
        fmt = config.get("format", fmt)
        files["config"] = json.dumps(config)
        argv += ["--config", "{config}"]
    for flag, values in (("--lambdas", VALID_LAMBDAS), ("--p-grid", VALID_PS)):
        if draw(st.booleans()):
            argv += [flag] + [repr(v) for v in draw(values)]
    if draw(st.booleans()):
        argv += ["--trials", str(draw(st.integers(1, 5)))]
    if draw(st.booleans()):
        argv += ["--seed", str(draw(st.integers(0, 2**40)))]
    if draw(st.booleans()):
        fmt = draw(st.sampled_from(["json", "csv"]))
        argv += ["--format", fmt]
    for flag in ("--bits", "--strict", "--unchecked-lambda"):
        if draw(st.booleans()):
            argv.append(flag)
    if draw(st.booleans()):
        argv += ["--out", "{out}"]
    return argv, files, fmt


def _run_in(base, argv, texts):
    """Write the texts under base (None: leave the file missing), run
    main() there with DEPOLCAP_OUT_DIR unset, and return (code, stdout,
    stderr, report path or None). "{out}" is a path in a missing directory,
    "{out_dir}" an existing directory and "{out_under_file}" a path under a
    regular file."""
    (base / "blocker").write_text("")
    paths = {"out": str(base / "sub" / "report.json"),
             "out_dir": str(base),
             "out_under_file": str(base / "blocker" / "report.json")}
    for name, text in texts.items():
        paths[name] = str(base / f"{name}.json")
        if text is not None:
            (base / f"{name}.json").write_text(text)
    argv = [a.format(**paths) for a in argv]
    out, err = io.StringIO(), io.StringIO()
    env = {k: v for k, v in os.environ.items() if k != "DEPOLCAP_OUT_DIR"}
    with mock.patch.dict(os.environ, env, clear=True), \
            contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = main(argv)
        except SystemExit as exc:
            code = exc.code
    return code, out.getvalue(), err.getvalue(), \
        (argv[argv.index("--out") + 1] if "--out" in argv else None)


def _assert_exit_contract(code, out, err, report_path):
    # Exit is 0, 1 or 2, no input ends in a traceback, and whatever report
    # is written parses as JSON.
    assert code in (0, 1, 2), err
    assert "Traceback" not in err
    if code != 2:
        if report_path:
            with open(report_path) as fh:
                out = fh.read()
        json.loads(out)


class TestExitContract:
    # Every file lives in a fresh temporary directory, since --out creates
    # missing parent directories.
    @settings(max_examples=100)
    @given(case=run_case())
    @example(case=(["measures", "--dims", "2", "--out", "{out_dir}"], {}))
    @example(case=(["decompose", "--dims", "2", "--out", "{out_under_file}"],
                   {}))
    def test_runs_with_drawn_flags_and_config(self, tmp_path_factory, case):
        argv, texts = case
        result = _run_in(tmp_path_factory.mktemp("run"), argv, texts)
        _assert_exit_contract(*result)
        if "{out_dir}" in argv or "{out_under_file}" in argv:
            assert result[0] == 2, result[2]

    @settings(max_examples=100)
    @given(case=valid_run_case())
    def test_valid_runs_end_in_a_report(self, tmp_path_factory, case):
        argv, texts, fmt = case
        code, out, err, report_path = _run_in(tmp_path_factory.mktemp("ok"),
                                              argv, texts)
        assert code in (0, 1), err
        assert "Traceback" not in err
        if report_path:
            with open(report_path) as fh:
                out = fh.read()
        if fmt == "json":
            assert json.loads(out)["records"]
        else:
            rows = list(csv.reader(io.StringIO(out)))
            assert rows[0][0] == "name" and len(rows) > 1

    @settings(max_examples=100)
    @given(text=witness_text())
    def test_replay_of_drawn_witness_file(self, tmp_path_factory, text):
        _assert_exit_contract(*_run_in(tmp_path_factory.mktemp("replay"),
                                       ["verify", "--replay", "{witness}"],
                                       {"witness": text}))

    # Lambdas a hair outside the CP range: inside the 1e-12 band that the
    # CP witness allows for rounding, outside the range channels are built on.
    @pytest.mark.parametrize("argv", [
        ["verify", "--dims", "2", "--lambdas", "1.0000000000001",
         "--p-grid", "2", "--trials", "2", "--unchecked-lambda"],
        ["verify", "--dims", "2", "--lambdas", "-0.33333333333343",
         "--p-grid", "2", "--trials", "2", "--unchecked-lambda"],
        ["capacity", "--dims", "2", "--lambdas", "1.0000000000001",
         "--unchecked-lambda"],
    ])
    def test_lambda_just_past_the_cp_edge(self, tmp_path, argv):
        code, out, err, _ = _run_in(tmp_path, argv, {})
        _assert_exit_contract(code, out, err, None)
        records = json.loads(out)["records"]
        assert code == (0 if all(r["passed"] for r in records) else 1)


# ---------------------------------------------------------------------------
# Product channels
# ---------------------------------------------------------------------------

class TestNoKrausForms:
    # Products act factor by factor; Kraus forms and product Kraus sets are
    # test references only, so every command runs with them refused.
    @pytest.mark.parametrize("argv,records", [
        (["verify"], 218),
        (["capacity", "--dims", "2", "3", "4", "5", "6"], 30),
    ])
    def test_commands_build_no_kraus_form(self, argv, records, tmp_path,
                                          monkeypatch, capsys):
        def refuse(*args, **kwargs):
            raise AssertionError("a command built a Kraus form")

        original = core.tensor_channel
        for name, module in list(sys.modules.items()):
            if name == "depolcap" or name.startswith("depolcap."):
                for attr, value in list(vars(module).items()):
                    if value is original:
                        monkeypatch.setattr(module, attr, refuse)
        monkeypatch.setattr(DepolarizingChannel, "kraus_channel", refuse)
        out = tmp_path / "report.json"
        assert main(argv + ["--out", str(out)]) == 0
        capsys.readouterr()
        assert len(json.loads(out.read_text())["records"]) == records


# ---------------------------------------------------------------------------
# Module entry point
# ---------------------------------------------------------------------------

class TestEntryPoints:
    def test_python_dash_m(self):
        proc = subprocess.run(
            [sys.executable, "-m", "depolcap.cli", "measures", "--dims", "2",
             "--lambdas", "0.5", "--p-grid", "2"],
            capture_output=True, text=True)
        assert proc.returncode == 0
        assert json.loads(proc.stdout)["command"] == "measures"

    def test_version_flag(self):
        proc = subprocess.run(
            [sys.executable, "-m", "depolcap.cli", "--version"],
            capture_output=True, text=True)
        assert proc.returncode == 0
        assert "depolcap" in proc.stdout

    def test_missing_subcommand_is_usage_error(self):
        proc = subprocess.run(
            [sys.executable, "-m", "depolcap.cli"],
            capture_output=True, text=True)
        assert proc.returncode == 2
