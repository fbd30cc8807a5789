"""The oracle accepts real depolcap reports and rejects each kind of damage.

Run from the repository root:

    python3 -m pytest perfbench/tests -q

Reports come from the CLI itself, at configurations small enough to run
in a few seconds. Each damaged copy changes one thing: a value, a record
or a verdict.
"""

from __future__ import annotations

import copy
import json
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(BENCH))
sys.path.insert(0, str(BENCH.parent / "src"))

from oracle import check_report  # noqa: E402
from tracer import Tracer, layer_metrics  # noqa: E402

# (command, dims, lambdas, p_grid, trials, seed); seeds picked for speed.
CONFIGS = {
    "measures": ("measures", (2, 3), (0.1, 0.6), (1.5, 3.0), 100, 0),
    "decompose": ("decompose", (2, 3), (0.3, 0.9), (1.5, 2.0, 3.0), 100, 0),
    "capacity": ("capacity", (2, 3), (0.25, 0.5, 0.75), (1.5, 2.0, 3.0), 100, 0),
    "verify": ("verify", (2,), (0.4, 0.8), (2.0,), 6, 5),
}


@pytest.fixture(scope="module")
def reports(tmp_path_factory):
    from depolcap.cli import main
    out = {}
    for key, (cmd, dims, lambdas, p_grid, trials, seed) in CONFIGS.items():
        path = tmp_path_factory.mktemp(key) / "report.json"
        argv = ([cmd, "--seed", str(seed), "--trials", str(trials),
                 "--out", str(path), "--dims"] + [str(d) for d in dims]
                + ["--lambdas"] + [repr(x) for x in lambdas]
                + ["--p-grid"] + [repr(p) for p in p_grid])
        assert main(argv) == 0
        out[key] = json.loads(path.read_text())
    return out


def check(key, report):
    cmd, dims, lambdas, p_grid, trials, seed = CONFIGS[key]
    return check_report(report, cmd, dims, lambdas, p_grid, trials, seed)


def first(report, name):
    return next(r for r in report["records"] if r["name"] == name)


def test_real_reports_pass(reports):
    for key, report in reports.items():
        assert check(key, report) == ([], 0), key


# One tampered value per oracle rule: (report, check name, value key, delta).
TAMPERED = [
    ("measures", "measures-closed-form", "s_min", 1e-9),
    ("measures", "measures-closed-form", "nu_p", 1e-9),
    ("measures", "measures-closed-form", "chi_star", -1e-9),
    ("measures", "measures-consistency", "min_choi_eig", 1e-6),
    ("decompose", "diophantine-census", "expected", 1),
    ("decompose", "decomposition-reconstruction", "expected_terms", -1),
    ("decompose", "omega-split", "weights", None),
    ("decompose", "phase-average", "n_terms", 2),
    ("capacity", "capacity-chain", "chi_closed", 1e-9),
    ("capacity", "capacity-chain", "s_min", 1e-9),
    ("capacity", "capacity-monotone", "min_increment", 1e-3),
    ("verify", "cp-range-witness", "min_choi_eig", 1e-6),
    ("verify", "lieb-thirring", "trials", 1),
    ("verify", "tensor-output-norm-bound", "trials", -1),
    ("verify", "local-unitary-invariance", "trials", 1),
    ("verify", "nu-p-multiplicativity", "bound", 1e-3),
    ("verify", "relative-entropy-tensor-bound", "certificate_gap", 1e-3),
    ("verify", "chi-additivity", "chi_delta", 1e-3),
]


@pytest.mark.parametrize("key,name,field,delta", TAMPERED)
def test_tampered_value_rejected(reports, key, name, field, delta):
    report = copy.deepcopy(reports[key])
    values = first(report, name)["values"]
    if delta is None:
        values[field] = values[field][::-1]
    else:
        values[field] += delta
    problems, _ = check(key, report)
    assert problems


# Damage that breaks the check's own pass rule while the verdict still
# says passed: (report, check name, value key, new value from old).
VIOLATED = [
    ("verify", "lieb-thirring", "min_slack", lambda x: -1e-3),
    ("verify", "tensor-output-norm-bound", "min_slack", lambda x: -1e-3),
    ("verify", "local-unitary-invariance", "max_deviation", lambda x: 1e-6),
    ("verify", "nu-p-multiplicativity", "product_norm", lambda x: x + 1e-3),
    ("verify", "relative-entropy-tensor-bound", "relent_saturation_gap",
     lambda x: 1e-3),
    ("verify", "chi-additivity", "chi_product", lambda x: x + 1e-3),
    ("capacity", "capacity-chain", "holevo_chi", lambda x: x + 1e-5),
    ("capacity", "capacity-chain", "shannon_capacity", lambda x: x + 1e-7),
    ("decompose", "decomposition-reconstruction", "reconstruction_error",
     lambda x: 1e-9),
    ("decompose", "diophantine-census", "count", lambda x: x + 1),
]


@pytest.mark.parametrize("key,name,field,change", VIOLATED)
def test_value_breaking_the_check_rejected(reports, key, name, field, change):
    report = copy.deepcopy(reports[key])
    values = first(report, name)["values"]
    values[field] = change(values[field])
    problems, _ = check(key, report)
    assert any("verdict" in p for p in problems)


@pytest.mark.parametrize("key", sorted(CONFIGS))
def test_missing_record_rejected(reports, key):
    for name in {r["name"] for r in reports[key]["records"]}:
        report = copy.deepcopy(reports[key])
        report["records"].remove(first(report, name))
        problems, _ = check(key, report)
        assert any("record counts" in p for p in problems), name


@pytest.mark.parametrize("key", sorted(CONFIGS))
def test_flipped_verdict_rejected(reports, key):
    for name in {r["name"] for r in reports[key]["records"]}:
        report = copy.deepcopy(reports[key])
        first(report, name)["passed"] = False
        problems, failed = check(key, report)
        assert any("verdict" in p for p in problems), name
        assert failed == 1


def test_honest_failure_counted_not_rejected(reports):
    report = copy.deepcopy(reports["verify"])
    rec = first(report, "lieb-thirring")
    rec["values"]["min_slack"] = rec["slack"] = -1.0
    rec["passed"] = False
    report["summary"]["passed"] -= 1
    report["summary"]["failed"] += 1
    assert check("verify", report) == ([], 1)


def test_config_mismatch_rejected(reports):
    report = copy.deepcopy(reports["capacity"])
    report["config"]["seed"] += 1
    assert check("capacity", report)[0]


def test_traced_layers_match_benchmark_json():
    bench = json.loads((BENCH.parent / "BENCHMARK.json").read_text())
    declared = {m["name"]: m["unit"] for m in bench["per_layer"]}
    traced = {k: unit for k, (_, unit) in layer_metrics(Tracer()).items()}
    traced["trace.overhead_s"] = "s"
    assert traced == declared
