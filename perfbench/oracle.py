"""Output oracle for depolcap reports, written without any depolcap code.

Every value the oracle trusts is recomputed here from the two-level pure
output spectrum of the depolarizing channel,

    {lam + (1 - lam)/d, (1 - lam)/d  (d - 1 times)},

or from the counting formulas of the construction (2 d^2 (d + 1) terms,
2 d^2 - d census quadruples). The record counts per check name follow from
the requested grid. A record's verdict is recomputed from its own values by
the check's pass rule, so a flipped verdict shows either way.

``check_report`` returns a list of problems (empty when the report is
correct) and the number of records whose verdict is "failed".
"""

from __future__ import annotations

import math

import numpy as np

# The CLI's default tolerances; the benchmark passes no overrides.
TOL = {
    "reconstruction": 1e-10,
    "identity_checks": 1e-10,
    "lieb_thirring": 1e-10,
    "norm_bound": 1e-9,
    "invariance": 1e-10,
    "multiplicativity": 1e-8,
    "product_saturation": 1e-6,
    "relent_bound": 1e-6,
    "relent_saturation": 1e-6,
    "additivity": 1e-4,
    "capacity_chain": 1e-8,
    "holevo_agreement": 1e-6,
    "measures_consistency": 1e-12,
}
CLOSED_TOL = 1e-11        # closed-form values the program also computes exactly
PARTNER_LAMBDA = 0.7      # the fixed depolarizing partner of chi-additivity


# ---------------------------------------------------------------------------
# Independent closed forms
# ---------------------------------------------------------------------------

def spectrum(d: int, lam: float) -> np.ndarray:
    rest = (1.0 - lam) / d
    return np.array([lam + rest] + [rest] * (d - 1))


def s_min(d: int, lam: float) -> float:
    w = spectrum(d, lam)
    w = w[w > 0.0]
    return float(-np.sum(w * np.log(w)))


def nu_p(d: int, lam: float, p: float) -> float:
    return float(np.sum(spectrum(d, lam) ** p) ** (1.0 / p))


def chi_star(d: int, lam: float) -> float:
    return math.log(d) - s_min(d, lam)


def min_choi_eig(d: int, lam: float) -> float:
    """Normalized Choi matrix of the depolarizing map: lam |Phi+><Phi+| +
    (1 - lam) I/d^2, eigenvalues lam + (1 - lam)/d^2 and (1 - lam)/d^2."""
    rest = (1.0 - lam) / (d * d)
    return min(rest, lam + rest)


def dep_ok(d: int, lam: float) -> bool:
    return -1.0 / (d * d - 1.0) - 1e-12 <= lam <= 1.0 + 1e-12


def damping_ok(d: int, lam: float) -> bool:
    return -1.0 / (d - 1.0) - 1e-12 <= lam <= 1.0 + 1e-12


def close(a, b, tol: float) -> bool:
    return a is not None and b is not None and abs(a - b) <= tol


# ---------------------------------------------------------------------------
# Expected record counts
# ---------------------------------------------------------------------------

def expected_counts(command: str, dims, lambdas, p_grid) -> dict:
    nd, nl, npg = len(dims), len(lambdas), len(p_grid)
    if command == "measures":
        return {"measures-consistency": nd * nl,
                "measures-closed-form": nd * nl * npg}
    if command == "decompose":
        return {"diophantine-census": nd, "decomposition-reconstruction": nd * nl,
                "omega-split": nd * nl, "phase-average": nd * nl}
    if command == "capacity":
        counts = {"capacity-chain": nd * nl, "capacity-monotone": 0}
        for d in dims:
            live = [lam for lam in lambdas if dep_ok(d, lam) and lam >= 0.0]
            counts["capacity-monotone"] += len(live) >= 2
        return counts
    if command == "verify":
        dep = sum(dep_ok(d, lam) for d in dims for lam in lambdas)
        damp = sum(damping_ok(d, lam) for d in dims for lam in lambdas)
        live2 = 2 in dims and any(dep_ok(2, lam) for lam in lambdas)
        return {"cp-range-witness": nd * nl,
                "lieb-thirring": nd * npg,
                "tensor-output-norm-bound": damp * nd * npg,
                "local-unitary-invariance": dep * nd * npg,
                "nu-p-multiplicativity": dep * nd * npg,
                "relative-entropy-tensor-bound": dep * nd,
                "chi-additivity": 2 if live2 else 0}
    raise ValueError(f"unknown command {command!r}")


# ---------------------------------------------------------------------------
# Per-record rules: each returns (verdict, mismatches). The verdict is the
# check's pass rule applied to the record's own values; mismatches are
# disagreements with the independent values above.
# ---------------------------------------------------------------------------

def _measures_closed_form(rec, ctx):
    i, v = rec["inputs"], rec["values"]
    d, lam, p = i["d"], i["lam"], i["p"]
    bad = []
    if not close(v["s_min"], s_min(d, lam), CLOSED_TOL):
        bad.append("s_min")
    if not close(v["chi_star"], chi_star(d, lam), CLOSED_TOL):
        bad.append("chi_star")
    if not close(v["nu_p"], nu_p(d, lam, p), CLOSED_TOL):
        bad.append("nu_p")
    if not close(v["min_choi_eig"], min_choi_eig(d, lam), CLOSED_TOL):
        bad.append("min_choi_eig")
    if v["cp"] != dep_ok(d, lam):
        bad.append("cp")
    return v["nu_p"] is not None and math.isfinite(v["nu_p"]), bad


def _measures_consistency(rec, ctx):
    i, v = rec["inputs"], rec["values"]
    d, lam = i["d"], i["lam"]
    bad = []
    if not close(v["s_min"], s_min(d, lam), CLOSED_TOL):
        bad.append("s_min")
    if not close(v["chi_star"], chi_star(d, lam), CLOSED_TOL):
        bad.append("chi_star")
    if not close(v["min_choi_eig"], min_choi_eig(d, lam), CLOSED_TOL):
        bad.append("min_choi_eig")
    gap = v["consistency_gap"]
    verdict = gap is not None and gap <= TOL["measures_consistency"]
    return verdict, bad


def _census(rec, ctx):
    d, v = rec["inputs"]["d"], rec["values"]
    bad = [] if v["expected"] == 2 * d * d - d else ["expected"]
    return v["count"] == 2 * d * d - d and v["cross_branch"] == 0, bad


def _reconstruction(rec, ctx):
    i, v = rec["inputs"], rec["values"]
    d, lam = i["d"], i["lam"]
    terms = 2 * d * d * (d + 1)
    bad = [] if v.get("expected_terms") == terms else ["expected_terms"]
    if "n_terms" not in v:
        return False, bad
    verdict = (v["n_terms"] == terms
               and v["reconstruction_error"] <= TOL["reconstruction"]
               and abs(v["weight_sum"] - 1.0) <= 1e-12
               and v["all_uniform"]
               and (v["convex"] or not 0.0 <= lam <= 1.0))
    if v["convex"] != (0.0 <= lam <= 1.0):
        bad.append("convex")
    return verdict, bad


def _omega_split(rec, ctx):
    i, v = rec["inputs"], rec["values"]
    d, lam = i["d"], i["lam"]
    denom = 1.0 + (d - 1.0) * lam
    weights = [lam * d / denom] + [(1.0 - lam) / denom / d] * d
    bad = []
    if len(v["weights"]) != d + 1 or not all(
            close(a, b, 1e-12) for a, b in zip(v["weights"], weights)):
        bad.append("weights")
    return v["distance"] <= TOL["identity_checks"], bad


def _phase_average(rec, ctx):
    d, v = rec["inputs"]["d"], rec["values"]
    bad = [] if v["n_terms"] == 2 * d * d else ["n_terms"]
    return v["distance"] <= TOL["identity_checks"], bad


def _cp_witness(rec, ctx):
    i, v = rec["inputs"], rec["values"]
    d, lam = i["d"], i["lam"]
    cp = dep_ok(d, lam)
    bad = []
    if not close(v["min_choi_eig"], min_choi_eig(d, lam), CLOSED_TOL):
        bad.append("min_choi_eig")
    if v["cp_expected"] != cp:
        bad.append("cp_expected")
    eig = v["min_choi_eig"]
    return (eig >= -1e-10) if cp else (eig < -1e-12), bad


def _min_slack_rule(tol_name):
    def rule(rec, ctx):
        v = rec["values"]
        bad = [] if v["trials"] == ctx["trials"] else ["trials"]
        if rec["slack"] != v["min_slack"]:
            bad.append("slack")
        return v["min_slack"] >= -TOL[tol_name], bad
    return rule


def _invariance(rec, ctx):
    v = rec["values"]
    bad = [] if v["trials"] == min(ctx["trials"], 20) else ["trials"]
    return v["max_deviation"] <= TOL["invariance"], bad


def _multiplicativity(rec, ctx):
    i, v = rec["inputs"], rec["values"]
    bad = [] if v["trials"] == ctx["trials"] else ["trials"]
    if not close(v["saturation_gap"], v["product_norm"] - v["bound"], 1e-15):
        bad.append("saturation_gap")
    # bound = nu_p(Delta) nu_p(Psi): the Psi factor must be one number per
    # (dp, p), whatever d and lam, and lie in [dp^(1/p - 1), 1].
    dp, p = i["dp"], i["p"]
    psi_norm = v["bound"] / nu_p(i["d"], i["lam"], p)
    ctx["psi_norms"].setdefault((dp, p), []).append(psi_norm)
    if not dp ** (1.0 / p - 1.0) - 1e-9 <= psi_norm <= 1.0 + 1e-9:
        bad.append("bound")
    verdict = (v["max_norm"] <= v["bound"] + TOL["multiplicativity"]
               and abs(v["product_norm"] - v["bound"]) <= TOL["product_saturation"])
    return verdict, bad


def _relent(rec, ctx):
    v = rec["values"]
    bad = [] if v["trials"] == ctx["trials"] else ["trials"]
    if not v["certificate_gap"] <= TOL["relent_bound"]:
        bad.append("certificate_gap")
    verdict = (v["relent_min_slack"] >= -TOL["relent_bound"]
               and abs(v["relent_saturation_gap"]) <= TOL["relent_saturation"])
    return verdict, bad


def _chi_additivity(rec, ctx):
    i, v = rec["inputs"], rec["values"]
    tol = TOL["additivity"]
    bad = []
    if not close(v["chi_delta"], chi_star(2, i["lam"]), tol):
        bad.append("chi_delta")
    if i["partner"] == "depolarizing" and not close(
            v["chi_psi"], chi_star(2, PARTNER_LAMBDA), tol):
        bad.append("chi_psi")
    if not close(v["additivity_gap"],
                 v["chi_product"] - (v["chi_delta"] + v["chi_psi"]), 1e-12):
        bad.append("additivity_gap")
    live2 = sorted(lam for lam in ctx["lambdas"] if dep_ok(2, lam))
    if i["lam"] != live2[len(live2) // 2]:
        bad.append("lam")
    return abs(v["chi_product"] - v["chi_delta"] - v["chi_psi"]) <= tol, bad


def _capacity_chain(rec, ctx):
    i, v = rec["inputs"], rec["values"]
    d, lam = i["d"], i["lam"]
    if v.get("skipped"):
        return False, [] if not dep_ok(d, lam) else ["skipped"]
    chi = chi_star(d, lam)
    ctx["chain"].setdefault(d, []).append((lam, chi))
    bad = []
    if not close(v["chi_closed"], chi, CLOSED_TOL):
        bad.append("chi_closed")
    if not close(v["s_min"], s_min(d, lam), CLOSED_TOL):
        bad.append("s_min")
    if not close(v["capacity_gap"], v["shannon_capacity"] - v["chi_closed"], 1e-15):
        bad.append("capacity_gap")
    if not close(v["holevo_gap"], v["holevo_chi"] - v["chi_closed"], 1e-15):
        bad.append("holevo_gap")
    verdict = (abs(v["shannon_capacity"] - chi) <= TOL["capacity_chain"]
               and v["prior_deviation"] <= TOL["capacity_chain"]
               and abs(v["holevo_chi"] - chi) <= TOL["holevo_agreement"])
    return verdict, bad


def _capacity_monotone(rec, ctx):
    v = rec["values"]
    ctx["monotone"][rec["inputs"]["d"]] = v
    return v["min_increment"] >= -1e-12, []


RULES = {
    "measures-closed-form": _measures_closed_form,
    "measures-consistency": _measures_consistency,
    "diophantine-census": _census,
    "decomposition-reconstruction": _reconstruction,
    "omega-split": _omega_split,
    "phase-average": _phase_average,
    "cp-range-witness": _cp_witness,
    "lieb-thirring": _min_slack_rule("lieb_thirring"),
    "tensor-output-norm-bound": _min_slack_rule("norm_bound"),
    "local-unitary-invariance": _invariance,
    "nu-p-multiplicativity": _multiplicativity,
    "relative-entropy-tensor-bound": _relent,
    "chi-additivity": _chi_additivity,
    "capacity-chain": _capacity_chain,
    "capacity-monotone": _capacity_monotone,
}


def check_report(report: dict, command: str, dims, lambdas, p_grid,
                 trials: int, seed: int) -> tuple[list[str], int]:
    """Problems found in one report, and how many of its records failed."""
    problems = []
    if report.get("command") != command:
        return [f"command is {report.get('command')!r}, expected {command!r}"], 0
    cfg = report.get("config", {})
    asked = {"dims": list(dims), "lambdas": list(lambdas),
             "p_grid": list(p_grid), "trials": trials, "seed": seed}
    for key, value in asked.items():
        if cfg.get(key) != value:
            problems.append(f"config {key} is {cfg.get(key)!r}, expected {value!r}")

    records = report.get("records", [])
    counts: dict = {}
    for rec in records:
        counts[rec["name"]] = counts.get(rec["name"], 0) + 1
    want = {k: n for k, n in expected_counts(command, dims, lambdas, p_grid).items()
            if n}
    if counts != want:
        problems.append(f"record counts {counts} differ from the grid's {want}")

    ctx = {"trials": trials, "lambdas": list(lambdas), "psi_norms": {},
           "chain": {}, "monotone": {}}
    failed = 0
    for rec in records:
        rule = RULES.get(rec["name"])
        if rule is None:
            problems.append(f"unknown check {rec['name']!r}")
            continue
        try:
            verdict, bad = rule(rec, ctx)
        except (KeyError, TypeError) as exc:
            problems.append(f"{rec['name']} {rec['inputs']}: malformed ({exc!r})")
            continue
        where = f"{rec['name']} {rec['inputs']}"
        if rec["passed"] is not bool(verdict):
            problems.append(f"{where}: verdict {rec['passed']} but its values say "
                            f"{bool(verdict)}")
        if not rec["passed"]:
            failed += 1
        elif bad:
            problems.append(f"{where}: {', '.join(bad)} disagree with the oracle")

    for (dp, p), norms in ctx["psi_norms"].items():
        if max(norms) - min(norms) > 1e-9:
            problems.append(f"nu-p-multiplicativity dp={dp} p={p}: the partner's "
                            "norm differs between records")
    for d, chain in ctx["chain"].items():
        nonneg = sorted((lam, chi) for lam, chi in chain if lam >= 0.0)
        mono = ctx["monotone"].get(d)
        if mono is None or len(nonneg) < 2:
            continue
        increments = [b[1] - a[1] for a, b in zip(nonneg, nonneg[1:])]
        if (mono["grid_points"] != len(nonneg)
                or not close(mono["min_increment"], min(increments), 1e-9)):
            problems.append(f"capacity-monotone d={d}: disagrees with the closed "
                            "form increments")

    summary = report.get("summary", {})
    n_passed = sum(1 for rec in records if rec["passed"])
    if (summary.get("total"), summary.get("passed"), summary.get("failed")) != (
            len(records), n_passed, len(records) - n_passed):
        problems.append(f"summary {summary} does not match the records")
    return problems, failed
