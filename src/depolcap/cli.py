"""Command-line front end.

Four subcommands over a shared configuration (dimensions, lambda grid,
p grid, trial counts, root seed):

  * measures   - closed-form noise measures of the depolarizing channel
  * decompose  - phase-damper decompositions and their identity checks
  * verify     - the randomized inequality suite
  * capacity   - the capacity chain, closed form vs two numeric routes

Reports are emitted as JSON or CSV; same config and seed give byte-identical
output apart from the timestamp field. Exit codes: 0 all checks passed,
1 at least one check failed, 2 usage or configuration error.
"""

from __future__ import annotations

import argparse
import itertools
import json
import math
import os
import re
import sys

import numpy as np

from . import __version__
from .bounds import (
    lieb_thirring_check,
    local_unitary_invariance_check,
    max_output_p_norm,
    multiplicativity_check,
    tensor_output_norm_bound,
)
from .capacity import (
    Ensemble,
    Povm,
    chi_additivity_check,
    holevo_quantity,
    shannon_capacity_fixed,
    tensor_relative_entropy_bound,
    transition_matrix,
)
from .core import (
    BipartiteState,
    Channel,
    DensityMatrix,
    random_channel,
    random_density_matrices,
    random_psd_matrices,
    random_unitaries,
)
from .decomposition import (
    diophantine_solutions,
    full_decomposition,
    omega_split_check,
    phase_average_check,
)
from .depolarizing import DepolarizingChannel, lambda_min, min_choi_eig
from .phase_damping import PhaseDampingChannel
from .report import (
    CheckRecord,
    ConfigError,
    Report,
    RunConfig,
    child_seed,
    deserialize_matrix,
    resolve_out_path,
    serialize_matrix,
)


def _cp_up_to_rounding(d: int, lam: float) -> bool:
    """Whether lam lies in the depolarizing CP range [lambda_min(d), 1]
    widened by 1e-12: the reading a report gives of a Choi eigenvalue whose
    sign it judges at the edge of the range. Which channels get built is
    decided by the exact range, ``DepolarizingChannel.in_cp_range``."""
    return lambda_min(d) - 1e-12 <= lam <= 1.0 + 1e-12


# ---------------------------------------------------------------------------
# measures
# ---------------------------------------------------------------------------

def cmd_measures(config: RunConfig) -> Report:
    """Tabulate S_min, nu_p over the p grid, and chi_star per (d, lambda)."""
    records = []
    tol = config.tolerance("measures_consistency")
    for d in config.dims:
        for lam in config.lambdas:
            ch = DepolarizingChannel.unchecked(d, lam)
            choi_eig = min_choi_eig(d, lam)
            cp = _cp_up_to_rounding(d, lam)
            spectrum_ok = bool(np.all(ch.pure_output_spectrum() >= 0.0))
            s_min = ch.s_min() if spectrum_ok else math.nan
            chi = ch.chi_star() if spectrum_ok else math.nan
            gap = abs(chi - (math.log(d) - s_min)) if spectrum_ok else math.nan
            records.append(CheckRecord(
                "measures-consistency",
                inputs={"d": d, "lam": lam},
                values={"s_min": s_min, "chi_star": chi,
                        "consistency_gap": gap, "min_choi_eig": choi_eig,
                        "cp": cp},
                slack=(tol - gap) if spectrum_ok else None,
                passed=spectrum_ok and gap <= tol))
            for p in config.p_grid:
                nu = ch.nu_p(p) if spectrum_ok else math.nan
                records.append(CheckRecord(
                    "measures-closed-form",
                    inputs={"d": d, "lam": lam, "p": p},
                    values={"s_min": s_min, "nu_p": nu, "chi_star": chi,
                            "min_choi_eig": choi_eig, "cp": cp},
                    passed=spectrum_ok and math.isfinite(nu)))
    return Report("measures", config, records)


# ---------------------------------------------------------------------------
# decompose
# ---------------------------------------------------------------------------

def cmd_decompose(config: RunConfig) -> Report:
    """Build the phase-damper decomposition and check its structure.

    Per (d, lambda): reconstruction error, weight normalization,
    uniform-damper count, and the phase-average and omega-split
    identities behind the construction.
    """
    records = []
    rtol = config.tolerance("reconstruction")
    itol = config.tolerance("identity_checks")
    for d in config.dims:
        census = diophantine_solutions(d)
        records.append(CheckRecord(
            "diophantine-census",
            inputs={"d": d},
            values={"count": census.count,
                    "expected": census.expected_count,
                    "cross_branch": census.cross_branch_count},
            passed=(census.count == census.expected_count
                    and census.cross_branch_count == 0)))
        for lam in config.lambdas:
            try:
                deco = full_decomposition(d, lam)
            except ValueError as exc:
                records.append(CheckRecord(
                    "decomposition-reconstruction",
                    inputs={"d": d, "lam": lam},
                    values={"error": str(exc)},
                    passed=False))
                continue
            err = deco.reconstruction_error()
            expected_terms = 2 * d * d * (d + 1)
            convex_required = 0.0 <= lam <= 1.0
            uniform = deco.all_channels_uniform()
            ok = (err <= rtol
                  and abs(deco.weight_sum - 1.0) <= 1e-12
                  and uniform
                  and len(deco) == expected_terms
                  and (deco.is_convex or not convex_required))
            records.append(CheckRecord(
                "decomposition-reconstruction",
                inputs={"d": d, "lam": lam},
                values={"n_terms": len(deco),
                        "expected_terms": expected_terms,
                        "weight_sum": deco.weight_sum,
                        "reconstruction_error": err,
                        "convex": deco.is_convex,
                        "signed": not deco.is_convex,
                        "all_uniform": uniform},
                slack=rtol - err,
                passed=ok))
            split = omega_split_check(d, lam)
            records.append(CheckRecord(
                "omega-split",
                inputs={"d": d, "lam": lam},
                values={"distance": split.distance,
                        "weights": list(split.weights)},
                slack=itol - split.distance,
                passed=split.distance <= itol))
            avg = phase_average_check(d, lam)
            records.append(CheckRecord(
                "phase-average",
                inputs={"d": d, "lam": lam},
                values={"distance": avg.distance, "n_terms": avg.n_terms},
                slack=itol - avg.distance,
                passed=avg.distance <= itol))
    return Report("decompose", config, records)


# ---------------------------------------------------------------------------
# verify
# ---------------------------------------------------------------------------

def _cells(config: RunConfig, family):
    """(i_d, d, i_dp, dp, i_l, lam) over the (d, d', lam) grid, in report
    order, for the lambdas at which the channel ``family`` can be built."""
    for (i_d, d), (i_dp, dp), (i_l, lam) in itertools.product(
            enumerate(config.dims), enumerate(config.dims),
            enumerate(config.lambdas)):
        if family.in_cp_range(d, lam):
            yield i_d, d, i_dp, dp, i_l, lam


def _family_record(name, inputs, seed, values, slack, passed, scalars,
                   matrices) -> CheckRecord:
    """A randomized family's record. A failed one carries the witness that
    ``verify --replay`` re-runs; ``matrices()`` serializes its inputs and
    is called only then."""
    witness = None if passed else {"check": name, "inputs": inputs,
                                   "seed": seed, "matrices": matrices(),
                                   "scalars": scalars}
    return CheckRecord(name, inputs=inputs, values=values, slack=slack,
                       passed=passed, seed=seed, witness=witness)


def cmd_verify(config: RunConfig) -> Report:
    """Run the randomized inequality suite over the configured grid.

    Families: the trace inequality on random matrix pairs, the tensor
    output-norm bound, unitary invariance of the output norm, norm
    multiplicativity under tensoring, the relative-entropy tensor bound
    with its saturating input, chi additivity for qubit factors, and
    the complete-positivity witness.
    """
    records = []
    root = config.seed
    trials = config.trials
    # Families built on a valid depolarizing channel run only for lambda
    # inside the admissible range of that dimension; out-of-range values
    # (reachable with the unchecked flag) still get their CP witness row.
    any_live = any(DepolarizingChannel.in_cp_range(d, lam)
                   for d in config.dims for lam in config.lambdas)

    for i_d, d in enumerate(config.dims):
        for i_l, lam in enumerate(config.lambdas):
            eig = min_choi_eig(d, lam)
            cp = _cp_up_to_rounding(d, lam)
            records.append(CheckRecord(
                "cp-range-witness",
                inputs={"d": d, "lam": lam},
                values={"min_choi_eig": eig, "cp_expected": cp},
                passed=bool(eig >= -1e-10 if cp else eig < -1e-12)))

    lt_tol = config.tolerance("lieb_thirring")
    for i_d, d in enumerate(config.dims):
        for i_p, p in enumerate(config.p_grid):
            seed = child_seed(root, 1, i_d, i_p)
            pairs = random_psd_matrices(d, seed, (trials, 2))
            slack = lieb_thirring_check(pairs[:, 0], pairs[:, 1], p).relative_slack
            # Relative to rhs (1e96 at p = 50); a NaN slack is the minimum, and fails.
            worst = int(np.argmin(slack))
            min_slack = float(slack[worst])
            records.append(_family_record(
                "lieb-thirring", {"dim": d, "p": p}, seed,
                {"min_slack": min_slack, "trials": trials}, min_slack,
                min_slack >= -lt_tol, {"tolerance": lt_tol},
                lambda: {"a": serialize_matrix(pairs[worst, 0]),
                         "b": serialize_matrix(pairs[worst, 1])}))

    # One random reference channel per second-factor dimension, reused by
    # the invariance, multiplicativity, and relative-entropy families.
    psis = {dp: random_channel(dp, dp, 2, seed=child_seed(root, 2, i))
            for i, dp in enumerate(config.dims)}
    psi_kraus = {dp: [serialize_matrix(k) for k in psi.kraus_ops]
                 for dp, psi in psis.items()}

    # Each (d, d', lam, p) cell below evaluates its trials as one stack.
    nb_tol = config.tolerance("norm_bound")
    for i_d, d, i_dp, dp, i_l, lam in _cells(config, PhaseDampingChannel):
        ph = PhaseDampingChannel.unchecked(d, lam)
        for i_p, p in enumerate(config.p_grid):
            seed = child_seed(root, 3, i_d, i_dp, i_l, i_p)
            rho12 = random_density_matrices(d * dp, seed, trials)
            slack = tensor_output_norm_bound(ph, rho12, p).slack
            worst = int(np.argmin(slack))
            min_slack = float(slack[worst])
            records.append(_family_record(
                "tensor-output-norm-bound",
                {"d": d, "dp": dp, "lam": lam, "p": p}, seed,
                {"min_slack": min_slack, "trials": trials}, min_slack,
                min_slack >= -nb_tol, {"tolerance": nb_tol},
                lambda: {"rho12": serialize_matrix(rho12[worst])}))

    inv_tol = config.tolerance("invariance")
    n_unitaries = min(trials, 20)
    for i_d, d, i_dp, dp, i_l, lam in _cells(config, DepolarizingChannel):
        psi, dep = psis[dp], DepolarizingChannel(d, lam)
        for i_p, p in enumerate(config.p_grid):
            seed = child_seed(root, 4, i_d, i_dp, i_l, i_p)
            # The unitaries come from a second generator of the cell, so
            # that neither stack's first rows depend on the trial count.
            tau = random_density_matrices(d * dp, seed, n_unitaries)
            u = random_unitaries(d, child_seed(seed, 1), n_unitaries)
            dev = local_unitary_invariance_check(dep, psi, tau, u, p).difference
            worst = int(np.argmax(dev))
            max_dev = float(dev[worst])
            records.append(_family_record(
                "local-unitary-invariance",
                {"d": d, "dp": dp, "lam": lam, "p": p}, seed,
                {"max_deviation": max_dev, "trials": n_unitaries},
                inv_tol - max_dev, max_dev <= inv_tol, {"tolerance": inv_tol},
                lambda: {"tau12": serialize_matrix(tau[worst]),
                         "u": serialize_matrix(u[worst]),
                         "psi_kraus": psi_kraus[dp]}))

    mult_tol = config.tolerance("multiplicativity")
    sat_tol = config.tolerance("product_saturation")
    psi_norms = {}
    if any_live:
        for i_dp, dp in enumerate(config.dims):
            for i_p, p in enumerate(config.p_grid):
                psi_norms[dp, p] = max_output_p_norm(
                    psis[dp], p, restarts=32,
                    seed=child_seed(root, 5, i_dp, i_p))
    for i_d, d, i_dp, dp, i_l, lam in _cells(config, DepolarizingChannel):
        psi, dep = psis[dp], DepolarizingChannel(d, lam)
        for i_p, p in enumerate(config.p_grid):
            seed = child_seed(root, 6, i_d, i_dp, i_l, i_p)
            measure = psi_norms[dp, p]
            bound = dep.nu_p(p) * measure.value
            tau = random_density_matrices(d * dp, seed + 1, trials)
            # Any pure state maximizes the depolarizing factor, by
            # covariance, so the product of maximizers rides at the end of
            # the stack and should saturate the bound.
            prod = np.kron(np.eye(d, dtype=complex)[0], measure.maximizer)
            stack = np.concatenate([tau, np.outer(prod, prod.conj())[None]])
            norms = multiplicativity_check(dep, psi, stack, p, bound).lhs
            worst = int(np.argmax(norms[:-1]))
            max_norm, product_norm = float(norms[worst]), float(norms[-1])
            records.append(_family_record(
                "nu-p-multiplicativity",
                {"d": d, "dp": dp, "lam": lam, "p": p}, seed,
                {"max_norm": max_norm, "bound": bound,
                 "product_norm": product_norm,
                 "saturation_gap": product_norm - bound,
                 "trials": trials},
                bound + mult_tol - max_norm,
                max_norm <= bound + mult_tol
                and abs(product_norm - bound) <= sat_tol,
                {"bound": bound, "tolerance": mult_tol},
                lambda: {"tau12": serialize_matrix(tau[worst]),
                         "psi_kraus": psi_kraus[dp]}))

    re_tol = config.tolerance("relent_bound")
    re_sat_tol = config.tolerance("relent_saturation")
    holevo_cache, witness_cache = {}, {}
    if any_live:
        for i_dp, dp in enumerate(config.dims):
            res = holevo_quantity(psis[dp], seed=child_seed(root, 7, i_dp))
            holevo_cache[dp] = res
            # Saturating second factor: the heaviest support state of the
            # optimal ensemble, whose divergence from the average output
            # equals chi* by the equalization condition.
            ens = res.ensemble()
            witness_cache[dp] = np.asarray(
                ens.states[int(np.argmax(ens.probs))], dtype=complex)
    for i_d, d, i_dp, dp, i_l, lam in _cells(config, DepolarizingChannel):
        psi, res = psis[dp], holevo_cache[dp]
        seed = child_seed(root, 9, i_d, i_dp, i_l)
        tau = random_density_matrices(d * dp, seed, trials)
        p0 = np.diag(np.eye(d)[0])
        tau_prod = BipartiteState(d, dp, np.kron(p0, witness_cache[dp]))
        # The saturating product input rides at the end of the stack.
        chk = tensor_relative_entropy_bound(
            DepolarizingChannel(d, lam), psi,
            np.concatenate([tau, np.asarray(tau_prod)[None]]),
            res.chi, res.average_output)
        worst = int(np.argmin(chk.slack[:-1]))
        min_slack, sat_slack = float(chk.slack[worst]), float(chk.slack[-1])
        records.append(_family_record(
            "relative-entropy-tensor-bound", {"d": d, "dp": dp, "lam": lam},
            seed,
            {"relent_min_slack": min_slack, "relent_saturation_gap": sat_slack,
             "trials": trials, "certificate_gap": res.certificate_gap},
            min_slack, min_slack >= -re_tol and abs(sat_slack) <= re_sat_tol,
            {"rhs": float(chk.rhs), "tolerance": re_tol},
            lambda: {"tau12": serialize_matrix(tau[worst]),
                     "psi_kraus": psi_kraus[dp],
                     "average_output": serialize_matrix(
                         np.asarray(res.average_output))}))

    add_tol = config.tolerance("additivity")
    live2 = sorted(lam for lam in config.lambdas
                   if DepolarizingChannel.in_cp_range(2, lam))
    if 2 in config.dims and live2:
        lam_mid = live2[len(live2) // 2]
        partners = [("depolarizing", DepolarizingChannel(2, 0.7)),
                    ("random-qubit", psis[2])]
        for i, (label, partner) in enumerate(partners):
            seed = child_seed(root, 10, i)
            psi_result = holevo_cache[2] if i else holevo_quantity(partner, seed=seed + 1)
            chk = chi_additivity_check(DepolarizingChannel(2, lam_mid),
                                       partner, psi_result, seed=seed)
            warning = None if chk.converged else "optimizer did not converge"
            passed = (abs(chk.gap) <= add_tol
                      and (chk.converged or not config.strict))
            records.append(CheckRecord(
                "chi-additivity",
                inputs={"d": 2, "lam": lam_mid, "partner": label},
                values={"chi_product": chk.chi_product,
                        "chi_delta": chk.chi_delta,
                        "chi_psi": chk.chi_psi,
                        "additivity_gap": chk.gap,
                        "converged": chk.converged},
                slack=add_tol - abs(chk.gap), passed=passed, seed=seed,
                warning=warning))

    return Report("verify", config, records)


# ---------------------------------------------------------------------------
# capacity
# ---------------------------------------------------------------------------

def cmd_capacity(config: RunConfig) -> Report:
    """Cross-check the capacity value along three independent routes.

    Per (d, lambda): the closed-form Holevo value, the Blahut-Arimoto
    capacity of the induced basis-to-basis transition matrix, and the
    ensemble optimizer, with pairwise gaps and a monotonicity scan.
    """
    records = []
    cap_tol = config.tolerance("capacity_chain")
    hol_tol = config.tolerance("holevo_agreement")
    for i_d, d in enumerate(config.dims):
        chain = []
        for i_l, lam in enumerate(sorted(config.lambdas)):
            if not DepolarizingChannel.in_cp_range(d, lam):
                records.append(CheckRecord(
                    "capacity-chain",
                    inputs={"d": d, "lam": lam},
                    values={"skipped": True},
                    passed=False,
                    warning="lambda outside the admissible range; skipped"))
                continue
            ch = DepolarizingChannel(d, lam)
            chi = ch.chi_star()
            s_min = ch.s_min()
            ba = shannon_capacity_fixed(
                transition_matrix(ch, Ensemble.uniform_basis(d), Povm.basis(d)))
            prior_dev = float(np.max(np.abs(ba.prior - 1.0 / d)))
            seed = child_seed(config.seed, 11, i_d, i_l)
            numeric = holevo_quantity(ch, seed=seed)
            capacity_gap = ba.capacity - chi
            holevo_gap = numeric.chi - chi
            warning = (None if numeric.converged
                       else "optimizer did not converge")
            passed = (abs(capacity_gap) <= cap_tol
                      and prior_dev <= cap_tol
                      and abs(holevo_gap) <= hol_tol
                      and (numeric.converged or not config.strict))
            chain.append((lam, chi))
            records.append(CheckRecord(
                "capacity-chain",
                inputs={"d": d, "lam": lam},
                values={"chi_closed": chi, "s_min": s_min,
                        "shannon_capacity": ba.capacity,
                        "holevo_chi": numeric.chi,
                        "capacity_gap": capacity_gap,
                        "holevo_gap": holevo_gap,
                        "certificate_gap": numeric.certificate_gap,
                        "prior_deviation": prior_dev,
                        "converged": numeric.converged},
                slack=cap_tol - abs(capacity_gap), passed=passed, seed=seed,
                warning=warning))
        nonneg = [(lam, chi) for lam, chi in chain if lam >= 0.0]
        if len(nonneg) >= 2:
            diffs = [b[1] - a[1] for a, b in zip(nonneg, nonneg[1:])]
            records.append(CheckRecord(
                "capacity-monotone",
                inputs={"d": d},
                values={"min_increment": min(diffs),
                        "grid_points": len(nonneg)},
                passed=min(diffs) >= -1e-12))
    return Report("capacity", config, records)


# ---------------------------------------------------------------------------
# replay
# ---------------------------------------------------------------------------

def _replay_check(data: dict):
    """(name, inputs, values, slack, passed) of a witness re-run."""
    name = data["check"]
    inputs = data["inputs"]
    dims = [inputs[k] for k in ("d", "dp", "dim") if k in inputs]
    if not all(isinstance(d, int) and 2 <= d <= 6 for d in dims):
        raise ConfigError(f"witness dimensions {dims} are out of scope")
    mats = {k: (deserialize_matrix(v) if isinstance(v, dict)
                else [deserialize_matrix(x) for x in v])
            for k, v in data.get("matrices", {}).items()}
    scalars = data.get("scalars", {})

    if name == "lieb-thirring":
        dim = inputs["dim"]
        if any(np.shape(mats[k]) != (dim, dim) for k in ("a", "b")):
            raise ConfigError(f"witness matrices a and b must be {dim} x {dim}")
        chk = lieb_thirring_check(mats["a"], mats["b"], inputs["p"])
        return (name, inputs, {"lhs": chk.lhs, "rhs": chk.rhs}, chk.relative_slack,
                chk.relative_slack >= -scalars["tolerance"])
    if name not in ("tensor-output-norm-bound", "local-unitary-invariance",
                    "nu-p-multiplicativity", "relative-entropy-tensor-bound"):
        raise ConfigError(f"witness file names unknown check {name!r}")
    # The randomized families re-run through verify's own code, on a stack
    # of one trial.
    d, tol = inputs["d"], scalars["tolerance"]
    key = "rho12" if name == "tensor-output-norm-bound" else "tau12"
    tau = np.asarray(BipartiteState(d, inputs["dp"], mats[key]))[None]
    if name == "tensor-output-norm-bound":
        ph = PhaseDampingChannel.unchecked(d, inputs["lam"])
        chk = tensor_output_norm_bound(ph, tau, inputs["p"])
        values, slack = {"lhs": chk.lhs[0], "rhs": chk.rhs[0]}, chk.slack[0]
        return name, inputs, values, float(slack), bool(slack >= -tol)
    dep = DepolarizingChannel(d, inputs["lam"])
    psi = Channel(mats["psi_kraus"])
    if name == "local-unitary-invariance":
        u = np.asarray(mats["u"])
        if (u.shape != (d, d)
                or np.max(np.abs(u.conj().T @ u - np.eye(d))) > 1e-10):
            raise ConfigError(f"witness u must be a {d} x {d} unitary")
        chk = local_unitary_invariance_check(dep, psi, tau, u[None],
                                             inputs["p"])
        values = {"value_a": chk.value_a[0], "value_b": chk.value_b[0]}
        deviation = chk.difference[0]
        return (name, inputs, values, float(tol - deviation),
                bool(deviation <= tol))
    if name == "nu-p-multiplicativity":
        norm = multiplicativity_check(dep, psi, tau, inputs["p"],
                                      scalars["bound"]).lhs[0]
        slack = scalars["bound"] + tol - norm
        return (name, inputs, {"norm": norm, "bound": scalars["bound"]},
                float(slack), bool(slack >= 0.0))
    # The recorded rhs is chi*(Delta) + chi*(Psi).
    lhs = tensor_relative_entropy_bound(
        dep, psi, tau, scalars["rhs"] - dep.chi_star(),
        DensityMatrix(mats["average_output"])).lhs[0]
    slack = scalars["rhs"] - lhs
    return (name, inputs, {"lhs": lhs, "rhs": scalars["rhs"]}, float(slack),
            bool(slack >= -tol))


def _finite_float(token: str) -> float:
    value = float(token)
    if not math.isfinite(value):
        raise ValueError(f"non-finite number {token}")
    return value


def run_replay(path: str) -> tuple[dict, bool]:
    """Re-run a single serialized failure witness; returns (record, passed).

    A file that cannot be read, is not a JSON object, lacks a key or holds
    values that do not fit its check raises ConfigError."""
    try:
        with open(path) as fh:
            data = json.load(fh, parse_float=_finite_float,
                             parse_constant=_finite_float)
    except (OSError, ValueError) as exc:
        raise ConfigError(f"cannot read witness file: {exc}")
    if not isinstance(data, dict):
        raise ConfigError("witness file must hold a JSON object")
    try:
        name, inputs, values, slack, passed = _replay_check(data)
    except KeyError as exc:
        raise ConfigError(f"witness file lacks the key {exc}")
    except ConfigError:
        raise
    except (TypeError, ValueError, AttributeError, IndexError) as exc:
        raise ConfigError(f"witness file does not fit its check: {exc}")
    if not all(math.isfinite(x) for x in (slack, *values.values())):
        raise ConfigError("witness values give a non-finite result")

    record = {
        "tool": "depolcap",
        "version": __version__,
        "command": "replay",
        "check": name,
        "inputs": inputs,
        "seed": data.get("seed"),
        "values": values,
        "slack": slack,
        "passed": passed,
    }
    return record, passed


# ---------------------------------------------------------------------------
# argument parsing and dispatch
# ---------------------------------------------------------------------------

_COMMANDS = {
    "measures": cmd_measures,
    "decompose": cmd_decompose,
    "verify": cmd_verify,
    "capacity": cmd_capacity,
}


class _ArgumentParser(argparse.ArgumentParser):
    """An ArgumentParser that also reads a negative number in exponent
    notation (-1e-05, -2.5E+3) as a value; argparse's own pattern takes
    only -1 and -0.5 forms and would read "-1e-05" as an unknown option.
    Subparsers are built with the same class."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self._negative_number_matcher = re.compile(
            r"^-(?:\d+\.?\d*|\.\d+)(?:[eE][+-]?\d+)?$")


def _build_parser() -> argparse.ArgumentParser:
    parser = _ArgumentParser(
        prog="depolcap",
        description="depolarizing-channel capacity toolkit")
    parser.add_argument("--version", action="version",
                        version=f"depolcap {__version__}")
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--dims", type=int, nargs="+", metavar="D",
                        help="dimensions to sweep (2..6)")
    common.add_argument("--lambdas", type=float, nargs="+", metavar="L",
                        help="lambda grid")
    common.add_argument("--p-grid", type=float, nargs="+", dest="p_grid",
                        metavar="P", help="Schatten exponents (>= 1)")
    common.add_argument("--trials", type=int, help="Monte-Carlo trials per cell")
    common.add_argument("--seed", type=int, help="root seed")
    common.add_argument("--out", help="output file (see also DEPOLCAP_OUT_DIR)")
    common.add_argument("--format", choices=["json", "csv"], dest="fmt",
                        help="report format")
    common.add_argument("--bits", action="store_const", const=True,
                        help="display entropy-like values in bits")
    common.add_argument("--strict", action="store_const", const=True,
                        help="treat optimizer warnings as failures")
    common.add_argument("--unchecked-lambda", action="store_const", const=True,
                        dest="unchecked_lambda",
                        help="allow lambda values outside the admissible range")
    common.add_argument("--config", help="JSON config file (same keys as flags)")
    sub = parser.add_subparsers(dest="command", required=True)
    for name, fn in _COMMANDS.items():
        p = sub.add_parser(name, parents=[common],
                           help=fn.__doc__.splitlines()[0].strip())
        if name == "verify":
            p.add_argument("--replay", metavar="WITNESS",
                           help="re-run a serialized failure witness file")
    return parser


_CONFIG_KEYS = ("dims", "lambdas", "p_grid", "trials", "seed", "out", "fmt",
                "bits", "strict", "unchecked_lambda", "tolerances")


def _load_config(args: argparse.Namespace) -> RunConfig:
    merged: dict = {}
    if args.config:
        try:
            with open(args.config) as fh:
                raw = json.load(fh)
        except (OSError, json.JSONDecodeError) as exc:
            raise ConfigError(f"cannot read config file: {exc}")
        if not isinstance(raw, dict):
            raise ConfigError("config file must hold a JSON object")
        aliases = {"format": "fmt"}
        for key, value in raw.items():
            key = aliases.get(key, key)
            if key not in _CONFIG_KEYS:
                raise ConfigError(f"unknown config key {key!r}")
            merged[key] = value
    for key in _CONFIG_KEYS:
        value = getattr(args, key, None)
        if value is not None:
            merged[key] = value
    return RunConfig(**merged)


def _emit(report: Report, config: RunConfig) -> None:
    path = resolve_out_path(config.out, report.command, config.fmt)
    text = report.render()
    if path is None:
        sys.stdout.write(text)
    else:
        try:
            directory = os.path.dirname(path)
            if directory:
                os.makedirs(directory, exist_ok=True)
            with open(path, "w") as fh:
                fh.write(text)
        except OSError as exc:
            raise ConfigError(f"cannot write report: {exc}")
        summary = report.summary()
        print(f"{report.command}: {summary['passed']}/{summary['total']} "
              f"checks passed -> {path}")
    for line in report.warnings:
        print(f"warning: {line}", file=sys.stderr)


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        if args.command == "verify" and getattr(args, "replay", None):
            record, passed = run_replay(args.replay)
            sys.stdout.write(json.dumps(record, sort_keys=True, indent=2,
                                        allow_nan=False) + "\n")
            return 0 if passed else 1
        config = _load_config(args)
        report = _COMMANDS[args.command](config)
        _emit(report, config)
    except ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    return 0 if report.all_passed else 1


if __name__ == "__main__":
    sys.exit(main())
