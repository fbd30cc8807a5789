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
import dataclasses
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
    MAX_TRIALS,
    CheckRecord,
    ConfigError,
    Report,
    RunConfig,
    _is_number,
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

# The randomized families. Each takes its cell (channels, and a grid of p
# for the families with one), its trial stacks and one dict of the scalars
# its verdict reads per record, and returns one (values, slack, passed,
# keep) per record, where keep indexes the trials a failed record's witness
# stores. verify runs it on a cell's samples, --replay on a witness with a
# grid of its one p.

def _min_slack(slack, scalars):
    # A NaN slack is the minimum, and fails.
    worst = int(np.argmin(slack))
    min_slack = float(slack[worst])
    return ({"min_slack": min_slack, "trials": len(slack)}, min_slack,
            min_slack >= -scalars["tolerance"], [worst])


def _lieb_thirring(ps, a, b, scalars):
    # Relative to rhs, since both sides reach 1e96 at p = 50.
    return [_min_slack(lieb_thirring_check(a, b, p).relative_slack, sc)
            for p, sc in zip(ps, scalars)]


def _norm_bound(ph, ps, rho12, scalars):
    slack = tensor_output_norm_bound(ph, rho12, ps).slack
    return [_min_slack(row, sc) for row, sc in zip(slack, scalars)]


def _invariance(dep, psi, ps, tau12, u, scalars):
    deviations = local_unitary_invariance_check(dep, psi, tau12, u, ps).difference
    out = []
    for dev, sc in zip(deviations, scalars):
        worst = int(np.argmax(dev))
        max_dev, tol = float(dev[worst]), sc["tolerance"]
        out.append(({"max_deviation": max_dev, "trials": len(tau12)},
                    tol - max_dev, max_dev <= tol, [worst]))
    return out


def _multiplicativity(dep, psi, ps, tau12, scalars):
    # The stack ends in one saturating product input per p, in grid order.
    trials = len(tau12) - len(ps)
    norms = multiplicativity_check(dep, psi, tau12, ps,
                                   [sc["bound"] for sc in scalars]).lhs
    out = []
    for k, (row, sc) in enumerate(zip(norms, scalars)):
        bound, tol, sat_tol = (sc[key] for key in ("bound", "tolerance",
                                                   "saturation"))
        worst = int(np.argmax(row[:trials]))
        top, product = float(row[worst]), float(row[trials + k])
        out.append(({"max_norm": top, "bound": bound, "product_norm": product,
                     "saturation_gap": product - bound, "trials": trials},
                    bound + tol - top,
                    top <= bound + tol and abs(product - bound) <= sat_tol,
                    [worst, trials + k]))
    return out


def _relent(dep, psi, average_output, tau12, scalars):
    # The last trial is the saturating product input. rhs is
    # chi*(Delta) + chi*(Psi); the slack takes it as recorded.
    (sc,) = scalars
    rhs, tol, sat_tol = (sc[k] for k in ("rhs", "tolerance", "saturation"))
    slack = rhs - tensor_relative_entropy_bound(
        dep, psi, tau12, rhs - dep.chi_star(), average_output).lhs
    worst = int(np.argmin(slack[:-1]))
    low, sat = float(slack[worst]), float(slack[-1])
    return [({"relent_min_slack": low, "relent_saturation_gap": sat,
              "trials": len(tau12) - 1,
              "certificate_gap": sc["certificate_gap"]}, low,
             low >= -tol and abs(sat) <= sat_tol,
             [worst, -1])]


# Check name -> (family function, names of its trial stacks).
_FAMILIES = {
    "lieb-thirring": (_lieb_thirring, ("a", "b")),
    "tensor-output-norm-bound": (_norm_bound, ("rho12",)),
    "local-unitary-invariance": (_invariance, ("tau12", "u")),
    "nu-p-multiplicativity": (_multiplicativity, ("tau12",)),
    "relative-entropy-tensor-bound": (_relent, ("tau12",)),
}


def _family_records(name, inputs, seed, cell, stacks, scalars,
                    shared=None) -> list:
    """A randomized family's records on one cell, one per entry of
    ``inputs`` and of ``scalars``. A failed one carries the witness that
    ``verify --replay`` re-runs: the kept trials of each stack, the cell's
    ``shared`` matrices and the record's scalars."""
    family, keys = _FAMILIES[name]
    records = []
    for rec_inputs, rec_scalars, (values, slack, passed, keep) in zip(
            inputs, scalars, family(*cell, *stacks, scalars)):
        witness = None
        if not passed:
            kept = {k: stack[keep] for k, stack in zip(keys, stacks)}
            witness = {"check": name, "inputs": rec_inputs, "seed": seed,
                       "matrices": {k: [serialize_matrix(x) for x in m]
                                    if isinstance(m, tuple) else serialize_matrix(m)
                                    for k, m in {**kept, **(shared or {})}.items()},
                       "scalars": rec_scalars}
        records.append(CheckRecord(name, inputs=rec_inputs, values=values,
                                   slack=slack, passed=passed, seed=seed,
                                   witness=witness))
    return records


def _saturating_stack(trials, d, states) -> np.ndarray:
    """The trial stack with |0><0| (x) |s><s| appended for each of
    ``states``, in order. Any pure state maximizes the depolarizing factor,
    by covariance, so with the partner's maximizer this product input
    saturates the family's bound."""
    prods = [np.kron(np.eye(d, dtype=complex)[0], s) for s in states]
    return np.concatenate([trials, [np.outer(x, x.conj()) for x in prods]])


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
    for i_d, d in enumerate(config.dims):
        for i_l, lam in enumerate(config.lambdas):
            eig = min_choi_eig(d, lam)
            cp = _cp_up_to_rounding(d, lam)
            records.append(CheckRecord(
                "cp-range-witness",
                inputs={"d": d, "lam": lam},
                values={"min_choi_eig": eig, "cp_expected": cp},
                passed=bool(eig >= -1e-10 if cp else eig < -1e-12)))

    for i_d, d in enumerate(config.dims):
        for i_p, p in enumerate(config.p_grid):
            seed = child_seed(root, 1, i_d, i_p)
            pairs = random_psd_matrices(d, seed, (trials, 2))
            records += _family_records(
                "lieb-thirring", [{"dim": d, "p": p}], seed, ((p,),),
                (pairs[:, 0], pairs[:, 1]),
                [{"tolerance": config.tolerance("lieb_thirring")}])

    # One random reference channel per second-factor dimension, reused by
    # the invariance, multiplicativity, and relative-entropy families. Its
    # nu_p per p and its Holevo optimizer run are made in its first cell.
    psis = {dp: random_channel(dp, dp, 2, seed=child_seed(root, 2, i))
            for i, dp in enumerate(config.dims)}
    psi_norms, holevo = {}, {}
    ps = config.p_grid
    nb_scalars = [{"tolerance": config.tolerance("norm_bound")}] * len(ps)
    inv_scalars = [{"tolerance": config.tolerance("invariance")}] * len(ps)
    mult_scalars = {"tolerance": config.tolerance("multiplicativity"),
                    "saturation": config.tolerance("product_saturation")}
    re_scalars = {"tolerance": config.tolerance("relent_bound"),
                  "saturation": config.tolerance("relent_saturation")}
    n_unitaries = min(trials, 20)

    def cell_records(i_d, d, i_dp, dp, i_l, lam) -> list:
        # Each (d, d', lam) cell draws its trials once per family, seeded by
        # the cell, and evaluates them as one stack with one stacked
        # eigendecomposition; every p of the grid reads its norms from that
        # spectrum. The cell's arrays end with this call.
        ph = PhaseDampingChannel.unchecked(d, lam)
        cell = {"d": d, "dp": dp, "lam": lam}
        inputs = [{**cell, "p": p} for p in ps]
        seed = child_seed(root, 3, i_d, i_dp, i_l)
        out = _family_records(
            "tensor-output-norm-bound", inputs, seed, (ph, ps),
            (random_density_matrices(d * dp, seed, trials),), nb_scalars)
        if not DepolarizingChannel.in_cp_range(d, lam):
            return out
        psi, dep = psis[dp], DepolarizingChannel(d, lam)
        shared = {"psi_kraus": psi.kraus_ops}
        if dp not in holevo:
            holevo[dp] = holevo_quantity(psi, seed=child_seed(root, 7, i_dp))
            for i_p, p in enumerate(ps):
                psi_norms[dp, p] = max_output_p_norm(
                    psi, p, restarts=32, seed=child_seed(root, 5, i_dp, i_p))
        seed = child_seed(root, 4, i_d, i_dp, i_l)
        # The unitaries come from a second generator of the cell, so that
        # neither stack's first rows depend on the trial count.
        out += _family_records(
            "local-unitary-invariance", inputs, seed, (dep, psi, ps),
            (random_density_matrices(d * dp, seed, n_unitaries),
             random_unitaries(d, child_seed(seed, 1), n_unitaries)),
            inv_scalars, shared)
        measures = [psi_norms[dp, p] for p in ps]
        seed = child_seed(root, 6, i_d, i_dp, i_l)
        out += _family_records(
            "nu-p-multiplicativity", inputs, seed, (dep, psi, ps),
            (_saturating_stack(random_density_matrices(d * dp, seed + 1, trials),
                               d, [m.maximizer for m in measures]),),
            [{"bound": dep.nu_p(p) * m.value, **mult_scalars}
             for p, m in zip(ps, measures)], shared)
        # The partner's side of the saturating input: the heaviest support
        # state of the optimal ensemble, whose divergence from the average
        # output equals chi* by the equalization condition.
        res = holevo[dp]
        seed = child_seed(root, 9, i_d, i_dp, i_l)
        return out + _family_records(
            "relative-entropy-tensor-bound", [cell], seed,
            (dep, psi, res.average_output),
            (_saturating_stack(random_density_matrices(d * dp, seed, trials),
                               d, [res.states[int(np.argmax(res.probs))]]),),
            [{"rhs": float(dep.chi_star() + res.chi), **re_scalars,
              "certificate_gap": float(res.certificate_gap)}],
            {**shared, "average_output": np.asarray(res.average_output)})

    # The phase damper is admissible at every lambda where Delta is, and
    # below them. Families built on Delta skip the lambdas outside its range
    # (reachable with the unchecked flag), which still get their CP witness
    # row.
    for (i_d, d), (i_dp, dp), (i_l, lam) in itertools.product(
            enumerate(config.dims), enumerate(config.dims),
            enumerate(config.lambdas)):
        if PhaseDampingChannel.in_cp_range(d, lam):
            records += cell_records(i_d, d, i_dp, dp, i_l, lam)

    add_tol = config.tolerance("additivity")
    live2 = sorted(lam for lam in config.lambdas
                   if DepolarizingChannel.in_cp_range(2, lam))
    if 2 in config.dims and live2:
        lam_mid = live2[len(live2) // 2]
        partners = [("depolarizing", DepolarizingChannel(2, 0.7)),
                    ("random-qubit", psis[2])]
        for i, (label, partner) in enumerate(partners):
            seed = child_seed(root, 10, i)
            psi_result = holevo[2] if i else holevo_quantity(partner, seed=seed + 1)
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
            ba = shannon_capacity_fixed(transition_matrix(ch))
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

def _replay_cell(name: str, inputs: dict, mats: dict) -> tuple:
    """A witness's cell: the arguments its family takes before the trial
    stacks, built from the witness's inputs and shared matrices."""
    if name == "lieb-thirring":
        return ((inputs["p"],),)
    d, lam = inputs["d"], inputs["lam"]
    if name == "tensor-output-norm-bound":
        return PhaseDampingChannel(d, lam), (inputs["p"],)
    return (DepolarizingChannel(d, lam), Channel(mats["psi_kraus"]),
            DensityMatrix(mats["average_output"])
            if name == "relative-entropy-tensor-bound" else (inputs["p"],))


def _replay_stack(key: str, m: np.ndarray, inputs: dict) -> np.ndarray:
    """A witness's trial stack ``key``, checked as verify would have drawn
    it; a 2-d matrix is one trial."""
    m = m[None] if m.ndim == 2 else m
    if key in ("rho12", "tau12"):
        return np.stack([np.asarray(BipartiteState(inputs["d"], inputs["dp"], t))
                         for t in m])
    dim = inputs["dim" if key in ("a", "b") else "d"]
    if m.shape[1:] != (dim, dim):
        raise ConfigError(f"witness matrix {key} must be {dim} x {dim}")
    if key == "u" and np.max(np.abs(
            np.swapaxes(m.conj(), -1, -2) @ m - np.eye(dim))) > 1e-10:
        raise ConfigError(f"witness u must be a {dim} x {dim} unitary")
    return m


def _replay_check(data: dict):
    """(name, inputs, values, slack, passed) of a witness re-run through its
    family's function."""
    name, inputs = data["check"], data["inputs"]
    if name not in _FAMILIES:
        raise ConfigError(f"witness file names unknown check {name!r}")
    # The inputs obey RunConfig's rules for d, d', dim, p and lam. Its CP
    # range is left to the channels built on lam, which refuse it outside
    # theirs, as verify builds none there. d = d' is one entry of dims, but
    # d = 2, d' = 2.0 is two, so that the float is refused.
    dims = {(type(inputs[k]), inputs[k]): inputs[k]
            for k in ("d", "dp", "dim") if k in inputs}
    grids = {"lambdas": "lam", "p_grid": "p"}
    try:
        RunConfig(dims=list(dims.values()),
                  **{g: [inputs[k]] for g, k in grids.items() if k in inputs},
                  unchecked_lambda=True)
    except ConfigError as exc:
        raise ConfigError(f"witness inputs: {exc}") from None
    scalars = data["scalars"]
    # Every scalar is a number, and the tolerances are not negative.
    for key, value in scalars.items():
        if not _is_number(value) or (key in ("tolerance", "saturation")
                                     and value < 0.0):
            raise ConfigError(f"witness scalar {key} must be a number, "
                              f"not negative for a tolerance: got {value!r}")
    mats = {k: (deserialize_matrix(v) if isinstance(v, dict)
                else [deserialize_matrix(x) for x in v])
            for k, v in data["matrices"].items()}
    family, keys = _FAMILIES[name]
    stacks = [_replay_stack(k, mats[k], inputs) for k in keys]
    if len({len(s) for s in stacks}) > 1:
        raise ConfigError("witness trial stacks differ in length")
    [(values, slack, passed, _)] = family(*_replay_cell(name, inputs, mats),
                                          *stacks, [scalars])
    return name, inputs, values, slack, passed


def _finite_float(token: str) -> float:
    value = float(token)
    if not math.isfinite(value):
        raise ValueError(f"non-finite number {token}")
    return value


def _read_json_object(path: str, what: str) -> dict:
    """The JSON object in the ``what`` file at path. A file that cannot be
    read, is not JSON, holds a non-finite number or holds no object raises
    ConfigError."""
    try:
        with open(path) as fh:
            data = json.load(fh, parse_float=_finite_float,
                             parse_constant=_finite_float)
    except (OSError, ValueError) as exc:
        # ValueError: malformed JSON, a non-finite number, or an integer of
        # over 4300 digits.
        raise ConfigError(f"cannot read {what} file: {exc}")
    if not isinstance(data, dict):
        raise ConfigError(f"{what} file must hold a JSON object")
    return data


def run_replay(path: str) -> tuple[dict, bool]:
    """Re-run a single serialized failure witness; returns (record, passed).

    A file that cannot be read, is not a JSON object, lacks a key or holds
    values that do not fit its check raises ConfigError."""
    data = _read_json_object(path, "witness")
    try:
        name, inputs, values, slack, passed = _replay_check(data)
    except KeyError as exc:
        raise ConfigError(f"witness file lacks the key {exc}")
    except ConfigError:
        raise
    except (TypeError, ValueError, AttributeError, IndexError,
            OverflowError) as exc:
        raise ConfigError(f"witness file does not fit its check: {exc}")
    if not all(math.isfinite(x) for x in (slack, *values.values())):
        raise ConfigError("witness values give a non-finite result")

    return {"tool": "depolcap", "version": __version__, "command": "replay",
            "check": name, "inputs": inputs, "seed": data.get("seed"),
            "values": values, "slack": slack, "passed": passed}, passed


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
    common.add_argument("--trials", type=int,
                        help=f"Monte-Carlo trials per cell (1..{MAX_TRIALS})")
    common.add_argument("--seed", type=int, help="root seed")
    common.add_argument("--out", help="output file (see also DEPOLCAP_OUT_DIR)")
    common.add_argument("--format", help="report format: json or csv")
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


_CONFIG_KEYS = tuple(f.name for f in dataclasses.fields(RunConfig))


def _load_config(args: argparse.Namespace) -> RunConfig:
    merged = _read_json_object(args.config, "config") if args.config else {}
    for key in merged:
        if key not in _CONFIG_KEYS:
            raise ConfigError(f"unknown config key {key!r}")
    for key in _CONFIG_KEYS:
        value = getattr(args, key, None)
        if value is not None:
            merged[key] = value
    return RunConfig(**merged)


def _emit(report: Report, config: RunConfig) -> None:
    path = resolve_out_path(config.out, report.command, config.format)
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
