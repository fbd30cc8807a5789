"""Acceptance suite: one test per headline claim, at the stated tolerances.

Each test prints a single pass line (visible with -s; pytest -v shows the
same verdict per test) and asserts its wall-clock budget so regressions in
the optimizers or the decomposition builder surface here.
"""

import json
import math
import re
import time

import numpy as np
import pytest

from depolcap.bounds import (
    lieb_thirring_check,
    max_output_p_norm,
    min_output_entropy,
    multiplicativity_check,
    tensor_output_norm_bound,
)
from depolcap.capacity import (
    Ensemble,
    Povm,
    chi_additivity_check,
    holevo_quantity,
    shannon_capacity_depolarizing,
    shannon_capacity_fixed,
    tensor_relative_entropy_bound,
    transition_matrix,
)
from depolcap.cli import main
from depolcap.core import (
    BipartiteState,
    random_bipartite_state,
    random_channel,
    random_density_matrices,
    spawn_rngs,
)
from depolcap.decomposition import diophantine_solutions, full_decomposition
from depolcap.depolarizing import DepolarizingChannel
from depolcap.phase_damping import PhaseDampingChannel

LAMBDA_GRID = (0.0, 0.25, 0.5, 0.75, 1.0)


def _report(label: str, started: float, budget: float) -> None:
    elapsed = time.monotonic() - started
    print(f"{label}: PASS ({elapsed:.1f}s)")
    assert elapsed < budget, f"{label} exceeded its {budget:.0f}s budget"


def test_01_closed_forms_match_brute_force():
    """S_min, nu_p and chi_star closed forms against 200-restart ascent."""
    t0 = time.monotonic()
    for d in (2, 3, 4):
        for lam in LAMBDA_GRID:
            ch = DepolarizingChannel(d, lam)
            ent = min_output_entropy(ch, restarts=200, seed=101)
            assert abs(ent.value - ch.s_min()) < 1e-6
            assert abs(ch.chi_star() - (math.log(d) - ent.value)) < 1e-6
            for p in (1.5, 2.0, 3.0):
                norm = max_output_p_norm(ch, p, restarts=200, seed=202)
                assert abs(norm.value - ch.nu_p(p)) < 1e-6
    _report("closed-form agreement", t0, 60.0)


def test_02_decomposition_reconstructs_the_channel():
    """Superoperator distance, weight sum, uniformity, and term counts."""
    t0 = time.monotonic()
    for d in (2, 3, 4, 5):
        for lam in LAMBDA_GRID:
            deco = full_decomposition(d, lam)
            assert deco.reconstruction_error() < 1e-10
            assert abs(deco.weight_sum - 1.0) <= 1e-12
            assert deco.is_convex
            assert deco.all_channels_uniform()
            assert len(deco) == 2 * d * d * (d + 1)
    assert len(full_decomposition(2, 0.5)) == 24
    _report("decomposition identity", t0, 60.0)


def test_03_phase_matching_census():
    """Exactly 2 d^2 - d index quadruples, none in the wraparound branches."""
    t0 = time.monotonic()
    for d in range(2, 13):
        census = diophantine_solutions(d)
        assert census.count == 2 * d * d - d
        assert census.count == census.expected_count
        assert census.cross_branch_count == 0
    _report("phase-matching census", t0, 10.0)


def test_04_trace_inequality_on_random_pairs():
    """Tr (A^(1/2) B A^(1/2))^p <= Tr (A^p B^p), 500 pairs per dimension."""
    t0 = time.monotonic()
    for dim, seed in ((2, 11), (3, 12), (4, 13), (6, 14)):
        for rng in spawn_rngs(seed, 500):
            g = (rng.standard_normal((dim, dim))
                 + 1j * rng.standard_normal((dim, dim)))
            h = (rng.standard_normal((dim, dim))
                 + 1j * rng.standard_normal((dim, dim)))
            a, b = g @ g.conj().T, h @ h.conj().T
            for p in (1.5, 2.0, 3.0, 5.0):
                assert lieb_thirring_check(a, b, p).slack >= -1e-10
    _report("trace inequality", t0, 60.0)


def test_05_tensor_output_norm_bound():
    """Phase damper (x) identity output norms against the block bound."""
    t0 = time.monotonic()
    for d in (2, 3):
        for dp in (2, 3):
            for lam in (0.3, 0.7, 1.0):
                ch = PhaseDampingChannel(d, lam)
                for p in (1.5, 2.0, 3.0):
                    for rng in spawn_rngs(31 + d + 10 * dp, 200):
                        rho12 = random_bipartite_state(d, dp, seed=rng)
                        chk = tensor_output_norm_bound(ch, rho12, p)
                        assert chk.slack >= -1e-9
    _report("tensor output norm bound", t0, 120.0)


def test_06_norm_multiplicativity():
    """|| (Delta (x) Psi) tau ||_p stays below the product of factor norms
    and attains it on product inputs."""
    t0 = time.monotonic()
    for dp, psi_seed in ((2, 41), (3, 42)):
        psi = random_channel(dp, dp, 2, seed=psi_seed)
        for p in (1.5, 2.0, 3.0):
            measure = max_output_p_norm(psi, p, restarts=64, seed=43)
            for d in (2, 3):
                for lam in (0.3, 0.7):
                    dep = DepolarizingChannel(d, lam)
                    taus = random_density_matrices(d * dp, 45, 200)
                    prod = np.kron(np.eye(d)[0], measure.maximizer)
                    chk = multiplicativity_check(
                        dep, psi,
                        np.concatenate([taus, np.outer(prod, prod.conj())[None]]),
                        p, dep.nu_p(p) * measure.value)
                    assert chk.lhs[:-1].max() <= chk.rhs + 1e-8
                    assert abs(chk.lhs[-1] - chk.rhs) <= 1e-6
    _report("norm multiplicativity", t0, 300.0)


def test_07_holevo_additivity():
    """chi* of the product channel equals the sum of factor values, with
    every optimizer run certified by its equalization gap."""
    t0 = time.monotonic()
    partners = [DepolarizingChannel(2, 0.7).kraus_channel(),
                random_channel(2, 2, 2, seed=51)]
    for i, partner in enumerate(partners):
        chk = chi_additivity_check(DepolarizingChannel(2, 0.5), partner,
                                   seed=60 + i)
        assert chk.converged, "equalization certificate did not close"
        assert -1e-4 <= chk.gap <= 1e-4
    _report("holevo additivity", t0, 600.0)


def test_08_capacity_chain():
    """Shannon capacity with basis encoding = chi* = ln d - S_min, and the
    optimal prior is uniform."""
    t0 = time.monotonic()
    for d in (2, 3, 4):
        for lam in LAMBDA_GRID:
            ch = DepolarizingChannel(d, lam)
            capacity = shannon_capacity_depolarizing(ch)
            assert abs(capacity - ch.chi_star()) <= 1e-8
            assert abs(ch.chi_star() - (math.log(d) - ch.s_min())) <= 1e-12
            ba = shannon_capacity_fixed(
                transition_matrix(ch, Ensemble.uniform_basis(d), Povm.basis(d)))
            assert np.max(np.abs(ba.prior - 1.0 / d)) <= 1e-8
    _report("capacity chain", t0, 30.0)


def test_09_relative_entropy_tensor_bound():
    """Output relative entropy against the product reference stays below
    the sum of Holevo quantities and is saturated by product optimizers."""
    t0 = time.monotonic()
    for dp, seed in ((2, 71), (3, 72)):
        psi = random_channel(dp, dp, 2, seed=seed)
        res = holevo_quantity(psi, seed=seed)
        assert res.converged
        # Product saturator: pure state on the first factor, heaviest
        # support state of the optimal ensemble on the second.
        ens = res.ensemble()
        witness = np.asarray(ens.states[int(np.argmax(ens.probs))])
        for d in (2, 3):
            for lam in (0.3, 0.7, 1.0):
                dep = DepolarizingChannel(d, lam)
                for rng in spawn_rngs(seed + 10 * d, 200):
                    tau = random_bipartite_state(d, dp, seed=rng)
                    chk = tensor_relative_entropy_bound(
                        dep, psi, tau, res.chi, res.average_output)
                    assert chk.slack >= -1e-6
                p0 = np.zeros((d, d), dtype=complex)
                p0[0, 0] = 1.0
                tau_prod = BipartiteState(d, dp, np.kron(p0, witness))
                sat = tensor_relative_entropy_bound(dep, psi, tau_prod,
                                                    res.chi, res.average_output)
                assert abs(sat.slack) <= 1e-6
    _report("relative entropy tensor bound", t0, 300.0)


def test_10_entropy_from_norm_derivative():
    """-d nu_p / dp at p = 1 recovers the minimal output entropy."""
    t0 = time.monotonic()
    for d in (2, 3, 4, 5, 6):
        for lam in LAMBDA_GRID:
            ch = DepolarizingChannel(d, lam)
            assert abs(-ch.nu_p_derivative_at_1() - ch.s_min()) <= 1e-5
    _report("entropy from norm derivative", t0, 10.0)


def test_11_verify_report_determinism(capsys):
    """Two identical verify invocations agree byte for byte except the
    timestamp."""
    t0 = time.monotonic()
    args = ["verify", "--dims", "2", "3", "--lambdas", "0.3", "0.7",
            "--p-grid", "2", "--trials", "20", "--seed", "7"]
    texts = []
    for _ in range(2):
        assert main(args) == 0
        texts.append(re.sub(r'^\s*"timestamp": "[^"]*",?\n', "",
                            capsys.readouterr().out, flags=re.M))
    assert texts[0] == texts[1]
    report = json.loads(texts[0])
    assert report["summary"]["failed"] == 0
    assert report["summary"]["total"] > 0
    _report("verify determinism", t0, 300.0)
