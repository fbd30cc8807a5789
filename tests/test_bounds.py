import json
import math

import numpy as np
import pytest

from depolcap import bounds
from depolcap.bounds import (
    BlockFactorization,
    b_matrix_diagonal_check,
    diagonalize_first_factor,
    lieb_thirring_check,
    local_unitary_invariance_check,
    max_output_p_norm,
    min_output_entropy,
    conditional_blocks,
    multiplicativity_check,
    small_b_matrix,
    spectrum_identity_check,
    tensor_output,
    tensor_output_norm_bound,
)
from depolcap.core import (
    BipartiteState,
    Channel,
    DensityMatrix,
    hermitize,
    matrix_power_psd,
    ptrace_matrix,
    psd_eigenvalues,
    random_bipartite_state,
    random_channel,
    random_density_matrices,
    random_density_matrix,
    random_psd_matrices,
    random_unitaries,
    random_unitary,
    schatten_p_norm,
    tensor_channel,
    von_neumann_entropy,
)
from depolcap.cli import run_replay
from depolcap.depolarizing import DepolarizingChannel, lambda_min
from depolcap.phase_damping import PhaseDampingChannel, damping_lambda_min
from depolcap.report import child_seed, serialize_matrix
from reference import basis_state, damper_kraus_channel, kraus_form
from streams import spawn_rngs

# Frozen reference: (1-lam)^p + ((d lam + 1 - lam)^p - (1-lam)^p)/d
# at d=3, lam=0.5, p=2.
B_DIAG_D3_HALF_P2 = 1.5


def identity_channel(dim):
    return Channel([np.eye(dim)])


def random_psd(dim, rng, scale=1.0):
    g = (rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim)))
    return scale * (g @ g.conj().T)


class TestBlockFactorization:
    def test_gram_reassembly_validated_at_construction(self):
        rho12 = random_bipartite_state(3, 2, seed=1)
        fact = BlockFactorization(rho12)
        assert fact.d == 3 and fact.d_prime == 2
        assert all(v.shape == (6, 2) for v in fact.blocks)

    def test_blocks_give_conditional_reductions(self):
        rho12 = random_bipartite_state(2, 3, seed=2)
        fact = BlockFactorization(rho12)
        mat = np.asarray(rho12)
        for i in range(2):
            e = np.zeros((2, 2))
            e[i, i] = 1.0
            expected = ptrace_matrix(np.kron(e, np.eye(3)) @ mat, 2, 3, keep=2)
            assert np.allclose(fact.rho2_block(i), expected, atol=1e-10)

    def test_diagonal_product_state_blocks(self):
        probs = np.array([0.7, 0.3])
        sigma = np.asarray(random_density_matrix(3, seed=3))
        rho12 = BipartiteState(2, 3, DensityMatrix(np.kron(np.diag(probs), sigma)))
        fact = BlockFactorization(rho12)
        for i in range(2):
            assert np.allclose(fact.rho2_block(i), probs[i] * sigma, atol=1e-10)

    def test_block_trace_sums_to_one(self):
        fact = BlockFactorization(random_bipartite_state(3, 3, seed=4))
        total = sum(np.trace(fact.rho2_block(i)).real for i in range(3))
        assert abs(total - 1.0) < 1e-12

    def test_transposed_gram_traces_match(self):
        # Tr (V_i V_i^dag)^p = Tr (V_i^dag V_i)^p
        fact = BlockFactorization(random_bipartite_state(3, 2, seed=5))
        for i in range(3):
            v = fact.blocks[i]
            for p in (1.5, 2.0, 3.0):
                lhs = np.sum(psd_eigenvalues(v @ v.conj().T) ** p)
                rhs = np.sum(psd_eigenvalues(v.conj().T @ v) ** p)
                assert abs(lhs - rhs) < 1e-10

    def test_rho2_blocks_in_custom_basis_sum_to_reduction(self):
        rho12 = random_bipartite_state(3, 2, seed=6)
        u = random_unitary(3, seed=7)
        blocks = conditional_blocks(u, rho12)
        tau2 = ptrace_matrix(np.asarray(rho12), 3, 2, keep=2)
        assert blocks.shape == (3, 2, 2)
        assert np.allclose(blocks.sum(axis=0), tau2, atol=1e-12)


class TestSpectrumIdentity:
    def test_on_random_states(self):
        for d, dp, lam, seed in ((2, 2, 0.5, 10), (2, 3, 0.3, 11),
                                 (3, 2, 0.8, 12), (3, 3, 0.0, 13)):
            rho12 = random_bipartite_state(d, dp, seed=seed)
            assert spectrum_identity_check(lam, rho12) < 1e-9

    def test_small_b_matrix_values(self):
        b = small_b_matrix(3, 0.4)
        assert np.allclose(np.diagonal(b), 1.0)
        assert abs(b[0, 1] - 0.4) < 1e-15


class TestLiebThirring:
    def test_equality_for_identity(self):
        check = lieb_thirring_check(np.eye(3), np.eye(3), 2.5)
        assert abs(check.lhs - check.rhs) < 1e-12
        assert check.lhs <= check.rhs + 1e-10

    def test_equality_at_p_one(self):
        rng = np.random.default_rng(20)
        a, b = random_psd(4, rng), random_psd(4, rng)
        check = lieb_thirring_check(a, b, 1.0)
        assert abs(check.lhs - check.rhs) < 1e-9 * max(1.0, check.rhs)

    def test_equality_for_commuting_inputs(self):
        rng = np.random.default_rng(21)
        d = np.diag(rng.random(4))
        e = np.diag(rng.random(4))
        check = lieb_thirring_check(d, e, 3.0)
        assert abs(check.lhs - check.rhs) < 1e-12

    def test_holds_on_random_pairs(self):
        count = 0
        for dim in (2, 3, 4, 6):
            for rng in spawn_rngs(1000 + dim, 40):
                a, b = random_psd(dim, rng), random_psd(dim, rng)
                for p in (1.5, 2.0, 3.0, 5.0):
                    check = lieb_thirring_check(a, b, p)
                    assert check.lhs <= check.rhs + 1e-10
                    count += 1
        assert count == 4 * 40 * 4

    def test_rejects_p_below_one(self):
        with pytest.raises(ValueError, match="p must be >= 1"):
            lieb_thirring_check(np.eye(2), np.eye(2), 0.5)

    @pytest.mark.parametrize("p", [300.0, 700.0])
    @pytest.mark.parametrize("dim", [2, 3])
    def test_holds_at_large_p(self, dim, p):
        # Unscaled, Tr A^p B^p overflows on these pairs. The reference
        # divides each matrix whose top eigenvalue m has m^p outside
        # [1e-100, 1e100] by m, written out.
        pairs = random_psd_matrices(dim, 1200 + dim, (20, 2))
        with np.errstate(over="raise", invalid="raise"):
            chk = lieb_thirring_check(pairs[:, 0], pairs[:, 1], p)
        assert np.all(np.isfinite(chk.slack))
        assert np.all(chk.lhs <= chk.rhs + 1e-10)
        tops = np.linalg.eigvalsh(pairs)[..., -1]
        scaled_rows = p * np.abs(np.log(tops)) > 100.0 * math.log(10.0)
        assert scaled_rows.any()
        scaled = pairs / np.where(scaled_rows, tops, 1.0)[..., None, None]
        ref = lieb_thirring_check(scaled[:, 0], scaled[:, 1], p)
        # The p-th powers of tiny inner eigenvalues keep little relative
        # precision, so both sides are compared on the scale of rhs.
        assert np.all(np.abs(chk.lhs - ref.lhs) <= 1e-12 * ref.rhs)
        assert np.all(np.abs(chk.rhs - ref.rhs) <= 1e-12 * ref.rhs)

    def test_scaling_leaves_ordinary_p_bit_for_bit(self):
        # Reference: the unscaled sides, written out.
        a, b = random_psd_matrices(3, 1210, (2,))
        p = 3.0
        chk = lieb_thirring_check(a, b, p)
        wa, ua = np.linalg.eigh(hermitize(a))
        wb, ub = np.linalg.eigh(hermitize(b))
        a_half = (ua * np.clip(wa, 0.0, None) ** 0.5) @ ua.conj().T
        inner = np.clip(np.linalg.eigvalsh(hermitize(a_half @ b @ a_half)), 0.0, None)
        overlap = np.abs(ua.conj().T @ ub) ** 2
        assert chk.lhs == np.sum(inner ** p)
        assert chk.rhs == np.einsum("i,ij,j->", np.clip(wa, 0.0, None) ** p,
                                    overlap, np.clip(wb, 0.0, None) ** p)

    def test_rhs_is_accurate_when_top_eigenvectors_are_orthogonal(self):
        # A commuting pair whose top eigenvectors are orthogonal: the trace
        # of A^p B^p read 1.0036e-46 here, 10% above the exact value.
        u = random_unitaries(3, 4, 1)[0]
        a = u @ np.diag([0.2, 0.3, 0.5]) @ u.conj().T
        b = u @ np.diag([0.5, 0.4, 0.2]) @ u.conj().T
        chk = lieb_thirring_check(a, b, 50.0)
        exact = 2.0 * 0.1 ** 50 + 0.12 ** 50
        assert abs(chk.rhs - exact) <= 1e-12 * exact
        assert abs(chk.lhs - exact) <= 1e-12 * exact

    def test_rhs_matches_the_trace_of_powers_on_ginibre_pairs(self):
        pairs = random_psd_matrices(3, 1220, (100, 2))
        p = 1.5
        chk = lieb_thirring_check(pairs[:, 0], pairs[:, 1], p)
        trace = np.real(np.trace(matrix_power_psd(pairs[:, 0], p)
                                 @ matrix_power_psd(pairs[:, 1], p),
                                 axis1=-2, axis2=-1))
        assert np.all(np.abs(chk.rhs - trace) <= 1e-13 * trace)

    @pytest.mark.parametrize("dim", [2, 3])
    def test_stack_matches_single_pair_calls(self, dim):
        pairs = random_psd_matrices(dim, 1100 + dim, (8, 2))
        for p in (1.5, 2.0, 3.0):
            chk = lieb_thirring_check(pairs[:, 0], pairs[:, 1], p)
            assert chk.slack.shape == (8,)
            for t, (a, b) in enumerate(pairs):
                one = lieb_thirring_check(a, b, p)
                assert isinstance(one.lhs, float) and isinstance(one.rhs, float)
                assert abs(chk.lhs[t] - one.lhs) < 1e-13 * max(1.0, one.lhs)
                assert abs(chk.rhs[t] - one.rhs) < 1e-13 * max(1.0, one.rhs)

    def test_hand_written_witness_replays_to_plain_floats(self, tmp_path):
        a = np.array([[2.0, 0.5j], [-0.5j, 1.0]])
        b = np.array([[1.0, 0.3], [0.3, 0.5]])
        path = tmp_path / "lt.json"
        path.write_text(json.dumps({
            "check": "lieb-thirring", "inputs": {"dim": 2, "p": 2.5},
            "seed": 1, "matrices": {"a": serialize_matrix(a),
                                    "b": serialize_matrix(b)},
            "scalars": {"tolerance": 1e-10}}))
        record, passed = run_replay(str(path))
        assert passed
        values = dict(record["values"])
        assert type(values.pop("trials")) is int
        assert all(type(x) is float for x in values.values())
        assert type(record["slack"]) is float
        json.dumps(record, allow_nan=False)


class TestBMatrixDiagonal:
    def test_frozen_value(self):
        check = b_matrix_diagonal_check(3, 0.5, 2.0)
        assert abs(check.value_b - B_DIAG_D3_HALF_P2) < 1e-12
        assert check.difference <= 1e-10

    def test_lam_one_gives_d_to_p_minus_one(self):
        for d, p in ((2, 2.0), (3, 1.5), (4, 3.0)):
            check = b_matrix_diagonal_check(d, 1.0, p)
            assert abs(check.value_b - d ** (p - 1.0)) < 1e-10
            assert check.difference <= 1e-10

    def test_lam_zero_gives_one(self):
        for d in (2, 3, 5):
            check = b_matrix_diagonal_check(d, 0.0, 2.0)
            assert abs(check.value_b - 1.0) < 1e-12
            assert check.difference <= 1e-10

    def test_grid(self):
        for d in (2, 3, 4):
            for lam in (-0.2, 0.0, 0.5, 1.0):
                if lam < -1.0 / (d - 1):
                    continue
                for p in (1.5, 2.0, 3.0):
                    assert b_matrix_diagonal_check(d, lam, p).difference <= 1e-10


class TestTensorOutputNormBound:
    def test_maximally_mixed_input(self):
        d, dp = 2, 3
        rho12 = BipartiteState(d, dp, DensityMatrix(np.eye(d * dp) / (d * dp)))
        check = tensor_output_norm_bound(PhaseDampingChannel(d, 1.0), rho12, 2.0)
        assert abs(check.lhs - (d * dp) ** (1.0 / 2.0 - 1.0)) < 1e-12
        assert check.lhs <= check.rhs + 1e-9

    def test_random_states_and_bases(self):
        for d in (2, 3):
            for dp in (2, 3):
                for idx, rng in enumerate(spawn_rngs(50 + 10 * d + dp, 25)):
                    rho12 = random_bipartite_state(d, dp, seed=rng)
                    lam = [0.3, 0.7, 1.0][idx % 3]
                    basis = random_unitary(d, seed=idx) if idx % 2 else None
                    ch = PhaseDampingChannel(d, lam, basis=basis)
                    for p in (1.5, 2.0, 3.0):
                        check = tensor_output_norm_bound(ch, rho12, p)
                        assert check.lhs <= check.rhs + 1e-9, \
                            (d, dp, lam, p, check.slack)

    def test_negative_lam_in_damping_range(self):
        rho12 = random_bipartite_state(2, 2, seed=60)
        check = tensor_output_norm_bound(PhaseDampingChannel(2, -0.5), rho12, 2.0)
        assert check.lhs <= check.rhs + 1e-9


class TestLocalUnitaryInvariance:
    def test_identity_unitary(self):
        dep = DepolarizingChannel(2, 0.5)
        psi = random_channel(2, 2, 2, seed=70)
        tau12 = random_bipartite_state(2, 2, seed=71)
        check = local_unitary_invariance_check(dep, psi, tau12, np.eye(2), 2.0)
        assert check.difference == 0.0

    def test_haar_random_unitaries(self):
        dep = DepolarizingChannel(3, 0.4)
        psi = random_channel(2, 2, 3, seed=72)
        tau12 = random_bipartite_state(3, 2, seed=73)
        for s in range(20):
            u = random_unitary(3, seed=100 + s)
            check = local_unitary_invariance_check(dep, psi, tau12, u, 2.5)
            assert check.difference <= 1e-10, check.difference

    def test_diagonalizing_rotation(self):
        tau12 = random_bipartite_state(3, 2, seed=74)
        rotated, u = diagonalize_first_factor(tau12)
        tau1 = ptrace_matrix(np.asarray(rotated), 3, 2, keep=1)
        off = tau1 - np.diag(np.diagonal(tau1))
        assert np.max(np.abs(off)) < 1e-12
        dep = DepolarizingChannel(3, 0.6)
        psi = random_channel(2, 2, 2, seed=75)
        check = local_unitary_invariance_check(dep, psi, tau12, u, 2.0)
        assert check.difference <= 1e-10


class TestNumericMeasures:
    def test_depolarizing_p_norm_matches_closed_form(self):
        for lam in (0.0, 0.5, 1.0):
            ch = DepolarizingChannel(3, lam)
            for p in (1.5, 2.0, 3.0):
                measure = max_output_p_norm(ch, p, restarts=8, seed=1)
                assert abs(measure.value - ch.nu_p(p)) < 1e-8

    @pytest.mark.parametrize("i_dp,dp,budget", [(0, 2, 42), (1, 3, 32)])
    def test_objective_call_budget_on_the_verify_partners(self, monkeypatch,
                                                          i_dp, dp, budget):
        # nu_1.5 of a default verify's partners, as cmd_verify runs it. The
        # ascent needs 24 and 28 objective calls here. The budgets sit
        # below the 56 and 51 calls it needs when its line searches halve
        # the step down to MIN_STEP near an optimum, with neither the
        # acceptance of a candidate below the value's resolution nor the
        # stop after one is rejected.
        calls = []
        inner = bounds.pnorm_power_objective

        def counted(*args):
            objective = inner(*args)

            def wrapped(psi):
                calls.append(1)
                return objective(psi)
            return wrapped

        monkeypatch.setattr(bounds, "pnorm_power_objective", counted)
        partner = random_channel(dp, dp, 2, seed=child_seed(0, 2, i_dp))
        measure = max_output_p_norm(partner, 1.5, restarts=32,
                                    seed=child_seed(0, 5, i_dp, 0))
        assert measure.ascent.converged
        assert len(calls) <= budget

    @pytest.mark.parametrize("p", [3000.0, 1e4, 1e5])
    @pytest.mark.parametrize("i_dp,dp", [(0, 2), (1, 3)])
    def test_p_norm_at_large_p_on_the_verify_partners(self, i_dp, dp, p):
        # Both partners have a pure output, so nu_p = 1. On Tr A^p the
        # ascent read 0.98886 at p = 3000 and 1e4, marked converged, and
        # 0.0 at 1e5: the gradient p Psi^dag(A^(p-1)) psi of a random
        # start is below GRAD_TOL, or underflows.
        partner = random_channel(dp, dp, 2, seed=child_seed(0, 2, i_dp))
        measure = max_output_p_norm(partner, p, restarts=32,
                                    seed=child_seed(0, 5, i_dp, 0))
        assert abs(measure.value - 1.0) <= 1e-14
        assert measure.ascent.iterations > 1

    def test_p_norm_at_p_one_is_one(self):
        # -S_p tends to -S as p -> 1, and the norm exp((1 - 1/p) S_p) to 1.
        measure = max_output_p_norm(random_channel(3, 3, 2, seed=4), 1.0,
                                    restarts=4, seed=0)
        assert measure.value == 1.0

    def test_depolarizing_entropy_matches_closed_form(self):
        for lam in (0.25, 0.75):
            ch = DepolarizingChannel(2, lam)
            measure = min_output_entropy(ch, restarts=8, seed=2)
            assert abs(measure.value - ch.s_min()) < 1e-8

    def test_identity_channel_measures(self):
        ch = identity_channel(3)
        assert abs(max_output_p_norm(ch, 2.0, restarts=4, seed=3).value - 1.0) < 1e-9
        assert min_output_entropy(ch, restarts=4, seed=4).value < 1e-9

    def test_maximizer_is_witness(self):
        ch = random_channel(3, 3, 2, seed=80)
        measure = max_output_p_norm(ch, 2.0, restarts=32, seed=5)
        out = ch.apply_matrix(np.outer(measure.maximizer, measure.maximizer.conj()))
        from depolcap.core import hermitize, schatten_p_norm
        assert abs(schatten_p_norm(hermitize(out), 2.0) - measure.value) < 1e-10

    def test_entropy_measure_on_random_channel_is_lower_bound(self):
        ch = random_channel(2, 2, 2, seed=81)
        measure = min_output_entropy(ch, restarts=32, seed=6)
        for s in range(50):
            psi = np.asarray(basis_state(2, 0)) if s == 0 else None
            from depolcap.core import random_pure_state
            v = psi if psi is not None else np.asarray(random_pure_state(2, seed=s))
            out = ch.apply_matrix(np.outer(v, v.conj()))
            from depolcap.core import hermitize
            assert von_neumann_entropy(hermitize(out)) >= measure.value - 1e-9


def trials_and_product(dep, measure, trials, seed):
    """``trials`` random states of seed ``seed``, then the product of the
    first basis vector and the maximizer of ``measure``."""
    taus = random_density_matrices(dep.dim * measure.maximizer.size, seed, trials)
    prod = np.kron(np.eye(dep.dim)[0], measure.maximizer)
    return np.concatenate([taus, np.outer(prod, prod.conj())[None]])


class TestMultiplicativity:
    def test_depolarizing_times_random_channel(self):
        dep = DepolarizingChannel(2, 0.5)
        psi = random_channel(2, 2, 2, seed=90)
        measure = max_output_p_norm(psi, 2.0, restarts=16, seed=7)
        check = multiplicativity_check(
            dep, psi, trials_and_product(dep, measure, 50, 8), 2.0,
            dep.nu_p(2.0) * measure.value)
        assert check.lhs[:-1].max() <= check.rhs + 1e-8, check.slack.min()
        assert abs(check.lhs[-1] - check.rhs) <= 1e-6, check.slack[-1]

    def test_depolarizing_times_depolarizing(self):
        dep = DepolarizingChannel(2, 0.7)
        other = DepolarizingChannel(3, 0.4).kraus_channel()
        measure = max_output_p_norm(other, 3.0, restarts=16, seed=8)
        check = multiplicativity_check(
            dep, other, trials_and_product(dep, measure, 50, 9), 3.0,
            dep.nu_p(3.0) * measure.value)
        assert check.lhs[:-1].max() <= check.rhs + 1e-8
        assert abs(check.lhs[-1] - check.rhs) <= 1e-6
        # Closed form for the second factor agrees with the optimizer bound.
        expected = DepolarizingChannel(2, 0.7).nu_p(3.0) \
            * DepolarizingChannel(3, 0.4).nu_p(3.0)
        assert abs(check.rhs - expected) < 1e-8


class TestLocalForms:
    """The per-factor forms against the product Kraus set, and the stacked
    family checks against one call per state."""

    @pytest.mark.parametrize("d", [2, 3, 4])
    @pytest.mark.parametrize("dp", [2, 3])
    def test_product_output_matches_kraus_product(self, d, dp):
        psi = random_channel(dp, dp + 1, 2, seed=d + 5 * dp)
        stack = random_density_matrices(d * dp, d * dp, 3)
        phis = [DepolarizingChannel(d, lam) for lam in (lambda_min(d), 0.3, 1.0)]
        phis += [PhaseDampingChannel(d, lam, basis=random_unitary(d, seed=d))
                 for lam in (damping_lambda_min(d), 0.5)]
        for phi in phis:
            joint = tensor_channel(kraus_form(phi), psi)
            out = tensor_output(phi, psi, stack)
            for t, tau in enumerate(stack):
                ref = hermitize(joint.apply_matrix(tau))
                assert np.max(np.abs(out[t] - ref)) < 1e-13

    def test_norm_bound_stack_matches_single_calls(self):
        for d, dp in ((2, 3), (3, 2)):
            stack = random_density_matrices(d * dp, d + dp, 6)
            ch = PhaseDampingChannel(d, 0.4, basis=random_unitary(d, seed=dp))
            for p in (1.5, 3.0):
                chk = tensor_output_norm_bound(ch, stack, p)
                assert chk.slack.shape == (6,)
                for t, rho in enumerate(stack):
                    one = tensor_output_norm_bound(
                        ch, BipartiteState(d, dp, rho), p)
                    assert abs(chk.lhs[t] - one.lhs) < 1e-13
                    assert abs(chk.rhs[t] - one.rhs) < 1e-13

    @pytest.mark.parametrize("p", [500.0, 700.0])
    def test_norm_bound_holds_where_power_sums_underflow(self, p):
        # With plain power sums, sum_i Tr rho2_i^p underflows at these p and
        # the bound reads false on some of these states.
        for d, dp in ((2, 3), (3, 2), (3, 3)):
            stack = random_density_matrices(d * dp, 60 + d * dp, 20)
            for lam in (0.0, 0.5, 1.0):
                chk = tensor_output_norm_bound(PhaseDampingChannel(d, lam),
                                               stack, p)
                assert np.all(np.isfinite(chk.rhs)) and np.all(chk.rhs > 0.0)
                assert np.all(chk.lhs <= chk.rhs + 1e-9)

    def test_norm_bound_blocks_match_kraus_path(self):
        # The reference damps through the product Kraus set and takes
        # the conditional blocks by lifting each basis vector.
        d, dp, lam, p = 3, 2, 0.6, 2.0
        ch = PhaseDampingChannel(d, lam, basis=random_unitary(d, seed=3))
        rho = np.asarray(random_density_matrix(d * dp, seed=4))
        joint = tensor_channel(damper_kraus_channel(ch), identity_channel(dp))
        lhs = schatten_p_norm(hermitize(joint.apply_matrix(rho)), p)
        power_sum = 0.0
        for i in range(d):
            lift = np.kron(ch.basis[:, i].reshape(d, 1), np.eye(dp))
            power_sum += np.sum(psd_eigenvalues(lift.conj().T @ rho @ lift) ** p)
        rhs = (d ** (1 - 1 / p) * DepolarizingChannel(d, lam).nu_p(p)
               * power_sum ** (1 / p))
        chk = tensor_output_norm_bound(ch, BipartiteState(d, dp, rho), p)
        assert abs(chk.lhs - lhs) < 1e-13
        assert abs(chk.rhs - rhs) < 1e-13

    def test_invariance_stack_matches_single_calls(self):
        dep = DepolarizingChannel(3, 0.4)
        psi = random_channel(2, 3, 2, seed=76)
        stack = random_density_matrices(6, 77, 5)
        us = random_unitaries(3, 78, 5)
        chk = local_unitary_invariance_check(dep, psi, stack, us, 2.5)
        assert chk.difference.shape == (5,)
        for t in range(5):
            one = local_unitary_invariance_check(
                dep, psi, BipartiteState(3, 2, stack[t]), us[t], 2.5)
            assert abs(chk.value_a[t] - one.value_a) < 1e-13
            assert abs(chk.value_b[t] - one.value_b) < 1e-13

    def test_multiplicativity_matches_trial_loop(self):
        # Reference: the per-trial loop through the product Kraus set.
        dep = DepolarizingChannel(2, 0.5)
        psi = random_channel(3, 3, 2, seed=91)
        measure = max_output_p_norm(psi, 2.0, restarts=8, seed=9)
        stack = trials_and_product(dep, measure, 12, 10)
        chk = multiplicativity_check(dep, psi, stack, 2.0, 0.5)
        assert chk.lhs.shape == (13,) and chk.rhs == 0.5
        # The trials are single draws in turn from one generator.
        rng = np.random.default_rng(10)
        inputs = [np.asarray(random_density_matrix(6, seed=rng))
                  for _ in range(12)]
        assert np.max(np.abs(stack[:-1] - inputs)) < 1e-15
        joint = tensor_channel(dep.kraus_channel(), psi)
        for t, tau in enumerate(stack):
            norm = schatten_p_norm(hermitize(joint.apply_matrix(tau)), 2.0)
            assert abs(chk.lhs[t] - norm) < 1e-13
