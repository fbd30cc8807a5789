import math
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from depolcap import core
from depolcap.core import (
    BipartiteState,
    Channel,
    DensityMatrix,
    InvalidChannelError,
    InvalidStateError,
    LambdaChannel,
    LinearMap,
    ProductMap,
    PureState,
    apply_on_factor,
    check_states,
    choi_from_superoperator,
    choi_matrix,
    hermitize,
    kraus_superoperator,
    min_choi_eigenvalue,
    nats_to_bits,
    psd_eigenvalues,
    ptrace_matrix,
    random_channel,
    random_density_matrices,
    random_density_matrix,
    random_psd_matrices,
    random_pure_state,
    random_unitaries,
    random_unitary,
    relative_entropy,
    schatten_p_norm,
    superoperator_from_action,
    tensor_channel,
    von_neumann_entropy,
    xlogx_sum,
)
from depolcap.decomposition import OmegaChannel
from depolcap.depolarizing import DepolarizingChannel, lambda_min
from depolcap.phase_damping import PhaseDampingChannel, damping_lambda_min
from reference import basis_state, kraus_form, maximally_mixed

LN2 = math.log(2.0)

# Frozen reference values for the diag(3/4, 1/4) state.
ENTROPY_75_25 = 0.5623351446188083
PNORM2_75_25 = 0.7905694150420949
RELENT_75_25_VS_MIXED = 0.13081203594113697


def diag_state(*probs):
    return DensityMatrix(np.diag(np.asarray(probs, dtype=complex)))


def identity_channel(dim):
    return Channel([np.eye(dim)])


def partial_trace(rho12, keep):
    """Reduced density matrix of a bipartite state on the kept factor."""
    red = ptrace_matrix(np.asarray(rho12), rho12.dim1, rho12.dim2, keep)
    return DensityMatrix(hermitize(red))


def p_norm_derivative_at_1(a, h=1e-4):
    """Central finite difference of p -> ||A||_p at p = 1, taken on the
    spectrum, since the public norm refuses p < 1."""
    w = psd_eigenvalues(a)
    return (core._p_norm_from_eigenvalues(w, 1.0 + h)
            - core._p_norm_from_eigenvalues(w, 1.0 - h)) / (2.0 * h)


class TestDensityMatrix:
    def test_valid(self):
        rho = diag_state(0.75, 0.25)
        assert rho.dim == 2
        assert np.allclose(np.asarray(rho), np.diag([0.75, 0.25]))

    def test_rejects_non_hermitian(self):
        with pytest.raises(InvalidStateError, match="Hermitian"):
            DensityMatrix([[0.5, 1e-6], [0.0, 0.5]])

    def test_rejects_bad_trace(self):
        with pytest.raises(InvalidStateError, match="trace"):
            DensityMatrix(np.eye(2))

    def test_rejects_negative_eigenvalue(self):
        with pytest.raises(InvalidStateError, match="PSD"):
            DensityMatrix(np.diag([1.5, -0.5]))

    def test_accepts_rounding_level_negativity(self):
        rho = DensityMatrix(np.diag([1.0 + 1e-12, -1e-12]))
        assert rho.eigenvalues()[0] == 0.0

    def test_buffer_is_frozen(self):
        rho = diag_state(0.5, 0.5)
        with pytest.raises(ValueError):
            rho.matrix[0, 0] = 2.0

    def test_rejects_non_square(self):
        with pytest.raises(InvalidStateError, match="square"):
            DensityMatrix(np.ones((2, 3)))

    # Every comparison with NaN is false, so each of these once passed all
    # three tests; the non-finite check comes first, before any arithmetic
    # on the entries could warn.
    @pytest.mark.parametrize("matrix", [
        np.full((2, 2), np.nan),
        [[np.inf, 0.0], [0.0, -np.inf]],
        [[0.5, np.nan], [np.nan, 0.5]],
        [[0.5, 1j * np.inf], [-1j * np.inf, 0.5]],
    ], ids=["all-nan", "inf-diagonal", "nan-coherence", "inf-coherence"])
    def test_rejects_non_finite_entries(self, matrix):
        with pytest.raises(InvalidStateError, match="non-finite"):
            DensityMatrix(matrix)


class TestPureState:
    def test_valid_and_projector(self):
        psi = PureState([1 / math.sqrt(2), 1j / math.sqrt(2)])
        rho = psi.projector()
        assert rho.dim == 2
        assert von_neumann_entropy(rho) < 1e-12

    def test_rejects_unnormalized(self):
        with pytest.raises(InvalidStateError, match="norm"):
            PureState([1.0, 1.0])

    def test_buffer_is_frozen(self):
        psi = basis_state(3, 0)
        with pytest.raises(ValueError):
            psi.amplitudes[1] = 1.0


class TestChannel:
    def test_identity(self):
        ch = identity_channel(3)
        rho = random_density_matrix(3, seed=0)
        out = ch(rho)
        assert np.allclose(np.asarray(out), np.asarray(rho))

    def test_rejects_non_trace_preserving(self):
        with pytest.raises(InvalidChannelError, match="trace preserving"):
            Channel([np.eye(2) * 0.5])

    def test_rejects_mixed_shapes(self):
        with pytest.raises(InvalidChannelError, match="shape"):
            Channel([np.eye(2), np.eye(3)])

    def test_output_is_valid_state(self):
        ch = random_channel(3, 3, 4, seed=7)
        rho = random_density_matrix(3, seed=8)
        out = ch(rho)
        assert isinstance(out, DensityMatrix)
        assert abs(np.trace(np.asarray(out)) - 1.0) < 1e-12

    def test_dimension_mismatch(self):
        ch = identity_channel(2)
        with pytest.raises(InvalidChannelError, match="dim"):
            ch(random_density_matrix(3, seed=1))

    def test_superoperator_matches_action(self):
        ch = random_channel(3, 3, 2, seed=11)
        rho = np.asarray(random_density_matrix(3, seed=12))
        via_super = (ch.superoperator() @ rho.reshape(-1)).reshape(3, 3)
        assert np.allclose(via_super, ch.apply_matrix(rho), atol=1e-13)

    # The action goes through the superoperator; the reference is the Kraus
    # sum, on a single matrix, a stack, and a stack whose matrix axes were
    # moved (not contiguous), for a channel that keeps its dimension and
    # one that maps C^3 to C^2.
    @pytest.mark.parametrize("dim_out", [3, 2])
    @pytest.mark.parametrize("layout", ["single", "stack", "moved-axis"])
    def test_action_and_adjoint_match_kraus_sums(self, dim_out, layout):
        ch = random_channel(3, dim_out, 3, seed=16)
        rng = np.random.default_rng(17)

        def matrices(dim):
            shape = {"single": (dim, dim), "stack": (4, dim, dim),
                     "moved-axis": (dim, 4, dim)}[layout]
            m = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
            return np.moveaxis(m, 0, 1) if layout == "moved-axis" else m

        m_in, m_out = matrices(3), matrices(dim_out)
        assert m_in.flags.c_contiguous == (layout != "moved-axis")
        ref = sum(k @ m_in @ k.conj().T for k in ch.kraus_ops)
        adj_ref = sum(k.conj().T @ m_out @ k for k in ch.kraus_ops)
        out, adj = ch.apply_matrix(m_in), ch.adjoint_apply_matrix(m_out)
        assert out.shape == ref.shape and adj.shape == adj_ref.shape
        assert np.max(np.abs(out - ref)) < 1e-13
        assert np.max(np.abs(adj - adj_ref)) < 1e-13

    def test_adjoint_is_unital_map_adjoint(self):
        ch = random_channel(3, 3, 3, seed=13)
        a = np.asarray(random_density_matrix(3, seed=14))
        b = np.asarray(random_density_matrix(3, seed=15))
        lhs = np.trace(a.conj().T @ ch.apply_matrix(b))
        rhs = np.trace(ch.adjoint_apply_matrix(a).conj().T @ b)
        assert abs(lhs - rhs) < 1e-12


class TestEntropy:
    def test_pure_state_zero(self):
        assert von_neumann_entropy(basis_state(4, 2).projector()) == 0.0

    def test_maximally_mixed(self):
        for d in (2, 3, 5):
            assert abs(von_neumann_entropy(maximally_mixed(d)) - math.log(d)) < 1e-14

    def test_frozen_value(self):
        assert abs(von_neumann_entropy(diag_state(0.75, 0.25)) - ENTROPY_75_25) < 1e-15

    @settings(deadline=None, max_examples=25)
    @given(st.integers(0, 10**6))
    def test_unitary_invariance(self, seed):
        rho = np.asarray(random_density_matrix(4, seed=seed))
        u = random_unitary(4, seed=seed + 1)
        rotated = u @ rho @ u.conj().T
        assert abs(von_neumann_entropy(rotated) - von_neumann_entropy(rho)) < 1e-10

    def test_xlogx_sum_takes_zero_log_zero_as_zero(self):
        assert xlogx_sum(np.zeros(4)) == 0.0
        assert xlogx_sum(np.array([0.0, 1.0, 0.0])) == 0.0
        assert xlogx_sum(np.array([0.25, 0.0, 0.75])) == xlogx_sum(
            np.array([0.25, 0.75]))

    def test_xlogx_sum_of_a_stack_sums_each_row(self):
        w = np.array([[0.5, 0.5, 0.0], [1.0, 0.0, 0.0], [0.2, 0.3, 0.5]])
        sums = xlogx_sum(w)
        assert sums.shape == (3,)
        for row, total in zip(w, sums):
            assert total == xlogx_sum(row)

    def test_xlogx_sum_matches_the_positive_entries(self):
        rng = np.random.default_rng(29)
        for n in (2, 5, 9, 36):
            w = rng.random(n) * (rng.random(n) < 0.7)
            w /= w.sum()
            nz = w[w > 0.0]
            assert abs(-xlogx_sum(w) - -np.sum(nz * np.log(nz))) <= 1e-15

    def test_nats_to_bits(self):
        assert abs(nats_to_bits(LN2) - 1.0) < 1e-15


class TestSchattenNorm:
    def test_trace_norm_of_state_is_one(self):
        assert abs(schatten_p_norm(random_density_matrix(5, seed=3), 1.0) - 1.0) < 1e-12

    def test_frozen_value(self):
        assert abs(schatten_p_norm(diag_state(0.75, 0.25), 2.0) - PNORM2_75_25) < 1e-15

    def test_rejects_p_below_one(self):
        with pytest.raises(ValueError, match="p must be >= 1"):
            schatten_p_norm(maximally_mixed(2), 0.5)

    def test_monotone_nonincreasing_in_p(self):
        rho = random_density_matrix(4, seed=9)
        values = [schatten_p_norm(rho, p) for p in (1.0, 1.5, 2.0, 3.0, 10.0)]
        assert all(a >= b - 1e-12 for a, b in zip(values, values[1:]))

    def test_large_p_is_max_scaled(self):
        # sum w^p underflows to zero here: 0.3^700 ~ 1e-366. The reference
        # is m (sum (w/m)^p)^(1/p) with m the top eigenvalue, written out.
        w = np.array([0.3, 0.25, 0.25, 0.2])
        rho = np.diag(w).astype(complex)
        ref = 0.3 * np.sum((w / 0.3) ** 700.0) ** (1.0 / 700.0)
        assert np.sum(w ** 700.0) == 0.0
        assert schatten_p_norm(rho, 700.0) == pytest.approx(ref, rel=1e-14)
        stack = np.stack([rho, np.asarray(random_density_matrix(4, seed=2))])
        assert schatten_p_norm(stack, 700.0)[0] == pytest.approx(ref, rel=1e-14)

    @pytest.mark.parametrize("p", [1.0, 1.5, 2.0, 3.0, 10.0])
    def test_plain_power_sum_where_it_is_exact(self, p):
        # Reference: the unscaled (sum w^p)^(1/p).
        stack = random_density_matrices(4, 30, 5)
        plain = np.sum(psd_eigenvalues(stack) ** p, axis=-1) ** (1.0 / p)
        assert np.array_equal(schatten_p_norm(stack, p), plain)

    def test_derivative_at_one_gives_negative_entropy(self):
        rho = random_density_matrix(4, seed=21)
        assert abs(p_norm_derivative_at_1(np.asarray(rho))
                   + von_neumann_entropy(rho)) < 1e-6


class TestRelativeEntropy:
    def test_frozen_value(self):
        val = relative_entropy(diag_state(0.75, 0.25), maximally_mixed(2))
        assert abs(val - RELENT_75_25_VS_MIXED) < 1e-15

    def test_zero_on_identical_states(self):
        rho = random_density_matrix(3, seed=5)
        assert relative_entropy(rho, rho) == 0.0

    def test_infinite_on_support_violation(self):
        rho = basis_state(2, 0).projector()
        omega = basis_state(2, 1).projector()
        assert relative_entropy(rho, omega) == math.inf

    def test_mixed_vs_pure_reference_infinite(self):
        assert relative_entropy(maximally_mixed(2), basis_state(2, 0).projector()) == math.inf

    @settings(deadline=None, max_examples=25)
    @given(st.integers(0, 10**6))
    def test_nonnegative(self, seed):
        rho = random_density_matrix(3, seed=seed)
        omega = random_density_matrix(3, seed=seed + 1)
        assert relative_entropy(rho, omega) >= 0.0

    def test_vs_mixed_reference_identity(self):
        # S(rho, I/d) = ln d - S(rho)
        rho = random_density_matrix(4, seed=30)
        lhs = relative_entropy(rho, maximally_mixed(4))
        rhs = math.log(4) - von_neumann_entropy(rho)
        assert abs(lhs - rhs) < 1e-12


class TestPartialTrace:
    def test_product_state_factors(self):
        a = np.asarray(random_density_matrix(2, seed=41))
        b = np.asarray(random_density_matrix(3, seed=42))
        rho12 = BipartiteState(2, 3, DensityMatrix(np.kron(a, b)))
        assert np.allclose(np.asarray(partial_trace(rho12, 1)), a, atol=1e-13)
        assert np.allclose(np.asarray(partial_trace(rho12, 2)), b, atol=1e-13)

    def test_maximally_entangled_reduces_to_mixed(self):
        d = 3
        v = np.zeros(d * d, dtype=complex)
        for i in range(d):
            v[i * d + i] = 1.0 / math.sqrt(d)
        rho12 = BipartiteState(d, d, PureState(v).projector())
        for keep in (1, 2):
            assert np.allclose(np.asarray(partial_trace(rho12, keep)),
                               np.eye(d) / d, atol=1e-14)

    def test_ptrace_matrix_general_blocks(self):
        m = np.arange(36, dtype=complex).reshape(6, 6)
        left = ptrace_matrix(m, 2, 3, keep=1)
        manual = np.array([[np.trace(m[:3, :3]), np.trace(m[:3, 3:])],
                           [np.trace(m[3:, :3]), np.trace(m[3:, 3:])]])
        assert np.allclose(left, manual)

    def test_keep_argument_validation(self):
        with pytest.raises(ValueError, match="keep"):
            ptrace_matrix(np.eye(4), 2, 2, keep=3)

    def test_dimension_mismatch_rejected(self):
        with pytest.raises(InvalidStateError, match="factor dims"):
            BipartiteState(2, 2, random_density_matrix(6, seed=1))


class TestTensorChannel:
    def test_acts_factorwise_on_product_states(self):
        phi = random_channel(2, 2, 2, seed=50)
        psi = random_channel(3, 3, 2, seed=51)
        a = np.asarray(random_density_matrix(2, seed=52))
        b = np.asarray(random_density_matrix(3, seed=53))
        joint = tensor_channel(phi, psi).apply_matrix(np.kron(a, b))
        expected = np.kron(phi.apply_matrix(a), psi.apply_matrix(b))
        assert np.allclose(joint, expected, atol=1e-13)

    def test_kraus_count_multiplies(self):
        phi = random_channel(2, 2, 3, seed=54)
        psi = random_channel(2, 2, 4, seed=55)
        assert len(tensor_channel(phi, psi).kraus_ops) == 12


def _factor_cases():
    """(d, d', first-factor channel) over the depolarizing channel at
    lambda_min(d), 0.3 and 1, and a Haar-basis damper at -1/(d-1) and 0.5."""
    for d in (2, 3, 4):
        for dp in (2, 3):
            for lam in (lambda_min(d), 0.3, 1.0):
                yield d, dp, DepolarizingChannel(d, lam)
            for lam in (damping_lambda_min(d), 0.5):
                yield d, dp, PhaseDampingChannel(
                    d, lam, basis=random_unitary(d, seed=10 * d + dp))


class TestApplyOnFactor:
    @pytest.mark.parametrize("d,dp,phi", list(_factor_cases()))
    def test_matches_kraus_product(self, d, dp, phi):
        # Reference: the product Kraus set, one matrix at a time.
        psi = random_channel(dp, dp + 1, 2, seed=d * dp)
        stack = random_density_matrices(d * dp, d + dp, 4)
        first = tensor_channel(kraus_form(phi), identity_channel(dp))
        second = tensor_channel(identity_channel(d), psi)
        on_first = apply_on_factor(phi.apply_matrix, stack, d, dp, 1)
        on_second = apply_on_factor(psi.apply_matrix, stack, d, dp, 2)
        assert on_second.shape == (4, d * (dp + 1), d * (dp + 1))
        for t, tau in enumerate(stack):
            assert np.max(np.abs(on_first[t] - first.apply_matrix(tau))) < 1e-13
            assert np.max(np.abs(on_second[t] - second.apply_matrix(tau))) < 1e-13
        single = apply_on_factor(phi.apply_matrix, stack[0], d, dp, 1)
        assert np.max(np.abs(single - on_first[0])) < 1e-15

    def test_factor_argument_validation(self):
        with pytest.raises(ValueError, match="factor"):
            apply_on_factor(identity_channel(2).apply_matrix, np.eye(4), 2, 2, 3)


class TestStacks:
    def test_sampler_matches_single_draws(self):
        # Reference: single draws in turn from one generator of the seed.
        for dim in (2, 6):
            stack = random_density_matrices(dim, 5, 7)
            rng = np.random.default_rng(5)
            for rho in stack:
                single = np.asarray(random_density_matrix(dim, rng))
                assert np.max(np.abs(rho - single)) < 1e-15

    @pytest.mark.parametrize("dim", [2, 3, 6])
    def test_sampler_stacks_are_states(self, dim):
        check_states(random_density_matrices(dim, 40 + dim, 50))

    def test_sampler_prefix_does_not_depend_on_length(self):
        for dim in (2, 4):
            short = random_density_matrices(dim, 41, 6)
            long = random_density_matrices(dim, 41, 12)
            assert np.array_equal(short, long[:6])
            u_short = random_unitaries(dim, 42, 6)
            assert np.array_equal(u_short, random_unitaries(dim, 42, 12)[:6])

    def test_sampler_row_zero_is_the_single_draw(self):
        for dim in (2, 3, 6):
            stack = random_density_matrices(dim, 43, 4)
            single = np.asarray(random_density_matrix(dim, 43))
            assert np.max(np.abs(stack[0] - single)) < 1e-15

    @pytest.mark.parametrize("dim", [2, 3, 6])
    def test_stacked_unitaries_are_unitary(self, dim):
        us = random_unitaries(dim, 44, 30)
        assert us.shape == (30, dim, dim)
        defect = us @ np.swapaxes(us.conj(), -1, -2) - np.eye(dim)
        assert np.max(np.linalg.norm(defect, axis=(-2, -1))) < 1e-14
        assert np.max(np.abs(us[0] - random_unitary(dim, 44))) < 1e-15

    def test_psd_pairs_take_one_draw_per_pair(self):
        # Reference: per pair, the Ginibre matrices of a then b, drawn in
        # turn from one generator.
        pairs = random_psd_matrices(3, 45, (4, 2))
        rng = np.random.default_rng(45)
        for pair in pairs:
            for m in pair:
                g = (rng.standard_normal((3, 3))
                     + 1j * rng.standard_normal((3, 3))) / math.sqrt(2.0)
                assert np.max(np.abs(m - g @ g.conj().T)) < 1e-13

    def test_stack_validation_flags_one_bad_matrix(self):
        stack = random_density_matrices(3, 6, 4)
        check_states(stack)
        bad = stack.copy()
        bad[2] = np.diag([1.2, 0.0, -0.2])
        with pytest.raises(InvalidStateError, match="PSD"):
            check_states(bad)
        bad[2] = 2.0 * stack[2]
        with pytest.raises(InvalidStateError, match="trace"):
            check_states(bad)
        bad[2] = stack[2]
        bad[2, 0, 1] = bad[2, 1, 0] = np.nan
        with pytest.raises(InvalidStateError, match="non-finite"):
            check_states(bad)

    # A Cholesky factorization of m + TAU_PSD I accepts the stack; where it
    # fails, the minimum eigenvalue decides, so -TAU_PSD itself passes. The
    # spectrum of a diagonal matrix is computed exactly.
    @pytest.mark.parametrize("min_eig, accepted", [
        (-2e-10, False), (-1e-10, True), (-5e-11, True)])
    def test_stack_validation_at_the_psd_tolerance(self, min_eig, accepted):
        stack = random_density_matrices(3, 8, 4)
        stack[1] = np.diag([0.5 - min_eig, 0.5, min_eig])
        if accepted:
            check_states(stack)
        else:
            message = "matrix is not PSD: min eigenvalue -2.000e-10 < -1e-10"
            with pytest.raises(InvalidStateError, match=re.escape(message)):
                check_states(stack)

    def test_norm_and_relative_entropy_take_stacks(self):
        stack = random_density_matrices(4, 7, 5)
        omega = np.asarray(random_density_matrix(4, seed=8))
        norms = schatten_p_norm(stack, 2.5)
        relents = relative_entropy(stack, omega)
        assert norms.shape == relents.shape == (5,)
        for t, rho in enumerate(stack):
            assert abs(norms[t] - schatten_p_norm(rho, 2.5)) < 1e-15
            assert abs(relents[t] - relative_entropy(rho, omega)) < 1e-14

    def test_relative_entropy_stack_marks_support_violation(self):
        omega = np.diag([0.5, 0.5, 0.0]).astype(complex)
        inside = np.diag([0.3, 0.7, 0.0]).astype(complex)
        outside = np.diag([0.3, 0.3, 0.4]).astype(complex)
        values = relative_entropy(np.stack([inside, outside]), omega)
        assert values[0] == pytest.approx(relative_entropy(inside, omega),
                                          abs=1e-15)
        assert values[1] == math.inf


class TestSuperoperatorsAndChoi:
    def test_action_superoperator_matches_kraus(self):
        ch = random_channel(3, 3, 2, seed=60)
        s = superoperator_from_action(ch.apply_matrix, 3)
        assert np.allclose(s, kraus_superoperator(ch.kraus_ops), atol=1e-13)

    def test_choi_of_channel_is_psd_unit_trace(self):
        ch = random_channel(3, 3, 3, seed=61)
        j = ch.choi()
        assert np.linalg.eigvalsh(j)[0] > -1e-12
        assert abs(np.trace(j) - 1.0) < 1e-12

    def test_reshuffle_matches_action_built_choi(self):
        # Includes a map that changes dimension, 2 -> 3.
        for ch in (random_channel(2, 3, 2, seed=62), random_channel(3, 3, 2, seed=63)):
            assert np.array_equal(choi_from_superoperator(ch.superoperator(), ch.dim_in),
                                  choi_matrix(ch.apply_matrix, ch.dim_in))

    def test_product_map_choi(self):
        phi, psi = random_channel(2, 3, 2, seed=64), random_channel(2, 2, 3, seed=65)
        ref = tensor_channel(phi, psi).choi()
        assert np.max(np.abs(ProductMap(phi, psi).choi() - ref)) < 1e-15

    def test_transpose_map_is_not_cp(self):
        assert min_choi_eigenvalue(lambda m: m.T, 2) < -0.1

    def test_identity_choi_is_maximally_entangled(self):
        d = 2
        j = choi_matrix(lambda m: m, d)
        v = np.zeros(d * d, dtype=complex)
        v[0], v[3] = 1 / math.sqrt(2), 1 / math.sqrt(2)
        assert np.allclose(j, np.outer(v, v.conj()), atol=1e-14)


# One channel of every class: a Kraus channel that changes dimension, then
# each one-parameter family, the damper in its own and in a Haar basis.
PROTOCOL_CASES = {
    "kraus": random_channel(2, 3, 2, seed=70),
    "depolarizing": DepolarizingChannel(3, -0.1),
    "damper": PhaseDampingChannel(3, 0.4),
    "damper-haar": PhaseDampingChannel(3, -0.3, basis=random_unitary(3, seed=71)),
    "omega": OmegaChannel(3, 0.6),
}


def reference_action(ch):
    """An action that does not go through ch's superoperator: the Kraus sum
    of a Kraus channel, or of the Kraus form of Delta or a damper
    (each case lies inside its CP range), and for Omega its definition
    Delta_lam(rho) + ((1 - lam)/d)(rho - diag rho), written out."""
    if isinstance(ch, OmegaChannel):
        c, eye = (1.0 - ch.lam) / ch.dim, np.eye(ch.dim)
        return lambda m: ch.lam * m + c * (np.trace(m) * eye + m - m * eye)
    ops = kraus_form(ch).kraus_ops
    return lambda m: sum(k @ m @ k.conj().T for k in ops)


# (family, extra keyword arguments) of every one-parameter family.
LAMBDA_FAMILIES = {
    "depolarizing": (DepolarizingChannel, lambda d: {}),
    "damper": (PhaseDampingChannel, lambda d: {}),
    "damper-haar": (PhaseDampingChannel,
                    lambda d: {"basis": random_unitary(d, seed=d)}),
    "omega": (OmegaChannel, lambda d: {}),
}


class TestChannelProtocol:
    @pytest.mark.parametrize("name", sorted(PROTOCOL_CASES))
    def test_action_choi_and_superoperator(self, name):
        ch = PROTOCOL_CASES[name]
        rho = random_density_matrix(ch.dim_in, seed=72)
        out = ch(rho)
        assert isinstance(out, DensityMatrix)
        assert np.array_equal(np.asarray(out),
                              hermitize(ch.apply_matrix(np.asarray(rho))))
        with pytest.raises(InvalidChannelError, match="dim"):
            ch(random_density_matrix(ch.dim_in + 1, seed=73))
        stack = random_density_matrices(ch.dim_in, 74, 3)
        for t, out_t in enumerate(ch.apply_matrix(stack)):
            assert np.max(np.abs(out_t - ch.apply_matrix(stack[t]))) < 1e-15
        assert np.array_equal(ch.choi(), choi_matrix(ch.apply_matrix, ch.dim_in))
        s = ch.superoperator()
        assert s.shape == (ch.dim_out ** 2, ch.dim_in ** 2)
        ref = superoperator_from_action(reference_action(ch), ch.dim_in)
        assert np.max(np.abs(s - ref)) < 1e-13

    def test_superoperator_built_once_per_instance(self, monkeypatch):
        # The first action builds and keeps the matrix; the adjoint, the
        # action on a state and the Choi matrix reuse it. Each instance,
        # checked or not, keeps its own.
        builds = []
        inner = DepolarizingChannel.superoperator

        def counted(ch):
            builds.append(ch)
            return inner(ch)

        monkeypatch.setattr(DepolarizingChannel, "superoperator", counted)
        a, b = DepolarizingChannel(3, 0.5), DepolarizingChannel.unchecked(3, -0.5)
        rho = random_density_matrix(3, seed=75)
        m = np.asarray(rho)
        for ch in (a, b):
            ch.apply_matrix(m)
            ch.adjoint_apply_matrix(m)
            ch.choi()
        a(rho)
        assert builds == [a, b]
        for ch in (a, b):
            expected = ch.lam * m + (1.0 - ch.lam) * np.eye(3) / 3
            assert np.max(np.abs(ch.apply_matrix(m) - expected)) < 1e-15
        assert len(builds) == 2

    @pytest.mark.parametrize("name", sorted(LAMBDA_FAMILIES))
    def test_cp_range_gate(self, name):
        family, extra = LAMBDA_FAMILIES[name]
        for d in (2, 3, 4):
            lo = family.lam_min(d)
            for lam in (lo, 0.5, 1.0):
                ch = family(d, lam, **extra(d))
                assert isinstance(ch, LambdaChannel)
                assert ch.is_cp and family.in_cp_range(d, lam)
                assert (ch.dim_in, ch.dim_out) == (d, d)
            for lam in (np.nextafter(lo, -np.inf), np.nextafter(1.0, np.inf),
                        lo - 0.5):
                with pytest.raises(InvalidChannelError, match="CP range"):
                    family(d, lam, **extra(d))
                ch = family.unchecked(d, lam, **extra(d))
                assert ch.lam == lam
                assert not ch.is_cp and not family.in_cp_range(d, lam)
                out = ch.apply_matrix(np.asarray(random_density_matrix(d, seed=d)))
                assert abs(np.trace(out) - 1.0) < 1e-12
        for build in (family, family.unchecked):
            with pytest.raises(InvalidChannelError, match="dim"):
                build(1, 0.5)


class TestRandomGeneration:
    def test_density_matrix_deterministic(self):
        a = np.asarray(random_density_matrix(4, seed=123))
        b = np.asarray(random_density_matrix(4, seed=123))
        assert np.array_equal(a, b)

    def test_different_seeds_differ(self):
        a = np.asarray(random_density_matrix(4, seed=123))
        b = np.asarray(random_density_matrix(4, seed=124))
        assert not np.allclose(a, b)

    def test_rank_control(self):
        rho = random_density_matrix(4, seed=5, rank=2)
        assert np.sum(rho.eigenvalues() > 1e-12) == 2

    def test_unitary_is_unitary(self):
        u = random_unitary(5, seed=6)
        assert np.allclose(u @ u.conj().T, np.eye(5), atol=1e-12)

    def test_channel_deterministic_and_tp(self):
        ch1 = random_channel(3, 3, 4, seed=77)
        ch2 = random_channel(3, 3, 4, seed=77)
        for k1, k2 in zip(ch1.kraus_ops, ch2.kraus_ops):
            assert np.array_equal(k1, k2)
        tp = sum(k.conj().T @ k for k in ch1.kraus_ops)
        assert np.allclose(tp, np.eye(3), atol=1e-12)

    def test_pure_state_normalized(self):
        psi = random_pure_state(6, seed=8)
        assert abs(np.linalg.norm(np.asarray(psi)) - 1.0) < 1e-13


def _complex_stack(dim, seed, n):
    """n complex Gaussian matrices, neither Hermitian nor of unit trace."""
    rng = np.random.default_rng(seed)
    return rng.standard_normal((n, dim, dim)) + 1j * rng.standard_normal((n, dim, dim))


# (factor one, factor two): Delta with a Kraus partner, Delta at its CP edge
# with a partner from C^3 to C^2, a damper in a Haar basis, and a Kraus
# channel from C^2 to C^3 before Delta.
PRODUCT_CASES = {
    "depolarizing": (DepolarizingChannel(3, 0.4), random_channel(2, 2, 3, seed=80)),
    "depolarizing-resizing": (DepolarizingChannel(2, lambda_min(2)),
                              random_channel(3, 2, 2, seed=81)),
    "damper-haar": (PhaseDampingChannel(3, -0.3, basis=random_unitary(3, seed=82)),
                    random_channel(2, 3, 2, seed=83)),
    "kraus-first": (random_channel(2, 3, 2, seed=84), DepolarizingChannel(2, 0.3)),
}


class TestProductMap:
    # Reference: the product Kraus set, acting through its superoperator.
    @staticmethod
    def assert_acts_like(prod, ref):
        assert (prod.dim_in, prod.dim_out) == (ref.dim_in, ref.dim_out)
        for action, reference, dim in (
                (prod.apply_matrix, ref.apply_matrix, ref.dim_in),
                (prod.adjoint_apply_matrix, ref.adjoint_apply_matrix, ref.dim_out)):
            stack = _complex_stack(dim, dim, 3)
            expected = reference(stack)
            assert action(stack).shape == expected.shape
            assert np.max(np.abs(action(stack) - expected)) < 1e-13
            assert np.max(np.abs(action(stack[0]) - expected[0])) < 1e-13

    @pytest.mark.parametrize("name", sorted(PRODUCT_CASES))
    def test_matches_product_kraus_set(self, name):
        phi, psi = PRODUCT_CASES[name]
        self.assert_acts_like(ProductMap(phi, psi),
                              tensor_channel(kraus_form(phi), kraus_form(psi)))

    def test_nested_product_matches_triple_kraus_product(self):
        dep = DepolarizingChannel(2, 0.3)
        kraus = dep.kraus_channel()
        self.assert_acts_like(ProductMap(dep, ProductMap(dep, dep)),
                              tensor_channel(kraus, tensor_channel(kraus, kraus)))

    @pytest.mark.parametrize("name", sorted(LAMBDA_FAMILIES))
    def test_families_are_self_adjoint(self, name):
        # Reference: LinearMap's adjoint, through the superoperator.
        family, extra = LAMBDA_FAMILIES[name]
        for d in (2, 3, 4):
            lo = family.lam_min(d)
            for lam, build in ((lo, family), (0.5, family), (1.0, family),
                               (lo - 0.5, family.unchecked),
                               (1.5, family.unchecked)):
                ch = build(d, lam, **extra(d))
                stack = _complex_stack(d, d, 3)
                ref = LinearMap.adjoint_apply_matrix(ch, stack)
                assert np.max(np.abs(ch.adjoint_apply_matrix(stack) - ref)) < 1e-13
