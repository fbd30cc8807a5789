import math

import numpy as np
import pytest

from depolcap.core import (
    InvalidChannelError,
    choi_matrix,
    frobenius_distance,
    maximally_mixed,
    min_choi_eigenvalue,
    random_density_matrix,
    superoperator_from_action,
)
from depolcap.decomposition import (
    ConvexDecomposition,
    DecompositionTerm,
    OmegaChannel,
    averaged_projector_identity_error,
    build_g,
    build_h,
    conjugation_superoperator,
    dephasing_average,
    diophantine_solutions,
    full_decomposition,
    mixing_weights,
    omega_split_check,
    phase_average_check,
    psi_basis,
    psi_bases,
    psi_state,
    theta_state,
)
from depolcap.depolarizing import DepolarizingChannel
from depolcap.phase_damping import PhaseDampingChannel, is_uniform_vector

SIGMA_X = np.array([[0, 1], [1, 0]], dtype=complex)
SIGMA_Y = np.array([[0, -1j], [1j, 0]], dtype=complex)
SIGMA_Z = np.array([[1, 0], [0, -1]], dtype=complex)
TAU = np.array([[0, np.exp(1j * math.pi / 4)],
                [np.exp(-1j * math.pi / 4), 0]], dtype=complex)

LAMBDA_GRID = [-0.1, 0.0, 0.3, 0.7, 1.0]
CONVEX_GRID = [0.0, 0.25, 0.5, 0.75, 1.0]


def phase_channel(d, lam, a):
    """The a-th uniform phase-damping channel, basis {psi_{k,a}}_k."""
    return PhaseDampingChannel.unchecked(d, lam, basis=psi_basis(d, a))


def omega_alt_form(om, mat):
    """The second closed form of Omega on a matrix, or on each matrix of a
    stack: (lam + (1-lam)/d) rho + ((1-lam)/d)(Tr(rho) I - diag rho)."""
    m = np.asarray(mat, dtype=complex)
    c = (1.0 - om.lam) / om.dim
    tr = np.trace(m, axis1=-2, axis2=-1)[..., None, None]
    return (om.lam + c) * m + c * (tr * np.eye(om.dim) - m * np.eye(om.dim))


def qubit_four_term_decomposition(lam):
    """The collapsed d = 2 decomposition.

    At d = 2 the eight phase channels pair up into four distinct ones and
    Omega itself is the average of just two of them (indices a = 2 and
    a = 4, the sigma_y- and sigma_x-basis dampers), so Delta_lam needs only
    four terms: those two channels plain, and the same two conjugated by G.
    """
    c0, c1 = mixing_weights(2, lam)
    g = build_g(2)
    eye = np.eye(2, dtype=complex)
    phi_y = phase_channel(2, lam, 2)
    phi_x = phase_channel(2, lam, 4)
    terms = [
        DecompositionTerm(c0 / 2 + c1 / 4, eye, phi_y),
        DecompositionTerm(c0 / 2 + c1 / 4, eye, phi_x),
        DecompositionTerm(c1 / 4, g, phi_y),
        DecompositionTerm(c1 / 4, g, phi_x),
    ]
    return ConvexDecomposition(2, lam, terms)


class TestClockAndQuadraticUnitaries:
    def test_g_qubit_is_minus_sigma_z(self):
        assert np.allclose(build_g(2), -SIGMA_Z, atol=1e-15)

    def test_g_power_d_is_identity(self):
        for d in (2, 3, 5, 7):
            assert np.allclose(np.linalg.matrix_power(build_g(d), d),
                               np.eye(d), atol=1e-12)

    def test_dephasing_average_extracts_diagonal(self):
        for d in (2, 3, 5):
            rho = np.asarray(random_density_matrix(d, seed=d))
            avg = dephasing_average(d, rho)
            assert np.allclose(avg, np.diag(np.diagonal(rho)), atol=1e-13)

    def test_h_qubit_display(self):
        expected = np.diag([np.exp(1j * math.pi / 4), -1.0])
        assert np.allclose(build_h(2), expected, atol=1e-15)

    def test_h_unitary(self):
        for d in (2, 4, 6):
            h = build_h(d)
            assert np.allclose(h @ h.conj().T, np.eye(d), atol=1e-12)

    def test_h_order_divides_2d_squared(self):
        for d in (2, 3, 4):
            order = 2 * d * d
            assert np.allclose(np.linalg.matrix_power(build_h(d), order),
                               np.eye(d), atol=1e-10)


class TestPsiStates:
    def test_last_index_pair_recovers_theta(self):
        for d in (2, 3, 4):
            psi = psi_state(d, d, 2 * d * d)
            assert np.allclose(np.asarray(psi), np.asarray(theta_state(d)), atol=1e-12)

    def test_fixed_a_gives_orthonormal_basis(self):
        for d in (2, 3, 5):
            for a in (1, d, 2 * d * d):
                b = psi_basis(d, a)
                assert np.max(np.abs(b.conj().T @ b - np.eye(d))) < 1e-10

    def test_all_states_uniform(self):
        for d in (2, 3, 4, 5):
            for a in range(1, 2 * d * d + 1):
                for k in range(1, d + 1):
                    assert is_uniform_vector(psi_state(d, k, a))

    def test_index_range_validation(self):
        with pytest.raises(ValueError, match="k must be"):
            psi_state(3, 0, 1)
        with pytest.raises(ValueError, match="a must be"):
            psi_state(3, 1, 19)
        with pytest.raises(ValueError, match="a must be"):
            psi_basis(3, 0)
        with pytest.raises(ValueError, match="a must be"):
            psi_basis(3, 19)

    def test_stacked_bases_match_single_bases(self):
        # psi_basis reads its entry from the stack; the independent
        # reference is psi_state, in test_basis_matches_stacked_states.
        for d in (2, 3, 4, 5, 6):
            bases = psi_bases(d)
            assert bases.shape == (2 * d * d, d, d)
            for a in range(1, 2 * d * d + 1):
                assert np.max(np.abs(bases[a - 1] - psi_basis(d, a))) <= 1e-16

    def test_basis_matches_stacked_states(self):
        for d in (2, 3, 4, 5, 6):
            for a in range(1, 2 * d * d + 1):
                stacked = np.column_stack([np.asarray(psi_state(d, k, a))
                                           for k in range(1, d + 1)])
                assert np.allclose(psi_basis(d, a), stacked, rtol=0, atol=1e-15)


class TestOmegaChannel:
    def test_identity_at_lam_one(self):
        rho = random_density_matrix(3, seed=1)
        assert np.allclose(OmegaChannel(3, 1.0).apply_matrix(np.asarray(rho)),
                           np.asarray(rho), atol=1e-14)

    def test_two_algebraic_forms_agree(self):
        for d in (2, 3, 4):
            om = OmegaChannel(d, 0.4)
            rho = np.asarray(random_density_matrix(d, seed=d + 5))
            assert np.allclose(om.apply_matrix(rho), omega_alt_form(om, rho),
                               atol=1e-13)

    def test_alt_form_on_a_stack(self):
        om = OmegaChannel(3, 0.4)
        stack = np.stack([np.asarray(random_density_matrix(3, seed=8 + t))
                          for t in range(4)])
        out = omega_alt_form(om, stack)
        for rho, one in zip(stack, out):
            assert np.allclose(one, omega_alt_form(om, rho), atol=1e-14)
            assert np.allclose(one, om.apply_matrix(rho), atol=1e-13)

    def test_qubit_entrywise_form(self):
        # Diagonal entries mix with weights (1 +/- lam)/2, off-diagonals
        # scale by (1 + lam)/2.
        lam = 0.3
        om = OmegaChannel(2, lam)
        rho = np.asarray(random_density_matrix(2, seed=9))
        out = om.apply_matrix(rho)
        lp, lm = (1 + lam) / 2, (1 - lam) / 2
        assert abs(out[0, 0] - (lp * rho[0, 0] + lm * rho[1, 1])) < 1e-13
        assert abs(out[1, 1] - (lm * rho[0, 0] + lp * rho[1, 1])) < 1e-13
        assert abs(out[0, 1] - lp * rho[0, 1]) < 1e-13

    def test_cp_exactly_on_damping_range(self):
        for d in (2, 3):
            lo = -1.0 / (d - 1)
            for lam in (lo, 0.0, 1.0):
                om = OmegaChannel.unchecked(d, lam)
                assert min_choi_eigenvalue(om.apply_matrix, d) > -1e-10
            om = OmegaChannel.unchecked(d, lo - 0.01)
            assert min_choi_eigenvalue(om.apply_matrix, d) < -1e-6

    def test_range_validation(self):
        with pytest.raises(InvalidChannelError, match="CP range"):
            OmegaChannel(3, -0.51)

    def test_closed_form_superoperator_matches_action(self):
        # Reference: the second closed form, applied to one matrix unit at
        # a time.
        for d in range(2, 7):
            for lam in (-1.0 / (d - 1), -1.0 / (d * d - 1), -0.1, 0.0, 0.3,
                        0.77, 1.0):
                om = OmegaChannel.unchecked(d, lam)
                ref = superoperator_from_action(lambda m: omega_alt_form(om, m), d)
                assert np.max(np.abs(om.superoperator() - ref)) < 1e-15

    def test_trace_preserving(self):
        om = OmegaChannel(4, 0.2)
        rho = np.asarray(random_density_matrix(4, seed=11))
        assert abs(np.trace(om.apply_matrix(rho)) - 1.0) < 1e-13


class TestOmegaSplit:
    def test_identity_on_full_grid(self):
        for d in range(2, 7):
            for lam in LAMBDA_GRID:
                check = omega_split_check(d, lam)
                assert check.distance < 1e-10, (d, lam, check.distance)

    def test_weights_sum_to_one(self):
        for d in (2, 5):
            for lam in LAMBDA_GRID:
                assert abs(omega_split_check(d, lam).weight_sum - 1.0) < 1e-12

    def test_singular_weight_raises(self):
        with pytest.raises(ValueError, match="singular"):
            mixing_weights(3, -0.5)

    def test_qubit_explicit_form(self):
        # Delta = (2 lam/(1+lam)) Omega + ((1-lam)/(1+lam)) (Omega + sz Omega sz)/2
        lam = 0.6
        om = OmegaChannel(2, lam)
        rho = np.asarray(random_density_matrix(2, seed=13))
        conj = SIGMA_Z @ om.apply_matrix(rho) @ SIGMA_Z
        rhs = (2 * lam / (1 + lam)) * om.apply_matrix(rho) \
            + ((1 - lam) / (1 + lam)) * 0.5 * (om.apply_matrix(rho) + conj)
        lhs = DepolarizingChannel(2, lam).apply_matrix(rho)
        assert np.allclose(lhs, rhs, atol=1e-13)


class TestPhaseAverage:
    def test_identity_on_grid(self):
        for d in (2, 3, 4, 5):
            for lam in LAMBDA_GRID:
                check = phase_average_check(d, lam)
                assert check.distance < 1e-10, (d, lam, check.distance)
                assert check.n_terms == 2 * d * d

    def test_qubit_channels_pair_up(self):
        lam = 0.45
        supers = {a: phase_channel(2, lam, a).superoperator() for a in range(1, 9)}
        for a, b in ((2, 6), (4, 8), (1, 5), (3, 7)):
            assert frobenius_distance(supers[a], supers[b]) < 1e-12

    def _assert_damps_in_eigenbasis(self, channel, observable):
        # The damping projectors must commute with the observable, i.e. the
        # channel basis diagonalizes it.
        w, vecs = np.linalg.eigh(observable)
        rotated = vecs.conj().T @ sum(channel.projectors()[i] * (i + 1)
                                      for i in range(2)) @ vecs
        off = rotated - np.diag(np.diagonal(rotated))
        assert np.max(np.abs(off)) < 1e-12

    def test_qubit_channel_bases(self):
        lam = 0.45
        self._assert_damps_in_eigenbasis(phase_channel(2, lam, 2), SIGMA_Y)
        self._assert_damps_in_eigenbasis(phase_channel(2, lam, 4), SIGMA_X)
        self._assert_damps_in_eigenbasis(phase_channel(2, lam, 1), TAU)
        self._assert_damps_in_eigenbasis(phase_channel(2, lam, 3), TAU.conj())

    def test_averaged_projector_identity(self):
        for d in (2, 3):
            for seed in range(3):
                rho = random_density_matrix(d, seed=seed)
                assert averaged_projector_identity_error(d, rho) < 1e-10


class TestDiophantineCensus:
    def test_counts_match_closed_form(self):
        for d in range(2, 13):
            census = diophantine_solutions(d)
            assert census.count == census.expected_count == 2 * d * d - d

    def test_no_cross_branch_solutions(self):
        for d in range(2, 13):
            assert diophantine_solutions(d).cross_branch_count == 0

    def test_solutions_lie_in_trivial_families(self):
        census = diophantine_solutions(4)
        for x, y, u, v in census.solutions:
            assert (x == y and u == v) or (x == u and y == v)

    def test_large_d_rejected(self):
        with pytest.raises(ValueError, match="d <= 16"):
            diophantine_solutions(17)


class TestFullDecomposition:
    def test_term_count(self):
        assert len(full_decomposition(2, 0.5)) == 24
        for d in (3, 4):
            assert len(full_decomposition(d, 0.5)) == 2 * d * d * (d + 1)

    def test_reconstruction_on_convex_grid(self):
        for d in (2, 3, 4, 5):
            for lam in CONVEX_GRID:
                dec = full_decomposition(d, lam)
                err = dec.reconstruction_error()
                assert err < 1e-10, (d, lam, err)

    def test_weights_and_convexity_on_unit_interval(self):
        for lam in CONVEX_GRID:
            dec = full_decomposition(3, lam)
            assert abs(dec.weight_sum - 1.0) < 1e-12
            assert dec.is_convex

    def test_signed_identity_below_zero(self):
        dec = full_decomposition(2, -0.1)
        assert not dec.is_convex
        assert dec.reconstruction_error() < 1e-10
        assert abs(dec.weight_sum - 1.0) < 1e-12

    def test_all_channels_uniform(self):
        assert full_decomposition(3, 0.5).all_channels_uniform()

    def test_terms_are_valid_channels(self):
        dec = full_decomposition(2, 0.3)
        for term in dec.terms:
            rho = np.asarray(random_density_matrix(2, seed=3))
            out = term.apply_matrix(rho)
            assert abs(np.trace(out) - 1.0) < 1e-12
            assert min_choi_eigenvalue(term.apply_matrix, 2) > -1e-10

    def test_action_matches_superoperator(self):
        dec = full_decomposition(2, 0.7)
        rho = np.asarray(random_density_matrix(2, seed=4))
        via_action = dec.apply_matrix(rho)
        via_super = (dec.superoperator() @ rho.reshape(-1)).reshape(2, 2)
        assert np.allclose(via_action, via_super, atol=1e-12)

    def test_weight_sum_guard(self):
        dec = full_decomposition(2, 0.5)
        with pytest.raises(ValueError, match="sum"):
            ConvexDecomposition(2, 0.5, list(dec.terms[:4]))


def per_term_superoperator(dec):
    """The reference sum: every term's own conjugated superoperator."""
    return sum(t.weight * conjugation_superoperator(t.unitary, t.channel.superoperator())
               for t in dec.terms)


class TestStackedSuperoperator:
    @pytest.mark.parametrize("d", [2, 3, 4, 5, 6])
    def test_matches_per_term_sum(self, d):
        for lam in (DepolarizingChannel.lam_min(d), 0.0, 0.3, 1.0):
            dec = full_decomposition(d, lam)
            err = np.max(np.abs(dec.superoperator() - per_term_superoperator(dec)))
            assert err < 1e-13, (d, lam, err)

    def test_qubit_four_term_matches_per_term_sum(self):
        for lam in CONVEX_GRID:
            dec = qubit_four_term_decomposition(lam)
            err = np.max(np.abs(dec.superoperator() - per_term_superoperator(dec)))
            assert err < 1e-13, (lam, err)

    @pytest.mark.parametrize("d", [2, 3, 5])
    def test_other_g_power_on_one_term_shows(self, d):
        # Grouping by unitary must neither drop nor merge a moved term.
        g_diag = np.diagonal(build_g(d))
        dec = full_decomposition(d, 0.3)
        terms = list(dec.terms)
        t = terms[-1]
        terms[-1] = DecompositionTerm(t.weight, np.diag(g_diag), t.channel)
        assert ConvexDecomposition(d, 0.3, terms).reconstruction_error() > 1e-10

    @pytest.mark.parametrize("d", [2, 3, 5])
    def test_computational_damper_on_one_term_shows(self, d):
        dec = full_decomposition(d, 0.3)
        terms = list(dec.terms)
        t = terms[d]
        terms[d] = DecompositionTerm(t.weight, t.unitary,
                                     PhaseDampingChannel.unchecked(d, 0.3))
        mutant = ConvexDecomposition(d, 0.3, terms)
        assert mutant.reconstruction_error() > 1e-10
        assert not mutant.all_channels_uniform()


class TestQubitFourTerm:
    def test_reconstruction(self):
        for lam in CONVEX_GRID:
            dec = qubit_four_term_decomposition(lam)
            assert len(dec) == 4
            assert dec.reconstruction_error() < 1e-10, lam
            assert abs(dec.weight_sum - 1.0) < 1e-12

    def test_convex_on_unit_interval(self):
        assert qubit_four_term_decomposition(0.4).is_convex

    def test_channels_uniform(self):
        assert qubit_four_term_decomposition(0.4).all_channels_uniform()

    def test_omega_is_two_channel_average(self):
        lam = 0.35
        om = OmegaChannel(2, lam).superoperator()
        avg = 0.5 * (phase_channel(2, lam, 2).superoperator()
                     + phase_channel(2, lam, 4).superoperator())
        assert frobenius_distance(om, avg) < 1e-12


def test_decomposition_applied_to_maximally_mixed_is_fixed_point():
    dec = full_decomposition(3, 0.6)
    out = dec.apply_matrix(np.asarray(maximally_mixed(3)))
    assert np.allclose(out, np.eye(3) / 3, atol=1e-12)


def test_term_choi_trace_one():
    term = full_decomposition(2, 0.5).terms[-1]
    j = choi_matrix(term.apply_matrix, 2)
    assert abs(np.trace(j) - 1.0) < 1e-12
