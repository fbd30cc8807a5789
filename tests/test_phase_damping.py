import math

import numpy as np
import pytest

from depolcap.core import (
    InvalidChannelError,
    InvalidStateError,
    PureState,
    frobenius_distance,
    hermitize,
    min_choi_eigenvalue,
    random_density_matrix,
    random_unitaries,
    random_unitary,
    superoperator_from_action,
)
from depolcap.decomposition import psi_bases
from depolcap.phase_damping import (
    UNIFORM_TOL,
    DamperStack,
    PhaseDampingChannel,
    check_orthonormal,
    damping_lambda_min,
    is_uniform_vector,
    uniform_diag_expectation,
)
from reference import basis_state, damper_kraus_channel, maximally_mixed


def projector_form(ch):
    """The action lam rho + (1 - lam) sum_i E_i rho E_i written out from the
    projectors E_i onto the channel's basis; valid for any lam and any basis."""
    projectors = [np.outer(b, b.conj()) for b in ch.basis.T]
    return lambda m: ch.lam * m + (1.0 - ch.lam) * sum(e @ m @ e for e in projectors)


def fourier_basis(d: int) -> np.ndarray:
    j, k = np.meshgrid(np.arange(d), np.arange(d), indexing="ij")
    return np.exp(2j * math.pi * j * k / d) / math.sqrt(d)


class TestConstruction:
    def test_default_basis_is_computational(self):
        ch = PhaseDampingChannel(3, 0.5)
        assert np.array_equal(ch.basis, np.eye(3))

    def test_range_endpoints(self):
        for d in (2, 3, 5):
            PhaseDampingChannel(d, 1.0)
            PhaseDampingChannel(d, damping_lambda_min(d))

    def test_out_of_range_rejected(self):
        with pytest.raises(InvalidChannelError, match="CP range"):
            PhaseDampingChannel(3, damping_lambda_min(3) - 1e-6)
        with pytest.raises(InvalidChannelError, match="CP range"):
            PhaseDampingChannel(3, 1.0 + 1e-6)

    def test_unchecked_bypasses_range(self):
        ch = PhaseDampingChannel.unchecked(3, -0.9)
        assert ch.lam == -0.9

    def test_non_orthonormal_basis_rejected(self):
        bad = np.ones((2, 2)) / math.sqrt(2)
        with pytest.raises(InvalidChannelError, match="orthonormal"):
            PhaseDampingChannel(2, 0.5, basis=bad)

    def test_basis_from_vector_list(self):
        vecs = [basis_state(2, 1), basis_state(2, 0)]
        ch = PhaseDampingChannel(2, 0.5, basis=vecs)
        assert np.allclose(ch.basis, np.array([[0, 1], [1, 0]], dtype=complex))


class TestAction:
    def test_identity_endpoint(self):
        rho = random_density_matrix(3, seed=1)
        ch = PhaseDampingChannel(3, 1.0)
        assert np.allclose(np.asarray(ch(rho)), np.asarray(rho))

    def test_full_dephasing(self):
        rho = random_density_matrix(3, seed=2)
        out = PhaseDampingChannel(3, 0.0)(rho)
        assert np.allclose(np.asarray(out), np.diag(np.diagonal(np.asarray(rho))),
                           atol=1e-14)

    def test_qubit_half_example(self):
        rho = np.array([[0.5, 0.5], [0.5, 0.5]])
        out = PhaseDampingChannel(2, 0.5).apply_matrix(rho)
        assert np.allclose(out, [[0.5, 0.25], [0.25, 0.5]], atol=1e-15)

    def test_own_basis_entrywise_rule(self):
        d = 4
        u = random_unitary(d, seed=3)
        ch = PhaseDampingChannel(d, 0.37, basis=u)
        rho = np.asarray(random_density_matrix(d, seed=4))
        inner_in = u.conj().T @ rho @ u
        inner_out = u.conj().T @ ch.apply_matrix(rho) @ u
        assert np.allclose(np.diagonal(inner_out), np.diagonal(inner_in), atol=1e-12)
        off = ~np.eye(d, dtype=bool)
        assert np.allclose(inner_out[off], 0.37 * inner_in[off], atol=1e-12)

    def test_idempotent_at_zero(self):
        ch = PhaseDampingChannel(3, 0.0, basis=random_unitary(3, seed=5))
        rho = np.asarray(random_density_matrix(3, seed=6))
        once = ch.apply_matrix(rho)
        assert np.allclose(ch.apply_matrix(once), once, atol=1e-13)

    def test_projector_form_matches_entrywise_form(self):
        d = 3
        u = random_unitary(d, seed=7)
        ch = PhaseDampingChannel(d, 0.6, basis=u)
        rho = np.asarray(random_density_matrix(d, seed=8))
        assert np.allclose(ch.apply_matrix(rho), projector_form(ch)(rho), atol=1e-13)

    def test_dimension_mismatch(self):
        with pytest.raises(InvalidChannelError, match="dim"):
            PhaseDampingChannel(2, 0.5)(random_density_matrix(3, seed=1))


class TestRepresentations:
    def test_kraus_matches_action(self):
        for d, lam in ((2, 0.5), (3, -0.3), (4, 0.0), (3, 1.0)):
            u = random_unitary(d, seed=d + 10)
            ch = PhaseDampingChannel(d, lam, basis=u)
            dist = frobenius_distance(damper_kraus_channel(ch).superoperator(),
                                      ch.superoperator())
            assert dist < 1e-10, (d, lam, dist)

    def test_kraus_at_lower_cp_edge(self):
        # The identity weight lam + (1 - lam)/d is zero there and can round
        # below it (d = 6, 12).
        for d in range(2, 13):
            ch = PhaseDampingChannel(d, damping_lambda_min(d))
            err = np.max(np.abs(damper_kraus_channel(ch).superoperator()
                                - ch.superoperator()))
            assert err < 1e-13, (d, err)

    def test_kraus_refused_outside_cp_range(self):
        ch = PhaseDampingChannel.unchecked(3, damping_lambda_min(3) - 0.01)
        with pytest.raises(InvalidChannelError, match="Kraus"):
            damper_kraus_channel(ch)

    def test_choi_psd_inside_range_negative_outside(self):
        for d in (2, 3, 4):
            lo = damping_lambda_min(d)
            for lam in (lo, 0.0, 1.0):
                ch = PhaseDampingChannel(d, lam)
                assert min_choi_eigenvalue(ch.apply_matrix, d) > -1e-10
            ch = PhaseDampingChannel.unchecked(d, lo - 0.01)
            assert min_choi_eigenvalue(ch.apply_matrix, d) < -1e-6


class TestClosedFormSuperoperator:
    @staticmethod
    def _bases(d):
        return {"computational": None,
                "haar": random_unitary(d, seed=100 + d),
                "psi": psi_bases(d)[d]}

    # Reference: the projector form, applied to one matrix unit at a time.
    @pytest.mark.parametrize("d", [2, 3, 4, 5, 6])
    def test_matches_action_built_superoperator(self, d):
        lo = damping_lambda_min(d)
        for name, basis in self._bases(d).items():
            for lam in (lo, 0.0, 0.3, 1.0, lo - 0.4):
                ch = PhaseDampingChannel.unchecked(d, lam, basis=basis)
                ref = superoperator_from_action(projector_form(ch), d)
                err = np.max(np.abs(ch.superoperator() - ref))
                assert err < 1e-13, (name, lam, err)

    @pytest.mark.parametrize("d", [2, 3, 6])
    def test_stacked_sum_matches_action_built_terms(self, d):
        # Each term keeps its own basis, lam and (signed) weight.
        bases = random_unitaries(d, 200 + d, 5)
        lams = np.array([damping_lambda_min(d), 0.0, 0.3, 1.0, 0.7])
        weights = np.array([0.5, -0.25, 0.125, 0.375, 0.25])
        ref = sum(w * superoperator_from_action(
            projector_form(PhaseDampingChannel.unchecked(d, lam, basis=b)), d)
            for b, lam, w in zip(bases, lams, weights))
        err = np.max(np.abs(DamperStack(bases).superoperator(lams, weights) - ref))
        assert err < 1e-13, err

    def test_scalar_lam_and_weight_apply_to_every_term(self):
        bases = random_unitaries(3, 210, 4)
        stack = DamperStack(bases)
        assert np.array_equal(stack.superoperator(0.4, 0.25),
                              stack.superoperator([0.4] * 4, [0.25] * 4))


class TestStackedBasisChecks:
    def test_one_bad_basis_in_a_stack_raises(self):
        bases = random_unitaries(4, 221, 6)
        check_orthonormal(bases)
        bases[3, :, 0] *= 1.0 + 1e-8
        with pytest.raises(InvalidChannelError, match="Gram defect"):
            check_orthonormal(bases)

    def test_stacked_sum_rejects_a_bad_basis(self):
        bases = random_unitaries(3, 222, 4)
        bases[1, :, 2] *= 1.0 + 1e-8
        with pytest.raises(InvalidChannelError, match="Gram defect"):
            DamperStack(bases)


class TestUniformity:
    def test_theta_is_uniform(self):
        theta = np.ones(4) / 2.0
        assert is_uniform_vector(theta)

    def test_basis_vector_not_uniform(self):
        assert not is_uniform_vector(basis_state(3, 1))

    def test_computational_dephaser_not_uniform(self):
        assert not PhaseDampingChannel(3, 0.5).is_uniform()

    def test_fourier_dephaser_uniform_and_unital(self):
        d = 5
        ch = PhaseDampingChannel(d, 0.3, basis=fourier_basis(d))
        assert ch.is_uniform()
        out = ch.apply_matrix(np.eye(d) / d)
        assert np.allclose(out, np.eye(d) / d, atol=1e-13)

    def test_tilted_columns_break_uniformity(self):
        d = 4
        basis = fourier_basis(d)
        assert PhaseDampingChannel(d, 0.3, basis=basis).is_uniform()
        # Rotate the last two columns into each other. The basis stays
        # orthonormal (no single column can tilt alone), the first two
        # columns stay flat, and the tilted ones miss UNIFORM_TOL.
        t = 10.0 * UNIFORM_TOL
        rot = np.eye(d, dtype=complex)
        rot[2:, 2:] = [[math.cos(t), -math.sin(t)], [math.sin(t), math.cos(t)]]
        tilted = basis @ rot
        mags = np.abs(tilted)
        spread = mags.max(axis=0) - mags.min(axis=0)
        assert np.all(spread[:2] < UNIFORM_TOL) and np.all(spread[2:] > UNIFORM_TOL)
        assert not PhaseDampingChannel(d, 0.3, basis=tilted).is_uniform()

    def test_any_phase_damper_is_unital(self):
        # I/d is diagonal in every orthonormal basis, so all dampers fix it.
        ch = PhaseDampingChannel(4, 0.2, basis=random_unitary(4, seed=20))
        assert np.allclose(ch.apply_matrix(np.eye(4) / 4), np.eye(4) / 4, atol=1e-13)


class TestUniformDiagExpectation:
    def test_identity_matrix(self):
        theta = PureState(np.ones(3) / math.sqrt(3))
        assert abs(uniform_diag_expectation(theta, np.eye(3)) - 1.0) < 1e-14

    def test_frozen_value(self):
        theta = PureState(np.ones(3) / math.sqrt(3))
        val = uniform_diag_expectation(theta, np.diag([1.0, 2.0, 3.0]))
        assert abs(val - 2.0) < 1e-14

    def test_accepts_diagonal_vector(self):
        theta = PureState(np.ones(2) / math.sqrt(2))
        assert abs(uniform_diag_expectation(theta, np.array([1.0, 3.0])) - 2.0) < 1e-14

    def test_random_phases_still_uniform(self):
        rng = np.random.default_rng(21)
        d = 4
        v = PureState(np.exp(2j * math.pi * rng.random(d)) / math.sqrt(d))
        diag = rng.standard_normal(d) + 1j * rng.standard_normal(d)
        val = uniform_diag_expectation(v, np.diag(diag))
        assert abs(val - np.sum(diag) / d) < 1e-12

    def test_rejects_non_uniform_state(self):
        with pytest.raises(InvalidStateError, match="uniform"):
            uniform_diag_expectation(basis_state(2, 0), np.eye(2))

    def test_rejects_non_diagonal_matrix(self):
        theta = PureState(np.ones(2) / math.sqrt(2))
        with pytest.raises(ValueError, match="diagonal"):
            uniform_diag_expectation(theta, np.array([[1.0, 0.5], [0.5, 2.0]]))


def test_unital_on_maximally_mixed_via_channel_api():
    ch = PhaseDampingChannel(3, 0.5, basis=fourier_basis(3))
    out = ch(maximally_mixed(3))
    assert np.allclose(np.asarray(out), np.eye(3) / 3, atol=1e-14)


def test_composition_semigroup_in_fixed_basis():
    # Damping twice with lam multiplies off-diagonals twice.
    rho = np.asarray(random_density_matrix(3, seed=30))
    once = PhaseDampingChannel(3, 0.5).apply_matrix(rho)
    twice = PhaseDampingChannel(3, 0.5).apply_matrix(once)
    direct = PhaseDampingChannel(3, 0.25).apply_matrix(rho)
    assert np.allclose(hermitize(twice), hermitize(direct), atol=1e-13)
