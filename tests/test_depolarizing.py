import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from depolcap.core import (
    InvalidChannelError,
    LinearMap,
    frobenius_distance,
    min_choi_eigenvalue,
    random_pure_state,
    schatten_p_norm,
    von_neumann_entropy,
)
from depolcap.depolarizing import (
    DepolarizingChannel,
    clock_matrix,
    lambda_min,
    min_choi_eig,
    shift_matrix,
)
from reference import basis_state

# Frozen reference values.
S_MIN_D2_HALF = 0.5623351446188083       # -0.75 ln 0.75 - 0.25 ln 0.25
CHI_D2_HALF = 0.13081203594113697        # ln 2 - S_MIN_D2_HALF
NU2_D3_HALF = 0.7071067811865476         # sqrt((2/3)^2 + 2 (1/6)^2)

LAMBDA_GRID = [-0.1, 0.0, 0.3, 0.7, 1.0]


class TestConstruction:
    def test_range_endpoints_accepted(self):
        for d in (2, 3, 6):
            DepolarizingChannel(d, 1.0)
            DepolarizingChannel(d, lambda_min(d))

    def test_out_of_range_rejected(self):
        with pytest.raises(InvalidChannelError, match="CP range"):
            DepolarizingChannel(2, 1.1)
        with pytest.raises(InvalidChannelError, match="CP range"):
            DepolarizingChannel(3, lambda_min(3) - 1e-6)

    def test_unchecked_bypasses_range_only(self):
        ch = DepolarizingChannel.unchecked(2, -0.9)
        assert ch.lam == -0.9
        assert not ch.is_cp
        with pytest.raises(InvalidChannelError, match="dim"):
            DepolarizingChannel.unchecked(1, 0.5)

    def test_small_dim_rejected(self):
        with pytest.raises(InvalidChannelError, match="dim"):
            DepolarizingChannel(1, 0.5)


class TestAction:
    def test_identity_endpoint(self):
        ch = DepolarizingChannel(3, 1.0)
        rho = random_pure_state(3, seed=1).projector()
        assert np.allclose(np.asarray(ch(rho)), np.asarray(rho))

    def test_fully_depolarizing_endpoint(self):
        ch = DepolarizingChannel(3, 0.0)
        rho = random_pure_state(3, seed=2).projector()
        assert np.allclose(np.asarray(ch(rho)), np.eye(3) / 3, atol=1e-14)

    def test_qubit_half_on_ground_state(self):
        ch = DepolarizingChannel(2, 0.5)
        out = ch(basis_state(2, 0).projector())
        assert np.allclose(np.asarray(out), np.diag([0.75, 0.25]), atol=1e-15)

    def test_dimension_mismatch(self):
        with pytest.raises(InvalidChannelError, match="dim"):
            DepolarizingChannel(2, 0.5)(basis_state(3, 0).projector())

    @settings(deadline=None, max_examples=30)
    @given(st.integers(2, 5), st.floats(0.0, 1.0))
    def test_output_valid_on_cp_range(self, d, lam):
        ch = DepolarizingChannel(d, lam)
        out = ch(random_pure_state(d, seed=d).projector())
        assert abs(np.trace(np.asarray(out)) - 1.0) < 1e-12


class TestRepresentations:
    def test_kraus_matches_affine_superoperator(self):
        for d in (2, 3, 4):
            for lam in LAMBDA_GRID:
                if lam < lambda_min(d):
                    continue
                ch = DepolarizingChannel(d, lam)
                dist = frobenius_distance(ch.kraus_channel().superoperator(),
                                          ch.superoperator())
                assert dist < 1e-10, (d, lam, dist)

    def test_kraus_at_lower_cp_edge(self):
        # The identity weight lam + (1 - lam)/d^2 is zero there and can
        # round below it (d = 6, 9).
        for d in range(2, 13):
            ch = DepolarizingChannel(d, lambda_min(d))
            err = np.max(np.abs(ch.kraus_channel().superoperator()
                                - ch.superoperator()))
            assert err < 1e-13, (d, err)

    def test_kraus_count(self):
        assert len(DepolarizingChannel(3, 0.5).kraus_channel().kraus_ops) == 9

    def test_kraus_refused_outside_cp_range(self):
        ch = DepolarizingChannel.unchecked(2, lambda_min(2) - 0.01)
        with pytest.raises(InvalidChannelError, match="Kraus"):
            ch.kraus_channel()

    def test_shift_clock_algebra(self):
        d = 4
        x, z = shift_matrix(d), clock_matrix(d)
        assert np.allclose(np.linalg.matrix_power(x, d), np.eye(d))
        assert np.allclose(np.linalg.matrix_power(z, d), np.eye(d))
        # Weyl commutation: Z X = omega X Z
        omega = np.exp(2j * math.pi / d)
        assert np.allclose(z @ x, omega * x @ z, atol=1e-14)

    def test_choi_psd_inside_range_negative_outside(self):
        for d in (2, 3, 4):
            assert min_choi_eig(d, lambda_min(d)) > -1e-10
            assert min_choi_eig(d, 1.0) > -1e-10
            assert min_choi_eig(d, lambda_min(d) - 0.01) < -1e-6
            assert min_choi_eig(d, 0.3) > -1e-12

    @pytest.mark.parametrize("d", [2, 3, 4, 5, 6])
    def test_reshuffled_superoperator_matches_action_built_choi(self, d, monkeypatch):
        # Each Choi column is the image of one matrix unit, which the action
        # reads off the superoperator exactly, so the two routes agree bit
        # for bit; the reshuffle calls no action.
        lams = (lambda_min(d), 0.0, 1.0, lambda_min(d) - 0.01, 1.01)
        ref = [min_choi_eigenvalue(DepolarizingChannel.unchecked(d, lam).apply_matrix, d)
               for lam in lams]

        def refuse(self, mat):
            raise AssertionError("min_choi_eig went through an action")

        monkeypatch.setattr(LinearMap, "apply_matrix", refuse)
        assert [min_choi_eig(d, lam) for lam in lams] == ref


class TestClosedForms:
    def test_pure_output_spectrum_values(self):
        spec = DepolarizingChannel(2, 0.5).pure_output_spectrum()
        assert np.allclose(sorted(spec), [0.25, 0.75])
        spec = DepolarizingChannel(4, 1.0).pure_output_spectrum()
        assert np.allclose(sorted(spec), [0, 0, 0, 1])

    def test_pure_output_spectrum_matches_action(self):
        for d in (2, 3, 5):
            for lam in LAMBDA_GRID:
                if lam < lambda_min(d):
                    continue
                ch = DepolarizingChannel(d, lam)
                rho = random_pure_state(d, seed=17 * d).projector()
                actual = np.linalg.eigvalsh(np.asarray(ch(rho)))
                assert np.allclose(np.sort(actual),
                                   np.sort(ch.pure_output_spectrum()), atol=1e-12)

    def test_s_min_endpoints_and_frozen_value(self):
        assert DepolarizingChannel(3, 1.0).s_min() == 0.0
        assert abs(DepolarizingChannel(3, 0.0).s_min() - math.log(3)) < 1e-14
        assert abs(DepolarizingChannel(2, 0.5).s_min() - S_MIN_D2_HALF) < 1e-15

    # s_min at lam_min, 0, 0.5 and 1 for d = 2..6, frozen bit for bit from
    # the sum over the spectrum's positive entries alone; at lam = 1 that
    # sum is 1 ln 1 = +0.0, so s_min is -0.0, which reports print.
    S_MIN_BITS = {
        2: (0.6365141682948128, 0.6931471805599453, 0.5623351446188083, -0.0),
        3: (1.0821955300387671, 1.0986122886681096, 0.8675632284814612, -0.0),
        4: (1.3792922544726758, 1.3862943611198906, 1.0735428464085233, -0.0),
        5: (1.605806509799547, 1.6094379124341005, 1.2275294114572126, -0.0),
        6: (1.7896345289462088, 1.7917594692280547, 1.349792396172401, -0.0),
    }

    @pytest.mark.parametrize("d", sorted(S_MIN_BITS))
    def test_s_min_frozen_bit_for_bit(self, d):
        for lam, frozen in zip((lambda_min(d), 0.0, 0.5, 1.0), self.S_MIN_BITS[d]):
            value = DepolarizingChannel(d, lam).s_min()
            assert value == frozen
            assert math.copysign(1.0, value) == math.copysign(1.0, frozen)

    def test_s_min_matches_sampled_minimum(self):
        ch = DepolarizingChannel(3, 0.4)
        sampled = min(von_neumann_entropy(ch(random_pure_state(3, seed=s).projector()))
                      for s in range(200))
        # Covariance makes every pure input optimal, so sampling is exact.
        assert abs(sampled - ch.s_min()) < 1e-8

    def test_nu_p_endpoints_and_frozen_value(self):
        assert abs(DepolarizingChannel(2, 1.0).nu_p(3.7) - 1.0) < 1e-14
        assert abs(DepolarizingChannel(2, 0.0).nu_p(2.0) - 1 / math.sqrt(2)) < 1e-14
        assert abs(DepolarizingChannel(3, 0.5).nu_p(2.0) - NU2_D3_HALF) < 1e-15

    def test_nu_p_rejects_p_below_one(self):
        with pytest.raises(ValueError, match="p must be >= 1"):
            DepolarizingChannel(2, 0.5).nu_p(0.99)

    def test_nu_p_matches_output_norm_for_random_pure_inputs(self):
        for d in (2, 4):
            ch = DepolarizingChannel(d, 0.35)
            for s in range(10):
                out = ch(random_pure_state(d, seed=s).projector())
                for p in (1.5, 2.0, 3.0):
                    assert abs(schatten_p_norm(out, p) - ch.nu_p(p)) < 1e-12

    def test_derivative_identity(self):
        for d in (2, 3, 6):
            for lam in (0.2, 0.5, 0.9):
                ch = DepolarizingChannel(d, lam)
                assert abs(-ch.nu_p_derivative_at_1() - ch.s_min()) < 1e-5

    def test_chi_star_endpoints_and_frozen_value(self):
        assert abs(DepolarizingChannel(4, 1.0).chi_star() - math.log(4)) < 1e-14
        assert DepolarizingChannel(4, 0.0).chi_star() == 0.0
        assert abs(DepolarizingChannel(2, 0.5).chi_star() - CHI_D2_HALF) < 1e-15

    def test_entropy_of_actual_output_matches_s_min(self):
        ch = DepolarizingChannel(5, 0.3)
        out = ch(random_pure_state(5, seed=9).projector())
        assert abs(von_neumann_entropy(out) - ch.s_min()) < 1e-12
