import dataclasses
import json
import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from depolcap import capacity, cli
from depolcap.bounds import diagonalize_first_factor, pure_output_maps
from depolcap.capacity import (
    AdditivityCheck,
    ClassicalChannelMatrix,
    chi_additivity_check,
    entropy_lower_bound_check,
    holevo_quantity,
    opwsw_certificate,
    shannon_capacity_depolarizing,
    shannon_capacity_fixed,
    tensor_relative_entropy_bound,
    transition_matrix,
    _joint_support_ascent,
    _own_terms,
    _seed_int,
    _solve_weights,
    _weight_hessian,
    _weight_stats,
)
from depolcap.core import (
    BipartiteState,
    Channel,
    DensityMatrix,
    InvalidStateError,
    SupportError,
    hermitize,
    random_bipartite_state,
    random_channel,
    random_density_matrices,
    random_density_matrix,
    random_unitary,
    relative_entropy,
    tensor_channel,
)
from depolcap.cli import main
from depolcap.depolarizing import DepolarizingChannel
from depolcap.phase_damping import PhaseDampingChannel
from depolcap.report import child_seed
from reference import (
    Ensemble,
    holevo_of_ensemble,
    mutual_information,
    optimizer_ensemble,
)

# Capacity of the binary symmetric channel with flip probability 1/4,
# ln 2 - (3/4 ln 4/3 + 1/4 ln 4), frozen from an independent evaluation.
BSC_QUARTER_CAPACITY = 0.13081203594113697

LN2 = math.log(2.0)


def fourier_basis(d):
    j, k = np.meshgrid(np.arange(d), np.arange(d), indexing="ij")
    return np.exp(2j * np.pi * j * k / d) / math.sqrt(d)


# ---------------------------------------------------------------------------
# ensembles and transition matrices
# ---------------------------------------------------------------------------

class TestEnsemble:
    def test_probabilities_must_sum_to_one(self):
        rho = DensityMatrix(np.eye(2) / 2)
        with pytest.raises(ValueError):
            Ensemble([(0.6, rho), (0.5, rho)])

    def test_negative_probability_rejected(self):
        rho = DensityMatrix(np.eye(2) / 2)
        with pytest.raises(ValueError):
            Ensemble([(1.2, rho), (-0.2, rho)])

    def test_average_is_the_mixture(self):
        e0 = DensityMatrix(np.diag([1.0, 0.0]))
        e1 = DensityMatrix(np.diag([0.0, 1.0]))
        ens = Ensemble([(0.25, e0), (0.75, e1)])
        assert np.allclose(np.asarray(ens.average()), np.diag([0.25, 0.75]))

    def test_uniform_basis(self):
        ens = Ensemble.uniform_basis(3)
        assert len(ens) == 3
        assert np.allclose(np.asarray(ens.average()), np.eye(3) / 3)


class TestClassicalChannelMatrix:
    def test_rows_must_be_stochastic(self):
        with pytest.raises(ValueError):
            ClassicalChannelMatrix([[0.5, 0.4], [0.5, 0.5]])

    def test_rejects_negative_entries(self):
        with pytest.raises(ValueError):
            ClassicalChannelMatrix([[1.1, -0.1], [0.5, 0.5]])

    def test_tiny_negatives_are_clipped(self):
        t = ClassicalChannelMatrix([[1.0 + 1e-15, -1e-15], [0.0, 1.0]])
        assert t.probs.min() == 0.0


def test_transition_matrix_of_basis_design():
    # p_ij = <j|Psi(|i><i|)|j>, written out: from the closed-form spectrum
    # of Delta, and as sum_k |<j|K_k|i>|^2 over the Kraus set of a channel
    # from C^2 to C^3, which is neither square nor unital.
    a, b = 0.4 + 0.6 / 3, 0.6 / 3
    kraus = random_channel(2, 3, 2, seed=12)
    for ch, expected in (
            (DepolarizingChannel(3, 0.4), np.full((3, 3), b) + (a - b) * np.eye(3)),
            (kraus, sum(np.abs(k.T) ** 2 for k in kraus.kraus_ops))):
        t = transition_matrix(ch)
        assert (t.rows, t.cols) == expected.shape
        assert np.max(np.abs(t.probs.sum(axis=1) - 1.0)) < 1e-12
        assert np.max(np.abs(t.probs - expected)) < 1e-12


# ---------------------------------------------------------------------------
# mutual information and Blahut-Arimoto
# ---------------------------------------------------------------------------

def test_mutual_information_of_noiseless_channel():
    t = ClassicalChannelMatrix(np.eye(4))
    assert abs(mutual_information(np.full(4, 0.25), t) - math.log(4)) < 1e-14


def test_mutual_information_of_useless_channel():
    t = ClassicalChannelMatrix(np.full((3, 3), 1.0 / 3))
    assert mutual_information(np.array([0.2, 0.3, 0.5]), t) == 0.0


def test_bsc_capacity_matches_frozen_value():
    t = ClassicalChannelMatrix([[0.75, 0.25], [0.25, 0.75]])
    result = shannon_capacity_fixed(t)
    assert abs(result.capacity - BSC_QUARTER_CAPACITY) < 1e-9
    assert np.allclose(result.prior, [0.5, 0.5], atol=1e-6)


def test_noiseless_capacity_is_log_alphabet():
    result = shannon_capacity_fixed(ClassicalChannelMatrix(np.eye(5)))
    assert abs(result.capacity - math.log(5)) < 1e-9


def test_duality_gap_certifies_optimality():
    rng = np.random.default_rng(6)
    p = rng.random((4, 3)) ** 2
    p /= p.sum(axis=1, keepdims=True)
    result = shannon_capacity_fixed(ClassicalChannelMatrix(p))
    assert result.duality_gap < 1e-9
    # the prior achieves the reported value
    t = ClassicalChannelMatrix(p)
    assert abs(mutual_information(result.prior, t) - result.capacity) < 1e-9


def test_capacity_with_boundary_optimal_prior():
    # third input is a useless mixture of the first two
    t = ClassicalChannelMatrix([[1, 0, 0], [0, 1, 0], [0.5, 0.5, 0]])
    result = shannon_capacity_fixed(t)
    assert abs(result.capacity - LN2) < 1e-9


@settings(max_examples=20, deadline=None)
@given(st.integers(0, 10**6))
def test_capacity_bounded_by_log_alphabet(seed):
    rng = np.random.default_rng(seed)
    rows, cols = rng.integers(2, 5, size=2)
    p = rng.random((int(rows), int(cols))) ** 2
    p /= p.sum(axis=1, keepdims=True)
    result = shannon_capacity_fixed(ClassicalChannelMatrix(p))
    assert -1e-12 <= result.capacity <= math.log(min(rows, cols)) + 1e-12


@pytest.mark.parametrize("dim,lam", [(2, 0.5), (2, 0.9), (3, 0.5), (4, 0.25)])
def test_depolarizing_shannon_capacity_matches_closed_form(dim, lam):
    ch = DepolarizingChannel(dim, lam)
    assert abs(shannon_capacity_depolarizing(ch) - ch.chi_star()) < 1e-8


# ---------------------------------------------------------------------------
# Holevo quantity of fixed ensembles
# ---------------------------------------------------------------------------

def test_holevo_of_single_state_is_zero():
    ens = Ensemble([(1.0, DensityMatrix(np.diag([0.3, 0.7])))])
    assert holevo_of_ensemble(DepolarizingChannel(2, 0.8), ens) == 0.0


def test_holevo_of_uniform_basis_equals_closed_form():
    for dim, lam in [(2, 0.5), (3, 0.7), (4, -0.05)]:
        ch = DepolarizingChannel(dim, lam)
        ens = Ensemble.uniform_basis(dim)
        assert abs(holevo_of_ensemble(ch, ens) - ch.chi_star()) < 1e-12


def holevo_relative_form(channel, ensemble: Ensemble) -> float:
    """sum_i pi_i S(Psi(rho_i), Psi(rho_bar)), the relative-entropy form
    of the Holevo quantity."""
    outs = [hermitize(channel.apply_matrix(np.asarray(s, dtype=complex)))
            for s in ensemble.states]
    avg = hermitize(sum(p * o for p, o in zip(ensemble.probs, outs)))
    return sum(p * relative_entropy(o, avg)
               for p, o in zip(ensemble.probs, outs) if p > 0.0)


def test_entropy_and_relative_entropy_forms_agree():
    rng = np.random.default_rng(3)
    ch = random_channel(3, 3, 2, seed=8)
    states = [random_density_matrix(3, seed=10 + i) for i in range(4)]
    w = rng.random(4)
    ens = Ensemble(list(zip(w / w.sum(), states)))
    a = holevo_of_ensemble(ch, ens)
    b = holevo_relative_form(ch, ens)
    assert abs(a - b) < 1e-10


def test_holevo_is_unitarily_covariant():
    ch = random_channel(2, 2, 2, seed=4)
    u = random_unitary(2, seed=5)
    states = [random_density_matrix(2, seed=20 + i) for i in range(3)]
    ens = Ensemble([(1 / 3, s) for s in states])
    rotated = Ensemble([(1 / 3, DensityMatrix(u @ np.asarray(s) @ u.conj().T))
                        for s in states])

    class Conjugated:
        dim_in = 2

        def apply_matrix(self, m):
            return ch.apply_matrix(u.conj().T @ m @ u)

    assert abs(holevo_of_ensemble(ch, ens)
               - holevo_of_ensemble(Conjugated(), rotated)) < 1e-12


# ---------------------------------------------------------------------------
# Holevo optimizer
# ---------------------------------------------------------------------------

class TestHolevoQuantity:
    @pytest.mark.parametrize("dim,lam", [(2, 0.5), (2, 1.0), (2, -0.2), (3, 0.3)])
    def test_matches_depolarizing_closed_form(self, dim, lam):
        ch = DepolarizingChannel(dim, lam)
        result = holevo_quantity(ch, seed=1)
        assert result.converged
        assert result.certificate_gap < 1e-7
        assert abs(result.chi - ch.chi_star()) < 1e-7

    def test_optimal_average_input_is_maximally_mixed(self):
        ch = DepolarizingChannel(2, 0.6)
        result = holevo_quantity(ch, seed=2)
        dev = np.asarray(result.average_input) - np.eye(2) / 2
        assert np.max(np.abs(dev)) < 1e-6

    def test_reported_chi_matches_its_own_ensemble(self):
        ch = random_channel(2, 2, 2, seed=7)
        result = holevo_quantity(ch, seed=0)
        assert result.converged
        ens = optimizer_ensemble(result)
        assert abs(holevo_of_ensemble(ch, ens) - result.chi) < 1e-9

    def test_identity_channel_reaches_log_dim(self):
        ch = DepolarizingChannel(3, 1.0)
        result = holevo_quantity(ch, seed=0)
        assert result.converged
        assert abs(result.chi - math.log(3)) < 1e-7

    def test_fully_depolarizing_channel_has_zero_capacity(self):
        result = holevo_quantity(DepolarizingChannel(4, 0.0), seed=0)
        assert result.converged
        assert abs(result.chi) < 1e-12

    @pytest.mark.parametrize("dim", [2, 3, 4, 5, 6])
    def test_fourier_measurement_away_from_the_basis_start(self, dim):
        # Psi(rho) = sum_k <f_k|rho|f_k> |k><k| measures in the Fourier
        # basis: every computational-basis input, where the weights start,
        # gives I/d and carries no information, yet chi* = ln d, reached by
        # the f_k. The zero-weight random members let the first solve leave
        # the basis.
        f = fourier_basis(dim)
        kets = np.eye(dim)
        ch = Channel([np.outer(kets[k], f[:, k].conj()) for k in range(dim)])
        result = holevo_quantity(ch, seed=0)
        assert result.converged and result.outer_iterations == 1
        assert abs(result.chi - math.log(dim)) < capacity.CERT_TOL

    @pytest.mark.parametrize("seed", [72, 109])
    def test_random_qutrit_channels_converge_in_few_rounds(self, seed):
        # Witness admission alone piles up near-copies of support states on
        # these channels and needs 34 and 172 rounds; moving the support
        # states jointly closes the certificate well inside 30.
        ch = random_channel(3, 3, 2, seed=seed)
        result = holevo_quantity(ch, seed=seed, max_outer=30)
        assert result.converged
        assert result.certificate_gap < 1e-7

    def test_objective_call_budget_on_the_verify_qutrit_partner(
            self, objective_work):
        # Counts evaluations of the relative-entropy objective, the unit of
        # work of the witness and certificate searches: 99 on this partner
        # with one search per round, 164 with a witness search and a
        # final certificate (162 from uniform start weights). The budget
        # sits below the 370 the run needed when line searches halved the
        # step down to MIN_STEP near an optimum and the joint support step
        # took its gradients from this objective.
        _, calls = objective_work
        partner = random_channel(3, 3, 2, seed=child_seed(0, 2, 1))
        result = holevo_quantity(partner, seed=child_seed(0, 7, 1))
        assert result.converged
        assert len(calls) <= 170

    # Each partner of `verify --dims 2 3 4 5 6` and a random channel on
    # C^6 that needs many rounds. With one witness per round they took
    # 2/4/3/3/19 and 22 rounds; admitting up to ADMIT_PER_ROUND distinct
    # witnesses, 2/3/4/3/7 and 11. The six runs take about 1.4 s together
    # on a 2-core host.
    @pytest.mark.parametrize("channel, seed, rounds", [
        *[(random_channel(dp, dp, 2, seed=child_seed(0, 2, i)),
           child_seed(0, 7, i), 8) for i, dp in enumerate([2, 3, 4, 5, 6])],
        (random_channel(6, 6, 2, seed=11), 0, 12)],
        ids=["verify-2", "verify-3", "verify-4", "verify-5", "verify-6", "c6-11"])
    def test_stress_partners_converge_within_their_round_budget(
            self, channel, seed, rounds):
        result = holevo_quantity(channel, seed=seed)
        assert result.converged
        assert result.outer_iterations <= rounds

    # Frozen bit for bit. The BFGS joint step moved these values by about
    # 1e-9 from the gradient step's 0.8378048329142747 (gap
    # 3.472622500666489e-08, 7 rounds): chi is a lower bound, so it may
    # only rise, and the certificate gap may only shrink. The one-draw
    # random starts and the matrix-product weight Hessian move them again
    # by rounding, and running the joint step through ascend_lockstep by
    # -8.4e-14 (from 0.8378048340982429, gap 1.060056931123654e-09).
    # Starting the weights at the basis ensemble moved them by rounding
    # (from 0.8378048340981589, gap 1.0606905354038076e-09). One search per
    # round, admitting up to ADMIT_PER_ROUND distinct witnesses, moved chi
    # by -4.0e-10, inside CERT_TOL and above the floor (from
    # 0.8378048340981042, gap 1.0614602530267803e-09, 4 rounds).
    def test_frozen_verify_qutrit_partner(self):
        partner = random_channel(3, 3, 2, seed=child_seed(0, 2, 1))
        result = holevo_quantity(partner, seed=child_seed(0, 7, 1))
        assert result.chi == 0.837804833696108
        assert result.certificate_gap == 3.2569006380711585e-09
        assert result.outer_iterations == 3 and result.converged
        assert result.chi >= 0.8378048329142747
        assert result.certificate_gap <= 3.472622500666489e-08

    def test_frozen_six_dim_depolarizing(self):
        # Delta acts through its superoperator, which gives back
        # 0.4419670730556541, 1.1e-16 from chi_star(), the value before the
        # objectives acted through a closed-form action (0.4419670730556546).
        # Skipping the weight solve on the unmoved support moves it by
        # -7.2e-16, and starting the weights at the basis ensemble, which
        # is optimal here, by +8.3e-16, to 2.2e-16 from chi_star().
        ch = DepolarizingChannel(6, 0.5)
        result = holevo_quantity(ch, seed=0)
        assert result.chi == 0.4419670730556542
        assert abs(result.chi - ch.chi_star()) <= 1e-15
        assert result.outer_iterations == 1 and result.converged

    def test_round_limit_reports_a_consistent_unconverged_ensemble(self):
        # The verify qutrit partner needs 3 rounds. Cut short, each run
        # ends at its limit, not converged, with the certificate still
        # open, and the ensemble its last round settled, which admits no
        # witness, matches its own chi and average states; chi only rises
        # with the limit.
        partner = random_channel(3, 3, 2, seed=child_seed(0, 2, 1))
        chis = []
        for max_outer in range(1, 3):
            result = holevo_quantity(partner, seed=child_seed(0, 7, 1),
                                     max_outer=max_outer)
            assert not result.converged and result.outer_iterations == max_outer
            assert result.certificate_gap >= capacity.CERT_TOL
            ensemble_chi = holevo_of_ensemble(partner, optimizer_ensemble(result))
            assert abs(result.chi - ensemble_chi) <= 1e-14
            expected = partner.apply_matrix(np.asarray(result.average_input))
            assert np.max(np.abs(np.asarray(result.average_output) - expected)) <= 1e-14
            chis.append(result.chi)
        assert chis == sorted(chis)

    def test_round_limit_must_be_positive(self):
        with pytest.raises(ValueError):
            holevo_quantity(DepolarizingChannel(2, 0.5), max_outer=0)

    def test_frozen_short_budget_run(self):
        # The floors are the gradient step's values, as above (7 rounds).
        # The joint step through ascend_lockstep moved chi by +1.1e-15 (from
        # 0.8185568306864831, gap 6.088792803282672e-10), the basis start of
        # the weights by -1.8e-15 (from 0.8185568306864842, gap
        # 6.089313497881221e-10), and one search per round, admitting up to
        # ADMIT_PER_ROUND distinct witnesses, by +2.0e-10 (from
        # 0.8185568306864824, gap 6.089099224837469e-10, 5 rounds).
        result = holevo_quantity(random_channel(3, 3, 2, seed=72), seed=72,
                                 max_outer=30)
        assert result.chi == 0.8185568308875275
        assert result.certificate_gap == 6.591116541443398e-11
        assert result.outer_iterations == 4 and result.converged
        assert result.chi >= 0.8185568269276159
        assert result.certificate_gap <= 1.5062781577590556e-08


def _amplitude_damping(gamma):
    return Channel([np.array([[1.0, 0.0], [0.0, math.sqrt(1.0 - gamma)]]),
                    np.array([[0.0, math.sqrt(gamma)], [0.0, 0.0]])])


def _dominated_input_channel():
    """Measure a qutrit in the computational basis and send 0 and 1 to
    |0><0| and |1><1| and 2 to I/2: no optimal ensemble uses input 2."""
    e0, e1 = np.eye(2)
    kets = np.eye(3)
    return Channel([np.outer(e0, kets[0]), np.outer(e1, kets[1]),
                    math.sqrt(0.5) * np.outer(e0, kets[2]),
                    math.sqrt(0.5) * np.outer(e1, kets[2])])


def _random_states(n, dim, rng):
    """n Haar-random unit vectors in C^dim."""
    v = rng.standard_normal((n, dim)) + 1j * rng.standard_normal((n, dim))
    return v / np.linalg.norm(v, axis=1, keepdims=True)


def _support(dim, n_random, seed):
    """The computational basis followed by n_random Haar-random states."""
    rng = np.random.default_rng(seed)
    return np.vstack([np.eye(dim), _random_states(n_random, dim, rng)])


def _settle(channel, states):
    """_solve_weights on the outputs of states, from uniform weights."""
    outs = pure_output_maps(channel)[0](states)
    probs = np.full(len(states), 1.0 / len(states))
    return _solve_weights(probs, outs, _own_terms(outs))


@pytest.fixture
def objective_work(monkeypatch):
    """Two lists that grow by one entry per relative_entropy_objective
    built and per call of a built objective."""
    builds, calls = [], []
    inner = capacity.relative_entropy_objective

    def counted(*args, **kwargs):
        builds.append(1)
        objective = inner(*args, **kwargs)

        def wrapped(psi):
            calls.append(1)
            return objective(psi)
        return wrapped

    monkeypatch.setattr(capacity, "relative_entropy_objective", counted)
    return builds, calls


@pytest.fixture
def weight_evaluations(monkeypatch):
    """A list that grows by one entry per _weight_stats call."""
    calls = []
    inner = capacity._weight_stats

    def counted(*args):
        calls.append(1)
        return inner(*args)

    monkeypatch.setattr(capacity, "_weight_stats", counted)
    return calls


class TestWeightSolver:
    def test_boundary_members_reach_zero_weight(self):
        # Only the basis members belong to the optimal ensemble; the random
        # members must be driven onto the boundary of the simplex.
        ch = DepolarizingChannel(3, 0.5)
        probs, value, divs = _settle(ch, _support(3, 6, seed=4))
        assert divs.max() - value < 1e-12
        assert probs[3:].max() <= 1e-9
        assert abs(value - ch.chi_star()) < 1e-10

    def test_single_member_returns_its_divergence(self):
        ch = random_channel(3, 3, 2, seed=1)
        states = _support(3, 1, seed=2)[3:]
        probs, value, divs = _settle(ch, states)
        out = pure_output_maps(ch)[0](states)[0]
        assert probs.tolist() == [1.0]
        assert value == divs[0]
        assert abs(value - relative_entropy(out, out)) < 1e-12

    @pytest.mark.parametrize("seed,size", [(1, 6), (5, 9), (28, 9)])
    def test_random_qutrit_support_closes_the_gap(self, seed, size,
                                                  weight_evaluations):
        # On these supports, Newton steps that let a weightless member be
        # pushed below zero (and clipped) stall for thousands of
        # evaluations instead of closing the gap.
        states = _random_states(size, 3, np.random.default_rng(1000 + seed))
        ch = random_channel(3, 3, 2, seed=seed)
        probs, value, divs = _settle(ch, states)
        assert divs.max() - value < 1e-12
        assert abs(probs.sum() - 1.0) < 1e-12 and probs.min() >= 0.0
        assert len(weight_evaluations) <= 50

    def test_weight_evaluation_budget(self, weight_evaluations):
        ch = DepolarizingChannel(6, 0.25)
        probs, value, divs = _settle(ch, _support(6, 36, seed=5))
        assert divs.max() - value < 1e-12
        assert len(weight_evaluations) <= 200

    @pytest.mark.parametrize("seed", [2, 3])
    def test_twin_members_settle_in_few_evaluations(self, seed,
                                                    weight_evaluations):
        # Two members whose outputs differ by about 1e-6 span a direction
        # of almost zero curvature; the step along it must still reach
        # the boundary rather than stall short of the 1e-12 gap.
        rng = np.random.default_rng(seed)
        states = _random_states(4, 3, rng)
        twin = states[0] + 1e-6 * rng.standard_normal(3)
        states = np.vstack([states, twin / np.linalg.norm(twin)])
        ch = random_channel(3, 3, 2, seed=seed)
        probs, value, divs = _settle(ch, states)
        assert divs.max() - value < 1e-12
        assert len(weight_evaluations) <= 50


class TestHolevoRoundWork:
    @pytest.mark.parametrize("root", [0, 1, 12345, 2**40 + 7])
    def test_round_seed_matches_spawned_child(self, root):
        n = 202
        children = np.random.SeedSequence(root).spawn(n)
        for i in (0, 1, n - 1):
            assert _seed_int(root, i) == int(children[i].generate_state(1)[0])

    @pytest.mark.parametrize("dim", [2, 3, 4, 5, 6])
    @pytest.mark.parametrize("outputs", ["random", "degenerate"])
    def test_weight_hessian_matches_the_einsum_form(self, dim, outputs):
        # -Re sum_kl L_kl conj(R_ikl) R_jkl with R_i = u* out_i u, written
        # out as two einsums. Basis outputs of Delta_d on all but one basis
        # state (both at d = 2) average to a sigma with d - 1 (or d) equal
        # eigenvalues, so the Loewner matrix takes its coincident-eigenvalue
        # branch off the diagonal as well.
        if outputs == "random":
            outs = np.asarray(random_density_matrices(dim, 60 + dim, dim * dim))
            probs = np.random.default_rng(dim).dirichlet(np.ones(dim * dim))
        else:
            ch = DepolarizingChannel(dim, 0.5)
            outs = np.stack([ch.apply_matrix(np.diag(e).astype(complex))
                             for e in np.eye(dim)[:max(dim - 1, 2)]])
            probs = np.full(len(outs), 1.0 / len(outs))
        _, _, wc, u = _weight_stats(probs, outs, np.zeros(len(outs)))
        logw = np.log(wc)
        dw = wc[:, None] - wc[None, :]
        near = np.abs(dw) < 1e-12 * np.maximum(wc[:, None], wc[None, :])
        loewner = np.where(near, 2.0 / (wc[:, None] + wc[None, :]),
                           (logw[:, None] - logw[None, :])
                           / np.where(dw == 0.0, 1.0, dw))
        if outputs == "degenerate":
            assert near.sum() > dim
        rotated = np.einsum("ba,ibc,cd->iad", u.conj(), outs, u)
        reference = -np.real(np.einsum("kl,ikl,jkl->ij", loewner,
                                       rotated.conj(), rotated))
        hess = _weight_hessian(wc, u, outs)
        assert np.max(np.abs(hess - reference)) <= 1e-13 * np.max(np.abs(reference))

    @pytest.mark.parametrize("dim", [2, 3, 4, 5, 6])
    def test_joint_ascent_is_idle_at_an_optimal_support(self, dim,
                                                        weight_evaluations):
        # The uniform basis ensemble is optimal for Delta_d, so the tangent
        # gradient vanishes: only the input's own value is evaluated and
        # the input comes back unchanged, as a renormalized copy.
        ch = DepolarizingChannel(dim, 0.5)
        states = np.eye(dim, dtype=complex)
        probs = np.full(dim, 1.0 / dim)
        moved = _joint_support_ascent(*pure_output_maps(ch), states, probs)
        assert np.array_equal(moved, states)
        assert len(weight_evaluations) == 1

    def test_weight_evaluation_budget_on_the_verify_qutrit_partner(
            self, weight_evaluations):
        # The first-order joint step took all JOINT_STEPS steps in each of
        # 7 rounds here, 611 weight evaluations in all; the BFGS step
        # needs 4 rounds and 173 evaluations from uniform start weights,
        # 166 from the basis ensemble, and 3 rounds and 145 evaluations
        # with one search per round. The budget sits below the 188 or 212
        # (by last-bit rounding) it needed when its line searches halved
        # the step down to MIN_STEP near the optimum.
        partner = random_channel(3, 3, 2, seed=child_seed(0, 2, 1))
        assert holevo_quantity(partner, seed=child_seed(0, 7, 1)).converged
        assert len(weight_evaluations) <= 166

    def test_joint_steps_run_through_ascend_lockstep(self, monkeypatch):
        # One joint step per round, each one ascend_lockstep row on the
        # product of the support's spheres; the (R, d) stacks are the
        # rounds' witness searches.
        shapes = []
        inner = capacity.ascend_lockstep

        def counted(objective, starts, **kwargs):
            shapes.append(starts.shape)
            return inner(objective, starts, **kwargs)

        monkeypatch.setattr(capacity, "ascend_lockstep", counted)
        partner = random_channel(3, 3, 2, seed=child_seed(0, 2, 1))
        result = holevo_quantity(partner, seed=child_seed(0, 7, 1))
        assert result.converged
        joint = [shape for shape in shapes if len(shape) == 3]
        assert len(joint) == result.outer_iterations
        assert all(shape[0] == 1 and shape[2] == 3 for shape in joint)

    def test_one_objective_build_per_round_on_the_verify_qutrit_partner(
            self, objective_work):
        # Each round runs one witness search, whose best row is also the
        # certificate; a witness search and a final certificate at the same
        # sigma built the objective twice per certifying round.
        builds, _ = objective_work
        partner = random_channel(3, 3, 2, seed=child_seed(0, 2, 1))
        result = holevo_quantity(partner, seed=child_seed(0, 7, 1))
        assert result.converged and result.outer_iterations == 3
        assert len(builds) == result.outer_iterations

    @pytest.mark.parametrize("i_d, dim", enumerate([2, 3, 4, 5, 6]))
    @pytest.mark.parametrize("i_l, lam", enumerate([0.0, 0.25, 0.5, 0.75, 1.0]))
    def test_one_objective_build_per_capacity_cell(self, i_d, dim, i_l, lam,
                                                   objective_work):
        # The Delta cells of `capacity --dims 2 3 4 5 6`, at their seeds:
        # each certifies in its first round, from one search.
        builds, _ = objective_work
        result = holevo_quantity(DepolarizingChannel(dim, lam),
                                 seed=child_seed(0, 11, i_d, i_l))
        assert result.converged and result.outer_iterations == 1
        assert len(builds) == 1

    def test_admitted_witnesses_improve_and_are_distinct(self, monkeypatch):
        # The d' = 6 partner of `verify --dims 2 3 4 5 6` admits witnesses
        # in 6 of its 7 rounds, and its searches return many near-copies of
        # one maximizer. Each admitted row beats chi by CERT_TOL, no two
        # overlap by DISTINCT_OVERLAP, and an improving row is left out
        # only when ADMIT_PER_ROUND rows were taken or it nearly copies a
        # better one that was.
        rounds, inner = [], capacity._admitted_rows

        def recorded(values, found, chi):
            taken = inner(values, found, chi)
            rounds.append((values, found, chi, taken))
            return taken

        monkeypatch.setattr(capacity, "_admitted_rows", recorded)
        partner = random_channel(6, 6, 2, seed=child_seed(0, 2, 4))
        assert holevo_quantity(partner, seed=child_seed(0, 7, 4)).converged
        assert len(rounds) >= 5
        for values, found, chi, taken in rounds:
            assert 1 <= len(taken) <= capacity.ADMIT_PER_ROUND
            assert all(values[r] - chi >= capacity.CERT_TOL for r in taken)
            overlaps = np.abs(found[taken].conj() @ found[taken].T) ** 2
            assert np.all(overlaps[np.triu_indices(len(taken), 1)]
                          < capacity.DISTINCT_OVERLAP)
            if len(taken) < capacity.ADMIT_PER_ROUND:
                for r in np.flatnonzero(values - chi >= capacity.CERT_TOL):
                    copies = np.abs(found[taken].conj() @ found[r]) ** 2
                    assert r in taken or np.any(
                        (copies >= capacity.DISTINCT_OVERLAP)
                        & (values[taken] >= values[r]))

    def test_unmoved_support_is_settled_once_per_round(self, monkeypatch):
        # The uniform basis ensemble is optimal for Delta_3, so the joint
        # step returns the settled support unmoved and its weights are not
        # solved again.
        calls = []
        inner = capacity._settle_weights

        def counted(*args):
            calls.append(1)
            return inner(*args)

        monkeypatch.setattr(capacity, "_settle_weights", counted)
        result = holevo_quantity(DepolarizingChannel(3, 0.5), seed=0)
        assert result.converged
        assert len(calls) == result.outer_iterations == 1

    @pytest.mark.parametrize("dim", [2, 3, 4, 5, 6])
    @pytest.mark.parametrize("lam", [0.0, 0.25, 0.5, 0.75, 1.0])
    def test_capacity_grid_settles_once_per_round(self, dim, lam, monkeypatch):
        # A support that the joint step stops at before any step comes back
        # as the same array. Its renormalized copy differs from members
        # drawn as v / |v| in the last bit, which would solve the weights
        # again (at lam = 0 on every dim here).
        calls = []
        inner = capacity._settle_weights

        def counted(*args):
            calls.append(1)
            return inner(*args)

        monkeypatch.setattr(capacity, "_settle_weights", counted)
        result = holevo_quantity(DepolarizingChannel(dim, lam), seed=0)
        assert result.converged
        assert len(calls) == result.outer_iterations

    @pytest.mark.parametrize("dim", [2, 3, 4, 5, 6])
    @pytest.mark.parametrize("lam", [0.0, 0.25, 0.5, 0.75, 1.0])
    def test_weight_evaluation_budget_on_the_capacity_grid(
            self, dim, lam, weight_evaluations):
        # Every run here is certified in its first round, where the joint
        # ascent stops at its first gradient. The weights start at the
        # basis ensemble, which is optimal for Delta, so the solve only
        # confirms it: at most 2 evaluations (up to 11 from uniform weights
        # over the basis and the random members).
        result = holevo_quantity(DepolarizingChannel(dim, lam), seed=0)
        assert result.converged
        assert len(weight_evaluations) <= 2


class TestOpwswCertificate:
    @pytest.mark.parametrize("i, dp", enumerate([2, 3, 4]))
    def test_agrees_with_the_certificate_of_the_holevo_run(self, i, dp):
        # Both run the one min-max search, from different starts and seeds:
        # at the optimizer's average input, the supremum they find is
        # chi + certificate_gap of the run.
        psi = random_channel(dp, dp, 2, seed=child_seed(0, 2, i))
        res = holevo_quantity(psi, seed=child_seed(0, 7, i))
        cert = opwsw_certificate(psi, res.average_input)
        assert abs(cert.value - (res.chi + res.certificate_gap)) <= 1e-12

    def test_equals_chi_star_at_the_optimal_average(self):
        ch = DepolarizingChannel(2, 0.5)
        cert = opwsw_certificate(ch, np.eye(2) / 2, restarts=16, seed=3)
        assert abs(cert.value - ch.chi_star()) < 1e-9

    def test_exceeds_chi_star_elsewhere(self):
        ch = DepolarizingChannel(2, 0.5)
        cert = opwsw_certificate(ch, np.diag([0.8, 0.2]), restarts=16, seed=4)
        assert cert.value > ch.chi_star() + 1e-3

    def test_rank_deficient_reference_raises(self):
        ch = DepolarizingChannel(2, 1.0)
        with pytest.raises(SupportError):
            opwsw_certificate(ch, np.diag([1.0, 0.0]))

    def test_rank_deficient_output_of_a_full_rank_reference(self):
        # Every output of the replacer is |0><0|, so the supremum is
        # S(|0><0|, |0><0|) = 0 on the support of Psi(omega).
        cert = opwsw_certificate(_amplitude_damping(1.0), np.diag([0.3, 0.7]),
                                 restarts=4, seed=1)
        assert abs(cert.value) < 1e-12

    def test_rank_deficient_reference_whose_outputs_stay_in_support(self):
        # The dominated-input channel with a qutrit output that |2> never
        # reaches: Psi(omega) = diag(1/2, 1/2, 0) for omega = diag(1/2, 1/2, 0),
        # and every output lies in its support. The basis inputs reach the
        # supremum S(|0><0|, diag(1/2, 1/2, 0)) = ln 2.
        padded = Channel([np.vstack([k, np.zeros((1, 3))])
                          for k in _dominated_input_channel().kraus_ops])
        cert = opwsw_certificate(padded, np.diag([0.5, 0.5, 0.0]),
                                 restarts=4, seed=1)
        assert abs(cert.value - LN2) < 1e-12


# ---------------------------------------------------------------------------
# inequality checks
# ---------------------------------------------------------------------------

class TestTensorRelativeEntropyBound:
    def test_holds_on_random_states(self):
        dep = DepolarizingChannel(2, 0.7)
        psi = random_channel(2, 2, 2, seed=3)
        psi_result = holevo_quantity(psi, seed=0)
        assert psi_result.converged
        for s in range(6):
            tau = random_bipartite_state(2, 2, seed=100 + s)
            chk = tensor_relative_entropy_bound(dep, psi, tau,
                                                psi_result.chi,
                                                psi_result.average_output)
            assert chk.lhs <= chk.rhs + 1e-6
            assert chk.slack > 0

    def test_product_witness_saturates(self):
        dep = DepolarizingChannel(2, 0.7)
        psi = random_channel(2, 2, 2, seed=3)
        psi_result = holevo_quantity(psi, seed=0)
        cert = opwsw_certificate(psi, psi_result.average_input,
                                 restarts=16, seed=5)
        left = np.array([1.0, 0.0], dtype=complex)
        prod = np.kron(left, np.asarray(cert.witness))
        tau = BipartiteState(2, 2, np.outer(prod, prod.conj()))
        chk = tensor_relative_entropy_bound(dep, psi, tau, psi_result.chi,
                                            psi_result.average_output)
        assert chk.lhs <= chk.rhs + 1e-6
        assert abs(chk.slack) < 1e-6


    def test_stack_matches_single_calls(self):
        dep = DepolarizingChannel(3, 0.7)
        psi = random_channel(2, 2, 2, seed=3)
        psi_result = holevo_quantity(psi, seed=0)
        stack = random_density_matrices(6, 12, 5)
        chk = tensor_relative_entropy_bound(dep, psi, stack, psi_result.chi,
                                            psi_result.average_output)
        assert chk.slack.shape == (5,)
        for t, tau in enumerate(stack):
            one = tensor_relative_entropy_bound(
                dep, psi, BipartiteState(3, 2, tau), psi_result.chi,
                psi_result.average_output)
            assert abs(chk.lhs[t] - one.lhs) < 1e-13
            assert chk.rhs == one.rhs


class TestEntropyLowerBound:
    @pytest.mark.parametrize("d,dp,lam", [(2, 2, 0.6), (2, 3, 0.3),
                                          (3, 2, 0.8), (3, 3, -0.4)])
    def test_holds_with_uniform_damping_basis(self, d, dp, lam):
        ph = PhaseDampingChannel(d, lam, basis=fourier_basis(d))
        psi = random_channel(dp, dp, 2, seed=d + dp)
        tau, _ = diagonalize_first_factor(
            random_bipartite_state(d, dp, seed=40 + d + dp))
        chk = entropy_lower_bound_check(ph, psi, tau)
        assert chk.lhs >= chk.rhs - 1e-8
        assert chk.x_uniform
        assert chk.block_sum_error < 1e-12

    def test_rejects_non_uniform_basis(self):
        ph = PhaseDampingChannel(2, 0.5)
        psi = random_channel(2, 2, 2, seed=1)
        tau, _ = diagonalize_first_factor(random_bipartite_state(2, 2, seed=2))
        with pytest.raises(InvalidStateError):
            entropy_lower_bound_check(ph, psi, tau)

    def test_rejects_undiagonalized_first_factor(self):
        ph = PhaseDampingChannel(2, 0.5, basis=fourier_basis(2))
        psi = random_channel(2, 2, 2, seed=1)
        tau = random_bipartite_state(2, 2, seed=3)
        with pytest.raises(InvalidStateError):
            entropy_lower_bound_check(ph, psi, tau)


def _additivity(dep, psi, seed=0):
    """chi_additivity_check with the partner's chi* run at seed + 1."""
    return chi_additivity_check(dep, psi, holevo_quantity(psi, seed=seed + 1),
                                seed=seed)


class TestChiAdditivity:
    def test_two_depolarizing_factors(self):
        chk = _additivity(DepolarizingChannel(2, 0.5),
                          DepolarizingChannel(2, 0.7).kraus_channel(), seed=0)
        assert chk.converged
        assert abs(chk.gap) <= 1e-4
        assert abs(chk.gap) < 1e-6

    def test_bracket_beyond_qubit_factors(self):
        # No optimizer runs on the product channel, so the 16- and 12-dim
        # products are as cheap as the qubit ones.
        chk = _additivity(DepolarizingChannel(4, 0.5),
                          DepolarizingChannel(4, 0.5).kraus_channel())
        assert abs(chk.gap) < 1e-10
        chk = _additivity(DepolarizingChannel(6, 0.5),
                          random_channel(2, 2, 2, seed=3))
        assert abs(chk.gap) <= 1e-4

    @staticmethod
    def _verify_partners():
        """The (lam, partner, seed) triples of a default ``verify`` run."""
        partners = [DepolarizingChannel(2, 0.7).kraus_channel(),
                    random_channel(2, 2, 2, seed=child_seed(0, 2, 0))]
        return [(0.5, psi, child_seed(0, 10, i)) for i, psi in enumerate(partners)]

    @pytest.mark.parametrize("partner", [
        Channel([np.array([[1.0, 0.0], [0.0, 0.0]]),
                 np.array([[0.0, 1.0], [0.0, 0.0]])]),
        _amplitude_damping(1.0),
        _dominated_input_channel(),
    ], ids=["replacer", "amplitude-damping-1", "dominated-input"])
    def test_bracket_with_a_rank_deficient_partner_output(self, partner):
        # Psi(omega*) = |0><0| is rank deficient for the first two partners,
        # whose omega* has full rank; the third has omega* = diag(1/2, 1/2, 0)
        # of rank two. Every output stays in the support of the reference
        # output, so the upper side is finite.
        chk = _additivity(DepolarizingChannel(2, 0.5), partner)
        assert chk.converged
        assert abs(chk.gap) <= 1e-4

    def test_bracket_is_an_upper_side(self):
        for lam, psi, seed in self._verify_partners():
            chk = _additivity(DepolarizingChannel(2, lam), psi, seed=seed)
            assert chk.converged
            assert chk.chi_product >= chk.chi_sum - 1e-12

    def test_bracket_matches_product_optimizer(self):
        lam, psi, seed = self._verify_partners()[0]
        dep = DepolarizingChannel(2, lam)
        chk = _additivity(dep, psi, seed=seed)
        product = holevo_quantity(tensor_channel(dep.kraus_channel(), psi),
                                  seed=seed + 2)
        assert abs(chk.chi_product - product.chi) < 1e-6

    def test_bracket_fails_when_partner_chi_is_raised(self, monkeypatch, capsys):
        # A partner chi* 1e-3 above the truth puts the factor sum above the
        # upper side: the check must fail, and so must a verify run.
        real = cli.chi_additivity_check

        def raised(dep, psi, psi_result, seed=0):
            return real(dep, psi,
                        dataclasses.replace(psi_result, chi=psi_result.chi + 1e-3),
                        seed=seed)

        monkeypatch.setattr(cli, "chi_additivity_check", raised)
        lam, psi, seed = self._verify_partners()[1]
        chk = raised(DepolarizingChannel(2, lam), psi,
                     holevo_quantity(psi, seed=seed + 1), seed=seed)
        assert abs(chk.gap) > 1e-4
        assert main(["verify", "--dims", "2", "--lambdas", "0.5",
                     "--p-grid", "2", "--trials", "3"]) == 1
        report = json.loads(capsys.readouterr().out)
        failed = {r["name"] for r in report["records"] if not r["passed"]}
        assert failed == {"chi-additivity"}

    def test_gap_properties(self):
        chk = AdditivityCheck(chi_product=1.0, chi_delta=0.4, chi_psi=0.6,
                              converged=True)
        assert chk.gap == 0.0
        assert abs(chk.gap) <= 1e-4
