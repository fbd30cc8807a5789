"""Classical-capacity machinery for channels at desk scale.

Three layers:

  * the basis-to-basis classical channel: basis states sent through the
    quantum channel and read by projections onto the same basis give a
    row-stochastic transition matrix, whose Shannon capacity is computed
    by Blahut-Arimoto iteration with a duality-gap stopping rule;
  * the Holevo quantity chi* = sup over ensembles of
    S(Psi(rho_bar)) - sum pi_i S(Psi(rho_i)), computed by alternating
    maximization over at most d^2 + d pure states, started at the
    computational-basis ensemble (optimal for the depolarizing channel),
    with d^2 - d random states at zero weight as candidates the weight
    solve may admit when the basis does not serve: projected Newton steps on
    the weights for fixed states, a joint ascent of the support states as
    one ``optimize.ascend_lockstep`` row on the product of their spheres,
    and one multi-start quasi-Newton search per round of
    sup_rho S(Psi(rho), Psi(rho_bar)): its best row is the equalization
    certificate sup - chi < tol, which bounds the optimizer error directly
    (chi <= chi* <= sup), and its distinct rows that beat chi are the
    witnesses the support admits, up to four per round; that search,
    ``_witness_search``, is also ``opwsw_certificate``'s;
  * inequality checks built on those quantities: the relative-entropy bound
    for depolarizing tensor factors, the output-entropy lower bound for
    uniform phase dampers, and the additivity of chi* across tensor
    products, bracketed by the factor sum and a min-max upper bound.

Entropic values are in nats.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .core import (
    BipartiteState,
    Channel,
    DensityMatrix,
    InvalidStateError,
    LinearMap,
    ProductMap,
    PureState,
    SupportError,
    SUPPORT_EIG_CUTOFF,
    SUPPORT_MASS_TOL,
    hermitize,
    psd_eigenvalues,
    ptrace_matrix,
    relative_entropy,
    spectral_function,
    von_neumann_entropy,
    xlogx_sum,
)
from .bounds import (
    LOG_FLOOR,
    InequalityCheck,
    conditional_blocks,
    pure_output_maps,
    split_dims,
    tensor_output,
)
from .depolarizing import DepolarizingChannel
from .optimize import MIN_GAIN, ascend_lockstep, ginibre_starts, unit_rows
from .phase_damping import PhaseDampingChannel

ROW_SUM_TOL = 1e-10
ENTRY_TOL = 1e-12
JOINT_STEPS = 50
# Blahut-Arimoto stops at this duality gap, or after BA_MAX_ITER rounds.
BA_GAP_TOL = 1e-9
BA_MAX_ITER = 200_000
# The weight solver stops once max_i D_i - value falls below WEIGHT_TOL.
WEIGHT_TOL = 1e-12
# chi* is certified once no pure state beats the ensemble value by CERT_TOL.
# Each round's search takes FINAL_RESTARTS random starts; ADMIT_PER_ROUND and
# DISTINCT_OVERLAP rule which of its rows enter the support (``_admitted_rows``).
CERT_TOL = 1e-7
FINAL_RESTARTS = 32
ADMIT_PER_ROUND = 4
DISTINCT_OVERLAP = 0.99
# Guards the weight solver against its two acceptance tests (gap shrinks,
# value rises) taking turns forever; no measured solve has needed more
# than 16 weight evaluations.
WEIGHT_ROUNDS = 500


# ---------------------------------------------------------------------------
# The basis-to-basis classical channel
# ---------------------------------------------------------------------------

class ClassicalChannelMatrix:
    """Row-stochastic transition matrix of an induced classical channel."""

    def __init__(self, probs) -> None:
        p = np.array(probs, dtype=float)
        if p.ndim != 2:
            raise ValueError(f"expected a 2-d matrix, got shape {p.shape}")
        if p.min() < -ENTRY_TOL:
            raise ValueError(f"negative transition probability {p.min():.3e}")
        row_sums = p.sum(axis=1)
        if np.max(np.abs(row_sums - 1.0)) > ROW_SUM_TOL:
            raise ValueError("rows must sum to 1")
        self.probs = np.clip(p, 0.0, None)
        self.probs.setflags(write=False)
        self.rows, self.cols = p.shape


def transition_matrix(channel) -> ClassicalChannelMatrix:
    """p_ij = <j|Psi(|i><i|)|j>: basis state i sent through the channel and
    read by the projector onto basis state j, from one stacked action on
    the basis projectors |i><i|."""
    eye = np.eye(channel.dim_in, dtype=complex)
    outs = channel.apply_matrix(eye[:, :, None] * eye[:, None, :])
    return ClassicalChannelMatrix(np.real(np.diagonal(outs, axis1=-2, axis2=-1)))


@dataclass(frozen=True)
class BlahutArimotoResult:
    capacity: float
    prior: np.ndarray
    iterations: int
    duality_gap: float


def shannon_capacity_fixed(t: ClassicalChannelMatrix) -> BlahutArimotoResult:
    """Shannon capacity of a fixed transition matrix by Blahut-Arimoto.

    Stops when the duality gap max_i D_i - sum_i r_i D_i falls below
    BA_GAP_TOL, where D_i is the divergence of row i from the current output
    distribution; the objective is checked to be nondecreasing along the
    way (exact property of the iteration, up to roundoff).
    """
    p = t.probs
    r = np.full(t.rows, 1.0 / t.rows)
    last_value = -np.inf
    iterations = 0
    gap = np.inf
    with np.errstate(divide="ignore", invalid="ignore"):
        log_p = np.where(p > 0.0, np.log(np.where(p > 0.0, p, 1.0)), 0.0)
    for iterations in range(1, BA_MAX_ITER + 1):
        q = r @ p
        log_q = np.log(np.where(q > 0.0, q, 1.0))
        d = np.einsum("ij,ij->i", p, log_p - np.where(p > 0.0, log_q, 0.0))
        value = float(r @ d)
        if value < last_value - 1e-12:
            raise AssertionError(
                f"objective decreased from {last_value} to {value}")
        last_value = value
        gap = float(d.max() - value)
        if gap < BA_GAP_TOL:
            break
        r = r * np.exp(d - d.max())
        r = r / r.sum()
    return BlahutArimotoResult(capacity=last_value, prior=r,
                               iterations=iterations, duality_gap=gap)


def shannon_capacity_depolarizing(ch: DepolarizingChannel) -> float:
    """Shannon capacity of the depolarizing channel with the basis ensemble
    and basis measurement, cross-checked against the closed-form Holevo
    value (the two must agree to 1e-8)."""
    result = shannon_capacity_fixed(transition_matrix(ch))
    closed = ch.chi_star()
    if abs(result.capacity - closed) > 1e-8:
        raise ArithmeticError(
            f"capacity {result.capacity} deviates from the closed form {closed}")
    return result.capacity


# ---------------------------------------------------------------------------
# Holevo quantity
# ---------------------------------------------------------------------------

def _output_logs(outs: np.ndarray):
    """(-S(out_r), log out_r) for a stack of Hermitian PSD outputs, from
    one eigendecomposition; the entropy takes 0 ln 0 = 0, the matrix
    logarithm floors the spectrum at LOG_FLOOR."""
    w, u = np.linalg.eigh(outs)
    return xlogx_sum(w), spectral_function(u, np.log(np.clip(w, LOG_FLOOR, None)))


def relative_entropy_objective(channel, sigma):
    """Objective S(Psi(psi psi*), sigma) with gradient, on stacks of pure
    inputs; sigma's spectrum is floored so the value stays finite (and
    large) outside its support."""
    w, u = np.linalg.eigh(hermitize(np.asarray(sigma, dtype=complex)))
    log_sigma = spectral_function(u, np.log(np.clip(w, LOG_FLOOR, None)))
    outputs, pullback = pure_output_maps(channel)

    def objective(psi: np.ndarray):
        a = outputs(psi)
        own, log_a = _output_logs(a)
        values = own - np.real(np.sum(a.conj() * log_sigma, axis=(1, 2)))
        return values, pullback(log_a - log_sigma, psi)

    return objective


def _witness_search(channel, sigma, restarts: int, seed: int, extra=()):
    """(values, states) of every row of one ``ascend_lockstep`` of
    S(Psi(rho), sigma) over pure rho from the ``ginibre_starts`` of restarts
    and seed, then the rows of each array in ``extra``: the one min-max
    search of this module."""
    starts = np.vstack([ginibre_starts(channel.dim_in, restarts, seed), *extra])
    return ascend_lockstep(relative_entropy_objective(channel, sigma), starts)[:2]


@dataclass(frozen=True)
class HolevoResult:
    """Output of the chi* optimizer.

    ``chi`` is the achieved ensemble value (a guaranteed lower bound on
    chi*); ``certificate_gap`` is sup_rho S(Psi(rho), Psi(rho_bar)) - chi,
    an upper bound on the remaining error. ``average_input`` is the
    optimizer's rho_bar, the reference state of the min-max representation.
    """

    chi: float
    probs: np.ndarray
    states: tuple[np.ndarray, ...]
    average_input: DensityMatrix
    average_output: DensityMatrix
    certificate_gap: float
    outer_iterations: int
    converged: bool


def _seed_int(root_seed: int, i: int) -> int:
    """The first word of child i of SeedSequence(root_seed), derived on its
    own: the same integer as ``SeedSequence(root_seed).spawn(n)[i]`` for any
    n > i, without spawning the children before it."""
    child = np.random.SeedSequence(root_seed, spawn_key=(i,))
    return int(child.generate_state(1)[0])


def _weight_stats(probs: np.ndarray, outs: np.ndarray, owns: np.ndarray):
    """(value, divergences, sigma eigenvalues, sigma eigenvectors) of the
    ensemble value sum_i pi_i S(out_i, sigma) at sigma = sum_i pi_i out_i."""
    sigma = hermitize(np.tensordot(probs, outs, axes=1))
    w, u = np.linalg.eigh(sigma)
    wc = np.clip(w, LOG_FLOOR, None)
    log_sigma = (u * np.log(wc)) @ u.conj().T
    # Tr[out_i log_sigma] as one matrix-vector product on the flattened
    # outputs: log_sigma is Hermitian, so its transpose is its conjugate.
    divs = owns - np.real(outs.reshape(len(outs), -1) @ log_sigma.conj().reshape(-1))
    return float(probs @ divs), divs, wc, u


def _weight_hessian(wc: np.ndarray, u: np.ndarray, outs: np.ndarray
                    ) -> np.ndarray:
    """Hessian of the ensemble value in the weights of the given outputs,
    -Tr[out_i Dlog_sigma(out_j)], through the Loewner matrix of log at
    sigma = u diag(wc) u*."""
    logw = np.log(wc)
    dw = wc[:, None] - wc[None, :]
    near = np.abs(dw) < 1e-12 * np.maximum(wc[:, None], wc[None, :])
    loewner = np.where(near, 2.0 / (wc[:, None] + wc[None, :]),
                       (logw[:, None] - logw[None, :]) / np.where(dw == 0.0, 1.0, dw))
    rotated = (u.conj().T @ outs @ u).reshape(len(outs), -1)
    return -np.real((rotated.conj() * loewner.reshape(-1)) @ rotated.T)


def _solve_weights(probs: np.ndarray, outs: np.ndarray, owns: np.ndarray):
    """Maximize sum_i pi_i S(out_i, sigma(pi)) over the simplex for a fixed
    output list, by projected Newton steps.

    The optimum equalizes the divergences D_i = S(out_i, sigma) over the
    members with weight, and no weightless member exceeds the value. The
    value is quadratically flat around the optimal output average, while
    the gap max_i D_i - value resolves the deviation linearly, so the
    solver stops once the gap is below WEIGHT_TOL, or when no step improves.

    Each round takes a Newton step on the free set: the members with
    weight, and the weightless members whose D_i exceeds the value and
    whose step is not negative. The Hessian is the closed form above,
    shifted by a relative 1e-12 so that directions along which sigma does
    not move (twin or linearly dependent outputs) follow the gradient to
    the boundary instead of being dropped. The step is cut to its longest
    feasible fraction, whose limiting member lands exactly on zero, and
    halved until the gap shrinks or the value rises. When no halving is
    accepted the solver stops where it is. A gap left open there is a
    support member that beats the value, which the certificate of
    ``holevo_quantity`` sees: a stall can cost convergence, never pass as
    converged. Returns (probs, value, divergences).
    """
    value, divs, wc, u = _weight_stats(probs, outs, owns)
    for _ in range(WEIGHT_ROUNDS):
        gap = divs.max() - value
        if gap < WEIGHT_TOL:
            break
        hess = _weight_hessian(wc, u, outs)
        free = (probs > 0.0) | (divs > value)
        while True:
            h = hess[np.ix_(free, free)]
            inv = np.linalg.inv(h - 1e-12 * np.abs(h).max() * np.eye(len(h)))
            ones = np.ones(len(h))
            mu = float(ones @ inv @ divs[free]) / float(ones @ inv @ ones)
            delta = np.zeros_like(probs)
            delta[free] = inv @ (mu * ones - divs[free])
            delta[free] -= delta[free].mean()
            stuck = free & (probs == 0.0) & (delta < 0.0)
            if not stuck.any():
                break
            free &= ~stuck
        shrinking = np.flatnonzero(delta < 0.0)
        ratios = probs[shrinking] / -delta[shrinking]
        alpha = min(1.0, float(ratios.min())) if ratios.size else 1.0
        blocking = shrinking[np.argmin(ratios)] if alpha < 1.0 else None
        best = None
        for _ in range(25):
            cand = np.clip(probs + alpha * delta, 0.0, None)
            if blocking is not None:
                cand[blocking] = 0.0
                blocking = None
            cand = cand / cand.sum()
            stats = _weight_stats(cand, outs, owns)
            if (stats[1].max() - stats[0] < gap * (1.0 - 1e-4)
                    or stats[0] > value + MIN_GAIN):
                best = (cand, *stats)
                break
            alpha *= 0.5
        if best is None:
            break
        probs, value, divs, wc, u = best
    return probs, value, divs


def _own_terms(outs: np.ndarray) -> np.ndarray:
    """-S(out_i) for each output in a stack, with 0 ln 0 = 0."""
    return xlogx_sum(psd_eigenvalues(outs))


def _settle_weights(states: np.ndarray, probs: np.ndarray, outputs):
    """Optimal weights for a fixed support, then drop the members the
    solver leaves at (near) zero weight. Returns (states, probs, sigma,
    chi)."""
    outs = outputs(states)
    probs, chi, _ = _solve_weights(probs, outs, _own_terms(outs))
    keep = probs > 1e-12
    probs = probs[keep] / probs[keep].sum()
    sigma = hermitize(np.tensordot(probs, outs[keep], axes=1))
    return states[keep], probs, sigma, chi


def _joint_support_ascent(outputs, pullback, states: np.ndarray,
                          probs: np.ndarray) -> np.ndarray:
    """Riemannian BFGS ascent of the ensemble value
    chi(psi) = sum_i p_i S(Psi(psi_i psi_i*), sigma(psi)) over all support
    states at once, at fixed weights: the support (n, d) is one
    ``ascend_lockstep`` row on the product of n spheres, run for at most
    JOINT_STEPS line searches. For a trace-preserving channel the
    sigma-derivative terms cancel, so the gradient in psi_i is p_i times
    that of S(Psi(psi_i psi_i*), sigma) at the current sigma; value and
    gradient come from one eigendecomposition of the outputs and one of
    sigma. ``outputs`` and ``pullback`` are the channel's
    ``pure_output_maps``. A support that stops with ``grad_tol`` before
    any step is returned as the input array itself, not as the ascent's
    renormalized copy, so the caller can tell that it did not move.
    """

    def objective(rows):
        states = rows[0]
        outs = outputs(states)
        owns, log_outs = _output_logs(outs)
        chi, _, wc, u = _weight_stats(probs, outs, owns)
        grad = pullback(log_outs - spectral_function(u, np.log(wc)), states)
        return np.array([chi]), (probs[:, None] * grad)[None]

    _, rows, iterations, _, stop = ascend_lockstep(objective, states[None],
                                                   max_iter=JOINT_STEPS)
    if stop[0] == "grad_tol" and iterations[0] == 1:
        return states
    return rows[0]


def _admitted_rows(values: np.ndarray, found: np.ndarray, chi: float) -> list:
    """Indices of the witness-search rows that enter the support: up to
    ADMIT_PER_ROUND, best first, each beating chi by CERT_TOL or more,
    skipping any whose overlap |<a|b>|^2 with a row already taken is
    DISTINCT_OVERLAP or more."""
    taken = []
    for r in np.argsort(-values, kind="stable"):
        if values[r] - chi < CERT_TOL or len(taken) == ADMIT_PER_ROUND:
            break
        if all(abs(np.vdot(found[t], found[r])) ** 2 < DISTINCT_OVERLAP
               for t in taken):
            taken.append(r)
    return taken


def holevo_quantity(channel, seed: int = 0,
                    max_outer: int = 200) -> HolevoResult:
    """chi* by alternating maximization with an equalization certificate.

    The support holds at most d^2 + d pure states (d^2 suffice for an
    optimal ensemble). It starts with the d computational-basis states at
    weight 1/d, the ensemble that attains chi* of the depolarizing
    channel, so that there the first weight solve only confirms it, and
    d^2 - d random states at weight 0. The random states stay as
    candidates: the solve's free set admits any weightless member whose
    divergence exceeds the value, so a channel whose optimum lies off the
    basis leaves the start in its first solve; the members that solve
    leaves at zero weight are pruned. Where the run starts only
    decides how many steps it takes; ``chi`` is still the value of the
    returned ensemble and ``converged`` still rests on the certificate.
    Per round: projected Newton steps that equalize the weights of the
    fixed support, a joint Riemannian BFGS ascent on the support states
    (which returns at once when the support is already stationary, as an
    optimal one is), then one multi-start ascent of S(Psi(rho),
    Psi(rho_bar)) from FINAL_RESTARTS random starts, every support state
    and the least eigenvector of Psi(rho_bar). Its best row is the
    certificate: if it beats the ensemble value by less than CERT_TOL the
    ensemble is equalized and optimal to that tolerance; otherwise the
    distinct improving rows that ``_admitted_rows`` picks enter the
    support one by one at weight 0.05, each displacing the lightest member
    when it is full. The certificate alone decides ``converged``, so a
    stalled weight solve shows as a gap: unless a later round closes it,
    the run ends after round max_outer, which admits nothing, so the
    returned ensemble, its value and the gap describe one state.
    Non-convergence is reported, not raised.
    """
    if max_outer < 1:
        raise ValueError(f"max_outer must be positive, got {max_outer}")
    dim = channel.dim_in
    # d^2 states suffice for the optimum; the extra slots give iterates
    # room before any support member has to be evicted.
    cap = dim * dim + dim
    outputs, pullback = pure_output_maps(channel)
    # Child 0 of the root seed draws the initial support's random members,
    # child i the random starts of round i's search.
    states = np.vstack([np.eye(dim, dtype=complex), unit_rows(
        ginibre_starts(dim, dim * dim - dim, _seed_int(seed, 0)))])
    probs = np.where(np.arange(len(states)) < dim, 1.0 / dim, 0.0)

    for outer in range(1, max_outer + 1):
        states, probs, sigma, chi = _settle_weights(states, probs, outputs)
        # Move the support states themselves, and adopt the moved support
        # only when its re-equalized value improves (an unmoved support was
        # settled just above). Witness admission alone can limit-cycle: the
        # search returns a slightly shifted copy of an existing member,
        # weight oscillates between the twins, and the gap stalls.
        moved = _joint_support_ascent(outputs, pullback, states, probs)
        if not np.array_equal(moved, states):
            m_settled = _settle_weights(moved, probs, outputs)
            if m_settled[3] > chi:
                states, probs, sigma, chi = m_settled
        thin = np.linalg.eigh(sigma)[1][:, :1].T
        values, found = _witness_search(
            channel, sigma, FINAL_RESTARTS, _seed_int(seed, outer),
            (states, thin) if thin.size == dim else (states,))
        gap = float(values.max()) - chi
        converged = bool(gap < CERT_TOL)
        if converged or outer == max_outer:
            break
        for r in _admitted_rows(values, found, chi):
            if len(states) >= cap:
                keep = np.arange(len(probs)) != np.argmin(probs)
                states, probs = states[keep], probs[keep] / probs[keep].sum()
            states = np.vstack([states, found[r]])
            probs = np.append(probs * 0.95, 0.05)

    avg_input = hermitize(np.einsum("i,ij,ik->jk", probs, states, states.conj()))
    return HolevoResult(chi=chi, probs=probs, states=tuple(states),
                        average_input=DensityMatrix(avg_input),
                        average_output=DensityMatrix(sigma),
                        certificate_gap=gap, outer_iterations=outer,
                        converged=converged)


@dataclass(frozen=True)
class CertificateResult:
    value: float
    witness: PureState


def opwsw_certificate(channel, omega, restarts: int = 64, seed: int = 0
                      ) -> CertificateResult:
    """sup over pure rho of S(Psi(rho), Psi(omega)) for a fixed reference.

    At the optimal average input this equals chi*; at any other reference
    it can only be larger (the min-max property). The supremum is finite
    exactly when every output lies in the support of Psi(omega), as it does
    for every channel when omega has full rank. A SupportError is raised
    when some pure input puts more than SUPPORT_MASS_TOL of its output
    outside that support. Within it the objective's floored logarithm moves
    the value by at most SUPPORT_MASS_TOL * |ln LOG_FLOOR|, about 4e-9.
    """
    sigma = hermitize(channel.apply_matrix(np.asarray(omega, dtype=complex)))
    w, u = np.linalg.eigh(sigma)
    if w[0] <= SUPPORT_EIG_CUTOFF:
        null = u[:, w <= SUPPORT_EIG_CUTOFF]
        # The largest output mass on the null space, max_rho Tr[P Psi(rho)],
        # is the top eigenvalue of Psi^dag(P) for the null projector P.
        leak = channel.adjoint_apply_matrix(null @ null.conj().T)
        if np.linalg.eigvalsh(hermitize(leak))[-1] > SUPPORT_MASS_TOL:
            raise SupportError("an output leaves the support of the reference output")
    values, found = _witness_search(channel, sigma, restarts, seed)
    best = int(np.argmax(values))
    return CertificateResult(float(values[best]), PureState(found[best]))


# ---------------------------------------------------------------------------
# Inequality checks built on chi*
# ---------------------------------------------------------------------------

def tensor_relative_entropy_bound(dep: DepolarizingChannel, psi: Channel,
                                  tau12, chi_psi: float,
                                  average_output) -> InequalityCheck:
    """S((Delta (x) Psi) tau12, (I/d) (x) Psi(omega*)) <= chi*(Delta) + chi*(Psi).

    chi*(Psi) and the average output Psi(omega*) are the ``chi`` and
    ``average_output`` of a Holevo optimizer result for Psi; chi*(Delta) is
    closed form. ``tau12`` may be a stack (T, d d', d d').
    """
    d = dep.dim
    reference = np.kron(np.eye(d) / d, np.asarray(average_output))
    lhs = relative_entropy(tensor_output(dep, psi, tau12), reference)
    rhs = dep.chi_star() + chi_psi
    return InequalityCheck(lhs=lhs, rhs=rhs)


@dataclass(frozen=True)
class EntropyLowerBoundCheck:
    lhs: float
    rhs: float
    x_values: np.ndarray
    block_sum_error: float

    @property
    def slack(self) -> float:
        return self.lhs - self.rhs

    @property
    def x_uniform(self) -> bool:
        d = self.x_values.size
        return bool(np.max(np.abs(self.x_values - 1.0 / d)) < 1e-10)


def entropy_lower_bound_check(ph: PhaseDampingChannel, psi: Channel,
                              tau12: BipartiteState) -> EntropyLowerBoundCheck:
    """S((Phi (x) Psi) tau12) >= -chi*(Delta_lam) + ln d
    + (1/d) sum_i S(Psi(d tau2_i)).

    Preconditions: Phi uniform, and the first reduction of tau12 diagonal
    (rotate with diagonalize_first_factor first). Under those, each
    conditional block tau2_i carries trace exactly 1/d, which the returned
    x_values witness.
    """
    if not ph.is_uniform():
        raise InvalidStateError("phase-damping channel must be uniform")
    d = ph.dim
    mat, dp = split_dims(d, tau12)
    tau1 = ptrace_matrix(mat, d, dp, keep=1)
    off = tau1 - np.diag(np.diagonal(tau1))
    if np.max(np.abs(off)) > 1e-10:
        raise InvalidStateError("first reduction must be diagonal; rotate first")

    blocks = conditional_blocks(ph.basis, mat)
    x_values = np.real(np.trace(blocks, axis1=-2, axis2=-1))
    tau2 = ptrace_matrix(mat, d, dp, keep=2)
    block_sum_error = float(np.max(np.abs(blocks.sum(axis=0) - tau2)))

    lhs = von_neumann_entropy(tensor_output(ph, psi, mat))

    chi_delta = DepolarizingChannel.unchecked(d, ph.lam).chi_star()
    branch = sum(von_neumann_entropy(hermitize(psi.apply_matrix(d * b)))
                 for b in blocks) / d
    rhs = -chi_delta + math.log(d) + branch
    return EntropyLowerBoundCheck(lhs=lhs, rhs=rhs, x_values=x_values,
                                  block_sum_error=block_sum_error)


@dataclass(frozen=True)
class AdditivityCheck:
    chi_product: float
    chi_delta: float
    chi_psi: float
    converged: bool

    @property
    def chi_sum(self) -> float:
        return self.chi_delta + self.chi_psi

    @property
    def gap(self) -> float:
        return self.chi_product - self.chi_sum


def chi_additivity_check(dep: DepolarizingChannel, psi: LinearMap,
                         psi_result: HolevoResult,
                         seed: int = 0) -> AdditivityCheck:
    """chi*(Delta (x) Psi) bracketed against chi*(Delta) + chi*(Psi).

    The factor sum is the lower side, chi*(Delta) in closed form and
    chi*(Psi) being ``psi_result.chi``; ``chi_product`` is the min-max upper
    side sup_rho S((Delta (x) Psi) rho, I/d (x) Psi(omega*)), omega* the
    average input of ``psi_result``, so no Holevo optimizer runs on Delta,
    Psi or their ``ProductMap``; ``converged`` is that of the run on Psi."""
    omega = np.kron(np.eye(dep.dim) / dep.dim,
                    np.asarray(psi_result.average_input))
    upper = opwsw_certificate(ProductMap(dep, psi), omega, seed=seed + 2)
    return AdditivityCheck(chi_product=upper.value,
                           chi_delta=dep.chi_star(),
                           chi_psi=psi_result.chi,
                           converged=psi_result.converged)
