"""Norm bounds for phase-damped halves of bipartite states.

The central objects: a bipartite state factors through its PSD square root
into column blocks V_i, one per first-factor basis vector, with

    rho12 = (sqrt(rho12))^dag sqrt(rho12),   V_i^dag V_j = block (i, j),

so V_i^dag V_i is the i-th conditional block rho2_i. Scaling the
off-diagonal blocks by lam (the action of a phase damper on factor one)
produces a matrix whose spectrum matches A^{1/2} B A^{1/2} for
A = blockdiag(V_i V_i^dag) and B = b (x) I built from the damped constant
vector; the Lieb-Thirring inequality Tr (A^{1/2} B A^{1/2})^p <= Tr A^p B^p
then caps the output p-norm by d^(1-1/p) nu_p(Delta_lam) times a Schatten
sum over the conditional blocks. Taken together these give the
multiplicativity of the maximal output p-norm for depolarizing tensor
factors, checked here Monte-Carlo style.

Product channels act one factor at a time, never through a product Kraus
set: Phi_lam (x) I is the damper on factor one, and Delta (x) Psi is a
``core.ProductMap``, Psi on factor two followed by Delta on factor one:
lam (id (x) Psi) tau + (1 - lam) I/d (x) Psi(tr_1 tau). Every Monte-Carlo
check takes a stack ``(T, d d', d d')`` of trial states as well as a single
state and returns one value per trial, so a whole (d, d', lam, p) cell of
``verify`` costs one stacked channel application and one stacked
eigendecomposition. A check returns the sides it measured and no verdict;
tolerances belong to the caller.
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
    ProductMap,
    _p_norm_from_eigenvalues,
    _power_scale,
    _scalar_or_stack,
    apply_on_factor,
    hermitize,
    matrix_power_psd,
    psd_eigenvalues,
    psd_eigh,
    ptrace_matrix,
    schatten_p_norm,
    spectral_function,
)
from .depolarizing import DepolarizingChannel
from .optimize import AscentResult, maximize_over_pure_states
from .phase_damping import PhaseDampingChannel

# Output spectra are floored here before their logarithm is taken.
LOG_FLOOR = 1e-18


@dataclass(frozen=True)
class InequalityCheck:
    """Measured sides of lhs <= rhs, entrywise for a stack of inputs; the
    caller judges the slack against its own tolerance."""

    lhs: float
    rhs: float

    @property
    def slack(self) -> float:
        return self.rhs - self.lhs

    @property
    def relative_slack(self) -> float:
        """slack / rhs where rhs > 0, else the slack itself."""
        return _scalar_or_stack(self.slack / np.where(self.rhs > 0.0, self.rhs, 1.0))


@dataclass(frozen=True)
class EqualityCheck:
    """Measured sides of value_a = value_b, entrywise for a stack of inputs;
    the caller judges the difference against its own tolerance."""

    value_a: float
    value_b: float

    @property
    def difference(self) -> float:
        return abs(self.value_a - self.value_b)


# ---------------------------------------------------------------------------
# Block factorization
# ---------------------------------------------------------------------------

class BlockFactorization:
    """Column-block split of the PSD square root of a bipartite state."""

    def __init__(self, rho12: BipartiteState) -> None:
        d, dp = rho12.dim1, rho12.dim2
        mat = np.asarray(rho12, dtype=complex)
        root = matrix_power_psd(mat, 0.5)
        blocks = [root[:, i * dp:(i + 1) * dp] for i in range(d)]
        gram = np.block([[blocks[i].conj().T @ blocks[j] for j in range(d)]
                         for i in range(d)])
        defect = float(np.max(np.abs(gram - mat)))
        if defect > 1e-10:
            raise InvalidStateError(
                f"square-root factorization failed: Gram defect {defect:.3e}")
        self.d = d
        self.d_prime = dp
        self.sqrt_matrix = root
        self.blocks = blocks

    def rho2_block(self, i: int) -> np.ndarray:
        """Conditional block V_i^dag V_i; equals the reduction of
        (E_ii (x) I) rho12 over the first factor."""
        v = self.blocks[i]
        return v.conj().T @ v

    def a_matrix(self) -> np.ndarray:
        """Block diagonal of the outer products V_i V_i^dag."""
        n = self.d * self.d_prime
        a = np.zeros((self.d * n, self.d * n), dtype=complex)
        for i, v in enumerate(self.blocks):
            a[i * n:(i + 1) * n, i * n:(i + 1) * n] = v @ v.conj().T
        return a


def split_dims(dim1: int, tau) -> tuple[np.ndarray, int]:
    """(tau as a complex array, second-factor dimension) for a state or a
    stack ``(..., n, n)`` on C^dim1 (x) C^(n/dim1)."""
    m = np.asarray(tau, dtype=complex)
    dim2 = m.shape[-1] // dim1
    if dim1 * dim2 != m.shape[-1] or getattr(tau, "dim1", dim1) != dim1:
        raise InvalidStateError(
            f"channel dim {dim1} is not the first factor of a state of dim "
            f"{m.shape[-1]}")
    return m, dim2


def conditional_blocks(basis: np.ndarray, tau) -> np.ndarray:
    """Conditional blocks <b_i| (x) I tau |b_i> (x) I, shape (..., d, d', d'),
    for the basis in the columns of ``basis``: the diagonal blocks of tau,
    or of each state of a stack, with factor one rotated into that basis."""
    d = basis.shape[0]
    m, dp = split_dims(d, tau)
    split = m.reshape(m.shape[:-2] + (d, dp, d, dp))
    return np.einsum("ai,...ajbk,bi->...ijk", basis.conj(), split, basis)


def tensor_output(phi, psi: Channel, tau) -> np.ndarray:
    """(Phi (x) Psi) tau, hermitized, for a state or a stack on C^phi.dim (x)
    C^d', by ``ProductMap``: Psi on factor two, then Phi on factor one."""
    m, _ = split_dims(phi.dim, tau)
    return hermitize(ProductMap(phi, psi).apply_matrix(m))


def small_b_matrix(d: int, lam: float) -> np.ndarray:
    """d * Phi_lam(theta theta^*) for the computational-basis damper; the
    entries are lam + (1 - lam) delta_ij."""
    return lam * np.ones((d, d), dtype=complex) + (1.0 - lam) * np.eye(d)


def spectrum_identity_check(lam: float, rho12: BipartiteState) -> float:
    """Max deviation between the spectrum of the block-damped state and the
    spectrum of A^{1/2} B A^{1/2}, after zero padding.

    The damper acts in the computational basis on factor one; B is the small
    b matrix blown up by identity blocks so its block pattern matches A.
    """
    d, dp = rho12.dim1, rho12.dim2
    ph = PhaseDampingChannel.unchecked(d, lam)
    damped = apply_on_factor(ph.apply_matrix, np.asarray(rho12), d, dp, 1)
    spec_small = psd_eigenvalues(damped)

    fact = BlockFactorization(rho12)
    a = fact.a_matrix()
    b = np.kron(small_b_matrix(d, lam), np.eye(d * dp, dtype=complex))
    a_half = matrix_power_psd(a, 0.5)
    spec_big = psd_eigenvalues(a_half @ b @ a_half)

    padded = np.concatenate([np.zeros(spec_big.size - spec_small.size), spec_small])
    return float(np.max(np.abs(np.sort(padded) - np.sort(spec_big))))


# ---------------------------------------------------------------------------
# Trace inequalities
# ---------------------------------------------------------------------------

def lieb_thirring_check(a, b, p: float) -> InequalityCheck:
    """Tr (A^{1/2} B A^{1/2})^p <= Tr A^p B^p for PSD A, B and p >= 1.

    ``a`` and ``b`` are one pair of matrices, or two stacks ``(T, d, d)``
    of them; for stacks, lhs and rhs hold one value per pair. A matrix whose top
    eigenvalue m has m^p outside about [1e-100, 1e100] is divided by m first.

    rhs is sum_ij a_i^p b_j^p |<u_i|v_j>|^2 over the eigenpairs (a_i, u_i)
    of A and (b_j, v_j) of B: a sum of nonnegative terms, so it keeps its
    relative accuracy when the top eigenvectors of A and B are near
    orthogonal, where the trace of A^p B^p cancels."""
    if p < 1.0:
        raise ValueError(f"p must be >= 1, got {p}")
    a, b = (m / _power_scale(psd_eigenvalues(m)[..., -1], 2.0 * p)[..., None, None]
            for m in (np.asarray(a, dtype=complex), np.asarray(b, dtype=complex)))
    (wa, ua), (wb, ub) = psd_eigh(a), psd_eigh(b)
    a_half = spectral_function(ua, wa ** 0.5)
    inner = psd_eigenvalues(a_half @ b @ a_half)
    lhs = np.sum(inner ** p, axis=-1)
    overlap = np.abs(np.swapaxes(ua.conj(), -1, -2) @ ub) ** 2
    rhs = np.einsum("...i,...ij,...j->...", wa ** p, overlap, wb ** p)
    return InequalityCheck(lhs=_scalar_or_stack(lhs), rhs=_scalar_or_stack(rhs))


def b_matrix_diagonal_check(d: int, lam: float, p: float) -> EqualityCheck:
    """Diagonal entries of d^p (Phi_lam(theta theta^*))^p against the closed
    form (1-lam)^p + ((d lam + 1 - lam)^p - (1-lam)^p)/d, which also equals
    d^(p-1) nu_p(Delta_lam)^p."""
    theta = np.ones(d, dtype=complex) / math.sqrt(d)
    ph = PhaseDampingChannel.unchecked(d, lam)
    damped = ph.apply_matrix(np.outer(theta, theta.conj()))
    powered = matrix_power_psd(damped, p) * (d ** p)
    entries = np.real(np.diagonal(powered))
    closed = (1.0 - lam) ** p + ((d * lam + 1.0 - lam) ** p - (1.0 - lam) ** p) / d
    nu_form = d ** (p - 1.0) * DepolarizingChannel.unchecked(d, lam)._nu_p_any(p) ** p
    if abs(closed - nu_form) > 1e-10:
        raise AssertionError(
            f"closed form {closed} disagrees with the nu_p form {nu_form}")
    worst = float(entries[np.argmax(np.abs(entries - closed))])
    return EqualityCheck(value_a=worst, value_b=closed)


def tensor_output_norm_bound(ch: PhaseDampingChannel, rho12,
                             p: float) -> InequalityCheck:
    """|| (Phi_lam (x) I) rho12 ||_p against
    d^(1-1/p) nu_p(Delta_lam) (sum_i Tr rho2_i^p)^(1/p).

    ``rho12`` is a state or a stack ``(T, d d', d d')`` of states; for a
    stack, lhs and rhs hold one value per state."""
    d = ch.dim
    m, dp = split_dims(d, rho12)
    lhs = schatten_p_norm(hermitize(apply_on_factor(ch.apply_matrix, m, d, dp, 1)), p)
    blocks = psd_eigenvalues(conditional_blocks(ch.basis, m))
    # (sum_i Tr rho2_i^p)^(1/p) is the p-norm of all block spectra together.
    block_norm = _p_norm_from_eigenvalues(
        blocks.reshape(blocks.shape[:-2] + (-1,)), p)
    nu = DepolarizingChannel.unchecked(d, ch.lam)._nu_p_any(p)
    rhs = d ** (1.0 - 1.0 / p) * nu * block_norm
    return InequalityCheck(lhs=lhs, rhs=rhs)


def local_unitary_invariance_check(dep: DepolarizingChannel, psi: Channel,
                                   tau12, u: np.ndarray,
                                   p: float) -> EqualityCheck:
    """|| (Delta (x) Psi) tau12 ||_p is unchanged by a unitary on factor one
    applied before the channel (the depolarizing part commutes with it).

    ``tau12`` is a state or a stack ``(T, d d', d d')``, with one unitary or
    a stack ``(T, d, d)`` of them; for a stack, both norms hold one value
    per state."""
    m, dp = split_dims(dep.dim, tau12)
    split = m.reshape(m.shape[:-2] + (dep.dim, dp, dep.dim, dp))
    rotated = np.einsum("...ai,...ijbl,...cb->...ajcl", u, split, np.conj(u))
    norms = schatten_p_norm(tensor_output(dep, psi, np.stack(
        [m, rotated.reshape(m.shape)])), p)
    return EqualityCheck(value_a=norms[0], value_b=norms[1])


def diagonalize_first_factor(tau12: BipartiteState) -> tuple[BipartiteState, np.ndarray]:
    """Rotate factor one into the eigenbasis of its reduction.

    Returns the rotated state (whose first reduction is diagonal) and the
    unitary that was applied.
    """
    d, dp = tau12.dim1, tau12.dim2
    mat = np.asarray(tau12, dtype=complex)
    tau1 = hermitize(ptrace_matrix(mat, d, dp, keep=1))
    _, vecs = np.linalg.eigh(tau1)
    lift = np.kron(vecs.conj().T, np.eye(dp, dtype=complex))
    rotated = hermitize(lift @ mat @ lift.conj().T)
    return BipartiteState(d, dp, DensityMatrix(rotated)), vecs.conj().T


# ---------------------------------------------------------------------------
# Numeric channel measures
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class NumericMeasure:
    value: float
    maximizer: np.ndarray
    ascent: AscentResult


def pure_output_maps(channel):
    """(outputs, pullback) of a channel on stacks of pure inputs.

    ``outputs(psi)`` gives the Hermitian outputs Psi(psi_r psi_r*) of a stack
    psi of shape (R, d_in), and ``pullback(m, psi)`` the rows
    Psi^dag(m_r) psi_r, the gradient of Re Tr[m_r Psi(psi_r psi_r*)] in the
    conjugate variable. Both act on the whole stack at once, through the
    channel's ``apply_matrix`` and ``adjoint_apply_matrix``.
    """
    def outputs(psi: np.ndarray) -> np.ndarray:
        return hermitize(channel.apply_matrix(psi[:, :, None] * psi[:, None, :].conj()))

    def pullback(m: np.ndarray, psi: np.ndarray) -> np.ndarray:
        return np.einsum("rij,rj->ri", channel.adjoint_apply_matrix(m), psi)

    return outputs, pullback


def pnorm_power_objective(channel, p: float):
    """Objective -S_p(Psi(psi psi*)), the negative Renyi p-entropy
    (p / (p - 1)) ln ||A||_p of the output A, with its gradient, on stacks
    of pure inputs; same maximizer as the output p-norm. At p = 1 it is
    the von Neumann limit, ``neg_entropy_objective``.

    Both are evaluated scale-free, from the spectrum w of A over its top
    eigenvalue m: with S = sum_i (w_i / m)^p >= 1, the value is
    (p / (p - 1)) (ln m + (ln S) / p) and the gradient
    (p / (p - 1)) Psi^dag((A/m)^(p-1)) psi / (m S). Both stay of order one
    at any p > 1: Tr A^p and its gradient p Psi^dag(A^(p-1)) psi fall below
    the ascent's tolerances, or underflow, once p is in the hundreds, and
    the gradient of ln ||A||_p vanishes as p approaches 1."""
    if p == 1.0:
        return neg_entropy_objective(channel)
    outputs, pullback = pure_output_maps(channel)
    scale = p / (p - 1.0)

    def objective(psi: np.ndarray):
        w, u = np.linalg.eigh(outputs(psi))
        top = w[:, -1:]
        x = np.clip(w, 0.0, None) / top
        power_sum = np.sum(x ** p, axis=1, keepdims=True)
        grad = pullback(spectral_function(u, x ** (p - 1.0)), psi)
        values = np.log(top[:, 0]) + np.log(power_sum[:, 0]) / p
        return scale * values, (scale / (top * power_sum)) * grad
    return objective


def neg_entropy_objective(channel):
    """Objective -S(Psi(psi psi*)) with its gradient, on stacks of pure
    inputs."""
    outputs, pullback = pure_output_maps(channel)

    def objective(psi: np.ndarray):
        w, u = np.linalg.eigh(outputs(psi))
        w = np.clip(w, LOG_FLOOR, None)
        grad = pullback(spectral_function(u, np.log(w)), psi)
        return np.sum(w * np.log(w), axis=1), grad
    return objective


def max_output_p_norm(channel, p: float, restarts: int = 64,
                      seed: int = 0) -> NumericMeasure:
    """nu_p of an arbitrary channel by restarts of the quasi-Newton ascent
    over pure inputs (pure inputs suffice by convexity of the p-norm)."""
    if p < 1.0:
        raise ValueError(f"p must be >= 1, got {p}")
    best = maximize_over_pure_states(pnorm_power_objective(channel, p),
                                     channel.dim_in,
                                     restarts=restarts, seed=seed)
    # ||A||_p = exp(-(1 - 1/p) S_p(A)); exactly 1 at p = 1.
    return NumericMeasure(value=math.exp((1.0 - 1.0 / p) * best.value),
                          maximizer=best.state,
                          ascent=best)


def min_output_entropy(channel, restarts: int = 64, seed: int = 0) -> NumericMeasure:
    """Minimal output entropy by maximizing its negative over pure inputs."""
    best = maximize_over_pure_states(neg_entropy_objective(channel),
                                     channel.dim_in,
                                     restarts=restarts, seed=seed)
    return NumericMeasure(value=-best.value, maximizer=best.state, ascent=best)


def multiplicativity_check(dep: DepolarizingChannel, psi: Channel, tau12,
                           p: float, bound: float) -> InequalityCheck:
    """|| (Delta (x) Psi) tau12 ||_p against the product bound
    nu_p(Delta) nu_p(Psi), passed in as ``bound``.

    ``tau12`` is a state or a stack ``(T, d d', d d')`` of states; for a
    stack, lhs holds one norm per state. A product of per-factor maximizers
    in the stack saturates the bound.
    """
    return InequalityCheck(lhs=schatten_p_norm(tensor_output(dep, psi, tau12), p),
                           rhs=bound)
