"""Convex decomposition of the depolarizing channel into uniform
phase-damping channels.

The construction runs through an intermediate channel Omega that adds back a
fraction of the off-diagonal part,

    Omega_lam(rho) = Delta_lam(rho) + ((1 - lam)/d) (rho - diag(rho)),

and two exact identities:

  * Delta_lam is a weighted combination of Omega_lam and its conjugations by
    powers of the clock unitary G (averaging those conjugations dephases);
  * Omega_lam is the uniform average of 2 d^2 phase-damping channels whose
    bases are {G^k H^a theta}_k for a = 1 .. 2 d^2, where H carries quadratic
    phases and theta is the constant unit vector.

Chaining the two yields 2 d^2 (d + 1) terms, held as arrays: a weight grid
over d + 1 conjugating unitaries (I and the powers of G) by 2 d^2 uniform
damper bases, all at one lam. The weights are nonnegative for lam in
[0, 1]. Each unitary's row is constant, so the superoperator takes one
stacked damper sum per distinct row. For lam < 0 both identities still
hold linearly but some weights go negative; the decomposition is then
flagged as signed rather than convex.
The second identity reduces to a quadruple-index counting problem over
(x, y, u, v) in {1..d}^4, enumerated exhaustively by
:func:`diophantine_solutions`.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from .core import (
    InvalidChannelError,
    LambdaChannel,
    PureState,
    _freeze,
    frobenius_distance,
)
from .depolarizing import DepolarizingChannel
from .phase_damping import DamperStack, damping_lambda_min

WEIGHT_SUM_TOL = 1e-12
CONVEXITY_TOL = 1e-12


def build_g(d: int) -> np.ndarray:
    """Clock unitary G = diag(exp(2 pi i k / d)) for k = 1..d; G^d = I."""
    k = np.arange(1, d + 1)
    return np.diag(np.exp(2j * math.pi * k / d))


def build_h(d: int) -> np.ndarray:
    """Quadratic-phase unitary H = diag(exp(2 pi i k^2 / (2 d^2))), k = 1..d."""
    k = np.arange(1, d + 1)
    return np.diag(np.exp(2j * math.pi * k * k / (2.0 * d * d)))


def theta_state(d: int) -> PureState:
    """The constant unit vector (1, ..., 1)/sqrt(d)."""
    return PureState(np.ones(d, dtype=complex) / math.sqrt(d))


def psi_state(d: int, k: int, a: int) -> PureState:
    """The uniform vector G^k H^a theta; k in 1..d, a in 1..2d^2 (1-based)."""
    if not 1 <= k <= d:
        raise ValueError(f"k must be in 1..{d}, got {k}")
    if not 1 <= a <= 2 * d * d:
        raise ValueError(f"a must be in 1..{2 * d * d}, got {a}")
    g_diag = np.diagonal(build_g(d))
    h_diag = np.diagonal(build_h(d))
    amps = (g_diag ** k) * (h_diag ** a) * np.asarray(theta_state(d))
    return PureState(amps)


def psi_bases(d: int) -> np.ndarray:
    """All 2 d^2 bases as one stack ``(2 d^2, d, d)``; entry a-1 has column
    k-1 equal to psi_{k,a}."""
    k = np.arange(1, d + 1)
    a = np.arange(1, 2 * d * d + 1)[:, None]
    g_diag = np.diagonal(build_g(d))
    h_diag = np.diagonal(build_h(d))
    theta = np.ones(d, dtype=complex) / math.sqrt(d)
    return (g_diag[:, None] ** k) * ((h_diag ** a) * theta)[:, :, None]


# Each dimension's lam-independent structure, built on first use and shared,
# read-only, by every lam.

@functools.cache
def _psi_stack(d: int) -> DamperStack:
    """The checked and vectorized :func:`psi_bases` stack of dimension d."""
    return DamperStack(psi_bases(d))


@functools.cache
def _clock_powers(d: int) -> np.ndarray:
    """The stack ``(d + 1, d, d)`` of G^0 = I, G, ..., G^d."""
    g_diag = np.diagonal(build_g(d))
    return _freeze(np.array([np.diag(g_diag ** k) for k in range(d + 1)]))


@functools.cache
def _clock_conjugation_sum(d: int) -> np.ndarray:
    """sum_k kron(G^k*, G^k^T) over k = 1..d, the superoperator of
    rho -> sum_k (G*)^k rho G^k, summed term by term."""
    return _freeze(conjugation_sum(_clock_powers(d)[1:]))


# ---------------------------------------------------------------------------
# Omega
# ---------------------------------------------------------------------------

class OmegaChannel(LambdaChannel):
    """Intermediate channel Delta_lam + ((1 - lam)/d)(rho - diag rho).

    Trace preserving for every lam; completely positive exactly for
    -1/(d - 1) <= lam <= 1 (it is an average of phase-damping channels).
    """

    lam_min = staticmethod(damping_lambda_min)

    def superoperator(self) -> np.ndarray:
        """S_Delta + ((1 - lam)/d) diag(1 - vec I), in closed form."""
        off = 1.0 - np.eye(self.dim).reshape(-1)
        return (DepolarizingChannel.unchecked(self.dim, self.lam).superoperator()
                + np.diag((1.0 - self.lam) / self.dim * off))


def dephasing_average(d: int, mat: np.ndarray) -> np.ndarray:
    """(1/d) sum_k (G*)^k M G^k; equals diag(M) exactly."""
    g_diag = np.diagonal(build_g(d))
    m = np.asarray(mat, dtype=complex)
    acc = np.zeros_like(m)
    for k in range(1, d + 1):
        phase = g_diag ** k
        acc += np.outer(phase.conj(), phase) * m
    return acc / d


# ---------------------------------------------------------------------------
# The two identities
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class IdentityCheck:
    """Superoperator comparison between a target map and a reconstruction."""

    dim: int
    lam: float
    distance: float
    weights: tuple[float, ...]
    n_terms: int


def mixing_weights(d: int, lam: float) -> tuple[float, float]:
    """Weights (lam d / (1 + (d-1) lam), (1 - lam) / (1 + (d-1) lam)) of the
    Omega-plus-conjugations split; they always sum to 1."""
    denom = 1.0 + (d - 1.0) * lam
    if abs(denom) < 1e-12:
        raise ValueError(f"singular weight denominator at lam = {lam}, dim = {d}")
    return lam * d / denom, (1.0 - lam) / denom


def conjugation_sum(unitaries: np.ndarray) -> np.ndarray:
    """sum_k kron(U_k*, U_k^T) over a stack ``(K, d, d)``: the superoperator
    of rho -> sum_k U_k* rho U_k."""
    d = unitaries.shape[-1]
    return np.einsum("kij,kba->iajb", unitaries.conj(), unitaries).reshape(d * d, d * d)


def omega_split_check(d: int, lam: float) -> IdentityCheck:
    """Check Delta = c0 Omega + c1 (1/d) sum_k (G*)^k Omega(.) G^k."""
    c0, c1 = mixing_weights(d, lam)
    target = DepolarizingChannel.unchecked(d, lam).superoperator()
    s_omega = OmegaChannel.unchecked(d, lam).superoperator()
    recon = c0 * s_omega + (c1 / d) * (_clock_conjugation_sum(d) @ s_omega)
    return IdentityCheck(dim=d, lam=lam,
                         distance=frobenius_distance(target, recon),
                         weights=(c0,) + (c1 / d,) * d, n_terms=d + 1)


def phase_average_check(d: int, lam: float) -> IdentityCheck:
    """Check Omega = (1/(2 d^2)) sum_a Phi^(a) over all 2 d^2 channels."""
    n = 2 * d * d
    target = OmegaChannel.unchecked(d, lam).superoperator()
    recon = _psi_stack(d).superoperator(lam, 1.0 / n)
    return IdentityCheck(dim=d, lam=lam,
                         distance=frobenius_distance(target, recon),
                         weights=(1.0 / n,) * n, n_terms=n)


def averaged_projector_identity_error(d: int, rho) -> float:
    """Entrywise error of (1/(2d)) sum_{a,k} E_{k,a} rho E_{k,a}
    = Tr(rho) I + rho - diag(rho), the pointwise core of the phase-average
    identity."""
    m = np.asarray(rho, dtype=complex)
    acc = np.zeros_like(m)
    for a in range(1, 2 * d * d + 1):
        for k in range(1, d + 1):
            v = np.asarray(psi_state(d, k, a))
            e = np.outer(v, v.conj())
            acc += e @ m @ e
    lhs = acc / (2.0 * d)
    rhs = m.trace() * np.eye(d) + m - np.diag(np.diagonal(m))
    return float(np.max(np.abs(lhs - rhs)))


# ---------------------------------------------------------------------------
# Quadruple-index census behind the phase-average identity
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class DiophantineCensus:
    """Exhaustive enumeration of index quadruples (x, y, u, v) in {1..d}^4
    satisfying both  x + v - y - u in {0, +d, -d}  and
    x^2 + v^2 - y^2 - u^2 = 0 mod 2 d^2."""

    d: int
    solutions: tuple[tuple[int, int, int, int], ...]
    cross_branch_count: int  # solutions with x + v - y - u = +/- d

    @property
    def count(self) -> int:
        return len(self.solutions)

    @property
    def expected_count(self) -> int:
        # |{x=y, u=v}| + |{x=u, y=v}| - |overlap x=y=u=v| = 2 d^2 - d
        return 2 * self.d * self.d - self.d


def diophantine_solutions(d: int) -> DiophantineCensus:
    """Enumerate the census for d <= 16 and certify the solution structure.

    Raises if any solution falls outside the two trivial families
    {x = y, u = v} and {x = u, y = v}; those families are what collapse the
    double phase sum to the dephasing form.
    """
    if d > 16:
        raise ValueError("exhaustive enumeration is limited to d <= 16")
    mod = 2 * d * d
    sols = []
    cross = 0
    for x in range(1, d + 1):
        for y in range(1, d + 1):
            for u in range(1, d + 1):
                for v in range(1, d + 1):
                    lin = x + v - y - u
                    if lin not in (0, d, -d):
                        continue
                    if (x * x + v * v - y * y - u * u) % mod != 0:
                        continue
                    sols.append((x, y, u, v))
                    if lin != 0:
                        cross += 1
                    if not ((x == y and u == v) or (x == u and y == v)):
                        raise AssertionError(
                            f"unexpected quadruple {(x, y, u, v)} at d = {d}")
    return DiophantineCensus(d=d, solutions=tuple(sols), cross_branch_count=cross)


# ---------------------------------------------------------------------------
# Full decomposition
# ---------------------------------------------------------------------------

class ConvexDecomposition:
    """The sum over k, a of w[k, a] U_k^* Phi_a(rho) U_k, where every damper
    Phi_a shares one lam: a weight grid ``weights`` (K, A), K conjugating
    ``unitaries`` (K, d, d) and A damper ``bases`` (A, d, d), so K A terms.

    ``bases`` is a :class:`DamperStack`, or a raw stack that the constructor
    turns into one: each basis must pass the GRAM_TOL orthonormality check,
    and the stack records whether every basis column is uniform within
    UNIFORM_TOL. The weights must sum to 1 regardless of sign (the split is
    always an exact affine identity); ``is_convex`` records whether all
    weights are nonnegative.
    """

    def __init__(self, dim: int, lam: float, weights, unitaries, bases) -> None:
        self.dim = int(dim)
        self.lam = float(lam)
        self.weights = _freeze(np.array(weights, dtype=float))
        self.unitaries = _freeze(np.array(unitaries, dtype=complex))
        self.stack = bases if isinstance(bases, DamperStack) else DamperStack(bases)
        self.bases = self.stack.bases
        if (self.weights.shape != self.unitaries.shape[:1] + self.bases.shape[:1]
                or {self.unitaries.shape[1:], self.bases.shape[1:]} != {(dim, dim)}):
            raise InvalidChannelError(f"weights {self.weights.shape}, unitaries "
                                      f"{self.unitaries.shape}, bases {self.bases.shape}")
        # Term by term in grid order; np.sum pairs the terms and rounds differently.
        self.weight_sum = float(sum(self.weights.flat))
        if abs(self.weight_sum - 1.0) > WEIGHT_SUM_TOL:
            raise ValueError(f"weights sum to {self.weight_sum}, expected 1")
        self.is_convex = bool(np.all(self.weights >= -CONVEXITY_TOL))

    def __len__(self) -> int:
        return self.weights.size

    def all_channels_uniform(self) -> bool:
        return self.stack.uniform

    def superoperator(self) -> np.ndarray:
        """The unitaries whose weight rows are equal share one stacked damper
        sum, in which every term keeps its own weight, basis and lam; the
        sum of their conjugation superoperators kron(U*, U^T) then acts on
        it once (two damper sums in full_decomposition)."""
        groups: dict = {}
        for row, u in zip(self.weights, self.unitaries):
            groups.setdefault(row.tobytes(), (row, []))[1].append(u)
        total = np.zeros((self.dim ** 2,) * 2, dtype=complex)
        for row, us in groups.values():
            total += conjugation_sum(np.array(us)) @ self.stack.superoperator(self.lam, row)
        return total

    def reconstruction_error(self) -> float:
        """Frobenius distance to the depolarizing superoperator."""
        target = DepolarizingChannel.unchecked(self.dim, self.lam).superoperator()
        return frobenius_distance(target, self.superoperator())

    def __repr__(self) -> str:
        return (f"ConvexDecomposition(dim={self.dim}, lam={self.lam}, "
                f"terms={len(self)}, convex={self.is_convex})")


def full_decomposition(d: int, lam: float) -> ConvexDecomposition:
    """Decompose Delta_lam into 2 d^2 (d + 1) conjugated uniform
    phase-damping terms: a (d + 1, 2 d^2) weight grid over the unitaries
    G^0 = I, G, ..., G^d and the 2 d^2 bases of :func:`psi_bases`.

    Row of I: weight lam/((1 + (d-1) lam) 2 d) on each Phi^(a). Rows of
    G^k: weight (1 - lam)/((1 + (d-1) lam) 2 d^3) on each Phi^(a). Convex
    (all weights >= 0) exactly for lam in [0, 1]; outside that the same
    terms form a signed identity and the result is flagged via
    ``is_convex``.
    """
    c0, c1 = mixing_weights(d, lam)
    n = 2 * d * d
    weights = np.full((d + 1, n), c1 / (d * n))
    weights[0] = c0 / n
    return ConvexDecomposition(d, lam, weights, _clock_powers(d), _psi_stack(d))
