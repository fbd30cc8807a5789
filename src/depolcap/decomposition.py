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

Chaining the two yields 2 d^2 (d + 1) terms (weight, conjugating unitary,
uniform phase-damping channel) whose weights are nonnegative for lam in
[0, 1]. For lam < 0 both identities still hold linearly but some weights go
negative; the decomposition is then flagged as signed rather than convex.
The second identity reduces to a quadruple-index counting problem over
(x, y, u, v) in {1..d}^4, enumerated exhaustively by
:func:`diophantine_solutions`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .core import (
    LambdaChannel,
    PureState,
    frobenius_distance,
)
from .depolarizing import DepolarizingChannel
from .phase_damping import (
    PhaseDampingChannel,
    damper_superoperator_sum,
    damping_lambda_min,
)

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


def psi_basis(d: int, a: int) -> np.ndarray:
    """Orthonormal basis matrix whose column k-1 is psi_{k,a}.

    Unlike psi_state, the columns are not validated one by one;
    PhaseDampingChannel checks the whole basis against GRAM_TOL.
    """
    if not 1 <= a <= 2 * d * d:
        raise ValueError(f"a must be in 1..{2 * d * d}, got {a}")
    return psi_bases(d)[a - 1]


def psi_bases(d: int) -> np.ndarray:
    """All 2 d^2 bases as one stack ``(2 d^2, d, d)``; entry a-1 has column
    k-1 equal to psi_{k,a}."""
    k = np.arange(1, d + 1)
    a = np.arange(1, 2 * d * d + 1)[:, None]
    g_diag = np.diagonal(build_g(d))
    h_diag = np.diagonal(build_h(d))
    theta = np.ones(d, dtype=complex) / math.sqrt(d)
    return (g_diag[:, None] ** k) * ((h_diag ** a) * theta)[:, :, None]


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

    @property
    def weight_sum(self) -> float:
        return float(sum(self.weights))


def mixing_weights(d: int, lam: float) -> tuple[float, float]:
    """Weights (lam d / (1 + (d-1) lam), (1 - lam) / (1 + (d-1) lam)) of the
    Omega-plus-conjugations split; they always sum to 1."""
    denom = 1.0 + (d - 1.0) * lam
    if abs(denom) < 1e-12:
        raise ValueError(f"singular weight denominator at lam = {lam}, dim = {d}")
    return lam * d / denom, (1.0 - lam) / denom


def conjugation_superoperator(u: np.ndarray, inner: np.ndarray) -> np.ndarray:
    """Superoperator of rho -> U* inner(rho) U for a square matrix U."""
    return np.kron(u.conj(), u.T) @ inner


def omega_split_check(d: int, lam: float) -> IdentityCheck:
    """Check Delta = c0 Omega + c1 (1/d) sum_k (G*)^k Omega(.) G^k."""
    c0, c1 = mixing_weights(d, lam)
    target = DepolarizingChannel.unchecked(d, lam).superoperator()
    s_omega = OmegaChannel.unchecked(d, lam).superoperator()
    g = build_g(d)
    recon = c0 * s_omega
    for k in range(1, d + 1):
        gk = np.diag(np.diagonal(g) ** k)
        recon += (c1 / d) * conjugation_superoperator(gk, s_omega)
    return IdentityCheck(dim=d, lam=lam,
                         distance=frobenius_distance(target, recon),
                         weights=(c0,) + (c1 / d,) * d, n_terms=d + 1)


def phase_average_check(d: int, lam: float) -> IdentityCheck:
    """Check Omega = (1/(2 d^2)) sum_a Phi^(a) over all 2 d^2 channels."""
    n = 2 * d * d
    target = OmegaChannel.unchecked(d, lam).superoperator()
    recon = damper_superoperator_sum(psi_bases(d), lam, 1.0 / n)
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

@dataclass(frozen=True, eq=False)
class DecompositionTerm:
    """One summand: weight * U^* Phi(rho) U."""

    weight: float
    unitary: np.ndarray
    channel: PhaseDampingChannel

    def apply_matrix(self, mat: np.ndarray) -> np.ndarray:
        u = self.unitary
        return u.conj() @ self.channel.apply_matrix(mat) @ u


class ConvexDecomposition:
    """A weighted sum of conjugated uniform phase-damping channels.

    ``is_convex`` records whether all weights are nonnegative; the weight sum
    must equal 1 regardless (the split is always an exact affine identity).
    """

    def __init__(self, dim: int, lam: float, terms: list[DecompositionTerm]) -> None:
        total = sum(t.weight for t in terms)
        if abs(total - 1.0) > WEIGHT_SUM_TOL:
            raise ValueError(f"weights sum to {total}, expected 1")
        self.dim = int(dim)
        self.lam = float(lam)
        self.terms = tuple(terms)

    def __len__(self) -> int:
        return len(self.terms)

    @property
    def weight_sum(self) -> float:
        return float(sum(t.weight for t in self.terms))

    @property
    def is_convex(self) -> bool:
        return all(t.weight >= -CONVEXITY_TOL for t in self.terms)

    def all_channels_uniform(self) -> bool:
        distinct = {id(t.channel): t.channel for t in self.terms}
        return all(ch.is_uniform() for ch in distinct.values())

    def apply_matrix(self, mat: np.ndarray) -> np.ndarray:
        m = np.asarray(mat, dtype=complex)
        return sum(t.weight * t.apply_matrix(m) for t in self.terms)

    def superoperator(self) -> np.ndarray:
        """Terms grouped by the value of their unitary: each group's dampers,
        with their own weights, bases and lams, form one stacked closed form
        that is conjugated once (d + 1 conjugations in full_decomposition)."""
        groups: dict = {}
        for t in self.terms:
            groups.setdefault(t.unitary.tobytes(), []).append(t)
        return sum(conjugation_superoperator(g[0].unitary, damper_superoperator_sum(
            [t.channel.basis for t in g], [t.channel.lam for t in g],
            [t.weight for t in g])) for g in groups.values())

    def reconstruction_error(self) -> float:
        """Frobenius distance to the depolarizing superoperator."""
        target = DepolarizingChannel.unchecked(self.dim, self.lam).superoperator()
        return frobenius_distance(target, self.superoperator())

    def __repr__(self) -> str:
        return (f"ConvexDecomposition(dim={self.dim}, lam={self.lam}, "
                f"terms={len(self.terms)}, convex={self.is_convex})")


def full_decomposition(d: int, lam: float) -> ConvexDecomposition:
    """Decompose Delta_lam into 2 d^2 (d + 1) conjugated uniform
    phase-damping terms.

    First block: weight lam/((1 + (d-1) lam) 2 d) on each unconjugated
    Phi^(a). Second block: weight (1 - lam)/((1 + (d-1) lam) 2 d^3) on each
    G^k-conjugated Phi^(a). Convex (all weights >= 0) exactly for lam in
    [0, 1]; outside that the same terms form a signed identity and the
    result is flagged via ``is_convex``.
    """
    c0, c1 = mixing_weights(d, lam)
    n = 2 * d * d
    channels = [PhaseDampingChannel.unchecked(d, lam, basis=b) for b in psi_bases(d)]
    eye = np.eye(d, dtype=complex)
    g_diag = np.diagonal(build_g(d))
    terms = [DecompositionTerm(c0 / n, eye, ch) for ch in channels]
    for k in range(1, d + 1):
        gk = np.diag(g_diag ** k)
        terms.extend(DecompositionTerm(c1 / (d * n), gk, ch) for ch in channels)
    return ConvexDecomposition(d, lam, terms)
