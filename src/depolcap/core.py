"""Core linear algebra and quantum-information primitives.

Complex matrices are plain numpy arrays. The thin wrapper classes below add
validation (Hermiticity, positivity, trace and norm constraints) and freeze
the wrapped buffers so instances are immutable and safe to share. Entropies
are computed in nats throughout; :func:`nats_to_bits` is the one
presentation-layer conversion.

Every channel class shares one protocol. :class:`LinearMap` is the base: a
subclass supplies ``dim_in``, ``dim_out`` and ``superoperator()``, which is
built and frozen on the first action of each instance; ``apply_matrix``
and ``adjoint_apply_matrix`` (on a matrix or a stack) act through it, one
product each, and ``ch(rho)`` (with a dimension check) and ``choi()`` are
inherited. :class:`Channel` is a Kraus channel.
:class:`LambdaChannel` is the base of the one-parameter families on C^dim
(the depolarizing channel, the phase dampers and the intermediate map
Omega): each names its complete-positivity edge ``lam_min(dim)``, the
constructor refuses lam outside [lam_min(dim), 1], and ``unchecked`` builds
the same linear, trace-preserving map without that check; all three are
self-adjoint. :class:`ProductMap` is phi (x) psi acting factor by factor;
``tensor_channel``, its product Kraus set, is only a test reference.
"""

from __future__ import annotations

import math
from typing import Callable, Iterable, Sequence

import numpy as np

# Validation tolerances, sized for double precision at dimensions <= ~64.
TAU_HERM = 1e-12
TAU_TRACE = 1e-10
TAU_TP = 1e-10
TAU_NORM = 1e-12
TAU_PSD = 1e-10

# Support detection for relative entropy: eigenvalues of the reference state
# at or below SUPPORT_EIG_CUTOFF count as null directions; more than
# SUPPORT_MASS_TOL of probability mass there signals a support violation.
SUPPORT_EIG_CUTOFF = 1e-12
SUPPORT_MASS_TOL = 1e-10

LN2 = math.log(2.0)


class InvalidStateError(ValueError):
    """A matrix violates the density-matrix constraints beyond tolerance."""


class InvalidChannelError(ValueError):
    """A Kraus set is not trace preserving, or dimensions do not match."""


class SupportError(ValueError):
    """An operation requires a full-support (strictly positive) state."""


def nats_to_bits(x: float) -> float:
    """Convert an entropy-like value from nats to bits."""
    return x / LN2


def hermitize(a: np.ndarray) -> np.ndarray:
    """Average away the anti-Hermitian rounding residue of a matrix product,
    or of each matrix in a stack."""
    return 0.5 * (a + np.swapaxes(a.conj(), -1, -2))


def herm_defect(a: np.ndarray) -> float:
    """Largest entrywise deviation of ``a``, or of a stack, from its adjoint."""
    return float(np.max(np.abs(a - np.swapaxes(a.conj(), -1, -2))))


def frobenius_distance(a: np.ndarray, b: np.ndarray) -> float:
    return float(np.linalg.norm(np.asarray(a) - np.asarray(b)))


def _freeze(a: np.ndarray) -> np.ndarray:
    a.setflags(write=False)
    return a


def _scalar_or_stack(x):
    """A float for the result on one matrix, the array for a stack."""
    return float(x) if np.ndim(x) == 0 else x


def check_states(m: np.ndarray) -> None:
    """Raise InvalidStateError unless ``m``, or each matrix of a stack, is
    finite, Hermitian, of unit trace and PSD within TAU_HERM, TAU_TRACE,
    TAU_PSD; the spectrum decides PSD only if Cholesky of m + TAU_PSD I fails."""
    if not np.isfinite(m).all():
        raise InvalidStateError("matrix has a non-finite entry")
    defect = herm_defect(m)
    if defect > TAU_HERM:
        raise InvalidStateError(
            f"matrix is not Hermitian: defect {defect:.3e} > {TAU_HERM:.0e}")
    worst = np.max(np.abs(np.trace(m, axis1=-2, axis2=-1) - 1.0))
    if worst > TAU_TRACE:
        raise InvalidStateError(
            f"trace deviates from 1 by {worst:.3e}, beyond {TAU_TRACE:.0e}")
    try:
        np.linalg.cholesky(hermitize(m) + TAU_PSD * np.eye(m.shape[-1]))
    except np.linalg.LinAlgError:
        w = np.linalg.eigvalsh(hermitize(m))[..., 0].min()
        if w < -TAU_PSD:
            raise InvalidStateError(
                f"matrix is not PSD: min eigenvalue {w:.3e} < -{TAU_PSD:.0e}")


# ---------------------------------------------------------------------------
# Value types
# ---------------------------------------------------------------------------

class DensityMatrix:
    """A state: Hermitian, positive semidefinite, unit trace."""

    def __init__(self, matrix) -> None:
        m = np.array(matrix, dtype=complex)
        if m.ndim != 2 or m.shape[0] != m.shape[1] or m.shape[0] < 1:
            raise InvalidStateError(f"expected a square matrix, got shape {m.shape}")
        check_states(m)
        self.matrix = _freeze(m)
        self.dim: int = m.shape[0]

    def __array__(self, dtype=None, copy=None):
        if dtype is not None:
            return self.matrix.astype(dtype)
        return self.matrix

    def eigenvalues(self) -> np.ndarray:
        """Real spectrum, ascending, with tiny negatives clipped to zero."""
        return psd_eigenvalues(self.matrix)

    def __repr__(self) -> str:
        return f"DensityMatrix(dim={self.dim})"


class PureState:
    """A unit vector in C^d."""

    def __init__(self, amplitudes) -> None:
        v = np.array(amplitudes, dtype=complex).reshape(-1)
        if v.size < 1:
            raise InvalidStateError("empty amplitude vector")
        nrm = np.linalg.norm(v)
        if abs(nrm - 1.0) > TAU_NORM:
            raise InvalidStateError(f"norm {nrm} deviates from 1 beyond {TAU_NORM:.0e}")
        self.amplitudes = _freeze(v)
        self.dim: int = v.size

    def __array__(self, dtype=None, copy=None):
        if dtype is not None:
            return self.amplitudes.astype(dtype)
        return self.amplitudes

    def projector(self) -> DensityMatrix:
        return DensityMatrix(np.outer(self.amplitudes, self.amplitudes.conj()))

    def __repr__(self) -> str:
        return f"PureState(dim={self.dim})"


class LinearMap:
    """A linear map on matrices; the protocol every channel class shares.

    Subclasses set ``dim_in``, ``dim_out`` and ``superoperator()``. The map
    and its adjoint act through that matrix, built and frozen on the first
    action of each instance; the action on a state and ``choi()`` follow
    from ``apply_matrix``.
    """

    dim_in: int
    dim_out: int
    _superoperator: np.ndarray | None = None

    def superoperator(self) -> np.ndarray:
        """Matrix of the map on row-major vectorized inputs."""
        raise NotImplementedError

    def _action(self) -> np.ndarray:
        """``superoperator()``, built and frozen on the first call."""
        if self._superoperator is None:
            self._superoperator = _freeze(self.superoperator())
        return self._superoperator

    def apply_matrix(self, mat: np.ndarray) -> np.ndarray:
        """Apply to a matrix or a stack, in one 2-d product; not validated."""
        m = np.asarray(mat)
        out = m.reshape(-1, m.shape[-1] ** 2) @ self._action().T
        return out.reshape(m.shape[:-2] + (self.dim_out, self.dim_out))

    def __call__(self, rho: DensityMatrix) -> DensityMatrix:
        """Apply to a state; the output is validated as a state."""
        mat = np.asarray(rho, dtype=complex)
        if mat.shape[0] != self.dim_in:
            raise InvalidChannelError(
                f"channel expects dim {self.dim_in}, state has dim {mat.shape[0]}")
        return DensityMatrix(hermitize(self.apply_matrix(mat)))

    def choi(self) -> np.ndarray:
        return choi_matrix(self.apply_matrix, self.dim_in)

    def adjoint_apply_matrix(self, mat: np.ndarray) -> np.ndarray:
        """Apply the adjoint (Heisenberg-picture) map likewise."""
        m = np.asarray(mat)
        out = m.reshape(-1, m.shape[-1] ** 2) @ self._action().conj()
        return out.reshape(m.shape[:-2] + (self.dim_in, self.dim_in))


class Channel(LinearMap):
    """A completely positive trace-preserving map in Kraus form.

    Complete positivity is automatic from the Kraus representation; trace
    preservation (sum K_i^dag K_i = I) is checked at construction.
    """

    def __init__(self, kraus_ops: Iterable[np.ndarray]) -> None:
        ops = tuple(np.array(k, dtype=complex) for k in kraus_ops)
        if not ops:
            raise InvalidChannelError("a channel needs at least one Kraus operator")
        shape = ops[0].shape
        if len(shape) != 2 or any(k.shape != shape for k in ops):
            raise InvalidChannelError("Kraus operators must share one 2-d shape")
        dim_out, dim_in = shape
        tp = sum(k.conj().T @ k for k in ops)
        defect = np.max(np.abs(tp - np.eye(dim_in)))
        if defect > TAU_TP:
            raise InvalidChannelError(
                f"Kraus set is not trace preserving: residual {defect:.3e} > {TAU_TP:.0e}")
        self.kraus_ops = tuple(_freeze(k) for k in ops)
        self.dim_in: int = dim_in
        self.dim_out: int = dim_out

    def superoperator(self) -> np.ndarray:
        return kraus_superoperator(self.kraus_ops)

    def __repr__(self) -> str:
        return (f"Channel(dim_in={self.dim_in}, dim_out={self.dim_out}, "
                f"kraus={len(self.kraus_ops)})")


class LambdaChannel(LinearMap):
    """A one-parameter channel family on C^dim, trace preserving for every
    lam and completely positive exactly for lam_min(dim) <= lam <= 1.

    Subclasses set ``lam_min`` and may extend ``_setup`` with their own
    fields and validation; the constructor and ``unchecked`` pass any
    further arguments on to it.
    """

    @staticmethod
    def lam_min(dim: int) -> float:
        raise NotImplementedError

    def __init__(self, dim: int, lam: float, *args, **kwargs) -> None:
        self._setup(dim, lam, *args, **kwargs)
        if not self.in_cp_range(self.dim, self.lam):
            raise InvalidChannelError(
                f"lam {self.lam} outside the CP range "
                f"[{self.lam_min(self.dim)}, 1] for dim {self.dim}")

    @classmethod
    def unchecked(cls, dim: int, lam: float, *args, **kwargs):
        """Build without the CP range check.

        The map stays linear and trace preserving for any lam, which is what
        Choi-negativity witnesses and identity checks on wide lam grids
        need; only complete positivity fails outside the range.
        """
        self = object.__new__(cls)
        self._setup(dim, lam, *args, **kwargs)
        return self

    def _setup(self, dim: int, lam: float) -> None:
        if dim < 2:
            raise InvalidChannelError(f"dim must be >= 2, got {dim}")
        self.dim = self.dim_in = self.dim_out = int(dim)
        self.lam = float(lam)

    @classmethod
    def in_cp_range(cls, dim: int, lam: float) -> bool:
        """Whether lam lies in the closed CP range [lam_min(dim), 1]."""
        return cls.lam_min(dim) <= lam <= 1.0

    @property
    def is_cp(self) -> bool:
        return self.in_cp_range(self.dim, self.lam)

    def adjoint_apply_matrix(self, mat: np.ndarray) -> np.ndarray:
        """The action itself: each family is Hilbert-Schmidt self-adjoint."""
        return self.apply_matrix(mat)

    def __repr__(self) -> str:
        return f"{type(self).__name__}(dim={self.dim}, lam={self.lam})"


class BipartiteState:
    """A state on C^d (x) C^d', tagged with its factor dimensions."""

    def __init__(self, dim1: int, dim2: int, state: DensityMatrix) -> None:
        if not isinstance(state, DensityMatrix):
            state = DensityMatrix(state)
        if dim1 * dim2 != state.dim:
            raise InvalidStateError(
                f"factor dims {dim1}x{dim2} do not match state dim {state.dim}")
        self.dim1 = int(dim1)
        self.dim2 = int(dim2)
        self.state = state

    def __array__(self, dtype=None, copy=None):
        return self.state.__array__(dtype)

    def __repr__(self) -> str:
        return f"BipartiteState(dim1={self.dim1}, dim2={self.dim2})"


# ---------------------------------------------------------------------------
# Spectral primitives
# ---------------------------------------------------------------------------

def psd_eigenvalues(a) -> np.ndarray:
    """Eigenvalues of a Hermitian PSD matrix, or of each one in a stack,
    ascending, clipped at zero.

    Eigenvalues in [-TAU_PSD, 0) are rounding noise and are clipped to 0 so
    they cannot poison logarithms and fractional powers downstream. Anything
    below -TAU_PSD indicates a genuinely invalid input and raises.
    """
    m = np.asarray(a, dtype=complex)
    w = np.linalg.eigvalsh(hermitize(m))
    if w.size and w[..., 0].min() < -TAU_PSD:
        raise InvalidStateError(
            f"matrix is not PSD: min eigenvalue {w[..., 0].min():.3e}")
    return np.clip(w, 0.0, None)


def spectral_function(u: np.ndarray, f: np.ndarray) -> np.ndarray:
    """u diag(f) u^dag for an eigenbasis u, or for each one in a stack."""
    return (u * f[..., None, :]) @ np.swapaxes(u.conj(), -1, -2)


def psd_eigh(a) -> tuple[np.ndarray, np.ndarray]:
    """(eigenvalues, eigenvectors) of a Hermitian PSD matrix, or of each one
    in a stack, with the eigenvalues clipped and checked as in
    ``psd_eigenvalues``."""
    w, u = np.linalg.eigh(hermitize(np.asarray(a, dtype=complex)))
    if w.size and w[..., 0].min() < -TAU_PSD:
        raise InvalidStateError(
            f"matrix is not PSD: min eigenvalue {w[..., 0].min():.3e}")
    return np.clip(w, 0.0, None), u


def matrix_power_psd(a, p: float) -> np.ndarray:
    """A^p for Hermitian PSD A, or each A of a stack, via eigendecomposition,
    eigenvalues clipped at 0."""
    w, u = psd_eigh(a)
    return spectral_function(u, w ** p)


def xlogx_sum(w: np.ndarray):
    """sum_i w_i ln w_i along the last axis, with 0 ln 0 = 0: entries at or
    below zero contribute exactly 0. The one such sum behind every entropy
    value; a gradient that needs ln w at zero floors it itself."""
    return np.sum(np.where(w > 0.0, w * np.log(np.where(w > 0.0, w, 1.0)), 0.0),
                  axis=-1)


def von_neumann_entropy(rho) -> float:
    """Entropy -sum(lam ln lam) of a state, in nats, with 0 ln 0 = 0."""
    return float(-xlogx_sum(psd_eigenvalues(rho)))


def _power_scale(m, p: float):
    """m where m^p would under- or overflow (leave about [1e-200, 1e200]), else 1."""
    m = np.where(m > 0.0, m, 1.0)
    return np.where(p * np.abs(np.log(m)) > 460.0, m, 1.0)


def _p_norm_from_eigenvalues(w: np.ndarray, p):
    """(sum w^p)^(1/p) over the last axis; no domain check, the formula is
    fine for any p > 0. For a grid ``p`` of shape (P,), the norms of each p
    stack along a new leading axis, each row the one that p alone gives.

    Where the largest term m^p would underflow or overflow, the norm is
    taken max-scaled, as m (sum (w/m)^p)^(1/p). Elsewhere the scale is 1
    and the plain sum is computed bit for bit.
    """
    if np.ndim(p):
        return np.stack([_p_norm_from_eigenvalues(w, q) for q in p])
    scale = _power_scale(np.max(w, axis=-1), p)
    return _scalar_or_stack(
        scale * np.sum((w / scale[..., None]) ** p, axis=-1) ** (1.0 / p))


def schatten_p_norm(a, p):
    """(Tr A^p)^(1/p) for PSD A, or each A of a stack, and p >= 1; for a
    grid ``p`` of shape (P,), one row per p from one eigendecomposition."""
    if np.min(p) < 1.0:
        raise ValueError(f"p must be >= 1, got {p}")
    return _p_norm_from_eigenvalues(psd_eigenvalues(a), p)


def relative_entropy(rho, omega):
    """Tr rho (ln rho - ln omega) in nats, for one rho or a stack of them,
    with 0 ln 0 = 0 in Tr rho ln rho.

    Gives math.inf when rho carries more than SUPPORT_MASS_TOL of weight
    outside the support of omega (the divergent case is a distinguished
    value, not an error). Tiny negative results from rounding are clipped
    to zero.
    """
    r = hermitize(np.asarray(rho, dtype=complex))
    mu, u = np.linalg.eigh(hermitize(np.asarray(omega, dtype=complex)))
    if mu[0] < -TAU_PSD:
        raise InvalidStateError(f"reference state is not PSD: {mu[0]:.3e}")
    weights = np.real(np.einsum("ij,...jk,ki->...i", u.conj().T, r, u))
    null = mu <= SUPPORT_EIG_CUTOFF
    cross = -np.sum(weights[..., ~null] * np.log(mu[~null]), axis=-1)
    val = xlogx_sum(psd_eigenvalues(r)) + cross
    val = np.where((-1e-12 < val) & (val < 0.0), 0.0, val)
    val = np.where(np.sum(weights[..., null], axis=-1) > SUPPORT_MASS_TOL,
                   math.inf, val)
    return _scalar_or_stack(val)


# ---------------------------------------------------------------------------
# Composite-system operations
# ---------------------------------------------------------------------------

def ptrace_matrix(mat, dim1: int, dim2: int, keep: int) -> np.ndarray:
    """Partial trace of a (dim1*dim2)-square matrix over one tensor factor.

    ``keep`` selects the factor whose reduced matrix is returned (1 or 2).
    Works on arbitrary matrices, not just states.
    """
    m = np.asarray(mat, dtype=complex).reshape(dim1, dim2, dim1, dim2)
    if keep == 1:
        return np.einsum("ijkj->ik", m)
    if keep == 2:
        return np.einsum("ijil->jl", m)
    raise ValueError(f"keep must be 1 or 2, got {keep}")


def apply_on_factor(action, mat, dim1: int, dim2: int, factor: int) -> np.ndarray:
    """(action (x) id) for ``factor`` 1, (id (x) action) for 2, applied to
    a (dim1*dim2)-square matrix or a stack of them: the factor's axes go
    last, through ``action`` (a map's ``apply_matrix`` or its adjoint), and
    back. An action that changes dimension changes that factor's."""
    if factor not in (1, 2):
        raise ValueError(f"factor must be 1 or 2, got {factor}")
    m = np.asarray(mat, dtype=complex)
    lead = m.shape[:-2]
    # (a, a', b, b') to (a, b, a', b'), acted-on pair last; each self-inverse.
    pairs = m.reshape(lead + (dim1, dim2, dim1, dim2)).swapaxes(-3, -2)
    last = (*range(len(lead)), *((-2, -1, -4, -3) if factor == 1 else (-4, -3, -2, -1)))
    out = action(pairs.transpose(last)).transpose(last).swapaxes(-3, -2)
    return out.reshape(lead + (out.shape[-2] * out.shape[-1],) * 2)


class ProductMap(LinearMap):
    """phi (x) psi, acting factor by factor: psi on factor two, then phi on
    factor one; the adjoint runs phi^dag on factor one, then psi^dag on
    factor two. Products of more factors nest."""

    def __init__(self, phi: LinearMap, psi: LinearMap) -> None:
        self.phi, self.psi = phi, psi
        self.dim_in, self.dim_out = phi.dim_in * psi.dim_in, phi.dim_out * psi.dim_out

    def apply_matrix(self, mat: np.ndarray) -> np.ndarray:
        phi, psi = self.phi, self.psi
        mid = apply_on_factor(psi.apply_matrix, mat, phi.dim_in, psi.dim_in, 2)
        return apply_on_factor(phi.apply_matrix, mid, phi.dim_in, psi.dim_out, 1)

    def adjoint_apply_matrix(self, mat: np.ndarray) -> np.ndarray:
        phi, psi = self.phi, self.psi
        mid = apply_on_factor(phi.adjoint_apply_matrix, mat, phi.dim_out, psi.dim_out, 1)
        return apply_on_factor(psi.adjoint_apply_matrix, mid, phi.dim_in, psi.dim_out, 2)


def tensor_channel(phi: Channel, psi: Channel) -> Channel:
    """Product Kraus set of phi (x) psi: the reference for ProductMap."""
    ops = [np.kron(a, b) for a in phi.kraus_ops for b in psi.kraus_ops]
    return Channel(ops)


# ---------------------------------------------------------------------------
# Superoperator and Choi representations
# ---------------------------------------------------------------------------
# Vectorization is row-major throughout: vec(rho) = rho.reshape(-1), so a map
# rho -> A rho B has superoperator kron(A, B.T).

def kraus_superoperator(kraus_ops: Sequence[np.ndarray]) -> np.ndarray:
    """Superoperator matrix sum_i K_i (x) conj(K_i) of a Kraus set."""
    return sum(np.kron(k, k.conj()) for k in kraus_ops)


def superoperator_from_action(apply_fn: Callable[[np.ndarray], np.ndarray],
                              dim: int) -> np.ndarray:
    """Superoperator of an arbitrary linear map given by its action.

    Columns are the vectorized images of the matrix units, so this works for
    maps that are not completely positive (no Kraus form required). It is
    the generic path, one ``apply_fn`` call per matrix unit, behind
    ``choi_matrix`` and the tests' references; a map that holds its
    superoperator reshuffles it with :func:`choi_from_superoperator`.
    """
    out_dim = np.asarray(apply_fn(np.eye(dim, dtype=complex))).shape[0]
    s = np.zeros((out_dim * out_dim, dim * dim), dtype=complex)
    for i in range(dim):
        for j in range(dim):
            unit = np.zeros((dim, dim), dtype=complex)
            unit[i, j] = 1.0
            s[:, i * dim + j] = np.asarray(apply_fn(unit)).reshape(-1)
    return s


def choi_from_superoperator(s: np.ndarray, dim_in: int) -> np.ndarray:
    """Normalized Choi matrix (1/d) sum_ij fn(E_ij) (x) E_ij of the map
    whose superoperator is ``s``.

    PSD exactly when the map is completely positive; unit trace when it is
    trace preserving. Entry ((a, i), (b, j)) is fn(E_ij)[a, b], which is a
    reshuffle of the superoperator's entry ((a, b), (i, j)).
    """
    out_dim = int(round(math.sqrt(s.shape[0])))
    return (s.reshape(out_dim, out_dim, dim_in, dim_in).transpose(0, 2, 1, 3)
            .reshape(out_dim * dim_in, out_dim * dim_in) / dim_in)


def choi_matrix(apply_fn: Callable[[np.ndarray], np.ndarray], dim: int) -> np.ndarray:
    """Normalized Choi matrix of a linear map given by its action."""
    return choi_from_superoperator(superoperator_from_action(apply_fn, dim), dim)


def min_choi_eigenvalue(apply_fn: Callable[[np.ndarray], np.ndarray], dim: int) -> float:
    """Smallest eigenvalue of the Choi matrix; negative flags a non-CP map."""
    j_mat = choi_matrix(apply_fn, dim)
    return float(np.linalg.eigvalsh(hermitize(j_mat))[0])


# ---------------------------------------------------------------------------
# Random generation (seedable, cross-run stable)
# ---------------------------------------------------------------------------
# All randomness flows through numpy's PCG64 via default_rng, so an integer
# seed reproduces results bit for bit across runs and platforms. A seed is
# an int, a SeedSequence, None, or a Generator, which is used as it is.

def _ginibre(rng: np.random.Generator, rows: int, cols: int,
             lead: tuple = ()) -> np.ndarray:
    """Complex Ginibre matrices of shape ``lead + (rows, cols)`` from one
    draw: each matrix takes its real part, then its imaginary part, so the
    first k matrices of a stack do not depend on its length."""
    z = rng.standard_normal(lead + (2, rows, cols))
    return (z[..., 0, :, :] + 1j * z[..., 1, :, :]) / math.sqrt(2.0)


def random_pure_state(dim: int, seed=None) -> PureState:
    v = _ginibre(np.random.default_rng(seed), dim, 1).reshape(-1)
    return PureState(v / np.linalg.norm(v))


def random_density_matrix(dim: int, seed=None, rank: int | None = None) -> DensityMatrix:
    """Ginibre-induced random state G G^dag / Tr(G G^dag)."""
    rng = np.random.default_rng(seed)
    g = _ginibre(rng, dim, rank if rank is not None else dim)
    m = g @ g.conj().T
    return DensityMatrix(m / m.trace())


def random_psd_matrices(dim: int, seed, lead: tuple) -> np.ndarray:
    """Unnormalized Wishart matrices G G^dag, G complex Ginibre, in a stack
    of shape ``lead + (dim, dim)`` drawn from one generator in one call."""
    g = _ginibre(np.random.default_rng(seed), dim, dim, lead)
    return g @ np.swapaxes(g.conj(), -1, -2)


def random_density_matrices(dim: int, seed, n: int) -> np.ndarray:
    """A stack ``(n, dim, dim)`` of Ginibre-induced states from one
    generator, validated as one stack. Row 0 is ``random_density_matrix(dim,
    seed)``, and row k is the same for every n > k."""
    m = random_psd_matrices(dim, seed, (n,))
    m = m / np.trace(m, axis1=-2, axis2=-1)[:, None, None]
    check_states(m)
    return m


def _phase_fixed_q(g: np.ndarray) -> np.ndarray:
    """Q of the QR decomposition of g, or of each matrix of a stack, with
    the phases of R's diagonal moved into Q: Haar distributed for Ginibre g."""
    q, r = np.linalg.qr(g)
    d = np.diagonal(r, axis1=-2, axis2=-1)
    return q * (d / np.abs(d))[..., None, :]


def random_unitary(dim: int, seed=None) -> np.ndarray:
    """Haar-distributed unitary via QR of a Ginibre matrix with phase fix."""
    return _phase_fixed_q(_ginibre(np.random.default_rng(seed), dim, dim))


def random_unitaries(dim: int, seed, n: int) -> np.ndarray:
    """A stack ``(n, dim, dim)`` of Haar unitaries from one generator, by
    one stacked QR; row 0 is ``random_unitary(dim, seed)``."""
    return _phase_fixed_q(_ginibre(np.random.default_rng(seed), dim, dim, (n,)))


def random_isometry(rows: int, cols: int, seed=None) -> np.ndarray:
    """Haar-distributed isometry (rows x cols, rows >= cols), V^dag V = I."""
    if rows < cols:
        raise ValueError(f"isometry needs rows >= cols, got {rows} < {cols}")
    return _phase_fixed_q(_ginibre(np.random.default_rng(seed), rows, cols))


def random_channel(dim_in: int, dim_out: int, env_dim: int, seed=None) -> Channel:
    """Random channel from a Haar isometry into system (x) environment.

    The isometry V maps C^dim_in into C^(dim_out * env_dim); tracing out the
    environment leaves env_dim Kraus operators K_e with sum K_e^dag K_e = I
    exactly (up to rounding), so the result is CPTP by construction.
    """
    v = random_isometry(dim_out * env_dim, dim_in, seed)
    ops = [v[e::env_dim, :] for e in range(env_dim)]
    return Channel(ops)


def random_bipartite_state(dim1: int, dim2: int, seed=None) -> BipartiteState:
    return BipartiteState(dim1, dim2, random_density_matrix(dim1 * dim2, seed))
