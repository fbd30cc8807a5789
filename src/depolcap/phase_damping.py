"""Phase-damping channels attached to an orthonormal basis.

Given an orthonormal basis {|b_i>} with projectors E_i = |b_i><b_i|, the
channel acts as

    rho -> lam * rho + (1 - lam) * sum_i E_i rho E_i,

which in its own basis fixes every diagonal entry and scales every
off-diagonal entry by lam. Complete positivity holds exactly for
-1/(d - 1) <= lam <= 1. A vector is called uniform when all its entries
share one modulus 1/sqrt(d); channels whose entire basis is uniform send
the maximally mixed state to itself and give the diagonal-expectation
identity <psi|D|psi> = Tr(D)/d used throughout the decomposition and
capacity machinery.
"""

from __future__ import annotations

import math

import numpy as np

from .core import (
    Channel,
    InvalidChannelError,
    InvalidStateError,
    LambdaChannel,
    PureState,
    _freeze,
)

UNIFORM_TOL = 1e-10
GRAM_TOL = 1e-10


def damping_lambda_min(dim: int) -> float:
    """Lower edge of the complete-positivity range, -1/(d - 1)."""
    return -1.0 / (dim - 1.0)


def is_uniform_vector(v) -> bool:
    """True when all amplitude moduli agree within UNIFORM_TOL."""
    mags = np.abs(np.asarray(v, dtype=complex).reshape(-1))
    return float(mags.max() - mags.min()) < UNIFORM_TOL


def check_orthonormal(bases) -> None:
    """Raise unless a basis, or each of a stack, is orthonormal within GRAM_TOL."""
    b = np.asarray(bases)
    gram_defect = np.max(np.abs(b.conj().swapaxes(-1, -2) @ b - np.eye(b.shape[-1])))
    if gram_defect > GRAM_TOL:
        raise InvalidChannelError(
            f"basis is not orthonormal: Gram defect {gram_defect:.3e}")


def damper_superoperator_sum(bases, lams, weights) -> np.ndarray:
    """sum_t w_t (lam_t I + (1 - lam_t) V_t V_t^dag) over a stack ``(T, d, d)`` of
    orthonormal bases; a scalar lam or weight applies to all. Column i of V_t is
    b_i (x) conj(b_i): row-major, E_i rho E_i is kron(E_i, E_i^T) = v_i v_i^dag."""
    b = np.asarray(bases, dtype=complex)
    check_orthonormal(b)
    t, d = b.shape[0], b.shape[-1]
    lam, w = (np.broadcast_to(np.asarray(x, dtype=float), (t,)) for x in (lams, weights))
    v = (b[:, :, None, :] * b.conj()[:, None, :, :]).reshape(t, d * d, d)
    v = np.moveaxis(v, 0, 1).reshape(d * d, t * d)
    s = (v * np.repeat(w * (1.0 - lam), d)) @ v.conj().T
    s[np.diag_indices_from(s)] += np.sum(w * lam)
    return s


class PhaseDampingChannel(LambdaChannel):
    """Phase damping with parameter lam in the basis given by the columns
    of ``basis`` (computational basis when omitted)."""

    lam_min = staticmethod(damping_lambda_min)

    def _setup(self, dim: int, lam: float, basis=None) -> None:
        super()._setup(dim, lam)
        if basis is None:
            b = np.eye(dim, dtype=complex)
        else:
            if not isinstance(basis, np.ndarray) or basis.ndim != 2:
                basis = np.column_stack([np.asarray(v, dtype=complex).reshape(-1)
                                         for v in basis])
            b = np.array(basis, dtype=complex)
        if b.shape != (dim, dim):
            raise InvalidChannelError(f"basis must be {dim}x{dim}, got {b.shape}")
        check_orthonormal(b)
        self.basis = _freeze(b)

    # -- derived structure --------------------------------------------------

    def projectors(self) -> list[np.ndarray]:
        """Damping projectors E_i = |b_i><b_i|."""
        cols = self.basis.T
        return [np.outer(c, c.conj()) for c in cols]

    @property
    def is_computational_basis(self) -> bool:
        return bool(np.array_equal(self.basis, np.eye(self.dim)))

    def is_uniform(self) -> bool:
        """True when every basis column is a uniform vector."""
        mags = np.abs(self.basis)
        return bool(np.all(mags.max(axis=0) - mags.min(axis=0) < UNIFORM_TOL))

    # -- action ---------------------------------------------------------------

    def superoperator(self) -> np.ndarray:
        """Closed form lam I + (1 - lam) V V^dag, the one-term
        :func:`damper_superoperator_sum`: off-diagonals scaled by lam in the
        channel's own basis, diagonal untouched. The channel acts through
        it, on a matrix or a stack ``(..., d, d)``."""
        return damper_superoperator_sum(self.basis[None], self.lam, 1.0)

    def kraus_channel(self) -> Channel:
        """Kraus form built from powers of the basis-diagonal clock unitary.

        With W = U diag(exp(2 pi i j / d)) U^dag, averaging conjugations by
        W^k over k = 1..d dephases in the channel basis, so the Kraus set
        sqrt(lam + (1-lam)/d) I together with sqrt((1-lam)/d) (W*)^k for
        k = 1..d-1 reproduces the channel. The identity weight is
        nonnegative exactly on the CP range, zero up to rounding at its edge.
        """
        d = self.dim
        if not self.is_cp:
            raise InvalidChannelError(
                f"no Kraus form: lam {self.lam} outside the CP range for dim {d}")
        w = (1.0 - self.lam) / d
        w0 = max(self.lam + w, 0.0)
        phases = np.exp(2j * math.pi * np.arange(d) / d)
        ops = [math.sqrt(w0) * np.eye(d, dtype=complex)]
        for k in range(1, d):
            clock_k = self.basis @ np.diag(phases.conj() ** k) @ self.basis.conj().T
            ops.append(math.sqrt(w) * clock_k)
        return Channel(ops)

    def __repr__(self) -> str:
        tag = "computational" if self.is_computational_basis else "custom"
        return f"PhaseDampingChannel(dim={self.dim}, lam={self.lam}, basis={tag})"


def uniform_diag_expectation(psi: PureState, d_mat) -> complex:
    """<psi|D|psi> for a uniform psi and diagonal D, verified against Tr(D)/d.

    Accepts D as a full diagonal matrix or as its diagonal vector. Raises on
    a non-uniform psi (precondition) and on deviation from Tr(D)/d beyond
    1e-10 (the identity this operation exists to certify).
    """
    v = np.asarray(psi, dtype=complex).reshape(-1)
    if not is_uniform_vector(v):
        raise InvalidStateError("psi is not uniform: amplitude moduli differ")
    d_arr = np.asarray(d_mat, dtype=complex)
    if d_arr.ndim == 2:
        off = d_arr - np.diag(np.diagonal(d_arr))
        if np.max(np.abs(off)) > 1e-12:
            raise ValueError("D must be diagonal")
        diag = np.diagonal(d_arr)
    else:
        diag = d_arr.reshape(-1)
    value = complex(np.sum(np.abs(v) ** 2 * diag))
    expected = complex(np.sum(diag) / v.size)
    if abs(value - expected) > 1e-10:
        raise ArithmeticError(
            f"diagonal expectation {value} deviates from Tr(D)/d = {expected}")
    return value
