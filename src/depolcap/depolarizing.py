"""The d-dimensional depolarizing channel and its closed-form noise measures.

The channel mixes the input with the maximally mixed state,

    rho -> lam * rho + (1 - lam) * I / d,

and is completely positive exactly for -1/(d^2 - 1) <= lam <= 1. Every pure
input is mapped to a state with one eigenvalue lam + (1 - lam)/d and d - 1
eigenvalues (1 - lam)/d, which makes the minimal output entropy, the maximal
output p-norm and the Holevo quantity all available in closed form.
"""

from __future__ import annotations

import math

import numpy as np

from .core import (
    Channel,
    InvalidChannelError,
    LambdaChannel,
    _p_norm_from_eigenvalues,
    min_choi_eigenvalue,
)

DERIVATIVE_STEP = 1e-4


def lambda_min(dim: int) -> float:
    """Lower edge of the complete-positivity range, -1/(d^2 - 1)."""
    return -1.0 / (dim * dim - 1.0)


def shift_matrix(dim: int) -> np.ndarray:
    """Cyclic shift X with X|i> = |i+1 mod d>."""
    x = np.zeros((dim, dim), dtype=complex)
    for i in range(dim):
        x[(i + 1) % dim, i] = 1.0
    return x


def clock_matrix(dim: int) -> np.ndarray:
    """Diagonal phase matrix Z with Z|k> = exp(2 pi i k / d)|k>."""
    return np.diag(np.exp(2j * math.pi * np.arange(dim) / dim))


class DepolarizingChannel(LambdaChannel):
    """Depolarizing channel with mixing parameter lam on C^dim."""

    lam_min = staticmethod(lambda_min)

    def superoperator(self) -> np.ndarray:
        """Matrix of lam*M + (1 - lam) * Tr(M)/d * I on row-major vectorized
        inputs; valid for any lam."""
        d = self.dim
        vec_eye = np.eye(d, dtype=complex).reshape(-1)
        return (self.lam * np.eye(d * d, dtype=complex)
                + (1.0 - self.lam) / d * np.outer(vec_eye, vec_eye))

    def kraus_channel(self) -> Channel:
        """Weyl (generalized Pauli) Kraus form with d^2 operators.

        The identity carries weight lam + (1 - lam)/d^2 and each of the other
        d^2 - 1 shift-clock words X^j Z^k carries (1 - lam)/d^2; the identity
        weight is nonnegative exactly on the CP range, so no Kraus form
        exists outside it. At the lower edge it is zero up to rounding.
        """
        d = self.dim
        if not self.is_cp:
            raise InvalidChannelError(
                f"no Kraus form: lam {self.lam} outside the CP range for dim {d}")
        w = (1.0 - self.lam) / (d * d)
        w0 = max(self.lam + w, 0.0)
        x, z = shift_matrix(d), clock_matrix(d)
        x_pows = [np.linalg.matrix_power(x, j) for j in range(d)]
        z_pows = [np.linalg.matrix_power(z, k) for k in range(d)]
        ops = []
        for j in range(d):
            for k in range(d):
                weight = w0 if (j, k) == (0, 0) else w
                ops.append(math.sqrt(weight) * x_pows[j] @ z_pows[k])
        return Channel(ops)

    # -- closed-form measures ------------------------------------------------

    def pure_output_spectrum(self) -> np.ndarray:
        """Spectrum of the image of any pure state: the distinguished
        eigenvalue lam + (1 - lam)/d first, then (1 - lam)/d repeated d - 1
        times."""
        a = self.lam + (1.0 - self.lam) / self.dim
        b = (1.0 - self.lam) / self.dim
        return np.array([a] + [b] * (self.dim - 1))

    def s_min(self) -> float:
        """Minimal output entropy in nats: -a ln a - (d-1) b ln b."""
        spec = self.pure_output_spectrum()
        nz = spec[spec > 0.0]
        return float(-np.sum(nz * np.log(nz)))

    def nu_p(self, p: float) -> float:
        """Maximal output p-norm (a^p + (d-1) b^p)^(1/p) for p >= 1."""
        if p < 1.0:
            raise ValueError(f"p must be >= 1, got {p}")
        return self._nu_p_any(p)

    def _nu_p_any(self, p: float) -> float:
        # Same formula without the domain guard; the derivative stencil at
        # p = 1 needs an evaluation slightly below 1.
        return _p_norm_from_eigenvalues(self.pure_output_spectrum(), p)

    def nu_p_derivative_at_1(self) -> float:
        """Central finite difference of p -> nu_p at p = 1 (equals -s_min)."""
        h = DERIVATIVE_STEP
        return (self._nu_p_any(1.0 + h) - self._nu_p_any(1.0 - h)) / (2.0 * h)

    def chi_star(self) -> float:
        """Holevo quantity in nats: ln d - s_min, attained by a uniform
        ensemble over any orthonormal basis."""
        return math.log(self.dim) - self.s_min()


def min_choi_eig(dim: int, lam: float) -> float:
    """Smallest Choi eigenvalue of the (possibly non-CP) map; the
    complete-positivity witness used at and beyond the range edges."""
    ch = DepolarizingChannel.unchecked(dim, lam)
    return min_choi_eigenvalue(ch.apply_matrix, dim)
