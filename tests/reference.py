"""Reference forms the tests compare the package against.

No command needs these: each is a second, plainer route to a value the
package computes another way (a Kraus form beside a closed-form
superoperator, the mutual information of a prior beside Blahut-Arimoto's
value, an input ensemble beside the optimizer's support arrays), or a
fixture state.
"""

import math

import numpy as np

from depolcap.capacity import ClassicalChannelMatrix
from depolcap.core import (
    Channel,
    DensityMatrix,
    InvalidChannelError,
    PureState,
    hermitize,
    von_neumann_entropy,
)
from depolcap.depolarizing import DepolarizingChannel
from depolcap.phase_damping import PhaseDampingChannel


PROB_SUM_TOL = 1e-12


class Ensemble:
    """Input states with probabilities; the encoder's codebook distribution."""

    def __init__(self, items) -> None:
        pairs = list(items)
        if not pairs:
            raise ValueError("ensemble needs at least one state")
        probs = np.array([float(p) for p, _ in pairs])
        if probs.min() < -PROB_SUM_TOL:
            raise ValueError(f"negative probability {probs.min()}")
        if abs(probs.sum() - 1.0) > PROB_SUM_TOL:
            raise ValueError(f"probabilities sum to {probs.sum()}, expected 1")
        states = []
        for _, rho in pairs:
            states.append(rho if isinstance(rho, DensityMatrix) else DensityMatrix(rho))
        dims = {s.dim for s in states}
        if len(dims) != 1:
            raise ValueError(f"mixed state dimensions {sorted(dims)}")
        self.probs = probs
        self.probs.setflags(write=False)
        self.states = tuple(states)
        self.dim = states[0].dim

    def __len__(self) -> int:
        return len(self.states)

    def average(self) -> DensityMatrix:
        avg = sum(p * np.asarray(s, dtype=complex)
                  for p, s in zip(self.probs, self.states))
        return DensityMatrix(hermitize(avg))

    @classmethod
    def uniform_basis(cls, dim: int) -> "Ensemble":
        items = []
        for i in range(dim):
            e = np.zeros((dim, dim), dtype=complex)
            e[i, i] = 1.0
            items.append((1.0 / dim, DensityMatrix(e)))
        return cls(items)


def basis_state(dim: int, index: int) -> PureState:
    v = np.zeros(dim, dtype=complex)
    v[index] = 1.0
    return PureState(v)


def maximally_mixed(dim: int) -> DensityMatrix:
    return DensityMatrix(np.eye(dim) / dim)


def damper_kraus_channel(ph: PhaseDampingChannel) -> Channel:
    """Kraus form of a phase damper, from powers of its basis-diagonal
    clock unitary.

    With W = U diag(exp(2 pi i j / d)) U^dag, averaging conjugations by
    W^k over k = 1..d dephases in the channel basis, so the Kraus set
    sqrt(lam + (1-lam)/d) I together with sqrt((1-lam)/d) (W*)^k for
    k = 1..d-1 reproduces the channel. The identity weight is nonnegative
    exactly on the CP range, zero up to rounding at its edge.
    """
    d = ph.dim
    if not ph.is_cp:
        raise InvalidChannelError(
            f"no Kraus form: lam {ph.lam} outside the CP range for dim {d}")
    w = (1.0 - ph.lam) / d
    w0 = max(ph.lam + w, 0.0)
    phases = np.exp(2j * math.pi * np.arange(d) / d)
    ops = [math.sqrt(w0) * np.eye(d, dtype=complex)]
    for k in range(1, d):
        clock_k = ph.basis @ np.diag(phases.conj() ** k) @ ph.basis.conj().T
        ops.append(math.sqrt(w) * clock_k)
    return Channel(ops)


def kraus_form(ch) -> Channel:
    """A Kraus channel that acts as ch: ch itself, Delta's Weyl form, or a
    damper's clock form."""
    if isinstance(ch, DepolarizingChannel):
        return ch.kraus_channel()
    if isinstance(ch, PhaseDampingChannel):
        return damper_kraus_channel(ch)
    return ch


def mutual_information(prior, t: ClassicalChannelMatrix) -> float:
    """I(X; Y) in nats of the joint distribution prior_i p_ij."""
    r = np.asarray(prior, dtype=float)
    if abs(r.sum() - 1.0) > PROB_SUM_TOL:
        raise ValueError(f"prior sums to {r.sum()}, expected 1")
    p = t.probs
    q = r @ p
    total = 0.0
    for i in range(t.rows):
        if r[i] <= 0.0:
            continue
        row = p[i]
        mask = row > 0.0
        total += r[i] * float(np.sum(row[mask] * np.log(row[mask] / q[mask])))
    return max(total, 0.0)


def holevo_of_ensemble(channel, ensemble: Ensemble) -> float:
    """S(Psi(rho_bar)) - sum_i pi_i S(Psi(rho_i)); nonnegative by concavity."""
    outs = [hermitize(channel.apply_matrix(np.asarray(s, dtype=complex)))
            for s in ensemble.states]
    avg = sum(p * o for p, o in zip(ensemble.probs, outs))
    value = von_neumann_entropy(avg) - sum(
        p * von_neumann_entropy(o) for p, o in zip(ensemble.probs, outs))
    return max(value, 0.0)


def optimizer_ensemble(result) -> Ensemble:
    """The ensemble a Holevo optimizer result describes: its support states
    with their weights."""
    return Ensemble([(p, PureState(s).projector())
                     for p, s in zip(result.probs, result.states)])
