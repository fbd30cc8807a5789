"""Maximization of smooth real objectives over pure states.

The search space is the unit sphere in C^d. Objectives are supplied as a
callable returning (value, euclidean_gradient); the ascent projects the
gradient onto the tangent space of the sphere, takes an adaptive step, and
renormalizes. Phase invariance of physical objectives makes the quotient by
the global phase harmless. Multi-start wrappers draw starting points from
independent per-restart generators spawned off one root seed, so results are
reproducible and restarts are order-independent.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from .core import spawn_rngs

GRAD_TOL = 1e-8
MAX_ITER = 2000

# Objective callable: unit vector -> (value, gradient). The gradient is the
# Wirtinger derivative with respect to the conjugate variable, so the first
# order change is 2 Re <grad, dpsi>.
Objective = Callable[[np.ndarray], tuple[float, np.ndarray]]


@dataclass(frozen=True)
class AscentResult:
    value: float
    state: np.ndarray
    iterations: int
    grad_norm: float
    converged: bool


def ascend_on_sphere(objective: Objective, start: np.ndarray,
                     max_iter: int = MAX_ITER, grad_tol: float = GRAD_TOL,
                     initial_step: float = 0.5) -> AscentResult:
    """Projected gradient ascent from one starting vector.

    The step size grows after accepted moves and halves on rejections;
    the run stops when the tangent gradient norm drops below grad_tol,
    when no improving step of size >= 1e-14 exists, or at max_iter.
    ``converged`` is set only when the gradient norm is below grad_tol.
    """
    psi = np.asarray(start, dtype=complex).reshape(-1)
    psi = psi / np.linalg.norm(psi)
    value, grad = objective(psi)
    step = initial_step
    grad_norm = np.inf
    for iteration in range(1, max_iter + 1):
        tangent = grad - np.vdot(psi, grad) * psi
        grad_norm = float(np.linalg.norm(tangent))
        if grad_norm < grad_tol:
            return AscentResult(value, psi, iteration, grad_norm, True)
        moved = False
        while step >= 1e-14:
            candidate = psi + step * tangent
            candidate = candidate / np.linalg.norm(candidate)
            cand_value, cand_grad = objective(candidate)
            # Gains at rounding level would keep the loop dithering at the
            # optimum for the whole budget; demand a real improvement.
            if cand_value > value + 1e-15:
                psi, value, grad = candidate, cand_value, cand_grad
                step = min(step * 1.5, 1e3)
                moved = True
                break
            step *= 0.5
        if not moved:
            # No improving step within line-search resolution: a stationary
            # point only if the gradient agrees.
            return AscentResult(value, psi, iteration, grad_norm,
                                grad_norm < grad_tol)
    return AscentResult(value, psi, max_iter, grad_norm, False)


def maximize_over_pure_states(objective: Objective, dim: int,
                              restarts: int = 64, seed: int = 0,
                              max_iter: int = MAX_ITER,
                              grad_tol: float = GRAD_TOL,
                              extra_starts: list[np.ndarray] | None = None
                              ) -> AscentResult:
    """Best ascent outcome over random restarts plus optional warm starts."""
    if restarts < 1 and not extra_starts:
        raise ValueError("need at least one start")
    starts: list[np.ndarray] = []
    for rng in spawn_rngs(seed, restarts):
        v = rng.standard_normal(dim) + 1j * rng.standard_normal(dim)
        starts.append(v / np.linalg.norm(v))
    if extra_starts:
        starts.extend(np.asarray(s, dtype=complex).reshape(-1) for s in extra_starts)
    best: AscentResult | None = None
    for start in starts:
        result = ascend_on_sphere(objective, start, max_iter=max_iter,
                                  grad_tol=grad_tol)
        if best is None or result.value > best.value:
            best = result
    assert best is not None
    return best
