"""Maximization of smooth real objectives over pure states.

The search space is the unit sphere in C^d. An objective maps a stack of
unit vectors, one per row, to their values and euclidean gradients; the
ascent projects each gradient onto the tangent space of the sphere, takes an
adaptive step, and renormalizes. Phase invariance of physical objectives
makes the quotient by the global phase harmless. All starts of a multi-start
search advance in lockstep, so one objective call serves every start still
running. Starting points come from independent per-restart generators
spawned off one root seed, so results are reproducible and restarts are
order-independent.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from .core import spawn_rngs

GRAD_TOL = 1e-8
MAX_ITER = 2000
MIN_STEP = 1e-14
# Gains at rounding level would keep a row dithering at the optimum for the
# whole budget; a step is accepted only when it gains more than this.
MIN_GAIN = 1e-15

# Objective callable: stack of unit vectors (R, d) -> (values (R,),
# gradients (R, d)). Gradient row r is the Wirtinger derivative with respect
# to the conjugate variable, so the first order change of row r is
# 2 Re <grad_r, dpsi_r>.
Objective = Callable[[np.ndarray], tuple[np.ndarray, np.ndarray]]


@dataclass(frozen=True)
class AscentResult:
    value: float
    state: np.ndarray
    iterations: int
    grad_norm: float
    converged: bool
    # Why the ascent ended: "grad_tol" (the tangent gradient fell below
    # grad_tol), "line_search" (no step of size >= MIN_STEP gains more than
    # MIN_GAIN) or "max_iter".
    stop: str


def tangent_part(psi: np.ndarray, grad: np.ndarray) -> np.ndarray:
    """Rows of grad projected onto the sphere's tangent spaces at the rows
    of psi."""
    return grad - np.sum(psi.conj() * grad, axis=1, keepdims=True) * psi


def unit_rows(v: np.ndarray) -> np.ndarray:
    return v / np.linalg.norm(v, axis=1, keepdims=True)


def ascend_lockstep(objective: Objective, starts: np.ndarray,
                    max_iter: int = MAX_ITER, grad_tol: float = GRAD_TOL,
                    initial_step: float = 0.5) -> list[AscentResult]:
    """Projected gradient ascent from every row of ``starts`` at once.

    Each row keeps its own step size: it grows by 1.5 (up to 1e3) after an
    accepted move and halves on a rejection. A row stops when its tangent
    gradient norm drops below grad_tol, when its step falls below MIN_STEP
    without an improving candidate, or after max_iter iterations, and
    ``converged`` is set only when the gradient norm is below grad_tol. An
    iteration is one line search; a row's trajectory, iteration count and
    stop do not depend on the other rows. Every round makes one objective
    call on the candidates of the rows still running.
    """
    if max_iter < 1:
        raise ValueError(f"max_iter must be positive, got {max_iter}")
    psi = unit_rows(np.asarray(starts, dtype=complex))
    value, grad = objective(psi)
    value = np.array(value, dtype=float)
    tangent = tangent_part(psi, grad)
    grad_norm = np.linalg.norm(tangent, axis=1)
    step = np.full(len(psi), float(initial_step))
    iterations = np.ones(len(psi), dtype=int)
    stop = np.full(len(psi), "", dtype=object)
    stop[grad_norm < grad_tol] = "grad_tol"
    while True:
        rows = np.flatnonzero(stop == "")
        if rows.size == 0:
            break
        cand = unit_rows(psi[rows] + step[rows, None] * tangent[rows])
        cand_value, cand_grad = objective(cand)
        up = cand_value > value[rows] + MIN_GAIN
        moved, held = rows[up], rows[~up]

        step[held] *= 0.5
        stop[held[step[held] < MIN_STEP]] = "line_search"

        psi[moved], value[moved] = cand[up], cand_value[up]
        tangent[moved] = tangent_part(cand[up], cand_grad[up])
        grad_norm[moved] = np.linalg.norm(tangent[moved], axis=1)
        step[moved] = np.minimum(step[moved] * 1.5, 1e3)
        done = iterations[moved] == max_iter
        stop[moved[done]] = "max_iter"
        moved = moved[~done]
        iterations[moved] += 1
        stop[moved[grad_norm[moved] < grad_tol]] = "grad_tol"
    return [AscentResult(float(value[r]), psi[r], int(iterations[r]),
                         float(grad_norm[r]), bool(grad_norm[r] < grad_tol),
                         stop[r])
            for r in range(len(psi))]


def ascend_on_sphere(objective: Objective, start: np.ndarray,
                     max_iter: int = MAX_ITER, grad_tol: float = GRAD_TOL,
                     initial_step: float = 0.5) -> AscentResult:
    """Projected gradient ascent from one starting vector: a one-row
    ``ascend_lockstep``."""
    start = np.asarray(start, dtype=complex).reshape(1, -1)
    return ascend_lockstep(objective, start, max_iter=max_iter,
                           grad_tol=grad_tol, initial_step=initial_step)[0]


def maximize_over_pure_states(objective: Objective, dim: int,
                              restarts: int = 64, seed: int = 0,
                              max_iter: int = MAX_ITER,
                              grad_tol: float = GRAD_TOL,
                              extra_starts: list[np.ndarray] | None = None
                              ) -> AscentResult:
    """Best ascent outcome over random restarts plus optional warm starts;
    the first start reaching the best value wins ties."""
    if restarts < 1 and not extra_starts:
        raise ValueError("need at least one start")
    starts: list[np.ndarray] = []
    for rng in spawn_rngs(seed, restarts):
        v = rng.standard_normal(dim) + 1j * rng.standard_normal(dim)
        starts.append(v / np.linalg.norm(v))
    if extra_starts:
        starts.extend(np.asarray(s, dtype=complex).reshape(-1) for s in extra_starts)
    results = ascend_lockstep(objective, np.stack(starts), max_iter=max_iter,
                              grad_tol=grad_tol)
    return max(results, key=lambda r: r.value)
