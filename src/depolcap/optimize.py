"""Maximization of smooth real objectives over pure states.

The search space is the unit sphere in C^d, read as the unit sphere in
R^{2d}. An objective maps a stack of unit vectors, one per row, to their
values and euclidean gradients. The ascent projects each gradient onto the
tangent space of the sphere and takes a Riemannian BFGS step: each row
keeps its own inverse-Hessian approximation, curvature pairs are carried to
the new point by the tangent projection I - x x^T, and a backtracking line
search on the retraction x -> (x + a p)/|x + a p| picks the step length.
A row may also be a point on a product of spheres, one per support state.
Phase invariance of physical objectives makes the quotient by the global
phase harmless. All starts of a multi-start search advance in lockstep, so
one objective call serves every start still running. The random starts of
a search are one Ginibre stack drawn from one generator seeded by the
search's seed, the stacked form of ``core.random_pure_state``: results are
reproducible, and the first k starts are the same for any number of
restarts above k.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from .core import _ginibre

GRAD_TOL = 1e-8
MAX_ITER = 2000
# Each row's inverse-Hessian approximation starts at INITIAL_STEP * I.
INITIAL_STEP = 0.5
MIN_STEP = 1e-14
# Gains at rounding level would keep a row dithering at the optimum for the
# whole budget; a step is accepted when it gains more than this, or, where
# its predicted gain is below the value's resolution MIN_GAIN * max(1,
# |value|), when it holds the value to that resolution and lowers the
# tangent gradient.
MIN_GAIN = 1e-15
# A curvature pair whose s and y are this close to orthogonal is skipped
# along with those of negative curvature: its update would scale the
# inverse Hessian by up to |s| / (|y| cos(s, y)) and, at cosines near
# rounding, leave it indefinite in floating point. Near a nondegenerate
# optimum the cosine stays above about 2 / sqrt(condition number).
MIN_CURVATURE_COS = 1e-6

# Objective callable: stack of unit vectors (R, d) or (R, n, d) -> (values
# (R,), gradients of the same shape). Gradient row r is the Wirtinger
# derivative with respect to the conjugate variable, so the first order
# change of row r is 2 Re <grad_r, dpsi_r>.
Objective = Callable[[np.ndarray], tuple[np.ndarray, np.ndarray]]


@dataclass(frozen=True)
class AscentResult:
    value: float
    state: np.ndarray
    iterations: int
    # The largest tangent-gradient norm over the row's spheres.
    grad_norm: float
    converged: bool
    # Why the ascent ended: "grad_tol" (the tangent gradient fell below
    # grad_tol), "line_search" (the line search ran out: its next step would
    # be shorter than MIN_STEP, or a candidate whose predicted gain was
    # below the value's resolution was rejected) or "max_iter".
    stop: str


def tangent_part(psi: np.ndarray, grad: np.ndarray) -> np.ndarray:
    """Rows of grad projected onto the sphere's tangent spaces at the rows
    of psi, along the last axis."""
    return grad - np.sum(psi.conj() * grad, axis=-1, keepdims=True) * psi


def unit_rows(v: np.ndarray) -> np.ndarray:
    return v / np.linalg.norm(v, axis=-1, keepdims=True)


def _project(x: np.ndarray, v: np.ndarray) -> np.ndarray:
    """Rows of v projected by I - x x^T, with the rows of x read as real
    unit vectors in R^{2d}: v - Re<x, v> x, along the last axis."""
    return v - np.real(np.sum(x.conj() * v, axis=-1, keepdims=True)) * x


def _slope(g: np.ndarray, p: np.ndarray) -> np.ndarray:
    """First-order gain 2 Re<g_r, p_r> of each row per unit step along p,
    for Wirtinger gradient rows g."""
    return 2.0 * np.real(np.sum(g.conj() * p, axis=tuple(range(1, g.ndim))))


def _sphere_norms(t: np.ndarray) -> np.ndarray:
    """The largest norm over each row's spheres."""
    norms = np.linalg.norm(t, axis=-1)
    return norms if norms.ndim == 1 else norms.max(axis=1)


def _real(z: np.ndarray) -> np.ndarray:
    """Complex rows (R, d) or (R, n, d) as flat real rows (R, 2d) or
    (R, 2nd), real and imaginary parts interleaved."""
    return np.ascontiguousarray(z).view(float).reshape(len(z), -1)


def _bfgs_update(inv_hess: np.ndarray, scaled: np.ndarray, rows: np.ndarray,
                 s: np.ndarray, y: np.ndarray) -> None:
    """BFGS update, in place, of the inverse Hessians ``inv_hess[rows]`` by
    the real curvature pairs (s, y) of the negated objective.

    A pair with s.y <= MIN_CURVATURE_COS |s| |y| carries no usable
    positive curvature and is skipped, so every approximation stays
    positive definite. A row's first update starts from (s.y / y.y) I in
    place of its initial matrix.
    """
    sy = np.sum(s * y, axis=1)
    keep = sy > (MIN_CURVATURE_COS * np.linalg.norm(s, axis=1)
                 * np.linalg.norm(y, axis=1))
    rows, s, y, sy = rows[keep], s[keep], y[keep], sy[keep]
    h = inv_hess[rows]
    first = ~scaled[rows]
    if first.any():
        h[first] = (sy[first] / np.sum(y[first] ** 2, axis=1))[:, None, None] \
            * np.eye(s.shape[1])
        scaled[rows] = True
    hy = (h @ y[:, :, None])[:, :, 0]
    rho = 1.0 / sy
    ss = rho * (1.0 + rho * np.sum(y * hy, axis=1))
    inv_hess[rows] = (h - rho[:, None, None] * (s[:, :, None] * hy[:, None, :]
                                                + hy[:, :, None] * s[:, None, :])
                      + ss[:, None, None] * s[:, :, None] * s[:, None, :])


def ascend_lockstep(objective: Objective, starts: np.ndarray,
                    max_iter: int = MAX_ITER,
                    grad_tol: float = GRAD_TOL) -> list[AscentResult]:
    """Riemannian BFGS ascent from every row of ``starts`` at once.

    Each row keeps its own inverse-Hessian approximation H, shape
    (2d, 2d) in real coordinates, starting at INITIAL_STEP * I: the first
    step is INITIAL_STEP times the tangent gradient g, and later ones are
    p = (I - x x^T) H g. A line search tries x + a p for a = 1, 1/2,
    1/4, ... and accepts the first candidate that gains more than MIN_GAIN.
    Once the predicted gain a * 2 Re<g, p> is below the value's resolution
    MIN_GAIN * max(1, |value|), no candidate can show a gain; such a
    candidate is accepted instead when it keeps the value within that
    resolution and has a smaller tangent gradient, so that a row at an
    optimum exact to rounding still reaches grad_tol. The accepted step s
    and the gradient change y (both carried to the new point by I - x x^T)
    update H (see ``_bfgs_update``). A row stops when its tangent gradient
    norm drops below grad_tol, after max_iter iterations, or when its line
    search runs out: a candidate below the resolution was rejected, or the
    next step a |p| would be shorter than MIN_STEP. The step rule stops a
    row whose gradient is wrong; the resolution rule stops a row near an
    optimum after one or two candidates instead of about 25. ``converged``
    is set only when the gradient norm is below grad_tol. An iteration is
    one line search, however many candidates it tries. H is allocated at
    the first accepted step: rows that all start below grad_tol cost one
    objective call.

    Rows of ``starts`` of shape (R, n, d) are points on a product of n
    spheres, one point of R^{2nd} each: normalization and I - x x^T act on
    each sphere, H (2nd, 2nd), the slope and the step length on the whole
    row, and the gradient norm is the largest over the row's spheres.

    The rows are independent: no row's steps read another row's data, and
    every round makes one objective call on the candidates of the rows still
    running. A row ends where a lone ``ascend_on_sphere`` from its start
    would, up to rounding: a stacked objective may round differently with
    the stack height, and near an optimum that can change an iteration
    count or a stop reason.
    """
    if max_iter < 1:
        raise ValueError(f"max_iter must be positive, got {max_iter}")
    psi = unit_rows(np.asarray(starts, dtype=complex))
    n = len(psi)
    value, grad = objective(psi)
    value = np.array(value, dtype=float)
    tangent = tangent_part(psi, grad)
    grad_norm = _sphere_norms(tangent)
    inv_hess = scaled = None
    direction = INITIAL_STEP * tangent
    slope = _slope(tangent, direction)
    alpha = np.ones(n)
    # alpha broadcast over each row's entries; a view, so it follows alpha.
    row_alpha = alpha.reshape((n,) + (1,) * (psi.ndim - 1))
    iterations = np.ones(n, dtype=int)
    stop = np.full(n, "", dtype=object)
    stop[grad_norm < grad_tol] = "grad_tol"
    while True:
        rows = np.flatnonzero(stop == "")
        if rows.size == 0:
            break
        cand = unit_rows(psi[rows] + row_alpha[rows] * direction[rows])
        cand_value, cand_grad = objective(cand)
        cand_tangent = tangent_part(cand, cand_grad)
        cand_norm = _sphere_norms(cand_tangent)
        resolution = MIN_GAIN * np.maximum(1.0, np.abs(value[rows]))
        flat = alpha[rows] * slope[rows] < resolution
        up = ((cand_value > value[rows] + MIN_GAIN)
              | (flat & (cand_value >= value[rows] - resolution)
                 & (cand_norm < grad_norm[rows])))
        moved, held = rows[up], rows[~up]

        if held.size:
            alpha[held] *= 0.5
            short = (alpha[held] * np.linalg.norm(
                direction[held], axis=tuple(range(1, psi.ndim))) < MIN_STEP)
            stop[held[flat[~up] | short]] = "line_search"
        if moved.size == 0:
            continue
        if inv_hess is None:
            inv_hess = np.tile(INITIAL_STEP * np.eye(2 * psi[0].size), (n, 1, 1))
            scaled = np.zeros(n, dtype=bool)

        new, new_tangent = cand[up], cand_tangent[up]
        s = _project(new, row_alpha[moved] * direction[moved])
        y = _project(new, tangent[moved]) - new_tangent
        _bfgs_update(inv_hess, scaled, moved, _real(s), _real(y))
        psi[moved], value[moved], tangent[moved] = new, cand_value[up], new_tangent
        grad_norm[moved] = cand_norm[up]
        step = (inv_hess[moved] @ _real(new_tangent)[:, :, None])[:, :, 0]
        direction[moved] = _project(new, step.view(complex).reshape(new.shape))
        slope[moved] = _slope(new_tangent, direction[moved])
        alpha[moved] = 1.0
        done = iterations[moved] == max_iter
        stop[moved[done]] = "max_iter"
        moved = moved[~done]
        iterations[moved] += 1
        stop[moved[grad_norm[moved] < grad_tol]] = "grad_tol"
    return [AscentResult(float(value[r]), psi[r], int(iterations[r]),
                         float(grad_norm[r]), bool(grad_norm[r] < grad_tol),
                         stop[r])
            for r in range(n)]


def ascend_on_sphere(objective: Objective, start: np.ndarray,
                     max_iter: int = MAX_ITER,
                     grad_tol: float = GRAD_TOL) -> AscentResult:
    """Quasi-Newton ascent from one starting vector: a one-row
    ``ascend_lockstep``."""
    start = np.asarray(start, dtype=complex).reshape(1, -1)
    return ascend_lockstep(objective, start, max_iter=max_iter,
                           grad_tol=grad_tol)[0]


def maximize_over_pure_states(objective: Objective, dim: int,
                              restarts: int = 64, seed: int = 0,
                              max_iter: int = MAX_ITER,
                              extra_starts: list[np.ndarray] | None = None
                              ) -> AscentResult:
    """Best ascent outcome over ``restarts`` random starts, drawn as one
    Ginibre stack from ``np.random.default_rng(seed)``, plus optional warm
    starts; the first start reaching the best value wins ties."""
    if restarts < 1 and not extra_starts:
        raise ValueError("need at least one start")
    starts = [_ginibre(np.random.default_rng(seed), dim, 1, (restarts,))[..., 0]]
    if extra_starts:
        starts.extend(np.asarray(s, dtype=complex).reshape(1, -1) for s in extra_starts)
    results = ascend_lockstep(objective, np.vstack(starts), max_iter=max_iter)
    return max(results, key=lambda r: r.value)
