import numpy as np
import pytest

from depolcap import capacity
from depolcap.bounds import neg_entropy_objective, pnorm_power_objective
from depolcap.capacity import holevo_quantity, relative_entropy_objective
from depolcap.core import random_channel, random_density_matrix, random_pure_state
from depolcap.depolarizing import DepolarizingChannel
from depolcap.optimize import (
    ascend_lockstep,
    ascend_on_sphere,
    maximize_over_pure_states,
    tangent_part,
)
from depolcap.report import child_seed
from streams import spawn_rngs

VALUE_MATRIX = np.diag([3.0, 2.0, 1.0]).astype(complex)
UNIFORM_START = np.ones(3, dtype=complex) / np.sqrt(3.0)


def quadratic_objective(h):
    """<psi|h|psi> with its exact gradient h psi, row by row."""
    def objective(psi):
        h_psi = psi @ h.T
        return np.real(np.sum(psi.conj() * h_psi, axis=1)), h_psi
    return objective


def random_starts(dim, n, seed):
    starts = [rng.standard_normal(dim) + 1j * rng.standard_normal(dim)
              for rng in spawn_rngs(seed, n)]
    return np.array([s / np.linalg.norm(s) for s in starts])


def test_exact_gradient_converges_to_top_eigenvector():
    result = ascend_on_sphere(quadratic_objective(VALUE_MATRIX), UNIFORM_START,
                              grad_tol=1e-6)
    assert result.converged
    assert result.stop == "grad_tol"
    assert result.grad_norm < 1e-6
    assert abs(result.value - 3.0) < 1e-12


def test_stalled_line_search_with_wrong_gradient_is_not_converged():
    # The gradient belongs to diag(1, 2, 3), not to the value's diag(3, 2, 1):
    # every proposed step lowers the value, the line search stalls at once,
    # and the tangent gradient is far from zero.
    wrong = np.diag([1.0, 2.0, 3.0]).astype(complex)

    def objective(psi):
        return quadratic_objective(VALUE_MATRIX)(psi)[0], psi @ wrong.T

    result = ascend_on_sphere(objective, UNIFORM_START)
    assert result.iterations == 1
    assert result.grad_norm > 0.5
    assert not result.converged
    assert result.stop == "line_search"


def counted(objective):
    """objective, and the list of the first row's values it has returned,
    one entry per call."""
    values = []

    def wrapped(psi):
        value, grad = objective(psi)
        values.append(float(value[0]))
        return value, grad
    return wrapped, values


def test_line_search_that_cannot_gain_stops_at_once():
    # Next to the top eigenvector e_0 the tangent gradient is about 2e-8:
    # above GRAD_TOL, but no step can gain more than the value's distance
    # to the optimum, about 4e-16, less than MIN_GAIN. The predicted gain
    # a * 2 Re<g, p> of the a = 1 candidate is below the value's
    # resolution, so the candidate is accepted for holding the value and
    # lowering the gradient, and the ascent converges in three evaluations
    # where halving a down to MIN_STEP / |p| took about 20.
    start = np.array([1.0, 2e-8, 0.0], dtype=complex)
    objective, values = counted(quadratic_objective(VALUE_MATRIX))
    result = ascend_on_sphere(objective, start)
    assert result.grad_norm < 1e-8
    assert result.stop == "grad_tol" and result.converged
    assert abs(result.value - 3.0) < 1e-15
    assert len(values) <= 3


def test_overshooting_first_step_still_backtracks_and_converges():
    # On 10 diag(3, 2, 1) the first step, half the tangent gradient,
    # carries the start past the optimum and lowers the value; its
    # predicted gain is large, so the search halves a and gains.
    start = np.array([0.1, 1.0, 0.3], dtype=complex)
    objective, values = counted(quadratic_objective(10.0 * VALUE_MATRIX))
    result = ascend_on_sphere(objective, start / np.linalg.norm(start),
                              grad_tol=1e-6)
    assert values[1] < values[0] < values[2]
    assert result.stop == "grad_tol" and result.converged
    assert abs(result.value - 30.0) < 1e-10


@pytest.mark.parametrize("start", [[1.0, 1.0, 1.0], [0.1, 1.0, 1.0],
                                   [0.01, 1.0, 0.01]])
def test_optimum_exact_to_rounding_above_one_converges(start):
    # At value 30 one ulp is 3.6e-15, more than MIN_GAIN: next to the
    # optimum no candidate can show a gain, and these starts used to end
    # "line_search" with tangent gradients of 0.9-2.1e-7. Below the
    # resolution MIN_GAIN * |value| a candidate that holds the value and
    # lowers the gradient is accepted.
    start = np.asarray(start, dtype=complex)
    result = ascend_on_sphere(quadratic_objective(10.0 * VALUE_MATRIX),
                              start / np.linalg.norm(start))
    assert result.stop == "grad_tol" and result.converged
    assert abs(result.value - 30.0) < 1e-13


def test_flat_candidate_that_keeps_the_gradient_ends_the_search():
    # The gradient belongs to diag(1, 2, 3), so next to e_0 its tangent
    # part t e_1 points away from the value's optimum. The first candidate
    # holds the value to within the resolution but raises the tangent
    # gradient to 1.5 t: it is rejected, and as its predicted gain was
    # already below the resolution, the search ends there instead of
    # halving a down to MIN_STEP / |p| (about 20 evaluations).
    wrong = np.diag([1.0, 2.0, 3.0]).astype(complex)

    def objective(psi):
        return quadratic_objective(VALUE_MATRIX)(psi)[0], psi @ wrong.T

    counted_objective, values = counted(objective)
    start = np.array([1.0, 3e-8, 0.0], dtype=complex)
    result = ascend_on_sphere(counted_objective, start)
    assert result.stop == "line_search" and not result.converged
    assert result.grad_norm > 2e-8
    assert len(values) <= 2


def test_iteration_budget_is_reported_as_max_iter():
    result = ascend_on_sphere(quadratic_objective(VALUE_MATRIX), UNIFORM_START,
                              max_iter=1)
    assert result.iterations == 1
    assert result.stop == "max_iter"
    assert not result.converged


def _reference_outputs(channel, psi):
    return [channel.apply_matrix(np.outer(v, v.conj())) for v in psi]


def _spectral(a, f):
    w, u = np.linalg.eigh(0.5 * (a + a.conj().T))
    return w, (u * f(w)) @ u.conj().T


def _relative_entropy_rows(channel, sigma, psi, floor=1e-18):
    _, log_sigma = _spectral(sigma, lambda w: np.log(np.clip(w, floor, None)))
    rows = []
    for v, a in zip(psi, _reference_outputs(channel, psi)):
        w, log_a = _spectral(a, lambda w: np.log(np.clip(w, floor, None)))
        w = np.clip(w, 0.0, None)
        own = np.sum(np.where(w > floor, w * np.log(np.clip(w, floor, None)), 0.0))
        value = own - np.real(np.trace(a @ log_sigma))
        rows.append((value, channel.adjoint_apply_matrix(log_a - log_sigma) @ v))
    return rows


def _pnorm_rows(channel, p, psi):
    # -S_p(A) = ln(Tr A^p) / (p - 1), with gradient
    # p Psi^dag(A^(p-1)) psi / ((p - 1) Tr A^p).
    rows = []
    for v, a in zip(psi, _reference_outputs(channel, psi)):
        w, a_pm1 = _spectral(a, lambda w: np.clip(w, 0.0, None) ** (p - 1.0))
        trace = np.sum(np.clip(w, 0.0, None) ** p)
        rows.append((np.log(trace) / (p - 1.0),
                     p * channel.adjoint_apply_matrix(a_pm1) @ v
                     / ((p - 1.0) * trace)))
    return rows


def _neg_entropy_rows(channel, psi, floor=1e-18):
    rows = []
    for v, a in zip(psi, _reference_outputs(channel, psi)):
        w, log_a = _spectral(a, lambda w: np.log(np.clip(w, floor, None)))
        w = np.clip(w, floor, None)
        rows.append((np.sum(w * np.log(w)), channel.adjoint_apply_matrix(log_a) @ v))
    return rows


@pytest.mark.parametrize("dim", [2, 3, 4])
@pytest.mark.parametrize("kind", ["relative_entropy", "pnorm", "neg_entropy"])
def test_batched_objective_matches_row_by_row_kraus_form(dim, kind):
    # Output dimension 3 with a 3-dim environment: full-rank outputs, and
    # input and output dimensions differ for d = 2 and 4.
    channel = random_channel(dim, 3, 3, seed=40 + dim)
    psi = random_starts(dim, 5, seed=dim)
    if kind == "relative_entropy":
        sigma = np.asarray(random_density_matrix(3, seed=dim))
        objective = relative_entropy_objective(channel, sigma)
        reference = _relative_entropy_rows(channel, sigma, psi)
    elif kind == "pnorm":
        objective = pnorm_power_objective(channel, 1.5)
        reference = _pnorm_rows(channel, 1.5, psi)
    else:
        objective = neg_entropy_objective(channel)
        reference = _neg_entropy_rows(channel, psi)
    values, grads = objective(psi)
    assert values.shape == (5,) and grads.shape == (5, dim)
    for value, grad, (ref_value, ref_grad) in zip(values, grads, reference):
        assert abs(value - ref_value) <= 1e-12
        assert np.max(np.abs(grad - ref_grad)) <= 1e-12


def test_lockstep_rows_match_single_ascents():
    rng = np.random.default_rng(5)
    g = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
    h = g + g.conj().T
    objective = quadratic_objective(h)
    starts = random_starts(4, 6, seed=9)
    batched = ascend_lockstep(objective, starts, grad_tol=1e-6)
    for start, row in zip(starts, batched):
        alone = ascend_on_sphere(objective, start, grad_tol=1e-6)
        assert row.iterations == alone.iterations
        assert row.stop == alone.stop == "grad_tol"
        assert abs(row.value - alone.value) <= 1e-12
    assert max(r.value for r in batched) == pytest.approx(np.linalg.eigvalsh(h)[-1],
                                                          abs=1e-10)


def test_maximize_returns_first_of_tied_maxima():
    # |psi_0|^2: e_1 is a critical point of value 0, and e_0 and i e_0 both
    # reach the maximum 1 exactly, with a zero tangent gradient.
    def objective(psi):
        grad = np.zeros_like(psi)
        grad[:, 0] = psi[:, 0]
        return np.abs(psi[:, 0]) ** 2, grad

    e0, e1 = np.eye(3, dtype=complex)[:2]
    best = maximize_over_pure_states(objective, 3, restarts=0,
                                     extra_starts=[e1, 1j * e0, e0])
    assert best.value == 1.0
    assert np.array_equal(best.state, 1j * e0)


def search_starts(dim, restarts, seed):
    """The random starts of one maximize_over_pure_states search, as its
    first objective call sees them."""
    seen = []

    def objective(psi):
        seen.append(psi.copy())
        return np.zeros(len(psi)), np.zeros_like(psi)

    maximize_over_pure_states(objective, dim, restarts=restarts, seed=seed)
    return seen[0]


@pytest.mark.parametrize("dim", [2, 3, 6])
def test_first_start_is_the_seeds_random_pure_state(dim):
    # The starts are one Ginibre stack, the stacked form of
    # random_pure_state, so start 0 is that state up to normalization.
    starts = search_starts(dim, 8, seed=17 + dim)
    assert np.allclose(starts[0], np.asarray(random_pure_state(dim, 17 + dim)),
                       rtol=0.0, atol=1e-15)
    assert np.allclose(np.linalg.norm(starts, axis=1), 1.0, rtol=0.0, atol=1e-15)


def test_first_starts_do_not_depend_on_the_restart_count():
    few = search_starts(4, 3, seed=11)
    many = search_starts(4, 32, seed=11)
    assert np.array_equal(few, many[:3])
    assert np.array_equal(many, search_starts(4, 32, seed=11))
    assert not np.allclose(many, search_starts(4, 32, seed=12))


def test_one_generator_per_search(monkeypatch):
    # Every search draws its starts from one generator; holevo_quantity
    # adds one for its initial support. One generator per start made 8 or
    # 32 per search.
    made, searches = [], []
    inner_rng, inner_search = np.random.default_rng, capacity.maximize_over_pure_states

    def counted_rng(*args, **kwargs):
        made.append(1)
        return inner_rng(*args, **kwargs)

    def counted_search(*args, **kwargs):
        searches.append(kwargs["restarts"])
        return inner_search(*args, **kwargs)

    monkeypatch.setattr(np.random, "default_rng", counted_rng)
    monkeypatch.setattr(capacity, "maximize_over_pure_states", counted_search)
    holevo_quantity(DepolarizingChannel(6, 0.5), seed=0)
    assert searches and sum(searches) > len(searches)
    assert len(made) == len(searches) + 1


def test_spawned_streams_are_independent():
    rngs = spawn_rngs(99, 3)
    draws = [r.standard_normal(4) for r in rngs]
    assert not np.allclose(draws[0], draws[1])
    again = spawn_rngs(99, 3)
    assert np.array_equal(draws[2], again[2].standard_normal(4))


def test_lockstep_values_match_lone_runs_to_rounding():
    # A stacked objective may round differently with the stack height, so
    # an iteration count or a stop reason may differ from a lone run; the
    # values may not.
    channel = random_channel(3, 3, 2, seed=1)
    sigma = np.asarray(channel(random_density_matrix(3, seed=2)))
    objective = relative_entropy_objective(channel, sigma)
    starts = random_starts(3, 13, seed=3)
    batched = ascend_lockstep(objective, starts)
    alone = [ascend_on_sphere(objective, start) for start in starts]
    for row, lone in zip(batched, alone):
        assert abs(row.value - lone.value) <= 1e-12
    assert abs(max(r.value for r in batched)
               - max(r.value for r in alone)) <= 1e-12


def test_one_sphere_products_ascend_like_plain_rows():
    # Rows of shape (1, d) are products of one sphere: the same ascent,
    # bit for bit, as the plain (d,) rows.
    channel = random_channel(3, 3, 2, seed=1)
    sigma = np.asarray(channel(random_density_matrix(3, seed=2)))
    objective = relative_entropy_objective(channel, sigma)

    def nested(psi):
        values, grads = objective(psi[:, 0])
        return values, grads[:, None]

    starts = random_starts(3, 13, seed=3)
    plain = ascend_lockstep(objective, starts)
    products = ascend_lockstep(nested, starts[:, None])
    for row, product in zip(plain, products):
        assert product.value == row.value
        assert np.array_equal(product.state, row.state[None])
        assert product.iterations == row.iterations
        assert product.stop == row.stop
        assert product.grad_norm == row.grad_norm


def separable_objective(hs):
    """sum_i <psi_i|h_i|psi_i> on rows (R, n, d), with gradient h_i psi_i
    on sphere i."""
    def objective(psi):
        h_psi = np.einsum("ijk,rik->rij", hs, psi)
        return np.real(np.sum(psi.conj() * h_psi, axis=(1, 2))), h_psi
    return objective


def random_hermitian_stack(n, dim, seed):
    rng = np.random.default_rng(seed)
    g = rng.standard_normal((n, dim, dim)) + 1j * rng.standard_normal((n, dim, dim))
    return g + np.swapaxes(g.conj(), 1, 2)


def test_product_of_spheres_reaches_the_sum_of_top_eigenvalues():
    hs = random_hermitian_stack(4, 3, seed=6)
    objective = separable_objective(hs)
    starts = np.stack([random_starts(3, 4, seed=10 + r) for r in range(3)])
    top = np.linalg.eigvalsh(hs)[:, -1].sum()
    for row in ascend_lockstep(objective, starts):
        assert row.state.shape == (4, 3)
        assert row.stop == "grad_tol" and row.converged
        assert abs(row.value - top) <= 1e-12


def test_product_row_grad_norm_is_the_largest_sphere_norm():
    # Two steps leave every sphere's tangent gradient far from zero; the
    # row reports the largest of them, not the norm of the whole row.
    hs = random_hermitian_stack(4, 3, seed=6)
    objective = separable_objective(hs)
    row = ascend_lockstep(objective, random_starts(3, 4, seed=10)[None],
                          max_iter=2)[0]
    assert row.stop == "max_iter"
    sphere_norms = np.linalg.norm(tangent_part(row.state, objective(
        row.state[None])[1][0]), axis=1)
    assert row.grad_norm == pytest.approx(sphere_norms.max(), rel=1e-12)
    assert row.grad_norm < np.linalg.norm(sphere_norms)


def test_product_row_stops_when_every_sphere_is_below_grad_tol():
    # Each of four spheres starts 7e-9 off the top eigenvector of
    # diag(3, 2, 1), a tangent gradient of 7e-9 per sphere and 1.4e-8 for
    # the whole row: the row has converged at its start.
    start = np.array([1.0, 7e-9, 0.0], dtype=complex)
    objective, values = counted(separable_objective(np.stack([VALUE_MATRIX] * 4)))
    row = ascend_lockstep(objective, np.tile(start, (1, 4, 1)))[0]
    assert row.stop == "grad_tol" and row.converged
    assert row.iterations == 1 and len(values) == 1
    assert 5e-9 < row.grad_norm < 1e-8


def test_witness_search_on_the_verify_qutrit_partner():
    # The witness search of a default verify's qutrit partner, at the
    # average output the Holevo optimizer settles on. The gradient ascent
    # this step replaced needed up to 240 iterations per row here. The
    # best value is frozen at the optimizer's current average output; at
    # the one it settled on before the BFGS joint support step it was
    # 0.8378048676404893.
    partner = random_channel(3, 3, 2, seed=child_seed(0, 2, 1))
    sigma = np.asarray(holevo_quantity(partner, seed=child_seed(0, 7, 1))
                       .average_output)
    objective = relative_entropy_objective(partner, sigma)
    rows = ascend_lockstep(objective, random_starts(3, 13, seed=5))
    assert max(r.iterations for r in rows) <= 60
    assert abs(max(r.value for r in rows) - 0.8378048351582997) <= 1e-12


@pytest.mark.parametrize("start", [[1e-4, 1.0, 1e-4], [1e-3, 1.0, 0.0]],
                         ids=["flat-pair", "negative-pair"])
def test_start_near_a_saddle_reaches_the_top_eigenvalue(start):
    # Next to e_1, the middle eigenvector of diag(3, 2, 1), the value
    # curves up toward e_0 and down toward e_2. A first step toward e_0
    # alone gives a pair with s.y < 0; equal parts of both cancel to
    # s.y ~ 1e-8 |s| |y|. Both updates must be skipped for the ascent to
    # leave the saddle.
    result = ascend_on_sphere(quadratic_objective(VALUE_MATRIX),
                              np.asarray(start, dtype=complex))
    assert abs(result.value - 3.0) < 1e-12
    assert result.grad_norm < 1e-7
