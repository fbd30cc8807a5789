import numpy as np

from depolcap.optimize import ascend_on_sphere

VALUE_MATRIX = np.diag([3.0, 2.0, 1.0]).astype(complex)
UNIFORM_START = np.ones(3, dtype=complex) / np.sqrt(3.0)


def test_exact_gradient_converges_to_top_eigenvector():
    def objective(psi):
        h_psi = VALUE_MATRIX @ psi
        return float(np.real(np.vdot(psi, h_psi))), h_psi

    result = ascend_on_sphere(objective, UNIFORM_START, grad_tol=1e-6)
    assert result.converged
    assert result.grad_norm < 1e-6
    assert abs(result.value - 3.0) < 1e-12


def test_stalled_line_search_with_wrong_gradient_is_not_converged():
    # The gradient belongs to diag(1, 2, 3), not to the value's diag(3, 2, 1):
    # every proposed step lowers the value, the line search stalls at once,
    # and the tangent gradient is far from zero.
    wrong = np.diag([1.0, 2.0, 3.0]).astype(complex)

    def objective(psi):
        return float(np.real(np.vdot(psi, VALUE_MATRIX @ psi))), wrong @ psi

    result = ascend_on_sphere(objective, UNIFORM_START)
    assert result.iterations == 1
    assert result.grad_norm > 0.5
    assert not result.converged
