import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from spinboson.bethe import min_root_distance, root_scale
from spinboson.config import DEFAULT_TOLS
from spinboson.linalg import (
    ConvergenceError,
    jacobi_eigen,
    newton_solve,
    polynomial_roots,
)


def random_symmetric(rng, n):
    a = rng.standard_normal((n, n))
    return (a + a.T) / 2.0


class TestJacobiEigen:
    def test_diagonal(self):
        eig = jacobi_eigen(np.diag([2.0, 3.0]))
        np.testing.assert_allclose(eig.values, [2.0, 3.0])

    def test_swap_matrix(self):
        eig = jacobi_eigen(np.array([[0.0, 1.0], [1.0, 0.0]]))
        np.testing.assert_allclose(eig.values, [-1.0, 1.0])

    def test_rejects_nonsymmetric(self):
        with pytest.raises(ValueError, match="symmetric"):
            jacobi_eigen(np.array([[0.0, 1.0], [0.0, 0.0]]))

    def test_reconstruction_random(self):
        rng = np.random.default_rng(7)
        for n in (3, 10, 50):
            a = random_symmetric(rng, n)
            eig = jacobi_eigen(a)
            recon = eig.vectors @ np.diag(eig.values) @ eig.vectors.T
            assert np.max(np.abs(recon - a)) <= 1e-10 * np.linalg.norm(a)
            ortho = eig.vectors.T @ eig.vectors - np.eye(n)
            assert np.max(np.abs(ortho)) <= 1e-10
            assert np.all(np.diff(eig.values) >= -1e-12)

    def test_matches_reference_solver(self):
        rng = np.random.default_rng(11)
        a = random_symmetric(rng, 20)
        mine = jacobi_eigen(a).values
        ref = np.linalg.eigvalsh(a)
        np.testing.assert_allclose(mine, ref, rtol=1e-10, atol=1e-10)

    def test_eigenvalues_match_characteristic_roots(self):
        # cross-method consistency: characteristic polynomial coefficients via
        # the trace recursion (no eigensolver involved), roots via Aberth
        rng = np.random.default_rng(3)
        a = random_symmetric(rng, 6)
        n = a.shape[0]
        coeffs = np.zeros(n + 1)
        coeffs[n] = 1.0
        m = np.eye(n)
        for k in range(1, n + 1):
            m = a @ m
            c = -np.trace(m) / k
            coeffs[n - k] = c
            m += c * np.eye(n)
        roots = polynomial_roots(coeffs)
        assert np.max(np.abs(roots.imag)) < 1e-7
        np.testing.assert_allclose(np.sort(roots.real), jacobi_eigen(a).values,
                                   rtol=1e-7, atol=1e-7)

    def test_empty_and_single(self):
        eig = jacobi_eigen(np.array([[4.0]]))
        np.testing.assert_allclose(eig.values, [4.0])

    def test_sign_rule(self):
        # largest-magnitude component of every eigenvector is positive
        rng = np.random.default_rng(13)
        for n in (2, 7, 30):
            vectors = jacobi_eigen(random_symmetric(rng, n)).vectors
            lead = vectors[np.argmax(np.abs(vectors), axis=0), np.arange(n)]
            assert np.all(lead > 0.0)

    def test_tolerance_is_live(self):
        # the a-posteriori residual of a non-diagonal matrix is never exactly
        # zero, so tol = 0 must be rejected
        a = random_symmetric(np.random.default_rng(17), 6)
        jacobi_eigen(a)
        with pytest.raises(ConvergenceError):
            jacobi_eigen(a, tol=0.0)


def clustered(roots):
    """The cluster test the solver applies to a root set."""
    return min_root_distance(roots) <= DEFAULT_TOLS.cluster * root_scale(roots)


class TestPolynomialRoots:
    def test_quadratic(self):
        out = polynomial_roots([-1.0, 0.0, 1.0])
        np.testing.assert_allclose(np.sort(out.real), [-1.0, 1.0], atol=1e-10)
        assert not clustered(out)

    def test_double_root_flagged(self):
        out = polynomial_roots([1.0, -2.0, 1.0])  # (z - 1)^2
        np.testing.assert_allclose(out.real, [1.0, 1.0], atol=1e-4)
        assert clustered(out)

    def test_recovers_known_factors(self):
        rng = np.random.default_rng(5)
        true = rng.standard_normal(6) + 1j * rng.standard_normal(6)
        coeffs = np.array([1.0 + 0.0j])
        for root in true:
            shifted = np.concatenate(([0.0 + 0.0j], coeffs))
            shifted[:-1] -= root * coeffs
            coeffs = shifted
        got = polynomial_roots(coeffs)
        order = np.lexsort((true.imag, true.real))
        np.testing.assert_allclose(got, true[order], atol=1e-9)

    def test_zero_polynomial_rejected(self):
        with pytest.raises(ValueError):
            polynomial_roots([0.0, 0.0])

    def test_constant_has_no_roots(self):
        assert polynomial_roots([3.0]).shape == (0,)

    def test_linear(self):
        np.testing.assert_allclose(polynomial_roots([6.0, -2.0]), [3.0])

    def test_rejects_what_is_not_a_row_or_a_stack(self):
        with pytest.raises(ValueError, match="2-D stack"):
            polynomial_roots(np.ones((2, 3, 4)))

    def test_overflowing_evaluation_raises_instead_of_returning_nan(self):
        # the root near -1e300 overflows Horner's evaluation; a residual
        # that is not finite counts as a miss, never as converged
        with np.errstate(all="ignore"), pytest.raises(ConvergenceError):
            polynomial_roots([1e300, 1e300, 1e300, 1.0])


@settings(max_examples=40, deadline=None)
@given(roots=st.lists(
    st.complex_numbers(min_magnitude=0.0, max_magnitude=4.0,
                       allow_nan=False, allow_infinity=False),
    min_size=1, max_size=7))
def test_vieta_relations(roots):
    roots = np.asarray(roots)
    if roots.size > 1:
        diff = np.abs(roots[:, None] - roots[None, :])
        np.fill_diagonal(diff, np.inf)
        # clustered roots are only sqrt(eps)-determined; Vieta at 1e-8 needs
        # separated roots
        if np.min(diff) < 1e-3:
            return
    coeffs = np.array([1.0 + 0.0j])
    for root in roots:
        shifted = np.concatenate(([0.0 + 0.0j], coeffs))
        shifted[:-1] -= root * coeffs
        coeffs = shifted
    got = polynomial_roots(coeffs)
    n = roots.size
    scale = max(1.0, float(np.max(np.abs(roots))) ** n)
    # sum = -c_{n-1}/c_n, product = (-1)^n c_0 / c_n
    assert abs(np.sum(got) + coeffs[-2] / coeffs[-1]) <= 1e-8 * max(
        1.0, abs(coeffs[-2]))
    assert abs(np.prod(got) - (-1) ** n * coeffs[0] / coeffs[-1]) <= 1e-8 * scale


class TestNewtonSolve:
    def test_scalar_quadratic(self):
        out = newton_solve(lambda x: np.array([x[0] ** 2 - 4.0]), np.array([3.0]))
        np.testing.assert_allclose(out, [2.0], atol=1e-9)

    def test_linear_system(self):
        a = np.array([[2.0, 1.0], [1.0, 3.0]])
        b = np.array([3.0, 5.0])
        out = newton_solve(lambda x: a @ x - b, np.zeros(2))
        np.testing.assert_allclose(out, np.linalg.solve(a, b), atol=1e-9)

    def test_singular_jacobian(self):
        with pytest.raises(ConvergenceError):
            newton_solve(lambda x: np.array([x[0] * 0.0 + 1.0]), np.array([1.0]),
                         max_iter=5)

    def test_never_returns_above_tolerance(self):
        # a system with no root: must raise, not return
        with pytest.raises(ConvergenceError):
            newton_solve(lambda x: np.array([x[0] ** 2 + 1.0]), np.array([0.7]),
                         max_iter=10)

    def test_respects_tolerance(self):
        f = lambda x: np.array([np.cos(x[0]) - x[0]])
        out = newton_solve(f, np.array([1.0]), tol=1e-12)
        assert abs(f(out)[0]) <= 1e-12
