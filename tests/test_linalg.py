import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from spinboson.bethe import root_scale
from spinboson import linalg
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
        np.testing.assert_allclose(jacobi_eigen(np.diag([2.0, 3.0])), [2.0, 3.0])

    def test_swap_matrix(self):
        values = jacobi_eigen(np.array([[0.0, 1.0], [1.0, 0.0]]))
        np.testing.assert_allclose(values, [-1.0, 1.0])

    def test_rejects_nonsymmetric(self):
        with pytest.raises(ValueError, match="symmetric"):
            jacobi_eigen(np.array([[0.0, 1.0], [0.0, 0.0]]))

    def test_matches_reference_solver(self):
        rng = np.random.default_rng(11)
        a = random_symmetric(rng, 20)
        mine = jacobi_eigen(a)
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
        np.testing.assert_allclose(np.sort(roots.real), jacobi_eigen(a),
                                   rtol=1e-7, atol=1e-7)

    def test_entries_near_the_float_range(self):
        # the squares of 1e200 overflow; the identities are checked on the
        # matrix divided by a power of two, so it passes with no warning
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            values = jacobi_eigen(np.array([[0.0, 1e200], [1e200, 0.0]]))
        np.testing.assert_array_equal(values, [-1e200, 1e200])

    def test_empty_and_single(self):
        assert jacobi_eigen(np.zeros((0, 0))).shape == (0,)
        np.testing.assert_allclose(jacobi_eigen(np.array([[4.0]])), [4.0])

    def test_tolerance_is_live(self):
        # the trace and squared-norm misses of a non-diagonal matrix are never
        # both exactly zero, so tol = 0 must be rejected
        a = random_symmetric(np.random.default_rng(17), 6)
        jacobi_eigen(a)
        with pytest.raises(ConvergenceError):
            jacobi_eigen(a, tol=0.0)

    @pytest.mark.parametrize("shift", [[0.0, 1.0], [1.0, -1.0]],
                             ids=["one", "trace_preserving_pair"])
    def test_shifted_eigenvalues_raise(self, monkeypatch, shift):
        # eigenvalues off by 1e-9 ||A||_F miss the trace identity (one
        # shifted) or the squared-norm identity (a pair shifted apart, the
        # trace kept) far beyond tol = 1e-12
        a = random_symmetric(np.random.default_rng(19), 8)

        def shifted(m):
            values = np.linalg.eigvalsh(m)
            values[[0, -1]] += 1e-9 * np.linalg.norm(m) * np.array(shift)
            return values

        monkeypatch.setattr(linalg, "eigvalsh", shifted)
        with pytest.raises(ConvergenceError):
            jacobi_eigen(a)


    def test_stack_equals_matrix_calls(self):
        rng = np.random.default_rng(23)
        for n in (0, 1, 2, 5, 13):
            stack = np.array([random_symmetric(rng, n) * 10.0 ** k for k in range(-3, 4)])
            values, errors = linalg._eigen_stack(stack, DEFAULT_TOLS.eigen)
            assert values.shape == (7, n)
            assert errors == [None] * 7
            for mat, row in zip(stack, values):
                assert np.array_equal(row, jacobi_eigen(mat))

    def test_stack_raises_the_first_failing_matrix_error(self, monkeypatch):
        # matrices whose (0, 0) entry is nonzero get eigenvalues shifted by
        # it, each missing the trace by its own amount; the core's first
        # error is what the first of them raises alone
        rng = np.random.default_rng(29)
        stack = np.array([random_symmetric(rng, 5) for _ in range(6)])
        stack[:, 0, 0] = [0.0, 0.0, 2.0, 0.0, 3.0, 0.0]

        def shifted(m):
            values = np.linalg.eigvalsh(m)
            values[..., -1] += 1e-6 * m[..., 0, 0]
            return values

        monkeypatch.setattr(linalg, "eigvalsh", shifted)
        with pytest.raises(ConvergenceError) as alone:
            jacobi_eigen(stack[2])
        values, errors = linalg._eigen_stack(stack, DEFAULT_TOLS.eigen)
        first = next(error for error in errors if error is not None)
        assert (type(first), str(first)) == (ConvergenceError, str(alone.value))
        assert np.array_equal(values[[0, 1, 3, 5]],
                              [jacobi_eigen(stack[k]) for k in (0, 1, 3, 5)])

    def test_stack_core_reports_each_failing_matrix_error(self, monkeypatch):
        # one matrix misses the trace, another is not symmetric: the core
        # returns, per matrix, the error a call with that matrix alone
        # raises, and None next to the values of each passing matrix
        rng = np.random.default_rng(37)
        stack = np.array([random_symmetric(rng, 4) for _ in range(5)])
        stack[:, 0, 0] = [0.0, 2.0, 0.0, 0.0, 0.0]
        stack[3, 0, 2] += 1e-6

        def shifted(m):
            values = np.linalg.eigvalsh(m)
            values[..., -1] += 1e-6 * m[..., 0, 0]
            return values

        monkeypatch.setattr(linalg, "eigvalsh", shifted)
        values, errors = linalg._eigen_stack(stack, DEFAULT_TOLS.eigen)
        assert [type(error) for error in errors] == [
            type(None), ConvergenceError, type(None), ValueError, type(None)]
        for mat, row, error in zip(stack, values, errors):
            if error is None:
                assert np.array_equal(row, jacobi_eigen(mat))
            else:
                with pytest.raises(type(error)) as alone:
                    jacobi_eigen(mat)
                assert str(error) == str(alone.value)

    def test_stack_rejects_a_nonsymmetric_matrix(self):
        rng = np.random.default_rng(31)
        stack = np.array([random_symmetric(rng, 4) for _ in range(3)])
        stack[1, 0, 3] += 1e-9
        errors = linalg._eigen_stack(stack, DEFAULT_TOLS.eigen)[1]
        assert [type(error) for error in errors] == [type(None), ValueError, type(None)]
        assert "symmetric" in str(errors[1])
        # a roundoff asymmetry is accepted
        stack[1, 0, 3] = stack[1, 3, 0] * (1 + 1e-15)
        values, errors = linalg._eigen_stack(stack, DEFAULT_TOLS.eigen)
        assert values.shape == (3, 4) and errors == [None] * 3


def min_root_distance(roots):
    """Smallest pairwise distance of one root set (inf below two roots)."""
    gaps = np.abs(roots[:, None] - roots[None, :])
    gaps[np.diag_indices(roots.size)] = np.inf
    return float(gaps.min(initial=np.inf))


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
        # a real polynomial: two real roots and two conjugate pairs
        rng = np.random.default_rng(5)
        pairs = rng.standard_normal(2) + 1j * rng.standard_normal(2)
        true = np.concatenate([rng.standard_normal(2) + 0j, pairs, pairs.conj()])
        coeffs = np.array([1.0])
        for root in true[:2].real:
            coeffs = np.convolve(coeffs, [-root, 1.0])
        for root in pairs:
            coeffs = np.convolve(coeffs, [abs(root) ** 2, -2.0 * root.real, 1.0])
        got = polynomial_roots(coeffs)
        order = np.lexsort((true.imag, true.real))
        np.testing.assert_allclose(got, true[order], atol=1e-9)

    def test_rejects_complex_coefficients(self):
        with pytest.raises(ValueError, match="real"):
            polynomial_roots([1.0 + 1.0j, 0.0, 1.0])

    def test_zero_polynomial_rejected(self):
        with pytest.raises(ValueError):
            polynomial_roots([0.0, 0.0])

    def test_constant_has_no_roots(self):
        assert polynomial_roots([3.0]).shape == (0,)

    def test_linear(self):
        np.testing.assert_allclose(polynomial_roots([6.0, -2.0]), [3.0])

    def test_rejects_what_is_not_a_row(self):
        for coeffs in (3.0, np.ones((2, 3, 4))):
            with pytest.raises(ValueError, match="one row"):
                polynomial_roots(coeffs)

    def test_overflowing_evaluation_raises_instead_of_returning_nan(self):
        # the root near -1e300 overflows Horner's evaluation; a residual
        # that is not finite counts as a miss, never as converged, and the
        # root finder raises no floating-point warning on the way
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ConvergenceError):
                polynomial_roots([1e300, 1e300, 1e300, 1.0])

    def test_an_overflowing_row_leaves_at_once(self, monkeypatch):
        # the iterate of this row turns non-finite at its first step, and a
        # non-finite iterate never turns finite again: one evaluation of p
        # and p', and no second start
        calls = []
        inner = linalg.horner

        def counted(c, z):
            calls.append(z.shape)
            return inner(c, z)

        monkeypatch.setattr(linalg, "horner", counted)
        with pytest.raises(ConvergenceError):
            polynomial_roots([1e300, 1e300, 1e300, 1.0])
        assert len(calls) == 1

    def test_a_dead_row_takes_no_complex_start(self, monkeypatch):
        # a row whose first step leaves the float range is final: it does
        # not start again from the complex eigensolve
        dtypes = []
        inner = linalg._companion_start

        def start(c):
            dtypes.append(c.dtype)
            return inner(c)

        monkeypatch.setattr(linalg, "_companion_start", start)
        with pytest.raises(ConvergenceError):
            polynomial_roots([1e300, 1e300, 1e300, 1.0])
        assert dtypes == [np.dtype(float)]

    @pytest.mark.parametrize("bad", [np.inf, -np.inf, np.nan])
    def test_rejects_non_finite_coefficients(self, bad):
        with pytest.raises(ValueError, match="finite"):
            polynomial_roots([1.0, bad, 1.0])

    @pytest.mark.parametrize("row", [
        # (z - 1)^2 (z - 9.30...): an exact double root
        np.convolve([1.0, -2.0, 1.0], [-9.304156551010252, 1.0]),
        # a twisted row of the acceptance sweep (seed 101): eight real roots
        # between -0.081 and -0.048, too ill-conditioned for the step test,
        # which alone runs it 200 steps from each of its two starts
        np.array([1.9021088073487666e-10, 2.5294963661602987e-08,
                  1.4663655476351507e-06, 4.839792707246264e-05,
                  0.0009946910110867839, 0.01303492693055482,
                  0.10635788140401663, 0.49400863728338623, 1.0]),
    ])
    def test_a_row_at_roundoff_stops_after_two_iterates(self, monkeypatch, row):
        # at roundoff for two successive iterates, a row stops: one
        # evaluation of p and p' at the start and two, with the bound, at
        # each of the two iterates
        calls = []
        inner = linalg.horner

        def counted(c, z):
            calls.append(z.shape)
            return inner(c, z)

        monkeypatch.setattr(linalg, "horner", counted)
        roots, unsettled = linalg._root_stack(row[None].astype(complex),
                                              DEFAULT_TOLS.roots)
        assert not unsettled[0] and len(calls) <= 5
        monkeypatch.undo()
        assert linalg._scaled_residual_rows(row[None], roots)[0] <= 1e-15


@settings(max_examples=40, deadline=None)
@given(
    real=st.lists(st.floats(min_value=-4.0, max_value=4.0), max_size=3),
    pairs=st.lists(
        st.complex_numbers(min_magnitude=0.0, max_magnitude=4.0,
                           allow_nan=False, allow_infinity=False),
        max_size=2))
def test_vieta_relations(real, pairs):
    # a real polynomial: real roots and conjugate pairs
    roots = np.concatenate([np.asarray(real) + 0j, pairs, np.conj(pairs)])
    if roots.size == 0:
        return
    if roots.size > 1:
        diff = np.abs(roots[:, None] - roots[None, :])
        np.fill_diagonal(diff, np.inf)
        # clustered roots are only sqrt(eps)-determined; Vieta at 1e-8 needs
        # separated roots
        if np.min(diff) < 1e-3:
            return
    coeffs = np.array([1.0])
    for root in real:
        coeffs = np.convolve(coeffs, [-root, 1.0])
    for root in pairs:
        coeffs = np.convolve(coeffs, [abs(root) ** 2, -2.0 * root.real, 1.0])
    got = polynomial_roots(coeffs)
    n = roots.size
    scale = max(1.0, float(np.max(np.abs(roots))) ** n)
    # sum = -c_{n-1}/c_n, product = (-1)^n c_0 / c_n
    assert abs(np.sum(got) + coeffs[-2] / coeffs[-1]) <= 1e-8 * max(
        1.0, abs(coeffs[-2]))
    assert abs(np.prod(got) - (-1) ** n * coeffs[0] / coeffs[-1]) <= 1e-8 * scale


class TestNewtonSolve:
    # f takes a (k, n) stack of points and returns their (k, n) values

    def test_scalar_quadratic(self):
        out = newton_solve(lambda z: z ** 2 - 4.0, np.array([3.0]))
        np.testing.assert_allclose(out, [2.0], atol=1e-9)

    def test_linear_system(self):
        a = np.array([[2.0, 1.0], [1.0, 3.0]])
        b = np.array([3.0, 5.0])
        out = newton_solve(lambda z: z @ a.T - b, np.zeros(2))
        np.testing.assert_allclose(out, np.linalg.solve(a, b), atol=1e-9)

    def test_one_step_on_a_linear_map_calls_f_three_times(self):
        # the start, the Jacobian (one stack of n points) and one line-search
        # try, which lands on the root to the Jacobian's rounding error,
        # about eps |f| / h = 1e-8 here: below the tolerance given
        a = np.array([[2.0, 1.0j], [1.0, 3.0]])
        b = np.array([3.0, 5.0 - 1.0j])
        shapes = []

        def f(z):
            shapes.append(z.shape)
            return z @ a.T - b

        out = newton_solve(f, np.zeros(2), tol=1e-6)
        np.testing.assert_allclose(out, np.linalg.solve(a, b), atol=1e-6)
        assert shapes == [(1, 2), (2, 2), (1, 2)]

    def test_singular_jacobian(self):
        with pytest.raises(ConvergenceError, match="singular Jacobian"):
            newton_solve(lambda z: z * 0.0 + 1.0, np.array([1.0]))

    def test_never_returns_above_tolerance(self):
        # z^2 + 1 is real on the real axis, so from a real start every step
        # is real and never reaches +-i: it must raise, not return
        with pytest.raises(ConvergenceError):
            newton_solve(lambda z: z ** 2 + 1.0, np.array([0.7]))

    def test_complex_root_from_complex_start(self):
        out = newton_solve(lambda z: z ** 2 + 1.0, np.array([0.7 + 0.5j]))
        np.testing.assert_allclose(out, [1j], atol=1e-9)

    def test_nan_value_is_no_decrease(self):
        # the full first step lands where f is NaN; the line search halves it
        def f(z):
            return np.where(z.real > 3.0, np.nan, z ** 2 - 1.0)

        out = newton_solve(f, np.array([0.1]))
        np.testing.assert_allclose(out, [1.0], atol=1e-9)

    def test_respects_tolerance(self):
        f = lambda z: np.cos(z) - z
        out = newton_solve(f, np.array([1.0]), tol=1e-12)
        assert abs(f(out[None])[0, 0]) <= 1e-12

    def test_rejects_a_map_of_other_shape(self):
        with pytest.raises(ValueError, match="stack"):
            newton_solve(lambda z: z.sum(axis=1), np.zeros(2))
