"""Dense numerics: symmetric eigenvalues (LAPACK via numpy.linalg.eigvalsh),
Aberth-Ehrlich root polish from companion-matrix eigenvalues, one stacked
Horner evaluation, damped Newton with a forward-difference Jacobian.

Each public routine takes one item (jacobi_eigen one square matrix,
polynomial_roots one coefficient row), checks its own result against a
tolerance, defaulting to the values in config.DEFAULT_TOLS, and raises
ConvergenceError when it misses.  Both are thin raising wrappers of private
stacked cores (_eigen_stack, _root_stack) that return, next to the result,
each matrix's error or each row's failure to settle: the solver, which
solves many sectors at once, calls the cores and reads every sector's
outcome from one call.  The root core shares one companion eigensolve per
kind of row and one Aberth loop, and each row comes out exactly as it would
alone.  A row leaves the loop when its step falls below the tolerance or
when two successive iterates are at roundoff, where the steps of a root
cluster stay above the tolerance.  Rows with real coefficients (every
sector's monic rows) start from a real companion eigensolve (LAPACK
dgeev), cheaper than the complex one (zgeev) for all but the smallest
degrees; complex rows keep the complex eigensolve.
"""

from __future__ import annotations

import numpy as np
from numpy.linalg import eigvalsh

from .config import DEFAULT_TOLS


class ConvergenceError(RuntimeError):
    """An iterative routine failed to reach its tolerance."""


def jacobi_eigen(a: np.ndarray, tol: float = DEFAULT_TOLS.eigen) -> np.ndarray:
    """Ascending eigenvalues of one symmetric matrix, by LAPACK
    (numpy.linalg.eigvalsh).

    Raises ValueError for anything but a square matrix, or for a
    non-symmetric one, symmetric meaning |A - A^T| <= DEFAULT_TOLS.symmetry
    max(max |A|, 1).
    A is not symmetrized: eigvalsh reads its lower triangle, so callers pass
    exactly symmetric matrices.  The eigenvalues w of a symmetric A obey
    sum(w) = tr A and sum(w^2) = ||A||_F^2 exactly; with b = max(||A||_F, 1),
    ConvergenceError is raised when the first misses by more than tol * b,
    the second by more than tol * b^2, or either is not finite.  This is the
    one-matrix case of _eigen_stack.
    """
    a = np.asarray(a, dtype=float)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise ValueError(f"expected one square matrix, got shape {a.shape}")
    values, (error,) = _eigen_stack(a, tol)
    if error is not None:
        raise error
    return values


def _eigen_stack(
    a: np.ndarray, tol: float
) -> tuple[np.ndarray, list[Exception | None]]:
    """The eigenvalues of a square float matrix or of each matrix of a
    (G, n, n) stack, as jacobi_eigen gives them, and per matrix the error a
    jacobi_eigen call with that matrix alone raises (None when it passes;
    one entry for a single matrix)."""
    values = eigvalsh(a)
    flat = a.reshape(a.shape[:-2] + (-1,))
    norm_sq = (flat * flat).sum(axis=-1)
    bound = np.sqrt(np.maximum(norm_sq, 1.0))
    trace_miss = np.abs(values.sum(axis=-1) - a.trace(axis1=-2, axis2=-1))
    norm_miss = np.abs((values * values).sum(axis=-1) - norm_sq)
    margin = tol * bound
    missed = ~((trace_miss <= margin) & (norm_miss <= margin * bound))
    # exactly symmetric input, the usual case, needs no tolerance test
    unsymmetric = np.zeros(missed.shape, dtype=bool)
    if not (a == a.swapaxes(-2, -1)).all():
        scale = np.maximum(np.abs(flat).max(axis=-1, initial=0.0), 1.0)
        asym = np.abs(a - a.swapaxes(-2, -1)).max(axis=(-2, -1), initial=0.0)
        unsymmetric = asym > DEFAULT_TOLS.symmetry * scale
    errors: list[Exception | None] = [None] * missed.size
    for i in np.flatnonzero(unsymmetric | missed).tolist():
        if unsymmetric.reshape(-1)[i]:
            errors[i] = ValueError("matrix is not symmetric")
            continue
        trace_i, norm_i, bound_i = (
            float(part.reshape(-1)[i]) for part in (trace_miss, norm_miss, bound))
        errors[i] = ConvergenceError(
            f"eigenvalues miss the trace by {trace_i:.3e} and the squared "
            f"norm by {norm_i:.3e} (tol {tol:g}, scale {bound_i:.3e})")
    return values, errors


def polynomial_roots(coeffs, tol: float = DEFAULT_TOLS.roots) -> np.ndarray:
    """All complex roots of one polynomial, sorted: companion-matrix
    eigenvalues polished by Aberth-Ehrlich simultaneous iteration.

    `coeffs` is one row of ascending coefficients; trailing zeros are
    dropped, and anything but one row raises ValueError.  The polish stops
    once the largest correction falls below tol, or once two successive
    iterates are at roundoff, every |p(z)| within the rounding error of its
    Horner evaluation; ConvergenceError is raised when the iteration runs
    out with the residual above sqrt(tol).  Residuals are measured in the
    backward-error sense |p(z)| / sum |c_i||z|^i.  This is the one-row case
    of _root_stack.
    """
    c = np.asarray(coeffs, dtype=complex)
    if c.ndim != 1:
        raise ValueError(f"expected one row of coefficients, got shape {c.shape}")
    nz = np.flatnonzero(c)
    if nz.size == 0:
        raise ValueError("zero polynomial has no well-defined roots")
    roots, unsettled = _root_stack(c[None, : nz[-1] + 1], tol)
    if unsettled[0]:
        raise ConvergenceError(_UNSETTLED)
    return roots[0]


# the message polynomial_roots raises when a row does not settle
_UNSETTLED = "Aberth-Ehrlich iteration did not converge"

# the Aberth steps a row may take from each start
_MAX_STEPS = 200


def _root_stack(c: np.ndarray, tol: float) -> tuple[np.ndarray, np.ndarray]:
    """The sorted roots of each row of a 2-D complex stack c of one degree
    (nonzero last column), as polynomial_roots gives them, and per row
    whether its iteration ran out with its residual above sqrt(tol): the
    rows for which a polynomial_roots call with that row alone raises.
    Each row leaves the Aberth loop at the iteration where its own stopping
    rules hold, so it gets exactly the roots of a call with that row alone."""
    deg = c.shape[1] - 1
    if deg >= 2:
        return _aberth(c, tol)
    roots = (np.zeros((c.shape[0], 0), dtype=complex) if deg == 0
             else -c[:, :1] / c[:, 1:])
    return roots, np.zeros(c.shape[0], dtype=bool)


def _companion_start(c: np.ndarray, real_arithmetic: bool = True) -> np.ndarray:
    """Starting roots of each row: the eigenvalues of numpy.roots' companion
    matrix.  Rows whose coefficients are all real share one real eigvals
    call (LAPACK dgeev), the others one complex call (zgeev), so a row's
    start depends on that row alone; real_arithmetic=False sends every row
    to the complex call.  Rows with a zero constant term are left to
    numpy.roots, in the same arithmetic, which deflates the zero roots
    first."""
    n_rows, size = c.shape
    deg = size - 1
    z = np.empty((n_rows, deg), dtype=complex)
    real = ~c.imag.any(axis=1) & real_arithmetic
    full = c[:, 0] != 0.0
    for kind, rows in ((full & real, c.real), (full & ~real, c)):
        if kind.any():
            cf = rows[kind]
            comp = np.zeros((cf.shape[0], deg, deg), dtype=cf.dtype)
            comp[:, np.arange(1, deg), np.arange(deg - 1)] = 1.0
            comp[:, 0, :] = -cf[:, deg - 1 :: -1] / cf[:, deg:]
            z[kind] = np.linalg.eigvals(comp)
    for row in np.flatnonzero(~full):
        z[row] = np.roots(c[row, ::-1].real if real[row] else c[row, ::-1])
    return z


def horner(c: np.ndarray, z: np.ndarray) -> np.ndarray:
    """The polynomials with ascending coefficients along the last axis of c
    evaluated at z; the leading axes of c broadcast against z."""
    result = np.empty(np.broadcast(c[..., 0], z).shape, dtype=np.result_type(c, z))
    result[...] = c[..., -1]
    for k in range(c.shape[-1] - 2, -1, -1):
        result *= z
        result += c[..., k]
    return result


def _aberth(c: np.ndarray, tol: float) -> tuple[np.ndarray, np.ndarray]:
    """Sorted roots of each row of c (degree >= 2, nonzero leading
    coefficients), and per row whether it did not settle (_root_stack)."""
    deg = c.shape[1] - 1
    # p and p' evaluated together: p' padded with a zero top coefficient
    both = np.zeros((2,) + c.shape, dtype=complex)
    both[0] = c
    both[1, :, :deg] = c[:, 1:] * np.arange(1, deg + 1)
    z, res = _aberth_steps(both, _companion_start(c), tol, _MAX_STEPS)
    unsettled = np.zeros(c.shape[0], dtype=bool)
    if res is not None:
        # From a real start a real row's iterates stay symmetric about the
        # real axis, so real starting roots cannot reach a conjugate pair of
        # roots, nor a pair two real roots; a real row whose steps do not
        # settle starts again from the complex eigensolve, which breaks the
        # symmetry.
        again = ~np.isnan(res) & ~c.imag.any(axis=1)
        if again.any():
            z[again], res_again = _aberth_steps(
                both[:, again], _companion_start(c[again], real_arithmetic=False),
                tol, _MAX_STEPS)
            res[again] = np.nan if res_again is None else res_again
        unsettled = res > np.sqrt(tol)
    # by real part, then imaginary part; stable, so equal roots keep their order
    return np.sort(z, axis=-1, kind="stable"), unsettled


# an iterate far from the roots can overflow the evaluations of p, p' and
# the bound; a non-finite value already counts as a miss, so numpy's
# floating-point warnings are silenced for the whole call
@np.errstate(over="ignore", invalid="ignore", divide="ignore")
def _aberth_steps(
    both: np.ndarray, z: np.ndarray, tol: float, max_iter: int
) -> tuple[np.ndarray, np.ndarray | None]:
    """Aberth-Ehrlich steps on each row of starting roots z, whose p and p'
    coefficients are both[0] and both[1], until the row stops: when its step
    test holds, or when two successive iterates after the start have every
    |p(z)| <= sqrt(2n) u sum |c_k||z|^k, u = eps / 2: the size that the
    rounding errors of a degree-n Horner evaluation take together (Higham,
    Accuracy and Stability, 2.8 and 5.1), below which a root cluster's
    steps only wander.  The worst-case bound gamma_2n sum |c_k||z|^k,
    sqrt(2n) times wider, also holds while a cluster still converges.

    Returns the roots, and None when every row stopped; otherwise per row
    the scaled residual of the last iterate of a row that ran out of
    max_iter steps, NaN for a row that stopped.
    """
    unit = np.sqrt(2 * (both.shape[2] - 1)) * np.finfo(float).eps / 2.0
    # the rows still iterating, their coefficients, current roots and
    # whether their previous iterate after the start was within the bound
    rows = np.arange(z.shape[0])
    za = z
    stop = was_within = np.zeros(z.shape[0], dtype=bool)
    for i in range(max_iter):
        pz, dpz = horner(both[:, :, None], za)
        if i > 0:  # the start does not count
            bound = unit * horner(np.abs(both[0])[:, None], np.abs(za))
            # inf <= inf does not count either
            within = ((np.abs(pz) <= bound) & (bound < np.inf)).all(axis=1)
            stop, was_within = within & was_within, within
        dpz[dpz == 0.0] = 1e-300
        w = pz / dpz
        # the companion start can repeat a multiple root exactly; such pairs,
        # like the diagonal, drop out of the Aberth sum
        diff = za[:, :, None] - za[:, None, :]
        s = np.divide(1.0, diff, out=np.zeros(diff.shape, dtype=complex),
                      where=diff != 0.0).sum(axis=2)
        denom = 1.0 - w * s
        denom[np.abs(denom) < 1e-300] = 1e-300
        step = w / denom
        # a row that stops on the bound keeps its iterate
        step[stop] = 0.0
        za = za - step
        done = stop | (np.abs(step).max(axis=1)
                       <= tol * (1.0 + np.abs(za).max(axis=1)))
        if done.all():
            z[rows] = za
            return z, None
        if done.any():
            z[rows[done]] = za[done]
            keep = ~done
            rows, both, za = rows[keep], both[:, keep], za[keep]
            was_within = was_within[keep]
    z[rows] = za
    out = np.full(z.shape[0], np.nan)
    out[rows] = _scaled_residual_rows(both[0], za)
    return z, out


def _scaled_residual_rows(c: np.ndarray, roots: np.ndarray) -> np.ndarray:
    """Per row: max over its roots of |p(z)| / sum |c_i||z|^i; inf for a row
    whose evaluation is not finite."""
    num = np.abs(horner(c[:, None], roots))
    den = horner(np.abs(c)[:, None], np.abs(roots)).real
    den[den == 0.0] = 1.0
    worst = (num / den).max(axis=1)
    worst[np.isnan(worst)] = np.inf
    return worst


def newton_solve(
    f,
    x0,
    tol: float = DEFAULT_TOLS.newton,
    max_iter: int = 50,
) -> np.ndarray:
    """Damped Newton for f: R^n -> R^n with a forward-difference Jacobian.

    The step is halved until ||f|| decreases; never returns a point with
    ||f||_inf > tol (raises ConvergenceError instead).
    """
    x = np.array(x0, dtype=float)
    fx = np.asarray(f(x), dtype=float)
    if fx.shape != x.shape:
        raise ValueError("f must map R^n to R^n")

    for _ in range(max_iter):
        norm = np.max(np.abs(fx), initial=0.0)
        if norm <= tol:
            return x
        n = x.size
        jac = np.empty((n, n))
        for jcol in range(n):
            h = 1e-7 * (1.0 + abs(x[jcol]))  # forward-difference step
            xh = x.copy()
            xh[jcol] += h
            jac[:, jcol] = (np.asarray(f(xh), dtype=float) - fx) / h
        try:
            delta = np.linalg.solve(jac, -fx)
        except np.linalg.LinAlgError as exc:
            raise ConvergenceError(f"singular Jacobian: {exc}") from exc
        if not np.all(np.isfinite(delta)):
            raise ConvergenceError("non-finite Newton step")

        lam = 1.0
        while lam > 1e-8:
            x_new = x + lam * delta
            f_new = np.asarray(f(x_new), dtype=float)
            if np.max(np.abs(f_new), initial=0.0) < norm:
                x, fx = x_new, f_new
                break
            lam /= 2.0
        else:
            raise ConvergenceError("line search found no decrease")

    if np.max(np.abs(fx), initial=0.0) <= tol:
        return x
    raise ConvergenceError(f"Newton did not reach tol={tol:g} in {max_iter} iterations")
