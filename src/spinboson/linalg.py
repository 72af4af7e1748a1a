"""Dense numerics: symmetric eigensolve (LAPACK via numpy.linalg.eigh),
Aberth-Ehrlich root polish from companion-matrix eigenvalues, damped Newton
with a forward-difference Jacobian.

The root finder takes one polynomial or a stack of equal-degree ones (the
states of one sector): a stack shares one companion eigensolve per kind of
row and one Aberth loop, and each row comes out exactly as it would alone.
Rows with real coefficients (every sector's monic rows) start from a real
companion eigensolve (LAPACK dgeev), cheaper than the complex one (zgeev)
for all but the smallest degrees; complex rows keep the complex eigensolve.

Each routine checks its own result against a tolerance, defaulting to the
values in config.DEFAULT_TOLS, and raises ConvergenceError when it misses.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .config import DEFAULT_TOLS


class ConvergenceError(RuntimeError):
    """An iterative routine failed to reach its tolerance."""


@dataclass(frozen=True)
class EigenDecomposition:
    values: np.ndarray   # ascending
    vectors: np.ndarray  # orthonormal columns, vectors[:, k] pairs with values[k]


def jacobi_eigen(
    a: np.ndarray,
    tol: float = DEFAULT_TOLS.eigen,
) -> EigenDecomposition:
    """Symmetric eigendecomposition by LAPACK (numpy.linalg.eigh).

    Raises ValueError for non-square or non-symmetric input and
    ConvergenceError when the a-posteriori residual ||AV - V diag(w)||_F
    exceeds tol * max(||A||_F, 1).  Each eigenvector is signed so that its
    largest-magnitude component is positive.
    """
    a = np.asarray(a, dtype=float)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise ValueError(f"expected a square matrix, got shape {a.shape}")
    n = a.shape[0]
    scale = max(np.abs(a).max(), 1.0) if n else 1.0
    if np.abs(a - a.T).max(initial=0.0) > 1e-12 * scale:
        raise ValueError("matrix is not symmetric")
    a = (a + a.T) / 2.0

    values, vectors = np.linalg.eigh(a)
    residual = np.linalg.norm(a @ vectors - vectors * values)
    target = tol * max(np.linalg.norm(a), 1.0)
    if residual > target:
        raise ConvergenceError(
            f"eigenpair residual {residual:.3e} exceeds {target:.3e}")
    # deterministic sign: largest-magnitude component of each vector positive
    if n:
        lead = vectors[np.abs(vectors).argmax(axis=0), np.arange(n)]
        vectors[:, lead < 0.0] *= -1.0
    return EigenDecomposition(values, vectors)


def polynomial_roots(
    coeffs,
    tol: float = DEFAULT_TOLS.roots,
    max_iter: int = 200,
) -> np.ndarray:
    """All complex roots, sorted: companion-matrix eigenvalues polished by
    Aberth-Ehrlich simultaneous iteration.

    `coeffs` holds ascending coefficients, or a 2-D stack of such rows that
    share one degree (nonzero last column); the roots come back with shape
    (deg,) or (S, deg).  A stack takes one stacked companion eigensolve per
    kind of row (real rows in real arithmetic, complex rows in complex
    arithmetic) and one Aberth loop on all its rows; each row leaves the
    loop at the iteration where its own step test holds, so every row gets
    exactly the roots a call with that row alone returns.  A 1-D call drops
    trailing zeros and is the one-row case.  The polish stops once the
    largest correction stalls; ConvergenceError is raised when a row's
    iteration runs out with its residual above sqrt(tol).  Residuals are
    measured in the backward-error sense |p(z)| / sum |c_i||z|^i.
    """
    c = np.asarray(coeffs, dtype=complex)
    single = c.ndim <= 1
    if single:
        c = np.atleast_1d(c)
        nz = np.flatnonzero(c)
        if nz.size == 0:
            raise ValueError("zero polynomial has no well-defined roots")
        c = c[None, : nz[-1] + 1]
    elif c.ndim != 2:
        raise ValueError(f"expected one row or a 2-D stack of rows, got shape {c.shape}")
    elif (c[:, -1] == 0.0).any():
        raise ValueError("the rows of a stack must share one degree")
    deg = c.shape[1] - 1
    if deg == 0:
        roots = np.zeros((c.shape[0], 0), dtype=complex)
    elif deg == 1:
        roots = -c[:, :1] / c[:, 1:]
    else:
        roots = _aberth(c, tol, max_iter)
    return roots[0] if single else roots


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


def _horner_rows(c: np.ndarray, z: np.ndarray) -> np.ndarray:
    """Row i of c (ascending coefficients; a leading axis may stack several
    such arrays) evaluated at every entry of row i of z."""
    result = np.repeat(c[..., -1:], z.shape[-1], axis=-1)
    for k in range(c.shape[-1] - 2, -1, -1):
        result *= z
        result += c[..., k : k + 1]
    return result


def _aberth(c: np.ndarray, tol: float, max_iter: int) -> np.ndarray:
    """Sorted roots of each row of c (degree >= 2, nonzero leading
    coefficients)."""
    deg = c.shape[1] - 1
    # p and p' evaluated together: p' padded with a zero top coefficient
    both = np.zeros((2,) + c.shape, dtype=complex)
    both[0] = c
    both[1, :, :deg] = c[:, 1:] * np.arange(1, deg + 1)
    z, res = _aberth_steps(both, _companion_start(c), tol, max_iter)
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
                tol, max_iter)
            res[again] = np.nan if res_again is None else res_again
        if (res > np.sqrt(tol)).any():
            raise ConvergenceError("Aberth-Ehrlich iteration did not converge")
    # by real part, then imaginary part; stable, so equal roots keep their order
    return np.sort(z, axis=-1, kind="stable")


def _aberth_steps(
    both: np.ndarray, z: np.ndarray, tol: float, max_iter: int
) -> tuple[np.ndarray, np.ndarray | None]:
    """Aberth-Ehrlich steps on each row of starting roots z, whose p and p'
    coefficients are both[0] and both[1], until the row's step test holds.

    Returns the roots, and None when every row's step test held; otherwise
    per row the scaled residual of the roots of a row that ran out of steps,
    NaN for a row whose step test held.
    Inside a cluster at the conditioning limit the steps can wander for good
    while |p| stays at roundoff; a row still moving after max_iter steps
    returns its last iterate when that is within sqrt(tol), and its iterate
    of smallest residual otherwise.
    """
    # the rows still iterating, with their coefficients and current roots;
    # once a row has missed the step test, also its best iterate so far
    rows = np.arange(z.shape[0])
    za = z
    best = best_res = None
    for _ in range(max_iter):
        pz, dpz = _horner_rows(both, za)
        dpz[dpz == 0.0] = 1e-300
        w = pz / dpz
        # the companion start can repeat a multiple root exactly; such pairs,
        # like the diagonal, drop out of the Aberth sum
        diff = za[:, :, None] - za[:, None, :]
        s = np.divide(1.0, diff, out=np.zeros_like(diff),
                      where=diff != 0.0).sum(axis=2)
        denom = 1.0 - w * s
        denom[np.abs(denom) < 1e-300] = 1e-300
        step = w / denom
        za = za - step
        done = (np.abs(step).max(axis=1)
                <= tol * (1.0 + np.abs(za).max(axis=1)))
        if done.all():
            z[rows] = za
            return z, None
        res = _scaled_residual_rows(both[0], za)
        if best is None:
            best, best_res = za, res
        else:
            better = res < best_res
            best = np.where(better[:, None], za, best)
            best_res = np.where(better, res, best_res)
        if done.any():
            z[rows[done]] = za[done]
            keep = ~done
            rows, both, za = rows[keep], both[:, keep], za[keep]
            best, best_res = best[keep], best_res[keep]
    res = _scaled_residual_rows(both[0], za)
    if best is not None:
        worse = res > np.sqrt(tol)
        za = np.where(worse[:, None], best, za)
        res = np.where(worse, best_res, res)
    z[rows] = za
    out = np.full(z.shape[0], np.nan)
    out[rows] = res
    return z, out


def _scaled_residual_rows(c: np.ndarray, roots: np.ndarray) -> np.ndarray:
    """Per row: max over its roots of |p(z)| / sum |c_i||z|^i; inf for a row
    whose evaluation is not finite."""
    num = np.abs(_horner_rows(c, roots))
    den = _horner_rows(np.abs(c), np.abs(roots)).real
    den[den == 0.0] = 1.0
    worst = (num / den).max(axis=1)
    worst[np.isnan(worst)] = np.inf
    return worst


def newton_solve(
    f,
    x0,
    tol: float = DEFAULT_TOLS.newton,
    max_iter: int = 50,
    fd_step: float = 1e-7,
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
            h = fd_step * (1.0 + abs(x[jcol]))
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
