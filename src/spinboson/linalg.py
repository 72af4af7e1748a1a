"""Dense numerics: symmetric eigensolve (LAPACK via numpy.linalg.eigh),
Aberth-Ehrlich root polish from companion-matrix eigenvalues, damped Newton
with a forward-difference Jacobian.

The root finder takes one polynomial or a stack of equal-degree ones (the
states of one sector): a stack shares one companion eigensolve and one
Aberth loop, and each row comes out exactly as it would alone.

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
    a = np.array(a, dtype=float)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise ValueError(f"expected a square matrix, got shape {a.shape}")
    n = a.shape[0]
    scale = max(np.max(np.abs(a)), 1.0) if n else 1.0
    if np.max(np.abs(a - a.T), initial=0.0) > 1e-12 * scale:
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
        lead = vectors[np.argmax(np.abs(vectors), axis=0), np.arange(n)]
        vectors *= np.where(lead < 0.0, -1.0, 1.0)
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
    (deg,) or (S, deg).  A stack takes one stacked companion eigensolve and
    one Aberth loop on all its rows; each row leaves the loop at the
    iteration where its own step test holds, so every row gets exactly the
    roots a call with that row alone returns.  A 1-D call drops trailing
    zeros and is the one-row case.  The polish stops once the largest
    correction stalls; ConvergenceError is raised when a row's iteration
    runs out with its residual above sqrt(tol).  Residuals are measured in
    the backward-error sense |p(z)| / sum |c_i||z|^i.
    """
    c = np.asarray(coeffs, dtype=complex)
    single = c.ndim <= 1
    if single:
        c = np.atleast_1d(c)
        nz = np.nonzero(c)[0]
        if nz.size == 0:
            raise ValueError("zero polynomial has no well-defined roots")
        c = c[None, : nz[-1] + 1]
    elif c.ndim != 2:
        raise ValueError(f"expected one row or a 2-D stack of rows, got shape {c.shape}")
    elif np.any(c[:, -1] == 0.0):
        raise ValueError("the rows of a stack must share one degree")
    deg = c.shape[1] - 1
    if deg == 0:
        roots = np.zeros((c.shape[0], 0), dtype=complex)
    elif deg == 1:
        roots = -c[:, :1] / c[:, 1:]
    else:
        roots = _aberth(c, tol, max_iter)
    return roots[0] if single else roots


def _companion_start(c: np.ndarray) -> np.ndarray:
    """Starting roots of each row: the eigenvalues of numpy.roots' companion
    matrix, stacked into one eigvals call.  Rows with a zero constant term
    are left to numpy.roots, which deflates the zero roots first."""
    n_rows, size = c.shape
    deg = size - 1
    z = np.empty((n_rows, deg), dtype=complex)
    full = c[:, 0] != 0.0
    if np.any(full):
        cf = c[full]
        comp = np.zeros((cf.shape[0], deg, deg), dtype=complex)
        comp[:, np.arange(1, deg), np.arange(deg - 1)] = 1.0
        comp[:, 0, :] = -cf[:, deg - 1 :: -1] / cf[:, deg:]
        z[full] = np.linalg.eigvals(comp)
    for row in np.flatnonzero(~full):
        z[row] = np.roots(c[row, ::-1]).astype(complex)
    return z


def _horner_rows(c: np.ndarray, z: np.ndarray) -> np.ndarray:
    """Row i of c (ascending coefficients) evaluated at every entry of row i of z."""
    result = np.repeat(c[:, -1:], z.shape[1], axis=1)
    for k in range(c.shape[1] - 2, -1, -1):
        result = result * z + c[:, k : k + 1]
    return result


def _aberth(c: np.ndarray, tol: float, max_iter: int) -> np.ndarray:
    """Sorted roots of each row of c (degree >= 2, nonzero leading
    coefficients)."""
    deg = c.shape[1] - 1
    dc = c[:, 1:] * np.arange(1, deg + 1)
    z = _companion_start(c)

    # the rows still iterating, with their coefficients and current roots
    rows = np.arange(c.shape[0])
    ca, dca, za = c, dc, z.copy()
    for _ in range(max_iter):
        pz = _horner_rows(ca, za)
        dpz = _horner_rows(dca, za)
        dpz = np.where(dpz == 0.0, 1e-300, dpz)
        w = pz / dpz
        # the companion start can repeat a multiple root exactly; such pairs,
        # like the diagonal, drop out of the Aberth sum
        diff = za[:, :, None] - za[:, None, :]
        s = np.sum(np.divide(1.0, diff, out=np.zeros_like(diff),
                             where=diff != 0.0), axis=2)
        denom = 1.0 - w * s
        denom = np.where(np.abs(denom) < 1e-300, 1e-300, denom)
        step = w / denom
        za = za - step
        done = (np.max(np.abs(step), axis=1)
                <= tol * (1.0 + np.max(np.abs(za), axis=1)))
        if np.any(done):
            z[rows[done]] = za[done]
            keep = ~done
            rows, ca, dca, za = rows[keep], ca[keep], dca[keep], za[keep]
            if rows.size == 0:
                break
    else:
        z[rows] = za
        if np.any(_scaled_residual_rows(ca, za) > np.sqrt(tol)):
            raise ConvergenceError("Aberth-Ehrlich iteration did not converge")

    order = np.lexsort((z.imag, z.real), axis=-1)
    return np.take_along_axis(z, order, axis=-1)


def _scaled_residual_rows(c: np.ndarray, roots: np.ndarray) -> np.ndarray:
    """Per row: max over its roots of |p(z)| / sum |c_i||z|^i."""
    num = np.abs(_horner_rows(c, roots))
    den = _horner_rows(np.abs(c), np.abs(roots)).real
    den = np.where(den == 0.0, 1.0, den)
    return np.max(num / den, axis=1)


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
