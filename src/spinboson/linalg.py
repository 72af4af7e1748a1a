"""Dense numerics: symmetric eigensolve (LAPACK via numpy.linalg.eigh),
Aberth-Ehrlich root polish from companion-matrix eigenvalues, damped Newton
with a forward-difference Jacobian.

Each routine checks its own result against a tolerance, defaulting to the
values in config.DEFAULT_TOLS, and raises ConvergenceError when it misses.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .config import DEFAULT_TOLS
from .operators import poly_eval


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


@dataclass(frozen=True)
class RootSet:
    roots: np.ndarray        # complex, all deg(poly) of them
    residual_bound: float    # max over roots of |p(z)| / sum_i |c_i z^i|
    clustered: bool          # some pair closer than cluster_rtol * scale


def polynomial_roots(
    coeffs,
    tol: float = DEFAULT_TOLS.roots,
    max_iter: int = 200,
    cluster_rtol: float = DEFAULT_TOLS.cluster,
) -> RootSet:
    """All complex roots: companion-matrix eigenvalues (numpy.roots)
    polished by Aberth-Ehrlich simultaneous iteration.

    The polish stops once the largest correction stalls.  Residuals are
    measured in the backward-error sense |p(z)| / sum |c_i||z|^i.
    """
    c = np.atleast_1d(np.asarray(coeffs, dtype=complex))
    nz = np.nonzero(c)[0]
    if nz.size == 0:
        raise ValueError("zero polynomial has no well-defined roots")
    c = c[: nz[-1] + 1]
    deg = c.size - 1
    if deg == 0:
        return RootSet(np.zeros(0, dtype=complex), 0.0, False)
    if deg == 1:
        root = np.array([-c[0] / c[1]])
        return RootSet(root, _scaled_residual(c, root), False)

    dc = c[1:] * np.arange(1, deg + 1)

    z = np.roots(c[::-1]).astype(complex)

    for _ in range(max_iter):
        pz = poly_eval(c, z)
        dpz = poly_eval(dc, z)
        dpz = np.where(dpz == 0.0, 1e-300, dpz)
        w = pz / dpz
        # the companion start can repeat a multiple root exactly; such pairs,
        # like the diagonal, drop out of the Aberth sum
        diff = z[:, None] - z[None, :]
        s = np.sum(np.divide(1.0, diff, out=np.zeros_like(diff),
                             where=diff != 0.0), axis=1)
        denom = 1.0 - w * s
        denom = np.where(np.abs(denom) < 1e-300, 1e-300, denom)
        step = w / denom
        z = z - step
        if np.max(np.abs(step)) <= tol * (1.0 + np.max(np.abs(z))):
            break
    else:
        if _scaled_residual(c, z) > np.sqrt(tol):
            raise ConvergenceError("Aberth-Ehrlich iteration did not converge")

    residual = _scaled_residual(c, z)
    scale = max(1.0, float(np.max(np.abs(z))))
    diff = np.abs(z[:, None] - z[None, :])
    np.fill_diagonal(diff, np.inf)
    clustered = bool(np.min(diff) < cluster_rtol * scale)

    order = np.lexsort((z.imag, z.real))
    return RootSet(z[order], residual, clustered)


def _scaled_residual(c: np.ndarray, roots: np.ndarray) -> float:
    if roots.size == 0:
        return 0.0
    num = np.abs(poly_eval(c, roots))
    den = poly_eval(np.abs(c), np.abs(roots)).real
    den = np.where(den == 0.0, 1.0, den)
    return float(np.max(num / den))


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
