"""Dense numerics: symmetric eigenvalues (LAPACK via numpy.linalg.eigvalsh),
Aberth-Ehrlich root polish from companion-matrix eigenvalues, one stacked
Horner evaluation, damped Newton for a holomorphic map of a stack of points,
whose complex forward-difference Jacobian takes one call of the map.

Each public routine takes one item (jacobi_eigen one square matrix,
polynomial_roots one real coefficient row), checks its own result against a
tolerance, defaulting to the values in config.DEFAULT_TOLS, and raises
ConvergenceError when it misses.  Both are thin raising wrappers of private
stacked cores (_eigen_stack, _root_stack) that return, next to the result,
each matrix's error or each row's failure to settle: the solver, which
solves many sectors at once, calls the cores and reads every sector's
outcome from one call.  The root core takes real rows (a sector's monic
rows are real), starts them from one real companion eigensolve (LAPACK
dgeev) and polishes them in one Aberth loop, each row as it would be alone;
a row that does not settle restarts from the complex eigensolve, unless its
first step left the float range (as a row with a non-finite companion does).
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
    the second by more than tol * b^2, or either is not finite.  Both are
    checked on A and w divided by a power of two no smaller than max |A|,
    so an entry near the float range does not overflow the squares.  This
    is the one-matrix case of _eigen_stack.
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
    # The identities are checked on A / 2^e and w / 2^e, 2^e >= max |A|, and
    # against the bound b / 2^e, so that the squares cannot overflow.
    # Division by a power of two is exact, so each verdict, and each miss
    # scaled back in the message, is that of the unscaled check.
    e = np.maximum(np.frexp(np.abs(flat).max(axis=-1, initial=0.0))[1], 0)
    a_e = np.ldexp(a, -e[..., None, None])
    values_e = np.ldexp(values, -e[..., None])
    flat_e = a_e.reshape(flat.shape)
    norm_sq = (flat_e * flat_e).sum(axis=-1)
    bound = np.sqrt(np.maximum(norm_sq, np.ldexp(1.0, -2 * e)))
    trace_miss = np.abs(values_e.sum(axis=-1) - a_e.trace(axis1=-2, axis2=-1))
    norm_miss = np.abs((values_e * values_e).sum(axis=-1) - norm_sq)
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
        e_i = e.reshape(-1)[i]
        with np.errstate(over="ignore"):  # a miss past the float range reads inf
            trace_i, norm_i, bound_i = (
                float(np.ldexp(part.reshape(-1)[i], k * e_i))
                for part, k in ((trace_miss, 1), (norm_miss, 2), (bound, 1)))
        errors[i] = ConvergenceError(
            f"eigenvalues miss the trace by {trace_i:.3e} and the squared "
            f"norm by {norm_i:.3e} (tol {tol:g}, scale {bound_i:.3e})")
    return values, errors


def polynomial_roots(coeffs, tol: float = DEFAULT_TOLS.roots) -> np.ndarray:
    """All complex roots of one real polynomial, sorted: companion-matrix
    eigenvalues polished by Aberth-Ehrlich simultaneous iteration.

    `coeffs` is one row of real ascending coefficients; trailing zeros are
    dropped, and anything but one real row raises ValueError.  The polish
    stops once the largest correction falls below tol, or once two
    successive iterates are at roundoff, every |p(z)| within the rounding
    error of its Horner evaluation; ConvergenceError is raised when the
    iteration runs out with the residual above sqrt(tol), or its iterate
    leaves the float range.  Residuals are measured in the backward-error sense
    |p(z)| / sum |c_i||z|^i.  This is the one-row case of _root_stack.
    """
    c = np.asarray(coeffs)
    if c.ndim != 1 or np.iscomplexobj(c):
        raise ValueError(f"expected one row of real coefficients, got {c.dtype} {c.shape}")
    if not np.isfinite(c).all():
        raise ValueError("coefficients must be finite")
    nz = np.flatnonzero(c)
    if nz.size == 0:
        raise ValueError("zero polynomial has no well-defined roots")
    roots, unsettled = _root_stack(c[None, : nz[-1] + 1].astype(float), tol)
    if unsettled[0]:
        raise ConvergenceError(_UNSETTLED)
    return roots[0]


# the message polynomial_roots raises when a row does not settle
_UNSETTLED = "Aberth-Ehrlich iteration did not converge"

# the Aberth steps a row may take from each start
_MAX_STEPS = 200


def _root_stack(c: np.ndarray, tol: float) -> tuple[np.ndarray, np.ndarray]:
    """The sorted roots of each row of a 2-D real stack c of one degree
    (nonzero last column), as polynomial_roots gives them, and per row
    whether it did not settle: the rows for which a polynomial_roots call
    with that row alone raises.  Each row leaves the Aberth loop at the
    iteration where its own stopping rules hold, so it gets exactly the
    roots of a call with that row alone."""
    deg = c.shape[1] - 1
    if deg >= 2:
        return _aberth(c, tol)
    # a complex quotient, so that a zero imaginary part keeps its sign
    roots = (np.zeros((c.shape[0], 0), dtype=complex) if deg == 0
             else -(c[:, :1] + 0j) / (c[:, 1:] + 0j))
    return roots, np.zeros(c.shape[0], dtype=bool)


def _companion_start(c: np.ndarray) -> np.ndarray:
    """Starting roots of each row: the eigenvalues of numpy.roots' companion
    matrix (a zero constant term gives an exact zero root), from one eigvals
    call in the rows' arithmetic (LAPACK dgeev for real rows, zgeev for
    complex ones), so a row's start depends on that row alone.  A row whose
    companion is not finite starts at NaN, which its first step finds dead."""
    deg = c.shape[1] - 1
    comp = np.zeros((c.shape[0], deg, deg), dtype=c.dtype)
    comp[:, np.arange(1, deg), np.arange(deg - 1)] = 1.0
    comp[:, 0, :] = -c[:, deg - 1 :: -1] / c[:, deg:]
    try:
        return np.linalg.eigvals(comp).astype(complex, copy=False)
    except np.linalg.LinAlgError:  # numpy rejects a stack with a non-finite matrix
        finite = np.isfinite(comp[:, 0]).all(axis=1)
        z = np.full((c.shape[0], deg), np.nan, dtype=complex)
        z[finite] = np.linalg.eigvals(comp[finite])
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


# an iterate far from the roots can overflow the evaluations of p, p' and
# the bound, and a row that overflowed before it came here has p' and a
# companion that are not finite; a non-finite value already counts as a
# miss, so numpy's floating-point warnings are silenced for the whole call
@np.errstate(over="ignore", invalid="ignore", divide="ignore")
def _aberth(c: np.ndarray, tol: float) -> tuple[np.ndarray, np.ndarray]:
    """Sorted roots of each row of c (degree >= 2, nonzero leading
    coefficients), and per row whether it did not settle (_root_stack)."""
    # p and p' evaluated together: p' padded with a zero top coefficient
    both = np.zeros((2,) + c.shape, dtype=complex)
    both[0] = c
    both[1, :, :-1] = c[:, 1:] * np.arange(1, c.shape[1])
    z, res = _aberth_steps(both, _companion_start(c), tol)
    # From a real start a row's iterates stay symmetric about the real axis,
    # so they cannot reach a conjugate pair of roots, nor a pair two real
    # roots; a row that does not settle starts again from the complex
    # eigensolve, which breaks the symmetry.  States verify through it: the
    # largest bose_hubbard j = 40 sector of random_params rng 1 restarts 4
    # rows and verifies 30 of its 81 states, 28 without the restart.  A row
    # whose first step overflowed (inf) would overflow again: it is final.
    again = res < np.inf
    if again.any():
        z[again], res[again] = _aberth_steps(
            both[:, again], _companion_start(c[again].astype(complex)), tol)
    # by real part, then imaginary part; stable, so equal roots keep their order
    return np.sort(z, axis=-1, kind="stable"), res > np.sqrt(tol)


def _aberth_steps(
    both: np.ndarray, z: np.ndarray, tol: float
) -> tuple[np.ndarray, np.ndarray]:
    """Aberth-Ehrlich steps on each row of starting roots z, whose p and p'
    coefficients are both[0] and both[1], until the row stops: when its step
    test holds, or when two successive iterates after the start have every
    |p(z)| <= sqrt(2n) u sum |c_k||z|^k, u = eps / 2: the size that the
    rounding errors of a degree-n Horner evaluation take together (Higham,
    Accuracy and Stability, 2.8 and 5.1), below which a root cluster's
    steps only wander.  The worst-case bound gamma_2n sum |c_k||z|^k,
    sqrt(2n) times wider, also holds while a cluster still converges.  A row
    whose iterate leaves the float range, which it never re-enters, is dropped.

    Returns the roots and per row NaN for a row that stopped, inf for a row
    whose first step left the float range, the largest float for one that
    left it later and, for a row that ran out of its _MAX_STEPS steps, the
    scaled residual of its last iterate.
    """
    unit = np.sqrt(2 * (both.shape[2] - 1)) * np.finfo(float).eps / 2.0
    res = np.full(z.shape[0], np.nan)
    # the rows still iterating, their coefficients, current roots and
    # whether their previous iterate after the start was within the bound
    rows = np.arange(z.shape[0])
    za = z
    stop = was_within = np.zeros(z.shape[0], dtype=bool)
    for i in range(_MAX_STEPS):
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
        size = np.abs(za).max(axis=1)
        done = stop | (np.abs(step).max(axis=1) <= tol * (1.0 + size))
        if not size.max() < np.inf:
            dead = ~(done | (size < np.inf))
            res[rows[dead]] = np.inf if i == 0 else np.finfo(float).max
            done |= dead
        if done.all():
            z[rows] = za
            return z, res
        if done.any():
            z[rows[done]] = za[done]
            keep = ~done
            rows, both, za = rows[keep], both[:, keep], za[keep]
            was_within = was_within[keep]
    z[rows] = za
    res[rows] = _scaled_residual_rows(both[0], za)
    return z, res


def _scaled_residual_rows(c: np.ndarray, roots: np.ndarray) -> np.ndarray:
    """Per row: max over its roots of |p(z)| / sum |c_i||z|^i; inf for a row
    whose evaluation is not finite."""
    num = np.abs(horner(c[:, None], roots))
    den = horner(np.abs(c)[:, None], np.abs(roots)).real
    den[den == 0.0] = 1.0
    worst = (num / den).max(axis=1)
    worst[np.isnan(worst)] = np.inf
    return worst


def newton_solve(f, z0, tol: float = DEFAULT_TOLS.newton) -> np.ndarray:
    """Damped Newton for a holomorphic f: C^n -> C^n, at most 50 steps.

    f takes a (k, n) stack of points and returns their (k, n) values.  The
    Jacobian comes from complex forward differences at the n points
    z + diag(h), h = 1e-7 (1 + |z|), all in one f call.  The step is halved
    until ||f|| = max(|Re f|, |Im f|) decreases, one point per try; a NaN
    value never counts as a decrease.  Never returns a point with
    ||f|| > tol (raises ConvergenceError instead).
    """
    z = np.array(z0, dtype=complex)
    fz = np.asarray(f(z[None]), dtype=complex)
    if fz.shape != (1, z.size):
        raise ValueError("f must map a (k, n) stack of points to (k, n) values")
    fz = fz[0]

    for _ in range(50):
        norm = _inf_norm(fz)
        if norm <= tol:
            return z
        h = 1e-7 * (1.0 + np.abs(z))  # forward-difference steps
        jac = ((np.asarray(f(z + np.diag(h)), dtype=complex) - fz) / h[:, None]).T
        try:
            delta = np.linalg.solve(jac, -fz)
        except np.linalg.LinAlgError as exc:
            raise ConvergenceError(f"singular Jacobian: {exc}") from exc
        if not np.all(np.isfinite(delta)):
            raise ConvergenceError("non-finite Newton step")

        lam = 1.0
        while lam > 1e-8:
            z_new = z + lam * delta
            f_new = np.asarray(f(z_new[None]), dtype=complex)[0]
            if _inf_norm(f_new) < norm:
                z, fz = z_new, f_new
                break
            lam /= 2.0
        else:
            raise ConvergenceError("line search found no decrease")

    if _inf_norm(fz) <= tol:
        return z
    raise ConvergenceError(f"Newton did not reach tol={tol:g} in 50 iterations")


def _inf_norm(v: np.ndarray) -> float:
    """max(|Re v|, |Im v|) of a complex vector; NaN when an entry is NaN."""
    return np.max(np.abs(np.concatenate([v.real, v.imag])), initial=0.0)
