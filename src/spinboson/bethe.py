"""Functional Bethe ansatz on one sector.

On a sector of dimension N+1 every eigenfunction is (up to scale) a monic
polynomial psi(z) = prod_i (z - alpha_i) of degree N.  The production path
RECOVERS the roots: diagonalize the sector matrix for its eigenvalues, get
each eigenvalue's monomial coefficients from a twisted ratio recurrence on
the tridiagonal monomial action, and factorize.  All N+1 states of a sector
share the coefficient polynomials P_d, so their coefficients, roots and
certificates are computed once per sector on a stack of states; only states
whose certificate misses, or whose roots do not verify, fall back, one at a
time, to Newton on the root equations, and a state keeps Newton's roots only
if their closed-form energy pins its eigenvalue.  The monomial action and
the P_d come from operators.monomial_action, which combines cached
coupling-free pieces without building the operator.  The coupled root
equations

    sum_{i=2}^{order} sum_{n_1<..<n_{i-1} != mu} P_i(a_mu) i! /
        ((a_mu - a_{n_1}) ... (a_mu - a_{n_{i-1}}))  +  P_1(a_mu)  =  0

are then evaluated as a certificate (they express the vanishing of the
simple-pole residues of (H psi)/psi); the certificate of a stack forms the
root differences once and evaluates every P_i in one Horner pass, and its
residuals equal bae_residuals on the same roots.  The closed-form energy is
cross-checked against the leading-coefficient ratio of H psi.  Direct Newton
solution of the root equations is available as a refinement.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass
from fractions import Fraction
from math import factorial, isfinite

import numpy as np

from .config import DEFAULT_TOLS, Tolerances
from .linalg import ConvergenceError, jacobi_eigen, newton_solve, polynomial_roots
from .model import ModelSpec, SectorLabels
from .operators import monomial_action, poly_eval
from .representation import sector_levels, sector_matrices

_EPS = np.finfo(float).eps


@dataclass(frozen=True)
class BetheState:
    """One eigenstate: roots, energy, residual certificate, and flags."""

    sector: SectorLabels
    eigen_index: int
    roots: np.ndarray              # complex, one per polynomial degree
    energy: float
    bae_residuals: np.ndarray      # complex; NaN when roots are too close
    degenerate_roots: bool
    verified: bool                 # H psi = E psi reproduced from the roots
    refined: bool = False          # roots were polished by Newton on the BAE

    def max_residual(self) -> float:
        if self.bae_residuals.size == 0:
            return 0.0
        # NaN unless every residual is finite
        top = float(np.abs(self.bae_residuals).max())
        return top if isfinite(top) else float("nan")


def poly_from_roots(roots: np.ndarray) -> np.ndarray:
    """Ascending coefficients of the monic polynomial prod (z - root); for a
    stack of root rows, one polynomial per row."""
    roots = np.atleast_1d(roots)
    n = roots.shape[-1]
    # the product of the first k factors sits right-aligned in coeffs[n-k:],
    # its z^m coefficient at n - k + m, so multiplying by (z - root) shifts
    # nothing: each entry loses root times its right neighbour
    coeffs = np.zeros(roots.shape[:-1] + (n + 1,), dtype=complex)
    coeffs[..., n] = 1.0
    for k in range(n):
        coeffs[..., n - k - 1 : n] -= roots[..., k, None] * coeffs[..., n - k :]
    return coeffs


def _elem_sym(values: np.ndarray, upto: int) -> np.ndarray:
    """Elementary symmetric sums e_0..e_upto of the given values."""
    e = np.zeros(upto + 1, dtype=complex)
    e[0] = 1.0
    for x in values:
        for m in range(upto, 0, -1):
            e[m] += x * e[m - 1]
    return e


def _per_row(values: np.ndarray):
    """A float for one root set, the array for a stack of them."""
    return float(values) if values.ndim == 0 else values


def root_scale(roots: np.ndarray):
    """max(1, max |root|), per row for a stack of root sets."""
    return _per_row(np.maximum(1.0, np.max(np.abs(roots), axis=-1, initial=0.0)))


def min_root_distance(roots: np.ndarray):
    """Smallest pairwise root distance (inf below two roots), per row."""
    n = roots.shape[-1]
    if n < 2:
        return _per_row(np.full(roots.shape[:-1], np.inf))
    diff = np.abs(roots[..., :, None] - roots[..., None, :])
    diff[..., np.arange(n), np.arange(n)] = np.inf
    return _per_row(np.min(diff, axis=(-2, -1)))


def residual_scale(polys: list[np.ndarray], roots: np.ndarray):
    """max_i sup_{|z| = scale} |P_i| used to normalize residual magnitudes,
    per row for a stack of root sets."""
    bound = _horner(np.abs(_padded(polys[1:])), np.asarray(root_scale(roots)))
    return _per_row(np.maximum(bound.max(axis=0, initial=0.0), 1.0))


def _padded(polys: list[np.ndarray]) -> np.ndarray:
    """The polynomials as the rows of one matrix, padded with zero top
    coefficients (at least one column)."""
    coeffs = np.zeros((len(polys), max([p.size for p in polys] + [1])))
    for i, p in enumerate(polys):
        coeffs[i, : p.size] = p
    return coeffs


def _horner(coeffs: np.ndarray, z: np.ndarray) -> np.ndarray:
    """Each row of coeffs evaluated at z, stacked on a leading axis, in one
    Horner pass: the values poly_eval gives, since a zero top coefficient
    leaves them unchanged (finite z)."""
    coeffs = coeffs.reshape(coeffs.shape + (1,) * z.ndim)
    result = np.empty(coeffs.shape[:1] + z.shape, dtype=np.result_type(coeffs, z))
    result[...] = coeffs[:, -1]
    for k in range(coeffs.shape[1] - 2, -1, -1):
        result *= z
        result += coeffs[:, k]
    return result


def bae_residuals(
    model: ModelSpec,
    sector: SectorLabels,
    roots: np.ndarray,
    polys: list[np.ndarray] | None = None,
    cluster_rtol: float = DEFAULT_TOLS.cluster,
) -> np.ndarray:
    """Residual of each coupled root equation at the given roots.

    `roots` is one root set or a stack of them (leading batch axis); each
    row's residuals are those of a call with that row alone.  Requires
    pairwise distinct roots (the derivation assumes simple poles); raises
    ValueError when two roots of a row are closer than cluster_rtol x scale.
    """
    roots = np.asarray(roots, dtype=complex)
    if roots.ndim == 0:
        roots = roots[None]
    n = roots.shape[-1]
    expected = sector.n_top
    if n != expected:
        raise ValueError(f"expected {expected} roots, got {n}")
    if n == 0:
        return np.zeros(roots.shape, dtype=complex)
    if np.any(min_root_distance(roots) <= cluster_rtol * root_scale(roots)):
        raise ValueError("coincident roots: residuals are not defined")

    if polys is None:
        polys = monomial_action(model, sector)[1]
    return _residuals_from(polys, _horner(_padded(polys[1:]), roots),
                           roots[..., :, None] - roots[..., None, :])


def _residuals_from(polys: list[np.ndarray], at_roots: np.ndarray,
                    diff: np.ndarray) -> np.ndarray:
    """The root-equation residuals of each row of roots (at least one root,
    no two equal), given P_i at the roots in at_roots[i - 1] and
    diff = roots[..., :, None] - roots[..., None, :]; diff's diagonal is
    overwritten."""
    n = diff.shape[-1]
    order = len(polys) - 1

    # e[k - 1] holds, for each root mu, the elementary symmetric sum e_k of
    # 1/(a_mu - a_nu) over nu != mu (the zeroed diagonal adds nothing).
    # Taking the nu in order, e_k grows by inv[mu, nu] times e_{k-1} over the
    # earlier nu: one running sum over nu per k.
    diag = (np.arange(n), np.arange(n))
    diff[(...,) + diag] = 1.0
    inv = 1.0 / diff
    inv[(...,) + diag] = 0.0
    upto = min(order - 1, n - 1)
    e = []
    terms = inv
    for k in range(1, upto + 1):
        running = np.cumsum(terms, axis=-1)
        e.append(running[..., -1])
        if k < upto:
            terms = np.zeros_like(inv)
            terms[..., 1:] = inv[..., 1:] * running[..., :-1]

    res = (at_roots[0] if polys[1].size
           else np.zeros(diff.shape[:-1], dtype=complex))
    for i in range(2, upto + 2):
        if polys[i].size:
            res = res + at_roots[i - 1] * factorial(i) * e[i - 2]
    return res


def liouville_ratio(
    polys: list[np.ndarray], roots: np.ndarray, z: complex
) -> complex:
    """(H psi)/psi at z in residue form; constant in z iff the roots solve
    the coupled equations."""
    roots = np.atleast_1d(np.asarray(roots, dtype=complex))
    order = len(polys) - 1
    inv = 1.0 / (z - roots)
    e = _elem_sym(inv, min(order, inv.size))
    out = poly_eval(polys[0], z) if polys[0].size else 0.0
    for i in range(1, order + 1):
        if i <= inv.size and polys[i].size:
            out += poly_eval(polys[i], z) * factorial(i) * e[i]
    return complex(out)


# ---------------------------------------------------------------------------
# closed-form energy
# ---------------------------------------------------------------------------

def closed_form_energy(
    model: ModelSpec,
    sector: SectorLabels,
    roots_sum: complex,
    printed_weight: bool = False,
) -> float:
    """Energy from the leading-order expansion of H psi.

    E = sum_i w_i nbar_i + g' (r N - j + p)^s
        - g [prod spin factors at n = N-1][prod boson factors at n = N-1]
          * sum_i alpha_i  +  constant_shift

    nbar_i is the level-N boson occupation.  Its exact form carries the
    mode-weighted combination sum_mu mu*l_mu; printed_weight=True evaluates
    the unweighted variant instead (wrong for M >= 3, kept for the erratum
    regression).  The occupations, the spin power and the integer product
    multiplying sum_i alpha_i are read from the sector's cached levels.
    An array of root sums gives one energy per entry.
    """
    j, p, r = sector.j, sector.p, model.r
    n_top = sector.n_top
    levels = sector_levels(model, sector)

    energy = 0.0
    if model.M > 0:
        if printed_weight:
            M = model.M
            weighted = sum(sector.l, start=Fraction(0)) / M
            for i, (wi, ki) in enumerate(zip(model.w, model.k)):
                tail = sum(sector.l[i:], start=Fraction(0))
                nbar = ki * (Fraction(M + 1, M) * sector.kappa
                             - (Fraction(p) - j) / r - n_top - weighted + tail
                             ) - Fraction(1, ki)
                energy += wi * float(nbar)
        else:
            occ_top = levels.occupations[n_top].tolist()
            energy += sum(wi * ni for wi, ni in zip(model.w, occ_top))

    energy += model.g_prime * float(levels.spin_powers[n_top])
    energy += model.constant_shift

    if n_top > 0:
        energy -= model.g * levels.root_sum_coeff * roots_sum.real
    return energy


def energy_from_roots(
    model: ModelSpec,
    sector: SectorLabels,
    roots: np.ndarray,
    mono: np.ndarray | None = None,
    tols: Tolerances = DEFAULT_TOLS,
) -> float | np.ndarray:
    """Closed-form energy, cross-checked against the z^N coefficient ratio.

    The ratio [z^N](H psi) / [z^N]psi is computed independently from the
    operator action on monomials; disagreement beyond tolerance means a
    transcription bug and raises.  `mono` is that action,
    operators.monomial_action(model, sector)[0]; callers solving many states
    of one sector pass it in, otherwise it is built here.

    `roots` is one root set (a float comes back) or an (S, N) stack of them
    (an array of S energies comes back).  Each row gets the energy a call
    with that row alone returns, and the first row that fails raises the
    error that call raises.
    """
    roots = np.asarray(roots, dtype=complex)
    if roots.ndim > 2:
        raise ValueError(f"expected one root set or a 2-D stack, got shape {roots.shape}")
    single = roots.ndim < 2
    stack = np.ascontiguousarray(np.atleast_1d(roots)[None] if single else roots)
    if stack.shape[1] != sector.n_top:
        raise ValueError(f"expected {sector.n_top} roots, got {stack.shape[1]}")
    sums = np.sum(stack, axis=1)
    imag_bad = np.abs(sums.imag) > 1e-9 * _at_least_one(np.abs(sums))

    energies = np.array(np.broadcast_to(closed_form_energy(model, sector, sums),
                                        sums.shape), dtype=float)

    if mono is None:
        mono = monomial_action(model, sector)[0]
    top = mono[sector.n_top, :]
    # [z^N] psi = 1 (monic); one dot per row, as a call per row computes it
    ratios = np.array([top @ psi for psi in poly_from_roots(stack)], dtype=complex)
    ratio_bad = (np.abs(ratios - energies)
                 > tols.energy_cross * _at_least_one(np.abs(energies)))

    bad = np.flatnonzero(imag_bad | ratio_bad)
    if bad.size:
        i = bad[0]
        if imag_bad[i]:
            raise ValueError(
                f"root sum has non-negligible imaginary part {complex(sums[i])}")
        raise ValueError(
            f"energy formula {float(energies[i]):.12g} disagrees with coefficient "
            f"ratio {complex(ratios[i]):.12g}"
        )
    return float(energies[0]) if single else energies


def _at_least_one(values: np.ndarray) -> np.ndarray:
    """max(1.0, value) per entry, as the builtin max takes it (NaN gives 1)."""
    return np.where(values > 1.0, values, 1.0)


# ---------------------------------------------------------------------------
# root recovery and sector solve
# ---------------------------------------------------------------------------

def _verify_eigen_equation(
    mono: np.ndarray, psi: np.ndarray, energies: np.ndarray, tol: float
) -> np.ndarray:
    """Per row of psi (ascending coefficients, at most mono's width): whether
    the monomial action reproduces energies[row] * psi within tol, relative to
    the scales of the action, the energy and psi."""
    n_cols = mono.shape[1]
    padded = psi
    if psi.shape[1] < n_cols:
        padded = np.zeros((psi.shape[0], n_cols), dtype=complex)
        padded[:, : psi.shape[1]] = psi
    # H psi - E psi; E psi has no z^(N+1) term
    image = padded @ mono.T
    image[:, :n_cols] -= energies[:, None] * padded
    scale = np.maximum(max(1.0, float(np.abs(mono).max())), np.abs(energies))
    dev = (np.abs(image).max(axis=1)
           / (scale * np.maximum(1.0, np.abs(psi).max(axis=1))))
    return dev <= tol


def _twisted_coeffs(sq: np.ndarray, values: np.ndarray) -> np.ndarray:
    """Monic psi coefficients, one row per eigenvalue, from the twisted
    factorization of sq - E.

    The square monomial action sq is tridiagonal: row m couples c_{m-1}, c_m
    and c_{m+1}.  Eliminating sq - E from the top gives pivots D+ and the
    ratios c_m / c_{m+1} = -sq[m, m+1] / D+_m; eliminating from the bottom
    gives D- and c_{m+1} / c_m = -sq[m+1, m] / D-_{m+1}.  Each is used on its
    own side of the twist k that minimises |gamma_k| = |D+_k + D-_k -
    (sq[k, k] - E)|, so every coefficient comes to relative accuracy from the
    eigenvalue alone (Fernando's twisted factorization: Parlett & Dhillon,
    LAA 267, 1997).  A pivot below eps * max|sq| is replaced by that bound,
    as in LAPACK.  Each row is what a call with that eigenvalue alone gives.
    """
    n = sq.shape[0] - 1
    shifted = sq.diagonal()[:, None] - np.asarray(values, dtype=float)
    sup, sub = sq.diagonal(1)[:, None], sq.diagonal(-1)[:, None]
    pivmin = _EPS * np.abs(sq).max()
    # step i eliminates row i from the top ([:, 0]) and row n - i from the
    # bottom ([:, 1]); the pivots overwrite the shifted diagonal in place
    pivots = np.empty((n + 1, 2, shifted.shape[1]))
    pivots[:, 0] = shifted
    pivots[:, 1] = shifted[::-1]
    couple = np.empty((n, 2, 1))
    couple[:, 0] = sub * sup
    couple[:, 1] = couple[::-1, 0]
    for i in range(n + 1):
        pivot = pivots[i]
        if i:
            pivot -= couple[i - 1] / pivots[i - 1]
        pivot[np.abs(pivot) < pivmin] = pivmin
    top, bottom = pivots[:, 0], pivots[::-1, 1]
    twist = np.abs(top + bottom - shifted).argmin(axis=0)
    # c_m / c_{m+1} comes from the top elimination for m < k and from the
    # bottom one for m >= k; the monic row is their product from z^N down
    ratio = np.where(np.arange(n)[:, None] < twist,
                     -sup / top[:-1], -bottom[1:] / sub)
    monic = np.ones((n + 1, shifted.shape[1]))
    monic[:n] = ratio[::-1].cumprod(axis=0)[::-1]
    return monic.T


def _scaled_bae_residuals(
    roots: np.ndarray,
    polys: list[np.ndarray],
    tols: Tolerances,
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Residuals and max |residual| / residual_scale of each row of roots
    (at least one root), with the row's min_root_distance and root_scale.

    One root-difference matrix serves the distance, the cluster test and
    the residuals, and one Horner pass gives every P_i at the roots and
    every |P_i| at the root scale; the residuals equal bae_residuals and
    the scale residual_scale on the same rows.  A row whose roots lie
    within tols.cluster x scale of each other has no certificate: NaN
    residuals and an infinite scaled residual.
    """
    n = roots.shape[1]
    order = len(polys) - 1
    diff = roots[:, :, None] - roots[:, None, :]
    gap = np.abs(diff)
    gap[:, np.arange(n), np.arange(n)] = np.inf
    dist = gap.min(axis=(1, 2))
    zscale = np.maximum(1.0, np.abs(roots).max(axis=1))
    coeffs = _padded(polys[1:])
    values = _horner(np.concatenate([coeffs, np.abs(coeffs)]),
                     np.concatenate([roots, zscale[:, None]], axis=1))
    residuals = np.full(roots.shape, np.nan, dtype=complex)
    scaled = np.full(roots.shape[0], np.inf)
    ok = ~(dist <= tols.cluster * zscale)
    if ok.any():
        rows = slice(None) if ok.all() else ok
        residuals[rows] = res = _residuals_from(polys, values[:order, rows, :n],
                                                diff[rows])
        bound = values[order:, rows, n].real.max(axis=0, initial=0.0)
        scaled[rows] = np.abs(res).max(axis=1) / np.maximum(bound, 1.0)
    return residuals, scaled, dist, zscale


def _polish_roots(
    model: ModelSpec,
    sector: SectorLabels,
    roots: np.ndarray,
    polys: list[np.ndarray],
    tols: Tolerances,
) -> np.ndarray | None:
    """Newton on the coupled root equations; None when it fails."""
    n = roots.size

    def residual_map(x: np.ndarray) -> np.ndarray:
        candidate = x[:n] + 1j * x[n:]
        try:
            res = bae_residuals(model, sector, candidate, polys, tols.cluster)
        except ValueError:
            return np.full(2 * n, 1e6)
        return np.concatenate([res.real, res.imag])

    scale = residual_scale(polys, roots)
    try:
        x = newton_solve(residual_map,
                         np.concatenate([roots.real, roots.imag]),
                         tol=tols.newton * scale)
    except ConvergenceError:
        return None
    refined = x[:n] + 1j * x[n:]
    order = np.lexsort((refined.imag, refined.real))
    return refined[order]


def _pinned(
    model: ModelSpec,
    sector: SectorLabels,
    roots: np.ndarray,
    values: np.ndarray,
    tols: Tolerances,
) -> np.ndarray:
    """Per row of roots: whether its closed-form energy lies within
    tols.match of E (the energy pin)."""
    return (np.abs(closed_form_energy(model, sector, roots.sum(axis=1)) - values)
            <= tols.match * np.maximum(1.0, np.abs(values)))


def _verified(
    model: ModelSpec,
    sector: SectorLabels,
    roots: np.ndarray,
    values: np.ndarray,
    mono: np.ndarray,
    tols: Tolerances,
) -> np.ndarray:
    """Per row of roots: whether prod (z - root) reproduces H psi = E psi and
    its closed-form energy passes the energy pin."""
    return (_pinned(model, sector, roots, values, tols)
            & _verify_eigen_equation(mono, poly_from_roots(roots), values,
                                     tols.match))


def _recover_states(
    model: ModelSpec,
    sector: SectorLabels,
    values: np.ndarray,
    polys: list[np.ndarray],
    mono: np.ndarray,
    tols: Tolerances,
) -> list[BetheState]:
    """The states of the eigenvalues values[i], with eigen_index i, recovered
    together.

    The coefficients, roots, certificate and verification of every state come
    from one stacked pass.  Only a state whose scaled certificate exceeds
    1e-2 * tols.bae, or whose roots do not verify, is polished by Newton on
    the root equations, one at a time.  It keeps the polished roots when
    their scaled residual is smaller and their closed-form energy passes the
    energy pin: Newton can converge to another state's roots, which only the
    energy tells apart.
    """
    values = np.asarray(values, dtype=float)
    n_top = sector.n_top
    if n_top == 0:
        return [
            BetheState(sector, idx, np.zeros(0, dtype=complex), float(value),
                       np.zeros(0, dtype=complex), False,
                       bool(abs(mono[0, 0] - value)
                            <= tols.match * max(1.0, abs(value))))
            for idx, value in enumerate(values)
        ]

    roots = polynomial_roots(_twisted_coeffs(mono[: n_top + 1], values),
                             tols.roots)
    residuals, scaled, dist, zscale = _scaled_bae_residuals(roots, polys, tols)
    verified = _verified(model, sector, roots, values, mono, tols)
    refined = np.zeros(values.size, dtype=bool)
    retry = np.isfinite(scaled) & ((scaled > 1e-2 * tols.bae) | ~verified)
    for i in np.flatnonzero(retry):
        polished = _polish_roots(model, sector, roots[i], polys, tols)
        if polished is None:
            continue
        cand = polished[None]
        cand_res, cand_scaled, cand_dist, cand_zscale = _scaled_bae_residuals(
            cand, polys, tols)
        if (cand_scaled[0] < scaled[i]
                and _pinned(model, sector, cand, values[i : i + 1], tols)[0]):
            roots[i], residuals[i], refined[i] = polished, cand_res[0], True
            dist[i], zscale[i] = cand_dist[0], cand_zscale[0]
            verified[i] = _verified(model, sector, cand, values[i : i + 1],
                                    mono, tols)[0]

    degenerate = ((dist <= tols.bae_guard * zscale)
                  | ~np.isfinite(residuals.view(float)).all(axis=1))
    # each state holds its own row of the stacked roots and residuals
    return [
        BetheState(sector, i, row, value, res, degen, ok, refined=polish)
        for i, (row, value, res, degen, ok, polish) in enumerate(zip(
            roots, values.tolist(), residuals, degenerate.tolist(),
            verified.tolist(), refined.tolist()))
    ]


def solve_sector(
    model: ModelSpec,
    sector: SectorLabels,
    refine: bool = False,
    tols: Tolerances = DEFAULT_TOLS,
) -> list[BetheState]:
    """All dim eigenstates of the sector, sorted by energy.

    For g = 0 the sector matrix is diagonal and the eigenfunctions are bare
    monomials z^k rather than degree-N monics: each state then reports k
    zero roots, a degeneracy flag for k >= 2, and no residual certificate.
    """
    mats = sector_matrices(model, sector)
    mono, polys = monomial_action(model, sector)

    if model.g == 0.0 and sector.n_top > 0:
        energies = mats.H.diagonal().copy()
        verified = _verify_eigen_equation(
            mono, np.eye(sector.dim, dtype=complex), energies, tols.match)
        states = [
            BetheState(sector, k, np.zeros(k, dtype=complex), float(energies[k]),
                       np.full(k, np.nan, dtype=complex),
                       degenerate_roots=k >= 2, verified=bool(verified[k]))
            for k in range(sector.dim)
        ]
        return sorted(states, key=lambda st: st.energy)

    eig = jacobi_eigen(mats.H, tols.eigen)
    states = _recover_states(model, sector, eig.values, polys, mono, tols)
    if refine:
        states = [newton_refine_bae(model, sector, st, tols) for st in states]
    return sorted(states, key=lambda st: st.energy)


def newton_refine_bae(
    model: ModelSpec,
    sector: SectorLabels,
    state: BetheState,
    tols: Tolerances = DEFAULT_TOLS,
) -> BetheState:
    """Polish the roots by Newton on the coupled root equations.

    The 2N-real-dimensional residual map splits real and imaginary parts.
    On any Newton failure the state is returned unrefined; on success the
    closed-form energy is recomputed and must agree with the eigenvalue.
    """
    if state.roots.size == 0 or state.degenerate_roots:
        return state
    polys = monomial_action(model, sector)[1]
    roots = _polish_roots(model, sector, state.roots, polys, tols)
    if roots is None:
        return state
    res = bae_residuals(model, sector, roots, polys, tols.cluster)
    energy = closed_form_energy(model, sector, complex(np.sum(roots)))
    if abs(energy - state.energy) > 1e-8 * max(1.0, abs(state.energy)):
        raise ValueError(
            f"refinement moved the energy from {state.energy:.12g} to {energy:.12g}"
        )
    return dataclasses.replace(state, roots=roots, bae_residuals=res, refined=True)


def state_to_dict(state: BetheState) -> dict:
    """JSON form: energy, root pairs, residual magnitude, and flags."""
    max_res = state.max_residual()
    return {
        "E": float(state.energy),
        "roots": [[r.real + 0.0, r.imag + 0.0] for r in state.roots.tolist()],
        "residual": None if np.isnan(max_res) else float(max_res),
        "verified": bool(state.verified),
        "degenerate_roots": bool(state.degenerate_roots),
        "refined": bool(state.refined),
    }
