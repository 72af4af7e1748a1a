"""Functional Bethe ansatz on one sector.

On a sector of dimension N+1 every eigenfunction is (up to scale) a monic
polynomial psi(z) = prod_i (z - alpha_i) of degree N.  The production path
RECOVERS the roots: diagonalize the sector matrix for its eigenvalues, get
each eigenvalue's monomial coefficients from a twisted ratio recurrence on
the tridiagonal monomial action, and factorize.  All N+1 states of a sector
share the coefficient polynomials P_d, so their coefficients, roots and
certificates are computed once per sector on a stack of states; only states
whose certificate misses, or whose roots do not verify, fall back, one at a
time, to Newton on the root equations (refine widens that to every state
with a certificate), and a state keeps Newton's roots only if they certify
no worse and their closed-form energy pins its eigenvalue.  The residuals
are holomorphic in the roots, so Newton works in the complex roots, and
the certificate core evaluates its N Jacobian columns as one stack of
perturbed root sets; a clustered root set's residuals are NaN, which
Newton never accepts.  The monomial
action and the P_d come from operators.monomial_action, which combines
cached coupling-free pieces without building the operator.  The coupled root
equations

    sum_{i=2}^{order} sum_{n_1<..<n_{i-1} != mu} P_i(a_mu) i! /
        ((a_mu - a_{n_1}) ... (a_mu - a_{n_{i-1}}))  +  P_1(a_mu)  =  0

are then evaluated as a certificate (they express the vanishing of the
simple-pole residues of (H psi)/psi); the certificate of a stack forms the
root differences once and evaluates every P_i in one Horner pass.  The
closed-form energy is cross-checked against the leading-coefficient ratio
of H psi.  Each state carries the scaled residual it was judged by, max
|residual| / residual_scale, so a caller checks it against Tolerances.bae
without scaling again.

solve_sectors solves many sectors of one model: the sectors of one
dimension, whatever the sizes of their P_d, share one stacked eigensolve,
one set of twisted coefficients, one root-finder call and one certificate
and verification pass.  Sectors with no roots to recover (dimension 1, or
g = 0) share one construction instead: state k is the monomial z^k.  Every
step works matrix by matrix or row by row, so each sector's states equal,
bit for bit, what solve_sector gives for that sector alone; solve_sector
is the one-sector case of the same code.  The stacked eigensolve and root
finder report their outcome per matrix and per row (linalg._eigen_stack,
linalg._root_stack), so a group knows which of its sectors fail, and with
which error, from the one pass: a failed sector leaves the later stages and
no sector is solved twice.

The public checks take one root set each (energy_from_roots, bae_residuals,
residual_scale, root_scale) and raise ValueError on any other shape; the
stacks live in private cores.  _scaled_bae_residuals certifies the root
sets of many sectors of one dimension at once, and bae_residuals is its
raising one-root-set case; residual_scale evaluates one root set's
scale alone, as an independent check of the stacked one.
_energies_from_roots gives the closed-form energies and the z^N-ratio
cross-check of the root sets of many sectors of one dimension, from any
models, with each sector's error message instead of a raise;
energy_from_roots is its one-root-set case.  The acceptance sweep checks
energies through it and reads each state's scaled residual.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import factorial, isfinite

import numpy as np

from .config import DEFAULT_TOLS, Tolerances
from .linalg import (_UNSETTLED, ConvergenceError, _eigen_stack, _root_stack,
                     horner, newton_solve)
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
    # max |residual| / residual_scale, the certificate judged against
    # Tolerances.bae; NaN unless every residual is finite, 0.0 without roots
    scaled_residual: float
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


def _root_set(roots) -> np.ndarray:
    """roots as one contiguous complex root set; ValueError for any other
    shape."""
    roots = np.ascontiguousarray(roots, dtype=complex)
    if roots.ndim != 1:
        raise ValueError(f"expected one root set, got shape {roots.shape}")
    return roots


def root_scale(roots: np.ndarray) -> float:
    """max(1, max |root|) of one root set."""
    return float(np.maximum(1.0, np.max(np.abs(_root_set(roots)), initial=0.0)))


def residual_scale(polys: list[np.ndarray], roots: np.ndarray) -> float:
    """max(1, max_i sup_{|z| = root_scale} |P_i|), which normalizes the
    residual magnitudes of one root set; _scaled_bae_residuals gives the
    same value, bit for bit, for each row of a stack."""
    bound = horner(np.abs(_padded(polys[1:])), root_scale(roots))
    return max(float(bound.max(initial=0.0)), 1.0)


def _padded(polys: list[np.ndarray]) -> np.ndarray:
    """The polynomials as the rows of one matrix, padded with zero top
    coefficients (at least one column)."""
    coeffs = np.zeros((len(polys), max([p.size for p in polys] + [1])))
    for i, p in enumerate(polys):
        coeffs[i, : p.size] = p
    return coeffs


def bae_residuals(
    model: ModelSpec,
    sector: SectorLabels,
    roots: np.ndarray,
    polys: list[np.ndarray] | None = None,
) -> np.ndarray:
    """Residual of each coupled root equation at one root set.

    Requires pairwise distinct roots (the derivation assumes simple poles);
    raises ValueError when two roots are closer than DEFAULT_TOLS.cluster x
    scale, the root sets _scaled_bae_residuals gives no certificate.
    """
    roots = _root_set(roots)
    if roots.size != sector.n_top:
        raise ValueError(f"expected {sector.n_top} roots, got {roots.size}")
    if roots.size == 0:
        return np.zeros(0, dtype=complex)
    if polys is None:
        polys = monomial_action(model, sector)[1]
    residuals, scaled, *_ = _scaled_bae_residuals(roots[None], [polys],
                                                  DEFAULT_TOLS.cluster)
    if np.isinf(scaled[0]):
        raise ValueError("coincident roots: residuals are not defined")
    return residuals[0]


def _residuals_from(order: int, at_roots: np.ndarray,
                    diff: np.ndarray) -> np.ndarray:
    """The root-equation residuals of each row of roots (at least one root,
    no two equal), given P_1..P_order at the roots in at_roots[i - 1] and
    diff = roots[..., :, None] - roots[..., None, :]; diff's diagonal is
    overwritten.  Every term is added: a zero P_i reads exactly 0 at the
    roots, so its term adds nothing."""
    n = diff.shape[-1]

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

    res = at_roots[0]
    for i in range(2, upto + 2):
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
) -> float:
    """Energy from the leading-order expansion of H psi.

    E = sum_i w_i nbar_i + g' (r N - j + p)^s
        - g [prod spin factors at n = N-1][prod boson factors at n = N-1]
          * sum_i alpha_i  +  constant_shift

    nbar_i is the level-N boson occupation, whose exact form carries the
    mode-weighted combination sum_mu mu*l_mu (the printed unweighted variant
    lives in the erratum check presets._check_energy_weight).  The
    occupations, the spin power and the integer product multiplying
    sum_i alpha_i are read from the sector's cached levels.
    An array of root sums gives one energy per entry.
    """
    n_top = sector.n_top
    levels = sector_levels(model, sector)

    energy = 0.0
    if model.M > 0:
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
) -> float:
    """Closed-form energy of one root set, cross-checked against the z^N
    coefficient ratio.

    The ratio [z^N](H psi) / [z^N]psi is computed independently from the
    operator action on monomials; disagreement beyond tolerance means a
    transcription bug and raises.  `mono` is that action,
    operators.monomial_action(model, sector)[0]; callers solving many states
    of one sector pass it in, otherwise it is built here.  This is the
    one-state case of _energies_from_roots.
    """
    roots = _root_set(roots)
    if roots.size != sector.n_top:
        raise ValueError(f"expected {sector.n_top} roots, got {roots.size}")
    if mono is None:
        mono = monomial_action(model, sector)[0]
    energies, (error,) = _energies_from_roots(
        [model], [sector], roots[None, None], mono[None, sector.n_top], tols)
    if error is not None:
        raise ValueError(error)
    return float(energies[0, 0])


def _energies_from_roots(
    models: list[ModelSpec],
    sectors: list[SectorLabels],
    roots: np.ndarray,
    tops: np.ndarray,
    tols: Tolerances,
    skip: np.ndarray | bool = False,
) -> tuple[np.ndarray, list[str | None]]:
    """The closed-form energies of the root sets roots[g, i] of sector
    sectors[g] of models[g], for G sectors with one n_top, and per sector
    the message of the error energy_from_roots raises for its first failing
    root set not marked in skip (None when every such root set passes).
    tops[g] is the z^N row of sector g's monomial action.  One root sum, one
    set of psi coefficients and one ratio product serve the whole stack, and
    each energy and message equals, bit for bit, that of energy_from_roots
    on its root set alone.
    """
    sums = roots.sum(axis=-1)
    imag_bad = _off_real(sums)
    energies = np.array([
        np.broadcast_to(closed_form_energy(model, sector, row), row.shape)
        for model, sector, row in zip(models, sectors, sums)], dtype=float)
    # [z^N] psi = 1 (monic)
    ratios = (poly_from_roots(roots) @ tops[..., None])[..., 0]
    ratio_bad = (np.abs(ratios - energies)
                 > tols.energy_cross * _at_least_one(np.abs(energies)))
    errors: list[str | None] = [None] * len(sectors)
    for g, i in zip(*np.nonzero((imag_bad | ratio_bad) & ~skip)):
        if errors[g] is not None:
            continue
        if imag_bad[g, i]:
            errors[g] = (f"root sum has non-negligible imaginary part "
                         f"{complex(sums[g, i])}")
        else:
            errors[g] = (f"energy formula {float(energies[g, i]):.12g} disagrees "
                         f"with coefficient ratio {complex(ratios[g, i]):.12g}")
    return energies, errors


def _off_real(sums: np.ndarray) -> np.ndarray:
    """Per root sum: whether its imaginary part is non-negligible."""
    return np.abs(sums.imag) > 1e-9 * _at_least_one(np.abs(sums))


def _at_least_one(values: np.ndarray) -> np.ndarray:
    """max(1.0, value) per entry, as the builtin max takes it (NaN gives 1)."""
    return np.where(values > 1.0, values, 1.0)


# ---------------------------------------------------------------------------
# root recovery and sector solve
# ---------------------------------------------------------------------------

def _verify_eigen_equation(
    mono: np.ndarray, psi: np.ndarray, energies: np.ndarray, tol: float
) -> np.ndarray:
    """Per row of psi (ascending coefficients, mono's width): whether the
    monomial action reproduces energies[row] * psi within tol, relative to
    the scales of the action, the energy and psi.  A (G, ...) stack of
    actions takes (G, S, ...) rows, or S rows shared by every sector, and
    (G, S) energies, each sector's rows judged against its own action."""
    # H psi - E psi; E psi has no z^(N+1) term
    image = psi @ mono.swapaxes(-2, -1)
    image[..., : mono.shape[-1]] -= energies[..., None] * psi
    mono_scale = _at_least_one(np.abs(mono).max(axis=(-2, -1)))[..., None]
    scale = np.maximum(mono_scale, np.abs(energies))
    dev = (np.abs(image).max(axis=-1)
           / (scale * np.maximum(1.0, np.abs(psi).max(axis=-1))))
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

    sq may also be a (G, n+1, n+1) stack of the actions of G sectors, with
    values (G, S) holding S eigenvalues of each; the rows come back as
    (G, S, n+1), each sector's as a call with that sector alone gives them
    (its own pivot bound included).
    """
    n = sq.shape[-1] - 1
    # the level m runs along the first axis, then the sector, then the state
    shifted = sq.diagonal(0, -2, -1).T[..., None] - np.asarray(values, dtype=float)
    sup = sq.diagonal(1, -2, -1).T[..., None]
    sub = sq.diagonal(-1, -2, -1).T[..., None]
    # step i eliminates row i from the top ([:, 0]) and row n - i from the
    # bottom ([:, 1]); the pivots overwrite the shifted diagonal in place
    pivots = np.empty((n + 1, 2) + shifted.shape[1:])
    pivmin = np.empty(pivots.shape[1:])
    pivmin[...] = _EPS * np.abs(sq).max(axis=(-2, -1))[..., None]
    pivots[:, 0] = shifted
    pivots[:, 1] = shifted[::-1]
    couple = np.empty((n, 2) + sup.shape[1:])
    couple[:, 0] = sub * sup
    couple[:, 1] = couple[::-1, 0]
    for i in range(n + 1):
        pivot = pivots[i]
        if i:
            pivot -= couple[i - 1] / pivots[i - 1]
        small = np.abs(pivot) < pivmin
        pivot[small] = pivmin[small]
    top, bottom = pivots[:, 0], pivots[::-1, 1]
    twist = np.abs(top + bottom - shifted).argmin(axis=0)
    # c_m / c_{m+1} comes from the top elimination for m < k and from the
    # bottom one for m >= k; the monic row is their product from z^N down
    level = np.arange(n).reshape((n,) + (1,) * twist.ndim)
    ratio = np.where(level < twist, -sup / top[:-1], -bottom[1:] / sub)
    monic = np.ones(shifted.shape)
    monic[:n] = ratio[::-1].cumprod(axis=0)[::-1]
    return monic.transpose(tuple(range(1, monic.ndim)) + (0,))


def _scaled_bae_residuals(
    roots: np.ndarray,
    polys: list[list[np.ndarray]],
    cluster_rtol: float,
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Residuals, max |residual| / residual_scale and residual_scale of each
    row of roots (at least one root), with the row's smallest root distance
    and root_scale.

    polys holds the P_i of G sectors, and the rows of roots are those
    sectors' root sets in G equal blocks, in order.  Every sector's
    P_1..P_order is padded with zeros to one size, so a P_i a sector lacks
    evaluates to exactly 0.  One root-difference matrix serves the distance,
    the cluster test and the residuals, and one Horner pass gives every P_i
    at the roots and every |P_i| at the root scale; the residual scale
    equals residual_scale on the same rows.  A row whose roots lie within
    cluster_rtol x root_scale of each other has no certificate: NaN
    residuals and an infinite scaled residual.
    """
    n = roots.shape[1]
    order = max(len(p) for p in polys) - 1
    diff = roots[:, :, None] - roots[:, None, :]
    gap = np.abs(diff)
    gap[:, np.arange(n), np.arange(n)] = np.inf
    dist = gap.min(axis=(1, 2))
    zscale = np.maximum(1.0, np.abs(roots).max(axis=1))
    # (G, order, K): each sector's P_1..P_order, evaluated on its own block
    width = max([q.size for p in polys for q in p[1:]] + [1])
    coeffs = np.zeros((len(polys), order, width))
    for g, p in enumerate(polys):
        for i, q in enumerate(p[1:]):
            coeffs[g, i, : q.size] = q
    points = np.concatenate([roots, zscale[:, None]], axis=1)
    values = horner(np.concatenate([coeffs, np.abs(coeffs)], axis=1).swapaxes(0, 1)
                    [:, :, None, None], points.reshape(len(polys), -1, n + 1)
                    ).reshape(2 * order, -1, n + 1)
    scale = np.maximum(values[order:, :, n].real.max(axis=0, initial=0.0), 1.0)
    residuals = np.full(roots.shape, np.nan, dtype=complex)
    scaled = np.full(roots.shape[0], np.inf)
    ok = ~(dist <= cluster_rtol * zscale)
    if ok.any():
        rows = slice(None) if ok.all() else ok
        residuals[rows] = res = _residuals_from(order, values[:order, rows, :n],
                                                diff[rows])
        scaled[rows] = np.abs(res).max(axis=1) / scale[rows]
    return residuals, scaled, scale, dist, zscale


def _polish_roots(
    roots: np.ndarray,
    polys: list[np.ndarray],
    scale: float,
    tols: Tolerances,
) -> np.ndarray | None:
    """Newton on the coupled root equations from one root set, to
    tols.newton x scale, the residual_scale of the starting roots; None when
    it fails.  The residuals are holomorphic in the roots, and one
    _scaled_bae_residuals call evaluates a stack of root sets; a clustered
    root set's residuals are NaN, which Newton never accepts."""
    try:
        refined = newton_solve(
            lambda z: _scaled_bae_residuals(z, [polys], tols.cluster)[0],
            roots, tol=tols.newton * scale)
    except ConvergenceError:
        return None
    order = np.lexsort((refined.imag, refined.real))
    return refined[order]


def _pinned(
    model: ModelSpec,
    sectors: list[SectorLabels],
    roots: np.ndarray,
    values: np.ndarray,
    tols: Tolerances,
) -> np.ndarray:
    """Per root set roots[g, i] of sector g: whether its closed-form energy
    lies within tols.match of E = values[g, i] (the energy pin)."""
    sums = roots.sum(axis=-1)
    energies = np.array([closed_form_energy(model, sector, row)
                         for sector, row in zip(sectors, sums)])
    return (np.abs(energies - values)
            <= tols.match * np.maximum(1.0, np.abs(values)))


def _verified(
    model: ModelSpec,
    sectors: list[SectorLabels],
    roots: np.ndarray,
    values: np.ndarray,
    monos: np.ndarray,
    tols: Tolerances,
) -> np.ndarray:
    """Per root set roots[g, i] of sector g: whether prod (z - root)
    reproduces H psi = E psi under sector g's monomial action monos[g] and
    its closed-form energy passes the energy pin."""
    return (_pinned(model, sectors, roots, values, tols)
            & _verify_eigen_equation(monos, poly_from_roots(roots), values,
                                     tols.match))


def _group_roots(
    monos: np.ndarray, values: np.ndarray, tols: Tolerances
) -> tuple[np.ndarray, np.ndarray]:
    """The roots recovered from each eigenvalue values[g, i] of sector g of
    a group of sectors of one dimension dim >= 2, shape (G, dim, dim - 1),
    and per sector whether a row did not settle (polynomial_roots on that
    sector alone raises): one set of twisted coefficients and one
    root-finder call for all of them, each row as a call with that
    eigenvalue of that sector alone gives it.  monos[g] is sector g's
    monomial action."""
    n_sectors, dim = values.shape
    coeffs = _twisted_coeffs(monos[:, :dim], values)
    roots, unsettled = _root_stack(coeffs.reshape(-1, dim), tols.roots)
    return (roots.reshape(n_sectors, dim, dim - 1),
            unsettled.reshape(n_sectors, dim).any(axis=1))


def _recover_states(
    model: ModelSpec,
    sectors: list[SectorLabels],
    values: np.ndarray,
    roots: np.ndarray,
    monos: np.ndarray,
    polys: list[list[np.ndarray]],
    tols: Tolerances,
    refine: bool = False,
) -> list[list[BetheState]]:
    """The states of the eigenvalues values[g, i], with eigen_index i, of
    each sector g of a group of one dimension dim >= 2, from the roots
    roots[g, i] that _group_roots recovered from them; roots is updated in
    place with the roots each state keeps.  monos[g] and polys[g] are
    sector g's monomial action and P_d, of any sizes.

    The certificate and verification of every state come from one stacked
    pass.  A state whose scaled certificate exceeds 1e-2 * tols.bae, or
    whose roots do not verify, is polished by Newton on the root equations,
    one at a time; refine polishes every state that has a certificate.  A
    state keeps the polished roots when their scaled residual is no larger
    and their closed-form energy passes the energy pin: Newton can converge
    to another state's roots, which only the energy tells apart.  Each
    state's flags and scaled residual are those of the roots it keeps.
    """
    n_top = sectors[0].n_top
    residuals, scaled, scale, dist, zscale = (
        part.reshape(values.shape + part.shape[1:]) for part in
        _scaled_bae_residuals(roots.reshape(-1, n_top), polys, tols.cluster))
    verified = _verified(model, sectors, roots, values, monos, tols)
    refined = np.zeros(values.shape, dtype=bool)
    retry = np.isfinite(scaled) & (refine | (scaled > 1e-2 * tols.bae) | ~verified)
    for g, i in zip(*np.nonzero(retry)):
        sector, sector_polys = sectors[g], polys[g]
        polished = _polish_roots(roots[g, i], sector_polys, float(scale[g, i]),
                                 tols)
        if polished is None:
            continue
        cand = polished[None]
        cand_res, cand_scaled, _, cand_dist, cand_zscale = _scaled_bae_residuals(
            cand, [sector_polys], tols.cluster)
        value = values[g : g + 1, i : i + 1]
        if (cand_scaled[0] <= scaled[g, i]
                and _pinned(model, [sector], cand[None], value, tols)[0, 0]):
            roots[g, i], residuals[g, i], refined[g, i] = polished, cand_res[0], True
            scaled[g, i], dist[g, i], zscale[g, i] = (
                cand_scaled[0], cand_dist[0], cand_zscale[0])
            verified[g, i] = _verified(model, [sector], cand[None], value,
                                       monos[g : g + 1], tols)[0, 0]

    finite = np.isfinite(residuals.view(float)).all(axis=-1)
    degenerate = (dist <= tols.bae_guard * zscale) | ~finite
    scaled[~finite] = np.nan
    # each state holds its own row of the stacked roots and residuals
    return [
        [BetheState(sector, i, row, value, res, cert, degen, ok, refined=polish)
         for i, (row, value, res, cert, degen, ok, polish) in enumerate(zip(
             sector_roots, sector_values, sector_residuals, sector_scaled,
             sector_degenerate, sector_verified, sector_refined))]
        for sector, sector_roots, sector_values, sector_residuals, sector_scaled,
        sector_degenerate, sector_verified, sector_refined in zip(
            sectors, roots, values.tolist(), residuals, scaled.tolist(),
            degenerate.tolist(), verified.tolist(), refined.tolist())
    ]


def solve_sector(
    model: ModelSpec,
    sector: SectorLabels,
    refine: bool = False,
    tols: Tolerances = DEFAULT_TOLS,
) -> list[BetheState]:
    """All dim eigenstates of the sector, sorted by energy.

    A sector of dimension 1, or any sector at g = 0, has no roots to
    recover: its eigenfunctions are bare monomials z^k rather than degree-N
    monics (at g = 0 the sector matrix is diagonal, and its diagonal gives
    the energies without an eigensolve).  Each state then reports k zero
    roots, a degeneracy flag for k >= 2 and no residual certificate, and is
    never refined.  refine sends every other state with a certificate
    through the Newton polish of _recover_states, under the same acceptance
    rule.
    """
    (solved,) = _solve_group(model, [sector], refine, tols)
    if isinstance(solved, Exception):
        raise solved
    return solved


def solve_sectors(
    model: ModelSpec,
    sectors: list[SectorLabels],
    refine: bool = False,
    tols: Tolerances = DEFAULT_TOLS,
) -> list[list[BetheState]]:
    """The states of each sector, in the order the sectors are given: each
    list equals, bit for bit, what solve_sector returns for that sector alone.

    The sectors of one dimension are solved together by _solve_group; a
    dimension with one sector goes through solve_sector.  Every sector is
    solved at most once, and the sectors given after the first failure
    found so far are skipped: the error raised is the one the first failing
    sector, in the order given, raises alone.
    """
    groups: dict[int, list[int]] = {}
    for index, sector in enumerate(sectors):
        groups.setdefault(sector.dim, []).append(index)
    out: list = [None] * len(sectors)
    first_failure = len(sectors)
    for indices in groups.values():
        indices = [i for i in indices if i < first_failure]
        if not indices:
            continue
        if len(indices) == 1:
            try:
                solved = [solve_sector(model, sectors[indices[0]], refine, tols)]
            except Exception as exc:
                solved = [exc]
        else:
            solved = _solve_group(model, [sectors[i] for i in indices], refine, tols)
        for i, result in zip(indices, solved):
            out[i] = result
            if isinstance(result, Exception):
                first_failure = min(first_failure, i)
    if first_failure < len(sectors):
        raise out[first_failure]
    return out


# a sector that overflows (in the eigensolve check, its twisted coefficients
# or its certificate) fails or is flagged by the non-finite values themselves
@np.errstate(over="ignore", invalid="ignore", divide="ignore")
def _solve_group(
    model: ModelSpec,
    sectors: list[SectorLabels],
    refine: bool,
    tols: Tolerances,
) -> list[list[BetheState] | Exception]:
    """solve_sector on each of the sectors, which share one dimension: per
    sector its states, or the exception it raises alone.  That exception
    comes from building the sector's matrices, from its eigensolve or from
    a root row that does not settle; a failed sector takes no part in the
    later stages.  The sectors are solved in one pass, whatever the sizes
    of their P_d: one stacked eigensolve (none at g = 0 above dimension 1,
    where the sector matrix is diagonal), then one _group_roots and one
    _recover_states for them all, or, without roots to recover (dimension
    1, or g = 0), one verification of the monomials."""
    solved: list = [None] * len(sectors)
    mats, actions = {}, {}
    for g, sector in enumerate(sectors):
        try:
            mats[g] = sector_matrices(model, sector).H
            actions[g] = monomial_action(model, sector)
        except Exception as exc:
            solved[g] = exc
    block = list(actions)
    if not block:
        return solved
    dim = sectors[0].dim
    monos = np.array([actions[g][0] for g in block])

    if model.g == 0.0 and dim > 1:
        values = np.array([mats[g].diagonal() for g in block])
    else:
        values, errors = _eigen_stack(np.array([mats[g] for g in block]), tols.eigen)
        failed = np.array([error is not None for error in errors])
        if failed.any():
            for g, error in zip(block, errors):
                solved[g] = error
            block, values, monos = _kept(~failed, block, values, monos)
            if not block:
                return solved
    if model.g == 0.0 or dim == 1:
        # no roots to recover: state k is the monomial z^k, with k zero roots
        # and no residual certificate, verified against the monomial action
        verified = _verify_eigen_equation(monos, np.eye(dim, dtype=complex),
                                          values, tols.match)
        states = [
            [BetheState(sectors[g], k, np.zeros(k, dtype=complex), energy,
                        np.full(k, np.nan, dtype=complex), 0.0 if k == 0 else np.nan,
                        degenerate_roots=k >= 2, verified=ok)
             for k, (energy, ok) in enumerate(zip(row, sector_verified))]
            for g, row, sector_verified in zip(block, values.tolist(),
                                               verified.tolist())]
    else:
        roots, unsettled = _group_roots(monos, values, tols)
        if unsettled.any():
            for g in _kept(unsettled, block)[0]:
                solved[g] = ConvergenceError(_UNSETTLED)
            block, values, monos, roots = _kept(~unsettled, block, values, monos, roots)
            if not block:
                return solved
        states = _recover_states(
            model, [sectors[g] for g in block], values, roots, monos,
            [actions[g][1] for g in block], tols, refine)
    for g, sector_states in zip(block, states):
        solved[g] = sorted(sector_states, key=lambda st: st.energy)
    return solved


def _kept(mask: np.ndarray, block: list[int], *arrays: np.ndarray) -> tuple:
    """The entries of block, and the rows of each array, where mask holds."""
    return ([g for g, keep in zip(block, mask) if keep],
            *(array[mask] for array in arrays))
