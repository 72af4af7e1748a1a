"""Functional Bethe ansatz on one sector.

On a sector of dimension N+1 every eigenfunction is (up to scale) a monic
polynomial psi(z) = prod_i (z - alpha_i) of degree N.  The production path
RECOVERS the roots: diagonalize the sector matrix, rescale the eigenvector to
monomial coefficients, and factorize.  The coupled root equations

    sum_{i=2}^{order} sum_{n_1<..<n_{i-1} != mu} P_i(a_mu) i! /
        ((a_mu - a_{n_1}) ... (a_mu - a_{n_{i-1}}))  +  P_1(a_mu)  =  0

are then evaluated as a certificate (they express the vanishing of the
simple-pole residues of (H psi)/psi), and the closed-form energy is
cross-checked against the leading-coefficient ratio of H psi.  Direct Newton
solution of the root equations is available as a refinement.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass
from fractions import Fraction
from math import factorial

import numpy as np

from .config import DEFAULT_TOLS, Tolerances
from .linalg import ConvergenceError, jacobi_eigen, newton_solve, polynomial_roots
from .model import ModelSpec, SectorLabels
from .operators import (
    apply_to_monomials,
    build_hamiltonian_operator,
    extract_polynomials,
    poly_eval,
)
from .representation import SectorMatrices, sector_levels, sector_matrices


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
        vals = np.abs(self.bae_residuals)
        return float(np.max(vals)) if np.all(np.isfinite(vals)) else float("nan")


def poly_from_roots(roots: np.ndarray) -> np.ndarray:
    """Ascending coefficients of the monic polynomial prod (z - root)."""
    coeffs = np.array([1.0 + 0.0j])
    for root in np.atleast_1d(roots):
        shifted = np.concatenate(([0.0 + 0.0j], coeffs))
        shifted[:-1] -= root * coeffs
        coeffs = shifted
    return coeffs


def _elem_sym(values: np.ndarray, upto: int) -> np.ndarray:
    """Elementary symmetric sums e_0..e_upto of the given values."""
    e = np.zeros(upto + 1, dtype=complex)
    e[0] = 1.0
    for x in values:
        for m in range(upto, 0, -1):
            e[m] += x * e[m - 1]
    return e


def root_scale(roots: np.ndarray) -> float:
    return max(1.0, float(np.max(np.abs(roots), initial=0.0)))


def min_root_distance(roots: np.ndarray) -> float:
    if roots.size < 2:
        return float("inf")
    diff = np.abs(roots[:, None] - roots[None, :])
    np.fill_diagonal(diff, np.inf)
    return float(np.min(diff))


def residual_scale(polys: list[np.ndarray], roots: np.ndarray) -> float:
    """max_i sup_{|z| = scale} |P_i| used to normalize residual magnitudes."""
    zscale = root_scale(roots)
    best = 0.0
    for p in polys[1:]:
        if p.size:
            best = max(best, float(poly_eval(np.abs(p), zscale).real))
    return max(best, 1.0)


def bae_residuals(
    model: ModelSpec,
    sector: SectorLabels,
    roots: np.ndarray,
    polys: list[np.ndarray] | None = None,
    cluster_rtol: float = DEFAULT_TOLS.cluster,
) -> np.ndarray:
    """Residual of each coupled root equation at the given roots.

    Requires pairwise distinct roots (the derivation assumes simple poles);
    raises ValueError when two roots are closer than cluster_rtol x scale.
    """
    roots = np.atleast_1d(np.asarray(roots, dtype=complex))
    n = roots.size
    expected = sector.n_top
    if n != expected:
        raise ValueError(f"expected {expected} roots, got {n}")
    if n == 0:
        return np.zeros(0, dtype=complex)
    if min_root_distance(roots) <= cluster_rtol * root_scale(roots):
        raise ValueError("coincident roots: residuals are not defined")

    if polys is None:
        polys = extract_polynomials(build_hamiltonian_operator(model, sector))
    order = len(polys) - 1

    # row mu of e holds the elementary symmetric sums of 1/(a_mu - a_nu) over
    # nu != mu; the zeroed diagonal contributes nothing
    diff = roots[:, None] - roots[None, :]
    np.fill_diagonal(diff, 1.0)
    inv = 1.0 / diff
    np.fill_diagonal(inv, 0.0)
    upto = min(order - 1, n - 1)
    e = np.zeros((n, upto + 1), dtype=complex)
    e[:, 0] = 1.0
    for col in inv.T:
        e[:, 1:] += col[:, None] * e[:, :-1]

    res = poly_eval(polys[1], roots) if polys[1].size else np.zeros(n, dtype=complex)
    for i in range(2, upto + 2):
        if polys[i].size:
            res = res + poly_eval(polys[i], roots) * factorial(i) * e[:, i - 1]
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
) -> float:
    """Closed-form energy, cross-checked against the z^N coefficient ratio.

    The ratio [z^N](H psi) / [z^N]psi is computed independently from the
    operator action on monomials; disagreement beyond tolerance means a
    transcription bug and raises.  `mono` is that action,
    apply_to_monomials(build_hamiltonian_operator(model, sector), N); callers
    solving many states of one sector pass it in, otherwise it is built here.
    """
    roots = np.atleast_1d(np.asarray(roots, dtype=complex))
    if roots.size != sector.n_top:
        raise ValueError(f"expected {sector.n_top} roots, got {roots.size}")
    roots_sum = complex(np.sum(roots)) if roots.size else 0.0 + 0.0j
    if abs(roots_sum.imag) > 1e-9 * max(1.0, abs(roots_sum)):
        raise ValueError(f"root sum has non-negligible imaginary part {roots_sum}")

    energy = closed_form_energy(model, sector, roots_sum)

    if mono is None:
        mono = apply_to_monomials(build_hamiltonian_operator(model, sector),
                                  sector.n_top)
    psi = poly_from_roots(roots)
    ratio = complex(mono[sector.n_top, :] @ psi)  # [z^N] psi = 1 (monic)
    scale = max(1.0, abs(energy))
    if abs(ratio - energy) > tols.energy_cross * scale:
        raise ValueError(
            f"energy formula {energy:.12g} disagrees with coefficient ratio "
            f"{ratio:.12g}"
        )
    return energy


# ---------------------------------------------------------------------------
# root recovery and sector solve
# ---------------------------------------------------------------------------

def _verify_eigen_equation(
    mono: np.ndarray, psi: np.ndarray, energy: float, tol: float
) -> bool:
    n_rows, n_cols = mono.shape
    padded = np.zeros(n_cols, dtype=complex)
    padded[: psi.size] = psi
    image = mono @ padded
    target = np.zeros(n_rows, dtype=complex)
    target[:n_cols] = energy * padded
    scale = max(1.0, float(np.max(np.abs(mono))), abs(energy))
    dev = np.max(np.abs(image - target)) / (scale * max(1.0, float(np.max(np.abs(psi)))))
    return bool(dev <= tol)


def _recurrence_coeffs(sq: np.ndarray, energy: float, direction: int) -> np.ndarray:
    """Monic psi coefficients from the three-term recurrence of the action.

    Row m of the square monomial action couples c_{m-1}, c_m, c_{m+1}; given
    the eigenvalue, the coefficients follow by recursion from either end.
    Each direction is numerically stable only when it runs toward the
    dominant coefficients, so callers try both and keep the better one.
    """
    n = sq.shape[0] - 1
    c = np.zeros(n + 1)
    if direction > 0:
        c[0] = 1.0
        for m in range(n):
            val = (energy - sq[m, m]) * c[m]
            if m > 0:
                val -= sq[m, m - 1] * c[m - 1]
            c[m + 1] = val / sq[m, m + 1]
        return c / c[n]
    c[n] = 1.0
    for m in range(n, 0, -1):
        val = (energy - sq[m, m]) * c[m]
        if m < n:
            val -= sq[m, m + 1] * c[m + 1]
        c[m - 1] = val / sq[m, m - 1]
    return c


def _scaled_bae_residual(
    model: ModelSpec,
    sector: SectorLabels,
    roots: np.ndarray,
    polys: list[np.ndarray],
    tols: Tolerances,
) -> tuple[np.ndarray, float]:
    if min_root_distance(roots) <= tols.cluster * root_scale(roots):
        return np.full(roots.size, np.nan, dtype=complex), float("inf")
    res = bae_residuals(model, sector, roots, polys, tols.cluster)
    return res, float(np.max(np.abs(res))) / residual_scale(polys, roots)


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


def _state_from_eigenpair(
    model: ModelSpec,
    sector: SectorLabels,
    mats: SectorMatrices,
    value: float,
    vector: np.ndarray,
    index: int,
    polys: list[np.ndarray],
    mono: np.ndarray,
    tols: Tolerances,
) -> BetheState:
    n_top = sector.n_top
    if n_top == 0:
        verified = bool(abs(mono[0, 0] - value) <= tols.match * max(1.0, abs(value)))
        return BetheState(sector, index, np.zeros(0, dtype=complex), float(value),
                          np.zeros(0, dtype=complex), False, verified)

    coeffs = vector / mats.norm_scale
    top = coeffs[-1]
    if abs(top) <= 1e-12 * np.max(np.abs(coeffs)):
        raise RuntimeError(
            "vanishing leading coefficient in an eigenvector of an irreducible "
            "tridiagonal matrix; labels or couplings are inconsistent"
        )
    rootset = polynomial_roots(coeffs / top, tols.roots, cluster_rtol=tols.cluster)
    roots = rootset.roots
    residuals, scaled = _scaled_bae_residual(model, sector, roots, polys, tols)

    # eigenvectors spanning many orders of magnitude leave the small
    # coefficients relatively inaccurate; when the certificate residual shows
    # it, rebuild the coefficients by recursion from the eigenvalue and, if
    # needed, polish the roots directly on the root equations
    refined = False
    polish_trigger = 1e-2 * tols.bae
    if np.isfinite(scaled) and scaled > polish_trigger:
        sq = mono[: n_top + 1, :]
        for direction in (+1, -1):
            cand_coeffs = _recurrence_coeffs(sq, float(value), direction)
            if not np.all(np.isfinite(cand_coeffs)):
                continue
            cand_roots = polynomial_roots(cand_coeffs, tols.roots,
                                          cluster_rtol=tols.cluster).roots
            cand_res, cand_scaled = _scaled_bae_residual(
                model, sector, cand_roots, polys, tols)
            if cand_scaled < scaled:
                roots, residuals, scaled = cand_roots, cand_res, cand_scaled
        if np.isfinite(scaled) and scaled > polish_trigger:
            polished = _polish_roots(model, sector, roots, polys, tols)
            if polished is not None:
                cand_res, cand_scaled = _scaled_bae_residual(
                    model, sector, polished, polys, tols)
                if cand_scaled < scaled:
                    roots, residuals, scaled = polished, cand_res, cand_scaled
                    refined = True

    spacing = min_root_distance(roots)
    degenerate = bool(spacing <= tols.bae_guard * root_scale(roots))
    if not degenerate and not np.all(np.isfinite(residuals.view(float))):
        degenerate = True

    psi = poly_from_roots(roots)
    verified = _verify_eigen_equation(mono, psi, float(value), tols.match)
    return BetheState(sector, index, roots, float(value), residuals,
                      degenerate, verified, refined=refined)


def recover_roots(
    model: ModelSpec,
    sector: SectorLabels,
    eigen_index: int,
    tols: Tolerances = DEFAULT_TOLS,
) -> BetheState:
    """Roots and certificate for one eigenstate of the sector Hamiltonian."""
    if not 0 <= eigen_index <= sector.n_top:
        raise ValueError(f"eigen_index {eigen_index} outside 0..{sector.n_top}")
    if model.g == 0.0 and sector.n_top > 0:
        raise ValueError("root recovery needs g != 0; use solve_sector for g = 0")
    mats = sector_matrices(model, sector)
    eig = jacobi_eigen(mats.H, tols.eigen)
    h_op = build_hamiltonian_operator(model, sector)
    polys = extract_polynomials(h_op)
    mono = apply_to_monomials(h_op, sector.n_top)
    return _state_from_eigenpair(
        model, sector, mats, eig.values[eigen_index], eig.vectors[:, eigen_index],
        eigen_index, polys, mono, tols,
    )


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
    h_op = build_hamiltonian_operator(model, sector)
    mono = apply_to_monomials(h_op, sector.n_top)

    if model.g == 0.0 and sector.n_top > 0:
        states = []
        for k in range(sector.dim):
            energy = float(mats.H[k, k])
            roots = np.zeros(k, dtype=complex)
            psi = np.zeros(k + 1, dtype=complex)
            psi[k] = 1.0
            verified = _verify_eigen_equation(mono, psi, energy, tols.match)
            states.append(BetheState(
                sector, k, roots, energy, np.full(k, np.nan, dtype=complex),
                degenerate_roots=k >= 2, verified=verified,
            ))
        return sorted(states, key=lambda st: st.energy)

    eig = jacobi_eigen(mats.H, tols.eigen)
    polys = extract_polynomials(h_op)
    states = [
        _state_from_eigenpair(model, sector, mats, eig.values[i],
                              eig.vectors[:, i], i, polys, mono, tols)
        for i in range(sector.dim)
    ]
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
    polys = extract_polynomials(build_hamiltonian_operator(model, sector))
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
        "roots": [[float(r.real) + 0.0, float(r.imag) + 0.0] for r in state.roots],
        "residual": None if np.isnan(max_res) else float(max_res),
        "verified": bool(state.verified),
        "degenerate_roots": bool(state.degenerate_roots),
        "refined": bool(state.refined),
    }
