"""Finite-dimensional matrices on one sector, and the full Fock-space oracle.

Two independent routes to the same spectra live here.  `sector_matrices`
builds the ladder operators and H in the orthonormal sector basis from the
closed-form matrix elements; `fock_oracle` builds H directly in second
quantization on a truncated spin x Fock product space and carves it into
charge blocks.  The two must agree block by block, which is the backbone of
the verification suite.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from math import factorial, perm, sqrt

import numpy as np

from .config import DEFAULT_TOLS
from .model import (
    SECTOR_CACHE_SIZE,
    ModelSpec,
    Rational,
    ReferenceState,
    SectorLabels,
    level_occupations,
    occupation_grid,
    parse_rational,
    sector_from_reference,
    validate_model,
)
from .operators import apply_to_monomials, build_hamiltonian_operator


@dataclass(frozen=True)
class SectorMatrices:
    """H on one sector: (dim x dim) in the orthonormal ladder basis and
    exactly symmetric."""

    H: np.ndarray


def _exact_sqrt_product(radicands: list[Fraction]) -> float:
    """sqrt of a product of rational radicands, exact about zeros and signs."""
    prod = Fraction(1)
    for rad in radicands:
        if rad == 0:
            return 0.0
        prod *= rad
    if any(rad < 0 for rad in radicands):
        raise ValueError("negative radicand: sector labels are inconsistent")
    return sqrt(float(prod))


def _raising_radicands(
    model: ModelSpec, sector: SectorLabels, n: int, occ: tuple[int, ...]
) -> list[Fraction]:
    """Radicands of the n -> n+1 amplitude; occ holds the level-n occupations."""
    j, p, r = sector.j, sector.p, model.r
    rads = [Fraction((p + i + r * n) * (2 * j - p - i + 1 - r * n)) for i in range(1, r + 1)]
    for ki, ni in zip(model.k, occ):
        rads.extend(Fraction(ni - v + 1, ki) for v in range(1, ki + 1))
    return rads


def _lowering_radicands(
    model: ModelSpec, sector: SectorLabels, n: int, occ: tuple[int, ...]
) -> list[Fraction]:
    """Radicands of the n -> n-1 amplitude; occ holds the level-n occupations."""
    j, p, r = sector.j, sector.p, model.r
    rads = [Fraction((p - i + 1 + r * n) * (2 * j - p + i - r * n)) for i in range(1, r + 1)]
    for ki, ni in zip(model.k, occ):
        rads.extend(Fraction(ni + v, ki) for v in range(1, ki + 1))
    return rads


def _pplus_band(model: ModelSpec, sector: SectorLabels) -> np.ndarray:
    """Sub-diagonal amplitudes of the raising operator, levels n -> n+1."""
    occ = level_occupations(model.k, sector)
    return np.array(
        [_exact_sqrt_product(_raising_radicands(model, sector, n, occ[n]))
         for n in range(sector.dim - 1)]
    )


def _pminus_band(model: ModelSpec, sector: SectorLabels) -> np.ndarray:
    """Super-diagonal amplitudes of the lowering operator, levels n -> n-1."""
    occ = level_occupations(model.k, sector)
    return np.array(
        [_exact_sqrt_product(_lowering_radicands(model, sector, n, occ[n]))
         for n in range(1, sector.dim)]
    )


def ladder_operators(
    model: ModelSpec, sector: SectorLabels
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """P0, Pplus and Pminus on the sector, built afresh from the closed forms.

    P0 is diagonal with the eigenvalues (p - j)/r + n - kappa; the ladder
    bands are the ones sector_matrices reads, without its cache: the algebra
    checks judge the matrix elements as the current code computes them.
    """
    p0_diag = [float((Fraction(sector.p) - sector.j) / model.r + n - sector.kappa)
               for n in range(sector.dim)]
    return (np.diag(p0_diag), np.diag(_pplus_band(model, sector), -1),
            np.diag(_pminus_band(model, sector), 1))


def norm_scale(model: ModelSpec, sector: SectorLabels) -> np.ndarray:
    """Monomial-map denominators sqrt((p+rn)! (2j-p-rn)! prod_i n_i!) per level:
    diag(norm_scale) conjugates the monomial-basis action into the
    orthonormal sector basis."""
    j, p, r = sector.j, sector.p, model.r
    two_j = int(2 * j)
    out = np.empty(sector.dim)
    for n, occ in enumerate(level_occupations(model.k, sector)):
        prod = factorial(p + r * n) * factorial(two_j - p - r * n)
        for ni in occ:
            prod *= factorial(ni)
        out[n] = sqrt(float(prod))
    return out


@dataclass(frozen=True, slots=True)
class SectorLevels:
    """The coupling-free data of one sector, level by level.

    Every array is read-only.  band is the dense Pplus + Pminus, with
    pplus_band below and pminus_band above the diagonal; occupations[n] are
    the boson occupations at ladder level n; spin_powers[n] = (p - j + r n)^s
    is the eigenvalue of (r (P0 + kappa))^s; root_sum_coeff is the integer
    product prod_i (2j - p - i + 1 - r(N-1)) prod_i prod_v (n_i(N-1) - v + 1)
    that multiplies -g sum_i alpha_i in the closed-form energy (0.0 when
    N = 0).
    """

    pplus_band: np.ndarray
    pminus_band: np.ndarray
    band: np.ndarray
    occupations: np.ndarray
    spin_powers: np.ndarray
    root_sum_coeff: float


def sector_levels(model: ModelSpec, sector: SectorLabels) -> SectorLevels:
    """The sector's SectorLevels, computed once per (M, r, s, k, sector) and
    kept in a cache bounded by model.SECTOR_CACHE_SIZE."""
    return _sector_levels(model.M, model.r, model.s, model.k, sector)


@lru_cache(maxsize=SECTOR_CACHE_SIZE)
def _sector_levels(
    M: int, r: int, s: int, k: tuple[int, ...], sector: SectorLabels
) -> SectorLevels:
    shape = ModelSpec(M=M, r=r, s=s, k=k, w=(0.0,) * M, g_prime=0.0, g=0.0)
    j, p, n_top = sector.j, sector.p, sector.n_top
    up = _pplus_band(shape, sector)
    down = _pminus_band(shape, sector)
    occ = level_occupations(k, sector)
    spin_powers = np.array(
        [float((Fraction(p) - j + r * n) ** s) for n in range(sector.dim)])

    coeff = 0
    if n_top > 0:
        coeff = 1
        for i in range(1, r + 1):
            coeff *= int(2 * j - p - i + 1 - r * (n_top - 1))
        for ki, ni in zip(k, occ[n_top - 1]):
            for v in range(1, ki + 1):
                coeff *= ni - v + 1

    arrays = (up, down, np.diag(up, -1) + np.diag(down, 1),
              np.array(occ, dtype=np.int64), spin_powers)
    for arr in arrays:
        arr.flags.writeable = False
    return SectorLevels(*arrays, root_sum_coeff=float(coeff))


def sector_matrices(
    model: ModelSpec,
    sector: SectorLabels,
    symmetry_rtol: float = DEFAULT_TOLS.symmetry,
) -> SectorMatrices:
    """The symmetric H on the sector.

    H = sum_i w_i N_i + g' (r(P0 + kappa))^s
        + g prod_i k_i^{k_i/2} (Pplus + Pminus) + constant_shift.

    The ladder bands, the occupations and the spin powers come from
    sector_levels (cached per model shape and sector); each call
    combines them with w, g', g and constant_shift and returns arrays of
    its own.
    """
    validate_model(model)
    levels = sector_levels(model, sector)

    diag = np.zeros(sector.dim)
    for wi, occ_i in zip(model.w, levels.occupations.T):
        diag += wi * occ_i
    diag += model.g_prime * levels.spin_powers
    diag += model.constant_shift
    h = np.zeros((sector.dim, sector.dim))
    h.flat[:: sector.dim + 1] = diag
    coupling = model.g
    for ki in model.k:
        coupling *= float(ki) ** (ki / 2.0)
    h += coupling * levels.band

    scale = max(np.abs(h).max(), 1.0)
    asym = np.abs(h - h.T).max(initial=0.0)
    if asym > symmetry_rtol * scale:
        raise AssertionError(f"sector H asymmetry {asym:.3e} exceeds {symmetry_rtol:g}")
    h = (h + h.T) / 2.0

    return SectorMatrices(h)


# ---------------------------------------------------------------------------
# structure polynomials and commutator diagnostics
# ---------------------------------------------------------------------------

def structure_rhs(model: ModelSpec, sector: SectorLabels, x: float) -> float:
    """The product psi^(2r) * prod_i phi^(k_i) at ladder eigenvalue x.

    psi and phi are the degree-2r and degree-k_i factors of the commutator
    polynomial, evaluated with the sector's scalars kappa, l_mu and the
    Casimir value j(j+1).
    """
    j = sector.j
    kappa = float(sector.kappa)
    casimir = float(j * (j + 1))
    r = model.r

    base = r * kappa + r * x
    psi = -1.0
    for i in range(1, r + 1):
        psi *= casimir - (base + r - i + 1) * (base + r - i)

    out = psi
    M = model.M
    if M > 0:
        l_vals = [float(lv) for lv in sector.l]
        weighted = sum((mu + 1) * lv for mu, lv in enumerate(l_vals)) / M
        for idx, ki in enumerate(model.k):
            tail = sum(l_vals[idx:])
            phi = -1.0
            for v in range(1, ki + 1):
                phi *= (kappa / M - (x + 1.0) - weighted + tail
                        + (v * ki - 1.0) / (ki * ki))
            out *= phi
    return out


def commutator_rhs(
    model: ModelSpec,
    sector: SectorLabels,
    p0_diag: np.ndarray,
    printed_sign: bool = False,
) -> np.ndarray:
    """Diagonal of the closed-form [Pplus, Pminus].

    The product form needs an overall factor (-1)^(M+1): each of the M+1
    factor polynomials carries one minus sign, and the pair ordering that the
    difference Psi(P0-1) - Psi(P0) encodes is only correct when that global
    sign is +1 (odd M).  `printed_sign=True` evaluates the uncorrected
    difference, which is wrong for even M (including the pure-spin case).
    """
    sign = 1.0 if printed_sign else float((-1) ** (model.M + 1))
    return sign * np.array(
        [structure_rhs(model, sector, x - 1.0) - structure_rhs(model, sector, x)
         for x in p0_diag]
    )


@dataclass(frozen=True)
class AlgebraDiagnostics:
    """Max absolute deviations of the defining relations on one sector."""

    comm_p0_pplus: float   # [P0, P+] - P+
    comm_p0_pminus: float  # [P0, P-] + P-
    comm_pm: float         # [P+, P-] - closed form
    lowest_state: float    # P- on the bottom ladder state
    highest_state: float   # P+ on the top ladder state
    scale: float           # magnitude reference for relative judgements

    def max_relative(self) -> float:
        worst = max(self.comm_p0_pplus, self.comm_p0_pminus, self.comm_pm,
                    self.lowest_state, self.highest_state)
        return worst / self.scale


def check_algebra(model: ModelSpec, sector: SectorLabels) -> AlgebraDiagnostics:
    """Numerically check the ladder relations and annihilation conditions."""
    validate_model(model)
    P0, Pplus, Pminus = ladder_operators(model, sector)

    comm_pm_mat = Pplus @ Pminus - Pminus @ Pplus
    rhs = commutator_rhs(model, sector, np.diag(P0))

    dev_plus = np.max(np.abs((P0 @ Pplus - Pplus @ P0) - Pplus), initial=0.0)
    dev_minus = np.max(np.abs((P0 @ Pminus - Pminus @ P0) + Pminus), initial=0.0)
    dev_pm = np.max(np.abs(comm_pm_mat - np.diag(rhs)), initial=0.0)

    occ = level_occupations(model.k, sector)
    lowest = _exact_sqrt_product(_lowering_radicands(model, sector, 0, occ[0]))
    highest = _exact_sqrt_product(
        _raising_radicands(model, sector, sector.n_top, occ[sector.n_top]))

    scale = max(
        1.0,
        float(np.max(np.abs(comm_pm_mat), initial=0.0)),
        float(np.max(np.abs(rhs), initial=0.0)),
        float(np.max(np.abs(Pplus), initial=0.0)),
    )
    return AlgebraDiagnostics(dev_plus, dev_minus, dev_pm, lowest, highest, scale)


def monomial_conjugation_check(model: ModelSpec, sector: SectorLabels) -> float:
    """Max |D M D^-1 - H| where M is the monomial action and D = diag(norm_scale).

    The monomial realization and the orthonormal sector matrices must be
    exactly similar; the return value is the absolute deviation (callers
    judge it against tolerance x matrix scale).
    """
    h_op = build_hamiltonian_operator(model, sector)
    mono = apply_to_monomials(h_op, sector.n_top)[: sector.dim, :]
    d = norm_scale(model, sector)
    conj = (d[:, None] * mono) / d[None, :]
    return float(np.max(np.abs(conj - sector_matrices(model, sector).H), initial=0.0))


# ---------------------------------------------------------------------------
# full Fock-space oracle
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class FockBlock:
    """One charge block of the truncated product space.

    basis lists (mu, occupations) in ladder order; H is the dense symmetric
    block; labels carries the charge eigenvalues (kappa, l_mu) along with the
    rest of the sector bookkeeping; complete means the coupling never maps a
    block state past the truncation.
    """

    basis: tuple[tuple[Rational, tuple[int, ...]], ...]
    H: np.ndarray
    labels: SectorLabels
    complete: bool


def _fock_element(
    model: ModelSpec,
    two_j: int,
    bra: tuple[int, tuple[int, ...]],
    ket: tuple[int, tuple[int, ...]],
) -> float:
    """<bra| H |ket> in second quantization on the product basis.

    States are (2 mu, occupations), so the spin bookkeeping is integer
    arithmetic; each float is one correctly rounded exact integer ratio.
    """
    two_mu_b, n_b = bra
    two_mu_k, n_k = ket
    if bra == ket:
        val = sum(wi * ni for wi, ni in zip(model.w, n_k))
        val += model.g_prime * (two_mu_k**model.s / 2**model.s)
        return val + model.constant_shift
    # raising term J+^r a^k: mu up by r, each n_i down by k_i
    if two_mu_b == two_mu_k + 2 * model.r and all(
        nb == nk - ki for nb, nk, ki in zip(n_b, n_k, model.k)
    ):
        if any(nk < ki for nk, ki in zip(n_k, model.k)):
            return 0.0
        # 4 (j - mu - t)(j + mu + t + 1) per spin step t
        num = 1
        for t in range(model.r):
            num *= (two_j - two_mu_k - 2 * t) * (two_j + two_mu_k + 2 * t + 2)
        if num == 0:
            return 0.0
        for nk, ki in zip(n_k, model.k):
            num *= perm(nk, ki)
        return model.g * sqrt(num / 4**model.r)
    if two_mu_b == two_mu_k - 2 * model.r and all(
        nb == nk + ki for nb, nk, ki in zip(n_b, n_k, model.k)
    ):
        return _fock_element(model, two_j, ket, bra)
    return 0.0


def _doubled(states) -> list[tuple[int, tuple[int, ...]]]:
    """(2 mu, occupations) for each (mu, occupations) basis state."""
    return [(int(2 * mu), ns) for mu, ns in states]


@lru_cache(maxsize=256)
def _grouped_basis(
    M: int, r: int, k: tuple[int, ...], j: Rational, boson_cap: int
) -> tuple[tuple[SectorLabels, tuple[tuple[Rational, tuple[int, ...]], ...]], ...]:
    """Charge-block decomposition of the truncated basis (couplings irrelevant)."""
    shape = ModelSpec(M=M, r=r, s=1, k=k, w=(0.0,) * M, g_prime=0.0, g=0.0)
    groups: dict[SectorLabels, list[tuple[Rational, tuple[int, ...]]]] = {}
    for t in range(int(2 * j) + 1):
        mu = Fraction(t) - j
        for ns in occupation_grid(M, boson_cap):
            labels = sector_from_reference(shape, j, ReferenceState(mu, ns))
            groups.setdefault(labels, []).append((mu, ns))

    out = []
    for labels in sorted(groups):
        states = sorted(groups[labels], key=lambda st: st[0])  # ladder order
        out.append((labels, tuple(states)))
    return tuple(out)


def fock_oracle(
    model: ModelSpec,
    j: Rational,
    boson_cap: int,
    include_incomplete: bool = False,
) -> list[FockBlock]:
    """Direct second-quantized blocks of H on {|j,mu> x |n>, n_i <= boson_cap}.

    A block is complete when the boson-raising half of the coupling, applied
    to every block state with nonzero amplitude, stays inside the truncation.
    Only complete blocks are returned unless include_incomplete is set.
    """
    validate_model(model)
    j = parse_rational(j)
    if boson_cap < 0:
        raise ValueError("boson_cap must be >= 0")

    blocks: list[FockBlock] = []
    for labels, states in _grouped_basis(model.M, model.r, model.k, j, boson_cap):
        complete = True
        for mu, ns in states:
            if mu - model.r >= -j and any(
                ni + ki > boson_cap for ni, ki in zip(ns, model.k)
            ):
                complete = False
                break
        if not complete and not include_incomplete:
            continue
        dim = len(states)
        two_j, doubled = int(2 * j), _doubled(states)
        h = np.empty((dim, dim))
        for a in range(dim):
            for b in range(dim):
                h[a, b] = _fock_element(model, two_j, doubled[a], doubled[b])
        h = (h + h.T) / 2.0
        blocks.append(FockBlock(basis=states, H=h, labels=labels, complete=complete))
    return blocks


def dense_fock_hamiltonian(
    model: ModelSpec, j: Rational, boson_cap: int
) -> tuple[list[tuple[Rational, tuple[int, ...]]], np.ndarray]:
    """Full H on the truncated product space (quadratic; test sizes only)."""
    validate_model(model)
    j = parse_rational(j)
    basis: list[tuple[Rational, tuple[int, ...]]] = []
    for labels, states in _grouped_basis(model.M, model.r, model.k, j, boson_cap):
        basis.extend(states)
    basis.sort()
    size = len(basis)
    two_j, doubled = int(2 * j), _doubled(basis)
    h = np.empty((size, size))
    for a in range(size):
        for b in range(size):
            h[a, b] = _fock_element(model, two_j, doubled[a], doubled[b])
    return basis, (h + h.T) / 2.0
