"""Normal-ordered calculus of differential operators with polynomial coefficients.

An operator is kept in the normal form  sum_d P_d(z) (d/dz)^d  with every
derivative moved to the right.  Products are expanded with the Leibniz-rule
identity

    z^a D^d  o  z^b D^e  =  sum_{t=0}^{min(d,b)} C(d,t) b!/(b-t)!
                            z^{a+b-t} D^{d+e-t}

On each invariant sector the model Hamiltonian becomes such an operator of
order max(r + sum_i k_i, s); this module assembles it and exposes its action
on the monomial basis {1, z, z^2, ...}.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from math import comb, factorial, perm

import numpy as np

from .linalg import horner
from .model import SECTOR_CACHE_SIZE, ModelSpec, SectorLabels, level_occupations

Poly = np.ndarray  # ascending coefficients, index = power of z


def poly_trim(coeffs) -> Poly:
    """Drop trailing zeros; the zero polynomial is the empty array."""
    arr = np.atleast_1d(np.asarray(coeffs, dtype=float))
    nz = np.nonzero(arr)[0]
    if nz.size == 0:
        return np.zeros(0)
    return arr[: nz[-1] + 1].copy()


def poly_eval(coeffs, z):
    """Horner evaluation; works for scalar or array z, real or complex."""
    arr = np.asarray(coeffs)
    if arr.size == 0:
        return np.zeros_like(np.asarray(z))
    return horner(arr, np.asarray(z))[()]


class EulerOperator:
    """A normally ordered operator  sum_d P_d(z) D^d,  D = d/dz."""

    __slots__ = ("terms",)

    def __init__(self, terms: dict[int, Poly] | None = None):
        clean: dict[int, Poly] = {}
        for d, coeffs in (terms or {}).items():
            p = poly_trim(coeffs)
            if p.size:
                clean[int(d)] = p
        self.terms = clean

    # -- constructors -------------------------------------------------------

    @staticmethod
    def identity() -> "EulerOperator":
        return EulerOperator({0: [1.0]})

    @staticmethod
    def z_poly(coeffs) -> "EulerOperator":
        """Multiplication operator by the polynomial with the given coefficients."""
        return EulerOperator({0: coeffs})

    @staticmethod
    def euler_affine(const: float, slope: float) -> "EulerOperator":
        """const + slope * z D."""
        return EulerOperator({0: [const], 1: [0.0, slope]})

    # -- algebra -------------------------------------------------------------

    def __add__(self, other: "EulerOperator") -> "EulerOperator":
        out: dict[int, np.ndarray] = {}
        for d in set(self.terms) | set(other.terms):
            a = self.terms.get(d, np.zeros(0))
            b = other.terms.get(d, np.zeros(0))
            n = max(a.size, b.size)
            c = np.zeros(n)
            c[: a.size] += a
            c[: b.size] += b
            out[d] = c
        return EulerOperator(out)

    def __rmul__(self, scalar: float) -> "EulerOperator":
        return EulerOperator({d: scalar * p for d, p in self.terms.items()})

    def __matmul__(self, other: "EulerOperator") -> "EulerOperator":
        """Normally ordered composition self o other."""
        out: dict[int, np.ndarray] = {}
        for d, pd in self.terms.items():
            for e, qe in other.terms.items():
                for b, qb in enumerate(qe):
                    if qb == 0.0:
                        continue
                    for t in range(min(d, b) + 1):
                        w = qb * comb(d, t) * factorial(b) / factorial(b - t)
                        order = d + e - t
                        shift = b - t
                        tgt = out.setdefault(order, np.zeros(pd.size + shift))
                        if tgt.size < pd.size + shift:
                            grown = np.zeros(pd.size + shift)
                            grown[: tgt.size] = tgt
                            out[order] = tgt = grown
                        tgt[shift : shift + pd.size] += w * pd
        return EulerOperator(out)

    # -- queries -------------------------------------------------------------

    @property
    def order(self) -> int:
        """Highest derivative order present (zero operator has order 0)."""
        return max(self.terms, default=0)

    def coefficient(self, d: int) -> Poly:
        return self.terms.get(d, np.zeros(0)).copy()

    def max_abs_coeff(self) -> float:
        return max((np.max(np.abs(p)) for p in self.terms.values()), default=0.0)

    def divide_by_z(self, rtol: float = 1e-12) -> "EulerOperator":
        """Left-divide by z, i.e. strip one power of z off every coefficient.

        Each P_d must have (numerically) vanishing constant term; a nonzero
        remainder means the operator does not actually annihilate z^{-1}
        content, which for the assembled Hamiltonian signals a label bug.
        """
        scale = max(self.max_abs_coeff(), 1.0)
        out: dict[int, np.ndarray] = {}
        for d, pd in self.terms.items():
            if abs(pd[0]) > rtol * scale:
                raise ValueError(
                    f"nonzero z^-1 remainder {pd[0]:.3e} in derivative order {d}"
                )
            out[d] = pd[1:]
        return EulerOperator(out)

    def __repr__(self) -> str:
        parts = [f"D^{d}: {list(p)}" for d, p in sorted(self.terms.items())]
        return f"EulerOperator({'; '.join(parts) or '0'})"


# ---------------------------------------------------------------------------
# sector Hamiltonian assembly
# ---------------------------------------------------------------------------

def hamiltonian_order(model: ModelSpec) -> int:
    """Order of the sector differential operator: max(r + sum k_i, s)."""
    return max(model.r + sum(model.k), model.s)


def _product(factors: list[EulerOperator]) -> EulerOperator:
    out = EulerOperator.identity()
    for f in factors:
        out = out @ f
    return out


def build_hamiltonian_operator(model: ModelSpec, sector: SectorLabels) -> EulerOperator:
    """Assemble the sector Hamiltonian as a normally ordered operator in z, D.

    With E = zD and exact sector charges, the four pieces are

      boson energies   sum_i w_i (n_i(0) - k_i E)
      spin energy      g' ((p - j) + r E)^s
      lowering         g z^{-1} prod_{i=1..r} (r E + p - i + 1)
      raising          g z prod_{i=1..r} (2j - p - i + 1 - r E)
                           prod_i prod_{v=1..k_i} (n_i(0) - v + 1 - k_i E)

    where n_i(0) = k_i A_i + rho_i is the boson occupation at ladder level 0.
    The z^{-1} factor is resolved by expanding the product first and checking
    that its constant part vanishes (it does for every allowed p), then
    shifting; constant_shift is added to P_0 at the end.

    The couplings enter linearly, so the coupling-free operators
    B_i = n_i(0) - k_i E, S = ((p - j) + r E)^s, L = (lowering)/z and
    R = z (raising) are assembled once per (M, r, s, k, sector) and kept,
    packed, in a cache bounded by model.SECTOR_CACHE_SIZE.  Each call sums
    sum_i w_i B_i + g' S + g L + g R + constant_shift in that order, from
    zero, which reproduces the terms of the operator-by-operator assembly
    bit for bit.  The returned operator owns its coefficient arrays.
    """
    pieces = _hamiltonian_pieces(model.M, model.r, model.s, model.k, sector)
    return EulerOperator(dict(enumerate(_combined(model, pieces))))


def _combined(model: ModelSpec, pieces: np.ndarray, out: np.ndarray | None = None
              ) -> np.ndarray:
    """sum_i w_i B_i + g' S + g L + g R + constant_shift, summed in that
    order from zero (into `out` when given, which must be zeros)."""
    packed = np.zeros(pieces.shape[1:]) if out is None else out
    for weight, piece in zip(model.w + (model.g_prime, model.g, model.g), pieces):
        packed += weight * piece
    packed[0, 0] += model.constant_shift
    return packed


@lru_cache(maxsize=SECTOR_CACHE_SIZE)
def _hamiltonian_pieces(
    M: int, r: int, s: int, k: tuple[int, ...], sector: SectorLabels
) -> np.ndarray:
    """The read-only stack [B_1 .. B_M, S, L, R]; row d of a piece is its P_d."""
    j, p = sector.j, sector.p
    n0 = level_occupations(k, sector)[0]
    pieces = [EulerOperator.euler_affine(float(n0i), -float(ki))
              for ki, n0i in zip(k, n0)]

    spin_base = EulerOperator.euler_affine(float(Fraction(p) - j), float(r))
    pieces.append(_product([spin_base] * s))

    lowering = _product(
        [EulerOperator.euler_affine(float(p - i + 1), float(r)) for i in range(1, r + 1)]
    )
    pieces.append(lowering.divide_by_z())

    raise_factors = [
        EulerOperator.euler_affine(float(2 * j - p - i + 1), -float(r))
        for i in range(1, r + 1)
    ]
    for ki, n0i in zip(k, n0):
        for v in range(1, ki + 1):
            raise_factors.append(
                EulerOperator.euler_affine(float(n0i - v + 1), -float(ki))
            )
    pieces.append(EulerOperator.z_poly([0.0, 1.0]) @ _product(raise_factors))

    order = max(piece.order for piece in pieces)
    width = max(c.size for piece in pieces for c in piece.terms.values())
    packed = np.zeros((len(pieces), order + 1, width))
    for i, piece in enumerate(pieces):
        for d, coeffs in piece.terms.items():
            packed[i, d, : coeffs.size] = coeffs
    # every sum of the pieces then maps degree <= n to degree <= n + 1, which
    # monomial_action relies on instead of checking each call
    d_idx, m_idx = np.nonzero(packed.any(axis=0))
    if np.any(m_idx > d_idx + 1):
        raise ValueError("a sector operator piece violates the degree bound "
                         "deg P_d <= d + 1")
    packed.flags.writeable = False
    return packed


def extract_polynomials(h: EulerOperator) -> list[Poly]:
    """The coefficient polynomials [P_0, ..., P_order] of the normal form."""
    return [h.coefficient(d) for d in range(h.order + 1)]


def apply_to_monomials(h: EulerOperator, n_top: int) -> np.ndarray:
    """Matrix of h on {1, z, ..., z^n_top} with one overflow row.

    Column n holds the coefficients of h z^n = sum_d n!/(n-d)! P_d z^{n-d}
    in the basis {z^0 .. z^{n_top+1}}; the last row carries the z^{n_top+1}
    coefficient, which vanishes at n = n_top exactly when the subspace is
    invariant.  The terms are accumulated in the order of h.terms.
    """
    if n_top < 0:
        raise ValueError("n_top must be >= 0")
    # rows past n_top + 1 catch any violation of the degree bound
    spill = max((p.size - 1 - d for d, p in h.terms.items()), default=0)
    n_cols = n_top + 1
    mat = np.zeros((max(n_top + 2, n_top + 1 + spill), n_cols))
    flat = mat.reshape(-1)
    for d, pd in h.terms.items():
        if d > n_top:
            continue
        falls = np.array([float(perm(n, d)) for n in range(d, n_cols)])
        # the z^m coefficient of P_d lands at (n - d + m, n): one diagonal
        for m, coeff in enumerate(pd.tolist()):
            start = m * n_cols + d
            flat[start : start + (n_top - d) * (n_cols + 1) + 1 : n_cols + 1] += (
                falls * coeff)
    if mat.shape[0] > n_top + 2:
        over = np.flatnonzero(np.max(np.abs(mat[n_top + 2 :]), axis=0) > 0.0)
        if over.size:
            raise ValueError(
                f"action on z^{over[0]} exceeds degree {n_top + 1}; operator "
                "violates the degree bound deg P_d <= d + 1"
            )
    return mat[: n_top + 2]


def monomial_action(model: ModelSpec, sector: SectorLabels) -> tuple[np.ndarray, list[Poly]]:
    """apply_to_monomials(h, n_top) and extract_polynomials(h) of
    h = build_hamiltonian_operator(model, sector), without building h.

    Both are linear in the couplings.  The rows P_d are summed from the
    cached coupling-free pieces as build_hamiltonian_operator sums them, and
    one gather through a cached map places falling factorial times
    coefficient in the action, each entry's terms added in ascending d from
    zero as apply_to_monomials adds them.  So both results equal the
    operator calculus bit for bit, up to the sign of zero entries.  The
    degree bound is checked once per sector, when its pieces are cached.
    The caller owns the returned arrays.
    """
    pieces = _hamiltonian_pieces(model.M, model.r, model.s, model.k, sector)
    n_terms, width = pieces.shape[1:]
    src, dst, falls = _monomial_map(n_terms, width, sector.dim)
    # one zero past the packed rows stands for the coefficients beyond width
    flat = np.zeros(n_terms * width + 1)
    packed = _combined(model, pieces, flat[:-1].reshape(n_terms, width))
    mono = np.bincount(dst, weights=falls * flat[src],
                       minlength=(sector.dim + 1) * sector.dim)
    lengths = ((packed != 0.0) * np.arange(1, width + 1)).max(axis=1).tolist()
    while len(lengths) > 1 and not lengths[-1]:
        lengths.pop()
    polys = [packed[d, :size].copy() for d, size in enumerate(lengths)]
    return mono.reshape(sector.dim + 1, sector.dim), polys


@lru_cache(maxsize=SECTOR_CACHE_SIZE)
def _monomial_map(
    n_terms: int, width: int, dim: int
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Read-only (src, dst, falls) of the action of sum_d P_d D^d on
    {1 .. z^(dim-1)}: entry t adds falls[t] * packed.flat[src[t]] to
    mono.flat[dst[t]], ordered by d.  z^n goes to n!/(n-d)! P_d z^(n-d), and
    only m <= d + 1 of P_d's z^m can be nonzero; src = n_terms * width marks
    a coefficient past the packed width."""
    src, dst, falls = [], [], []
    for d in range(min(n_terms, dim)):
        for n in range(d, dim):
            for m in range(d + 2):
                src.append(d * width + m if m < width else n_terms * width)
                dst.append((n - d + m) * dim + n)
                falls.append(float(perm(n, d)))
    arrays = (np.array(src, dtype=np.intp), np.array(dst, dtype=np.intp),
              np.array(falls))
    for arr in arrays:
        arr.flags.writeable = False
    return arrays
