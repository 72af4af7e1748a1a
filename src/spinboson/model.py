"""Hamiltonian family, exact quantum-number arithmetic, and sector labeling.

The model couples an su(2) spin (raised/lowered in steps of r) to M boson
modes (created/annihilated in packets of k_i):

    H = sum_i w_i N_i + g' J0^s + g (J+^r a_1^k1 ... a_M^kM + h.c.)

The coupling conserves a set of charges; each joint eigenspace is a finite
"sector" on which H acts irreducibly.  Everything label-related is computed
in exact rational arithmetic (fractions.Fraction) so sectors deduplicate and
compare exactly; floats appear only once matrices are assembled.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from math import isfinite
from typing import Iterator, Sequence

Rational = Fraction

# Bounds of the coupling-free caches: label enumerations per (M, r, k, j, cap),
# per-sector data per (M, r, s, k, sector) in operators and representation,
# and each sector's level-0 maximum per (k, sector) for the Fock oracle.
# One acceptance-sweep draw touches 292 sectors in 42 enumerations.
ENUMERATION_CACHE_SIZE = 64
SECTOR_CACHE_SIZE = 1024


# ---------------------------------------------------------------------------
# rational plumbing
# ---------------------------------------------------------------------------

def parse_rational(text: str | int | Rational) -> Rational:
    """Parse "3/2", "-1", 4, or a Fraction into an exact Rational."""
    if isinstance(text, Rational):
        return text
    if isinstance(text, int):
        return Rational(text)
    s = str(text).strip()
    if "/" in s:
        num, den = (int(part) for part in s.split("/", 1))
        if den == 0:
            raise ValueError(f"{text!r} has a zero denominator")
        return Rational(num, den)
    return Rational(int(s))


def format_rational(x: Rational) -> str | int:
    """Render a Rational the way reports serialize it: int or "num/den"."""
    if x.denominator == 1:
        return int(x)
    return f"{x.numerator}/{x.denominator}"


def is_spin(j: Rational) -> bool:
    """True when j is a non-negative integer or half-integer."""
    return j >= 0 and (2 * j).denominator == 1


# ---------------------------------------------------------------------------
# model specification
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ModelSpec:
    """Parameters of one member of the Hamiltonian family.

    M: number of boson modes; r: spin step of the coupling; s: power of J0
    in the diagonal spin term; k: boson packet sizes (one per mode);
    w: mode frequencies; g_prime, g: energy scales of the spin term and the
    coupling.  constant_shift is an additive constant (the asymmetric-rotor
    preset folds its Casimir offset into it).
    """

    M: int
    r: int
    s: int
    k: tuple[int, ...]
    w: tuple[float, ...]
    g_prime: float
    g: float
    constant_shift: float = 0.0

    def __post_init__(self) -> None:
        object.__setattr__(self, "k", tuple(int(v) for v in self.k))
        object.__setattr__(self, "w", tuple(float(v) for v in self.w))


def validate_model(spec: ModelSpec) -> ModelSpec:
    """Check the ModelSpec invariants; return the spec unchanged if they hold."""
    if spec.M < 0:
        raise ValueError(f"M must be non-negative, got {spec.M}")
    if spec.r < 1:
        raise ValueError(f"r must be a positive integer, got {spec.r}")
    if spec.s < 1:
        raise ValueError(f"s must be a positive integer, got {spec.s}")
    if len(spec.k) != spec.M or len(spec.w) != spec.M:
        raise ValueError(
            f"k and w must each have M={spec.M} entries, "
            f"got |k|={len(spec.k)}, |w|={len(spec.w)}"
        )
    for i, ki in enumerate(spec.k):
        if ki < 1:
            raise ValueError(f"k[{i}] must be a positive integer, got {ki}")
    if not all(map(isfinite, (*spec.w, spec.g_prime, spec.g, spec.constant_shift))):
        raise ValueError(
            f"couplings must be finite, got w={spec.w}, g_prime={spec.g_prime}, "
            f"g={spec.g}, constant_shift={spec.constant_shift}")
    return spec


@dataclass(frozen=True)
class ReferenceState:
    """A concrete product state |j, mu> x |n_1 .. n_M> used to pick a sector.

    mu is the spin projection (mu + j must be a non-negative integer);
    n_bosons are the mode occupation numbers.
    """

    mu: Rational
    n_bosons: tuple[int, ...] = ()

    def __post_init__(self) -> None:
        object.__setattr__(self, "mu", parse_rational(self.mu))
        object.__setattr__(self, "n_bosons", tuple(int(v) for v in self.n_bosons))


@dataclass(frozen=True, order=True)
class SectorLabels:
    """Conserved quantum numbers fixing one invariant block.

    j and kappa are exact rationals; q, l, A are per-mode rational tuples
    (each A_i is integer-valued when the labels are consistent); dim is the
    block dimension.  Field order doubles as the deterministic sort key
    (p, kappa, l, q, ...).
    """

    p: int
    kappa: Rational
    l: tuple[Rational, ...]
    q: tuple[Rational, ...]
    j: Rational
    lam: int
    A: tuple[Rational, ...]
    dim: int

    @property
    def n_top(self) -> int:
        """Degree of the invariant polynomial subspace (dim - 1)."""
        return self.dim - 1

    # Fraction hashes in pure Python and the labels key several caches per
    # solve, so the field hash is computed once and kept outside the fields
    # (and outside pickles and copies, which recompute it).
    def __hash__(self) -> int:
        try:
            return self.__dict__["_hash"]
        except KeyError:
            value = hash((self.p, self.kappa, self.l, self.q, self.j, self.lam,
                          self.A, self.dim))
            self.__dict__["_hash"] = value
            return value

    def __getstate__(self) -> dict:
        return {k: v for k, v in self.__dict__.items() if k != "_hash"}


def lambda_of(j: Rational, p: int, r: int) -> int:
    """The offset lam in {0..r-1} making (2j - p - lam)/r a non-negative integer."""
    j = parse_rational(j)
    two_j = 2 * j
    if two_j.denominator != 1 or j < 0:
        raise ValueError(f"j must be a non-negative half-integer, got {j}")
    if not 0 <= p <= min(r - 1, int(two_j)):
        raise ValueError(f"p={p} outside [0, min(r-1, 2j)] for j={j}, r={r}")
    return int((int(two_j) - p) % r)


def sector_dimension(
    model: ModelSpec,
    j: Rational,
    p: int,
    lam: int,
    A: Sequence[Rational],
) -> int:
    """Dimension of the block: spin ladder length capped by every boson tower.

    The polynomial degree is (2j - p - lam)/r; for M > 0 it is additionally
    capped by min_i A_i since the i-th occupation m_i = A_i - n must stay
    non-negative for every mode, not only the last one.
    """
    j = parse_rational(j)
    spin_cap = (2 * j - p - lam) / model.r
    if spin_cap.denominator != 1 or spin_cap < 0:
        raise ValueError(f"(2j-p-lam)/r = {spin_cap} is not a non-negative integer")
    n_top = int(spin_cap)
    if model.M > 0:
        for i, a in enumerate(A):
            a = parse_rational(a)
            if a.denominator != 1 or a < 0:
                raise ValueError(f"A[{i}]={a} is not a non-negative integer")
        n_top = min(n_top, min(int(parse_rational(a)) for a in A))
    return n_top + 1


def sector_from_reference(
    model: ModelSpec, j: Rational, ref: ReferenceState
) -> SectorLabels:
    """Exact charges of the block containing the given product state.

    Decomposes mu + j = p + r*n and each n_i = k_i*m_i + rho_i, then evaluates
    the central charges

        q_i     = (rho_i k_i + 1) / k_i^2
        kappa   = (M((p-j)/r + n) + sum_i (q_i + m_i)) / (M+1)
        l_mu    = (q_mu + m_mu) - (q_{mu+1} + m_{mu+1})
        A_i     = n + m_i

    entirely in rational arithmetic.
    """
    validate_model(model)
    j = parse_rational(j)
    if not is_spin(j):
        raise ValueError(f"j must be a non-negative half-integer, got {j}")
    mu = parse_rational(ref.mu)
    t = mu + j
    if t.denominator != 1 or t < 0 or mu > j:
        raise ValueError(f"mu={mu} is not a valid projection for j={j}")
    if len(ref.n_bosons) != model.M:
        raise ValueError(
            f"reference state has {len(ref.n_bosons)} modes, model has M={model.M}"
        )
    if any(n < 0 for n in ref.n_bosons):
        raise ValueError("boson occupation numbers must be non-negative")
    return _sector_labels(model, j, int(t), ref.n_bosons)


def _sector_labels(
    model: ModelSpec, j: Rational, t: int, n_bosons: tuple[int, ...]
) -> SectorLabels:
    """sector_from_reference without the input checks, for mu + j = t."""
    p = t % model.r
    n_spin = t // model.r

    q: list[Rational] = []
    m: list[int] = []
    for ki, ni in zip(model.k, n_bosons):
        rho = ni % ki
        q.append(Rational(rho * ki + 1, ki * ki))
        m.append(ni // ki)

    M = model.M
    p_minus_j_over_r = (Rational(p) - j) / model.r
    kappa = (M * (p_minus_j_over_r + n_spin) + sum(
        (qi + mi for qi, mi in zip(q, m)), start=Rational(0)
    )) / (M + 1)
    l = tuple(
        (q[i] + m[i]) - (q[i + 1] + m[i + 1]) for i in range(M - 1)
    )
    A = tuple(Rational(n_spin + mi) for mi in m)
    lam = lambda_of(j, p, model.r)
    dim = sector_dimension(model, j, p, lam, A)
    return SectorLabels(p=p, kappa=kappa, l=l, q=tuple(q), j=j, lam=lam, A=A, dim=dim)


def boson_occupations(model: ModelSpec, sector: SectorLabels, n: int) -> tuple[int, ...]:
    """Occupation numbers n_i of the sector basis state at ladder level n."""
    if not 0 <= n <= sector.n_top:
        raise ValueError(f"level n={n} is outside the sector (levels 0..{sector.n_top})")
    return level_occupations(model.k, sector)[n]


def level_occupations(k: tuple[int, ...], sector: SectorLabels) -> list[tuple[int, ...]]:
    """boson_occupations at every ladder level 0..n_top, in integer arithmetic.

    Level 0 is one exact evaluation; level n is then n_i(0) - k_i n, which
    decreases with n, so checking the top level covers every level.
    """
    occ0 = []
    for ki, qi, ai in zip(k, sector.q, sector.A):
        val = ki * (ai + qi - Rational(1, ki * ki))
        if val.denominator != 1 or val < 0:
            raise ValueError(f"level n=0 is outside the sector (occupation {val})")
        occ0.append(int(val))
    for ni, ki in zip(occ0, k):
        if ni - ki * sector.n_top < 0:
            raise ValueError(f"level n={sector.n_top} is outside the sector "
                             f"(occupation {ni - ki * sector.n_top})")
    return [tuple(ni - ki * n for ni, ki in zip(occ0, k)) for n in range(sector.dim)]


@lru_cache(maxsize=SECTOR_CACHE_SIZE)
def _level0_top(k: tuple[int, ...], sector: SectorLabels) -> int:
    """The largest level-0 occupation of the sector's modes (0 without
    modes), in a cache bounded by SECTOR_CACHE_SIZE: the Fock oracle's
    truncation reads it for every sector of every acceptance-sweep draw."""
    return max(level_occupations(k, sector)[0], default=0)


def sector_to_dict(sector: SectorLabels) -> dict:
    """JSON form of the labels; rationals appear as ints or "num/den" strings."""
    return {
        "j": format_rational(sector.j),
        "p": sector.p,
        "kappa": format_rational(sector.kappa),
        "lambda": sector.lam,
        "q": [format_rational(x) for x in sector.q],
        "l": [format_rational(x) for x in sector.l],
        "A": [format_rational(x) for x in sector.A],
        "dim": sector.dim,
    }


def occupation_grid(M: int, cap: int) -> Iterator[tuple[int, ...]]:
    """Every occupation tuple of M modes with each n_i <= cap, in
    lexicographic order (one empty tuple for M = 0)."""
    return itertools.product(range(cap + 1), repeat=M)


def enumerate_sectors(
    model: ModelSpec, j: Rational, max_total_bosons: int = 0
) -> list[SectorLabels]:
    """All distinct sectors reachable from product states with sum(n_i) <= cap.

    Every mu is scanned; the result is deduplicated on the exact label tuple
    and returned in a deterministic order (sorted by p, kappa, l, q).  The
    labels depend only on (M, r, k, j, cap), so each such enumeration is
    computed once and kept in a cache bounded by ENUMERATION_CACHE_SIZE;
    every call returns a new list.
    """
    validate_model(model)
    j = parse_rational(j)
    if not is_spin(j):
        raise ValueError(f"j must be a non-negative half-integer, got {j}")
    if max_total_bosons < 0:
        raise ValueError("max_total_bosons must be >= 0")
    return list(_enumerate_sectors(model.M, model.r, model.k, j, max_total_bosons))


@lru_cache(maxsize=ENUMERATION_CACHE_SIZE)
def _enumerate_sectors(
    M: int, r: int, k: tuple[int, ...], j: Rational, max_total_bosons: int
) -> tuple[SectorLabels, ...]:
    shape = ModelSpec(M=M, r=r, s=1, k=k, w=(0.0,) * M, g_prime=0.0, g=0.0)
    simplex = [ns for ns in occupation_grid(M, max_total_bosons)
               if sum(ns) <= max_total_bosons]
    seen: set[SectorLabels] = set()
    for t in range(int(2 * j) + 1):
        for ns in simplex:
            seen.add(_sector_labels(shape, j, t, ns))
    return tuple(sorted(seen))
