"""The five named example models, their published closed forms, and errata.

Each preset fixes the family parameters (M, r, s, k) and maps physical
couplings onto the ModelSpec.  `published_polynomials` and `published_energy`
reproduce the closed forms as printed for these models, with a registry of
confirmed corrections: every erratum entry carries a numerical check showing
that the printed form fails an independent cross-check that the corrected
form passes.  Reports surface the registry; nothing is patched silently.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Callable

import numpy as np

from .bethe import closed_form_energy, solve_sector
from .model import (
    ModelSpec,
    Rational,
    ReferenceState,
    SectorLabels,
    enumerate_sectors,
    parse_rational,
    sector_from_reference,
)
from .operators import EulerOperator, apply_to_monomials, poly_trim
from .representation import (
    commutator_rhs,
    fock_oracle,
    ladder_operators,
    norm_scale,
    sector_levels,
)

PRESET_NAMES = (
    "bose_hubbard",
    "lmg",
    "rigid_rotor",
    "tavis_cummings",
    "two_mode_tc",
)

PRESET_PARAMS = {
    "bose_hubbard": ("g_prime", "g"),
    "lmg": ("g_prime", "g"),
    "rigid_rotor": ("a", "b", "c", "j"),
    "tavis_cummings": ("w", "g_prime", "g"),
    "two_mode_tc": ("w1", "w2", "g_prime", "g"),
}


def preset(name: str, params: dict) -> ModelSpec:
    """Build the ModelSpec for a named example model.

    bose_hubbard   M=0 r=1 s=2   H = g' J0^2 + g (J+ + J-)
    lmg            M=0 r=2 s=1   H = g' J0 + g (J+^2 + J-^2)
    rigid_rotor    M=0 r=2 s=2   a Jx^2 + b Jy^2 + c Jz^2, rewritten with
                                 g' = (2c-a-b)/2, g = (a-b)/4 and the Casimir
                                 offset (a+b)/2 j(j+1) in constant_shift
                                 (j-dependent, so j is a required parameter)
    tavis_cummings M=1 r=s=k1=1  H = w N1 + g' J0 + g (J+ a + J- a+)
    two_mode_tc    M=2 r=s=k=1   H = w1 N1 + w2 N2 + g' J0
                                 + g (J+ a1 a2 + J- a1+ a2+)
    """
    if name not in PRESET_NAMES:
        raise ValueError(f"unknown preset {name!r}; choose from {PRESET_NAMES}")
    params = dict(params)
    if name == "tavis_cummings" and "w" not in params and "w1" in params:
        params["w"] = params.pop("w1")
    missing = [key for key in PRESET_PARAMS[name] if key not in params]
    if missing:
        raise ValueError(f"preset {name!r} missing parameters: {missing}")
    unknown = sorted(set(params) - set(PRESET_PARAMS[name]))
    if unknown:
        raise ValueError(f"preset {name!r} takes no parameters {unknown}")

    if name == "bose_hubbard":
        return ModelSpec(M=0, r=1, s=2, k=(), w=(),
                         g_prime=float(params["g_prime"]), g=float(params["g"]))
    if name == "lmg":
        return ModelSpec(M=0, r=2, s=1, k=(), w=(),
                         g_prime=float(params["g_prime"]), g=float(params["g"]))
    if name == "rigid_rotor":
        a, b, c = (float(params[key]) for key in ("a", "b", "c"))
        j = parse_rational(params["j"])
        return ModelSpec(
            M=0, r=2, s=2, k=(), w=(),
            g_prime=(2 * c - a - b) / 2.0,
            g=(a - b) / 4.0,
            constant_shift=(a + b) / 2.0 * float(j * (j + 1)),
        )
    if name == "tavis_cummings":
        return ModelSpec(M=1, r=1, s=1, k=(1,), w=(float(params["w"]),),
                         g_prime=float(params["g_prime"]), g=float(params["g"]))
    return ModelSpec(M=2, r=1, s=1, k=(1, 1),
                     w=(float(params["w1"]), float(params["w2"])),
                     g_prime=float(params["g_prime"]), g=float(params["g"]))


@dataclass(frozen=True)
class PresetGrid:
    """Desk-scale default sweep for verification runs."""

    j_values: tuple[Rational, ...]
    max_total_bosons: int


def _half_integers(stop: int) -> tuple[Fraction, ...]:
    return tuple(Fraction(t, 2) for t in range(2 * stop + 1))


DEFAULT_GRIDS: dict[str, PresetGrid] = {
    "bose_hubbard": PresetGrid(_half_integers(6), 0),
    "lmg": PresetGrid(_half_integers(6), 0),
    "rigid_rotor": PresetGrid(_half_integers(6), 0),
    "tavis_cummings": PresetGrid(
        tuple(Fraction(x) for x in (0, Fraction(1, 2), 1, Fraction(3, 2), 2, 3, 4, 5, 6)),
        3,
    ),
    "two_mode_tc": PresetGrid(
        tuple(Fraction(x) for x in (0, Fraction(1, 2), 1, Fraction(3, 2), 2, Fraction(5, 2), 3)),
        2,
    ),
}


def random_params(name: str, rng: np.random.Generator) -> dict:
    """One coupling draw: every magnitude from [0.1, 2], random sign.

    For the rotor, (a, b, c) are chosen so that the derived g and g' obey the
    same magnitude window.
    """

    def draw() -> float:
        return float(rng.uniform(0.1, 2.0) * rng.choice([-1.0, 1.0]))

    if name == "rigid_rotor":
        g, gp = draw(), draw()
        b = float(rng.uniform(-1.0, 1.0))
        a = b + 4.0 * g
        return {"a": a, "b": b, "c": gp + (a + b) / 2.0}
    if name in ("bose_hubbard", "lmg"):
        return {"g_prime": draw(), "g": draw()}
    if name == "tavis_cummings":
        return {"w": draw(), "g_prime": draw(), "g": draw()}
    return {"w1": draw(), "w2": draw(), "g_prime": draw(), "g": draw()}


def model_for_j(name: str, params: dict, j: Rational) -> ModelSpec:
    """Preset at one spin value; only the rotor's offset depends on j."""
    if name == "rigid_rotor":
        return preset(name, {**params, "j": j})
    return preset(name, params)


# ---------------------------------------------------------------------------
# published closed forms
# ---------------------------------------------------------------------------

_PRESET_SHAPE = {
    "bose_hubbard": (0, 1, 2, ()),
    "lmg": (0, 2, 1, ()),
    "rigid_rotor": (0, 2, 2, ()),
    "tavis_cummings": (1, 1, 1, (1,)),
    "two_mode_tc": (2, 1, 1, (1, 1)),
}


def _check_compatible(name: str, model: ModelSpec, sector: SectorLabels) -> None:
    if name not in PRESET_NAMES:
        raise ValueError(f"unknown preset {name!r}")
    shape = (model.M, model.r, model.s, model.k)
    if shape != _PRESET_SHAPE[name]:
        raise ValueError(f"model shape {shape} does not match preset {name!r}")
    if sector.p > min(model.r - 1, int(2 * sector.j)):
        raise ValueError(f"sector p={sector.p} incompatible with preset {name!r}")


def published_polynomials(
    name: str,
    model: ModelSpec,
    sector: SectorLabels,
    corrected: bool = True,
) -> list[np.ndarray]:
    """The printed coefficient polynomials [P_0, P_1, ...] for a preset sector.

    With corrected=True (default) the registry's confirmed fixes are applied;
    corrected=False reproduces the forms exactly as printed (used only by the
    erratum regression, which demonstrates the printed forms fail).
    """
    _check_compatible(name, model, sector)
    g, gp = model.g, model.g_prime
    j = float(sector.j)
    p = float(sector.p)

    if name == "bose_hubbard":
        # raising-term sign of P_0 and P_1 as printed breaks hermiticity
        sign = 1.0 if corrected else -1.0
        p2 = [0.0, 0.0, gp]
        p1 = [g, gp * (1.0 - 2.0 * j), -sign * g]
        p0 = [gp * j * j, sign * 2.0 * j * g]
    elif name in ("lmg", "rigid_rotor"):
        shift = model.constant_shift
        if name == "lmg":
            p2 = [0.0, 4.0 * g, 0.0, 4.0 * g]
            p1 = [g * (2.0 + 4.0 * p), 2.0 * gp, g * (6.0 + 4.0 * p - 8.0 * j)]
            p0 = [gp * (p - j), g * (2.0 * j - p) * (2.0 * j - p - 1.0)]
        else:
            p2 = [0.0, 4.0 * g, 4.0 * gp, 4.0 * g]
            p1 = [2.0 * g * (1.0 + 2.0 * p), 4.0 * gp * (1.0 + p - j),
                  2.0 * g * (3.0 + 2.0 * p - 4.0 * j)]
            p0 = [gp * (p - j) ** 2 + shift,
                  g * (2.0 * j - p) * (2.0 * j - p - 1.0)]
    elif name == "tavis_cummings":
        w1 = model.w[0]
        kappa = float(sector.kappa)
        p2 = [0.0, 0.0, 0.0, g]
        p1 = [g, gp - w1, -g * (3.0 * j + 2.0 * kappa - 2.0)]
        p0 = [w1 * (2.0 * kappa + j - 1.0) - gp * j,
              2.0 * g * j * (2.0 * kappa + j - 1.0)]
        return [poly_trim(p0), poly_trim(p1), poly_trim(p2)]
    else:
        w1, w2 = model.w
        kappa = float(sector.kappa)
        l1 = float(sector.l[0])
        p3 = [0.0, 0.0, 0.0, 0.0, -g]
        p2 = [0.0, 0.0, 0.0, g * (3.0 * kappa + 4.0 * j - 5.0)]
        a_coeff = g * (-9.0 * j * kappa + 10.0 * j + 6.0 * kappa + l1 * l1 / 4.0
                       - 5.0 * j * j - 4.0 - 2.25 * kappa * kappa)
        p1 = [g, gp - w1 - w2, a_coeff]
        # kappa enters B quadratically; the printed form has 9 j kappa / 2
        kappa_term = 4.5 * j * kappa * kappa if corrected else 4.5 * j * kappa
        b_coeff = g * (kappa_term + 6.0 * j * j * kappa - 6.0 * j * kappa + 2.0 * j
                       - j * l1 * l1 / 2.0 + 2.0 * j ** 3 - 4.0 * j * j)
        f_coeff = ((w1 + w2) * (1.5 * kappa - 1.0 + j)
                   + 0.5 * l1 * (w1 - w2) - gp * j)
        p0 = [f_coeff, b_coeff]
        return [poly_trim(p0), poly_trim(p1), poly_trim(p2), poly_trim(p3)]
    return [poly_trim(p0), poly_trim(p1), poly_trim(p2)]


def published_energy(
    name: str,
    model: ModelSpec,
    sector: SectorLabels,
    roots,
) -> float:
    """The printed closed-form energy for a preset sector at the given roots."""
    _check_compatible(name, model, sector)
    roots = np.atleast_1d(np.asarray(roots, dtype=complex))
    if roots.size != sector.n_top:
        raise ValueError(f"expected {sector.n_top} roots, got {roots.size}")
    alpha = float(np.sum(roots).real)
    g, gp = model.g, model.g_prime
    j = float(sector.j)
    lam = float(sector.lam)
    n_top = float(sector.n_top)

    if name == "bose_hubbard":
        return gp * j * j - g * alpha
    if name == "lmg":
        return gp * (j - lam) - g * (lam + 1.0) * (lam + 2.0) * alpha
    if name == "rigid_rotor":
        return (gp * (j - lam) ** 2 + model.constant_shift
                - g * (lam + 1.0) * (lam + 2.0) * alpha)
    if name == "tavis_cummings":
        w1 = model.w[0]
        kappa = float(sector.kappa)
        return (w1 * (2.0 * kappa + j - n_top - 1.0) + gp * (n_top - j)
                - g * (2.0 * j - n_top + 1.0) * (2.0 * kappa + j - n_top) * alpha)
    w1, w2 = model.w
    kappa = float(sector.kappa)
    l1 = float(sector.l[0])
    return ((w1 + w2) * (1.5 * kappa - 1.0 + j - n_top)
            + 0.5 * l1 * (w1 - w2) + gp * (n_top - j)
            - g * (2.0 * j - n_top + 1.0)
            * ((1.5 * kappa + j - n_top) ** 2 - l1 * l1 / 4.0) * alpha)


# ---------------------------------------------------------------------------
# errata registry
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Erratum:
    """A confirmed correction to a printed formula.

    check() returns (printed_deviation, corrected_deviation) against an
    independent cross-check; confirmation means the printed value exceeds
    printed_min while the corrected one stays below corrected_max.
    """

    key: str
    location: str
    printed: str
    corrected: str
    check: Callable[[], tuple[float, float]]
    printed_min: float = 1e-3
    corrected_max: float = 1e-9


def _monomial_vs_oracle(
    model: ModelSpec, j: Rational, sector: SectorLabels, cap: int, name: str
) -> Callable[[bool], float]:
    """Deviation of the published-polynomial action from the Fock block."""
    blocks = [blk for blk in fock_oracle(model, j, cap) if blk.labels == sector]
    if len(blocks) != 1:
        raise RuntimeError("oracle block lookup failed")
    h_block = blocks[0].H
    d = norm_scale(model, sector)

    def deviation(corrected: bool) -> float:
        polys = published_polynomials(name, model, sector, corrected=corrected)
        op = EulerOperator({i: poly for i, poly in enumerate(polys)})
        mono = apply_to_monomials(op, sector.n_top)[: sector.dim, :]
        conj = (d[:, None] * mono) / d[None, :]
        scale = max(1.0, float(np.max(np.abs(h_block))))
        return float(np.max(np.abs(conj - h_block))) / scale

    return deviation


def _check_bose_hubbard_sign() -> tuple[float, float]:
    model = preset("bose_hubbard", {"g_prime": 0.7, "g": 0.4})
    j = Fraction(3, 2)
    sector = enumerate_sectors(model, j)[0]
    dev = _monomial_vs_oracle(model, j, sector, 0, "bose_hubbard")
    return dev(False), dev(True)


def _check_two_mode_b() -> tuple[float, float]:
    model = preset("two_mode_tc", {"w1": 1.1, "w2": 0.8, "g_prime": 0.6, "g": 0.9})
    j = Fraction(1)
    sector = sector_from_reference(model, j, ReferenceState(Fraction(-1), (3, 1)))
    dev = _monomial_vs_oracle(model, j, sector, 4, "two_mode_tc")
    return dev(False), dev(True)


def _pairwise_lhs(roots: np.ndarray, mu: int) -> complex:
    others = np.delete(roots, mu)
    return complex(np.sum(2.0 / (others - roots[mu])))


def _ladder_relation_dev(
    model: ModelSpec,
    sector: SectorLabels,
    rhs: Callable[[complex], complex],
) -> float:
    worst = 0.0
    for state in solve_sector(model, sector):
        if state.degenerate_roots or np.min(np.abs(state.roots)) < 1e-8:
            continue
        for mu in range(state.roots.size):
            lhs = _pairwise_lhs(state.roots, mu)
            worst = max(worst, abs(lhs - rhs(state.roots[mu])))
    return worst


def _check_lmg_bae_4j() -> tuple[float, float]:
    model = preset("lmg", {"g_prime": 0.9, "g": 0.7})
    j = Fraction(2)
    sector = next(s for s in enumerate_sectors(model, j) if s.p == 0)
    g, gp, p = model.g, model.g_prime, float(sector.p)

    def rhs(c4: float) -> Callable[[complex], complex]:
        def f(a: complex) -> complex:
            num = g * (3.0 + 2.0 * p - c4) * a * a + gp * a + g * (1.0 + 2.0 * p)
            return num / (2.0 * g * (a**3 + a))
        return f

    return (_ladder_relation_dev(model, sector, rhs(4.0)),
            _ladder_relation_dev(model, sector, rhs(4.0 * float(j))))


def _check_rotor_bae_4j() -> tuple[float, float]:
    a_, b_, c_ = 1.3, 0.4, 0.9
    j = Fraction(2)
    model = preset("rigid_rotor", {"a": a_, "b": b_, "c": c_, "j": j})
    sector = next(s for s in enumerate_sectors(model, j) if s.p == 0)
    p = float(sector.p)

    def rhs(c4: float) -> Callable[[complex], complex]:
        def f(al: complex) -> complex:
            num = ((a_ - b_) * (3.0 + 2.0 * p - c4) * al * al
                   + 4.0 * (2.0 * c_ - a_ - b_) * (1.0 + p - float(j)) * al
                   + (a_ - b_) * (1.0 + 2.0 * p))
            den = (2.0 * (a_ - b_) * (al**3 + al)
                   + 4.0 * (2.0 * c_ - a_ - b_) * al * al)
            return num / den
        return f

    return (_ladder_relation_dev(model, sector, rhs(4.0)),
            _ladder_relation_dev(model, sector, rhs(4.0 * float(j))))


def _check_bae_sign() -> tuple[float, float]:
    model = preset("lmg", {"g_prime": 1.1, "g": 0.6})
    j = Fraction(5, 2)
    sector = next(s for s in enumerate_sectors(model, j) if s.p == 0)
    g, gp, p = model.g, model.g_prime, float(sector.p)
    jf = float(j)

    def rhs(sign: float) -> Callable[[complex], complex]:
        def f(a: complex) -> complex:
            num = (g * (3.0 + 2.0 * p - 4.0 * jf) * a * a + gp * a
                   + g * (1.0 + 2.0 * p))
            return sign * num / (2.0 * g * (a**3 + a))
        return f

    return (_ladder_relation_dev(model, sector, rhs(-1.0)),
            _ladder_relation_dev(model, sector, rhs(+1.0)))


def _check_energy_weight() -> tuple[float, float]:
    model = ModelSpec(M=3, r=1, s=1, k=(1, 1, 1), w=(1.0, 0.7, 1.3),
                      g_prime=0.5, g=0.8)
    j = Fraction(1)
    sector = sector_from_reference(model, j, ReferenceState(Fraction(-1), (1, 2, 3)))
    levels = sector_levels(model, sector)
    M, r, p, n_top = model.M, model.r, sector.p, sector.n_top
    # the printed level-N occupations drop the mode weights mu of sum_mu mu*l_mu
    weighted = sum(sector.l, start=Fraction(0)) / M
    printed_boson = 0.0
    for i, (wi, ki) in enumerate(zip(model.w, model.k)):
        tail = sum(sector.l[i:], start=Fraction(0))
        nbar = ki * (Fraction(M + 1, M) * sector.kappa
                     - (Fraction(p) - sector.j) / r - n_top - weighted + tail
                     ) - Fraction(1, ki)
        printed_boson += wi * float(nbar)
    printed = corrected = 0.0
    for state in solve_sector(model, sector):
        roots_sum = complex(np.sum(state.roots))
        # closed_form_energy's terms, in its order, after the printed occupations
        printed_energy = printed_boson + model.g_prime * float(levels.spin_powers[n_top])
        printed_energy += model.constant_shift
        printed_energy -= model.g * levels.root_sum_coeff * roots_sum.real
        printed = max(printed, abs(printed_energy - state.energy))
        corrected = max(corrected, abs(
            closed_form_energy(model, sector, roots_sum) - state.energy))
    return printed, corrected


def _commutator_dev(model: ModelSpec, sector: SectorLabels, printed: bool) -> float:
    p0, pplus, pminus = ladder_operators(model, sector)
    comm = pplus @ pminus - pminus @ pplus
    rhs = commutator_rhs(model, sector, np.diag(p0))
    if printed:
        # the printed form lacks the global sign (-1)^(M+1); multiplying by
        # +-1 again is exact
        rhs = rhs * (-1) ** (model.M + 1)
    scale = max(1.0, float(np.max(np.abs(comm))), float(np.max(np.abs(rhs))))
    return float(np.max(np.abs(comm - np.diag(rhs)))) / scale


def _check_commutator_order() -> tuple[float, float]:
    cases = []
    model = preset("lmg", {"g_prime": 1.0, "g": 1.0})
    j = Fraction(3, 2)
    cases.append((model, next(s for s in enumerate_sectors(model, j) if s.p == 0)))
    model2 = preset("two_mode_tc", {"w1": 1.0, "w2": 1.0, "g_prime": 1.0, "g": 1.0})
    sector2 = sector_from_reference(model2, Fraction(1), ReferenceState(Fraction(-1), (2, 2)))
    cases.append((model2, sector2))
    printed = max(_commutator_dev(m, s, True) for m, s in cases)
    corrected = max(_commutator_dev(m, s, False) for m, s in cases)
    return printed, corrected


def _check_dimension_min() -> tuple[float, float]:
    model = preset("two_mode_tc", {"w1": 1.0, "w2": 0.5, "g_prime": 0.4, "g": 0.9})
    j = Fraction(1)
    sector = sector_from_reference(model, j, ReferenceState(Fraction(0), (0, 3)))
    blocks = [blk for blk in fock_oracle(model, j, 8) if blk.labels == sector]
    if len(blocks) != 1:
        raise RuntimeError("oracle block lookup failed")
    true_dim = blocks[0].H.shape[0]
    spin_cap = int((2 * sector.j - sector.p - sector.lam) / model.r)
    printed_dim = min(int(sector.A[-1]), spin_cap) + 1  # last-mode cap only
    return float(abs(printed_dim - true_dim)), float(abs(sector.dim - true_dim))


ERRATA: tuple[Erratum, ...] = (
    Erratum(
        key="bose_hubbard_raising_sign",
        location="two-site model polynomials",
        printed="P_1 = g'z(1-2j) + g(1+z^2),  P_0 = g'j^2 - 2jzg",
        corrected="P_1 = g'z(1-2j) + g(1-z^2),  P_0 = g'j^2 + 2jzg",
        check=_check_bose_hubbard_sign,
    ),
    Erratum(
        key="two_mode_b_kappa_power",
        location="two-mode model P_0 slope B",
        printed="B contains 9 j kappa / 2",
        corrected="B contains 9 j kappa^2 / 2",
        check=_check_two_mode_b,
    ),
    Erratum(
        key="lmg_bae_spin_term",
        location="collective-spin model root equations",
        printed="numerator factor (3 + 2p - 4)",
        corrected="numerator factor (3 + 2p - 4j)",
        check=_check_lmg_bae_4j,
    ),
    Erratum(
        key="rotor_bae_spin_term",
        location="rigid-rotor root equations",
        printed="numerator factor (3 + 2p - 4)",
        corrected="numerator factor (3 + 2p - 4j)",
        check=_check_rotor_bae_4j,
    ),
    Erratum(
        key="explicit_bae_sign",
        location="per-model root equations",
        printed="sum 2/(a_i - a_mu) = -P_1/P_2 (and cubic analogue)",
        corrected="sum 2/(a_i - a_mu) = +P_1/P_2",
        check=_check_bae_sign,
    ),
    Erratum(
        key="energy_mode_weight",
        location="general energy formula, mode term",
        printed="(1/M) sum_mu l_mu (unweighted)",
        corrected="(1/M) sum_mu mu l_mu (mode-weighted), visible for M >= 3",
        check=_check_energy_weight,
    ),
    Erratum(
        key="commutator_pair_order",
        location="closed form of [P+, P-]",
        printed="Psi(P0 - 1) - Psi(P0) for every M",
        corrected="(-1)^(M+1) (Psi(P0 - 1) - Psi(P0)); printed order holds "
                  "only for odd M",
        check=_check_commutator_order,
    ),
    Erratum(
        key="dimension_min_all_modes",
        location="block dimension for M > 0",
        printed="N = min(A_M, spin range)",
        corrected="N = min(min_i A_i, spin range)",
        check=_check_dimension_min,
        corrected_max=0.5,
    ),
)
