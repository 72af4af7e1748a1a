"""The coupling-free sector caches: reuse across coupling draws, isolation
of what callers receive, bounds, and bit-for-bit agreement with the
uncached per-call assembly they replace (and, for the monomial action, with
the operator calculus)."""

from fractions import Fraction

import numpy as np
import pytest

from spinboson import model as model_mod
from spinboson import operators, representation
from spinboson.bethe import closed_form_energy, solve_sector
from spinboson.model import (
    ENUMERATION_CACHE_SIZE,
    SECTOR_CACHE_SIZE,
    ModelSpec,
    ReferenceState,
    boson_occupations,
    enumerate_sectors,
    sector_from_reference,
)
from spinboson.operators import (
    EulerOperator,
    _product,
    apply_to_monomials,
    build_hamiltonian_operator,
    extract_polynomials,
    monomial_action,
)
from spinboson.presets import DEFAULT_GRIDS, PRESET_NAMES, model_for_j, random_params
from spinboson.representation import ladder_operators, sector_levels, sector_matrices

CACHES = (
    (model_mod._enumerate_sectors, ENUMERATION_CACHE_SIZE),
    (operators._hamiltonian_pieces, SECTOR_CACHE_SIZE),
    (operators._monomial_map, SECTOR_CACHE_SIZE),
    (representation._sector_levels, SECTOR_CACHE_SIZE),
)


def clear_caches():
    for cache, _ in CACHES:
        cache.cache_clear()


def solve_all(name, params, j_values):
    out = []
    for j in j_values:
        mdl = model_for_j(name, params, j)
        for sec in enumerate_sectors(mdl, j, DEFAULT_GRIDS[name].max_total_bosons):
            out.append(solve_sector(mdl, sec))
    return out


def random_model_sector(rng):
    M = int(rng.integers(0, 3))
    mdl = ModelSpec(
        M=M, r=int(rng.integers(1, 4)), s=int(rng.integers(1, 4)),
        k=tuple(int(rng.integers(1, 4)) for _ in range(M)),
        w=tuple(float(rng.choice([0.0, rng.uniform(-2, 2)])) for _ in range(M)),
        g_prime=float(rng.choice([0.0, rng.uniform(-2, 2)])),
        g=float(rng.choice([0.0, rng.uniform(-2, 2)])),
        constant_shift=float(rng.choice([0.0, rng.uniform(-2, 2)])),
    )
    two_j = int(rng.integers(0, 11))
    j = Fraction(two_j, 2)
    mu = Fraction(int(rng.integers(0, two_j + 1))) - j
    ns = tuple(int(rng.integers(0, 7)) for _ in range(M))
    return mdl, sector_from_reference(mdl, j, ReferenceState(mu, ns))


# the per-call assembly before the caches, kept as the bitwise reference

def reference_operator(mdl, sector):
    j, p, r = sector.j, sector.p, mdl.r
    h = EulerOperator.zero()
    n0 = boson_occupations(mdl, sector, 0)
    for wi, ki, n0i in zip(mdl.w, mdl.k, n0):
        h = h + wi * EulerOperator.euler_affine(float(n0i), -float(ki))
    spin_base = EulerOperator.euler_affine(float(Fraction(p) - j), float(r))
    h = h + mdl.g_prime * _product([spin_base] * mdl.s)
    lowering = _product([EulerOperator.euler_affine(float(p - i + 1), float(r))
                         for i in range(1, r + 1)])
    h = h + mdl.g * lowering.divide_by_z()
    raise_factors = [EulerOperator.euler_affine(float(2 * j - p - i + 1), -float(r))
                     for i in range(1, r + 1)]
    for ki, n0i in zip(mdl.k, n0):
        raise_factors += [EulerOperator.euler_affine(float(n0i - v + 1), -float(ki))
                          for v in range(1, ki + 1)]
    h = h + mdl.g * (EulerOperator.z_poly([0.0, 1.0]) @ _product(raise_factors))
    if mdl.constant_shift:
        h = h + mdl.constant_shift * EulerOperator.identity()
    return h


def reference_hamiltonian(mdl, sector):
    _, pplus, pminus = ladder_operators(mdl, sector)
    h = np.zeros((sector.dim, sector.dim))
    for n in range(sector.dim):
        occ = boson_occupations(mdl, sector, n)
        h[n, n] += sum(wi * ni for wi, ni in zip(mdl.w, occ))
        spin_val = Fraction(sector.p) - sector.j + mdl.r * n
        h[n, n] += mdl.g_prime * float(spin_val ** mdl.s)
        h[n, n] += mdl.constant_shift
    coupling = mdl.g
    for ki in mdl.k:
        coupling *= float(ki) ** (ki / 2.0)
    h += coupling * (pplus + pminus)
    return (h + h.T) / 2.0


def reference_energy(mdl, sector, roots_sum):
    j, p, r, n_top = sector.j, sector.p, mdl.r, sector.n_top
    energy = 0.0
    if mdl.M > 0:
        occ_top = boson_occupations(mdl, sector, n_top)
        energy += sum(wi * ni for wi, ni in zip(mdl.w, occ_top))
    energy += mdl.g_prime * float((r * n_top - j + p) ** mdl.s)
    energy += mdl.constant_shift
    if n_top > 0:
        coeff = Fraction(1)
        for i in range(1, r + 1):
            coeff *= 2 * j - p - i + 1 - r * (n_top - 1)
        for ki, ni in zip(mdl.k, boson_occupations(mdl, sector, n_top - 1)):
            for v in range(1, ki + 1):
                coeff *= ni - v + 1
        energy -= mdl.g * float(coeff) * roots_sum.real
    return energy


@pytest.mark.parametrize("seed", range(40))
def test_per_call_combination_is_bitwise_the_uncached_assembly(seed):
    rng = np.random.default_rng(seed)
    mdl, sec = random_model_sector(rng)
    for _ in range(2):  # cold, then from the cache
        got, want = build_hamiltonian_operator(mdl, sec), reference_operator(mdl, sec)
        assert list(got.terms) == list(want.terms)
        for d in want.terms:
            assert np.array_equal(got.terms[d], want.terms[d])
        assert np.array_equal(sector_matrices(mdl, sec).H,
                              reference_hamiltonian(mdl, sec))
        roots_sum = complex(rng.uniform(-3, 3), 0.0)
        assert (closed_form_energy(mdl, sec, roots_sum)
                == reference_energy(mdl, sec, roots_sum))


@pytest.mark.parametrize("seed", range(40))
def test_monomial_action_is_bitwise_the_operator_calculus(seed):
    # each entry adds the same falling factorial times coefficient products
    # in the same order of d as apply_to_monomials, so nothing moves
    rng = np.random.default_rng(seed)
    mdl, sec = random_model_sector(rng)
    for _ in range(2):  # cold, then from the caches
        h = build_hamiltonian_operator(mdl, sec)
        mono, polys = monomial_action(mdl, sec)
        want = apply_to_monomials(h, sec.n_top)
        assert mono.shape == want.shape and np.array_equal(mono, want)
        want_polys = extract_polynomials(h)
        assert len(polys) == len(want_polys)
        for got, ref in zip(polys, want_polys):
            assert got.shape == ref.shape and np.array_equal(got, ref)
        # the caller owns what it gets: scribbling on it changes no later call
        mono *= -3.0
        for p in polys:
            p += 1.0


@pytest.mark.parametrize("name", PRESET_NAMES)
def test_warm_solve_equals_cold_solve(name):
    rng = np.random.default_rng(7)
    j_values = DEFAULT_GRIDS[name].j_values[2:6]
    params_a, params_b = random_params(name, rng), random_params(name, rng)
    clear_caches()
    solve_all(name, params_a, j_values)
    warm = solve_all(name, params_b, j_values)
    clear_caches()
    cold = solve_all(name, params_b, j_values)
    assert len(warm) == len(cold)
    for warm_states, cold_states in zip(warm, cold):
        for a, b in zip(warm_states, cold_states, strict=True):
            assert a.energy == b.energy
            assert np.array_equal(a.roots, b.roots)
            assert np.array_equal(a.bae_residuals, b.bae_residuals, equal_nan=True)
            assert (a.degenerate_roots, a.verified, a.refined) == (
                b.degenerate_roots, b.verified, b.refined)


def test_cached_arrays_are_read_only():
    mdl = model_for_j("two_mode_tc", {"w1": 0.9, "w2": 1.3, "g_prime": 0.4,
                                      "g": 0.6}, Fraction(1))
    sec = enumerate_sectors(mdl, Fraction(1), 2)[-1]
    pieces = operators._hamiltonian_pieces(mdl.M, mdl.r, mdl.s, mdl.k, sec)
    action_map = operators._monomial_map(pieces.shape[1], pieces.shape[2], sec.dim)
    levels = sector_levels(mdl, sec)
    arrays = [pieces, levels.pplus_band, levels.pminus_band,
              levels.occupations, levels.spin_powers, levels.band, *action_map]
    assert not any(arr.flags.writeable for arr in arrays)
    assert all(arr.ndim == 1 for arr in arrays[1:3] + arrays[4:5] + arrays[6:])
    assert np.array_equal(levels.band, np.diag(levels.pplus_band, -1)
                          + np.diag(levels.pminus_band, 1))


def test_mutating_results_leaves_the_caches_intact():
    mdl = model_for_j("tavis_cummings", {"w": 1.1, "g_prime": 0.5, "g": 0.7},
                      Fraction(3, 2))
    sec = enumerate_sectors(mdl, Fraction(3, 2), 3)[-1]
    mats = sector_matrices(mdl, sec)
    op = build_hamiltonian_operator(mdl, sec)
    expected = {"H": mats.H.copy(),
                "terms": dict((d, p.copy()) for d, p in op.terms.items())}
    for arr in (mats.H, *op.terms.values()):
        arr *= -3.0
    op.terms.clear()
    sectors = enumerate_sectors(mdl, Fraction(3, 2), 3)
    sectors.clear()

    again = sector_matrices(mdl, sec)
    assert np.array_equal(again.H, expected["H"])
    terms = build_hamiltonian_operator(mdl, sec).terms
    assert terms.keys() == expected["terms"].keys()
    assert all(np.array_equal(terms[d], expected["terms"][d]) for d in terms)
    assert enumerate_sectors(mdl, Fraction(3, 2), 3)


def test_caches_stay_within_their_bounds():
    mdl = model_for_j("two_mode_tc", {"w1": 0.9, "w2": 1.3, "g_prime": 0.4,
                                      "g": 0.6}, Fraction(6))
    sectors = enumerate_sectors(mdl, Fraction(6), 30)
    assert len(sectors) == 1228 > SECTOR_CACHE_SIZE
    for sec in sectors:
        build_hamiltonian_operator(mdl, sec)
        monomial_action(mdl, sec)
        sector_matrices(mdl, sec)
    for cache, bound in CACHES:
        assert 0 < cache.cache_info().currsize <= bound
    assert operators._hamiltonian_pieces.cache_info().currsize == SECTOR_CACHE_SIZE
