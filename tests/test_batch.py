"""Root recovery and checking of a whole sector in one stacked pass.

The stacked routines must give every state exactly what a call with that
state alone gives.  The per-state code that the batch replaced is kept here
as the reference: the assembly that recovers, certifies and verifies one
eigenvalue at a time from the 1-D calls, the closed-form energy of one root
set and the acceptance sweep's per-state checking loop.  The twisted ratio
recurrence that gives the coefficients is checked against the eigen
equation and the eigenvectors.
"""

import json
from fractions import Fraction

import numpy as np
import pytest

from spinboson import bethe, linalg, verify
from spinboson.bethe import (
    BetheState,
    bae_residuals,
    closed_form_energy,
    energy_from_roots,
    min_root_distance,
    poly_from_roots,
    residual_scale,
    root_scale,
    solve_sector,
)
from spinboson.cli import main
from spinboson.config import DEFAULT_TOLS
from spinboson.linalg import ConvergenceError, jacobi_eigen, polynomial_roots
from spinboson.model import ReferenceState, enumerate_sectors, sector_from_reference
from spinboson.operators import (
    apply_to_monomials,
    build_hamiltonian_operator,
    extract_polynomials,
    poly_eval,
)
from spinboson.presets import DEFAULT_GRIDS, PRESET_NAMES, model_for_j, random_params
from spinboson.representation import fock_oracle, norm_scale, sector_matrices

TOLS = DEFAULT_TOLS


# ---------------------------------------------------------------------------
# per-state references
# ---------------------------------------------------------------------------

def aberth_reference(c, z, tol, max_iter):
    """The 1-D Aberth loop from the starting roots z: the roots, and whether
    the step test held.  A row still moving after max_iter steps returns
    its last iterate if its scaled residual is within sqrt(tol), else its
    iterate of smallest scaled residual."""
    deg = c.size - 1
    dc = c[1:] * np.arange(1, deg + 1)

    def scaled(z):
        num = np.abs(poly_eval(c, z))
        den = poly_eval(np.abs(c), np.abs(z)).real
        worst = np.max(num / np.where(den == 0.0, 1.0, den))
        return np.inf if np.isnan(worst) else worst

    best = best_res = None
    for _ in range(max_iter):
        pz = poly_eval(c, z)
        dpz = poly_eval(dc, z)
        dpz = np.where(dpz == 0.0, 1e-300, dpz)
        w = pz / dpz
        diff = z[:, None] - z[None, :]
        s = np.sum(np.divide(1.0, diff, out=np.zeros_like(diff),
                             where=diff != 0.0), axis=1)
        denom = 1.0 - w * s
        denom = np.where(np.abs(denom) < 1e-300, 1e-300, denom)
        step = w / denom
        z = z - step
        if np.max(np.abs(step)) <= tol * (1.0 + np.max(np.abs(z))):
            return z, True
        res = scaled(z)
        if best is None or res < best_res:
            best, best_res = z, res
    return (z if scaled(z) <= np.sqrt(tol) else best), False


def roots_reference(coeffs, tol=TOLS.roots, max_iter=200):
    """One polynomial: numpy.roots start, in real arithmetic when every
    coefficient is real, then the 1-D Aberth loop; a real row whose steps do
    not settle starts again from numpy.roots in complex arithmetic."""
    c = np.asarray(coeffs, dtype=complex)
    real = not np.any(c.imag)
    z, settled = aberth_reference(
        c, np.roots(c[::-1].real if real else c[::-1]).astype(complex), tol, max_iter)
    if real and not settled:
        z, _ = aberth_reference(c, np.roots(c[::-1]).astype(complex), tol, max_iter)
    order = np.lexsort((z.imag, z.real))
    return z[order]


def scaled_residual_reference(model, sector, roots, polys):
    if min_root_distance(roots) <= TOLS.cluster * root_scale(roots):
        return np.full(roots.size, np.nan, dtype=complex), float("inf")
    res = bae_residuals(model, sector, roots, polys, TOLS.cluster)
    return res, float(np.max(np.abs(res))) / residual_scale(polys, roots)


def verify_reference(mono, psi, energy):
    n_rows, n_cols = mono.shape
    padded = np.zeros(n_cols, dtype=complex)
    padded[: psi.size] = psi
    image = mono @ padded
    target = np.zeros(n_rows, dtype=complex)
    target[:n_cols] = energy * padded
    scale = max(1.0, float(np.max(np.abs(mono))), abs(energy))
    dev = np.max(np.abs(image - target)) / (scale * max(1.0, float(np.max(np.abs(psi)))))
    return bool(dev <= TOLS.match)


def state_reference(model, sector, value, index, polys, mono):
    """One eigenvalue at a time, as the solver did before the batch."""
    coeffs = bethe._twisted_coeffs(mono[: sector.n_top + 1], [value])[0]
    roots = polynomial_roots(coeffs, TOLS.roots)
    residuals, scaled = scaled_residual_reference(model, sector, roots, polys)

    def pinned(roots):
        return (abs(closed_form_energy(model, sector, complex(np.sum(roots))) - value)
                <= TOLS.match * max(1.0, abs(value)))

    def verified(roots):
        return pinned(roots) and verify_reference(mono, poly_from_roots(roots),
                                                  float(value))

    refined, ok = False, verified(roots)
    if np.isfinite(scaled) and (scaled > 1e-2 * TOLS.bae or not ok):
        polished = bethe._polish_roots(model, sector, roots, polys, TOLS)
        if polished is not None:
            cand_res, cand_scaled = scaled_residual_reference(
                model, sector, polished, polys)
            if cand_scaled < scaled and pinned(polished):
                roots, residuals, refined = polished, cand_res, True
                ok = verified(roots)

    degenerate = bool(min_root_distance(roots) <= TOLS.bae_guard * root_scale(roots))
    if not np.all(np.isfinite(residuals.view(float))):
        degenerate = True
    return BetheState(sector, index, roots, float(value), residuals,
                      degenerate, ok, refined=refined)


def sector_inputs(model, sector):
    values = jacobi_eigen(sector_matrices(model, sector).H, TOLS.eigen).values
    h_op = build_hamiltonian_operator(model, sector)
    return values, extract_polynomials(h_op), apply_to_monomials(h_op, sector.n_top)


def outcome(fn):
    """The states, or the type of the error raised on the way."""
    try:
        return fn()
    except ConvergenceError as exc:
        return type(exc)


def assert_same_states(got, want):
    assert len(got) == len(want)
    for a, b in zip(got, want):
        assert a.eigen_index == b.eigen_index
        assert a.energy == b.energy
        assert np.array_equal(a.roots, b.roots)
        assert np.array_equal(a.bae_residuals, b.bae_residuals, equal_nan=True)
        assert (a.verified, a.degenerate_roots, a.refined) == (
            b.verified, b.degenerate_roots, b.refined)


def compare_sector(model, sector):
    """Batch against the per-state reference; returns the reference states."""
    values, polys, mono = sector_inputs(model, sector)

    def per_state():
        return [state_reference(model, sector, values[i], i, polys, mono)
                for i in range(sector.dim)]

    def batch():
        return bethe._recover_states(model, sector, values, polys, mono, TOLS)

    want, got = outcome(per_state), outcome(batch)
    if isinstance(want, type):
        assert got is want
    else:
        assert_same_states(got, want)
    return want


def largest_sector(model, j):
    j = Fraction(j)
    ref = ReferenceState(-j, tuple(int(2 * j) * k for k in model.k))
    return sector_from_reference(model, j, ref)


# ---------------------------------------------------------------------------
# the batch against the per-state assembly
# ---------------------------------------------------------------------------

def test_batch_matches_per_state_on_random_models():
    rng = np.random.default_rng(20240817)
    n_models = n_states = 0
    for name in PRESET_NAMES:
        for _ in range(8):
            params = random_params(name, rng)
            for j in DEFAULT_GRIDS[name].j_values[-2:]:
                model = model_for_j(name, params, j)
                sectors = [sec for sec in enumerate_sectors(model, j, 4)
                           if 0 < sec.n_top <= 12]
                sectors.sort(key=lambda sec: -sec.dim)
                for sec in sectors[:3]:
                    states = compare_sector(model, sec)
                    n_states += len(states)
                n_models += 1
    assert n_models >= 40
    assert n_states > 500


def pin_rejected(model, sector, states):
    """Indices of the states that kept their recurrence roots although the
    Newton polish gave a candidate with a smaller scaled residual: the
    candidate's closed-form energy misses the state's eigenvalue."""
    _, polys, _ = sector_inputs(model, sector)
    out = []
    for st in states:
        residual = st.max_residual()
        if st.refined or not np.isfinite(residual) or (
                st.verified
                and residual <= 1e-2 * TOLS.bae * residual_scale(polys, st.roots)):
            continue
        cand = bethe._polish_roots(model, sector, st.roots, polys, TOLS)
        if cand is None:
            continue
        cand_scaled = scaled_residual_reference(model, sector, cand, polys)[1]
        own_scaled = scaled_residual_reference(model, sector, st.roots, polys)[1]
        energy = closed_form_energy(model, sector, complex(np.sum(cand)))
        if (cand_scaled < own_scaled
                and abs(energy - st.energy) > TOLS.match * max(1.0, abs(st.energy))):
            out.append(st.eigen_index)
    return out


@pytest.mark.parametrize("name,j,seed", [("tavis_cummings", 12, 1),
                                         ("bose_hubbard", 12, 3)])
def test_batch_matches_per_state_through_the_fallbacks(name, j, seed):
    # dim 25: some states leave the recurrence roots for the Newton polish;
    # each keeps the polished roots unless their energy misses its eigenvalue
    params = random_params(name, np.random.default_rng(seed))
    model = model_for_j(name, params, j)
    sec = largest_sector(model, j)
    states = compare_sector(model, sec)
    assert not isinstance(states, type)
    assert any(st.refined for st in states)
    assert sum(st.refined for st in states) + len(pin_rejected(model, sec, states)) >= 2


# ---------------------------------------------------------------------------
# stacked primitives against row-by-row calls
# ---------------------------------------------------------------------------

def random_rows(rng, n_rows, deg):
    rows = rng.standard_normal((n_rows, deg + 1)) * 10.0 ** rng.uniform(
        -2, 2, (n_rows, deg + 1))
    rows[:, -1] = 1.0
    return rows


def row_roots_reference(row):
    """The roots of one row as the 1-D call computed them before it ran as a
    one-row stack."""
    c = np.asarray(row, dtype=complex)
    if c.size == 1:
        return np.zeros(0, dtype=complex)
    if c.size == 2:
        return np.array([-c[0] / c[1]])
    return roots_reference(c)


@pytest.mark.parametrize("deg", [0, 1, 2, 3, 7, 12, 24])
def test_stacked_roots_equal_row_calls(deg):
    rng = np.random.default_rng(deg)
    rows = random_rows(rng, 9, deg).astype(complex)
    rows[1] += 1j * random_rows(rng, 1, deg)[0]  # a complex row
    if deg >= 1:
        rows[2, 0] = 0.0       # numpy.roots deflates this row's zero root
    if deg >= 2:
        rows[5, :2] = 0.0      # and this row's double zero root
        # (z - 1)^2 times a random monic: a cluster
        rows[7] = np.convolve([1.0, -2.0, 1.0], random_rows(rng, 1, deg - 2)[0])
    stacked = polynomial_roots(rows)
    assert stacked.shape == (9, deg) and stacked.dtype == complex
    for i, row in enumerate(rows):
        single = polynomial_roots(row)
        assert single.shape == (deg,) and single.dtype == complex
        assert np.array_equal(stacked[i], single)
        assert np.array_equal(single, row_roots_reference(row))
        # trailing zeros of a 1-D call are dropped first
        padded = np.concatenate([row, np.zeros(2)])
        assert np.array_equal(polynomial_roots(padded), single)


def test_real_and_complex_rows_start_apart():
    # real rows share one real companion eigensolve and complex rows one
    # complex eigensolve, so a row's start and roots depend on that row
    # alone, not on its neighbours or on the dtype it arrives in
    rng = np.random.default_rng(11)
    deg = 6
    rows = random_rows(rng, 8, deg).astype(complex)
    rows[[1, 4]] += 1j * random_rows(rng, 2, deg)
    rows[[2, 4], 0] = 0.0      # a real and a complex row left to numpy.roots
    start = linalg._companion_start(rows)
    stacked = polynomial_roots(rows)
    for i, row in enumerate(rows):
        real = not np.any(row.imag)
        assert np.array_equal(start[i], linalg._companion_start(row[None])[0])
        if real and row[0] != 0.0:
            comp = np.zeros((deg, deg))
            comp[np.arange(1, deg), np.arange(deg - 1)] = 1.0
            comp[0] = -row.real[deg - 1 :: -1] / row.real[deg]
            assert np.array_equal(start[i], np.linalg.eigvals(comp))
        assert np.array_equal(stacked[i], polynomial_roots(row))
        if real:
            assert np.array_equal(stacked[i], polynomial_roots(row.real))


def test_a_real_row_held_on_the_real_axis_starts_again(monkeypatch):
    # (z - 2)(z^2 + 1): from real starting roots a real row's Aberth steps
    # stay real and cannot reach the pair -i, i; the row starts again from
    # the complex eigensolve
    row = np.array([-2.0, 1.0, -2.0, 1.0])
    real_start = np.array([[-0.5, 0.5, 2.5]], dtype=complex)
    both = np.array([[row], [[1.0, -4.0, 3.0, 0.0]]], dtype=complex)
    assert linalg._aberth_steps(both, real_start.copy(), TOLS.roots, 200)[1] is not None

    companion_start = linalg._companion_start

    def start(c, real_arithmetic=True):
        return real_start.copy() if real_arithmetic else companion_start(c, False)

    monkeypatch.setattr(linalg, "_companion_start", start)
    roots = polynomial_roots(row)
    assert np.abs(roots[:, None] - np.array([-1j, 1j, 2.0])).min(axis=0).max() <= 1e-14


def test_stacked_roots_low_degree_and_rejects_mixed_degrees():
    rows = np.array([[6.0, -2.0], [1.0, 4.0]])
    stacked = polynomial_roots(rows)
    assert np.array_equal(stacked, [[3.0], [-0.25]])
    with pytest.raises(ValueError):
        polynomial_roots(np.array([[1.0, 2.0, 1.0], [1.0, 2.0, 0.0]]))


def test_stacked_bae_residuals_equal_row_calls():
    params = random_params("two_mode_tc", np.random.default_rng(3))
    model = model_for_j("two_mode_tc", params, 2)
    sec = max(enumerate_sectors(model, Fraction(2), 3), key=lambda s: s.dim)
    polys = extract_polynomials(build_hamiltonian_operator(model, sec))
    rng = np.random.default_rng(4)
    roots = (rng.standard_normal((6, sec.n_top))
             + 1j * rng.standard_normal((6, sec.n_top)))
    stacked = bae_residuals(model, sec, roots, polys)
    assert stacked.shape == roots.shape
    for row, res in zip(roots, stacked):
        assert np.array_equal(res, bae_residuals(model, sec, row, polys))
    scales = residual_scale(polys, roots)
    assert [float(x) for x in scales] == [residual_scale(polys, row) for row in roots]
    assert list(root_scale(roots)) == [root_scale(row) for row in roots]
    assert list(min_root_distance(roots)) == [min_root_distance(row) for row in roots]
    assert np.array_equal(poly_from_roots(roots),
                          np.array([poly_from_roots(row) for row in roots]))


def test_eigen_index_is_the_column_index():
    # solve_sector sorts by energy, and the eigensolve's columns ascend in
    # energy (g != 0 in these models)
    for name, j, seed in [("lmg", 6, 5), ("two_mode_tc", 2, 3), ("rigid_rotor", 4, 1)]:
        model = model_for_j(name, random_params(name, np.random.default_rng(seed)), j)
        for sec in enumerate_sectors(model, j, 3):
            states = solve_sector(model, sec)
            assert [st.eigen_index for st in states] == list(range(sec.dim))


# ---------------------------------------------------------------------------
# the twisted ratio recurrence
# ---------------------------------------------------------------------------

def twisted_inputs(name, j_values=(2, 4, 6)):
    """(model, sector, square monomial action, eigenvalues) of the largest
    sector at each j, for three coupling draws."""
    for seed in range(3):
        params = random_params(name, np.random.default_rng(seed))
        for j in j_values:
            model = model_for_j(name, params, j)
            sec = largest_sector(model, j)
            sq = apply_to_monomials(build_hamiltonian_operator(model, sec), sec.n_top)
            values = np.linalg.eigvalsh(sector_matrices(model, sec).H)
            yield model, sec, sq[: sec.n_top + 1], values


@pytest.mark.parametrize("name", PRESET_NAMES)
def test_twisted_rows_solve_the_eigen_equation(name):
    # componentwise: each equation's residual against the magnitudes of its
    # own terms; the eigenvalue is exact only to the matrix scale, so the
    # E c_m term is weighed with max(|E|, max|sq|)
    for _, sec, sq, values in twisted_inputs(name):
        coeffs = bethe._twisted_coeffs(sq, values)
        assert coeffs.shape == (values.size, sec.dim)
        assert np.all(coeffs[:, -1] == 1.0)
        residual = np.abs(coeffs @ sq.T - values[:, None] * coeffs)
        weight = np.maximum(np.abs(values), np.max(np.abs(sq)))[:, None]
        terms = np.abs(coeffs) @ np.abs(sq).T + weight * np.abs(coeffs)
        assert np.max(residual / terms) <= 4 * sec.dim * np.finfo(float).eps


@pytest.mark.parametrize("name", [n for n in PRESET_NAMES if n != "bose_hubbard"])
def test_twisted_rows_equal_the_eigenvector_coefficients(name):
    # on small sectors with a modest coefficient range the rescaled
    # eigenvector components carry the same monic coefficients
    for model, sec, sq, values in twisted_inputs(name, (1, 2, 3, 4)):
        vectors = np.linalg.eigh(sector_matrices(model, sec).H)[1]
        want = vectors.T / norm_scale(model, sec)
        want /= want[:, -1:]
        got = bethe._twisted_coeffs(sq, values)
        peak = np.max(np.abs(want), axis=1, keepdims=True)
        assert np.max(np.abs(got - want) / peak) <= 1e-10


@pytest.mark.parametrize("name", PRESET_NAMES)
def test_stacked_twisted_rows_equal_row_calls(name):
    for _, _, sq, values in twisted_inputs(name):
        stacked = bethe._twisted_coeffs(sq, values)
        for value, row in zip(values, stacked):
            assert np.array_equal(bethe._twisted_coeffs(sq, [value])[0], row)


# ---------------------------------------------------------------------------
# sectors whose eigenvectors have an end component at roundoff
# ---------------------------------------------------------------------------

ROUNDOFF_SECTORS = [
    (12, random_params("bose_hubbard", np.random.default_rng(0))),
    (12, random_params("bose_hubbard", np.random.default_rng(5))),
    (14, {"g_prime": -0.27342595831299005, "g": -0.5100683731015935}),
]


@pytest.mark.parametrize("j,params", ROUNDOFF_SECTORS,
                         ids=["eigenvector0", "eigenvector22", "eigenvector28"])
def test_sectors_with_a_roundoff_eigenvector_end_solve(j, params):
    # eigenvector 0, 22 and 28 of these sectors have their z^N component at
    # roundoff; the coefficients come from the eigenvalues alone
    model = model_for_j("bose_hubbard", params, j)
    sec = largest_sector(model, j)
    states = solve_sector(model, sec)
    assert len(states) == sec.dim
    assert all(st.verified or st.degenerate_roots for st in states)
    ref = np.linalg.eigvalsh(sector_matrices(model, sec).H)
    energies = np.array([st.energy for st in states])
    assert np.max(np.abs(energies - ref)) <= TOLS.match * max(
        1.0, float(np.max(np.abs(ref))))


def test_spectrum_of_a_roundoff_eigenvector_sector_exits_zero(capsys):
    j, params = ROUNDOFF_SECTORS[0]
    code = main(["spectrum", "--preset", "bose_hubbard",
                 "--param", f"g_prime={params['g_prime']!r}",
                 "--param", f"g={params['g']!r}", "--j", str(j), "--mu", f"-{j}"])
    captured = capsys.readouterr()
    assert code == 0
    assert captured.err == ""
    assert len(json.loads(captured.out)["sectors"][0]["states"]) == 25


# ---------------------------------------------------------------------------
# the energy pin
# ---------------------------------------------------------------------------

def test_a_state_whose_energy_misses_its_eigenvalue_is_not_verified():
    # dim 33: Newton on the root equations gives some states roots that
    # reproduce H psi = E psi within tols.match, carry no degeneracy flag and
    # beat the state's certificate, yet whose closed-form energy misses the
    # eigenvalue; only the energy pin tells them apart, and the state keeps
    # its own roots, unverified
    model = model_for_j("tavis_cummings",
                        random_params("tavis_cummings", np.random.default_rng(3000)),
                        16)
    sec = largest_sector(model, 16)
    states = solve_sector(model, sec)
    _, polys, mono = sector_inputs(model, sec)
    roots = np.array([st.roots for st in states])
    energies = np.array([st.energy for st in states])
    missed = (np.abs(closed_form_energy(model, sec, roots.sum(axis=1)) - energies)
              > TOLS.match * np.maximum(1.0, np.abs(energies)))
    assert not any(st.verified for st, miss in zip(states, missed) if miss)
    assert not any(st.refined for st, miss in zip(states, missed) if miss)

    rejected = pin_rejected(model, sec, states)
    caught = []
    for i in rejected:
        st = states[i]
        cand = bethe._polish_roots(model, sec, st.roots, polys, TOLS)
        eigen_ok = bethe._verify_eigen_equation(
            mono, poly_from_roots(cand[None]), np.array([st.energy]), TOLS.match)[0]
        if eigen_ok and min_root_distance(cand) > TOLS.bae_guard * root_scale(cand):
            caught.append(i)
        assert not st.verified and not np.array_equal(st.roots, cand)
    assert caught


# ---------------------------------------------------------------------------
# stacked closed-form energy
# ---------------------------------------------------------------------------

def energy_reference(model, sector, roots, mono):
    """The closed-form energy of one root set, as the scalar code computed it."""
    roots = np.atleast_1d(np.asarray(roots, dtype=complex))
    if roots.size != sector.n_top:
        raise ValueError(f"expected {sector.n_top} roots, got {roots.size}")
    roots_sum = complex(np.sum(roots)) if roots.size else 0.0 + 0.0j
    if abs(roots_sum.imag) > 1e-9 * max(1.0, abs(roots_sum)):
        raise ValueError(f"root sum has non-negligible imaginary part {roots_sum}")
    energy = closed_form_energy(model, sector, roots_sum)
    ratio = complex(mono[sector.n_top, :] @ poly_from_roots(roots))
    if abs(ratio - energy) > TOLS.energy_cross * max(1.0, abs(energy)):
        raise ValueError(
            f"energy formula {energy:.12g} disagrees with coefficient ratio "
            f"{ratio:.12g}"
        )
    return energy


def first_error(fn):
    with pytest.raises(ValueError) as info:
        fn()
    return str(info.value)


def test_stacked_energy_equals_row_calls_on_random_models():
    rng = np.random.default_rng(77)
    n_models = n_states = 0
    for name in PRESET_NAMES:
        for _ in range(8):
            params = random_params(name, rng)
            for j in DEFAULT_GRIDS[name].j_values[-2:]:
                model = model_for_j(name, params, j)
                sectors = sorted(enumerate_sectors(model, j, 4), key=lambda s: -s.dim)
                for sec in sectors[:3] + sectors[-1:]:
                    if sec.n_top > 12:
                        continue
                    mono = apply_to_monomials(build_hamiltonian_operator(model, sec),
                                              sec.n_top)
                    roots = np.array([st.roots for st in solve_sector(model, sec)])
                    stacked = energy_from_roots(model, sec, roots, mono=mono)
                    assert stacked.shape == (sec.dim,) and stacked.dtype == float
                    rows = [energy_from_roots(model, sec, r, mono=mono) for r in roots]
                    assert all(type(e) is float for e in rows)
                    want = [energy_reference(model, sec, r, mono) for r in roots]
                    assert np.array_equal(stacked, rows)
                    assert np.array_equal(stacked, want)
                    assert np.array_equal(energy_from_roots(model, sec, roots), stacked)
                    n_states += sec.dim
                n_models += 1
    assert n_models >= 40
    assert n_states > 500


@pytest.mark.parametrize("order", ["ratio_first", "imag_first"])
def test_stacked_energy_raises_the_first_row_error(order):
    # the coefficient ratio is off by psi(0) once the z^0 entry of the action's
    # top row is; a root at zero keeps a row clear of that
    params = random_params("two_mode_tc", np.random.default_rng(8))
    model = model_for_j("two_mode_tc", params, 2)
    sec = max(enumerate_sectors(model, Fraction(2), 3), key=lambda s: s.dim)
    mono = apply_to_monomials(build_hamiltonian_operator(model, sec), sec.n_top)
    mono[sec.n_top, 0] += 1.0
    roots = np.array([st.roots for st in solve_sector(model, sec)])
    assert roots.shape[0] >= 5 and roots.shape[1] >= 2
    roots[:, 0] = 0.0
    bad_ratio, bad_imag = (2, 3) if order == "ratio_first" else (3, 2)
    roots[bad_ratio, 0] = 0.5           # psi(0) != 0: the ratio is off
    roots[bad_imag, 1] += 0.5j          # the root sum leaves the real axis
    roots[4, 0] = 0.7                   # a later failure is not reported
    row_errors = [first_error(lambda: energy_reference(model, sec, r, mono))
                  for r in roots[2:]]
    want = row_errors[0]
    assert ("disagrees" if order == "ratio_first" else "imaginary") in want
    assert first_error(lambda: energy_from_roots(model, sec, roots, mono=mono)) == want
    # the rows before the failure pass, with the row calls' energies
    assert np.array_equal(energy_from_roots(model, sec, roots[:2], mono=mono),
                          [energy_reference(model, sec, r, mono) for r in roots[:2]])


def test_stacked_energy_checks_the_root_count():
    params = random_params("lmg", np.random.default_rng(2))
    model = model_for_j("lmg", params, 3)
    sec = largest_sector(model, 3)
    with pytest.raises(ValueError, match=f"expected {sec.n_top} roots, got 2"):
        energy_from_roots(model, sec, np.zeros((4, 2)))
    with pytest.raises(ValueError):
        energy_from_roots(model, sec, np.zeros((2, 2, sec.n_top)))


# ---------------------------------------------------------------------------
# the acceptance sweep checks one sector at a time
# ---------------------------------------------------------------------------

def sweep_reference(seed, n_draws, tols):
    """The acceptance sweep with its per-state checking loop."""
    rng = np.random.default_rng(seed)
    worst_match = worst_residual = 0.0
    n_sectors = n_states = n_degenerate = 0
    failures = []
    for name in PRESET_NAMES:
        grid = DEFAULT_GRIDS[name]
        for _ in range(n_draws):
            params = random_params(name, rng)
            for j in grid.j_values:
                model = model_for_j(name, params, j)
                sectors = [sec for sec in enumerate_sectors(model, j, grid.max_total_bosons)
                           if sec.n_top <= verify.N_TOP_LIMIT]
                cap = verify._oracle_cap(model, sectors) if model.M > 0 else 0
                blocks = {blk.labels: blk for blk in fock_oracle(model, j, cap)}
                for sec in sectors:
                    n_sectors += 1
                    states = solve_sector(model, sec, tols=tols)
                    h_op = build_hamiltonian_operator(model, sec)
                    mono = apply_to_monomials(h_op, sec.n_top)
                    polys = extract_polynomials(h_op)
                    energies = [energy_reference(model, sec, st.roots, mono)
                                for st in states]
                    sector_eig = [st.energy for st in states]
                    block = blocks.get(sec)
                    if block is None:
                        failures.append(f"match: {name} j={j}: no oracle block for {sec}")
                        continue
                    fock_eig = jacobi_eigen(block.H, tols.eigen).values
                    dev = max(verify.multiset_close(energies, sector_eig, tols.match),
                              verify.multiset_close(energies, fock_eig, tols.match))
                    worst_match = max(worst_match, dev)
                    if dev > tols.match:
                        failures.append(
                            f"match: {name} j={j} sector p={sec.p}: dev {dev:.2e}")
                    for st in states:
                        n_states += 1
                        if st.degenerate_roots:
                            n_degenerate += 1
                            continue
                        if st.roots.size == 0:
                            continue
                        scaled = st.max_residual() / residual_scale(polys, st.roots)
                        worst_residual = max(worst_residual, scaled)
                        if scaled > tols.bae:
                            failures.append(
                                f"residual: {name} j={j} p={sec.p} state "
                                f"{st.eigen_index}: {scaled:.2e}")
    return {"worst_match": worst_match, "worst_residual": worst_residual,
            "n_sectors": n_sectors, "n_states": n_states,
            "n_degenerate": n_degenerate, "failures": failures}


def test_oracle_cap_equals_the_occupation_formula():
    # the largest level-0 occupation k_i (A_i + q_i - 1/k_i^2) of any sector
    rng = np.random.default_rng(3)
    for name in PRESET_NAMES:
        grid = DEFAULT_GRIDS[name]
        params = random_params(name, rng)
        for j in grid.j_values:
            model = model_for_j(name, params, j)
            sectors = enumerate_sectors(model, j, grid.max_total_bosons)
            want = max((int(ki * (ai + qi - Fraction(1, ki * ki)))
                        for sec in sectors
                        for ki, qi, ai in zip(model.k, sec.q, sec.A)), default=0)
            assert verify._oracle_cap(model, sectors) == want
            assert verify._oracle_cap(model, []) == 0


@pytest.mark.parametrize("seed", [686310523, 101, 20240817])
def test_sweep_equals_the_per_state_loop(seed):
    got = verify._sweep_presets(seed, 1, TOLS)
    want = sweep_reference(seed, 1, TOLS)
    assert got == want
    assert [type(got[key]) for key in sorted(got)] == [
        type(want[key]) for key in sorted(want)]


def test_sweep_solves_and_checks_each_sector_once(monkeypatch):
    calls = {"solve_sector": 0, "energy_from_roots": 0}

    def counted(name):
        inner = getattr(verify, name)

        def wrapper(*args, **kwargs):
            calls[name] += 1
            return inner(*args, **kwargs)
        return wrapper

    for name in calls:
        monkeypatch.setattr(verify, name, counted(name))
    data = verify._sweep_presets(7, 1, TOLS)
    assert data["n_sectors"] > 200
    assert calls == {"solve_sector": data["n_sectors"],
                     "energy_from_roots": data["n_sectors"]}
