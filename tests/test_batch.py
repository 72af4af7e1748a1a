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
import warnings
from collections import Counter
from dataclasses import replace
from fractions import Fraction

import numpy as np
import pytest

from spinboson import bethe, linalg, verify
from spinboson.bethe import (
    BetheState,
    bae_residuals,
    closed_form_energy,
    energy_from_roots,
    poly_from_roots,
    residual_scale,
    root_scale,
    solve_sector,
    solve_sectors,
)
from spinboson.cli import main
from spinboson.config import DEFAULT_TOLS
from spinboson.linalg import ConvergenceError, jacobi_eigen, polynomial_roots
from spinboson.model import (
    SECTOR_CACHE_SIZE,
    ModelSpec,
    ReferenceState,
    enumerate_sectors,
    sector_from_reference,
)
from spinboson.operators import (
    apply_to_monomials,
    build_hamiltonian_operator,
    extract_polynomials,
    monomial_action,
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
    the row stopped.  It stops when the step test holds, or at the second of
    two successive iterates after the start whose every |p(z)| is within
    sqrt(2n) u sum |c_k||z|^k, u = eps / 2 (a non-finite bound never is); a
    row still moving after max_iter steps returns its last iterate."""
    deg = c.size - 1
    dc = c[1:] * np.arange(1, deg + 1)
    unit = np.sqrt(2 * deg) * np.finfo(float).eps / 2.0
    was_within = False
    for i in range(max_iter):
        pz = poly_eval(c, z)
        bound = unit * poly_eval(np.abs(c), np.abs(z))
        within = bool(np.all((np.abs(pz) <= bound) & np.isfinite(bound)))
        if within and was_within:
            return z, True
        was_within = within and i > 0
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
    return z, False


def companion_eigvals(c):
    """The eigenvalues of numpy.roots' companion matrix of the ascending row
    c, in c's arithmetic; a zero constant term stays in and gives an exact
    zero root."""
    deg = c.size - 1
    comp = np.diag(np.ones(deg - 1, dtype=c.dtype), -1)
    comp[0] = -c[deg - 1 :: -1] / c[deg]
    return np.linalg.eigvals(comp).astype(complex)


def roots_reference(coeffs, tol=TOLS.roots, max_iter=200):
    """One real polynomial: companion start in real arithmetic, then the 1-D
    Aberth loop; a row whose steps do not settle starts again from the
    companion in complex arithmetic, unless its first step left the float
    range."""
    c = np.asarray(coeffs, dtype=float)
    start = companion_eigvals(c)
    z, settled = aberth_reference(c.astype(complex), start, tol, max_iter)
    first = aberth_reference(c.astype(complex), start, tol, 1)[0]
    if not settled and np.isfinite(first).all():
        z, _ = aberth_reference(c.astype(complex),
                                companion_eigvals(c.astype(complex)), tol, max_iter)
    order = np.lexsort((z.imag, z.real))
    return z[order]


def min_root_distance(roots):
    """Smallest pairwise distance of one root set (inf below two roots)."""
    gaps = np.abs(roots[:, None] - roots[None, :])
    gaps[np.diag_indices(roots.size)] = np.inf
    return float(gaps.min(initial=np.inf))


def scaled_residual_reference(model, sector, roots, polys):
    if min_root_distance(roots) <= TOLS.cluster * root_scale(roots):
        return np.full(roots.size, np.nan, dtype=complex), float("inf")
    res = bae_residuals(model, sector, roots, polys)
    return res, float(np.max(np.abs(res))) / residual_scale(polys, roots)


def polish(roots, polys):
    """The Newton polish from roots, to the tolerance of their residual scale."""
    return bethe._polish_roots(roots, polys, residual_scale(polys, roots), TOLS)


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
        polished = polish(roots, polys)
        if polished is not None:
            cand_res, cand_scaled = scaled_residual_reference(
                model, sector, polished, polys)
            if cand_scaled <= scaled and pinned(polished):
                roots, residuals, scaled, refined = polished, cand_res, cand_scaled, True
                ok = verified(roots)

    degenerate = bool(min_root_distance(roots) <= TOLS.bae_guard * root_scale(roots))
    if not np.all(np.isfinite(residuals.view(float))):
        degenerate, scaled = True, float("nan")
    return BetheState(sector, index, roots, float(value), residuals, scaled,
                      degenerate, ok, refined=refined)


def sector_inputs(model, sector):
    values = jacobi_eigen(sector_matrices(model, sector).H, TOLS.eigen)
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
        assert np.array_equal(a.scaled_residual, b.scaled_residual, equal_nan=True)
        assert (a.verified, a.degenerate_roots, a.refined) == (
            b.verified, b.degenerate_roots, b.refined)


def compare_sector(model, sector):
    """Batch against the per-state reference; returns the reference states."""
    values, polys, mono = sector_inputs(model, sector)

    def per_state():
        return [state_reference(model, sector, values[i], i, polys, mono)
                for i in range(sector.dim)]

    def batch():
        roots, (unsettled,) = bethe._group_roots(mono[None], values[None], TOLS)
        if unsettled:
            raise ConvergenceError("a root row did not settle")
        return bethe._recover_states(model, [sector], values[None], roots,
                                     mono[None], [polys], TOLS)[0]

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
    Newton polish gave a candidate with a scaled residual no larger: the
    candidate's closed-form energy misses the state's eigenvalue."""
    _, polys, _ = sector_inputs(model, sector)
    out = []
    for st in states:
        residual = st.max_residual()
        if st.refined or not np.isfinite(residual) or (
                st.verified
                and residual <= 1e-2 * TOLS.bae * residual_scale(polys, st.roots)):
            continue
        cand = polish(st.roots, polys)
        if cand is None:
            continue
        cand_scaled = scaled_residual_reference(model, sector, cand, polys)[1]
        own_scaled = scaled_residual_reference(model, sector, st.roots, polys)[1]
        energy = closed_form_energy(model, sector, complex(np.sum(cand)))
        if (cand_scaled <= own_scaled
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
    return roots_reference(c.real)


@pytest.mark.parametrize("deg", [0, 1, 2, 3, 7, 12, 24])
def test_stacked_roots_equal_row_calls(deg):
    rng = np.random.default_rng(deg)
    rows = random_rows(rng, 9, deg)
    zeros = np.zeros(9, dtype=int)
    if deg >= 1:
        rows[2, 0] = 0.0       # the companion gives this row a zero root
        zeros[2] = 1
    if deg >= 2:
        rows[5, :2] = 0.0      # and this row a double zero root
        zeros[5] = 2
        # (z - 1)^2 times a random monic: a cluster
        rows[7] = np.convolve([1.0, -2.0, 1.0], random_rows(rng, 1, deg - 2)[0])
    stacked, unsettled = linalg._root_stack(rows, TOLS.roots)
    assert stacked.shape == (9, deg) and stacked.dtype == complex
    assert not unsettled.any()
    for i, row in enumerate(rows):
        single = polynomial_roots(row)
        assert single.shape == (deg,) and single.dtype == complex
        assert np.array_equal(stacked[i], single)
        assert np.array_equal(single, row_roots_reference(row))
        # a zero constant term gives exact zero roots
        assert np.count_nonzero(single == 0.0) == zeros[i]
        # trailing zeros of a 1-D call are dropped first
        padded = np.concatenate([row, np.zeros(2)])
        assert np.array_equal(polynomial_roots(padded), single)


def test_each_row_starts_from_its_own_companion():
    # every row shares one real companion eigensolve, yet a row's start and
    # roots depend on that row alone, not on its neighbours
    rng = np.random.default_rng(11)
    deg = 6
    rows = random_rows(rng, 8, deg)
    rows[[2, 4], 0] = 0.0      # zero constant terms stay in the companion
    start = linalg._companion_start(rows)
    stacked = linalg._root_stack(rows, TOLS.roots)[0]
    for i, row in enumerate(rows):
        comp = np.zeros((deg, deg))
        comp[np.arange(1, deg), np.arange(deg - 1)] = 1.0
        comp[0] = -row[deg - 1 :: -1] / row[deg]
        assert np.array_equal(start[i], np.linalg.eigvals(comp))
        assert np.array_equal(start[i], linalg._companion_start(row[None])[0])
        assert np.array_equal(stacked[i], polynomial_roots(row))


def test_a_non_finite_row_dies_alone():
    # a row whose companion is not finite starts at NaN and dies at its
    # first step, without a second start; the other rows get the roots of
    # their one-row calls, and no floating-point warning leaves the stack
    rows = random_rows(np.random.default_rng(12), 6, 7)
    rows[1, 3] = np.nan
    rows[4, 0] = np.inf
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        stacked, unsettled = linalg._root_stack(rows, TOLS.roots)
    assert unsettled.tolist() == [False, True, False, False, True, False]
    for i in (0, 2, 3, 5):
        assert np.array_equal(stacked[i], polynomial_roots(rows[i]))


def test_a_row_that_leaves_the_float_range_late_starts_again():
    # three twisted rows of the largest bose_hubbard j = 60 sector of
    # random_params rng 2 leave the float range a few steps after the real
    # start; unlike a row whose first step does, they start again from the
    # complex eigensolve, and settle there
    j = 60
    model = model_for_j("bose_hubbard",
                        random_params("bose_hubbard", np.random.default_rng(2)), j)
    sec = sector_from_reference(model, Fraction(j), ReferenceState(Fraction(-j)))
    values = jacobi_eigen(sector_matrices(model, sec).H)
    with np.errstate(over="ignore"):
        rows = bethe._twisted_coeffs(monomial_action(model, sec)[0][: sec.dim],
                                     values)[[70, 81, 120]]
    both = np.zeros((2,) + rows.shape, dtype=complex)
    both[0] = rows
    both[1, :, :-1] = rows[:, 1:] * np.arange(1, rows.shape[1])
    with np.errstate(over="ignore", invalid="ignore"):
        res = linalg._aberth_steps(both, linalg._companion_start(rows), TOLS.roots)[1]
    assert (res == np.finfo(float).max).all()
    assert not linalg._root_stack(rows, TOLS.roots)[1].any()


def test_a_real_row_held_on_the_real_axis_starts_again(monkeypatch):
    # (z - 2)(z^2 + 1): from real starting roots a real row's Aberth steps
    # stay real and cannot reach the pair -i, i; the row starts again from
    # the complex eigensolve
    row = np.array([-2.0, 1.0, -2.0, 1.0])
    real_start = np.array([[-0.5, 0.5, 2.5]], dtype=complex)
    both = np.array([[row], [[1.0, -4.0, 3.0, 0.0]]], dtype=complex)
    assert linalg._aberth_steps(both, real_start.copy(), TOLS.roots)[1] is not None

    companion_start = linalg._companion_start

    def start(c):
        return real_start.copy() if c.dtype == float else companion_start(c)

    monkeypatch.setattr(linalg, "_companion_start", start)
    roots = polynomial_roots(row)
    assert np.abs(roots[:, None] - np.array([-1j, 1j, 2.0])).min(axis=0).max() <= 1e-14


def test_stacked_roots_low_degree_and_rejects_mixed_degrees():
    rows = np.array([[6.0, -2.0], [1.0, 4.0]], dtype=complex)
    stacked, unsettled = linalg._root_stack(rows, TOLS.roots)
    assert np.array_equal(stacked, [[3.0], [-0.25]]) and not unsettled.any()
    # stacks reach only the core, which the solver gives monic rows;
    # polynomial_roots takes one row
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
    stacked, scaled, scales, _, zscale = bethe._scaled_bae_residuals(
        roots, [polys], TOLS.cluster)
    assert stacked.shape == roots.shape
    for row, res, row_scaled, row_zscale, scale in zip(
            roots, stacked, scaled, zscale, scales):
        assert np.array_equal(res, bae_residuals(model, sec, row, polys))
        assert scale == residual_scale(polys, row)
        assert row_scaled == np.abs(res).max() / scale
        assert row_zscale == root_scale(row)
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
# the sectors of one dimension solved together
# ---------------------------------------------------------------------------

def assert_bitwise_states(got, want):
    """The same states in the same order, every float bit for bit (NaN too)."""
    assert len(got) == len(want)
    for a, b in zip(got, want):
        assert (a.sector, a.eigen_index) == (b.sector, b.eigen_index)
        assert np.float64(a.energy).tobytes() == np.float64(b.energy).tobytes()
        assert a.roots.dtype == b.roots.dtype and a.roots.shape == b.roots.shape
        assert a.roots.tobytes() == b.roots.tobytes()
        assert a.bae_residuals.shape == b.bae_residuals.shape
        assert a.bae_residuals.tobytes() == b.bae_residuals.tobytes()
        assert (a.verified, a.degenerate_roots, a.refined) == (
            b.verified, b.degenerate_roots, b.refined)


def decoupled(name, params):
    # the rotor's g is (a - b) / 4
    return ({**params, "a": params["b"]} if name == "rigid_rotor"
            else {**params, "g": 0.0})


@pytest.mark.parametrize("refine", [False, True], ids=["plain", "refine"])
@pytest.mark.parametrize("name", PRESET_NAMES)
def test_stacked_sectors_equal_sector_calls(name, refine):
    # random models at 2j <= 12 with at most 8 bosons, and their g = 0
    # twins: every sector of solve_sectors is solve_sector's, bit for bit
    rng = np.random.default_rng(PRESET_NAMES.index(name))
    seen = set()
    for two_j, max_bosons in ((1, 8), (4, 3), (7, 5), (12, 8)):
        params = random_params(name, rng)
        j = Fraction(two_j, 2)
        for coupled in (True, False):
            model = model_for_j(name, params if coupled else decoupled(name, params), j)
            sectors = enumerate_sectors(model, j, max_bosons)
            solved = solve_sectors(model, sectors, refine=refine)
            assert len(solved) == len(sectors)
            for sec, states in zip(sectors, solved):
                assert_bitwise_states(states, solve_sector(model, sec, refine=refine))
            seen.add("coupled" if coupled else "g = 0")
            dims = [sec.dim for sec in sectors]
            if coupled and any(dims.count(d) > 1 for d in dims):
                seen.add("stacked group")
    assert {"coupled", "g = 0"} <= seen
    assert model.M == 0 or "stacked group" in seen


@pytest.mark.parametrize("model, j, max_bosons", [
    (model_for_j("two_mode_tc", random_params("two_mode_tc", np.random.default_rng(0)),
                 Fraction(1, 2)), Fraction(1, 2), 4),
    (ModelSpec(M=2, r=2, s=2, k=(3, 2), w=(0.7, -1.1), g_prime=0.9, g=0.5),
     Fraction(3), 6),
], ids=["two_mode_tc", "k=(3,2)"])
def test_a_dimension_is_one_pass_whatever_its_p_d_sizes(monkeypatch, model, j,
                                                        max_bosons):
    # the sectors of one dimension whose P_d differ in size (some lack a
    # P_i) share one eigensolve and one _recover_states, and each still
    # equals solve_sector on that sector alone, bit for bit
    sectors = enumerate_sectors(model, j, max_bosons)
    alone = [solve_sector(model, sec) for sec in sectors]
    counts = Counter(sec.dim for sec in sectors)
    sizes = {(sec.dim, tuple(p.size for p in monomial_action(model, sec)[1]))
             for sec in sectors}
    assert any(Counter(dim for dim, _ in sizes)[dim] > 1 for dim in counts if dim > 1)
    eigen, recover = [], []
    inner_eigen, inner_recover = bethe._eigen_stack, bethe._recover_states

    def eigen_stack(a, tol):
        eigen.append(a.shape)
        return inner_eigen(a, tol)

    def recover_states(mdl, secs, *args):
        recover.append((secs[0].dim, len(secs)))
        return inner_recover(mdl, secs, *args)

    monkeypatch.setattr(bethe, "_eigen_stack", eigen_stack)
    monkeypatch.setattr(bethe, "_recover_states", recover_states)
    solved = solve_sectors(model, sectors)
    assert sorted(eigen) == sorted((n, dim, dim) for dim, n in counts.items())
    assert sorted(recover) == sorted((dim, n) for dim, n in counts.items() if dim > 1)
    for states, want in zip(solved, alone):
        assert_bitwise_states(states, want)


def test_stacked_sectors_keep_the_given_order():
    model = model_for_j("two_mode_tc", random_params("two_mode_tc",
                                                     np.random.default_rng(4)), 3)
    sectors = enumerate_sectors(model, Fraction(3), 6)
    dims = [sec.dim for sec in sectors]
    assert 1 in dims and max(dims.count(d) for d in dims if d > 1) > 2
    shuffled = [sectors[i] for i in np.random.default_rng(5).permutation(len(sectors))]
    for sec, states in zip(shuffled, solve_sectors(model, shuffled)):
        assert all(st.sector == sec for st in states)
        assert_bitwise_states(states, solve_sector(model, sec))
    assert solve_sectors(model, []) == []


def first_failure(fn):
    """The type and message of what fn raises."""
    with pytest.raises(Exception) as info:
        fn()
    return type(info.value), str(info.value)


def test_stacked_sectors_raise_what_the_first_failing_sector_raises(capsys):
    # with a zero eigenvalue tolerance every sector with an off-diagonal
    # entry misses the trace or norm identity by roundoff; solve_sectors
    # raises what the first of them, in the given order, raises alone, and
    # the CLI still exits 3 with that message
    params = random_params("two_mode_tc", np.random.default_rng(6))
    model = model_for_j("two_mode_tc", params, 3)
    sectors = enumerate_sectors(model, Fraction(3), 4)
    tols = replace(TOLS, eigen=1e-300)
    alone = []
    for sec in sectors:
        try:
            solve_sector(model, sec, tols=tols)
        except ConvergenceError as exc:
            alone.append((type(exc), str(exc)))
    assert alone
    assert first_failure(lambda: solve_sectors(model, sectors, tols=tols)) == alone[0]
    argv = ["spectrum", "--preset", "two_mode_tc", "--j", "3", "--max-bosons", "4",
            "--tol-eigen", "1e-300"]
    argv += [f"--param={key}={value!r}" for key, value in params.items()]
    assert main(argv) == 3
    out, err = capsys.readouterr()
    assert (out, err) == ("", f"numerical failure: {alone[0][1]}\n")


def test_stacked_sectors_report_the_first_failure_in_the_given_order(monkeypatch):
    # two sectors fail, each with its own error; the one given first is
    # reported even when its dimension is solved after the other's
    model = model_for_j("two_mode_tc", random_params("two_mode_tc",
                                                     np.random.default_rng(7)), 2)
    sectors = enumerate_sectors(model, Fraction(2), 4)
    by_dim = {}
    for sec in sectors:
        by_dim.setdefault(sec.dim, []).append(sec)
    big, small = sorted((d for d in by_dim if len(by_dim[d]) > 1), reverse=True)[:2]
    # the small dimension is met first; the failing big sector comes first
    order = [by_dim[small][0], by_dim[big][-1], by_dim[small][-1], by_dim[big][0]]
    failing = {order[1]: OverflowError("big"), order[2]: ArithmeticError("small")}
    inner = bethe.monomial_action

    def action(mdl, sec):
        if sec in failing:
            raise failing[sec]
        return inner(mdl, sec)

    monkeypatch.setattr(bethe, "monomial_action", action)
    assert first_failure(lambda: solve_sectors(model, order)) == (OverflowError, "big")
    assert first_failure(lambda: solve_sector(model, order[2])) == (
        ArithmeticError, "small")
    assert first_failure(lambda: solve_sectors(model, order[2:])) == (
        ArithmeticError, "small")


# the couplings of the two_mode_tc request that CI runs with --tol-eigen 1e-300
TC_PARAMS = {"w1": 0.9, "w2": 1.3, "g_prime": 0.4, "g": 0.6}


def unsettle_aberth_rows(monkeypatch):
    """Make the solver's root finder report every row of degree >= 2, each
    row that goes through the Aberth iteration, as unsettled: every sector
    of dimension >= 3 then fails at the root stage."""
    inner = bethe._root_stack

    def root_stack(c, tol):
        roots, unsettled = inner(c, tol)
        return roots, unsettled | (c.shape[1] > 2)

    monkeypatch.setattr(bethe, "_root_stack", root_stack)


def test_a_root_tolerance_below_roundoff_still_settles(capsys):
    # every row stops at roundoff, whatever the step test asks; the roots
    # may move within their rounding error, the energies and flags do not
    argv = ["spectrum", "--preset", "two_mode_tc", "--j", "3", "--max-bosons", "4",
            "--format", "json"]
    argv += [f"--param={key}={value!r}" for key, value in TC_PARAMS.items()]
    reports = []
    for extra in ([], ["--tol-roots", "1e-300"]):
        assert main(argv + extra) == 0
        reports.append(json.loads(capsys.readouterr().out)["sectors"])
    flags = ("E", "verified", "degenerate_roots", "refined")
    default, tight = ([(entry["labels"], [[st[key] for key in flags]
                                          for st in entry["states"]])
                       for entry in report] for report in reports)
    assert tight == default
    assert sum(len(states) for _, states in default) == 294


def test_a_root_cluster_is_not_stopped_while_it_converges():
    # the top state of this sector (an acceptance sweep draw) has twelve
    # roots between 0.028 and 0.041 that its coefficients cannot separate;
    # its Aberth iterates meet Horner's worst-case bound, gamma_2n sum
    # |c_k||z|^k, two steps after the start, where the Newton polish stalls
    # and the state would come back unverified with a complex root sum
    model = model_for_j("tavis_cummings", {"w": -1.4170222858705828,
                                           "g_prime": 1.863411732402761,
                                           "g": -0.10980871723563715}, 6)
    (sec,) = [s for s in enumerate_sectors(
        model, Fraction(6), DEFAULT_GRIDS["tavis_cummings"].max_total_bosons)
        if s.dim == 13 and s.kappa == 5]
    for st in solve_sector(model, sec):
        total = st.roots.sum()
        assert st.verified and abs(total.imag) <= 1e-9 * max(abs(total), 1.0)


def test_stacked_sectors_raise_the_first_root_failure(monkeypatch, capsys):
    # no Aberth row settles; solve_sectors raises what the first failing
    # sector, in the given order, raises alone, and the CLI exits 3 with
    # that message
    unsettle_aberth_rows(monkeypatch)
    model = model_for_j("two_mode_tc", TC_PARAMS, 3)
    sectors = enumerate_sectors(model, Fraction(3), 4)
    alone = []
    for sec in sectors:
        try:
            solve_sector(model, sec)
        except ConvergenceError as exc:
            alone.append((type(exc), str(exc)))
    assert alone and alone[0][1] == "Aberth-Ehrlich iteration did not converge"
    assert first_failure(lambda: solve_sectors(model, sectors)) == alone[0]
    argv = ["spectrum", "--preset", "two_mode_tc", "--j", "3", "--max-bosons", "4"]
    argv += [f"--param={key}={value!r}" for key, value in TC_PARAMS.items()]
    assert main(argv) == 3
    out, err = capsys.readouterr()
    assert (out, err) == ("", f"numerical failure: {alone[0][1]}\n")


def test_stacked_sectors_raise_the_first_failure_whatever_its_stage(monkeypatch):
    # two sectors of one dimension: the one given first fails at the root
    # stage, the one given after it already when its action is built; the
    # error of the one given first is raised
    unsettle_aberth_rows(monkeypatch)
    model = model_for_j("two_mode_tc", TC_PARAMS, 3)
    late, early = [sec for sec in enumerate_sectors(model, Fraction(3), 4)
                   if sec.dim == 4][:2]
    inner = bethe.monomial_action

    def action(mdl, sec):
        if sec == early:
            raise OverflowError("setup")
        return inner(mdl, sec)

    monkeypatch.setattr(bethe, "monomial_action", action)
    roots_error = first_failure(lambda: solve_sector(model, late))
    assert roots_error == (ConvergenceError, "Aberth-Ehrlich iteration did not converge")
    assert first_failure(lambda: solve_sectors(model, [late, early])) == roots_error
    assert first_failure(lambda: solve_sectors(model, [early, late])) == (
        OverflowError, "setup")


@pytest.mark.parametrize("stage", ["eigen", "roots"])
def test_a_failing_request_solves_each_sector_at_most_once(monkeypatch, stage):
    # the sectors that reach the solve, whether alone or in a group, on a
    # request whose sectors fail at the eigensolve or at the root stage
    model = model_for_j("two_mode_tc", TC_PARAMS, 3)
    sectors = enumerate_sectors(model, Fraction(3), 4)
    tols = TOLS
    if stage == "eigen":
        tols = replace(TOLS, eigen=1e-300)
    else:
        unsettle_aberth_rows(monkeypatch)
    reached = []
    inner = bethe._solve_group

    def group(mdl, secs, *args):
        reached.extend(secs)
        return inner(mdl, secs, *args)

    monkeypatch.setattr(bethe, "_solve_group", group)
    with pytest.raises(ConvergenceError):
        solve_sectors(model, sectors, tols=tols)
    assert reached and len(set(reached)) == len(reached)
    # the sectors after the first failing one in the given order are only
    # solved when their dimension's group came first
    first = next(i for i, sec in enumerate(sectors)
                 if outcome(lambda: solve_sector(model, sec, tols=tols))
                 is ConvergenceError)
    assert sectors[first] in reached
    assert len(reached) < len(sectors)


def swept_tc(blocks=None):
    """The _Swept items of every sector of a tavis_cummings j = 2 model (one
    sector of each dimension 1 to 4, seven of dimension 5), each with its
    Fock block unless blocks maps its sector to another."""
    j = Fraction(2)
    model = model_for_j("tavis_cummings",
                        random_params("tavis_cummings", np.random.default_rng(1)), j)
    sectors = enumerate_sectors(model, j, 6)
    oracle = {blk.labels: blk
              for blk in fock_oracle(model, j, verify._oracle_cap(model, sectors))}
    oracle.update(blocks or {})
    return [verify._Swept("tc", j, model, sec, solve_sector(model, sec),
                          monomial_action(model, sec)[0], oracle[sec])
            for sec in sectors]


def record_eigen_stacks(monkeypatch):
    """The stacks verify._eigen_stack is called with, from now on."""
    calls = []
    inner = verify._eigen_stack

    def stack(a, tol):
        calls.append(a)
        return inner(a, tol)

    monkeypatch.setattr(verify, "_eigen_stack", stack)
    return calls


def test_swept_fock_blocks_report_each_failing_matrix(monkeypatch):
    # the patched eigenvalues of a Fock block whose corner exceeds 5 miss
    # its trace: one eigensolve per dimension, each failing block's sector
    # gets the error of a jacobi_eigen call with that block alone, and every
    # other sector gets what the unpatched check gives it
    swept = swept_tc()
    clean = verify._check_swept(swept, TOLS)

    def shifted(m):
        values = np.linalg.eigvalsh(m)
        corner = m[..., 0, 0]
        values[..., -1] += 1e-6 * np.where(corner > 5.0, corner, 0.0)
        return values

    monkeypatch.setattr(linalg, "eigvalsh", shifted)
    calls = record_eigen_stacks(monkeypatch)
    out = verify._check_swept(swept, TOLS)
    assert sorted(a.shape for a in calls) == [
        (1, 1, 1), (1, 2, 2), (1, 3, 3), (1, 4, 4), (7, 5, 5)]
    failing = [item.block.H[0, 0] > 5.0 for item in swept]
    assert sum(failing) == 5
    for item, fails, got, want in zip(swept, failing, out, clean):
        if not fails:
            assert got == want and got[0] is None
            continue
        with pytest.raises(ConvergenceError) as alone:
            jacobi_eigen(item.block.H, TOLS.eigen)
        assert (type(got[0]), str(got[0])) == (ConvergenceError, str(alone.value))
    assert len({str(got[0]) for got, fails in zip(out, failing) if fails}) == 5


def test_a_fock_block_of_another_size_deviates_by_inf(monkeypatch):
    # a Fock block whose size is not its sector's dimension has a spectrum
    # of another size: its sector's deviation is inf without an eigensolve,
    # and the other sectors of that dimension keep their values
    clean_swept = swept_tc()
    clean = verify._check_swept(clean_swept, TOLS)
    g = next(g for g, item in enumerate(clean_swept) if item.sector.dim == 5)
    sec, block = clean_swept[g].sector, clean_swept[g].block
    wrong = replace(block, H=2.0 * block.H[:-1, :-1])
    swept = swept_tc({sec: wrong})
    calls = record_eigen_stacks(monkeypatch)
    out = verify._check_swept(swept, TOLS)
    assert not any(np.array_equal(m, wrong.H) for a in calls for m in a)
    assert sorted(a.shape for a in calls) == [
        (1, 1, 1), (1, 2, 2), (1, 3, 3), (1, 4, 4), (6, 5, 5)]
    assert out[g][1] == np.inf and out[g][0] is None
    assert out[g][2:] == clean[g][2:]
    assert out[:g] + out[g + 1:] == clean[:g] + clean[g + 1:]

    # the sweep reports it as one match: line and a worst deviation of inf
    inner = verify.fock_oracle
    changed = []

    def oracle(model, j, cap):
        blocks = inner(model, j, cap)
        for i, blk in enumerate(blocks):
            if not changed and blk.labels.dim >= 2:
                blocks[i] = replace(blk, H=blk.H[:-1, :-1])
                changed.append((j, blk.labels))
        return blocks

    monkeypatch.setattr(verify, "fock_oracle", oracle)
    data = verify._sweep_presets(3, 1, TOLS)
    assert data["worst_match"] == np.inf
    (j, labels), = changed
    assert [f for f in data["failures"] if f.startswith("match:")] == [
        f"match: {PRESET_NAMES[0]} j={j} sector p={labels.p}: dev inf"]


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
        cand = polish(st.roots, polys)
        eigen_ok = bethe._verify_eigen_equation(
            mono, poly_from_roots(cand[None]), np.array([st.energy]), TOLS.match)[0]
        if eigen_ok and min_root_distance(cand) > TOLS.bae_guard * root_scale(cand):
            caught.append(i)
        assert not st.verified and not np.array_equal(st.roots, cand)
    assert caught

    # refine polishes every state under the same rule: nothing raises, no
    # refined state misses the pin, and each state's flag is that of the
    # roots it kept
    refined = solve_sector(model, sec, refine=True)
    roots = np.array([st.roots for st in refined])
    energies = np.array([st.energy for st in refined])
    assert energies.tolist() == [st.energy for st in states]
    pinned = bethe._pinned(model, [sec], roots[None], energies[None], TOLS)[0]
    assert all(pin for st, pin in zip(refined, pinned) if st.refined)
    assert ([st.verified for st in refined]
            == bethe._verified(model, [sec], roots[None], energies[None],
                               mono[None], TOLS)[0].tolist())


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


def energies_core(model, sec, roots, mono):
    """The energies and the error message of _energies_from_roots for the
    root sets of one sector."""
    energies, (error,) = bethe._energies_from_roots(
        [model], [sec], roots[None], mono[None, sec.n_top], TOLS)
    return energies[0], error


def first_row_error(model, sec, roots, mono):
    """The message energy_from_roots raises for the first failing root set."""
    for row in roots:
        try:
            energy_from_roots(model, sec, row, mono=mono)
        except ValueError as exc:
            return str(exc)
    return None


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
                    stacked, error = energies_core(model, sec, roots, mono)
                    assert stacked.shape == (sec.dim,) and stacked.dtype == float
                    assert error is None
                    rows = [energy_from_roots(model, sec, r, mono=mono) for r in roots]
                    assert all(type(e) is float for e in rows)
                    want = [energy_reference(model, sec, r, mono) for r in roots]
                    assert np.array_equal(stacked, rows)
                    assert np.array_equal(stacked, want)
                    assert np.array_equal(
                        [energy_from_roots(model, sec, r) for r in roots], stacked)
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
    energies, error = energies_core(model, sec, roots, mono)
    assert error == first_row_error(model, sec, roots, mono) == want
    # the rows before the failure pass, with the row calls' energies
    assert np.array_equal(energies[:2],
                          [energy_reference(model, sec, r, mono) for r in roots[:2]])


def test_stacked_energy_checks_the_root_count():
    params = random_params("lmg", np.random.default_rng(2))
    model = model_for_j("lmg", params, 3)
    sec = largest_sector(model, 3)
    with pytest.raises(ValueError, match=f"expected {sec.n_top} roots, got 2"):
        energy_from_roots(model, sec, np.zeros(2))
    # a stack of root sets reaches only the core
    with pytest.raises(ValueError, match="one root set"):
        energy_from_roots(model, sec, np.zeros((2, sec.n_top)))


def test_a_failing_polish_keeps_the_recovered_roots(monkeypatch):
    # dim 33: unpatched, 11 states keep polished roots and 31 verify; with
    # every Newton polish failing, no state is refined, 20 verify, each
    # state that was not refined is the same bit for bit, and refine
    # changes nothing
    model = model_for_j("tavis_cummings",
                        random_params("tavis_cummings", np.random.default_rng(3000)),
                        16)
    sec = largest_sector(model, 16)
    states = solve_sector(model, sec)
    assert (sec.dim, sum(st.refined for st in states),
            sum(st.verified for st in states)) == (33, 11, 31)

    def fail(*args, **kwargs):
        raise ConvergenceError("line search found no decrease")

    monkeypatch.setattr(bethe, "newton_solve", fail)
    unpolished = solve_sector(model, sec)
    assert not any(st.refined for st in unpolished)
    assert sum(st.verified for st in unpolished) == 20
    assert_same_states([st for st, was in zip(unpolished, states) if not was.refined],
                       [st for st in states if not st.refined])
    assert_same_states(solve_sector(model, sec, refine=True), unpolished)


# ---------------------------------------------------------------------------
# the acceptance sweep against its per-sector checking loop
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
                    fock_eig = jacobi_eigen(block.H, tols.eigen)
                    dev = max(verify.multiset_close(energies, sector_eig),
                              verify.multiset_close(energies, fock_eig))
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
    # the largest level-0 occupation k_i (A_i + q_i - 1/k_i^2) of any sector,
    # over the sweep's grids and over more sectors than the sector_levels
    # cache holds
    def want(model, sectors):
        return max((int(ki * (ai + qi - Fraction(1, ki * ki)))
                    for sec in sectors
                    for ki, qi, ai in zip(model.k, sec.q, sec.A)), default=0)

    rng = np.random.default_rng(3)
    for name in PRESET_NAMES:
        grid = DEFAULT_GRIDS[name]
        params = random_params(name, rng)
        for j in grid.j_values:
            model = model_for_j(name, params, j)
            sectors = enumerate_sectors(model, j, grid.max_total_bosons)
            assert verify._oracle_cap(model, sectors) == want(model, sectors)
            assert verify._oracle_cap(model, []) == 0
    model = model_for_j("two_mode_tc", {"w1": 0.9, "w2": 1.3, "g_prime": 0.4,
                                        "g": 0.6}, Fraction(6))
    sectors = enumerate_sectors(model, Fraction(6), 30)
    assert len(sectors) == 1228 > SECTOR_CACHE_SIZE
    assert verify._oracle_cap(model, sectors) == want(model, sectors)


@pytest.mark.parametrize("seed, n_draws", [
    pytest.param(686310523, 1, id="686310523"),
    pytest.param(101, 1, id="101"),
    pytest.param(20240817, 1, id="20240817"),
    # the checks group sectors across draws
    pytest.param(5, 3, id="5-three-draws"),
])
def test_sweep_equals_the_per_state_loop(seed, n_draws):
    got = verify._sweep_presets(seed, n_draws, TOLS)
    want = sweep_reference(seed, n_draws, TOLS)
    assert got == want
    assert [type(got[key]) for key in sorted(got)] == [
        type(want[key]) for key in sorted(want)]


def sweep_sectors(seed, n_draws):
    """The (model, sector) pairs of the acceptance sweep, in sweep order."""
    rng = np.random.default_rng(seed)
    out = []
    for name in PRESET_NAMES:
        grid = DEFAULT_GRIDS[name]
        for _ in range(n_draws):
            params = random_params(name, rng)
            for j in grid.j_values:
                model = model_for_j(name, params, j)
                out += [(model, sec)
                        for sec in enumerate_sectors(model, j, grid.max_total_bosons)
                        if sec.n_top <= verify.N_TOP_LIMIT]
    return out


def test_sweep_solves_and_checks_each_sector_once(monkeypatch):
    # one solve_sector call per sector, through verify's name and in sweep
    # order (the benchmark captures the states there), and one stacked
    # energy cross-check per sector dimension
    solved = []
    checked = []
    inner_solve = verify.solve_sector
    inner_check = verify._energies_from_roots

    def solve(model, sector, *args, **kwargs):
        solved.append((model, sector))
        return inner_solve(model, sector, *args, **kwargs)

    def check(models, sectors, *args):
        checked.append([sec.dim for sec in sectors])
        return inner_check(models, sectors, *args)

    monkeypatch.setattr(verify, "solve_sector", solve)
    monkeypatch.setattr(verify, "_energies_from_roots", check)
    monkeypatch.setattr(verify, "energy_from_roots", None)
    data = verify._sweep_presets(7, 2, TOLS)
    want = sweep_sectors(7, 2)
    assert data["n_sectors"] == len(want) > 400
    assert solved == want
    dims = [dims[0] for dims in checked]
    assert sorted(dims) == sorted({sec.dim for _, sec in want})
    assert all(set(dims) == {dim} for dims, dim in zip(checked, dims))
    assert sum(map(len, checked)) == len(want)


def test_sweep_raises_the_first_failing_sector_in_sweep_order(monkeypatch):
    # two sectors fail the energy cross-check; the one met first in the
    # sweep raises, although the other's dimension is checked first
    sectors = sweep_sectors(3, 1)
    first_dim = sectors[0][1].dim
    early = next(i for i, (_, sec) in enumerate(sectors) if sec.dim != first_dim)
    late = next(i for i, (_, sec) in enumerate(sectors)
                if i > early and sec.dim == first_dim and sec.n_top == 0)
    failing = {sectors[early], sectors[late]}
    inner = verify.monomial_action

    def action(model, sector):
        mono, polys = inner(model, sector)
        if (model, sector) in failing:
            mono = mono.copy()
            mono[sector.n_top, sector.n_top] += 1.0
        return mono, polys

    monkeypatch.setattr(verify, "monomial_action", action)
    alone = []
    for model, sec in (sectors[early], sectors[late]):
        roots = np.array([st.roots for st in solve_sector(model, sec)])
        alone.append(first_row_error(model, sec, roots, action(model, sec)[0]))
    assert alone[0] != alone[1]
    assert first_error(lambda: verify._sweep_presets(3, 1, TOLS)) == alone[0]


def test_sweep_certificate_verdicts():
    # each non-degenerate state is judged by the scaled residual it
    # carries: above tols.bae it fails, in state order, NaN is skipped, a
    # degenerate state is not judged, and a dim-1 sector has no certificate
    j = Fraction(2)
    model = model_for_j("tavis_cummings",
                        random_params("tavis_cummings", np.random.default_rng(1)), j)
    sectors = enumerate_sectors(model, j, 6)
    fives = [sec for sec in sectors if sec.dim == 5]
    one = next(sec for sec in sectors if sec.dim == 1)
    bae, nan = TOLS.bae, float("nan")
    chosen = {
        fives[0]: [(3 * bae, False), (nan, False), (10.0, True), (2 * bae, False),
                   (0.5 * bae, False)],
        one: [(1.0, False)],
        fives[1]: [(nan, False)] * 4 + [(1.0, True)],
    }
    swept = []
    for sec, certs in chosen.items():
        states = [replace(st, scaled_residual=cert, degenerate_roots=degenerate)
                  for st, (cert, degenerate) in zip(solve_sector(model, sec), certs)]
        swept.append(verify._Swept("tc", j, model, sec, states,
                                   monomial_action(model, sec)[0], None))
    (err_a, dev_a, live_a, worst_a, fail_a), one_out, b_out = verify._check_swept(
        swept, TOLS)
    states = swept[0].states
    assert (err_a, dev_a, live_a, worst_a) == (None, 0.0, 4, 3 * bae)
    assert type(worst_a) is float
    assert fail_a == [
        f"residual: tc j=2 p={fives[0].p} state {states[i].eigen_index}: "
        f"{value:.2e}" for i, value in ((0, 3 * bae), (3, 2 * bae))]
    assert one_out == (None, 0.0, 1, None, [])
    assert b_out == (None, 0.0, 4, None, [])


@pytest.mark.parametrize("verified", [False, True], ids=["unverified", "verified"])
def test_sweep_reports_a_root_sum_off_the_real_axis(monkeypatch, verified):
    # one state gets a root moved by 1e-3j; unverified, it is one
    # certificate failure line of its sector and every other count stays,
    # verified, the root-sum cross-check raises
    clean = verify._sweep_presets(3, 1, TOLS)
    inner = verify.solve_sector
    moved = []

    def solve(model, sector, *args, **kwargs):
        states = inner(model, sector, *args, **kwargs)
        if not moved and sector.n_top >= 2:
            st = states[1]
            roots = st.roots.copy()
            roots[0] += 1e-3j
            states[1] = replace(st, roots=roots, verified=verified)
            moved.append((sector, st.eigen_index))
        return states

    monkeypatch.setattr(verify, "solve_sector", solve)
    if verified:
        with pytest.raises(ValueError,
                           match="root sum has non-negligible imaginary part"):
            verify._sweep_presets(3, 1, TOLS)
        return
    data = verify._sweep_presets(3, 1, TOLS)
    (sector, index), = moved
    lines = [line for line in data["failures"] if line not in clean["failures"]]
    assert len(lines) == 1
    assert lines[0].startswith("residual: ")
    assert f"p={sector.p} state {index}: root sum " in lines[0]
    assert lines[0].endswith("is not real")
    assert not verify.check_bae_certificate(data).passed
    data["failures"].remove(lines[0])
    assert data == clean


def test_stacked_energy_core_equals_sector_calls():
    # sectors of one dimension from every preset, draw and j, stacked; each
    # root set gets energy_from_roots' energy bit for bit, and each sector
    # the error message of its first failing root set
    groups = {}
    for model, sec in sweep_sectors(11, 1):
        mono = monomial_action(model, sec)[0]
        roots = np.array([st.roots for st in solve_sector(model, sec)])
        groups.setdefault(sec.dim, []).append((model, sec, roots, mono))
    n_failing = 0
    for dim, items in groups.items():
        tops = np.array([mono[dim - 1] for *_, mono in items])
        # break the cross-check of two sectors of the group: their
        # coefficient ratio moves by one ([z^N] psi = 1)
        failing = [1, 2] if len(items) > 2 else []
        tops[failing, dim - 1] += 1.0
        energies, errors = bethe._energies_from_roots(
            [model for model, *_ in items], [sec for _, sec, *_ in items],
            np.array([roots for *_, roots, _ in items]), tops, TOLS)
        assert energies.shape == (len(items), dim) and energies.dtype == float
        for g, ((model, sec, roots, mono), row, error) in enumerate(
                zip(items, energies, errors)):
            assert np.array_equal(
                row, [energy_from_roots(model, sec, r, mono=mono) for r in roots])
            if g in failing:
                broken = mono.copy()
                broken[dim - 1] = tops[g]
                assert error == first_row_error(model, sec, roots, broken)
                n_failing += 1
            else:
                assert error is None
    assert n_failing >= 10
    assert max(groups) >= 10


def test_multiset_close_takes_rows():
    rng = np.random.default_rng(5)
    x = rng.standard_normal((6, 4)) * 3
    y = x[:, ::-1] + rng.standard_normal((6, 4)) * 1e-9
    rows = verify.multiset_close(x, y)
    assert rows.shape == (6,)
    assert rows.tolist() == [verify.multiset_close(a, b) for a, b in zip(x, y)]
    assert all(type(verify.multiset_close(a, b)) is float for a, b in zip(x, y))
    assert np.all(rows < 1e-8)
    assert verify.multiset_close(x, y[:, :3]).tolist() == [np.inf] * 6
    assert verify.multiset_close(np.zeros((3, 0)), np.zeros((3, 0))).tolist() == [0.0] * 3
    assert verify.multiset_close([1.0], [1.0, 2.0]) == np.inf
