"""Root recovery of a whole sector in one stacked pass.

The stacked routines must give every state exactly what a call with that
state alone gives.  The per-state assembly that the batch replaced is kept
here as the reference: it recovers, certifies and verifies one eigenpair at
a time from the 1-D calls.
"""

from fractions import Fraction

import numpy as np
import pytest

from spinboson import bethe
from spinboson.bethe import (
    BetheState,
    bae_residuals,
    min_root_distance,
    poly_from_roots,
    recover_roots,
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
from spinboson.representation import sector_matrices

TOLS = DEFAULT_TOLS


# ---------------------------------------------------------------------------
# per-state references
# ---------------------------------------------------------------------------

def roots_reference(coeffs, tol=TOLS.roots, max_iter=200):
    """One polynomial: numpy.roots start, then the 1-D Aberth loop."""
    c = np.asarray(coeffs, dtype=complex)
    deg = c.size - 1
    dc = c[1:] * np.arange(1, deg + 1)
    z = np.roots(c[::-1]).astype(complex)
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
            break
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


def state_reference(model, sector, mats, value, vector, index, polys, mono):
    """One eigenpair at a time, as the solver did before the batch."""
    n_top = sector.n_top
    coeffs = vector / mats.norm_scale
    top = coeffs[-1]
    if abs(top) <= 1e-12 * np.max(np.abs(coeffs)):
        raise RuntimeError("vanishing leading coefficient")
    roots = polynomial_roots(coeffs / top, TOLS.roots, cluster_rtol=TOLS.cluster).roots
    residuals, scaled = scaled_residual_reference(model, sector, roots, polys)

    refined = False
    trigger = 1e-2 * TOLS.bae
    if np.isfinite(scaled) and scaled > trigger:
        sq = mono[: n_top + 1, :]
        for direction in (+1, -1):
            cand = bethe._recurrence_coeffs(sq, float(value), direction)
            if not np.all(np.isfinite(cand)):
                continue
            cand_roots = polynomial_roots(cand, TOLS.roots,
                                          cluster_rtol=TOLS.cluster).roots
            cand_res, cand_scaled = scaled_residual_reference(
                model, sector, cand_roots, polys)
            if cand_scaled < scaled:
                roots, residuals, scaled = cand_roots, cand_res, cand_scaled
        if np.isfinite(scaled) and scaled > trigger:
            polished = bethe._polish_roots(model, sector, roots, polys, TOLS)
            if polished is not None:
                cand_res, cand_scaled = scaled_residual_reference(
                    model, sector, polished, polys)
                if cand_scaled < scaled:
                    roots, residuals, scaled = polished, cand_res, cand_scaled
                    refined = True

    degenerate = bool(min_root_distance(roots) <= TOLS.bae_guard * root_scale(roots))
    if not np.all(np.isfinite(residuals.view(float))):
        degenerate = True
    verified = verify_reference(mono, poly_from_roots(roots), float(value))
    return BetheState(sector, index, roots, float(value), residuals,
                      degenerate, verified, refined=refined)


def sector_inputs(model, sector):
    mats = sector_matrices(model, sector)
    eig = jacobi_eigen(mats.H, TOLS.eigen)
    h_op = build_hamiltonian_operator(model, sector)
    return mats, eig, extract_polynomials(h_op), apply_to_monomials(h_op, sector.n_top)


def outcome(fn):
    """The states, or the type of the error raised on the way."""
    try:
        return fn()
    except (ConvergenceError, RuntimeError) as exc:
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
    mats, eig, polys, mono = sector_inputs(model, sector)

    def per_state():
        return [state_reference(model, sector, mats, eig.values[i],
                                eig.vectors[:, i], i, polys, mono)
                for i in range(sector.dim)]

    def batch():
        return bethe._states_from_eigenpairs(
            model, sector, mats, eig.values, eig.vectors, list(range(sector.dim)),
            polys, mono, TOLS)

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


@pytest.mark.parametrize("name,j,seed", [("tavis_cummings", 12, 1),
                                         ("bose_hubbard", 12, 2)])
def test_batch_matches_per_state_through_the_fallbacks(name, j, seed):
    # dim 25: some states leave the eigenvector roots for the recurrence
    # and Newton fallback, and some of those keep the Newton roots
    params = random_params(name, np.random.default_rng(seed))
    model = model_for_j(name, params, j)
    states = compare_sector(model, largest_sector(model, j))
    assert not isinstance(states, type)
    assert sum(st.refined for st in states) >= 2


@pytest.mark.parametrize("j,params", [
    (12, random_params("bose_hubbard", np.random.default_rng(0))),
    (12, random_params("bose_hubbard", np.random.default_rng(5))),
    (14, {"g_prime": -0.27342595831299005, "g": -0.5100683731015935}),
], ids=["eigenvector0", "eigenvector22", "eigenvector28"])
def test_batch_raises_what_the_per_state_loop_meets_first(j, params):
    # the roundoff end component sits in eigenvector 0, 22 and 28 of the
    # three sectors; the columns before it are recovered first
    model = model_for_j("bose_hubbard", params, j)
    assert compare_sector(model, largest_sector(model, j)) is RuntimeError


def test_error_of_an_earlier_column_comes_first(monkeypatch):
    # eigenvector 22 of this sector has its end component at roundoff; a
    # root failure of the columns before it is what the caller sees
    def fail(*args, **kwargs):
        raise ConvergenceError("Aberth-Ehrlich iteration did not converge")

    params = random_params("bose_hubbard", np.random.default_rng(5))
    model = model_for_j("bose_hubbard", params, 12)
    monkeypatch.setattr(bethe, "polynomial_roots", fail)
    with pytest.raises(ConvergenceError):
        solve_sector(model, largest_sector(model, 12))


# ---------------------------------------------------------------------------
# stacked primitives against row-by-row calls
# ---------------------------------------------------------------------------

def random_rows(rng, n_rows, deg):
    rows = rng.standard_normal((n_rows, deg + 1)) * 10.0 ** rng.uniform(
        -2, 2, (n_rows, deg + 1))
    rows[:, -1] = 1.0
    return rows


@pytest.mark.parametrize("deg", [2, 3, 7, 12, 24])
def test_stacked_roots_equal_row_calls(deg):
    rng = np.random.default_rng(deg)
    rows = random_rows(rng, 9, deg)
    rows[2, 0] = 0.0           # numpy.roots deflates this row's zero root
    rows[5, :2] = 0.0          # and this row's double zero root
    stacked = polynomial_roots(rows)
    assert stacked.roots.shape == (9, deg)
    for i, row in enumerate(rows):
        single = polynomial_roots(row)
        assert np.array_equal(stacked.roots[i], single.roots)
        assert stacked.residual_bound[i] == single.residual_bound
        assert stacked.clustered[i] == single.clustered
        assert np.array_equal(single.roots, roots_reference(row))


def test_stacked_roots_low_degree_and_rejects_mixed_degrees():
    rows = np.array([[6.0, -2.0], [1.0, 4.0]])
    stacked = polynomial_roots(rows)
    assert np.array_equal(stacked.roots, [[3.0], [-0.25]])
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


def test_recover_roots_equals_solve_sector_state():
    params = random_params("lmg", np.random.default_rng(5))
    model = model_for_j("lmg", params, 6)
    sec = largest_sector(model, 6)
    by_index = {st.eigen_index: st for st in solve_sector(model, sec)}
    for i in range(sec.dim):
        assert_same_states([recover_roots(model, sec, i)], [by_index[i]])


# ---------------------------------------------------------------------------
# the roundoff end component is reported as such
# ---------------------------------------------------------------------------

def test_roundoff_end_component_is_named():
    params = random_params("bose_hubbard", np.random.default_rng(0))
    model = model_for_j("bose_hubbard", params, 12)
    with pytest.raises(RuntimeError, match=r"end component at roundoff") as info:
        solve_sector(model, largest_sector(model, 12))
    assert "inconsistent" not in str(info.value)
    assert "of its largest (limit 1e-12)" in str(info.value)


def test_roundoff_end_component_exits_three(capsys):
    params = random_params("bose_hubbard", np.random.default_rng(0))
    code = main(["spectrum", "--preset", "bose_hubbard",
                 "--param", f"g_prime={params['g_prime']!r}",
                 "--param", f"g={params['g']!r}", "--j", "12", "--mu", "-12"])
    captured = capsys.readouterr()
    assert code == 3
    assert captured.out == ""
    lines = captured.err.strip().splitlines()
    assert len(lines) == 1
    assert lines[0].startswith("numerical failure: eigenvector ")
    assert "end component at roundoff" in lines[0]
