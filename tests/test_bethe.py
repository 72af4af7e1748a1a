import warnings
from fractions import Fraction
from math import factorial

import numpy as np
import pytest

from spinboson.bethe import (
    _elem_sym,
    _polish_roots,
    bae_residuals,
    closed_form_energy,
    energy_from_roots,
    liouville_ratio,
    poly_from_roots,
    residual_scale,
    root_scale,
    solve_sector,
)
from spinboson.config import DEFAULT_TOLS
from spinboson.linalg import ConvergenceError, jacobi_eigen, polynomial_roots
from spinboson.model import (
    ModelSpec,
    ReferenceState,
    enumerate_sectors,
    sector_from_reference,
)
from spinboson.operators import (
    build_hamiltonian_operator,
    extract_polynomials,
    poly_eval,
)
from spinboson.presets import model_for_j, random_params
from spinboson.representation import fock_oracle, sector_matrices
from spinboson.verify import _sweep_presets


def tc_model(w=1.0, gp=0.3, g=0.1):
    return ModelSpec(M=1, r=1, s=1, k=(1,), w=(w,), g_prime=gp, g=g)


def two_site_model(gp=0.7, g=0.4):
    return ModelSpec(M=0, r=1, s=2, k=(), w=(), g_prime=gp, g=g)


def tc_doublet_sector(model):
    return sector_from_reference(model, Fraction(1, 2),
                                 ReferenceState(Fraction(-1, 2), (1,)))


class TestRecoverRoots:
    def test_single_mode_doublet_closed_form(self):
        w, gp, g = 1.0, 0.45, 0.2
        model = tc_model(w, gp, g)
        sec = tc_doublet_sector(model)
        disc = np.sqrt((w - gp) ** 2 + 4 * g * g)
        upper = solve_sector(model, sec)[1]
        assert upper.energy == pytest.approx((w + disc) / 2, rel=1e-12)
        alpha_minus = ((gp - w) - disc) / (2 * g)
        np.testing.assert_allclose(upper.roots, [alpha_minus], atol=1e-10)
        # E = g'/2 - g alpha on this block
        assert upper.energy == pytest.approx(gp / 2 - g * alpha_minus.real,
                                             rel=1e-12)
        assert upper.verified and not upper.degenerate_roots

    def test_trivial_sector(self):
        model = tc_model(w=1.0, gp=0.3)
        sec = sector_from_reference(model, Fraction(1, 2),
                                    ReferenceState(Fraction(-1, 2), (0,)))
        state = solve_sector(model, sec)[0]
        assert state.roots.size == 0
        assert state.energy == pytest.approx(-0.15)
        assert state.verified

    def test_two_site_pure_coupling(self):
        g = 0.8
        model = two_site_model(gp=0.0, g=g)
        sec = sector_from_reference(model, Fraction(1, 2),
                                    ReferenceState(Fraction(-1, 2)))
        low, high = solve_sector(model, sec)
        assert low.energy == pytest.approx(-g)
        assert high.energy == pytest.approx(+g)
        np.testing.assert_allclose(low.roots, [1.0], atol=1e-10)
        np.testing.assert_allclose(high.roots, [-1.0], atol=1e-10)
        # E = -g sum(alpha) for this family member
        for st in (low, high):
            assert st.energy == pytest.approx(-g * st.roots[0].real, abs=1e-10)

    def test_root_count_and_index_bounds(self):
        model = two_site_model()
        sec = sector_from_reference(model, Fraction(5, 2),
                                    ReferenceState(Fraction(-5, 2)))
        states = solve_sector(model, sec)
        assert [st.eigen_index for st in states] == list(range(sec.dim))
        for st in states:
            assert st.roots.size == sec.n_top


class TestBaeResiduals:
    def test_single_root_is_p1(self):
        model = tc_model(1.0, 0.45, 0.2)
        sec = tc_doublet_sector(model)
        polys = extract_polynomials(build_hamiltonian_operator(model, sec))
        alpha = np.array([0.37 + 0.11j])
        res = bae_residuals(model, sec, alpha)
        np.testing.assert_allclose(res, [poly_eval(polys[1], alpha[0])],
                                   rtol=1e-12)

    def test_doublet_p1_vanishes_at_recovered_root(self):
        w, gp, g = 1.0, 0.45, 0.2
        model = tc_model(w, gp, g)
        sec = tc_doublet_sector(model)
        state = solve_sector(model, sec)[0]
        alpha = state.roots[0]
        # P_1(z) = -g z^2 + (g' - w) z + g vanishes at the root
        val = -g * alpha**2 + (gp - w) * alpha + g
        assert abs(val) < 1e-10
        assert abs(state.bae_residuals[0]) < 1e-10

    def test_two_site_triplet_residuals(self):
        model = two_site_model(0.7, 0.4)
        sec = sector_from_reference(model, Fraction(1), ReferenceState(Fraction(-1)))
        for state in solve_sector(model, sec):
            assert state.max_residual() < 1e-8

    @pytest.mark.parametrize("mu, ns", [(-3, (3, 4)), (1, (3, 4))])
    def test_matches_per_root_loop(self, mu, ns):
        # reference: one root at a time, the others' reciprocal distances fed
        # to the elementary symmetric sums; same operations in the same order,
        # but numpy's scalar and array complex kernels may round differently,
        # so agreement is to float64 roundoff of the largest residual
        model = ModelSpec(M=2, r=1, s=2, k=(1, 2), w=(1.0, 1.3),
                          g_prime=0.4, g=0.6)
        sec = sector_from_reference(model, Fraction(3),
                                    ReferenceState(Fraction(mu), ns))
        polys = extract_polynomials(build_hamiltonian_operator(model, sec))
        order = len(polys) - 1
        rng = np.random.default_rng(mu + 10)
        roots = rng.standard_normal(sec.n_top) + 1j * rng.standard_normal(sec.n_top)
        expected = []
        for mu_idx, root in enumerate(roots):
            inv = 1.0 / (root - np.delete(roots, mu_idx))
            e = _elem_sym(inv, min(order - 1, inv.size))
            val = poly_eval(polys[1], root)
            for i in range(2, min(order, inv.size + 1) + 1):
                val += poly_eval(polys[i], root) * factorial(i) * e[i - 1]
            expected.append(val)
        got = bae_residuals(model, sec, roots, polys)
        scale = float(np.max(np.abs(expected)))
        np.testing.assert_allclose(got, expected, rtol=0.0, atol=1e-13 * scale)

    def test_coincident_roots_rejected(self):
        model = two_site_model()
        sec = sector_from_reference(model, Fraction(1), ReferenceState(Fraction(-1)))
        with pytest.raises(ValueError, match="oincident"):
            bae_residuals(model, sec, np.array([0.5, 0.5 + 1e-9]))

    def test_wrong_root_count_rejected(self):
        model = two_site_model()
        sec = sector_from_reference(model, Fraction(1), ReferenceState(Fraction(-1)))
        with pytest.raises(ValueError, match="expected 2 roots"):
            bae_residuals(model, sec, np.array([1.0]))


class TestEnergyFromRoots:
    def test_trivial_sector_diagonal(self):
        model = tc_model(w=1.0, gp=0.3)
        sec = sector_from_reference(model, Fraction(1, 2),
                                    ReferenceState(Fraction(-1, 2), (0,)))
        assert energy_from_roots(model, sec, np.zeros(0)) == pytest.approx(-0.15)

    def test_collective_spin_closed_form(self):
        # E = g'(j - lam) - g (lam+1)(lam+2) sum(alpha)
        gp, g = 0.9, 0.7
        model = ModelSpec(M=0, r=2, s=1, k=(), w=(), g_prime=gp, g=g)
        j = Fraction(2)
        for sec in enumerate_sectors(model, j):
            for state in solve_sector(model, sec):
                expected = (gp * (float(j) - sec.lam)
                            - g * (sec.lam + 1) * (sec.lam + 2)
                            * float(np.sum(state.roots).real))
                assert state.energy == pytest.approx(expected, rel=1e-9, abs=1e-9)

    def test_rotor_offset_enters_energy(self):
        a, b, c = 1.0, 2.0, 3.0
        j = Fraction(1)
        model = ModelSpec(M=0, r=2, s=2, k=(), w=(),
                          g_prime=(2 * c - a - b) / 2, g=(a - b) / 4,
                          constant_shift=(a + b) / 2 * float(j * (j + 1)))
        sec = next(s for s in enumerate_sectors(model, j) if s.p == 1)
        assert sec.dim == 1
        state = solve_sector(model, sec)[0]
        assert state.energy == pytest.approx(a + b)

    def test_rejects_complex_root_sum(self):
        model = tc_model(1.0, 0.45, 0.2)
        sec = tc_doublet_sector(model)
        with pytest.raises(ValueError, match="imaginary"):
            energy_from_roots(model, sec, np.array([0.3 + 2.0j]))

    def test_formula_affine_in_roots_matches_ratio_everywhere(self):
        # the coefficient-ratio cross-check holds for ANY root value because
        # both sides are the same affine function of sum(alpha); it guards the
        # transcription of the closed form, not the roots themselves
        model = tc_model(1.0, 0.45, 0.2)
        sec = tc_doublet_sector(model)
        for alpha in (0.0, 1.7, -42.0):
            energy_from_roots(model, sec, np.array([alpha]))  # must not raise


# one stacked input per public numerics function: a (2, n, n) matrix stack,
# a 2-D coefficient array, a 2-D array of root sets
STACKED_CALLS = {
    "jacobi_eigen": lambda model, sec, roots: jacobi_eigen(np.zeros((2, 3, 3))),
    "polynomial_roots": lambda model, sec, roots: polynomial_roots(np.ones((2, 3))),
    "energy_from_roots": lambda model, sec, roots: energy_from_roots(model, sec, roots),
    "bae_residuals": lambda model, sec, roots: bae_residuals(model, sec, roots),
    "residual_scale": lambda model, sec, roots: residual_scale(
        extract_polynomials(build_hamiltonian_operator(model, sec)), roots),
    "root_scale": lambda model, sec, roots: root_scale(roots),
}


@pytest.mark.parametrize("name", sorted(STACKED_CALLS))
def test_public_numerics_reject_a_stack(name):
    # the stacks belong to the private cores the solver calls; a public
    # function given one raises instead of batching it
    model = tc_model(1.0, 0.45, 0.2)
    sec = tc_doublet_sector(model)
    roots = np.arange(2.0 * sec.n_top).reshape(2, sec.n_top) + 0.5
    with pytest.raises(ValueError, match="expected one"):
        STACKED_CALLS[name](model, sec, roots)


class TestSolveSector:
    def test_two_site_quartet_matches_diagonalization(self):
        model = two_site_model(0.7, 0.4)
        sec = sector_from_reference(model, Fraction(3, 2),
                                    ReferenceState(Fraction(-3, 2)))
        states = solve_sector(model, sec)
        assert len(states) == 4
        eig = jacobi_eigen(sector_matrices(model, sec).H)
        np.testing.assert_allclose([st.energy for st in states], eig, atol=1e-10)
        bethe = [energy_from_roots(model, sec, st.roots) for st in states]
        np.testing.assert_allclose(np.sort(bethe), eig, atol=1e-9)

    def test_zero_coupling_path(self):
        model = tc_model(w=0.9, gp=0.5, g=0.0)
        sec = sector_from_reference(model, Fraction(3, 2),
                                    ReferenceState(Fraction(-3, 2), (2,)))
        states = solve_sector(model, sec)
        diag = np.sort(np.diag(sector_matrices(model, sec).H))
        np.testing.assert_allclose([st.energy for st in states], diag)
        for st in states:
            assert st.verified
            assert np.all(st.roots == 0)
            if st.roots.size >= 2:
                assert st.degenerate_roots

    def test_two_mode_sector_matches_oracle(self):
        model = ModelSpec(M=2, r=1, s=1, k=(1, 1), w=(0.9, 1.3),
                          g_prime=0.4, g=0.6)
        j = Fraction(1)
        sec = sector_from_reference(model, j, ReferenceState(Fraction(-1), (2, 1)))
        states = solve_sector(model, sec)
        blocks = [b for b in fock_oracle(model, j, 4) if b.labels == sec]
        oracle = jacobi_eigen(blocks[0].H)
        np.testing.assert_allclose([st.energy for st in states], oracle,
                                   atol=1e-9)

    def test_states_sorted_by_energy(self):
        model = two_site_model(-1.2, 0.9)
        sec = sector_from_reference(model, Fraction(2), ReferenceState(Fraction(-2)))
        energies = [st.energy for st in solve_sector(model, sec)]
        assert energies == sorted(energies)


class TestRegressions:
    @pytest.mark.parametrize("seed", [686310523, 760003511])
    def test_sweep_draw_matches_oracle(self, seed):
        # 686310523: its tavis_cummings j=6, p=0 sector once missed the oracle
        # by 2.5e-8 against a 1e-8 tolerance through eigenvector inaccuracy;
        # 760003511: its rigid_rotor j=6, p=0 state 0 has three nearly
        # coincident conjugate root pairs near z = 1, and eigenvector-derived
        # coefficients once gave it a root sum with imaginary part 6.2e-9
        data = _sweep_presets(seed, 1, DEFAULT_TOLS)
        assert data["failures"] == []
        assert data["worst_match"] <= DEFAULT_TOLS.match

    def test_a_sector_with_non_finite_rows_fails_quietly(self):
        # bose_hubbard at j = 90 with the couplings of random_params rng 0:
        # twisted rows of its largest sector overflow, so their companions
        # are not finite; each such row dies alone, and the sector fails with
        # the root finder's error and no floating-point warning
        j = 90
        params = random_params("bose_hubbard", np.random.default_rng(0))
        model = model_for_j("bose_hubbard", params, j)
        sec = sector_from_reference(model, Fraction(j),
                                    ReferenceState(Fraction(-j), ()))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ConvergenceError, match="Aberth"):
                solve_sector(model, sec)

    @pytest.mark.parametrize("seed", range(4))
    def test_lmg_largest_sector_at_j20(self, seed):
        # dimension 21: Aberth from a circle start did not converge here
        j = 20
        params = random_params("lmg", np.random.default_rng(seed))
        model = model_for_j("lmg", params, j)
        sec = sector_from_reference(model, Fraction(j),
                                    ReferenceState(Fraction(-j), ()))
        assert sec.dim == 21
        states = solve_sector(model, sec)
        assert len(states) == 21
        assert all(st.verified or st.degenerate_roots for st in states)
        ref = np.linalg.eigvalsh(sector_matrices(model, sec).H)
        energies = np.array([st.energy for st in states])
        assert np.max(np.abs(energies - ref)) <= DEFAULT_TOLS.match * max(
            1.0, float(np.max(np.abs(ref))))

    def test_tavis_cummings_largest_sector_at_j20(self):
        # dimension 41: the Newton polish is what verifies most of these
        # states (15 verify without it); 31 of 41 verify with one and with
        # two OpenBLAS threads.  A polished root set is kept only when its
        # closed-form energy pins the eigenvalue.
        j = 20
        params = random_params("tavis_cummings", np.random.default_rng(3000))
        model = model_for_j("tavis_cummings", params, j)
        sec = sector_from_reference(model, Fraction(j),
                                    ReferenceState(Fraction(-j), (2 * j,)))
        assert sec.dim == 41
        states = solve_sector(model, sec)
        assert sum(st.verified for st in states) >= 31
        refined = [st for st in states if st.refined]
        assert refined
        for st in refined:
            energy = closed_form_energy(model, sec, complex(st.roots.sum()))
            assert abs(energy - st.energy) <= DEFAULT_TOLS.match * max(1.0, abs(st.energy))


class TestNewtonRefine:
    def test_fixed_point_of_recovered_roots(self):
        model = two_site_model(0.7, 0.4)
        sec = sector_from_reference(model, Fraction(3, 2),
                                    ReferenceState(Fraction(-3, 2)))
        polys = extract_polynomials(build_hamiltonian_operator(model, sec))
        state = solve_sector(model, sec)[1]
        polished = _polish_roots(state.roots, polys,
                                 residual_scale(polys, state.roots), DEFAULT_TOLS)
        assert polished is not None
        np.testing.assert_allclose(
            np.sort(polished.real), np.sort(state.roots.real), atol=1e-7)
        residual = np.abs(bae_residuals(model, sec, polished, polys)).max()
        assert residual <= state.max_residual() + 1e-12

    def test_perturbed_seed_returns_to_roots(self):
        model = two_site_model(0.7, 0.4)
        sec = sector_from_reference(model, Fraction(1), ReferenceState(Fraction(-1)))
        polys = extract_polynomials(build_hamiltonian_operator(model, sec))
        state = solve_sector(model, sec)[0]
        seed = state.roots + 1e-3
        polished = _polish_roots(seed, polys, residual_scale(polys, seed),
                                 DEFAULT_TOLS)
        assert polished is not None
        got = np.sort_complex(polished)
        want = np.sort_complex(state.roots)
        np.testing.assert_allclose(got, want, atol=1e-7)

    def test_empty_state_passthrough(self):
        # a dimension-1 sector has no roots to recover, at any g: its one
        # state keeps the eigensolve's energy, empty roots and residuals and
        # a certificate of 0.0, and refine leaves it as it is
        for g in (0.1, 0.0):
            model = tc_model(g=g)
            sec = sector_from_reference(model, Fraction(1, 2),
                                        ReferenceState(Fraction(-1, 2), (0,)))
            plain = solve_sector(model, sec)
            refined = solve_sector(model, sec, refine=True)
            assert len(refined) == len(plain) == 1 and plain[0].roots.size == 0
            for a, b in zip(refined, plain):
                assert (a.eigen_index, a.energy, a.verified, a.degenerate_roots,
                        a.refined) == (b.eigen_index, b.energy, b.verified,
                                       b.degenerate_roots, b.refined)
                assert np.array_equal(a.roots, b.roots)
                assert np.array_equal(a.bae_residuals, b.bae_residuals)
                assert (a.verified, a.degenerate_roots, a.refined) == (
                    True, False, False)
                assert a.roots.shape == a.bae_residuals.shape == (0,)
                assert a.scaled_residual == 0.0
                assert a.energy == sector_matrices(model, sec).H[0, 0]

    def test_solve_sector_with_refinement(self):
        model = two_site_model(0.5, 1.1)
        sec = sector_from_reference(model, Fraction(2), ReferenceState(Fraction(-2)))
        states = solve_sector(model, sec, refine=True)
        assert all(st.refined for st in states if st.roots.size)
        assert max(st.max_residual() for st in states) < 1e-10


class TestLiouville:
    def test_ratio_constant_at_solution(self):
        model = two_site_model(0.7, 0.4)
        sec = sector_from_reference(model, Fraction(2), ReferenceState(Fraction(-2)))
        polys = extract_polynomials(build_hamiltonian_operator(model, sec))
        rng = np.random.default_rng(1)
        for state in solve_sector(model, sec):
            for _ in range(5):
                z = complex(rng.uniform(-2, 2), rng.uniform(-2, 2))
                if np.min(np.abs(z - state.roots)) < 0.3:
                    continue
                val = liouville_ratio(polys, state.roots, z)
                assert abs(val - state.energy) <= 1e-6 * max(1, abs(state.energy))

    def test_ratio_not_constant_off_solution(self):
        model = two_site_model(0.7, 0.4)
        sec = sector_from_reference(model, Fraction(2), ReferenceState(Fraction(-2)))
        polys = extract_polynomials(build_hamiltonian_operator(model, sec))
        fake = np.array([0.3 + 0.2j, -1.1 - 0.4j])
        vals = [liouville_ratio(polys, fake, z) for z in (0.9, 2.1 + 0.3j, -1.7j)]
        assert np.std(np.abs(vals)) > 1e-3


def test_poly_from_roots_roundtrip():
    roots = np.array([1.5, -0.5 + 2j, -0.5 - 2j])
    coeffs = poly_from_roots(roots)
    assert coeffs[-1] == 1.0
    vals = poly_eval(coeffs, roots)
    assert np.max(np.abs(vals)) < 1e-12
