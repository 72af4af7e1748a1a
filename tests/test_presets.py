from fractions import Fraction

import numpy as np
import pytest

from spinboson.bethe import energy_from_roots, solve_sector
from spinboson.linalg import jacobi_eigen
from spinboson.model import ReferenceState, enumerate_sectors, sector_from_reference
from spinboson.operators import build_hamiltonian_operator, extract_polynomials
from spinboson.presets import (
    DEFAULT_GRIDS,
    ERRATA,
    PRESET_NAMES,
    model_for_j,
    preset,
    published_energy,
    published_polynomials,
    random_params,
)
from spinboson.representation import sector_matrices


class TestPresetConstruction:
    def test_shapes(self):
        shapes = {
            "bose_hubbard": (0, 1, 2, ()),
            "lmg": (0, 2, 1, ()),
            "rigid_rotor": (0, 2, 2, ()),
            "tavis_cummings": (1, 1, 1, (1,)),
            "two_mode_tc": (2, 1, 1, (1, 1)),
        }
        params = {
            "bose_hubbard": {"g_prime": 1.0, "g": 0.5},
            "lmg": {"g_prime": 1.0, "g": 0.5},
            "rigid_rotor": {"a": 1.0, "b": 2.0, "c": 3.0, "j": 1},
            "tavis_cummings": {"w": 1.0, "g_prime": 1.0, "g": 0.5},
            "two_mode_tc": {"w1": 1.0, "w2": 2.0, "g_prime": 1.0, "g": 0.5},
        }
        for name in PRESET_NAMES:
            model = preset(name, params[name])
            assert (model.M, model.r, model.s, model.k) == shapes[name]

    def test_unknown_name(self):
        with pytest.raises(ValueError, match="unknown preset"):
            preset("does_not_exist", {})

    def test_missing_params(self):
        with pytest.raises(ValueError, match="missing parameters"):
            preset("tavis_cummings", {"w": 1.0})

    def test_unknown_params(self):
        # a parameter the preset does not take is an error, not dropped
        with pytest.raises(ValueError, match=r"takes no parameters \['foo'\]"):
            preset("lmg", {"g_prime": 1.0, "g": 0.5, "foo": 3})
        # w1 is the single-mode alias of w; both at once leave w1 unread
        with pytest.raises(ValueError, match="takes no parameters"):
            preset("tavis_cummings",
                   {"w": 1.0, "w1": 0.7, "g_prime": 1.0, "g": 0.5})

    def test_symmetric_top_decouples(self):
        model = preset("rigid_rotor", {"a": 1.5, "b": 1.5, "c": 0.3, "j": 2})
        assert model.g == 0.0

    def test_w1_alias(self):
        model = preset("tavis_cummings", {"w1": 0.7, "g_prime": 1.0, "g": 0.5})
        assert model.w == (0.7,)


class TestRotorSpectra:
    def test_j1_triple(self):
        a, b, c = 1.0, 2.0, 3.0
        j = Fraction(1)
        model = preset("rigid_rotor", {"a": a, "b": b, "c": c, "j": j})
        energies = sorted(
            st.energy
            for sec in enumerate_sectors(model, j)
            for st in solve_sector(model, sec)
        )
        np.testing.assert_allclose(energies, sorted([a + b, b + c, a + c]),
                                   atol=1e-10)

    def test_symmetric_top_is_diagonal(self):
        j = Fraction(2)
        model = preset("rigid_rotor", {"a": 1.0, "b": 1.0, "c": 2.5, "j": j})
        # a = b: eigenvalues are c m^2 + (a+b)/2 (j(j+1) - m^2) exactly
        expected = sorted(
            2.5 * m * m + 1.0 * (6.0 - m * m) for m in range(-2, 3))
        energies = sorted(
            st.energy
            for sec in enumerate_sectors(model, j)
            for st in solve_sector(model, sec)
        )
        np.testing.assert_allclose(energies, expected, atol=1e-10)


class TestDecoupledLadder:
    def test_harmonic_ladder(self):
        # w = g': every state in the block with excitation number x sits at
        # energy n + mu = x, so each two-dimensional block is degenerate
        model = preset("tavis_cummings", {"w": 1.0, "g_prime": 1.0, "g": 0.0})
        j = Fraction(1, 2)
        energies = sorted(
            st.energy
            for sec in enumerate_sectors(model, j, 3)
            for st in solve_sector(model, sec)
        )
        expected = sorted([-0.5] + [x + 0.5 for x in range(4) for _ in range(2)])
        np.testing.assert_allclose(energies, expected, atol=1e-12)


class TestPublishedPolynomials:
    @pytest.mark.parametrize("name", PRESET_NAMES)
    def test_match_assembled_operator(self, name):
        rng = np.random.default_rng(PRESET_NAMES.index(name))
        grid = DEFAULT_GRIDS[name]
        for j in grid.j_values[1:6]:
            model = model_for_j(name, random_params(name, rng), j)
            for sec in enumerate_sectors(model, j, grid.max_total_bosons):
                built = extract_polynomials(build_hamiltonian_operator(model, sec))
                pub = published_polynomials(name, model, sec)
                assert len(built) == len(pub)
                scale = max(1.0, max(float(np.max(np.abs(p), initial=0.0))
                                     for p in built))
                for pa, pb in zip(built, pub):
                    n = max(pa.size, pb.size)
                    da, db = np.zeros(n), np.zeros(n)
                    da[: pa.size] = pa
                    db[: pb.size] = pb
                    assert np.max(np.abs(da - db), initial=0.0) <= 1e-10 * scale

    def test_incompatible_model_rejected(self):
        model = preset("lmg", {"g_prime": 1.0, "g": 0.5})
        sec = enumerate_sectors(model, Fraction(1))[0]
        with pytest.raises(ValueError, match="shape"):
            published_polynomials("bose_hubbard", model, sec)


class TestPublishedEnergy:
    @pytest.mark.parametrize("name", PRESET_NAMES)
    def test_matches_general_formula(self, name):
        rng = np.random.default_rng(PRESET_NAMES.index(name))
        grid = DEFAULT_GRIDS[name]
        for j in grid.j_values[1:5]:
            model = model_for_j(name, random_params(name, rng), j)
            for sec in enumerate_sectors(model, j, grid.max_total_bosons):
                for state in solve_sector(model, sec):
                    if state.degenerate_roots:
                        continue
                    e_pub = published_energy(name, model, sec, state.roots)
                    e_gen = energy_from_roots(model, sec, state.roots)
                    assert e_pub == pytest.approx(e_gen, rel=1e-9, abs=1e-9)
                    assert e_pub == pytest.approx(state.energy, rel=1e-9, abs=1e-9)

    def test_two_mode_coefficient_structure(self):
        model = preset("two_mode_tc",
                       {"w1": 0.9, "w2": 1.3, "g_prime": 0.4, "g": 0.6})
        j = Fraction(1)
        sec = sector_from_reference(model, j, ReferenceState(Fraction(-1), (2, 1)))
        state = solve_sector(model, sec)[0]
        kappa, l1 = float(sec.kappa), float(sec.l[0])
        n_top, jf = sec.n_top, float(j)
        alpha = float(np.sum(state.roots).real)
        expected = ((model.w[0] + model.w[1]) * (1.5 * kappa - 1 + jf - n_top)
                    + 0.5 * l1 * (model.w[0] - model.w[1])
                    + model.g_prime * (n_top - jf)
                    - model.g * (2 * jf - n_top + 1)
                    * ((1.5 * kappa + jf - n_top) ** 2 - l1 * l1 / 4) * alpha)
        assert published_energy("two_mode_tc", model, sec, state.roots) == \
            pytest.approx(expected, rel=1e-12)

    def test_wrong_root_count(self):
        model = preset("lmg", {"g_prime": 1.0, "g": 0.5})
        sec = next(s for s in enumerate_sectors(model, Fraction(2)) if s.p == 0)
        with pytest.raises(ValueError, match="roots"):
            published_energy("lmg", model, sec, np.zeros(5))


class TestErrata:
    @pytest.mark.parametrize("erratum", ERRATA, ids=lambda e: e.key)
    def test_printed_fails_corrected_passes(self, erratum):
        printed_dev, corrected_dev = erratum.check()
        assert printed_dev > erratum.printed_min, (
            f"{erratum.key}: printed form unexpectedly agrees "
            f"({printed_dev:.2e})")
        assert corrected_dev < erratum.corrected_max, (
            f"{erratum.key}: corrected form deviates ({corrected_dev:.2e})")

    def test_registry_is_documented(self):
        for erratum in ERRATA:
            assert erratum.location and erratum.printed and erratum.corrected


def test_default_grids_cover_all_presets():
    assert set(DEFAULT_GRIDS) == set(PRESET_NAMES)
    for grid in DEFAULT_GRIDS.values():
        assert all(2 * j == int(2 * j) for j in grid.j_values)
        assert max(grid.j_values) <= 6
