from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import spinboson.representation as rep
from spinboson import verify
from spinboson.config import DEFAULT_TOLS
from spinboson.linalg import jacobi_eigen
from spinboson.model import (
    ModelSpec,
    ReferenceState,
    enumerate_sectors,
    sector_from_reference,
)
from spinboson.representation import (
    check_algebra,
    fock_oracle,
    ladder_operators,
    monomial_conjugation_check,
    sector_matrices,
)


def dense_fock_hamiltonian(model, j, boson_cap):
    """Full H on the truncated product space, in sorted basis order (memory
    quadratic in the basis size: test sizes only)."""
    basis = sorted(state for _, states, _ in
                   rep._grouped_basis(model.M, model.r, model.k, j, boson_cap)
                   for state in states)
    return basis, rep._fock_matrix(model, j, basis)


def tc_model(w=1.0, gp=0.3, g=0.1):
    return ModelSpec(M=1, r=1, s=1, k=(1,), w=(w,), g_prime=gp, g=g)


def two_site_model(gp=0.7, g=0.4):
    return ModelSpec(M=0, r=1, s=2, k=(), w=(), g_prime=gp, g=g)


class TestSectorMatrices:
    def test_single_mode_doublet(self):
        w, gp, g = 1.0, 0.3, 0.1
        model = tc_model(w, gp, g)
        sec = sector_from_reference(model, Fraction(1, 2),
                                    ReferenceState(Fraction(-1, 2), (1,)))
        mats = sector_matrices(model, sec)
        np.testing.assert_allclose(
            mats.H, [[w - gp / 2, g], [g, gp / 2]], atol=1e-14)

    def test_trivial_sector(self):
        model = tc_model()
        sec = sector_from_reference(model, Fraction(1, 2),
                                    ReferenceState(Fraction(-1, 2), (0,)))
        mats = sector_matrices(model, sec)
        assert mats.H.shape == (1, 1)
        assert mats.H[0, 0] == pytest.approx(-0.15)

    def test_two_site_doublet(self):
        gp, g = 0.7, 0.4
        model = two_site_model(gp, g)
        sec = sector_from_reference(model, Fraction(1, 2),
                                    ReferenceState(Fraction(-1, 2)))
        mats = sector_matrices(model, sec)
        np.testing.assert_allclose(
            mats.H, [[gp / 4, g], [g, gp / 4]], atol=1e-14)
        np.testing.assert_allclose(
            jacobi_eigen(mats.H), [gp / 4 - g, gp / 4 + g], atol=1e-12)

    def test_symmetry_and_band_structure(self):
        model = ModelSpec(M=2, r=2, s=2, k=(2, 1), w=(0.8, 1.1),
                          g_prime=-0.6, g=0.9)
        sec = sector_from_reference(model, Fraction(4),
                                    ReferenceState(Fraction(-3), (5, 4)))
        mats = sector_matrices(model, sec)
        assert np.array_equal(mats.H, mats.H.T)
        assert np.count_nonzero(np.triu(mats.H, 2)) == 0
        P0, Pplus, Pminus = ladder_operators(model, sec)
        np.testing.assert_allclose(Pminus, Pplus.T, atol=1e-12)
        assert np.count_nonzero(np.diag(Pplus)) == 0
        assert np.count_nonzero(P0 - np.diag(np.diag(P0))) == 0
        # H is built exactly symmetric and never symmetrized: the amplitudes
        # on either side of the diagonal are square roots of one exact product
        rng = np.random.default_rng(17)
        for _ in range(300):
            model, sec = verify._random_model_sector(rng)
            h = sector_matrices(model, sec).H
            assert np.array_equal(h, h.T)
            assert np.count_nonzero(np.triu(h, 2)) == 0

    def test_simple_spectrum_for_nonzero_coupling(self):
        model = two_site_model(0.5, 0.8)
        sec = sector_from_reference(model, Fraction(3),
                                    ReferenceState(Fraction(-3)))
        mats = sector_matrices(model, sec)
        sub = np.diag(mats.H, -1)
        assert np.all(np.abs(sub) > 0)
        values = jacobi_eigen(mats.H)
        gaps = np.diff(values)
        assert np.min(gaps) > 1e-9 * max(1.0, np.max(np.abs(mats.H)))


class TestCheckAlgebra:
    def test_su2_limit(self):
        # M=0, r=1: the commutator must reduce to twice the weight operator
        model = two_site_model()
        sec = sector_from_reference(model, Fraction(3, 2),
                                    ReferenceState(Fraction(-3, 2)))
        P0, Pplus, Pminus = ladder_operators(model, sec)
        comm = Pplus @ Pminus - Pminus @ Pplus
        np.testing.assert_allclose(comm, 2.0 * P0, atol=1e-12)
        assert check_algebra(model, sec).max_relative() < 1e-12

    def test_trivial_sector(self):
        model = tc_model()
        sec = sector_from_reference(model, Fraction(1, 2),
                                    ReferenceState(Fraction(-1, 2), (0,)))
        diag = check_algebra(model, sec)
        assert diag.comm_pm == 0.0
        assert diag.lowest_state == 0.0
        assert diag.highest_state == 0.0

    @pytest.mark.parametrize("seed", range(6))
    def test_random_sectors(self, seed):
        rng = np.random.default_rng(seed)
        M = int(rng.integers(0, 3))
        model = ModelSpec(
            M=M, r=int(rng.integers(1, 4)), s=int(rng.integers(1, 4)),
            k=tuple(int(rng.integers(1, 4)) for _ in range(M)),
            w=tuple(float(rng.uniform(0.2, 2.0)) for _ in range(M)),
            g_prime=float(rng.uniform(-2, 2)), g=float(rng.uniform(0.1, 2)),
        )
        two_j = int(rng.integers(1, 11))
        j = Fraction(two_j, 2)
        mu = Fraction(int(rng.integers(0, two_j + 1))) - j
        ns = tuple(int(rng.integers(0, 7)) for _ in range(M))
        sec = sector_from_reference(model, j, ReferenceState(mu, ns))
        assert check_algebra(model, sec).max_relative() < 1e-10

    def test_mutated_raising_operator_detected(self, monkeypatch):
        # flipping the raising amplitudes alone must blow up the closed-form
        # check: P- has a closed form of its own, not P+ transposed
        model = two_site_model()
        sec = sector_from_reference(model, Fraction(2), ReferenceState(Fraction(-2)))
        original = rep._ladder_amplitudes

        def flipped(m, s):
            up, down = original(m, s)
            return -up, down

        monkeypatch.setattr(rep, "_ladder_amplitudes", flipped)
        assert check_algebra(model, sec).max_relative() > 1e-2

    def test_one_set_of_amplitudes_per_sector(self, monkeypatch):
        # the bands and the end conditions down[0], up[-1] come from one call
        model = tc_model(g=0.5)
        sec = sector_from_reference(model, Fraction(3, 2),
                                    ReferenceState(Fraction(-3, 2), (2,)))
        original = rep._ladder_amplitudes
        calls = []

        def counted(m, s):
            calls.append(s)
            return original(m, s)

        monkeypatch.setattr(rep, "_ladder_amplitudes", counted)
        diag = check_algebra(model, sec)
        assert calls == [sec]
        up, down = original(model, sec)
        assert (diag.lowest_state, diag.highest_state) == (float(down[0]),
                                                            float(up[-1]))


class TestMonomialConjugation:
    def test_trivial_sector_exact(self):
        model = tc_model()
        sec = sector_from_reference(model, Fraction(1, 2),
                                    ReferenceState(Fraction(-1, 2), (0,)))
        assert monomial_conjugation_check(model, sec) <= 1e-12

    @pytest.mark.parametrize("seed", range(8))
    def test_random_models(self, seed):
        rng = np.random.default_rng(100 + seed)
        M = int(rng.integers(0, 3))
        model = ModelSpec(
            M=M, r=int(rng.integers(1, 4)), s=int(rng.integers(1, 4)),
            k=tuple(int(rng.integers(1, 4)) for _ in range(M)),
            w=tuple(float(rng.uniform(0.2, 2.0)) for _ in range(M)),
            g_prime=float(rng.uniform(-2, 2)), g=float(rng.uniform(0.1, 2)),
        )
        two_j = int(rng.integers(0, 11))
        j = Fraction(two_j, 2)
        mu = Fraction(int(rng.integers(0, two_j + 1))) - j
        ns = tuple(int(rng.integers(0, 7)) for _ in range(M))
        sec = sector_from_reference(model, j, ReferenceState(mu, ns))
        mats = sector_matrices(model, sec)
        scale = max(1.0, float(np.max(np.abs(mats.H))))
        assert monomial_conjugation_check(model, sec) <= DEFAULT_TOLS.conjugation * scale


class TestFockOracle:
    def test_decoupled_energies(self):
        # with g = 0 every block Hamiltonian is diagonal in the product basis
        model = tc_model(w=0.9, gp=0.5, g=0.0)
        blocks = fock_oracle(model, Fraction(1, 2), 3)
        assert blocks
        for blk in blocks:
            off = blk.H - np.diag(np.diag(blk.H))
            assert np.max(np.abs(off), initial=0.0) == 0.0
            for idx, (mu, ns) in enumerate(blk.basis):
                expected = 0.9 * ns[0] + 0.5 * float(mu)
                assert blk.H[idx, idx] == pytest.approx(expected)

    def test_matches_sector_matrices(self):
        model = tc_model(w=1.0, gp=0.3, g=0.1)
        j = Fraction(1, 2)
        sec = sector_from_reference(model, j, ReferenceState(Fraction(-1, 2), (1,)))
        blocks = [b for b in fock_oracle(model, j, 3) if b.labels == sec]
        assert len(blocks) == 1
        np.testing.assert_allclose(blocks[0].H, sector_matrices(model, sec).H,
                                   atol=1e-12)

    def test_two_boson_realization_reproduces_spin_block(self):
        # independent realization of the two-site model: the spin algebra as
        # two bosons with fixed total number 2j
        gp, g = 0.6, 0.9
        j = Fraction(2)
        n_tot = int(2 * j)
        states = [(n1, n_tot - n1) for n1 in range(n_tot + 1)]
        dim = len(states)
        h = np.zeros((dim, dim))
        for a, (n1, n2) in enumerate(states):
            h[a, a] = gp * ((n1 - n2) / 2.0) ** 2
            if n1 + 1 <= n_tot:  # b1+ b2 raises n1, lowers n2
                amp = g * np.sqrt((n1 + 1) * n2)
                b = states.index((n1 + 1, n2 - 1))
                h[b, a] += amp
                h[a, b] += amp
        boson_spec = jacobi_eigen(h)

        model = two_site_model(gp, g)
        sec = enumerate_sectors(model, j)[0]
        sector_spec = jacobi_eigen(sector_matrices(model, sec).H)
        np.testing.assert_allclose(np.sort(boson_spec), np.sort(sector_spec),
                                   atol=1e-10)

    def test_incomplete_blocks_held_back(self):
        model = tc_model(g=0.5)
        j = Fraction(3, 2)
        # cap 1 truncates every block containing the |mu=-3/2, n=1> state
        grouped = rep._grouped_basis(model.M, model.r, model.k, j, 1)
        assert [(b.labels, b.basis) for b in fock_oracle(model, j, 1)] == [
            (labels, states) for labels, states, complete in grouped if complete]
        incomplete = [(labels, states) for labels, states, complete in grouped
                      if not complete]
        assert incomplete
        for labels, states in incomplete:
            assert len(states) < labels.dim

    def test_only_kept_blocks_are_built(self, monkeypatch):
        # completeness comes with the basis, so a held-back block's H is
        # never filled; the kept blocks are the complete ones of the
        # cached decomposition
        model = ModelSpec(M=2, r=1, s=2, k=(1, 2), w=(0.9, 1.3), g_prime=0.4,
                          g=0.6)
        j = Fraction(3, 2)
        grouped = rep._grouped_basis(model.M, model.r, model.k, j, 3)
        original = rep._fock_matrix
        built = []

        def counted(mdl, jj, basis):
            built.append(basis)
            return original(mdl, jj, basis)

        monkeypatch.setattr(rep, "_fock_matrix", counted)
        kept = fock_oracle(model, j, 3)
        want = [(states, labels) for labels, states, complete in grouped if complete]
        assert 0 < len(want) < len(grouped)
        assert built == [states for states, _ in want]
        assert [(b.basis, b.labels) for b in kept] == want
        assert all(blk.H.tobytes() == original(model, j, blk.basis).tobytes()
                   for blk in kept)

    def test_block_dimensions_match_labels(self):
        model = ModelSpec(M=2, r=1, s=1, k=(1, 2), w=(1.0, 0.5),
                          g_prime=0.7, g=0.4)
        j = Fraction(1)
        for blk in fock_oracle(model, j, 8):
            assert len(blk.basis) == blk.labels.dim

    def test_elements_equal_rational_arithmetic(self):
        # the integer 2 mu bookkeeping rounds the same exact ratios as
        # Fraction arithmetic in mu and j: the dense matrix and every block
        # of the decomposition, complete or not, agree bit for bit
        from math import factorial, sqrt

        def element(model, j, bra, ket):
            (mu_b, n_b), (mu_k, n_k) = bra, ket
            if bra == ket:
                val = sum(wi * ni for wi, ni in zip(model.w, n_k))
                return val + model.g_prime * float(mu_k**model.s) + model.constant_shift
            if mu_b == mu_k - model.r:
                (mu_b, n_b), (mu_k, n_k) = ket, bra
            if mu_b != mu_k + model.r or any(
                    nb != nk - ki for nb, nk, ki in zip(n_b, n_k, model.k)):
                return 0.0
            prod = Fraction(1)
            for t in range(model.r):
                prod *= (j - mu_k - t) * (j + mu_k + t + 1)
            for nk, ki in zip(n_k, model.k):
                prod *= Fraction(factorial(nk), factorial(nk - ki))
            return model.g * sqrt(float(prod))

        rng = np.random.default_rng(12)
        for model, j in (
            (ModelSpec(M=1, r=2, s=2, k=(2,), w=(0.8,), g_prime=0.5, g=0.7,
                       constant_shift=0.3), Fraction(3, 2)),
            (ModelSpec(M=2, r=1, s=3, k=(1, 2), w=tuple(rng.uniform(-2, 2, 2)),
                       g_prime=float(rng.uniform(-2, 2)),
                       g=float(rng.uniform(-2, 2))), Fraction(5, 2)),
            (two_site_model(0.6, 0.9), Fraction(7, 2)),
            (ModelSpec(M=1, r=3, s=1, k=(3,), w=(1.3,), g_prime=-0.4, g=0.9,
                       constant_shift=-1.1), Fraction(3)),
            (ModelSpec(M=2, r=3, s=2, k=(3, 1), w=tuple(rng.uniform(-2, 2, 2)),
                       g_prime=float(rng.uniform(-2, 2)), g=float(rng.uniform(-2, 2)),
                       constant_shift=0.25), Fraction(5, 2)),
        ):
            basis, h = dense_fock_hamiltonian(model, j, 3)
            want = np.array([[element(model, j, a, b) for b in basis] for a in basis])
            assert np.array_equal(h, (want + want.T) / 2.0)
            grouped = rep._grouped_basis(model.M, model.r, model.k, j, 3)
            assert sum(len(states) for _, states, _ in grouped) == len(basis)
            for _, states, complete in grouped:
                want = np.array([[element(model, j, a, b) for b in states]
                                 for a in states])
                assert np.array_equal(rep._fock_matrix(model, j, states),
                                      (want + want.T) / 2.0)
                # complete: no block state that J-^r can lower has an
                # occupation that a^dag^k lifts past the cap
                assert complete == (not any(
                    mu - model.r >= -j and any(ni + ki > 3 for ni, ki in zip(ns, model.k))
                    for mu, ns in states))
            flags = [complete for *_, complete in grouped]
            assert any(flags)
            assert model.M == 0 or not all(flags)
            # the oracle returns the complete blocks, with the same H
            assert [(blk.basis, blk.H.tobytes()) for blk in fock_oracle(model, j, 3)] == [
                (states, rep._fock_matrix(model, j, states).tobytes())
                for _, states, complete in grouped if complete]

    def test_charge_conservation_on_dense_hamiltonian(self):
        model = ModelSpec(M=1, r=2, s=1, k=(2,), w=(0.8,), g_prime=0.5, g=0.7)
        j = Fraction(3, 2)
        basis, h = dense_fock_hamiltonian(model, j, 5)
        shape = ModelSpec(M=1, r=2, s=1, k=(2,), w=(0.0,), g_prime=0.0, g=0.0)
        charges = [
            sector_from_reference(shape, j, ReferenceState(mu, ns))
            for mu, ns in basis
        ]
        kappa = np.diag([float(c.kappa) for c in charges])
        comm = h @ kappa - kappa @ h
        assert np.max(np.abs(comm)) <= 1e-10 * max(1.0, np.max(np.abs(h)))
        # H must never connect different charge blocks
        for a in range(len(basis)):
            for b in range(len(basis)):
                if charges[a] != charges[b]:
                    assert h[a, b] == 0.0

    def test_mode_imbalance_commutes_with_hamiltonian(self):
        # two modes: both the collective charge and the imbalance l_1 must
        # commute with H on the truncated space
        model = ModelSpec(M=2, r=1, s=1, k=(1, 2), w=(0.8, 1.1),
                          g_prime=0.5, g=0.7)
        j = Fraction(1)
        basis, h = dense_fock_hamiltonian(model, j, 4)
        shape = ModelSpec(M=2, r=1, s=1, k=(1, 2), w=(0.0, 0.0),
                          g_prime=0.0, g=0.0)
        charges = [sector_from_reference(shape, j, ReferenceState(mu, ns))
                   for mu, ns in basis]
        scale = max(1.0, np.max(np.abs(h)))
        for diag in (
            np.diag([float(c.kappa) for c in charges]),
            np.diag([float(c.l[0]) for c in charges]),
        ):
            comm = h @ diag - diag @ h
            assert np.max(np.abs(comm)) <= 1e-10 * scale


@settings(max_examples=25, deadline=None)
@given(two_j=st.integers(0, 8), g=st.floats(0.1, 2.0), gp=st.floats(-2.0, 2.0))
def test_sector_union_covers_full_spin_space(two_j, g, gp):
    model = ModelSpec(M=0, r=2, s=1, k=(), w=(), g_prime=gp, g=g)
    j = Fraction(two_j, 2)
    sector_energies = np.sort(np.concatenate([
        jacobi_eigen(sector_matrices(model, sec).H)
        for sec in enumerate_sectors(model, j)
    ]))
    fock_energies = np.sort(np.concatenate([
        jacobi_eigen(blk.H) for blk in fock_oracle(model, j, 0)
    ]))
    assert sector_energies.size == two_j + 1
    np.testing.assert_allclose(sector_energies, fock_energies,
                               rtol=1e-8, atol=1e-8)
