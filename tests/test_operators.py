from fractions import Fraction
from math import factorial

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from spinboson.model import ModelSpec, ReferenceState, sector_from_reference
from spinboson.operators import (
    EulerOperator,
    apply_to_monomials,
    build_hamiltonian_operator,
    extract_polynomials,
    hamiltonian_order,
    poly_eval,
    poly_trim,
)

Z = EulerOperator.z_poly


def D(order: int = 1) -> EulerOperator:
    """(d/dz)^order."""
    return EulerOperator({order: [1.0]})


def apply_to_coeffs(op: EulerOperator, coeffs) -> np.ndarray:
    """Coefficients of (op psi) given the coefficients of psi, term by term
    in op.terms order."""
    c = np.asarray(coeffs)
    n_in = c.size
    out_len = n_in + max((p.size - 1 - d for d, p in op.terms.items()), default=0)
    out = np.zeros(max(out_len, 1), dtype=np.result_type(c, float))
    for d, pd in op.terms.items():
        for n in range(d, n_in):
            if c[n] == 0:
                continue
            fall = factorial(n) // factorial(n - d)
            base = n - d
            out[base : base + pd.size] += c[n] * fall * pd
    return out


def allclose(a: EulerOperator, b: EulerOperator) -> bool:
    """Whether every coefficient polynomial of a and b agrees to 1e-10 times
    their largest coefficient (at least 1)."""
    scale = max(a.max_abs_coeff(), b.max_abs_coeff(), 1.0)
    for d in set(a.terms) | set(b.terms):
        pa, pb = a.coefficient(d), b.coefficient(d)
        n = max(pa.size, pb.size)
        if np.max(np.abs(np.pad(pa, (0, n - pa.size)) - np.pad(pb, (0, n - pb.size))),
                  initial=0.0) > 1e-10 * scale:
            return False
    return True


def act_on_monomial(op: EulerOperator, n: int) -> np.ndarray:
    basis = np.zeros(n + 1)
    basis[n] = 1.0
    return apply_to_coeffs(op, basis)


def ops_equal_on_monomials(a: EulerOperator, b: EulerOperator, n_max=8, tol=1e-12):
    for n in range(n_max + 1):
        va, vb = act_on_monomial(a, n), act_on_monomial(b, n)
        m = max(va.size, vb.size)
        pa, pb = np.zeros(m), np.zeros(m)
        pa[: va.size] = va
        pb[: vb.size] = vb
        scale_ = max(1.0, np.max(np.abs(pa)), np.max(np.abs(pb)))
        if np.max(np.abs(pa - pb)) > tol * scale_:
            return False
    return True


class TestCompose:
    def test_leibniz(self):
        assert allclose(D() @ Z([0, 1]), EulerOperator({0: [1.0], 1: [0.0, 1.0]}))

    def test_euler_square(self):
        zd = Z([0, 1]) @ D()
        assert allclose(zd @ zd, EulerOperator({1: [0.0, 1.0], 2: [0.0, 0.0, 1.0]}))

    def test_higher_order(self):
        lhs = EulerOperator({2: [0, 0, 1]}) @ EulerOperator({1: [0, 1]})
        expected = EulerOperator({3: [0, 0, 0, 1.0], 2: [0, 0, 2.0]})
        # oracle: both sides act identically on monomials
        assert ops_equal_on_monomials(lhs, expected, n_max=3)
        assert allclose(lhs, expected)

    def test_associativity_on_sample(self):
        a = EulerOperator({0: [0.5, 1.0], 2: [0, 0, 2.0]})
        b = EulerOperator({1: [1.0, 0, -1.0]})
        c = EulerOperator({0: [0, 1.0], 1: [2.0]})
        assert allclose((a @ b) @ c, a @ (b @ c))


class TestAddScale:
    def test_add_cancels(self):
        zd = EulerOperator({1: [0, 1]})
        assert allclose(zd + (-1.0) * zd, EulerOperator.zero())

    def test_scale_zero(self):
        assert allclose(0.0 * EulerOperator({2: [1, 2, 3]}), EulerOperator.zero())

    def test_commutator_of_d_and_z_is_identity(self):
        got = D() @ Z([0, 1]) + (-1.0) * (Z([0, 1]) @ D())
        assert allclose(got, EulerOperator.identity())


@st.composite
def random_operator(draw):
    terms = {}
    for d in range(draw(st.integers(0, 3)) + 1):
        deg = draw(st.integers(0, 3))
        coeffs = [draw(st.integers(-4, 4)) for _ in range(deg + 1)]
        if any(coeffs):
            terms[d] = coeffs
    return EulerOperator(terms)


@settings(max_examples=60, deadline=None)
@given(a=random_operator(), b=random_operator(), n=st.integers(0, 8))
def test_compose_matches_sequential_action(a, b, n):
    basis = np.zeros(n + 1)
    basis[n] = 1.0
    via_compose = apply_to_coeffs(a @ b, basis)
    via_steps = apply_to_coeffs(a, apply_to_coeffs(b, basis))
    m = max(via_compose.size, via_steps.size)
    pa, pb = np.zeros(m), np.zeros(m)
    pa[: via_compose.size] = via_compose
    pb[: via_steps.size] = via_steps
    assert np.max(np.abs(pa - pb)) <= 1e-12 * max(1.0, np.max(np.abs(pb)))


def test_divide_by_z_requires_vanishing_constant():
    ok = EulerOperator({0: [0.0, 2.0], 1: [0.0, 0.0, 3.0]})
    divided = ok.divide_by_z()
    assert allclose(divided, EulerOperator({0: [2.0], 1: [0.0, 3.0]}))
    with pytest.raises(ValueError, match="remainder"):
        EulerOperator({0: [1.0, 2.0]}).divide_by_z()


# ---------------------------------------------------------------------------
# assembled sector Hamiltonians
# ---------------------------------------------------------------------------

def pure_spin_model(r, s, gp, g):
    return ModelSpec(M=0, r=r, s=s, k=(), w=(), g_prime=gp, g=g)


def pure_spin_sector(model, j, mu=None):
    mu = -j if mu is None else mu
    return sector_from_reference(model, j, ReferenceState(mu))


class TestBuildHamiltonian:
    def test_two_site_shape(self):
        # M=0, r=1, s=2: P2 = g'z^2, P1 = g'(1-2j)z + g(1 - z^2),
        # P0 = g'j^2 + 2jgz (raising-sign corrected)
        gp, g = 0.7, 0.4
        model = pure_spin_model(1, 2, gp, g)
        for two_j in (1, 2, 3, 5):
            j = Fraction(two_j, 2)
            sec = pure_spin_sector(model, j)
            p0, p1, p2 = extract_polynomials(build_hamiltonian_operator(model, sec))
            jf = float(j)
            np.testing.assert_allclose(p2, [0, 0, gp], atol=1e-14)
            np.testing.assert_allclose(p1, [g, gp * (1 - 2 * jf), -g], atol=1e-14)
            np.testing.assert_allclose(p0, [gp * jf**2, 2 * jf * g], atol=1e-14)

    def test_collective_spin_shape(self):
        # M=0, r=2, s=1: published polynomials hold as printed
        gp, g = 1.1, 0.6
        model = pure_spin_model(2, 1, gp, g)
        j = Fraction(5, 2)
        for offset in (0, 1):
            sec = pure_spin_sector(model, j, mu=-j + offset)
            assert sec.p == offset
            p0, p1, p2 = extract_polynomials(build_hamiltonian_operator(model, sec))
            jf, pf = float(j), float(sec.p)
            np.testing.assert_allclose(p2, [0, 4 * g, 0, 4 * g], atol=1e-13)
            np.testing.assert_allclose(
                p1, [g * (2 + 4 * pf), 2 * gp, g * (6 + 4 * pf - 8 * jf)],
                atol=1e-13)
            np.testing.assert_allclose(
                p0, [gp * (pf - jf), g * (2 * jf - pf) * (2 * jf - pf - 1)],
                atol=1e-13)

    def test_two_mode_leading_orders(self):
        model = ModelSpec(M=2, r=1, s=1, k=(1, 1), w=(0.9, 1.3),
                          g_prime=0.4, g=0.6)
        j = Fraction(3, 2)
        sec = sector_from_reference(model, j, ReferenceState(Fraction(-3, 2), (2, 3)))
        polys = extract_polynomials(build_hamiltonian_operator(model, sec))
        assert len(polys) == 4
        kappa = float(sec.kappa)
        jf = float(j)
        np.testing.assert_allclose(polys[3], [0, 0, 0, 0, -model.g], atol=1e-13)
        np.testing.assert_allclose(
            polys[2], [0, 0, 0, model.g * (3 * kappa + 4 * jf - 5)], atol=1e-12)

    def test_operator_order(self):
        cases = [
            (ModelSpec(M=0, r=1, s=2, k=(), w=(), g_prime=1, g=1), 2),
            (ModelSpec(M=1, r=1, s=1, k=(2,), w=(1.0,), g_prime=1, g=1), 3),
            (ModelSpec(M=1, r=2, s=5, k=(1,), w=(1.0,), g_prime=1, g=1), 5),
            (ModelSpec(M=2, r=2, s=1, k=(3, 1), w=(1.0, 1.0), g_prime=1, g=1), 6),
        ]
        for model, expected in cases:
            assert hamiltonian_order(model) == expected
            j = Fraction(4)
            ns = tuple(6 for _ in range(model.M))
            sec = sector_from_reference(model, j, ReferenceState(-j, ns))
            h = build_hamiltonian_operator(model, sec)
            assert h.order == expected

    def test_degree_bound(self):
        model = ModelSpec(M=2, r=2, s=3, k=(2, 1), w=(0.5, 1.5),
                          g_prime=-0.8, g=1.2)
        sec = sector_from_reference(model, Fraction(3),
                                    ReferenceState(Fraction(-2), (4, 3)))
        h = build_hamiltonian_operator(model, sec)
        for d, poly in h.terms.items():
            assert poly.size - 1 <= d + 1


class TestExtractPolynomials:
    def test_euler_operator(self):
        polys = extract_polynomials(EulerOperator({1: [0, 1]}))
        assert polys[0].size == 0
        np.testing.assert_allclose(polys[1], [0, 1])

    def test_reassembly_roundtrip(self):
        model = pure_spin_model(2, 2, 0.3, 0.9)
        sec = pure_spin_sector(model, Fraction(2))
        h = build_hamiltonian_operator(model, sec)
        rebuilt = EulerOperator(
            {d: p for d, p in enumerate(extract_polynomials(h)) if p.size})
        assert allclose(rebuilt, h)


class TestApplyToMonomials:
    def test_euler_diagonal(self):
        mat = apply_to_monomials(EulerOperator({1: [0, 1]}), 2)
        np.testing.assert_allclose(mat, np.diag([0.0, 1.0, 2.0, 0.0])[:, :3])

    def test_invariant_subspace_overflow_vanishes(self):
        model = pure_spin_model(1, 2, 0.7, 0.4)
        for two_j in range(1, 9):
            sec = pure_spin_sector(model, Fraction(two_j, 2))
            mat = apply_to_monomials(build_hamiltonian_operator(model, sec),
                                     sec.n_top)
            assert abs(mat[-1, -1]) <= 1e-12 * max(1.0, np.max(np.abs(mat)))

    def test_raising_coefficients_match_closed_product(self):
        # the z^(n+1) coefficient of H z^n is exactly the raising amplitude
        # g prod_i (2j - p - i + 1 - rn) prod_i prod_v k_i (A_i + q_i - n - ...)
        # since no other part of H raises the degree
        model = ModelSpec(M=1, r=2, s=1, k=(2,), w=(0.8,), g_prime=0.5, g=0.7)
        j = Fraction(5, 2)
        sec = sector_from_reference(model, j, ReferenceState(Fraction(-5, 2), (7,)))
        assert sec.n_top >= 2
        mat = apply_to_monomials(build_hamiltonian_operator(model, sec), sec.n_top)
        for n in range(sec.n_top + 1):
            prod = Fraction(1)
            for i in range(1, model.r + 1):
                prod *= 2 * j - sec.p - i + 1 - model.r * n
            for ki, qi, ai in zip(model.k, sec.q, sec.A):
                for v in range(1, ki + 1):
                    prod *= ki * (ai + qi - n - Fraction((v - 1) * ki + 1, ki * ki))
            expected = model.g * float(prod)
            tol = 1e-12 * max(1.0, np.max(np.abs(mat)))
            assert abs(mat[n + 1, n] - expected) <= tol
        assert abs(mat[sec.n_top + 1, sec.n_top]) <= 1e-12 * np.max(np.abs(mat))

    def test_equals_column_by_column_action(self):
        # the direct build accumulates the terms in h.terms order, as
        # apply_to_coeffs does column by column: the matrices agree bit for bit
        rng = np.random.default_rng(11)
        for _ in range(40):
            M = int(rng.integers(0, 3))
            model = ModelSpec(M=M, r=int(rng.integers(1, 3)), s=int(rng.integers(1, 3)),
                              k=tuple(int(x) for x in rng.integers(1, 3, M)),
                              w=tuple(rng.uniform(-2, 2, M)),
                              g_prime=float(rng.uniform(-2, 2)),
                              g=float(rng.uniform(-2, 2)),
                              constant_shift=float(rng.uniform(-1, 1)))
            j = Fraction(int(rng.integers(1, 9)), 2)
            sec = sector_from_reference(model, j, ReferenceState(-j, (3,) * M))
            h = build_hamiltonian_operator(model, sec)
            for n_top in (sec.n_top, sec.n_top + 2):
                want = np.zeros((n_top + 2, n_top + 1))
                for n in range(n_top + 1):
                    col = act_on_monomial(h, n)
                    want[: min(col.size, n_top + 2), n] = col[: n_top + 2]
                assert np.array_equal(apply_to_monomials(h, n_top), want)

    def test_degree_bound_violation_names_the_column(self):
        op = EulerOperator({2: [1.0, 0.0, 0.0, 0.0, 2.0], 0: [1.0]})
        np.testing.assert_array_equal(apply_to_monomials(op, 1),
                                      [[1.0, 0.0], [0.0, 1.0], [0.0, 0.0]])
        with pytest.raises(ValueError, match=r"action on z\^3 exceeds degree 4"):
            apply_to_monomials(op, 3)


def test_poly_helpers():
    assert poly_trim([0.0, 0.0]).size == 0
    np.testing.assert_allclose(poly_trim([1.0, 2.0, 0.0]), [1.0, 2.0])
    assert poly_eval([1.0, 2.0, 3.0], 2.0) == pytest.approx(17.0)
    assert poly_eval(np.zeros(0), 5.0) == 0.0
