import copy
import dataclasses
import pickle
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from spinboson.model import (
    ModelSpec,
    _sector_labels,
    ReferenceState,
    SectorLabels,
    boson_occupations,
    enumerate_sectors,
    format_rational,
    lambda_of,
    parse_rational,
    sector_dimension,
    sector_from_reference,
    sector_to_dict,
    validate_model,
)
from spinboson.representation import _grouped_basis


def tc_model(w=1.0, gp=0.5, g=0.1):
    return ModelSpec(M=1, r=1, s=1, k=(1,), w=(w,), g_prime=gp, g=g)


class TestValidateModel:
    def test_tavis_cummings_shape_accepted(self):
        spec = tc_model()
        assert validate_model(spec) is spec

    def test_length_mismatch_rejected(self):
        bad = ModelSpec(M=2, r=1, s=1, k=(1,), w=(1.0, 2.0), g_prime=1.0, g=0.1)
        with pytest.raises(ValueError, match="M=2"):
            validate_model(bad)

    def test_pure_spin_model_accepted(self):
        spec = ModelSpec(M=0, r=2, s=1, k=(), w=(), g_prime=1.0, g=0.2)
        assert validate_model(spec) is spec

    @pytest.mark.parametrize("field,value", [("r", 0), ("s", 0), ("M", -1)])
    def test_nonpositive_integers_rejected(self, field, value):
        kwargs = dict(M=0, r=1, s=1, k=(), w=(), g_prime=1.0, g=0.1)
        kwargs[field] = value
        with pytest.raises(ValueError):
            validate_model(ModelSpec(**kwargs))

    @pytest.mark.parametrize("field", ["w", "g_prime", "g", "constant_shift"])
    @pytest.mark.parametrize("value", [float("nan"), float("inf"), -float("inf")])
    def test_non_finite_couplings_rejected(self, field, value):
        kwargs = dict(M=1, r=1, s=1, k=(1,), w=(1.0,), g_prime=1.0, g=0.1)
        kwargs[field] = (value,) if field == "w" else value
        with pytest.raises(ValueError, match="finite"):
            validate_model(ModelSpec(**kwargs))

    def test_bad_packet_size_rejected(self):
        with pytest.raises(ValueError, match="k\\[0\\]"):
            validate_model(ModelSpec(M=1, r=1, s=1, k=(0,), w=(1.0,),
                                     g_prime=1.0, g=0.1))


class TestLambdaOf:
    def test_r_one_forces_zero(self):
        assert lambda_of(Fraction(1), 0, 1) == 0

    def test_half_integer_spin(self):
        assert lambda_of(Fraction(3, 2), 0, 2) == 1

    def test_matches_brute_force_search(self):
        # independent oracle: the unique offset with integral ladder length
        for two_j in range(0, 13):
            j = Fraction(two_j, 2)
            for r in range(1, 5):
                for p in range(0, min(r - 1, two_j) + 1):
                    candidates = [
                        lam for lam in range(r)
                        if lam <= two_j and (two_j - p - lam) % r == 0
                        and (two_j - p - lam) >= 0
                    ]
                    assert len(candidates) == 1
                    assert lambda_of(j, p, r) == candidates[0]

    def test_p_out_of_range(self):
        with pytest.raises(ValueError):
            lambda_of(Fraction(1), 2, 2)


class TestSectorFromReference:
    def test_single_mode_two_quanta(self):
        sec = sector_from_reference(tc_model(), Fraction(1),
                                    ReferenceState(Fraction(-1), (2,)))
        assert sec.p == 0
        assert sec.q == (Fraction(1),)
        assert sec.kappa == Fraction(1)
        assert sec.A == (Fraction(2),)
        assert sec.dim == 3

    def test_single_mode_vacuum(self):
        sec = sector_from_reference(tc_model(), Fraction(1, 2),
                                    ReferenceState(Fraction(-1, 2), (0,)))
        assert sec.kappa == Fraction(1, 4)
        assert sec.A == (Fraction(0),)
        assert sec.dim == 1

    def test_pure_spin_lowest_weight(self):
        model = ModelSpec(M=0, r=1, s=2, k=(), w=(), g_prime=1.0, g=0.3)
        sec = sector_from_reference(model, Fraction(3, 2),
                                    ReferenceState(Fraction(-3, 2)))
        assert (sec.p, sec.kappa, sec.n_top) == (0, Fraction(0), 3)

    def test_mu_out_of_range(self):
        with pytest.raises(ValueError):
            sector_from_reference(tc_model(), Fraction(1),
                                  ReferenceState(Fraction(2), (0,)))
        with pytest.raises(ValueError):
            sector_from_reference(tc_model(), Fraction(1),
                                  ReferenceState(Fraction(-1, 2), (0,)))

    def test_wrong_mode_count(self):
        with pytest.raises(ValueError):
            sector_from_reference(tc_model(), Fraction(1),
                                  ReferenceState(Fraction(-1), (1, 1)))


class TestSectorDimension:
    def test_pure_spin_ladder(self):
        model = ModelSpec(M=0, r=2, s=1, k=(), w=(), g_prime=1.0, g=0.1)
        assert sector_dimension(model, Fraction(2), 0, 0, ()) == 3

    def test_boson_tower_caps_the_ladder(self):
        assert sector_dimension(tc_model(), Fraction(1, 2), 0, 0, (Fraction(1),)) == 2

    def test_degenerate_block(self):
        model = ModelSpec(M=0, r=3, s=1, k=(), w=(), g_prime=1.0, g=0.1)
        assert sector_dimension(model, Fraction(1), 1, 1, ()) == 1

    def test_min_over_all_modes(self):
        model = ModelSpec(M=2, r=1, s=1, k=(1, 1), w=(1.0, 1.0),
                          g_prime=1.0, g=0.1)
        dims = sector_dimension(model, Fraction(2), 0, 0,
                                (Fraction(1), Fraction(7)))
        assert dims == 2  # first mode runs out after one rung


class TestEnumerateSectors:
    def test_pure_spin_branching(self):
        model = ModelSpec(M=0, r=2, s=1, k=(), w=(), g_prime=1.0, g=0.1)
        secs = enumerate_sectors(model, Fraction(1))
        assert [(s.p, s.dim) for s in secs] == [(0, 2), (1, 1)]
        assert sum(s.dim for s in secs) == 3

    def test_single_mode_vacuum_cap(self):
        secs = enumerate_sectors(tc_model(), Fraction(1, 2), 0)
        assert [(s.kappa, s.dim) for s in secs] == [
            (Fraction(1, 4), 1), (Fraction(3, 4), 2)]

    def test_cap_irrelevant_without_modes(self):
        model = ModelSpec(M=0, r=3, s=1, k=(), w=(), g_prime=1.0, g=0.1)
        assert enumerate_sectors(model, Fraction(3), 0) == \
            enumerate_sectors(model, Fraction(3), 7)

    def test_deterministic_order(self):
        secs = enumerate_sectors(tc_model(), Fraction(3, 2), 4)
        assert secs == sorted(secs)


def test_labels_built_apart_hash_and_compare_equal():
    # the labels keep their field hash outside the fields: equal labels
    # built separately still hash alike, and dataclass views are unchanged
    model = ModelSpec(M=2, r=1, s=1, k=(1, 2), w=(1.0, 0.5), g_prime=0.5, g=0.1)
    ref = ReferenceState(Fraction(-1, 2), (2, 3))
    a = sector_from_reference(model, Fraction(3, 2), ref)
    b = sector_from_reference(model, Fraction(3, 2), ref)
    c = SectorLabels(**dataclasses.asdict(a))
    assert a is not b and a == b == c
    fields = tuple(getattr(a, f.name) for f in dataclasses.fields(a))
    assert hash(a) == hash(b) == hash(c) == hash(fields)
    assert len({a, b, c}) == 1 and {a: 1}[c] == 1
    assert list(dataclasses.asdict(a)) == [f.name for f in dataclasses.fields(a)]
    assert dataclasses.astuple(a) == fields
    # pickles and copies carry only the fields
    assert pickle.dumps(a) == pickle.dumps(SectorLabels(**dataclasses.asdict(a)))
    for other in (pickle.loads(pickle.dumps(a)), copy.copy(a), copy.deepcopy(a)):
        assert other == a and hash(other) == hash(a)
        assert not (other < a or a < other)


def recursive_simplex(modes, budget):
    """The per-module recursive generator enumerate_sectors used to run:
    occupations with sum <= budget, in lexicographic order."""
    if modes == 0:
        yield ()
        return
    for head in range(budget + 1):
        for tail in recursive_simplex(modes - 1, budget - head):
            yield (head,) + tail


def recursive_grid(modes, cap):
    """The recursive generator the Fock oracle's basis used to run: every
    occupation with each n_i <= cap, in lexicographic order."""
    if modes == 0:
        yield ()
        return
    for head in range(cap + 1):
        for tail in recursive_grid(modes - 1, cap):
            yield (head,) + tail


@pytest.mark.parametrize("M", [0, 1, 2, 3])
def test_one_occupation_generator_equals_the_recursive_ones(M):
    for r, k, two_j, cap in [(1, (1, 2, 1), 3, 3), (2, (2, 1, 3), 4, 2),
                             (3, (1, 1, 2), 5, 4)]:
        shape = ModelSpec(M=M, r=r, s=1, k=k[:M], w=(0.0,) * M,
                          g_prime=0.0, g=0.0)
        j = Fraction(two_j, 2)
        labels = {_sector_labels(shape, j, t, ns)
                  for t in range(two_j + 1) for ns in recursive_simplex(M, cap)}
        assert enumerate_sectors(shape, j, cap) == sorted(labels)

        groups = {}
        for t in range(two_j + 1):
            mu = Fraction(t) - j
            for ns in recursive_grid(M, cap):
                sec = sector_from_reference(shape, j, ReferenceState(mu, ns))
                groups.setdefault(sec, []).append((mu, ns))
        want = tuple((sec, tuple(sorted(groups[sec], key=lambda st: st[0])))
                     for sec in sorted(groups))
        assert tuple((labels, states) for labels, states, _
                     in _grouped_basis(M, r, k[:M], j, cap)) == want


@settings(max_examples=60, deadline=None)
@given(n=st.integers(min_value=0, max_value=10_000),
       k=st.integers(min_value=1, max_value=9))
def test_occupation_splitting_roundtrip(n, k):
    # q/m bookkeeping must reconstruct the occupation exactly
    rho = n % k
    q = Fraction(rho * k + 1, k * k)
    m = n // k
    assert k * (m + q - Fraction(1, k * k)) == n
    assert q in [Fraction(c * k + 1, k * k) for c in range(k)]


@st.composite
def model_j_reference(draw):
    M = draw(st.integers(0, 2))
    r = draw(st.integers(1, 3))
    s = draw(st.integers(1, 3))
    k = tuple(draw(st.integers(1, 3)) for _ in range(M))
    model = ModelSpec(M=M, r=r, s=s, k=k, w=(1.0,) * M, g_prime=0.7, g=0.4)
    two_j = draw(st.integers(0, 10))
    j = Fraction(two_j, 2)
    t = draw(st.integers(0, two_j))
    ns = tuple(draw(st.integers(0, 8)) for _ in range(M))
    return model, j, ReferenceState(Fraction(t) - j, ns)


@settings(max_examples=80, deadline=None)
@given(case=model_j_reference())
def test_labels_constant_on_coupling_orbit(case):
    model, j, ref = case
    sec = sector_from_reference(model, j, ref)
    mu2 = ref.mu + model.r
    ns2 = tuple(n - k for n, k in zip(ref.n_bosons, model.k))
    if mu2 > j or any(n < 0 for n in ns2):
        return
    assert sector_from_reference(model, j, ReferenceState(mu2, ns2)) == sec


@settings(max_examples=80, deadline=None)
@given(case=model_j_reference())
def test_sector_invariants(case):
    model, j, ref = case
    sec = sector_from_reference(model, j, ref)
    spin_len = (2 * j - sec.p - sec.lam) / model.r
    assert spin_len.denominator == 1 and spin_len >= 0
    for a in sec.A:
        assert a.denominator == 1 and a >= 0
    for qi, ki in zip(sec.q, model.k):
        assert qi in [Fraction(c * ki + 1, ki * ki) for c in range(ki)]


@settings(max_examples=40, deadline=None)
@given(two_j=st.integers(0, 12), r=st.integers(1, 4))
def test_branching_rule_property(two_j, r):
    model = ModelSpec(M=0, r=r, s=1, k=(), w=(), g_prime=1.0, g=0.1)
    secs = enumerate_sectors(model, Fraction(two_j, 2))
    assert sum(s.dim for s in secs) == two_j + 1


@pytest.mark.parametrize("text,expected", [
    ("3/2", Fraction(3, 2)),
    ("-3/2", Fraction(-3, 2)),
    ("4", Fraction(4)),
    (5, Fraction(5)),
])
def test_parse_rational(text, expected):
    assert parse_rational(text) == expected


@pytest.mark.parametrize("text", ["1/0", "abc", "1/3/2", "1.5"])
def test_parse_rational_rejects_malformed_text(text):
    # a parse failure is a ValueError, never a ZeroDivisionError
    with pytest.raises(ValueError):
        parse_rational(text)


def test_format_rational_roundtrip():
    for x in (Fraction(3, 2), Fraction(-7, 4), Fraction(5), Fraction(0)):
        assert parse_rational(format_rational(x)) == x


def test_sector_to_dict_uses_exact_strings():
    sec = sector_from_reference(tc_model(), Fraction(1, 2),
                                ReferenceState(Fraction(1, 2), (0,)))
    d = sector_to_dict(sec)
    assert d["j"] == "1/2"
    assert d["kappa"] == "3/4"
    assert d["q"] == [1]
    assert d["dim"] == 2


def test_boson_occupations_only_at_the_sector_levels():
    # the j = 1/2 sector of |mu = -1/2, n = 5> has the two levels 0 and 1
    model = ModelSpec(M=1, r=1, s=1, k=(1,), w=(1.0,), g_prime=0.3, g=0.1)
    sec = sector_from_reference(model, Fraction(1, 2),
                                ReferenceState(Fraction(-1, 2), (5,)))
    assert sec.dim == 2
    assert [boson_occupations(model, sec, n) for n in range(2)] == [(5,), (4,)]
    for n in (-1, 2, 3, 4):
        with pytest.raises(ValueError, match=f"level n={n}"):
            boson_occupations(model, sec, n)
