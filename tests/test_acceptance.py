"""Acceptance battery: every headline criterion at its stated tolerance.

Run with  pytest tests/test_acceptance.py -v -s  to see one PASS/FAIL line
per criterion (the same battery backs `spinboson verify`).
"""

import time

import pytest

from spinboson import verify
from spinboson.config import DEFAULT_TOLS

N_DRAWS = 10


@pytest.fixture(scope="module")
def sweep():
    start = time.perf_counter()
    data = verify._sweep_presets(verify.DEFAULT_SEED, N_DRAWS, DEFAULT_TOLS)
    data["elapsed"] = time.perf_counter() - start
    return data


def _report(result):
    print()
    print(result.line())
    assert result.passed, result.detail


def test_oracle_equivalence(sweep):
    result = verify.check_oracle_equivalence(sweep, n_draws=N_DRAWS)
    result.elapsed = sweep["elapsed"]
    _report(result)
    assert sweep["elapsed"] < 60.0, (
        f"preset sweep took {sweep['elapsed']:.1f}s, target is < 60 s")


def test_bae_certificate(sweep):
    _report(verify.check_bae_certificate(sweep))


def test_algebra_identities():
    _report(verify.check_algebra_identities(n_cases=100))


def test_invariant_subspace():
    _report(verify.check_invariant_subspace(n_cases=100))


def test_branching_rule():
    _report(verify.check_branching_rule())


def test_published_formula_regression():
    _report(verify.check_published_regression())


def test_rotor_cross_check():
    _report(verify.check_rotor_cross())


def test_liouville_constancy():
    _report(verify.check_liouville_constancy())
