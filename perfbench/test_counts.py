"""The traced run's computed counts repeat exactly for a fixed seed.

Run with  python3 -m pytest perfbench  from the repository root.
"""

import pytest

import run

assert run.use_checkout_source(), "no spinboson package under src/"

from spans import Tracer  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

SEED = 20240817
# operations per workload: enough to reach every layer the workload uses
N_OPS = {"sweep": 1, "spectrum": 12, "large_sector": 12}
COMPUTED = ("linalg.jacobi_eigen.n3_sum", "representation.fock_oracle.elements",
            "operators.builds_per_sector",
            "representation.sector_matrices_per_sector", "linalg.roots_per_state")


def traced_counts(name: str) -> dict:
    run.warm_up(WORKLOADS[name], SEED)
    tracer = Tracer()
    tracer.install()
    try:
        res = run.run_pass(WORKLOADS[name], SEED, 0.0, tracer, max_ops=N_OPS[name])
    finally:
        tracer.uninstall()
    metrics = run.per_layer(tracer.summary(), res, res)
    return {key: value for key, (value, _) in metrics.items()
            if key.endswith(".calls") or key in COMPUTED}


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_counts_repeat(name):
    first = traced_counts(name)
    assert first["bethe.solve_sector.calls"] > 0
    assert traced_counts(name) == first


def test_uninstall_restores_functions():
    from spinboson import bethe, verify

    original = bethe.solve_sector
    tracer = Tracer()
    tracer.install()
    assert verify.solve_sector is not original
    tracer.uninstall()
    assert bethe.solve_sector is original and verify.solve_sector is original
