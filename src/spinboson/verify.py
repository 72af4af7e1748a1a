"""Standalone verification suite.

Each function here implements one acceptance-style check and returns a
CheckResult; run_verification executes the whole battery.  The same code
backs `spinboson verify` and the pytest acceptance module, so a single
command reproduces every headline claim:

  1. oracle equivalence     root-recovery energies == sector diagonalization
                            == complete Fock-block diagonalization
  2. residual certificate   coupled root equations vanish at recovered roots
  3. algebra identities     ladder commutators hold as matrix identities
  4. invariant subspace     the degree-N overflow coefficient vanishes
  5. branching rule         pure-spin sector dimensions tile 2j+1
  6. published regression   printed polynomials / energies (errata applied)
  7. rotor cross-check      sector spectra == direct a Jx^2 + b Jy^2 + c Jz^2
  8. constancy of (H psi)/psi off the roots
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .bethe import (
    energy_from_roots,
    liouville_ratio,
    residual_scale,
    root_scale,
    solve_sector,
)
from .config import DEFAULT_TOLS, Tolerances
from .linalg import jacobi_eigen
from .model import (
    ModelSpec,
    ReferenceState,
    enumerate_sectors,
    level_occupations,
    sector_from_reference,
)
from .operators import (
    apply_to_monomials,
    build_hamiltonian_operator,
    extract_polynomials,
    hamiltonian_order,
    monomial_action,
)
from .presets import (
    DEFAULT_GRIDS,
    ERRATA,
    PRESET_NAMES,
    model_for_j,
    preset,
    published_energy,
    published_polynomials,
    random_couplings,
    random_params,
)
from .representation import check_algebra, fock_oracle

N_TOP_LIMIT = 12
DEFAULT_SEED = 20240817


@dataclass
class CheckResult:
    name: str
    passed: bool
    detail: str
    elapsed: float = 0.0

    def line(self) -> str:
        status = "PASS" if self.passed else "FAIL"
        return f"{status}  {self.name}: {self.detail} [{self.elapsed:.1f}s]"


def multiset_close(x: np.ndarray, y: np.ndarray, rtol: float) -> float:
    """Max deviation between sorted spectra, scaled; inf on size mismatch."""
    x = np.sort(np.asarray(x, dtype=float))
    y = np.sort(np.asarray(y, dtype=float))
    if x.size != y.size:
        return float("inf")
    if x.size == 0:
        return 0.0
    scale = max(1.0, float(np.max(np.abs(x))), float(np.max(np.abs(y))))
    return float(np.max(np.abs(x - y))) / scale


def _oracle_cap(model: ModelSpec, sectors) -> int:
    """Per-mode truncation covering every listed sector's largest occupation
    (each mode is fullest at ladder level 0)."""
    return max((max(level_occupations(model.k, sec)[0], default=0)
                for sec in sectors), default=0)


def _sweep_presets(seed: int, n_draws: int, tols: Tolerances):
    """Shared loop behind the oracle-equivalence and certificate checks."""
    rng = np.random.default_rng(seed)
    worst_match = 0.0
    worst_residual = 0.0
    n_sectors = 0
    n_states = 0
    n_degenerate = 0
    failures: list[str] = []

    for name in PRESET_NAMES:
        grid = DEFAULT_GRIDS[name]
        for _ in range(n_draws):
            params = random_params(name, rng)
            for j in grid.j_values:
                model = model_for_j(name, params, j)
                sectors = [
                    sec for sec in enumerate_sectors(model, j, grid.max_total_bosons)
                    if sec.n_top <= N_TOP_LIMIT
                ]
                blocks = {
                    blk.labels: blk
                    for blk in fock_oracle(model, j, _oracle_cap(model, sectors))
                } if model.M > 0 else {
                    blk.labels: blk for blk in fock_oracle(model, j, 0)
                }
                for sec in sectors:
                    n_sectors += 1
                    states = solve_sector(model, sec, tols=tols)
                    mono, polys = monomial_action(model, sec)
                    bethe = energy_from_roots(
                        model, sec, np.array([st.roots for st in states]),
                        mono=mono, tols=tols)
                    # solve_sector's energies are the sector eigenvalues
                    sector_eig = [st.energy for st in states]
                    block = blocks.get(sec)
                    if block is None:
                        failures.append(
                            f"match: {name} j={j}: no oracle block for {sec}")
                        continue
                    fock_eig = jacobi_eigen(block.H, tols.eigen).values
                    dev = max(multiset_close(bethe, sector_eig, tols.match),
                              multiset_close(bethe, fock_eig, tols.match))
                    worst_match = max(worst_match, dev)
                    if dev > tols.match:
                        failures.append(
                            f"match: {name} j={j} sector p={sec.p}: dev {dev:.2e}")
                    n_states += len(states)
                    live = [st for st in states if not st.degenerate_roots]
                    n_degenerate += len(states) - len(live)
                    if sec.n_top == 0 or not live:
                        continue
                    # max_residual per state: NaN unless every residual is finite
                    res = np.abs(np.array([st.bae_residuals for st in live]))
                    top = np.where(np.all(np.isfinite(res), axis=1),
                                   np.max(res, axis=1), np.nan)
                    scaled = top / residual_scale(
                        polys, np.array([st.roots for st in live]))
                    # a NaN scaled residual leaves worst_residual as it is
                    if not np.all(np.isnan(scaled)):
                        worst_residual = max(worst_residual,
                                             float(np.nanmax(scaled)))
                    for i in np.flatnonzero(scaled > tols.bae):
                        failures.append(
                            f"residual: {name} j={j} p={sec.p} state "
                            f"{live[i].eigen_index}: {scaled[i]:.2e}")
    return {
        "worst_match": worst_match,
        "worst_residual": worst_residual,
        "n_sectors": n_sectors,
        "n_states": n_states,
        "n_degenerate": n_degenerate,
        "failures": failures,
    }


def check_oracle_equivalence(
    data: dict,
    n_draws: int = 10,
    tols: Tolerances = DEFAULT_TOLS,
) -> CheckResult:
    """Verdict on the energies of a _sweep_presets(seed, n_draws, tols) dict."""
    match_fail = [f for f in data["failures"] if f.startswith("match:")]
    passed = not match_fail and data["worst_match"] <= tols.match
    detail = (f"{data['n_sectors']} sectors x {n_draws} draws, "
              f"worst deviation {data['worst_match']:.2e} (tol {tols.match:g})")
    if match_fail:
        detail += f"; first failure: {match_fail[0]}"
    return CheckResult("oracle equivalence", passed, detail)


def check_bae_certificate(
    data: dict,
    tols: Tolerances = DEFAULT_TOLS,
) -> CheckResult:
    """Verdict on the root certificates of a _sweep_presets dict."""
    frac = data["n_degenerate"] / max(data["n_states"], 1)
    res_fail = [f for f in data["failures"] if f.startswith("residual:")]
    passed = not res_fail and data["worst_residual"] <= tols.bae and frac < 0.02
    detail = (f"{data['n_states']} states, worst scaled residual "
              f"{data['worst_residual']:.2e} (tol {tols.bae:g}), "
              f"degenerate fraction {frac:.3%}")
    if res_fail:
        detail += f"; first failure: {res_fail[0]}"
    return CheckResult("root-equation certificate", passed, detail)


def _random_model_sector(rng: np.random.Generator):
    """One random family member plus a random sector with n_top <= 10."""
    while True:
        M = int(rng.integers(0, 3))
        r = int(rng.integers(1, 4))
        s = int(rng.integers(1, 4))
        k = tuple(int(rng.integers(1, 4)) for _ in range(M))
        model = ModelSpec(
            M=M, r=r, s=s, k=k,
            w=tuple(float(rng.uniform(0.1, 2.0) * rng.choice([-1, 1]))
                    for _ in range(M)),
            g_prime=float(rng.uniform(0.1, 2.0) * rng.choice([-1, 1])),
            g=float(rng.uniform(0.1, 2.0) * rng.choice([-1, 1])),
        )
        two_j = int(rng.integers(0, 13))
        j = Fraction(two_j, 2)
        mu = Fraction(int(rng.integers(0, two_j + 1))) - j
        ns = tuple(int(rng.integers(0, 7)) for _ in range(M))
        sector = sector_from_reference(model, j, ReferenceState(mu, ns))
        if sector.n_top <= 10:
            return model, sector


def check_algebra_identities(
    seed: int = DEFAULT_SEED,
    n_cases: int = 100,
    tols: Tolerances = DEFAULT_TOLS,
) -> CheckResult:
    start = time.perf_counter()
    rng = np.random.default_rng(seed + 1)
    worst = 0.0
    for _ in range(n_cases):
        model, sector = _random_model_sector(rng)
        worst = max(worst, check_algebra(model, sector).max_relative())
    passed = worst <= tols.algebra
    return CheckResult(
        "algebra identities", passed,
        f"{n_cases} random (model, sector) pairs, worst relative deviation "
        f"{worst:.2e} (tol {tols.algebra:g})",
        time.perf_counter() - start,
    )


def check_invariant_subspace(
    seed: int = DEFAULT_SEED,
    n_cases: int = 100,
    tols: Tolerances = DEFAULT_TOLS,
) -> CheckResult:
    start = time.perf_counter()
    rng = np.random.default_rng(seed + 2)
    worst = 0.0
    order_ok = True
    for _ in range(n_cases):
        model, sector = _random_model_sector(rng)
        h_op = build_hamiltonian_operator(model, sector)
        if h_op.order != hamiltonian_order(model):
            order_ok = False
        mono = apply_to_monomials(h_op, sector.n_top)
        scale = max(1.0, float(np.max(np.abs(mono))))
        worst = max(worst, abs(mono[-1, -1]) / scale)
    passed = worst <= tols.qes and order_ok
    return CheckResult(
        "invariant subspace", passed,
        f"{n_cases} random sectors, worst scaled overflow {worst:.2e} "
        f"(tol {tols.qes:g}); operator order "
        f"{'matches' if order_ok else 'MISMATCHES'} max(r + sum k, s)",
        time.perf_counter() - start,
    )


def check_branching_rule() -> CheckResult:
    start = time.perf_counter()
    bad = []
    for r in range(1, 5):
        model = ModelSpec(M=0, r=r, s=1, k=(), w=(), g_prime=1.0, g=1.0)
        for two_j in range(0, 13):
            j = Fraction(two_j, 2)
            total = sum(sec.dim for sec in enumerate_sectors(model, j))
            if total != two_j + 1:
                bad.append((r, j, total))
    return CheckResult(
        "branching rule", not bad,
        "sector dimensions tile 2j+1 exactly for r <= 4, j <= 6"
        + (f"; failures: {bad[:3]}" if bad else ""),
        time.perf_counter() - start,
    )


def check_published_regression(
    seed: int = DEFAULT_SEED,
    tols: Tolerances = DEFAULT_TOLS,
) -> CheckResult:
    start = time.perf_counter()
    rng = np.random.default_rng(seed + 3)
    worst_poly = 0.0
    worst_energy = 0.0
    failures: list[str] = []

    for name in PRESET_NAMES:
        grid = DEFAULT_GRIDS[name]
        for j in grid.j_values[: 8]:
            model = random_couplings(name, rng, j=j)
            for sec in enumerate_sectors(model, j, grid.max_total_bosons):
                if sec.n_top > N_TOP_LIMIT:
                    continue
                h_op = build_hamiltonian_operator(model, sec)
                built = extract_polynomials(h_op)
                mono = apply_to_monomials(h_op, sec.n_top)
                pub = published_polynomials(name, model, sec)
                if len(built) != len(pub):
                    failures.append(f"{name} j={j}: order mismatch")
                    continue
                scale = max(1.0, max(float(np.max(np.abs(p), initial=0.0))
                                     for p in built))
                for pa, pb in zip(built, pub):
                    n = max(pa.size, pb.size)
                    da = np.zeros(n)
                    db = np.zeros(n)
                    da[: pa.size] = pa
                    db[: pb.size] = pb
                    dev = float(np.max(np.abs(da - db), initial=0.0)) / scale
                    worst_poly = max(worst_poly, dev)
                    if dev > tols.published:
                        failures.append(f"{name} j={j} p={sec.p}: poly dev {dev:.2e}")
                for st in solve_sector(model, sec, tols=tols):
                    if st.degenerate_roots:
                        continue
                    e_pub = published_energy(name, model, sec, st.roots)
                    e_gen = energy_from_roots(model, sec, st.roots, mono=mono,
                                              tols=tols)
                    dev = abs(e_pub - e_gen) / max(1.0, abs(e_gen))
                    worst_energy = max(worst_energy, dev)
                    if dev > tols.energy_cross:
                        failures.append(f"{name} j={j}: energy dev {dev:.2e}")

    errata_lines = []
    errata_ok = True
    for erratum in ERRATA:
        printed, corrected = erratum.check()
        confirmed = printed > erratum.printed_min and corrected < erratum.corrected_max
        errata_ok &= confirmed
        errata_lines.append(
            f"{erratum.key}: printed fails at {printed:.1e}, "
            f"corrected passes at {corrected:.1e}"
        )
        if not confirmed:
            failures.append(f"erratum {erratum.key} not confirmed")

    passed = not failures and worst_poly <= tols.published and errata_ok
    detail = (f"worst poly dev {worst_poly:.2e} (tol {tols.published:g}), worst "
              f"energy dev {worst_energy:.2e} (tol {tols.energy_cross:g}); "
              f"{len(ERRATA)} errata confirmed")
    if failures:
        detail += f"; first failure: {failures[0]}"
    return CheckResult("published-formula regression", passed, detail,
                       time.perf_counter() - start)


def _direct_rotor_spectrum(a: float, b: float, c: float, j: Fraction) -> np.ndarray:
    """Eigenvalues of a Jx^2 + b Jy^2 + c Jz^2 built from raw ladder matrices."""
    dim = int(2 * j) + 1
    mvals = [float(Fraction(t) - j) for t in range(dim)]
    jplus = np.zeros((dim, dim))
    for t in range(dim - 1):
        m = Fraction(t) - j
        jplus[t + 1, t] = np.sqrt(float((j - m) * (j + m + 1)))
    jminus = jplus.T
    jx = (jplus + jminus) / 2.0
    jy_sq = -0.25 * (jplus - jminus) @ (jplus - jminus)
    jz = np.diag(mvals)
    h = a * jx @ jx + b * jy_sq + c * jz @ jz
    return jacobi_eigen(h).values


def check_rotor_cross(
    seed: int = DEFAULT_SEED,
    tols: Tolerances = DEFAULT_TOLS,
) -> CheckResult:
    start = time.perf_counter()
    rng = np.random.default_rng(seed + 4)
    worst = 0.0
    failures: list[str] = []

    # analytic j = 1 triple {a+b, b+c, a+c}
    a, b, c = 1.0, 2.0, 3.0
    j = Fraction(1)
    model = preset("rigid_rotor", {"a": a, "b": b, "c": c, "j": j})
    energies = sorted(
        e for sec in enumerate_sectors(model, j)
        for e in (st.energy for st in solve_sector(model, sec, tols=tols))
    )
    expected = sorted([a + b, b + c, a + c])
    dev = multiset_close(np.array(energies), np.array(expected), 1e-9)
    worst = max(worst, dev)
    if dev > 1e-9:
        failures.append(f"analytic j=1 triple deviates by {dev:.2e}")

    for _ in range(5):
        a, b, c = (float(rng.uniform(-2.0, 2.0)) for _ in range(3))
        for two_j in range(0, 11):
            j = Fraction(two_j, 2)
            model = preset("rigid_rotor", {"a": a, "b": b, "c": c, "j": j})
            energies = []
            for sec in enumerate_sectors(model, j):
                states = solve_sector(model, sec, tols=tols)
                if model.g == 0.0:
                    energies.extend(st.energy for st in states)
                    continue
                mono = monomial_action(model, sec)[0]
                energies.extend(
                    energy_from_roots(model, sec, st.roots, mono=mono, tols=tols)
                    for st in states)
            direct = _direct_rotor_spectrum(a, b, c, j)
            dev = multiset_close(np.array(energies), direct, 1e-9)
            worst = max(worst, dev)
            if dev > 1e-9:
                failures.append(f"(a,b,c)=({a:.2f},{b:.2f},{c:.2f}) j={j}: {dev:.2e}")

    passed = not failures
    detail = f"j <= 5, 5 random (a,b,c) + analytic triple; worst deviation {worst:.2e}"
    if failures:
        detail += f"; first failure: {failures[0]}"
    return CheckResult("rotor cross-check", passed, detail,
                       time.perf_counter() - start)


def check_liouville_constancy(
    seed: int = DEFAULT_SEED,
    n_states: int = 20,
    tols: Tolerances = DEFAULT_TOLS,
) -> CheckResult:
    start = time.perf_counter()
    rng = np.random.default_rng(seed + 5)
    worst = 0.0
    collected = 0
    while collected < n_states:
        name = str(rng.choice(PRESET_NAMES))
        grid = DEFAULT_GRIDS[name]
        j = grid.j_values[int(rng.integers(2, len(grid.j_values)))]
        model = random_couplings(name, rng, j=j)
        sectors = [s for s in enumerate_sectors(model, j, grid.max_total_bosons)
                   if 2 <= s.n_top <= N_TOP_LIMIT]
        if not sectors:
            continue
        sector = sectors[int(rng.integers(0, len(sectors)))]
        polys = monomial_action(model, sector)[1]
        for st in solve_sector(model, sector, tols=tols):
            if collected >= n_states or st.degenerate_roots or not st.verified:
                continue
            collected += 1
            zscale = root_scale(st.roots)
            values = []
            while len(values) < 5:
                z = complex(rng.uniform(-2, 2), rng.uniform(-2, 2)) * zscale
                if np.min(np.abs(z - st.roots)) < 0.3 * zscale:
                    continue
                values.append(liouville_ratio(polys, st.roots, z))
            values = np.array(values)
            spread = float(np.max(np.abs(values - st.energy)))
            worst = max(worst, spread / max(1.0, abs(st.energy)))
    passed = worst <= 1e-6
    return CheckResult(
        "constancy of (H psi)/psi", passed,
        f"{n_states} verified states x 5 sample points, worst relative spread "
        f"{worst:.2e} (tol 1e-06)",
        time.perf_counter() - start,
    )


def run_verification(
    seed: int = DEFAULT_SEED,
    tols: Tolerances = DEFAULT_TOLS,
    n_draws: int = 10,
) -> list[CheckResult]:
    """Run every check; shared preset sweep is computed once."""
    sweep_start = time.perf_counter()
    sweep = _sweep_presets(seed, n_draws, tols)
    sweep_time = time.perf_counter() - sweep_start
    results = [
        check_oracle_equivalence(sweep, n_draws, tols),
        check_bae_certificate(sweep, tols),
        check_algebra_identities(seed, tols=tols),
        check_invariant_subspace(seed, tols=tols),
        check_branching_rule(),
        check_published_regression(seed, tols),
        check_rotor_cross(seed, tols),
        check_liouville_constancy(seed, tols=tols),
    ]
    results[0].elapsed = sweep_time
    return results


def errata_report() -> list[dict]:
    """Registry contents with confirmation status, for reports."""
    out = []
    for erratum in ERRATA:
        printed, corrected = erratum.check()
        out.append({
            "key": erratum.key,
            "location": erratum.location,
            "printed": erratum.printed,
            "corrected": erratum.corrected,
            "printed_deviation": printed,
            "corrected_deviation": corrected,
            "confirmed": bool(printed > erratum.printed_min
                              and corrected < erratum.corrected_max),
        })
    return out
