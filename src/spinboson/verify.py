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
    BetheState,
    _energies_from_roots,
    _off_real,
    energy_from_roots,
    liouville_ratio,
    root_scale,
    solve_sector,
)
from .config import DEFAULT_TOLS, Tolerances
from .linalg import _eigen_stack, jacobi_eigen
from .model import (
    ModelSpec,
    ReferenceState,
    SectorLabels,
    enumerate_sectors,
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
    random_params,
)
from .representation import FockBlock, check_algebra, fock_oracle, sector_levels

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


def multiset_close(x: np.ndarray, y: np.ndarray) -> float | np.ndarray:
    """Max deviation between sorted spectra, scaled by
    max(1, max |x|, max |y|); inf on size mismatch.  x and y may also be
    rows, (..., n) and (..., m) arrays: each row of the result is what a
    call with those two rows alone returns."""
    x = np.sort(np.asarray(x, dtype=float), axis=-1)
    y = np.sort(np.asarray(y, dtype=float), axis=-1)
    rows = np.broadcast_shapes(x.shape[:-1], y.shape[:-1])
    if x.shape[-1] != y.shape[-1]:
        dev = np.full(rows, np.inf)
    elif x.shape[-1] == 0:
        dev = np.zeros(rows)
    else:
        scale = np.maximum(np.maximum(np.abs(x).max(axis=-1),
                                      np.abs(y).max(axis=-1)), 1.0)
        dev = np.abs(x - y).max(axis=-1) / scale
    return float(dev) if dev.ndim == 0 else dev


def _oracle_cap(model: ModelSpec, sectors) -> int:
    """Per-mode truncation covering every listed sector's largest occupation
    (each mode is fullest at ladder level 0), read from the sector_levels
    cache that the solve of the same sectors uses."""
    return max((max(sector_levels(model, sec).occupations[0].tolist(), default=0)
                for sec in sectors), default=0)


@dataclass(frozen=True)
class _Swept:
    """One sector of the acceptance sweep: where it was met, its states,
    its monomial action, and its complete Fock block (None when the oracle
    has none)."""

    name: str
    j: Fraction
    model: ModelSpec
    sector: SectorLabels
    states: list[BetheState]
    mono: np.ndarray
    block: FockBlock | None


def _sweep_presets(seed: int, n_draws: int, tols: Tolerances):
    """Shared loop behind the oracle-equivalence and certificate checks.

    The first pass walks presets, draws, j values and sectors, and makes
    one solve_sector call per sector in that order, through this module's
    name, so that a wrapper of verify.solve_sector sees every sector's
    states.  _check_swept then checks all the sectors of one dimension
    together, and a last walk in sweep order tallies counts, worst values
    and failures.  A sector whose energy cross-check or Fock eigensolve
    fails raises that error in the last walk, after every sector is solved:
    the first such sector in sweep order raises its own error.
    """
    rng = np.random.default_rng(seed)
    swept: list[_Swept] = []
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
                }
                for sec in sectors:
                    states = solve_sector(model, sec, tols=tols)
                    swept.append(_Swept(name, j, model, sec, states,
                                        monomial_action(model, sec)[0], blocks.get(sec)))

    worst_match = 0.0
    worst_residual = 0.0
    n_states = 0
    n_degenerate = 0
    failures: list[str] = []
    for item, (error, dev, n_live, residual, residual_failures) in zip(
            swept, _check_swept(swept, tols)):
        if error is not None:
            raise error
        if item.block is None:
            failures.append(
                f"match: {item.name} j={item.j}: no oracle block for {item.sector}")
            continue
        worst_match = max(worst_match, dev)
        if dev > tols.match:
            failures.append(f"match: {item.name} j={item.j} sector "
                            f"p={item.sector.p}: dev {dev:.2e}")
        n_states += len(item.states)
        n_degenerate += len(item.states) - n_live
        # a sector whose scaled residuals are all NaN leaves worst_residual
        if residual is not None:
            worst_residual = max(worst_residual, residual)
        failures.extend(residual_failures)
    return {
        "worst_match": worst_match,
        "worst_residual": worst_residual,
        "n_sectors": len(swept),
        "n_states": n_states,
        "n_degenerate": n_degenerate,
        "failures": failures,
    }


def _check_swept(swept: list[_Swept], tols: Tolerances) -> list[tuple]:
    """Per swept sector: the error its checks raise (or None), the larger
    multiset deviation of its root energies from its eigenvalues and from
    its Fock spectrum, its number of non-degenerate states, the largest
    of their scaled residuals that is not NaN (None when there is none)
    and the failure lines of those above tols.bae and of the unverified
    states whose root sum is not real.  Each scaled residual is the one a
    state carries from its solve; a sector of dimension 1 has no roots.

    The sectors of one dimension are checked together, whatever their
    preset, draw or j: one _energies_from_roots, one eigensolve of their
    Fock blocks and one multiset_close.  A Fock block whose size is not the
    dimension is not diagonalized: its spectrum has another size, so its
    sector's deviation is inf, as multiset_close gives it.  Every value
    equals what the per-sector checks give.
    """
    out: list[tuple] = [()] * len(swept)
    by_dim: dict[int, list[int]] = {}
    for i, item in enumerate(swept):
        by_dim.setdefault(item.sector.dim, []).append(i)
    for dim, where in by_dim.items():
        items = [swept[i] for i in where]
        n_top = dim - 1
        roots = np.array([[st.roots for st in item.states] for item in items])
        # an unverified state whose root sum is not real fails its certificate
        # and leaves the energy cross-checks: its z^N ratio has the same fault
        off_real = _off_real(roots.sum(axis=-1)) & ~np.array(
            [[st.verified for st in item.states] for item in items])
        energies, messages = _energies_from_roots(
            [item.model for item in items], [item.sector for item in items],
            roots, np.array([item.mono[n_top] for item in items]), tols, off_real)
        errors = [None if msg is None else ValueError(msg) for msg in messages]

        # oracle equivalence for the sectors with a Fock block of dim rows
        dev = [0.0] * len(items)
        held = []
        for g, item in enumerate(items):
            if item.block is not None:
                if len(item.block.H) == dim:
                    held.append(g)
                else:
                    dev[g] = np.inf
        if held:
            fock, fock_errors = _eigen_stack(
                np.array([items[g].block.H for g in held]), tols.eigen)
            sector_eig = np.array([[st.energy for st in items[g].states]
                                   for g in held])
            devs = multiset_close(np.concatenate([energies[held]] * 2),
                                  np.concatenate([sector_eig, fock]))
            for g, error, to_sector, to_fock in zip(
                    held, fock_errors, devs[: len(held)].tolist(),
                    devs[len(held):].tolist()):
                dev[g] = max(to_sector, to_fock)
                if errors[g] is None:
                    errors[g] = error

        # root-equation certificates of the non-degenerate states
        live = ~np.array([[st.degenerate_roots for st in item.states]
                          for item in items])
        residual = [None] * len(items)
        residual_failures: list[list[str]] = [[] for _ in items]
        if n_top > 0:
            scaled = np.where(live, [[st.scaled_residual for st in item.states]
                                     for item in items], np.nan)
            # each sector's largest scaled residual that is not NaN (fmax
            # skips NaN); an all-NaN sector keeps None
            worst = np.fmax.reduce(scaled, axis=1)
            for g in np.flatnonzero(~np.isnan(worst)).tolist():
                residual[g] = float(worst[g])
            for g, i in zip(*np.nonzero((scaled > tols.bae) | off_real)):
                item = items[g]
                what = (f"root sum {complex(roots[g, i].sum())} is not real"
                        if off_real[g, i] else f"{scaled[g, i]:.2e}")
                residual_failures[g].append(
                    f"residual: {item.name} j={item.j} p={item.sector.p} state "
                    f"{item.states[i].eigen_index}: {what}")
        n_live = live.sum(axis=1).tolist()
        for g, i in enumerate(where):
            out[i] = (errors[g], dev[g], n_live[g], residual[g], residual_failures[g])
    return out


def check_oracle_equivalence(
    data: dict,
    n_draws: int = 10,
    tols: Tolerances = DEFAULT_TOLS,
) -> CheckResult:
    """Verdict on the energies of a _sweep_presets(seed, n_draws, tols) dict."""
    match_fail = [f for f in data["failures"] if f.startswith("match:")]
    passed = not match_fail and data["worst_match"] <= tols.match
    detail = (f"{data['n_sectors']} sectors over {n_draws} "
              f"draw{'s' * (n_draws != 1)}, "
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
            model = model_for_j(name, random_params(name, rng), j)
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

    failures += [f"erratum {row['key']} not confirmed"
                 for row in errata_report() if not row["confirmed"]]
    passed = not failures and worst_poly <= tols.published
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
    # the products are symmetric only up to roundoff
    return jacobi_eigen((h + h.T) / 2.0)


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
    dev = multiset_close(np.array(energies), np.array(expected))
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
            dev = multiset_close(np.array(energies), direct)
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
        model = model_for_j(name, random_params(name, rng), j)
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
