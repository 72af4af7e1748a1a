"""The benchmark's three seeded workloads.

Each workload is an endless stream of operations made from the seed, the
timed call that executes one operation, and an untimed check of that
operation's output against an independent computation:

  sweep         one draw of the acceptance oracle sweep,
                verify._sweep_presets(seed, 1, DEFAULT_TOLS): thousands of
                tiny sectors, so per-sector overhead dominates
  spectrum      one generated `spinboson spectrum` request through
                cli.main(argv), stdout captured: what a CLI user waits on
  large_sector  one solve_sector call on the largest sector of a preset at
                j in LARGE_J: few big sectors load the O(n^3) eigensolve,
                root recovery, the recurrence fallback and Newton polish

BENCHMARK.json gates on sweep and spectrum only.  large_sector runs here
(alone or in --workload all) but its run-level throughput is not steady
enough to gate on: about one sector in a hundred spends 10-20 s in the
recurrence and Newton fallbacks before raising, so one such sector decides a
whole run.

Every call into the package goes through a module attribute
(``bethe.solve_sector``, not a local copy) so that the traced run's wrappers
see it.
"""

from __future__ import annotations

import csv
import io
import json
from contextlib import redirect_stderr, redirect_stdout
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Iterator

import numpy as np

from spinboson import bethe, cli, model, operators, presets, representation, verify
from spinboson.config import DEFAULT_TOLS

TOLS = DEFAULT_TOLS
LARGE_J = (6, 8, 10, 12, 14, 16, 20)
SPECTRUM_MAX_BOSONS = 8


@dataclass
class Outcome:
    """What the check found for one operation.

    `error` is a failure the program reported itself: an exception, a
    non-zero exit code, or a failed verdict of its own oracle sweep.
    `mismatches` counts outputs that the benchmark's independent check
    rejects although the program did not flag them; any makes the run
    incorrect.
    """

    states: int = 0            # eigenstates returned
    error: str | None = None
    mismatches: int = 0
    uncertified: int = 0       # states neither certified nor flagged degenerate
    output_bytes: int = 0      # CLI report size (spectrum only)

    @property
    def failed(self) -> bool:
        return self.error is not None or self.mismatches > 0


@dataclass(frozen=True)
class Workload:
    stream: Callable[[int], Iterator]
    execute: Callable[[object], object]
    check: Callable[[object, object], Outcome]
    # operations per round of the stream's balanced design; a timed run
    # ends on a round boundary so that every run does the same mix of work
    round_size: int = 1


# ---------------------------------------------------------------------------
# shared checks
# ---------------------------------------------------------------------------

def spectrum_deviation(mdl, sector, energies) -> float:
    """Scaled max deviation of sorted energies from numpy's eigvalsh of the
    sector matrix; inf when the counts differ."""
    ref = np.linalg.eigvalsh(representation.sector_matrices(mdl, sector).H)
    got = np.sort(np.asarray(energies, dtype=float))
    if got.size != ref.size:
        return float("inf")
    scale = max(1.0, float(np.max(np.abs(got))), float(np.max(np.abs(ref))))
    return float(np.max(np.abs(got - ref))) / scale


def count_uncertified(mdl, sector, states) -> int:
    """States that are neither flagged degenerate_roots nor verified with a
    scaled root-equation residual <= TOLS.bae.

    `states` holds (roots, max residual or None, verified, degenerate) tuples.
    """
    polys = None
    bad = 0
    for roots, residual, verified, degenerate in states:
        if degenerate:
            continue
        if not verified or residual is None or not np.isfinite(residual):
            bad += 1
            continue
        if roots.size == 0:
            continue
        if polys is None:
            polys = operators.extract_polynomials(
                operators.build_hamiltonian_operator(mdl, sector))
        if residual / bethe.residual_scale(polys, roots) > TOLS.bae:
            bad += 1
    return bad


def _state_tuples(states) -> list[tuple]:
    return [(st.roots, st.max_residual(), st.verified, st.degenerate_roots)
            for st in states]


# ---------------------------------------------------------------------------
# sweep
# ---------------------------------------------------------------------------

def sweep_stream(seed: int) -> Iterator[int]:
    rng = np.random.default_rng(seed)
    while True:
        yield int(rng.integers(2**31))


def sweep_execute(draw_seed: int):
    # keep every solve_sector result of the draw for the untimed check
    captured = []
    inner = verify.solve_sector

    def capture(mdl, sector, *args, **kwargs):
        states = inner(mdl, sector, *args, **kwargs)
        captured.append((mdl, sector, states))
        return states

    verify.solve_sector = capture
    try:
        data = verify._sweep_presets(draw_seed, 1, TOLS)
    finally:
        verify.solve_sector = inner
    return data, captured


def sweep_check(draw_seed: int, raw) -> Outcome:
    data, captured = raw
    outcome = Outcome(states=data["n_states"])
    # the sweep's own verdict, as check_oracle_equivalence and
    # check_bae_certificate read it
    if (data["failures"] or data["worst_match"] > TOLS.match
            or data["worst_residual"] > TOLS.bae):
        outcome.error = "sweep verdict FAIL"
    for mdl, sector, states in captured:
        dev = spectrum_deviation(mdl, sector, [st.energy for st in states])
        outcome.mismatches += dev > TOLS.match
        outcome.uncertified += count_uncertified(mdl, sector, _state_tuples(states))
    return outcome


# ---------------------------------------------------------------------------
# spectrum
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Request:
    model: object
    j: Fraction
    max_bosons: int
    reference: object          # ReferenceState or None for every sector
    fmt: str
    argv: tuple[str, ...]


# every prefix of this order spreads over the whole 2j range
SPECTRUM_TWO_J_ORDER = (0, 8, 4, 12, 2, 10, 6, 1, 9, 5, 11, 3, 7)


def spectrum_stream(seed: int) -> Iterator[Request]:
    """Rounds of one request per (preset, 2j in SPECTRUM_TWO_J_ORDER).

    Request cost spans three decades, so the shape of each request is a
    fixed, balanced design: preset i at 2j gets the boson budget 2j mod 9
    when it has modes, JSON when i + 2j is even and CSV otherwise, and a
    single --mu/--n sector when i + 2j is a multiple of 5.  The seed draws
    the couplings and the single-sector references, so every run sees the
    same mix of work.
    """
    rng = np.random.default_rng(seed)
    while True:
        for two_j in SPECTRUM_TWO_J_ORDER:
            for i, name in enumerate(presets.PRESET_NAMES):
                yield _request(rng, name, Fraction(two_j, 2),
                               max_bosons=two_j % (SPECTRUM_MAX_BOSONS + 1),
                               fmt="json" if (i + two_j) % 2 == 0 else "csv",
                               single=(i + two_j) % 5 == 0)


def _request(rng: np.random.Generator, name: str, j: Fraction, max_bosons: int,
             fmt: str, single: bool) -> Request:
    params = presets.random_params(name, rng)
    mdl = presets.model_for_j(name, params, j)
    argv = ["spectrum", "--preset", name, "--j", str(j)]
    for key, value in params.items():
        argv += ["--param", f"{key}={value!r}"]
    if mdl.M:
        argv += ["--max-bosons", str(max_bosons)]
    else:
        max_bosons = 0
    argv += ["--format", fmt]
    reference = None
    if single:
        mu = Fraction(int(rng.integers(0, int(2 * j) + 1))) - j
        ns = tuple(int(rng.integers(0, SPECTRUM_MAX_BOSONS + 1))
                   for _ in range(mdl.M))
        reference = model.ReferenceState(mu, ns)
        argv.append(f"--mu={mu}")
        if ns:
            argv += ["--n", ",".join(map(str, ns))]
    return Request(mdl, j, max_bosons, reference, fmt, tuple(argv))


def spectrum_execute(req: Request):
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = cli.main(list(req.argv))
    return code, out.getvalue()


_KEY_FIELDS = ("j", "p", "kappa", "lambda", "dim")


def _parse_report(text: str, fmt: str) -> list[tuple[tuple, list[tuple]]]:
    """(label key, [(E, roots, residual, verified, degenerate)]) per sector."""
    sectors = []
    if fmt == "json":
        for entry in json.loads(text)["sectors"]:
            key = tuple(str(entry["labels"][f]) for f in _KEY_FIELDS)
            states = [(st["E"], np.array([complex(re, im) for re, im in st["roots"]]),
                       st["residual"], st["verified"], st["degenerate_roots"])
                      for st in entry["states"]]
            sectors.append((key, states))
        return sectors
    for row in csv.DictReader(io.StringIO(text)):
        if row["index"] == "0":
            sectors.append((tuple(row[f] for f in _KEY_FIELDS), []))
        roots = np.array([complex(r) for r in row["roots"].split(";") if r])
        sectors[-1][1].append((
            float(row["E"]), roots,
            float(row["residual"]) if row["residual"] else None,
            row["verified"] == "True", row["degenerate_roots"] == "True"))
    return sectors


def spectrum_check(req: Request, raw) -> Outcome:
    code, text = raw
    if code != 0:
        return Outcome(error=f"exit {code}", output_bytes=len(text))
    if req.reference is not None:
        expected = [model.sector_from_reference(req.model, req.j, req.reference)]
    else:
        expected = model.enumerate_sectors(req.model, req.j, req.max_bosons)
    report = _parse_report(text, req.fmt)
    outcome = Outcome(states=sum(len(states) for _, states in report),
                      output_bytes=len(text))
    if len(report) != len(expected):
        outcome.mismatches += 1
        return outcome
    for sector, (key, states) in zip(expected, report):
        labels = model.sector_to_dict(sector)
        if key != tuple(str(labels[f]) for f in _KEY_FIELDS):
            outcome.mismatches += 1
            continue
        dev = spectrum_deviation(req.model, sector, [st[0] for st in states])
        outcome.mismatches += dev > TOLS.match
        outcome.uncertified += count_uncertified(
            req.model, sector, [st[1:] for st in states])
    return outcome


# ---------------------------------------------------------------------------
# large_sector
# ---------------------------------------------------------------------------

def large_stream(seed: int) -> Iterator[tuple]:
    """Rounds of every (preset, j in LARGE_J) in shuffled order, with fresh
    couplings per preset and round."""
    rng = np.random.default_rng(seed)
    while True:
        items = []
        for name in presets.PRESET_NAMES:
            params = presets.random_params(name, rng)
            for two_j in (2 * j for j in LARGE_J):
                j = Fraction(two_j, 2)
                mdl = presets.model_for_j(name, params, j)
                # lowest spin projection with every boson tower above the
                # spin ladder: the sector of dimension floor(2j / r) + 1
                ref = model.ReferenceState(-j, tuple(two_j * k for k in mdl.k))
                items.append((mdl, model.sector_from_reference(mdl, j, ref)))
        for idx in rng.permutation(len(items)):
            yield items[idx]


def large_execute(item):
    mdl, sector = item
    return bethe.solve_sector(mdl, sector)


def large_check(item, states) -> Outcome:
    mdl, sector = item
    dev = spectrum_deviation(mdl, sector, [st.energy for st in states])
    return Outcome(states=len(states), mismatches=int(dev > TOLS.match),
                   uncertified=count_uncertified(mdl, sector, _state_tuples(states)))


N_PRESETS = len(presets.PRESET_NAMES)
WORKLOADS = {
    "sweep": Workload(sweep_stream, sweep_execute, sweep_check),
    "spectrum": Workload(spectrum_stream, spectrum_execute, spectrum_check,
                         round_size=len(SPECTRUM_TWO_J_ORDER) * N_PRESETS),
    "large_sector": Workload(large_stream, large_execute, large_check,
                             round_size=len(LARGE_J) * N_PRESETS),
}
