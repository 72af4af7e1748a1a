"""Command-line front end.

Subcommands: sectors, spectrum, roots, verify, preset list.  A model comes
either from --preset plus --param key=value pairs or from a JSON config file
(--config); flags override file fields which override defaults.  Exit codes:
0 success, 1 usage error or a report that cannot be written, 2 verification
failure, 3 numerical failure.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import os
import sys
from dataclasses import dataclass

from .bethe import solve_sector, state_to_dict
from .config import DEFAULT_TOLS, Tolerances, with_overrides
from .linalg import ConvergenceError
from .model import (
    ModelSpec,
    Rational,
    ReferenceState,
    enumerate_sectors,
    parse_rational,
    sector_from_reference,
    sector_to_dict,
    validate_model,
)
from .presets import PRESET_NAMES, PRESET_PARAMS, preset
from .verify import DEFAULT_SEED, errata_report, run_verification


# the Tolerances fields settable by --tol-* flags and a config's "tolerances"
TOL_KEYS = ("eigen", "roots", "newton", "bae", "match")


class UsageError(ValueError):
    """Bad flags or config content; maps to exit code 1."""


@dataclass
class RunConfig:
    model: ModelSpec
    j: Rational
    reference: ReferenceState | None   # None means every sector
    max_bosons: int = 0
    tols: Tolerances = DEFAULT_TOLS
    fmt: str = "json"
    output: str | None = None
    state: int | None = None
    refine: bool = False


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # argparse default exit code is 2; we want 1
        self.print_usage(sys.stderr)
        raise UsageError(message)


def _build_parser() -> _Parser:
    parser = _Parser(prog="spinboson",
                     description="Spectra of the spin-boson family, two ways")
    sub = parser.add_subparsers(dest="command", required=True)

    def add_flags(name, summary, model=True, tols=True):
        """A subcommand with the flags it reads: the model and sector flags
        unless model is False, the --tol-* flags unless tols is False."""
        p = sub.add_parser(name, help=summary)
        p.add_argument("--config", help="JSON config file")
        if model:
            p.add_argument("--preset", choices=PRESET_NAMES)
            p.add_argument("--param", action="append", default=[],
                           metavar="KEY=VALUE", help="preset coupling (repeatable)")
            p.add_argument("--j", help="spin as a rational, e.g. 3/2")
            p.add_argument("--mu", help="reference spin projection (one sector)")
            p.add_argument("--n", help="reference boson occupations, comma ints")
            p.add_argument("--max-bosons", type=int, dest="max_bosons")
        p.add_argument("--format", choices=("json", "csv"), dest="fmt")
        p.add_argument("--output", help="write the report here instead of stdout")
        for key in TOL_KEYS if tols else ():
            p.add_argument(f"--tol-{key}", type=float, dest=f"tol_{key}")
        return p

    add_flags("sectors", "enumerate invariant sectors", tols=False)
    add_flags("spectrum", "solve sectors and report spectra").add_argument(
        "--refine", action="store_true",
        help="Newton-polish roots on the coupled equations")
    add_flags("roots", "spectrum restricted to one state").add_argument(
        "--state", type=int, default=0,
        help="eigenstate index within each sector (default 0)")
    p_verify = add_flags("verify", "run the verification battery", model=False)
    p_verify.add_argument("--seed", type=int)
    p_verify.add_argument("--draws", type=int, default=10,
                          help="random coupling draws per preset (default 10)")

    p_preset = sub.add_parser("preset", help="preset utilities")
    p_preset.add_argument("action", choices=("list",))
    return parser


def _parse_params(pairs: list[str]) -> dict:
    out = {}
    for pair in pairs:
        if "=" not in pair:
            raise UsageError(f"--param expects KEY=VALUE, got {pair!r}")
        key, value = pair.split("=", 1)
        out[key.strip()] = value.strip()
    return out


def _read_config_file(path: str | None) -> dict:
    """The parsed JSON config file, or {} when no --config was given."""
    if not path:
        return {}
    try:
        with open(path) as fh:
            return json.load(fh)
    except (OSError, json.JSONDecodeError) as exc:
        raise UsageError(f"cannot read config {path}: {exc}") from exc


def merged_tolerances(file_cfg: dict, args: argparse.Namespace) -> Tolerances:
    """DEFAULT_TOLS, overridden by the config's "tolerances", then by --tol-*.

    A namespace without some --tol-* flag leaves that tolerance to the file.
    """
    file_tols = file_cfg.get("tolerances", {})
    tols = with_overrides(DEFAULT_TOLS,
                          **{key: file_tols.get(key) for key in TOL_KEYS})
    return with_overrides(tols, **{key: getattr(args, f"tol_{key}", None)
                                   for key in TOL_KEYS})


def _load_config(args: argparse.Namespace) -> RunConfig:
    file_cfg = _read_config_file(args.config)

    def pick(flag, key, default=None):
        return flag if flag is not None else file_cfg.get(key, default)

    preset_name = pick(args.preset, "preset")
    model_dict = file_cfg.get("model")
    if (preset_name is None) == (model_dict is None):
        raise UsageError("give exactly one of --preset/config 'preset' or "
                         "config 'model'")

    params = dict(file_cfg.get("params", {}))
    params.update(_parse_params(args.param))
    j_raw = pick(args.j, "j")
    if j_raw is None:
        raise UsageError("--j (or config field 'j') is required")
    j = parse_rational(j_raw)

    if preset_name is not None:
        if preset_name == "rigid_rotor":
            params.setdefault("j", j)
        try:
            model = preset(preset_name, params)
        except ValueError as exc:
            raise UsageError(str(exc)) from exc
    else:
        try:
            model = validate_model(ModelSpec(
                M=int(model_dict["M"]), r=int(model_dict["r"]),
                s=int(model_dict["s"]), k=tuple(model_dict["k"]),
                w=tuple(model_dict["w"]), g_prime=float(model_dict["g_prime"]),
                g=float(model_dict["g"]),
                constant_shift=float(model_dict.get("constant_shift", 0.0)),
            ))
        except (KeyError, TypeError, ValueError) as exc:
            raise UsageError(f"bad inline model: {exc}") from exc

    mu_raw = pick(args.mu, "mu")
    n_raw = pick(args.n, "n")
    reference = None
    if mu_raw is not None:
        if isinstance(n_raw, str):
            occupations = tuple(int(x) for x in n_raw.split(",") if x.strip())
        else:
            occupations = tuple(int(x) for x in (n_raw or ()))
        reference = ReferenceState(parse_rational(mu_raw), occupations)

    return RunConfig(
        model=model,
        j=j,
        reference=reference,
        max_bosons=int(pick(args.max_bosons, "max_bosons", 0)),
        tols=merged_tolerances(file_cfg, args),
        fmt=pick(args.fmt, "format", "json"),
        output=pick(args.output, "output"),
        state=getattr(args, "state", None),
        refine=bool(getattr(args, "refine", False)),
    )


def _select_sectors(cfg: RunConfig) -> list:
    if cfg.reference is not None:
        return [sector_from_reference(cfg.model, cfg.j, cfg.reference)]
    return enumerate_sectors(cfg.model, cfg.j, cfg.max_bosons)


def _write_report(path: str | None, text: str) -> None:
    """Write text to the file at path, or to stdout, flushed, when path is
    None.  An OSError propagates; after a failed stdout write, stdout is
    pointed at devnull first, so that the interpreter's final flush of what
    is still buffered stays silent (the SIGPIPE note of the signal docs)."""
    if path:
        with open(path, "w") as fh:
            fh.write(text)
        return
    try:
        sys.stdout.write(text)
        sys.stdout.flush()
    except OSError:
        try:
            fd = sys.stdout.fileno()
        except (AttributeError, OSError, ValueError):
            raise  # no file descriptor behind stdout: nothing is flushed at exit
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, fd)
        os.close(devnull)
        raise


def _emit(cfg: RunConfig, text: str) -> None:
    if cfg.output is None and not text.endswith("\n"):
        text += "\n"
    _write_report(cfg.output, text)


def _dump_json(payload) -> str:
    return json.dumps(payload, sort_keys=True, indent=2)


def cmd_sectors(cfg: RunConfig) -> int:
    sectors = _select_sectors(cfg)
    if cfg.fmt == "json":
        _emit(cfg, _dump_json({"sectors": [sector_to_dict(s) for s in sectors]}))
        return 0
    buf = io.StringIO()
    writer = csv.writer(buf)
    writer.writerow(["j", "p", "kappa", "lambda", "q", "l", "A", "dim"])
    for s in sectors:
        d = sector_to_dict(s)
        writer.writerow([d["j"], d["p"], d["kappa"], d["lambda"],
                         ";".join(map(str, d["q"])), ";".join(map(str, d["l"])),
                         ";".join(map(str, d["A"])), d["dim"]])
    _emit(cfg, buf.getvalue())
    return 0


def _spectrum_payload(cfg: RunConfig, only_state: int | None) -> dict:
    """The report of every selected sector; with only_state, each sector
    lists its state of that index, or none when it has fewer states."""
    report, longest = [], 0
    for sector in _select_sectors(cfg):
        states = solve_sector(cfg.model, sector, refine=cfg.refine, tols=cfg.tols)
        longest = max(longest, len(states))
        if only_state is not None:
            states = [states[only_state]] if 0 <= only_state < len(states) else []
        report.append({
            "labels": sector_to_dict(sector),
            "states": [state_to_dict(st) for st in states],
        })
    if only_state is not None and report and not 0 <= only_state < longest:
        raise UsageError(f"--state {only_state} outside 0..{longest - 1}")
    return {"sectors": report}


def _spectrum_csv(payload: dict) -> str:
    buf = io.StringIO()
    writer = csv.writer(buf)
    writer.writerow(["j", "p", "kappa", "lambda", "dim", "index", "E",
                     "roots", "residual", "verified", "degenerate_roots"])
    for entry in payload["sectors"]:
        lab = entry["labels"]
        for idx, st in enumerate(entry["states"]):
            roots = ";".join(f"{re:+.12g}{im:+.12g}j" for re, im in st["roots"])
            writer.writerow([
                lab["j"], lab["p"], lab["kappa"], lab["lambda"], lab["dim"],
                idx, f"{st['E']:.15g}", roots,
                "" if st["residual"] is None else f"{st['residual']:.3e}",
                st["verified"], st["degenerate_roots"],
            ])
    return buf.getvalue()


def cmd_spectrum(cfg: RunConfig) -> int:
    """`spectrum`, or `roots` when cfg.state selects one state per sector."""
    payload = _spectrum_payload(cfg, only_state=cfg.state)
    _emit(cfg, _dump_json(payload) if cfg.fmt == "json"
          else _spectrum_csv(payload))
    return 0


def cmd_verify(args: argparse.Namespace) -> int:
    """Run the battery; flags override the config file's tolerances and seed.

    An explicit --format json without --output prints only the JSON report;
    otherwise the text report is printed (and --output receives the JSON).
    """
    file_cfg = _read_config_file(args.config)
    seed = int(args.seed if args.seed is not None
               else file_cfg.get("seed", DEFAULT_SEED))
    results = run_verification(seed=seed, tols=merged_tolerances(file_cfg, args),
                               n_draws=args.draws)
    errata = errata_report()
    all_passed = all(r.passed for r in results)
    code = 0 if all_passed else 2

    if args.fmt == "json" or (args.fmt is None and args.output):
        payload = _dump_json({
            "passed": all_passed,
            "checks": [{"name": r.name, "passed": bool(r.passed), "detail": r.detail}
                       for r in results],
            "errata": errata,
        })
        if not args.output:
            _write_report(None, payload + "\n")
            return code
        _write_report(args.output, payload)
    lines = [r.line() for r in results]
    lines.append("errata registry:")
    for e in errata:
        mark = "confirmed" if e["confirmed"] else "NOT CONFIRMED"
        lines.append(f"  {e['key']}: {mark} (printed {e['printed_deviation']:.1e}, "
                     f"corrected {e['corrected_deviation']:.1e})")
    lines.append(f"verification: {'PASS' if all_passed else 'FAIL'}")
    _write_report(None, "\n".join(lines) + "\n")
    return code


def cmd_preset(args: argparse.Namespace) -> int:
    _write_report(None, "".join(f"{name}: parameters {', '.join(PRESET_PARAMS[name])}\n"
                                for name in PRESET_NAMES))
    return 0


def main(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
        if args.command == "preset":
            return cmd_preset(args)
        if args.command == "verify":
            return cmd_verify(args)
        cfg = _load_config(args)
        if args.command == "sectors":
            return cmd_sectors(cfg)
        if args.command in ("spectrum", "roots"):
            return cmd_spectrum(cfg)
        raise UsageError(f"unknown command {args.command!r}")
    except UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except OSError as exc:
        print(f"error: cannot write report: {exc}", file=sys.stderr)
        return 1
    except (ConvergenceError, OverflowError, ValueError, RuntimeError) as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
