"""Command-line front end.

Subcommands: sectors, spectrum, roots, verify, preset list.  A model comes
either from --preset plus --param key=value pairs or from a JSON config file
(--config), whose fields are read as the flags they name, ahead of the
command line's: flags override file fields, which override defaults.  Exit
codes: 0 success, 1 usage error or a report that cannot be written, 2
verification failure, 3 numerical failure while solving.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import math
import os
import sys
from dataclasses import replace

from .bethe import solve_sector, state_to_dict
from .config import DEFAULT_TOLS, Tolerances
from .linalg import ConvergenceError
from .model import (
    ModelSpec,
    ReferenceState,
    enumerate_sectors,
    is_spin,
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


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # argparse default exit code is 2; we want 1
        self.print_usage(sys.stderr)
        raise UsageError(message)


def _checked(convert, accept, name: str):
    """An argparse type, reported as "invalid <name> value" on failure."""
    def parse(text):
        value = convert(text)
        if not accept(value):
            raise ValueError(text)
        return value
    parse.__name__ = name
    return parse


_spin = _checked(parse_rational, is_spin, "spin")
_half_integer = _checked(parse_rational, lambda m: (2 * m).denominator == 1,
                         "half-integer")
_occupations = _checked(lambda text: tuple(int(x) for x in text.split(",")
                                           if x.strip()),
                        lambda ns: all(n >= 0 for n in ns), "occupations")
_pair = _checked(lambda text: tuple(part.strip() for part in text.split("=", 1)),
                 lambda pair: len(pair) == 2, "KEY=VALUE")
_count = _checked(int, lambda n: n >= 0, "non-negative int")
_positive = _checked(int, lambda n: n >= 1, "positive int")
_tolerance = _checked(float, lambda x: 0 < x < math.inf, "positive finite float")


def _build_parser() -> _Parser:
    parser = _Parser(prog="spinboson",
                     description="Spectra of the spin-boson family, two ways")
    sub = parser.add_subparsers(dest="command", required=True)

    def add_flags(name, summary, model=True, tols=True):
        """A subcommand with the flags it reads: the model and sector flags
        unless model is False, the --tol-* flags unless tols is False.  A
        flag is matched only in full, so that a config key names one flag."""
        p = sub.add_parser(name, help=summary, allow_abbrev=False)
        p.add_argument("--config", help="JSON config file, its fields read as flags")
        if model:
            p.add_argument("--preset", choices=PRESET_NAMES)
            p.add_argument("--param", type=_pair, action="append", default=[],
                           metavar="KEY=VALUE", help="preset coupling (repeatable)")
            p.add_argument("--j", type=_spin, help="spin as a rational, e.g. 3/2")
            p.add_argument("--mu", type=_half_integer,
                           help="reference spin projection (one sector)")
            p.add_argument("--n", type=_occupations, default=(),
                           help="reference boson occupations, comma ints")
            p.add_argument("--max-bosons", type=_count, default=0, dest="max_bosons")
        p.add_argument("--format", dest="fmt", choices=("json", "csv") if model
                       else ("json",), default="json" if model else None)
        p.add_argument("--output", help="write the report here instead of stdout")
        for key in TOL_KEYS if tols else ():
            p.add_argument(f"--tol-{key}", type=_tolerance, dest=f"tol_{key}",
                           default=getattr(DEFAULT_TOLS, key))
        return p

    add_flags("sectors", "enumerate invariant sectors", tols=False)
    add_flags("spectrum", "solve sectors and report spectra").add_argument(
        "--refine", action="store_true",
        help="Newton-polish roots on the coupled equations")
    add_flags("roots", "spectrum restricted to one state").add_argument(
        "--state", type=_count, default=0,
        help="eigenstate index within each sector (default 0)")
    p_verify = add_flags("verify", "run the verification battery", model=False)
    p_verify.add_argument("--seed", type=_count, default=DEFAULT_SEED)
    p_verify.add_argument("--draws", type=_positive, default=10,
                          help="random coupling draws per preset (default 10)")

    p_preset = sub.add_parser("preset", help="preset utilities")
    p_preset.add_argument("action", choices=("list",))
    return parser


def _config_flags(path: str) -> tuple[list[str], object]:
    """The config file's fields as flags, and its inline "model" (or None).

    "params" gives --param key=value, "tolerances" --tol-key, a list a comma
    string, true a bare switch, null or false nothing, and any other key k
    --k with "-" for "_"."""
    try:
        with open(path) as fh:
            fields = json.load(fh)
    except (OSError, ValueError) as exc:
        raise UsageError(f"cannot read config {path}: {exc}") from exc
    if not isinstance(fields, dict):
        raise UsageError(f"config {path} is not a JSON object")
    model = fields.pop("model", None)
    flags = []
    for key, value in fields.items():
        if key in ("params", "tolerances") and value is not None:
            if not isinstance(value, dict):
                raise UsageError(f"config field {key!r} is not an object")
            prefix = "--param=" if key == "params" else "--tol-"
            flags += [f"{prefix}{k}={v}" for k, v in value.items()]
        elif value is True:
            flags.append(f"--{key.replace('_', '-')}")
        elif value is not None and value is not False:
            if isinstance(value, list):
                value = ",".join(map(str, value))
            flags.append(f"--{key.replace('_', '-')}={value}")
    return flags, model


def _parse_args(argv: list[str]) -> argparse.Namespace:
    """argv parsed, with the --config file's fields read as flags ahead of
    the command line's (argv[0] is the command)."""
    parser = _build_parser()
    args, model = parser.parse_args(argv), None
    if getattr(args, "config", None):
        flags, model = _config_flags(args.config)
        args = parser.parse_args(argv[:1] + flags + argv[1:])
        if model is not None and not hasattr(args, "preset"):
            raise UsageError(f"{args.command} reads no config 'model'")
    args.model = model
    return args


def _model_and_sectors(args: argparse.Namespace) -> tuple[ModelSpec, list]:
    """The model and the sectors the flags select.  Any ValueError on the way
    is bad input, so it is a usage error (exit 1)."""
    if (args.preset is None) == (args.model is None):
        raise UsageError("give exactly one of --preset/config 'preset' or "
                         "config 'model'")
    if args.j is None:
        raise UsageError("--j (or config field 'j') is required")
    try:
        if args.preset is None:
            m = args.model
            try:
                model = validate_model(ModelSpec(
                    M=int(m["M"]), r=int(m["r"]), s=int(m["s"]), k=tuple(m["k"]),
                    w=tuple(m["w"]), g_prime=float(m["g_prime"]), g=float(m["g"]),
                    constant_shift=float(m.get("constant_shift", 0.0))))
            except (KeyError, TypeError, ValueError) as exc:
                raise UsageError(f"bad inline model: {exc}") from exc
        else:
            params = dict(args.param)
            # the rotor's Casimir offset (a+b)/2 j(j+1) is taken at --j
            if (args.preset == "rigid_rotor"
                    and parse_rational(params.setdefault("j", args.j)) != args.j):
                raise UsageError(f"--param j={params['j']} differs from "
                                 f"--j {args.j}; the rotor's j is --j")
            model = preset(args.preset, params)
        if args.mu is None:
            return model, enumerate_sectors(model, args.j, args.max_bosons)
        reference = ReferenceState(args.mu, args.n)
        return model, [sector_from_reference(model, args.j, reference)]
    except ValueError as exc:
        raise UsageError(str(exc)) from exc


def _tolerances(args: argparse.Namespace) -> Tolerances:
    return replace(DEFAULT_TOLS, **{key: getattr(args, f"tol_{key}")
                                    for key in TOL_KEYS})


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


def _emit(args: argparse.Namespace, text: str) -> None:
    if args.output is None and not text.endswith("\n"):
        text += "\n"
    _write_report(args.output, text)


def _dump_json(payload) -> str:
    return json.dumps(payload, sort_keys=True, indent=2)


def cmd_sectors(args: argparse.Namespace, sectors: list) -> int:
    if args.fmt == "json":
        _emit(args, _dump_json({"sectors": [sector_to_dict(s) for s in sectors]}))
        return 0
    buf = io.StringIO()
    writer = csv.writer(buf)
    writer.writerow(["j", "p", "kappa", "lambda", "q", "l", "A", "dim"])
    for s in sectors:
        d = sector_to_dict(s)
        writer.writerow([d["j"], d["p"], d["kappa"], d["lambda"],
                         ";".join(map(str, d["q"])), ";".join(map(str, d["l"])),
                         ";".join(map(str, d["A"])), d["dim"]])
    _emit(args, buf.getvalue())
    return 0


def _spectrum_payload(args: argparse.Namespace, model: ModelSpec,
                      sectors: list) -> dict:
    """The report of every sector; with `roots --state i`, each sector lists
    its state of index i, or none when it has fewer states."""
    only_state = getattr(args, "state", None)
    refine, tols = getattr(args, "refine", False), _tolerances(args)
    report, longest = [], 0
    for sector in sectors:
        states = solve_sector(model, sector, refine=refine, tols=tols)
        longest = max(longest, len(states))
        if only_state is not None:
            states = [states[only_state]] if only_state < len(states) else []
        report.append({
            "labels": sector_to_dict(sector),
            "states": [state_to_dict(st) for st in states],
        })
    if only_state is not None and report and only_state >= longest:
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


def cmd_spectrum(args: argparse.Namespace, model: ModelSpec, sectors: list) -> int:
    """`spectrum`, or `roots` when --state selects one state per sector."""
    payload = _spectrum_payload(args, model, sectors)
    _emit(args, _dump_json(payload) if args.fmt == "json"
          else _spectrum_csv(payload))
    return 0


def cmd_verify(args: argparse.Namespace) -> int:
    """Run the battery.

    An explicit --format json without --output prints only the JSON report;
    otherwise the text report is printed (and --output receives the JSON).
    """
    results = run_verification(seed=args.seed, tols=_tolerances(args),
                               n_draws=args.draws)
    errata = errata_report()
    all_passed = all(r.passed for r in results)
    code = 0 if all_passed else 2

    if args.fmt == "json" or args.output:
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
    try:
        args = _parse_args(sys.argv[1:] if argv is None else list(argv))
        if args.command == "preset":
            return cmd_preset(args)
        if args.command == "verify":
            return cmd_verify(args)
        model, sectors = _model_and_sectors(args)
        if args.command == "sectors":
            return cmd_sectors(args, sectors)
        return cmd_spectrum(args, model, sectors)
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
