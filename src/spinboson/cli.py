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
import functools
import io
import json
import math
import os
import sys
from dataclasses import replace

from .bethe import BetheState, solve_sectors
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


# each command and its summary, in the order `spinboson --help` lists them
COMMANDS = {
    "sectors": "enumerate invariant sectors",
    "spectrum": "solve sectors and report spectra",
    "roots": "spectrum restricted to one state",
    "verify": "run the verification battery",
    "preset": "preset utilities",
}


@functools.cache
def _command_parser(command: str) -> _Parser:
    """The parser of one command, with the flags it reads: the model and
    sector flags except on verify, the --tol-* flags except on sectors.  A
    flag is matched only in full, so that a config key names one flag.
    Built once per command; parsing leaves it unchanged."""
    p = _Parser(prog=f"spinboson {command}", allow_abbrev=False)
    if command == "preset":
        p.add_argument("action", choices=("list",))
        return p
    model, tols = command != "verify", command != "sectors"
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
    if command == "spectrum":
        p.add_argument("--refine", action="store_true",
                       help="Newton-polish roots on the coupled equations")
    elif command == "roots":
        p.add_argument("--state", type=_count, default=0,
                       help="eigenstate index within each sector (default 0)")
    elif command == "verify":
        p.add_argument("--seed", type=_count, default=DEFAULT_SEED)
        p.add_argument("--draws", type=_positive, default=10,
                       help="random coupling draws per preset (default 10)")
    return p


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
    """argv parsed by the parser of its command, argv[0], with the --config
    file's fields read as flags ahead of the command line's.  Only help, a
    missing or an unknown command meets the parser of the command list."""
    if not argv or argv[0] not in COMMANDS:
        commands = _Parser(prog="spinboson",
                           description="Spectra of the spin-boson family, two ways")
        sub = commands.add_subparsers(dest="command", required=True)
        for name, summary in COMMANDS.items():
            sub.add_parser(name, help=summary)
        commands.parse_args(argv)  # prints the help, or raises a UsageError
        # left to an argparse that drops the "--" of "-- preset list"
        commands.error("the command must come first")
    command, flags = argv[0], argv[1:]
    parser = _command_parser(command)
    args, model = parser.parse_args(flags), None
    if getattr(args, "config", None):
        config_flags, model = _config_flags(args.config)
        args = parser.parse_args(config_flags + flags)
        if model is not None and not hasattr(args, "preset"):
            raise UsageError(f"{command} reads no config 'model'")
    args.command, args.model = command, model
    return args


def _model_and_sectors(args: argparse.Namespace) -> tuple[ModelSpec, list]:
    """The model and the sectors the flags select.  Any ValueError on the way
    is bad input, so it is a usage error (exit 1)."""
    if (args.preset is None) == (args.model is None):
        raise UsageError("give exactly one of --preset/config 'preset' or "
                         "config 'model'")
    if args.j is None:
        raise UsageError("--j (or config field 'j') is required")
    if args.n and args.mu is None:
        raise UsageError("--n (or config field 'n') needs --mu")
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


def _state_row(state: BetheState) -> tuple:
    """What a report says of one state: the energy, the root parts as (re, im,
    re, im, ...) with -0.0 as 0.0, the largest residual or None, the flags."""
    residual = state.max_residual()
    parts = state.roots.view(float) + 0.0
    return (float(state.energy), tuple(parts.tolist()),
            None if math.isnan(residual) else residual,
            bool(state.verified), bool(state.degenerate_roots), bool(state.refined))


def _spectrum_report(args: argparse.Namespace, model: ModelSpec,
                     sectors: list) -> list[tuple[dict, list[tuple]]]:
    """The labels and the state rows of every sector; with `roots --state i`,
    each sector lists its state of index i, or none when it has fewer."""
    only_state = getattr(args, "state", None)
    if only_state is not None and sectors:
        longest = max(sector.dim for sector in sectors)
        if only_state >= longest:
            raise UsageError(f"--state {only_state} outside 0..{longest - 1}")
    pick = (slice(None) if only_state is None
            else slice(only_state, only_state + 1))
    solved = solve_sectors(model, sectors, refine=getattr(args, "refine", False),
                           tols=_tolerances(args))
    return [(sector_to_dict(sector), [_state_row(st) for st in states[pick]])
            for sector, states in zip(sectors, solved)]


def _json_list(items: list[str], pad: str) -> str:
    """A JSON list of items already indented, its bracket closed at pad."""
    return "[\n" + ",\n".join(items) + f"\n{pad}]" if items else "[]"


def _json_labels(labels: dict) -> str:
    """`_dump_json(labels)` indented as in the spectrum report; the label
    values are ints and strings, alone or in lists."""
    def text(x):
        if isinstance(x, list):
            return _json_list([f"          {text(v)}" for v in x], "        ")
        return str(x) if type(x) is int else json.dumps(x)
    return "{\n" + ",\n".join(f'        "{key}": {text(value)}'
                              for key, value in sorted(labels.items())) + "\n      }"


_JSON_BOOL = {True: "true", False: "false"}
_JSON_ROOT = "            [\n              %r,\n              %r\n            ]"
# only the float reprs put into these hold "nan" or "inf" (see _spectrum_json)
_JSON_STATE = ('        {\n          "E": %r,\n          "degenerate_roots": %s,\n'
               '          "refined": %s,\n          "residual": %s,\n'
               '          "roots": %s,\n          "verified": %s\n        }')


def _spectrum_json(report: list) -> str:
    """The report as `_dump_json` writes its dict form, byte for byte,
    without building that form or running the pure-Python encoder."""
    entries = []
    for labels, rows in report:
        states = []
        for energy, parts, residual, verified, degenerate, refined in rows:
            roots = _json_list([_JSON_ROOT] * (len(parts) // 2), "          ") % parts
            text = _JSON_STATE % (
                energy, _JSON_BOOL[degenerate], _JSON_BOOL[refined],
                "null" if residual is None else repr(residual), roots,
                _JSON_BOOL[verified])
            # json's spelling of the non-finite floats that repr writes
            states.append(text.replace("nan", "NaN").replace("inf", "Infinity"))
        entries.append(f'    {{\n      "labels": {_json_labels(labels)},\n'
                       f'      "states": {_json_list(states, "      ")}\n    }}')
    return '{\n  "sectors": ' + _json_list(entries, "  ") + "\n}"


def _spectrum_csv(report: list, first_index: int) -> str:
    """One row per state; index counts a sector's states from first_index."""
    buf = io.StringIO()
    writer = csv.writer(buf)
    writer.writerow(["j", "p", "kappa", "lambda", "dim", "index", "E",
                     "roots", "residual", "verified", "degenerate_roots"])
    for lab, rows in report:
        key = [lab["j"], lab["p"], lab["kappa"], lab["lambda"], lab["dim"]]
        writer.writerows([
            *key, idx, "%.15g" % energy,
            ("%+.12g%+.12gj;" * (len(parts) // 2) % parts)[:-1],
            "" if residual is None else "%.3e" % residual,
            verified, degenerate,
        ] for idx, (energy, parts, residual, verified, degenerate, _)
            in enumerate(rows, first_index))
    return buf.getvalue()


def cmd_spectrum(args: argparse.Namespace, model: ModelSpec, sectors: list) -> int:
    """`spectrum`, or `roots` when --state selects one state per sector."""
    report = _spectrum_report(args, model, sectors)
    _emit(args, _spectrum_json(report) if args.fmt == "json"
          else _spectrum_csv(report, getattr(args, "state", 0)))
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
