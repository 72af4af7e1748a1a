"""Span recorder for the benchmark's traced run.

Each public function named in LAYERS is replaced, at every module binding
of it (``from .x import f`` copies the function object into the importing
module), by a wrapper that records one span: name, start, end, parent span,
the id of the benchmark operation it belongs to, and whether it raised.
Spans stay in memory until the run ends; self times and counts are then
computed from them.  Nothing under ``src/`` is edited: the wrappers live
only in the benchmark process and are removed by ``Tracer.uninstall``.
"""

from __future__ import annotations

import functools
import gzip
import sys
import time
from array import array
from collections import Counter

import numpy as np

# module -> public functions traced in it; the span name is <module>.<fn>
LAYERS = {
    "model": ("enumerate_sectors", "sector_from_reference", "boson_occupations"),
    "operators": ("build_hamiltonian_operator", "apply_to_monomials",
                  "extract_polynomials"),
    "representation": ("sector_matrices", "fock_oracle"),
    "linalg": ("jacobi_eigen", "polynomial_roots", "newton_solve"),
    "bethe": ("solve_sector", "energy_from_roots", "bae_residuals"),
    "verify": ("_sweep_presets", "multiset_close"),
    "cli": ("main",),
}


# the acceptance sweep's loop is private; its span is verify.sweep
_ALIASES = {"_sweep_presets": "sweep"}


def span_name(module: str, fn: str) -> str:
    return f"{module}.{_ALIASES.get(fn, fn)}"


SPAN_NAMES = tuple(span_name(mod, fn) for mod, fns in LAYERS.items() for fn in fns)


def _count_jacobi(counts: Counter, args, kwargs, result) -> None:
    n = np.shape(args[0] if args else kwargs["a"])[0]
    counts["linalg.jacobi_eigen.n3_sum"] += n ** 3


def _count_fock(counts: Counter, args, kwargs, result) -> None:
    counts["representation.fock_oracle.elements"] += sum(
        blk.H.shape[0] ** 2 for blk in result)


def _count_states(counts: Counter, args, kwargs, result) -> None:
    sector = args[1] if len(args) > 1 else kwargs["sector"]
    counts["bethe.states.returned"] += len(result)
    if sector.n_top > 0:
        counts["bethe.states.rooted"] += len(result)
    for st in result:
        counts["bethe.states.refined"] += st.refined
        counts["bethe.states.degenerate"] += st.degenerate_roots
        counts["bethe.states.unverified"] += not st.verified


# counts computed from a call's arguments and result, at the same boundary
COUNT_HOOKS = {
    "linalg.jacobi_eigen": _count_jacobi,
    "representation.fock_oracle": _count_fock,
    "bethe.solve_sector": _count_states,
}


class Tracer:
    """In-memory span store plus the wrappers that fill it.

    ``active`` gates recording: the benchmark turns it on only while an
    operation runs, so input generation and correctness checks, which call
    some of the same functions, leave no spans.
    """

    def __init__(self) -> None:
        self.name = array("i")
        self.parent = array("i")
        self.op = array("i")
        self.failed = array("b")
        self.start = array("d")
        self.end = array("d")
        self.counts: Counter = Counter()
        self.current = -1
        self.op_id = -1
        self.active = False
        self._patched: list[tuple[object, str, object]] = []

    def _wrap(self, name_id: int, fn, hook):
        tracer = self
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not tracer.active:
                return fn(*args, **kwargs)
            sid = len(tracer.start)
            parent = tracer.current
            tracer.name.append(name_id)
            tracer.parent.append(parent)
            tracer.op.append(tracer.op_id)
            tracer.failed.append(0)
            tracer.end.append(0.0)
            tracer.current = sid
            tracer.start.append(clock())
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                tracer.failed[sid] = 1
                raise
            finally:
                tracer.end[sid] = clock()
                tracer.current = parent
            if hook is not None:
                hook(tracer.counts, args, kwargs, result)
            return result

        return traced

    def install(self) -> None:
        """Wrap every binding of every LAYERS function in loaded spinboson modules."""
        modules = [mod for key, mod in sys.modules.items()
                   if key == "spinboson" or key.startswith("spinboson.")]
        for mod_name, fns in LAYERS.items():
            home = sys.modules[f"spinboson.{mod_name}"]
            for fn_name in fns:
                original = getattr(home, fn_name)
                name = span_name(mod_name, fn_name)
                wrapper = self._wrap(SPAN_NAMES.index(name), original,
                                     COUNT_HOOKS.get(name))
                for mod in modules:
                    for attr, value in list(vars(mod).items()):
                        if value is original:
                            setattr(mod, attr, wrapper)
                            self._patched.append((mod, attr, original))

    def uninstall(self) -> None:
        for mod, attr, original in reversed(self._patched):
            setattr(mod, attr, original)
        self._patched.clear()

    def write(self, path) -> None:
        """All spans as gzipped TSV, one line per span, times in seconds."""
        with gzip.open(path, "wt", compresslevel=1) as fh:
            fh.write("id\top\tparent\tname\tstart\tend\tfailed\n")
            for sid in range(len(self.start)):
                fh.write(f"{sid}\t{self.op[sid]}\t{self.parent[sid]}\t"
                         f"{SPAN_NAMES[self.name[sid]]}\t{self.start[sid]!r}\t"
                         f"{self.end[sid]!r}\t{self.failed[sid]}\n")

    def summary(self) -> dict[str, float]:
        """Per-function calls, self seconds and failures, plus the counts.

        Self time is a span's duration minus the durations of its direct
        children; spans nest strictly because the benchmark is one thread.
        """
        n_names = len(SPAN_NAMES)
        name = np.asarray(self.name, dtype=np.int64)
        parent = np.asarray(self.parent, dtype=np.int64)
        dur = np.asarray(self.end) - np.asarray(self.start)
        child = np.zeros(dur.size)
        nested = parent >= 0
        np.add.at(child, parent[nested], dur[nested])
        self_time = dur - child
        calls = np.bincount(name, minlength=n_names)
        self_s = np.bincount(name, weights=self_time, minlength=n_names)
        failed = np.bincount(name, weights=np.asarray(self.failed, dtype=float),
                             minlength=n_names)
        out: dict[str, float] = {}
        for idx, span in enumerate(SPAN_NAMES):
            out[f"{span}.calls"] = int(calls[idx])
            out[f"{span}.self_s"] = float(self_s[idx])
            out[f"{span}.failed"] = int(failed[idx])
        out.update(self.counts)
        return out
