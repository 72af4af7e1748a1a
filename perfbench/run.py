"""Benchmark of the spinboson package built from this checkout's src/.

    python3 perfbench/run.py --workload sweep|spectrum|large_sector|all \\
        --seed N --seconds S --trace 0|1

One client drives a closed loop in this process: it executes the next
operation of the seeded workload only after the previous one returned, and
checks each output, outside the timed region, before going on.  The loop
stops at the first end of a round of the workload's balanced design after
the operations have taken S seconds in total.

--trace 0 reports the end-to-end metrics; --trace 1 runs the same operations
once untraced and once with every layer function wrapped (spans.py) and
reports the per-layer metrics, writing the spans under perfbench/out/.
Human-readable lines come first; the last line of stdout is one JSON object
with keys correct, attempted, failed and metrics.  Exit code 2 when the
checkout has no src/spinboson.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import statistics
import subprocess
import sys
import time
import warnings
from dataclasses import dataclass, field
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = Path(__file__).resolve().parent / "out"
SETUP_REPEATS = 21
WORKLOAD_NAMES = ("sweep", "spectrum", "large_sector")

# a fresh process: import the package and build one model per preset
SETUP_CODE = """
import sys, time
sys.path.insert(0, sys.argv[1])
start = time.perf_counter()
import spinboson
from spinboson import presets
import numpy as np
rng = np.random.default_rng(0)
for name in presets.PRESET_NAMES:
    presets.model_for_j(name, presets.random_params(name, rng), 2)
print(time.perf_counter() - start)
"""


def use_checkout_source() -> bool:
    """Put this checkout's src/ first on sys.path; False when it is absent."""
    if not (SRC / "spinboson" / "__init__.py").is_file():
        return False
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    return True


def measure_setup() -> float:
    """Median over fresh interpreters of import plus model construction."""
    times = []
    for _ in range(SETUP_REPEATS):
        proc = subprocess.run([sys.executable, "-I", "-c", SETUP_CODE, str(SRC)],
                              capture_output=True, text=True, timeout=120,
                              check=True, cwd=ROOT)
        times.append(float(proc.stdout.strip().splitlines()[-1]))
    return statistics.median(times)


@dataclass
class PassResult:
    attempted: int = 0
    failed: int = 0
    mismatched: int = 0
    states: int = 0
    uncertified: int = 0
    output_bytes: int = 0
    numpy_warnings: int = 0
    busy_s: float = 0.0
    latencies: list = field(default_factory=list)   # successful operations
    errors: dict = field(default_factory=dict)

    @property
    def states_per_s(self) -> float:
        return self.states / self.busy_s if self.busy_s else 0.0

    def add(self, outcome, elapsed: float) -> None:
        self.attempted += 1
        self.busy_s += elapsed
        self.states += outcome.states
        self.uncertified += outcome.uncertified
        self.output_bytes += outcome.output_bytes
        self.mismatched += outcome.mismatches > 0
        if outcome.error is not None:
            self.errors[outcome.error] = self.errors.get(outcome.error, 0) + 1
        if outcome.failed:
            self.failed += 1
        else:
            self.latencies.append(elapsed)


def run_pass(workload, seed: int, seconds: float, tracer=None,
             max_ops: int | None = None) -> PassResult:
    """Closed loop over the seeded stream until `seconds` of operation time
    have passed and a round of the workload is complete, or exactly
    `max_ops` operations when given."""
    from workloads import Outcome

    res = PassResult()
    stream = workload.stream(seed)
    clock = time.perf_counter
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        while (res.attempted < max_ops) if max_ops is not None else (
                res.busy_s < seconds or res.attempted % workload.round_size):
            item = next(stream)
            del caught[:]
            if tracer is not None:
                tracer.op_id = res.attempted
                tracer.active = True
            start = clock()
            try:
                raw = workload.execute(item)
                error = None
            except Exception as exc:  # a raising operation is a failed one
                error = type(exc).__name__
            elapsed = clock() - start
            if tracer is not None:
                tracer.active = False
            res.numpy_warnings += sum(issubclass(w.category, RuntimeWarning)
                                      for w in caught)
            res.add(Outcome(error=error) if error else workload.check(item, raw),
                    elapsed)
    return res


def _percentile_ms(values: list, pct: float) -> float:
    import numpy as np

    return 1e3 * float(np.percentile(values, pct)) if values else 0.0


def end_to_end(res: PassResult, setup_s: float) -> dict:
    """The metrics BENCHMARK.json gates on, each never zero."""
    return {
        "states_per_s": (res.states_per_s, "1/s"),
        "setup_s": (setup_s, "s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
                        "MB"),
    }


# what one operation is, per workload, for the human-readable lines
OP_NAMES = {"sweep": "draw", "spectrum": "request", "large_sector": "sector"}


def failure_metrics(res: PassResult) -> dict:
    return {
        "run.failed_frac": (res.failed / res.attempted, "ratio"),
        "run.uncertified_frac": (res.uncertified / res.states if res.states else 0.0,
                                 "ratio"),
        "run.numpy_warnings": (res.numpy_warnings, "count"),
    }


def latency_metrics(name: str, res: PassResult) -> dict:
    op = OP_NAMES[name]
    return {f"{op}_p50_ms": (_percentile_ms(res.latencies, 50), "ms"),
            f"{op}_p90_ms": (_percentile_ms(res.latencies, 90), "ms")}


def per_layer(summary: dict, traced: PassResult, untraced: PassResult) -> dict:
    from spans import SPAN_NAMES

    def ratio(num: float, den: float) -> float:
        return num / den if den else 0.0

    out = {}
    for span in SPAN_NAMES:
        out[f"{span}.calls"] = (summary[f"{span}.calls"], "count")
        out[f"{span}.self_s"] = (summary[f"{span}.self_s"], "s")
        out[f"{span}.failed"] = (summary[f"{span}.failed"], "count")
    sectors = summary["bethe.solve_sector.calls"]
    out["operators.builds_per_sector"] = (
        ratio(summary["operators.build_hamiltonian_operator.calls"], sectors), "ratio")
    out["representation.sector_matrices_per_sector"] = (
        ratio(summary["representation.sector_matrices.calls"], sectors), "ratio")
    out["linalg.roots_per_state"] = (
        ratio(summary["linalg.polynomial_roots.calls"],
              summary.get("bethe.states.rooted", 0)), "ratio")
    for key in ("representation.fock_oracle.elements", "linalg.jacobi_eigen.n3_sum",
                "bethe.states.refined", "bethe.states.degenerate",
                "bethe.states.unverified"):
        out[key] = (summary.get(key, 0), "count")
    out["cli.output_bytes"] = (traced.output_bytes, "B")
    out.update(failure_metrics(traced))
    out["run.trace_throughput_ratio"] = (
        ratio(traced.states_per_s, untraced.states_per_s), "ratio")
    return out


def warm_up(workload, seed: int) -> None:
    """Run the stream's first operation untimed, so that the package's caches
    (the Fock oracle's basis) hold what every later operation finds there."""
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        try:
            workload.execute(next(workload.stream(seed)))
        except Exception:  # the timed pass records it
            pass


def run_workload(name: str, seed: int, seconds: float, trace: bool,
                 setup_s: float) -> tuple[PassResult, dict, bool]:
    from spans import Tracer
    from workloads import WORKLOADS

    workload = WORKLOADS[name]
    warm_up(workload, seed)
    untraced = run_pass(workload, seed, seconds)
    if not trace:
        metrics = end_to_end(untraced, setup_s)
        return untraced, metrics, untraced.mismatched == 0
    tracer = Tracer()
    tracer.install()
    try:
        traced = run_pass(workload, seed, seconds, tracer,
                          max_ops=untraced.attempted)
    finally:
        tracer.uninstall()
    OUT.mkdir(exist_ok=True)
    tracer.write(OUT / f"spans_{name}_seed{seed}.tsv.gz")
    metrics = per_layer(tracer.summary(), traced, untraced)
    return traced, metrics, untraced.mismatched == 0 and traced.mismatched == 0


def report(name: str, res: PassResult, metrics: dict, correct: bool) -> None:
    print(f"== {name}: {res.attempted} operations, {res.failed} failed "
          f"({res.mismatched} by the independent check), "
          f"{res.states} states in {res.busy_s:.2f} s of operation time; "
          f"correctness {'PASS' if correct else 'FAIL'}")
    if res.errors:
        print("   failures: " + ", ".join(f"{k} x{v}" for k, v in
                                          sorted(res.errors.items())))
    print(f"   latency samples (successful {OP_NAMES[name]}s): {len(res.latencies)}")
    for key, (value, unit) in metrics.items():
        print(f"   {key:48s} {value:>16.6g} {unit}")


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=WORKLOAD_NAMES + ("all",))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not use_checkout_source():
        print(f"error: no spinboson package under {SRC}", file=sys.stderr)
        return 2
    # one client on a 2-core machine: keep BLAS single-threaded (before numpy)
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = "1"

    setup_s = 0.0 if args.trace else measure_setup()
    names = WORKLOAD_NAMES if args.workload == "all" else (args.workload,)
    result = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in names:
        res, metrics, correct = run_workload(name, args.seed, args.seconds,
                                             bool(args.trace), setup_s)
        printed = metrics if args.trace else {
            **metrics, **latency_metrics(name, res), **failure_metrics(res)}
        report(name, res, printed, correct)
        prefix = f"{name}." if len(names) > 1 else ""
        result["correct"] &= correct
        result["attempted"] += res.attempted
        result["failed"] += res.failed
        result["metrics"].update({f"{prefix}{key}": {"value": value, "unit": unit}
                                  for key, (value, unit) in metrics.items()})
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
