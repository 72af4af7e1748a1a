#!/usr/bin/env python3
"""Run the full verification battery and print one line per check.

Same battery as `spinboson verify`; this entry point is convenient for
experimenting with seeds, draw counts, and tolerances from a shell loop.
"""

import argparse
import sys

from spinboson.cli import merged_tolerances
from spinboson.verify import DEFAULT_SEED, errata_report, run_verification


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--draws", type=int, default=10,
                        help="random coupling draws per preset")
    parser.add_argument("--tol-match", type=float, default=None)
    parser.add_argument("--tol-bae", type=float, default=None)
    args = parser.parse_args()

    results = run_verification(seed=args.seed, tols=merged_tolerances({}, args),
                               n_draws=args.draws)
    for res in results:
        print(res.line())
    print("\nerrata registry (printed form vs corrected form):")
    for entry in errata_report():
        mark = "confirmed" if entry["confirmed"] else "NOT CONFIRMED"
        print(f"  [{mark}] {entry['location']}")
        print(f"      printed:   {entry['printed']}  "
              f"(deviates by {entry['printed_deviation']:.1e})")
        print(f"      corrected: {entry['corrected']}  "
              f"(deviates by {entry['corrected_deviation']:.1e})")
    ok = all(res.passed for res in results)
    print("\noverall:", "PASS" if ok else "FAIL")
    return 0 if ok else 2


if __name__ == "__main__":
    sys.exit(main())
