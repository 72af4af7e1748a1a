#!/usr/bin/env python3
"""Solve the five named models at sample couplings and print spectra.

For each sector the table shows both routes side by side: the closed-form
energy evaluated at the recovered roots, and the eigenvalue from dense
diagonalization, together with the worst root-equation residual.
"""

import argparse
from fractions import Fraction

import numpy as np

from spinboson.bethe import energy_from_roots, solve_sector
from spinboson.linalg import jacobi_eigen
from spinboson.model import enumerate_sectors, format_rational
from spinboson.presets import PRESET_NAMES, preset
from spinboson.representation import sector_matrices

SAMPLE_PARAMS = {
    "bose_hubbard": {"g_prime": 0.7, "g": 0.4},
    "lmg": {"g_prime": 0.9, "g": 0.7},
    "rigid_rotor": {"a": 1.0, "b": 2.0, "c": 3.0},
    "tavis_cummings": {"w": 1.0, "g_prime": 0.4, "g": 0.6},
    "two_mode_tc": {"w1": 0.9, "w2": 1.3, "g_prime": 0.4, "g": 0.6},
}

SAMPLE_J = {
    "bose_hubbard": Fraction(3, 2),
    "lmg": Fraction(2),
    "rigid_rotor": Fraction(1),
    "tavis_cummings": Fraction(1),
    "two_mode_tc": Fraction(1, 2),
}


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--max-bosons", type=int, default=2)
    parser.add_argument("--refine", action="store_true",
                        help="Newton-polish the recovered roots")
    args = parser.parse_args()

    for name in PRESET_NAMES:
        params = dict(SAMPLE_PARAMS[name])
        j = SAMPLE_J[name]
        if name == "rigid_rotor":
            params["j"] = j
        model = preset(name, params)
        print(f"\n=== {name}  (j = {format_rational(j)}) ===")
        for sec in enumerate_sectors(model, j, args.max_bosons):
            eig = jacobi_eigen(sector_matrices(model, sec).H)
            states = solve_sector(model, sec, refine=args.refine)
            print(f"sector p={sec.p} kappa={format_rational(sec.kappa)} "
                  f"dim={sec.dim}")
            print(f"  {'E (roots)':>14}  {'E (diag)':>14}  {'diff':>9}  "
                  f"{'max |residual|':>14}")
            for st, ev in zip(states, eig):
                e_roots = energy_from_roots(model, sec, st.roots)
                res = st.max_residual()
                res_txt = f"{res:14.3e}" if np.isfinite(res) else "     (cluster)"
                print(f"  {e_roots:14.9f}  {ev:14.9f}  {abs(e_roots - ev):9.2e}"
                      f"  {res_txt}")


if __name__ == "__main__":
    main()
