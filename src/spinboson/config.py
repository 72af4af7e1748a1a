"""Centralized numerical tolerances.

Every iterative routine and every cross-check takes its threshold from one
Tolerances record so that a run can be tightened or relaxed in a single place
(the CLI exposes the knobs as --tol-* flags).
"""

from __future__ import annotations

from dataclasses import dataclass


@dataclass(frozen=True)
class Tolerances:
    # iterative solvers
    # eigenvalue check: |sum w - tr A| and |sum w^2 - ||A||_F^2|, relative
    # to b = max(||A||_F, 1) and to b^2
    eigen: float = 1e-12
    # Aberth-Ehrlich step test, relative; the residual bound of a row that
    # runs out of steps is its square root
    roots: float = 1e-10
    newton: float = 1e-10       # Newton residual target (inf norm)
    # cross-checks
    match: float = 1e-8         # spectrum multiset comparison, relative
    bae: float = 1e-6           # scaled Bethe-equation residual certificate
    qes: float = 1e-10          # invariant-subspace overflow, relative
    algebra: float = 1e-10      # commutator identities, relative
    conjugation: float = 1e-9   # monomial <-> orthonormal basis similarity
    energy_cross: float = 1e-9  # closed-form energy vs leading-coefficient ratio
    published: float = 1e-10    # regression against printed polynomials
    symmetry: float = 1e-12     # eigensolve input asymmetry, relative
    # root clustering
    cluster: float = 1e-6       # roots closer than this (x scale) are a cluster
    bae_guard: float = 1e-4     # min root spacing for the residual certificate


DEFAULT_TOLS = Tolerances()
