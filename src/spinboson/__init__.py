"""Exact spectra for a family of spin-boson Hamiltonians.

Two independent routes to every spectrum: polynomial-eigenfunction root
recovery (functional Bethe ansatz) on each conserved-charge sector, and
direct dense diagonalization, cross-checked against each other.
"""

from .config import DEFAULT_TOLS, Tolerances
from .model import (
    ModelSpec,
    Rational,
    ReferenceState,
    SectorLabels,
    enumerate_sectors,
    format_rational,
    lambda_of,
    parse_rational,
    sector_dimension,
    sector_from_reference,
)
from .operators import (
    EulerOperator,
    apply_to_monomials,
    build_hamiltonian_operator,
    extract_polynomials,
    monomial_action,
)
from .representation import (
    FockBlock,
    SectorMatrices,
    check_algebra,
    fock_oracle,
    monomial_conjugation_check,
    sector_matrices,
)
from .linalg import (
    ConvergenceError,
    jacobi_eigen,
    newton_solve,
    polynomial_roots,
)
from .bethe import (
    BetheState,
    bae_residuals,
    energy_from_roots,
    solve_sector,
    solve_sectors,
)
from .presets import (
    DEFAULT_GRIDS,
    ERRATA,
    PRESET_NAMES,
    preset,
    published_energy,
    published_polynomials,
)

__all__ = [name for name in dir() if not name.startswith("_")]
__version__ = "0.1.0"
