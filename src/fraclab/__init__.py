"""Numerical laboratory for a singular critical problem of fractional order.

The package assembles the exact Toeplitz stiffness matrix of the fractional
Laplacian on an interval, solves the singular semilinear problem by one
damped Newton started from a reshaped torsion field, follows the minimal
branch by monotone iteration up to an estimated extremal parameter,
certifies that parameter against a one-dimensional eigenvalue bound,
locates a second solution at a mountain-pass level, and measures boundary
growth exponents.
"""

from .bifurcation import (
    BifurcationDiagram,
    DiagramEntry,
    HolderFit,
    LambdaStarResult,
    estimate_lambda_star,
    extremal_solution,
    holder_fit,
    lambda_certificate,
    sweep_lambda,
)
from .errors import ConvergenceError, FraclabError, ParameterError
from .grid import Grid, boundary_distance, build_grid
from .operator import (
    DiscreteSystem,
    Field,
    ProblemParams,
    SpectralData,
    apply_operator,
    assemble,
    kernel_constant,
    m_matrix_threshold,
    principal_eigenpair,
    solve_dirichlet,
)
from .solver import (
    ComparisonReport,
    EnvelopeReport,
    SolveReport,
    SupersolutionResult,
    build_supersolution,
    comparison_check,
    default_multiplier_ladder,
    envelope_check,
    monotone_iteration,
    scan_supersolution,
    solve_pure_singular,
    solve_singular_semilinear,
    weak_residual,
)
from .variational import (
    Bubble,
    GapReport,
    energy,
    energy_gap_check,
    gateaux_derivative,
    make_bubble,
    mountain_pass_search,
    sobolev_constant,
)

__version__ = "0.1.0"

__all__ = [
    "BifurcationDiagram",
    "Bubble",
    "ComparisonReport",
    "ConvergenceError",
    "DiagramEntry",
    "DiscreteSystem",
    "EnvelopeReport",
    "Field",
    "FraclabError",
    "GapReport",
    "Grid",
    "HolderFit",
    "LambdaStarResult",
    "ParameterError",
    "ProblemParams",
    "SolveReport",
    "SpectralData",
    "SupersolutionResult",
    "apply_operator",
    "assemble",
    "boundary_distance",
    "build_grid",
    "build_supersolution",
    "comparison_check",
    "default_multiplier_ladder",
    "energy",
    "energy_gap_check",
    "envelope_check",
    "estimate_lambda_star",
    "extremal_solution",
    "gateaux_derivative",
    "holder_fit",
    "kernel_constant",
    "lambda_certificate",
    "m_matrix_threshold",
    "make_bubble",
    "monotone_iteration",
    "mountain_pass_search",
    "principal_eigenpair",
    "scan_supersolution",
    "sobolev_constant",
    "solve_dirichlet",
    "solve_pure_singular",
    "solve_singular_semilinear",
    "sweep_lambda",
    "weak_residual",
]
