"""Fourth-order singularly perturbed eigenvalue problems in 1D, solved with
C1 Hermite finite elements on layer-adapted meshes.

solve(spec, coeffs, config) runs the whole chain on a MeshSpec and a
CoefficientSet: build_mesh, a Space of degree p on the mesh, assemble and
solve_smallest, returning a Solution with the space, the eigenpairs and
every mode as one FEFunction.  The analysis helpers measure errors and
rates.
"""

from .analysis import (InterpRecord, InterpReport, SlopeFit, Solution,
                       StudyRecord, StudyReport, compute_reference,
                       convergence_study, default_reference_n,
                       discrete_max_error, energy_norm_error, fit_slope,
                       interp_rate_study, sample_points, solve)
from .assembly import (CoefficientSet, FEFunction, Space, SymBandMatrix,
                       assemble, element_matrices)
from .eigensolver import (SolverConfig, Spectrum, residual_norms,
                          solve_smallest)
from .element import (HermiteData, PiecewiseFunction, QuadRule, ShapeTable,
                      eval_layer_function, gauss_rule, hermite_basis,
                      hermite_interpolant, shape_table)
from .errors import (AssumptionViolated, BadGrouping, CoefficientViolation,
                     DimensionMismatch, HermevpError, InvalidSpec, KTooLarge,
                     NoConvergence, NonpositiveError, NotPositiveDefinite,
                     RegionOverlap, TooFewPoints, WrongMeshKind, ZeroVector)
from .mesh import (BoundsReport, Mesh, MeshKind, MeshSpec, Region, build_mesh,
                   check_mesh_bounds)

__version__ = "0.1.0"

__all__ = [
    "AssumptionViolated", "BadGrouping", "BoundsReport",
    "CoefficientSet", "CoefficientViolation", "DimensionMismatch",
    "FEFunction",
    "HermevpError", "HermiteData", "InterpRecord", "InterpReport",
    "InvalidSpec", "KTooLarge", "Mesh", "MeshKind",
    "MeshSpec", "NoConvergence", "NonpositiveError",
    "NotPositiveDefinite", "PiecewiseFunction", "QuadRule",
    "Region", "RegionOverlap", "ShapeTable",
    "SlopeFit", "Solution", "SolverConfig", "Space", "Spectrum",
    "StudyRecord", "StudyReport", "SymBandMatrix", "TooFewPoints",
    "WrongMeshKind", "ZeroVector", "assemble", "build_mesh",
    "check_mesh_bounds", "compute_reference",
    "convergence_study", "default_reference_n", "discrete_max_error",
    "element_matrices", "energy_norm_error", "eval_layer_function",
    "fit_slope", "gauss_rule", "hermite_basis", "hermite_interpolant",
    "interp_rate_study", "residual_norms", "sample_points",
    "shape_table", "solve", "solve_smallest",
]
