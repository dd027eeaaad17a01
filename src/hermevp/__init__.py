"""Fourth-order singularly perturbed eigenvalue problems in 1D, solved with
C1 Hermite finite elements on layer-adapted meshes.

The pieces compose in dependency order: build a Mesh from a MeshSpec,
tabulate shapes with shape_table, assemble (K, M) with a CoefficientSet,
solve the pencil with solve_smallest, and measure errors and rates with
the analysis helpers.
"""

from .analysis import (InterpRecord, InterpReport, ReferenceSolution,
                       SlopeFit, StudyRecord, StudyReport, align_sign,
                       compute_reference, convergence_study,
                       default_reference_n, discrete_max_error,
                       energy_norm_error, fit_slope, fit_slope_tail,
                       interp_rate_study, sample_points)
from .assembly import (CoefficientSet, DofMap, FEFunction, SymBandMatrix,
                       assemble, build_dof_map, element_matrices,
                       energy_inner_product, rayleigh_quotient)
from .eigensolver import (SolverConfig, Spectrum, residual_norms,
                          solve_smallest)
from .element import (HermiteData, PiecewiseFunction, QuadRule, ShapeTable,
                      eval_layer_function, gauss_rule, hermite_basis,
                      hermite_interpolant, shape_table)
from .errors import (AmbiguousSign, AssumptionViolated, BadGrouping,
                     CoefficientViolation, DegreeTooLow, DimensionMismatch,
                     HermevpError, InvalidLayerWidth, InvalidSpec, KTooLarge,
                     NoConvergence, NonpositiveError, NotPositiveDefinite,
                     RegionOverlap, TooFewPoints, WrongMeshKind, ZeroVector)
from .mesh import (BoundsReport, GradingFunction, Mesh, MeshKind, MeshSpec,
                   Region, build_exp_mesh, build_mesh, build_shishkin_mesh,
                   build_uniform_mesh, check_mesh_bounds, mesh_to_csv)

__version__ = "0.1.0"

__all__ = [
    "AmbiguousSign", "AssumptionViolated", "BadGrouping", "BoundsReport",
    "CoefficientSet", "CoefficientViolation", "DegreeTooLow",
    "DimensionMismatch", "DofMap", "FEFunction", "GradingFunction",
    "HermevpError", "HermiteData", "InterpRecord", "InterpReport",
    "InvalidLayerWidth", "InvalidSpec", "KTooLarge", "Mesh", "MeshKind",
    "MeshSpec", "NoConvergence", "NonpositiveError",
    "NotPositiveDefinite", "PiecewiseFunction", "QuadRule",
    "ReferenceSolution", "Region", "RegionOverlap", "ShapeTable",
    "SlopeFit", "SolverConfig", "Spectrum", "StudyRecord", "StudyReport",
    "SymBandMatrix", "TooFewPoints", "WrongMeshKind", "ZeroVector",
    "align_sign", "assemble", "build_dof_map",
    "build_exp_mesh", "build_mesh", "build_shishkin_mesh",
    "build_uniform_mesh", "check_mesh_bounds", "compute_reference",
    "convergence_study", "default_reference_n", "discrete_max_error",
    "element_matrices", "energy_inner_product", "energy_norm_error",
    "eval_layer_function", "fit_slope", "fit_slope_tail", "gauss_rule",
    "hermite_basis", "hermite_interpolant", "interp_rate_study",
    "mesh_to_csv", "rayleigh_quotient", "residual_norms",
    "sample_points", "shape_table", "solve_smallest",
]
