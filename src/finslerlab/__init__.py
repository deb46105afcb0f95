"""finslerlab: numerical Finsler geometry for Randers spaces.

Computes the fundamental tensor, Cartan tensor, spray, nonlinear
connection and S-curvature of coordinate-defined Finsler structures,
and decides whether a Randers space admits a measure with vanishing
S-curvature (the Killing-form-of-constant-length criterion), emitting
the Busemann-Hausdorff density as the certificate.
"""

__version__ = "0.1.0"

from .core import (
    CoordinateChart,
    FinslerStructure,
    GeodesicPath,
    cartan_tensor,
    formal_christoffel,
    fundamental_tensor,
    geodesic,
    nonlinear_connection,
    probe_grid,
    probe_pairs,
    probe_points,
    spray,
)
from .expr import ScalarField, evaluate, free_variables, parse, to_source
from .jets import Jet, fd_oracle, gradient, hessian, seed, third_order
from .randers import (
    BetaAnalysis,
    RandersSpace,
    TheoremVerdict,
    bh_density_closed_form,
    build_space,
    finsler,
    theorem_verdict,
)
from .scurvature import (
    Measure,
    bh_density_monte_carlo,
    s_curvature,
    s_curvature_transport,
)

__all__ = [
    "__version__",
    "CoordinateChart",
    "FinslerStructure",
    "GeodesicPath",
    "ScalarField",
    "Jet",
    "RandersSpace",
    "BetaAnalysis",
    "TheoremVerdict",
    "Measure",
    "parse",
    "evaluate",
    "free_variables",
    "to_source",
    "seed",
    "gradient",
    "hessian",
    "third_order",
    "fd_oracle",
    "fundamental_tensor",
    "cartan_tensor",
    "formal_christoffel",
    "spray",
    "nonlinear_connection",
    "geodesic",
    "probe_grid",
    "probe_pairs",
    "probe_points",
    "build_space",
    "finsler",
    "theorem_verdict",
    "bh_density_closed_form",
    "bh_density_monte_carlo",
    "s_curvature",
    "s_curvature_transport",
]
