"""Exact gradient expansion and attractor reconstruction for the 1D BGK model.

Submodules
----------
exactseries : the paper's Lagrange-inversion formula over Fractions (test oracle)
ce          : weight models, coefficients a_2n, large-order ratio analysis
borel       : Borel transform, Pade approximants, Laplace resummation
spectral    : branch continuation of the spectral polynomials, fold points
dispersion  : exact dispersion solvers (Gaussian and bounded-support) and
              the comparison of every method on a k grid
cli         : command-line front-end (attractor-kit)
"""

__version__ = "0.1.0"

from .exactseries import lagrange_coefficient
from .ce import (
    CECoefficients,
    WeightKind,
    WeightModel,
    build_source_series,
    ce_coefficients,
    radius_estimate,
    ratio_sequence,
)
from .borel import (
    PadeApproximant,
    ResummedDispersion,
    borel_transform,
    ce_truncation_eval,
    laplace_resum,
    pade,
    resum_dispersion,
)
from .spectral import (
    BranchCurve,
    FoldPoint,
    find_fold,
    trace_branch,
)
from .dispersion import (
    DispersionSample,
    compare_methods,
    gaussian_resolvent,
    solve_exact_bounded,
    solve_exact_gaussian,
)
