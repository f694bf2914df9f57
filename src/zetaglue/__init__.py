"""Zeta-regularized determinants on product cylinders and gluing checks.

The library computes zeta-regularized determinants of the Laplacian
-d^2/du^2 + Delta_Y on [0, L] x Y under Dirichlet/Neumann/Robin end
conditions, the spectra and regularized determinants of the associated
interface operators at the cut, and verifies the determinant gluing
identities term by term from two independent formula paths.
"""

from .asymptotics import (
    AsymConstants,
    a0_constant,
    asym_constants,
    b0_constant,
    c_k,
    s_alpha,
    s_alpha_pair,
    w0_w1,
)
from .cylinder import (
    BoundaryCondition,
    CylinderSpec,
    DetReport,
    log_det_cylinder,
    series_sum,
)
from .errors import (
    ConvergenceError,
    HeatDataRequiredError,
    InsufficientSpectrumError,
    MissingHeatCoefficientError,
    SingularParameterError,
    ValidationError,
    ZetaGlueError,
)
from .gluing import (
    CorrectionMatrices,
    GluingConfig,
    GluingReport,
    correction_matrices,
    glue_neumann_check,
    glue_robin_check,
)
from .interface_ops import (
    InterfaceSpectrum,
    log_det_interface,
    log_det_star_RS0,
    qd0_det_segment,
    qd_det_segment,
    qd_matrix_segment,
    spec_RS0,
    spec_interface,
)
from .oracle import RelativeLogDet, SecularProblem, relative_log_det, segment_eigenvalues
from .special import hurwitz_zeta, log_gamma, riemann_zeta
from .spectra import (
    Circle,
    CrossSection,
    ExplicitSpectrum,
    FlatTorus,
    HeatExpansion,
    Point,
    SpectrumEntry,
    enumerate_spectrum,
    explicit_from_json,
    explicit_mirror,
    heat_coefficients,
    heat_trace,
    kernel_dim,
)
from .zreg import (
    RegularizedDet,
    ZetaPoint,
    log_det_shifted,
    log_det_star,
    zeta_derivative0,
    zeta_point,
)

__version__ = "0.1.0"

__all__ = [
    "__version__",
    # spectra
    "CrossSection", "Point", "Circle", "FlatTorus", "ExplicitSpectrum",
    "SpectrumEntry", "HeatExpansion", "enumerate_spectrum", "heat_coefficients",
    "kernel_dim", "heat_trace", "explicit_from_json", "explicit_mirror",
    # zeta engine
    "ZetaPoint", "RegularizedDet", "zeta_point", "zeta_derivative0",
    "log_det_star", "log_det_shifted", "riemann_zeta", "hurwitz_zeta", "log_gamma",
    # asymptotics
    "AsymConstants", "c_k", "s_alpha", "s_alpha_pair", "w0_w1",
    "a0_constant", "b0_constant", "asym_constants",
    # cylinder
    "BoundaryCondition", "CylinderSpec", "DetReport", "log_det_cylinder",
    "series_sum",
    # interface
    "InterfaceSpectrum", "qd_matrix_segment", "qd_det_segment", "qd0_det_segment",
    "spec_interface", "log_det_interface", "spec_RS0", "log_det_star_RS0",
    # gluing
    "GluingConfig", "GluingReport", "CorrectionMatrices", "correction_matrices",
    "glue_robin_check", "glue_neumann_check",
    # oracle
    "SecularProblem", "RelativeLogDet", "segment_eigenvalues", "relative_log_det",
    # errors
    "ZetaGlueError", "ValidationError", "InsufficientSpectrumError",
    "HeatDataRequiredError", "MissingHeatCoefficientError",
    "SingularParameterError", "ConvergenceError",
]
