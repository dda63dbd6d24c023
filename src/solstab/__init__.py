"""Stability certificates for algebraic Ricci solitons on Lie groups."""

from .algebra import (
    FramedAlgebra,
    MetricLieAlgebra,
    StructureProfile,
    derivation_basis,
    load_algebra,
    orthonormal_frame,
    parse_algebra,
    structure_profile,
    validate_algebra,
)
from .curvature import CurvatureSummary, curvature_summary
from .flow import (
    FlowConfig,
    FlowTrace,
    flow_rhs,
    integrate_flow,
    perturbation_experiment,
)
from .soliton import (
    EinsteinCertificate,
    GaussianExtensionPlan,
    SolitonCertificate,
    check_einstein,
    gaussian_extension_dimension,
    rank_one_extension,
    solve_algebraic_soliton,
    verify_gaussian_product,
)
from .stability import (
    StabilityForm,
    StabilityReport,
    Sym2Basis,
    jacobi_eigenvalues,
    max_eigenvalue,
    stability_form,
    stability_report,
    sym2_basis,
)

__version__ = "0.1.0"
