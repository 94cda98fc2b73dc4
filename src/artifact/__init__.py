"""Pointwise computational laboratory for gauge fields on a 7-dimensional
contact model fiber.

The package calibrates a flat model of the fiber, decomposes forms under
the contact structure, and studies curvature operators acting on Lie
algebra valued forms: eigenvalue splittings, curvature quadratic forms,
positivity estimates, stability of critical connections, and symbol-level
exactness of the associated deformation complexes, together with a worked
homogeneous example.
"""

__version__ = "0.1.0"

from .flat_model import (
    CalibrationError,
    ContactModel,
    KForm,
    calibrate_model,
    calibration_constants,
)
from .form_decomposition import (
    BidegreeSplit,
    TwoFormSplit,
    bidegree_split,
    project,
    t_eta_matrix,
)
from .lie_algebra import (
    LieAlgebraSpec,
    algebra_from_basis,
    make_abelian,
    make_so,
    make_su,
    subalgebra_spec,
)
from .gauge_fields import (
    FComponents,
    GValuedForm,
    TwoZeroSection,
    g_norm,
    instanton_classify,
)
from .weitzenbock_engine import (
    TransverseRicci,
    TwoZeroEndo,
    build_F_operator,
    build_R_operator,
    vanishing_report,
)
from .ym_stability import (
    OneFormSection,
    RicciTensor7,
    algebraic_second_variation,
    stability_report,
)
from .deformation_symbols import (
    QuotientSpaces,
    batch_exactness,
    build_quotient_spaces,
    exactness_report,
)
from .stiefel_example import (
    StiefelSpec,
    build_stiefel,
    stiefel_report,
)
# the CLI layer loads with the package; its entry point is
# ``artifact.cli_interface:main`` (also ``python -m artifact.cli_interface``)
from . import cli_interface  # noqa: F401

__all__ = [
    "__version__",
    "CalibrationError",
    "ContactModel",
    "KForm",
    "calibrate_model",
    "calibration_constants",
    "BidegreeSplit",
    "TwoFormSplit",
    "bidegree_split",
    "project",
    "t_eta_matrix",
    "LieAlgebraSpec",
    "algebra_from_basis",
    "make_abelian",
    "make_so",
    "make_su",
    "subalgebra_spec",
    "FComponents",
    "GValuedForm",
    "TwoZeroSection",
    "g_norm",
    "instanton_classify",
    "TransverseRicci",
    "TwoZeroEndo",
    "build_F_operator",
    "build_R_operator",
    "vanishing_report",
    "OneFormSection",
    "RicciTensor7",
    "algebraic_second_variation",
    "stability_report",
    "QuotientSpaces",
    "batch_exactness",
    "build_quotient_spaces",
    "exactness_report",
    "StiefelSpec",
    "build_stiefel",
    "stiefel_report",
]
