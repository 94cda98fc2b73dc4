"""Worked example: the invariant instanton on the Stiefel 7-manifold.

The unit tangent bundle of the 4-sphere carries a homogeneous Sasakian
structure whose symmetry algebra is the rank-10 algebra of real
antisymmetric 5x5 matrices.  The reductive complement of the isotropy
splits into a line and two 3-dimensional blocks, and the metric scales
(y1, y2, y3) on those blocks select the geometry; the values
(9/16, 3/8, 3/8) give the Einstein normalization used throughout.

The gauge bundle is the isotropy itself: the last three basis elements
span a copy of the rotation algebra in three dimensions, inheriting the
ambient invariant inner product (6 times the plain dot product).
The invariant connection's curvature is

    F = (1/y2) (w1 (x) f1 + w3 (x) f2 + w5 (x) f3)

with w1, w3, w5 from the self-dual 2-form family and f1, f2, f3 the
fiber basis.  This module rebuilds that curvature, certifies its
self-dual type, exhibits sections on which the curvature quadratic
form takes both signs (the operator is indefinite), and runs the
positivity and stability reports on the same data.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .flat_model import ContactModel
from .lie_algebra import (
    LieAlgebraSpec,
    killing_matrix,
    make_so,
    norm_vec,
    subalgebra_spec,
)
from .gauge_fields import (
    GValuedForm,
    f_components_from_gform,
    g_norm,
    gform_from_w_coefficients,
    instanton_classify,
    omega_component,
    two_zero_from_v_coefficients,
)
from .weitzenbock_engine import (
    TransverseRicci,
    quad_form_F,
    quad_form_F_complex,
    v_basis_quad_form,
    vanishing_report,
)
from .ym_stability import RicciTensor7, stability_report

__all__ = [
    "STIEFEL_EINSTEIN_Y",
    "SDCI_TOLERANCE",
    "SAMPLE_BLOCK",
    "StiefelSpec",
    "build_stiefel",
    "gauge_algebra",
    "alpha_curvature",
    "sdci_verify",
    "structure_check",
    "indefiniteness_search",
    "stiefel_report",
]

# metric scales on the three reductive blocks for the Einstein geometry
STIEFEL_EINSTEIN_Y = (9.0 / 16.0, 3.0 / 8.0, 3.0 / 8.0)

# residual budget for certifying the curvature type
SDCI_TOLERANCE = 1e-12

# random sections per block of the sign search: bounds its memory to a
# few megabytes, whatever the sample count
SAMPLE_BLOCK = 4096


@dataclass(frozen=True)
class StiefelSpec:
    """Symmetry algebra, reductive split, and metric scales.

    The index tuples name 1-based basis elements of ``algebra``:
    ``m1`` spans the vertical line, ``m2`` and ``m3`` the horizontal
    blocks, and ``fiber`` the isotropy copy of the rotation algebra
    that doubles as the gauge fiber.
    """

    algebra: LieAlgebraSpec
    y: tuple
    m1: tuple = (1,)
    m2: tuple = (2, 3, 4)
    m3: tuple = (5, 6, 7)
    fiber: tuple = (8, 9, 10)

    @property
    def einstein(self) -> bool:
        return self.y == STIEFEL_EINSTEIN_Y

    def split_indices(self) -> tuple:
        return self.m1 + self.m2 + self.m3 + self.fiber


def build_stiefel(
    y1: float = 9.0 / 16.0,
    y2: float = 3.0 / 8.0,
    y3: float = 3.0 / 8.0,
) -> StiefelSpec:
    """Spec with the given metric scales (defaults: Einstein values)."""
    y = (float(y1), float(y2), float(y3))
    if min(y) <= 0.0:
        raise ValueError("metric scales must be positive")
    spec = StiefelSpec(algebra=make_so(5), y=y)
    split = spec.split_indices()
    if sorted(split) != list(range(1, spec.algebra.dim + 1)):
        raise ValueError("reductive split does not enumerate the algebra")
    return spec


def gauge_algebra(spec: StiefelSpec) -> LieAlgebraSpec:
    """Fiber copy of the rotation algebra with the ambient inner product."""
    return subalgebra_spec(spec.algebra, spec.fiber, name="so(5) fiber")


def _curvature_rows(spec: StiefelSpec) -> np.ndarray:
    """Coefficients of the invariant curvature on the w family.

    The three self-dual generators w1, w3, w5 each carry one fiber
    direction, with common coefficient ``1/y2`` (8/3 at the Einstein
    point).
    """
    rows = np.zeros((8, len(spec.fiber)))
    rows[[0, 2, 4], [0, 1, 2]] = 1.0 / spec.y[1]
    return rows


def alpha_curvature(spec: StiefelSpec) -> GValuedForm:
    """Curvature of the invariant connection, built from its w rows.

    The curvature does not depend on the model.
    """
    return gform_from_w_coefficients(
        gauge_algebra(spec), _curvature_rows(spec)
    )


def sdci_verify(
    spec: StiefelSpec,
    model: ContactModel,
    tol: float = SDCI_TOLERANCE,
) -> dict:
    """Certify that the invariant curvature is of self-dual type.

    Reports the classification label, the worst residual across both
    classification routes, the pairing with the contact 2-form, and
    the trace of the component table; all must vanish within ``tol``
    relative to the curvature norm for a pass.
    """
    F = alpha_curvature(spec)
    verdict = instanton_classify(F, model, tol=tol)
    off_keys = ("block_6", "block_1", "vertical", "reality")
    residuals = [
        float(verdict[route][key])
        for route in ("residuals_eigen", "residuals_type")
        for key in off_keys
    ]
    worst = max(residuals) if residuals else 0.0
    omega_part = float(np.max(np.abs(omega_component(F, model))))
    fc = f_components_from_gform(F)
    trace = float(np.max(np.abs(fc.trace_vector())))
    scale = g_norm(F)
    passed = (
        verdict["label"] == "SD"
        and worst <= tol * scale
        and omega_part <= tol * scale
        and trace <= tol * scale
    )
    return {
        "label": verdict["label"],
        "worst_residual": worst,
        "omega_pairing": omega_part,
        "component_trace": trace,
        "curvature_norm": scale,
        "tolerance": tol * scale,
        "passed": bool(passed),
    }


def structure_check(spec: StiefelSpec) -> dict:
    """Exact structural facts: split size, fiber brackets, fiber Gram.

    The fiber triple must close cyclically with unit coefficients
    ``[f1, f2] = f3, [f2, f3] = f1, [f3, f1] = f2`` exactly, and the
    ambient Killing form restricted to it, from the structure constants
    of the whole algebra, must equal 6 times the identity exactly.
    """
    algebra = spec.algebra
    i1, i2, i3 = (k - 1 for k in spec.fiber)
    cyclic = ((i1, i2, i3), (i2, i3, i1), (i3, i1, i2))
    bracket_exact = True
    for a, b, c in cyclic:
        row = algebra.structure[a, b]
        expected = np.zeros(algebra.dim)
        expected[c] = 1.0
        if not np.array_equal(row, expected):
            bracket_exact = False
    fiber = [i1, i2, i3]
    ambient = -killing_matrix(algebra.structure)[np.ix_(fiber, fiber)]
    gram_exact = bool(np.array_equal(ambient, 6.0 * np.eye(3)))
    split_sizes = (
        len(spec.m1),
        len(spec.m2),
        len(spec.m3),
        len(spec.fiber),
    )
    return {
        "split_sizes": split_sizes,
        "split_total": int(sum(split_sizes)),
        "algebra_dim": int(algebra.dim),
        "split_complete": sum(split_sizes) == algebra.dim,
        "fiber_brackets_exact": bool(bracket_exact),
        "fiber_gram_exact": gram_exact,
        "einstein": bool(spec.einstein),
        "y": [float(v) for v in spec.y],
    }


def indefiniteness_search(
    spec: StiefelSpec, seed: int = 0, samples: int = 200
) -> dict:
    """Witness sections of both signs for the curvature quadratic form.

    The analytic pair puts the second fiber direction on the third
    coefficient slot and plus or minus the third fiber direction on the
    fifth; the fiber commutator then pairs straight with the first
    curvature component and the quadratic form evaluates to plus or
    minus 4 at the Einstein point.  A seeded random search confirms
    that both signs also occur in generic directions.

    The random sections are drawn and evaluated in blocks of
    ``SAMPLE_BLOCK``: one ``(block, 6, dim)`` normal draw, which reads
    the same stream as one ``(6, dim)`` draw per section, turned into one
    stack of sections and evaluated by :func:`quad_form_F_complex`.  The
    analytic witnesses go through :func:`quad_form_F` one at a time.
    Everything is read from ``spec``: the curvature and the sections are
    built on the fixed coefficient families, with no calibrated model.
    """
    if samples < 1:
        raise ValueError("need at least one random sample")
    fc = f_components_from_gform(alpha_curvature(spec))
    gauge = fc.algebra
    a_rows = _curvature_rows(spec)

    witnesses = {}
    for label, sign in (("plus", 1.0), ("minus", -1.0)):
        b_rows = np.zeros((6, gauge.dim))
        b_rows[2, 1] = 1.0
        b_rows[4, 2] = sign
        quad = quad_form_F(fc, two_zero_from_v_coefficients(gauge, b_rows))
        expansion = v_basis_quad_form(gauge, b_rows, a_rows)
        witnesses[label] = {
            "quad": float(quad),
            "doubled": float(2.0 * quad),
            "expansion": float(expansion),
            "display": float(spec.y[1] * expansion),
            "rows": b_rows.tolist(),
        }

    rng = np.random.default_rng(seed)
    best_positive = 0.0
    best_negative = 0.0
    for start in range(0, samples, SAMPLE_BLOCK):
        count = min(SAMPLE_BLOCK, samples - start)
        rows = rng.normal(size=(count, 6, gauge.dim))
        quads = quad_form_F_complex(
            fc, two_zero_from_v_coefficients(gauge, rows)
        ).real
        best_positive = max(best_positive, float(quads.max()))
        best_negative = min(best_negative, float(quads.min()))

    indefinite = (
        witnesses["plus"]["quad"] > 0.0 and witnesses["minus"]["quad"] < 0.0
    )
    return {
        "analytic": witnesses,
        "random": {
            "seed": int(seed),
            "samples": int(samples),
            "best_positive": float(best_positive),
            "best_negative": float(best_negative),
        },
        "indefinite": bool(indefinite),
    }


def stiefel_report(
    model: ContactModel,
    seed: int = 0,
    samples: int = 200,
) -> dict:
    """End-to-end pipeline on the invariant instanton.

    Gathers the structural checks, the self-dual certification, the
    sign witnesses, the positivity report for the combined curvature
    and Ricci endomorphism, and the stability report for the energy's
    second variation, all on the same curvature data, for the Einstein
    spec of :func:`build_stiefel`.
    """
    spec = build_stiefel()
    F = alpha_curvature(spec)
    gauge = F.algebra
    structure = structure_check(spec)
    sdci = sdci_verify(spec, model)
    indefinite = indefiniteness_search(spec, seed, samples)
    vanishing = vanishing_report(F, TransverseRicci.einstein(), model)
    stability = stability_report(F, RicciTensor7.einstein(), model)
    fiber_norms = [
        float(norm_vec(gauge, row)) for row in np.eye(gauge.dim)
    ]
    report = {
        "spec": {
            "y": [float(v) for v in spec.y],
            "einstein": bool(spec.einstein),
            "curvature_coefficient": float(1.0 / spec.y[1]),
        },
        "structure": structure,
        "sdci": sdci,
        "curvature": {
            "form_norm": float(g_norm(F)),
            "component_frobenius": vanishing["norms"][
                "component_frobenius"
            ],
            "fiber_norms": fiber_norms,
        },
        "indefiniteness": indefinite,
        "vanishing": vanishing,
        "stability": stability,
        "verdicts": {
            "sdci": "PASS" if sdci["passed"] else "FAIL",
            "f_indefinite": bool(indefinite["indefinite"]),
            "vanishing": vanishing["verdict"],
            "stability": stability["verdict"],
        },
    }
    return report
