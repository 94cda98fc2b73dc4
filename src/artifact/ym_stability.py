"""Algebraic second variation of the gauge energy on 1-form deformations.

A deformation of a connection is an algebra-valued 1-form
``B = sum_j e^j (x) B_j``.  The zero-order part of the second variation
of the energy along ``B`` is

    S(B) = B o Ric + 2 R_F(B),
    (R_F B)_i = sum_j [F_{ji}, B_j],

where ``F`` is the curvature 2-form of the connection and ``Ric`` acts
on the 1-form index.  Both pieces are assembled here as matrices on the
stacked coefficient space of dimension ``7 * dim(algebra)``.

Two sufficient conditions for stability are evaluated.  The coarse one
bounds the curvature coupling through the sharp commutator inequality
``||[x, y]|| <= sqrt(2) ||x|| ||y||``: whenever the smallest Ricci
eigenvalue ``c`` is positive and ``||F|| < c / (2 sqrt(2))`` the
quadratic form ``<S(B), B>`` is positive.  The sharp one simply checks
the smallest eigenvalue of ``S`` itself, which can certify stability
even when the norm test is inconclusive.

A connection whose curvature is of the self-dual type is automatically
a critical point of the energy: the only torsion term in the first
variation pairs the curvature with the square of the contact
differential, and that pairing kills the self-dual block.  The report
therefore carries the residual norms of ``F ^ deta ^ deta`` (a 6-form)
and of its wedge with the contact form (a 7-form) as diagnostics.

The curvature grid, the coupling and the quadratic-form paths also take
stacks: a stack of curvatures (see :mod:`~artifact.gauge_fields`) and a
section whose ``vectors`` have shape ``(7, ..., dim)`` give results per
sample, the coupling and second-variation matrices as ``(..., 7 d, 7 d)``.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass, field

import numpy as np

from .flat_model import (
    _PAIR_COLS,
    _PAIR_ROWS,
    ContactModel,
    _two_form_matrix,
    left_wedge_matrix,
)
from .lie_algebra import (
    BRACKET_NORM_BOUND,
    LieAlgebraSpec,
    _scalar,
    ad_matrix,
    bracket_vec,
    inner_vec,
    norm_vec,
)
from .gauge_fields import GValuedForm, g_norm, instanton_classify
from .weitzenbock_engine import (
    POSITIVITY_RELATIVE_FLOOR,
    _add_identity_blocks,
    weighted_spectrum,
)

__all__ = [
    "FORM_INDEX_COUNT",
    "OneFormSection",
    "RicciTensor7",
    "curvature_components_grid",
    "curvature_grid_norms",
    "curvature_action_oneforms",
    "apply_curvature_action",
    "curvature_quad_paths",
    "algebraic_second_variation",
    "torsion_residuals",
    "stability_report",
    "STABLE_SUFFICIENT",
    "INCONCLUSIVE",
]

FORM_INDEX_COUNT = 7

STABLE_SUFFICIENT = "STABLE_SUFFICIENT"
INCONCLUSIVE = "INCONCLUSIVE"

# imaginary parts up to this fraction of the real scale are treated as
# numerical noise when a real quantity is expected
_REALITY_TOLERANCE = 1e-10


def _require_real(array: np.ndarray, what: str) -> np.ndarray:
    arr = np.asarray(array)
    if np.iscomplexobj(arr):
        scale = float(np.max(np.abs(arr))) if arr.size else 0.0
        worst = float(np.max(np.abs(arr.imag))) if arr.size else 0.0
        if worst > _REALITY_TOLERANCE * max(scale, 1.0):
            raise ValueError(
                f"{what} must be real; imaginary residual {worst:.3e}"
            )
        arr = arr.real
    return np.asarray(arr, dtype=float)


@dataclass(frozen=True)
class OneFormSection:
    """Algebra-valued 1-form ``sum_j e^j (x) B_j`` with real coefficients.

    ``vectors`` stacks the seven coefficient vectors as rows; row ``j``
    holds the component on ``e^{j+1}``.  A ``(7, ..., dim)`` array holds
    a stack of sections.
    """

    algebra: LieAlgebraSpec
    vectors: np.ndarray = field(repr=False)

    def __post_init__(self) -> None:
        arr = _require_real(self.vectors, "1-form coefficients")
        if arr.ndim < 2 or (arr.shape[0], arr.shape[-1]) != (
            FORM_INDEX_COUNT, self.algebra.dim
        ):
            raise ValueError(
                "coefficients must form a "
                f"({FORM_INDEX_COUNT}, {self.algebra.dim}) array"
            )
        arr = arr.copy()
        arr.setflags(write=False)
        object.__setattr__(self, "vectors", arr)


@dataclass(frozen=True)
class RicciTensor7:
    """Symmetric bilinear curvature data on the seven real directions."""

    matrix: np.ndarray = field(repr=False)

    def __post_init__(self) -> None:
        mat = _require_real(self.matrix, "Ricci matrix")
        if mat.shape != (FORM_INDEX_COUNT, FORM_INDEX_COUNT):
            raise ValueError("Ricci matrix must be 7x7")
        residual = float(np.max(np.abs(mat - mat.T)))
        scale = float(np.max(np.abs(mat)))
        if residual > 1e-10 * max(scale, 1.0):
            raise ValueError(
                f"Ricci matrix must be symmetric; residual {residual:.3e}"
            )
        mat = (mat + mat.T) / 2.0
        mat.setflags(write=False)
        object.__setattr__(self, "matrix", mat)

    @classmethod
    def einstein(cls, scale: float = 6.0) -> "RicciTensor7":
        """Constant-multiple tensor ``scale * identity``.

        The default 6.0 is the constant of the Einstein normalization in
        seven dimensions with three horizontal planes (2 * 3 = 6).
        """
        return cls(np.eye(FORM_INDEX_COUNT) * float(scale))

    def min_eigenvalue(self) -> float:
        """Smallest eigenvalue, computed once per tensor (the matrix is
        read-only)."""
        return self._min_eigenvalue

    @functools.cached_property
    def _min_eigenvalue(self) -> float:
        return float(np.linalg.eigvalsh(self.matrix).min())


# ---------------------------------------------------------------------------
# Curvature coupling on 1-forms
# ---------------------------------------------------------------------------


def curvature_components_grid(F: GValuedForm) -> np.ndarray:
    """7x7 grid of coefficient vectors ``F_{ji}`` with both orderings.

    Entry ``(j, i)`` (0-based ``j-1, i-1``) is the signed coefficient
    vector of the curvature on the ordered pair ``(j, i)``; the grid is
    antisymmetric and has zero diagonal.
    """
    if F.degree != 2:
        raise ValueError("expected a curvature 2-form")
    return _two_form_matrix(F.matrix)


def curvature_grid_norms(F: GValuedForm) -> np.ndarray:
    """Symmetric 7x7 matrix of component norms ``||F_{ji}||``.

    The norm of each of the 21 coefficient vectors is taken once and
    placed at both orderings of its pair (a sign does not change a
    norm), without forming the grid.  A stack of curvatures gives a
    ``(..., 7, 7)`` stack of matrices.
    """
    if F.degree != 2:
        raise ValueError("expected a curvature 2-form")
    norms = np.abs(_two_form_matrix(norm_vec(F.algebra, F.matrix)))
    return np.moveaxis(norms, (0, 1), (-2, -1))


def curvature_action_oneforms(F: GValuedForm) -> np.ndarray:
    """Matrix of ``B -> (sum_j [F_{ji}, B_j])_i`` on stacked sections.

    The output acts on the ``7 d`` coefficient stack of a section; the
    block in row ``i``, column ``j`` is the adjoint action of the
    component ``F_{ji}``.  The map is linear in ``F``, vanishes for
    commutative algebras and is self-adjoint in the invariant inner
    product because the components are antisymmetric in ``(j, i)``.
    """
    # a real curvature gives a real action: check the coefficients, not
    # the (7 d)^2 entries of the action, and assemble from their real parts
    coefficients = _require_real(F.matrix, "curvature action matrix")
    d = F.algebra.dim
    stack = coefficients.shape[1:-1]
    # ad(F_{ji}) is block (i, j): for the pair j < i of each coefficient
    # row the action of the row itself, for i < j its negative; the
    # diagonal blocks stay zero.  The blocks go straight into the buffer
    # of the final matrix.  The negative is 0 - ads, not -ads, so that a
    # zero entry stays +0.0, as in the product for the negated row.
    ads = ad_matrix(F.algebra, coefficients)
    out = np.zeros(stack + (FORM_INDEX_COUNT, d, FORM_INDEX_COUNT, d))
    out[..., _PAIR_COLS, :, _PAIR_ROWS, :] = ads
    out[..., _PAIR_ROWS, :, _PAIR_COLS, :] = np.subtract(0.0, ads)
    size = FORM_INDEX_COUNT * d
    return out.reshape(stack + (size, size))


def apply_curvature_action(
    F: GValuedForm, section: OneFormSection
) -> OneFormSection:
    """Section route for the same map: ``(R_F B)_i = sum_j [F_{ji}, B_j]``."""
    if section.algebra is not F.algebra:
        raise ValueError("section and curvature use different algebras")
    grid = curvature_components_grid(F)
    rows = np.zeros(section.vectors.shape, dtype=complex)
    for i in range(FORM_INDEX_COUNT):
        acc = np.zeros(rows.shape[1:], dtype=complex)
        for j in range(FORM_INDEX_COUNT):
            if j != i:
                acc += bracket_vec(
                    F.algebra, grid[j, i], section.vectors[j]
                )
        rows[i] = acc
    return OneFormSection(F.algebra, _require_real(rows, "curvature action"))


def curvature_quad_paths(F: GValuedForm, section: OneFormSection) -> dict:
    """Quadratic form of the curvature coupling, two ways.

    The direct path pairs the image with the section,
    ``sum_i <(R_F B)_i, B_i>``; the flipped path moves the bracket onto
    the section, ``sum_{j,i} <F_{ji}, [B_j, B_i]>``.  Invariance of the
    inner product makes them equal, which is checked term by term in
    the tests.
    """
    algebra = F.algebra
    image = apply_curvature_action(F, section)
    direct = 0.0
    for i in range(FORM_INDEX_COUNT):
        direct += inner_vec(
            algebra, image.vectors[i], section.vectors[i]
        ).real
    grid = curvature_components_grid(F)
    flipped = 0.0
    for j in range(FORM_INDEX_COUNT):
        for i in range(FORM_INDEX_COUNT):
            if j == i:
                continue
            br = bracket_vec(algebra, section.vectors[j], section.vectors[i])
            flipped += inner_vec(algebra, grid[j, i], br).real
    return {
        "pair_with_section": _scalar(direct),
        "pair_with_curvature": _scalar(flipped),
        "agreement": _scalar(np.abs(direct - flipped)),
    }


# ---------------------------------------------------------------------------
# Second variation and the stability criteria
# ---------------------------------------------------------------------------


def algebraic_second_variation(
    F: GValuedForm, ricci: RicciTensor7
) -> dict:
    """Zero-order second variation ``B -> B o Ric + 2 R_F(B)``.

    Returns the matrix on the stacked coefficient space together with
    its spectrum in the invariant inner product, that of its Hermitian
    part (see :func:`weighted_spectrum`).  The matrix is one buffer: twice
    the coupling, with the Ricci part ``kron(Ric, I_d)`` added onto the
    diagonals of its d x d blocks in place, so no Ricci or identity
    array is formed; a stack of curvatures gives the stack of matrices
    and spectra.  The full second variation adds a nonnegative rough
    Laplacian, so a positive minimum eigenvalue here certifies stability
    of the connection.
    """
    coupling = curvature_action_oneforms(F)
    matrix = np.multiply(coupling, 2.0)
    _add_identity_blocks(matrix, ricci.matrix, F.algebra.dim)
    spectrum = weighted_spectrum(matrix)
    return {
        "matrix": matrix,
        "coupling": coupling,
        "spectrum": spectrum,
        "min_eigenvalue": spectrum["min"],
        "certified_stable": spectrum["positive"],
    }


@functools.cache
def _torsion_maps(model: ContactModel) -> np.ndarray:
    """The maps ``F -> F ^ deta ^ deta`` (2-forms to 6-forms, rows 0-6)
    and ``F -> F ^ deta ^ deta ^ eta`` (to the 7-form, row 7) stacked as
    one real ``(8, 21)`` matrix in the lex bases.

    Both are compositions of left-wedge matrices with small integer or
    dyadic entries, so every entry of the composition is exact.  Built
    once per model and shared read-only; ``_torsion_maps.__wrapped__``
    builds it anew.
    """
    # a 2-form commutes with every form, so F ^ deta = deta ^ F
    six = left_wedge_matrix(model.deta, 4) @ left_wedge_matrix(model.deta, 2)
    # eta ^ six-form = six-form ^ eta, as 6 is even
    seven = left_wedge_matrix(model.eta, 6) @ six
    maps = np.concatenate([six, seven]).real
    maps.setflags(write=False)
    return maps


def torsion_residuals(F: GValuedForm, model: ContactModel) -> dict:
    """Norms of the curvature paired with the square of ``deta``.

    ``F ^ deta ^ deta`` is the 6-form torsion density of the energy's
    first variation; its wedge with the contact form is the full
    7-form.  Both vanish exactly when the curvature has no component
    on the line of the contact 2-form and no vertical part, which is
    the reason self-dual connections are automatically critical.

    Both forms come from one product of the coefficient matrix with the
    composed wedge maps, built once per model; a stack of curvatures
    gives both norms per sample.
    """
    if F.degree != 2:
        raise ValueError("expected a curvature 2-form")
    forms = np.einsum("tr,r...->t...", _torsion_maps(model), F.matrix)
    six_form = GValuedForm._wrap(F.algebra, 6, forms[:7])
    seven_form = GValuedForm._wrap(F.algebra, 7, forms[7:])
    return {
        "six_form_residual": g_norm(six_form),
        "seven_form_residual": g_norm(seven_form),
    }


def stability_report(
    F: GValuedForm,
    ricci: RicciTensor7,
    model: ContactModel,
    classification_tol: float = 1e-9,
) -> dict:
    """Stability verdict for a connection with curvature ``F``.

    The verdict is ``STABLE_SUFFICIENT`` when the smallest Ricci
    eigenvalue ``c`` is positive and the curvature norm stays under the
    threshold ``c / (2 sqrt(2))``; otherwise ``INCONCLUSIVE`` with a
    reason.  The spectrum of the algebraic second variation is reported
    as a sharper certificate: its minimum can be positive even when the
    norm test fails.  Torsion residuals and the curvature type label
    are included as criticality diagnostics.

    The curvature norm is the one the classifier takes, its first step,
    and the component grid is formed once, inside the second variation.
    """
    c = ricci.min_eigenvalue()
    try:
        classified = instanton_classify(F, model, tol=classification_tol)
    except ValueError:
        classified = {"label": "NONE", "norm": g_norm(F)}
    label = classified["label"]
    f_norm = classified["norm"]
    variation = algebraic_second_variation(F, ricci)

    threshold = c / (2.0 * BRACKET_NORM_BOUND)
    analytic_lower_bound = c - 2.0 * BRACKET_NORM_BOUND * f_norm

    if c <= 0.0:
        verdict = INCONCLUSIVE
        reason = "smallest Ricci eigenvalue is not positive"
    elif f_norm < threshold:
        verdict = STABLE_SUFFICIENT
        reason = "curvature norm below the Ricci threshold"
    else:
        verdict = INCONCLUSIVE
        reason = "curvature norm reaches the Ricci threshold"

    return {
        "verdict": verdict,
        "reason": reason,
        "ricci_min": float(c),
        "curvature_norm": float(f_norm),
        "threshold": float(threshold),
        "analytic_lower_bound": float(analytic_lower_bound),
        "grid_norm": float(np.linalg.norm(curvature_grid_norms(F))),
        "min_eigenvalue": float(variation["min_eigenvalue"]),
        "certified_stable": bool(variation["certified_stable"]),
        "hermiticity_residual": float(
            variation["spectrum"]["hermiticity_residual"]
        ),
        "classification": label,
        "torsion": torsion_residuals(F, model),
        "positivity_floor": POSITIVITY_RELATIVE_FLOOR,
    }
