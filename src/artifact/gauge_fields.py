"""Lie algebra valued forms on the model fiber.

A :class:`GValuedForm` is one dense complex array of shape
``(len(basis_keys(k)), algebra.dim)``: row ``r`` holds the coefficient
vector, in the basis of a fixed :class:`~artifact.lie_algebra.LieAlgebraSpec`,
of the real monomial ``basis_keys(k)[r]``.  Every operation is an array
operation on it: the bracket runs from the wedge index tables of
:mod:`~artifact.flat_model` and the structure constants, the inner product
pairs the rows through the algebra Gram matrix, and complex components
come from the change-of-basis matrices of
:mod:`~artifact.form_decomposition`.  The module provides the
graded bracket of such forms, the inner product
induced by the coframe and the invariant algebra metric, conversions
between the real two-form families, complex component tables, and
holomorphic section data, and a two-route classifier for the eigenvalue
type of a curvature form.

A (2,0) section is one complex ``(3, ..., algebra.dim)`` array with rows
phi_12, phi_13 and phi_23, in the order of ``PAIRS``; a curvature
component table is one ``(3, 3, ..., algebra.dim)`` array holding
F_{mu nubar} at ``[mu - 1, nu - 1]``.

Stacks of samples share these functions.  A stack of forms has a matrix
of shape ``(len(basis_keys(k)), ..., algebra.dim)``, the axes between the
key axis and the algebra axis running over samples, and sections and
component tables carry the same sample axes before their algebra axis;
coefficient rows on the standard families are ``(..., 8, dim)`` or
``(..., 6, dim)``.  Norms and inner products of a stack are arrays over
its samples.  Every sample is computed with the same operations in the
same order as on its own.

Component conventions for a 2-form written in the standard families:

* ``F = sum_i a_i w_i`` has complex components ``F_{1 2bar} = (a1 + i a2)/2``,
  ``F_{1 3bar} = (a3 + i a4)/2``, ``F_{2 3bar} = (a5 + i a6)/2``,
  ``F_{1 1bar} = (i/2) a7``, ``F_{2 2bar} = (i/2) a8``,
  ``F_{3 3bar} = -(i/2)(a7 + a8)``, completed by the reality rule
  ``F_{nu mubar} = -conj(F_{mu nubar})``.
* ``phi = sum_i b_i v_i`` has holomorphic components
  ``phi_{12} = (b1 - i b2)/2``, ``phi_{13} = (b3 - i b4)/2``,
  ``phi_{23} = (b5 - i b6)/2``.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .flat_model import (
    _WEDGE,
    PAIRS,
    CalibrationError,
    ContactModel,
    _locate,
    basis_keys,
    standard_two_form_families,
)
from .form_decomposition import (
    _SYMBOL_KEYS,
    _SYMBOL_POSITION,
    _TO_COMPLEX,
    _change_basis,
    _real_from_symbols,
    eigenspace_projectors,
)
from .lie_algebra import (
    LieAlgebraSpec,
    _scalar,
    inner_vec,
    norm_vec,
)

__all__ = [
    "GValuedForm",
    "TwoZeroSection",
    "FComponents",
    "conjugate_gform",
    "g_inner",
    "g_norm",
    "g_wedge_bracket",
    "two_zero_from_v_coefficients",
    "f_components_from_w",
    "gform_from_w_coefficients",
    "w_coefficients_from_gform",
    "gform_complex_components",
    "f_components_from_gform",
    "omega_component",
    "instanton_classify",
    "f_component_norm_matrix",
    "phi_component_norm_matrix",
    "INSTANTON_TOLERANCE",
]

# default relative tolerance for the curvature type classifier
INSTANTON_TOLERANCE = 1e-9


class GValuedForm:
    """A form with coefficients in a fixed Lie algebra.

    ``matrix`` is a complex ``(len(basis_keys(degree)), algebra.dim)``
    array whose row ``r`` is the coefficient vector of the monomial
    ``basis_keys(degree)[r]``.  The constructor takes ``{key: vector}``
    with keys in any order (a repeated index contributes nothing).
    Arithmetic returns new forms and never shares an operand's array.
    """

    __slots__ = ("algebra", "degree", "matrix")

    def __init__(self, algebra: LieAlgebraSpec, degree: int, coeffs=None):
        if degree < 0 or degree > 7:
            raise ValueError("degree must lie between 0 and 7")
        self.algebra = algebra
        self.degree = degree
        self.matrix = np.zeros(
            (len(basis_keys(degree)), algebra.dim), dtype=complex
        )
        if coeffs:
            for key, vec in coeffs.items():
                self.accumulate(key, vec)

    @classmethod
    def _wrap(cls, algebra: LieAlgebraSpec, degree: int,
              matrix: np.ndarray) -> "GValuedForm":
        """A form owning ``matrix``, which the caller must not share."""
        out = cls.__new__(cls)
        out.algebra = algebra
        out.degree = degree
        out.matrix = matrix
        return out

    def accumulate(self, key: tuple, vector) -> None:
        """Add ``e^key (x) vector``, the key in any order."""
        vec = np.asarray(vector, dtype=complex)
        if vec.shape != (self.algebra.dim,):
            raise ValueError(
                f"coefficient vector must have length {self.algebra.dim}"
            )
        position, sign = _locate(self.degree, tuple(key))
        if sign:
            self.matrix[position] += sign * vec

    def __add__(self, other: "GValuedForm") -> "GValuedForm":
        self._check(other)
        matrix = self.matrix + other.matrix
        return self._wrap(self.algebra, self.degree, matrix)

    def __sub__(self, other: "GValuedForm") -> "GValuedForm":
        return self + (-1.0) * other

    def __mul__(self, scalar) -> "GValuedForm":
        return self._wrap(self.algebra, self.degree, self.matrix * scalar)

    __rmul__ = __mul__

    def __neg__(self) -> "GValuedForm":
        return (-1.0) * self

    def to_matrix(self) -> np.ndarray:
        """(n_keys, dim) coefficient array in the lex key basis."""
        return self.matrix.copy()

    @classmethod
    def from_matrix(
        cls, algebra: LieAlgebraSpec, degree: int, matrix
    ) -> "GValuedForm":
        """A form, or a stack of forms, from its coefficient matrix.

        ``matrix`` has shape ``(len(basis_keys(degree)), ..., dim)``; axes
        between the first and the last run over a stack of forms.
        """
        shape = (len(basis_keys(degree)), algebra.dim)
        arr = np.array(matrix, dtype=complex)
        if arr.ndim < 2 or (arr.shape[0], arr.shape[-1]) != shape:
            raise ValueError(f"expected shape {shape}, got {arr.shape}")
        return cls._wrap(algebra, degree, arr)

    def _check(self, other: "GValuedForm") -> None:
        if other.algebra is not self.algebra:
            raise ValueError("forms take values in different algebras")
        if other.degree != self.degree:
            raise ValueError("forms have different degrees")


def conjugate_gform(a: GValuedForm) -> GValuedForm:
    """Conjugation over the real algebra: coefficient vectors conjugate."""
    return GValuedForm._wrap(a.algebra, a.degree, a.matrix.conj())


def g_inner(a: GValuedForm, b: GValuedForm) -> complex | np.ndarray:
    """Inner product, orthonormal in keys and invariant in the algebra.

    Each row pairs with its partner through the Gram matrix (a stacked
    vector-matrix and vector-vector product) and the row values are added
    one after another in basis order, so the sum does not depend on how a
    BLAS kernel would group a flat contraction.  A complex number for two
    forms, an array over the samples for two stacks.
    """
    a._check(b)
    left = a.matrix[..., None, :] @ a.algebra.gram
    rows = left @ b.matrix.conj()[..., None]
    return _scalar(np.add.accumulate(rows[..., 0, 0], axis=0)[-1])


def g_norm(a: GValuedForm) -> float | np.ndarray:
    value = np.real(g_inner(a, a))
    return _scalar(np.sqrt(np.maximum(value, 0.0)))


def g_wedge_bracket(phi: GValuedForm, psi: GValuedForm) -> GValuedForm:
    """Graded bracket of algebra-valued forms, coefficient route.

    For ``phi = sum_I e^I (x) phi_I`` and ``psi = sum_J e^J (x) psi_J``
    this computes ``sum_{I,J} e^I ^ e^J (x) [psi_J, phi_I]``: the wedge
    index table pairs the monomials and one structure-constant
    contraction brackets every pair.  On 0-forms it therefore returns
    ``[psi, phi]``.  The selftest checks it against the commutators of
    the matrix entries of both forms, and the tests against a bracket
    of scalar entry forms.

    The contraction is one matrix product: the outer products of the
    paired coefficient vectors, flattened to ``d * d`` columns, times the
    structure constants reshaped to ``(d * d, d)``.  Two stacks of forms
    of the same shape give the stack of their brackets.
    """
    if phi.algebra is not psi.algebra:
        raise ValueError("forms take values in different algebras")
    total_degree = phi.degree + psi.degree
    if total_degree > 7:
        raise ValueError("bracket degree exceeds the fiber dimension")
    target, left, right, sign = _WEDGE[phi.degree, psi.degree]
    d = phi.algebra.dim
    outer = psi.matrix[right][..., :, None] * phi.matrix[left][..., None, :]
    brackets = (
        outer.reshape(outer.shape[:-2] + (d * d,))
        @ phi.algebra.structure.reshape(d * d, d)
    )
    matrix = np.zeros(
        (len(basis_keys(total_degree)),) + brackets.shape[1:], dtype=complex
    )
    signs = sign.reshape((-1,) + (1,) * (brackets.ndim - 1))
    np.add.at(matrix, target, signs * brackets)
    return GValuedForm._wrap(phi.algebra, total_degree, matrix)


# ---------------------------------------------------------------------------
# Sections of holomorphic 2-form type and curvature component tables
# ---------------------------------------------------------------------------


# (rows, columns) of the pairs mu < nu in a 3x3 table, in the order of PAIRS
_UPPER = tuple(np.array(index) - 1 for index in zip(*PAIRS))
_DIAGONAL = (np.arange(3), np.arange(3))


@dataclass(frozen=True, eq=False)
class TwoZeroSection:
    """Holomorphic components phi_{mu nu} of a (2,0) section.

    ``phi`` is one complex ``(3, ..., dim)`` array whose rows hold phi_12,
    phi_13 and phi_23; the axes between the first and the last run over a
    stack of sections.
    """

    algebra: LieAlgebraSpec
    phi: np.ndarray

    def __post_init__(self):
        phi = np.asarray(self.phi, dtype=complex)
        if phi.ndim < 2 or (phi.shape[0], phi.shape[-1]) != (
            3, self.algebra.dim
        ):
            raise ValueError(
                f"expected a (3, ..., {self.algebra.dim}) component array"
            )
        object.__setattr__(self, "phi", phi)

    phi12 = property(lambda self: self.phi[0])
    phi13 = property(lambda self: self.phi[1])
    phi23 = property(lambda self: self.phi[2])

    def component(self, mu: int, nu: int) -> np.ndarray:
        """phi_{mu nu} with antisymmetry in the index pair."""
        if mu == nu:
            return np.zeros_like(self.phi[0])
        if mu > nu:
            return -self.component(nu, mu)
        return self.phi[PAIRS.index((mu, nu))]

    def inner_20(self, other: "TwoZeroSection") -> complex | np.ndarray:
        """Pair-sum inner product, the pair values added in row order."""
        values = inner_vec(self.algebra, self.phi, other.phi)
        return _scalar(np.add.accumulate(values, axis=0)[-1])

    def norm_20(self) -> float | np.ndarray:
        value = np.real(self.inner_20(self))
        return _scalar(np.sqrt(np.maximum(value, 0.0)))


def _as_rows(algebra: LieAlgebraSpec, rows, count: int) -> np.ndarray:
    """Rows of shape ``(..., count, dim)``; leading axes run over a stack."""
    arr = np.asarray(rows, dtype=complex)
    if arr.ndim < 2 or arr.shape[-2:] != (count, algebra.dim):
        raise ValueError(
            f"expected a (..., {count}, {algebra.dim}) coefficient array"
        )
    return arr


def two_zero_from_v_coefficients(
    algebra: LieAlgebraSpec, b_rows
) -> TwoZeroSection:
    """Section with components built from coefficients on the v family.

    ``b_rows`` has shape ``(..., 6, dim)``, its leading axes running over
    a stack of sections; row ``k`` of the section is
    ``(b[..., 2k, :] - i b[..., 2k + 1, :]) / 2``.
    """
    b = np.moveaxis(_as_rows(algebra, b_rows, 6), -2, 0)
    return TwoZeroSection(
        algebra, np.ascontiguousarray((b[0::2] - 1j * b[1::2]) / 2.0)
    )


@dataclass(frozen=True, eq=False)
class FComponents:
    """Complex component table F_{mu nubar} of a real (1,1) curvature.

    ``table`` is one read-only complex ``(3, 3, ..., dim)`` array holding
    F_{mu nubar} at ``[mu - 1, nu - 1]``, the axes between the index pair
    and the algebra axis running over a stack.  The constructor keeps the
    upper triangle and the diagonal of its input and fills the lower
    triangle by the reality rule ``F_{nu mubar} = -conj(F_{mu nubar})``.
    """

    algebra: LieAlgebraSpec
    table: np.ndarray

    def __post_init__(self):
        table = np.array(self.table, dtype=complex)
        if table.ndim < 3 or table.shape[:2] != (3, 3) or (
            table.shape[-1] != self.algebra.dim
        ):
            raise ValueError(
                f"expected a (3, 3, ..., {self.algebra.dim}) component table"
            )
        rows, cols = _UPPER
        table[cols, rows] = -np.conj(table[rows, cols])
        table.setflags(write=False)
        object.__setattr__(self, "table", table)

    def at(self, mu: int, nu: int) -> np.ndarray:
        """F_{mu nubar}; indices run over 1..3."""
        return self.table[mu - 1, nu - 1]

    def trace_vector(self) -> np.ndarray:
        return self.table[0, 0] + self.table[1, 1] + self.table[2, 2]


def f_components_from_w(algebra: LieAlgebraSpec, a_rows) -> FComponents:
    """Component table of ``F = sum_i a_i w_i``."""
    a = np.moveaxis(_as_rows(algebra, a_rows, 8), -2, 0)
    table = np.zeros((3, 3) + a.shape[1:], dtype=complex)
    table[_UPPER] = (a[0:6:2] + 1j * a[1:6:2]) / 2.0
    table[_DIAGONAL] = 0.5j * a[6], 0.5j * a[7], -0.5j * (a[6] + a[7])
    return FComponents(algebra, table)


_FAMILIES = standard_two_form_families()

# Gram matrix of the w family: orthogonal except the last two members,
# which share one monomial.
_W_VECTORS = np.stack([w.vector for w in _FAMILIES["w"]])
_W_GRAM = (_W_VECTORS @ _W_VECTORS.conj().T).real


def gform_from_w_coefficients(algebra: LieAlgebraSpec, a_rows) -> GValuedForm:
    """The 2-form ``sum_i a_i w_i`` as a :class:`GValuedForm`.

    Rows of shape ``(..., 8, dim)`` give the stack of their forms.
    """
    a = _as_rows(algebra, a_rows, 8)
    return GValuedForm._wrap(
        algebra, 2, np.einsum("tk,...td->k...d", _W_VECTORS, a)
    )


def w_coefficients_from_gform(F: GValuedForm) -> np.ndarray:
    """Coefficients of a 2-form on the w family.

    Coefficients come from pairing against the family and solving with
    its Gram matrix; the reconstruction must match the input within
    1e-9 relative to its norm, or ``ValueError`` is raised.  A stack of
    forms gives ``(..., 8, dim)`` rows.
    """
    if F.degree != 2:
        raise ValueError("expected a 2-form")
    pairings = np.einsum("wk,k...->w...", _W_VECTORS.conj(), F.matrix)
    out = np.linalg.solve(_W_GRAM, pairings.reshape(len(pairings), -1))
    out = np.moveaxis(out.reshape(pairings.shape), 0, -2)
    recon = gform_from_w_coefficients(F.algebra, out)
    resid = np.asarray(g_norm(F - recon))
    if np.any(resid > 1e-9 * np.maximum(g_norm(F), 1.0)):
        raise ValueError(
            f"2-form is not in the span of the w family "
            f"(residual {float(np.max(resid))})"
        )
    return out


def _complex_rows(F: GValuedForm) -> np.ndarray:
    """Coefficient vectors over the canonical symbol tuples of the degree."""
    return _change_basis(_TO_COMPLEX[F.degree], F.matrix)


def gform_complex_components(F: GValuedForm) -> dict:
    """Complex symbol components of an algebra-valued form.

    Returns a dict mapping canonical symbol tuples to coefficient
    vectors, the vector analogue of the scalar complex expansion.
    """
    rows = _complex_rows(F)
    nonzero = rows.reshape(len(rows), -1).any(axis=1)
    return {
        symbols: vec
        for symbols, vec, keep in zip(_SYMBOL_KEYS[F.degree], rows, nonzero)
        if keep
    }


def gform_from_complex_components(
    algebra: LieAlgebraSpec, components: dict, degree: int
) -> GValuedForm:
    """Inverse of :func:`gform_complex_components`, stacks included."""
    first = next(iter(components.values()), np.zeros(algebra.dim))
    return GValuedForm._wrap(
        algebra, degree,
        _real_from_symbols(components, degree, np.shape(first)),
    )


# rows of the canonical degree-2 symbol tuples, by complex type; the
# (1,1) rows as the 3x3 table of F_{mu nubar}
_SYMBOL_ROW = _SYMBOL_POSITION[2]
_F_TABLE = np.array(
    [[_SYMBOL_ROW[mu, -nu] for nu in (1, 2, 3)] for mu in (1, 2, 3)]
)
_ETA_ROWS = [row for symbols, row in _SYMBOL_ROW.items() if 0 in symbols]
_MIXED_ROWS = list(_F_TABLE.ravel())
_PURE_ROWS = [
    row for symbols, row in _SYMBOL_ROW.items()
    if 0 not in symbols and row not in _MIXED_ROWS
]
# every row outside type (1,1), in row order
_STRAY_ROWS = sorted(_PURE_ROWS + _ETA_ROWS)


def f_components_from_gform(
    F: GValuedForm,
    tol: float = 1e-9,
    strict: bool = True,
) -> FComponents:
    """Extract the F_{mu nubar} table from a 2-form.

    With ``strict`` the form must be purely of type (1,1) and horizontal:
    any other complex type beyond ``tol`` relative to the norm raises
    ``ValueError``.
    """
    if F.degree != 2:
        raise ValueError("expected a 2-form")
    rows = _complex_rows(F)
    if strict:
        stray = np.abs(rows[_STRAY_ROWS]).max(axis=(0, -1))
        if np.any(stray > tol * np.maximum(g_norm(F), 1.0)):
            raise ValueError(
                f"form has components outside type (1,1) "
                f"(size {float(np.max(stray))})"
            )
    return FComponents(F.algebra, rows[_F_TABLE])


def omega_component(F: GValuedForm, model: ContactModel) -> np.ndarray:
    """Coefficient vector u with ``<F, omega> = u ||omega||^2``."""
    if F.degree != 2:
        raise ValueError("expected a 2-form")
    tables = _classifier_tables(model)
    return np.einsum("k,kd->d", tables.omega, F.matrix) / tables.omega_sq


# ---------------------------------------------------------------------------
# Curvature type classification, two independent routes
# ---------------------------------------------------------------------------


def _classify_from_residuals(residuals: dict, scale: float, tol: float):
    threshold = tol * scale
    candidates = []
    for label, needed in (
        ("SD", ("block_6", "block_1", "vertical", "reality")),
        ("ASD", ("block_8", "block_1", "vertical", "reality")),
        ("LAMBDA_MINUS_2", ("block_8", "block_6", "vertical", "reality")),
    ):
        if all(residuals[name] <= threshold for name in needed):
            candidates.append(label)
    if not candidates:
        return "NONE"
    if len(candidates) > 1:
        # only possible when the form is essentially zero
        return "NONE"
    return candidates[0]


class _ClassifierTables(NamedTuple):
    """Per-model tables of :func:`instanton_classify`: the four block
    projectors stacked in the order of ``EIGENVALUE_BY_BLOCK``, the
    complex (1,1) rows of ``omega`` in the order of ``_MIXED_ROWS``, the
    conjugate coefficients of ``omega`` and its norm and squared norm,
    which :func:`omega_component` pairs with and divides by."""

    projectors: np.ndarray
    omega_rows: np.ndarray
    omega: np.ndarray
    omega_norm: float
    omega_sq: float


@functools.cache
def _classifier_tables(model: ContactModel) -> _ClassifierTables:
    """The :class:`_ClassifierTables` of a model, built once per model and
    shared read-only; ``_classifier_tables.__wrapped__`` builds them anew.
    """
    projectors = np.stack(list(eigenspace_projectors(model).values()))
    omega = model.omega.vector
    omega_rows = _change_basis(_TO_COMPLEX[2], omega)[_MIXED_ROWS]
    omega_conj = omega.conj()
    for table in (projectors, omega_rows, omega_conj):
        table.setflags(write=False)
    return _ClassifierTables(
        projectors, omega_rows, omega_conj,
        float(np.linalg.norm(omega)), float(np.vdot(omega, omega).real),
    )


# the rows of route two grouped by block: the (1,1) rows, whose contact
# line is removed before they count for block_8, then the (2,0) and (0,2)
# rows (block_6), then the eta rows (vertical); _GROUP_STARTS holds the
# first position of each group.  _GROUPED_TO_COMPLEX is the real->complex
# matrix with its rows in that order, so one product gives them grouped.
_GROUPED_ROWS = _MIXED_ROWS + _PURE_ROWS + _ETA_ROWS
_GROUP_STARTS = np.cumsum([0, len(_MIXED_ROWS), len(_PURE_ROWS)])
_GROUPED_TO_COMPLEX = _TO_COMPLEX[2][_GROUPED_ROWS]
_GROUPED_TO_COMPLEX.setflags(write=False)


def instanton_classify(
    F: GValuedForm, model: ContactModel, tol: float = INSTANTON_TOLERANCE
) -> dict:
    """Classify a real 2-form by its eigenvalue type.

    Labels: ``SD`` (the +1 block), ``ASD`` (the -1 block),
    ``LAMBDA_MINUS_2`` (the line of the contact 2-form) and ``NONE``.
    Two independent routes are evaluated and must agree; ``tol`` is
    relative to the norm of the input.  Each route is one stacked
    reduction over per-model tables:

    * route one multiplies the coefficient matrix by the four block
      projectors, stacked once per model, and takes the four Frobenius
      norms in one call;
    * route two changes to complex coefficients once, through the
      real->complex matrix with its rows grouped by complex type,
      removes the contact line from the (1,1) rows as ``omega_rows (x)
      u`` with ``u`` from :func:`omega_component`, takes every row norm
      in one reduction and keeps the largest of each complex type.

    Both routes share the ``reality`` residual, the norm of ``F - conj
    F``, which is exactly zero without a norm when ``F`` has no
    imaginary part.
    """
    if F.degree != 2:
        raise ValueError("expected a 2-form")
    scale = g_norm(F)
    if F.matrix.imag.any():
        reality = g_norm(F - conjugate_gform(F))
    else:
        # a real form: its difference with its conjugate is exactly zero
        reality = _scalar(np.zeros(F.matrix.shape[1:-1]))
    tables = _classifier_tables(model)

    # route one: spectral projectors acting on the coefficient matrix,
    # whose real and imaginary parts stand side by side so that one real
    # product serves both.  Plain Frobenius norms suffice for the
    # residuals: the algebra Gram matrix is positive definite, so a block
    # vanishes in one norm exactly when it vanishes in the other.
    parts = np.concatenate([F.matrix.real, F.matrix.imag], axis=-1)
    blocks = (tables.projectors @ parts).reshape(len(tables.projectors), -1)
    block_8, block_6, block_1, vertical = (
        np.sqrt(np.vecdot(blocks, blocks)).tolist()
    )
    residuals_eigen = {
        "block_8": block_8,
        "block_6": block_6,
        "block_1": block_1,
        "vertical": vertical,
        "reality": reality,
    }
    label_eigen = _classify_from_residuals(residuals_eigen, scale, tol)

    # route two: complex types together with the contact component; the
    # (1,1) part splits into the contact line and its complement
    omega_vec = omega_component(F, model)
    grouped = _change_basis(_GROUPED_TO_COMPLEX, F.matrix)
    grouped[: len(_MIXED_ROWS)] -= tables.omega_rows[:, None] * omega_vec
    norms = np.sqrt(np.vecdot(grouped, grouped).real)
    largest = np.maximum.reduceat(norms, _GROUP_STARTS).tolist()
    residuals_type = {
        "block_8": largest[0],
        "block_6": largest[1],
        "block_1": float(np.linalg.norm(omega_vec)) * tables.omega_norm,
        "vertical": largest[2],
        "reality": reality,
    }
    label_type = _classify_from_residuals(residuals_type, scale, tol)

    note = ""
    if scale == 0.0:
        label_eigen = label_type = "NONE"
        note = "zero form: no type is present"
    if label_eigen != label_type:
        raise CalibrationError(
            f"type classifier routes disagree: {label_eigen} vs {label_type}"
        )
    return {
        "label": label_eigen,
        "residuals_eigen": residuals_eigen,
        "residuals_type": residuals_type,
        "norm": scale,
        "tolerance": tol * scale,
        "note": note,
    }


# ---------------------------------------------------------------------------
# Component norm tables
# ---------------------------------------------------------------------------


def f_component_norm_matrix(fc: FComponents) -> np.ndarray:
    """3x3 matrix of algebra norms ||F_{mu nubar}||, (..., 3, 3) for stacks."""
    return norm_vec(fc.algebra, np.moveaxis(fc.table, (0, 1), (-3, -2)))


def phi_component_norm_matrix(section: TwoZeroSection) -> np.ndarray:
    """Symmetric 3x3 matrix of norms ||phi_{mu nu}||, zero diagonal."""
    norms = np.moveaxis(
        np.asarray(norm_vec(section.algebra, section.phi)), 0, -1
    )
    out = np.zeros(norms.shape[:-1] + (3, 3))
    rows, cols = _UPPER
    out[..., rows, cols] = norms
    out[..., cols, rows] = norms
    return out
