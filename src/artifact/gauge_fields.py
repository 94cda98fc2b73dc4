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
graded bracket of such forms by two independent routes, the inner product
induced by the coframe and the invariant algebra metric, conversions
between the real two-form families, complex component tables, and
holomorphic section data, and a two-route classifier for the eigenvalue
type of a curvature form.

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

from dataclasses import dataclass

import numpy as np

from .flat_model import (
    _WEDGE,
    CalibrationError,
    ContactModel,
    KForm,
    _locate,
    basis_keys,
    left_wedge_matrix,
    standard_two_form_families,
    wedge,
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
    coeffs_of,
    inner_vec,
    matrix_of,
)

__all__ = [
    "GValuedForm",
    "TwoZeroSection",
    "FComponents",
    "gform_from_terms",
    "conjugate_gform",
    "g_inner",
    "g_norm",
    "g_wedge_bracket",
    "g_wedge_bracket_entry_path",
    "g_wedge_scalar",
    "two_zero_from_v_coefficients",
    "two_zero_stack_from_v_coefficients",
    "v_coefficients_from_two_zero",
    "f_components_from_w",
    "w_from_f_components",
    "gform_from_w_coefficients",
    "w_coefficients_from_gform",
    "gform_complex_components",
    "f_components_from_gform",
    "two_zero_from_gform",
    "gform_from_two_zero",
    "omega_component",
    "instanton_classify",
    "f_component_norm_matrix",
    "phi_component_norm_matrix",
    "realized_embedding_constants",
    "INSTANTON_TOLERANCE",
]

# default relative tolerance for the curvature type classifier
INSTANTON_TOLERANCE = 1e-9

_PAIRS = ((1, 2), (1, 3), (2, 3))


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

    def vector_at(self, *key) -> np.ndarray:
        """Coefficient vector at a key, with the permutation sign."""
        position, sign = _locate(self.degree, key)
        if not sign:
            return np.zeros(self.algebra.dim, dtype=complex)
        return sign * self.matrix[position]

    def copy(self) -> "GValuedForm":
        return self._wrap(self.algebra, self.degree, self.matrix.copy())

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

    def norm(self) -> float:
        return g_norm(self)

    def is_zero(self, tol: float = 0.0) -> bool:
        return self.norm() <= tol

    def to_matrix(self) -> np.ndarray:
        """(n_keys, dim) coefficient array in the lex key basis."""
        return self.matrix.copy()

    @classmethod
    def from_matrix(
        cls, algebra: LieAlgebraSpec, degree: int, matrix
    ) -> "GValuedForm":
        shape = (len(basis_keys(degree)), algebra.dim)
        arr = np.array(matrix, dtype=complex)
        if arr.shape != shape:
            raise ValueError(f"expected shape {shape}, got {arr.shape}")
        return cls._wrap(algebra, degree, arr)

    def entry_forms(self) -> np.ndarray:
        """Matrix of scalar forms: the (i, j) entry of the form.

        Views the algebra-valued form through the defining representation
        and returns an (n, n) object array of :class:`KForm`.
        """
        n = self.algebra.matrix_dim
        entries = np.zeros((n, n, len(basis_keys(self.degree))), dtype=complex)
        for row, vec in enumerate(self.matrix):
            if np.any(vec):
                entries[:, :, row] = matrix_of(self.algebra, vec)
        grid = np.empty((n, n), dtype=object)
        for i in range(n):
            for j in range(n):
                grid[i, j] = KForm.from_vector(self.degree, entries[i, j])
        return grid

    def _check(self, other: "GValuedForm") -> None:
        if other.algebra is not self.algebra:
            raise ValueError("forms take values in different algebras")
        if other.degree != self.degree:
            raise ValueError("forms have different degrees")


def gform_from_terms(
    algebra: LieAlgebraSpec, degree: int, terms
) -> GValuedForm:
    """Sum of ``form (x) vector`` terms with scalar :class:`KForm` parts."""
    forms, vectors = [], []
    for form, vector in terms:
        if form.degree != degree:
            raise ValueError("term degree does not match")
        forms.append(form.vector)
        vectors.append(np.asarray(vector, dtype=complex))
    if not forms:
        return GValuedForm(algebra, degree)
    # the sum of the outer products, added term by term
    return GValuedForm._wrap(
        algebra, degree, np.einsum("tk,td->kd", forms, vectors)
    )


def conjugate_gform(a: GValuedForm) -> GValuedForm:
    """Conjugation over the real algebra: coefficient vectors conjugate."""
    return GValuedForm._wrap(a.algebra, a.degree, a.matrix.conj())


def g_inner(a: GValuedForm, b: GValuedForm) -> complex:
    """Inner product, orthonormal in keys and invariant in the algebra.

    Each row pairs with its partner through the Gram matrix (a stacked
    vector-matrix and vector-vector product) and the row values are added
    one after another in basis order, so the sum does not depend on how a
    BLAS kernel would group a flat contraction.
    """
    a._check(b)
    rows = (a.matrix[:, None, :] @ a.algebra.gram) @ b.matrix.conj()[..., None]
    return complex(np.add.accumulate(rows[:, 0, 0])[-1])


def g_norm(a: GValuedForm) -> float:
    value = g_inner(a, a).real
    return float(np.sqrt(max(value, 0.0)))


def g_wedge_bracket(phi: GValuedForm, psi: GValuedForm) -> GValuedForm:
    """Graded bracket of algebra-valued forms, coefficient route.

    For ``phi = sum_I e^I (x) phi_I`` and ``psi = sum_J e^J (x) psi_J``
    this computes ``sum_{I,J} e^I ^ e^J (x) [psi_J, phi_I]``: the wedge
    index table pairs the monomials and one structure-constant
    contraction brackets every pair.  On 0-forms it therefore returns
    ``[psi, phi]``; the entry route below realizes the same operation and
    the two are cross-checked in the package self-tests.
    """
    if phi.algebra is not psi.algebra:
        raise ValueError("forms take values in different algebras")
    total_degree = phi.degree + psi.degree
    if total_degree > 7:
        raise ValueError("bracket degree exceeds the fiber dimension")
    target, left, right, sign = _WEDGE[phi.degree, psi.degree]
    brackets = np.einsum(
        "ni,nj,ijk->nk",
        psi.matrix[right], phi.matrix[left], phi.algebra.structure,
    )
    out = GValuedForm(phi.algebra, total_degree)
    np.add.at(out.matrix, target, sign[:, None] * brackets)
    return out


def g_wedge_bracket_entry_path(
    phi: GValuedForm, psi: GValuedForm
) -> GValuedForm:
    """Graded bracket computed through matrix entry forms.

    The (i, j) entry of the bracket is
    ``sum_h (phi^h_j ^ psi^i_h - (-1)^{pq} psi^h_j ^ phi^i_h)``
    where ``phi^i_j`` are the scalar entry forms in the defining
    representation.  Independent route to :func:`g_wedge_bracket`.
    """
    if phi.algebra is not psi.algebra:
        raise ValueError("forms take values in different algebras")
    algebra = phi.algebra
    n = algebra.matrix_dim
    total_degree = phi.degree + psi.degree
    if total_degree > 7:
        raise ValueError("bracket degree exceeds the fiber dimension")
    sign = (-1) ** (phi.degree * psi.degree)
    pe = phi.entry_forms()
    qe = psi.entry_forms()
    grid = np.empty((n, n), dtype=object)
    for i in range(n):
        for j in range(n):
            acc = KForm(total_degree)
            for h in range(n):
                acc = acc + wedge(pe[h, j], qe[i, h])
                acc = acc - sign * wedge(qe[h, j], pe[i, h])
            grid[i, j] = acc
    entries = np.array(
        [[grid[i, j].vector for j in range(n)] for i in range(n)]
    )
    out = GValuedForm(algebra, total_degree)
    for row in range(len(basis_keys(total_degree))):
        mat = entries[:, :, row]
        if np.any(mat):
            out.matrix[row] = coeffs_of(algebra, mat)
    return out


def g_wedge_scalar(F: GValuedForm, form: KForm) -> GValuedForm:
    """Wedge an algebra-valued form with a scalar form on the right."""
    degree = F.degree + form.degree
    # F ^ form = (-1)^{pq} form ^ F, one left-wedge matrix for all columns
    swap = (-1) ** (F.degree * form.degree)
    matrix = left_wedge_matrix(form, F.degree) * swap
    return GValuedForm._wrap(
        F.algebra, degree, np.einsum("tr,rd->td", matrix, F.matrix)
    )


# ---------------------------------------------------------------------------
# Sections of holomorphic 2-form type and curvature component tables
# ---------------------------------------------------------------------------


@dataclass(frozen=True, eq=False)
class TwoZeroSection:
    """Holomorphic components (phi_12, phi_13, phi_23) of a section."""

    algebra: LieAlgebraSpec
    phi12: np.ndarray
    phi13: np.ndarray
    phi23: np.ndarray

    def component(self, mu: int, nu: int) -> np.ndarray:
        """phi_{mu nu} with antisymmetry in the index pair."""
        if mu == nu:
            return np.zeros(self.algebra.dim, dtype=complex)
        if mu > nu:
            return -self.component(nu, mu)
        return {
            (1, 2): self.phi12,
            (1, 3): self.phi13,
            (2, 3): self.phi23,
        }[(mu, nu)].copy()

    def stacked(self) -> np.ndarray:
        return np.stack([self.phi12, self.phi13, self.phi23])

    def inner_20(self, other: "TwoZeroSection") -> complex:
        total = 0j
        for mu, nu in _PAIRS:
            total += inner_vec(
                self.algebra, self.component(mu, nu), other.component(mu, nu)
            )
        return total

    def norm_20(self) -> float:
        value = self.inner_20(self).real
        return float(np.sqrt(max(value, 0.0)))


def _as_rows(algebra: LieAlgebraSpec, rows, count: int) -> np.ndarray:
    arr = np.asarray(rows, dtype=complex)
    if arr.shape != (count, algebra.dim):
        raise ValueError(
            f"expected a ({count}, {algebra.dim}) coefficient array"
        )
    return arr


def two_zero_from_v_coefficients(
    algebra: LieAlgebraSpec, b_rows
) -> TwoZeroSection:
    """Section with components built from coefficients on the v family."""
    phi12, phi13, phi23 = two_zero_stack_from_v_coefficients(
        algebra, _as_rows(algebra, b_rows, 6)
    )
    return TwoZeroSection(
        algebra=algebra, phi12=phi12, phi13=phi13, phi23=phi23
    )


def two_zero_stack_from_v_coefficients(
    algebra: LieAlgebraSpec, b_rows
) -> np.ndarray:
    """Components of many sections built from v-family coefficients.

    ``b_rows`` has shape ``(..., 6, dim)``, its leading axes running over
    sections.  The result has shape ``(3, ..., dim)``: entry ``k`` is
    ``(b[..., 2k, :] - i b[..., 2k + 1, :]) / 2``, the components phi_12,
    phi_13 and phi_23 of every section.  For one section it equals
    ``two_zero_from_v_coefficients(algebra, b_rows).stacked()``.
    """
    b = np.asarray(b_rows, dtype=complex)
    if b.ndim < 2 or b.shape[-2:] != (6, algebra.dim):
        raise ValueError(
            f"expected a (..., 6, {algebra.dim}) coefficient array"
        )
    return np.stack(
        [(b[..., 2 * k, :] - 1j * b[..., 2 * k + 1, :]) / 2.0
         for k in range(3)]
    )


def v_coefficients_from_two_zero(section: TwoZeroSection) -> np.ndarray:
    """Inverse of :func:`two_zero_from_v_coefficients` for real sections.

    Real here means the underlying 2-form ``phi + conj(phi)`` has real
    coefficient vectors, equivalently the returned rows are real; a
    complex part in the rows is reported as is, no check is applied.
    """
    pairs = (section.phi12, section.phi13, section.phi23)
    rows = []
    for comp in pairs:
        rows.append(comp + np.conj(comp))
        rows.append(1j * (comp - np.conj(comp)))
    return np.stack(rows)


@dataclass(frozen=True, eq=False)
class FComponents:
    """Complex component table F_{mu nubar} of a real (1,1) curvature.

    Stores the upper triangle and the diagonal; the lower triangle is
    produced by the reality rule ``F_{nu mubar} = -conj(F_{mu nubar})``.
    """

    algebra: LieAlgebraSpec
    f12: np.ndarray
    f13: np.ndarray
    f23: np.ndarray
    f11: np.ndarray
    f22: np.ndarray
    f33: np.ndarray

    def at(self, mu: int, nu: int) -> np.ndarray:
        """F_{mu nubar}; indices run over 1..3."""
        table = {
            (1, 2): self.f12,
            (1, 3): self.f13,
            (2, 3): self.f23,
            (1, 1): self.f11,
            (2, 2): self.f22,
            (3, 3): self.f33,
        }
        if (mu, nu) in table:
            return table[(mu, nu)].copy()
        return -np.conj(table[(nu, mu)])

    def reality_residual(self) -> float:
        """Deviation of the diagonal from the reality rule."""
        worst = 0.0
        for diag in (self.f11, self.f22, self.f33):
            worst = max(worst, float(np.max(np.abs(diag + np.conj(diag)))))
        return worst

    def trace_vector(self) -> np.ndarray:
        return self.f11 + self.f22 + self.f33


def f_components_from_w(algebra: LieAlgebraSpec, a_rows) -> FComponents:
    """Component table of ``F = sum_i a_i w_i``."""
    a = _as_rows(algebra, a_rows, 8)
    return FComponents(
        algebra=algebra,
        f12=(a[0] + 1j * a[1]) / 2.0,
        f13=(a[2] + 1j * a[3]) / 2.0,
        f23=(a[4] + 1j * a[5]) / 2.0,
        f11=0.5j * a[6],
        f22=0.5j * a[7],
        f33=-0.5j * (a[6] + a[7]),
    )


def w_from_f_components(
    fc: FComponents, tol: float = 1e-9
) -> np.ndarray:
    """Coefficients on the w family reproducing a component table.

    The table must be trace free (the diagonal must sum to zero) and
    satisfy the reality rule; violations beyond ``tol`` relative to the
    overall scale raise ``ValueError``.
    """
    scale = max(
        float(
            np.max(
                np.abs(
                    np.stack([fc.f12, fc.f13, fc.f23, fc.f11, fc.f22, fc.f33])
                )
            )
        ),
        1.0,
    )
    if fc.reality_residual() > tol * scale:
        raise ValueError("component table violates the reality rule")
    trace = fc.trace_vector()
    if float(np.max(np.abs(trace))) > tol * scale:
        raise ValueError("component table has a nonzero diagonal trace")
    rows = [
        fc.f12 + np.conj(fc.f12),
        -1j * (fc.f12 - np.conj(fc.f12)),
        fc.f13 + np.conj(fc.f13),
        -1j * (fc.f13 - np.conj(fc.f13)),
        fc.f23 + np.conj(fc.f23),
        -1j * (fc.f23 - np.conj(fc.f23)),
        -2j * fc.f11,
        -2j * fc.f22,
    ]
    out = np.stack(rows)
    if float(np.max(np.abs(out.imag))) > tol * scale:
        raise ValueError("component table is not real on the w family")
    return out


_FAMILIES = standard_two_form_families()

# Gram matrix of the w family: orthogonal except the last two members,
# which share one monomial.
_W_VECTORS = np.stack([w.vector for w in _FAMILIES["w"]])
_W_GRAM = (_W_VECTORS @ _W_VECTORS.conj().T).real


def gform_from_w_coefficients(algebra: LieAlgebraSpec, a_rows) -> GValuedForm:
    """The 2-form ``sum_i a_i w_i`` as a :class:`GValuedForm`."""
    a = _as_rows(algebra, a_rows, 8)
    return gform_from_terms(
        algebra, 2, zip(_FAMILIES["w"], a)
    )


def w_coefficients_from_gform(
    F: GValuedForm, tol: float = 1e-9, require_in_span: bool = True
) -> np.ndarray:
    """Coefficients of a 2-form on the w family.

    Coefficients come from pairing against the family and solving with
    its Gram matrix; with ``require_in_span`` the reconstruction must
    match the input within ``tol`` relative to its norm.
    """
    if F.degree != 2:
        raise ValueError("expected a 2-form")
    pairings = np.einsum("wk,kd->wd", _W_VECTORS.conj(), F.matrix)
    out = np.linalg.solve(_W_GRAM, pairings)
    if require_in_span:
        recon = gform_from_w_coefficients(F.algebra, out)
        resid = g_norm(F - recon)
        if resid > tol * max(g_norm(F), 1.0):
            raise ValueError(
                f"2-form is not in the span of the w family "
                f"(residual {resid})"
            )
    return out


def _complex_rows(F: GValuedForm) -> np.ndarray:
    """Coefficient vectors over the canonical symbol tuples of the degree."""
    return _change_basis(_TO_COMPLEX[F.degree], F.matrix)


def gform_complex_components(F: GValuedForm, model: ContactModel) -> dict:
    """Complex symbol components of an algebra-valued form.

    Returns a dict mapping canonical symbol tuples to coefficient
    vectors, the vector analogue of the scalar complex expansion.
    """
    rows = _complex_rows(F)
    return {
        symbols: vec
        for symbols, vec, nonzero in zip(
            _SYMBOL_KEYS[F.degree], rows, rows.any(axis=1)
        )
        if nonzero
    }


def gform_from_complex_components(
    algebra: LieAlgebraSpec, components: dict, degree: int
) -> GValuedForm:
    """Inverse of :func:`gform_complex_components`."""
    return GValuedForm._wrap(
        algebra, degree,
        _real_from_symbols(components, degree, (algebra.dim,)),
    )


# rows of the canonical degree-2 symbol tuples, by complex type
_SYMBOL_ROW = _SYMBOL_POSITION[2]
_F_ROWS = [
    _SYMBOL_ROW[mu, -nu] for mu, nu in _PAIRS + ((1, 1), (2, 2), (3, 3))
]
_PHI_ROWS = [_SYMBOL_ROW[pair] for pair in _PAIRS]
_ETA_ROWS = [row for symbols, row in _SYMBOL_ROW.items() if 0 in symbols]
_MIXED_ROWS = [
    row for symbols, row in _SYMBOL_ROW.items()
    if 0 not in symbols and symbols[0] > 0 > symbols[1]
]
_PURE_ROWS = [
    row for symbols, row in _SYMBOL_ROW.items()
    if 0 not in symbols and row not in _MIXED_ROWS
]


def _largest_norm(rows) -> float:
    """Largest Euclidean norm among coefficient rows, 0.0 for none."""
    return max((float(np.linalg.norm(row)) for row in rows), default=0.0)


def f_components_from_gform(
    F: GValuedForm,
    model: ContactModel,
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
    stray = float(np.max(np.abs(np.delete(rows, _MIXED_ROWS, axis=0))))
    if strict and stray > tol * max(g_norm(F), 1.0):
        raise ValueError(
            f"form has components outside type (1,1) (size {stray})"
        )
    f12, f13, f23, f11, f22, f33 = rows[_F_ROWS]
    return FComponents(
        algebra=F.algebra,
        f12=f12, f13=f13, f23=f23, f11=f11, f22=f22, f33=f33,
    )


def two_zero_from_gform(
    F: GValuedForm, model: ContactModel
) -> TwoZeroSection:
    """Holomorphic components phi_{mu nu} of the (2,0) part of a form."""
    if F.degree != 2:
        raise ValueError("expected a 2-form")
    phi12, phi13, phi23 = _complex_rows(F)[_PHI_ROWS]
    return TwoZeroSection(
        algebra=F.algebra, phi12=phi12, phi13=phi13, phi23=phi23
    )


def gform_from_two_zero(
    section: TwoZeroSection, model: ContactModel, with_conjugate: bool = False
) -> GValuedForm:
    """Realize a section as the 2-form ``phi`` or ``phi + conj(phi)``."""
    components = {
        (1, 2): section.phi12,
        (1, 3): section.phi13,
        (2, 3): section.phi23,
    }
    out = gform_from_complex_components(section.algebra, components, 2)
    if with_conjugate:
        out = out + conjugate_gform(out)
    return out


def omega_component(F: GValuedForm, model: ContactModel) -> np.ndarray:
    """Coefficient vector u with ``<F, omega> = u ||omega||^2``."""
    if F.degree != 2:
        raise ValueError("expected a 2-form")
    omega = model.omega.vector
    omega_sq = float(np.vdot(omega, omega).real)
    return np.einsum("k,kd->d", omega.conj(), F.matrix) / omega_sq


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


def instanton_classify(
    F: GValuedForm, model: ContactModel, tol: float = INSTANTON_TOLERANCE
) -> dict:
    """Classify a real 2-form by its eigenvalue type.

    Labels: ``SD`` (the +1 block), ``ASD`` (the -1 block),
    ``LAMBDA_MINUS_2`` (the line of the contact 2-form) and ``NONE``.
    Two independent routes are evaluated, one through the spectral
    projectors, one through complex types, and must agree; ``tol`` is
    relative to the norm of the input.
    """
    if F.degree != 2:
        raise ValueError("expected a 2-form")
    scale = g_norm(F)
    reality = g_norm(F - conjugate_gform(F))

    # route one: spectral projectors acting on the coefficient matrix.
    # Plain Frobenius norms suffice for the residuals: the algebra Gram
    # matrix is positive definite, so a block vanishes in one norm exactly
    # when it vanishes in the other.
    mat = F.to_matrix()
    projectors = eigenspace_projectors(model)
    block_norm = {
        label: float(np.linalg.norm(proj @ mat))
        for label, proj in projectors.items()
    }
    residuals_eigen = {
        "block_8": block_norm["8"],
        "block_6": block_norm["6"],
        "block_1": block_norm["1"],
        "vertical": block_norm["vertical"],
        "reality": reality,
    }
    label_eigen = _classify_from_residuals(residuals_eigen, scale, tol)

    # route two: complex types together with the contact component; the
    # (1,1) part splits into the contact line and its complement
    rows = _complex_rows(F)
    omega_vec = omega_component(F, model)
    omega_norm = float(np.linalg.norm(model.omega.to_vector()))
    omega_part = gform_from_terms(F.algebra, 2, [(model.omega, omega_vec)])
    perp_rows = _complex_rows(F - omega_part)
    residuals_type = {
        "block_8": _largest_norm(perp_rows[_MIXED_ROWS]),
        "block_6": _largest_norm(rows[_PURE_ROWS]),
        "block_1": float(np.linalg.norm(omega_vec)) * omega_norm,
        "vertical": _largest_norm(rows[_ETA_ROWS]),
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
# Component norm tables and realized embedding constants
# ---------------------------------------------------------------------------


def f_component_norm_matrix(fc: FComponents) -> np.ndarray:
    """3x3 matrix of algebra norms ||F_{mu nubar}||."""
    out = np.zeros((3, 3))
    for mu in range(1, 4):
        for nu in range(1, 4):
            vec = fc.at(mu, nu)
            out[mu - 1, nu - 1] = float(
                np.sqrt(
                    max(inner_vec(fc.algebra, vec, vec).real, 0.0)
                )
            )
    return out


def phi_component_norm_matrix(section: TwoZeroSection) -> np.ndarray:
    """Symmetric 3x3 matrix of norms ||phi_{mu nu}||, zero diagonal."""
    out = np.zeros((3, 3))
    for mu, nu in _PAIRS:
        vec = section.component(mu, nu)
        value = float(
            np.sqrt(max(inner_vec(section.algebra, vec, vec).real, 0.0))
        )
        out[mu - 1, nu - 1] = value
        out[nu - 1, mu - 1] = value
    return out


def realized_embedding_constants(
    algebra: LieAlgebraSpec,
    model: ContactModel,
    seed: int = 0,
    samples: int = 32,
) -> dict:
    """Measure the norm factors between component and form pictures.

    On random data this realizes four constants: the squared form norm of
    ``phi + conj(phi)`` per unit section norm, the squared form norm of
    ``omega (x) u`` per unit algebra norm, and the two weights in the
    identity ``<Psi, Psi> = 2 (c_sec Re<phi, phi> + c_line <u, u>)`` for
    ``Psi = phi + conj(phi) + omega (x) u``.
    """
    rng = np.random.default_rng(seed)
    d = algebra.dim
    section_factors = []
    line_factors = []
    weight_checks = []
    for _ in range(samples):
        rows = rng.standard_normal((6, d))
        section = two_zero_from_v_coefficients(algebra, rows)
        realized = gform_from_two_zero(section, model, with_conjugate=True)
        section_factors.append(
            g_norm(realized) ** 2 / section.norm_20() ** 2
        )
        u = rng.standard_normal(d)
        line = gform_from_terms(algebra, 2, [(model.omega, u)])
        line_factors.append(
            g_norm(line) ** 2 / inner_vec(algebra, u, u).real
        )
        psi = realized + line
        lhs = g_inner(psi, psi).real
        rhs_sec = section.inner_20(section).real
        rhs_line = inner_vec(algebra, u, u).real
        # lhs = 2 (c_sec * rhs_sec + c_line * rhs_line)
        weight_checks.append((lhs, rhs_sec, rhs_line))
    section_factor = float(np.mean(section_factors))
    line_factor = float(np.mean(line_factors))
    c_sec = section_factor / 2.0
    c_line = line_factor / 2.0
    worst = 0.0
    for lhs, rhs_sec, rhs_line in weight_checks:
        predicted = 2.0 * (c_sec * rhs_sec + c_line * rhs_line)
        worst = max(worst, abs(lhs - predicted) / max(abs(lhs), 1.0))
    return {
        "section_norm_factor": section_factor,
        "line_norm_factor": line_factor,
        "section_weight": c_sec,
        "line_weight": c_line,
        "identity_residual": worst,
        "section_factor_spread": float(np.ptp(section_factors)),
        "line_factor_spread": float(np.ptp(line_factors)),
    }
