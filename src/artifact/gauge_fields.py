"""Lie algebra valued forms on the model fiber.

A :class:`GValuedForm` stores, for each ascending real coframe key, a
complex coefficient vector with respect to the basis of a fixed
:class:`~artifact.lie_algebra.LieAlgebraSpec`.  The module provides the
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
    CalibrationError,
    ContactModel,
    KForm,
    basis_keys,
    sort_key_sign,
    standard_two_form_families,
    wedge,
)
from .form_decomposition import (
    complex_symbols_to_real,
    eigenspace_projectors,
    real_key_to_complex,
)
from .lie_algebra import (
    LieAlgebraSpec,
    bracket_vec,
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

    ``coeffs`` maps ascending real coframe keys to complex vectors of
    length ``algebra.dim``; keys with (numerically) zero vectors may be
    present or absent, all operations treat the two alike.
    """

    __slots__ = ("algebra", "degree", "coeffs")

    def __init__(self, algebra: LieAlgebraSpec, degree: int, coeffs=None):
        if degree < 0 or degree > 7:
            raise ValueError("degree must lie between 0 and 7")
        self.algebra = algebra
        self.degree = degree
        self.coeffs: dict = {}
        if coeffs:
            for key, vec in coeffs.items():
                self.accumulate(key, vec)

    def accumulate(self, key: tuple, vector) -> None:
        """Add ``e^key (x) vector``, canonicalizing the key order."""
        vec = np.asarray(vector, dtype=complex)
        if vec.shape != (self.algebra.dim,):
            raise ValueError(
                f"coefficient vector must have length {self.algebra.dim}"
            )
        if len(key) != self.degree:
            raise ValueError(
                f"key {key} has length {len(key)}, expected {self.degree}"
            )
        skey, sign = sort_key_sign(key)
        if sign == 0:
            return
        current = self.coeffs.get(skey)
        if current is None:
            self.coeffs[skey] = sign * vec
        else:
            self.coeffs[skey] = current + sign * vec

    def vector_at(self, *key) -> np.ndarray:
        """Coefficient vector at a key, with the permutation sign."""
        skey, sign = sort_key_sign(key)
        vec = self.coeffs.get(skey)
        if vec is None or sign == 0:
            return np.zeros(self.algebra.dim, dtype=complex)
        return sign * vec.copy()

    def copy(self) -> "GValuedForm":
        out = GValuedForm(self.algebra, self.degree)
        out.coeffs = {key: vec.copy() for key, vec in self.coeffs.items()}
        return out

    def __add__(self, other: "GValuedForm") -> "GValuedForm":
        self._check(other)
        out = self.copy()
        for key, vec in other.coeffs.items():
            current = out.coeffs.get(key)
            out.coeffs[key] = vec.copy() if current is None else current + vec
        return out

    def __sub__(self, other: "GValuedForm") -> "GValuedForm":
        return self + (-1.0) * other

    def __mul__(self, scalar) -> "GValuedForm":
        out = GValuedForm(self.algebra, self.degree)
        out.coeffs = {key: vec * scalar for key, vec in self.coeffs.items()}
        return out

    __rmul__ = __mul__

    def __neg__(self) -> "GValuedForm":
        return (-1.0) * self

    def norm(self) -> float:
        return g_norm(self)

    def is_zero(self, tol: float = 0.0) -> bool:
        return self.norm() <= tol

    def to_matrix(self) -> np.ndarray:
        """(n_keys, dim) coefficient array in the lex key basis."""
        keys = basis_keys(self.degree)
        out = np.zeros((len(keys), self.algebra.dim), dtype=complex)
        for row, key in enumerate(keys):
            vec = self.coeffs.get(key)
            if vec is not None:
                out[row] = vec
        return out

    @classmethod
    def from_matrix(
        cls, algebra: LieAlgebraSpec, degree: int, matrix
    ) -> "GValuedForm":
        keys = basis_keys(degree)
        arr = np.asarray(matrix, dtype=complex)
        if arr.shape != (len(keys), algebra.dim):
            raise ValueError(
                f"expected shape {(len(keys), algebra.dim)}, got {arr.shape}"
            )
        out = cls(algebra, degree)
        for row, key in enumerate(keys):
            if np.any(arr[row]):
                out.coeffs[key] = arr[row].copy()
        return out

    def entry_forms(self) -> np.ndarray:
        """Matrix of scalar forms: the (i, j) entry of the form.

        Views the algebra-valued form through the defining representation
        and returns an (n, n) object array of :class:`KForm`.
        """
        n = self.algebra.matrix_dim
        entries = np.zeros((n, n, len(basis_keys(self.degree))), dtype=complex)
        for row, vec in enumerate(self.to_matrix()):
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
    out = GValuedForm(algebra, degree)
    for form, vector in terms:
        if form.degree != degree:
            raise ValueError("term degree does not match")
        vec = np.asarray(vector, dtype=complex)
        for key, value in form.terms():
            out.accumulate(key, value * vec)
    return out


def conjugate_gform(a: GValuedForm) -> GValuedForm:
    """Conjugation over the real algebra: coefficient vectors conjugate."""
    out = GValuedForm(a.algebra, a.degree)
    out.coeffs = {key: np.conj(vec) for key, vec in a.coeffs.items()}
    return out


def g_inner(a: GValuedForm, b: GValuedForm) -> complex:
    """Inner product, orthonormal in keys and invariant in the algebra."""
    a._check(b)
    total = 0j
    for key, vec in a.coeffs.items():
        other = b.coeffs.get(key)
        if other is not None:
            total += inner_vec(a.algebra, vec, other)
    return total


def g_norm(a: GValuedForm) -> float:
    value = g_inner(a, a).real
    return float(np.sqrt(max(value, 0.0)))


def g_wedge_bracket(phi: GValuedForm, psi: GValuedForm) -> GValuedForm:
    """Graded bracket of algebra-valued forms, coefficient route.

    For ``phi = sum_I e^I (x) phi_I`` and ``psi = sum_J e^J (x) psi_J``
    this computes ``sum_{I,J} e^I ^ e^J (x) [psi_J, phi_I]``.  On
    0-forms it therefore returns ``[psi, phi]``; the entry route below
    realizes the same operation and the two are cross-checked in the
    package self-tests.
    """
    if phi.algebra is not psi.algebra:
        raise ValueError("forms take values in different algebras")
    total_degree = phi.degree + psi.degree
    if total_degree > 7:
        raise ValueError("bracket degree exceeds the fiber dimension")
    out = GValuedForm(phi.algebra, total_degree)
    for key_i, vec_i in phi.coeffs.items():
        for key_j, vec_j in psi.coeffs.items():
            skey, sign = sort_key_sign(key_i + key_j)
            if sign == 0:
                continue
            value = sign * bracket_vec(phi.algebra, vec_j, vec_i)
            current = out.coeffs.get(skey)
            out.coeffs[skey] = value if current is None else current + value
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
    for row, key in enumerate(basis_keys(total_degree)):
        mat = entries[:, :, row]
        if np.any(mat):
            out.coeffs[key] = coeffs_of(algebra, mat)
    return out


def g_wedge_scalar(F: GValuedForm, form: KForm) -> GValuedForm:
    """Wedge an algebra-valued form with a scalar form on the right."""
    out = GValuedForm(F.algebra, F.degree + form.degree)
    terms = form.terms()
    for key, vec in F.coeffs.items():
        for key2, value in terms:
            out.accumulate(key + key2, value * vec)
    return out


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
    b = _as_rows(algebra, b_rows, 6)
    return TwoZeroSection(
        algebra=algebra,
        phi12=(b[0] - 1j * b[1]) / 2.0,
        phi13=(b[2] - 1j * b[3]) / 2.0,
        phi23=(b[4] - 1j * b[5]) / 2.0,
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
    rows = []
    for w in _FAMILIES["w"]:
        vec = np.zeros(F.algebra.dim, dtype=complex)
        for key, value in w.terms():
            coeff = F.coeffs.get(key)
            if coeff is not None:
                vec = vec + coeff * np.conj(value)
        rows.append(vec)
    out = np.linalg.solve(_W_GRAM, np.stack(rows))
    if require_in_span:
        recon = gform_from_w_coefficients(F.algebra, out)
        resid = g_norm(F - recon)
        if resid > tol * max(g_norm(F), 1.0):
            raise ValueError(
                f"2-form is not in the span of the w family "
                f"(residual {resid})"
            )
    return out


def gform_complex_components(F: GValuedForm, model: ContactModel) -> dict:
    """Complex symbol components of an algebra-valued form.

    Returns a dict mapping canonical symbol tuples to coefficient
    vectors, the vector analogue of the scalar complex expansion.
    """
    out: dict = {}
    for key, vec in F.coeffs.items():
        for symbols, coeff in real_key_to_complex(key):
            current = out.get(symbols)
            value = coeff * vec
            out[symbols] = value if current is None else current + value
    return {
        symbols: vec for symbols, vec in out.items() if np.any(vec)
    }


def gform_from_complex_components(
    algebra: LieAlgebraSpec, components: dict, degree: int
) -> GValuedForm:
    """Inverse of :func:`gform_complex_components`."""
    out = GValuedForm(algebra, degree)
    for symbols, vec in components.items():
        arr = np.asarray(vec, dtype=complex)
        for key, factor in complex_symbols_to_real(symbols):
            value = factor * arr
            current = out.coeffs.get(key)
            out.coeffs[key] = value if current is None else current + value
    return out


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
    comps = gform_complex_components(F, model)
    scale = max(g_norm(F), 1.0)
    entries = {}
    stray = 0.0
    for symbols, vec in comps.items():
        p = sum(1 for s in symbols if s > 0)
        q = sum(1 for s in symbols if s < 0)
        if (p, q) == (1, 1) and 0 not in symbols:
            mu = next(s for s in symbols if s > 0)
            nu = -next(s for s in symbols if s < 0)
            entries[(mu, nu)] = vec
        else:
            stray = max(stray, float(np.max(np.abs(vec))))
    if strict and stray > tol * scale:
        raise ValueError(
            f"form has components outside type (1,1) (size {stray})"
        )

    def entry(mu, nu):
        vec = entries.get((mu, nu))
        if vec is None:
            return np.zeros(F.algebra.dim, dtype=complex)
        return vec

    return FComponents(
        algebra=F.algebra,
        f12=entry(1, 2),
        f13=entry(1, 3),
        f23=entry(2, 3),
        f11=entry(1, 1),
        f22=entry(2, 2),
        f33=entry(3, 3),
    )


def two_zero_from_gform(
    F: GValuedForm, model: ContactModel
) -> TwoZeroSection:
    """Holomorphic components phi_{mu nu} of the (2,0) part of a form."""
    comps = gform_complex_components(F, model)

    def entry(mu, nu):
        vec = comps.get((mu, nu))
        if vec is None:
            return np.zeros(F.algebra.dim, dtype=complex)
        return vec

    return TwoZeroSection(
        algebra=F.algebra,
        phi12=entry(1, 2),
        phi13=entry(1, 3),
        phi23=entry(2, 3),
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
    omega = model.omega
    omega_sq = 0.0
    vec = np.zeros(F.algebra.dim, dtype=complex)
    for key, value in omega.terms():
        omega_sq += abs(value) ** 2
        coeff = F.coeffs.get(key)
        if coeff is not None:
            vec = vec + coeff * np.conj(value)
    return vec / omega_sq


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

    # route two: complex types together with the contact component
    comps = gform_complex_components(F, model)
    sizes = {"20": 0.0, "11": 0.0, "eta": 0.0}
    omega_vec = omega_component(F, model)
    omega_norm = float(np.linalg.norm(model.omega.to_vector()))
    for symbols, vec in comps.items():
        size = float(np.linalg.norm(vec))
        if 0 in symbols:
            sizes["eta"] = max(sizes["eta"], size)
            continue
        p = sum(1 for s in symbols if s > 0)
        if p == 1:
            sizes["11"] = max(sizes["11"], size)
        else:
            sizes["20"] = max(sizes["20"], size)
    # the (1,1) part splits into the contact line and its complement
    omega_part = gform_from_terms(
        F.algebra, 2, [(model.omega, omega_vec)]
    )
    perp_11 = 0.0
    perp_comps = gform_complex_components(F - omega_part, model)
    for symbols, vec in perp_comps.items():
        if 0 in symbols:
            continue
        p = sum(1 for s in symbols if s > 0)
        if p == 1:
            perp_11 = max(perp_11, float(np.linalg.norm(vec)))
    residuals_type = {
        "block_8": perp_11,
        "block_6": sizes["20"],
        "block_1": float(np.linalg.norm(omega_vec)) * omega_norm,
        "vertical": sizes["eta"],
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
