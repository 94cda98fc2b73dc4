"""Curvature endomorphisms on holomorphic 2-form sections.

A section is the ``(3, ..., dim)`` array of its components phi_12,
phi_13 and phi_23 with values in a fixed Lie algebra (see
:class:`~artifact.gauge_fields.TwoZeroSection`); operators act on the
concatenated vector of length ``3 dim``.  Two endomorphisms act there:

* the gauge curvature term, built from the component table F_{mu nubar}
  through ``(F phi)_{mu nu} = sum_alpha ([phi_{alpha nu}, F_{mu alphabar}]
  - [phi_{alpha mu}, F_{nu alphabar}])``;
* the transverse Ricci term, built from a Hermitian 3x3 tensor through
  ``(R phi)_{mu nu} = sum_alpha (R_{alphabar mu} phi_{alpha nu}
  - R_{alphabar nu} phi_{alpha mu})``, the barred index raised with the
  transverse metric normalised to the identity in the complex frame, so
  the entries of the tensor enter as they are.

The curvature operator comes with independent evaluation routes
(componentwise formulas, quadratic forms on coefficient families); the
routes, and the Ricci operator against its diagonal formula and its
trace contraction, are cross-checked in the selftest and the test suite.
The module also evaluates the norm estimate chain that controls the
curvature quadratic form and assembles positivity verdicts.

Stacks of samples go through the same functions: sections and component
tables carry sample axes before their algebra axis, Ricci tensors are
``(..., 3, 3)`` and operators ``(..., 3 dim, 3 dim)`` matrices, the
leading axes running over samples; quadratic forms, residuals and spectra
then come back per sample.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np

from .flat_model import PAIRS, ContactModel
from .gauge_fields import (
    FComponents,
    GValuedForm,
    TwoZeroSection,
    f_component_norm_matrix,
    f_components_from_gform,
    g_norm,
    phi_component_norm_matrix,
)
from .lie_algebra import (
    _NAMED_CACHE_SIZE,
    LieAlgebraSpec,
    _bracket_columns,
    _columns,
    _scalar,
    ad_matrix,
    bracket_vec,
    inner_vec,
)

__all__ = [
    "PAIRS",
    "TransverseRicci",
    "TwoZeroEndo",
    "stack_section",
    "section_from_stack",
    "build_F_operator",
    "build_F_operator_from_components",
    "apply_F_xi_path",
    "quad_form_F",
    "quad_form_F_complex",
    "v_basis_quad_form",
    "V_QUAD_TO_OPERATOR_FACTOR",
    "build_R_operator",
    "operator_spectrum",
    "combined_spectra",
    "weighted_spectrum",
    "estimate_bound_check",
    "vanishing_report",
    "POSITIVITY_RELATIVE_FLOOR",
]

# an eigenvalue counts as positive when it exceeds this fraction of the
# largest eigenvalue magnitude
POSITIVITY_RELATIVE_FLOOR = 1e-10

# the quadratic form written on coefficient families equals this factor
# times the operator quadratic form in the pair-sum convention
V_QUAD_TO_OPERATOR_FACTOR = 4.0

# constant of the estimate chain -lambda_min(F) <= sqrt(2) ||B||_F, B the
# matrix of curvature component norms
_ESTIMATE_CHAIN_CONSTANT = np.sqrt(2.0)


@dataclass(frozen=True, eq=False)
class TransverseRicci:
    """Hermitian transverse Ricci tensor in the complex frame.

    ``matrix[alpha - 1, mu - 1]`` holds the entry carrying one barred
    index alpha and one unbarred index mu; Hermitian symmetry ties the
    two triangles.  The matrix is read-only, so what the operators read
    of it (:attr:`pair_matrix`, :attr:`pair_spectrum`) is computed once
    per tensor.
    """

    matrix: np.ndarray

    def __post_init__(self):
        mat = np.asarray(self.matrix, dtype=complex)
        if mat.ndim < 2 or mat.shape[-2:] != (3, 3):
            raise ValueError("transverse Ricci tensor must be 3x3")
        adjoint = np.swapaxes(mat.conj(), -1, -2)
        residual = float(np.max(np.abs(mat - adjoint)))
        if residual > 1e-10 * max(float(np.max(np.abs(mat))), 1.0):
            raise ValueError(
                f"transverse Ricci tensor is not Hermitian "
                f"(residual {residual})"
            )
        mat = (mat + adjoint) / 2.0
        mat.setflags(write=False)
        object.__setattr__(self, "matrix", mat)

    @functools.cached_property
    def pair_matrix(self) -> np.ndarray:
        """The ``(..., 3, 3)`` matrix P of the Ricci endomorphism on the
        components ``PAIRS``: the endomorphism is ``kron(P, I_d)`` over
        every algebra.  Computed once per tensor and read-only."""
        pair = np.einsum("rcma,...am->...rc", _COUPLING, self.matrix)
        pair.setflags(write=False)
        return pair

    @functools.cached_property
    def pair_spectrum(self) -> tuple:
        """What :func:`combined_spectra` reads of the pair matrix P,
        computed once per tensor and read-only: the ascending eigenvalues
        of its Hermitian part, its Hermiticity residual, and the shift c
        when P equals ``c I_3`` entry for entry (each matrix of a stack
        its own c), else None."""
        pair = self.pair_matrix
        eigenvalues, residual = _hermitian_spectrum(pair)
        residual = np.asarray(residual)
        for table in (eigenvalues, residual):
            table.setflags(write=False)
        shift = pair[..., 0, 0].real
        if not np.array_equal(pair, shift[..., None, None] * np.eye(3)):
            shift = None
        return eigenvalues, residual, shift

    @classmethod
    @functools.lru_cache(maxsize=_NAMED_CACHE_SIZE)
    def einstein(cls, scale: float = 8.0):
        """Ricci tensor proportional to the transverse metric.

        The default 8.0 is the transverse Einstein constant in dimension
        7.  The most recent ``_NAMED_CACHE_SIZE`` tensors are shared, so
        their pair spectrum is solved once per process.
        """
        return cls(matrix=scale * np.eye(3))

    @classmethod
    def from_diagonal(cls, values):
        """Diagonal tensor; ``(..., 3)`` values give a stack of tensors."""
        vals = np.asarray(values, dtype=float)
        if vals.ndim < 1 or vals.shape[-1] != 3:
            raise ValueError("expected three diagonal values")
        matrix = np.zeros(vals.shape + (3,))
        matrix[..., [0, 1, 2], [0, 1, 2]] = vals
        return cls(matrix=matrix)


def stack_section(section: TwoZeroSection) -> np.ndarray:
    """Concatenate the components into one vector of length 3 dim."""
    phi = np.moveaxis(section.phi, 0, -2)
    return phi.reshape(phi.shape[:-2] + (-1,))


def section_from_stack(algebra: LieAlgebraSpec, vec) -> TwoZeroSection:
    arr = np.asarray(vec, dtype=complex)
    d = algebra.dim
    if arr.ndim < 1 or arr.shape[-1] != 3 * d:
        raise ValueError(f"expected a vector of length {3 * d}")
    return TwoZeroSection(
        algebra, np.moveaxis(arr.reshape(arr.shape[:-1] + (3, d)), -2, 0)
    )


@dataclass(frozen=True, eq=False)
class TwoZeroEndo:
    """Endomorphism of the stacked section space."""

    algebra: LieAlgebraSpec
    matrix: np.ndarray

    def __post_init__(self):
        d = self.algebra.dim
        mat = np.asarray(self.matrix, dtype=complex)
        if mat.ndim < 2 or mat.shape[-2:] != (3 * d, 3 * d):
            raise ValueError(f"operator matrix must be {3 * d}x{3 * d}")
        mat.setflags(write=False)
        object.__setattr__(self, "matrix", mat)

    def _image(self, vec: np.ndarray) -> np.ndarray:
        """``M vec`` on one stacked vector or per sample on a stack."""
        return (self.matrix @ vec[..., None])[..., 0]

    def _pair(
        self, first: np.ndarray, second: np.ndarray
    ) -> complex | np.ndarray:
        """``c first . second`` per sample, c the ``inner_scale``."""
        plain = (first[..., None, :] @ second[..., :, None])[..., 0, 0]
        return _scalar(self.algebra.inner_scale * plain)

    def apply(self, section: TwoZeroSection) -> TwoZeroSection:
        if section.algebra is not self.algebra:
            raise ValueError("section belongs to a different algebra")
        return section_from_stack(
            self.algebra, self._image(stack_section(section))
        )

    def quad(self, section: TwoZeroSection) -> complex | np.ndarray:
        """<M s, s> in the pair-sum inner product."""
        vec = stack_section(section)
        return self._pair(self._image(vec), np.conj(vec))

    def quad_bilinear(
        self, section: TwoZeroSection
    ) -> complex | np.ndarray:
        """Pair-sum pairing of M s against s without conjugation.

        The componentwise derivations of the curvature quadratic form
        use the complex-bilinear extension of the invariant form; this
        route matches them, and coincides with :meth:`quad` exactly on
        sections with real coefficient vectors.
        """
        vec = stack_section(section)
        return self._pair(self._image(vec), vec)

    def adjoint_residual(
        self, first: TwoZeroSection, second: TwoZeroSection
    ) -> float | np.ndarray:
        """|<M s1, s2> - <s1, M s2>| on a pair of sections, or per sample."""
        lhs = self.apply(first).inner_20(second)
        rhs = first.inner_20(self.apply(second))
        return abs(lhs - rhs)


# S[k, m - 1, n - 1] is the sign s with phi_{m n} = s phi_k, k a row of a
# section (0 for m = n); both operators below couple rows r and c through
# _COUPLING[r, c, m - 1, a - 1] = sum_n S[r, m, n] S[c, a, n]
_SIGNS = np.zeros((3, 3, 3))
for _k, (_mu, _nu) in enumerate(PAIRS):
    _SIGNS[_k, _mu - 1, _nu - 1] = 1.0
    _SIGNS[_k, _nu - 1, _mu - 1] = -1.0
_COUPLING = np.einsum("rmn,can->rcma", _SIGNS, _SIGNS)


def build_F_operator_from_components(fc: FComponents) -> TwoZeroEndo:
    """Curvature endomorphism from a component table.

    Implements ``(F phi)_{mu nu} = sum_alpha ([phi_{alpha nu},
    F_{mu alphabar}] - [phi_{alpha mu}, F_{nu alphabar}])`` as a block
    matrix on stacked sections.
    """
    # [phi_{alpha nu}, F_{mu alphabar}] = -ad(F_{mu alphabar}) phi_{alpha nu}
    blocks = np.tensordot(_COUPLING, -ad_matrix(fc.algebra, fc.table), 2)
    # (3, 3, ..., d, d) blocks to (..., 3 d, 3 d) matrices
    d = fc.algebra.dim
    matrix = np.moveaxis(blocks, (0, 1), (-4, -2))
    matrix = matrix.reshape(matrix.shape[:-4] + (3 * d, 3 * d))
    return TwoZeroEndo(algebra=fc.algebra, matrix=matrix)


def build_F_operator(F: GValuedForm) -> TwoZeroEndo:
    """Curvature endomorphism of a 2-form curvature of any type.

    Only the (1,1) table of the form enters; its (2,0)+(0,2) and
    contact parts are dropped without a check, so the operator equals
    :func:`build_F_operator_from_components` of the (1,1) part alone.
    """
    return build_F_operator_from_components(
        f_components_from_gform(F, strict=False)
    )


# apply_F_xi_path: output row r gathers three terms t, each the bracket
# of _XI_SIGNS[r, t] times section row _XI_ROWS[t] with the component
# F_{t+1, _XI_COLUMNS[r]}bar (0-based column)
_XI_ROWS = [2, 1, 0]
_XI_COLUMNS = [2, 1, 0]
_XI_SIGNS = np.array([[-1.0, 1.0, -1.0], [1.0, -1.0, 1.0], [-1.0, 1.0, -1.0]])


def apply_F_xi_path(
    fc: FComponents, section: TwoZeroSection
) -> TwoZeroSection:
    """Componentwise evaluation of the curvature endomorphism.

    Independent route to :func:`build_F_operator_from_components`,
    written out entry by entry:

    * out_12 = [phi_32, F_13bar] + [phi_13, F_23bar] + [phi_21, F_33bar]
    * out_13 = [phi_23, F_12bar] + [phi_31, F_22bar] + [phi_12, F_32bar]
    * out_23 = [phi_32, F_11bar] + [phi_13, F_21bar] + [phi_21, F_31bar]

    The nine brackets are one stacked :func:`bracket_vec` call, and each
    row adds its three terms in the order written.
    """
    algebra = fc.algebra
    if section.algebra is not algebra:
        raise ValueError("section belongs to a different algebra")
    d = algebra.dim
    lead = np.broadcast_shapes(section.phi.shape[1:-1], fc.table.shape[2:-1])
    phi = np.broadcast_to(section.phi, (3,) + lead + (d,))
    table = np.broadcast_to(fc.table, (3, 3) + lead + (d,))
    # [r, t]: the signed section row and the curvature component of term t
    signs = _XI_SIGNS.reshape(_XI_SIGNS.shape + (1,) * (phi.ndim - 1))
    left = signs * phi[_XI_ROWS]
    right = table[:, _XI_COLUMNS].swapaxes(0, 1)
    terms = bracket_vec(algebra, left, right)
    return TwoZeroSection(algebra, terms[:, 0] + terms[:, 1] + terms[:, 2])


# the three terms of the bracket route of the curvature quadratic form:
# the rows of the section bracketed, and the (mu, nu) index of the
# curvature component whose real part pairs with their bracket
_QUAD_TERMS = (((1, 2), (0, 1)), ((0, 2), (2, 0)), ((0, 1), (1, 2)))


def quad_form_F_complex(
    fc: FComponents, section: TwoZeroSection
) -> complex | np.ndarray:
    """Curvature quadratic form on a section, bracket route.

    Evaluates ``2 { <[phi_13, phi_23], Re F_12bar> + <[phi_12, phi_23],
    Re F_31bar> + <[phi_12, phi_13], Re F_23bar> }`` with the
    complex-bilinear pairing, matching the bilinear operator route
    :meth:`TwoZeroEndo.quad_bilinear`.

    A stack is evaluated in column layout, one coefficient vector per
    column and the sample axis last: each bracket is one contraction
    over all samples, and each pairing ``c sum_k [.,.]_k Re F_k`` is one
    product and one sum over the d rows.  The three terms are added in
    the order written.
    """
    algebra = fc.algebra
    if section.algebra is not algebra:
        raise ValueError("section belongs to a different algebra")
    d = algebra.dim
    lead = section.phi.shape[1:-1]
    if fc.table.shape[2:-1] != lead:
        lead = np.broadcast_shapes(lead, fc.table.shape[2:-1])
    phi = [_columns(row, lead, d) for row in section.phi]
    terms = []
    for (left, right), (mu, nu) in _QUAD_TERMS:
        bracket = _bracket_columns(algebra, phi[left], phi[right])
        # Re F, the second slot, is a real vector: the bilinear pairing
        # is the sesquilinear one
        real_part = _columns(fc.table[mu, nu].real, lead, d)
        pairing = np.multiply(bracket, real_part).sum(axis=0)
        terms.append(algebra.inner_scale * pairing)
    total = 2.0 * (terms[0] + terms[1] + terms[2])
    return _scalar(total.reshape(lead))


def quad_form_F(fc: FComponents, section: TwoZeroSection) -> float:
    """Real part of :func:`quad_form_F_complex` on one section."""
    return float(quad_form_F_complex(fc, section).real)


# the bracketed v rows of v_basis_quad_form, in the order of its formula
_V_LEFT = [2, 3, 0, 1, 0, 1]
_V_RIGHT = [4, 5, 4, 5, 2, 3]


def v_basis_quad_form(
    algebra: LieAlgebraSpec, b_rows, a_rows
) -> float | np.ndarray:
    """Curvature quadratic form written on the coefficient families.

    For a section with coefficients ``b_i`` on the v family and a
    curvature with coefficients ``a_i`` on the w family this evaluates

        <[b3, b5] - [b4, b6], a1> - <[b1, b5] - [b2, b6], a3>
        + <[b1, b3] - [b2, b4], a5>

    which equals ``V_QUAD_TO_OPERATOR_FACTOR`` times the operator
    quadratic form in the pair-sum convention.
    """
    b = np.asarray(b_rows)
    a = np.asarray(a_rows)
    if (b.ndim < 2 or a.ndim < 2 or b.shape[-2:] != (6, algebra.dim)
            or a.shape[-2:] != (8, algebra.dim)):
        raise ValueError("expected (6, dim) and (8, dim) coefficient arrays")
    # the six brackets as one stack: [b3, b5], [b4, b6], [b1, b5], ...;
    # the stacked row axis stays next to the algebra axis, so that the
    # sample axes of b and a broadcast
    brackets = bracket_vec(algebra, b[..., _V_LEFT, :], b[..., _V_RIGHT, :])
    differences = brackets[..., 0::2, :] - brackets[..., 1::2, :]
    terms = inner_vec(algebra, differences, a[..., [0, 2, 4], :])
    return _scalar(np.real(terms[..., 0] - terms[..., 1] + terms[..., 2]))


def _identity_blocks(matrix, d: int) -> np.ndarray:
    """``kron(matrix, I_d)`` by broadcasting: the ``(n, n)`` matrix, or
    each matrix of a ``(..., n, n)`` stack, times the d x d identity
    block by block, as a ``(..., n d, n d)`` array."""
    matrix = np.asarray(matrix)
    n = matrix.shape[-1]
    blocks = matrix[..., :, None, :, None] * np.eye(d)[:, None, :]
    return blocks.reshape(matrix.shape[:-2] + (n * d, n * d))


def _add_identity_blocks(out: np.ndarray, matrix, d: int) -> np.ndarray:
    """Add ``kron(matrix, I_d)`` onto ``out`` in place and return it.

    Entry ``(r, c)`` of the ``(n, n)`` matrix, or of each matrix of a
    stack broadcast against the leading axes of ``out``, goes onto the
    diagonal of the d x d block ``(r, c)`` of ``out``; all n^2 block
    diagonals are one strided view of ``out``, and no other entry is
    touched.
    """
    matrix = np.asarray(matrix)
    n = matrix.shape[-1]
    row, col = out.strides[-2:]
    diagonals = np.lib.stride_tricks.as_strided(
        out,
        shape=out.shape[:-2] + (n, n, d),
        strides=out.strides[:-2] + (d * row, d * col, row + col),
    )
    diagonals += matrix[..., None]
    return out


def build_R_operator(ricci: TransverseRicci, algebra: LieAlgebraSpec) -> TwoZeroEndo:
    """Ricci endomorphism on stacked sections.

    Implements ``(R phi)_{mu nu} = sum_alpha (R~_{alpha mu} phi_{alpha nu}
    - R~_{alpha nu} phi_{alpha mu})``; with the transverse metric
    normalised to the identity, ``R~`` is ``ricci.matrix`` itself.  The
    resulting pair-space matrix ``ricci.pair_matrix`` is Hermitian
    whenever the tensor is; its entries multiply the d x d identity block
    by block (``kron(pair_matrix, I_d)``, formed by broadcasting), and a
    stack of tensors gives the stack of operators.
    """
    # a stack of pair matrices gives the stack of Kronecker products
    matrix = _identity_blocks(ricci.pair_matrix, algebra.dim)
    return TwoZeroEndo(algebra=algebra, matrix=matrix)


def _spectrum_report(spectrum: np.ndarray, herm_residual) -> dict:
    """The entries of :func:`weighted_spectrum` from the ascending
    eigenvalues ``(..., m)`` of each matrix and its Hermiticity residual."""
    largest = np.max(np.abs(spectrum), axis=-1, initial=0.0)
    low = spectrum.min(axis=-1)
    return {
        "eigenvalues": spectrum,
        "min": _scalar(low),
        "max": _scalar(spectrum.max(axis=-1)),
        "hermiticity_residual": _scalar(herm_residual),
        "positive": _scalar(low > POSITIVITY_RELATIVE_FLOOR * largest),
        "nonnegative": _scalar(low >= -POSITIVITY_RELATIVE_FLOOR * largest),
    }


def _hermitian_spectrum(matrix) -> tuple:
    """The ascending eigenvalues of ``(M + M^H) / 2`` and the largest
    entry of ``|M - M^H|``, per matrix M of a stack.  One array of the
    operator's size is allocated; it takes the adjoint twice, for the
    deviation and then the Hermitian part."""
    matrix = np.asarray(matrix)
    out = np.empty(matrix.shape, np.result_type(matrix.dtype, np.float64))
    adjoint = np.swapaxes(matrix, -1, -2)
    np.conjugate(adjoint, out=out)
    np.subtract(matrix, out, out=out)
    # a real deviation takes its magnitude in place
    magnitude = np.abs(out, out=None if np.iscomplexobj(out) else out)
    residual = np.max(magnitude, axis=(-2, -1))
    np.conjugate(adjoint, out=out)
    out += matrix
    out /= 2.0
    return np.linalg.eigvalsh(out), residual


def weighted_spectrum(matrix) -> dict:
    """Spectrum of an operator in the invariant inner product, c times
    the plain one, where self-adjoint means Hermitian."""
    return _spectrum_report(*_hermitian_spectrum(matrix))


def operator_spectrum(endo: TwoZeroEndo) -> dict:
    """Spectrum of an endomorphism in the invariant inner product."""
    return weighted_spectrum(endo.matrix)


def combined_spectra(f_endo: TwoZeroEndo, ricci: TransverseRicci) -> dict:
    """Spectra of the curvature, Ricci and combined (sum) operators.

    The Ricci operator is ``kron(P, I_d)`` with P = ``ricci.pair_matrix``,
    so its spectrum is that of P, each eigenvalue repeated d times, and
    its 3d x 3d matrix is never formed.  When P equals ``c I_3`` entry for
    entry (an Einstein tensor; c is twice its scale), the combined
    operator is the curvature operator plus ``c``, and its spectrum is the
    curvature spectrum shifted by c: one eigen-solve serves all three.
    Otherwise one :func:`weighted_spectrum` call solves the stack of the
    curvature operator and the combined one, a copy of the curvature
    matrix with P added onto the diagonals of its d x d blocks.  P, the
    eigenvalues of its Hermitian part and the Einstein test are kept on
    the tensor (:attr:`TransverseRicci.pair_spectrum`), so a tensor used
    for many calls pays for them once.

    The curvature entry equals :func:`operator_spectrum` of ``f_endo`` bit
    for bit, and so does the combined entry off the Einstein case with
    the sum formed through :func:`build_R_operator`.  The Ricci entry and
    the shifted combined entry agree with those routes to rounding; the
    shifted sum reports the curvature's Hermiticity residual, which it
    has in exact arithmetic.
    """
    d = f_endo.algebra.dim
    pair = ricci.pair_matrix
    eigenvalues, residual, shift = ricci.pair_spectrum
    ricci_spec = _spectrum_report(
        np.repeat(eigenvalues, d, axis=-1), residual.copy()
    )
    if shift is not None:
        curvature = weighted_spectrum(f_endo.matrix)
        combined = _spectrum_report(
            curvature["eigenvalues"] + shift[..., None],
            curvature["hermiticity_residual"],
        )
    else:
        stack = np.stack([f_endo.matrix, f_endo.matrix])
        _add_identity_blocks(stack[1], pair, d)
        both = weighted_spectrum(stack)
        curvature, combined = (
            {key: _scalar(value[i]) for key, value in both.items()}
            for i in range(2)
        )
    return {"curvature": curvature, "ricci": ricci_spec, "combined": combined}


def _frobenius(matrix: np.ndarray) -> np.ndarray:
    """Frobenius norm of each real ``(..., n, n)`` matrix.

    The entries are squared and added by one dot product per matrix, as
    ``np.linalg.norm`` does for a single matrix.
    """
    flat = matrix.reshape(matrix.shape[:-2] + (-1,))
    return np.sqrt(np.vecdot(flat, flat))


def estimate_bound_check(
    fc: FComponents, section: TwoZeroSection, tol: float = 1e-9
) -> dict:
    """Evaluate the norm estimate chain on concrete data.

    Checks ``|S| <= (sqrt(2)/2) Tr(A^2 B) <= sqrt(2) ||B||_F ||phi||^2``
    where S is the curvature quadratic form, A the symmetric matrix of
    section component norms, and B the matrix of curvature component
    norms; ``||phi||^2`` sums over ordered pairs.  On a stack of sections
    and component tables every entry is an array over the samples.
    """
    lhs = np.abs(np.real(quad_form_F_complex(fc, section)))
    a_matrix = phi_component_norm_matrix(section)
    b_matrix = f_component_norm_matrix(fc)
    bound_bracket = (
        _ESTIMATE_CHAIN_CONSTANT / 2.0
        * np.trace(a_matrix @ a_matrix @ b_matrix, axis1=-2, axis2=-1)
    )
    b_frobenius = _frobenius(b_matrix)
    phi_sq = np.asarray(section.norm_20()) ** 2
    bound_product = _ESTIMATE_CHAIN_CONSTANT * b_frobenius * phi_sq
    scale = np.maximum(bound_product, 1.0)
    return {
        "quad_form": _scalar(lhs),
        "bound_bracket": _scalar(bound_bracket),
        "bound_product": _scalar(bound_product),
        "bracket_bound_holds": _scalar(lhs <= bound_bracket + tol * scale),
        "product_bound_holds": _scalar(
            bound_bracket <= bound_product + tol * scale
        ),
        "norms": {
            "component_frobenius": _scalar(b_frobenius),
            "section_sq": _scalar(phi_sq),
            "a_frobenius": _scalar(_frobenius(a_matrix)),
        },
    }


def vanishing_report(
    F: GValuedForm,
    ricci: TransverseRicci,
    model: ContactModel,
    tol: float = 1e-9,
) -> dict:
    """Positivity verdict for the combined curvature endomorphism.

    Builds the curvature operator, reports its spectrum with those of
    the Ricci and combined operators (:func:`combined_spectra`: the
    Ricci spectrum from the 3x3 pair matrix, and for an Einstein tensor
    the combined one as the curvature spectrum shifted, so a single
    eigen-solve), and decides whether the quadratic form of (Ricci +
    curvature) is strictly positive on every section, which forces the
    relevant cohomology obstruction space to vanish.  Two equivalent
    smallness thresholds are reported: one against the form norm of the
    curvature, one against the Frobenius norm of its component table;
    the verdict uses the component version.
    """
    fc = f_components_from_gform(F, tol=tol)
    spectra = combined_spectra(build_F_operator_from_components(fc), ricci)
    f_spec = spectra["curvature"]
    r_spec = spectra["ricci"]
    combined_spec = spectra["combined"]

    lam = r_spec["min"]
    b_matrix = f_component_norm_matrix(fc)
    component_norm = float(np.linalg.norm(b_matrix))
    form_norm = g_norm(F)
    threshold_component = lam / _ESTIMATE_CHAIN_CONSTANT
    threshold_form = _ESTIMATE_CHAIN_CONSTANT * lam
    energy_bound_holds = (
        r_spec["positive"] and component_norm < threshold_component
    )

    vanishes = (
        (r_spec["positive"] and f_spec["nonnegative"])
        or energy_bound_holds
        or combined_spec["positive"]
    )
    return {
        "verdict": "VANISHES" if vanishes else "INCONCLUSIVE",
        "lambda_min": lam,
        "curvature_spectrum": {
            "min": f_spec["min"],
            "max": f_spec["max"],
            "positive": f_spec["positive"],
            "nonnegative": f_spec["nonnegative"],
        },
        "ricci_spectrum": {
            "min": r_spec["min"],
            "max": r_spec["max"],
            "positive": r_spec["positive"],
        },
        "combined_spectrum": {
            "min": combined_spec["min"],
            "max": combined_spec["max"],
            "positive": combined_spec["positive"],
        },
        "norms": {
            "component_frobenius": component_norm,
            "form": form_norm,
        },
        "thresholds": {
            "component_frobenius": float(threshold_component),
            "form": float(threshold_form),
        },
        "energy_bound_holds": bool(energy_bound_holds),
    }
