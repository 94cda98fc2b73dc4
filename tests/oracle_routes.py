"""Oracle routes shared by several test files: second, independently
written routes to package operations, kept out of the package because
only tests call them."""

import numpy as np

from artifact.deformation_symbols import (
    BASIC_B,
    FULL_C,
    covector_form,
    wedge_matrix,
)
from artifact.flat_model import KForm, basis_keys, wedge
from artifact.gauge_fields import GValuedForm
from artifact.lie_algebra import _scalar, coeffs_of, matrix_of
from artifact.weitzenbock_engine import POSITIVITY_RELATIVE_FLOOR


def vector_at(F, *key):
    """Oracle read-out of the coefficient vector of ``F`` at a key in any
    order, with the permutation sign: ``KForm.coefficient`` of each
    algebra component, apart from the row tables behind ``F.matrix``."""
    return np.array([
        KForm.from_vector(F.degree, column).coefficient(*key)
        for column in F.matrix.T
    ])


def g_wedge_bracket_entry_path(phi, psi):
    """Oracle route for ``g_wedge_bracket`` through the scalar entry forms
    ``phi^i_j`` of both forms in the defining representation: entry (i, j)
    of the bracket is ``sum_h (phi^h_j ^ psi^i_h - (-1)^{pq} psi^h_j ^
    phi^i_h)``, pulled back to coefficients per monomial."""
    algebra = phi.algebra
    n = algebra.basis.shape[1]
    degree = phi.degree + psi.degree
    sign = (-1) ** (phi.degree * psi.degree)

    def entry_forms(F):
        entries = matrix_of(algebra, F.matrix)
        return [[KForm.from_vector(F.degree, entries[:, i, j])
                 for j in range(n)] for i in range(n)]

    pe, qe = entry_forms(phi), entry_forms(psi)
    entries = np.zeros((len(basis_keys(degree)), n, n), dtype=complex)
    for i in range(n):
        for j in range(n):
            acc = KForm(degree)
            for h in range(n):
                acc = acc + wedge(pe[h][j], qe[i][h])
                acc = acc - sign * wedge(qe[h][j], pe[i][h])
            entries[:, i, j] = acc.vector
    out = GValuedForm(algebra, degree)
    for row, mat in enumerate(entries):
        if np.any(mat):
            out.matrix[row] = coeffs_of(algebra, mat)
    return out


def bracket_vec_einsum(spec, u, v):
    """Oracle route for ``bracket_vec``: the three-operand ``einsum`` of
    both vectors with the structure constants, with no matrix product."""
    return np.einsum(
        "...i,...j,ijk->...k",
        np.asarray(u, dtype=complex),
        np.asarray(v, dtype=complex),
        spec.structure,
    )


def ad_matrix_einsum(spec, u):
    """Oracle route for ``ad_matrix``: ``einsum`` of the vector with the
    structure constants, with no matrix product."""
    return np.einsum(
        "...i,ijk->...kj", np.asarray(u, dtype=complex), spec.structure
    )


def weighted_spectrum_dense(matrix, weight):
    """Oracle route for ``weighted_spectrum`` on the full weight, say
    ``kron(I_n, gram)``: one ``eigh`` of the whole ``(n d, n d)`` weight,
    its root and inverse root formed densely, and two dense products with
    the operator, followed by the same residual, spectrum and floor rules."""
    evals, evecs = np.linalg.eigh(np.asarray(weight))
    root = evecs @ np.diag(np.sqrt(evals)) @ evecs.T
    inv_root = evecs @ np.diag(1.0 / np.sqrt(evals)) @ evecs.T
    conjugated = root @ np.asarray(matrix) @ inv_root
    adjoint = np.swapaxes(conjugated.conj(), -1, -2)
    herm_residual = np.max(np.abs(conjugated - adjoint), axis=(-2, -1))
    spectrum = np.linalg.eigvalsh((conjugated + adjoint) / 2.0)
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


# The symbol complexes written out by hand, one formula per complex and
# stage: the oracle for the stage-basis route of ``deformation_symbols``.

_HORIZONTAL = 6


def _kron_identity(matrix, d):
    return matrix if d == 1 else np.kron(matrix, np.eye(d))


def full_symbol_maps_explicit(xi, q, d=1):
    """Oracle route for ``symbol_maps``: the covector itself, then the
    wedge into the 2-form quotient, then the wedge from it into the
    3-form quotient."""
    vec = np.asarray(xi, dtype=float)
    xi_form = covector_form(vec)
    sigma0 = vec.reshape(7, 1)
    sigma1 = q.l2_basis.T @ wedge_matrix(xi_form, 1)
    sigma2 = q.l3_basis.T @ wedge_matrix(xi_form, 2) @ q.l2_basis
    return tuple(_kron_identity(m, d) for m in (sigma0, sigma1, sigma2))


def basic_symbol_maps_explicit(xi, q, d=1):
    """Oracle route for ``basic_symbol_maps``: the horizontal part of the
    covector, then the wedge of horizontal 1-forms into the basic block,
    through an explicit embedding of the horizontal 1-forms."""
    vec = np.asarray(xi, dtype=float)
    b0 = vec[:_HORIZONTAL].reshape(_HORIZONTAL, 1)
    embed_h = np.zeros((7, _HORIZONTAL))
    embed_h[:_HORIZONTAL, :] = np.eye(_HORIZONTAL)
    b1 = q.basic2_basis.T @ wedge_matrix(covector_form(vec), 1) @ embed_h
    return tuple(_kron_identity(m, d) for m in (b0, b1))


def symbol_tensors_explicit(q):
    """Oracle route for ``QuotientSpaces.symbol_tensors``: the tensors of
    both complexes over the seven axis covectors, written out stage by
    stage, keyed by complex tag."""
    axes = [covector_form(row) for row in np.eye(7)]
    w1 = np.stack([wedge_matrix(xi, 1) for xi in axes])
    w2 = np.stack([wedge_matrix(xi, 2) for xi in axes])
    return {
        FULL_C: (
            np.eye(7)[:, :, None],
            q.l2_basis.T @ w1,
            q.l3_basis.T @ w2 @ q.l2_basis,
        ),
        BASIC_B: (
            np.eye(7)[:, :_HORIZONTAL, None],
            q.basic2_basis.T @ w1[:, :, :_HORIZONTAL],
        ),
    }
