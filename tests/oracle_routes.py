"""Oracle routes shared by several test files: second, independently
written routes to package operations, kept out of the package because
only tests call them."""

import numpy as np

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
