"""Oracle routes shared by several test files: second, independently
written routes to package operations, kept out of the package because
only tests call them."""

import numpy as np

from artifact.flat_model import KForm, basis_keys, wedge
from artifact.gauge_fields import GValuedForm
from artifact.lie_algebra import coeffs_of, matrix_of


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
