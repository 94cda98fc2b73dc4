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
from artifact.flat_model import (
    CalibrationError,
    KForm,
    basis_keys,
    left_wedge_matrix,
    wedge,
)
from artifact.form_decomposition import (
    BidegreeSplit,
    _real_from_symbols,
    complex_components,
    eigenspace_projectors,
)
from artifact.gauge_fields import (
    _ETA_ROWS,
    _MIXED_ROWS,
    _PURE_ROWS,
    GValuedForm,
    _classify_from_residuals,
    _complex_rows,
    conjugate_gform,
    g_norm,
    omega_component,
)
from artifact.lie_algebra import _scalar, ad_matrix, coeffs_of, matrix_of
from artifact.weitzenbock_engine import (
    POSITIVITY_RELATIVE_FLOOR,
    build_R_operator,
    weighted_spectrum,
)
from artifact.ym_stability import curvature_components_grid


def vector_at(F, *key):
    """Oracle read-out of the coefficient vector of ``F`` at a key in any
    order, with the permutation sign: ``KForm.coefficient`` of each
    algebra component, apart from the row tables behind ``F.matrix``."""
    return np.array([
        KForm.from_vector(F.degree, column).coefficient(*key)
        for column in F.matrix.T
    ])


def change_basis_einsum(matrix, coefficients):
    """Oracle route for ``form_decomposition._change_basis``: ``einsum``
    over the leading axis of the coefficients, each entry's terms added
    one after another in column order, with no BLAS product."""
    return np.einsum("ij,j...->i...", matrix, coefficients)


def curvature_action_grid(F):
    """Oracle route for ``ym_stability.curvature_action_oneforms``: the
    ``(7, 7)`` grid of component vectors, zero diagonal and both signs
    included, one ad matrix per grid entry, then the blocks moved into
    place by ``moveaxis`` and ``reshape``: block ``(i, j)`` is
    ``ad(F_{ji})``."""
    grid = np.ascontiguousarray(curvature_components_grid(F).real)
    ads = ad_matrix(F.algebra, grid)
    out = np.moveaxis(ads, (1, 0), (-4, -2))
    size = 7 * F.algebra.dim
    return out.reshape(out.shape[:-4] + (size, size))


def from_complex_components(components, degree):
    """Inverse of ``complex_components`` for a table whose keys may come
    in any order: the complex->real columns of the keys times the values,
    added in the order of the table."""
    return KForm.from_vector(degree, _real_from_symbols(components, degree))


def bidegree_split_per_symbol(a):
    """Oracle route for ``bidegree_split``: the complex components as a
    dict, sorted symbol by symbol into one dict per ``(p, q)`` group, the
    ``eta`` stripped from the remainder's tuples with its order sign, and
    each group turned back into a form through its own table."""
    horizontal_groups, eta_groups = {}, {}
    for symbols, coeff in complex_components(a).items():
        p = sum(1 for s in symbols if s > 0)
        q = sum(1 for s in symbols if s < 0)
        if 0 in symbols:
            # eta is canonically last: strip it and flip the order sign
            stripped = tuple(s for s in symbols if s != 0)
            sign = (-1) ** len(stripped)
            eta_groups.setdefault((p, q), {})[stripped] = sign * coeff
        else:
            horizontal_groups.setdefault((p, q), {})[symbols] = coeff

    def forms(groups, degree):
        built = {pq: from_complex_components(group, degree)
                 for pq, group in groups.items()}
        return {pq: form for pq, form in built.items() if form.vector.any()}

    return BidegreeSplit(
        degree=a.degree,
        parts=forms(horizontal_groups, a.degree),
        eta_parts=forms(eta_groups, a.degree - 1),
    )


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


def two_zero_complex_expression(b_rows):
    """Oracle route for ``gauge_fields.two_zero_from_v_coefficients``: the
    components as the complex expression ``(b[0::2] - 1j * b[1::2]) / 2``
    over the row axis moved to the front, with no real and imaginary
    parts written apart."""
    b = np.moveaxis(np.asarray(b_rows, dtype=complex), -2, 0)
    return np.ascontiguousarray((b[0::2] - 1j * b[1::2]) / 2.0)


def gform_from_terms(algebra, degree, terms):
    """Sum of ``form (x) vector`` terms with scalar :class:`KForm` parts:
    the outer products, added term by term."""
    forms, vectors = [], []
    for form, vector in terms:
        if form.degree != degree:
            raise ValueError("term degree does not match")
        forms.append(form.vector)
        vectors.append(np.asarray(vector, dtype=complex))
    if not forms:
        return GValuedForm(algebra, degree)
    return GValuedForm._wrap(
        algebra, degree, np.einsum("tk,td->kd", forms, vectors)
    )


def g_wedge_scalar(F, form):
    """Wedge an algebra-valued form with a scalar form on the right, by
    one left-wedge matrix of the scalar form: ``F ^ form = (-1)^{pq}
    form ^ F``."""
    degree = F.degree + form.degree
    swap = (-1) ** (F.degree * form.degree)
    matrix = left_wedge_matrix(form, F.degree) * swap
    return GValuedForm._wrap(
        F.algebra, degree, np.einsum("tr,rd->td", matrix, F.matrix)
    )


def torsion_residuals_chain(F, model):
    """Oracle route for ``ym_stability.torsion_residuals``: the torsion
    forms wedged out factor by factor, ``(F ^ deta) ^ deta`` and then
    ``^ eta``, each step a fresh left-wedge matrix."""
    six_form = g_wedge_scalar(g_wedge_scalar(F, model.deta), model.deta)
    seven_form = g_wedge_scalar(six_form, model.eta)
    return {
        "six_form_residual": g_norm(six_form),
        "seven_form_residual": g_norm(seven_form),
    }


def _largest_norm(rows):
    """Largest Euclidean norm among coefficient rows, 0.0 for none."""
    return max((float(np.linalg.norm(row)) for row in rows), default=0.0)


def instanton_classify_per_block(F, model, tol):
    """Oracle route for ``gauge_fields.instanton_classify``: route one
    takes one projector product and one norm per block; route two
    subtracts the contact part as a form built with
    :func:`gform_from_terms`, changes basis a second time and takes one
    norm per complex row.  Same labels, residual keys and errors."""
    scale = g_norm(F)
    reality = g_norm(F - conjugate_gform(F))
    mat = F.to_matrix()
    block_norm = {
        label: float(np.linalg.norm(proj @ mat))
        for label, proj in eigenspace_projectors(model).items()
    }
    residuals_eigen = {
        "block_8": block_norm["8"],
        "block_6": block_norm["6"],
        "block_1": block_norm["1"],
        "vertical": block_norm["vertical"],
        "reality": reality,
    }
    label_eigen = _classify_from_residuals(residuals_eigen, scale, tol)
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


def _spectrum_entries(conjugated):
    """The entries of ``weighted_spectrum`` from an operator in
    coordinates where the inner product is the plain one: the
    Hermiticity residual, the spectrum of the Hermitian part and the
    floor rules."""
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


def weighted_spectrum_dense(matrix, weight):
    """Oracle route for ``weighted_spectrum`` on a full weight, say
    ``kron(I_n, gram)``: one ``eigh`` of the whole ``(n d, n d)`` weight,
    its root and inverse root formed densely, and two dense products with
    the operator, followed by the same residual, spectrum and floor rules."""
    evals, evecs = np.linalg.eigh(np.asarray(weight))
    root = evecs @ np.diag(np.sqrt(evals)) @ evecs.T
    inv_root = evecs @ np.diag(1.0 / np.sqrt(evals)) @ evecs.T
    return _spectrum_entries(root @ np.asarray(matrix) @ inv_root)


def weighted_spectrum_gram_root(matrix, gram):
    """Oracle route for ``weighted_spectrum``, run in a basis whose Gram
    block ``gram`` is a general d x d matrix: the operator on n stacked
    vectors is conjugated by ``kron(I_n, root)`` and its inverse, block
    by block, the root and inverse root from one eigendecomposition of
    the Gram block, then the same residual, spectrum and floor rules."""
    matrix = np.asarray(matrix)
    gram = np.asarray(gram)
    d = len(gram)
    evals, evecs = np.linalg.eigh(gram)
    root = (evecs * np.sqrt(evals)) @ evecs.T
    inv_root = (evecs / np.sqrt(evals)) @ evecs.T
    size = matrix.shape[-1]
    n = size // d
    lead = matrix.shape[:-2]
    left = root @ matrix.reshape(lead + (n, d, size))
    conjugated = left.reshape(lead + (n * d * n, d)) @ inv_root
    return _spectrum_entries(conjugated.reshape(matrix.shape))


def g_inner_gram(a_matrix, b_matrix, gram):
    """Oracle route for ``gauge_fields.g_inner``, run on coefficient
    matrices in a basis with a general Gram matrix: each row paired with
    its partner through the Gram matrix, the row values added one after
    another in basis order."""
    left = np.asarray(a_matrix)[..., None, :] @ np.asarray(gram)
    rows = left @ np.conj(b_matrix)[..., None]
    return _scalar(np.add.accumulate(rows[..., 0, 0], axis=0)[-1])


def structure_lstsq(mats):
    """Structure constants of a basis of matrices by least squares on
    the flattened matrices, one commutator at a time."""
    mats = np.asarray(mats, dtype=complex)
    d = len(mats)
    flat = mats.reshape(d, -1)
    out = np.zeros((d, d, d))
    for i in range(d):
        for j in range(d):
            comm = mats[i] @ mats[j] - mats[j] @ mats[i]
            coeff = np.linalg.lstsq(flat.T, comm.reshape(-1), rcond=None)[0]
            out[i, j] = coeff.real
    return out


def user_gram(mats, inner="killing"):
    """Gram matrix of the invariant inner product in a basis of matrices
    as given: the negative Killing form from :func:`structure_lstsq`, or
    the negative trace form."""
    mats = np.asarray(mats, dtype=complex)
    if inner == "trace":
        return -np.einsum("iab,jba->ij", mats, mats).real
    structure = structure_lstsq(mats)
    return -np.einsum("ilk,jkl->ij", structure, structure)


def user_to_spec(spec, mats):
    """The real d x d matrix whose row i holds the coefficients, in
    ``spec.basis``, of the i-th matrix of a basis as given, by least
    squares: coefficient rows in the given basis times it are
    coefficient rows in ``spec.basis``."""
    d = spec.dim
    flat = np.asarray(spec.basis).reshape(d, -1)
    given = np.asarray(mats, dtype=complex).reshape(d, -1)
    return np.linalg.lstsq(flat.T, given.T, rcond=None)[0].T.real


def combined_spectra_kron(f_endo, ricci):
    """Oracle route for ``combined_spectra``: the Ricci operator formed as
    ``kron(P, I_d)`` by ``build_R_operator``, and one ``weighted_spectrum``
    call on the stack of the curvature, Ricci and summed matrices, with
    no shortcut for an Einstein tensor."""
    r_matrix = build_R_operator(ricci, f_endo.algebra).matrix
    matrices = np.stack([f_endo.matrix, r_matrix, f_endo.matrix + r_matrix])
    stacked = weighted_spectrum(matrices)
    return {
        label: {key: _scalar(value[i]) for key, value in stacked.items()}
        for i, label in enumerate(("curvature", "ricci", "combined"))
    }


# rounding budget of the combined_spectra shortcuts against the kron
# oracle, relative to the sum of the largest curvature and Ricci
# eigenvalue magnitudes: both routes round the same exact spectra
SPECTRUM_ROUNDING = 1e-12


def assert_spectra_within_rounding(got, want):
    """``combined_spectra`` entries against ``combined_spectra_kron``'s:
    the same keys and value types; eigenvalues, extremes and Hermiticity
    residuals within the budget ``SPECTRUM_ROUNDING`` times the largest
    curvature plus the largest Ricci eigenvalue magnitude; and equal
    flags wherever the oracle's minimum lies more than twice the budget
    away from the flag's threshold."""
    budget = SPECTRUM_ROUNDING * sum(
        np.max(np.abs(want[label]["eigenvalues"]), axis=-1)
        for label in ("curvature", "ricci")
    )
    assert got.keys() == want.keys()
    for label, expected in want.items():
        entry = got[label]
        assert entry.keys() == expected.keys(), label
        for key, value in expected.items():
            assert type(entry[key]) is type(value), (label, key)
        assert entry["eigenvalues"].shape == expected["eigenvalues"].shape
        assert np.all(
            np.abs(entry["eigenvalues"] - expected["eigenvalues"])
            <= budget[..., None]
        ), label
        for key in ("min", "max", "hermiticity_residual"):
            assert np.all(
                np.abs(np.subtract(entry[key], expected[key])) <= budget
            ), (label, key)
        largest = np.max(np.abs(expected["eigenvalues"]), axis=-1)
        for key, sign in (("positive", 1.0), ("nonnegative", -1.0)):
            threshold = sign * POSITIVITY_RELATIVE_FLOOR * largest
            outside = np.abs(expected["min"] - threshold) > 2.0 * budget
            assert np.array_equal(
                np.asarray(entry[key])[outside],
                np.asarray(expected[key])[outside],
            ), (label, key)


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
