"""Eigenvalue blocks of 2-forms and the complex bidegree split."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import artifact.form_decomposition as form_decomposition
from artifact.flat_model import (
    CalibrationError,
    KForm,
    basis_keys,
    _spectrum_ok,
    calibrate_model,
    form_inner,
    nearest_mixing_eigenvalues,
    standard_two_form_families,
    wedge,
)
from artifact.form_decomposition import (
    bidegree_split,
    complex_components,
    eigenspace_projectors,
    project,
    project_vectors,
    t_eta_apply,
    t_eta_matrix,
)
from oracle_routes import from_complex_components


@pytest.fixture(scope="module")
def model():
    return calibrate_model()


@pytest.fixture(scope="module")
def matrix(model):
    return t_eta_matrix(model)


def _random_two_form(rng, complex_valued=False) -> KForm:
    vec = rng.standard_normal(21)
    if complex_valued:
        vec = vec + 1j * rng.standard_normal(21)
    return KForm.from_vector(2, vec)


# ---------------------------------------------------------------------------
# The mixing operator against an eigenbasis oracle
# ---------------------------------------------------------------------------


def test_matrix_matches_eigenbasis_oracle(model, matrix):
    """Independent reconstruction from the frozen eigenvector families.

    The 8 + 6 + 1 + 6 family vectors form a (non-orthogonal) basis of
    the 21-dimensional space; conjugating the diagonal of eigenvalues
    by the basis-change matrix must reproduce the operator.
    """
    families = standard_two_form_families()
    columns = []
    eigenvalues = []
    for form in families["w"]:
        columns.append(form.to_vector().real)
        eigenvalues.append(1.0)
    for form in families["v"]:
        columns.append(form.to_vector().real)
        eigenvalues.append(-1.0)
    columns.append(model.omega.to_vector().real)
    eigenvalues.append(-2.0)
    for a in range(1, 7):
        columns.append(wedge(model.eta, KForm.basis(a)).to_vector().real)
        eigenvalues.append(0.0)
    basis = np.column_stack(columns)
    assert basis.shape == (21, 21)
    assert np.linalg.matrix_rank(basis) == 21
    oracle = basis @ np.diag(eigenvalues) @ np.linalg.inv(basis)
    assert np.max(np.abs(matrix - oracle)) <= 1e-10


def test_matrix_is_symmetric_real(matrix):
    assert np.max(np.abs(matrix.imag)) == 0.0
    assert np.max(np.abs(matrix - matrix.T)) <= 1e-12


def test_spectrum_multiplicities(matrix):
    eigenvalues = np.linalg.eigvalsh((matrix + matrix.T) / 2.0)
    counts = {1.0: 0, -1.0: 0, -2.0: 0, 0.0: 0}
    for lam in eigenvalues:
        target = min(counts, key=lambda t: abs(lam - t))
        assert abs(lam - target) <= 1e-10
        counts[target] += 1
    assert counts == {1.0: 8, -1.0: 6, -2.0: 1, 0.0: 6}


def test_apply_matches_matrix(model, matrix):
    rng = np.random.default_rng(0)
    for _ in range(20):
        form = _random_two_form(rng, complex_valued=True)
        lhs = t_eta_apply(form, model).to_vector()
        rhs = matrix @ form.to_vector()
        assert np.max(np.abs(lhs - rhs)) <= 1e-12


def test_family_membership(model, matrix):
    families = standard_two_form_families()
    for form in families["w"]:
        vec = form.to_vector()
        assert np.max(np.abs(matrix @ vec - vec)) <= 1e-12
    for form in families["v"]:
        vec = form.to_vector()
        assert np.max(np.abs(matrix @ vec + vec)) <= 1e-12
    omega_vec = model.omega.to_vector()
    assert np.max(np.abs(matrix @ omega_vec + 2.0 * omega_vec)) <= 1e-12
    for a in range(1, 7):
        vec = wedge(model.eta, KForm.basis(a)).to_vector()
        assert np.max(np.abs(matrix @ vec)) <= 1e-12


# ---------------------------------------------------------------------------
# Projectors
# ---------------------------------------------------------------------------


def test_projector_algebra(model):
    projectors = eigenspace_projectors(model)
    assert sorted(projectors) == ["1", "6", "8", "vertical"]
    total = np.zeros((21, 21))
    for label, proj in projectors.items():
        assert np.max(np.abs(proj @ proj - proj)) <= 1e-12
        assert np.max(np.abs(proj - proj.T)) <= 1e-12
        total = total + proj
        for other, qroj in projectors.items():
            if other != label:
                assert np.max(np.abs(proj @ qroj)) <= 1e-12
    assert np.max(np.abs(total - np.eye(21))) <= 1e-12


def test_projector_traces_give_block_dimensions(model):
    projectors = eigenspace_projectors(model)
    traces = {
        label: float(np.trace(proj)) for label, proj in projectors.items()
    }
    assert traces["8"] == pytest.approx(8.0, abs=1e-10)
    assert traces["6"] == pytest.approx(6.0, abs=1e-10)
    assert traces["1"] == pytest.approx(1.0, abs=1e-10)
    assert traces["vertical"] == pytest.approx(6.0, abs=1e-10)


def test_project_reassembles(model):
    rng = np.random.default_rng(1)
    for _ in range(20):
        form = _random_two_form(rng, complex_valued=True)
        split = project(form, model)
        total = sum(split.as_dict().values(), KForm.zero(2))
        assert (total - form).norm() <= 1e-12 * form.norm()


def test_project_batch_route_agrees(model):
    rng = np.random.default_rng(2)
    vectors = rng.standard_normal((21, 50))
    parts = project_vectors(vectors, model)
    for column in range(50):
        split = project(KForm.from_vector(2, vectors[:, column]), model)
        for label, part in split.as_dict().items():
            assert np.max(
                np.abs(parts[label][:, column] - part.to_vector())
            ) <= 1e-12


def test_project_contact_form_is_pure(model):
    split = project(model.omega, model)
    norms = {label: part.norm() for label, part in split.as_dict().items()}
    assert norms["1"] == pytest.approx(model.omega.norm())
    assert norms["8"] <= 1e-12
    assert norms["6"] <= 1e-12
    assert norms["vertical"] <= 1e-12


# ---------------------------------------------------------------------------
# Complex components and the bidegree split
# ---------------------------------------------------------------------------


def test_complex_roundtrip_all_degrees(model):
    rng = np.random.default_rng(3)
    for degree in range(5):
        dim = len(basis_keys(degree))
        vec = rng.standard_normal(dim) + 1j * rng.standard_normal(dim)
        form = KForm.from_vector(degree, vec)
        table = complex_components(form)
        back = from_complex_components(table, degree)
        assert (back - form).norm() <= 1e-14 * max(form.norm(), 1.0)


def test_conjugation_swaps_bidegree(model):
    rng = np.random.default_rng(4)
    form = _random_two_form(rng, complex_valued=True)
    split = bidegree_split(form, model)
    conj_split = bidegree_split(form.conjugate(), model)
    for (p, q), part in split.parts.items():
        partner = conj_split.parts.get((q, p), KForm.zero(2))
        assert (partner - part.conjugate()).norm() <= 1e-12


def test_bidegree_reassembles(model):
    rng = np.random.default_rng(5)
    for degree in (1, 2, 3):
        dim = len(basis_keys(degree))
        vec = rng.standard_normal(dim) + 1j * rng.standard_normal(dim)
        form = KForm.from_vector(degree, vec)
        split = bidegree_split(form, model)
        horizontal = sum(split.parts.values(), KForm.zero(degree))
        remainder = sum(split.eta_parts.values(), KForm.zero(degree - 1))
        total = horizontal + wedge(model.eta, remainder)
        assert (total - form).norm() <= 1e-12


def test_bidegree_of_contact_form(model):
    split = bidegree_split(model.omega, model)
    assert set(split.parts) == {(1, 1)}
    assert not split.eta_parts


def test_bidegree_types_of_families(model):
    families = standard_two_form_families()
    for form in families["w"]:
        split = bidegree_split(form, model)
        assert set(split.parts) == {(1, 1)}
    for form in families["v"]:
        split = bidegree_split(form, model)
        assert set(split.parts) <= {(2, 0), (0, 2)}
        assert (2, 0) in split.parts
    # the v family members are exactly twice the real and imaginary
    # parts of decomposable (2, 0) monomials, so conjugate pairs match
    for form in families["v"]:
        split = bidegree_split(form, model)
        plus = split.parts[2, 0]
        minus = split.parts.get((0, 2), KForm.zero(2))
        assert (minus - plus.conjugate()).norm() <= 1e-12


def test_sd_family_is_orthogonal_to_contact_form(model):
    families = standard_two_form_families()
    for form in families["w"]:
        assert abs(form_inner(form, model.omega)) <= 1e-13


def test_vertical_forms_have_zero_horizontal_type(model):
    form = wedge(model.eta, KForm.basis(3))
    split = bidegree_split(form, model)
    assert not split.parts
    assert set(split.eta_parts) <= {(1, 0), (0, 1)}


# ---------------------------------------------------------------------------
# The one eigenvalue-multiplicity matcher
# ---------------------------------------------------------------------------


def test_nearest_target_and_distance():
    nearest, distance = nearest_mixing_eigenvalues(
        [1.0 + 1e-12, -0.5, -1.5, 0.0, -2.0, 3.0]
    )
    # targets (+1, -1, -2, 0); a tie goes to the first target in that order
    assert nearest.tolist() == [0, 1, 1, 3, 2, 0]
    assert distance.tolist() == [
        abs(1.0 + 1e-12 - 1.0), 0.5, 0.5, 0.0, 0.0, 2.0
    ]
    stacked, _ = nearest_mixing_eigenvalues(np.zeros((2, 3)))
    assert stacked.shape == (2, 3)


def _hit_rule(evals: np.ndarray, tol: float) -> bool:
    """The counting rule the calibration used before the matcher: every
    eigenvalue within ``tol`` of some target, target hits as expected."""
    targets = {1.0: 8, -1.0: 6, -2.0: 1, 0.0: 6}
    hits = {t: sum(abs(ev - t) <= tol for ev in evals) for t in targets}
    every = all(any(abs(ev - t) <= tol for t in targets) for ev in evals)
    return every and hits == targets


@settings(max_examples=80, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    scale=st.sampled_from((0.0, 1e-11, 1e-10, 2e-10, 0.3)),
    moved=st.integers(0, 3),
)
def test_spectrum_check_matches_hit_rule(seed, scale, moved):
    rng = np.random.default_rng(seed)
    evals = np.repeat([1.0, -1.0, -2.0, 0.0], [8, 6, 1, 6])
    evals = evals + scale * rng.uniform(-1.0, 1.0, size=21)
    evals[rng.choice(21, size=moved, replace=False)] = rng.choice(
        [1.0, -1.0, -2.0, 0.0, 0.5], size=moved
    )
    tol = 1e-10
    assert bool(_spectrum_ok(evals[None], tol)[0]) == _hit_rule(evals, tol)


def test_projectors_reject_unmatched_or_miscounted_spectra(
    model, monkeypatch
):
    build = eigenspace_projectors.__wrapped__
    stray = np.diag(np.repeat([1.0, -1.0, -2.0, 0.0, 0.5], [8, 6, 1, 5, 1]))
    monkeypatch.setattr(form_decomposition, "t_eta_matrix", lambda m: stray)
    with pytest.raises(CalibrationError, match="unexpected mixing eigenvalue"):
        build(model)
    wrong = np.diag(np.repeat([1.0, -1.0, -2.0, 0.0], [9, 5, 1, 6]))
    monkeypatch.setattr(form_decomposition, "t_eta_matrix", lambda m: wrong)
    with pytest.raises(CalibrationError,
                       match="unexpected eigenvalue multiplicities"):
        build(model)


def test_tables_are_built_once_per_model_and_shared_read_only(model):
    matrix = t_eta_matrix(model)
    projectors = eigenspace_projectors(model)
    assert t_eta_matrix(model) is matrix
    assert eigenspace_projectors(model) is projectors
    for array in (matrix, *projectors.values()):
        with pytest.raises(ValueError, match="read-only"):
            array[0, 0] = 1.0
    with pytest.raises(TypeError):
        projectors["8"] = np.eye(21)
    assert np.array_equal(t_eta_matrix.__wrapped__(model), matrix)
    fresh = eigenspace_projectors.__wrapped__(model)
    assert list(fresh) == list(projectors)
    for label, proj in fresh.items():
        assert proj is not projectors[label]
        assert np.array_equal(proj, projectors[label])
