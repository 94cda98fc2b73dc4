"""The stacked classifier, torsion and assembly routes against the
per-block and per-row bodies they replaced, and the tables they read.

The oracles live in ``oracle_routes``: ``instanton_classify_per_block``
(one projector product and one norm per block; the contact part removed
as a form and the basis changed a second time, one norm per row),
``torsion_residuals_chain`` (the torsion forms wedged out factor by
factor) and ``_kron_identity`` (``np.kron`` with the identity).  The
package routes must give the same labels and errors and the same
residuals to 1e-12 relative to the input, over algebras with integer,
trace-normalised, skewed and zero structure constants, scales from 1e-3
to 1e3, and the near-tolerance forms ``w1 (x) e0 + eps v1 (x) e1``.
"""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from artifact.flat_model import (
    CalibrationError,
    KForm,
    calibrate_model,
    standard_two_form_families,
)
from artifact.gauge_fields import (
    GValuedForm,
    _classifier_tables,
    g_norm,
    instanton_classify,
)
from artifact.lie_algebra import (
    _NAMED_CACHE_SIZE,
    algebra_from_basis,
    make_abelian,
    make_so,
    make_su,
)
from artifact.weitzenbock_engine import (
    _COUPLING,
    _GRAM_ROOT_CACHE_SIZE,
    TransverseRicci,
    _gram_roots,
    _identity_blocks,
    build_R_operator,
    weighted_spectrum,
)
from artifact.ym_stability import (
    RicciTensor7,
    _torsion_maps,
    algebraic_second_variation,
    curvature_action_oneforms,
    torsion_residuals,
)
from oracle_routes import (
    _kron_identity,
    gform_from_terms,
    instanton_classify_per_block,
    torsion_residuals_chain,
)

MODEL = calibrate_model()
RELATIVE = 1e-12


def _skewed_so4():
    """so(4) in a fixed non-orthogonal basis, so that the structure
    constants are not integers and the Gram matrix is not diagonal."""
    mix = np.eye(6) + 0.25 * np.arange(36).reshape(6, 6) % 1.5
    return algebra_from_basis(
        "skewed so(4)", np.einsum("ij,jab->iab", mix, make_so(4).basis)
    )


ALGEBRAS = {
    "su2": make_su(2),
    "su2_trace": make_su(2, inner="trace"),
    "so3": make_so(3),
    "so5": make_so(5),
    "so7": make_so(7),
    "skewed_so4": _skewed_so4(),
    "abelian3": make_abelian(3),
}

_FAMILIES = standard_two_form_families()
# the 2-forms of each eigenvalue block, and the vertical forms e^a ^ eta
_BLOCK_FORMS = {
    "8": _FAMILIES["w"],
    "6": _FAMILIES["v"],
    "1": (MODEL.omega,),
    "vertical": tuple(KForm.basis(a, 7) for a in range(1, 7)),
}

algebra_names = st.sampled_from(sorted(ALGEBRAS))
scales = st.floats(-3.0, 3.0).map(lambda power: 10.0 ** power)
seeds = st.integers(0, 2**32 - 1)
# which blocks a form has: every nonempty subset, weighted toward one
# block so that every label is reached
blocks = st.lists(
    st.sampled_from(sorted(_BLOCK_FORMS)), min_size=1, max_size=4,
    unique=True,
)


def _form(name, present, scale, seed, imaginary=False):
    """A 2-form with random coefficients on the blocks ``present``."""
    algebra = ALGEBRAS[name]
    rng = np.random.default_rng(seed)
    terms = []
    for block in present:
        for form in _BLOCK_FORMS[block]:
            vector = rng.standard_normal(algebra.dim)
            if imaginary:
                vector = vector + 1j * rng.standard_normal(algebra.dim)
            terms.append((form, scale * vector))
    return gform_from_terms(algebra, 2, terms)


def _classify_both(F, tol=1e-9):
    """(package outcome, oracle outcome): a report or the error text."""
    outcomes = []
    for route in (instanton_classify, instanton_classify_per_block):
        try:
            outcomes.append(route(F, MODEL, tol))
        except CalibrationError as exc:
            outcomes.append(f"CalibrationError: {exc}")
    return outcomes


def _assert_same_classification(F):
    got, want = _classify_both(F)
    if isinstance(want, str) or isinstance(got, str):
        assert got == want
        return
    assert got["label"] == want["label"]
    assert got["note"] == want["note"]
    assert got.keys() == want.keys()
    budget = RELATIVE * max(want["norm"], np.finfo(float).tiny)
    for route in ("residuals_eigen", "residuals_type"):
        assert got[route].keys() == want[route].keys()
        for key, value in want[route].items():
            assert abs(got[route][key] - value) <= budget, (route, key)
    assert got["norm"] == want["norm"]
    assert got["tolerance"] == want["tolerance"]


@settings(max_examples=150, deadline=None)
@given(name=algebra_names, present=blocks, scale=scales, seed=seeds,
       imaginary=st.booleans())
def test_classifier_matches_per_block_oracle(name, present, scale, seed,
                                             imaginary):
    _assert_same_classification(
        _form(name, present, scale, seed, imaginary)
    )


@settings(max_examples=150, deadline=None)
@given(
    name=st.sampled_from(
        [name for name, spec in ALGEBRAS.items() if spec.dim >= 2]
    ),
    log_eps=st.floats(-11.0, -7.0),
    scale=scales,
)
def test_classifier_matches_oracle_near_tolerance(name, log_eps, scale):
    # w1 (x) e0 + eps v1 (x) e1 around the relative tolerance 1e-9, where
    # the two routes may disagree: both must then raise the same error
    algebra = ALGEBRAS[name]
    e0, e1 = np.eye(algebra.dim)[:2]
    F = gform_from_terms(algebra, 2, [
        (_FAMILIES["w"][0], scale * e0),
        (_FAMILIES["v"][0], scale * 10.0 ** log_eps * e1),
    ])
    _assert_same_classification(F)


def _assert_torsion_close(got, want, F):
    budget = RELATIVE * np.maximum(np.asarray(g_norm(F)), 1e-300)
    for key in want:
        assert np.all(np.abs(np.asarray(got[key]) - want[key]) <= budget)


@settings(max_examples=100, deadline=None)
@given(name=algebra_names, present=blocks, scale=scales, seed=seeds,
       stack=st.sampled_from([(), (1,), (4,), (2, 3)]))
def test_torsion_residuals_match_wedge_chain(name, present, scale, seed,
                                             stack):
    count = int(np.prod(stack))
    singles = [_form(name, present, scale, seed + k) for k in range(count)]
    if not stack:
        F = singles[0]
        _assert_torsion_close(
            torsion_residuals(F, MODEL), torsion_residuals_chain(F, MODEL), F
        )
        return
    matrix = np.stack([f.matrix for f in singles], axis=1)
    F = GValuedForm.from_matrix(
        singles[0].algebra, 2,
        matrix.reshape((21,) + stack + (singles[0].algebra.dim,)),
    )
    got = torsion_residuals(F, MODEL)
    want = {
        key: np.array([torsion_residuals_chain(f, MODEL)[key]
                       for f in singles]).reshape(stack)
        for key in got
    }
    _assert_torsion_close(got, want, F)


def test_torsion_residuals_reject_other_degrees():
    with pytest.raises(ValueError, match="curvature 2-form"):
        torsion_residuals(GValuedForm(ALGEBRAS["su2"], 3), MODEL)


@settings(max_examples=60, deadline=None)
@given(
    n=st.integers(1, 7),
    d=st.integers(1, 9),
    lead=st.sampled_from([(), (1,), (3,), (2, 2)]),
    complex_values=st.booleans(),
    seed=seeds,
)
def test_identity_blocks_equal_kron(n, d, lead, complex_values, seed):
    rng = np.random.default_rng(seed)
    matrix = rng.standard_normal(lead + (n, n))
    if complex_values:
        matrix = matrix + 1j * rng.standard_normal(lead + (n, n))
    got = _identity_blocks(matrix, d)
    want = _kron_identity(matrix, d)
    assert got.shape == want.shape == lead + (n * d, n * d)
    assert got.dtype == want.dtype
    assert np.array_equal(got, want)


@pytest.mark.parametrize("name", sorted(ALGEBRAS))
def test_assembly_equals_kron_oracle_for_forms_and_stacks(name):
    algebra = ALGEBRAS[name]
    d = algebra.dim
    rng = np.random.default_rng(len(name))
    ricci7 = rng.standard_normal((7, 7))
    ricci7 = RicciTensor7(ricci7 + ricci7.T)
    singles = [_form(name, ["8", "1"], 1.0, k) for k in range(3)]
    stacked = GValuedForm.from_matrix(
        algebra, 2, np.stack([f.matrix.real for f in singles], axis=1)
    )
    for F in singles + [stacked]:
        variation = algebraic_second_variation(F, ricci7)
        want = (
            _kron_identity(ricci7.matrix, d)
            + 2.0 * curvature_action_oneforms(F)
        )
        assert np.array_equal(variation["matrix"], want)
    diagonals = rng.uniform(1.0, 9.0, (4, 3))
    for ricci3 in (TransverseRicci.einstein(8.0),
                   TransverseRicci.from_diagonal(diagonals)):
        pair = np.einsum("rcma,...am->...rc", _COUPLING, ricci3.matrix)
        got = build_R_operator(ricci3, algebra).matrix
        assert np.array_equal(got, _kron_identity(pair, d))


# ---------------------------------------------------------------------------
# The per-model and per-process tables
# ---------------------------------------------------------------------------


def _assert_read_only(array):
    assert not array.flags.writeable
    with pytest.raises(ValueError):
        array[(0,) * array.ndim] = 1.0


def test_classifier_tables_read_only_and_equal_rebuild():
    tables = _classifier_tables(MODEL)
    assert _classifier_tables(MODEL) is tables
    fresh = _classifier_tables.__wrapped__(MODEL)
    projectors, omega_rows, omega_norm = tables
    for array, rebuilt in zip((projectors, omega_rows), fresh):
        _assert_read_only(array)
        assert np.array_equal(array, rebuilt)
    assert omega_norm == fresh[2] == np.linalg.norm(MODEL.omega.vector)
    assert projectors.shape == (4, 21, 21)


def test_torsion_maps_read_only_exact_and_equal_rebuild():
    maps = _torsion_maps(MODEL)
    assert _torsion_maps(MODEL) is maps
    _assert_read_only(maps)
    assert np.array_equal(maps, _torsion_maps.__wrapped__(MODEL))
    assert maps.shape == (8, 21)
    # the composition is exact: a dyadic rational in every entry
    assert np.array_equal(maps * 64.0, np.round(maps * 64.0))
    # and each column is the wedge chain applied to one monomial
    algebra = make_abelian(1)
    for column in range(21):
        unit = np.zeros((21, 1))
        unit[column] = 1.0
        F = GValuedForm.from_matrix(algebra, 2, unit)
        chain = torsion_residuals_chain(F, MODEL)
        assert np.linalg.norm(maps[:7, column]) == chain["six_form_residual"]
        assert abs(maps[7, column]) == chain["seven_form_residual"]


def test_two_form_families_read_only_and_equal_rebuild():
    families = standard_two_form_families()
    assert standard_two_form_families() is families
    fresh = standard_two_form_families.__wrapped__()
    assert families.keys() == fresh.keys() == {"w", "v"}
    with pytest.raises(TypeError):
        families["w"] = ()
    for key in families:
        assert isinstance(families[key], tuple)
        assert len(families[key]) == len(fresh[key])
        for form, rebuilt in zip(families[key], fresh[key]):
            _assert_read_only(form.vector)
            assert np.array_equal(form.vector, rebuilt.vector)


def test_gram_roots_read_only_and_equal_rebuild():
    gram = ALGEBRAS["skewed_so4"].gram
    key = (gram.dtype.str, len(gram), gram.tobytes())
    roots = _gram_roots(*key)
    assert _gram_roots(*key) is roots
    root, inv_root = roots
    for array, rebuilt in zip(roots, _gram_roots.__wrapped__(*key)):
        _assert_read_only(array)
        assert np.array_equal(array, rebuilt)
    assert np.allclose(root @ root, gram, rtol=0, atol=1e-12)
    assert np.allclose(root @ inv_root, np.eye(len(gram)), rtol=0,
                       atol=1e-12)


def test_gram_root_cache_is_bounded():
    assert _GRAM_ROOT_CACHE_SIZE == _NAMED_CACHE_SIZE
    assert _gram_roots.cache_info().maxsize == _GRAM_ROOT_CACHE_SIZE
    for k in range(2 * _GRAM_ROOT_CACHE_SIZE + 3):
        gram = np.diag([1.0 + k, 2.0 + k])
        out = weighted_spectrum(np.eye(4), gram)
        assert out["min"] == pytest.approx(1.0)
        assert _gram_roots.cache_info().currsize <= _GRAM_ROOT_CACHE_SIZE
    # a Gram block of the largest abelian algebra stays within the bound
    big = make_abelian(64).gram
    weighted_spectrum(np.eye(64), big)
    assert _gram_roots.cache_info().currsize <= _GRAM_ROOT_CACHE_SIZE


def test_weighted_spectrum_reads_gram_by_value():
    # a Gram block that changes in place between calls is a new key
    gram = np.diag([1.0, 4.0])
    first = weighted_spectrum(np.diag([1.0, 1.0]), gram)["hermiticity_residual"]
    gram[0, 1] = gram[1, 0] = 1.0
    matrix = np.array([[0.0, 1.0], [0.0, 0.0]])
    second = weighted_spectrum(matrix, gram)
    evals, evecs = np.linalg.eigh(gram)
    root = (evecs * np.sqrt(evals)) @ evecs.T
    conjugated = root @ matrix @ np.linalg.inv(root)
    assert first == 0.0
    assert second["hermiticity_residual"] == pytest.approx(
        np.max(np.abs(conjugated - conjugated.T)), rel=1e-12
    )
