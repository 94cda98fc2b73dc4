"""The stacked classifier, torsion and assembly routes against the
per-block and per-row bodies they replaced, and the tables they read.

The oracles live in ``oracle_routes``: ``instanton_classify_per_block``
(one projector product and one norm per block; the contact part removed
as a form and the basis changed a second time, one norm per row),
``torsion_residuals_chain`` (the torsion forms wedged out factor by
factor), ``_kron_identity`` (``np.kron`` with the identity) and
``combined_spectra_kron`` (the Ricci operator formed as ``kron(P, I_d)``
and one solve of the three stacked operators).  The package routes must
give the same labels and errors and the same residuals to 1e-12 relative
to the input, over algebras with integer, trace-normalised, skewed and
zero structure constants, scales from 1e-3 to 1e3, and the
near-tolerance forms ``w1 (x) e0 + eps v1 (x) e1``; the in-place
assemblies are bit-equal to the sums they replace, and the spectra of
``combined_spectra`` (the Ricci one from the pair matrix, the combined
one shifted for an Einstein tensor) match the kron oracle within
``oracle_routes.SPECTRUM_ROUNDING``.  The complex-type kernels meet
``change_basis_einsum`` (within the summation bound of each entry),
``bidegree_split_per_symbol`` (same parts in the same order, vectors
within rounding) and ``curvature_action_grid`` (bit-equal).  A later
section bounds the allocation peak of one so(7) report, and the last one
runs the routes of a re-based skewed algebra against the Gram-matrix
oracles ``g_inner_gram`` and ``weighted_spectrum_gram_root`` in the
basis as given.
"""

import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from artifact.flat_model import (
    CalibrationError,
    KForm,
    basis_keys,
    calibrate_model,
    standard_two_form_families,
)
from artifact.form_decomposition import (
    _SYMBOL_KEYS,
    _TO_COMPLEX,
    _TO_REAL,
    _bidegree_groups,
    _change_basis,
    bidegree_split,
)
from artifact.gauge_fields import (
    GValuedForm,
    _classifier_tables,
    f_components_from_gform,
    f_components_from_w,
    g_inner,
    g_norm,
    gform_from_w_coefficients,
    instanton_classify,
)
from artifact.lie_algebra import (
    _NAMED_CACHE_SIZE,
    algebra_from_basis,
    make_abelian,
    make_so,
    make_su,
)
from artifact import weitzenbock_engine
from artifact.weitzenbock_engine import (
    _COUPLING,
    TransverseRicci,
    TwoZeroEndo,
    _add_identity_blocks,
    _identity_blocks,
    build_F_operator_from_components,
    build_R_operator,
    combined_spectra,
    operator_spectrum,
    vanishing_report,
    weighted_spectrum,
)
from artifact.ym_stability import (
    RicciTensor7,
    _torsion_maps,
    algebraic_second_variation,
    curvature_action_oneforms,
    curvature_components_grid,
    stability_report,
    torsion_residuals,
)
from oracle_routes import (
    _kron_identity,
    assert_spectra_within_rounding,
    bidegree_split_per_symbol,
    change_basis_einsum,
    combined_spectra_kron,
    curvature_action_grid,
    gform_from_terms,
    instanton_classify_per_block,
    torsion_residuals_chain,
    g_inner_gram,
    structure_lstsq,
    user_gram,
    user_to_spec,
    weighted_spectrum_gram_root,
)

MODEL = calibrate_model()
RELATIVE = 1e-12


# bases as given whose Gram matrices are not diagonal: so(4) in a fixed
# non-orthogonal basis, and su(2) with each generator plus the previous
SKEWED_BASES = {
    "skewed_so4": np.einsum(
        "ij,jab->iab",
        np.eye(6) + 0.25 * np.arange(36).reshape(6, 6) % 1.5,
        make_so(4).basis,
    ),
    "skewed_su2": make_su(2).basis + np.roll(make_su(2).basis, 1, axis=0),
}


def _skewed_so4():
    """so(4) from a fixed non-orthogonal basis, re-based at construction,
    so that the structure constants are not integers."""
    return algebra_from_basis("skewed so(4)", SKEWED_BASES["skewed_so4"])


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
# The complex-type kernels against their einsum and per-symbol oracles
# ---------------------------------------------------------------------------

_EPS = np.finfo(float).eps


def _spread(rng, shape, complex_values):
    """Coefficients whose magnitudes spread over six decades."""
    def draw():
        return rng.standard_normal(shape) * 10.0 ** rng.uniform(-3, 3, shape)
    return draw() + 1j * draw() if complex_values else draw()


def _summation_budget(matrix, coefficients):
    """Per output entry and real component, how far two orders of the
    same sum may lie apart: ``n eps sum |t|`` over its ``n`` nonzero
    terms ``t``.  Every entry of the change-of-basis matrices is a power
    of two times a power of ``i``, so each product is exact and the
    routes differ only in the order of the additions; recursive summation
    of ``n`` terms is off by at most ``(n - 1) u sum |t|`` in each order.
    """
    flat = coefficients.reshape(
        len(coefficients), math.prod(coefficients.shape[1:])
    )
    products = matrix[:, :, None] * flat[None, :, :]
    shape = (len(matrix),) + coefficients.shape[1:]
    return tuple(
        (np.count_nonzero(part, axis=1) * _EPS
         * np.abs(part).sum(axis=1)).reshape(shape)
        for part in (products.real, products.imag)
    )


@pytest.mark.parametrize("direction", ["to_complex", "to_real"])
@pytest.mark.parametrize("degree", range(8))
def test_change_basis_matches_einsum_oracle(degree, direction):
    matrix = {"to_complex": _TO_COMPLEX, "to_real": _TO_REAL}[direction][
        degree
    ]
    rng = np.random.default_rng(degree)
    # every row holds at most 8 terms: a wedge of three dz^j expands
    # into 8 real monomials, and a real monomial of three planes into 8
    # symbol monomials
    assert np.count_nonzero(matrix, axis=1).max() <= 8
    for stack in [(), (0,), (3,), (2, 2)]:
        for d in (1, 3, 21):
            for complex_values in (False, True):
                shape = (matrix.shape[1],) + stack + (d,)
                coefficients = _spread(rng, shape, complex_values)
                got = _change_basis(matrix, coefficients)
                want = change_basis_einsum(matrix, coefficients)
                assert got.shape == want.shape == (len(matrix),) + shape[1:]
                assert got.dtype == want.dtype == complex
                real_budget, imag_budget = _summation_budget(
                    matrix, coefficients
                )
                assert np.all(np.abs(got.real - want.real) <= real_budget)
                assert np.all(np.abs(got.imag - want.imag) <= imag_budget)


def _bidegree_inputs(degree, rng):
    """Forms of one degree: zero, dense real, dense complex, sparse in
    the real basis, and two sparse in the complex one: a few random
    symbol monomials, so that some types are absent, and the last
    monomial of every type, so that the types come in another order
    than that of their first monomials."""
    size = len(basis_keys(degree))
    sparse_real = np.zeros(size, dtype=complex)
    picks = rng.choice(size, min(size, 3), replace=False)
    sparse_real[picks] = rng.standard_normal(len(picks))
    symbols = np.zeros(size, dtype=complex)
    picks = rng.choice(size, min(size, 2), replace=False)
    symbols[picks] = _spread(rng, len(picks), True)
    last_of_type = {
        (0 in key, sum(s > 0 for s in key), sum(s < 0 for s in key)): row
        for row, key in enumerate(_SYMBOL_KEYS[degree])
    }
    late = np.zeros(size, dtype=complex)
    late[list(last_of_type.values())] = _spread(rng, len(last_of_type), True)
    vectors = [
        np.zeros(size),
        _spread(rng, size, False),
        _spread(rng, size, True),
        sparse_real,
        _TO_REAL[degree] @ symbols,
        _TO_REAL[degree] @ late,
    ]
    return [KForm.from_vector(degree, vector) for vector in vectors]


@pytest.mark.parametrize("degree", range(8))
def test_bidegree_split_matches_per_symbol_oracle(degree):
    rng = np.random.default_rng(100 + degree)
    for a in _bidegree_inputs(degree, rng):
        got = bidegree_split(a, MODEL)
        want = bidegree_split_per_symbol(a)
        assert got.degree == want.degree == degree
        # rounding of the per-part sums: entries of the complex->real
        # matrices up to 8, at most 8 terms per entry
        scale = np.abs(_TO_COMPLEX[degree] @ a.vector).sum()
        budget = 16 * _EPS * np.abs(_TO_REAL[degree]).max() * scale
        for field in ("parts", "eta_parts"):
            parts, expected = getattr(got, field), getattr(want, field)
            assert list(parts) == list(expected), field
            for pq, form in expected.items():
                assert parts[pq].degree == form.degree
                assert np.all(
                    np.abs(parts[pq].vector - form.vector) <= budget
                ), (field, pq)
        if not a.vector.any():
            assert got.parts == got.eta_parts == {}


@pytest.mark.parametrize("name", sorted(ALGEBRAS))
def test_curvature_action_bit_equal_to_grid_oracle(name):
    algebra = ALGEBRAS[name]
    singles = [_form(name, ["8", "6", "1", "vertical"], 1.0, k)
               for k in range(3)]
    stacked = GValuedForm.from_matrix(
        algebra, 2, np.stack([f.matrix.real for f in singles], axis=1)
    )
    for F in singles + [stacked]:
        got = curvature_action_oneforms(F)
        want = curvature_action_grid(F)
        assert got.shape == want.shape
        assert np.array_equal(got, want)
        assert np.array_equal(np.signbit(got), np.signbit(want))


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
    projectors, omega_rows, omega_conj, omega_norm, omega_sq = tables
    for array, rebuilt in zip((projectors, omega_rows, omega_conj), fresh):
        _assert_read_only(array)
        assert np.array_equal(array, rebuilt)
    omega = MODEL.omega.vector
    assert np.array_equal(omega_conj, omega.conj())
    assert omega_norm == fresh.omega_norm == np.linalg.norm(omega)
    assert omega_sq == fresh.omega_sq == np.vdot(omega, omega).real
    assert projectors.shape == (4, 21, 21)


@pytest.mark.parametrize("degree", range(8))
def test_bidegree_groups_read_only_and_equal_rebuild(degree):
    groups, group_of = _bidegree_groups(degree)
    assert _bidegree_groups(degree)[0] is groups
    fresh_groups, fresh_group_of = _bidegree_groups.__wrapped__(degree)
    _assert_read_only(group_of)
    assert np.array_equal(group_of, fresh_group_of)
    # every symbol tuple in exactly one group, groups in first-row order
    rows = [entry[3] for entry in groups]
    assert sorted(np.concatenate(rows).tolist()) == list(range(len(group_of)))
    assert [r[0] for r in rows] == sorted(r[0] for r in rows)
    assert len(groups) == len(fresh_groups)
    for index, (entry, fresh) in enumerate(zip(groups, fresh_groups)):
        eta, pq, target, rows, matrix = entry
        assert (eta, pq, target) == fresh[:3]
        assert target == degree - eta
        assert np.all(group_of[rows] == index)
        for array, rebuilt in zip((rows, matrix), fresh[3:]):
            _assert_read_only(array)
            assert np.array_equal(array, rebuilt)
        assert matrix.shape == (len(basis_keys(target)), len(rows))


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


def test_pair_spectrum_read_only_bounded_and_equal_rebuild():
    ricci = TransverseRicci.from_diagonal([1.0, 2.0, 4.0])
    _assert_read_only(ricci.pair_matrix)
    cached = ricci.pair_spectrum
    assert ricci.pair_spectrum is cached
    eigenvalues, residual, shift = cached
    for array in (eigenvalues, residual):
        _assert_read_only(array)
    # a tensor rebuilt with the same entries solves to the same spectrum
    rebuilt = TransverseRicci(matrix=ricci.matrix).pair_spectrum
    assert rebuilt is not cached
    assert np.array_equal(eigenvalues, rebuilt[0])
    assert residual == rebuilt[1] == 0.0 and shift is rebuilt[2] is None
    assert np.array_equal(eigenvalues, [3.0, 5.0, 6.0])
    # the Einstein tensors are shared, so their spectrum is solved once;
    # only the most recent ones are kept
    for cls in (TransverseRicci, RicciTensor7):
        assert cls.einstein() is cls.einstein()
        assert cls.einstein.cache_info().maxsize == _NAMED_CACHE_SIZE
    for k in range(2 * _NAMED_CACHE_SIZE + 3):
        einstein = TransverseRicci.einstein(1.0 + k)
        assert einstein.pair_spectrum is einstein.pair_spectrum
        shift = einstein.pair_spectrum[2]
        _assert_read_only(shift)
        assert shift == 2.0 * (1.0 + k)
        currsize = TransverseRicci.einstein.cache_info().currsize
        assert currsize <= _NAMED_CACHE_SIZE


# ---------------------------------------------------------------------------
# In-place assembly and the shortcuts of combined_spectra
# ---------------------------------------------------------------------------


@settings(max_examples=60, deadline=None)
@given(
    n=st.integers(1, 7),
    d=st.integers(1, 9),
    lead=st.sampled_from([(), (1,), (3,), (2, 2)]),
    complex_values=st.booleans(),
    transposed=st.booleans(),
    seed=seeds,
)
def test_add_identity_blocks_equals_identity_blocks_sum(
    n, d, lead, complex_values, transposed, seed
):
    # also on a non-contiguous target, whose strides the view must follow
    rng = np.random.default_rng(seed)
    matrix = rng.standard_normal(lead + (n, n))
    target = rng.standard_normal(lead + (n * d, n * d))
    if complex_values:
        matrix = matrix + 1j * rng.standard_normal(lead + (n, n))
        target = target + 1j * rng.standard_normal(lead + (n * d, n * d))
    want = target + _identity_blocks(matrix, d)
    if transposed:
        out = np.swapaxes(np.swapaxes(target, -1, -2).copy(), -1, -2)
    else:
        out = target.copy()
    assert _add_identity_blocks(out, matrix, d) is out
    assert np.array_equal(out, want)


@settings(max_examples=40, deadline=None)
@given(
    name=algebra_names,
    lead=st.sampled_from([(), (1,), (3,), (2, 2)]),
    scale=scales,
    seed=seeds,
)
def test_second_variation_in_place_equals_identity_blocks_sum(
    name, lead, scale, seed
):
    algebra = ALGEBRAS[name]
    rng = np.random.default_rng(seed)
    ricci7 = rng.standard_normal((7, 7))
    ricci7 = RicciTensor7(scale * (ricci7 + ricci7.T))
    rows = rng.standard_normal((21,) + lead + (algebra.dim,))
    F = GValuedForm.from_matrix(algebra, 2, scale * rows)
    variation = algebraic_second_variation(F, ricci7)
    want = (
        _identity_blocks(ricci7.matrix, algebra.dim)
        + 2.0 * curvature_action_oneforms(F)
    )
    assert variation["matrix"].dtype == want.dtype
    assert np.array_equal(variation["matrix"], want)
    assert np.array_equal(variation["coupling"], curvature_action_oneforms(F))


def _curvature_operator(name, scale, seed):
    algebra = ALGEBRAS[name]
    rng = np.random.default_rng(seed)
    fc = f_components_from_w(
        algebra, scale * rng.standard_normal((8, algebra.dim))
    )
    return build_F_operator_from_components(fc)


def _hermitian_ricci(eigenvalues, seed, complex_values):
    """``U diag(eigenvalues) U^H`` for a random unitary (orthogonal) U."""
    rng = np.random.default_rng(seed)
    basis = rng.standard_normal((3, 3))
    if complex_values:
        basis = basis + 1j * rng.standard_normal((3, 3))
    unitary, _ = np.linalg.qr(basis)
    return TransverseRicci((unitary * eigenvalues) @ unitary.conj().T)


# eigenvalue patterns of the Ricci tensor; the pair matrix has the pair
# sums as eigenvalues, so "pair_singular" makes it singular itself
_RICCI_PATTERNS = {
    "definite": lambda r: r.uniform(0.1, 1.0, 3),
    "indefinite": lambda r: r.uniform(0.1, 1.0, 3) * [1.0, -1.0, 1.0],
    "singular": lambda r: r.uniform(0.1, 1.0, 3) * [1.0, 1.0, 0.0],
    "pair_singular": lambda r: np.array([1.0, -1.0, r.uniform(0.1, 1.0)]),
}


class _SolveSpy:
    """Records the matrix shape of each ``weighted_spectrum`` call made
    by ``combined_spectra``."""

    def __init__(self, monkeypatch):
        self.shapes = []
        monkeypatch.setattr(weitzenbock_engine, "weighted_spectrum", self)

    def __call__(self, matrix):
        self.shapes.append(np.shape(matrix))
        return weighted_spectrum(matrix)


@settings(max_examples=60, deadline=None)
@given(
    name=algebra_names,
    pattern=st.sampled_from(sorted(_RICCI_PATTERNS)),
    ricci_scale=scales,
    curvature_scale=scales,
    complex_values=st.booleans(),
    seed=seeds,
)
def test_ricci_spectrum_from_pair_matrix_matches_kron_oracle(
    name, pattern, ricci_scale, curvature_scale, complex_values, seed
):
    rng = np.random.default_rng(seed)
    eigenvalues = ricci_scale * _RICCI_PATTERNS[pattern](rng)
    ricci = _hermitian_ricci(eigenvalues, seed, complex_values)
    f_endo = _curvature_operator(name, curvature_scale, seed)
    got = combined_spectra(f_endo, ricci)
    assert_spectra_within_rounding(got, combined_spectra_kron(f_endo, ricci))
    # each eigenvalue of the pair matrix d times, in ascending order
    d = ALGEBRAS[name].dim
    blocks = got["ricci"]["eigenvalues"].reshape(3, d)
    assert np.array_equal(blocks, np.repeat(blocks[:, :1], d, axis=1))
    assert np.all(np.diff(blocks[:, 0]) >= 0.0)


@pytest.mark.parametrize("name", sorted(ALGEBRAS))
@pytest.mark.parametrize("scale", [8.0, 1e-3, 0.0, -2.0, 1e3])
def test_einstein_shift_matches_full_solve(name, scale, monkeypatch):
    f_endo = _curvature_operator(name, 1.0, len(name))
    ricci = TransverseRicci.einstein(scale)
    want = combined_spectra_kron(f_endo, ricci)
    spy = _SolveSpy(monkeypatch)
    got = combined_spectra(f_endo, ricci)
    # one solve of the curvature matrix alone
    assert spy.shapes == [f_endo.matrix.shape]
    assert_spectra_within_rounding(got, want)
    assert np.array_equal(
        got["curvature"]["eigenvalues"], want["curvature"]["eigenvalues"]
    )
    assert got["combined"]["hermiticity_residual"] == (
        got["curvature"]["hermiticity_residual"]
    )


def _one_ulp_off(scale, where):
    """An Einstein tensor of ``scale`` changed so that its pair matrix is
    ``2 scale I_3`` but for one entry one ulp away: a diagonal entry, or
    an off-diagonal one that becomes the smallest subnormal."""
    matrix = scale * np.eye(3, dtype=complex)
    if where == "diagonal":
        # Sterbenz: both differences and the sum below are exact
        matrix[2, 2] = np.nextafter(2.0 * scale, np.inf) - scale
    else:
        tiny = np.nextafter(0.0, 1.0)
        matrix[0, 1] = matrix[1, 0] = tiny
    ricci = TransverseRicci(matrix)
    pair = ricci.pair_matrix
    einstein = 2.0 * scale * np.eye(3)
    off = np.argwhere(pair != einstein)
    assert len(off) in (1, 2)
    for r, c in off:
        assert pair[r, c] == np.nextafter(einstein[r, c], np.inf) or (
            abs(pair[r, c]) == np.nextafter(0.0, 1.0)
        )
    return ricci


@pytest.mark.parametrize("name", ["su2", "so5", "skewed_so4"])
@pytest.mark.parametrize("scale", [8.0, 1e-3, 0.0, -2.0, 1e3])
@pytest.mark.parametrize("where", ["diagonal", "off_diagonal"])
def test_one_ulp_off_einstein_takes_general_path(
    name, scale, where, monkeypatch
):
    f_endo = _curvature_operator(name, 1.0, len(name))
    ricci = _one_ulp_off(scale, where)
    want = combined_spectra_kron(f_endo, ricci)
    spy = _SolveSpy(monkeypatch)
    got = combined_spectra(f_endo, ricci)
    # one solve of the stack [F, F + R]
    assert spy.shapes == [(2,) + f_endo.matrix.shape]
    assert_spectra_within_rounding(got, want)
    # which is the kron route's sum, bit for bit
    for label in ("curvature", "combined"):
        assert np.array_equal(
            got[label]["eigenvalues"], want[label]["eigenvalues"]
        )


def test_combined_spectra_on_stacks_match_single_calls():
    # a stack of Einstein tensors, and one of general tensors
    algebra = ALGEBRAS["so3"]
    rng = np.random.default_rng(7)
    fc = f_components_from_w(algebra, rng.standard_normal((4, 8, algebra.dim)))
    f_stack = build_F_operator_from_components(fc)
    scales_4 = rng.uniform(-3.0, 3.0, 4)
    herm = rng.standard_normal((4, 3, 3)) + 1j * rng.standard_normal((4, 3, 3))
    for matrices in (
        scales_4[:, None, None] * np.eye(3),
        herm + np.swapaxes(herm.conj(), -1, -2),
    ):
        got = combined_spectra(f_stack, TransverseRicci(matrices))
        for k in range(4):
            single = combined_spectra(
                TwoZeroEndo(algebra, f_stack.matrix[k]),
                TransverseRicci(matrices[k]),
            )
            for label, entry in single.items():
                for key, value in entry.items():
                    assert np.array_equal(got[label][key][k], value), (
                        label, key,
                    )


# ---------------------------------------------------------------------------
# Per-call memory of the so(7) reports
# ---------------------------------------------------------------------------

# tracemalloc peaks of one call at so(7), warm caches, in KiB.  At the
# three-matrix stacked solve and the summed second variation the calls
# peaked at 1153 and 1183 KiB; one solve and in-place buffers stay near
# 290 and 740 KiB.
ALLOCATION_BOUNDS_KIB = {"vanishing_report": 600, "stability_report": 960}


def _so7_report_calls():
    algebra = ALGEBRAS["so7"]
    rng = np.random.default_rng(11)
    F = gform_from_w_coefficients(algebra, rng.standard_normal((8, 21)))
    ricci3 = TransverseRicci.einstein(8.0)
    ricci7 = RicciTensor7.einstein(6.0)
    return {
        "vanishing_report": lambda: vanishing_report(F, ricci3, MODEL),
        "stability_report": lambda: stability_report(F, ricci7, MODEL),
    }


@pytest.mark.parametrize("name", sorted(ALLOCATION_BOUNDS_KIB))
def test_so7_report_peak_allocation_per_call(name):
    call = _so7_report_calls()[name]
    call()
    tracemalloc.start()
    try:
        call()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak / 1024 < ALLOCATION_BOUNDS_KIB[name]


# ---------------------------------------------------------------------------
# Routes in re-based coordinates against the Gram-matrix oracles in the
# coordinates of the basis as given
# ---------------------------------------------------------------------------


def _given_operators(structure, rows, ricci7):
    """The curvature operator on (2,0) sections and the second variation
    on 1-forms in the given basis, assembled from its own structure
    constants: block (r, c) of the first is ``-sum _COUPLING[r, c, m, a]
    ad(F_{m abar})``, block (i, j) of the coupling ``ad(F_{ji})``."""
    def ad(x):
        return np.einsum("...i,ijk->...kj", x, structure)

    d = structure.shape[0]
    F = GValuedForm.from_matrix(make_abelian(d), 2, rows)
    table = f_components_from_gform(F, strict=False).table
    blocks = np.einsum("rcma,mapq->rpcq", _COUPLING, -ad(table))
    curvature = blocks.reshape(3 * d, 3 * d)
    grid = curvature_components_grid(F).real
    coupling = np.moveaxis(ad(grid), (1, 0), (0, 2)).reshape(7 * d, 7 * d)
    variation = np.kron(ricci7, np.eye(d)) + 2.0 * coupling
    return curvature, variation


@settings(max_examples=60, deadline=None)
@given(
    name=st.sampled_from(sorted(SKEWED_BASES)),
    lead=st.sampled_from([(), (3,)]),
    scale=scales,
    imaginary=st.booleans(),
    seed=seeds,
)
def test_rebased_routes_match_gram_oracles_in_given_basis(
    name, lead, scale, imaginary, seed
):
    given = SKEWED_BASES[name]
    spec = algebra_from_basis(name, given)
    gram = user_gram(given)
    assert np.count_nonzero(gram - np.diag(np.diag(gram)))
    change = user_to_spec(spec, given)
    d = spec.dim
    rng = np.random.default_rng(seed)
    first, second = scale * rng.standard_normal((2, 21) + lead + (d,))
    if imaginary:
        second = second + 1j * scale * rng.standard_normal(second.shape)
    a = GValuedForm.from_matrix(spec, 2, first @ change)
    b = GValuedForm.from_matrix(spec, 2, second @ change)
    want = g_inner_gram(first, second, gram)
    budget = 1e-12 * np.sqrt(
        np.real(g_inner_gram(first, first, gram))
        * np.real(g_inner_gram(second, second, gram))
    )
    assert np.all(np.abs(g_inner(a, b) - want) <= budget)
    assert np.allclose(
        g_norm(a) ** 2, g_inner_gram(first, first, gram).real,
        rtol=1e-12, atol=0,
    )
    # the curvature spectrum and the second variation of a real
    # curvature, one sample at a time
    ricci7 = np.diag(rng.uniform(0.5, 10.0, 7))
    structure = structure_lstsq(given)
    singles = first.reshape((21, -1, d))
    for k in range(singles.shape[1]):
        rows = singles[:, k]
        curvature, variation = _given_operators(structure, rows, ricci7)
        F = GValuedForm.from_matrix(spec, 2, rows @ change)
        fc = f_components_from_gform(F, strict=False)
        pairs = (
            (operator_spectrum(build_F_operator_from_components(fc)),
             weighted_spectrum_gram_root(curvature, gram)),
            (algebraic_second_variation(F, RicciTensor7(ricci7))["spectrum"],
             weighted_spectrum_gram_root(variation, gram)),
        )
        for got, oracle in pairs:
            largest = np.max(np.abs(oracle["eigenvalues"]))
            assert np.all(
                np.abs(got["eigenvalues"] - oracle["eigenvalues"])
                <= 1e-11 * largest
            )
            assert got["hermiticity_residual"] <= 1e-11 * largest
            assert oracle["hermiticity_residual"] <= 1e-11 * largest
