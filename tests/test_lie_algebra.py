"""Structure constants, invariant inner products, and the bracket bound."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from artifact import lie_algebra
from artifact.lie_algebra import (
    BRACKET_NORM_BOUND,
    ad_matrix,
    algebra_from_basis,
    bracket_norm_check,
    bracket_vec,
    bracket_via_matrices,
    coeffs_of,
    inner_vec,
    killing_matrix,
    make_abelian,
    make_so,
    make_su,
    matrix_of,
    norm_vec,
    subalgebra_spec,
)
from oracle_routes import (
    ad_matrix_einsum,
    bracket_vec_einsum,
    user_gram,
    user_to_spec,
)


@pytest.fixture(scope="module")
def so3():
    return make_so(3)


@pytest.fixture(scope="module")
def so5():
    return make_so(5)


@pytest.fixture(scope="module")
def su2():
    return make_su(2)


@pytest.fixture(scope="module")
def su2_trace():
    return make_su(2, inner="trace")


def _structure_oracle(basis: np.ndarray) -> np.ndarray:
    """Independent extraction through least squares on flat matrices."""
    d = basis.shape[0]
    flat = basis.reshape(d, -1)
    out = np.zeros((d, d, d))
    for i in range(d):
        for j in range(d):
            comm = basis[i] @ basis[j] - basis[j] @ basis[i]
            coeff, *_ = np.linalg.lstsq(
                flat.T, comm.reshape(-1), rcond=None
            )
            assert np.max(np.abs(coeff.imag)) <= 1e-12
            out[i, j] = coeff.real
    return out


# ---------------------------------------------------------------------------
# Construction and frozen Gram matrices
# ---------------------------------------------------------------------------


def test_so3_frozen():
    spec = make_so(3)
    assert spec.dim == 3
    assert spec.inner_mode == "killing"
    assert spec.inner_scale == 2.0
    # integer structure constants
    assert np.array_equal(spec.structure, np.round(spec.structure))
    assert np.max(np.abs(spec.structure)) == 1.0


def test_so5_frozen(so5):
    assert so5.dim == 10
    assert so5.inner_scale == 6.0
    assert np.array_equal(so5.structure, np.round(so5.structure))


def test_so5_fiber_brackets_exact(so5):
    """The last three generators close cyclically with unit constants."""
    for a, b, c in ((8, 9, 10), (9, 10, 8), (10, 8, 9)):
        row = so5.structure[a - 1, b - 1]
        expected = np.zeros(10)
        expected[c - 1] = 1.0
        assert np.array_equal(row, expected)


def test_su2_frozen(su2, su2_trace):
    assert su2.dim == 3
    assert su2.inner_scale == 8.0
    assert su2_trace.inner_mode == "trace"
    assert su2_trace.inner_scale == 2.0
    assert np.array_equal(su2.structure, su2_trace.structure)


def test_abelian_falls_back_to_trace():
    spec = make_abelian(4)
    assert spec.inner_mode == "trace"
    assert spec.inner_scale == 1.0
    assert np.max(np.abs(spec.structure)) == 0.0


@pytest.mark.parametrize("d", [1, 2, 3, 8])
def test_abelian_closed_form_matches_basis_oracle(d):
    # oracle route: algebra_from_basis on the same diagonal generators,
    # which forms every commutator and derives the spec from them
    basis = 1j * np.array([np.diag(row) for row in np.eye(d)])
    oracle = algebra_from_basis(f"abelian({d})", basis)
    spec = make_abelian(d)
    assert (spec.name, spec.inner_mode, spec.inner_scale) == (
        oracle.name, oracle.inner_mode, oracle.inner_scale
    )
    for name in ("basis", "structure", "coeff_pinv"):
        assert np.array_equal(getattr(spec, name), getattr(oracle, name))


def test_killing_proportional_to_trace():
    for factory, n, expected in (
        (make_so, 3, 1.0),
        (make_so, 5, 3.0),
        (make_su, 2, 4.0),
    ):
        killing = factory(n)
        trace = factory(n, inner="trace")
        assert killing.inner_scale == expected * trace.inner_scale
        assert np.array_equal(killing.basis, trace.basis)


def test_structure_constants_match_oracle(so3, so5, su2):
    for spec in (so3, so5, su2):
        oracle = _structure_oracle(spec.basis)
        assert np.max(np.abs(spec.structure - oracle)) <= 1e-10


def test_killing_matrix_is_trace_of_adjoints(so3):
    d = so3.dim
    oracle = np.zeros((d, d))
    for i in range(d):
        for j in range(d):
            ad_i = so3.structure[i].T
            ad_j = so3.structure[j].T
            oracle[i, j] = np.trace(ad_i @ ad_j)
    assert np.max(np.abs(killing_matrix(so3.structure) - oracle)) <= 1e-12


# ---------------------------------------------------------------------------
# Bracket routes
# ---------------------------------------------------------------------------


def test_bracket_dual_path(so3, so5, su2):
    rng = np.random.default_rng(0)
    for spec in (so3, so5, su2):
        for _ in range(50):
            u = rng.standard_normal(spec.dim) + 1j * rng.standard_normal(
                spec.dim
            )
            v = rng.standard_normal(spec.dim) + 1j * rng.standard_normal(
                spec.dim
            )
            lhs = bracket_vec(spec, u, v)
            rhs = bracket_via_matrices(spec, u, v)
            assert np.max(np.abs(lhs - rhs)) <= 1e-10


def test_bracket_antisymmetry_and_jacobi(so5):
    rng = np.random.default_rng(1)
    u, v, w = rng.standard_normal((3, so5.dim))
    assert np.max(
        np.abs(bracket_vec(so5, u, v) + bracket_vec(so5, v, u))
    ) <= 1e-12
    jacobi = (
        bracket_vec(so5, u, bracket_vec(so5, v, w))
        + bracket_vec(so5, v, bracket_vec(so5, w, u))
        + bracket_vec(so5, w, bracket_vec(so5, u, v))
    )
    assert np.max(np.abs(jacobi)) <= 1e-12


def test_ad_matrix_implements_bracket(so3, su2):
    rng = np.random.default_rng(2)
    for spec in (so3, su2):
        u = rng.standard_normal(spec.dim)
        v = rng.standard_normal(spec.dim)
        assert np.max(
            np.abs(ad_matrix(spec, u) @ v - bracket_vec(spec, u, v))
        ) <= 1e-12


_MIXED_SO4_BASIS = np.einsum(
    "ij,jab->iab",
    np.eye(6) + 0.25 * np.arange(36).reshape(6, 6) % 1.5,
    make_so(4).basis,
)


def _mixed_so4():
    """so(4) from a fixed non-orthogonal basis, whose Gram matrix is not
    a multiple of the identity: re-based at construction, with the
    pseudo-inverse route of ``algebra_from_basis`` and structure
    constants that are not integers."""
    return algebra_from_basis("mixed so(4)", _MIXED_SO4_BASIS)


KERNEL_ALGEBRAS = {
    "su2": lambda: make_su(2),
    "su2_trace": lambda: make_su(2, inner="trace"),
    "so3": lambda: make_so(3),
    "so5": lambda: make_so(5),
    "so7": lambda: make_so(7),
    "custom": _mixed_so4,
}


def _kernel_inputs(name, lead, complex_values, exponent, seed, count):
    spec = KERNEL_ALGEBRAS[name]()
    rng = np.random.default_rng(seed)
    shape = (count,) + lead + (spec.dim,)
    vectors = rng.standard_normal(shape)
    if complex_values:
        vectors = vectors + 1j * rng.standard_normal(shape)
    return spec, 10.0 ** exponent * vectors


_KERNEL_CASES = dict(
    name=st.sampled_from(sorted(KERNEL_ALGEBRAS)),
    lead=st.sampled_from([(), (1,), (4,), (2, 3)]),
    complex_values=st.booleans(),
    exponent=st.integers(-3, 3),
    seed=st.integers(0, 2**32 - 1),
)


@settings(max_examples=60, deadline=None)
@given(**_KERNEL_CASES)
def test_bracket_vec_matches_einsum_oracle(
    name, lead, complex_values, exponent, seed
):
    # budget relative to the sum of the term magnitudes of each entry
    spec, (u, v) = _kernel_inputs(
        name, lead, complex_values, exponent, seed, 2
    )
    got = bracket_vec(spec, u, v)
    want = bracket_vec_einsum(spec, u, v)
    scale = np.einsum(
        "...i,...j,ijk->...k", np.abs(u), np.abs(v), np.abs(spec.structure)
    )
    assert got.shape == want.shape == lead + (spec.dim,)
    assert np.all(np.abs(got - want) <= 1e-12 * scale)


@settings(max_examples=60, deadline=None)
@given(**_KERNEL_CASES)
def test_ad_matrix_matches_einsum_oracle(
    name, lead, complex_values, exponent, seed
):
    spec, (u,) = _kernel_inputs(name, lead, complex_values, exponent, seed, 1)
    got = ad_matrix(spec, u)
    want = ad_matrix_einsum(spec, u)
    scale = np.einsum("...i,ijk->...kj", np.abs(u), np.abs(spec.structure))
    assert got.shape == want.shape == lead + (spec.dim, spec.dim)
    assert np.all(np.abs(got - want) <= 1e-12 * scale)
    # a real vector gives a real matrix
    assert np.iscomplexobj(got) == complex_values


def test_matrix_coeff_round_trip(so5):
    rng = np.random.default_rng(3)
    u = rng.standard_normal(so5.dim)
    back = coeffs_of(so5, matrix_of(so5, u))
    assert np.max(np.abs(back - u)) <= 1e-12


def test_ad_invariance(so3, so5, su2, su2_trace):
    rng = np.random.default_rng(4)
    for spec in (so3, so5, su2, su2_trace):
        for _ in range(20):
            u, v, w = rng.standard_normal((3, spec.dim))
            lhs = inner_vec(spec, bracket_vec(spec, u, v), w)
            rhs = -inner_vec(spec, v, bracket_vec(spec, u, w))
            assert abs(lhs - rhs) <= 1e-10


def test_gram_weighted_inner(so5):
    rng = np.random.default_rng(5)
    u = rng.standard_normal(so5.dim)
    v = rng.standard_normal(so5.dim)
    assert inner_vec(so5, u, v) == pytest.approx(6.0 * np.dot(u, v))
    assert norm_vec(so5, u) == pytest.approx(
        np.sqrt(6.0) * np.linalg.norm(u)
    )


# ---------------------------------------------------------------------------
# One scalar inner product: kept bases and the re-basing of skewed ones
# ---------------------------------------------------------------------------


def test_scalar_gram_bases_are_kept_entry_for_entry():
    # the named constructors' matrices, and any basis whose Gram matrix
    # is exactly c times the identity, come back as they went in
    so3 = np.zeros((3, 3, 3))
    for k, (i, j) in enumerate(((0, 1), (0, 2), (1, 2))):
        so3[k, i, j], so3[k, j, i] = 1.0, -1.0
    assert np.array_equal(make_so(3).basis, so3)
    pauli = 0.5j * np.array([[[0, 1], [1, 0]], [[0, -1j], [1j, 0]],
                             [[1, 0], [0, -1]]])
    for basis in (make_su(2).basis, make_so(5).basis, pauli):
        spec = algebra_from_basis("kept", basis)
        assert np.array_equal(spec.basis, basis)
    assert algebra_from_basis("pauli", pauli).inner_scale == 2.0


@pytest.mark.parametrize("inner", ["killing", "trace"])
def test_skewed_basis_is_rebased_once(inner):
    spec = algebra_from_basis("mixed so(4)", _MIXED_SO4_BASIS, inner=inner)
    given = user_gram(_MIXED_SO4_BASIS, inner)
    assert np.count_nonzero(given - np.diag(np.diag(given)))
    # c is the d-th root of the given Gram determinant, so the change of
    # basis has determinant one; the new Gram matrix is c times I
    c = spec.inner_scale
    assert c == pytest.approx(np.linalg.det(given) ** (1.0 / 6.0), rel=1e-12)
    assert np.max(np.abs(user_gram(spec.basis, inner) - c * np.eye(6))) <= (
        1e-12 * c
    )
    change = user_to_spec(spec, _MIXED_SO4_BASIS)
    assert abs(np.linalg.det(change)) == pytest.approx(1.0, rel=1e-12)
    # the new basis spans the same matrices, and the structure constants
    # are those of the new basis
    assert np.allclose(
        np.einsum("ij,jab->iab", change, spec.basis), _MIXED_SO4_BASIS,
        rtol=0, atol=1e-12,
    )
    assert np.max(np.abs(spec.structure - _structure_oracle(spec.basis))) <= (
        1e-10
    )


def test_rebasing_rejects_indefinite_gram():
    # sl(2, R): real traceless matrices, whose Killing form is indefinite
    # and whose trace form is not positive
    mats = np.array([[[1.0, 0.0], [0.0, -1.0]], [[0.0, 1.0], [0.0, 0.0]],
                     [[0.0, 0.0], [1.0, 0.0]]])
    with pytest.raises(ValueError, match="not positive definite"):
        algebra_from_basis("sl2", mats)


@settings(max_examples=60, deadline=None)
@given(
    lead=st.sampled_from([(), (1,), (4,), (2, 3)]),
    complex_values=st.booleans(),
    exponent=st.integers(-3, 3),
    seed=st.integers(0, 2**32 - 1),
)
def test_rebased_inner_matches_gram_oracle_in_given_basis(
    lead, complex_values, exponent, seed
):
    # vectors in the given skewed basis, paired through its Gram matrix,
    # against the same vectors mapped into the re-based basis
    spec = _mixed_so4()
    given = user_gram(_MIXED_SO4_BASIS)
    change = user_to_spec(spec, _MIXED_SO4_BASIS)
    _, (u, v) = _kernel_inputs(
        "custom", lead, complex_values, exponent, seed, 2
    )
    want = np.einsum("...i,ij,...j->...", u, given, v.conj())
    got = inner_vec(spec, u @ change, v @ change)
    budget = 1e-12 * np.einsum(
        "...i,ij,...j->...", np.abs(u), np.abs(given), np.abs(v)
    )
    assert np.all(np.abs(got - want) <= budget)
    assert np.allclose(
        norm_vec(spec, u @ change) ** 2,
        np.einsum("...i,ij,...j->...", u, given, u.conj()).real,
        rtol=1e-12, atol=0,
    )


@settings(max_examples=60, deadline=None)
@given(**_KERNEL_CASES)
def test_inner_and_norm_stacks_bit_equal_to_single_vectors(
    name, lead, complex_values, exponent, seed
):
    spec, (u, v) = _kernel_inputs(
        name, lead, complex_values, exponent, seed, 2
    )
    inner, norm = inner_vec(spec, u, v), norm_vec(spec, u)
    for index in np.ndindex(lead):
        assert inner_vec(spec, u[index], v[index]) == np.asarray(inner)[index]
        assert norm_vec(spec, u[index]) == np.asarray(norm)[index]


# ---------------------------------------------------------------------------
# The commutator norm bound
# ---------------------------------------------------------------------------


def test_bound_constant():
    assert BRACKET_NORM_BOUND == pytest.approx(np.sqrt(2.0))


def test_bound_holds_everywhere(so3, so5, su2, su2_trace):
    for spec in (so3, so5, su2, su2_trace):
        report = bracket_norm_check(spec, samples=300, seed=0)
        assert report["passed"], report
        assert report["max_ratio"] <= BRACKET_NORM_BOUND + 1e-9


def test_bound_attained_in_trace_mode(su2_trace):
    """Unit coefficient vectors on two generators reach the bound."""
    e1 = np.zeros(3)
    e2 = np.zeros(3)
    e1[0] = 1.0
    e2[1] = 1.0
    ratio = norm_vec(su2_trace, bracket_vec(su2_trace, e1, e2)) / (
        norm_vec(su2_trace, e1) * norm_vec(su2_trace, e2)
    )
    assert abs(ratio - np.sqrt(2.0)) <= 1e-12
    report = bracket_norm_check(su2_trace, samples=100, seed=0)
    assert report["attained"]


def test_killing_mode_caps_at_inverse_root_two(so3, su2):
    """The larger Killing Gram rescales the same brackets down."""
    for spec in (so3, su2):
        report = bracket_norm_check(spec, samples=300, seed=1)
        assert report["max_ratio"] <= 1.0 / np.sqrt(2.0) + 1e-9


# ---------------------------------------------------------------------------
# Subalgebra slicing
# ---------------------------------------------------------------------------


def test_subalgebra_keeps_ambient_gram(so5):
    fiber = subalgebra_spec(so5, (8, 9, 10))
    assert fiber.dim == 3
    assert fiber.inner_scale == 6.0
    assert fiber.inner_mode == so5.inner_mode
    # cyclic brackets survive the slice exactly
    for a, b, c in ((1, 2, 3), (2, 3, 1), (3, 1, 2)):
        row = fiber.structure[a - 1, b - 1]
        expected = np.zeros(3)
        expected[c - 1] = 1.0
        assert np.array_equal(row, expected)


def test_subalgebra_differs_from_intrinsic_normalization(so5):
    """The ambient inner product is three times the intrinsic one."""
    fiber = subalgebra_spec(so5, (8, 9, 10))
    intrinsic = make_so(3)
    assert fiber.inner_scale == 3.0 * intrinsic.inner_scale


def test_subalgebra_rejects_non_closed(so5):
    with pytest.raises(ValueError):
        subalgebra_spec(so5, (1, 2))


def test_subalgebra_rejects_bad_indices(so5):
    with pytest.raises(ValueError):
        subalgebra_spec(so5, (8, 8, 9))
    with pytest.raises(ValueError):
        subalgebra_spec(so5, (0, 1, 2))
    with pytest.raises(ValueError):
        subalgebra_spec(so5, (9, 10, 11))


def test_subalgebra_bracket_matches_parent(so5):
    fiber = subalgebra_spec(so5, (8, 9, 10))
    rng = np.random.default_rng(6)
    small_u = rng.standard_normal(3)
    small_v = rng.standard_normal(3)
    big_u = np.zeros(10)
    big_v = np.zeros(10)
    big_u[7:] = small_u
    big_v[7:] = small_v
    lhs = bracket_vec(fiber, small_u, small_v)
    rhs = bracket_vec(so5, big_u, big_v)[7:]
    assert np.max(np.abs(lhs - rhs)) <= 1e-12


@pytest.mark.parametrize(
    "build",
    [
        lambda: make_so(3),
        lambda: make_so(5),
        lambda: make_su(2),
        lambda: make_su(2, inner="trace"),
        lambda: make_abelian(2),
    ],
    ids=["so3", "so5", "su2", "su2_trace", "abelian2"],
)
def test_named_algebras_are_built_once_and_read_only(build):
    spec = build()
    assert build() is spec
    for array in (spec.basis, spec.structure, spec.coeff_pinv):
        with pytest.raises(ValueError):
            array[0] = 0.0


def test_named_algebra_cache_is_bounded():
    for d in range(1, 2 * lie_algebra._NAMED_CACHE_SIZE + 1):
        make_abelian(d)
    assert make_abelian.cache_info().currsize == lie_algebra._NAMED_CACHE_SIZE


def test_custom_algebras_are_never_shared():
    basis = make_su(2).basis
    first = algebra_from_basis("custom", basis)
    assert algebra_from_basis("custom", basis) is not first
    assert np.array_equal(first.structure, make_su(2).structure)


# ---------------------------------------------------------------------------
# Construction errors
# ---------------------------------------------------------------------------


def test_rejects_dependent_basis():
    mats = np.zeros((2, 2, 2), dtype=complex)
    mats[0, 0, 1] = 1.0
    mats[0, 1, 0] = -1.0
    mats[1] = 2.0 * mats[0]
    with pytest.raises(ValueError):
        algebra_from_basis("dep", mats)


def test_rejects_non_closed_basis():
    mats = np.zeros((2, 3, 3), dtype=complex)
    mats[0, 0, 1] = 1.0
    mats[0, 1, 0] = -1.0
    mats[1, 0, 2] = 1.0
    mats[1, 2, 0] = -1.0
    with pytest.raises(ValueError):
        algebra_from_basis("open", mats)


def _open_at_pair_0_2():
    """Two commuting diagonal generators and a rotation that mixes
    coordinates 0 and 1: pair (0, 1) closes, (0, 2) and (1, 2) do not."""
    mats = np.zeros((3, 4, 4), dtype=complex)
    mats[0, 0, 0] = 1j
    mats[1, 1, 1] = 1j
    mats[2, 0, 1] = 1.0
    mats[2, 1, 0] = -1.0
    return mats


def test_closure_error_names_first_failing_pair():
    with pytest.raises(ValueError, match=r"closed .*\(pair 0,2, residual"):
        algebra_from_basis("open", _open_at_pair_0_2())


def test_reality_error_names_first_failing_pair():
    # i diag(1, -1) brackets the two real generators into i times each
    # other: closed, with imaginary structure constants
    mats = np.zeros((3, 2, 2), dtype=complex)
    mats[0] = np.diag([1j, -1j])
    mats[1, 0, 1] = mats[1, 1, 0] = 1.0
    mats[2, 0, 1], mats[2, 1, 0] = 1.0, -1.0
    with pytest.raises(ValueError, match=r"not real \(pair 0,1\)"):
        algebra_from_basis("complex", mats)


def test_pair_blocks_do_not_change_the_result(monkeypatch, so5):
    # one pair per block of the stacked commutators
    monkeypatch.setattr(lie_algebra, "_PAIR_BLOCK_ENTRIES", 1)
    rebuilt = algebra_from_basis("so(5)", so5.basis)
    assert np.array_equal(rebuilt.structure, so5.structure)
    assert rebuilt.inner_scale == so5.inner_scale
    with pytest.raises(ValueError, match=r"\(pair 0,2, residual"):
        algebra_from_basis("open", _open_at_pair_0_2())


def test_rejects_unknown_inner():
    with pytest.raises(ValueError):
        make_so(3, inner="exotic")
