"""Tests for the curvature and Ricci endomorphisms on sections.

Every operator identity is checked against an independent route: the
matrix construction against the written-out componentwise evaluation,
the quadratic form against the coefficient-family expression, and the
Ricci operator against a hand-derived diagonal formula.
"""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from artifact.flat_model import (
    REEB_INDEX,
    KForm,
    calibrate_model,
    standard_two_form_families,
)
from artifact.gauge_fields import (
    f_components_from_w,
    g_norm,
    gform_from_w_coefficients,
    two_zero_from_v_coefficients,
)
from artifact.lie_algebra import (
    algebra_from_basis,
    bracket_vec,
    inner_vec,
    make_abelian,
    make_so,
    make_su,
)
from artifact.weitzenbock_engine import (
    PAIRS,
    POSITIVITY_RELATIVE_FLOOR,
    TransverseRicci,
    TwoZeroEndo,
    V_QUAD_TO_OPERATOR_FACTOR,
    _spectrum_report,
    apply_F_xi_path,
    build_F_operator,
    build_F_operator_from_components,
    build_R_operator,
    combined_spectra,
    estimate_bound_check,
    operator_spectrum,
    quad_form_F,
    quad_form_F_complex,
    section_from_stack,
    stack_section,
    v_basis_quad_form,
    vanishing_report,
    weighted_spectrum,
)
from oracle_routes import (
    assert_spectra_within_rounding,
    combined_spectra_kron,
    gform_from_terms,
    user_gram,
    user_to_spec,
    weighted_spectrum_dense,
    weighted_spectrum_gram_root,
)


@pytest.fixture(scope="module")
def model():
    return calibrate_model()


@pytest.fixture(scope="module")
def su2():
    return make_su(2)


@pytest.fixture(scope="module")
def so3():
    return make_so(3)


def random_section(algebra, rng, real=False):
    b = rng.standard_normal((6, algebra.dim))
    if not real:
        b = b + 1j * rng.standard_normal((6, algebra.dim))
    return two_zero_from_v_coefficients(algebra, b)


def random_components(algebra, rng):
    a = rng.standard_normal((8, algebra.dim))
    return f_components_from_w(algebra, a), a


def ricci_quad_trace(ricci: TransverseRicci, section) -> float:
    """Oracle: Ricci quadratic form by trace contraction.

    Evaluates ``sum_{alpha, mu} R~_{alpha mu} b_{alpha mu}`` with
    ``b_{alpha mu} = sum_nu <phi_{alpha nu}, phi_{mu nu}>``, which agrees
    with the operator quadratic form in the pair-sum convention; the
    raised tensor ``R~`` is ``ricci.matrix``.
    """
    algebra = section.algebra
    raised = ricci.matrix
    total = 0j
    for alpha in range(1, 4):
        for mu in range(1, 4):
            b_entry = sum(
                inner_vec(
                    algebra,
                    section.component(alpha, nu),
                    section.component(mu, nu),
                )
                for nu in range(1, 4)
            )
            total += raised[alpha - 1, mu - 1] * b_entry
    return float(total.real)


# ---------------------------------------------------------------------------
# Transverse Ricci tensor container
# ---------------------------------------------------------------------------


class TestTransverseRicci:
    def test_einstein_constructor(self):
        ric = TransverseRicci.einstein(8.0)
        assert np.array_equal(ric.matrix, 8.0 * np.eye(3))

    def test_from_diagonal(self):
        ric = TransverseRicci.from_diagonal([1.0, 2.0, 3.0])
        assert np.array_equal(ric.matrix, np.diag([1.0, 2.0, 3.0]))

    def test_shape_enforced(self):
        with pytest.raises(ValueError):
            TransverseRicci(matrix=np.eye(2))

    def test_hermitian_enforced(self):
        bad = np.array([[1.0, 1.0j], [1.0j, 1.0]])
        with pytest.raises(ValueError):
            TransverseRicci(matrix=bad)
        good = np.array([[1.0, 1.0j], [-1.0j, 1.0]])
        TransverseRicci(matrix=np.pad(good, ((0, 1), (0, 1))) + np.diag([0, 0, 1.0]))

    def test_matrix_read_only(self):
        ric = TransverseRicci.einstein(8.0)
        with pytest.raises(ValueError):
            ric.matrix[0, 0] = 5.0


# ---------------------------------------------------------------------------
# Stacking and the endomorphism container
# ---------------------------------------------------------------------------


class TestStacking:
    def test_round_trip(self, su2):
        rng = np.random.default_rng(1)
        section = random_section(su2, rng)
        back = section_from_stack(su2, stack_section(section))
        assert np.allclose(back.phi, section.phi)

    def test_length_enforced(self, su2):
        with pytest.raises(ValueError):
            section_from_stack(su2, np.zeros(8))

    def test_endo_shape_enforced(self, su2):
        with pytest.raises(ValueError):
            TwoZeroEndo(algebra=su2, matrix=np.eye(5))

    def test_weight_is_block_gram(self, su2):
        # a skewed basis of su(2), whose Gram matrix is not diagonal, is
        # re-based at construction; both section pairings in the new
        # basis equal the pairings through kron(I_3, gram) of the same
        # operator and section written in the skewed basis
        given = su2.basis + np.roll(su2.basis, 1, axis=0)
        gram = user_gram(given)
        assert np.count_nonzero(gram - np.diag(np.diag(gram)))
        skew = algebra_from_basis("skew", given)
        assert not np.allclose(skew.basis, given)
        to_spec = np.kron(np.eye(3), user_to_spec(skew, given).T)
        rng = np.random.default_rng(4)
        mat = rng.standard_normal((9, 9)) + 1j * rng.standard_normal((9, 9))
        vec = rng.standard_normal(9) + 1j * rng.standard_normal(9)
        endo = TwoZeroEndo(
            algebra=skew, matrix=to_spec @ mat @ np.linalg.inv(to_spec)
        )
        section = section_from_stack(skew, to_spec @ vec)
        weight = np.kron(np.eye(3), gram)
        assert endo.quad(section) == pytest.approx(
            (mat @ vec) @ weight @ np.conj(vec), rel=1e-12
        )
        assert endo.quad_bilinear(section) == pytest.approx(
            (mat @ vec) @ weight @ vec, rel=1e-12
        )

    def test_apply_matches_matrix(self, su2):
        rng = np.random.default_rng(2)
        mat = rng.standard_normal((9, 9)) + 1j * rng.standard_normal((9, 9))
        endo = TwoZeroEndo(algebra=su2, matrix=mat)
        section = random_section(su2, rng)
        out = endo.apply(section)
        assert np.allclose(stack_section(out), mat @ stack_section(section))

    def test_quad_conventions(self, su2):
        rng = np.random.default_rng(3)
        mat = rng.standard_normal((9, 9))
        endo = TwoZeroEndo(algebra=su2, matrix=mat)
        # the two quadratic forms coincide exactly when the stacked
        # component vector is real
        real_stack = section_from_stack(su2, rng.standard_normal(9))
        assert endo.quad(real_stack) == pytest.approx(
            endo.quad_bilinear(real_stack)
        )
        section = random_section(su2, rng)
        # quad is the pair-sum inner product of M s against s
        expected = endo.apply(section).inner_20(section)
        assert endo.quad(section) == pytest.approx(expected)
        assert endo.quad(section) != pytest.approx(
            endo.quad_bilinear(section)
        )


# ---------------------------------------------------------------------------
# The curvature endomorphism, three routes
# ---------------------------------------------------------------------------


class TestCurvatureOperator:
    @pytest.mark.parametrize("maker,arg", [(make_su, 2), (make_so, 3)])
    def test_matrix_route_equals_component_route(self, maker, arg):
        algebra = maker(arg)
        rng = np.random.default_rng(10)
        for _ in range(25):
            fc, _ = random_components(algebra, rng)
            endo = build_F_operator_from_components(fc)
            section = random_section(algebra, rng)
            left = endo.apply(section).phi
            right = apply_F_xi_path(fc, section).phi
            scale = max(float(np.max(np.abs(left))), 1.0)
            assert np.max(np.abs(left - right)) <= 1e-12 * scale

    def test_single_entry_oracle(self, so3):
        # curvature with only the pair (1, 2bar) occupied sends a
        # section with only phi_23 = x to ( 0, [x, F_12bar], 0 )
        u = np.array([0.0, 0.0, 1.0])
        a = np.zeros((8, 3))
        a[0] = u  # w_1 coefficient: f12 = u / 2
        fc = f_components_from_w(so3, a)
        x = np.array([1.0, 0.0, 0.0], dtype=complex)
        section = two_zero_from_v_coefficients(so3, np.zeros((6, 3)))
        section = section.__class__(
            algebra=so3, phi=np.stack([np.zeros(3), np.zeros(3), x])
        )
        out = build_F_operator_from_components(fc).apply(section)
        assert np.allclose(out.phi12, 0.0)
        assert np.allclose(out.phi23, 0.0)
        assert np.allclose(out.phi13, bracket_vec(so3, x, u / 2.0))

    def test_abelian_curvature_acts_as_zero(self):
        ab = make_abelian(2)
        rng = np.random.default_rng(11)
        fc, _ = random_components(ab, rng)
        endo = build_F_operator_from_components(fc)
        assert np.max(np.abs(endo.matrix)) == 0.0

    def test_quad_form_three_ways(self, su2, so3):
        rng = np.random.default_rng(12)
        for algebra in (su2, so3):
            for _ in range(25):
                fc, a = random_components(algebra, rng)
                b = rng.standard_normal((6, algebra.dim))
                section = two_zero_from_v_coefficients(algebra, b)
                endo = build_F_operator_from_components(fc)
                operator_quad = endo.quad_bilinear(section).real
                bracket_quad = quad_form_F(fc, section)
                family_quad = v_basis_quad_form(algebra, b, a)
                scale = max(abs(operator_quad), 1.0)
                assert abs(bracket_quad - operator_quad) <= 1e-12 * scale
                assert (
                    abs(family_quad - V_QUAD_TO_OPERATOR_FACTOR * operator_quad)
                    <= 1e-12 * scale * V_QUAD_TO_OPERATOR_FACTOR
                )

    def test_complex_quad_matches_bilinear(self, su2):
        rng = np.random.default_rng(13)
        fc, _ = random_components(su2, rng)
        endo = build_F_operator_from_components(fc)
        section = random_section(su2, rng)  # complex coefficients
        lhs = quad_form_F_complex(fc, section)
        rhs = endo.quad_bilinear(section)
        assert lhs == pytest.approx(rhs, abs=1e-12 * max(abs(rhs), 1.0))

    def test_family_quad_frozen_witness(self, so3):
        # b rows e1 on v_1 and e2 on v_5, curvature e3 on w_5: the
        # family expression reduces to <[e1, e2], e3> = 2 with the
        # doubled trace form of so(3)
        b = np.zeros((6, 3))
        b[0] = [1.0, 0.0, 0.0]
        b[2] = [0.0, 1.0, 0.0]
        a = np.zeros((8, 3))
        a[4] = bracket_vec(so3, b[0], b[2]).real
        value = v_basis_quad_form(so3, b, a)
        assert value == pytest.approx(2.0, abs=1e-14)

    def test_quad_shape_validation(self, su2):
        with pytest.raises(ValueError):
            v_basis_quad_form(su2, np.zeros((5, 3)), np.zeros((8, 3)))
        with pytest.raises(ValueError):
            v_basis_quad_form(su2, np.zeros((6, 3)), np.zeros((8, 2)))

    def test_self_adjoint_on_random_pairs(self, su2):
        rng = np.random.default_rng(14)
        fc, _ = random_components(su2, rng)
        endo = build_F_operator_from_components(fc)
        for _ in range(50):
            first = random_section(su2, rng)
            second = random_section(su2, rng)
            scale = max(first.norm_20() * second.norm_20(), 1.0)
            assert endo.adjoint_residual(first, second) <= 1e-10 * scale

    def test_build_from_form_matches_components(self, su2):
        rng = np.random.default_rng(16)
        a = rng.standard_normal((8, 3))
        F = gform_from_w_coefficients(su2, a)
        endo_form = build_F_operator(F)
        endo_direct = build_F_operator_from_components(
            f_components_from_w(su2, a)
        )
        assert np.allclose(endo_form.matrix, endo_direct.matrix, atol=1e-13)
        # (2,0)+(0,2) and contact parts beside the (1,1) part are dropped:
        # on integer coefficients every sum is exact, so the operator
        # equals that of the (1,1) part alone bit for bit
        others = list(standard_two_form_families()["v"]) + [
            KForm.basis(k, REEB_INDEX) for k in range(1, REEB_INDEX)
        ]
        a = rng.integers(-4, 5, size=(8, 3)).astype(float)
        b = rng.integers(-4, 5, size=(len(others), 3)).astype(float)
        pure = gform_from_w_coefficients(su2, a)
        mixed = pure + gform_from_terms(su2, 2, list(zip(others, b)))
        assert np.array_equal(
            build_F_operator(mixed).matrix, build_F_operator(pure).matrix
        )


# ---------------------------------------------------------------------------
# The Ricci endomorphism
# ---------------------------------------------------------------------------


class TestRicciOperator:
    def test_einstein_gives_exact_multiple_of_identity(self, su2):
        endo = build_R_operator(TransverseRicci.einstein(8.0), su2)
        assert np.array_equal(endo.matrix, 16.0 * np.eye(9))

    def test_diagonal_oracle(self, su2):
        # for diagonal entries (r1, r2, r3) the operator multiplies
        # phi_{mu nu} by r_mu + r_nu
        values = (1.0, 2.0, 5.0)
        endo = build_R_operator(TransverseRicci.from_diagonal(values), su2)
        rng = np.random.default_rng(20)
        section = random_section(su2, rng)
        out = endo.apply(section)
        for (mu, nu) in PAIRS:
            expected = (values[mu - 1] + values[nu - 1]) * section.component(
                mu, nu
            )
            assert np.allclose(out.component(mu, nu), expected)

    def test_diagonal_quad_identity(self, su2):
        values = (1.0, 2.0, 5.0)
        ric = TransverseRicci.from_diagonal(values)
        endo = build_R_operator(ric, su2)
        rng = np.random.default_rng(21)
        for _ in range(25):
            section = random_section(su2, rng)
            quad = endo.quad(section).real
            expected = sum(
                (values[mu - 1] + values[nu - 1])
                * inner_vec(
                    su2, section.component(mu, nu), section.component(mu, nu)
                ).real
                for mu, nu in PAIRS
            )
            assert quad == pytest.approx(expected, rel=1e-12)

    def test_trace_route_agrees(self, su2):
        rng = np.random.default_rng(22)
        herm = rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
        herm = (herm + herm.conj().T) / 2.0
        ric = TransverseRicci(matrix=herm)
        endo = build_R_operator(ric, su2)
        for _ in range(25):
            section = random_section(su2, rng)
            lhs = endo.quad(section).real
            rhs = ricci_quad_trace(ric, section)
            assert lhs == pytest.approx(rhs, rel=1e-11, abs=1e-11)

    def test_hermitian_tensor_gives_self_adjoint_operator(self, su2):
        rng = np.random.default_rng(23)
        herm = rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
        herm = (herm + herm.conj().T) / 2.0
        endo = build_R_operator(TransverseRicci(matrix=herm), su2)
        spec = operator_spectrum(endo)
        assert spec["hermiticity_residual"] <= 1e-12


# ---------------------------------------------------------------------------
# Weighted spectra
# ---------------------------------------------------------------------------


class TestWeightedSpectrum:
    def test_identity_weight_reduces_to_eigh(self):
        rng = np.random.default_rng(30)
        sym = rng.standard_normal((5, 5))
        sym = (sym + sym.T) / 2.0
        out = weighted_spectrum(sym)
        assert np.allclose(out["eigenvalues"], np.linalg.eigvalsh(sym))
        assert out["hermiticity_residual"] <= 1e-12

    def test_weight_changes_hermiticity(self):
        # an operator self-adjoint for a non-trivial weight only: weight
        # @ mat is symmetric, so mat is self-adjoint in the weighted
        # product even though mat itself is not symmetric
        weight = np.diag([1.0, 4.0])
        mat = np.array([[0.0, 4.0], [1.0, 0.0]])
        oracle = weighted_spectrum_gram_root(mat, weight)
        assert oracle["hermiticity_residual"] <= 1e-12
        assert np.allclose(oracle["eigenvalues"], [-2.0, 2.0])
        # in coordinates where the weight is c I (here c = 2, the change
        # diag(1, 2) / sqrt(c)) the operator is Hermitian
        change = np.diag([1.0, 2.0]) / np.sqrt(2.0)
        out = weighted_spectrum(change @ mat @ np.linalg.inv(change))
        assert out["hermiticity_residual"] <= 1e-12
        assert np.allclose(out["eigenvalues"], oracle["eigenvalues"])
        plain = weighted_spectrum(mat)
        assert plain["hermiticity_residual"] > 1.0

    def test_positivity_floor(self):
        floor = POSITIVITY_RELATIVE_FLOOR
        out = weighted_spectrum(np.diag([1.0, floor / 10.0]))
        assert not out["positive"]
        assert out["nonnegative"]
        out = weighted_spectrum(np.diag([1.0, -floor / 10.0]))
        assert not out["positive"]
        assert out["nonnegative"]
        out = weighted_spectrum(np.diag([1.0, 1.0]))
        assert out["positive"]
        out = weighted_spectrum(np.diag([1.0, -1.0]))
        assert not out["nonnegative"]

    def test_ricci_spectrum_is_flat_sixteen(self, su2):
        endo = build_R_operator(TransverseRicci.einstein(8.0), su2)
        spec = operator_spectrum(endo)
        assert np.allclose(spec["eigenvalues"], 16.0)
        assert spec["min"] == pytest.approx(16.0)
        assert spec["positive"]

    def test_curvature_spectrum_is_real_for_real_curvature(self, su2):
        rng = np.random.default_rng(31)
        fc, _ = random_components(su2, rng)
        spec = operator_spectrum(build_F_operator_from_components(fc))
        assert spec["hermiticity_residual"] <= 1e-10
        assert spec["eigenvalues"].shape == (9,)


# the two verdict thresholds of a spectrum report, in floors of its
# largest eigenvalue magnitude
_VERDICT_THRESHOLDS = {"positive": 1.0, "nonnegative": -1.0}


@settings(max_examples=200, deadline=None)
@given(
    lead=st.sampled_from([(), (1,), (4,), (2, 3)]),
    size=st.integers(2, 6),
    data=st.data(),
)
def test_positive_implies_nonnegative(lead, size, data):
    # stacks of spectra that are zero or whose smallest eigenvalue sits
    # 0, +-1 or +-10 floors from either verdict threshold; the vanishing
    # verdict relies on positive implying nonnegative
    spectra, offsets = [], []
    for _ in range(int(np.prod(lead, dtype=int))):
        thresholds = [None, *_VERDICT_THRESHOLDS.values()]
        offset = data.draw(st.sampled_from(thresholds))
        if offset is None:
            spectra.append(np.zeros(size))
            offsets.append(None)
            continue
        offset += data.draw(st.sampled_from([-10.0, -1.0, 0.0, 1.0, 10.0]))
        largest = data.draw(st.sampled_from([1e-300, 1e-3, 1.0, 16.0, 1e300]))
        low = offset * POSITIVITY_RELATIVE_FLOOR * largest
        middle = data.draw(st.lists(st.floats(0.0, 1.0), min_size=size - 2,
                                    max_size=size - 2))
        spectra.append(np.sort(
            [low, largest] + [low + t * (largest - low) for t in middle]
        ))
        offsets.append(offset)
    spectrum = np.array(spectra).reshape(lead + (size,))
    report = _spectrum_report(spectrum, np.zeros(lead))
    positive = np.asarray(report["positive"])
    nonnegative = np.asarray(report["nonnegative"])
    assert positive.shape == nonnegative.shape == lead
    assert np.all(nonnegative[positive])
    # ten floors from a threshold, the verdict is decided
    for index, offset in zip(np.ndindex(lead), offsets):
        for key, threshold in _VERDICT_THRESHOLDS.items():
            if offset is not None and abs(offset - threshold) == 10.0:
                assert np.asarray(report[key])[index] == (offset > threshold)


# smallest eigenvalue of the block-spectrum operators, in floors of the
# largest; None draws an unconstrained spectrum
_FLOOR_OFFSETS = [-1000.0, -100.0, -20.0, -11.0, -1.0, 0.0, 1.0, 11.0,
                  20.0, 100.0, 1000.0, None]


def _gram_root(gram, power):
    evals, evecs = np.linalg.eigh(gram)
    return (evecs * evals ** power) @ evecs.T


def _max_entry_within_norm_bounds(residual, oracle, size):
    """The largest entry of ``M - M^H`` in coordinates orthonormal for
    the weight against the oracle's in other orthonormal ones: both lie
    between the spectral norm of the deviation over ``size`` and that
    norm, which a change of orthonormal coordinates keeps."""
    residual, oracle = np.asarray(residual), np.asarray(oracle)
    slack = 1.0 + 1e-10
    return np.all(residual <= size * oracle * slack) and np.all(
        oracle <= size * residual * slack
    )


def _weighted_operator(rng, gram, n, offset, complex_values, perturbed):
    """An operator self-adjoint in the weight ``kron(I_n, gram)`` with a
    spectrum chosen here, optionally plus a perturbation that breaks the
    self-adjointness."""
    size = n * gram.shape[0]
    if offset is None:
        spectrum = rng.standard_normal(size)
    else:
        spectrum = rng.uniform(0.1, 1.0, size)
        spectrum[0] = offset * POSITIVITY_RELATIVE_FLOOR * spectrum.max()
    basis = rng.standard_normal((size, size))
    if complex_values:
        basis = basis + 1j * rng.standard_normal((size, size))
    unitary, _ = np.linalg.qr(basis)
    herm = (unitary * spectrum) @ unitary.conj().T
    matrix = (
        np.kron(np.eye(n), _gram_root(gram, -0.5))
        @ herm
        @ np.kron(np.eye(n), _gram_root(gram, 0.5))
    )
    if perturbed:
        matrix = matrix + 1e-3 * rng.standard_normal((size, size))
    return matrix


@settings(max_examples=80, deadline=None)
@given(
    d=st.integers(1, 8),
    n=st.sampled_from([1, 3, 7]),
    lead=st.sampled_from([(), (3,)]),
    offset=st.sampled_from(_FLOOR_OFFSETS),
    complex_values=st.booleans(),
    perturbed=st.booleans(),
    seed=st.integers(0, 2**32 - 1),
)
def test_block_spectrum_matches_dense_weight_oracle(
    d, n, lead, offset, complex_values, perturbed, seed
):
    # operators self-adjoint in kron(I_n, gram) for a general Gram
    # block, moved into coordinates where the block is the identity by
    # the Gram root: the package route there against the dense oracle
    # and the Gram-root oracle in the given coordinates
    rng = np.random.default_rng(seed)
    a = rng.standard_normal((d, d))
    gram = a @ a.T + d * np.eye(d)
    matrices = np.array([
        _weighted_operator(rng, gram, n, offset, complex_values, perturbed)
        for _ in range(int(np.prod(lead)))
    ]).reshape(lead + (n * d, n * d))
    to_spec = np.kron(np.eye(n), _gram_root(gram, 0.5))
    got = weighted_spectrum(
        to_spec @ matrices @ np.kron(np.eye(n), _gram_root(gram, -0.5))
    )
    want = weighted_spectrum_dense(matrices, np.kron(np.eye(n), gram))
    block = weighted_spectrum_gram_root(matrices, gram)
    assert got.keys() == want.keys() == block.keys()
    eigs, oracle = got["eigenvalues"], want["eigenvalues"]
    largest = np.max(np.abs(oracle), axis=-1)
    assert eigs.shape == oracle.shape == lead + (n * d,)
    for route in (got, block):
        assert np.all(
            np.abs(route["eigenvalues"] - oracle)
            <= 1e-10 * largest[..., None]
        )
        assert np.all(
            np.abs(np.subtract(route["hermiticity_residual"],
                               want["hermiticity_residual"]))
            <= 1e-10 * np.maximum(want["hermiticity_residual"], largest)
        )
    # the Cholesky frame, the one algebra_from_basis re-bases by, gives
    # the same eigenvalues; it differs from the root frame by an
    # orthogonal map, so its largest residual entry is only bounded
    to_spec = np.kron(np.eye(n), np.linalg.cholesky(gram).T)
    cholesky = weighted_spectrum(
        to_spec @ matrices @ np.linalg.inv(to_spec)
    )
    assert np.all(
        np.abs(cholesky["eigenvalues"] - oracle) <= 1e-10 * largest[..., None]
    )
    if perturbed:
        assert _max_entry_within_norm_bounds(
            cholesky["hermiticity_residual"],
            want["hermiticity_residual"],
            n * d,
        )
    else:
        assert np.all(
            np.asarray(cholesky["hermiticity_residual"]) <= 1e-10 * largest
        )
    # verdicts agree wherever the smallest eigenvalue lies more than ten
    # floors away from the threshold of that verdict, and on the zero
    # operator (a 1 x 1 draw at offset 0), whose verdicts are exact
    zero = largest == 0.0
    floors = np.asarray(want["min"]) / (
        POSITIVITY_RELATIVE_FLOOR * np.where(zero, 1.0, largest)
    )
    for key, threshold in (("positive", 1.0), ("nonnegative", -1.0)):
        outside = (np.abs(floors - threshold) > 10.0) | zero
        assert np.array_equal(
            np.asarray(got[key])[outside], np.asarray(want[key])[outside]
        )


SPECTRA_ALGEBRAS = {"su2": make_su(2), "so3": make_so(3), "so5": make_so(5)}


@settings(max_examples=30, deadline=None)
@given(
    name=st.sampled_from(sorted(SPECTRA_ALGEBRAS)),
    seed=st.integers(0, 2**32 - 1),
    scale=st.floats(1e-3, 1e3),
    einstein=st.booleans(),
)
def test_combined_spectra_equal_single_calls(name, seed, scale, einstein):
    # the curvature entry is, bit for bit and type for type, what one
    # operator_spectrum call gives; the Ricci entry (from the pair
    # matrix) and the combined one (the curvature spectrum shifted, for
    # an Einstein tensor) match the kron oracle within its rounding budget
    algebra = SPECTRA_ALGEBRAS[name]
    rng = np.random.default_rng(seed)
    fc = f_components_from_w(
        algebra, scale * rng.standard_normal((8, algebra.dim))
    )
    f_endo = build_F_operator_from_components(fc)
    if einstein:
        ricci = TransverseRicci.einstein(rng.uniform(-10.0, 10.0))
    else:
        herm = rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
        ricci = TransverseRicci(matrix=herm + herm.conj().T)
    got = combined_spectra(f_endo, ricci)
    want = operator_spectrum(f_endo)
    assert got["curvature"].keys() == want.keys()
    np.testing.assert_array_equal(
        got["curvature"]["eigenvalues"], want["eigenvalues"]
    )
    for key, value in want.items():
        if key != "eigenvalues":
            assert got["curvature"][key] == value, key
            assert type(got["curvature"][key]) is type(value), key
    assert_spectra_within_rounding(got, combined_spectra_kron(f_endo, ricci))


# ---------------------------------------------------------------------------
# The norm estimate chain
# ---------------------------------------------------------------------------


class TestEstimateChain:
    @pytest.mark.parametrize(
        "maker,arg", [(make_su, 2), (make_so, 3), (make_so, 5)]
    )
    def test_chain_holds_on_random_data(self, maker, arg):
        algebra = maker(arg)
        rng = np.random.default_rng(40)
        for _ in range(40):
            fc, _ = random_components(algebra, rng)
            section = random_section(algebra, rng)
            out = estimate_bound_check(fc, section)
            assert out["bracket_bound_holds"]
            assert out["product_bound_holds"]
            assert out["quad_form"] <= out["bound_product"] + 1e-9

    def test_report_keys(self, su2):
        rng = np.random.default_rng(41)
        fc, _ = random_components(su2, rng)
        section = random_section(su2, rng)
        out = estimate_bound_check(fc, section)
        assert set(out) == {
            "quad_form",
            "bound_bracket",
            "bound_product",
            "bracket_bound_holds",
            "product_bound_holds",
            "norms",
        }
        assert out["norms"]["section_sq"] == pytest.approx(
            section.norm_20() ** 2
        )

    def test_zero_section_collapses_chain(self, su2):
        rng = np.random.default_rng(42)
        fc, _ = random_components(su2, rng)
        zero = two_zero_from_v_coefficients(su2, np.zeros((6, 3)))
        out = estimate_bound_check(fc, zero)
        assert out["quad_form"] == 0.0
        assert out["bound_bracket"] == 0.0
        assert out["bound_product"] == 0.0


# ---------------------------------------------------------------------------
# The vanishing verdict
# ---------------------------------------------------------------------------


class TestVanishingReport:
    def test_small_curvature_vanishes(self, su2, model):
        rng = np.random.default_rng(50)
        a = 0.1 * rng.standard_normal((8, 3))
        F = gform_from_w_coefficients(su2, a)
        out = vanishing_report(F, TransverseRicci.einstein(8.0), model)
        assert out["verdict"] == "VANISHES"
        assert out["lambda_min"] == pytest.approx(16.0)
        assert out["thresholds"]["component_frobenius"] == pytest.approx(
            16.0 / np.sqrt(2.0)
        )
        assert out["thresholds"]["form"] == pytest.approx(16.0 * np.sqrt(2.0))
        assert out["energy_bound_holds"]

    def test_zero_curvature_vanishes_with_flat_spectrum(self, su2, model):
        F = gform_from_w_coefficients(su2, np.zeros((8, 3)))
        out = vanishing_report(F, TransverseRicci.einstein(8.0), model)
        assert out["verdict"] == "VANISHES"
        assert out["combined_spectrum"]["min"] == pytest.approx(16.0)

    def test_huge_curvature_is_inconclusive(self, su2, model):
        rng = np.random.default_rng(51)
        a = rng.standard_normal((8, 3))
        F = gform_from_w_coefficients(su2, a)
        base = vanishing_report(F, TransverseRicci.einstein(8.0), model)
        scale = 1.0
        out = base
        while out["verdict"] == "VANISHES" and scale < 1e7:
            scale *= 10.0
            out = vanishing_report(
                F * scale, TransverseRicci.einstein(8.0), model
            )
        assert out["verdict"] == "INCONCLUSIVE"
        assert out["combined_spectrum"]["min"] < 0.0

    def test_negative_ricci_is_inconclusive(self, su2, model):
        rng = np.random.default_rng(52)
        a = 0.01 * rng.standard_normal((8, 3))
        F = gform_from_w_coefficients(su2, a)
        out = vanishing_report(
            F, TransverseRicci.from_diagonal([-1.0, 1.0, 1.0]), model
        )
        assert out["verdict"] == "INCONCLUSIVE"
        assert not out["ricci_spectrum"]["positive"]

    def test_non_instanton_input_rejected(self, su2, model):
        rng = np.random.default_rng(53)
        b = rng.standard_normal((6, 3))
        v_family = standard_two_form_families()["v"]
        F = gform_from_terms(su2, 2, list(zip(v_family, b)))
        with pytest.raises(ValueError):
            vanishing_report(F, TransverseRicci.einstein(8.0), model)

    def test_norms_reported(self, su2, model):
        rng = np.random.default_rng(54)
        a = 0.1 * rng.standard_normal((8, 3))
        F = gform_from_w_coefficients(su2, a)
        out = vanishing_report(F, TransverseRicci.einstein(8.0), model)
        assert out["norms"]["form"] == pytest.approx(g_norm(F))
        assert out["norms"]["component_frobenius"] > 0.0
