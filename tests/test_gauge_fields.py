"""Tests for algebra-valued forms, component tables and the classifier.

Oracles here are independent of the implementation: coefficient
extraction is checked against a hand-solved Gram system for the
non-orthogonal self-dual family, the graded bracket against its matrix
entry realization, and the component dictionaries against the frozen
linear tables they encode.  The realization of a (2,0) section as a
2-form is an oracle route kept here.
"""

import numpy as np
import pytest

from artifact.flat_model import (
    PAIRS,
    KForm,
    basis_keys,
    calibrate_model,
    form_inner,
    standard_two_form_families,
)
from artifact.form_decomposition import project
from artifact.gauge_fields import (
    GValuedForm,
    conjugate_gform,
    f_component_norm_matrix,
    f_components_from_gform,
    f_components_from_w,
    g_inner,
    g_norm,
    g_wedge_bracket,
    gform_complex_components,
    gform_from_complex_components,
    gform_from_w_coefficients,
    instanton_classify,
    omega_component,
    phi_component_norm_matrix,
    two_zero_from_v_coefficients,
    w_coefficients_from_gform,
)
from artifact.lie_algebra import (
    bracket_vec,
    inner_vec,
    make_abelian,
    make_so,
    make_su,
)
from oracle_routes import (
    g_wedge_bracket_entry_path,
    g_wedge_scalar,
    gform_from_terms,
    vector_at,
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


def random_gform(algebra, degree, rng, real=True):
    rows = []
    for _ in basis_keys(degree):
        vec = rng.standard_normal(algebra.dim)
        if not real:
            vec = vec + 1j * rng.standard_normal(algebra.dim)
        rows.append(vec)
    return GValuedForm.from_matrix(algebra, degree, rows)


def gform_from_two_zero(section, with_conjugate=False):
    """Oracle: a section realized as the 2-form ``phi`` or
    ``phi + conj(phi)`` through its complex components."""
    components = dict(zip(PAIRS, section.phi))
    out = gform_from_complex_components(section.algebra, components, 2)
    if with_conjugate:
        out = out + conjugate_gform(out)
    return out


def support(F):
    """Keys whose coefficient vector is nonzero."""
    keys = basis_keys(F.degree)
    return {keys[row] for row in np.flatnonzero(F.to_matrix().any(axis=1))}


# ---------------------------------------------------------------------------
# GValuedForm basics
# ---------------------------------------------------------------------------


class TestGValuedForm:
    def test_accumulate_canonicalizes_keys(self, su2):
        F = GValuedForm(su2, 2)
        vec = np.array([1.0, 2.0, 3.0], dtype=complex)
        F.accumulate((3, 1), vec)
        assert support(F) == {(1, 3)}
        assert np.allclose(vector_at(F, 1, 3), -vec)
        # a repeated index contributes nothing
        F.accumulate((2, 2), vec)
        assert support(F) == {(1, 3)}

    def test_accumulate_adds_in_place(self, su2):
        F = GValuedForm(su2, 1)
        F.accumulate((4,), np.array([1.0, 0.0, 0.0]))
        F.accumulate((4,), np.array([0.0, 1.0, 0.0]))
        assert np.allclose(vector_at(F, 4), [1.0, 1.0, 0.0])

    def test_vector_at_respects_orientation(self, su2):
        F = GValuedForm(su2, 2)
        vec = np.array([0.0, 1.0, -1.0], dtype=complex)
        F.accumulate((2, 5), vec)
        assert np.allclose(vector_at(F, 2, 5), vec)
        assert np.allclose(vector_at(F, 5, 2), -vec)
        assert np.allclose(vector_at(F, 1, 7), 0.0)

    def test_linear_structure(self, su2):
        rng = np.random.default_rng(11)
        A = random_gform(su2, 2, rng)
        B = random_gform(su2, 2, rng)
        combo = A * 2.0 + B * (-1.5)
        for key in basis_keys(2):
            expect = 2.0 * vector_at(A, *key) - 1.5 * vector_at(B, *key)
            assert np.allclose(vector_at(combo, *key), expect)

    def test_inner_and_norm_use_algebra_gram(self, so3):
        # so(3) with the Killing form weights every coefficient by 2
        F = GValuedForm(so3, 2)
        F.accumulate((1, 2), np.array([1.0, 0.0, 0.0]))
        F.accumulate((3, 4), np.array([0.0, 2.0, 0.0]))
        assert g_inner(F, F) == pytest.approx(2.0 * (1.0 + 4.0))
        assert g_norm(F) == pytest.approx(np.sqrt(10.0))

    def test_inner_conjugate_linear_in_second_slot(self, su2):
        rng = np.random.default_rng(12)
        A = random_gform(su2, 2, rng, real=False)
        B = random_gform(su2, 2, rng, real=False)
        z = 0.7 - 1.3j
        assert g_inner(A, B * z) == pytest.approx(
            np.conj(z) * g_inner(A, B)
        )
        assert g_inner(B, A) == pytest.approx(np.conj(g_inner(A, B)))

    def test_conjugate_gform(self, su2):
        rng = np.random.default_rng(13)
        A = random_gform(su2, 2, rng, real=False)
        C = conjugate_gform(A)
        for key in basis_keys(2):
            assert np.allclose(
                vector_at(C, *key), np.conj(vector_at(A, *key))
            )

    def test_holds_one_dense_array(self, su2, so3):
        for algebra in (su2, so3):
            for degree in range(8):
                F = GValuedForm(algebra, degree)
                assert F.matrix.shape == (len(basis_keys(degree)), algebra.dim)
                assert F.matrix.dtype == complex
                assert not F.matrix.any()
        assert not hasattr(GValuedForm(su2, 2), "__dict__")

    def test_arithmetic_returns_fresh_arrays(self, su2):
        rng = np.random.default_rng(14)
        A = random_gform(su2, 2, rng)
        B = random_gform(su2, 2, rng)
        before = A.to_matrix()
        results = [A + B, A - B, A * 2.0, 2.0 * A, -A, conjugate_gform(A)]
        for out in results:
            assert not np.shares_memory(out.matrix, A.matrix)
            assert not np.shares_memory(out.matrix, B.matrix)
        for out in results:
            out.matrix[:] = 7.0
        assert np.array_equal(A.matrix, before)
        rows = A.to_matrix()
        back = GValuedForm.from_matrix(su2, 2, rows)
        rows[:] = 0.0
        assert np.array_equal(back.matrix, before)

    def test_malformed_keys_rejected(self, su2):
        F = GValuedForm(su2, 2)
        with pytest.raises(ValueError):
            F.accumulate((1, 8), np.ones(3))
        with pytest.raises(ValueError):
            F.accumulate((1,), np.ones(3))
        with pytest.raises(ValueError):
            F.accumulate((1, 2), np.ones(2))
        with pytest.raises(ValueError):
            GValuedForm.from_matrix(su2, 2, np.zeros((20, 3)))

    def test_to_matrix_rows_follow_basis_order(self, su2):
        F = GValuedForm(su2, 2)
        F.accumulate((1, 2), np.array([1.0, 2.0, 3.0]))
        mat = F.to_matrix()
        assert mat.shape == (21, 3)
        row = list(basis_keys(2)).index((1, 2))
        assert np.allclose(mat[row], [1.0, 2.0, 3.0])
        assert np.count_nonzero(mat) == 3
        back = GValuedForm.from_matrix(su2, 2, mat)
        assert g_norm(back - F) == 0.0


# ---------------------------------------------------------------------------
# Graded bracket, two routes
# ---------------------------------------------------------------------------


class TestWedgeBracket:
    @pytest.mark.parametrize("p,q", [(1, 1), (1, 2), (2, 2), (0, 2)])
    def test_entry_path_agrees(self, su2, p, q):
        rng = np.random.default_rng(100 + 10 * p + q)
        A = random_gform(su2, p, rng, real=False)
        B = random_gform(su2, q, rng, real=False)
        direct = g_wedge_bracket(A, B)
        entry = g_wedge_bracket_entry_path(A, B)
        assert g_norm(direct - entry) <= 1e-12 * max(g_norm(direct), 1.0)

    @pytest.mark.parametrize("p,q", [(1, 1), (1, 2), (2, 2)])
    def test_graded_antisymmetry(self, so3, p, q):
        rng = np.random.default_rng(200 + 10 * p + q)
        A = random_gform(so3, p, rng)
        B = random_gform(so3, q, rng)
        left = g_wedge_bracket(A, B)
        right = g_wedge_bracket(B, A) * (-((-1.0) ** (p * q)))
        assert g_norm(left - right) <= 1e-12 * max(g_norm(left), 1.0)

    def test_zero_form_bracket_is_pointwise(self, su2):
        rng = np.random.default_rng(21)
        x = rng.standard_normal(3)
        y = rng.standard_normal(3)
        A = GValuedForm(su2, 0)
        A.accumulate((), x)
        B = GValuedForm(su2, 0)
        B.accumulate((), y)
        out = g_wedge_bracket(A, B)
        # convention: the value bracket is [second, first]
        assert np.allclose(vector_at(out), bracket_vec(su2, y, x))

    def test_single_term_oracle(self, so3):
        # (e^1 (x) a) against (e^2 (x) b) lands on e^12 with value [b, a]
        a = np.array([1.0, 0.0, 0.0])
        b = np.array([0.0, 1.0, 0.0])
        A = GValuedForm(so3, 1)
        A.accumulate((1,), a)
        B = GValuedForm(so3, 1)
        B.accumulate((2,), b)
        out = g_wedge_bracket(A, B)
        assert support(out) == {(1, 2)}
        assert np.allclose(vector_at(out, 1, 2), bracket_vec(so3, b, a))

    def test_abelian_bracket_vanishes(self):
        ab = make_abelian(2)
        rng = np.random.default_rng(22)
        A = random_gform(ab, 1, rng)
        B = random_gform(ab, 1, rng)
        assert g_norm(g_wedge_bracket(A, B)) == 0.0

    def test_degree_overflow_rejected(self, su2):
        rng = np.random.default_rng(23)
        A = random_gform(su2, 4, rng)
        with pytest.raises(ValueError):
            g_wedge_bracket(A, A)

    def test_mixed_algebras_rejected(self, su2, so3):
        A = GValuedForm(su2, 1)
        B = GValuedForm(so3, 1)
        with pytest.raises(ValueError):
            g_wedge_bracket(A, B)

    def test_wedge_scalar(self, su2):
        rng = np.random.default_rng(24)
        A = random_gform(su2, 1, rng)
        form = KForm(1, {(3,): 1.0})
        out = g_wedge_scalar(A, form)
        for key in basis_keys(1):
            vec = vector_at(A, *key)
            if 3 in key:
                continue
            target = tuple(sorted(key + (3,)))
            sign = 1.0 if key[0] < 3 else -1.0
            assert np.allclose(vector_at(out, *target), sign * vec)


# ---------------------------------------------------------------------------
# Self-dual family coefficients
# ---------------------------------------------------------------------------


class TestWCoefficients:
    def test_round_trip_random(self, su2):
        rng = np.random.default_rng(30)
        a = rng.standard_normal((8, 3))
        F = gform_from_w_coefficients(su2, a)
        back = w_coefficients_from_gform(F)
        assert np.allclose(back, a, atol=1e-12)

    def test_last_two_members_share_a_monomial(self, su2):
        # the naive pairing route without the Gram solve would confuse
        # the two members that overlap; the extraction must separate
        # a_7 = 1 from a_8 = 0 exactly
        a = np.zeros((8, 3))
        a[6, 0] = 1.0
        F = gform_from_w_coefficients(su2, a)
        back = w_coefficients_from_gform(F)
        assert np.allclose(back, a, atol=1e-12)
        a2 = np.zeros((8, 3))
        a2[7, 1] = 1.0
        back2 = w_coefficients_from_gform(gform_from_w_coefficients(su2, a2))
        assert np.allclose(back2, a2, atol=1e-12)

    def test_out_of_span_rejected(self, su2, model):
        F = GValuedForm(su2, 2)
        F.accumulate((1, 3), np.array([1.0, 0.0, 0.0]))  # v_1 direction
        with pytest.raises(ValueError):
            w_coefficients_from_gform(F)

    def test_wrong_degree_rejected(self, su2):
        F = GValuedForm(su2, 1)
        with pytest.raises(ValueError):
            w_coefficients_from_gform(F)

    def test_coefficient_shape_enforced(self, su2):
        with pytest.raises(ValueError):
            gform_from_w_coefficients(su2, np.zeros((7, 3)))
        with pytest.raises(ValueError):
            gform_from_w_coefficients(su2, np.zeros((8, 2)))

    def test_family_members_classify_self_dual(self, su2, model):
        rng = np.random.default_rng(31)
        a = rng.standard_normal((8, 3))
        F = gform_from_w_coefficients(su2, a)
        report = instanton_classify(F, model)
        assert report["label"] == "SD"


# ---------------------------------------------------------------------------
# Sections and coefficient tables
# ---------------------------------------------------------------------------


class TestSections:
    def test_v_coefficient_round_trip(self, su2, model):
        # coefficients -> section -> real 2-form gives back sum b_i v_i
        rng = np.random.default_rng(40)
        b = rng.standard_normal((6, 3))
        section = two_zero_from_v_coefficients(su2, b)
        realized = gform_from_two_zero(section, with_conjugate=True)
        family = standard_two_form_families()["v"]
        expected = gform_from_terms(su2, 2, list(zip(family, b)))
        assert np.allclose(realized.matrix, expected.matrix, atol=1e-14)

    def test_component_antisymmetry(self, su2):
        rng = np.random.default_rng(41)
        b = rng.standard_normal((6, 3))
        section = two_zero_from_v_coefficients(su2, b)
        assert np.allclose(section.component(2, 1), -section.phi12)
        assert np.allclose(section.component(3, 3), 0.0)

    def test_section_norm_against_coefficients(self, su2):
        # components (b_{2k} - i b_{2k+1}) / 2 give
        # norm^2 = c sum b^2 / 4 with c the algebra's inner_scale
        rng = np.random.default_rng(42)
        b = rng.standard_normal((6, 3))
        section = two_zero_from_v_coefficients(su2, b)
        expected_sq = float(su2.inner_scale * np.sum(b * b) / 4.0)
        assert section.norm_20() == pytest.approx(np.sqrt(expected_sq))

    def test_realization_round_trip(self, su2):
        rng = np.random.default_rng(43)
        b = rng.standard_normal((6, 3)) + 1j * rng.standard_normal((6, 3))
        section = two_zero_from_v_coefficients(su2, b)
        F = gform_from_two_zero(section)
        table = gform_complex_components(F)
        back = np.stack([table[pair] for pair in PAIRS])
        assert np.allclose(back, section.phi, atol=1e-13)

    def test_realized_form_is_pure_type(self, su2):
        rng = np.random.default_rng(44)
        b = rng.standard_normal((6, 3))
        section = two_zero_from_v_coefficients(su2, b)
        F = gform_from_two_zero(section)
        for symbols in gform_complex_components(F):
            assert sum(1 for s in symbols if s > 0) == 2

    def test_real_realization_doubles_norm(self, su2, model):
        # phi + conj(phi) carries the (2,0) and (0,2) copies
        rng = np.random.default_rng(45)
        b = rng.standard_normal((6, 3))
        section = two_zero_from_v_coefficients(su2, b)
        half = gform_from_two_zero(section)
        full = gform_from_two_zero(section, with_conjugate=True)
        assert g_norm(full) == pytest.approx(np.sqrt(2.0) * g_norm(half))
        assert g_norm(full - conjugate_gform(full)) <= 1e-14

    def test_stacked_shape(self, su2):
        section = two_zero_from_v_coefficients(su2, np.zeros((6, 3)))
        assert section.phi.shape == (3, 3)


class TestFComponents:
    def test_from_w_frozen_table(self, su2):
        rng = np.random.default_rng(50)
        a = rng.standard_normal((8, 3))
        fc = f_components_from_w(su2, a)
        assert np.allclose(fc.at(1, 2), (a[0] + 1j * a[1]) / 2.0)
        assert np.allclose(fc.at(1, 3), (a[2] + 1j * a[3]) / 2.0)
        assert np.allclose(fc.at(2, 3), (a[4] + 1j * a[5]) / 2.0)
        assert np.allclose(fc.at(1, 1), 0.5j * a[6])
        assert np.allclose(fc.at(2, 2), 0.5j * a[7])
        assert np.allclose(fc.at(3, 3), -0.5j * (a[6] + a[7]))

    def test_table_matches_complex_expansion(self, su2, model):
        # the same entries must fall out of the complex component
        # dictionary of the realized 2-form
        rng = np.random.default_rng(51)
        a = rng.standard_normal((8, 3))
        F = gform_from_w_coefficients(su2, a)
        fc_direct = f_components_from_w(su2, a)
        fc_form = f_components_from_gform(F)
        for mu in range(1, 4):
            for nu in range(1, 4):
                assert np.allclose(
                    fc_form.at(mu, nu), fc_direct.at(mu, nu), atol=1e-13
                )

    def test_at_antihermitian_pattern(self, su2):
        rng = np.random.default_rng(52)
        a = rng.standard_normal((8, 3))
        fc = f_components_from_w(su2, a)
        for mu in range(1, 4):
            for nu in range(1, 4):
                assert np.allclose(
                    fc.at(nu, mu), -np.conj(fc.at(mu, nu))
                )

    def test_reality_residual_and_trace(self, su2):
        rng = np.random.default_rng(53)
        a = rng.standard_normal((8, 3))
        fc = f_components_from_w(su2, a)
        diagonal = np.diagonal(fc.table, axis1=0, axis2=1)
        assert np.max(np.abs(diagonal + np.conj(diagonal))) <= 1e-15
        assert np.allclose(fc.trace_vector(), 0.0, atol=1e-15)

    def test_strict_extraction_rejects_other_types(self, su2, model):
        F = GValuedForm(su2, 2)
        F.accumulate((1, 3), np.array([1.0, 0.0, 0.0]))  # has a (2,0) part
        with pytest.raises(ValueError):
            f_components_from_gform(F)
        fc = f_components_from_gform(F, strict=False)
        assert fc.at(1, 2).shape == (3,)

    def test_norm_matrices(self, su2):
        rng = np.random.default_rng(56)
        a = rng.standard_normal((8, 3))
        fc = f_components_from_w(su2, a)
        mat = f_component_norm_matrix(fc)
        assert mat.shape == (3, 3)
        assert np.all(mat >= 0.0)
        assert mat[0, 1] == pytest.approx(
            np.sqrt(inner_vec(su2, fc.at(1, 2), fc.at(1, 2)).real)
        )
        b = rng.standard_normal((6, 3))
        section = two_zero_from_v_coefficients(su2, b)
        pmat = phi_component_norm_matrix(section)
        assert np.allclose(pmat, pmat.T)
        assert np.allclose(np.diag(pmat), 0.0)


# ---------------------------------------------------------------------------
# Complex component dictionaries
# ---------------------------------------------------------------------------


class TestComplexComponents:
    def test_round_trip(self, su2):
        rng = np.random.default_rng(60)
        F = random_gform(su2, 2, rng, real=False)
        comps = gform_complex_components(F)
        back = gform_from_complex_components(su2, comps, 2)
        assert g_norm(back - F) <= 1e-13 * g_norm(F)

    def test_conjugation_mirrors_components(self, su2):
        # conjugating the form negates every symbol in each tuple; find
        # the canonical mirror of each key by conjugating a single-key
        # probe form, then compare component norms
        rng = np.random.default_rng(61)
        F = random_gform(su2, 2, rng, real=False)
        comps = gform_complex_components(F)
        conj_comps = gform_complex_components(conjugate_gform(F))
        for symbols, vec in comps.items():
            probe = gform_from_complex_components(
                su2, {symbols: np.ones(su2.dim)}, 2
            )
            mirror_keys = list(
                gform_complex_components(conjugate_gform(probe))
            )
            assert len(mirror_keys) == 1
            mirror = mirror_keys[0]
            assert set(mirror) == {-s for s in symbols}
            assert np.linalg.norm(conj_comps[mirror]) == pytest.approx(
                np.linalg.norm(vec)
            )

    def test_omega_component(self, su2, model):
        rng = np.random.default_rng(62)
        u = rng.standard_normal(3)
        F = gform_from_terms(su2, 2, [(model.omega, u)])
        out = omega_component(F, model)
        assert np.allclose(out, u, atol=1e-14)
        # pairing definition: <F, omega> = u ||omega||^2
        total = np.zeros(3, dtype=complex)
        for key, value in model.omega.terms():
            total += vector_at(F, *key) * np.conj(value)
        norm_sq = form_inner(model.omega, model.omega).real
        assert np.allclose(total / norm_sq, out)

    def test_omega_component_blind_to_other_blocks(self, su2, model):
        rng = np.random.default_rng(63)
        a = rng.standard_normal((8, 3))
        F = gform_from_w_coefficients(su2, a)
        assert np.allclose(omega_component(F, model), 0.0, atol=1e-14)


# ---------------------------------------------------------------------------
# The classifier
# ---------------------------------------------------------------------------


class TestClassifier:
    def test_self_dual(self, su2, model):
        rng = np.random.default_rng(70)
        a = rng.standard_normal((8, 3))
        F = gform_from_w_coefficients(su2, a)
        report = instanton_classify(F, model)
        assert report["label"] == "SD"
        for key in ("block_6", "block_1", "vertical", "reality"):
            assert report["residuals_eigen"][key] <= report["tolerance"]
            assert report["residuals_type"][key] <= report["tolerance"]

    def test_anti_self_dual(self, su2, model):
        rng = np.random.default_rng(71)
        b = rng.standard_normal((6, 3))
        section = two_zero_from_v_coefficients(su2, b)
        F = gform_from_two_zero(section, with_conjugate=True)
        report = instanton_classify(F, model)
        assert report["label"] == "ASD"

    def test_contact_line(self, su2, model):
        F = gform_from_terms(su2, 2, [(model.omega, np.array([0.0, 1.0, 2.0]))])
        report = instanton_classify(F, model)
        assert report["label"] == "LAMBDA_MINUS_2"

    def test_mixed_is_none(self, su2, model):
        rng = np.random.default_rng(72)
        a = rng.standard_normal((8, 3))
        b = rng.standard_normal((6, 3))
        F = gform_from_w_coefficients(su2, a)
        F = F + gform_from_two_zero(
            two_zero_from_v_coefficients(su2, b), with_conjugate=True
        )
        assert instanton_classify(F, model)["label"] == "NONE"

    def test_vertical_content_is_none(self, su2, model):
        a = np.zeros((8, 3))
        a[0, 0] = 1.0
        F = gform_from_w_coefficients(su2, a)
        F.accumulate((1, 7), np.array([1.0, 0.0, 0.0]))
        assert instanton_classify(F, model)["label"] == "NONE"

    def test_complex_coefficients_are_none(self, su2, model):
        a = np.zeros((8, 3), dtype=complex)
        a[0, 0] = 1.0 + 1.0j
        F = gform_from_w_coefficients(su2, a)
        report = instanton_classify(F, model)
        assert report["label"] == "NONE"
        assert report["residuals_eigen"]["reality"] > 0.0

    def test_zero_form(self, su2, model):
        report = instanton_classify(GValuedForm(su2, 2), model)
        assert report["label"] == "NONE"
        assert "zero form" in report["note"]

    def test_routes_agree_on_random_forms(self, so3, model):
        # the two routes use different residual norms; the contract is
        # that they agree about which blocks are present
        rng = np.random.default_rng(73)
        for _ in range(20):
            F = random_gform(so3, 2, rng)
            report = instanton_classify(F, model)
            assert report["label"] == "NONE"
            eig = report["residuals_eigen"]
            typ = report["residuals_type"]
            threshold = report["tolerance"]
            for key in eig:
                assert (eig[key] <= threshold) == (typ[key] <= threshold)

    def test_tolerance_is_relative(self, su2, model):
        # a large self-dual form with a tiny stray part still classifies
        a = np.zeros((8, 3))
        a[0, 0] = 1.0e6
        F = gform_from_w_coefficients(su2, a)
        F.accumulate((1, 7), np.array([1.0e-6, 0.0, 0.0]))
        assert instanton_classify(F, model)["label"] == "SD"

    def test_wrong_degree_rejected(self, su2, model):
        with pytest.raises(ValueError):
            instanton_classify(GValuedForm(su2, 1), model)


# ---------------------------------------------------------------------------
# Realized embedding constants
# ---------------------------------------------------------------------------


class TestEmbeddingConstants:
    @pytest.mark.parametrize("maker", [make_su, make_so])
    def test_frozen_values(self, maker, model):
        # oracle for the norm factors between the component and form
        # pictures: |phi + conj(phi)|^2 = 8 |phi|^2, |omega (x) u|^2 =
        # 3 <u, u>, and the two parts are orthogonal, so that
        # <Psi, Psi> = 2 (4 <phi, phi> + 1.5 <u, u>)
        algebra = maker(2) if maker is make_su else maker(3)
        rng = np.random.default_rng(0)
        for _ in range(24):
            section = two_zero_from_v_coefficients(
                algebra, rng.standard_normal((6, algebra.dim))
            )
            realized = gform_from_two_zero(section, with_conjugate=True)
            u = rng.standard_normal(algebra.dim)
            line = gform_from_terms(algebra, 2, [(model.omega, u)])
            phi_sq = section.norm_20() ** 2
            u_sq = inner_vec(algebra, u, u).real
            assert g_norm(realized) ** 2 == pytest.approx(
                8.0 * phi_sq, rel=1e-12
            )
            assert g_norm(line) ** 2 == pytest.approx(3.0 * u_sq, rel=1e-12)
            psi = realized + line
            assert g_inner(psi, psi).real == pytest.approx(
                2.0 * (4.0 * phi_sq + 1.5 * u_sq), rel=1e-12
            )

    def test_section_factor_oracle(self, su2, model):
        # direct check of the norm relation behind the reported factor:
        # realizing a section as a real 2-form multiplies the squared
        # norm by 8
        rng = np.random.default_rng(80)
        b = rng.standard_normal((6, 3))
        section = two_zero_from_v_coefficients(su2, b)
        full = gform_from_two_zero(section, with_conjugate=True)
        ratio = g_norm(full) ** 2 / section.norm_20() ** 2
        assert ratio == pytest.approx(8.0, rel=1e-12)

    def test_line_factor_oracle(self, su2, model):
        rng = np.random.default_rng(81)
        u = rng.standard_normal(3)
        F = gform_from_terms(su2, 2, [(model.omega, u)])
        u_sq = inner_vec(su2, u, u).real
        assert g_norm(F) ** 2 == pytest.approx(3.0 * u_sq, rel=1e-12)


# ---------------------------------------------------------------------------
# Interplay with the scalar decomposition
# ---------------------------------------------------------------------------


class TestScalarConsistency:
    def test_w_realization_sits_in_plus_one_block(self, su2, model):
        rng = np.random.default_rng(90)
        a = rng.standard_normal((8, 3))
        F = gform_from_w_coefficients(su2, a)
        for column in F.to_matrix().T:
            if not np.any(column):
                continue
            form = KForm(2, dict(zip(basis_keys(2), column)))
            parts = project(form, model).as_dict()
            assert (parts["8"] - form).norm() <= 1e-12 * form.norm()
