"""Tests for the second-variation stability analysis on 1-form sections.

The curvature coupling is checked against a hand-evaluated decomposable
case and a brute-force double sum, the spectral lower bound against the
analytic norm estimate, and the torsion residuals against hand-computed
wedge products.
"""

import numpy as np
import pytest

from artifact.flat_model import calibrate_model, standard_two_form_families
from artifact.gauge_fields import (
    GValuedForm,
    g_norm,
    gform_from_w_coefficients,
)
from artifact.lie_algebra import (
    BRACKET_NORM_BOUND,
    bracket_vec,
    inner_vec,
    make_abelian,
    make_so,
    make_su,
    norm_vec,
)
from artifact.ym_stability import (
    FORM_INDEX_COUNT,
    INCONCLUSIVE,
    STABLE_SUFFICIENT,
    OneFormSection,
    RicciTensor7,
    algebraic_second_variation,
    apply_curvature_action,
    curvature_action_oneforms,
    curvature_components_grid,
    curvature_grid_norms,
    curvature_quad_paths,
    stability_report,
    torsion_residuals,
)
from oracle_routes import gform_from_terms, vector_at


@pytest.fixture(scope="module")
def model():
    return calibrate_model()


@pytest.fixture(scope="module")
def su2():
    return make_su(2)


@pytest.fixture(scope="module")
def so3():
    return make_so(3)


def random_oneform(algebra, rng):
    return OneFormSection(
        algebra, rng.standard_normal((FORM_INDEX_COUNT, algebra.dim))
    )


def random_sd_curvature(algebra, rng, scale=1.0):
    a = scale * rng.standard_normal((8, algebra.dim))
    return gform_from_w_coefficients(algebra, a)


def curvature_quad_bound_check(F, section) -> tuple:
    """Oracle: ``|<R_F B, B>| <= sqrt(2) ||F|| ||B||^2`` on one sample.

    ``||F||`` is the form norm and the constant the sharp commutator
    bound.  Returns whether the bound holds and the realized ratio
    ``|<R_F B, B>| / (||F|| ||B||^2)``.
    """
    quad = abs(curvature_quad_paths(F, section)["pair_with_section"])
    section_sq = sum(
        inner_vec(section.algebra, row, row).real for row in section.vectors
    )
    scale = g_norm(F) * section_sq
    holds = quad <= BRACKET_NORM_BOUND * scale * (1.0 + 1e-12) + 1e-12
    return holds, quad / scale if scale > 0.0 else 0.0


# ---------------------------------------------------------------------------
# Containers
# ---------------------------------------------------------------------------


class TestOneFormSection:
    def test_shape_enforced(self, su2):
        with pytest.raises(ValueError):
            OneFormSection(su2, np.zeros((6, 3)))
        with pytest.raises(ValueError):
            OneFormSection(su2, np.zeros((7, 2)))

    def test_real_coefficients_enforced(self, su2):
        bad = np.zeros((7, 3), dtype=complex)
        bad[0, 0] = 1.0j
        with pytest.raises(ValueError):
            OneFormSection(su2, bad)

    def test_norm_uses_algebra_gram(self, so3):
        rows = np.zeros((7, 3))
        rows[0] = [1.0, 0.0, 0.0]
        rows[4] = [0.0, 2.0, 0.0]
        section = OneFormSection(so3, rows)
        # so(3) Killing weights each coefficient by 2
        norms = norm_vec(so3, section.vectors)
        assert norms[0] == pytest.approx(np.sqrt(2.0))
        assert norms[4] == pytest.approx(2.0 * np.sqrt(2.0))
        assert np.linalg.norm(norms) == pytest.approx(np.sqrt(2.0 * 5.0))


class TestRicciTensor7:
    def test_einstein_default(self):
        ric = RicciTensor7.einstein()
        assert np.array_equal(ric.matrix, 6.0 * np.eye(7))
        assert ric.min_eigenvalue() == pytest.approx(6.0)

    def test_from_diagonal_and_entry(self):
        ric = RicciTensor7(np.diag([1, 2, 3, 4, 5, 6, 7]))
        assert ric.matrix[2, 2] == 3.0
        assert ric.matrix[0, 1] == 0.0
        assert ric.min_eigenvalue() == pytest.approx(1.0)

    def test_symmetry_enforced(self):
        bad = np.zeros((7, 7))
        bad[0, 1] = 1.0
        with pytest.raises(ValueError):
            RicciTensor7(bad)

    def test_shape_enforced(self):
        with pytest.raises(ValueError):
            RicciTensor7(np.eye(6))


# ---------------------------------------------------------------------------
# The curvature coupling on 1-forms
# ---------------------------------------------------------------------------


class TestCurvatureCoupling:
    def test_grid_is_antisymmetric(self, su2, model):
        rng = np.random.default_rng(10)
        F = random_sd_curvature(su2, rng)
        grid = curvature_components_grid(F)
        assert grid.shape == (7, 7, 3)
        for j in range(7):
            assert np.allclose(grid[j, j], 0.0)
            for i in range(7):
                assert np.allclose(grid[j, i], -grid[i, j])

    def test_grid_norm_doubles_form_norm(self, su2):
        # every unordered key appears twice in the grid
        rng = np.random.default_rng(11)
        F = random_sd_curvature(su2, rng)
        norms = curvature_grid_norms(F)
        assert np.allclose(norms, norms.T)
        assert float(np.linalg.norm(norms)) == pytest.approx(
            np.sqrt(2.0) * g_norm(F)
        )

    def test_wrong_degree_rejected(self, su2):
        with pytest.raises(ValueError):
            curvature_components_grid(GValuedForm(su2, 1))

    def test_decomposable_oracle(self, so3):
        # F = e^{12} (x) a sends B to rows
        # (R_F B)_1 = [F_21, B_2] = -[a, B_2],  (R_F B)_2 = [a, B_1]
        a = np.array([0.0, 0.0, 1.0])
        F = GValuedForm(so3, 2)
        F.accumulate((1, 2), a)
        rng = np.random.default_rng(12)
        section = random_oneform(so3, rng)
        out = apply_curvature_action(F, section)
        assert np.allclose(
            out.vectors[0], -bracket_vec(so3, a, section.vectors[1]).real
        )
        assert np.allclose(
            out.vectors[1], bracket_vec(so3, a, section.vectors[0]).real
        )
        for i in range(2, 7):
            assert np.allclose(out.vectors[i], 0.0)

    def test_matrix_route_matches_section_route(self, su2):
        rng = np.random.default_rng(13)
        for _ in range(20):
            F = random_sd_curvature(su2, rng)
            section = random_oneform(su2, rng)
            matrix = curvature_action_oneforms(F)
            left = matrix @ section.vectors.reshape(-1)
            right = apply_curvature_action(F, section).vectors.reshape(-1)
            scale = max(float(np.max(np.abs(left))), 1.0)
            assert np.max(np.abs(left - right)) <= 1e-12 * scale

    def test_action_is_linear_in_curvature(self, su2):
        rng = np.random.default_rng(14)
        F1 = random_sd_curvature(su2, rng)
        F2 = random_sd_curvature(su2, rng)
        combined = curvature_action_oneforms(F1 + F2 * 2.0)
        assert np.allclose(
            combined,
            curvature_action_oneforms(F1)
            + 2.0 * curvature_action_oneforms(F2),
        )

    def test_abelian_action_vanishes(self):
        ab = make_abelian(2)
        rng = np.random.default_rng(15)
        a = rng.standard_normal((8, 2))
        F = gform_from_w_coefficients(ab, a)
        assert np.max(np.abs(curvature_action_oneforms(F))) == 0.0

    def test_imaginary_curvature_rejected(self, su2):
        # the reality check reads the coefficients: an imaginary part above
        # the tolerance raises, one below it leaves the real action as is
        rng = np.random.default_rng(20)
        F = random_sd_curvature(su2, rng)
        scale = np.max(np.abs(F.matrix))
        for size, raises in ((1e-6, True), (1e-9, True), (1e-12, False)):
            noise = size * scale * rng.standard_normal(F.matrix.shape)
            noisy = GValuedForm.from_matrix(su2, 2, F.matrix + 1j * noise)
            if raises:
                with pytest.raises(
                    ValueError, match="curvature action matrix must be real"
                ):
                    curvature_action_oneforms(noisy)
            else:
                assert np.array_equal(
                    curvature_action_oneforms(noisy),
                    curvature_action_oneforms(F),
                )

    def test_action_self_adjoint_in_weight(self, su2):
        rng = np.random.default_rng(16)
        F = random_sd_curvature(su2, rng)
        matrix = curvature_action_oneforms(F)
        # the invariant inner product is c times the plain one, so the
        # action is self-adjoint when its matrix is symmetric
        assert np.max(np.abs(matrix - matrix.T)) <= 1e-12

    def test_quad_paths_agree(self, su2, so3):
        rng = np.random.default_rng(17)
        for algebra in (su2, so3):
            for _ in range(20):
                F = random_sd_curvature(algebra, rng)
                section = random_oneform(algebra, rng)
                paths = curvature_quad_paths(F, section)
                scale = max(abs(paths["pair_with_section"]), 1.0)
                assert paths["agreement"] <= 1e-10 * scale

    def test_quad_brute_force(self, so3):
        # fully written out double sum, no shared code with the package
        rng = np.random.default_rng(18)
        F = random_sd_curvature(so3, rng)
        section = random_oneform(so3, rng)
        total = 0.0
        for i in range(1, 8):
            acc = np.zeros(3, dtype=complex)
            for j in range(1, 8):
                if j != i:
                    acc += bracket_vec(
                        so3, vector_at(F, j, i), section.vectors[j - 1]
                    )
            total += inner_vec(so3, acc, section.vectors[i - 1]).real
        paths = curvature_quad_paths(F, section)
        assert total == pytest.approx(paths["pair_with_section"], rel=1e-12)

    def test_quad_bound_holds_on_samples(self, su2, so3):
        so5 = make_so(5)
        rng = np.random.default_rng(19)
        for algebra in (su2, so3, so5):
            worst = 0.0
            for _ in range(30):
                F = random_sd_curvature(algebra, rng)
                section = random_oneform(algebra, rng)
                holds, ratio = curvature_quad_bound_check(F, section)
                assert holds
                worst = max(worst, ratio)
            assert worst <= BRACKET_NORM_BOUND + 1e-12


# ---------------------------------------------------------------------------
# The algebraic second variation
# ---------------------------------------------------------------------------


class TestSecondVariation:
    def test_zero_curvature_reduces_to_ricci(self, su2):
        ric = RicciTensor7(np.diag([1, 2, 3, 4, 5, 6, 7]))
        out = algebraic_second_variation(GValuedForm(su2, 2), ric)
        assert np.allclose(out["matrix"], np.kron(ric.matrix, np.eye(3)))
        assert out["min_eigenvalue"] == pytest.approx(1.0)
        assert out["certified_stable"]

    def test_matrix_assembly(self, su2):
        rng = np.random.default_rng(30)
        F = random_sd_curvature(su2, rng)
        ric = RicciTensor7.einstein(6.0)
        out = algebraic_second_variation(F, ric)
        expected = np.kron(ric.matrix, np.eye(3)) + 2.0 * out["coupling"]
        assert np.allclose(out["matrix"], expected)
        assert np.allclose(out["coupling"], curvature_action_oneforms(F))

    def test_spectrum_respects_analytic_lower_bound(self, su2, so3):
        # m >= c - 2 sqrt(2) ||F|| for every sample
        rng = np.random.default_rng(31)
        for algebra in (su2, so3):
            for _ in range(20):
                F = random_sd_curvature(algebra, rng)
                c = 6.0
                out = algebraic_second_variation(
                    F, RicciTensor7.einstein(c)
                )
                lower = c - 2.0 * BRACKET_NORM_BOUND * g_norm(F)
                assert out["min_eigenvalue"] >= lower - 1e-10

    def test_quadratic_form_matches_components(self, su2):
        # <V B, B> = <B o Ric, B> + 2 <R_F B, B> in the invariant product
        rng = np.random.default_rng(32)
        F = random_sd_curvature(su2, rng)
        ric = RicciTensor7(np.diag([1, 2, 3, 4, 5, 6, 7]))
        out = algebraic_second_variation(F, ric)
        section = random_oneform(su2, rng)
        stacked = section.vectors.reshape(-1)
        quad = float(np.real(
            su2.inner_scale * (out["matrix"] @ stacked) @ np.conj(stacked)
        ))
        ricci_part = sum(
            ric.matrix[i - 1, i - 1]
            * inner_vec(
                su2, section.vectors[i - 1], section.vectors[i - 1]
            ).real
            for i in range(1, 8)
        )
        coupling_part = curvature_quad_paths(F, section)["pair_with_section"]
        assert quad == pytest.approx(ricci_part + 2.0 * coupling_part)

    def test_small_curvature_certified(self, su2):
        rng = np.random.default_rng(33)
        F = random_sd_curvature(su2, rng, scale=0.01)
        out = algebraic_second_variation(F, RicciTensor7.einstein(6.0))
        assert out["certified_stable"]


# ---------------------------------------------------------------------------
# Torsion residuals
# ---------------------------------------------------------------------------


class TestTorsion:
    def test_self_dual_curvature_has_no_torsion(self, su2, model):
        rng = np.random.default_rng(40)
        F = random_sd_curvature(su2, rng)
        out = torsion_residuals(F, model)
        assert out["six_form_residual"] <= 1e-12 * g_norm(F)
        assert out["seven_form_residual"] <= 1e-12 * g_norm(F)

    def test_anti_self_dual_also_vanishes(self, su2, model):
        rng = np.random.default_rng(41)
        b = rng.standard_normal((6, 3))
        v_family = standard_two_form_families()["v"]
        F = gform_from_terms(su2, 2, list(zip(v_family, b)))
        out = torsion_residuals(F, model)
        assert out["six_form_residual"] <= 1e-12 * g_norm(F)
        assert out["seven_form_residual"] <= 1e-12 * g_norm(F)

    def test_contact_line_sees_torsion(self, so3, model):
        # omega ^ omega ^ omega = 6 e^{123456}, so both residuals come
        # out as 6 ||u||
        u = np.array([1.0, 0.0, 0.0])
        F = gform_from_terms(so3, 2, [(model.omega, u)])
        out = torsion_residuals(F, model)
        expected = 6.0 * norm_vec(so3, u)
        assert out["six_form_residual"] == pytest.approx(expected)
        assert out["seven_form_residual"] == pytest.approx(expected)

    def test_vertical_component_sees_partial_torsion(self, so3, model):
        # e^{17} ^ omega^2 keeps one 6-form term of size 2 ||u||; the
        # wedge with the contact form kills it
        u = np.array([1.0, 0.0, 0.0])
        F = GValuedForm(so3, 2)
        F.accumulate((1, 7), u)
        out = torsion_residuals(F, model)
        assert out["six_form_residual"] == pytest.approx(
            2.0 * norm_vec(so3, u)
        )
        assert out["seven_form_residual"] <= 1e-14


# ---------------------------------------------------------------------------
# The stability verdict
# ---------------------------------------------------------------------------


class TestStabilityReport:
    def test_small_curvature_is_stable(self, su2, model):
        rng = np.random.default_rng(50)
        F = random_sd_curvature(su2, rng, scale=0.01)
        out = stability_report(F, RicciTensor7.einstein(6.0), model)
        assert out["verdict"] == STABLE_SUFFICIENT
        assert out["reason"] == "curvature norm below the Ricci threshold"
        assert out["threshold"] == pytest.approx(6.0 / (2.0 * np.sqrt(2.0)))
        assert out["classification"] == "SD"
        assert out["certified_stable"]

    def test_nonpositive_ricci_inconclusive(self, su2, model):
        rng = np.random.default_rng(51)
        F = random_sd_curvature(su2, rng, scale=0.01)
        ric = RicciTensor7(np.diag([-1, 6, 6, 6, 6, 6, 6]))
        out = stability_report(F, ric, model)
        assert out["verdict"] == INCONCLUSIVE
        assert out["reason"] == "smallest Ricci eigenvalue is not positive"

    def test_large_curvature_inconclusive(self, su2, model):
        rng = np.random.default_rng(52)
        F = random_sd_curvature(su2, rng)
        c = 6.0
        threshold = c / (2.0 * np.sqrt(2.0))
        scaled = F * (1.01 * threshold / g_norm(F))
        out = stability_report(scaled, RicciTensor7.einstein(c), model)
        assert out["verdict"] == INCONCLUSIVE
        assert out["reason"] == "curvature norm reaches the Ricci threshold"
        # the spectral certificate can still decide; it is reported
        assert "min_eigenvalue" in out
        assert "certified_stable" in out

    def test_analytic_lower_bound_reported(self, su2, model):
        rng = np.random.default_rng(53)
        F = random_sd_curvature(su2, rng, scale=0.1)
        c = 6.0
        out = stability_report(F, RicciTensor7.einstein(c), model)
        assert out["analytic_lower_bound"] == pytest.approx(
            c - 2.0 * np.sqrt(2.0) * g_norm(F)
        )
        assert out["min_eigenvalue"] >= out["analytic_lower_bound"] - 1e-10

    def test_grid_norm_reported(self, su2, model):
        rng = np.random.default_rng(54)
        F = random_sd_curvature(su2, rng, scale=0.1)
        out = stability_report(F, RicciTensor7.einstein(6.0), model)
        assert out["grid_norm"] == pytest.approx(np.sqrt(2.0) * g_norm(F))

    def test_torsion_included_for_self_dual(self, su2, model):
        rng = np.random.default_rng(55)
        F = random_sd_curvature(su2, rng, scale=0.1)
        out = stability_report(F, RicciTensor7.einstein(6.0), model)
        assert out["torsion"]["six_form_residual"] <= 1e-12

    def test_mixed_curvature_labeled_none(self, su2, model):
        rng = np.random.default_rng(56)
        F = random_sd_curvature(su2, rng, scale=0.01)
        F.accumulate((1, 7), np.array([0.005, 0.0, 0.0]))
        out = stability_report(F, RicciTensor7.einstein(6.0), model)
        assert out["classification"] == "NONE"
        assert out["torsion"]["six_form_residual"] > 0.0
