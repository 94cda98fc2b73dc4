"""Tests for the invariant instanton example on the Stiefel 7-manifold.

The example's numbers are rigid: the curvature coefficient, its norms,
the sign witnesses, and the structural facts about the fiber algebra
are all exact at the Einstein metric scales, so most assertions here
use exact equality rather than tolerances.  The batched sign search is
checked against the per-sample loop it replaced, kept here as the oracle
route.
"""

import numpy as np
import pytest

from artifact import stiefel_example
from artifact.flat_model import calibrate_model, standard_two_form_families
from artifact.gauge_fields import (
    f_components_from_gform,
    g_norm,
    instanton_classify,
    omega_component,
    two_zero_from_v_coefficients,
)
from artifact.lie_algebra import killing_matrix
from artifact.weitzenbock_engine import quad_form_F
from artifact.stiefel_example import (
    SAMPLE_BLOCK,
    SDCI_TOLERANCE,
    STIEFEL_EINSTEIN_Y,
    alpha_curvature,
    build_stiefel,
    gauge_algebra,
    indefiniteness_search,
    sdci_verify,
    stiefel_report,
    structure_check,
)
from oracle_routes import gform_from_terms, vector_at


@pytest.fixture(scope="module")
def model():
    return calibrate_model()


@pytest.fixture(scope="module")
def spec():
    return build_stiefel()


@pytest.fixture(scope="module")
def report(model):
    return stiefel_report(model=model, seed=0, samples=50)


# ---------------------------------------------------------------------------
# Spec construction
# ---------------------------------------------------------------------------


class TestSpec:
    def test_einstein_values(self):
        assert STIEFEL_EINSTEIN_Y == (9.0 / 16.0, 3.0 / 8.0, 3.0 / 8.0)

    def test_default_is_einstein(self, spec):
        assert spec.einstein
        assert spec.y == STIEFEL_EINSTEIN_Y

    def test_other_scales_are_not_einstein(self):
        assert not build_stiefel(1.0, 1.0, 1.0).einstein

    def test_positive_scales_enforced(self):
        with pytest.raises(ValueError):
            build_stiefel(0.0, 1.0, 1.0)
        with pytest.raises(ValueError):
            build_stiefel(1.0, -0.5, 1.0)

    def test_split_enumerates_algebra(self, spec):
        assert sorted(spec.split_indices()) == list(range(1, 11))
        assert spec.algebra.dim == 10


# ---------------------------------------------------------------------------
# Structural facts
# ---------------------------------------------------------------------------


class TestStructure:
    def test_gauge_algebra_gram_exact(self, spec):
        gauge = gauge_algebra(spec)
        assert gauge.dim == 3
        assert gauge.inner_scale == 6.0
        # the ambient Killing form on the fiber span, from the structure
        # constants of so(5)
        ambient = -killing_matrix(spec.algebra.structure)[7:, 7:]
        assert np.array_equal(ambient, 6.0 * np.eye(3))

    def test_fiber_brackets_cyclic_exact(self, spec):
        gauge = gauge_algebra(spec)
        for a, b, c in ((0, 1, 2), (1, 2, 0), (2, 0, 1)):
            row = gauge.structure[a, b]
            expected = np.zeros(3)
            expected[c] = 1.0
            assert np.array_equal(row, expected)

    def test_structure_check_report(self, spec):
        out = structure_check(spec)
        assert out["split_sizes"] == (1, 3, 3, 3)
        assert out["split_total"] == 10
        assert out["split_complete"]
        assert out["fiber_brackets_exact"]
        assert out["fiber_gram_exact"]
        assert out["einstein"]

    def test_fiber_matches_parent_slice(self, spec):
        gauge = gauge_algebra(spec)
        parent = spec.algebra
        idx = [k - 1 for k in spec.fiber]
        for a in range(3):
            for b in range(3):
                parent_row = parent.structure[idx[a], idx[b]][idx]
                assert np.allclose(gauge.structure[a, b], parent_row)


# ---------------------------------------------------------------------------
# The invariant curvature
# ---------------------------------------------------------------------------


class TestCurvature:
    def test_coefficient_is_inverse_second_scale(self, spec, model):
        F = alpha_curvature(spec)
        # the coefficient 1/y2 = 8/3 sits on the key (1, 3) of the first
        # self-dual generator, carried by the first fiber direction
        vec = vector_at(F, 1, 3)
        assert vec[0] == pytest.approx(8.0 / 3.0)
        assert vec[1] == 0.0 and vec[2] == 0.0

    def test_form_norm_scales_inversely(self, model):
        # ||F|| = 6 / y2: three generators of squared norm 2 carrying
        # unit fiber vectors of squared norm 6
        for y2, expected in ((3.0 / 8.0, 16.0), (1.0, 6.0), (2.0, 3.0)):
            spec = build_stiefel(1.0, y2, 1.0)
            F = alpha_curvature(spec)
            assert g_norm(F) == pytest.approx(expected)

    def test_component_frobenius(self, spec, model):
        F = alpha_curvature(spec)
        fc = f_components_from_gform(F)
        from artifact.gauge_fields import f_component_norm_matrix

        assert float(
            np.linalg.norm(f_component_norm_matrix(fc))
        ) == pytest.approx(8.0)

    def test_classifies_self_dual(self, spec, model):
        F = alpha_curvature(spec)
        assert instanton_classify(F, model)["label"] == "SD"

    def test_no_contact_component(self, spec, model):
        F = alpha_curvature(spec)
        assert np.max(np.abs(omega_component(F, model))) <= 1e-15


# ---------------------------------------------------------------------------
# Self-dual certification
# ---------------------------------------------------------------------------


class TestSdci:
    def test_passes_at_tight_tolerance(self, spec, model):
        out = sdci_verify(spec, model)
        assert out["passed"]
        assert out["label"] == "SD"
        assert out["curvature_norm"] == pytest.approx(16.0)
        assert out["tolerance"] == pytest.approx(SDCI_TOLERANCE * 16.0)
        assert out["worst_residual"] <= out["tolerance"]
        assert out["omega_pairing"] <= out["tolerance"]
        assert out["component_trace"] <= out["tolerance"]

    def test_passes_away_from_einstein(self, model):
        out = sdci_verify(build_stiefel(1.0, 2.0, 0.5), model)
        assert out["passed"]


# ---------------------------------------------------------------------------
# Indefiniteness witnesses
# ---------------------------------------------------------------------------


class TestIndefiniteness:
    def test_analytic_witnesses_exact(self, spec):
        out = indefiniteness_search(spec, seed=0, samples=10)
        plus = out["analytic"]["plus"]
        minus = out["analytic"]["minus"]
        assert plus["quad"] == 4.0
        assert minus["quad"] == -4.0
        assert plus["doubled"] == 8.0
        assert minus["doubled"] == -8.0
        assert plus["expansion"] == 16.0
        assert minus["expansion"] == -16.0
        assert plus["display"] == 6.0
        assert minus["display"] == -6.0
        assert out["indefinite"]

    def test_display_value_is_scale_invariant(self):
        # display = y2 * expansion and expansion = 6 / y2 exactly, so
        # the displayed pairing stays 6 at every metric scale
        for y2 in (3.0 / 8.0, 1.0, 2.0):
            out = indefiniteness_search(
                build_stiefel(1.0, y2, 1.0), seed=0, samples=1
            )
            assert out["analytic"]["plus"]["display"] == pytest.approx(6.0)

    def test_witness_rows_recorded(self, spec):
        out = indefiniteness_search(spec, seed=0, samples=1)
        rows = np.asarray(out["analytic"]["plus"]["rows"])
        assert rows.shape == (6, 3)
        assert rows[2, 1] == 1.0
        assert rows[4, 2] == 1.0
        assert np.count_nonzero(rows) == 2

    def test_random_search_finds_both_signs(self, spec):
        out = indefiniteness_search(spec, seed=0, samples=50)
        assert out["random"]["best_positive"] > 0.0
        assert out["random"]["best_negative"] < 0.0

    def test_search_is_deterministic(self, spec):
        first = indefiniteness_search(spec, seed=7, samples=25)
        second = indefiniteness_search(spec, seed=7, samples=25)
        assert first == second

    def test_sample_count_enforced(self, spec):
        with pytest.raises(ValueError):
            indefiniteness_search(spec, samples=0)


def _oracle_quads(spec, seed, samples):
    """Per-sample draws and quadratic forms, one section at a time."""
    F = alpha_curvature(spec)
    gauge = F.algebra
    fc = f_components_from_gform(F)
    rng = np.random.default_rng(seed)
    quads = []
    for _ in range(samples):
        rows = rng.normal(size=(6, gauge.dim))
        section = two_zero_from_v_coefficients(gauge, rows)
        quads.append(quad_form_F(fc, section))
    return quads


def _oracle_random(seed, quads):
    """The per-sample loop of the random sign search, kept as the oracle."""
    best_positive = 0.0
    best_negative = 0.0
    for quad in quads:
        best_positive = max(best_positive, quad)
        best_negative = min(best_negative, quad)
    return {
        "seed": seed,
        "samples": len(quads),
        "best_positive": best_positive,
        "best_negative": best_negative,
    }


class TestBatchedSearchOracle:
    # the fiber algebra has structure constants 0 and +-1 and Gram matrix
    # 6 I, and each real curvature component has one nonzero entry, so
    # every contraction sums at most two nonzero terms and the batched
    # values equal the per-sample ones exactly

    @pytest.fixture(scope="class")
    def oracle_quads(self, spec):
        return {
            seed: _oracle_quads(spec, seed, SAMPLE_BLOCK + 1)
            for seed in (0, 3, 2024)
        }

    @pytest.mark.parametrize("seed", [0, 3, 2024])
    @pytest.mark.parametrize(
        "samples", [1, 2, SAMPLE_BLOCK - 1, SAMPLE_BLOCK, SAMPLE_BLOCK + 1]
    )
    def test_matches_per_sample_loop(self, spec, oracle_quads, seed, samples):
        got = indefiniteness_search(spec, seed=seed, samples=samples)
        want = _oracle_random(seed, oracle_quads[seed][:samples])
        assert got["random"] == want

    def test_matches_away_from_einstein(self):
        spec = build_stiefel(1.0, 2.0, 0.5)
        got = indefiniteness_search(spec, seed=9, samples=300)
        quads = _oracle_quads(spec, 9, 300)
        assert got["random"] == _oracle_random(9, quads)

    def test_search_independent_of_block_size(self, spec):
        samples = SAMPLE_BLOCK + 100
        whole = indefiniteness_search(spec, seed=4, samples=samples)
        for block in (7, 97, 1000):
            with pytest.MonkeyPatch.context() as mp:
                mp.setattr(stiefel_example, "SAMPLE_BLOCK", block)
                assert indefiniteness_search(
                    spec, seed=4, samples=samples
                ) == whole

    @pytest.mark.parametrize("seed", [0, 17])
    def test_block_draws_read_the_sequential_stream(self, seed):
        sequential = np.random.default_rng(seed)
        one_by_one = np.stack(
            [sequential.normal(size=(6, 3)) for _ in range(50)]
        )
        blocks = np.random.default_rng(seed)
        assert np.array_equal(one_by_one, blocks.normal(size=(50, 6, 3)))
        # a split stream continues where the previous block stopped
        split = np.random.default_rng(seed)
        parts = [split.normal(size=(n, 6, 3)) for n in (20, 1, 29)]
        assert np.array_equal(one_by_one, np.concatenate(parts))


# ---------------------------------------------------------------------------
# Perturbed curvatures
# ---------------------------------------------------------------------------


class TestPerturbations:
    def test_anti_self_dual_admixture_breaks_the_label(self, spec, model):
        F = alpha_curvature(spec)
        gauge = F.algebra
        rows = np.zeros((6, 3))
        rows[0, 0] = 0.1
        v_family = standard_two_form_families()["v"]
        bad = F + gform_from_terms(gauge, 2, list(zip(v_family, rows)))
        assert instanton_classify(bad, model)["label"] == "NONE"

    def test_contact_admixture_shows_in_pairing(self, spec, model):
        F = alpha_curvature(spec)
        gauge = F.algebra
        u = np.array([0.0, 1.0, 0.0])
        for eps in (1e-3, 1e-2, 1e-1):
            bumped = F + gform_from_terms(
                gauge, 2, [(model.omega, eps * u)]
            )
            out = omega_component(bumped, model)
            assert np.allclose(out, eps * u, atol=1e-15)


# ---------------------------------------------------------------------------
# The end-to-end report
# ---------------------------------------------------------------------------


class TestStiefelReport:
    def test_verdicts(self, report):
        assert report["verdicts"]["sdci"] == "PASS"
        assert report["verdicts"]["f_indefinite"] is True
        assert report["verdicts"]["vanishing"] == "VANISHES"
        assert report["verdicts"]["stability"] == "INCONCLUSIVE"

    def test_spec_block(self, report):
        assert report["spec"]["einstein"]
        assert report["spec"]["curvature_coefficient"] == pytest.approx(
            8.0 / 3.0
        )

    def test_curvature_numbers(self, report):
        assert report["curvature"]["form_norm"] == pytest.approx(16.0)
        assert report["curvature"]["component_frobenius"] == pytest.approx(
            8.0
        )
        assert report["curvature"]["fiber_norms"] == pytest.approx(
            [np.sqrt(6.0)] * 3
        )

    def test_vanishing_block(self, report):
        vanishing = report["vanishing"]
        assert vanishing["verdict"] == "VANISHES"
        assert vanishing["lambda_min"] == pytest.approx(16.0)
        # component Frobenius 8 sits below the threshold 16 / sqrt(2)
        assert vanishing["norms"]["component_frobenius"] < vanishing[
            "thresholds"
        ]["component_frobenius"]
        assert vanishing["energy_bound_holds"]

    def test_stability_block(self, report):
        stability = report["stability"]
        assert stability["verdict"] == "INCONCLUSIVE"
        assert stability["reason"] == (
            "curvature norm reaches the Ricci threshold"
        )
        assert stability["classification"] == "SD"
        assert stability["torsion"]["six_form_residual"] <= 1e-12

    def test_report_is_deterministic(self, model):
        first = stiefel_report(model=model, seed=3, samples=20)
        second = stiefel_report(model=model, seed=3, samples=20)
        assert first == second

    def test_report_calls_public_entry_points(self, model, monkeypatch):
        calls = {"sdci_verify": 0, "indefiniteness_search": 0}
        for name in calls:
            original = getattr(stiefel_example, name)

            def counted(*args, _original=original, _name=name, **kwargs):
                calls[_name] += 1
                return _original(*args, **kwargs)

            monkeypatch.setattr(stiefel_example, name, counted)
        shared = stiefel_report(model=model, seed=3, samples=20)
        assert calls == {"sdci_verify": 1, "indefiniteness_search": 1}
        spec = build_stiefel()
        assert shared["sdci"] == sdci_verify(spec, model)
        assert shared["indefiniteness"] == indefiniteness_search(
            spec, seed=3, samples=20
        )
