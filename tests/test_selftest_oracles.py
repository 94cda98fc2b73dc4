"""The stacked selftest suites against their sample-by-sample oracles.

The suites of ``artifact.selftest.SUITES`` draw their samples as one
stack and run both routes of each check as array operations over the
sample axis.  The loop suites below are the labelled oracles: each is
the suite as it was before the batching, one sample and one Python-level
call at a time, through the per-sample functions (the entry-form bracket
of ``oracle_routes``, ``quad_form_F``, the symbol tables of
``complex_components``, ...).
``oracle_bracket_norm_check`` is the loop form of
``lie_algebra.bracket_norm_check``.

Both must give the same verdicts, counts and sample numbers, and residuals
within 1e-12, over random seeds and over sample counts at and around each
cap.  A mutation of one route per suite shows that the stacked checks can
fail.
"""

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

import artifact.selftest as selftest
import artifact.weitzenbock_engine as weitzenbock_engine
import artifact.ym_stability as ym_stability
from artifact.flat_model import KForm, calibrate_model
from artifact.form_decomposition import complex_components
from artifact.gauge_fields import (
    GValuedForm,
    f_components_from_gform,
    g_norm,
    g_wedge_bracket,
    gform_complex_components,
    gform_from_complex_components,
    gform_from_w_coefficients,
    two_zero_from_v_coefficients,
    w_coefficients_from_gform,
)
from artifact.lie_algebra import (
    BRACKET_NORM_BOUND,
    bracket_norm_check,
    bracket_vec,
    bracket_via_matrices,
    inner_vec,
    killing_matrix,
    make_so,
    make_su,
    norm_vec,
    subalgebra_spec,
)
from artifact.weitzenbock_engine import (
    TransverseRicci,
    V_QUAD_TO_OPERATOR_FACTOR,
    apply_F_xi_path,
    build_F_operator_from_components,
    build_R_operator,
    estimate_bound_check,
    quad_form_F,
    v_basis_quad_form,
)
from artifact.ym_stability import (
    OneFormSection,
    RicciTensor7,
    algebraic_second_variation,
    curvature_grid_norms,
    curvature_quad_paths,
)
from oracle_routes import (
    from_complex_components,
    g_wedge_bracket_entry_path,
)

MODEL = calibrate_model()


# ---------------------------------------------------------------------------
# Oracle: the loop suites, one sample at a time
# ---------------------------------------------------------------------------


def oracle_bracket_norm_check(spec, samples=1000, seed=0, tol=1e-9):
    """Loop form of ``bracket_norm_check``: one ratio per drawn pair."""
    rng = np.random.default_rng(seed)
    d = spec.dim
    max_ratio = 0.0
    for _ in range(samples):
        u = rng.standard_normal(d)
        v = rng.standard_normal(d)
        if rng.random() < 0.5:
            u = u + 1j * rng.standard_normal(d)
            v = v + 1j * rng.standard_normal(d)
        nu = norm_vec(spec, u)
        nv = norm_vec(spec, v)
        if nu == 0.0 or nv == 0.0:
            continue
        ratio = norm_vec(spec, bracket_vec(spec, u, v)) / (nu * nv)
        max_ratio = max(max_ratio, ratio)
    for i in range(d):
        for j in range(d):
            u = np.zeros(d)
            v = np.zeros(d)
            u[i] = 1.0
            v[j] = 1.0
            nu = norm_vec(spec, u)
            nv = norm_vec(spec, v)
            ratio = norm_vec(spec, bracket_vec(spec, u, v)) / (nu * nv)
            max_ratio = max(max_ratio, ratio)
    return {
        "max_ratio": max_ratio,
        "passed": max_ratio <= BRACKET_NORM_BOUND + tol,
        "samples": samples,
    }


def oracle_bidegree_roundtrip(model, seed, samples, tol) -> dict:
    rng = np.random.default_rng(seed + 1)
    worst = 0.0
    for _ in range(min(samples, 200)):
        form = KForm.from_vector(2, rng.standard_normal(21))
        table = complex_components(form)
        back = from_complex_components(table, 2)
        worst = max(
            worst,
            float(np.max(np.abs(back.to_vector() - form.to_vector()))),
        )
    return {"passed": bool(worst <= 1e-12), "worst_residual": worst}


def oracle_lie_dual_path(model, seed, samples, tol) -> dict:
    rng = np.random.default_rng(seed + 2)
    specs = [make_so(3), make_su(2), make_su(2, inner="trace"), make_so(5)]
    worst_bracket = 0.0
    worst_invariance = 0.0
    for spec in specs:
        for _ in range(min(samples, 100)):
            u = rng.standard_normal(spec.dim)
            v = rng.standard_normal(spec.dim)
            a = bracket_vec(spec, u, v)
            b = bracket_via_matrices(spec, u, v)
            worst_bracket = max(
                worst_bracket, float(np.max(np.abs(a - b)))
            )
            w = rng.standard_normal(spec.dim)
            lhs = inner_vec(spec, a, w)
            rhs = -inner_vec(spec, v, bracket_vec(spec, u, w))
            worst_invariance = max(worst_invariance, abs(lhs - rhs))
    fiber = subalgebra_spec(make_so(5), (8, 9, 10))
    ambient = -killing_matrix(make_so(5).structure)[7:, 7:]
    gram_exact = bool(
        np.array_equal(ambient, 6.0 * np.eye(3))
        and fiber.inner_scale == 6.0
    )
    passed = (
        worst_bracket <= 1e-10
        and worst_invariance <= 1e-8
        and gram_exact
    )
    return {
        "passed": bool(passed),
        "worst_bracket_residual": worst_bracket,
        "worst_invariance_residual": worst_invariance,
        "fiber_gram_exact": gram_exact,
    }


def oracle_gauge_roundtrips(model, seed, samples, tol) -> dict:
    rng = np.random.default_rng(seed + 3)
    algebra = make_so(3)
    worst_w = 0.0
    worst_complex = 0.0
    worst_wedge = 0.0
    for _ in range(min(samples, 100)):
        rows = rng.standard_normal((8, algebra.dim))
        F = gform_from_w_coefficients(algebra, rows)
        back = w_coefficients_from_gform(F)
        worst_w = max(worst_w, float(np.max(np.abs(back - rows))))

        table = gform_complex_components(F)
        rebuilt = gform_from_complex_components(algebra, table, 2)
        worst_complex = max(
            worst_complex, float(np.max(np.abs(F.matrix - rebuilt.matrix)))
        )

        phi = GValuedForm(algebra, 1)
        psi = GValuedForm(algebra, 1)
        for i in range(1, 8):
            phi.accumulate((i,), rng.standard_normal(algebra.dim))
            psi.accumulate((i,), rng.standard_normal(algebra.dim))
        lhs = g_wedge_bracket(phi, psi)
        rhs = g_wedge_bracket_entry_path(phi, psi)
        worst_wedge = max(
            worst_wedge, float(np.max(np.abs(lhs.matrix - rhs.matrix)))
        )
    passed = max(worst_w, worst_complex, worst_wedge) <= 1e-10
    return {
        "passed": bool(passed),
        "worst_w_roundtrip": worst_w,
        "worst_complex_roundtrip": worst_complex,
        "worst_wedge_dual_path": worst_wedge,
    }


def oracle_curvature_operator(model, seed, samples, tol) -> dict:
    rng = np.random.default_rng(seed + 4)
    worst_apply = 0.0
    worst_quad = 0.0
    for algebra in (make_su(2), make_so(3)):
        for _ in range(min(samples, 150)):
            a_rows = rng.standard_normal((8, algebra.dim))
            F = gform_from_w_coefficients(algebra, a_rows)
            fc = f_components_from_gform(F)
            endo = build_F_operator_from_components(fc)
            b_rows = rng.standard_normal((6, algebra.dim))
            section = two_zero_from_v_coefficients(algebra, b_rows)

            via_matrix = endo.apply(section)
            via_entries = apply_F_xi_path(fc, section)
            worst_apply = max(
                worst_apply,
                float(
                    np.max(
                        np.abs(
                            via_matrix.phi - via_entries.phi
                        )
                    )
                ),
            )

            q1 = quad_form_F(fc, section)
            q2 = float(endo.quad_bilinear(section).real)
            q3 = (
                v_basis_quad_form(algebra, b_rows, a_rows)
                / V_QUAD_TO_OPERATOR_FACTOR
            )
            worst_quad = max(
                worst_quad, abs(q1 - q2), abs(q1 - q3), abs(q2 - q3)
            )
    passed = max(worst_apply, worst_quad) <= 1e-12 * 100
    return {
        "passed": bool(passed),
        "worst_apply_dual_path": worst_apply,
        "worst_quad_three_way": worst_quad,
    }


def oracle_ricci_operator(model, seed, samples, tol) -> dict:
    rng = np.random.default_rng(seed + 5)
    algebra = make_so(3)
    endo = build_R_operator(TransverseRicci.einstein(8.0), algebra)
    identity_residual = float(
        np.max(np.abs(endo.matrix - 16.0 * np.eye(3 * algebra.dim)))
    )
    worst_diag = 0.0
    pairs = ((1, 2), (1, 3), (2, 3))
    for _ in range(min(samples, 100)):
        values = rng.uniform(0.5, 4.0, size=3)
        ricci = TransverseRicci.from_diagonal(values)
        r_endo = build_R_operator(ricci, algebra)
        rows = rng.standard_normal((6, algebra.dim))
        section = two_zero_from_v_coefficients(algebra, rows)
        quad = float(r_endo.quad(section).real)
        parts = {
            (1, 2): section.phi12,
            (1, 3): section.phi13,
            (2, 3): section.phi23,
        }
        expected = 0.0
        for mu, nu in pairs:
            comp = parts[(mu, nu)]
            norm_sq = float(
                np.real(inner_vec(algebra, comp, comp))
            )
            expected += (values[mu - 1] + values[nu - 1]) * norm_sq
        worst_diag = max(worst_diag, abs(quad - expected))
    passed = identity_residual == 0.0 and worst_diag <= 1e-12 * 100
    return {
        "passed": bool(passed),
        "einstein_identity_residual": identity_residual,
        "worst_diagonal_identity": worst_diag,
    }


def oracle_selfadjointness(model, seed, samples, tol) -> dict:
    rng = np.random.default_rng(seed + 6)
    algebra = make_su(2)
    worst = 0.0
    for _ in range(min(samples, 100)):
        a_rows = rng.standard_normal((8, algebra.dim))
        F = gform_from_w_coefficients(algebra, a_rows)
        fc = f_components_from_gform(F)
        f_endo = build_F_operator_from_components(fc)
        r_endo = build_R_operator(
            TransverseRicci.from_diagonal(rng.uniform(0.5, 4.0, size=3)),
            algebra,
        )
        phi = two_zero_from_v_coefficients(
            algebra, rng.standard_normal((6, algebra.dim))
        )
        psi = two_zero_from_v_coefficients(
            algebra, rng.standard_normal((6, algebra.dim))
        )
        for endo in (f_endo, r_endo):
            worst = max(worst, endo.adjoint_residual(phi, psi))
    return {"passed": bool(worst <= 1e-10 * 100), "worst_residual": worst}


def oracle_estimate_chain(model, seed, samples, tol) -> dict:
    rng = np.random.default_rng(seed + 7)
    failures = 0
    max_ratio = 0.0
    for algebra in (make_su(2), make_so(3), make_so(5)):
        for _ in range(min(samples, 100)):
            a_rows = rng.standard_normal((8, algebra.dim))
            F = gform_from_w_coefficients(algebra, a_rows)
            fc = f_components_from_gform(F)
            section = two_zero_from_v_coefficients(
                algebra, rng.standard_normal((6, algebra.dim))
            )
            check = estimate_bound_check(fc, section, tol=tol)
            if not (
                check["bracket_bound_holds"]
                and check["product_bound_holds"]
            ):
                failures += 1
            denominator = (
                check["norms"]["component_frobenius"]
                * check["norms"]["section_sq"]
            )
            if denominator > 0.0:
                max_ratio = max(
                    max_ratio, check["quad_form"] / denominator
                )
    bracket = oracle_bracket_norm_check(
        make_su(2, inner="trace"), samples=min(samples, 500), seed=seed
    )
    passed = (
        failures == 0
        and bracket["passed"]
        and abs(bracket["max_ratio"] - BRACKET_NORM_BOUND) <= 1e-9
    )
    return {
        "passed": bool(passed),
        "bound_failures": failures,
        "max_quad_ratio": max_ratio,
        "bracket_max_ratio": bracket["max_ratio"],
        "bracket_bound": BRACKET_NORM_BOUND,
    }


def oracle_second_variation(model, seed, samples, tol) -> dict:
    rng = np.random.default_rng(seed + 8)
    algebra = make_so(3)
    worst_pair = 0.0
    worst_grid = 0.0
    positive_failures = 0
    trials = min(samples, 50)
    scale = 6.0
    threshold = scale / (2.0 * np.sqrt(2.0))
    for _ in range(trials):
        a_rows = rng.standard_normal((8, algebra.dim))
        F = gform_from_w_coefficients(algebra, a_rows)
        section = OneFormSection(
            algebra, rng.standard_normal((7, algebra.dim))
        )
        paths = curvature_quad_paths(F, section)
        worst_pair = max(worst_pair, paths["agreement"])
        grid = float(np.linalg.norm(curvature_grid_norms(F)))
        worst_grid = max(
            worst_grid, abs(grid - np.sqrt(2.0) * g_norm(F))
        )
        norm = g_norm(F)
        if norm > 0.0:
            shrunk = F * ((0.9 * threshold) / norm)
            variation = algebraic_second_variation(
                shrunk, RicciTensor7.einstein(scale)
            )
            if variation["min_eigenvalue"] <= 0.0:
                positive_failures += 1
    passed = (
        worst_pair <= 1e-10
        and worst_grid <= 1e-9
        and positive_failures == 0
    )
    return {
        "passed": bool(passed),
        "worst_quad_pair_residual": worst_pair,
        "worst_grid_norm_identity": worst_grid,
        "positivity_failures": positive_failures,
        "trials": trials,
    }


# ---------------------------------------------------------------------------
# Stacked suites against the oracles
# ---------------------------------------------------------------------------

# suite name -> (stacked suite, oracle loop suite)
PAIRS = {
    name: (func, globals()[f"oracle_{name}"])
    for name, func in selftest.SUITES
    if f"oracle_{name}" in globals()
}

# every per-suite sample cap, and the counts at and around each
CAPS = (50, 100, 150, 200, 500)
COUNTS = sorted({1} | {cap + step for cap in CAPS for step in (-1, 0, 1)})


def assert_reports_agree(batched: dict, oracle: dict):
    assert batched.keys() == oracle.keys()
    for key, expected in oracle.items():
        got = batched[key]
        if isinstance(expected, (bool, int, dict)):
            assert got == expected, key
            assert type(got) is type(expected), key
        else:
            assert isinstance(got, float), key
            assert abs(got - expected) <= 1e-12, (key, got, expected)


def test_every_loop_suite_has_an_oracle():
    assert set(PAIRS) == {
        "bidegree_roundtrip", "lie_dual_path", "gauge_roundtrips",
        "curvature_operator", "ricci_operator", "selfadjointness",
        "estimate_chain", "second_variation",
    }


def with_every_count(test):
    for samples in COUNTS:
        test = example(seed=0, samples=samples)(test)
    return test


@pytest.mark.parametrize("name", sorted(PAIRS))
@settings(max_examples=4, deadline=None)
@given(seed=st.integers(0, 2**16), samples=st.sampled_from(COUNTS))
@with_every_count
def test_stacked_suite_matches_oracle(name, seed, samples):
    batched, oracle = PAIRS[name]
    assert_reports_agree(
        batched(MODEL, seed, samples, 1e-9), oracle(MODEL, seed, samples, 1e-9)
    )


@pytest.mark.parametrize("seed", (0, 3))
def test_bracket_norm_check_matches_oracle(seed):
    for spec in (make_su(2, inner="trace"), make_so(3), make_so(5)):
        got = bracket_norm_check(spec, samples=300, seed=seed)
        expected = oracle_bracket_norm_check(spec, samples=300, seed=seed)
        assert got["max_ratio"] == expected["max_ratio"]
        assert got["passed"] == expected["passed"]


# ---------------------------------------------------------------------------
# Mutations: one broken route per suite must fail the stacked suite
# ---------------------------------------------------------------------------


def scaled(func, factor):
    return lambda *args, **kwargs: func(*args, **kwargs) * factor


def test_mutation_bidegree_roundtrip(monkeypatch):
    monkeypatch.setattr(
        selftest, "_TO_REAL", {2: selftest._TO_REAL[2] * (1 + 1e-9)}
    )
    report = selftest._suite_bidegree_roundtrip(MODEL, 0, 20, 1e-9)
    assert not report["passed"]


def test_mutation_lie_dual_path(monkeypatch):
    monkeypatch.setattr(
        selftest, "bracket_via_matrices",
        scaled(bracket_via_matrices, 1 + 1e-8),
    )
    assert not selftest._suite_lie_dual_path(MODEL, 0, 20, 1e-9)["passed"]


def test_mutation_gauge_roundtrips(monkeypatch):
    monkeypatch.setattr(
        selftest, "g_wedge_bracket", scaled(g_wedge_bracket, -1.0)
    )
    report = selftest._suite_gauge_roundtrips(MODEL, 0, 20, 1e-9)
    assert not report["passed"]
    assert report["worst_wedge_dual_path"] > 1e-10


def test_mutation_curvature_operator(monkeypatch):
    def transposed(fc):
        endo = build_F_operator_from_components(fc)
        return type(endo)(endo.algebra, np.swapaxes(endo.matrix, -1, -2))

    monkeypatch.setattr(
        selftest, "build_F_operator_from_components", transposed
    )
    report = selftest._suite_curvature_operator(MODEL, 0, 20, 1e-9)
    assert not report["passed"]
    assert report["worst_apply_dual_path"] > 1e-10


def test_mutation_ricci_operator(monkeypatch):
    def shifted(ricci, algebra):
        endo = build_R_operator(ricci, algebra)
        return type(endo)(algebra, endo.matrix * (1 + 1e-6))

    monkeypatch.setattr(selftest, "build_R_operator", shifted)
    report = selftest._suite_ricci_operator(MODEL, 0, 20, 1e-9)
    assert not report["passed"]
    assert report["worst_diagonal_identity"] > 1e-10


def test_mutation_selfadjointness(monkeypatch):
    def skewed(fc):
        endo = build_F_operator_from_components(fc)
        upper = np.triu(np.ones(endo.matrix.shape[-2:]))
        return type(endo)(endo.algebra, endo.matrix + upper)

    monkeypatch.setattr(selftest, "build_F_operator_from_components", skewed)
    assert not selftest._suite_selfadjointness(MODEL, 0, 20, 1e-9)["passed"]


def test_mutation_estimate_chain(monkeypatch):
    monkeypatch.setattr(
        weitzenbock_engine, "quad_form_F_complex",
        scaled(weitzenbock_engine.quad_form_F_complex, 10.0),
    )
    report = selftest._suite_estimate_chain(MODEL, 0, 20, 1e-9)
    assert not report["passed"]
    assert report["bound_failures"] > 0


def test_mutation_second_variation(monkeypatch):
    original = ym_stability.apply_curvature_action

    def doubled(F, section):
        image = original(F, section)
        return OneFormSection(image.algebra, 2.0 * image.vectors)

    monkeypatch.setattr(ym_stability, "apply_curvature_action", doubled)
    report = selftest._suite_second_variation(MODEL, 0, 20, 1e-9)
    assert not report["passed"]
    assert report["worst_quad_pair_residual"] > 1e-10
