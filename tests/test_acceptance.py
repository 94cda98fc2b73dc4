"""Acceptance checks for the whole package.

Each test is one release gate with its tolerance and sample count fixed
in the body, and each prints a single machine-readable verdict line
``ACCEPTANCE <k>: PASS ...`` (visible with ``pytest -s``) before
asserting.  The checks favor independent routes over re-computation:
frozen eigenvector families against the mixing matrix, hand-expanded
component formulas against operator matrices, analytic witnesses
against random search, and byte comparison for determinism.
"""

import time

import numpy as np

from artifact.cli_interface import main
from artifact.deformation_symbols import (
    BASIC_B,
    FULL_C,
    build_quotient_spaces,
    exactness_report,
)
from artifact.flat_model import (
    KForm,
    basis_keys,
    calibrate_model,
    form_inner,
    standard_two_form_families,
)
from artifact.form_decomposition import (
    eigenspace_projectors,
    project_vectors,
    t_eta_apply,
    t_eta_matrix,
)
from artifact.gauge_fields import (
    GValuedForm,
    f_components_from_w,
    g_norm,
    gform_from_w_coefficients,
    instanton_classify,
    two_zero_from_v_coefficients,
)
from artifact.lie_algebra import (
    bracket_vec,
    inner_vec,
    make_so,
    make_su,
    norm_vec,
)
from artifact.stiefel_example import (
    build_stiefel,
    gauge_algebra,
    indefiniteness_search,
    sdci_verify,
)
from artifact.weitzenbock_engine import (
    PAIRS,
    TransverseRicci,
    V_QUAD_TO_OPERATOR_FACTOR,
    apply_F_xi_path,
    build_F_operator_from_components,
    build_R_operator,
    quad_form_F,
    stack_section,
)
from artifact.ym_stability import (
    RicciTensor7,
    algebraic_second_variation,
    torsion_residuals,
)


MODEL = calibrate_model()


def verdict(number: int, passed: bool, detail: str) -> None:
    status = "PASS" if passed else "FAIL"
    print(f"ACCEPTANCE {number}: {status} {detail}")


def random_sd_form(algebra, rng):
    rows = rng.standard_normal((8, algebra.dim))
    return rows, gform_from_w_coefficients(algebra, rows)


def random_section(algebra, rng):
    b = rng.standard_normal((6, algebra.dim)) + 1j * rng.standard_normal(
        (6, algebra.dim)
    )
    return b, two_zero_from_v_coefficients(algebra, b)


def form_distance(first: KForm, second: KForm) -> float:
    diff = first - second
    return float(np.sqrt(abs(form_inner(diff, diff))))


def test_criterion_01_mixing_spectrum():
    """21x21 mixing spectrum {+1 x8, -1 x6, -2 x1, 0 x6} to 1e-10,
    with each frozen family inside its block, in under a second."""
    start = time.perf_counter()
    matrix = t_eta_matrix(MODEL)
    eigenvalues = np.linalg.eigvalsh(matrix)
    expected = np.array([-2.0] + [-1.0] * 6 + [0.0] * 6 + [1.0] * 8)
    spectrum_residual = float(np.max(np.abs(np.sort(eigenvalues) - expected)))

    families = standard_two_form_families()
    family_residual = 0.0
    for form in families["w"]:
        family_residual = max(
            family_residual, form_distance(t_eta_apply(form, MODEL), form)
        )
    for form in families["v"]:
        family_residual = max(
            family_residual,
            form_distance(t_eta_apply(form, MODEL), -1.0 * form),
        )
    # the contact 2-form spans the -2 block; the model stores it with
    # its calibrated sign, which lies in the same line
    family_residual = max(
        family_residual,
        form_distance(t_eta_apply(MODEL.deta, MODEL), -2.0 * MODEL.deta),
    )
    for i in range(1, 7):
        vertical = KForm.basis(i, 7)
        family_residual = max(
            family_residual,
            form_distance(t_eta_apply(vertical, MODEL), 0.0 * vertical),
        )
    elapsed = time.perf_counter() - start

    ok = spectrum_residual <= 1e-10 and family_residual <= 1e-10
    ok = ok and elapsed < 1.0
    verdict(
        1,
        ok,
        f"spectrum residual {spectrum_residual:.2e}, family residual "
        f"{family_residual:.2e}, {elapsed:.3f}s",
    )
    assert spectrum_residual <= 1e-10
    assert family_residual <= 1e-10
    assert elapsed < 1.0


def test_criterion_02_projection_suite():
    """Idempotence, mutual orthogonality, and completeness of the four
    block projectors on 10^4 random 2-forms, residuals < 1e-12, < 5s."""
    start = time.perf_counter()
    rng = np.random.default_rng(2024)
    vectors = rng.standard_normal((21, 10_000)) + 1j * rng.standard_normal(
        (21, 10_000)
    )
    projectors = eigenspace_projectors(MODEL)
    parts = project_vectors(vectors, MODEL)

    idempotence = 0.0
    orthogonality = 0.0
    for label, proj in projectors.items():
        block = parts[label]
        idempotence = max(
            idempotence, float(np.max(np.abs(proj @ block - block)))
        )
        for other_label, other in projectors.items():
            if other_label != label:
                orthogonality = max(
                    orthogonality,
                    float(np.max(np.abs(other @ block))),
                )
    total = sum(parts.values())
    completeness = float(np.max(np.abs(total - vectors)))
    elapsed = time.perf_counter() - start

    worst = max(idempotence, orthogonality, completeness)
    ok = worst < 1e-12 and elapsed < 5.0
    verdict(
        2,
        ok,
        f"idempotence {idempotence:.2e}, orthogonality "
        f"{orthogonality:.2e}, completeness {completeness:.2e}, "
        f"{elapsed:.3f}s on 10000 forms",
    )
    assert idempotence < 1e-12
    assert orthogonality < 1e-12
    assert completeness < 1e-12
    assert elapsed < 5.0


def test_criterion_03_curvature_operator_three_routes():
    """Operator matrix, componentwise expansion, and coefficient-family
    quadratic form agree to 1e-12 on 10^3 random self-dual curvatures
    over su(2) and so(3)."""
    rng = np.random.default_rng(3)
    worst_apply = 0.0
    worst_quad = 0.0
    for algebra in (make_su(2), make_so(3)):
        for _ in range(500):
            rows, F = random_sd_form(algebra, rng)
            fc = f_components_from_w(algebra, rows)
            endo = build_F_operator_from_components(fc)
            b, section = random_section(algebra, rng)

            via_matrix = stack_section(endo.apply(section))
            via_components = stack_section(apply_F_xi_path(fc, section))
            scale = max(1.0, float(np.max(np.abs(via_matrix))))
            worst_apply = max(
                worst_apply,
                float(np.max(np.abs(via_matrix - via_components))) / scale,
            )

            q_matrix = float(endo.quad_bilinear(section).real)
            q_components = quad_form_F(fc, section)
            q_scale = max(1.0, abs(q_matrix))
            worst_quad = max(
                worst_quad, abs(q_matrix - q_components) / q_scale
            )

            # the coefficient-family expansion is an identity for real
            # v-family coefficients, so it gets its own real sample
            b_real = rng.standard_normal((6, algebra.dim))
            real_section = two_zero_from_v_coefficients(algebra, b_real)
            qr_matrix = float(endo.quad_bilinear(real_section).real)
            qr_components = quad_form_F(fc, real_section)
            qr_families = v_basis_quad_form_value(algebra, b_real, rows)
            qr_scale = max(1.0, abs(qr_matrix))
            worst_quad = max(
                worst_quad,
                abs(qr_matrix - qr_components) / qr_scale,
                abs(qr_matrix - qr_families) / qr_scale,
            )
    ok = worst_apply <= 1e-12 and worst_quad <= 1e-12
    verdict(
        3,
        ok,
        f"apply residual {worst_apply:.2e}, quadratic form residual "
        f"{worst_quad:.2e} over 1000 samples",
    )
    assert worst_apply <= 1e-12
    assert worst_quad <= 1e-12


def v_basis_quad_form_value(algebra, b_rows, a_rows) -> float:
    from artifact.weitzenbock_engine import v_basis_quad_form

    return v_basis_quad_form(algebra, b_rows, a_rows) / V_QUAD_TO_OPERATOR_FACTOR


def test_criterion_04_self_adjointness():
    """Both endomorphisms are self-adjoint in the weighted inner
    product to 1e-10 on 10^3 random section pairs."""
    rng = np.random.default_rng(4)
    worst = 0.0
    for algebra in (make_su(2), make_so(3)):
        for _ in range(500):
            rows, _ = random_sd_form(algebra, rng)
            fc = f_components_from_w(algebra, rows)
            f_endo = build_F_operator_from_components(fc)

            herm = rng.standard_normal((3, 3)) + 1j * rng.standard_normal(
                (3, 3)
            )
            ric = TransverseRicci(matrix=(herm + herm.conj().T) / 2.0)
            r_endo = build_R_operator(ric, algebra)

            _, first = random_section(algebra, rng)
            _, second = random_section(algebra, rng)
            for endo in (f_endo, r_endo):
                scale = max(
                    1.0,
                    float(np.linalg.norm(endo.matrix))
                    * first.norm_20()
                    * second.norm_20(),
                )
                worst = max(
                    worst, endo.adjoint_residual(first, second) / scale
                )
    ok = worst <= 1e-10
    verdict(4, ok, f"worst pairing asymmetry {worst:.2e} over 1000 pairs")
    assert worst <= 1e-10


def test_criterion_05_einstein_constants():
    """Transverse Einstein tensor with constant 8 gives exactly 16
    times the identity; the diagonal quadratic-form identity holds to
    1e-12."""
    exact = True
    for algebra in (make_su(2), make_so(3)):
        endo = build_R_operator(TransverseRicci.einstein(8.0), algebra)
        exact = exact and np.array_equal(
            endo.matrix, 16.0 * np.eye(3 * algebra.dim)
        )

    rng = np.random.default_rng(5)
    algebra = make_su(2)
    values = (1.5, 4.0, 7.5)
    endo = build_R_operator(TransverseRicci.from_diagonal(values), algebra)
    worst = 0.0
    for _ in range(100):
        _, section = random_section(algebra, rng)
        quad = endo.quad(section).real
        expected = sum(
            (values[mu - 1] + values[nu - 1])
            * inner_vec(
                algebra, section.component(mu, nu), section.component(mu, nu)
            ).real
            for mu, nu in PAIRS
        )
        worst = max(worst, abs(quad - expected) / max(1.0, abs(expected)))
    ok = exact and worst <= 1e-12
    verdict(
        5,
        ok,
        f"16*identity exact: {exact}, diagonal identity residual "
        f"{worst:.2e}",
    )
    assert exact
    assert worst <= 1e-12


def test_criterion_06_homogeneous_example():
    """The invariant curvature at the Einstein scales classifies
    self-dual with residuals below 1e-12, the quadratic form has
    witnesses of strictly both signs, and the fiber bracket closes
    exactly."""
    spec = build_stiefel()
    sdci = sdci_verify(spec, MODEL, tol=1e-12)
    residual_ok = (
        sdci["passed"]
        and sdci["worst_residual"] < 1e-12
        and sdci["omega_pairing"] < 1e-12
        and sdci["component_trace"] < 1e-12
    )

    search = indefiniteness_search(spec, seed=0, samples=100)
    plus = search["analytic"]["plus"]["doubled"]
    minus = search["analytic"]["minus"]["doubled"]
    signs_ok = (
        plus > 0.0
        and minus < 0.0
        and search["random"]["best_positive"] > 0.0
        and search["random"]["best_negative"] < 0.0
    )

    gauge = gauge_algebra(spec)
    basis = np.eye(gauge.dim)
    bracket_ok = np.array_equal(
        bracket_vec(gauge, basis[1], basis[2]), basis[0]
    )

    ok = residual_ok and signs_ok and bracket_ok
    verdict(
        6,
        ok,
        f"classification {sdci['label']} residual "
        f"{sdci['worst_residual']:.2e}, doubled witnesses {plus:+.1f}/"
        f"{minus:+.1f}, fiber bracket exact: {bracket_ok}",
    )
    assert residual_ok
    assert signs_ok
    assert bracket_ok


def test_criterion_07_estimate_suite():
    """The quadratic form bound sqrt(2)*||F||*||phi||^2 and the bracket
    bound sqrt(2)*||a||*||b|| hold over 10^4 seeded samples on each of
    su(2), so(3), so(5); the maximal ratios are reported."""
    rng = np.random.default_rng(7)
    algebras = (make_su(2), make_so(3), make_so(5))
    counts = (3334, 3333, 3333)

    quad_ratio = 0.0
    for algebra, count in zip(algebras, counts):
        for _ in range(count):
            rows, F = random_sd_form(algebra, rng)
            fc = f_components_from_w(algebra, rows)
            _, section = random_section(algebra, rng)
            lhs = abs(quad_form_F(fc, section))
            rhs = np.sqrt(2.0) * g_norm(F) * section.norm_20() ** 2
            if rhs > 0.0:
                quad_ratio = max(quad_ratio, lhs / rhs)

    bracket_ratio = 0.0
    for algebra, count in zip(algebras, counts):
        for _ in range(count):
            a = rng.standard_normal(algebra.dim)
            b = rng.standard_normal(algebra.dim)
            lhs = norm_vec(algebra, bracket_vec(algebra, a, b))
            rhs = np.sqrt(2.0) * norm_vec(algebra, a) * norm_vec(algebra, b)
            if rhs > 0.0:
                bracket_ratio = max(bracket_ratio, lhs / rhs)

    ok = quad_ratio <= 1.0 + 1e-12 and bracket_ratio <= 1.0 + 1e-12
    verdict(
        7,
        ok,
        f"max quadratic-form ratio {quad_ratio:.6f}, max bracket ratio "
        f"{bracket_ratio:.6f} over 10000 samples each",
    )
    assert quad_ratio <= 1.0 + 1e-12
    assert bracket_ratio <= 1.0 + 1e-12


def test_criterion_08_symbol_exactness():
    """For 100 random nonzero covectors and coefficient dimensions 1
    and 3 the full symbol sequence is exact with rank pattern
    (d, 6d, 7d) and alternating sum 0; the basic sequence degenerates
    for vertical covectors.  Runtime < 10s."""
    start = time.perf_counter()
    spaces = build_quotient_spaces(MODEL)
    rng = np.random.default_rng(8)
    failures = 0
    for _ in range(100):
        xi = rng.standard_normal(7)
        while np.linalg.norm(xi) < 1e-6:
            xi = rng.standard_normal(7)
        for d in (1, 3):
            report = exactness_report(xi, spaces, FULL_C, d)
            good = (
                report["ranks"] == [d, 6 * d, 7 * d]
                and report["exact_everywhere"]
                and report["alternating_sum"] == 0
            )
            failures += 0 if good else 1

    vertical = np.array([0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 1.0])
    degenerate_ok = True
    for d in (1, 3):
        basic = exactness_report(vertical, spaces, BASIC_B, d)
        degenerate_ok = (
            degenerate_ok
            and basic["degenerate"]
            and basic["ranks"] == [0, 0]
        )
    elapsed = time.perf_counter() - start

    ok = failures == 0 and degenerate_ok and elapsed < 10.0
    verdict(
        8,
        ok,
        f"failures {failures}/200, vertical degeneracy "
        f"{degenerate_ok}, {elapsed:.2f}s",
    )
    assert failures == 0
    assert degenerate_ok
    assert elapsed < 10.0


def test_criterion_09_stability_bound():
    """With the 7-dimensional Einstein tensor at constant c and the
    curvature norm kept below c / (2 sqrt 2) the algebraic second
    variation has positive minimum eigenvalue in 100/100 trials; the
    torsion 6- and 7-form residuals vanish to 1e-12 for every self-dual
    sample."""
    rng = np.random.default_rng(9)
    algebra = make_su(2)
    c = 6.0
    threshold = c / (2.0 * np.sqrt(2.0))
    ricci = RicciTensor7.einstein(c)

    positive = 0
    for _ in range(100):
        form = GValuedForm(algebra, 2)
        for key in basis_keys(2):
            form.accumulate(key, rng.standard_normal(algebra.dim))
        target = rng.uniform(0.05, 0.95) * threshold
        form = (target / g_norm(form)) * form
        result = algebraic_second_variation(form, ricci)
        if result["min_eigenvalue"] > 0.0 and result["certified_stable"]:
            positive += 1

    torsion_worst = 0.0
    for _ in range(100):
        rows, F = random_sd_form(algebra, rng)
        assert instanton_classify(F, MODEL)["label"] == "SD"
        residuals = torsion_residuals(F, MODEL)
        scale = max(1.0, g_norm(F))
        torsion_worst = max(
            torsion_worst,
            residuals["six_form_residual"] / scale,
            residuals["seven_form_residual"] / scale,
        )

    ok = positive == 100 and torsion_worst <= 1e-12
    verdict(
        9,
        ok,
        f"positive minimum eigenvalue in {positive}/100 trials, worst "
        f"torsion residual {torsion_worst:.2e}",
    )
    assert positive == 100
    assert torsion_worst <= 1e-12


def test_criterion_10_deterministic_reports(tmp_path):
    """Two runs of the selftest and the homogeneous-example commands
    with the same seed produce byte-identical report files."""
    pairs = {}
    for name, extra in (
        ("selftest", ["--samples", "600"]),
        ("stiefel", ["--samples", "200"]),
    ):
        outputs = []
        for tag in ("one", "two"):
            path = tmp_path / f"{name}-{tag}.json"
            code = main(
                [name, "--seed", "11", *extra, "--output", str(path)]
            )
            assert code == 0
            outputs.append(path.read_bytes())
        pairs[name] = outputs[0] == outputs[1]

    ok = all(pairs.values())
    verdict(
        10,
        ok,
        "byte-identical reports: "
        + ", ".join(f"{k}={v}" for k, v in pairs.items()),
    )
    assert pairs["selftest"]
    assert pairs["stiefel"]
