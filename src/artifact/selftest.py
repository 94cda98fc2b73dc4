"""The selftest: every dual-route oracle suite, in one ordered registry.

Each suite is a function ``(model, seed, samples, tol) -> dict`` that
draws its samples from its own seeded generator, evaluates the two (or
three) independently written routes of its checks over the whole stack
of samples, and reports its worst residuals with a ``passed`` verdict
against the budgets written in its body.  ``SUITES`` lists them in
report order; :func:`run_selftest` runs them all and is what the
``selftest`` command of :mod:`artifact.cli_interface` prints.  The
sample-by-sample loops the stacked suites replaced are the labelled
oracles of ``tests/test_selftest_oracles.py``, which parametrises over
``SUITES``.
"""

from __future__ import annotations

import numpy as np

from .flat_model import (
    _WEDGE,
    PAIRS,
    calibration_constants,
    nearest_mixing_eigenvalues,
    standard_two_form_families,
)
from .form_decomposition import (
    _TO_COMPLEX,
    _TO_REAL,
    _change_basis,
    eigenspace_projectors,
    t_eta_matrix,
)
from .lie_algebra import (
    BRACKET_NORM_BOUND,
    bracket_norm_check,
    bracket_vec,
    bracket_via_matrices,
    coeffs_of,
    inner_vec,
    killing_matrix,
    make_so,
    make_su,
    matrix_of,
)
from .gauge_fields import (
    GValuedForm,
    f_components_from_gform,
    g_norm,
    g_wedge_bracket,
    gform_from_complex_components,
    gform_complex_components,
    gform_from_w_coefficients,
    two_zero_from_v_coefficients,
    w_coefficients_from_gform,
)
from .weitzenbock_engine import (
    TransverseRicci,
    V_QUAD_TO_OPERATOR_FACTOR,
    apply_F_xi_path,
    build_F_operator_from_components,
    build_R_operator,
    estimate_bound_check,
    quad_form_F_complex,
    v_basis_quad_form,
)
from .ym_stability import (
    OneFormSection,
    RicciTensor7,
    algebraic_second_variation,
    curvature_grid_norms,
    curvature_quad_paths,
)
from .deformation_symbols import (
    BASIC_B,
    FULL_C,
    batch_exactness,
    build_quotient_spaces,
)
from .stiefel_example import (
    build_stiefel,
    indefiniteness_search,
    sdci_verify,
    structure_check,
)

__all__ = ["SUITES", "run_selftest"]


def _suite_calibration(model, seed, samples, tol) -> dict:
    constants = calibration_constants(model)
    expected = {
        "transverse_metric_ratio": 0.5,
        "volume_ratio": -0.75,
        "transverse_star_omega_scale": -1.0,
    }
    worst = max(
        abs(float(constants[key]) - val) for key, val in expected.items()
    )
    passed = (
        worst <= 1e-12
        and model.orientation_sign == 1
        and model.deta_coefficient == -1.0
        and model.phi_sign == -1
    )
    return {"passed": bool(passed), "worst_residual": worst}


def _suite_eigenvalue_blocks(model, seed, samples, tol) -> dict:
    matrix = t_eta_matrix(model)
    evals = np.linalg.eigvalsh((matrix + matrix.T) / 2.0)
    nearest, distance = nearest_mixing_eigenvalues(evals)
    labels = {"+1": 1.0, "-1": -1.0, "-2": -2.0, "0": 0.0}
    targets, _ = nearest_mixing_eigenvalues(list(labels.values()))
    counts = {
        label: int(np.count_nonzero(nearest == target))
        for label, target in zip(labels, targets)
    }
    worst = float(distance.max())
    families = standard_two_form_families()
    block_worst = 0.0
    for form in families["w"]:
        vec = form.to_vector()
        block_worst = max(
            block_worst, float(np.max(np.abs(matrix @ vec - vec)))
        )
    for form in families["v"]:
        vec = form.to_vector()
        block_worst = max(
            block_worst, float(np.max(np.abs(matrix @ vec + vec)))
        )
    omega_vec = model.omega.to_vector()
    block_worst = max(
        block_worst,
        float(np.max(np.abs(matrix @ omega_vec + 2.0 * omega_vec))),
    )
    passed = (
        counts == {"+1": 8, "-1": 6, "-2": 1, "0": 6}
        and worst <= 1e-10
        and block_worst <= 1e-10
    )
    return {
        "passed": bool(passed),
        "eigenvalue_counts": counts,
        "worst_eigenvalue_residual": worst,
        "worst_block_residual": block_worst,
    }


def _suite_projections(model, seed, samples, tol) -> dict:
    rng = np.random.default_rng(seed)
    count = min(samples, 10000)
    vectors = rng.standard_normal((21, count))
    projectors = eigenspace_projectors(model)
    labels = sorted(projectors)
    worst = 0.0
    recomposed = np.zeros_like(vectors)
    for a in labels:
        pa = projectors[a]
        worst = max(worst, float(np.max(np.abs(pa @ pa - pa))))
        recomposed = recomposed + pa @ vectors
        for b in labels:
            if a < b:
                worst = max(
                    worst,
                    float(np.max(np.abs(projectors[a] @ projectors[b]))),
                )
    worst = max(worst, float(np.max(np.abs(recomposed - vectors))))
    return {"passed": bool(worst <= 1e-12), "worst_residual": worst,
            "samples": count}


def _worst(residuals) -> float:
    """Largest absolute entry, 0.0 for an empty stack."""
    return float(np.max(np.abs(residuals), initial=0.0))


def _suite_bidegree_roundtrip(model, seed, samples, tol) -> dict:
    """Real -> complex -> real round trip of random 2-forms.

    The two routes are the complex->real matrix, built from wedges of the
    complex coframe, and its exact inverse ``diag(2^-(p+q)) C^H``; both
    act on the stack of samples at once.
    """
    rng = np.random.default_rng(seed + 1)
    vectors = rng.standard_normal((min(samples, 200), 21)).T
    table = _change_basis(_TO_COMPLEX[2], vectors)
    back = _change_basis(_TO_REAL[2], table)
    worst = _worst(back - vectors)
    return {"passed": bool(worst <= 1e-12), "worst_residual": worst}


def _suite_lie_dual_path(model, seed, samples, tol) -> dict:
    """Structure-constant brackets against matrix commutators.

    Per algebra the samples are drawn as one ``(count, 3, dim)`` stack;
    ``bracket_vec`` and ``bracket_via_matrices`` bracket it as a whole,
    and invariance of the inner product is checked on the same stack.
    """
    rng = np.random.default_rng(seed + 2)
    specs = [make_so(3), make_su(2), make_su(2, inner="trace"), make_so(5)]
    count = min(samples, 100)
    worst_bracket = 0.0
    worst_invariance = 0.0
    for spec in specs:
        u, v, w = np.moveaxis(rng.standard_normal((count, 3, spec.dim)), 1, 0)
        a = bracket_vec(spec, u, v)
        b = bracket_via_matrices(spec, u, v)
        worst_bracket = max(worst_bracket, _worst(a - b))
        lhs = inner_vec(spec, a, w)
        rhs = -inner_vec(spec, v, bracket_vec(spec, u, w))
        worst_invariance = max(worst_invariance, _worst(lhs - rhs))
    # the Killing form of so(5) on the span of its last three elements
    ambient = -killing_matrix(make_so(5).structure)[7:, 7:]
    gram_exact = bool(np.array_equal(ambient, 6.0 * np.eye(3)))
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


def _suite_gauge_roundtrips(model, seed, samples, tol) -> dict:
    """Form conversions and the graded bracket on a stack of samples.

    Round trips: w coefficients -> form -> w coefficients, and form ->
    complex components -> form.  The bracket of two 1-forms is taken by
    ``g_wedge_bracket`` (structure constants) and, as the second route,
    through the matrix entries of both forms: the commutators of the
    entry matrices are added into the monomials through the wedge table
    and pulled back to coefficients once per monomial.  The oracle loop
    brackets one pair of forms at a time through their scalar entry
    forms.
    """
    rng = np.random.default_rng(seed + 3)
    algebra = make_so(3)
    count = min(samples, 100)
    # per sample: 8 w rows, then the e^1..e^7 rows of phi and psi in turn
    draws = rng.standard_normal((count, 22, algebra.dim))
    rows = draws[:, :8]
    F = gform_from_w_coefficients(algebra, rows)
    worst_w = _worst(w_coefficients_from_gform(F) - rows)

    table = gform_complex_components(F)
    rebuilt = gform_from_complex_components(algebra, table, 2)
    worst_complex = _worst(F.matrix - rebuilt.matrix)

    # (phi or psi, e^i, sample, dim)
    one_forms = draws[:, 8:].reshape(count, 7, 2, algebra.dim).transpose(
        2, 1, 0, 3
    )
    phi = GValuedForm.from_matrix(algebra, 1, one_forms[0])
    psi = GValuedForm.from_matrix(algebra, 1, one_forms[1])
    lhs = g_wedge_bracket(phi, psi)
    # entry route: e^I ^ e^J carries psi_J phi_I - phi_I psi_J as matrices
    target, left, right, sign = _WEDGE[1, 1]
    first = matrix_of(algebra, psi.matrix)[right]
    second = matrix_of(algebra, phi.matrix)[left]
    entries = np.zeros((len(lhs.matrix),) + first.shape[1:], dtype=complex)
    np.add.at(
        entries, target,
        sign[:, None, None, None] * (first @ second - second @ first),
    )
    worst_wedge = _worst(lhs.matrix - coeffs_of(algebra, entries))
    passed = max(worst_w, worst_complex, worst_wedge) <= 1e-10
    return {
        "passed": bool(passed),
        "worst_w_roundtrip": worst_w,
        "worst_complex_roundtrip": worst_complex,
        "worst_wedge_dual_path": worst_wedge,
    }


def _suite_curvature_operator(model, seed, samples, tol) -> dict:
    """The curvature endomorphism by its matrix and by its entries.

    Per algebra one ``(count, 14, dim)`` stack of w and v coefficients.
    The operator matrices (``build_F_operator_from_components``) act on
    the sections against the componentwise ``apply_F_xi_path``; the
    quadratic form is taken three ways: bracket route
    (``quad_form_F_complex``), operator route (``quad_bilinear``) and on
    the coefficient families (``v_basis_quad_form``).
    """
    rng = np.random.default_rng(seed + 4)
    count = min(samples, 150)
    worst_apply = 0.0
    worst_quad = 0.0
    for algebra in (make_su(2), make_so(3)):
        draws = rng.standard_normal((count, 14, algebra.dim))
        a_rows, b_rows = draws[:, :8], draws[:, 8:]
        F = gform_from_w_coefficients(algebra, a_rows)
        fc = f_components_from_gform(F)
        endo = build_F_operator_from_components(fc)
        section = two_zero_from_v_coefficients(algebra, b_rows)

        via_matrix = endo.apply(section)
        via_entries = apply_F_xi_path(fc, section)
        worst_apply = max(
            worst_apply, _worst(via_matrix.phi - via_entries.phi)
        )

        q1 = np.real(quad_form_F_complex(fc, section))
        q2 = np.real(endo.quad_bilinear(section))
        q3 = (
            v_basis_quad_form(algebra, b_rows, a_rows)
            / V_QUAD_TO_OPERATOR_FACTOR
        )
        worst_quad = max(
            worst_quad, _worst(q1 - q2), _worst(q1 - q3), _worst(q2 - q3)
        )
    passed = max(worst_apply, worst_quad) <= 1e-12 * 100
    return {
        "passed": bool(passed),
        "worst_apply_dual_path": worst_apply,
        "worst_quad_three_way": worst_quad,
    }


def _suite_ricci_operator(model, seed, samples, tol) -> dict:
    """The Ricci endomorphism against its diagonal formula.

    Uniform and normal draws alternate, so they are drawn sample by
    sample; the operators of all diagonal tensors are built as one stack
    and their quadratic forms compared with
    ``sum (r_mu + r_nu) ||phi_{mu nu}||^2``.
    """
    rng = np.random.default_rng(seed + 5)
    algebra = make_so(3)
    endo = build_R_operator(TransverseRicci.einstein(8.0), algebra)
    identity_residual = float(
        np.max(np.abs(endo.matrix - 16.0 * np.eye(3 * algebra.dim)))
    )
    values, rows = [], []
    for _ in range(min(samples, 100)):
        values.append(rng.uniform(0.5, 4.0, size=3))
        rows.append(rng.standard_normal((6, algebra.dim)))
    values = np.array(values)
    ricci = TransverseRicci.from_diagonal(values)
    section = two_zero_from_v_coefficients(algebra, np.array(rows))
    quad = np.real(build_R_operator(ricci, algebra).quad(section))
    expected = 0.0
    for mu, nu in PAIRS:
        comp = section.component(mu, nu)
        norm_sq = np.real(inner_vec(algebra, comp, comp))
        expected = expected + (values[:, mu - 1] + values[:, nu - 1]) * norm_sq
    worst_diag = _worst(quad - expected)
    passed = identity_residual == 0.0 and worst_diag <= 1e-12 * 100
    return {
        "passed": bool(passed),
        "einstein_identity_residual": identity_residual,
        "worst_diagonal_identity": worst_diag,
    }


def _suite_selfadjointness(model, seed, samples, tol) -> dict:
    """<M phi, psi> against <phi, M psi> for the curvature and Ricci terms.

    Draws are mixed (normal and uniform), so they are taken sample by
    sample; both operators and both pairings are evaluated on the stacks.
    """
    rng = np.random.default_rng(seed + 6)
    algebra = make_su(2)
    a_rows, values, phi_rows, psi_rows = [], [], [], []
    for _ in range(min(samples, 100)):
        a_rows.append(rng.standard_normal((8, algebra.dim)))
        values.append(rng.uniform(0.5, 4.0, size=3))
        phi_rows.append(rng.standard_normal((6, algebra.dim)))
        psi_rows.append(rng.standard_normal((6, algebra.dim)))
    F = gform_from_w_coefficients(algebra, np.array(a_rows))
    f_endo = build_F_operator_from_components(
        f_components_from_gform(F)
    )
    r_endo = build_R_operator(
        TransverseRicci.from_diagonal(np.array(values)), algebra
    )
    phi = two_zero_from_v_coefficients(algebra, np.array(phi_rows))
    psi = two_zero_from_v_coefficients(algebra, np.array(psi_rows))
    worst = max(
        _worst(endo.adjoint_residual(phi, psi)) for endo in (f_endo, r_endo)
    )
    return {"passed": bool(worst <= 1e-10 * 100), "worst_residual": worst}


def _suite_estimate_chain(model, seed, samples, tol) -> dict:
    """The norm estimate chain on stacks, then the commutator bound.

    ``estimate_bound_check`` evaluates the chain on each algebra's stack
    of curvatures and sections; ``bracket_norm_check`` samples the
    commutator ratio against sqrt(2).
    """
    rng = np.random.default_rng(seed + 7)
    failures = 0
    max_ratio = 0.0
    for algebra in (make_su(2), make_so(3), make_so(5)):
        draws = rng.standard_normal((min(samples, 100), 14, algebra.dim))
        F = gform_from_w_coefficients(algebra, draws[:, :8])
        fc = f_components_from_gform(F)
        section = two_zero_from_v_coefficients(algebra, draws[:, 8:])
        check = estimate_bound_check(fc, section, tol=tol)
        holds = check["bracket_bound_holds"] & check["product_bound_holds"]
        failures += int(np.count_nonzero(~holds))
        denominator = (
            check["norms"]["component_frobenius"]
            * check["norms"]["section_sq"]
        )
        positive = denominator > 0.0
        max_ratio = max(
            max_ratio,
            _worst(check["quad_form"][positive] / denominator[positive]),
        )
    bracket = bracket_norm_check(
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


# the curvature grid holds each pair in both orders: ||grid|| = sqrt(2) ||F||
_ORDERED_PAIR_FACTOR = np.sqrt(2.0)


def _suite_second_variation(model, seed, samples, tol) -> dict:
    """Curvature coupling on 1-forms and the second variation, stacked.

    ``curvature_quad_paths`` pairs the image with the section (direct
    route) and the curvature with brackets of the section (flipped
    route); the grid norms must reproduce sqrt(2) times the form norm;
    below the Ricci threshold every second variation must be positive.
    """
    rng = np.random.default_rng(seed + 8)
    algebra = make_so(3)
    trials = min(samples, 50)
    scale = 6.0
    threshold = scale / (2.0 * BRACKET_NORM_BOUND)
    # per sample: 8 w rows, then the 7 rows of the 1-form section
    draws = rng.standard_normal((trials, 15, algebra.dim))
    F = gform_from_w_coefficients(algebra, draws[:, :8])
    section = OneFormSection(algebra, draws[:, 8:].swapaxes(0, 1))
    worst_pair = _worst(curvature_quad_paths(F, section)["agreement"])
    grid = np.linalg.norm(curvature_grid_norms(F), axis=(-2, -1))
    norm = g_norm(F)
    worst_grid = _worst(grid - _ORDERED_PAIR_FACTOR * norm)
    nonzero = norm > 0.0
    shrunk = F * ((0.9 * threshold) / np.where(nonzero, norm, 1.0))[:, None]
    variation = algebraic_second_variation(
        shrunk, RicciTensor7.einstein(scale)
    )
    positive_failures = int(
        np.count_nonzero(nonzero & (variation["min_eigenvalue"] <= 0.0))
    )
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


def _suite_symbol_exactness(model, seed, samples, tol) -> dict:
    q = build_quotient_spaces(model)
    full = batch_exactness(q, FULL_C, seed=seed, samples=min(samples, 40))
    basic = batch_exactness(q, BASIC_B, seed=seed, samples=min(samples, 40))
    passed = bool(full["all_exact"]) and bool(basic["all_exact"])
    return {
        "passed": passed,
        "full_rank_patterns": full["rank_patterns"],
        "basic_rank_patterns": basic["rank_patterns"],
        "vertical_degenerate": basic["vertical_degenerate"],
    }


def _suite_stiefel_pipeline(model, seed, samples, tol) -> dict:
    spec = build_stiefel()
    structure = structure_check(spec)
    sdci = sdci_verify(spec, model)
    witnesses = indefiniteness_search(
        spec, model, seed=seed, samples=min(samples, 50)
    )
    analytic = witnesses["analytic"]
    values_exact = (
        analytic["plus"]["quad"] == 4.0
        and analytic["minus"]["quad"] == -4.0
        and analytic["plus"]["display"] == 6.0
        and analytic["minus"]["display"] == -6.0
    )
    passed = (
        structure["fiber_brackets_exact"]
        and structure["fiber_gram_exact"]
        and sdci["passed"]
        and witnesses["indefinite"]
        and values_exact
    )
    return {
        "passed": bool(passed),
        "sdci_residual": sdci["worst_residual"],
        "witness_values": {
            "plus": analytic["plus"]["quad"],
            "minus": analytic["minus"]["quad"],
        },
        "witness_values_exact": bool(values_exact),
    }


# name -> suite, in report order
SUITES = (
    ("calibration", _suite_calibration),
    ("eigenvalue_blocks", _suite_eigenvalue_blocks),
    ("projections", _suite_projections),
    ("bidegree_roundtrip", _suite_bidegree_roundtrip),
    ("lie_dual_path", _suite_lie_dual_path),
    ("gauge_roundtrips", _suite_gauge_roundtrips),
    ("curvature_operator", _suite_curvature_operator),
    ("ricci_operator", _suite_ricci_operator),
    ("selfadjointness", _suite_selfadjointness),
    ("estimate_chain", _suite_estimate_chain),
    ("second_variation", _suite_second_variation),
    ("symbol_exactness", _suite_symbol_exactness),
    ("stiefel_pipeline", _suite_stiefel_pipeline),
)


def run_selftest(model, seed: int = 0, samples: int = 10000,
                 tol: float = 1e-9) -> dict:
    """Run every dual-route oracle suite and collect verdicts.

    Each sampling suite draws its samples as one stack (sample by sample
    only where uniform and normal draws interleave) and evaluates both
    routes of every check over the sample axis.  A sample count below
    one raises ``ValueError``.
    """
    if samples < 1:
        raise ValueError("samples must be at least 1")
    suites = {}
    all_passed = True
    for name, func in SUITES:
        result = func(model, seed, samples, tol)
        suites[name] = result
        all_passed = all_passed and bool(result["passed"])
    return {
        "seed": int(seed),
        "samples": int(samples),
        "tolerance": float(tol),
        "suites": suites,
        "all_passed": bool(all_passed),
        "verdict": "PASS" if all_passed else "FAIL",
    }
