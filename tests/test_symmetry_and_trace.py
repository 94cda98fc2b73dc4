"""Two facts every algebra gives the curvature operators, tested as
properties over the test algebras.

* The identity tr ad_X = 0 of a compact algebra: the curvature operator
  F on (2,0) sections and the coupling R_F of the second variation are
  traceless for every curvature.  The algebras carry coordinates in which
  the invariant inner product is c times the plain one, so the trace is
  the plain matrix trace.
* Invariance under the automorphisms Ad(G): with h = exp(ad_v), which is
  orthogonal in those coordinates, the algebra coordinates of a
  curvature move as u -> h u and no reported number moves beyond
  rounding.  An orthogonal map that is not an automorphism must move the
  curvature spectrum, or the invariance check would have no teeth.
"""

import numpy as np
from hypothesis import given, settings, strategies as st

from artifact.flat_model import calibrate_model, standard_two_form_families
from artifact.gauge_fields import (
    FComponents,
    GValuedForm,
    g_norm,
    instanton_classify,
)
from artifact.lie_algebra import (
    ad_matrix,
    algebra_from_basis,
    bracket_vec,
    make_abelian,
    make_so,
    make_su,
)
from artifact.weitzenbock_engine import (
    TransverseRicci,
    build_F_operator_from_components,
    vanishing_report,
)
from artifact.ym_stability import (
    RicciTensor7,
    algebraic_second_variation,
    curvature_action_oneforms,
    stability_report,
)
from oracle_routes import gform_from_terms

MODEL = calibrate_model()
EPS = np.finfo(float).eps

_SKEWED_SO4 = np.einsum(
    "ij,jab->iab",
    np.eye(6) + 0.25 * np.arange(36).reshape(6, 6) % 1.5,
    make_so(4).basis,
)
ALGEBRAS = {
    "su2": make_su(2),
    "su2_trace": make_su(2, inner="trace"),
    "so3": make_so(3),
    "so5": make_so(5),
    "so7": make_so(7),
    "skewed_so4": algebra_from_basis("skewed so(4)", _SKEWED_SO4),
    "abelian3": make_abelian(3),
}

algebra_names = st.sampled_from(sorted(ALGEBRAS))
leads = st.sampled_from([(), (1,), (3,), (2, 2)])
seeds = st.integers(0, 2**32 - 1)


def _assert_traceless(matrix):
    """The plain trace of each matrix of a stack within n eps times the
    sum of the magnitudes of its diagonal."""
    diagonal = np.diagonal(matrix, axis1=-2, axis2=-1)
    budget = diagonal.shape[-1] * EPS * np.sum(np.abs(diagonal), axis=-1)
    assert np.all(np.abs(np.sum(diagonal, axis=-1)) <= budget)


# ---------------------------------------------------------------------------
# tr F = 0 and tr R_F = 0
# ---------------------------------------------------------------------------


@settings(max_examples=80, deadline=None)
@given(name=algebra_names, lead=leads, complex_values=st.booleans(),
       exponent=st.integers(-3, 3), seed=seeds)
def test_curvature_operator_is_traceless(
    name, lead, complex_values, exponent, seed
):
    # any (1,1) component table, its diagonal (the contact line) included,
    # real or complex, one table or a stack
    algebra = ALGEBRAS[name]
    rng = np.random.default_rng(seed)
    shape = (3, 3) + lead + (algebra.dim,)
    table = rng.standard_normal(shape)
    if complex_values:
        table = table + 1j * rng.standard_normal(shape)
    fc = FComponents(algebra, 10.0 ** exponent * table)
    matrix = build_F_operator_from_components(fc).matrix
    assert matrix.shape == lead + (3 * algebra.dim, 3 * algebra.dim)
    _assert_traceless(matrix)


@settings(max_examples=80, deadline=None)
@given(name=algebra_names, lead=leads, exponent=st.integers(-3, 3),
       seed=seeds)
def test_second_variation_coupling_is_traceless(name, lead, exponent, seed):
    algebra = ALGEBRAS[name]
    rng = np.random.default_rng(seed)
    rows = 10.0 ** exponent * rng.standard_normal(
        (21,) + lead + (algebra.dim,)
    )
    F = GValuedForm.from_matrix(algebra, 2, rows)
    _assert_traceless(curvature_action_oneforms(F))
    # so the second variation has the trace of its Ricci part, d tr(Ric)
    ricci = rng.standard_normal((7, 7))
    ricci = RicciTensor7(ricci + ricci.T)
    matrix = algebraic_second_variation(F, ricci)["matrix"]
    diagonal = np.diagonal(matrix, axis1=-2, axis2=-1)
    budget = diagonal.shape[-1] * EPS * np.sum(np.abs(diagonal), axis=-1)
    assert np.all(
        np.abs(np.sum(diagonal, axis=-1)
               - algebra.dim * np.trace(ricci.matrix)) <= budget
    )


# ---------------------------------------------------------------------------
# Ad(G) invariance
# ---------------------------------------------------------------------------


def _automorphism(algebra, v):
    """h = exp(ad_v) from the eigendecomposition of the Hermitian i ad_v:
    ad_v is antisymmetric in coordinates where the inner product is c
    times the plain one, so h is orthogonal."""
    evals, evecs = np.linalg.eigh(1j * ad_matrix(algebra, v))
    h = (evecs * np.exp(-1j * evals)) @ evecs.conj().T
    assert np.max(np.abs(h.imag)) <= 1e-12
    return h.real


def _curvatures(algebra, rng):
    """A self-dual curvature, a (1,1) one with a contact part, and a
    generic real 2-form, each with random algebra coefficients."""
    sd = gform_from_terms(algebra, 2, [
        (w, rng.standard_normal(algebra.dim))
        for w in standard_two_form_families()["w"]
    ])
    mixed = sd + gform_from_terms(
        algebra, 2, [(MODEL.omega, rng.standard_normal(algebra.dim))]
    )
    generic = GValuedForm.from_matrix(
        algebra, 2, rng.standard_normal((21, algebra.dim))
    )
    return {"sd": sd, "mixed": mixed, "generic": generic}


def _numbers(F, ricci3, ricci7):
    """The numbers an Ad(G) element must leave unchanged."""
    out = {"g_norm": g_norm(F)}
    classified = instanton_classify(F, MODEL)
    for route in ("residuals_eigen", "residuals_type"):
        for key, value in classified[route].items():
            out[f"{route}.{key}"] = value
    try:
        vanishing = vanishing_report(F, ricci3, MODEL)
    except ValueError:
        vanishing = None  # not of type (1,1)
    if vanishing is not None:
        for part in ("curvature_spectrum", "combined_spectrum"):
            for key in ("min", "max"):
                out[f"{part}.{key}"] = vanishing[part][key]
    out["min_eigenvalue"] = stability_report(F, ricci7, MODEL)[
        "min_eigenvalue"
    ]
    return out


@settings(max_examples=30, deadline=None)
@given(name=st.sampled_from(["su2", "so5", "so7", "skewed_so4"]),
       seed=seeds)
def test_reports_are_invariant_under_ad(name, seed):
    algebra = ALGEBRAS[name]
    rng = np.random.default_rng(seed)
    h = _automorphism(algebra, rng.standard_normal(algebra.dim))
    d = algebra.dim
    assert np.allclose(h.T @ h, np.eye(d), rtol=0, atol=1e-12)
    u, v = rng.standard_normal((2, d))
    assert np.allclose(
        h @ bracket_vec(algebra, u, v),
        bracket_vec(algebra, h @ u, h @ v), rtol=0, atol=1e-12,
    )
    ricci3 = TransverseRicci.from_diagonal(rng.uniform(0.5, 10.0, 3))
    ricci7 = rng.standard_normal((7, 7))
    ricci7 = RicciTensor7(ricci7 + ricci7.T + 20.0 * np.eye(7))
    for label, F in _curvatures(algebra, rng).items():
        moved = GValuedForm.from_matrix(algebra, 2, F.matrix @ h.T)
        want = _numbers(F, ricci3, ricci7)
        got = _numbers(moved, ricci3, ricci7)
        assert got.keys() == want.keys()
        scale = max(abs(value) for value in want.values())
        for key, value in want.items():
            assert abs(got[key] - value) <= 1e-12 * scale, (label, key)


def test_orthogonal_non_automorphism_moves_the_spectrum():
    # a generic rotation of so(5) coordinates preserves the inner
    # product but not the bracket, and the curvature spectrum moves
    algebra = ALGEBRAS["so5"]
    rng = np.random.default_rng(7)
    q, _ = np.linalg.qr(rng.standard_normal((algebra.dim, algebra.dim)))
    u, v = rng.standard_normal((2, algebra.dim))
    assert not np.allclose(
        q @ bracket_vec(algebra, u, v), bracket_vec(algebra, q @ u, q @ v)
    )
    ricci3 = TransverseRicci.einstein(8.0)
    F = _curvatures(algebra, rng)["sd"]
    moved = GValuedForm.from_matrix(algebra, 2, F.matrix @ q.T)
    assert abs(g_norm(moved) - g_norm(F)) <= 1e-12 * g_norm(F)
    before = vanishing_report(F, ricci3, MODEL)["curvature_spectrum"]
    after = vanishing_report(moved, ricci3, MODEL)["curvature_spectrum"]
    change = max(abs(after["min"] - before["min"]),
                 abs(after["max"] - before["max"]))
    assert change > 1e-3 * max(abs(before["min"]), abs(before["max"]))
